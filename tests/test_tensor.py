import math

import numpy as np
import pytest

from swinscan import tensor as T
from swinscan.errors import (
    ContractError,
    DimensionError,
    EmptyInputError,
    LabelError,
    NonFiniteError,
)

from gradcheck import check_grads, numeric_grad, max_rel_error


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple loop, the independent reference for matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for p in range(k):
                s += a[i, p] * b[p, j]
            out[i, j] = s
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(T.Tensor(np.eye(2)), T.Tensor(a))
        assert np.array_equal(out.data, a)

    def test_known_product(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        assert np.max(np.abs(got - matmul_oracle(a, b))) < 1e-12

    def test_all_shapes_up_to_16(self):
        rng = np.random.default_rng(5)
        for m, k, n in [(1, 1, 1), (2, 3, 4), (16, 16, 16), (9, 16, 2), (16, 1, 16)]:
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            got = T.matmul(T.Tensor(a), T.Tensor(b)).data
            assert np.max(np.abs(got - matmul_oracle(a, b))) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\[2, 3\].*\[2, 2\]"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 2))))

    def test_batched_against_per_slice(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 3, 5))
        b = rng.normal(size=(4, 5, 2))
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        for i in range(4):
            assert np.max(np.abs(got[i] - matmul_oracle(a[i], b[i]))) < 1e-12

    def test_shared_rhs_against_per_slice(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(5, 6))
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        for i in range(3):
            assert np.max(np.abs(got[i] - matmul_oracle(a[i], b))) < 1e-12


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax_lastdim(T.Tensor([0.0, 0.0, 0.0]))
        assert np.max(np.abs(out.data - 1.0 / 3.0)) < 1e-15

    def test_analytic_two_point(self):
        out = T.softmax_lastdim(T.Tensor([0.0, math.log(2.0)]))
        assert np.max(np.abs(out.data - [1.0 / 3.0, 2.0 / 3.0])) < 1e-15

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        for c in (1.7, -250.0, 1e4):
            a = T.softmax_lastdim(T.Tensor(x)).data
            b = T.softmax_lastdim(T.Tensor(x + c)).data
            assert np.max(np.abs(a - b)) < 1e-12

    def test_rows_sum_to_one_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for shape in [(3,), (5, 4), (2, 3, 7)]:
            y = T.softmax_lastdim(T.Tensor(rng.normal(scale=5.0, size=shape))).data
            assert np.max(np.abs(y.sum(axis=-1) - 1.0)) < 1e-12
            assert np.all(y >= 0.0) and np.all(y <= 1.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            T.softmax_lastdim(T.Tensor(np.zeros((0, 3))))


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        x = T.Tensor(np.full((2, 4), 3.5))
        out = T.layer_norm(x, T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)))
        assert np.max(np.abs(out.data)) < 1e-12

    def test_two_point_analytic(self):
        out = T.layer_norm(
            T.Tensor([[1.0, 3.0]]), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))
        )
        assert np.max(np.abs(out.data - [[-1.0, 1.0]])) < 1e-5

    def test_affine_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.layer_norm(T.Tensor(np.zeros((2, 4))), T.Tensor(np.ones(3)), T.Tensor(np.zeros(4)))


class TestGelu:
    def test_zero(self):
        assert T.gelu(T.Tensor([0.0])).data[0] == 0.0

    def test_asymptotes(self):
        assert abs(T.gelu(T.Tensor([10.0])).data[0] - 10.0) < 1e-6
        assert abs(T.gelu(T.Tensor([-10.0])).data[0]) < 1e-6


class TestCrossEntropy:
    def test_saturated_true_class(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 1e4
        loss = T.cross_entropy(T.Tensor(logits), [1])
        assert loss.item() < 1e-6

    def test_uniform_logits(self):
        for c in (2, 3, 7):
            loss = T.cross_entropy(T.Tensor(np.zeros((4, c))), [0] * 4)
            assert abs(loss.item() - math.log(c)) < 1e-12

    def test_batch_equals_mean_of_rows(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(6, 3))
        labels = [0, 2, 1, 1, 0, 2]
        batch = T.cross_entropy(T.Tensor(logits), labels).item()
        rows = [
            T.cross_entropy(T.Tensor(logits[i : i + 1]), [labels[i]]).item()
            for i in range(6)
        ]
        assert abs(batch - sum(rows) / 6.0) < 1e-12

    def test_out_of_range_label(self):
        with pytest.raises(LabelError, match="3"):
            T.cross_entropy(T.Tensor(np.zeros((2, 3))), [0, 3])


class TestBackward:
    def test_sum_of_matmul_grad(self):
        rng = np.random.default_rng(1)
        a = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        with T.Tape() as tape:
            loss = T.total_sum(T.matmul(a, b))
        T.backward(tape, loss)
        expected = np.ones((3, 5)) @ b.data.T
        assert np.max(np.abs(a.grad - expected)) < 1e-12

    def test_three_layer_composite_matches_fd(self):
        rng = np.random.default_rng(2)
        x = T.Tensor(rng.normal(size=(4, 6)))
        w1 = T.Tensor(rng.normal(size=(6, 5), scale=0.5), requires_grad=True)
        w2 = T.Tensor(rng.normal(size=(5, 3), scale=0.5), requires_grad=True)
        labels = [0, 2, 1, 1]

        def build():
            h = T.gelu(T.matmul(x, w1))
            return T.cross_entropy(T.matmul(h, w2), labels)

        check_grads(build, [w1, w2])

    def test_unused_parameter_gets_zero(self):
        rng = np.random.default_rng(8)
        used = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        unused = T.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        with T.Tape() as tape:
            tape.watch(unused)
            loss = T.total_sum(T.matmul(used, used))
        T.backward(tape, loss)
        assert np.array_equal(unused.grad, np.zeros((3, 3)))

    def test_disconnected_branch_gets_zero(self):
        rng = np.random.default_rng(12)
        p = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        q = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        with T.Tape() as tape:
            T.matmul(q, q)  # recorded but never reaches the loss
            loss = T.total_sum(T.matmul(p, p))
        T.backward(tape, loss)
        assert np.array_equal(q.grad, np.zeros((2, 2)))

    def test_non_scalar_loss_rejected(self):
        a = T.Tensor(np.zeros((2, 2)), requires_grad=True)
        with T.Tape() as tape:
            out = T.matmul(a, a)
        with pytest.raises(ContractError):
            T.backward(tape, out)

    def test_identical_tapes_give_bitwise_identical_grads(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(4, 4))
        grads = []
        for _ in range(2):
            p = T.Tensor(data.copy(), requires_grad=True)
            with T.Tape() as tape:
                h = T.gelu(T.matmul(p, p))
                loss = T.cross_entropy(h, [0, 1, 2, 3])
            T.backward(tape, loss)
            grads.append(p.grad)
        assert grads[0].tobytes() == grads[1].tobytes()


class TestGradientsAgainstFiniteDifferences:
    """Every differentiable op, three distinct randomized shapes each."""

    SHAPES3 = [(3, 5), (2, 4, 6), (7, 2)]

    def _check_unary(self, fn):
        rng = np.random.default_rng(21)
        for shape in self.SHAPES3:
            x = T.Tensor(rng.normal(size=shape), requires_grad=True)
            # gelu breaks row-sum invariance; a plain sum of softmax
            # outputs is constant and would zero out the gradients
            check_grads(lambda x=x: T.total_sum(T.gelu(T.scale(fn(x), 1.7))), [x])

    def test_gelu_grad(self):
        self._check_unary(T.gelu)

    def test_softmax_grad(self):
        self._check_unary(T.softmax_lastdim)

    def test_layer_norm_grad(self):
        rng = np.random.default_rng(22)
        for shape in [(2, 5), (3, 4), (2, 3, 6)]:
            c = shape[-1]
            x = T.Tensor(rng.normal(size=shape), requires_grad=True)
            gamma = T.Tensor(rng.normal(size=c), requires_grad=True)
            beta = T.Tensor(rng.normal(size=c), requires_grad=True)
            check_grads(
                lambda x=x, g=gamma, b=beta: T.total_sum(
                    T.gelu(T.layer_norm(x, g, b))
                ),
                [x, gamma, beta],
            )

    def test_matmul_grad(self):
        rng = np.random.default_rng(23)
        for sa, sb in [((3, 4), (4, 5)), ((2, 3, 4), (4, 2)), ((2, 2, 3), (2, 3, 2))]:
            a = T.Tensor(rng.normal(size=sa), requires_grad=True)
            b = T.Tensor(rng.normal(size=sb), requires_grad=True)
            check_grads(lambda a=a, b=b: T.total_sum(T.gelu(T.matmul(a, b))), [a, b])

    def test_cross_entropy_grad(self):
        rng = np.random.default_rng(24)
        for b, c in [(2, 2), (5, 3), (3, 7)]:
            logits = T.Tensor(rng.normal(size=(b, c)), requires_grad=True)
            labels = list(rng.integers(0, c, size=b))
            check_grads(lambda l=logits, y=labels: T.cross_entropy(l, y), [logits])

    def test_structural_ops_grad(self):
        rng = np.random.default_rng(25)
        for shape in [(2, 6), (4, 3), (2, 2, 4)]:
            x = T.Tensor(rng.normal(size=shape), requires_grad=True)

            def build(x=x, shape=shape):
                h = T.reshape(x, (-1, shape[-1]))
                h = T.permute(h, (1, 0))
                h = T.roll(h, (1,), (0,))
                h = T.slice_axis(h, 1, 0, h.shape[1])
                h = T.reduce_mean(h, axis=0)
                return T.total_sum(T.gelu(h))

            check_grads(build, [x])

    def test_take_rows_grad(self):
        rng = np.random.default_rng(26)
        for n, c, k in [(5, 3, 8), (4, 2, 4), (9, 4, 20)]:
            table = T.Tensor(rng.normal(size=(n, c)), requires_grad=True)
            idx = rng.integers(0, n, size=k)
            check_grads(
                lambda t=table, i=idx: T.total_sum(T.gelu(T.take_rows(t, i))), [table]
            )


class TestNanPolicy:
    def test_non_finite_construction_rejected(self):
        with pytest.raises(NonFiniteError):
            T.Tensor([np.nan])

    def test_overflow_raises(self):
        x = T.Tensor([[800.0, 0.0]])
        gamma = T.Tensor(np.full(2, 1e308))
        with pytest.raises(NonFiniteError):
            # exp overflow inside a later op is surfaced, never propagated
            T.matmul(T.Tensor([[1e308, 1e308]]), T.Tensor([[1e308], [1e308]]))
        del x, gamma


class TestInvariants:
    def test_shape_product_matches_data(self):
        for shape in [(), (3,), (2, 5)]:
            t = T.Tensor(np.zeros(shape))
            assert t.data.size == int(np.prod(shape, dtype=np.int64))

    def test_grad_same_shape_after_backward(self):
        a = T.Tensor(np.ones((3, 2)), requires_grad=True)
        with T.Tape() as tape:
            loss = T.total_sum(a)
        T.backward(tape, loss)
        assert a.grad.shape == a.data.shape
