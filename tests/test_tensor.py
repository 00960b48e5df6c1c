import hashlib
import inspect
import math
import os
import queue
import re
import signal
import sys
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from swinscan import model as M
from swinscan import tensor as T
from swinscan.errors import (
    ContractError,
    DimensionError,
    EmptyInputError,
    LabelError,
    NonFiniteError,
)

from gradcheck import check_grads, numeric_grad, max_rel_error

_S = 0.7978845608028654  # sqrt(2/pi), as in tensor.py
_C = 0.044715


def gelu_pow_oracle(xd, g):
    """The GELU forward and backward as first written, with ``**``."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.tanh(_S * (xd + _C * xd ** 3))
        out = 0.5 * xd * (1.0 + t)
        sech2 = 1.0 - t * t
        d_inner = _S * (1.0 + 3.0 * _C * xd ** 2)
        gx = g * (0.5 * (1.0 + t) + 0.5 * xd * sech2 * d_inner)
    return out, gx


def gelu_product_reference(xd, g):
    """Out-of-place GELU with the cube as a product: the in-place kernel's
    operation tree, one fresh array per step."""
    t = np.tanh(_S * (xd + _C * (xd * xd * xd)))
    out = 0.5 * xd * (1.0 + t)
    sech2 = 1.0 - t * t
    d_inner = _S * (1.0 + 3.0 * _C * (xd * xd))
    gx = g * (0.5 * (1.0 + t) + 0.5 * xd * sech2 * d_inner)
    return out, gx


def layer_norm_reference(xd, gamma, beta, g):
    """Out-of-place layer norm with np.var, and its backward."""
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + T.LAYER_NORM_EPS)
    xhat = (xd - mu) * inv_std
    out = xhat * gamma + beta
    gx_hat = g * gamma
    m1 = gx_hat.mean(axis=-1, keepdims=True)
    m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
    gx = inv_std * (gx_hat - m1 - xhat * m2)
    axes = tuple(range(g.ndim - 1))
    return out, gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


def forward_backward(op, inputs, g):
    """Output data of ``op`` and its recorded backward applied to ``g``."""
    tensors = [T.Tensor(a, requires_grad=True) for a in inputs]
    with T.Tape() as tape:
        out = op(*tensors)
    (node,) = tape.nodes
    return out.data, node.backward_fn(g)


def linear_chain(x, w, b):
    """The unfused linear: the two nodes T.linear replaces."""
    return T.add(T.matmul(x, w), b)


def mlp_chain(x, w1, b1, w2, b2):
    """The unfused MLP: the three nodes T.mlp replaces."""
    return T.linear(T.gelu(T.linear(x, w1, b1)), w2, b2)


def attention_chain(qkv, bias_table, index, mask):
    """The unfused window attention between the qkv and output projections:
    the chain of nodes T.attention replaces."""
    n_win, n_tok, c3 = qkv.shape
    heads = bias_table.shape[1]
    c = c3 // 3
    dh = c // heads
    parts = T.permute(T.reshape(qkv, (n_win, n_tok, 3, heads, dh)), (2, 0, 3, 1, 4))
    q, k, v = (T.reshape(T.slice_axis(parts, 0, i, i + 1), (n_win, heads, n_tok, dh))
               for i in range(3))
    attn = T.scale(T.matmul(q, T.permute(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    bias = T.reshape(T.take_rows(bias_table, index), (n_tok, n_tok, heads))
    attn = T.add(attn, T.permute(bias, (2, 0, 1)))
    if mask is not None:
        attn = T.add(attn, T.Tensor(np.repeat(mask[:, None, :, :], heads, axis=1)))
    out = T.matmul(T.softmax_lastdim(attn), v)
    return T.reshape(T.permute(out, (0, 2, 1, 3)), (n_win, n_tok, c))


def replay(op, inputs, g, requires_grad=None):
    """Output data of ``op`` on fresh tensors of the arrays ``inputs`` and
    each input's gradient for the output gradient ``g``, accumulated over
    the tape as ``T.backward`` does (None for an input that needs none)."""
    flags = requires_grad or [True] * len(inputs)
    tensors = [T.Tensor(a.copy(), requires_grad=f) for a, f in zip(inputs, flags)]
    with T.Tape() as tape:
        out = op(*tensors)
    grads = {tape.key(out): g}
    for node in reversed(tape.nodes):
        gout = grads.pop(node.output_key, None)
        if gout is None:
            continue
        for key, gi in zip(node.input_keys, node.backward_fn(gout)):
            if gi is not None and key is not None:
                grads[key] = grads[key] + gi if key in grads else gi
    return out.data, [grads.get(tape.key(t)) for t in tensors]


def seed_gradient(rng, shape):
    """An output gradient with whole zero rows and signed zeros in it."""
    g = rng.normal(size=shape)
    rows = g.reshape(-1, shape[-1])
    rows[::5] = 0.0
    rows[1::3, :3] = -0.0
    rows[2::7, ::2] = 0.0
    return g


# signed zeros, subnormals and magnitudes from 1e-300 to 1e100
_GELU_GRID = np.array(
    [
        0.0, 5e-324, 3e-320, 1e-310, 1e-300, 1e-8, 0.5, 1.0, 3.0, 8.0,
        1e3, 1e100,
    ]
)
_GELU_GRID = np.concatenate([_GELU_GRID, -_GELU_GRID])

_ODD_SHAPES = [(1,), (7,), (3, 5), (2, 3, 17), (1, 1, 1, 129), (5, 1, 33)]


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

    @pytest.mark.parametrize("shape", [(32, 256, 128)] + _ODD_SHAPES)
    def test_bitwise_equal_to_out_of_place_reference(self, shape):
        rng = np.random.default_rng(31)
        c = shape[-1]
        xd = rng.normal(loc=0.3, scale=2.0, size=shape)
        gamma, beta = rng.normal(size=c), rng.normal(size=c)
        g = rng.normal(size=shape)
        saved = [a.copy() for a in (xd, gamma, beta, g)]
        out, grads = forward_backward(T.layer_norm, [xd, gamma, beta], g)
        expected = layer_norm_reference(xd, gamma, beta, g)
        assert out.tobytes() == expected[0].tobytes()
        for got, want in zip(grads, expected[1:]):
            assert got.tobytes() == want.tobytes()
        for a, b in zip((xd, gamma, beta, g), saved):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("shape", [(32, 256, 128), (3, 5), (2, 3, 17)])
    def test_variance_steps_equal_np_var(self, shape):
        # layer_norm takes the variance as the mean of the squared centred
        # values; this is what np.var computes today, bit for bit
        xd = np.random.default_rng(32).normal(loc=5.0, size=shape)
        xc = xd - xd.mean(axis=-1, keepdims=True)
        var = (xc * xc).mean(axis=-1, keepdims=True)
        assert var.tobytes() == xd.var(axis=-1, keepdims=True).tobytes()


class TestGelu:
    def test_zero(self):
        assert T.gelu(T.Tensor([0.0])).data[0] == 0.0

    def test_asymptotes(self):
        assert abs(T.gelu(T.Tensor([10.0])).data[0] - 10.0) < 1e-6
        assert abs(T.gelu(T.Tensor([-10.0])).data[0]) < 1e-6

    def test_rank_zero(self):
        out, (gx,) = forward_backward(T.gelu, [np.array(1.5)], np.array(2.0))
        want_out, want_gx = gelu_product_reference(np.float64(1.5), 2.0)
        assert out == want_out and gx == want_gx

    def test_matches_pow_formula_on_grid(self):
        g = np.linspace(-1.5, 2.0, _GELU_GRID.size)
        out, (gx,) = forward_backward(T.gelu, [_GELU_GRID], g)
        want_out, want_gx = gelu_pow_oracle(_GELU_GRID, g)
        for got, want in ((out, want_out), (gx, want_gx)):
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_matches_pow_formula_densely(self):
        # In the negative tail 1 + t cancels, and a one-ULP change of t is
        # a large relative change of a tiny value; both outputs carry that
        # ULP times about |x|, so compare on the scale of max(|value|, |x|, 1).
        xd = np.linspace(-12.0, 12.0, 240_001)
        g = np.ones_like(xd)
        out, (gx,) = forward_backward(T.gelu, [xd], g)
        want_out, want_gx = gelu_pow_oracle(xd, g)
        scale = np.maximum(np.abs(xd), 1.0)
        for got, want in ((out, want_out), (gx, want_gx)):
            assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(np.abs(want), scale))

    @pytest.mark.parametrize("shape", [(32, 256, 128)] + _ODD_SHAPES + [(3, T._GELU_BLOCK + 5)])
    def test_bitwise_equal_to_out_of_place_reference(self, shape):
        rng = np.random.default_rng(33)
        xd = rng.normal(scale=3.0, size=shape)
        g = rng.normal(size=shape)
        saved_x, saved_g = xd.copy(), g.copy()
        tensor = T.Tensor(xd, requires_grad=True)
        with T.Tape() as tape:
            out = T.gelu(tensor)
        (node,) = tape.nodes
        (gx,) = node.backward_fn(g)
        want_out, want_gx = gelu_product_reference(xd, g)
        assert out.data.tobytes() == want_out.tobytes()
        assert gx.tobytes() == want_gx.tobytes()
        # the kernel writes into neither its input, its seed gradient nor
        # what it saved for the backward: a second backward is the same
        assert xd.tobytes() == saved_x.tobytes() and g.tobytes() == saved_g.tobytes()
        assert node.backward_fn(g)[0].tobytes() == gx.tobytes()

    def test_strided_input_bitwise_equal_to_reference(self):
        rng = np.random.default_rng(34)
        xd = rng.normal(scale=3.0, size=(T._GELU_BLOCK // 64 + 3, 130)).T
        g = rng.normal(size=xd.shape)[:, ::-1]
        out, (gx,) = forward_backward(T.gelu, [xd], g)
        want_out, want_gx = gelu_product_reference(xd, g)
        assert _same_bits(out, want_out) and _same_bits(gx, want_gx)

    def test_gradient_finite_where_square_overflows(self):
        x = T.Tensor([1e160, -1e160, 1e300, -1e300], requires_grad=True)
        with T.Tape() as tape:
            loss = T.total_sum(T.gelu(x))
        T.backward(tape, loss)
        assert np.array_equal(x.grad, [1.0, 0.0, 1.0, 0.0])


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestLinear:
    # (x, w) shapes of the model's six linears at batch 1 and 32
    SHAPES = [
        ((1, 256, 48), (48, 32)), ((32, 256, 48), (48, 32)),  # patch embed
        ((16, 16, 32), (32, 96)), ((512, 16, 32), (32, 96)),  # qkv
        ((1, 16, 16, 32), (32, 128)), ((32, 8, 8, 64), (64, 256)),  # fc1
        ((1, 64), (64, 2)), ((32, 64), (64, 3)),  # head
    ]

    @pytest.mark.parametrize("xs, ws", SHAPES)
    def test_bitwise_equal_to_matmul_add_chain(self, xs, ws):
        rng = np.random.default_rng(41)
        x, w, b = rng.normal(size=xs), rng.normal(size=ws), rng.normal(size=ws[1])
        g = seed_gradient(rng, xs[:-1] + ws[1:])
        got_out, got = replay(T.linear, [x, w, b], g)
        want_out, want = replay(linear_chain, [x, w, b], g)
        assert _same_bits(got_out, want_out)
        for a, e in zip(got, want):
            assert _same_bits(a, e)

    def test_input_without_grad_gets_none_and_same_weight_grads(self):
        # image patches need no gradient; the weight gradients stay the bits
        rng = np.random.default_rng(42)
        x, w, b = rng.normal(size=(2, 256, 48)), rng.normal(size=(48, 32)), rng.normal(size=32)
        g = seed_gradient(rng, (2, 256, 32))
        with T.Tape() as tape:  # the rule itself: replay drops a gradient nothing needs
            T.linear(T.Tensor(x), T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True))
        gx, gw, gb = tape.nodes[0].backward_fn(g)
        _, (_, want_w, want_b) = replay(linear_chain, [x, w, b], g)
        assert gx is None
        assert _same_bits(gw, want_w) and _same_bits(gb, want_b)

    def test_shape_mismatch_names_all_shapes(self):
        with pytest.raises(DimensionError, match=r"\[2, 3\] @ \[2, 2\] \+ \[2\]"):
            T.linear(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 2))), T.Tensor(np.zeros(2)))
        with pytest.raises(DimensionError):
            T.linear(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 2))), T.Tensor(np.zeros(3)))

    def test_forward_overflow_names_linear(self):
        huge = T.Tensor(np.full((2, 2), 1e200))
        with pytest.raises(NonFiniteError, match="^linear produced non-finite"):
            T.linear(huge, huge, T.Tensor(np.zeros(2)))

    def test_backward_overflow_names_linear(self):
        # x @ w is about 6e8, but the gradient of x sums two 1.5e308 entries
        x = T.Tensor(np.full((3, 4), 1e-300), requires_grad=True)
        w = T.Tensor(np.full((4, 2), 1.5e308), requires_grad=True)
        with T.Tape() as tape:
            loss = T.total_sum(T.linear(x, w, T.Tensor(np.zeros(2))))
        with pytest.raises(NonFiniteError, match="^backward of linear produced non-finite"):
            T.backward(tape, loss)


class TestMlp:
    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("batch", [1, 32])
    @pytest.mark.parametrize("xs, ws", [((16, 16, 32), (32, 128)), ((8, 8, 64), (64, 256)),
                                        ((64, 32), (32, 128))])
    def test_bitwise_equal_to_linear_gelu_linear_chain(self, cut, batch, xs, ws, width):
        # the model's two stages, 4-D, and a 3-D stack of token rows
        cut(width)
        rng = np.random.default_rng(43)
        c, m = ws
        inputs = [rng.normal(size=(batch,) + xs), rng.normal(scale=0.3, size=(c, m)),
                  rng.normal(size=m), rng.normal(scale=0.3, size=(m, c)), rng.normal(size=c)]
        g = seed_gradient(rng, (batch,) + xs)
        got_out, got = replay(T.mlp, inputs, g)
        want_out, want = replay(mlp_chain, inputs, g)
        assert _same_bits(got_out, want_out)
        assert len(got) == 5
        for a, e in zip(got, want):
            assert _same_bits(a, e)

    def test_rank_2_input_is_one_stack(self):
        rng = np.random.default_rng(44)
        inputs = [rng.normal(size=(9, 4)), rng.normal(size=(4, 8)), rng.normal(size=8),
                  rng.normal(size=(8, 3)), rng.normal(size=3)]
        g = seed_gradient(rng, (9, 3))
        got_out, got = replay(T.mlp, inputs, g)
        want_out, want = replay(mlp_chain, inputs, g)
        assert _same_bits(got_out, want_out)
        for a, e in zip(got, want):
            assert _same_bits(a, e)

    def test_input_without_grad_gets_none_and_same_weight_grads(self):
        # the rule makes no gh @ w1.T for an x that needs no gradient
        rng = np.random.default_rng(45)
        inputs = [rng.normal(size=(2, 16, 8)), rng.normal(size=(8, 32)), rng.normal(size=32),
                  rng.normal(size=(32, 8)), rng.normal(size=8)]
        g = seed_gradient(rng, (2, 16, 8))
        x, *params = (T.Tensor(a, requires_grad=i > 0) for i, a in enumerate(inputs))
        with T.Tape() as tape:
            T.mlp(x, *params)
        gx, *got = tape.nodes[0].backward_fn(g)
        _, (_, *want) = replay(mlp_chain, inputs, g)
        assert gx is None
        for a, e in zip(got, want):
            assert _same_bits(a, e)

    def test_shape_mismatch_names_all_shapes(self):
        x, w, b = T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 4))), T.Tensor(np.zeros(4))
        with pytest.raises(DimensionError, match=r"\[2, 3\] @ \[3, 4\] \+ \[4\], then @ \[3, 3\]"):
            T.mlp(x, w, b, T.Tensor(np.zeros((3, 3))), T.Tensor(np.zeros(3)))
        with pytest.raises(DimensionError):
            T.mlp(x, w, b, T.Tensor(np.zeros((4, 3))), T.Tensor(np.zeros(4)))


class TestTapeMemory:
    """mlp and attention save their input x; their backwards rebuild the
    MLP hidden, the q/k/v copy and the probabilities from it."""

    @staticmethod
    def batch_of_8():
        weights = M.ModelWeights.init(M.default_config(2), seed=0)
        images = np.random.default_rng(3).normal(size=(8, 3, 64, 64))
        M.forward_batch(images[:1], weights)  # builds the orders and masks kept per grid
        return weights, images

    def test_taped_forward_holds_no_hidden_qkv_or_probabilities(self):
        # of every array mlp and attention allocate, the end of a taped
        # forward holds only attention's outputs, which the output
        # projections save
        weights, images = self.batch_of_8()
        tracemalloc.start(8)
        try:
            with T.Tape():
                M.forward_batch(images, weights)
                snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        fused = set()
        for fn in (T.mlp, T.attention):
            body, first = inspect.getsourcelines(fn)
            fused.update((T.__file__, line) for line in range(first, first + len(body)))
        arrays = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        held = [trace.size for trace in arrays.traces
                if any((f.filename, f.lineno) in fused for f in trace.traceback)]
        outputs = [8 * 8 * (M.GRID_SIZE >> s) ** 2 * (M.EMBED_DIM << s)
                   for s, depth in enumerate(M.DEPTHS) for _ in range(depth)]
        assert sorted(held) == sorted(outputs)

    def test_training_step_traced_peak(self):
        # 25.6 MiB when mlp kept its hidden and attention its q/k/v copy
        # and probabilities; 13.1 MiB when each keeps only its input
        weights, images = self.batch_of_8()
        tracemalloc.start()
        try:
            with T.Tape() as tape:
                loss = T.cross_entropy(M.forward_batch(images, weights), [0, 1] * 4)
            T.backward(tape, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def one_hot_windows(qkv):
    """(x, w, b) whose projection x @ w + b is exactly ``qkv``: token t of
    window i picks row i * tokens + t of w, which holds that token's q, k
    and v."""
    n_win, n_tok, c3 = qkv.shape
    x = np.eye(n_win * n_tok).reshape(n_win, n_tok, n_win * n_tok)
    return x, qkv.reshape(n_win * n_tok, c3), np.zeros(c3)


class TestAttention:
    @staticmethod
    def inputs(rng, batch, heads, masked):
        # the model's stages: 2 heads over a 16x16 grid of 32 channels,
        # 4 heads over an 8x8 grid of 64 channels; windows of 4x4 tokens
        side, c = {2: (16, 32), 4: (8, 64)}[heads]
        n_win = batch * (side // M.WINDOW_SIZE) ** 2
        x = rng.normal(size=(n_win, M.WINDOW_SIZE ** 2, c))
        w = rng.normal(scale=c ** -0.5, size=(c, 3 * c))
        b = rng.normal(scale=0.1, size=3 * c)
        table = rng.normal(scale=0.5, size=((2 * M.WINDOW_SIZE - 1) ** 2, heads))
        mask = M.build_shift_mask(side, side) if masked else None
        return [x, w, b, table], mask

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("heads", [2, 4])
    @pytest.mark.parametrize("batch", [1, 32])
    def test_bitwise_equal_to_unfused_chain(self, batch, heads, masked):
        # attention takes the mask as built, one matrix per window
        # position; the chain adds it tiled to one matrix per window
        rng = np.random.default_rng(43 + batch + heads)
        inputs, mask = self.inputs(rng, batch, heads, masked)
        x = inputs[0]
        tiled = np.tile(mask, (batch, 1, 1)) if masked else None
        g = seed_gradient(rng, x.shape)
        index = M.relative_bias_index().reshape(-1)
        got_out, got = replay(lambda *a: T.attention(*a, index, mask), inputs, g)
        want_out, want = replay(
            lambda x, w, b, t: attention_chain(T.linear(x, w, b), t, index, tiled), inputs, g)
        assert _same_bits(got_out, want_out)
        assert len(got) == 4
        for a, e in zip(got, want):
            assert _same_bits(a, e)

    def test_table_without_grad_gets_none(self):
        rng = np.random.default_rng(44)
        inputs, mask = self.inputs(rng, 1, 2, True)
        g = seed_gradient(rng, inputs[0].shape)
        index = M.relative_bias_index().reshape(-1)
        op = lambda *a: T.attention(*a, index, mask)  # noqa: E731
        _, got = replay(op, inputs, g, requires_grad=[True, True, True, False])
        _, want = replay(op, inputs, g)
        assert got[3] is None
        for a, e in zip(got[:3], want):
            assert _same_bits(a, e)

    def test_input_without_grad_gets_none_and_same_weight_grads(self):
        # the rule itself makes no g_qkv @ w.T for an x that needs no gradient
        rng = np.random.default_rng(47)
        inputs, mask = self.inputs(rng, 1, 2, True)
        g = seed_gradient(rng, inputs[0].shape)
        index = M.relative_bias_index().reshape(-1)
        _, want = replay(lambda *a: T.attention(*a, index, mask), inputs, g)
        x, *params = (T.Tensor(a, requires_grad=i > 0) for i, a in enumerate(inputs))
        with T.Tape() as tape:
            T.attention(x, *params, index, mask)
        gx, *got = tape.nodes[0].backward_fn(g)
        assert gx is None
        for a, e in zip(got, want[1:]):
            assert _same_bits(a, e)

    def test_shapes_checked(self):
        index = M.relative_bias_index().reshape(-1)
        x, w, b = (T.Tensor(np.zeros(shape)) for shape in ((2, 16, 8), (8, 24), 24))
        table = T.Tensor(np.zeros((49, 2)))
        with pytest.raises(DimensionError, match="mask shape"):
            T.attention(x, w, b, table, index, np.zeros((3, 16, 16)))  # 3 masks, 2 windows
        with pytest.raises(DimensionError, match=r"\[2, 16, 8\] @ \[8, 20\] \+ \[20\]"):
            T.attention(x, T.Tensor(np.zeros((8, 20))), T.Tensor(np.zeros(20)), table, index)
        with pytest.raises(DimensionError):
            T.attention(T.Tensor(np.zeros((2, 9, 8))), w, b, table, index)  # 16 x 16 index
        with pytest.raises(DimensionError):
            T.attention(T.Tensor(np.zeros((2, 16, 6))), w, b, table, index)  # 6 rows of w?
        with pytest.raises(DimensionError):
            T.attention(x, w, T.Tensor(np.zeros(8)), table, index)
        with pytest.raises(DimensionError):
            T.attention(T.Tensor(np.zeros((32, 8))), w, b, table, index)  # no windows

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_mask_per_window_position(self, m):
        # window i gets mask[i % m]: the same bits as the tiled mask
        rng = np.random.default_rng(46)
        inputs = [rng.normal(size=(4, 16, 6)), rng.normal(size=(6, 12)), rng.normal(size=12),
                  rng.normal(size=(49, 2))]
        mask = np.where(rng.random(size=(m, 16, 16)) < 0.3, M.MASK_NEG, 0.0)
        index = M.relative_bias_index().reshape(-1)
        g = seed_gradient(rng, (4, 16, 4))
        got_out, got = replay(lambda *a: T.attention(*a, index, mask), inputs, g)
        tiled = np.tile(mask, (4 // m, 1, 1))
        want_out, want = replay(lambda *a: T.attention(*a, index, tiled), inputs, g)
        assert _same_bits(got_out, want_out)
        for a, e in zip(got, want):
            assert _same_bits(a, e)

    @pytest.mark.parametrize("shape", [(0, 16, 16), (16, 16), (2, 1, 16, 16), (2, 16, 9)])
    def test_mask_of_other_shape_rejected(self, shape):
        x, w, b = (T.Tensor(np.zeros(shape)) for shape in ((2, 16, 8), (8, 24), 24))
        with pytest.raises(DimensionError, match="mask shape"):
            T.attention(x, w, b, T.Tensor(np.zeros((49, 2))), M.relative_bias_index().reshape(-1),
                        np.zeros(shape))

    def test_forward_overflow_names_attention(self):
        index = M.relative_bias_index().reshape(-1)
        x, w, b = one_hot_windows(np.full((1, 16, 12), 1e200))  # q . k overflows
        with pytest.raises(NonFiniteError, match="^attention produced non-finite"):
            T.attention(T.Tensor(x), T.Tensor(w), T.Tensor(b), T.Tensor(np.zeros((49, 2))), index)

    def test_projection_overflow_names_attention(self):
        # x @ w_qkv overflows inside the node, where a qkv linear node
        # used to name itself
        index = M.relative_bias_index().reshape(-1)
        x, w, b = np.ones((1, 16, 4)), np.full((4, 12), 1e308), np.zeros(12)
        with pytest.raises(NonFiniteError, match="^attention produced non-finite"):
            T.attention(T.Tensor(x), T.Tensor(w), T.Tensor(b), T.Tensor(np.zeros((49, 2))), index)

    def test_backward_overflow_names_attention(self):
        # k near 1e300 against q near 1e-300 keeps the scores near 1, and
        # v near 1e10 the output; the gradient of q overflows
        rng = np.random.default_rng(45)
        q = rng.normal(size=(1, 16, 4)) * 1e-300
        k = rng.normal(size=(1, 16, 4)) * 1e300
        v = rng.normal(size=(1, 16, 4)) * 1e10
        x, w, b = (T.Tensor(a, requires_grad=True)
                   for a in one_hot_windows(np.concatenate([q, k, v], axis=-1)))
        table = T.Tensor(np.zeros((49, 2)), requires_grad=True)
        index = M.relative_bias_index().reshape(-1)
        with T.Tape() as tape:
            loss = T.total_sum(T.attention(x, w, b, table, index))
        with pytest.raises(NonFiniteError, match="^backward of attention produced non-finite"):
            T.backward(tape, loss)


def _random_permutation(rng, n):
    order = rng.permutation(n)
    return order, np.argsort(order)


class TestGatherRows:
    @pytest.mark.parametrize("shape, n", [((2, 6, 3), 6), ((3, 4, 4, 2), 16),
                                          ((5, 2), 5), ((4, 6, 5), 12)])
    def test_moves_rows_and_gradient_rows(self, shape, n):
        rng = np.random.default_rng(51)
        a, (order, inverse) = rng.normal(size=shape), _random_permutation(rng, n)
        g = seed_gradient(rng, (a.size // (n * shape[-1]), n * shape[-1]))
        out, (ga,) = replay(lambda t: T.gather_rows(t, order, inverse, g.shape), [a], g)
        rows = a.reshape(-1, n, shape[-1])
        assert _same_bits(out, rows[:, order].reshape(g.shape))
        assert _same_bits(ga, g.reshape(rows.shape)[:, inverse].reshape(shape))

    def test_output_and_gradient_are_c_contiguous(self):
        # a[:, order] is not C-contiguous for every layout, and a later
        # reduction over such an array may sum in another order
        rng = np.random.default_rng(52)
        order, inverse = _random_permutation(rng, 6)
        a = rng.normal(size=(3, 4, 6)).transpose(0, 2, 1)  # strided (3, 6, 4)
        g = rng.normal(size=(4, 3, 6)).transpose(1, 2, 0)  # strided (3, 6, 4)
        x = T.Tensor(a, requires_grad=True)
        with T.Tape() as tape:
            out = T.gather_rows(x, order, inverse, (3, 6, 4))
        (ga,) = tape.nodes[0].backward_fn(g)
        assert np.array_equal(out.data, a[:, order]) and np.array_equal(ga, g[:, inverse])
        assert out.data.flags.c_contiguous and ga.flags.c_contiguous

    def test_one_node(self):
        order, inverse = _random_permutation(np.random.default_rng(53), 4)
        with T.Tape() as tape:
            T.gather_rows(T.Tensor(np.zeros((2, 4, 3)), requires_grad=True),
                          order, inverse, (2, 2, 2, 3))
        assert [node.op for node in tape.nodes] == ["gather_rows"]

    @pytest.mark.parametrize("shape, order, inverse, out_shape", [
        ((6,), [0, 1, 2], [0, 1, 2], (6,)),  # rank 1
        ((2, 5, 3), [1, 0, 3, 2], [1, 0, 3, 2], (2, 5, 3)),  # 10 rows, 4 per item
        ((2, 4, 3), [1, 0, 3, 2], [1, 0, 3], (2, 4, 3)),  # inverse of another length
        ((2, 4, 3), [1, 0, 3, 2], [1, 0, 3, 2], (2, 4, 4)),  # other element count
        ((2, 0, 3), [], [], (2, 0, 3)),  # no rows
    ])
    def test_shapes_checked(self, shape, order, inverse, out_shape):
        with pytest.raises(DimensionError):
            T.gather_rows(T.Tensor(np.zeros(shape)), np.array(order, dtype=np.intp),
                          np.array(inverse, dtype=np.intp), out_shape)


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

    def test_passed_through_gradient_is_not_checked_again(self, monkeypatch):
        # total_sum's gradient is checked as it is kept; add passes it on
        # to a and b as it is
        check, calls = T._check, []
        monkeypatch.setattr(T, "_check", lambda *args: calls.append(args[1]) or check(*args))
        a = T.Tensor(np.ones((2, 3)), requires_grad=True)
        b = T.Tensor(np.ones((2, 3)), requires_grad=True)
        with T.Tape() as tape:
            loss = T.total_sum(T.add(a, b))
        T.backward(tape, loss)
        assert calls == ["backward of total_sum produced non-finite values"]
        assert np.array_equal(a.grad, np.ones((2, 3))) and np.array_equal(b.grad, a.grad)

    def test_gradient_of_an_input_that_needs_none_is_dropped(self):
        a = T.Tensor([1.0, 2.0], requires_grad=True)
        c = T.Tensor([3.0, 4.0])
        with T.Tape() as tape:
            out = T._node("custom", (a, c), a.data * c.data,
                          lambda g: (g * c.data, np.full(2, np.inf)))
            loss = T.total_sum(out)
        T.backward(tape, loss)
        assert np.array_equal(a.grad, [3.0, 4.0])

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


class TestAccumulation:
    """backward keeps a key's first gradient as its rule returned it and
    sums each later one, left to right, into a fresh array; it never adds
    into an array a rule returned.  It checks every sum, the one into a
    leaf's .grad included."""

    def test_aliased_gradients_sum_out_of_place_bits(self):
        # add returns its seed gradient g for both inputs, so a and b are
        # first handed the same array, and each then receives g again
        rng = np.random.default_rng(75)
        a = T.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        with T.Tape() as tape:
            u = T.add(a, b)
            w = T.add(T.add(u, a), b)
            loss = T.total_sum(T.gelu(w))
        _, (g,) = forward_backward(T.gelu, [w.data], np.ones((4, 6)))
        saved = g.copy()
        T.backward(tape, loss)
        assert _same_bits(a.grad, saved + saved) and _same_bits(b.grad, saved + saved)

    def test_three_gradients_sum_left_to_right(self):
        # a feeds matmul, add and gelu; backward meets their gradients for
        # a in reverse order: gelu's, add's (its seed, which matmul's input
        # also gets) and matmul's
        rng = np.random.default_rng(76)
        a = T.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        with T.Tape() as tape:
            h = T.add(T.add(a, T.matmul(a, w)), T.gelu(a))
            loss = T.total_sum(T.gelu(h))
        key, returned, to_a = tape.key(a), [], []
        for node in tape.nodes:
            def rule(g, fn=node.backward_fn, keys=node.input_keys):
                gins = fn(g)
                returned.extend((gi, gi.copy()) for gi in gins)
                to_a.extend(gi.copy() for k, gi in zip(keys, gins) if k == key)
                return gins
            node.backward_fn = rule
        T.backward(tape, loss)
        assert len(to_a) == 3 and _same_bits(a.grad, (to_a[0] + to_a[1]) + to_a[2])
        assert all(_same_bits(gi, copy) for gi, copy in returned)

    def test_sum_into_a_leaf_grad_is_checked(self):
        a = T.Tensor([1.0], requires_grad=True)
        a.grad = np.array([1e308])
        with T.Tape() as tape:
            loss = T.total_sum(T.scale(a, 1e308))
        with pytest.raises(NonFiniteError, match="^backward's sum into a leaf's grad"):
            T.backward(tape, loss)

    def test_finite_sum_into_a_leaf_grad_keeps_its_bits(self):
        rng = np.random.default_rng(77)
        x, before = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        _, (g,) = forward_backward(T.gelu, [x], np.ones((4, 6)))
        a = T.Tensor(x, requires_grad=True)
        a.grad = before.copy()
        with T.Tape() as tape:
            loss = T.total_sum(T.gelu(a))
        T.backward(tape, loss)
        assert _same_bits(a.grad, before + g)


class TestTapeLifetime:
    """Nodes hold keys, not tensors, and backward consumes the tape."""

    @staticmethod
    def leaves(seed):
        rng = np.random.default_rng(seed)
        return [T.Tensor(rng.normal(size=(4, 6)), requires_grad=True) for _ in range(2)]

    def test_unsaved_output_freed_while_tape_lives(self):
        a, b = self.leaves(70)
        with T.Tape() as tape:
            y = T.add(a, b)  # neither add nor total_sum saves y
            loss = T.total_sum(y)
        freed = weakref.ref(y.data)
        del y
        assert freed() is None and len(tape.nodes) == 2
        T.backward(tape, loss)
        assert np.array_equal(a.grad, np.ones((4, 6)))

    def test_saved_input_freed_once_its_rule_ran(self):
        a, b = self.leaves(71)
        with T.Tape() as tape:
            h = T.add(a, b)
            loss = T.total_sum(T.gelu(h))  # gelu saves its input
        saved = weakref.ref(h.data)
        del h
        assert saved() is not None
        T.backward(tape, loss)
        assert saved() is None

    def test_backward_consumes_the_tape(self):
        a, b = self.leaves(72)
        with T.Tape() as tape:
            loss = T.total_sum(T.matmul(a, T.permute(b, (1, 0))))
        T.backward(tape, loss)
        assert tape.nodes == [] and {id(t) for t in tape.watched()} == {id(a), id(b)}
        with pytest.raises(ContractError):
            T.backward(tape, loss)
        with tape, pytest.raises(ContractError):
            T.add(a, b)

    def test_watch_takes_leaves_only(self):
        a, b = self.leaves(73)
        with T.Tape() as tape:
            y = T.add(a, b)
            with pytest.raises(ContractError):
                tape.watch(y)

    def test_output_of_another_tape_is_a_leaf(self):
        a, b = self.leaves(74)
        with T.Tape():
            y = T.add(a, b)
        with T.Tape() as tape:
            loss = T.total_sum(T.scale(y, 2.0))
        T.backward(tape, loss)
        assert tape.watched() == [y] and a.grad is None
        assert np.array_equal(y.grad, np.full((4, 6), 2.0))


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


    def test_gather_rows_grad(self):
        rng = np.random.default_rng(27)
        for shape, n in [((2, 6, 3), 6), ((3, 4, 2), 12), ((2, 2, 2, 3), 4)]:
            x = T.Tensor(rng.normal(size=shape), requires_grad=True)
            order, inverse = _random_permutation(rng, n)
            check_grads(lambda x=x, o=order, i=inverse: T.total_sum(T.gelu(
                T.gather_rows(x, o, i, (x.size // x.shape[-1], x.shape[-1])))), [x])

    def test_linear_grad(self):
        rng = np.random.default_rng(27)
        for sx, sw in [((3, 4), (4, 5)), ((2, 3, 4), (4, 2)), ((2, 2, 3, 2), (2, 3))]:
            x = T.Tensor(rng.normal(size=sx), requires_grad=True)
            w = T.Tensor(rng.normal(size=sw), requires_grad=True)
            b = T.Tensor(rng.normal(size=sw[1]), requires_grad=True)
            check_grads(lambda x=x, w=w, b=b: T.total_sum(T.gelu(T.linear(x, w, b))), [x, w, b])

    def test_mlp_grad(self):
        rng = np.random.default_rng(29)
        for sx, m in [((3, 4), 5), ((2, 3, 4), 6), ((2, 2, 3, 2), 3)]:
            c = sx[-1]
            params = [T.Tensor(a, requires_grad=True) for a in (
                rng.normal(size=sx), rng.normal(size=(c, m)), rng.normal(size=m),
                rng.normal(size=(m, c)), rng.normal(size=c))]
            check_grads(lambda p=params: T.total_sum(T.gelu(T.mlp(*p))), params)

    @pytest.mark.parametrize("masked", [False, True])
    def test_attention_grad(self, masked):
        # windows of 2x2 tokens: a 9-row bias table, 2 heads of 2 channels
        rng = np.random.default_rng(28)
        coords = np.stack(np.meshgrid(np.arange(2), np.arange(2), indexing="ij"), -1).reshape(-1, 2)
        delta = coords[:, None, :] - coords[None, :, :] + 1
        index = (delta[..., 0] * 3 + delta[..., 1]).reshape(-1)
        mask = np.where(rng.random((3, 4, 4)) < 0.3, M.MASK_NEG, 0.0) if masked else None
        if masked:
            mask[:, np.arange(4), np.arange(4)] = 0.0
        params = [T.Tensor(a, requires_grad=True) for a in (
            rng.normal(size=(3, 4, 5)), rng.normal(size=(5, 12)), rng.normal(size=12),
            rng.normal(size=(9, 2)))]
        check_grads(lambda: T.total_sum(T.gelu(T.attention(*params, index, mask))), params)

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


@pytest.fixture
def cut(monkeypatch, wide_pool):
    """cut(None) runs every node as one part; cut(k) cuts it into up to k
    parts of any size, on the calling thread and k - 1 of the pool's."""
    monkeypatch.setattr(T, "_pool", wide_pool)

    def set_width(width):
        monkeypatch.setattr(T, "_PART_FLOOR", 1 << 62 if width is None else 1)
        monkeypatch.setattr(wide_pool, "width", width or 1)

    return set_width


def _same_bits_in_parts(cut, op, inputs, g, widths=(2, 3, 4)):
    """op's output and input gradients are the same bits in any number of
    parts as in one."""
    cut(None)
    want_out, want = replay(op, inputs, g)
    for width in widths:
        cut(width)
        got_out, got = replay(op, inputs, g)
        assert _same_bits(got_out, want_out)
        for a, e in zip(got, want):
            assert (a is None and e is None) or _same_bits(a, e)


_SWAP = np.array([1, 0, 3, 2])
# op -> (input shape, a call of the op on one input); "backward of linear"
# checks a gradient as backward adds it into another
_FAILING = {
    "add": ((8, 4, 6), lambda x: T.add(x, T.Tensor(np.ones(6)))),
    "linear": ((8, 4, 6), lambda x: T.linear(x, T.Tensor(np.ones((6, 2))), T.Tensor(np.zeros(2)))),
    "attention": ((8, 4, 6), lambda x: T.attention(
        x, T.Tensor(np.ones((6, 6))), T.Tensor(np.zeros(6)), T.Tensor(np.zeros((1, 1))),
        np.zeros(16, dtype=np.intp))),
    "layer_norm": ((8, 4, 6), lambda x: T.layer_norm(x, T.Tensor(np.ones(6)),
                                                     T.Tensor(np.zeros(6)))),
    "gather_rows": ((8, 4, 6), lambda x: T.gather_rows(x, _SWAP, _SWAP, x.shape)),
    "gelu": ((8, T._GELU_BLOCK // 4), T.gelu),  # two blocks
    "mlp": ((8, 4, 6), lambda x: T.mlp(x, T.Tensor(np.ones((6, 3))), T.Tensor(np.zeros(3)),
                                       T.Tensor(np.ones((3, 2))), T.Tensor(np.zeros(2)))),
    "backward of add": ((8, 3), lambda x: T._check(
        x.data, "backward of add produced non-finite values")),
    "backward of linear": ((8, 3), lambda x: T._check(
        x.data, "backward of linear produced non-finite values", np.ones(x.shape))),
}


def _sum_of_two_gradients(x):
    # add hands backward one gradient of 1e308 for each of its inputs,
    # both x, and backward sums them
    with T.Tape() as tape:
        loss = T.total_sum(T.scale(T.add(x, x), 1e308))
    T.backward(tape, loss)


# rows big enough that numpy lets go of the GIL, so pool threads take parts
_HUGE = np.full((8, 1024), 1e308)
_SPREAD = np.tile([1e308, -1e308], (8, 512))  # each row's max minus its min overflows
# op -> (an input of finite values, a call of the op on it that overflows
# inside, the values it returns, or None where it raises NonFiniteError
# naming the op); every row overflows, so each part of a cut node does
_OVERFLOWS = {
    "matmul": (_HUGE, lambda x: T.matmul(x, T.Tensor(_HUGE.T)), None),
    "add": (_HUGE, lambda x: T.add(x, x), None),
    # x @ w is 5e307, and adding the bias overflows
    "linear": (np.ones((8, 32, 1024)), lambda x: T.linear(
        x, T.Tensor(np.full((1024, 64), 1e308 / 2048)), T.Tensor(np.full(64, 1.6e308))), None),
    # x @ w1 is 5e307, adding b1 overflows, and GELU and fc2 carry the inf
    "mlp": (np.ones((8, 32, 1024)), lambda x: T.mlp(
        x, T.Tensor(np.full((1024, 64), 1e308 / 2048)), T.Tensor(np.full(64, 1.6e308)),
        T.Tensor(np.ones((64, 8))), T.Tensor(np.zeros(8))), None),
    # the projection passes x on, and q . k overflows
    "attention": (np.full((8, 16, 48), 1e200), lambda x: T.attention(
        x, T.Tensor(np.eye(48)), T.Tensor(np.zeros(48)), T.Tensor(np.zeros((1, 1))),
        np.zeros(256, dtype=np.intp)), None),
    "scale": (_HUGE, lambda x: T.scale(x, 10.0), None),
    "reduce_mean": (_HUGE, lambda x: T.reduce_mean(x, 1), None),
    "total_sum": (_HUGE, T.total_sum, None),
    "softmax_lastdim": (_SPREAD, T.softmax_lastdim, np.where(_SPREAD > 0, 1 / 512, 0.0)),
    "layer_norm": (_HUGE, lambda x: T.layer_norm(x, T.Tensor(np.ones(1024)),
                                                 T.Tensor(np.zeros(1024))), None),
    # x * x overflows; four blocks, so four parts
    "gelu": (np.tile([1e200, -1e200], (128, 256)), T.gelu, np.tile([1e200, 0.0], (128, 256))),
    "cross_entropy": (_SPREAD[:, :2], lambda x: T.cross_entropy(x, [1] * 8), None),
    "backward of add": (np.full((8, 1024), 1e-300), _sum_of_two_gradients, None),
}


class TestOverflow:
    """numpy warns of nothing an op computes: an overflow from finite
    inputs ends as NonFiniteError naming the op, or as the right values."""

    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("op", list(_OVERFLOWS))
    def test_reported_not_warned(self, cut, op, width):
        # at width 4 pool threads take some of a cut node's parts in most
        # calls, not in all: ten calls make a miss in each unlikely.  A
        # warning is recorded, not raised: raised in a pool thread's part,
        # it would lose to the first part's NonFiniteError
        cut(width)
        data, run, want = _OVERFLOWS[op]
        x = T.Tensor(data, requires_grad=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(10):
                if want is None:
                    with pytest.raises(NonFiniteError, match=f"^{op} produced non-finite"):
                        run(x)
                else:
                    assert np.array_equal(run(x).data, want)
        assert [str(w.message) for w in caught] == []


class TestParts:
    """The big nodes cut their batch into parts that run at once; each
    part computes what the whole would for its slab."""

    @pytest.mark.parametrize("batch", [3, 5, 32])
    @pytest.mark.parametrize("xs, ws", [((16, 32), (32, 96)), ((4, 4, 32), (32, 128)),
                                        ((256, 48), (48, 32)), ((64,), (64, 3))])
    def test_linear(self, cut, batch, xs, ws):
        rng = np.random.default_rng(81)
        x, w, b = rng.normal(size=(batch,) + xs), rng.normal(size=ws), rng.normal(size=ws[1])
        g = seed_gradient(rng, (batch,) + xs[:-1] + ws[1:])
        _same_bits_in_parts(cut, T.linear, [x, w, b], g)

    @pytest.mark.parametrize("batch", [3, 5, 32])
    def test_mlp(self, cut, batch):
        # the items of a part run one after another through per-part scratch
        rng = np.random.default_rng(88)
        inputs = [rng.normal(size=(batch, 8, 8, 32)), rng.normal(scale=0.3, size=(32, 128)),
                  rng.normal(size=128), rng.normal(scale=0.3, size=(128, 32)), rng.normal(size=32)]
        _same_bits_in_parts(cut, T.mlp, inputs, seed_gradient(rng, (batch, 8, 8, 32)))

    @pytest.mark.parametrize("batch", [3, 5, 32])
    def test_gelu(self, cut, batch):
        # blocks of _GELU_BLOCK and a ragged last one
        rng = np.random.default_rng(82)
        x = rng.normal(scale=3.0, size=(batch, 7, T._GELU_BLOCK // 5))
        _same_bits_in_parts(cut, T.gelu, [x], seed_gradient(rng, x.shape))

    @pytest.mark.parametrize("batch", [3, 5, 32])
    def test_layer_norm(self, cut, batch):
        rng = np.random.default_rng(83)
        x = rng.normal(loc=0.3, scale=2.0, size=(batch, 8, 8, 64))
        gamma, beta = rng.normal(size=64), rng.normal(size=64)
        _same_bits_in_parts(cut, T.layer_norm, [x, gamma, beta], seed_gradient(rng, x.shape))

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("heads", [2, 4])
    @pytest.mark.parametrize("batch", [3, 5, 32])
    def test_attention(self, cut, batch, heads, masked):
        # masked, a part holds whole images: window w keeps mask[w % m]
        rng = np.random.default_rng(84 + batch)
        inputs, mask = TestAttention.inputs(rng, batch, heads, masked)
        index = M.relative_bias_index().reshape(-1)
        g = seed_gradient(rng, inputs[0].shape)
        _same_bits_in_parts(cut, lambda *a: T.attention(*a, index, mask), inputs, g)

    @pytest.mark.parametrize("batch", [3, 5, 32])
    @pytest.mark.parametrize("b_shape", [(8, 8, 64), (64,), (8, 64)])
    def test_add(self, cut, batch, b_shape):
        rng = np.random.default_rng(85)
        a, b = rng.normal(size=(batch, 8, 8, 64)), rng.normal(size=b_shape)
        _same_bits_in_parts(cut, T.add, [a, b], seed_gradient(rng, a.shape))

    @pytest.mark.parametrize("batch", [3, 5, 32])
    def test_gather_rows(self, cut, batch):
        rng = np.random.default_rng(86)
        a = rng.normal(size=(batch, 16, 16, 32))
        order, inverse = M._window_order(16, 16, M.SHIFT_SIZE)
        out_shape = (batch * 16, 16, 32)
        _same_bits_in_parts(cut, lambda t: T.gather_rows(t, order, inverse, out_shape), [a],
                            seed_gradient(rng, out_shape))

    @pytest.mark.parametrize("batch", [3, 32])
    def test_backward_sums(self, cut, batch):
        # a residual block's gradients meet in backward's sums
        rng = np.random.default_rng(87)
        x = rng.normal(size=(batch, 16, 32))
        w1, w2 = rng.normal(scale=0.2, size=(32, 64)), rng.normal(scale=0.2, size=(64, 32))
        b1, b2 = rng.normal(size=64), rng.normal(size=32)
        grads = []
        for width in (None, 4):
            cut(width)
            leaves = [T.Tensor(a.copy(), requires_grad=True) for a in (x, w1, b1, w2, b2)]
            with T.Tape() as tape:
                h = T.gelu(T.linear(leaves[0], *leaves[1:3]))
                y = T.add(leaves[0], T.linear(h, *leaves[3:]))
                loss = T.total_sum(T.gelu(T.add(y, leaves[0])))
            T.backward(tape, loss)
            grads.append([t.grad for t in leaves])
        for a, e in zip(*grads):
            assert _same_bits(a, e)

    def test_error_in_a_later_part_names_the_op(self, cut):
        cut(4)
        x = np.ones((8, 2, 2))
        x[-1] = 1e200
        with pytest.raises(NonFiniteError, match="^linear produced non-finite"):
            T.linear(T.Tensor(x), T.Tensor(np.full((2, 2), 1e200)), T.Tensor(np.zeros(2)))
        g = np.ones((8, 3))
        g[-1, -1] = np.nan
        with pytest.raises(NonFiniteError, match="^backward of add"):
            T._check(g, "backward of add produced non-finite values")

    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("slab, bad", [(0, np.nan), (-1, np.inf)])
    @pytest.mark.parametrize("op", list(_FAILING))
    def test_error_in_any_part_names_the_op(self, cut, op, slab, bad, width):
        # a NaN or an infinity in the first or the last of 8 slabs reaches
        # that slab of the output (or is the gradient backward checks)
        cut(width)
        shape, run = _FAILING[op]
        x = T.Tensor(np.ones(shape))
        x.data[slab] = bad  # the constructor refuses non-finite values
        with pytest.raises(NonFiniteError, match=f"^{op} produced non-finite"):
            run(x)

    @pytest.mark.parametrize("width", [1, 4])
    def test_check_sums_into_a_fresh_array(self, cut, width):
        # the "backward of linear" call above, on a finite gradient
        cut(width)
        rng = np.random.default_rng(88)
        g, onto = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
        saved_g, saved_onto = g.copy(), onto.copy()
        got = T._check(g, "backward of linear produced non-finite values", onto)
        assert got is not g and got is not onto and _same_bits(got, saved_onto + saved_g)
        assert _same_bits(g, saved_g) and _same_bits(onto, saved_onto)

    def test_widths_and_cuts(self, monkeypatch, wide_pool):
        monkeypatch.setattr(T, "_pool", wide_pool)
        monkeypatch.setattr(wide_pool, "width", 1)  # one usable core
        assert T._width(1 << 24) == 1
        monkeypatch.setattr(wide_pool, "width", 4)
        # one thread per floor of elements, at most one per core
        assert [T._width(k * T._PART_FLOOR) for k in (1, 2, 3, 4, 9)] == [1, 2, 3, 4, 4]
        assert T._width(2 * T._PART_FLOOR - 1) == 1
        # contiguous parts at whole steps, the rest in the last
        assert T._cuts(64, 4, 16) == [(0, 16), (16, 32), (32, 48), (48, 64)]
        assert T._cuts(20, 4, 4) == [(0, 4), (4, 8), (8, 12), (12, 20)]
        assert T._cuts(32, 3) == [(0, 10), (10, 21), (21, 32)]
        assert T._cuts(5, 4, 4) == [(0, 5)]
        assert T._cuts(1, 4) == [(0, 1)]

    def test_error_of_the_first_failing_task_is_raised(self, cut):
        cut(4)

        def fail(i):
            raise ValueError(i)

        with pytest.raises(ValueError, match="^2$"):
            T._cut(np.zeros(4), 4, lambda lo, hi: None,
                   whole=((int, 0), (int, 1), (fail, 2), (fail, 3), (int, 4)))

    def test_every_task_runs_once_under_contention(self, cut, wide_pool):
        # four threads, more than most test machines' cores, switching
        # every microsecond: each task is still taken exactly once
        cut(4)
        runs = [0] * 500

        def task(i):
            runs[i] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and runs[0] < 20:
                T._cut(np.zeros(4), 4, lambda lo, hi: None,
                       whole=tuple((task, i) for i in range(len(runs))))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] >= 1 and runs == [runs[0]] * len(runs)


def test_design_notes_cite_only_names_the_module_has():
    cited = set(re.findall(r"``(_\w+)``", T.__doc__))
    assert "_cut" in cited
    assert sorted(name for name in cited if not hasattr(T, name)) == []


class TestPool:
    def test_pool_threads_run_with_warnings_off(self):
        # outside any np.errstate: a pool thread's own state is all off
        seen, done = [], queue.SimpleQueue()
        T._Pool(1).jobs.put((lambda: seen.append(np.geterr()), done))
        done.get(timeout=30)
        assert seen == [dict.fromkeys(("divide", "over", "under", "invalid"), "ignore")]

    def test_batch_1_forward_makes_no_pool(self, monkeypatch):
        monkeypatch.setattr(T, "_pool", None)
        weights = M.ModelWeights.init(M.default_config(2), seed=0)
        M.forward_batch(np.random.default_rng(3).normal(size=(1, 3, 64, 64)), weights)
        assert T._pool is None

    def test_forked_child_builds_its_own_pool(self):
        # the parent's pool threads do not exist in a child: the child
        # drops the pool at fork and builds one on its first split
        weights = M.ModelWeights.init(M.default_config(2), seed=0)
        images = np.random.default_rng(3).normal(size=(32, 3, 64, 64))
        want = hashlib.sha256(M.forward_batch(images, weights).data.tobytes()).digest()
        assert T._pool is not None
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            try:
                dropped = T._pool is None
                got = hashlib.sha256(M.forward_batch(images, weights).data.tobytes()).digest()
                os.write(write, bytes([dropped]) + got)
            finally:
                os._exit(0)
        os.close(write)
        try:
            deadline = time.monotonic() + 60
            while not os.waitpid(pid, os.WNOHANG)[0]:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("the forked child did not finish its forward pass")
                time.sleep(0.02)
            assert os.read(read, 64) == b"\x01" + want
        finally:
            os.close(read)
