import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from swinscan import model as M
from swinscan import tensor as T
from swinscan.errors import ConfigurationError, ContractError, DimensionError, InputError

from gradcheck import check_sampled_grads
from test_tensor import replay, seed_gradient


def region_id_oracle(r, c, h, w, window, shift):
    """Independent region labeling: three row bands and three column
    bands cut at -window and -shift, in post-shift coordinates."""
    def band(i, n):
        if i < n - window:
            return 0
        if i < n - shift:
            return 1
        return 2

    return 3 * band(r, h) + band(c, w)


def cyclic_shift(tokens, shift):
    """Toroidal roll of the grid by -shift along both spatial axes, the
    T.roll node the shifted blocks recorded before the roll was folded
    into their window gathers."""
    axis_h = tokens.ndim - 3
    return T.roll(tokens, (-shift, -shift), (axis_h, axis_h + 1))


def partition_chain(tokens):
    """window_partition as the reshape/permute/reshape chain it replaced."""
    b, h, w, c = tokens.shape
    ws = M.WINDOW_SIZE
    x = T.reshape(tokens, (b, h // ws, ws, w // ws, ws, c))
    x = T.permute(x, (0, 1, 3, 2, 4, 5))
    return T.reshape(x, (b * (h // ws) * (w // ws), ws * ws, c))


def reverse_chain(windows, b, h, w):
    """window_reverse as the chain it replaced."""
    ws, c = M.WINDOW_SIZE, windows.shape[-1]
    x = T.reshape(windows, (b, h // ws, w // ws, ws, ws, c))
    x = T.permute(x, (0, 1, 3, 2, 4, 5))
    return T.reshape(x, (b, h, w, c))


def merge_chain(tokens):
    """merge_neighborhoods as the chain it replaced."""
    b, h, w, c = tokens.shape
    x = T.reshape(tokens, (b, h // 2, 2, w // 2, 2, c))
    x = T.permute(x, (0, 1, 3, 4, 2, 5))
    return T.reshape(x, (b, h // 2, w // 2, 4 * c))


def block_chain(x, weights, prefix, shifted):
    """model._block as it was, with a roll node and the reshape/permute
    chains where it now has one gather each way."""
    b, h, w, c = x.shape
    p = weights.subset(prefix)
    shortcut = x
    x = T.layer_norm(x, p["norm1.gamma"], p["norm1.beta"])
    mask = None
    if shifted:
        x = cyclic_shift(x, M.SHIFT_SIZE)
        mask = np.tile(M.build_shift_mask(h, w), (b, 1, 1))
    windows = M.window_attention(partition_chain(x), weights.subset(prefix + "attn."), mask)
    x = reverse_chain(windows, b, h, w)
    if shifted:
        x = cyclic_shift(x, -M.SHIFT_SIZE)
    x = T.add(shortcut, x)
    y = T.layer_norm(x, p["norm2.gamma"], p["norm2.beta"])
    y = T.gelu(T.linear(y, p["mlp.fc1.weight"], p["mlp.fc1.bias"]))
    y = T.linear(y, p["mlp.fc2.weight"], p["mlp.fc2.bias"])
    return T.add(x, y)


def dense_attention_oracle(x, qkv_w, qkv_b, proj_w, proj_b, heads):
    """Straightforward global multi-head attention over all tokens."""
    n, c = x.shape
    dh = c // heads
    qkv = x @ qkv_w + qkv_b
    q = qkv[:, :c].reshape(n, heads, dh)
    k = qkv[:, c : 2 * c].reshape(n, heads, dh)
    v = qkv[:, 2 * c :].reshape(n, heads, dh)
    out = np.zeros((n, heads, dh))
    for hd in range(heads):
        logits = q[:, hd] @ k[:, hd].T / np.sqrt(dh)
        logits -= logits.max(axis=1, keepdims=True)
        w = np.exp(logits)
        w /= w.sum(axis=1, keepdims=True)
        out[:, hd] = w @ v[:, hd]
    return out.reshape(n, c) @ proj_w + proj_b


class TestConfig:
    def test_defaults_are_consistent(self):
        assert M.GRID_SIZE == 16
        assert M.default_config(3).num_classes == 3

    def test_bad_class_count(self):
        with pytest.raises(ConfigurationError):
            M.SwinConfig(num_classes=5)


class TestWeights:
    def test_init_covers_every_path(self):
        cfg = M.default_config(2)
        w = M.ModelWeights.init(cfg, seed=0)
        assert set(w.paths()) == set(M.expected_shapes(cfg))

    def test_missing_parameter_rejected(self):
        w = M.ModelWeights.init(M.default_config(2), seed=0)
        params = dict(w.items())
        params.pop("head.fc.bias")
        with pytest.raises(ConfigurationError):
            M.ModelWeights(w.config, params)

    def test_wrong_shape_rejected(self):
        w = M.ModelWeights.init(M.default_config(2), seed=0)
        params = dict(w.items())
        params["head.fc.bias"] = T.Tensor(np.zeros(7))
        with pytest.raises(ConfigurationError):
            M.ModelWeights(w.config, params)

    def test_biases_zero_scales_one(self):
        w = M.ModelWeights.init(M.default_config(2), seed=3)
        assert np.all(w["stage0.block0.attn.qkv.bias"].data == 0.0)
        assert np.all(w["stage1.block1.norm2.gamma"].data == 1.0)

    def test_matrices_within_two_std(self):
        w = M.ModelWeights.init(M.default_config(2), seed=3)
        assert np.max(np.abs(w["head.fc.weight"].data)) <= 0.04


class TestPatchEmbed:
    def test_token_count(self):
        w = M.ModelWeights.init(M.default_config(2), seed=1)
        img = np.zeros((2, 3, 64, 64))
        tokens = M.patch_embed(img, w)
        assert tokens.shape == (2, 256, 32)

    def test_zero_image_gives_bias(self):
        w = M.ModelWeights.init(M.default_config(2), seed=1)
        tokens = M.patch_embed(np.zeros((1, 3, 64, 64)), w)
        bias = w["patch_embed.proj.bias"].data
        assert np.max(np.abs(tokens.data - bias)) == 0.0

    def test_linearity(self):
        w = M.ModelWeights.init(M.default_config(2), seed=1)
        rng = np.random.default_rng(0)
        img = rng.normal(size=(1, 3, 64, 64))
        bias = w["patch_embed.proj.bias"].data
        t1 = M.patch_embed(img, w).data - bias
        t2 = M.patch_embed(2.0 * img, w).data - bias
        assert np.max(np.abs(t2 - 2.0 * t1)) < 1e-12

    def test_wrong_channel_count(self):
        w = M.ModelWeights.init(M.default_config(2), seed=1)
        with pytest.raises(InputError):
            M.patch_embed(np.zeros((1, 1, 64, 64)), w)


class TestWindowPartition:
    def test_counts(self):
        x = T.Tensor(np.arange(2 * 16 * 16 * 2, dtype=float).reshape(2, 16, 16, 2))
        wins = M.window_partition(x)
        assert wins.shape == (32, 16, 2)

    def test_single_window_keeps_order(self):
        x = np.arange(4 * 4 * 3, dtype=float).reshape(1, 4, 4, 3)
        wins = M.window_partition(T.Tensor(x))
        assert np.array_equal(wins.data, x.reshape(1, 16, 3))

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 8, 8, 4))
        wins = M.window_partition(T.Tensor(x))
        back = M.window_reverse(wins, 2, 8, 8)
        assert np.array_equal(back.data, x)

    def test_row_major_window_order(self):
        # grid labeled by window of origin; each window must be constant
        x = np.zeros((8, 8, 1))
        for wy in range(2):
            for wx in range(2):
                x[wy * 4 : wy * 4 + 4, wx * 4 : wx * 4 + 4, 0] = 2 * wy + wx
        wins = M.window_partition(T.Tensor(x[None])).data
        for i in range(4):
            assert np.all(wins[i] == i)

    def test_indivisible_grid(self):
        with pytest.raises(ConfigurationError):
            M.window_partition(T.Tensor(np.zeros((1, 6, 6, 1))))


class TestWindowReverse:
    def test_single_window_identity(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(1, 16, 3))
        out = M.window_reverse(T.Tensor(w), 1, 4, 4)
        assert np.array_equal(out.data, w.reshape(1, 4, 4, 3))

    def test_order_sensitivity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 8, 8, 2))
        wins = M.window_partition(T.Tensor(x)).data.copy()
        wins[[0, 1]] = wins[[1, 0]]
        swapped = M.window_reverse(T.Tensor(wins), 1, 8, 8)
        assert not np.array_equal(swapped.data, x)

    def test_inconsistent_counts(self):
        with pytest.raises(DimensionError):
            M.window_reverse(T.Tensor(np.zeros((3, 16, 2))), 1, 8, 8)


class TestCyclicShift:
    # the oracle the shifted gathers are compared against
    def test_zero_shift_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 4, 2))
        assert np.array_equal(cyclic_shift(T.Tensor(x), 0).data, x)

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 8, 3))
        y = cyclic_shift(cyclic_shift(T.Tensor(x), 2), -2)
        assert np.array_equal(y.data, x)

    def test_two_by_two_enumeration(self):
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        x = np.array([[a, b], [c, d]]).reshape(2, 2, 1)
        out = cyclic_shift(T.Tensor(x), 1).data[:, :, 0]
        assert np.array_equal(out, [[d, c], [b, a]])

    def test_equals_np_roll(self):
        x = np.random.default_rng(7).normal(size=(2, 8, 12, 3))
        assert np.array_equal(cyclic_shift(T.Tensor(x), 2).data,
                              np.roll(x, (-2, -2), axis=(1, 2)))


class TestGatherAgainstChains:
    """Each window move is one gather_rows node that gives the bits of the
    reshape/permute/roll chain it replaced, values and gradients."""

    GRIDS = [(16, 16), (8, 8), (12, 12)]
    C = 3

    def _compare(self, gather, chain, x):
        g = seed_gradient(np.random.default_rng(8), gather(T.Tensor(x)).shape)
        with T.Tape() as tape:
            gather(T.Tensor(x, requires_grad=True))
        assert [node.op for node in tape.nodes] == ["gather_rows"]
        got_out, (got,) = replay(gather, [x], g)
        want_out, (want,) = replay(chain, [x], g)
        assert got_out.tobytes() == want_out.tobytes() and got_out.shape == want_out.shape
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
        assert got_out.flags.c_contiguous and got.flags.c_contiguous

    def _windows(self, b, h, w):
        n = b * h * w // M.WINDOW_SIZE ** 2
        return np.random.default_rng(9).normal(size=(n, M.WINDOW_SIZE ** 2, self.C))

    @pytest.mark.parametrize("b", [1, 32])
    @pytest.mark.parametrize("h, w", GRIDS)
    def test_partition(self, b, h, w):
        x = np.random.default_rng(10).normal(size=(b, h, w, self.C))
        self._compare(M.window_partition, partition_chain, x)

    @pytest.mark.parametrize("b", [1, 32])
    @pytest.mark.parametrize("h, w", GRIDS)
    def test_reverse(self, b, h, w):
        self._compare(lambda t: M.window_reverse(t, b, h, w),
                      lambda t: reverse_chain(t, b, h, w), self._windows(b, h, w))

    @pytest.mark.parametrize("b", [1, 32])
    @pytest.mark.parametrize("h, w", GRIDS)
    def test_shifted_in(self, b, h, w):
        x = np.random.default_rng(11).normal(size=(b, h, w, self.C))
        self._compare(lambda t: M.window_partition(t, shifted=True),
                      lambda t: partition_chain(cyclic_shift(t, M.SHIFT_SIZE)), x)

    @pytest.mark.parametrize("b", [1, 32])
    @pytest.mark.parametrize("h, w", GRIDS)
    def test_shifted_out(self, b, h, w):
        self._compare(lambda t: M.window_reverse(t, b, h, w, shifted=True),
                      lambda t: cyclic_shift(reverse_chain(t, b, h, w), -M.SHIFT_SIZE),
                      self._windows(b, h, w))

    @pytest.mark.parametrize("b", [1, 32])
    @pytest.mark.parametrize("h, w", GRIDS)
    def test_merge(self, b, h, w):
        x = np.random.default_rng(12).normal(size=(b, h, w, self.C))
        self._compare(M.merge_neighborhoods, merge_chain, x)

    @pytest.mark.parametrize("h, w", GRIDS)
    def test_orders_cached_read_only_permutations(self, h, w):
        for build in (lambda: M._window_order(h, w, 0), lambda: M._window_order(h, w, M.SHIFT_SIZE),
                      lambda: M._merge_order(h, w)):
            order, inverse = build()
            assert build()[0] is order
            assert np.array_equal(np.sort(order), np.arange(h * w))
            assert np.array_equal(order[inverse], np.arange(h * w))
            for arr in (order, inverse):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0

    def test_shift_mask_cached_read_only(self):
        mask = M.build_shift_mask(8, 8)
        assert M.build_shift_mask(8, 8) is mask and not mask.flags.writeable

    @pytest.mark.parametrize("b", [1, 32])
    @pytest.mark.parametrize("stage, h, w", [(0, 16, 16), (1, 8, 8), (0, 12, 12)])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_block_equals_chain_block(self, b, stage, h, w, shifted):
        # the whole block, values and every gradient, against the block
        # that rolled and reshaped: the same bits
        prefix = f"stage{stage}.block{int(shifted)}."
        x = np.random.default_rng(13).normal(size=(b, h, w, M.EMBED_DIM * 2 ** stage))
        runs = []
        for block in (M._block, block_chain):
            weights = M.ModelWeights.init(M.default_config(2), seed=4)
            params = weights.subset(prefix)
            xt = T.Tensor(x, requires_grad=True)
            with T.Tape() as tape:
                for t in params.values():
                    tape.watch(t)
                out = block(xt, weights, prefix, shifted)
                loss = T.total_sum(T.gelu(out))
            T.backward(tape, loss)
            runs.append([out.data, xt.grad] + [params[k].grad for k in sorted(params)])
        for got, want in zip(*runs):
            assert got.tobytes() == want.tobytes()

    def test_non_permutation_refused(self):
        with pytest.raises(ContractError):
            M._permutation(np.array([0, 2, 2, 3]))


WIN, SHIFT = M.WINDOW_SIZE, M.SHIFT_SIZE


class TestShiftMask:
    def test_matches_region_oracle(self):
        for (h, w) in [(4, 4), (8, 8), (12, 12)]:
            mask = M.build_shift_mask(h, w)
            n_side = w // WIN
            for wy in range(h // WIN):
                for wx in range(n_side):
                    widx = wy * n_side + wx
                    coords = [
                        (wy * WIN + i, wx * WIN + j)
                        for i in range(WIN)
                        for j in range(WIN)
                    ]
                    ids = [region_id_oracle(r, c, h, w, WIN, SHIFT) for r, c in coords]
                    for i in range(len(ids)):
                        for j in range(len(ids)):
                            want = 0.0 if ids[i] == ids[j] else M.MASK_NEG
                            assert mask[widx, i, j] == want

    def test_single_window_quadrants(self):
        mask = M.build_shift_mask(4, 4)
        ids = [region_id_oracle(r, c, 4, 4, WIN, SHIFT) for r in range(4) for c in range(4)]
        assert len(set(ids)) == 4  # the lone window splits into 4 regions
        assert len({tuple(row) for row in mask[0]}) == 4

    def test_interior_windows_unmasked(self):
        mask = M.build_shift_mask(8, 8)
        assert np.all(mask[0] == 0.0)  # top-left window crosses no region cut
        for widx in (1, 2, 3):
            assert np.any(mask[widx] == M.MASK_NEG)

    def test_symmetry(self):
        mask = M.build_shift_mask(8, 8)
        assert np.array_equal(mask, np.swapaxes(mask, 1, 2))


def _check_equal_offsets_share_slot(idx, ws):
    """Equal (row, col) offsets share a slot, and the slots are exactly
    0 .. (2 * ws - 1)**2 - 1, one per achievable offset."""
    assert idx.shape == (ws ** 2, ws ** 2)
    coords = [(r, c) for r in range(ws) for c in range(ws)]
    seen = {}
    for i, (ri, ci) in enumerate(coords):
        for j, (rj, cj) in enumerate(coords):
            key = (ri - rj, ci - cj)
            if key in seen:
                assert idx[i, j] == seen[key]
            else:
                seen[key] = idx[i, j]
    n_slots = (2 * ws - 1) ** 2
    assert len(set(seen.values())) == len(seen) == n_slots
    assert set(seen.values()) == set(range(n_slots))


class TestRelativeBiasIndex:
    # relative_bias_index() reads WINDOW_SIZE when called, so the smaller
    # windows are reached by patching the constant; the import-time
    # _BIAS_INDEX the forward pass uses is unaffected
    def test_window_one(self, monkeypatch):
        monkeypatch.setattr(M, "WINDOW_SIZE", 1)
        assert np.array_equal(M.relative_bias_index(), [[0]])

    def test_window_two_uses_nine_slots(self, monkeypatch):
        monkeypatch.setattr(M, "WINDOW_SIZE", 2)
        idx = M.relative_bias_index()
        assert idx.shape == (4, 4)
        assert len(np.unique(idx)) == 9

    def test_equal_offsets_share_slot_w3(self, monkeypatch):
        monkeypatch.setattr(M, "WINDOW_SIZE", 3)
        _check_equal_offsets_share_slot(M.relative_bias_index(), 3)  # 25 slots

    def test_equal_offsets_share_slot(self):
        # the architecture's window: 7 row deltas x 7 column deltas
        _check_equal_offsets_share_slot(M.relative_bias_index(), WIN)
        assert np.array_equal(M._BIAS_INDEX, M.relative_bias_index().reshape(-1))


def _attn_weights(rng, c, table):
    return {
        "qkv.weight": T.Tensor(rng.normal(size=(c, 3 * c), scale=0.2), requires_grad=True),
        "qkv.bias": T.Tensor(rng.normal(size=3 * c, scale=0.2), requires_grad=True),
        "proj.weight": T.Tensor(rng.normal(size=(c, c), scale=0.2), requires_grad=True),
        "proj.bias": T.Tensor(rng.normal(size=c, scale=0.2), requires_grad=True),
        "bias_table": T.Tensor(table),
    }


def _zero_table(heads):
    return np.zeros(((2 * WIN - 1) ** 2, heads))


class TestWindowAttention:
    def test_single_token_equals_value_projection(self):
        # one token repeated over a whole window: whatever the attention
        # weights, the window averages copies of its own value
        rng = np.random.default_rng(7)
        c = 6
        table = rng.normal(size=((2 * WIN - 1) ** 2, 2))
        weights = _attn_weights(rng, c, table)
        weights["proj.weight"] = T.Tensor(np.eye(c))
        weights["proj.bias"] = T.Tensor(np.zeros(c))
        x = np.repeat(rng.normal(size=(2, 1, c)), WIN ** 2, axis=1)
        out = M.window_attention(T.Tensor(x), weights)
        expected = x @ weights["qkv.weight"].data[:, 2 * c :] + weights["qkv.bias"].data[2 * c :]
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_matches_dense_oracle_on_full_grid(self):
        rng = np.random.default_rng(8)
        c, heads = 8, 2
        weights = _attn_weights(rng, c, _zero_table(heads))
        grid = rng.normal(size=(WIN, WIN, c))
        wins = M.window_partition(T.Tensor(grid[None]))
        out = M.window_attention(wins, weights)
        oracle = dense_attention_oracle(
            grid.reshape(-1, c),
            weights["qkv.weight"].data,
            weights["qkv.bias"].data,
            weights["proj.weight"].data,
            weights["proj.bias"].data,
            heads,
        )
        assert np.max(np.abs(out.data[0] - oracle)) < 1e-6

    def test_uniform_attention_averages_values(self):
        # zero q/k makes every attention row uniform; with identity value
        # and output projections the result is the window mean, which
        # also certifies each row of weights sums to one
        c = 4
        qkv = np.zeros((c, 3 * c))
        qkv[:, 2 * c :] = np.eye(c)
        weights = {
            "qkv.weight": T.Tensor(qkv),
            "qkv.bias": T.Tensor(np.zeros(3 * c)),
            "proj.weight": T.Tensor(np.eye(c)),
            "proj.bias": T.Tensor(np.zeros(c)),
            "bias_table": T.Tensor(_zero_table(1)),
        }
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, WIN ** 2, c))
        out = M.window_attention(T.Tensor(x), weights)
        assert np.max(np.abs(out.data - x.mean(axis=1, keepdims=True))) < 1e-12

    def test_mask_blocks_cross_region_mixing(self):
        rng = np.random.default_rng(10)
        h = w = 8
        c, heads = 4, 2
        values = {rid: rng.normal(size=c) for rid in range(9)}
        grid = np.zeros((h, w, c))
        for r in range(h):
            for col in range(w):
                grid[r, col] = values[region_id_oracle(r, col, h, w, WIN, SHIFT)]
        weights = _attn_weights(rng, c, rng.normal(size=((2 * WIN - 1) ** 2, heads), scale=0.5))
        mask = M.build_shift_mask(h, w)
        wins = M.window_partition(T.Tensor(grid[None]))
        out = M.window_attention(wins, weights, mask=mask).data
        back = np.zeros_like(grid)
        n_side = w // WIN
        for wy in range(h // WIN):
            for wx in range(n_side):
                widx = wy * n_side + wx
                back[wy * WIN : (wy + 1) * WIN, wx * WIN : (wx + 1) * WIN] = out[
                    widx
                ].reshape(WIN, WIN, c)
        # same region id -> identical output token, anywhere on the grid
        by_region = {}
        for r in range(h):
            for col in range(w):
                rid = region_id_oracle(r, col, h, w, WIN, SHIFT)
                if rid in by_region:
                    assert np.max(np.abs(back[r, col] - by_region[rid])) < 1e-9
                else:
                    by_region[rid] = back[r, col]

    def test_head_divisibility(self):
        rng = np.random.default_rng(11)
        weights = _attn_weights(rng, 6, _zero_table(4))
        with pytest.raises(ConfigurationError):
            M.window_attention(T.Tensor(rng.normal(size=(1, WIN ** 2, 6))), weights)

    @pytest.mark.parametrize("n_tok", [1, 4, 9, 15, 17, 64])
    def test_other_token_count_rejected(self, n_tok):
        rng = np.random.default_rng(12)
        weights = _attn_weights(rng, 4, _zero_table(2))
        with pytest.raises(DimensionError):
            M.window_attention(T.Tensor(rng.normal(size=(2, n_tok, 4))), weights)


class TestMerging:
    def test_slot_order(self):
        # value encodes (row parity, col parity); documented order is
        # top-left, bottom-left, top-right, bottom-right
        h = w = 4
        grid = np.zeros((h, w, 1))
        for r in range(h):
            for col in range(w):
                grid[r, col, 0] = 10 * (r % 2) + (col % 2)
        merged = M.merge_neighborhoods(T.Tensor(grid[None])).data
        assert merged.shape == (1, 2, 2, 4)
        for cell in merged.reshape(-1, 4):
            assert np.array_equal(cell, [0.0, 10.0, 1.0, 11.0])

    def test_shapes_and_count(self):
        rng = np.random.default_rng(13)
        grid = T.Tensor(rng.normal(size=(2, 16, 16, 4)))
        weights = {
            "norm.gamma": T.Tensor(np.ones(16)),
            "norm.beta": T.Tensor(np.zeros(16)),
            "reduce.weight": T.Tensor(rng.normal(size=(16, 8))),
        }
        out = M.patch_merging(grid, weights)
        assert out.shape == (2, 8, 8, 8)
        assert out.shape[1] * out.shape[2] == grid.shape[1] * grid.shape[2] // 4

    def test_odd_extent(self):
        with pytest.raises(ConfigurationError):
            M.merge_neighborhoods(T.Tensor(np.zeros((1, 3, 4, 2))))


class TestForward:
    def test_head_sizes(self):
        rng = np.random.default_rng(14)
        img = rng.normal(size=(3, 64, 64))
        for classes in (2, 3):
            w = M.ModelWeights.init(M.default_config(classes), seed=0)
            logits, probs = M.forward_classify(img, w)
            assert logits.shape == (classes,)
            assert probs.shape == (classes,)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        img = rng.normal(size=(3, 64, 64))
        w = M.ModelWeights.init(M.default_config(2), seed=1)
        a, _ = M.forward_classify(img, w)
        b, _ = M.forward_classify(img, w)
        assert a.data.tobytes() == b.data.tobytes()

    def test_tape_node_count(self):
        # one node per op call that touches a parameter; an op that stops
        # being fused shows up here as a changed count
        w = M.ModelWeights.init(M.default_config(2), seed=0)
        with T.Tape() as tape:
            M.forward_batch(np.zeros((2, 3, 64, 64)), w)
        assert Counter(node.op for node in tape.nodes) == {
            "linear": 18, "attention": 4, "gelu": 4, "layer_norm": 10, "matmul": 1,
            "add": 8, "gather_rows": 9, "reshape": 2, "reduce_mean": 1,
        }
        assert len(tape.nodes) == 57

    def test_blocks_run_the_window_helpers_and_the_built_mask(self, monkeypatch):
        # every block partitions and reverses through the helpers, and a
        # shifted block hands attention the cached mask itself, not a
        # copy tiled per batch
        calls, masks = Counter(), []
        for name in ("window_partition", "window_reverse"):
            def counted(*args, _fn=getattr(M, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(M, name, counted)
        attention = T.attention

        def recorded(qkv, table, index, mask=None):
            masks.append(mask)
            return attention(qkv, table, index, mask)
        monkeypatch.setattr(T, "attention", recorded)
        w = M.ModelWeights.init(M.default_config(2), seed=0)
        M.forward_batch(np.zeros((32, 3, 64, 64)), w)
        assert calls == {"window_partition": 4, "window_reverse": 4}
        assert len(masks) == 4 and masks[0] is None and masks[2] is None
        assert masks[1] is M.build_shift_mask(16, 16) and masks[3] is M.build_shift_mask(8, 8)

    def test_every_parameter_gets_gradient(self):
        rng = np.random.default_rng(16)
        w = M.ModelWeights.init(M.default_config(2), seed=2)
        images = rng.normal(size=(4, 3, 64, 64))
        labels = [0, 1, 0, 1]
        with T.Tape() as tape:
            for t in w.tensors():
                tape.watch(t)
            loss = T.cross_entropy(M.forward_batch(images, w), labels)
        T.backward(tape, loss)
        for path, t in w.items():
            assert t.grad is not None and np.any(t.grad != 0.0), path

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        w = M.ModelWeights.init(M.default_config(2), seed=3)
        images = rng.normal(size=(2, 3, 64, 64))
        labels = [0, 1]
        probes = [
            w["patch_embed.proj.bias"],
            w["stage0.block0.attn.bias_table"],
            w["stage1.block0.attn.qkv.weight"],
            w["merge0.reduce.weight"],
            w["head.fc.weight"],
        ]
        check_sampled_grads(
            lambda: T.cross_entropy(M.forward_batch(images, w), labels), probes, rng
        )


class TestWeightFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        w = M.ModelWeights.init(M.default_config(3), seed=4)
        path = str(tmp_path / "c.swnw")
        M.save_weights(path, w)
        loaded = M.load_weights(path)
        assert loaded.config == w.config
        assert loaded.paths() == w.paths()
        for name, t in w.items():
            assert loaded[name].data.tobytes() == t.data.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_file_and_parameter(self, tmp_path, value):
        from swinscan.errors import WeightFormatError

        path = tmp_path / "n.swnw"
        M.save_weights(str(path), M.ModelWeights.init(M.default_config(2), seed=0))
        blob = bytearray(path.read_bytes())
        name = b"head.fc.bias"  # rank 1, two values
        name_at = blob.index(name) - 4
        at = name_at + 4 + len(name) + 8 + 8  # its second value
        blob[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError) as err:
            M.load_weights(str(path))
        assert str(err.value) == (
            f"{path}: parameter head.fc.bias has non-finite values (byte offset {name_at})"
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.swnw"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        from swinscan.errors import WeightFormatError

        with pytest.raises(WeightFormatError) as err:
            M.load_weights(str(path))
        assert str(err.value) == f"{path}: bad magic, not a SWNW weight file (byte offset 0)"

    def test_truncation_reports_offset(self, tmp_path):
        w = M.ModelWeights.init(M.default_config(2), seed=4)
        path = str(tmp_path / "t.swnw")
        M.save_weights(path, w)
        blob = Path(path).read_bytes()
        cut = tmp_path / "cut.swnw"
        cut.write_bytes(blob[: len(blob) // 2])
        from swinscan.errors import WeightFormatError

        with pytest.raises(WeightFormatError) as err:
            M.load_weights(str(cut))
        assert err.value.offset is not None
        assert str(err.value).startswith(f"{cut}: truncated weight file")

    def test_config_block_is_pinned(self, tmp_path):
        # old files keep loading and new files stay byte-identical only
        # while save_weights writes exactly these words after the header
        path = str(tmp_path / "d.swnw")
        M.save_weights(path, M.ModelWeights.init(M.default_config(2), seed=0))
        blob = Path(path).read_bytes()
        words = list(np.frombuffer(blob[8 : 8 + 13 * 4], dtype="<u4"))
        assert words == [64, 3, 4, 32, 2, 2, 2, 2, 4, 4, 2, 4, 2]

    @pytest.mark.parametrize("at, value", [(12, 1), (48, 1), (48, 0)])
    def test_unfeedable_slot_rejected(self, tmp_path, at, value):
        from swinscan.errors import WeightFormatError

        path = tmp_path / "d.swnw"
        M.save_weights(str(path), M.ModelWeights.init(M.default_config(2), seed=0))
        blob = bytearray(path.read_bytes())
        blob[at : at + 4] = int(value).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError) as err:
            M.load_weights(str(path))
        assert err.value.offset == 8

    @pytest.mark.parametrize("word", range(12))
    def test_other_architecture_rejected(self, tmp_path, word):
        # every word but the head size is fixed: a file of any other
        # shape is refused before its parameters are read
        from swinscan.errors import WeightFormatError

        path = tmp_path / "d.swnw"
        M.save_weights(str(path), M.ModelWeights.init(M.default_config(2), seed=0))
        blob = bytearray(path.read_bytes())
        at = 8 + 4 * word
        blob[at : at + 4] = (int.from_bytes(blob[at : at + 4], "little") + 1).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError) as err:
            M.load_weights(str(path))
        assert err.value.offset == 8
