import numpy as np
import pytest

from swinscan import model as M
from swinscan import tensor as T
from swinscan.errors import ConfigurationError, DimensionError, InputError

from gradcheck import check_sampled_grads

# a numpy overflow or invalid-operation warning fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
        wins = M.window_partition(x, 8)
        assert wins.shape == (8, 64, 2)

    def test_single_window_keeps_order(self):
        x = np.arange(4 * 4 * 3, dtype=float).reshape(1, 4, 4, 3)
        wins = M.window_partition(T.Tensor(x), 4)
        assert np.array_equal(wins.data, x.reshape(1, 16, 3))

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 8, 8, 4))
        wins = M.window_partition(T.Tensor(x), 4)
        back = M.window_reverse(wins, 2, 8, 8, 4)
        assert np.array_equal(back.data, x)

    def test_row_major_window_order(self):
        # grid labeled by window of origin; each window must be constant
        x = np.zeros((8, 8, 1))
        for wy in range(2):
            for wx in range(2):
                x[wy * 4 : wy * 4 + 4, wx * 4 : wx * 4 + 4, 0] = 2 * wy + wx
        wins = M.window_partition(T.Tensor(x[None]), 4).data
        for i in range(4):
            assert np.all(wins[i] == i)

    def test_indivisible_grid(self):
        with pytest.raises(ConfigurationError):
            M.window_partition(T.Tensor(np.zeros((1, 6, 6, 1))), 4)


class TestWindowReverse:
    def test_single_window_identity(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(1, 16, 3))
        out = M.window_reverse(T.Tensor(w), 1, 4, 4, 4)
        assert np.array_equal(out.data, w.reshape(1, 4, 4, 3))

    def test_order_sensitivity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 8, 8, 2))
        wins = M.window_partition(T.Tensor(x), 4).data.copy()
        wins[[0, 1]] = wins[[1, 0]]
        swapped = M.window_reverse(T.Tensor(wins), 1, 8, 8, 4)
        assert not np.array_equal(swapped.data, x)

    def test_inconsistent_counts(self):
        with pytest.raises(DimensionError):
            M.window_reverse(T.Tensor(np.zeros((3, 16, 2))), 1, 8, 8, 4)


class TestCyclicShift:
    def test_zero_shift_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 4, 2))
        assert np.array_equal(M.cyclic_shift(T.Tensor(x), 0).data, x)

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 8, 3))
        y = M.cyclic_shift(M.cyclic_shift(T.Tensor(x), 2), -2)
        assert np.array_equal(y.data, x)

    def test_two_by_two_enumeration(self):
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        x = np.array([[a, b], [c, d]]).reshape(2, 2, 1)
        out = M.cyclic_shift(T.Tensor(x), 1).data[:, :, 0]
        assert np.array_equal(out, [[d, c], [b, a]])


class TestShiftMask:
    def test_zero_shift_all_zero(self):
        mask = M.build_shift_mask(8, 8, 4, 0)
        assert mask.shape == (4, 16, 16)
        assert np.all(mask == 0.0)

    def test_matches_region_oracle(self):
        for (h, w, win, shift) in [(4, 4, 4, 2), (8, 8, 4, 2), (8, 8, 4, 1), (12, 12, 4, 2)]:
            mask = M.build_shift_mask(h, w, win, shift)
            n_side = w // win
            for wy in range(h // win):
                for wx in range(n_side):
                    widx = wy * n_side + wx
                    coords = [
                        (wy * win + i, wx * win + j)
                        for i in range(win)
                        for j in range(win)
                    ]
                    ids = [region_id_oracle(r, c, h, w, win, shift) for r, c in coords]
                    for i in range(len(ids)):
                        for j in range(len(ids)):
                            want = 0.0 if ids[i] == ids[j] else M.MASK_NEG
                            assert mask[widx, i, j] == want

    def test_single_window_quadrants(self):
        mask = M.build_shift_mask(4, 4, 4, 2)
        ids = [region_id_oracle(r, c, 4, 4, 4, 2) for r in range(4) for c in range(4)]
        assert len(set(ids)) == 4  # the lone window splits into 4 regions

    def test_interior_windows_unmasked(self):
        mask = M.build_shift_mask(8, 8, 4, 2)
        assert np.all(mask[0] == 0.0)  # top-left window crosses no region cut
        for widx in (1, 2, 3):
            assert np.any(mask[widx] == M.MASK_NEG)

    def test_symmetry(self):
        mask = M.build_shift_mask(8, 8, 4, 2)
        assert np.array_equal(mask, np.swapaxes(mask, 1, 2))


class TestRelativeBiasIndex:
    def test_window_one(self):
        assert np.array_equal(M.relative_bias_index(1), [[0]])

    def test_window_two_uses_nine_slots(self):
        idx = M.relative_bias_index(2)
        assert idx.shape == (4, 4)
        assert len(np.unique(idx)) == 9

    def test_equal_offsets_share_slot_w3(self):
        idx = M.relative_bias_index(3)
        coords = [(r, c) for r in range(3) for c in range(3)]
        seen = {}
        for i, (ri, ci) in enumerate(coords):
            for j, (rj, cj) in enumerate(coords):
                key = (ri - rj, ci - cj)
                if key in seen:
                    assert idx[i, j] == seen[key]
                else:
                    seen[key] = idx[i, j]
        # bijective over achievable offsets
        assert len(set(seen.values())) == len(seen) == 25


def _attn_weights(rng, c):
    return {
        "qkv.weight": T.Tensor(rng.normal(size=(c, 3 * c), scale=0.2), requires_grad=True),
        "qkv.bias": T.Tensor(rng.normal(size=3 * c, scale=0.2), requires_grad=True),
        "proj.weight": T.Tensor(rng.normal(size=(c, c), scale=0.2), requires_grad=True),
        "proj.bias": T.Tensor(rng.normal(size=c, scale=0.2), requires_grad=True),
    }


class TestWindowAttention:
    def test_single_token_equals_value_projection(self):
        rng = np.random.default_rng(7)
        c = 6
        weights = _attn_weights(rng, c)
        weights["proj.weight"] = T.Tensor(np.eye(c))
        weights["proj.bias"] = T.Tensor(np.zeros(c))
        x = rng.normal(size=(1, 1, c))
        table = T.Tensor(np.zeros((1, 2)))
        out = M.window_attention(T.Tensor(x), weights, table, num_heads=2)
        expected = x[0] @ weights["qkv.weight"].data[:, 2 * c :] + weights["qkv.bias"].data[2 * c :]
        assert np.max(np.abs(out.data[0] - expected)) < 1e-12

    def test_matches_dense_oracle_on_full_grid(self):
        rng = np.random.default_rng(8)
        c, heads, side = 8, 2, 4
        weights = _attn_weights(rng, c)
        grid = rng.normal(size=(side, side, c))
        wins = M.window_partition(T.Tensor(grid[None]), side)
        table = T.Tensor(np.zeros(((2 * side - 1) ** 2, heads)))
        out = M.window_attention(wins, weights, table, num_heads=heads)
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
        }
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 4, c))
        table = T.Tensor(np.zeros((9, 1)))
        out = M.window_attention(T.Tensor(x), weights, table, num_heads=1)
        assert np.max(np.abs(out.data - x.mean(axis=1, keepdims=True))) < 1e-12

    def test_mask_blocks_cross_region_mixing(self):
        rng = np.random.default_rng(10)
        h = w = 8
        win, shift, c, heads = 4, 2, 4, 2
        values = {rid: rng.normal(size=c) for rid in range(9)}
        grid = np.zeros((h, w, c))
        for r in range(h):
            for col in range(w):
                grid[r, col] = values[region_id_oracle(r, col, h, w, win, shift)]
        weights = _attn_weights(rng, c)
        table = T.Tensor(rng.normal(size=((2 * win - 1) ** 2, heads), scale=0.5))
        mask = M.build_shift_mask(h, w, win, shift)
        wins = M.window_partition(T.Tensor(grid[None]), win)
        out = M.window_attention(wins, weights, table, heads, mask=mask).data
        back = np.zeros_like(grid)
        n_side = w // win
        for wy in range(h // win):
            for wx in range(n_side):
                widx = wy * n_side + wx
                back[wy * win : (wy + 1) * win, wx * win : (wx + 1) * win] = out[
                    widx
                ].reshape(win, win, c)
        # same region id -> identical output token, anywhere on the grid
        by_region = {}
        for r in range(h):
            for col in range(w):
                rid = region_id_oracle(r, col, h, w, win, shift)
                if rid in by_region:
                    assert np.max(np.abs(back[r, col] - by_region[rid])) < 1e-9
                else:
                    by_region[rid] = back[r, col]

    def test_head_divisibility(self):
        rng = np.random.default_rng(11)
        weights = _attn_weights(rng, 6)
        with pytest.raises(ConfigurationError):
            M.window_attention(
                T.Tensor(rng.normal(size=(1, 4, 6))), weights, T.Tensor(np.zeros((9, 4))), 4
            )

    def test_mac_count_scales_with_window_count(self):
        rng = np.random.default_rng(12)
        c, heads, win = 8, 2, 4
        weights = _attn_weights(rng, c)
        table = T.Tensor(np.zeros(((2 * win - 1) ** 2, heads)))
        macs = {}
        for side in (16, 32):
            grid = rng.normal(size=(side, side, c))
            counter = M.MacCounter()
            M.window_attention(
                M.window_partition(T.Tensor(grid[None]), win), weights, table, heads,
                counter=counter,
            )
            macs[side] = counter.macs
        assert macs[32] == 4 * macs[16]


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
        blob = open(path, "rb").read()
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
        blob = open(path, "rb").read()
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
