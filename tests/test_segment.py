from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from swinscan import segment as S
from swinscan.errors import DimensionError, EmptyInputError, InputError


def otsu_oracle(gray: np.ndarray) -> int:
    """Exhaustive 256-candidate scan in exact rational arithmetic."""
    vals = gray.ravel().astype(np.int64)
    lo, hi = int(vals.min()), int(vals.max())
    if lo == hi:
        return lo
    best_t, best_score = 0, Fraction(-1)
    for t in range(256):
        c0 = vals[vals < t]
        c1 = vals[vals >= t]
        if len(c0) == 0 or len(c1) == 0:
            score = Fraction(0)
        else:
            mu0 = Fraction(int(c0.sum()), len(c0))
            mu1 = Fraction(int(c1.sum()), len(c1))
            score = Fraction(len(c0) * len(c1)) * (mu0 - mu1) ** 2
        if score > best_score:
            best_t, best_score = t, score
    return best_t


def otsu_full_scan(gray: np.ndarray) -> int:
    """otsu_threshold as first written: the integer score at every one of
    the 256 levels, occupied bin below or not."""
    lo, hi = int(gray.min()), int(gray.max())
    if lo == hi:
        return lo
    hist = np.bincount(gray.ravel(), minlength=256)
    total = int(gray.size)
    total_sum = int(np.dot(np.arange(256, dtype=np.int64), hist))
    best_t, best_num, best_den = 0, -1, 1
    n0 = s0 = 0
    for t in range(256):
        if t > 0:
            n0 += int(hist[t - 1])
            s0 += (t - 1) * int(hist[t - 1])
        n1, s1 = total - n0, total_sum - s0
        if n0 == 0 or n1 == 0:
            num, den = 0, 1
        else:
            d = s0 * n1 - s1 * n0
            num, den = d * d, n0 * n1
        if num * best_den > best_num * den:
            best_t, best_num, best_den = t, num, den
    return best_t


def flood_components(mask: np.ndarray):
    """Breadth-first flood fill; returns the set of 4-connected regions."""
    h, w = mask.shape
    seen = np.zeros((h, w), dtype=bool)
    comps = []
    for r in range(h):
        for c in range(w):
            if not mask[r, c] or seen[r, c]:
                continue
            queue = deque([(r, c)])
            seen[r, c] = True
            comp = set()
            while queue:
                y, x = queue.popleft()
                comp.add((y, x))
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        queue.append((ny, nx))
            comps.append(frozenset(comp))
    return comps


def label_partition(labels: np.ndarray):
    out = {}
    for r, c in zip(*np.nonzero(labels)):
        out.setdefault(int(labels[r, c]), set()).add((int(r), int(c)))
    return {k: frozenset(v) for k, v in out.items()}


def solid_rgb(h, w, color):
    return np.full((h, w, 3), color, dtype=np.uint8)


def round_half_away_oracle(x):
    # round half away from zero, for either sign
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


class TestGrayscale:
    def test_white_maps_to_255(self):
        assert S.to_grayscale(solid_rgb(2, 2, (255, 255, 255)))[0, 0] == 255

    def test_pure_red_maps_to_76(self):
        # 0.299 * 255 = 76.245
        assert S.to_grayscale(solid_rgb(1, 1, (255, 0, 0)))[0, 0] == 76

    def test_gray_input_unchanged(self):
        rng = np.random.default_rng(0)
        vals = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        rgb = np.stack([vals] * 3, axis=2)
        assert np.array_equal(S.to_grayscale(rgb), vals)

    def test_half_rounds_away_from_zero(self):
        # 0.114 * 250 = 28.5; banker's rounding would give 28
        assert S.to_grayscale(solid_rgb(1, 1, (0, 0, 250)))[0, 0] == 29

    def test_every_rgb_triple_matches_oracle(self):
        # all 2^24 triples, 16 red levels (2^20 pixels) at a time, against
        # the out-of-place float sum the in-place kernel replaced
        g, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        for r0 in range(0, 256, 16):
            rgb = np.empty((16, 256, 256, 3), dtype=np.uint8)
            rgb[..., 0] = np.arange(r0, r0 + 16)[:, None, None]
            rgb[..., 1], rgb[..., 2] = g, b
            rgb = rgb.reshape(16 * 256, 256, 3)
            arr = rgb.astype(np.float64)
            y = 0.299 * arr[:, :, 0] + 0.587 * arr[:, :, 1] + 0.114 * arr[:, :, 2]
            expected = np.clip(round_half_away_oracle(y), 0, 255).astype(np.uint8)
            assert np.array_equal(S.to_grayscale(rgb), expected), r0

    def test_shape_and_dtype(self):
        gray = S.to_grayscale(solid_rgb(3, 4, (9, 9, 9)))
        assert gray.shape == (3, 4) and gray.dtype == np.uint8

    def test_read_only_input_is_not_written(self):
        # decoded P6 pixels are a read-only view of the request bytes
        rgb = np.random.default_rng(4).integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
        view = np.frombuffer(rgb.tobytes(), dtype=np.uint8).reshape(rgb.shape)
        assert not view.flags.writeable
        gray = S.to_grayscale(view)
        result = S.segment(view)
        assert np.array_equal(view, rgb)
        assert gray.flags.writeable and result.highlighted.flags.writeable

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            S.to_grayscale(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(InputError):
            S.to_grayscale(np.zeros((2, 2, 3), dtype=np.float64))
        with pytest.raises(InputError):
            S.to_grayscale(np.full((2, 2, 3), 300, dtype=np.int64))


class TestRgbFromStored:
    def test_every_maxval_and_value_matches_rgb_from_unit(self):
        for maxval in range(1, 256):
            levels = np.arange(maxval + 1, dtype=np.uint8).reshape(1, -1, 1)
            pixels = np.repeat(levels, 3, axis=2)
            want = S.rgb_from_unit(pixels.transpose(2, 0, 1) / float(maxval))
            got = S.rgb_from_stored(pixels, maxval)
            assert got.dtype == np.uint8 and np.array_equal(got, want), maxval

    def test_full_scale_pixels_pass_through(self):
        pixels = solid_rgb(2, 3, (1, 2, 3))
        assert S.rgb_from_stored(pixels, 255) is pixels


class TestRgbFromUnit:
    def test_quantization_and_layout(self):
        image = np.zeros((3, 2, 2), dtype=np.float64)
        image[0, 0, 0] = 1.0
        image[1, 0, 1] = 0.5  # 127.5 + 0.5 -> 128
        rgb = S.rgb_from_unit(image)
        assert rgb.shape == (2, 2, 3) and rgb.dtype == np.uint8
        assert rgb[0, 0, 0] == 255
        assert rgb[0, 1, 1] == 128

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            S.rgb_from_unit(np.full((3, 2, 2), 1.5))
        with pytest.raises(DimensionError):
            S.rgb_from_unit(np.zeros((2, 2, 3)))


class TestOtsu:
    def test_constant_image_degenerates_to_its_value(self):
        gray = np.full((4, 4), 137, dtype=np.uint8)
        level = S.otsu_threshold(gray)
        assert level == 137
        assert not S.threshold_mask(gray, level).any()

    def test_half_zero_half_255(self):
        gray = np.array([[0, 255]] * 8, dtype=np.uint8)
        level = S.otsu_threshold(gray)
        assert 0 < level < 255
        mask = S.threshold_mask(gray, level)
        assert mask.sum() == 8 and gray[mask].min() == 255

    def test_bimodal_level_strictly_between_modes(self):
        rng = np.random.default_rng(1)
        gray = rng.choice([10, 200], size=(12, 12)).astype(np.uint8)
        level = S.otsu_threshold(gray)
        assert 10 < level < 200
        assert level == otsu_oracle(gray)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_oracle_on_noisy_bimodal(self, seed):
        rng = np.random.default_rng(seed)
        low = rng.normal(60, 12, size=90)
        high = rng.normal(190, 15, size=54)
        gray = np.clip(np.concatenate([low, high]), 0, 255)
        gray = np.floor(gray).astype(np.uint8).reshape(12, 12)
        assert S.otsu_threshold(gray) == otsu_oracle(gray)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_oracle_on_uniform_noise(self, seed):
        rng = np.random.default_rng(100 + seed)
        gray = rng.integers(0, 256, size=(9, 11), dtype=np.uint8)
        assert S.otsu_threshold(gray) == otsu_oracle(gray)

    def test_matches_oracle_on_few_distinct_values(self):
        gray = np.array([[5, 5, 5, 6], [6, 6, 7, 7], [7, 7, 7, 250]], dtype=np.uint8)
        assert S.otsu_threshold(gray) == otsu_oracle(gray)

    def test_tie_breaks_low(self):
        # two values at equal counts: every level between them scores the
        # same, so the lowest winning level must come back
        gray = np.array([[40, 40, 90, 90]], dtype=np.uint8)
        assert S.otsu_threshold(gray) == 41
        assert otsu_oracle(gray) == 41

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            S.otsu_threshold(np.zeros((0, 4), dtype=np.uint8))

    @pytest.mark.parametrize("seed", range(40))
    def test_skipping_empty_levels_matches_full_scan(self, seed):
        # a few occupied levels with gaps between them; equal counts on
        # mirrored levels give plateaus of equal scores
        rng = np.random.default_rng(300 + seed)
        levels = np.sort(rng.choice(256, size=rng.integers(2, 12), replace=False))
        counts = rng.integers(1, 6, size=levels.size)
        if seed % 2:
            counts = np.minimum(counts, counts[::-1])
        gray = np.repeat(levels, counts).astype(np.uint8)[None]
        assert S.otsu_threshold(gray) == otsu_full_scan(gray) == otsu_oracle(gray)

    @pytest.mark.parametrize("lo, hi", [(0, 255), (0, 1), (254, 255), (17, 200)])
    def test_two_levels_match_full_scan(self, lo, hi):
        gray = np.array([[lo, hi, hi], [lo, lo, hi]], dtype=np.uint8)
        assert S.otsu_threshold(gray) == otsu_full_scan(gray) == lo + 1

    @pytest.mark.parametrize("value", [0, 128, 255])
    def test_constant_matches_full_scan(self, value):
        gray = np.full((3, 5), value, dtype=np.uint8)
        assert S.otsu_threshold(gray) == otsu_full_scan(gray) == value

    @pytest.mark.parametrize("seed", range(4))
    def test_64px_noise_matches_full_scan(self, seed):
        gray = np.random.default_rng(400 + seed).integers(0, 256, size=(64, 64), dtype=np.uint8)
        assert S.otsu_threshold(gray) == otsu_full_scan(gray)

    @pytest.mark.parametrize("shape", [(1, 3), (255, 257), (257, 255), (512, 129)])
    def test_blocked_histogram_equals_one_bincount(self, shape):
        # sizes that are not a multiple of the block, one of them below it
        rng = np.random.default_rng(shape[0])
        gray = rng.integers(0, 256, size=shape, dtype=np.uint8)
        assert gray.size % S._HIST_BLOCK != 0
        hist = S._histogram(gray)
        assert hist.dtype == np.int64
        assert np.array_equal(hist, np.bincount(gray.ravel(), minlength=256))
        # a strided view counts the pixels it shows
        assert np.array_equal(S._histogram(gray.T[::2]),
                              np.bincount(gray.T[::2].ravel(), minlength=256))


class TestThresholdMask:
    def test_level_255_empty(self):
        gray = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert not S.threshold_mask(gray, 255).any()

    def test_level_0_on_binary_image(self):
        gray = np.array([[0, 255], [255, 0]], dtype=np.uint8)
        assert np.array_equal(S.threshold_mask(gray, 0), gray == 255)

    def test_negative_level_rejected(self):
        with pytest.raises(InputError):
            S.threshold_mask(np.zeros((2, 2), dtype=np.uint8), -1)
        with pytest.raises(InputError):
            S.threshold_mask(np.zeros((2, 2), dtype=np.uint8), 256)

    def test_count_non_increasing_in_level(self):
        rng = np.random.default_rng(3)
        gray = rng.integers(0, 256, size=(12, 12), dtype=np.uint8)
        counts = [S.threshold_mask(gray, t).sum() for t in range(256)]
        assert all(b <= a for a, b in zip(counts, counts[1:]))


class TestConnectedComponents:
    def test_solid_block_is_one_region(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:4, 1:4] = True
        labels, areas = S.connected_components(mask)
        assert areas == [9]
        assert set(np.unique(labels)) == {0, 1}

    def test_diagonal_touch_is_two_regions(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        _, areas = S.connected_components(mask)
        assert areas == [1, 1]

    def test_labels_dense_from_one_in_scan_order(self):
        mask = np.zeros((3, 7), dtype=bool)
        mask[0, 5] = True   # first in scan order
        mask[1, 1] = True
        mask[2, 3] = True
        labels, areas = S.connected_components(mask)
        assert labels[0, 5] == 1 and labels[1, 1] == 2 and labels[2, 3] == 3
        assert areas == [1, 1, 1]

    def test_u_shape_merges_into_one_region(self):
        # the two arms only join at the bottom row; union-find must fuse them
        mask = np.zeros((4, 3), dtype=bool)
        mask[:, 0] = True
        mask[:, 2] = True
        mask[3, 1] = True
        labels, areas = S.connected_components(mask)
        assert areas == [9]
        assert set(np.unique(labels[mask])) == {1}

    @pytest.mark.parametrize("seed", range(12))
    def test_random_masks_match_flood_fill_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((16, 16)) < rng.uniform(0.2, 0.8)
        labels, areas = S.connected_components(mask)
        part = label_partition(labels)
        assert set(part.values()) == set(flood_components(mask))
        assert sorted(areas) == sorted(len(c) for c in part.values())

    @pytest.mark.parametrize("seed", range(12))
    def test_areas_sum_to_mask_population(self, seed):
        rng = np.random.default_rng(50 + seed)
        mask = rng.random((14, 18)) < 0.5
        _, areas = S.connected_components(mask)
        assert sum(areas) == int(mask.sum())

    def test_empty_mask(self):
        for shape in ((4, 4), (0, 5), (5, 0), (0, 0)):
            labels, areas = S.connected_components(np.zeros(shape, dtype=bool))
            assert areas == [], shape
            assert labels.shape == shape and labels.dtype == np.int64 and not labels.any()

    def test_rejects_non_boolean(self):
        with pytest.raises(InputError):
            S.connected_components(np.zeros((3, 3), dtype=np.uint8))


class TestEstimateSize:
    def block_regions(self):
        mask = np.zeros((8, 10), dtype=bool)
        mask[2:5, 5:8] = True
        return S.connected_components(mask)

    def test_block_area_bbox_centroid(self):
        result = S.estimate_size(self.block_regions())
        assert result.found
        assert result.area_px == 9
        assert result.bbox == (2, 5, 4, 7)
        assert result.centroid == (3.0, 6.0)
        assert result.area_mm2 is None

    def test_spacing_scales_area(self):
        result = S.estimate_size(self.block_regions(), pixel_spacing_mm=0.5)
        assert result.area_mm2 == pytest.approx(2.25, abs=0.0)

    def test_largest_region_wins(self):
        mask = np.zeros((6, 12), dtype=bool)
        mask[0, 0:5] = True    # area 5
        mask[3:6, 6:9] = True  # area 9
        labels, areas = S.connected_components(mask)
        result = S.estimate_size((labels, areas))
        assert result.area_px == 9
        assert result.bbox == (3, 6, 5, 8)
        # the region it measured, which segment's overlay highlights
        assert result.region.dtype == bool and np.array_equal(result.region, labels == 2)

    def test_area_tie_goes_to_smallest_label(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0:2] = True  # label 1, area 2
        mask[4, 3:5] = True  # label 2, area 2
        result = S.estimate_size(S.connected_components(mask))
        assert result.bbox == (0, 0, 0, 1)

    def test_empty_mask_flagged(self):
        result = S.estimate_size(S.connected_components(np.zeros((3, 3), dtype=bool)))
        assert not result.found
        assert result.area_px == 0
        assert result.bbox is None and result.centroid is None and result.region is None

    def test_bad_spacing_rejected(self):
        # NaN passes a `<= 0` test, and it and the infinities give a
        # non-finite area_mm2
        for spacing in (float("nan"), float("inf"), float("-inf"), 0.0, -1.0):
            with pytest.raises(InputError):
                S.estimate_size(self.block_regions(), pixel_spacing_mm=spacing)

    @pytest.mark.parametrize("dy,dx", [(1, 0), (0, 3), (2, 2)])
    def test_translation_equivariance(self, dy, dx):
        rng = np.random.default_rng(9)
        base = np.zeros((16, 16), dtype=bool)
        base[3:7, 2:9] = rng.random((4, 7)) < 0.7
        moved = np.roll(np.roll(base, dy, axis=0), dx, axis=1)
        a = S.estimate_size(S.connected_components(base))
        b = S.estimate_size(S.connected_components(moved))
        assert b.area_px == a.area_px
        assert b.bbox == tuple(
            v + (dy if i % 2 == 0 else dx) for i, v in enumerate(a.bbox)
        )
        assert b.centroid == (a.centroid[0] + dy, a.centroid[1] + dx)


class TestHighlight:
    def test_black_pixel_half_alpha(self):
        rgb = solid_rgb(2, 2, (0, 0, 0))
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        out = S.highlight_yellow(rgb, mask)
        assert tuple(out[0, 0]) == (128, 128, 0)

    def test_every_channel_value_matches_oracle(self):
        rgb = np.repeat(np.arange(256, dtype=np.uint8), 3).reshape(1, 256, 3)
        out = S.highlight_yellow(rgb, np.ones((1, 256), dtype=bool))
        # the half blend in float64, rounded half up
        blend = 0.5 * rgb.astype(np.float64) + 0.5 * np.asarray(S.YELLOW, dtype=np.float64)
        assert np.array_equal(out, round_half_away_oracle(blend).astype(np.uint8))

    def test_unmasked_pixels_bit_identical(self):
        rng = np.random.default_rng(4)
        rgb = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
        mask = rng.random((6, 6)) < 0.4
        out = S.highlight_yellow(rgb, mask)
        assert np.array_equal(out[~mask], rgb[~mask])

    def test_values_stay_in_range(self):
        rng = np.random.default_rng(5)
        rgb = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
        mask = rng.random((8, 8)) < 0.5
        out = S.highlight_yellow(rgb, mask)
        assert out.min() >= 0 and out.max() <= 255

    def test_source_not_mutated(self):
        rgb = solid_rgb(2, 2, (1, 2, 3))
        before = rgb.copy()
        S.highlight_yellow(rgb, np.ones((2, 2), dtype=bool))
        assert np.array_equal(rgb, before)

    def test_extent_mismatch_rejected(self):
        with pytest.raises(InputError):
            S.highlight_yellow(solid_rgb(2, 2, (0, 0, 0)), np.ones((3, 2), dtype=bool))


class TestSegmentPipeline:
    def bright_blob(self, h=64, w=64, center=(30, 34), radius=9):
        rgb = np.full((h, w, 3), 20, dtype=np.uint8)
        rows, cols = np.ogrid[:h, :w]
        disk = (rows - center[0]) ** 2 + (cols - center[1]) ** 2 <= radius ** 2
        rgb[disk] = 230
        return rgb, disk

    def test_blob_is_found_and_measured(self):
        rgb, disk = self.bright_blob()
        result = S.segment(rgb)
        assert result.found
        assert result.area_px == int(disk.sum())
        assert abs(result.centroid[0] - 30) < 0.5
        assert abs(result.centroid[1] - 34) < 0.5

    def test_highlight_covers_exactly_the_region(self):
        rgb, disk = self.bright_blob()
        result = S.segment(rgb)
        changed = np.any(result.highlighted != rgb, axis=2)
        assert np.array_equal(changed, disk)
        assert np.array_equal(result.highlighted[~disk], rgb[~disk])

    def test_constant_image_yields_no_region(self):
        rgb = solid_rgb(16, 16, (90, 90, 90))
        result = S.segment(rgb)
        assert not result.found
        assert result.area_px == 0
        assert np.array_equal(result.highlighted, rgb)

    def test_spacing_propagates(self):
        rgb, disk = self.bright_blob()
        result = S.segment(rgb, pixel_spacing_mm=2.0)
        assert result.area_mm2 == pytest.approx(int(disk.sum()) * 4.0, abs=0.0)

    def test_largest_of_two_blobs_selected(self):
        rgb = np.full((48, 48, 3), 15, dtype=np.uint8)
        rgb[4:8, 4:8] = 240     # area 16
        rgb[20:30, 20:30] = 240  # area 100
        result = S.segment(rgb)
        assert result.area_px == 100
        assert result.bbox == (20, 20, 29, 29)
