"""The segmenter's fast paths against the whole-image code they replaced.

Each oracle below is the earlier implementation, kept here verbatim in
behaviour: the luma of whole float64 planes, run linking by binary
search, the size estimate from a whole-image np.nonzero, and the overlay
blended through whole-image boolean gathers.  The new code must give
the same labels, areas, measures and bytes on hypothesis masks and
images, on every gray level, and on 512 px disk and blank scans.
"""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from swinscan import data as D  # noqa: E402
from swinscan import segment as S  # noqa: E402
from test_pinned_bytes import _scan  # noqa: E402


def luma_oracle(rgb):
    """to_grayscale on whole float64 planes."""
    y = np.multiply(rgb[:, :, 0], 0.299, dtype=np.float64)
    term = np.multiply(rgb[:, :, 1], 0.587, dtype=np.float64)
    y += term
    y += np.multiply(rgb[:, :, 2], 0.114, out=term)
    y += 0.5
    return np.floor(y, out=y).astype(np.uint8)


def searchsorted_components(mask):
    """connected_components with each run's overlaps above found by
    binary search over the run keys."""
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int64)
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = mask
    change = np.flatnonzero(np.diff(padded, axis=1))
    start, end = change[0::2], change[1::2]
    lo = np.searchsorted(end, start - (w + 1), side="right")
    hi = np.searchsorted(start, end - (w + 1), side="left")
    count = hi - lo
    a = np.repeat(np.arange(len(start)), count)
    b = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)
    parent = np.arange(len(start))
    while True:
        ra, rb = parent[a], parent[b]
        join = ra != rb
        if not join.any():
            break
        a, b, ra, rb = a[join], b[join], ra[join], rb[join]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    root = parent == np.arange(len(parent))
    dense = (np.cumsum(root) - 1)[parent]
    run_len = end - start
    labels.ravel()[np.flatnonzero(mask)] = np.repeat(dense + 1, run_len)
    areas = np.bincount(dense, weights=run_len).astype(np.int64)
    return labels, areas.tolist()


def whole_image_size(regions, pixel_spacing_mm=None):
    """estimate_size from np.nonzero of the whole label image."""
    labels, areas = regions
    if not areas:
        return S.SegmentationResult(found=False, area_px=0, area_mm2=None, bbox=None,
                                    centroid=None)
    best = areas.index(max(areas)) + 1
    rows, cols = np.nonzero(labels == best)
    area_px = int(areas[best - 1])
    return S.SegmentationResult(
        found=True, area_px=area_px,
        area_mm2=None if pixel_spacing_mm is None else area_px * float(pixel_spacing_mm) ** 2,
        bbox=(int(rows.min()), int(cols.min()), int(rows.max()), int(cols.max())),
        centroid=(float(rows.mean()), float(cols.mean())),
    )


def gather_highlight(rgb, mask):
    """highlight_yellow through whole-image boolean gathers of an RGB image."""
    out = rgb.copy()
    blend = rgb[mask].astype(np.uint16)
    blend += np.asarray(S.YELLOW, dtype=np.uint16) + 1
    blend >>= 1
    out[mask] = blend
    return out


def assert_matches_oracles(mask, rgb, spacing=0.5):
    """Labels, areas, measures and overlay of mask over rgb, an (H, W, 3)
    or (H, W, 1) picture, against the oracles."""
    labels, areas = S.connected_components(mask)
    ref_labels, ref_areas = searchsorted_components(mask)
    assert labels.dtype == np.int64 and np.array_equal(labels, ref_labels)
    assert areas == ref_areas and all(type(a) is int for a in areas)

    result = S.estimate_size((labels, areas), spacing)
    assert result == whole_image_size((ref_labels, ref_areas), spacing)
    assert all(type(v) is int for v in result.bbox or ())

    rgb3 = np.repeat(rgb, 3 // rgb.shape[2], axis=2)
    for sel in (mask, labels == (S._largest_label(areas) if areas else 0)):
        out = S.highlight_yellow(rgb, sel)
        assert out.shape == rgb3.shape and out.dtype == np.uint8
        assert np.array_equal(out, gather_highlight(rgb3, sel))


@st.composite
def masks(draw, max_side=40):
    """Boolean masks of every shape kind: general, one row, one column;
    random, empty, full, or with a region touching every border."""
    kind = draw(st.sampled_from(["general", "row", "column"]))
    h = 1 if kind == "row" else draw(st.integers(1, max_side))
    w = 1 if kind == "column" else draw(st.integers(1, max_side))
    fill = draw(st.sampled_from(["random", "random", "empty", "full", "borders"]))
    if fill == "empty":
        return np.zeros((h, w), dtype=bool)
    if fill == "full":
        return np.ones((h, w), dtype=bool)
    mask = draw(hnp.arrays(np.bool_, (h, w)))
    if fill == "borders":
        # one ring along all four borders, whatever lies inside it
        mask[0], mask[-1], mask[:, 0], mask[:, -1] = True, True, True, True
    return mask


@settings(max_examples=300, deadline=None)
@given(masks(), st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 3]))
def test_masks_match_oracles(mask, seed, channels):
    rgb = np.random.default_rng(seed).integers(0, 256, size=mask.shape + (channels,),
                                               dtype=np.uint8)
    assert_matches_oracles(mask, rgb)


def test_ring_touching_every_border_is_one_region():
    mask = np.zeros((9, 13), dtype=bool)
    mask[0], mask[-1], mask[:, 0], mask[:, -1] = True, True, True, True
    mask[4, 4:9] = True  # a second region inside the ring
    labels, areas = S.connected_components(mask)
    assert areas == [2 * 13 + 2 * 7, 5]
    assert S.estimate_size((labels, areas)).bbox == (0, 0, 8, 12)
    assert_matches_oracles(mask, np.zeros((9, 13, 3), dtype=np.uint8))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.uint8, st.tuples(st.integers(1, 40), st.integers(1, 40),
                                      st.just(3))))
def test_rgb_luma_matches_whole_plane_oracle(rgb):
    assert np.array_equal(S.to_grayscale(rgb), luma_oracle(rgb))


@pytest.mark.parametrize("h, w", [(1, 1), (256, 256), (256, 257), (300, 301), (1, 65537)])
def test_blocked_luma_across_block_ends(h, w):
    # exactly one block, one pixel over, several blocks and a partial one
    rgb = np.random.default_rng(h * w).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    assert np.array_equal(S.to_grayscale(rgb), luma_oracle(rgb))
    # every other pixel of a wider image: a strided view
    wide = np.zeros((h, 2 * w, 3), dtype=np.uint8)
    wide[:, ::2] = rgb
    view = wide[:, ::2]
    assert w == 1 or not view.flags.c_contiguous
    assert np.array_equal(S.to_grayscale(view), luma_oracle(rgb))


def test_every_gray_level_is_its_own_luma():
    levels = np.arange(256, dtype=np.uint8).reshape(1, 256, 1)
    gray = S.to_grayscale(levels)
    assert gray.shape == (1, 256) and np.array_equal(gray, levels[:, :, 0])
    assert np.array_equal(gray, luma_oracle(np.repeat(levels, 3, axis=2)))


def test_every_gray_level_resizes_as_three_equal_channels():
    levels = np.arange(256, dtype=np.uint8).reshape(16, 16, 1)
    for maxval in (255, 200):
        stored = np.minimum(levels, maxval)
        one = D.resize_bilinear(stored, maxval, 64)
        three = D.resize_bilinear(np.repeat(stored, 3, axis=2), maxval, 64)
        assert one.shape == (3, 64, 64) and one.flags.c_contiguous
        assert one.tobytes() == three.tobytes()


@pytest.mark.parametrize("kind", ["disk", "blank"])
def test_512_scans_match_oracles(kind):
    rgb = np.ascontiguousarray(_scan(kind, 512, 448, np.random.default_rng(9)))
    gray = np.ascontiguousarray(rgb[:, :, :1])
    plane = S.to_grayscale(gray)
    assert np.array_equal(plane, luma_oracle(rgb))
    mask = S.threshold_mask(plane, S.otsu_threshold(plane))
    assert_matches_oracles(mask, gray)
    assert_matches_oracles(mask, rgb)
    # the one-channel chain gives the three-channel chain's result
    one, three = S.segment(gray, 0.5), S.segment(rgb, 0.5)
    assert one.found and one.highlighted.shape == (512, 448, 3)
    assert replace(one, highlighted=None) == replace(three, highlighted=None)
    assert np.array_equal(one.highlighted, three.highlighted)
