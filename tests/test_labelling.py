"""connected_components against two oracles.

The exact reference is the per-pixel union-find that the run-based
labeller replaced: labels and areas must match it value for value.  It
takes a few microseconds per pixel, so large masks are checked against
scipy.ndimage.label instead, which fixes the partition but numbers its
regions its own way; scan order and areas are then checked directly.
"""

import numpy as np
import pytest

ndimage = pytest.importorskip("scipy.ndimage")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from swinscan import segment as S  # noqa: E402


def loop_components(mask):
    """Per-pixel two-pass union-find: the labeller before run-based labelling."""
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int64)
    parent = [0]  # union-find over provisional labels, index 0 unused

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for r in range(h):
        for c in range(w):
            if not mask[r, c]:
                continue
            up = int(labels[r - 1, c]) if r else 0
            left = int(labels[r, c - 1]) if c else 0
            if not up and not left:
                parent.append(len(parent))
                labels[r, c] = len(parent) - 1
            elif up and left:
                ru, rl = find(up), find(left)
                labels[r, c] = min(ru, rl)
                parent[max(ru, rl)] = min(ru, rl)
            else:
                labels[r, c] = find(up or left)
    dense = {}
    areas = []
    for r in range(h):
        for c in range(w):
            if not mask[r, c]:
                continue
            root = find(int(labels[r, c]))
            if root not in dense:
                dense[root] = len(dense) + 1
                areas.append(0)
            labels[r, c] = dense[root]
            areas[dense[root] - 1] += 1
    return labels, areas


def spiral(n):
    """One 1-px square spiral with 1-px gaps, walked inward from (0, 0)."""
    mask = np.zeros((n, n), dtype=bool)
    r = c = 0
    mask[0, 0] = True
    steps = [n - 1, n - 1, n - 1]
    steps += [k for k in range(n - 3, 0, -2) for _ in (0, 1)]
    for i, k in enumerate(steps):
        dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[i % 4]
        for _ in range(k):
            r, c = r + dr, c + dc
            mask[r, c] = True
    return mask


def serpentine(n):
    """Every other row, joined alternately at the right and left ends."""
    mask = np.zeros((n, n), dtype=bool)
    mask[::2] = True
    for r in range(1, n, 2):
        mask[r, -1 if r % 4 == 1 else 0] = True
    return mask


def comb(n):
    """1-px teeth joined only by the last row, so every merge comes late."""
    mask = np.zeros((n, n), dtype=bool)
    mask[:, ::2] = True
    mask[-1] = True
    return mask


def adversarial(n):
    yy, xx = np.mgrid[0:n, 0:n]
    rng = np.random.default_rng(n)
    return {
        "checkerboard": (yy + xx) % 2 == 0,
        "row_stripes": yy % 2 == 0,
        "column_stripes": xx % 2 == 0,
        "comb": comb(n),
        "spiral": spiral(n),
        "serpentine": serpentine(n),
        "column_serpentine": serpentine(n).T.copy(),
        "diagonal_stairs": (xx - yy) % 4 < 2,
        "random_sparse": rng.random((n, n)) < 0.45,
        "random_dense": rng.random((n, n)) < 0.62,
        "all_on": np.ones((n, n), dtype=bool),
        "all_off": np.zeros((n, n), dtype=bool),
    }


def assert_same_as_loop(mask):
    labels, areas = S.connected_components(mask)
    ref_labels, ref_areas = loop_components(mask)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, ref_labels)
    assert areas == ref_areas
    assert all(type(a) is int for a in areas)


def assert_same_partition_as_scipy(mask):
    labels, areas = S.connected_components(mask)
    ref, count = ndimage.label(mask)
    assert len(areas) == count
    assert np.array_equal(labels > 0, mask)
    # each of our regions is exactly one reference region
    pairs = np.unique(labels[mask] * (count + 1) + ref[mask])
    assert len(pairs) == count
    # dense from 1, numbered by the scan order of each region's first pixel
    values, first = np.unique(labels[mask], return_index=True)
    assert np.array_equal(values, np.arange(1, count + 1))
    assert np.all(np.diff(first) > 0)
    assert areas == np.bincount(labels.ravel(), minlength=count + 1)[1:].tolist()


def test_spiral_is_one_path():
    mask = spiral(41)
    assert ndimage.label(mask)[1] == 1
    # a path: every pixel has at most two 4-neighbours in the mask
    padded = np.pad(mask, 1)
    neighbours = (padded[:-2, 1:-1].astype(int) + padded[2:, 1:-1]
                  + padded[1:-1, :-2] + padded[1:-1, 2:])
    assert neighbours[mask].max() == 2


@pytest.mark.parametrize("name", sorted(adversarial(8)))
def test_adversarial_masks_match_loop(name):
    assert_same_as_loop(adversarial(40)[name])


@pytest.mark.parametrize("name", sorted(adversarial(8)))
def test_adversarial_512_masks_match_scipy(name):
    assert_same_partition_as_scipy(adversarial(512)[name])


def test_noise_2048_matches_scipy():
    mask = np.random.default_rng(3).random((2048, 2048)) < 0.5
    assert_same_partition_as_scipy(mask)


@pytest.mark.parametrize("shape", [(1, 1), (1, 37), (37, 1), (2, 53), (53, 2)])
def test_thin_masks_match_loop(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for density in (0.0, 0.3, 0.7, 1.0):
        assert_same_as_loop(rng.random(shape) < density)


def test_equal_largest_areas_go_to_the_first_region_in_scan_order():
    # region A is a U whose right arm starts on row 0 and whose left arm
    # starts a row lower; the arms join on row 3.  Region B, the same
    # size, starts on row 0 right of A.  A's first pixel comes first,
    # so A is label 1 and wins the tie.
    mask = np.zeros((5, 9), dtype=bool)
    mask[1:4, 0] = True
    mask[0:4, 2] = True
    mask[3, 1] = True   # A: 3 + 4 + 1 = 8 px
    mask[0, 5:9] = True
    mask[1, 5:9] = True  # B: 8 px
    labels, areas = S.connected_components(mask)
    assert areas == [8, 8]
    assert labels[0, 2] == 1 and labels[1, 0] == 1 and labels[0, 5] == 2
    assert_same_as_loop(mask)
    result = S.estimate_size((labels, areas))
    assert result.bbox == (0, 0, 3, 2)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.bool_, st.tuples(st.integers(1, 64), st.integers(1, 64))))
def test_random_masks_match_loop(mask):
    assert_same_as_loop(mask)
