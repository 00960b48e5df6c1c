"""Tumor-region segmentation and size estimation.

The chain is deliberately classical: luma grayscale, a histogram
threshold, 4-connected components, then the largest region is taken as
the affected area.  It feeds the report with a pixel count, a bounding
box, a centroid, and a yellow-highlighted overlay image.

Images here are 8-bit: RGB arrays are (H, W, 3) uint8 and grayscale
arrays are (H, W) uint8.  rgb_from_stored brings decoded pixels at any
PNM maxval to that scale, with the rounding rgb_from_unit applies to a
(3, H, W) float image in [0, 1]; the tests draw their images as such
floats.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, EmptyInputError, InputError

__all__ = [
    "SegmentationResult", "rgb_from_stored", "rgb_from_unit", "to_grayscale",
    "otsu_threshold", "threshold_mask", "connected_components", "estimate_size",
    "highlight_yellow", "segment",
]

YELLOW = (255, 255, 0)
# pixels per np.bincount call in otsu_threshold: each call widens its
# block to int64, 512 KiB here instead of 8 bytes per pixel of the image
_HIST_BLOCK = 65536


@dataclass(frozen=True)
class SegmentationResult:
    """Size estimate for the selected region plus the overlay image.

    found is False when the mask had no region at all; bbox, centroid
    and area_mm2 are then None and area_px is 0.  bbox is inclusive:
    (row0, col0, row1, col1).
    """

    found: bool
    area_px: int
    area_mm2: float | None
    bbox: tuple[int, int, int, int] | None
    centroid: tuple[float, float] | None
    highlighted: np.ndarray | None = None


def _as_8bit(image, rank: int) -> np.ndarray:
    # rank 3 is an HxWx3 RGB image, rank 2 an HxW grayscale one
    arr = np.asarray(image)
    if arr.ndim != rank or (rank == 3 and arr.shape[2] != 3):
        expected = "HxWx3" if rank == 3 else "HxW"
        raise DimensionError(f"expected an {expected} image, got {list(arr.shape)}")
    if arr.size == 0:
        raise EmptyInputError("empty image")
    if not np.issubdtype(arr.dtype, np.integer):
        raise InputError(f"expected 8-bit integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() > 255:
        raise InputError("pixel values must lie in [0, 255]")
    return arr.astype(np.uint8, copy=False)


def rgb_from_stored(pixels: np.ndarray, maxval: int) -> np.ndarray:
    """(H, W, 3) values stored at maxval, each at most maxval, as 8-bit
    RGB: v becomes the byte rgb_from_unit gives for v / maxval."""
    if maxval == 255:
        # floor(v / 255 * 255 + 0.5) == v for every byte v
        return pixels
    levels = np.arange(maxval + 1) / float(maxval)
    return np.floor(levels * 255.0 + 0.5).astype(np.uint8)[pixels]


def rgb_from_unit(image) -> np.ndarray:
    """Convert a (3, H, W) float image in [0, 1] to (H, W, 3) uint8."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise DimensionError(f"expected a 3xHxW image, got {list(arr.shape)}")
    if arr.size == 0:
        raise EmptyInputError("empty image")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise InputError("unit-range image expected")
    return np.floor(arr * 255.0 + 0.5).astype(np.uint8).transpose(1, 2, 0)


def to_grayscale(rgb) -> np.ndarray:
    """Luma conversion: Y = round(0.299 R + 0.587 G + 0.114 B)."""
    arr = _as_8bit(rgb, 3)
    # the sum of 0.299 R + 0.587 G + 0.114 B in that order, built in
    # place on float64 products of the uint8 channels
    y = np.multiply(arr[:, :, 0], 0.299, dtype=np.float64)
    term = np.multiply(arr[:, :, 1], 0.587, dtype=np.float64)
    y += term
    y += np.multiply(arr[:, :, 2], 0.114, out=term)
    # halves round up, where np.round would go to even; y is never
    # negative and stays below 255.5, so the result fits a uint8
    y += 0.5
    return np.floor(y, out=y).astype(np.uint8)


def _histogram(arr: np.ndarray) -> np.ndarray:
    """int64 count of each level 0-255 in a uint8 array, np.bincount over
    _HIST_BLOCK pixels at a time."""
    flat = arr.reshape(-1)
    hist = np.zeros(256, dtype=np.int64)
    for start in range(0, flat.size, _HIST_BLOCK):
        hist += np.bincount(flat[start:start + _HIST_BLOCK], minlength=256)
    return hist


def otsu_threshold(gray) -> int:
    """Histogram threshold maximizing between-class variance.

    Classes are {intensity < t} and {intensity >= t} over candidate
    levels t in [0, 255]; scores are compared in exact integer
    arithmetic and ties go to the lower level.  A constant image is
    degenerate: its single value is returned, which leaves the
    strictly-greater mask empty.
    """
    arr = _as_8bit(gray, 2)
    lo, hi = int(arr.min()), int(arr.max())
    if lo == hi:
        return lo
    hist = _histogram(arr)
    total = int(arr.size)
    total_sum = int(np.dot(np.arange(256, dtype=np.int64), hist))
    best_t, best_num, best_den = 0, -1, 1
    n0 = s0 = 0
    counts = hist.tolist()
    # a level after an empty bin has the classes, so the score, of the one
    # before it, and ties go low: only t = 0 and levels after a count score
    for t in [0, *(np.flatnonzero(hist[:255]) + 1).tolist()]:
        if t > 0:
            n0 += counts[t - 1]
            s0 += (t - 1) * counts[t - 1]
        n1 = total - n0
        s1 = total_sum - s0
        if n0 == 0 or n1 == 0:
            num, den = 0, 1
        else:
            # between-class variance is (s0*n1 - s1*n0)^2 / (n0*n1*total^2);
            # the total^2 factor is common, so it drops out of comparisons
            d = s0 * n1 - s1 * n0
            num, den = d * d, n0 * n1
        if num * best_den > best_num * den:
            best_t, best_num, best_den = t, num, den
    return best_t


def threshold_mask(gray, level: int) -> np.ndarray:
    """Boolean mask of pixels strictly brighter than level."""
    arr = _as_8bit(gray, 2)
    if not 0 <= int(level) <= 255:
        raise InputError(f"threshold level {level} outside [0, 255]")
    return arr > int(level)


def connected_components(mask) -> tuple[np.ndarray, list[int]]:
    """Label 4-connected regions of a boolean mask.

    Returns (labels, areas): labels is an int array with background 0
    and regions numbered densely from 1 in scan order; areas[i] is the
    pixel count of label i + 1.

    Run-based two-scan labelling (He, Chao and Suzuki, IEEE TIP 2008)
    with the union done as array passes: each row's runs are linked to
    the runs they overlap in the row above, then roots are merged until
    no link joins two of them.
    """
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise DimensionError(f"expected an HxW mask, got {list(arr.shape)}")
    if arr.dtype != bool:
        raise InputError(f"expected a boolean mask, got dtype {arr.dtype}")
    h, w = arr.shape
    labels = np.zeros((h, w), dtype=np.int64)
    # runs [start, end) per row as keys row * (w + 1) + col: on a
    # zero-padded copy, the changes along each row alternate between a
    # run's start and its end, in raster order
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = arr
    change = np.flatnonzero(np.diff(padded, axis=1))
    start, end = change[0::2], change[1::2]

    # run a overlaps run b of the row above when s_a < e_b and s_b < e_a;
    # shifted up a row, those runs form one index range [lo, hi)
    lo = np.searchsorted(end, start - (w + 1), side="right")
    hi = np.searchsorted(start, end - (w + 1), side="left")
    count = hi - lo
    a = np.repeat(np.arange(len(start)), count)
    b = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)

    # hook each larger root to the smallest root it touches, then jump
    # pointers to the roots; a round removes at least one root, and a
    # component ends rooted at its lowest run, its first in scan order
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
    labels.ravel()[np.flatnonzero(arr)] = np.repeat(dense + 1, run_len)
    areas = np.bincount(dense, weights=run_len).astype(np.int64)
    return labels, areas.tolist()


def _largest_label(areas: list[int]) -> int:
    # max area, ties to the smallest label
    return areas.index(max(areas)) + 1


def estimate_size(regions, pixel_spacing_mm: float | None = None) -> SegmentationResult:
    """Measure the largest labeled region (ties go to the smallest label).

    regions is the (labels, areas) pair from connected_components.
    area_mm2 is area_px * spacing^2 and only present when a spacing is
    given.  An empty labeling yields found=False with zero area.
    """
    labels, areas = regions
    if pixel_spacing_mm is not None and pixel_spacing_mm <= 0:
        raise InputError(f"pixel spacing must be positive, got {pixel_spacing_mm}")
    if not areas:
        return SegmentationResult(
            found=False, area_px=0, area_mm2=None, bbox=None, centroid=None
        )
    best = _largest_label(areas)
    rows, cols = np.nonzero(labels == best)
    bbox = (int(rows.min()), int(cols.min()), int(rows.max()), int(cols.max()))
    centroid = (float(rows.mean()), float(cols.mean()))
    area_px = int(areas[best - 1])
    area_mm2 = None
    if pixel_spacing_mm is not None:
        area_mm2 = area_px * float(pixel_spacing_mm) ** 2
    return SegmentationResult(
        found=True, area_px=area_px, area_mm2=area_mm2, bbox=bbox, centroid=centroid
    )


def highlight_yellow(rgb, mask) -> np.ndarray:
    """Blend masked pixels halfway toward pure YELLOW; others pass through.

    Each masked channel value v becomes 0.5 * v + 0.5 * Y rounded half
    up, computed exactly in integers as (v + Y + 1) >> 1.
    """
    image = _as_8bit(rgb, 3)
    sel = np.asarray(mask)
    if sel.shape != image.shape[:2]:
        raise InputError(
            f"mask extents {list(sel.shape)} do not match image {list(image.shape[:2])}"
        )
    if sel.dtype != bool:
        raise InputError(f"expected a boolean mask, got dtype {sel.dtype}")
    out = image.copy()
    blend = image[sel].astype(np.uint16)
    blend += np.asarray(YELLOW, dtype=np.uint16) + 1
    blend >>= 1
    out[sel] = blend
    return out


def segment(rgb, pixel_spacing_mm: float | None = None) -> SegmentationResult:
    """Full chain on an RGB image; highlights the selected region only."""
    image = _as_8bit(rgb, 3)
    gray = to_grayscale(image)
    level = otsu_threshold(gray)
    mask = threshold_mask(gray, level)
    labels, areas = connected_components(mask)
    result = estimate_size((labels, areas), pixel_spacing_mm)
    if result.found:
        overlay = highlight_yellow(image, labels == _largest_label(areas))
    else:
        overlay = image.copy()
    return replace(result, highlighted=overlay)
