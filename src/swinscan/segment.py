"""Tumor-region segmentation and size estimation.

The chain is deliberately classical: luma grayscale, a histogram
threshold, 4-connected components, then the largest region is taken as
the affected area.  It feeds the report with a pixel count, a bounding
box, a centroid, and a yellow-highlighted overlay image.

Images here are 8-bit: pictures are (H, W, 3) uint8 RGB or (H, W, 1)
uint8 gray, and grayscale planes are (H, W) uint8.  A gray picture is
its own luma, so it skips that pass, and only the overlay, the one
output in colour, is built with three channels.  rgb_from_stored brings
decoded pixels at any PNM maxval to that scale, with the rounding
rgb_from_unit applies to a (3, H, W) float image in [0, 1]; the tests
draw their images as such floats.

After the threshold, work follows the regions rather than the image:
connected_components handles runs and the pixels where runs meet, and
estimate_size and highlight_yellow read only the selected region's
bounding box once they have found it.
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
# pixels per to_grayscale block: its two float64 buffers, 1 MiB in all,
# stay in cache between the operations
_GRAY_BLOCK = 65536


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
    # rank 3 is an HxWx3 RGB or HxWx1 gray picture, rank 2 an HxW plane
    arr = np.asarray(image)
    if arr.ndim != rank or (rank == 3 and arr.shape[2] not in (1, 3)):
        expected = "HxWx3 or HxWx1" if rank == 3 else "HxW"
        raise DimensionError(f"expected an {expected} image, got {list(arr.shape)}")
    if arr.size == 0:
        raise EmptyInputError("empty image")
    if not np.issubdtype(arr.dtype, np.integer):
        raise InputError(f"expected 8-bit integers, got dtype {arr.dtype}")
    if arr.dtype != np.uint8 and (arr.min() < 0 or arr.max() > 255):
        raise InputError("pixel values must lie in [0, 255]")
    return arr.astype(np.uint8, copy=False)


def _rgb_copy(image: np.ndarray) -> np.ndarray:
    """A new (H, W, 3) array of an (H, W, 3) or (H, W, 1) picture."""
    if image.shape[2] == 3:
        return image.copy()
    # one strided copy per channel: broadcasting or np.repeat along the
    # last axis copies a pixel at a time, several times slower
    out = np.empty(image.shape[:2] + (3,), dtype=np.uint8)
    for c in range(3):
        out[:, :, c] = image[:, :, 0]
    return out


def rgb_from_stored(pixels: np.ndarray, maxval: int) -> np.ndarray:
    """(H, W, C) values stored at maxval, each at most maxval, as 8-bit
    values of the same shape: v becomes the byte rgb_from_unit gives
    for v / maxval."""
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
    """Luma conversion: Y = round(0.299 R + 0.587 G + 0.114 B).

    An (H, W, 1) gray picture is returned as its plane, a view: each
    level v is the luma of (v, v, v).
    """
    arr = _as_8bit(rgb, 3)
    if arr.shape[2] == 1:
        return arr[:, :, 0]
    pixels = arr.reshape(-1, 3)
    out = np.empty(len(pixels), dtype=np.uint8)
    y = np.empty(min(len(pixels), _GRAY_BLOCK))
    term = np.empty_like(y)
    for at in range(0, len(pixels), _GRAY_BLOCK):
        block = pixels[at:at + _GRAY_BLOCK]
        yb, tb = y[:len(block)], term[:len(block)]
        # the sum of 0.299 R + 0.587 G + 0.114 B in that order, on
        # float64 products of the uint8 channels
        np.multiply(block[:, 0], 0.299, out=yb, dtype=np.float64)
        yb += np.multiply(block[:, 1], 0.587, out=tb, dtype=np.float64)
        yb += np.multiply(block[:, 2], 0.114, out=tb, dtype=np.float64)
        # halves round up, where np.round would go to even; y is never
        # negative and stays below 255.5, so the result fits a uint8
        yb += 0.5
        out[at:at + len(block)] = np.floor(yb, out=yb)
    return out.reshape(arr.shape[:2])


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
    hist = _histogram(arr)
    present = np.flatnonzero(hist)
    lo, hi = int(present[0]), int(present[-1])
    if lo == hi:
        return lo
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
    with the union done as array passes: each run is linked to the runs
    it touches in the row above, roots are merged until no link joins
    two of them, and labels are painted from a per-run table.
    """
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise DimensionError(f"expected an HxW mask, got {list(arr.shape)}")
    if arr.dtype != bool:
        raise InputError(f"expected a boolean mask, got dtype {arr.dtype}")
    h, w = arr.shape
    span = w + 1
    # the mask in raster order behind one clear pixel per row, plus one
    # at the end, so that no run crosses a row end: pixel (r, c) is
    # flat[r * span + c + 1]
    flat = np.zeros(h * span + 1, dtype=bool)
    flat[:-1].reshape(h, span)[:, 1:] = arr
    # runs [start, stop): the changes alternate between a run's first
    # pixel and the clear pixel after it
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    start, stop = change[0::2], change[1::2]
    pixels = np.flatnonzero(flat)
    run = np.repeat(np.arange(len(start)), stop - start)  # per set pixel

    # a run touches a run above it along one stretch of pixels set in
    # both rows, so the first pixel of each stretch links the two runs;
    # first[i + span] marks a stretch whose upper row starts at pixel i
    # (flat[0] is clear, so no stretch starts at pixel 0)
    both = flat[span:] & flat[:-span]
    first = np.zeros(len(flat) + span, dtype=bool)
    np.greater(both[1:], both[:-1], out=first[span + 1:len(flat)])
    lower = run[np.flatnonzero(first[:-span][pixels])]
    upper = run[np.flatnonzero(first[span:][pixels])]

    # hook each larger root to the smallest root it touches, then jump
    # the pointers of the runs whose parent is no root until each is; a
    # round removes at least one root, and a component ends rooted at
    # its lowest run, its first in scan order.  Arrays are filtered by
    # index: boolean masks copy several times slower.
    parent = np.arange(len(start))
    ra, rb = lower, upper
    while len(ra):
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        todo = np.flatnonzero(parent[parent] != parent)
        while len(todo):
            up = parent[parent[todo]]
            parent[todo] = up
            todo = todo[np.flatnonzero(parent[up] != up)]
        ra, rb = parent[lower], parent[upper]
        keep = np.flatnonzero(ra != rb)
        lower, upper, ra, rb = lower[keep], upper[keep], ra[keep], rb[keep]

    roots = np.flatnonzero(parent == np.arange(len(parent)))
    table = np.empty(len(parent), dtype=np.int64)
    table[roots] = np.arange(1, len(roots) + 1)
    painted = table[parent][run]  # the label of each set pixel
    labels = np.zeros((h, w), dtype=np.int64)
    labels.ravel()[pixels - pixels // span - 1] = painted
    return labels, np.bincount(painted)[1:].tolist()


def _largest_label(areas: list[int]) -> int:
    # max area, ties to the smallest label
    return areas.index(max(areas)) + 1


def _box(mask: np.ndarray):
    """(rows, cols) slices of the smallest box that holds every set
    pixel of an HxW boolean mask, or None when none is set."""
    rows = np.flatnonzero(mask.any(axis=1))
    if not len(rows):
        return None
    rows = slice(int(rows[0]), int(rows[-1]) + 1)
    cols = np.flatnonzero(mask[rows].any(axis=0))
    return rows, slice(int(cols[0]), int(cols[-1]) + 1)


def estimate_size(regions, pixel_spacing_mm: float | None = None) -> SegmentationResult:
    """Measure the largest labeled region (ties go to the smallest label).

    regions is the (labels, areas) pair from connected_components.
    area_mm2 is area_px * spacing^2 and only present when a spacing is
    given.  An empty labeling yields found=False with zero area.
    """
    labels, areas = regions
    if pixel_spacing_mm is not None and not 0 < pixel_spacing_mm < np.inf:  # false for NaN too
        raise InputError(f"pixel spacing must be finite and positive, got {pixel_spacing_mm}")
    if not areas:
        return SegmentationResult(
            found=False, area_px=0, area_mm2=None, bbox=None, centroid=None
        )
    best = _largest_label(areas)
    hit = labels == best
    rows, cols = _box(hit)
    # the region's pixels in raster order, so the means sum the row and
    # column indices in the order a whole-image np.nonzero gives them
    at = np.flatnonzero(hit[rows, cols])
    r, c = np.divmod(at, cols.stop - cols.start)
    r += rows.start
    c += cols.start
    bbox = (rows.start, cols.start, rows.stop - 1, cols.stop - 1)
    centroid = (float(r.mean()), float(c.mean()))
    area_px = int(areas[best - 1])
    area_mm2 = None
    if pixel_spacing_mm is not None:
        area_mm2 = area_px * float(pixel_spacing_mm) ** 2
    return SegmentationResult(
        found=True, area_px=area_px, area_mm2=area_mm2, bbox=bbox, centroid=centroid
    )


def highlight_yellow(rgb, mask) -> np.ndarray:
    """Blend masked pixels halfway toward pure YELLOW; others pass through.

    rgb is an (H, W, 3) or (H, W, 1) picture; the result is a new
    (H, W, 3) array.  Each masked channel value v becomes 0.5 * v +
    0.5 * Y rounded half up, computed exactly in integers as
    (v + Y + 1) >> 1.  Only the mask's bounding box is blended.
    """
    image = _as_8bit(rgb, 3)
    sel = np.asarray(mask)
    if sel.shape != image.shape[:2]:
        raise InputError(
            f"mask extents {list(sel.shape)} do not match image {list(image.shape[:2])}"
        )
    if sel.dtype != bool:
        raise InputError(f"expected a boolean mask, got dtype {sel.dtype}")
    out = _rgb_copy(image)
    box = _box(sel)
    if box is not None:
        region = out[box]
        blend = region.astype(np.uint16)
        blend += np.asarray(YELLOW, dtype=np.uint16) + 1
        blend >>= 1
        np.copyto(region, blend, casting="unsafe", where=sel[box][:, :, None])
    return out


def segment(rgb, pixel_spacing_mm: float | None = None,
            overlay: bool = True) -> SegmentationResult:
    """Full chain on an RGB or gray picture; highlights the selected region
    only.  With overlay False no overlay is built and highlighted is None."""
    image = _as_8bit(rgb, 3)
    gray = to_grayscale(image)
    level = otsu_threshold(gray)
    mask = threshold_mask(gray, level)
    labels, areas = connected_components(mask)
    result = estimate_size((labels, areas), pixel_spacing_mm)
    if not overlay:
        return result
    if result.found:
        r0, c0, r1, c1 = result.bbox
        box = np.s_[r0:r1 + 1, c0:c1 + 1]
        region = np.zeros(mask.shape, dtype=bool)
        region[box] = labels[box] == _largest_label(areas)  # the one estimate_size took
        overlay = highlight_yellow(image, region)
    else:
        overlay = _rgb_copy(image)
    return replace(result, highlighted=overlay)
