"""Image ingestion and dataset plumbing.

PNM (P2/P3/P5/P6) decoding and encoding, bilinear resizing to the
64 px model resolution, normalization, and batching.  Train and test
sets come as separate manifests.

A decoded image stays the bytes its file stores, with the header's
maxval: (H, W, 3) uint8 for P3/P6 and (H, W, 1) for gray P2/P5, which
are never spread over three channels at full resolution.  Only
resize_bilinear turns values into floats, and only for the rows it
samples, so no full-resolution float image is ever built; it repeats a
gray result to the model's three channels at 64 px.  That result and
sample images are kept in [0, 1] so raw pixels stay inspectable; they
are normalized where they meet the model: by make_batches for training
and evaluation, and by PredictionService.run for requests.
"""

import csv
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    EmptyInputError,
    InputError,
    LabelError,
    PnmError,
)
from .model import IMAGE_SIZE

# every channel: (value - IMAGE_MEAN) / IMAGE_STD maps [0, 1] to [-1, 1]
IMAGE_MEAN = 0.5
IMAGE_STD = 0.5

TASK_DETECT = "detect"
TASK_CLASSIFY = "classify"

# label ids are positions in these tuples; "Yes" (tumor) is the
# positive detection class
DETECT_CLASSES = ("No", "Yes")
CLASSIFY_CLASSES = ("Meningioma Tumor", "Glioma Tumor", "Pituitary Tumor")


def classes_for_task(task: str):
    if task == TASK_DETECT:
        return DETECT_CLASSES
    if task == TASK_CLASSIFY:
        return CLASSIFY_CLASSES
    raise InputError(f"unknown task {task!r}")


def label_for(task: str, class_name: str) -> int:
    names = classes_for_task(task)
    if class_name not in names:
        raise LabelError(f"class {class_name!r} not valid for task {task!r}")
    return names.index(class_name)


# ---------------------------------------------------------------------------
# domain types


@dataclass
class Sample:
    """One image with its label, pixels in [0, 1]; make_batches normalizes."""

    image: np.ndarray
    label: int
    source_path: str
    task: str

    def __post_init__(self):
        self.image = np.asarray(self.image, dtype=np.float64)
        if self.image.ndim != 3 or self.image.shape[0] != 3:
            raise InputError(f"sample image must be 3xHxW, got {list(self.image.shape)}")
        if self.image.size and (self.image.min() < 0.0 or self.image.max() > 1.0):
            raise InputError("sample pixels must lie in [0, 1]")
        n = len(classes_for_task(self.task))
        if not 0 <= self.label < n:
            raise LabelError(f"label {self.label} out of range for task {self.task!r}")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    task: str
    class_name: str


@dataclass
class DatasetManifest:
    """Listing of (path, task, class name) rows plus their location.

    Paths are stored as written and resolved relative to the manifest's
    own directory.
    """

    entries: list
    base_dir: str = "."

    def __post_init__(self):
        for e in self.entries:
            label_for(e.task, e.class_name)  # validates both fields

    def resolve(self, entry: ManifestEntry) -> str:
        return os.path.join(self.base_dir, entry.path)


def load_manifest(path: str) -> DatasetManifest:
    """Read a `path,task,class` CSV (UTF-8, LF endings)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise InputError(f"manifest {path} is not UTF-8 text") from exc
    except csv.Error as exc:  # e.g. a field past csv's size limit
        raise InputError(f"manifest {path} line {reader.line_num}: {exc}") from exc
    if rows[:1] != [["path", "task", "class"]]:
        raise InputError(f"manifest {path}: expected header path,task,class")
    entries = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise InputError(f"manifest {path} line {line_no}: expected 3 fields")
        if "\0" in row[0]:
            raise InputError(f"manifest {path} line {line_no}: path contains a NUL byte")
        try:
            label_for(row[1], row[2])
        except (InputError, LabelError) as exc:
            raise InputError(f"manifest {path} line {line_no}: {exc}") from exc
        entries.append(ManifestEntry(row[0], row[1], row[2]))
    return DatasetManifest(entries, base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# PNM decoding / encoding

_WS = frozenset(b" \t\r\n\x0b\x0c")
_WS_TABLE = np.isin(np.arange(256), list(_WS))
_MAX_FIELD_DIGITS = len(str(sys.maxsize))


# A header token opens the rest of the current line, or a later line,
# after only blanks and is no '#': the lines skipped are blank or comments.
# Lazy single-byte repeats keep memory constant, where a repeated group
# such as (?:\s|#[^\n]*)* stacks backtracking state for every comment.
_FIELD = re.compile(rb"(?s)(?:.*?\n)??[ \t\r\v\f]*([^\s#]\S*)")


def _header_field(blob: bytes, pos: int, what: str):
    """(start, end) of the first header token at or after blob[pos]."""
    match = _FIELD.match(blob, pos)
    if match is None:
        raise PnmError(f"missing {what}", offset=len(blob))
    return match.span(1)


def _header_integer(blob: bytes, pos: int, what: str):
    """(start, end, value) of the decimal header token at or after blob[pos]."""
    start, end = _header_field(blob, pos, what)
    token = blob[start:end]
    if not token.isdigit():
        raise PnmError(f"{what} is not a decimal number: {token[:8]!r}", offset=start)
    digits = token.lstrip(b"0") or b"0"
    # no accepted width, height or maxval exceeds sys.maxsize, the largest
    # bytes length; int() would refuse a string of over 4300 digits
    if len(digits) > _MAX_FIELD_DIGITS:
        raise PnmError(f"{what} of {len(digits)} digits is too large", offset=start)
    return start, end, int(digits)


def _ascii_values(blob: bytes, at: int, needed: int, maxval: int) -> np.ndarray:
    """The first `needed` decimal values of the P2/P3 body at blob[at:].

    Decodes in bulk with the rules of a token-by-token scan: tokens are
    split by whitespace, a '#' that opens a token starts a comment that
    runs to the end of its line, and tokens past `needed` are ignored.
    The first bad token, in body order, raises its PnmError.
    """
    body = np.frombuffer(blob, dtype=np.uint8)[at:]
    sep = _WS_TABLE[body]
    hashes = np.flatnonzero(body == ord("#"))
    if len(hashes):
        # blob[at] is the whitespace that ends maxval, so no '#' is first;
        # a '#' inside a comment ends at the same newline as the comment
        hashes = hashes[sep[hashes - 1]]
        newlines = np.flatnonzero(body == ord("\n"))
        ends = np.append(newlines, len(body))[np.searchsorted(newlines, hashes)]
        outer = np.diff(ends, prepend=-1) != 0
        step = np.zeros(len(body) + 1, dtype=np.int8)
        step[hashes[outer]] = 1
        step[ends[outer]] = -1
        sep |= np.cumsum(step[:-1], dtype=np.int8) > 0

    # tokens [start, end) are the runs of non-separator bytes
    change = np.flatnonzero(np.diff(np.concatenate(([False], ~sep, [False]))))
    start, end = change[0:2 * needed:2], change[1:2 * needed:2]
    if not len(start):
        raise PnmError("missing pixel value", offset=len(blob))
    digit = body[: end[-1]].astype(np.int16) - ord("0")
    in_token = ~sep[: end[-1]]
    bad = np.zeros(len(start), dtype=bool)
    not_digit = np.flatnonzero(((digit < 0) | (digit > 9)) & in_token)
    bad[np.searchsorted(start, not_digit, side="right") - 1] = True

    # maxval <= 255 has three digits: a token exceeds it when a nonzero
    # digit stands left of its last three, else its last three decide
    length = end - start
    value = (digit[end - 1] + np.where(length > 1, digit[end - 2], 0) * 10
             + np.where(length > 2, digit[end - 3], 0) * 100)
    over = value > maxval
    long = np.flatnonzero(length > 3)
    if len(long):
        nonzero = np.append(np.flatnonzero((digit != 0) & in_token), end[-1])
        first = nonzero[np.searchsorted(nonzero, start[long])]
        over[long] |= first < end[long] - 3

    if (bad | over).any():
        i = int(np.argmax(bad | over))
        tok = bytes(body[start[i] : end[i]])
        if bad[i]:
            raise PnmError(f"pixel value is not a decimal number: {tok[:8]!r}",
                           offset=at + int(start[i]))
        try:
            shown = int(tok)
        except ValueError:  # more digits than int() converts
            shown = f"of {len(tok.lstrip(b'0'))} digits"
        raise PnmError(f"pixel value {shown} exceeds maxval {maxval}", offset=at + int(start[i]))
    if len(start) < needed:
        raise PnmError("missing pixel value", offset=len(blob))
    return value.astype(np.uint8)


def pnm_header(blob: bytes):
    """(magic, width, height, maxval, end) of a P2/P3/P5/P6 image.

    end is the offset just past the maxval field.  Besides the header,
    this checks only that the bytes after it can hold the declared
    values; no pixel value is read, so a caller can refuse an image on
    its extents before load_pnm decodes the body.  A malformed or
    truncated image raises PnmError with the offending byte offset.
    """
    try:
        at, pos = _header_field(blob, 0, "magic number")
    except PnmError:
        raise PnmError("empty input", offset=0)
    magic = blob[at:pos]
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise PnmError(f"unsupported magic {magic[:2]!r}", offset=at)
    _, pos, width = _header_integer(blob, pos, "width")
    _, pos, height = _header_integer(blob, pos, "height")
    if width < 1 or height < 1:
        raise PnmError(f"degenerate image extents {width}x{height}", offset=at)
    max_at, pos, maxval = _header_integer(blob, pos, "maxval")
    if maxval < 1 or maxval > 255:
        raise PnmError(f"maxval {maxval} outside [1, 255]", offset=max_at)

    needed = width * height * (3 if magic in (b"P3", b"P6") else 1)
    if magic in (b"P5", b"P6"):
        if pos >= len(blob) or blob[pos] not in _WS:
            raise PnmError("missing separator after maxval", offset=pos)
        left = len(blob) - (pos + 1)
        if left < needed:
            raise PnmError(f"truncated pixel data: {left} of {needed} bytes", offset=len(blob))
    else:
        # every ASCII value takes a separator and a digit; checking that
        # before allocating keeps a huge declared extent from reserving
        # memory the body cannot fill
        left = len(blob) - pos
        if left < 2 * needed:
            raise PnmError(
                f"truncated pixel data: {left} bytes cannot hold {needed} values",
                offset=len(blob),
            )
    return magic, width, height, maxval, pos


def load_pnm(data: bytes):
    """Decode P2/P3/P5/P6 bytes to (pixels, maxval).

    pixels is an (H, W, C) uint8 array of the values as stored, each at
    most maxval: C is 3 for P3/P6 and 1 for gray P2/P5.  Only maxval
    <= 255 is supported; malformed input raises PnmError with the
    offending byte offset.
    """
    blob = bytes(data)
    magic, width, height, maxval, pos = pnm_header(blob)
    channels = 3 if magic in (b"P3", b"P6") else 1
    needed = width * height * channels
    if magic in (b"P5", b"P6"):
        start = pos + 1  # past the one separator byte
        values = np.frombuffer(blob, dtype=np.uint8, count=needed, offset=start)
        if maxval < 255 and np.any(values > maxval):
            i = int(np.argmax(values > maxval))
            raise PnmError(f"pixel value {values[i]} exceeds maxval {maxval}", offset=start + i)
    else:
        values = _ascii_values(blob, pos, needed, maxval)

    return values.reshape(height, width, channels), maxval


def write_pnm(image: np.ndarray, fmt: str = "P6") -> bytes:
    """Encode a 3xHxW [0, 1] image; gray formats need equal channels."""
    if fmt not in ("P2", "P3", "P5", "P6"):
        raise InputError(f"unsupported PNM format {fmt!r}")
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] != 3:
        raise InputError(f"expected 3xHxW image, got {list(image.shape)}")
    q = np.floor(np.clip(image, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    _, h, w = q.shape
    header = f"{fmt}\n{w} {h}\n255\n".encode("ascii")
    if fmt in ("P2", "P5"):
        if not (np.array_equal(q[0], q[1]) and np.array_equal(q[1], q[2])):
            raise InputError("gray output needs identical channels")
        raster = q[0]
    else:
        raster = q.transpose(1, 2, 0).reshape(h, 3 * w)  # RGB triples per row
    if fmt in ("P5", "P6"):
        return header + raster.tobytes()
    body = "\n".join(" ".join(str(v) for v in row) for row in raster)
    return header + body.encode("ascii") + b"\n"


# ---------------------------------------------------------------------------
# preprocessing


def _axis_positions(src: int, dst: int):
    # align-corners-false sampling: dst pixel centers mapped into the
    # source grid, edge values clamped
    pos = (np.arange(dst) + 0.5) * (src / dst) - 0.5
    lo = np.floor(pos).astype(np.int64)
    t = pos - lo
    return np.clip(lo, 0, src - 1), np.clip(lo + 1, 0, src - 1), t


def resize_bilinear(pixels: np.ndarray, maxval: int, target_size: int) -> np.ndarray:
    """Separable bilinear resize of (H, W, C) stored values at maxval to
    a (3, side, side) float image in [0, 1]; a gray (C = 1) result is
    repeated over the three channels, the bits of resizing three equal
    ones."""
    h, w, channels = pixels.shape
    if h < 1 or w < 1 or target_size < 1:
        raise EmptyInputError("resize requires positive extents")
    scale = float(maxval)
    if h == w == target_size:
        out = pixels / scale
    else:
        # only the sampled rows become floats, each value as v / maxval:
        # the bits of resizing the whole image converted to [0, 1]
        lo0, lo1, t = _axis_positions(h, target_size)
        rows = (pixels[lo0] / scale * (1.0 - t)[:, None, None]
                + pixels[lo1] / scale * t[:, None, None])
        lo0, lo1, t = _axis_positions(w, target_size)
        out = rows[:, lo0] * (1.0 - t)[None, :, None] + rows[:, lo1] * t[None, :, None]
    np.clip(out, 0.0, 1.0, out=out)
    out = out.transpose(2, 0, 1)
    return np.repeat(out, 3, axis=0) if channels == 1 else np.ascontiguousarray(out)


def normalize(image: np.ndarray) -> np.ndarray:
    """(value - IMAGE_MEAN) / IMAGE_STD, for one image or a batch."""
    return (np.asarray(image, dtype=np.float64) - IMAGE_MEAN) / IMAGE_STD


def make_batches(samples, batch_size: int, order):
    """Yield (normalized images, labels) for samples taken in order,
    batch_size at a time; the last batch may be shorter.

    order is a sequence of sample indices: a permutation for a training
    epoch, range(len(samples)) for evaluation.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    for at in range(0, len(order), batch_size):
        chunk = [samples[i] for i in order[at : at + batch_size]]
        yield normalize(np.stack([s.image for s in chunk])), [s.label for s in chunk]


# ---------------------------------------------------------------------------
# dataset assembly


def load_sample(manifest: DatasetManifest, entry: ManifestEntry) -> Sample:
    path = manifest.resolve(entry)
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        pixels, maxval = load_pnm(raw)
    except PnmError as exc:
        raise exc.in_file(path) from exc
    image = resize_bilinear(pixels, maxval, IMAGE_SIZE)
    return Sample(image, label_for(entry.task, entry.class_name), entry.path, entry.task)
