"""Shifted-window transformer classifier.

The network is built entirely from the ops in :mod:`swinscan.tensor`:
patch embedding, stages of window attention blocks with alternating
cyclic shift, patch merging between stages, and a linear head.  Two
class counts share one code path: 2 (tumor present yes/no) and
3 (meningioma / glioma / pituitary).

Weight files use the "SWNW" container described next to
:func:`save_weights`; round trips are bit exact.
"""

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    InputError,
    WeightFormatError,
)

MASK_NEG = -1e9  # finite stand-in for -inf so softmax never sees a NaN
IN_CHANNELS = 3  # resize_bilinear repeats a gray image to RGB at 64 px


# The one architecture, desk-scale Swin: 64 px input, 4 px patches, two
# stages of two blocks, token grids 16x16 then 8x8.  Weight files carry
# these values in their config block and are refused when they differ.
IMAGE_SIZE = 64  # model input side, px; load_sample resizes to it
PATCH_SIZE = 4
EMBED_DIM = 32
DEPTHS = (2, 2)
NUM_HEADS = (2, 4)
WINDOW_SIZE = 4
MLP_RATIO = 4
GRID_SIZE = IMAGE_SIZE // PATCH_SIZE
SHIFT_SIZE = WINDOW_SIZE // 2  # cyclic shift of the odd blocks: half a window, as in Swin


@dataclass(frozen=True)
class SwinConfig:
    """The head size, the one setting of the architecture: 2 or 3 classes."""

    num_classes: int

    def __post_init__(self):
        if self.num_classes not in (2, 3):
            raise ConfigurationError(f"num_classes must be 2 or 3, got {self.num_classes}")


def default_config(num_classes: int) -> SwinConfig:
    """The fixed desk-scale architecture for a given head size."""
    return SwinConfig(num_classes=num_classes)


# ---------------------------------------------------------------------------
# parameters


def _block_shapes(dim: int, heads: int) -> dict:
    """Parameter name -> shape for one block, in ModelWeights.init draw order."""
    hidden = MLP_RATIO * dim
    return {
        "norm1.gamma": (dim,),
        "norm1.beta": (dim,),
        "attn.qkv.weight": (dim, 3 * dim),
        "attn.qkv.bias": (3 * dim,),
        "attn.proj.weight": (dim, dim),
        "attn.proj.bias": (dim,),
        "attn.bias_table": ((2 * WINDOW_SIZE - 1) ** 2, heads),
        "norm2.gamma": (dim,),
        "norm2.beta": (dim,),
        "mlp.fc1.weight": (dim, hidden),
        "mlp.fc1.bias": (hidden,),
        "mlp.fc2.weight": (hidden, dim),
        "mlp.fc2.bias": (dim,),
    }


def expected_shapes(config: SwinConfig) -> dict:
    """Canonical parameter path -> shape map for a head size."""
    shapes = {
        "patch_embed.proj.weight": (IN_CHANNELS * PATCH_SIZE ** 2, EMBED_DIM),
        "patch_embed.proj.bias": (EMBED_DIM,),
    }
    for s, depth in enumerate(DEPTHS):
        dim = EMBED_DIM * 2 ** s
        block = _block_shapes(dim, NUM_HEADS[s])
        for b in range(depth):
            for name, shape in block.items():
                shapes[f"stage{s}.block{b}.{name}"] = shape
        if s + 1 < len(DEPTHS):
            shapes[f"merge{s}.norm.gamma"] = (4 * dim,)
            shapes[f"merge{s}.norm.beta"] = (4 * dim,)
            shapes[f"merge{s}.reduce.weight"] = (4 * dim, 2 * dim)
    final = EMBED_DIM * 2 ** (len(DEPTHS) - 1)
    shapes["head.norm.gamma"] = (final,)
    shapes["head.norm.beta"] = (final,)
    shapes["head.fc.weight"] = (final, config.num_classes)
    shapes["head.fc.bias"] = (config.num_classes,)
    return shapes


def _trunc_normal(rng, shape, std=0.02):
    # resample anything beyond two standard deviations
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


class ModelWeights:
    """Named map from parameter path to Tensor.

    Immutable as a collection once constructed: training updates tensor
    contents in place, but the path set never changes.  Concurrent
    forward passes may share an instance read-only.
    """

    def __init__(self, config: SwinConfig, params: dict):
        expected = expected_shapes(config)
        missing = sorted(set(expected) - set(params))
        extra = sorted(set(params) - set(expected))
        if missing or extra:
            raise ConfigurationError(
                f"weight set does not match config: missing {missing[:3]}, unexpected {extra[:3]}"
            )
        for path, t in params.items():
            if t.shape != expected[path]:
                raise ConfigurationError(
                    f"parameter {path} has shape {list(t.shape)}, expected {list(expected[path])}"
                )
        self.config = config
        self._params = {path: params[path] for path in sorted(params)}
        self._subsets = {}

    @classmethod
    def init(cls, config: SwinConfig, seed: int) -> "ModelWeights":
        """Fresh weights: truncated normal (std 0.02) matrices and
        tables, ones for norm scales, zeros for every bias."""
        rng = np.random.default_rng(seed)
        params = {}
        for path, shape in expected_shapes(config).items():
            if path.endswith(".gamma"):
                data = np.ones(shape)
            elif path.endswith(".beta") or path.endswith(".bias") or path.endswith("bias_table"):
                data = np.zeros(shape)
            else:
                data = _trunc_normal(rng, shape)
            params[path] = T.Tensor(data, requires_grad=True)
        return cls(config, params)

    def __getitem__(self, path: str) -> T.Tensor:
        return self._params[path]

    def paths(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self):
        return list(self._params.values())

    def subset(self, prefix: str) -> dict:
        """All parameters under a prefix, keyed by the remainder: one
        shared dict per prefix, not to be modified."""
        if prefix not in self._subsets:
            n = len(prefix)
            self._subsets[prefix] = {path[n:]: t for path, t in self._params.items()
                                     if path.startswith(prefix)}
        return self._subsets[prefix]


# ---------------------------------------------------------------------------
# window mechanics


def patch_embed(images: np.ndarray, weights: ModelWeights) -> T.Tensor:
    """Flatten non-overlapping patches and project them linearly.

    (B, C, H, W) images -> (B, num_patches, embed_dim): one token per
    patch, row-major over the patch grid.
    """
    b, c, h, w = images.shape
    if c != IN_CHANNELS:
        raise InputError(f"expected {IN_CHANNELS} channels, got {c}")
    if (h, w) != (IMAGE_SIZE, IMAGE_SIZE):
        raise InputError(f"expected {IMAGE_SIZE}x{IMAGE_SIZE} input, got {h}x{w}")
    p = PATCH_SIZE
    g = GRID_SIZE
    # each patch flattened channel-major, patches row-major over the grid
    x = images.reshape(b, c, g, p, g, p)
    x = x.transpose(0, 2, 4, 1, 3, 5).reshape(b, g * g, c * p * p)
    return T.linear(T.Tensor(x), weights["patch_embed.proj.weight"],
                    weights["patch_embed.proj.bias"])


def _permutation(order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A token order and its inverse, checked once and made read-only."""
    order = order.reshape(-1)
    inverse = np.argsort(order)
    if not np.array_equal(order[inverse], np.arange(order.size)):
        raise ContractError(f"token order of {order.size} entries is not a permutation")
    order.flags.writeable = inverse.flags.writeable = False
    return order, inverse


@functools.cache
def _window_order(h: int, w: int, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather order that rolls an h x w grid by -shift along both axes and
    splits it into windows, and its inverse: join the windows, roll back."""
    ws = WINDOW_SIZE
    grid = np.roll(np.arange(h * w).reshape(h, w), (-shift, -shift), axis=(0, 1))
    return _permutation(grid.reshape(h // ws, ws, w // ws, ws).transpose(0, 2, 1, 3))


def window_partition(tokens: T.Tensor, shifted: bool = False) -> T.Tensor:
    """Split a (B, H, W, C) token grid into WINDOW_SIZE windows, one node.

    The result stacks windows along the first axis, shape
    (B * num_windows, WINDOW_SIZE**2, C): images in batch order, windows
    in row-major grid order, tokens row-major within each window.
    ``shifted`` rolls the grid by -SHIFT_SIZE on both axes first.
    """
    b, h, w, c = tokens.shape
    ws = WINDOW_SIZE
    if h % ws != 0 or w % ws != 0:
        raise ConfigurationError(f"grid {h}x{w} not divisible by window size {ws}")
    order = _window_order(h, w, SHIFT_SIZE if shifted else 0)
    return T.gather_rows(tokens, *order, (b * h * w // ws ** 2, ws ** 2, c))


def window_reverse(windows: T.Tensor, b: int, h: int, w: int, shifted: bool = False) -> T.Tensor:
    """Exact inverse of :func:`window_partition` with the same ``shifted``:
    windows -> (B, H, W, C), rolled back by +SHIFT_SIZE when shifted."""
    n_win, n_tok, c = windows.shape
    ws = WINDOW_SIZE
    if n_win * n_tok != b * h * w or n_tok != ws ** 2 or h % ws or w % ws:
        raise DimensionError(
            f"{n_win} windows of {n_tok} tokens cannot tile {b} grids of {h}x{w}"
        )
    order, inverse = _window_order(h, w, SHIFT_SIZE if shifted else 0)
    return T.gather_rows(windows, inverse, order, (b, h, w, c))


@functools.cache
def build_shift_mask(h: int, w: int) -> np.ndarray:
    """Per-window additive attention mask for a grid shifted by SHIFT_SIZE.

    Tokens that originated in different regions before the cyclic shift
    must not attend to each other; those pairs get MASK_NEG, all others
    zero.  Shape (num_windows, WINDOW_SIZE**2, WINDOW_SIZE**2); built once
    per grid, read-only.
    """
    ws = WINDOW_SIZE
    # region ids in post-shift coordinates: three row bands and three
    # column bands, cut at -WINDOW_SIZE and -SHIFT_SIZE
    ids = np.zeros((h, w))
    cut = (slice(0, -ws), slice(-ws, -SHIFT_SIZE), slice(-SHIFT_SIZE, None))
    region = 0
    for rows in cut:
        for cols in cut:
            ids[rows, cols] = region
            region += 1
    win_ids = ids.reshape(-1)[_window_order(h, w, 0)[0]].reshape(-1, ws * ws)
    diff = win_ids[:, :, None] - win_ids[:, None, :]
    mask = np.where(diff == 0, 0.0, MASK_NEG)
    mask.flags.writeable = False
    return mask


def relative_bias_index() -> np.ndarray:
    """Map every token pair of a window to its slot in the
    (2 * WINDOW_SIZE - 1)**2 bias table, shape (WINDOW_SIZE**2,) * 2.

    Pairs with the same (row delta, col delta) share a slot.
    """
    ws = WINDOW_SIZE
    coords = np.stack(np.meshgrid(np.arange(ws), np.arange(ws), indexing="ij"), axis=-1)
    coords = coords.reshape(-1, 2)
    delta = coords[:, None, :] - coords[None, :, :] + ws - 1
    return delta[:, :, 0] * (2 * ws - 1) + delta[:, :, 1]


_BIAS_INDEX = relative_bias_index().reshape(-1)  # flat, for take_rows


def window_attention(windows: T.Tensor, weights: dict, mask: np.ndarray = None) -> T.Tensor:
    """Multi-head self-attention inside each window of WINDOW_SIZE**2 tokens.

    ``weights`` maps "qkv.weight", "qkv.bias", "proj.weight" and
    "proj.bias" to the projections, and "bias_table" to the
    ((2 * WINDOW_SIZE - 1)**2, heads) relative position bias, whose
    column count is the head count.  ``mask`` is an additive matrix per
    window position of an image (entries 0 or MASK_NEG), as
    :func:`build_shift_mask` returns it, applied before the softmax.

    Two tape nodes: one ``T.attention`` for the qkv projection, scores,
    bias, mask, softmax and weighted sum, and the output ``T.linear``.
    """
    c = windows.shape[-1]
    bias_table = weights["bias_table"]
    num_heads = bias_table.shape[1]
    if c % num_heads != 0:
        raise ConfigurationError(f"channels {c} not divisible by {num_heads} heads")
    out = T.attention(windows, weights["qkv.weight"], weights["qkv.bias"], bias_table,
                      _BIAS_INDEX, mask)
    return T.linear(out, weights["proj.weight"], weights["proj.bias"])


@functools.cache
def _merge_order(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    # slot index = 2 * column parity + row parity: TL, BL, TR, BR
    grid = np.arange(h * w).reshape(h // 2, 2, w // 2, 2)
    return _permutation(grid.transpose(0, 2, 3, 1))


def merge_neighborhoods(tokens: T.Tensor) -> T.Tensor:
    """Concatenate each 2x2 neighborhood into one 4C token.

    Channel slot order is fixed: top-left, bottom-left, top-right,
    bottom-right.  Shape (B, H, W, C) -> (B, H/2, W/2, 4C), one node.
    """
    b, h, w, c = tokens.shape
    if h % 2 != 0 or w % 2 != 0:
        raise ConfigurationError(f"grid {h}x{w} has an odd extent, cannot merge 2x2")
    return T.gather_rows(tokens, *_merge_order(h, w), (b, h // 2, w // 2, 4 * c))


def patch_merging(tokens: T.Tensor, weights: dict) -> T.Tensor:
    """Downsample (B, H, W, C) -> (B, H/2, W/2, 2C): 2x2 concatenation,
    norm, then linear 4C -> 2C."""
    x = merge_neighborhoods(tokens)
    x = T.layer_norm(x, weights["norm.gamma"], weights["norm.beta"])
    return T.matmul(x, weights["reduce.weight"])


# ---------------------------------------------------------------------------
# full forward pass


def _block(x, weights, prefix, shifted):
    b, h, w, _ = x.shape
    p = weights.subset(prefix)
    shortcut = x
    x = T.layer_norm(x, p["norm1.gamma"], p["norm1.beta"])
    windows = window_attention(window_partition(x, shifted), weights.subset(prefix + "attn."),
                               mask=build_shift_mask(h, w) if shifted else None)
    x = T.add(shortcut, window_reverse(windows, b, h, w, shifted))

    y = T.layer_norm(x, p["norm2.gamma"], p["norm2.beta"])
    y = T.mlp(y, p["mlp.fc1.weight"], p["mlp.fc1.bias"], p["mlp.fc2.weight"], p["mlp.fc2.bias"])
    return T.add(x, y)


def forward_batch(images: np.ndarray, weights: ModelWeights) -> T.Tensor:
    """Logits for a batch of normalized images, shape (B, num_classes)."""
    images = np.asarray(images, dtype=np.float64)
    b = images.shape[0]
    tokens = patch_embed(images, weights)
    x = T.reshape(tokens, (b, GRID_SIZE, GRID_SIZE, EMBED_DIM))

    for s, depth in enumerate(DEPTHS):
        for blk in range(depth):
            x = _block(x, weights, f"stage{s}.block{blk}.", shifted=blk % 2 == 1)
        if s + 1 < len(DEPTHS):
            x = patch_merging(x, weights.subset(f"merge{s}."))

    _, h, w, c = x.shape
    x = T.reshape(x, (b, h * w, c))
    x = T.layer_norm(x, weights["head.norm.gamma"], weights["head.norm.beta"])
    pooled = T.reduce_mean(x, axis=1)
    return T.linear(pooled, weights["head.fc.weight"], weights["head.fc.bias"])


def forward_classify(image: np.ndarray, weights: ModelWeights):
    """Logits and softmax probabilities for a single normalized image."""
    logits = forward_batch(np.asarray(image, dtype=np.float64)[None], weights)
    logits = T.reshape(logits, (weights.config.num_classes,))
    probs = T.softmax_lastdim(logits).data.copy()
    return logits, probs


# ---------------------------------------------------------------------------
# weight files

_MAGIC = b"SWNW"
_VERSION = 1


def _config_words(config: SwinConfig):
    return [IMAGE_SIZE, IN_CHANNELS, PATCH_SIZE, EMBED_DIM, len(DEPTHS), *DEPTHS, *NUM_HEADS,
            WINDOW_SIZE, SHIFT_SIZE, MLP_RATIO, config.num_classes]


def save_weights(path: str, weights: ModelWeights) -> None:
    """Write a SWNW weight file.

    Layout, all integers little-endian uint32: magic "SWNW", format
    version, the config block (IMAGE_SIZE, IN_CHANNELS, PATCH_SIZE,
    EMBED_DIM, stage count, DEPTHS, NUM_HEADS, WINDOW_SIZE, SHIFT_SIZE,
    MLP_RATIO, num_classes), parameter
    count, then per parameter: path length, path bytes (utf-8), rank,
    extents, and the raw float64 little-endian values.  Parameters are
    written in sorted path order.
    """
    config = weights.config
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<I", _VERSION)
    words = _config_words(config)
    out += struct.pack(f"<{len(words)}I", *words)
    items = sorted(weights.items())
    out += struct.pack("<I", len(items))
    for name, tensor in items:
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded))
        out += encoded
        out += struct.pack("<I", tensor.ndim)
        out += struct.pack(f"<{tensor.ndim}I", *tensor.shape)
        out += np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise WeightFormatError(
                f"truncated weight file: needed {n} bytes", offset=self.pos
            )
        chunk = self.blob[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_weights(path: str) -> ModelWeights:
    """Read a SWNW weight file; inverse of :func:`save_weights`.

    A config block that differs from the one save_weights writes, for
    either head size, raises WeightFormatError at offset 8. Every
    WeightFormatError names the path.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse_weights(blob)
    except WeightFormatError as exc:
        raise exc.in_file(path) from exc


def _parse_weights(blob: bytes) -> ModelWeights:
    r = _Reader(blob)
    if r.take(4) != _MAGIC:
        raise WeightFormatError("bad magic, not a SWNW weight file", offset=0)
    version = r.u32()
    if version != _VERSION:
        raise WeightFormatError(f"unsupported format version {version}", offset=4)
    # the block's last word is the head size; any other word is fixed
    words = [r.u32() for _ in _config_words(SwinConfig(2))]
    config = SwinConfig(3 if words[-1] == 3 else 2)
    if words != _config_words(config):
        raise WeightFormatError(
            f"config block {words} is not this architecture's {_config_words(config)}",
            offset=8,
        )
    count = r.u32()
    params = {}
    for _ in range(count):
        name_at = r.pos
        try:
            name = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WeightFormatError("parameter name is not UTF-8", offset=name_at) from exc
        if name in params:
            raise WeightFormatError(f"duplicate parameter {name}", offset=name_at)
        rank = r.u32()
        shape = tuple(r.u32() for _ in range(rank))
        raw = r.take(8 * math.prod(shape))  # exact: no int64 wraparound
        try:
            data = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        except ValueError as exc:  # no values, but extents past numpy's size limit
            raise WeightFormatError(f"parameter {name} extents {list(shape)} too large",
                                    offset=name_at) from exc
        if not np.isfinite(data).all():
            raise WeightFormatError(f"parameter {name} has non-finite values", offset=name_at)
        params[name] = T.Tensor(data, requires_grad=True)
    if r.pos != len(blob):
        raise WeightFormatError("trailing bytes after last parameter", offset=r.pos)
    return ModelWeights(config, params)
