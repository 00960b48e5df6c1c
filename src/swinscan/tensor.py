"""Dense float64 tensors with tape-based reverse-mode differentiation.

Design notes:

* Values are numpy float64 arrays.  Each node checks its own output, and
  ``backward`` each gradient a node returns, for NaN/Inf and raises
  ``NonFiniteError`` naming the op instead of propagating.  Values inside
  a fused node are not checked; a NaN there reaches its output.
* Differentiation is eager: while a ``Tape`` is active, each operation
  whose inputs touch the graph appends one node holding the saved values
  its backward rule needs.  ``backward`` pops the nodes in reverse, so
  it consumes the tape once and frees each node's saved arrays as soon
  as its rule has read them.
* A node holds no ``Tensor``, only keys: its output is known by its
  position on the tape (the key ``-1 - position``) and a watched leaf by
  its ``id`` (positive), which stays unique because the tape keeps the
  leaf.  So an intermediate that no rule saved is freed as soon as the
  model drops it, while the forward pass is still running.
* Gradients are plain numpy arrays stored on ``Tensor.grad`` and are only
  written for watched leaves (tensors created with ``requires_grad=True``
  or registered through ``Tape.watch``).  A watched leaf that does not
  reach the loss receives an exact zero gradient.
* GELU uses the tanh approximation, so no error-function dependency is
  needed and the derivative stays in closed form.  Its cube is the product
  ``(x * x) * x``: numpy's ``x ** 3`` goes through ``pow``, about fifty
  times slower than two multiplications and within one ULP of them.
* ``gelu`` and ``layer_norm`` (forward and backward) compute in fresh
  buffers written in place.  Each keeps the operation order of the
  plain out-of-place expression, swapping operands only where IEEE
  addition and multiplication commute, so every rounding is the same;
  ``tests/test_tensor.py`` holds those expressions and compares bitwise.
  ``gelu`` runs that sequence on _GELU_BLOCK elements at a time, so its
  operands stay in cache; each element sees the same operations.
* Per-node cost, not arithmetic, dominates a training step, so the model
  uses fused nodes: ``linear`` for ``add(matmul(x, w), b)``, and
  ``attention`` for the window-attention chain from the packed q/k/v to
  the merged heads.  Each evaluates the chain's expressions on the same
  memory layouts and gives the same bits, values and gradients; the
  unfused ops (``scale``, ``take_rows``, ``slice_axis``, ...) stay as the
  oracle the tests compare against.  ``attention`` adds its mask, one
  matrix per window position of an image, through a view of its scores.
* Every token shuffle of the model is one ``gather_rows`` node: a fixed
  row permutation by ``np.take``, whose C-contiguous result is the layout
  the reshape/permute/roll chains it replaced produced, so later
  reductions sum in the same order.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractError,
    DimensionError,
    EmptyInputError,
    LabelError,
    NonFiniteError,
)

_SQRT_2_OVER_PI = 0.7978845608028654  # sqrt(2/pi)
_GELU_C = 0.044715
# elements per gelu pass: the six 128 KiB blocks of a backward pass fit in
# a 1 MiB L2, where whole 8 MB training activations do not
_GELU_BLOCK = 16384
LAYER_NORM_EPS = 1e-5  # variance guard in layer_norm


class Tensor:
    """N-dimensional float64 array, optionally carrying a gradient."""

    # origin: (tape serial, node key) of the recorded node that produced
    # the tensor, None for a leaf
    __slots__ = ("data", "requires_grad", "grad", "origin")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor constructed from non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.origin: tuple[int, int] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={list(self.shape)}{flag})"


class TapeNode:
    """One recorded operation: its op, the keys of its inputs (None for an
    input that needs no gradient), its output's key and its backward rule.
    It references no ``Tensor``."""

    __slots__ = ("op", "input_keys", "output_key", "backward_fn")

    def __init__(
        self,
        op: str,
        input_keys: tuple[int | None, ...],
        output_key: int,
        backward_fn: Callable[[np.ndarray], tuple[np.ndarray | None, ...]],
    ):
        self.op = op
        self.input_keys = input_keys
        self.output_key = output_key
        self.backward_fn = backward_fn


_TAPE_SERIALS = itertools.count()


class Tape:
    """Ordered record of operations, usable as a context manager.

    Nodes are appended in execution order, so the list is topologically
    sorted by construction and a single reverse sweep visits every node
    exactly once.  ``backward`` consumes the tape: afterwards it holds no
    node and records none.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.consumed = False
        self._serial = next(_TAPE_SERIALS)
        self._watched: dict[int, Tensor] = {}

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def watch(self, tensor: Tensor) -> None:
        """Register a leaf so backward() always assigns it a gradient."""
        if self.key(tensor) < 0:
            raise ContractError("watch takes a leaf, not a tensor this tape produced")
        self._watched[id(tensor)] = tensor

    def watched(self) -> list[Tensor]:
        return list(self._watched.values())

    def key(self, tensor: Tensor) -> int:
        """The key under which backward keeps the gradient of ``tensor``:
        its node's key if this tape produced it, else its id."""
        origin = tensor.origin
        if origin is not None and origin[0] == self._serial:
            return origin[1]
        return id(tensor)

    def record(
        self,
        op: str,
        inputs: tuple[Tensor, ...],
        output: Tensor,
        backward_fn: Callable[[np.ndarray], tuple[np.ndarray | None, ...]],
    ) -> None:
        if self.consumed:
            raise ContractError(f"cannot record {op} on a tape that backward consumed")
        keys = []
        for t in inputs:
            if not t.requires_grad:
                keys.append(None)
                continue
            key = self.key(t)
            if key > 0:
                self._watched[key] = t
            keys.append(key)
        key = -1 - len(self.nodes)
        output.origin = (self._serial, key)
        self.nodes.append(TapeNode(op, tuple(keys), key, backward_fn))


_TAPE_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _finish(
    op: str,
    inputs: tuple[Tensor, ...],
    out_data: np.ndarray,
    backward_fn: Callable[[np.ndarray], tuple[np.ndarray | None, ...]],
) -> Tensor:
    """Validate the output, wrap it, and record on the active tape."""
    if not np.isfinite(out_data).all():
        raise NonFiniteError(f"{op} produced non-finite values")
    needs_grad = any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = needs_grad
    out.grad = None
    out.origin = None
    tape = active_tape()
    if tape is not None and needs_grad:
        tape.record(op, inputs, out, backward_fn)
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate reverse-mode gradients of ``loss`` over the tape.

    Watched leaves that are not on any path to the loss receive an exact
    zero gradient.  Gradients accumulate into pre-existing ``.grad``
    arrays; call ``zero_grad`` between steps.  Each node is popped as its
    rule runs, so the tape is consumed and a second call raises
    ``ContractError``.
    """
    if loss.ndim != 0:
        raise ContractError(
            f"backward expects a scalar loss, got shape {list(loss.shape)}"
        )
    if tape.consumed:
        raise ContractError("backward has already consumed this tape")
    tape.consumed = True
    grads: dict[int, np.ndarray] = {tape.key(loss): np.ones((), dtype=np.float64)}
    nodes = tape.nodes
    while nodes:
        # rebinding node drops the previous one, and with it the arrays
        # its rule saved
        node = nodes.pop()
        gout = grads.pop(node.output_key, None)
        if gout is None:
            continue
        gins = node.backward_fn(gout)
        for key, g in zip(node.input_keys, gins):
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise NonFiniteError(f"backward of {node.op} produced non-finite values")
            if key is None:
                continue
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
    for key, t in tape._watched.items():
        g = grads.get(key)
        if g is None:
            g = np.zeros_like(t.data)
        t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    ``a`` has rank >= 2.  ``b`` is either rank 2 (shared across any leading
    batch dims of ``a``) or has the same rank and leading dims as ``a``.
    Broadcasting beyond these two forms is deliberately unsupported.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs rank >= 2 operands, got {list(a.shape)} and {list(b.shape)}"
        )
    if b.ndim not in (2, a.ndim) or (b.ndim == a.ndim and a.shape[:-2] != b.shape[:-2]):
        raise DimensionError(
            f"matmul operand ranks incompatible: {list(a.shape)} vs {list(b.shape)}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner extents differ: {list(a.shape)} vs {list(b.shape)}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out_data = a.data @ b.data
    a_data, b_data = a.data, b.data

    def bw(g: np.ndarray):
        ga = g @ np.swapaxes(b_data, -1, -2)
        if b_data.ndim == a_data.ndim:
            gb = np.swapaxes(a_data, -1, -2) @ g
        else:
            k = a_data.shape[-1]
            n = g.shape[-1]
            gb = a_data.reshape(-1, k).T @ g.reshape(-1, n)
        return ga, gb

    return _finish("matmul", (a, b), out_data, bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be a trailing-shape broadcast (e.g. a bias)."""
    if a.shape != b.shape and (
        b.ndim > a.ndim or a.shape[a.ndim - b.ndim:] != b.shape
    ):
        raise DimensionError(
            f"add shapes incompatible: {list(a.shape)} vs {list(b.shape)}"
        )
    out_data = a.data + b.data
    lead = a.ndim - b.ndim

    def bw(g: np.ndarray):
        gb = g.sum(axis=tuple(range(lead))) if lead else g
        return g, gb

    return _finish("add", (a, b), out_data, bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` as one node.

    ``w`` is rank 2, shared across the leading dims of ``x``, and ``b``
    has one entry per column of ``w``.  Forward and backward evaluate the
    expressions of ``add(matmul(x, w), b)``.  An input that needs no
    gradient gets ``None``: image patches cost no ``g @ w.T``.
    """
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(
            f"linear shapes incompatible: {list(x.shape)} @ {list(w.shape)} + {list(b.shape)}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out_data = x.data @ w.data
        out_data += b.data
    x_data, w_data = x.data, w.data
    needs = (x.requires_grad, w.requires_grad, b.requires_grad)

    def bw(g: np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            gx = g @ w_data.T if needs[0] else None
            gw = (x_data.reshape(-1, w_data.shape[0]).T @ g.reshape(-1, g.shape[-1])
                  if needs[1] else None)
            gb = g.sum(axis=tuple(range(g.ndim - 1))) if needs[2] else None
        return gx, gw, gb

    return _finish("linear", (x, w, b), out_data, bw)


def attention(qkv: Tensor, bias_table: Tensor, index: np.ndarray,
              mask: np.ndarray | None = None) -> Tensor:
    """Multi-head self-attention from packed projections, as one node.

    ``qkv`` is (windows, tokens, 3 * C): q, k and v in that order, each
    split into ``bias_table.shape[1]`` heads.  Row ``index[i * tokens + j]``
    of ``bias_table`` is added to the score of token ``i`` attending to
    ``j``, and ``mask`` (m, tokens, tokens), if given, to every head's
    scores, ``mask[w % m]`` to window ``w``; ``m`` must divide the window
    count.  Returns the heads' outputs merged, (windows, tokens, C).

    Computes what the chain ``slice_axis`` -> q @ k^T -> ``scale`` ->
    ``add`` of the ``take_rows`` bias -> ``add`` of the mask ->
    ``softmax_lastdim`` -> @ v computes, with the same expressions on the
    same layouts, but in one score buffer.
    """
    if (qkv.ndim != 3 or bias_table.ndim != 2 or bias_table.shape[1] == 0
            or qkv.shape[2] % (3 * bias_table.shape[1])
            or np.shape(index) != (qkv.shape[1] ** 2,)):
        raise DimensionError(
            f"attention over {list(qkv.shape)} with a {list(bias_table.shape)} bias table "
            f"and {np.size(index)} index entries"
        )
    n_win, n_tok, c3 = qkv.shape
    if mask is not None and (mask.shape[1:] != (n_tok, n_tok)
                             or len(mask) == 0 or n_win % len(mask)):
        raise DimensionError(
            f"mask shape {list(mask.shape)} does not match {n_win} windows of {n_tok} tokens"
        )
    table_shape = bias_table.shape
    heads = table_shape[1]
    c, dh = c3 // 3, c3 // (3 * heads)
    f = float(1.0 / np.sqrt(dh))
    # one strided copy; q, k and v are C-contiguous slices of it, the
    # layouts slice_axis gave the chain's matmuls
    q, k, v = qkv.data.reshape(n_win, n_tok, 3, heads, dh).transpose(2, 0, 3, 1, 4).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        p = q @ np.swapaxes(k, -1, -2)
        p *= f
        p += bias_table.data[index].reshape(n_tok, n_tok, heads).transpose(2, 0, 1)
        if mask is not None:  # through a view of p: window w gets mask[w % m]
            scores = p.reshape(-1, len(mask), heads, n_tok, n_tok)
            scores += mask[:, None]
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        out_data = (p @ v).transpose(0, 2, 1, 3).reshape(n_win, n_tok, c)
    needs = (qkv.requires_grad, bias_table.requires_grad)

    def bw(g: np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            g_out = g.reshape(n_win, n_tok, heads, dh).transpose(0, 2, 1, 3)
            gs = g_out @ np.swapaxes(v, -1, -2)
            gv = np.swapaxes(p, -1, -2) @ g_out
            # softmax: p * (gs - sum(gs * p)), in gs
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            g_table = None
            if needs[1]:
                g_table = np.zeros(table_shape, dtype=np.float64)
                g_bias = gs.sum(axis=(0,)).transpose(1, 2, 0).reshape(-1, heads)
                np.add.at(g_table, index, g_bias)
            if not needs[0]:
                return None, g_table
            gs *= f
            g_qkv = np.empty((n_win, n_tok, 3, heads, dh))
            slots = g_qkv.transpose(2, 0, 3, 1, 4)
            # The chain summed three zero-padded slot gradients, turning
            # any -0.0 into +0.0; adding 0.0 as each slot is filled does too.
            np.add(gs @ k, 0.0, out=slots[0])
            np.add(np.swapaxes(np.swapaxes(q, -1, -2) @ gs, -1, -2), 0.0, out=slots[1])
            np.add(gv, 0.0, out=slots[2])
        return g_qkv.reshape(n_win, n_tok, c3), g_table

    return _finish("attention", (qkv, bias_table), out_data, bw)


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar."""
    f = float(factor)
    out_data = a.data * f

    def bw(g: np.ndarray):
        return (g * f,)

    return _finish("scale", (a,), out_data, bw)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    src_shape = a.shape
    out_data = a.data.reshape(tuple(shape))

    def bw(g: np.ndarray):
        return (g.reshape(src_shape),)

    return _finish("reshape", (a,), out_data, bw)


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out_data = np.transpose(a.data, axes)

    def bw(g: np.ndarray):
        return (np.transpose(g, inv),)

    return _finish("permute", (a,), out_data, bw)


def roll(a: Tensor, shifts: Sequence[int], axes: Sequence[int]) -> Tensor:
    """Cyclic roll along the given axes (gradient rolls back)."""
    shifts = tuple(int(s) for s in shifts)
    axes = tuple(axes)
    out_data = np.roll(a.data, shifts, axis=axes)

    def bw(g: np.ndarray):
        return (np.roll(g, tuple(-s for s in shifts), axis=axes),)

    return _finish("roll", (a,), out_data, bw)


def gather_rows(a: Tensor, order: np.ndarray, inverse: np.ndarray,
                shape: Sequence[int]) -> Tensor:
    """Rows ``order`` of each (len(order), a.shape[-1]) item of ``a``,
    reshaped to ``shape``: one data-movement node.  The backward gathers
    the gradient with ``inverse``, the inverse permutation."""
    n, c = len(order), a.shape[-1] if a.ndim else 0
    if (not (a.ndim > 1 and a.size and n) or a.size % (n * c) or len(inverse) != n
            or math.prod(shape) != a.size):
        raise DimensionError(f"gather_rows of {n} rows cannot reorder "
                             f"{list(a.shape)} into {list(shape)}")
    src_shape = a.shape
    # np.take gives a C-contiguous result where a[:, order] may not, and
    # the summation order of later reductions depends on the layout
    out_data = np.take(a.data.reshape(-1, n, c), order, axis=1).reshape(shape)

    def bw(g: np.ndarray):
        return (np.take(g.reshape(-1, n, c), inverse, axis=1).reshape(src_shape),)

    return _finish("gather_rows", (a,), out_data, bw)


def take_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of a rank-2 tensor; gradient scatter-adds back."""
    idx = np.asarray(indices, dtype=np.intp)
    if a.ndim != 2:
        raise DimensionError(f"take_rows expects rank 2, got {list(a.shape)}")
    out_data = a.data[idx]
    src_shape = a.shape

    def bw(g: np.ndarray):
        ga = np.zeros(src_shape, dtype=np.float64)
        np.add.at(ga, idx, g)
        return (ga,)

    return _finish("take_rows", (a,), out_data, bw)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along one axis; gradient zero-pads back."""
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    out_data = a.data[sl].copy()
    src_shape = a.shape

    def bw(g: np.ndarray):
        ga = np.zeros(src_shape, dtype=np.float64)
        ga[sl] = g
        return (ga,)

    return _finish("slice_axis", (a,), out_data, bw)


def reduce_mean(a: Tensor, axis: int) -> Tensor:
    n = a.shape[axis]
    out_data = a.data.mean(axis=axis)

    def bw(g: np.ndarray):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _finish("reduce_mean", (a,), out_data, bw)


def total_sum(a: Tensor) -> Tensor:
    out_data = np.asarray(a.data.sum())
    src_shape = a.shape

    def bw(g: np.ndarray):
        return (np.full(src_shape, float(g), dtype=np.float64),)

    return _finish("total_sum", (a,), out_data, bw)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, stabilized by the row max."""
    if x.size == 0:
        raise EmptyInputError("softmax of an empty tensor")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g: np.ndarray):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _finish("softmax_lastdim", (x,), y, bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    c = x.shape[-1] if x.ndim else 0
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"layer_norm affine shapes {list(gamma.shape)}/{list(beta.shape)} "
            f"do not match normalized extent {c}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        # means as np.mean computes them, without its Python wrapper
        xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / c
        var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / c
        inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
        xhat *= inv_std
        out_data = xhat * gamma.data
        out_data += beta.data
    gamma_data = gamma.data

    def bw(g: np.ndarray):
        # two fresh buffers: gx starts as gx_hat = g * gamma, tmp holds
        # gx_hat * xhat, then g * xhat, then xhat * m2
        axes = tuple(range(g.ndim - 1))
        gx = np.multiply(g, gamma_data)
        tmp = np.multiply(gx, xhat)
        m2 = np.add.reduce(tmp, axis=-1, keepdims=True) / c
        m1 = np.add.reduce(gx, axis=-1, keepdims=True) / c
        ggamma = np.multiply(g, xhat, out=tmp).sum(axis=axes)
        # gx = inv_std * (gx_hat - m1 - xhat * m2)
        gx -= m1
        gx -= np.multiply(xhat, m2, out=tmp)
        gx *= inv_std
        gbeta = g.sum(axis=axes)
        return gx, ggamma, gbeta

    return _finish("layer_norm", (x, gamma, beta), out_data, bw)


def gelu(x: Tensor) -> Tensor:
    """Gaussian-error linear unit, tanh approximation."""
    shape = x.data.shape
    xf = x.data.reshape(-1)  # a view unless the input is strided
    t = np.empty_like(xf)
    out_data = np.empty_like(xf)
    tmp = np.empty(min(xf.size, _GELU_BLOCK))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, xf.size, _GELU_BLOCK):
            xb, tb, ob = xf[i:i + _GELU_BLOCK], t[i:i + _GELU_BLOCK], out_data[i:i + _GELU_BLOCK]
            # t = tanh(sqrt(2/pi) * (x + c * ((x * x) * x)))
            np.multiply(xb, xb, out=tb)
            tb *= xb
            tb *= _GELU_C
            tb += xb
            tb *= _SQRT_2_OVER_PI
            np.tanh(tb, out=tb)
            # out = (0.5 * x) * (1 + t)
            np.multiply(xb, 0.5, out=ob)
            ob *= np.add(tb, 1.0, out=tmp[:xb.size])

    def bw(g: np.ndarray):
        gf = g.reshape(-1)
        gx = np.empty_like(xf)
        d_inner = np.empty_like(tmp)
        sech2 = np.empty_like(tmp)
        with np.errstate(over="ignore"):
            for i in range(0, xf.size, _GELU_BLOCK):
                xb, tb = xf[i:i + _GELU_BLOCK], t[i:i + _GELU_BLOCK]
                gb, gxb = gf[i:i + _GELU_BLOCK], gx[i:i + _GELU_BLOCK]
                db, sb = d_inner[:xb.size], sech2[:xb.size]
                # d_inner = sqrt(2/pi) * (1 + 3c * (x * x))
                np.multiply(xb, xb, out=db)
                db *= 3.0 * _GELU_C
                db += 1.0
                db *= _SQRT_2_OVER_PI
                # sech2 = 1 - t * t
                np.multiply(tb, tb, out=sb)
                np.subtract(1.0, sb, out=sb)
                # gx = g * (0.5 * (1 + t) + ((0.5 * x) * sech2) * d_inner).
                # Where sech2 is 0 that product is +-0 whatever d_inner is,
                # and d_inner is inf once x * x overflows (|x| > 1.3e154), so
                # the product is skipped there instead of giving 0 * inf = NaN.
                np.multiply(xb, 0.5, out=gxb)
                gxb *= sb
                np.multiply(gxb, db, out=gxb, where=sb != 0.0)
                half_1pt = np.add(tb, 1.0, out=sb)  # sech2 is no longer needed
                half_1pt *= 0.5
                gxb += half_1pt
                gxb *= gb
        return (gx.reshape(shape),)

    return _finish("gelu", (x,), out_data.reshape(shape), bw)


def cross_entropy(logits: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean negative log-probability of the true class over the batch."""
    if logits.ndim != 2:
        raise DimensionError(
            f"cross_entropy expects rank-2 logits, got {list(logits.shape)}"
        )
    b, c = logits.shape
    idx = np.asarray(labels, dtype=np.intp)
    if idx.shape != (b,):
        raise DimensionError(
            f"cross_entropy got {idx.size} labels for a batch of {b}"
        )
    for i, lab in enumerate(idx):
        if lab < 0 or lab >= c:
            raise LabelError(f"label {int(lab)} at position {i} is out of range for {c} classes")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out_data = np.asarray(-log_probs[np.arange(b), idx].mean())

    def bw(g: np.ndarray):
        soft = np.exp(log_probs)
        soft[np.arange(b), idx] -= 1.0
        return (float(g) * soft / b,)

    return _finish("cross_entropy", (logits,), out_data, bw)
