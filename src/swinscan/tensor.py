"""Dense float64 tensors with tape-based reverse-mode differentiation.

Design notes:

* Values are numpy float64 arrays; every completed operation checks its
  output for NaN/Inf and raises ``NonFiniteError`` instead of propagating.
* Differentiation is eager: while a ``Tape`` is active, each operation
  whose inputs touch the graph appends one node holding the saved values
  its backward rule needs.  ``backward`` replays the nodes in reverse.
* Gradients are plain numpy arrays stored on ``Tensor.grad`` and are only
  written for watched leaves (tensors created with ``requires_grad=True``
  or registered through ``Tape.watch``).  A watched leaf that does not
  reach the loss receives an exact zero gradient.
* GELU uses the tanh approximation, so no error-function dependency is
  needed and the derivative stays in closed form.
"""

from __future__ import annotations

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
LAYER_NORM_EPS = 1e-5  # variance guard in layer_norm


class Tensor:
    """N-dimensional float64 array, optionally carrying a gradient."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor constructed from non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

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
    """One recorded operation: inputs, output and its backward rule."""

    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(
        self,
        op: str,
        inputs: tuple[Tensor, ...],
        output: Tensor,
        backward_fn: Callable[[np.ndarray], tuple[np.ndarray | None, ...]],
    ):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of operations, usable as a context manager.

    Nodes are appended in execution order, so the list is topologically
    sorted by construction and a single reverse sweep visits every node
    exactly once.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._watched: dict[int, Tensor] = {}
        self._produced: set[int] = set()

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def watch(self, tensor: Tensor) -> None:
        """Register a leaf so backward() always assigns it a gradient."""
        self._watched[id(tensor)] = tensor

    def watched(self) -> list[Tensor]:
        return list(self._watched.values())

    def record(
        self,
        op: str,
        inputs: tuple[Tensor, ...],
        output: Tensor,
        backward_fn: Callable[[np.ndarray], tuple[np.ndarray | None, ...]],
    ) -> None:
        for t in inputs:
            if t.requires_grad and id(t) not in self._produced:
                self.watch(t)
        self._produced.add(id(output))
        self.nodes.append(TapeNode(op, inputs, output, backward_fn))


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
    if not np.all(np.isfinite(out_data)):
        raise NonFiniteError(f"{op} produced non-finite values")
    needs_grad = any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = needs_grad
    out.grad = None
    tape = active_tape()
    if tape is not None and needs_grad:
        tape.record(op, inputs, out, backward_fn)
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate reverse-mode gradients of ``loss`` over the tape.

    Watched leaves that are not on any path to the loss receive an exact
    zero gradient.  Gradients accumulate into pre-existing ``.grad``
    arrays; call ``zero_grad`` between steps.
    """
    if loss.ndim != 0:
        raise ContractError(
            f"backward expects a scalar loss, got shape {list(loss.shape)}"
        )
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    for node in reversed(tape.nodes):
        out_key = id(node.output)
        gout = grads.get(out_key)
        if gout is None:
            continue
        if out_key not in tape._watched:
            del grads[out_key]
        gins = node.backward_fn(gout)
        for t, g in zip(node.inputs, gins):
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(f"backward of {node.op} produced non-finite values")
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
        # leaves keep their accumulated entry; free intermediate storage
    for t in tape.watched():
        g = grads.get(id(t))
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
        mu = x.data.mean(axis=-1, keepdims=True)
        var = x.data.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
        xhat = (x.data - mu) * inv_std
        out_data = xhat * gamma.data + beta.data
    gamma_data = gamma.data

    def bw(g: np.ndarray):
        gx_hat = g * gamma_data
        m1 = gx_hat.mean(axis=-1, keepdims=True)
        m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
        gx = inv_std * (gx_hat - m1 - xhat * m2)
        axes = tuple(range(g.ndim - 1))
        ggamma = (g * xhat).sum(axis=axes)
        gbeta = g.sum(axis=axes)
        return gx, ggamma, gbeta

    return _finish("layer_norm", (x, gamma, beta), out_data, bw)


def gelu(x: Tensor) -> Tensor:
    """Gaussian-error linear unit, tanh approximation."""
    xd = x.data
    with np.errstate(over="ignore", invalid="ignore"):
        inner = _SQRT_2_OVER_PI * (xd + _GELU_C * xd ** 3)
        t = np.tanh(inner)
        out_data = 0.5 * xd * (1.0 + t)

    def bw(g: np.ndarray):
        sech2 = 1.0 - t * t
        d_inner = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_C * xd ** 2)
        return (g * (0.5 * (1.0 + t) + 0.5 * xd * sech2 * d_inner),)

    return _finish("gelu", (x,), out_data, bw)


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
