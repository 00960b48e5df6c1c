"""Dense float64 tensors with tape-based reverse-mode differentiation.

Design notes:

* Values are numpy float64 arrays.  Each node checks its own output, and
  ``backward`` each gradient a node returns and each sum of two, for
  NaN/Inf and raises ``NonFiniteError`` naming the op instead of
  propagating.  Values inside a fused node are not checked; a NaN there
  reaches its output.  So numpy's warnings add nothing: ``_cut``,
  ``backward`` and the uncut arithmetic ops run with them off.
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
  reach the loss receives an exact zero gradient.  Every rule returns a
  gradient for each input but ``linear``'s ``x`` (None for image patches).
  ``backward`` keeps a key's first gradient as returned, and each later
  gradient goes into a fresh array, summed left to right: never into an
  array a rule returned (``add`` returns its seed gradient twice).
* GELU uses the tanh approximation, so no error-function dependency is
  needed and the derivative stays in closed form.  Its cube is the product
  ``(x * x) * x``: numpy's ``x ** 3`` goes through ``pow``, about fifty
  times slower than two multiplications and within one ULP of them.
* ``gelu`` and ``layer_norm`` (forward and backward) compute in fresh
  buffers written in place.  Each keeps the operation order of the
  plain out-of-place expression, swapping operands only where IEEE
  addition and multiplication commute, so every rounding is the same;
  ``tests/test_tensor.py`` holds those expressions and compares bitwise.
  ``gelu`` runs that sequence on ``_GELU_BLOCK`` elements at a time, so its
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
* A big node runs on every usable core.  Its body is written over a
  ``[lo, hi)`` slab of its leading axis.  ``_cut``, the one runner that
  puts work on the pool, cuts that axis into one contiguous part per
  thread (at most one per usable core, each of at least ``_PART_FLOOR``
  elements) and has each part check its slab of the output after the
  body; the first failing part's error is raised.
  The calling thread and a pool of ``len(os.sched_getaffinity(0)) - 1``
  daemon threads, made on first use and dropped in a forked child, take
  parts until none is left.  ``linear`` cuts the stacked matrices of x
  (its rank-2 form is one stack, one part), ``attention`` its windows
  (whole images when masked, so window w keeps mask[w % m]),
  ``layer_norm`` and ``add`` the first axis, ``gather_rows`` the items
  it reorders, ``gelu`` its flat array at whole ``_GELU_BLOCK``s;
  ``backward``'s checks and sums cut each gradient's first axis.
  ``add``, ``gather_rows`` and those sums only move or add memory, yet
  run whole they cost train-64 about 6 % of its samples/s on 2 cores.
  Below two floors a node is one part on the calling thread, checked
  whole: a batch-1 forward starts no thread.  The bits do not depend on
  the number of parts, by two rules.  A part cuts the stacked operand,
  never a flattened one: numpy multiplies a stack one matrix at a time,
  and a slab of the stack makes the same BLAS calls, where a flattened
  product has other bits.  A sum over the batch
  (``gw = x2.T @ g2``, a bias gradient, ``ggamma``/``gbeta``, the
  attention bias table) is never cut: BLAS gives a part of ``gw`` other
  bits than the whole once the part's shape changes its kernel, and
  numpy's sum down a column slab costs as much per row as the whole sum.
  It runs whole, as a task beside the parts.  Outputs and saved arrays
  are allocated on the calling thread and parts write into slices of
  them; a part's scratch (``gelu``'s blocks) is its own.  Pool threads
  call no public op and run in a copy of the caller's context, taken
  inside ``_cut``'s error state, so they too run with warnings off.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
import queue
import threading
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
# elements per thread at least: a batch-1 forward's largest array (32 Ki)
# runs on one, the smallest batch-32 array worth cutting (the stage-1
# windows, 128 Ki) on two
_PART_FLOOR = 1 << 16


class _Pool:
    """Daemon threads that help the calling thread through a node's tasks."""

    def __init__(self, threads: int):
        self.width = threads + 1  # threads a node may use, the calling one included
        self.jobs: queue.SimpleQueue = queue.SimpleQueue()
        for _ in range(threads):
            threading.Thread(target=self._serve, name="swinscan-part", daemon=True).start()

    def _serve(self) -> None:
        while True:
            context, drain, done = self.jobs.get()
            try:
                context.run(drain)
            finally:
                done.put(None)


_pool: _Pool | None = None  # one thread per usable core but one, made on first use
_pool_lock = threading.Lock()


def _get_pool() -> _Pool:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = _Pool(len(os.sched_getaffinity(0)) - 1)
        return _pool


def _drop_pool() -> None:
    # a forked child has none of the pool's threads; it builds its own
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_pool)


def _width(size: int) -> int:
    """Threads for a node over ``size`` elements: one per _PART_FLOOR of
    them, at most one per usable core.  Below two floors, one: no pool."""
    count = size // _PART_FLOOR
    return 1 if count < 2 else min(count, _get_pool().width)


def _cuts(n: int, count: int, step: int = 1) -> list[tuple[int, int]]:
    """range(n) cut into at most ``count`` contiguous [lo, hi) parts, at
    multiples of ``step``."""
    units = n // step
    count = max(1, min(count, units))
    cuts = [units * i // count * step for i in range(count)] + [n]
    return list(zip(cuts, cuts[1:]))


def _cut(lead: np.ndarray, size: int, body: Callable, message: str | None = None,
         step: int = 1, whole: tuple = ()) -> None:
    """Run ``body(lo, hi)`` over parts of range(len(lead)), one per thread
    for a node of ``size`` elements, cut at multiples of ``step``, and the
    ``whole`` tasks ``(fn, *args)`` uncut before them, all with numpy's
    warnings off.  With a ``message``, each part then raises
    NonFiniteError(message) unless its slab of ``lead`` is finite.  Returns
    once every task is done, raising the error of the first failing one."""

    def part(lo, hi):
        body(lo, hi)
        if message and not np.isfinite(lead[lo:hi]).all():
            raise NonFiniteError(message)

    width = _width(size)
    # entered before the pool threads' copies of this context are taken
    with np.errstate(all="ignore"):
        if width == 1:  # in order on this thread, without a task list
            for fn, *args in whole:
                fn(*args)
            return part(0, len(lead))
        tasks = [*whole, *((part, lo, hi) for lo, hi in _cuts(len(lead), width, step))]
        todo: queue.SimpleQueue = queue.SimpleQueue()
        for task in enumerate(tasks):
            todo.put(task)
        errors: dict[int, Exception] = {}

        def drain():
            while True:
                try:
                    i, (fn, *args) = todo.get_nowait()
                except queue.Empty:
                    return
                try:
                    fn(*args)
                except Exception as exc:  # raised below, on the calling thread
                    errors[i] = exc

        helpers = min(width, len(tasks)) - 1
        jobs, done = _get_pool().jobs, queue.SimpleQueue()
        for _ in range(helpers):
            jobs.put((contextvars.copy_context(), drain, done))
        drain()
        for _ in range(helpers):
            done.get()
    if errors:
        raise errors[min(errors)]


def _lead(a: np.ndarray) -> np.ndarray:
    """``a``, or a 1-element view of it when it has rank 0: something to cut."""
    return a if a.ndim else a[None]


def _stack(a: np.ndarray) -> np.ndarray:
    """``a`` as a stack of matrices: a rank-2 ``a`` is a stack of one."""
    return a if a.ndim > 2 else a[None]


def _check(g: np.ndarray, message: str | None, onto: np.ndarray | None = None) -> np.ndarray:
    """Return ``g``, or with ``onto`` a fresh array that each part fills
    with onto + g, and raise NonFiniteError(message) unless what it
    returns is finite, checked in parts (not without a message)."""
    gl = _lead(g)
    out = g if onto is None else np.empty(onto.shape)
    outl = _lead(out)

    def body(lo, hi):
        if onto is not None:
            np.add(_lead(onto)[lo:hi], gl[lo:hi], out=outl[lo:hi])

    _cut(outl, outl.size, body, message)
    return out


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
    return _node(op, inputs, out_data, backward_fn)


def _node(
    op: str,
    inputs: tuple[Tensor, ...],
    out_data: np.ndarray,
    backward_fn: Callable[[np.ndarray], tuple[np.ndarray | None, ...]],
) -> Tensor:
    """Wrap an output its op checked part by part, and record it."""
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
    # every gradient and sum is checked, so numpy's warnings add nothing
    with np.errstate(all="ignore"):
        while nodes:
            # rebinding node drops the previous one, and with it the arrays
            # its rule saved
            node = nodes.pop()
            gout = grads.pop(node.output_key, None)
            if gout is None:
                continue
            gins = node.backward_fn(gout)
            message = f"backward of {node.op} produced non-finite values"
            checked = None
            for key, g in zip(node.input_keys, gins):
                if g is None:
                    continue
                # add returns one array for both inputs: it is checked once,
                # and each later gradient of a key goes into a fresh array
                acc = None if key is None else grads.get(key)
                if acc is not None or g is not checked:
                    checked, g = g, _check(g, message, acc)
                if key is not None:
                    grads[key] = g
        message = "backward's sum into a leaf's grad produced non-finite values"
        for key, t in tape._watched.items():
            g = grads.get(key)
            if g is None:
                g = np.zeros_like(t.data)
            t.grad = g if t.grad is None else _check(g, message, t.grad)


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
    al, bl = _lead(a.data), _lead(b.data)
    lead = a.ndim - b.ndim
    out_data = np.empty(a.shape)
    outl = _lead(out_data)

    def part(lo, hi):
        np.add(al[lo:hi], bl if lead else bl[lo:hi], out=outl[lo:hi])

    _cut(outl, al.size, part, "add produced non-finite values")

    def bw(g: np.ndarray):
        return g, g.sum(axis=tuple(range(lead))) if lead else g

    return _node("add", (a, b), out_data, bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` as one node.

    ``w`` is rank 2, shared across the leading dims of ``x``, and ``b``
    has one entry per column of ``w``.  Forward and backward evaluate the
    expressions of ``add(matmul(x, w), b)``.  Its rule always returns
    ``gw`` and ``gb``; only ``x`` gets ``None`` when it needs no gradient,
    so image patches cost no ``g @ w.T``.
    """
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(
            f"linear shapes incompatible: {list(x.shape)} @ {list(w.shape)} + {list(b.shape)}"
        )
    x_data, w_data, b_data = x.data, w.data, b.data
    k, n = w_data.shape
    out_data = np.empty(x.shape[:-1] + (n,))
    x3, out3 = _stack(x_data), _stack(out_data)

    def part(lo, hi):
        o = out3[lo:hi]
        np.matmul(x3[lo:hi], w_data, out=o)
        o += b_data

    _cut(out3, x_data.size + out_data.size, part, "linear produced non-finite values")
    needs_x = x.requires_grad

    def bw(g: np.ndarray):
        gw, gb = np.empty((k, n)), np.empty(n)
        gx = np.empty(x_data.shape) if needs_x else None
        # gw and gb sum over the batch: each is one task, uncut, beside
        # the parts of gx
        whole = ((np.matmul, x_data.reshape(-1, k).T, g.reshape(-1, n), gw),
                 (np.add.reduce, g, tuple(range(g.ndim - 1)), None, gb))
        g3, gx3 = _stack(g), gx if gx is None else _stack(gx)

        def part(lo, hi):
            if gx3 is not None:
                np.matmul(g3[lo:hi], w_data.T, out=gx3[lo:hi])

        _cut(g3, x_data.size + g.size, part, whole=whole)
        return gx, gw, gb

    return _node("linear", (x, w, b), out_data, bw)


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
    packed = qkv.data.reshape(n_win, n_tok, 3, heads, dh)
    # q, k and v are C-contiguous slices of one copy, the layouts
    # slice_axis gave the chain's matmuls
    q, k, v = qkv_t = np.empty((3, n_win, heads, n_tok, dh))
    bias = bias_table.data[index].reshape(n_tok, n_tok, heads).transpose(2, 0, 1)
    p = np.empty((n_win, heads, n_tok, n_tok))
    row = np.empty((n_win, heads, n_tok, 1))  # a row max, then a row sum
    out_data = np.empty((n_win, n_tok, c))
    # each head's output lands in its columns of out_data, the layout the
    # chain's transpose and reshape copied it to
    merged = out_data.reshape(n_win, n_tok, heads, dh).transpose(0, 2, 1, 3)

    def part(lo, hi):
        np.copyto(qkv_t[:, lo:hi], packed[lo:hi].transpose(2, 0, 3, 1, 4))
        ps, rs = p[lo:hi], row[lo:hi]
        np.matmul(q[lo:hi], np.swapaxes(k[lo:hi], -1, -2), out=ps)
        ps *= f
        ps += bias
        if mask is not None:  # through a view: window w gets mask[w % m]
            scores = ps.reshape(-1, len(mask), heads, n_tok, n_tok)
            scores += mask[:, None]
        np.maximum.reduce(ps, axis=-1, keepdims=True, out=rs)
        ps -= rs
        np.exp(ps, out=ps)
        np.add.reduce(ps, axis=-1, keepdims=True, out=rs)
        ps /= rs
        np.matmul(ps, v[lo:hi], out=merged[lo:hi])

    # whole images when masked, so window w keeps mask[w % m]
    _cut(out_data, p.size, part, "attention produced non-finite values",
         1 if mask is None else len(mask))

    def bw(g: np.ndarray):
        g_out = g.reshape(n_win, n_tok, heads, dh).transpose(0, 2, 1, 3)
        gs = np.empty(p.shape)
        tmp = np.empty(p.shape)  # gs * p, then gs * f
        row = np.empty((n_win, heads, n_tok, 1))
        g_qkv = np.empty((n_win, n_tok, 3, heads, dh))
        slots = g_qkv.transpose(2, 0, 3, 1, 4)
        qt_gs = np.empty((n_win, heads, dh, n_tok))

        def part(lo, hi):
            gss, ps, ts, go = gs[lo:hi], p[lo:hi], tmp[lo:hi], g_out[lo:hi]
            np.matmul(go, np.swapaxes(v[lo:hi], -1, -2), out=gss)
            # softmax: p * (gs - sum(gs * p)), in gs
            np.multiply(gss, ps, out=ts)
            np.add.reduce(ts, axis=-1, keepdims=True, out=row[lo:hi])
            gss -= row[lo:hi]
            gss *= ps
            # The chain summed three zero-padded slot gradients, turning
            # any -0.0 into +0.0; adding 0.0 as each slot is filled does too.
            s0, s1, s2 = slots[:, lo:hi]
            np.multiply(gss, f, out=ts)
            np.matmul(ts, k[lo:hi], out=s0)
            s0 += 0.0
            np.matmul(np.swapaxes(q[lo:hi], -1, -2), ts, out=qt_gs[lo:hi])
            np.add(np.swapaxes(qt_gs[lo:hi], -1, -2), 0.0, out=s1)
            np.matmul(np.swapaxes(ps, -1, -2), go, out=s2)
            s2 += 0.0

        _cut(gs, p.size, part)
        g_table = np.zeros(table_shape, dtype=np.float64)
        g_bias = gs.sum(axis=(0,)).transpose(1, 2, 0).reshape(-1, heads)
        np.add.at(g_table, index, g_bias)
        return g_qkv.reshape(n_win, n_tok, c3), g_table

    return _node("attention", (qkv, bias_table), out_data, bw)


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar."""
    f = float(factor)
    with np.errstate(all="ignore"):
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
    the gradient with ``inverse``, the inverse permutation.  ``order`` is
    a permutation of range(len(order)), as ``model`` builds and checks
    them; an entry out of that range is clipped into it, not refused."""
    n, c = len(order), a.shape[-1] if a.ndim else 0
    if (not (a.ndim > 1 and a.size and n) or a.size % (n * c) or len(inverse) != n
            or math.prod(shape) != a.size):
        raise DimensionError(f"gather_rows of {n} rows cannot reorder "
                             f"{list(a.shape)} into {list(shape)}")
    src_shape = a.shape
    out_data = _gather(a.data, order, c, "gather_rows produced non-finite values")

    def bw(g: np.ndarray):
        return (_gather(g, inverse, c).reshape(src_shape),)

    return _node("gather_rows", (a,), out_data.reshape(shape), bw)


def _gather(src: np.ndarray, order: np.ndarray, c: int, message: str | None = None):
    """Rows ``order`` of each (len(order), c) item of ``src``, cut by item,
    checked when a ``message`` is given.  The result is C-contiguous, as
    the chain's layouts were, where src[:, order] may not be, and the
    summation order of later reductions depends on the layout."""
    items = src.reshape(-1, len(order), c)
    out = np.empty(items.shape)

    def part(lo, hi):
        # mode="clip" takes straight into out, where the default fills a
        # copy first; order is a permutation, so nothing is clipped
        np.take(items[lo:hi], order, axis=1, out=out[lo:hi], mode="clip")

    _cut(out, items.size, part, message)
    return out


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
    with np.errstate(all="ignore"):
        out_data = a.data.mean(axis=axis)

    def bw(g: np.ndarray):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _finish("reduce_mean", (a,), out_data, bw)


def total_sum(a: Tensor) -> Tensor:
    with np.errstate(all="ignore"):
        out_data = np.asarray(a.data.sum())
    src_shape = a.shape

    def bw(g: np.ndarray):
        return (np.full(src_shape, float(g), dtype=np.float64),)

    return _finish("total_sum", (a,), out_data, bw)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, stabilized by the row max."""
    if x.size == 0:
        raise EmptyInputError("softmax of an empty tensor")
    with np.errstate(all="ignore"):
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
    gamma_data, beta_data = gamma.data, beta.data
    xl = x.data if x.ndim > 1 else x.data[None]  # cut along the first axis
    xhat, out_data = np.empty(xl.shape), np.empty(xl.shape)
    inv_std = np.empty(xl.shape[:-1] + (1,))  # a row mean, then the variance

    def part(lo, hi):
        xs, xh, o, s = xl[lo:hi], xhat[lo:hi], out_data[lo:hi], inv_std[lo:hi]
        # means as np.mean computes them, without its Python wrapper
        np.add.reduce(xs, axis=-1, keepdims=True, out=s)
        s /= c
        np.subtract(xs, s, out=xh)
        np.add.reduce(np.multiply(xh, xh, out=o), axis=-1, keepdims=True, out=s)
        s /= c
        # inv_std = 1 / sqrt(var + eps)
        s += LAYER_NORM_EPS
        np.sqrt(s, out=s)
        np.divide(1.0, s, out=s)
        xh *= s
        np.multiply(xh, gamma_data, out=o)
        o += beta_data

    _cut(out_data, xl.size, part, "layer_norm produced non-finite values")

    def bw(g: np.ndarray):
        gl = g if g.ndim > 1 else g[None]
        # gx starts as gx_hat = g * gamma, tmp holds gx_hat * xhat, then
        # xhat * m2; prod holds g * xhat for ggamma
        gx, tmp, prod = np.empty((3,) + xhat.shape)
        means = np.empty((2,) + inv_std.shape)
        axes = tuple(range(gl.ndim - 1))
        ggamma, gbeta = np.empty((2, c))

        def sums():  # over every row, so one task, uncut
            np.add.reduce(np.multiply(gl, xhat, out=prod), axis=axes, out=ggamma)
            np.add.reduce(gl, axis=axes, out=gbeta)

        def part_rows(lo, hi):
            gs, xh, gxs, ts = gl[lo:hi], xhat[lo:hi], gx[lo:hi], tmp[lo:hi]
            m1, m2 = means[:, lo:hi]
            np.multiply(gs, gamma_data, out=gxs)
            np.add.reduce(np.multiply(gxs, xh, out=ts), axis=-1, keepdims=True, out=m2)
            m2 /= c
            np.add.reduce(gxs, axis=-1, keepdims=True, out=m1)
            m1 /= c
            # gx = inv_std * (gx_hat - m1 - xhat * m2)
            gxs -= m1
            gxs -= np.multiply(xh, m2, out=ts)
            gxs *= inv_std[lo:hi]

        _cut(gl, g.size, part_rows, whole=((sums,),))
        return gx.reshape(g.shape), ggamma, gbeta

    return _node("layer_norm", (x, gamma, beta), out_data.reshape(x.shape), bw)


def gelu(x: Tensor) -> Tensor:
    """Gaussian-error linear unit, tanh approximation."""
    shape = x.data.shape
    xf = x.data.reshape(-1)  # a view unless the input is strided
    t = np.empty_like(xf)
    out_data = np.empty_like(xf)

    def part(lo, hi):  # whole blocks, with a block of scratch of its own
        tmp = np.empty(min(hi - lo, _GELU_BLOCK))
        for i in range(lo, hi, _GELU_BLOCK):
            j = min(i + _GELU_BLOCK, hi)
            xb, tb, ob = xf[i:j], t[i:j], out_data[i:j]
            # t = tanh(sqrt(2/pi) * (x + c * ((x * x) * x)))
            np.multiply(xb, xb, out=tb)
            tb *= xb
            tb *= _GELU_C
            tb += xb
            tb *= _SQRT_2_OVER_PI
            np.tanh(tb, out=tb)
            # out = (0.5 * x) * (1 + t)
            np.multiply(xb, 0.5, out=ob)
            ob *= np.add(tb, 1.0, out=tmp[:j - i])

    _cut(out_data, xf.size, part, "gelu produced non-finite values", _GELU_BLOCK)

    def bw(g: np.ndarray):
        gf = g.reshape(-1)
        gx = np.empty_like(xf)

        def part_bw(lo, hi):
            d_inner, sech2 = np.empty((2, min(hi - lo, _GELU_BLOCK)))
            live = np.empty(len(sech2), dtype=bool)
            for i in range(lo, hi, _GELU_BLOCK):
                j = min(i + _GELU_BLOCK, hi)
                xb, tb, gb, gxb = xf[i:j], t[i:j], gf[i:j], gx[i:j]
                db, sb, lb = d_inner[:j - i], sech2[:j - i], live[:j - i]
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
                np.multiply(gxb, db, out=gxb, where=np.not_equal(sb, 0.0, out=lb))
                half_1pt = np.add(tb, 1.0, out=sb)  # sech2 is no longer needed
                half_1pt *= 0.5
                gxb += half_1pt
                gxb *= gb

        _cut(gx, xf.size, part_bw, step=_GELU_BLOCK)
        return (gx.reshape(shape),)

    return _node("gelu", (x,), out_data.reshape(shape), bw)


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
    with np.errstate(all="ignore"):
        z = logits.data - logits.data.max(axis=-1, keepdims=True)
        log_probs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        out_data = np.asarray(-log_probs[np.arange(b), idx].mean())

    def bw(g: np.ndarray):
        soft = np.exp(log_probs)
        soft[np.arange(b), idx] -= 1.0
        return (float(g) * soft / b,)

    return _finish("cross_entropy", (logits,), out_data, bw)
