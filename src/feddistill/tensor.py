"""Dense tensors with reverse-mode differentiation, second-order capable.

Every backward rule is itself written with the public ops, so calling `grad`
with ``create_graph=True`` yields gradients that are further differentiable:
that is what lets a gradient-distance be differentiated with respect to the
inputs that produced one of the gradients (`hypergrad`).  A binary op's rule
computes no gradient for an operand that needs none.

The graph holds no data.  A tensor in a graph has a `_Node`: whether it needs
a gradient, its parents' nodes and its VJP.  So a forward array lives only
while the caller, a tape slot or a VJP closure holds it, and a closure saves
only what its rule reads (`mul`, `div` and `matmul` keep an operand only for
the other's gradient).  `grad` frees no saved tensor: a graph can be
differentiated twice.  `Tensor._parents` yields the parents' nodes, each with
`_parents` in turn; the benchmark's tracer walks it to count a graph's nodes.

Arithmetic is strict: binary ops require identical shapes and dtypes.  The
only sanctioned broadcasts are explicit (`expand`) and scalar constants.
Default precision is 32-bit; pass float64 arrays for the 64-bit test graphs.

`expand` yields a read-only broadcast view, so no op may write into an
input's `.data`.  numpy orders the additions of a reduction or a matrix
product by the operands' strides, so `asum` and `matmul` hand numpy
C-contiguous arrays: a result never depends on whether an input is a view.

Every op computes its data through a numpy kernel, a function of its inputs'
arrays alone.  A value that depends on data but is a constant of the graph (a
ReLU mask, a row maximum, one-hot labels) is built with `constant`, whose
kernel is recorded too.  Inside a `Recorder` block each kernel call is
appended to a `Tape`, the VJP ops that `grad` runs included; `Tape.run`
replays them over new input arrays without building any tensor.
A kernel treats an input's leading axes beyond its recorded rank as group
axes, as ufuncs and `@` do: a tape replays over inputs stacked on a leading
axis, and each slice equals a replay over that slice alone, bit for bit.
`tape_call` is the one record-or-replay path: it records a tape by
interpreting a group's first member and replays it for the whole group;
`by_member` reruns a group that failed one member at a time.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import GraphError, NumericError, ShapeError

DEFAULT_DTYPE = np.dtype(np.float32)
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class _State(threading.local):
    recording = True                    # whether ops build graphs (see no_grad)
    recorder: "Recorder | None" = None  # the Recorder of the running block


_state = _State()


def _recording() -> bool:
    return _state.recording


def _recorder() -> "Recorder | None":
    return _state.recorder


class no_grad(contextlib.AbstractContextManager):
    """Suspend graph recording; ops inside produce plain constant tensors."""

    def __enter__(self):
        self._prev = _recording()
        _state.recording = False
        return self

    def __exit__(self, *exc):
        _state.recording = self._prev
        return False


class _Node:
    """A tensor's place in a differentiation graph, without its data: whether
    it needs a gradient, its parents' nodes and its VJP."""

    __slots__ = ("requires_grad", "_parents", "_vjp")

    def __init__(self, requires_grad: bool, parents: tuple = (), vjp: Callable | None = None):
        self.requires_grad = requires_grad
        self._parents = parents
        self._vjp = vjp


class Tensor:
    """N-dimensional float array, optionally part of a differentiation graph.

    `_graph_node` is the tensor's `_Node`: set from the start on a tensor
    that requires grad, and on first use as a parent for any other.
    `_detached_src` marks values that (transitively) came out of a backward
    pass run without graph retention; `hypergrad` uses it to give a precise
    error instead of silently returning zeros.  `_slot` is set only on the
    tensors a `Recorder` has seen: (recorder serial, slot index).
    """

    __slots__ = ("data", "requires_grad", "_graph_node", "_detached_src", "_slot")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            raise TypeError("Tensor(data): pass raw array data, not a Tensor")
        if dtype is not None:
            arr = np.asarray(data, dtype=np.dtype(dtype))
        elif isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES:
            arr = data
        else:
            # Lists, ints, non-float arrays: land on the 32-bit default.
            arr = np.asarray(data, dtype=DEFAULT_DTYPE)
        if arr.dtype not in _FLOAT_DTYPES:
            raise ShapeError(f"unsupported dtype {arr.dtype}; use float32 or float64")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._graph_node = _Node(True) if requires_grad else None
        self._detached_src = False

    @property
    def _parents(self) -> tuple[_Node, ...]:
        """The nodes of this tensor's parents; each has `_parents` in turn."""
        node = self._graph_node
        return () if node is None else node._parents

    # ---- inspection -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def check_finite(self, context: str = "") -> "Tensor":
        rec = _recorder()
        if rec is not None:
            rec.step(_assert_finite, (self,), None)
        if not np.isfinite(self.data).all():
            raise _non_finite(context)
        return self

    def __repr__(self) -> str:
        flags = "grad" if self.requires_grad else "const"
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, {flags})"

    # ---- operators ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_scalar(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return add_scalar(self, -float(other))

    def __rsub__(self, other):
        return add_scalar(neg(self), float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return mul_scalar(self, float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return div(self, other)
        return mul_scalar(self, 1.0 / float(other))

    def __rtruediv__(self, other):
        return mul_scalar(power(self, -1.0), float(other))

    def __pow__(self, exponent):
        return power(self, float(exponent))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axes=None, keepdims: bool = False) -> "Tensor":
        return asum(self, axes=axes, keepdims=keepdims)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp: Callable | None) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    track = detached = False
    for p in parents:
        track = track or p.requires_grad
        detached = detached or p._detached_src
    out._detached_src = detached
    if track and _state.recording:
        # unrolled, as this runs once per graph node: every op takes one or two
        # tensors, and the one parent of a tracked unary op has its node already
        if len(parents) == 1:
            nodes = (parents[0]._graph_node,)
        else:
            a, b = parents
            nodes = (a._graph_node or _graph_node(a), b._graph_node or _graph_node(b))
        out.requires_grad = True
        out._graph_node = _Node(True, nodes, vjp)
    else:
        out.requires_grad = False
        out._graph_node = None
    return out


def _graph_node(t: Tensor) -> _Node:
    """The node of `t`, made on first use for a tensor that needs no gradient."""
    node = t._graph_node
    if node is None:
        node = t._graph_node = _Node(False)
    return node


def _op(kernel: Callable, parents: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    out = _node(kernel(*[p.data for p in parents]), parents, vjp)
    rec = _state.recorder
    if rec is not None:
        rec.step(kernel, parents, out)
    return out


def constant(kernel: Callable, *inputs) -> Tensor:
    """`kernel` of the inputs' data (tensors or raw arrays, labels included)
    as a constant of the graph: no gradient flows through it.  Every value
    that depends on data but not differentiably (masks, row maxima, one-hot
    labels) must be built here, so that a tape recomputes it on replay."""
    leaves = tuple(t if isinstance(t, Tensor) else _node(t, (), None) for t in inputs)
    out = _node(kernel(*[t.data for t in leaves]), (), None)
    rec = _state.recorder
    if rec is not None:
        rec.step(kernel, leaves, out)
    return out


def _check_pair(a: Tensor, b: Tensor, name: str) -> None:
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise TypeError(f"{name}: expected Tensor operands")
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{name}: shapes must match exactly, got {a.shape} vs {b.shape}")
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"{name}: dtypes must match, got {a.data.dtype} vs {b.data.dtype}")


# ---- elementwise ops ---------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_pair(a, b, "add")
    return _op(np.add, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_pair(a, b, "sub")
    grad_b = b.requires_grad
    return _op(np.subtract, (a, b), lambda g: (g, neg(g) if grad_b else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_pair(a, b, "mul")
    # each operand is saved only for the other one's gradient
    sa, sb = (a if b.requires_grad else None), (b if a.requires_grad else None)
    return _op(np.multiply, (a, b), lambda g: (None if sb is None else mul(g, sb),
                                               None if sa is None else mul(g, sa)))


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_pair(a, b, "div")
    grad_a, sa = a.requires_grad, (a if b.requires_grad else None)

    def vjp(g):
        return (div(g, b) if grad_a else None,
                None if sa is None else neg(div(mul(g, sa), mul(b, b))))

    return _op(np.true_divide, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return _op(np.negative, (a,), lambda g: (neg(g),))


def add_scalar(a: Tensor, c: float) -> Tensor:
    cc = a.data.dtype.type(c)
    return _op(lambda x: x + cc, (a,), lambda g: (g,))


def mul_scalar(a: Tensor, c: float) -> Tensor:
    cc = a.data.dtype.type(c)
    return _op(lambda x: x * cc, (a,), lambda g: (mul_scalar(g, float(cc)),))


def power(a: Tensor, exponent: float) -> Tensor:
    e = a.data.dtype.type(exponent)

    def vjp(g):
        return (mul_scalar(mul(g, power(a, exponent - 1.0)), exponent),)

    return _op(lambda x: x ** e, (a,), vjp)


def exp(a: Tensor) -> Tensor:
    return _op(np.exp, (a,), lambda g: (mul(g, exp(a)),))


def log(a: Tensor) -> Tensor:
    return _op(np.log, (a,), lambda g: (div(g, a),))


def sqrt(a: Tensor) -> Tensor:
    return _op(np.sqrt, (a,), lambda g: (div(g, mul_scalar(sqrt(a), 2.0)),))


def _positive(x: np.ndarray) -> np.ndarray:
    return (x > 0).astype(x.dtype)


def relu(a: Tensor) -> Tensor:
    # The mask is a constant of the graph: correct a.e., and exactly what
    # second order needs (the second derivative of relu is zero away from the
    # kink).  The product keeps the -0.0 of negative inputs.
    return _op(lambda x: x * _positive(x), (a,), lambda g: (mul(g, constant(_positive, a)),))


# ---- shape ops ---------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape
    shape, rank = tuple(shape), len(orig)
    return _op(lambda x: x.reshape(x.shape[:x.ndim - rank] + shape), (a,),
               lambda g: (reshape(g, orig),))


def transpose(a: Tensor, axes=None) -> Tensor:
    rank = a.data.ndim
    full = tuple(reversed(range(rank))) if axes is None else tuple(axes)
    inv = None if axes is None else tuple(int(i) for i in np.argsort(full))

    def kernel(x):
        groups = x.ndim - rank
        return np.ascontiguousarray(x.transpose(tuple(range(groups)) + tuple(groups + i for i in full)))

    return _op(kernel, (a,), lambda g: (transpose(g, inv),))


def _normalize_axes(axes, ndim: int) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    out = tuple(sorted(ax % ndim for ax in axes))
    if len(set(out)) != len(out):
        raise ShapeError(f"duplicate axes {axes}")
    return out


def asum(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    """Sum over the given axes (all by default)."""
    axs = _normalize_axes(axes, a.data.ndim)
    if not axs:
        return _op(_copy, (a,), lambda g: (g,))
    kd_shape = tuple(1 if i in axs else s for i, s in enumerate(a.data.shape))
    full = a.data.shape

    def vjp(g):
        gk = g if keepdims else reshape(g, kd_shape)
        return (expand(gk, full),)

    from_end = tuple(i - len(full) for i in axs)       # the same axes behind any group axes
    return _op(lambda x: np.ascontiguousarray(x).sum(axis=from_end, keepdims=keepdims), (a,), vjp)


def window_sum(x6: Tensor) -> Tensor:
    """[B,C,H,kh,W,kw] -> [B,C,H,W]: the sum over axes 3 and 5, bit for bit
    what ``x6.sum(axis=(3, 5))`` gives, without numpy's slow path for two
    non-adjacent reduction axes.

    numpy adds each window row left to right onto +0, then the rows in
    order; strided adds reproduce that.  When W == 1 numpy coalesces the
    axes, and from kw == 8 on it sums each row pairwise, so those layouts go
    to numpy itself.
    """
    if x6.data.ndim != 6:
        raise ShapeError(f"window_sum: 6-D input required, got {x6.shape}")
    full = x6.data.shape
    kd_shape = full[:3] + (1,) + full[4:5] + (1,)

    def vjp(g):
        return (expand(reshape(g, kd_shape), full),)

    return _op(_window_sum, (x6,), vjp)


def _window_sum(x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x)
    kh, w, kw = x.shape[-3:]
    if w == 1 or kw >= 8:
        return x.sum(axis=(-3, -1))
    data = np.zeros(x.shape[:-3] + x.shape[-2:-1], dtype=x.dtype)
    for i in range(kh):
        row = x[..., i, :, 0].copy()
        for j in range(1, kw):
            row += x[..., i, :, j]
        data += row
    return data


def _broadcast(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # the kernel of `expand`; Recorder.finish drops it before binary ufuncs
    return np.broadcast_to(x, x.shape[:x.ndim - len(shape)] + shape)


_BINARY_UFUNCS = (np.add, np.subtract, np.multiply, np.true_divide)


def expand(a: Tensor, shape) -> Tensor:
    """Broadcast size-1 axes of `a` up to `shape` (same rank, explicit)."""
    shape = tuple(int(s) for s in shape)
    if a.data.ndim != len(shape):
        raise ShapeError(f"expand: rank mismatch {a.shape} -> {shape}")
    exp_axes = []
    for i, (s0, s1) in enumerate(zip(a.data.shape, shape)):
        if s0 != s1:
            if s0 != 1:
                raise ShapeError(f"expand: axis {i} has extent {s0}, cannot expand to {s1}")
            exp_axes.append(i)
    exp_axes = tuple(exp_axes)

    def vjp(g):
        return (asum(g, axes=exp_axes, keepdims=True) if exp_axes else g,)

    return _op(functools.partial(_broadcast, shape=shape), (a,), vjp)


def mean(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axs = _normalize_axes(axes, a.data.ndim)
    count = 1
    for i in axs:
        count *= a.data.shape[i]
    return mul_scalar(asum(a, axes=axs, keepdims=keepdims), 1.0 / count)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: 2-D operands required, got {a.shape} @ {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"matmul: dtypes must match, got {a.data.dtype} vs {b.data.dtype}")

    sa, sb = (a if b.requires_grad else None), (b if a.requires_grad else None)

    def vjp(g):
        return (None if sb is None else matmul(g, transpose(sb)),
                None if sa is None else matmul(transpose(sa), g))

    return _op(_matmul, (a, b), vjp)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a) @ np.ascontiguousarray(b)


def _copy(x: np.ndarray) -> np.ndarray:
    return x.copy()


# ---- patch extraction (convolution support) ----------------------------------


def _conv_geometry(shape, ksize: int, stride: int, padding: int):
    b, c, h, w = shape
    oh, rh = divmod(h + 2 * padding - ksize, stride)
    ow, rw = divmod(w + 2 * padding - ksize, stride)
    if rh or rw or oh < 0 or ow < 0:
        raise ShapeError(f"im2col: size {h}x{w} incompatible with k={ksize} s={stride} p={padding}")
    return b, c, h, w, oh + 1, ow + 1


def im2col(x: Tensor, ksize: int, stride: int = 1, padding: int = 0) -> Tensor:
    """[B,C,H,W] -> [B*OH*OW, C*k*k] patch matrix; linear, adjoint is col2im."""
    b, c, h, w, oh, ow = _conv_geometry(x.data.shape, ksize, stride, padding)

    def kernel(arr):
        # channels-last: k*k strided copies fill [N,OH,OW,C,k,k]; its reshape is free.
        # Group axes join the batch axis: every patch is a copy of its own pixels.
        lead = arr.shape[:-4]
        n = b * math.prod(lead)
        xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=arr.dtype)
        xp[:, padding:padding + h, padding:padding + w] = \
            arr.reshape(n, c, h, w).transpose(0, 2, 3, 1)
        cols = np.empty((n, oh, ow, c, ksize, ksize), dtype=arr.dtype)
        for ki, kj in itertools.product(range(ksize), repeat=2):
            cols[..., ki, kj] = xp[:, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride]
        return cols.reshape(lead + (b * oh * ow, c * ksize * ksize))

    def vjp(g):
        return (col2im(g, (b, c, h, w), ksize, stride, padding),)

    return _op(kernel, (x,), vjp)


def col2im(cols: Tensor, image_shape, ksize: int, stride: int = 1, padding: int = 0) -> Tensor:
    """Adjoint of im2col: scatter-add patches back into [B,C,H,W]."""
    b, c, h, w, oh, ow = _conv_geometry(tuple(image_shape), ksize, stride, padding)
    if cols.data.shape != (b * oh * ow, c * ksize * ksize):
        raise ShapeError(f"col2im: got {cols.shape}, expected {(b * oh * ow, c * ksize * ksize)}")

    def kernel(arr):
        # channels-last adds onto +0, (ki, kj) in row-major order, then one NCHW copy;
        # group axes join the batch axis
        lead = arr.shape[:-2]
        g5 = arr.reshape(-1, oh, ow, c, ksize * ksize)
        buf = np.zeros((g5.shape[0], h + 2 * padding, w + 2 * padding, c), dtype=arr.dtype)
        for ki, kj in itertools.product(range(ksize), repeat=2):
            buf[:, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += g5[..., ki * ksize + kj]
        out = np.ascontiguousarray(buf[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2))
        return out.reshape(lead + (b, c, h, w))

    def vjp(g):
        return (im2col(g, ksize, stride, padding),)

    return _op(kernel, (cols,), vjp)


# ---- parameter containers ----------------------------------------------------


class ParamSet:
    """Ordered, named tensors with a layer-role tag per entry: a model's
    parameters, or one gradient per parameter (`grad` returns one).

    Iteration order is fixed at construction and must be identical across
    clients and rounds; aggregation and checkpointing rely on it.
    """

    ROLES = ("conv", "norm", "linear")

    def __init__(self, entries: Iterable[tuple[str, Tensor, str]]):
        self._names: list[str] = []
        self._tensors: list[Tensor] = []
        self._roles: list[str] = []
        seen = set()
        for name, tensor, role in entries:
            if name in seen:
                raise ShapeError(f"duplicate parameter name {name!r}")
            if role not in self.ROLES:
                raise ShapeError(f"unknown layer role {role!r} for {name!r}")
            seen.add(name)
            self._names.append(name)
            self._tensors.append(tensor)
            self._roles.append(role)

    def __len__(self) -> int:
        return len(self._tensors)

    def __iter__(self):
        return iter(zip(self._names, self._tensors, self._roles))

    def tensors(self) -> list[Tensor]:
        return list(self._tensors)

    def arrays(self) -> list[np.ndarray]:
        """The entries' raw arrays, in order."""
        return [t.data for t in self._tensors]

    def get(self, name: str) -> Tensor:
        return self._tensors[self._names.index(name)]

    def like(self, tensors: Sequence[Tensor]) -> "ParamSet":
        """A set with this set's names and roles over `tensors`, one per
        entry in order, taken as they are: each keeps its `requires_grad`."""
        if len(tensors) != len(self._tensors):
            raise ShapeError(f"{len(tensors)} tensors for {len(self._tensors)} entries")
        out = ParamSet.__new__(ParamSet)
        out._names, out._roles, out._tensors = self._names, self._roles, list(tensors)
        return out

    def clone(self) -> "ParamSet":
        return self.with_data([t.data.copy() for t in self._tensors])

    def with_data(self, arrays: Sequence[np.ndarray]) -> "ParamSet":
        """The same entries over new arrays, one per entry, in order."""
        return self.like([Tensor(a, requires_grad=t.requires_grad)
                          for t, a in zip(self._tensors, arrays)])

    def congruent_with(self, other: "ParamSet") -> None:
        """Raise ShapeError naming the first entry of `other` whose name or
        shape differs from this set's."""
        if len(other) != len(self):
            raise ShapeError(f"{len(other)} entries where {len(self)} are expected")
        for name, t, other_name, u in zip(self._names, self._tensors, other._names, other._tensors):
            if other_name != name or u.data.shape != t.data.shape:
                raise ShapeError(f"entry {other_name!r} of shape {u.shape} does not match "
                                 f"entry {name!r} of shape {t.shape}")


# ---- differentiation ---------------------------------------------------------


def _topo_order(root: _Node) -> list[_Node]:
    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def grad(loss: Tensor, wrt, create_graph: bool = False):
    """Reverse-mode gradients of a scalar `loss` w.r.t. `wrt`.

    `wrt` may be a ParamSet (returns a ParamSet of gradients with its names
    and roles) or a sequence of tensors (returns a list).  Parameters the
    loss does not reach get zero gradients.  With ``create_graph=True`` the
    returned gradients are graph nodes that can be differentiated again; by
    default they are detached constants.
    """
    tensors = wrt.tensors() if isinstance(wrt, ParamSet) else list(wrt)
    if loss.data.size != 1:
        raise GraphError(f"gradient target must be scalar, got shape {loss.shape}")
    for t in tensors:
        if not t.requires_grad:
            raise GraphError("a wrt tensor does not require grad")

    root = _graph_node(loss)
    grads: dict[int, Tensor] = {id(root): Tensor(np.ones(loss.shape, dtype=loss.data.dtype))}
    wrt_ids = {id(t._graph_node) for t in tensors}
    ctx = contextlib.nullcontext() if create_graph else no_grad()
    with ctx:
        for node in reversed(_topo_order(root)):
            g = grads.get(id(node))
            if g is None:
                continue
            if node._vjp is not None:
                parent_grads = node._vjp(g)
                for p, pg in zip(node._parents, parent_grads):
                    if pg is None or not p.requires_grad:
                        continue
                    prev = grads.get(id(p))
                    grads[id(p)] = pg if prev is None else add(prev, pg)
            if id(node) not in wrt_ids:
                grads.pop(id(node), None)

    out: list[Tensor] = []
    for t in tensors:
        g = grads.get(id(t._graph_node))
        if g is None:
            g = Tensor(np.zeros(t.shape, dtype=t.data.dtype))
        if not create_graph:
            g._detached_src = True      # built under no_grad: already without a graph
        out.append(g)
    return wrt.like(out) if isinstance(wrt, ParamSet) else out


def hypergrad(match_loss: Tensor, wrt_inputs: Sequence[Tensor]) -> list[Tensor]:
    """Differentiate a scalar built from gradients w.r.t. the inputs that fed them.

    Requires the inner gradients to have been produced with
    ``grad(..., create_graph=True)``, otherwise the chain to the inputs is cut
    and this raises instead of silently returning zeros.
    """
    wrt_list = list(wrt_inputs)
    for t in wrt_list:
        if not t.requires_grad:
            raise GraphError("hypergrad inputs must require grad")
    if match_loss.data.size != 1:
        raise GraphError(f"hypergrad target must be scalar, got shape {match_loss.shape}")
    ancestors = {id(node) for node in _topo_order(_graph_node(match_loss))}
    if not any(id(t._graph_node) in ancestors for t in wrt_list):
        if match_loss._detached_src:
            raise GraphError(
                "graph was not retained through the inner gradient; "
                "recompute it with grad(..., create_graph=True)")
        return [Tensor(np.zeros(t.shape, dtype=t.data.dtype)) for t in wrt_list]
    return grad(match_loss, wrt_list, create_graph=False)


# ---- record once, replay many ------------------------------------------------


class _NonFinite(Exception):
    pass


def _non_finite(context: str) -> NumericError:
    where = f" in {context}" if context else ""
    return NumericError(f"non-finite values{where}")


def _assert_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise _NonFinite


class Tape:
    """The kernels of one recorded call as a flat list of steps
    (kernel, input slots, output slot, slots to free after it).

    Slot 0 receives the results of `check_finite` steps, slots 1..n the
    inputs; constants, the seeds of `grad` among them, sit in their slots
    from the start.  Each step runs the same kernel on the same values as the
    interpreter did (an elided `expand` leaves the broadcast to its readers),
    so a replay is bitwise equal to interpreting the call again."""

    def __init__(self, template: list, n_inputs: int, steps: list, outputs: list):
        self._template = template
        self._n_inputs = n_inputs
        self._steps = steps
        self._outputs = outputs
        self.replays = 0

    def run(self, inputs: Sequence, context: str = "") -> list:
        """The outputs for new input arrays.  A failed `check_finite` step
        raises the interpreter's NumericError, naming `context`."""
        if len(inputs) != self._n_inputs:
            raise GraphError(f"tape takes {self._n_inputs} inputs, got {len(inputs)}")
        self.replays += 1
        slots = list(self._template)
        slots[1:1 + self._n_inputs] = inputs
        try:
            for kernel, ins, out, dead in self._steps:
                slots[out] = kernel(*[slots[i] for i in ins])
                for i in dead:
                    slots[i] = None
        except _NonFinite:
            raise _non_finite(context) from None
        return [slots[i].copy() if copy else slots[i] for i, copy in self._outputs]


def tape_call(tapes: dict, kind: str, inputs: list, record: Callable, context: str = "",
              k: int = 1, shared: int = 0) -> list:
    """The outputs of one taped call for a group of `k` members.

    `inputs` holds the call's arrays: the first `shared` serve every member,
    the others hold one slice per member on a leading axis when k > 1.  The
    tape is kept in `tapes` under `kind` and member 0's shapes, dtypes and
    grad mode.  When it is missing, `record(arrays)` interprets member 0 over
    its own arrays and returns the tensors to output, and the tape is
    recorded from that call.  The group then replays the tape once, its
    outputs stacked on the member axis; a group of one returns the recorded
    call's values.  A failed `check_finite` step raises NumericError naming
    `context`."""
    first = inputs if k == 1 else inputs[:shared] + [a[0] for a in inputs[shared:]]
    key = (kind, tuple((a.shape, a.dtype) for a in first), _recording())
    tape = tapes.get(key)
    if tape is None:
        with Recorder(first) as rec:
            outputs = record(first)
        tapes[key] = tape = rec.finish(outputs)
        if k == 1:
            return [t.data for t in outputs]
        del outputs              # frees the recorded call's graph before the group replays
    return tape.run(inputs, context)


def by_member(run: Callable[[list], object], members: list):
    """`run(members)`, the members stacked; after a NumericError, `run([m])`
    for each member in order, so that the error raised names the first
    member that fails on its own."""
    try:
        return run(members)
    except NumericError:
        for member in members:
            run([member])
        raise


class Recorder:
    """Records the kernels that the ops inside a ``with`` block run.

    `inputs` are the arrays that change from call to call: a leaf whose data
    is one of them becomes that input; any other leaf is captured as a
    constant.  `finish` drops the steps no output needs (such as VJP outputs
    for parents that need no gradient) and the expands its readers can
    broadcast themselves, schedules each slot's release after its last use,
    and returns the `Tape`.  Recorders do not nest."""

    _serials = itertools.count(1)

    def __init__(self, inputs: Sequence):
        self._serial = next(Recorder._serials)
        self._inputs = list(inputs)
        self._steps: list[tuple] = []
        self._consts: dict[int, object] = {}
        self._n_slots = 1 + len(self._inputs)

    def __enter__(self) -> "Recorder":
        if _recorder() is not None:
            raise GraphError("recorders do not nest")
        _state.recorder = self
        return self

    def __exit__(self, *exc):
        _state.recorder = None
        return False

    def _slot(self, t: Tensor) -> int:
        tag = getattr(t, "_slot", None)
        if tag is not None and tag[0] == self._serial:
            return tag[1]
        idx = next((1 + i for i, arr in enumerate(self._inputs) if t.data is arr), None)
        if idx is None:
            idx = self._n_slots
            self._n_slots += 1
            self._consts[idx] = t.data
        t._slot = (self._serial, idx)
        return idx

    def step(self, kernel: Callable, inputs: Sequence[Tensor], out: Tensor | None) -> None:
        serial = self._serial
        ins = tuple([tag[1] if (tag := getattr(t, "_slot", None)) is not None and tag[0] == serial
                     else self._slot(t) for t in inputs])
        slot = 0
        if out is not None:
            slot = self._n_slots
            self._n_slots += 1
            out._slot = (self._serial, slot)
        self._steps.append((kernel, ins, slot))

    def finish(self, outputs: Sequence[Tensor]) -> Tape:
        outs = [self._slot(t) for t in outputs]
        keep = set(outs)
        live = keep | {0}
        kept = []
        for step in reversed(self._steps):
            if step[2] in live:
                live.update(step[1])
                kept.append(step)
        kept.reverse()
        kept = self._elide_expands(kept, keep)

        # a slot that a step produced is released after its last reader
        last_use = {}
        for i, (_, ins, _) in enumerate(kept):
            for slot in ins:
                last_use[slot] = i
        fixed, consts = 1 + len(self._inputs), self._consts
        dead: list[list[int]] = [[] for _ in kept]
        for slot, i in last_use.items():
            if slot >= fixed and slot not in consts and slot not in keep:
                dead[i].append(slot)
        steps = [(kernel, ins, out, tuple(d)) for (kernel, ins, out), d in zip(kept, dead)]

        template: list = [None] * self._n_slots
        for slot, value in consts.items():
            template[slot] = value
        # an output that is or views a constant is copied on each replay
        flagged = [(slot, any(np.may_share_memory(t.data, c) for c in consts.values()))
                   for slot, t in zip(outs, outputs)]
        return Tape(template, len(self._inputs), steps, flagged)

    @staticmethod
    def _elide_expands(kept: list, keep: set) -> list:
        """Drop each `expand` step that is no tape output and whose every
        reader is a binary ufunc whose other operand (of the full shape, as
        binary ops are strict) is not itself an elided expand; its readers
        take the un-expanded array and broadcast it to the same values."""
        expands = {out: ins[0] for kernel, ins, out in kept
                   if type(kernel) is functools.partial and kernel.func is _broadcast
                   and out not in keep}
        readers: dict[int, list[int]] = {out: [] for out in expands}
        for i, (_, ins, _) in enumerate(kept):
            for slot in ins:
                if slot in readers:
                    readers[slot].append(i)
        source: dict[int, int] = {}
        for out, src in expands.items():
            if all(kept[i][0] in _BINARY_UFUNCS and kept[i][1].count(out) == 1
                   and kept[i][1][1 - kept[i][1].index(out)] not in source for i in readers[out]):
                source[out] = src
        if not source:
            return kept
        rewired = {i for out in source for i in readers[out]}
        return [(kernel, tuple([source.get(s, s) for s in ins]) if i in rewired else ins, out)
                for i, (kernel, ins, out) in enumerate(kept) if out not in source]
