"""Reverse-mode automatic differentiation over dense numpy arrays.

Every piece of model math goes through :func:`apply_primitive`.  While a
:class:`Tape` is active, each application is recorded (op kind, input node
ids, output node id, attributes), so :func:`backprop` can walk the tape
backwards and return exact gradients for every watched leaf.  Without an
active tape the same primitives behave as plain functions, which is what
the decoders use at inference time.

Each primitive kind declares which of its values (input positions, its
output) its backward rule reads.  The tape keeps the array of a node only
when some entry reads it; every other node holds a read-only zero-stride
stand-in of its shape, so a forward pass holds only what backward needs.

Training math is float64 throughout; checkpoints narrow values to float32
on disk (see ``checkpoint``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "TapeEntry",
    "IndexedGrad",
    "ParameterStore",
    "ShapeMismatch",
    "UnknownPrimitive",
    "NonFiniteValue",
    "apply_primitive",
    "register_primitive",
    "recording",
    "wrap",
    "sigmoid_array",
    "linear_array",
    "softmax_array",
    "conv1d_array",
    "embedding_array",
    "backprop",
    "adam_update",
    "gradient_check",
    "concat",
    "conv1d",
    "dropout",
    "embedding",
    "linear",
    "log",
    "pick",
    "reshape",
    "sigmoid",
    "slice_axis",
    "softmax",
    "stack",
    "tsum",
    "tanh",
    "transpose",
]


class ShapeMismatch(ValueError):
    """Input shapes violate a primitive's contract."""


class UnknownPrimitive(ValueError):
    """No primitive is registered under the requested id."""


class NonFiniteValue(ArithmeticError):
    """A function value probed during gradient checking was NaN or infinite."""


class Tensor:
    """Dense float64 array: row-major, except the matrices a decoder loads
    column-major (``checkpoint.load_checkpoint(path, order="F")``).

    Tensors are treated as immutable values: primitives always allocate new
    outputs, so tensors are safe to share between tapes and threads.
    ``Tensor(data)`` converts data from outside to float64; :func:`wrap`
    holds a float64 array as it is.
    """

    __slots__ = ("data", "__weakref__")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

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
        return float(self.data.reshape(()))

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, key) -> "Tensor":
        """``x[i]`` or ``x[start:stop:step]`` on axis 0, recorded as one ``slice``."""
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            return apply_primitive("slice", (self,), axis=0, start=start, stop=stop, step=step)
        if not -len(self) <= key < len(self):
            raise IndexError(f"index {key} out of range for axis 0 of length {len(self)}")
        return apply_primitive("slice", (self,), axis=0, index=key)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return apply_primitive("add", (self, other))

    def __mul__(self, other: "Tensor") -> "Tensor":
        return apply_primitive("mul", (self, other))

    def __neg__(self) -> "Tensor":
        return apply_primitive("scale", (self,), alpha=-1.0)

    def scaled(self, alpha: float) -> "Tensor":
        return apply_primitive("scale", (self,), alpha=float(alpha))


@dataclass
class TapeEntry:
    """One recorded primitive application."""

    kind: str
    inputs: tuple[int, ...]
    output: int
    attrs: dict


_ACTIVE: Optional["Tape"] = None


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Entries are appended in execution order, so every input node id of
    entry ``k`` was produced by an earlier entry or is a leaf.  A tape has
    a single writer: one training step owns one tape.

    ``values[node]`` is the node's array when a backward rule reads it (see
    :func:`register_primitive`); otherwise it is a read-only zero-stride
    stand-in of the same shape and dtype, so rules that need only a shape,
    and ``zeros_like`` in :func:`backprop`, work unchanged.  A node first
    stored as a stand-in gets its array back when a later entry that reads
    it binds it.  The tape holds no Tensor: it maps each bound Tensor to its
    node through a weak reference, so a dead Tensor frees its array and a
    new Tensor that reuses its ``id`` gets a node of its own.
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self.values: list[np.ndarray] = []
        self._node_of: dict[int, tuple[weakref.ref, int]] = {}
        self._watched: dict[str, int] = {}
        self._prev: Optional[Tape] = None

    def __enter__(self) -> "Tape":
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = self._prev
        self._prev = None

    def _bind(self, tensor: Tensor, keep: bool) -> int:
        node = self.node_of(tensor)
        if node is None:
            node = len(self.values)
            self.values.append(tensor.data if keep else _stand_in(tensor.data))
            self._node_of[id(tensor)] = (weakref.ref(tensor), node)
        elif keep:
            self.values[node] = tensor.data
        return node

    def node_of(self, tensor: Tensor) -> Optional[int]:
        held = self._node_of.get(id(tensor))
        return held[1] if held is not None and held[0]() is tensor else None

    def watch(self, name: str, tensor: Tensor) -> None:
        """Register a named leaf whose gradient backprop should report."""
        self._watched[name] = self._bind(tensor, keep=False)


def recording() -> bool:
    """Whether a tape is recording: primitives applied now are taped."""
    return _ACTIVE is not None


_ZERO = bytes(8)  # one float64 zero, read-only: the buffer of every stand-in


def _stand_in(data: np.ndarray) -> np.ndarray:
    """A read-only zero-stride array of ``data``'s shape (Tensor data is float64)."""
    return np.ndarray(data.shape, np.float64, _ZERO, 0, (0,) * data.ndim)


OUT = "out"  # names a primitive's output in its ``reads`` declaration


@dataclass(frozen=True)
class Primitive:
    forward: Callable[[list, dict], np.ndarray]
    backward: Callable[[np.ndarray, list, np.ndarray, dict], list]
    reads: Optional[tuple] = None  # input positions and OUT; None: every value


_PRIMITIVES: dict[str, Primitive] = {}
_new_tensor = object.__new__  # a Tensor without Tensor.__init__'s conversion
_FLOAT64 = np.dtype(np.float64)


def wrap(data: np.ndarray) -> Tensor:
    """A Tensor holding the float64 ndarray ``data`` as it is, without the
    conversion of ``Tensor(data)``; the caller gives up writing ``data``."""
    out = _new_tensor(Tensor)
    out.data = data
    return out


def register_primitive(kind: str, forward, backward, reads=None) -> None:
    """Register (or override) a primitive. Exposed so tests can install
    deliberately broken backward rules.

    ``reads`` lists the values the backward rule reads: input positions and
    :data:`OUT` for the output.  A taped application keeps only those
    arrays; the rule sees a zero-stride stand-in of the right shape for
    every other value.  Without ``reads`` every value is kept.

    ``forward`` returns a float64 ndarray, which the output Tensor holds as
    it is; any other result (a numpy scalar, another dtype) is converted."""
    _PRIMITIVES[kind] = Primitive(forward, backward, reads)


def apply_primitive(kind: str, inputs: Sequence[Tensor], **attrs) -> Tensor:
    """Apply a registered primitive, recording it on the active tape."""
    prim = _PRIMITIVES.get(kind)
    if prim is None:
        raise UnknownPrimitive(f"unknown primitive id: {kind!r}")
    data = prim.forward([t.data for t in inputs], attrs)
    if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
        data = np.asarray(data, dtype=np.float64)  # a rule's scalar or other dtype
    out = _new_tensor(Tensor)  # wrap(data), inlined on the dispatch path
    out.data = data
    tape = _ACTIVE
    if tape is not None:
        reads = prim.reads
        in_nodes = tuple(tape._bind(t, reads is None or i in reads) for i, t in enumerate(inputs))
        out_node = tape._bind(out, reads is None or OUT in reads)
        tape.entries.append(TapeEntry(kind, in_nodes, out_node, attrs))
    return out


class IndexedGrad(NamedTuple):
    """A backward result that touches part of its input: ``dx[index] += value``.
    ``index`` names each element at most once."""

    index: tuple
    value: np.ndarray


def backprop(tape: Tape, loss: Tensor) -> dict[str, Tensor]:
    """Gradient of a scalar tape output with respect to every watched leaf.

    Leaves not reachable from the loss get zero gradients.  A node keeps
    the first gradient that reaches it as it is; from the second on it sums
    into one buffer that backprop allocated itself, so arrays it did not
    allocate (tape values, views handed out by backward rules) are never
    written.
    """
    node = tape.node_of(loss) if isinstance(loss, Tensor) else loss
    if node is None or not isinstance(node, int) or not 0 <= node < len(tape.values):
        raise ValueError("loss node is not on the tape")
    if tape.values[node].size != 1:
        raise ValueError(f"loss node must be scalar, got shape {tape.values[node].shape}")

    grads: dict[int, np.ndarray] = {node: np.ones_like(tape.values[node])}
    owned: set[int] = set()  # nodes whose buffer backprop allocated
    for entry in reversed(tape.entries):
        g = grads.pop(entry.output, None)
        if g is None:
            continue
        owned.discard(entry.output)
        prim = _PRIMITIVES[entry.kind]
        ins = [tape.values[i] for i in entry.inputs]
        for node_id, gi in zip(entry.inputs, prim.backward(g, ins, tape.values[entry.output], entry.attrs)):
            if gi is None:
                continue
            acc = grads.get(node_id)
            if isinstance(gi, IndexedGrad):
                if node_id not in owned:
                    acc = np.zeros_like(tape.values[node_id]) if acc is None else acc.copy()
                    grads[node_id] = acc
                    owned.add(node_id)
                acc[gi.index] += gi.value
            elif acc is None:
                grads[node_id] = gi
            elif node_id in owned:
                acc += gi
            else:
                grads[node_id] = acc + gi
                owned.add(node_id)

    out: dict[str, Tensor] = {}
    for name, node_id in tape._watched.items():
        g = grads.get(node_id)
        out[name] = Tensor(np.zeros_like(tape.values[node_id])) if g is None else Tensor(g)
    return out


# ---------------------------------------------------------------------------
# primitive definitions


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _add_fwd(d, a):
    try:
        return d[0] + d[1]
    except ValueError:
        raise ShapeMismatch(
            f"add: shapes {d[0].shape} and {d[1].shape} do not broadcast") from None


def _add_bwd(g, d, out, a):
    return [_unbroadcast(g, d[0].shape), _unbroadcast(g, d[1].shape)]


def _mul_fwd(d, a):
    try:
        return d[0] * d[1]
    except ValueError:
        raise ShapeMismatch(
            f"mul: shapes {d[0].shape} and {d[1].shape} do not broadcast") from None


def _mul_bwd(g, d, out, a):
    x, y = d
    return [_unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)]


def _scale_fwd(d, a):
    return d[0] * a["alpha"]


def _scale_bwd(g, d, out, a):
    return [g * a["alpha"]]


def linear_array(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`linear` on plain arrays, untaped: the ``matmul`` rule's checks
    and operations."""
    stacked = w.ndim == 3  # [D, out, in]: one product per leading index of an [D, n, in] input
    if x.ndim == 0 or w.ndim == 0 or w.ndim > 3 or stacked and (x.ndim != 3 or len(x) != len(w)):
        raise ShapeMismatch(f"matmul: unsupported operand ranks {x.shape} by weight {w.shape}")
    if x.shape[-1] != w.shape[-1]:
        raise ShapeMismatch(f"matmul: input width differs from the weight's, {x.shape} by {w.shape}")
    shape = x.shape[:-1] + w.shape[1 if stacked else 0:-1]
    if b is not None and b.shape not in (w.shape[:-1], shape):
        raise ShapeMismatch(f"matmul: bias {b.shape} is neither the weight's output shape "
                            f"{w.shape[:-1]} nor the output's {shape}")
    if stacked:
        out = np.matmul(x, w.swapaxes(-1, -2))
        if b is not None and b.shape != shape:
            b = b[:, None]  # one [out] bias per leading index
    elif x.ndim == 2 and w.ndim == 2:
        out = x @ w.T  # the fold below is the identity here
    else:
        out = (x.reshape(-1, x.shape[-1]) @ w.T).reshape(shape)
    if b is not None:
        out += b  # the GEMM's fresh output: the entry keeps one array
    return out


def _matmul_fwd(d, a):
    return linear_array(*d)


def _matmul_bwd(g, d, out, a):
    x, w, *bias = d
    if w.ndim == 3:
        dx, dw = np.matmul(g, w), np.matmul(g.swapaxes(-1, -2), x)
        return [dx, dw, *(g if b.shape == g.shape else g.sum(axis=1) for b in bias)]
    if x.ndim == 2 and w.ndim == 2:
        dx, dw = g @ w, g.T @ x
    else:
        w2 = w.reshape(-1, w.shape[-1])  # an [in] vector as [1, in]
        g2 = g.reshape(-1, len(w2))
        dx, dw = (g2 @ w2).reshape(x.shape), (g2.T @ x.reshape(-1, x.shape[-1])).reshape(w.shape)
    return [dx, dw, *(_unbroadcast(g, b.shape) for b in bias)]


def _transpose_fwd(d, a):
    x = d[0]
    if x.ndim < 2:
        raise ShapeMismatch(f"transpose: needs rank >= 2, got {x.shape}")
    return np.swapaxes(x, -1, -2)


def _transpose_bwd(g, d, out, a):
    return [np.swapaxes(g, -1, -2)]


def _reshape_fwd(d, a):
    return d[0].reshape(a["shape"])


def _reshape_bwd(g, d, out, a):
    return [g.reshape(d[0].shape)]


def _tanh_fwd(d, a):
    return np.tanh(d[0])


def _tanh_bwd(g, d, out, a):
    return [g * (1.0 - out * out)]


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid of an array by the tanh identity, overflow-free
    and cheaper than guarding exp: 0.5 * tanh(0.5 * x) + 0.5, operation by
    operation, in one fresh buffer."""
    out = np.asarray(0.5 * x)  # an array also when x is 0-d
    np.tanh(out, out)
    out *= 0.5
    out += 0.5
    return out


def _sigmoid_fwd(d, a):
    return sigmoid_array(d[0])


def _sigmoid_bwd(g, d, out, a):
    return [g * out * (1.0 - out)]


def softmax_array(x: np.ndarray) -> np.ndarray:
    """:func:`softmax` on a plain array, untaped: the ``softmax`` rule."""
    if x.ndim == 0:
        raise ShapeMismatch("softmax: needs at least one axis")
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_fwd(d, a):
    return softmax_array(d[0])


def _softmax_bwd(g, d, out, a):
    inner = (g * out).sum(axis=-1, keepdims=True)
    dx = g - inner
    dx *= out
    return [dx]


def _log_fwd(d, a):
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.log(d[0])


def _log_bwd(g, d, out, a):
    return [g / d[0]]


def _sum_fwd(d, a):
    return np.asarray(d[0].sum(axis=a.get("axis")))


def _sum_bwd(g, d, out, a):
    axis = a.get("axis")
    x = d[0]
    if axis is None:
        return [np.broadcast_to(g.reshape(()), x.shape)]
    return [np.broadcast_to(np.expand_dims(g, axis), x.shape)]


def _concat_fwd(d, a):
    if not d:
        raise ShapeMismatch("concat: needs at least one input")
    lead = d[0].shape[:-1]
    for x in d:
        if x.shape[:-1] != lead:
            raise ShapeMismatch(f"concat: leading shapes differ, {d[0].shape} vs {x.shape}")
    return np.concatenate(d, axis=-1)


def _concat_bwd(g, d, out, a):
    grads = []
    pos = 0
    for x in d:
        w = x.shape[-1]
        grads.append(g[..., pos:pos + w])
        pos += w
    return grads


def _stack_fwd(d, a):
    shape = d[0].shape
    for x in d:
        if x.shape != shape:
            raise ShapeMismatch(f"stack: shapes differ, {shape} vs {x.shape}")
    return np.stack(d, axis=0)


def _stack_bwd(g, d, out, a):
    return [g[i] for i in range(len(d))]


def _slice_index(x, a) -> tuple:
    axis = a["axis"]
    if not -x.ndim <= axis < x.ndim:
        raise ShapeMismatch(f"slice: axis {axis} out of range for shape {x.shape}")
    sel = a["index"] if "index" in a else slice(a["start"], a["stop"], a.get("step"))
    return (slice(None),) * (axis % x.ndim) + (sel,)


def _slice_fwd(d, a):
    return d[0][_slice_index(d[0], a)]


def _slice_bwd(g, d, out, a):
    return [IndexedGrad(_slice_index(d[0], a), g)]


def _windows(x: np.ndarray, k: int) -> np.ndarray:
    """[..., n, k] windows over the last axis of ``x``, zero-padded by (k - 1) / 2 on each side."""
    half, n = (k - 1) // 2, x.shape[-1]
    padded = np.zeros(x.shape[:-1] + (n + 2 * half,))
    padded[..., half:half + n] = x
    return np.ndarray(x.shape[:-1] + (n, k), np.float64, padded, 0, padded.strides + padded.strides[-1:])


def conv1d_array(signal: np.ndarray, filt: np.ndarray) -> np.ndarray:
    """:func:`conv1d` on plain arrays, untaped: the ``conv1d`` rule's checks
    and operations."""
    if filt.ndim != 1:
        raise ShapeMismatch(f"conv1d: filter must be one-dimensional, got {filt.shape}")
    if filt.shape[0] % 2 != 1:
        raise ShapeMismatch(f"conv1d: filter length must be odd, got {filt.shape[0]}")
    return _windows(signal, filt.shape[0]) @ filt[::-1]


def _conv1d_fwd(d, a):
    return conv1d_array(*d)


def _conv1d_bwd(g, d, out, a):
    signal, filt = d
    axes = tuple(range(g.ndim))
    # the signal's gradient is g convolved with the reversed filter; the
    # filter's, reversed, is copied out of its negative-stride view
    dfilt = np.tensordot(g, _windows(signal, len(filt)), (axes, axes))[::-1].copy()
    return [conv1d_array(g, filt[::-1]), dfilt]


def embedding_array(table: np.ndarray, ids) -> np.ndarray:
    """:func:`embedding` on a plain table, untaped: the ``embedding`` rule's
    checks (a negative id is out of range too) and lookup."""
    ids = np.asarray(ids, dtype=np.intp)
    if table.ndim != 2:
        raise ShapeMismatch(f"embedding-lookup: table must be 2-d, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[1]):
        raise ShapeMismatch(
            f"embedding-lookup: token id out of range for table with {table.shape[1]} columns"
        )
    return table.T[ids]  # ids.shape + (n,)


def _embedding_fwd(d, a):
    return embedding_array(d[0], a["ids"])


def _embedding_bwd(g, d, out, a):
    # one column per distinct id, summed in row order before it meets the table
    ids, inverse = np.unique(np.asarray(a["ids"]).reshape(-1), return_inverse=True)
    columns = np.zeros((d[0].shape[0], ids.size))
    np.add.at(columns.T, inverse, g.reshape(-1, g.shape[-1]))
    return [IndexedGrad((slice(None), ids), columns)]


def _dropout_fwd(d, a):
    x = d[0]
    mask = a["mask"]
    if mask.shape != x.shape:
        raise ShapeMismatch(f"dropout: mask shape {mask.shape} != input shape {x.shape}")
    return x * mask


def _dropout_bwd(g, d, out, a):
    return [g * a["mask"]]


def _pick_fwd(d, a):
    x = d[0]
    ids = np.asarray(a["ids"])
    if x.ndim != 2 or ids.ndim != 1 or ids.shape[0] != x.shape[0]:
        raise ShapeMismatch(f"pick: expected ({ids.shape[0]}, V) input, got {x.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= x.shape[1]):
        raise ShapeMismatch(f"pick: column id out of range for shape {x.shape}")
    return x[np.arange(x.shape[0]), ids]


def _pick_bwd(g, d, out, a):
    return [IndexedGrad((np.arange(d[0].shape[0]), np.asarray(a["ids"])), g)]


register_primitive("add", _add_fwd, _add_bwd, reads=())
register_primitive("mul", _mul_fwd, _mul_bwd, reads=(0, 1))
register_primitive("scale", _scale_fwd, _scale_bwd, reads=())
register_primitive("matmul", _matmul_fwd, _matmul_bwd, reads=(0, 1))
register_primitive("transpose", _transpose_fwd, _transpose_bwd, reads=())
register_primitive("reshape", _reshape_fwd, _reshape_bwd, reads=())
register_primitive("tanh", _tanh_fwd, _tanh_bwd, reads=(OUT,))
register_primitive("sigmoid", _sigmoid_fwd, _sigmoid_bwd, reads=(OUT,))
register_primitive("softmax", _softmax_fwd, _softmax_bwd, reads=(OUT,))
register_primitive("log", _log_fwd, _log_bwd, reads=(0,))
register_primitive("sum", _sum_fwd, _sum_bwd, reads=())
register_primitive("concat", _concat_fwd, _concat_bwd, reads=())
register_primitive("stack", _stack_fwd, _stack_bwd, reads=())
register_primitive("slice", _slice_fwd, _slice_bwd, reads=())
register_primitive("conv1d", _conv1d_fwd, _conv1d_bwd, reads=(0, 1))
register_primitive("embedding", _embedding_fwd, _embedding_bwd, reads=())
register_primitive("dropout", _dropout_fwd, _dropout_bwd, reads=())
register_primitive("pick", _pick_fwd, _pick_bwd, reads=())


# thin wrappers so model code reads naturally


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """``x`` [..., in], its leading axes the rows of one GEMM, times the weight
    as stored: ``x @ w.T`` for an [out, in] matrix, ``x @ w`` for an [in] vector;
    plus the bias ``b``, if given, inside the same tape entry, added in place to
    the GEMM's fresh output.  ``b`` has the weight's output shape [out] or the
    whole output's shape [..., out]; nothing else broadcasts.  A stacked
    [D, out, in] weight takes a [D, n, in] input, one GEMM per leading index,
    and a [D, out] bias, one [out] vector per leading index, or one of the
    whole output's shape."""
    return apply_primitive("matmul", (x, w) if b is None else (x, w, b))


def tanh(x: Tensor) -> Tensor:
    return apply_primitive("tanh", (x,))


def sigmoid(x: Tensor) -> Tensor:
    return apply_primitive("sigmoid", (x,))


def softmax(x: Tensor) -> Tensor:
    return apply_primitive("softmax", (x,))


def log(x: Tensor) -> Tensor:
    return apply_primitive("log", (x,))


def tsum(x: Tensor, axis: Optional[int] = None) -> Tensor:
    return apply_primitive("sum", (x,), axis=axis)


def concat(parts: Sequence[Tensor]) -> Tensor:
    return apply_primitive("concat", tuple(parts))


def stack(parts: Sequence[Tensor]) -> Tensor:
    return apply_primitive("stack", tuple(parts))


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    return apply_primitive("slice", (x,), axis=axis, start=start, stop=stop)


def transpose(x: Tensor) -> Tensor:
    return apply_primitive("transpose", (x,))


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    return apply_primitive("reshape", (x,), shape=tuple(shape))


def conv1d(signal: Tensor, filt: Tensor) -> Tensor:
    return apply_primitive("conv1d", (signal, filt))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    return apply_primitive("embedding", (table,), ids=np.asarray(ids, dtype=np.intp))


def dropout(x: Tensor, mask: np.ndarray) -> Tensor:
    return apply_primitive("dropout", (x,), mask=mask)


def pick(x: Tensor, ids: np.ndarray) -> Tensor:
    return apply_primitive("pick", (x,), ids=np.asarray(ids, dtype=np.intp))


# ---------------------------------------------------------------------------
# parameters and the Adam rule


class ParameterStore:
    """Named trainable tensors plus their Adam moment buffers.

    The unit of checkpointing: values, both moments and the global step
    counter round-trip through checkpoint files.  Updates replace parameter
    arrays rather than mutating them, so tensors handed out earlier stay
    valid; the moment buffers belong to the store and are updated in place.
    The buffers are built on first use, so a store that only decodes never
    allocates them.
    """

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}
        # None (zeros) or the arrays given to set_moments, until first use
        self._m1: dict[str, Optional[np.ndarray]] = {}
        self._m2: dict[str, Optional[np.ndarray]] = {}
        self.step = 0

    def add(self, name: str, value) -> None:
        """Adds ``value`` converted to float64; a float64 array is kept as
        it is, in its memory order."""
        if name in self._values:
            raise ValueError(f"parameter {name!r} already exists")
        self._values[name] = np.asarray(value, dtype=np.float64)
        self._m1[name] = self._m2[name] = None

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def names(self) -> list[str]:
        return list(self._values)

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def set_value(self, name: str, value: np.ndarray) -> None:
        if value.shape != self._values[name].shape:
            raise ShapeMismatch(f"parameter {name!r}: shape {value.shape} != {self._values[name].shape}")
        self._values[name] = np.asarray(value, dtype=np.float64)

    def moments(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The two moment buffers, writable float64."""
        for buffers in (self._m1, self._m2):
            held = buffers[name]
            buffers[name] = (np.zeros_like(self._values[name]) if held is None
                             else np.require(held, np.float64, "W"))
        return self._m1[name], self._m2[name]

    def held_moments(self, name: str) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """The two moments as held, without building them: None until built or set."""
        return self._m1[name], self._m2[name]

    def set_moments(self, name: str, m1: np.ndarray, m2: np.ndarray) -> None:
        """The store takes the arrays as its buffers (copied on first use
        when they are not writable float64)."""
        self._m1[name], self._m2[name] = m1, m2

    def as_tensors(self) -> dict[str, Tensor]:
        return {name: Tensor(arr) for name, arr in self._values.items()}

    def watch(self, tape: Tape) -> dict[str, Tensor]:
        tensors = self.as_tensors()
        for name, t in tensors.items():
            tape.watch(name, t)
        return tensors


def adam_update(
    store: ParameterStore,
    grads: dict,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> ParameterStore:
    """One Adam step with bias correction. Parameters without a gradient
    entry are untouched; the step counter advances by exactly one.  The
    moments are updated in place, parameters replaced."""
    for name, grad in grads.items():
        if name not in store:
            raise KeyError(f"gradient for unknown parameter {name!r}")
        g = grad.data if isinstance(grad, Tensor) else np.asarray(grad, dtype=np.float64)
        if g.shape != store._values[name].shape:
            raise ShapeMismatch(
                f"adam: gradient shape {g.shape} != parameter shape "
                f"{store._values[name].shape} for {name!r}"
            )
    store.step += 1
    c1 = 1.0 - beta1 ** store.step
    c2 = 1.0 - beta2 ** store.step
    for name, grad in grads.items():
        g = grad.data if isinstance(grad, Tensor) else np.asarray(grad, dtype=np.float64)
        m, v = store.moments(name)
        # value - lr * (m / c1) / (sqrt(v / c2) + eps), operation by operation
        # as written, through one scratch buffer and the new value's array
        scratch = np.multiply(g, 1.0 - beta1, out=np.empty_like(m))
        m *= beta1
        m += scratch
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - beta2
        v *= beta2
        v += scratch
        np.divide(v, c2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += eps
        update = np.divide(m, c1, out=np.empty_like(m))
        update *= learning_rate
        update /= scratch
        store._values[name] = np.subtract(store._values[name], update, out=update)
    return store


def gradient_check(f, point: dict, epsilon: float = 1e-5) -> float:
    """Max relative error between tape gradients of ``f`` and central
    differences over every coordinate of ``point``.

    ``f`` maps a dict of named Tensors to a scalar Tensor and must be
    evaluable at every +/- epsilon perturbation.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    # C order: each probe writes through ``reshape(-1)``, a view only then
    work = {name: np.array(t.data if isinstance(t, Tensor) else t, dtype=np.float64, order="C")
            for name, t in point.items()}

    tape = Tape()
    with tape:
        tensors = {}
        for name, arr in work.items():
            t = Tensor(arr.copy())
            tape.watch(name, t)
            tensors[name] = t
        loss = f(tensors)
    if not np.isfinite(loss.data).all():
        raise NonFiniteValue("function value is not finite at the evaluation point")
    analytic = backprop(tape, loss)

    def evaluate() -> float:
        out = f({name: Tensor(arr) for name, arr in work.items()})
        val = float(out.data.reshape(()))
        if not np.isfinite(val):
            raise NonFiniteValue("function value is not finite at a probe point")
        return val

    max_err = 0.0
    for name, arr in work.items():
        grad = analytic[name].data
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + epsilon
            fp = evaluate()
            flat[i] = orig - epsilon
            fm = evaluate()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * epsilon)
            err = abs(gflat[i] - numeric) / max(1e-8, abs(gflat[i]) + abs(numeric))
            if err > max_err:
                max_err = err
    return max_err
