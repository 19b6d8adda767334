"""The model's one LSTM recurrence, bidirectional layers, and the encoder stacks.

The text encoder is two stacked bidirectional layers.  The speech encoder
adds a two-layer tanh prenet over the 41-dim feature frames and a third
bidirectional layer; its 2nd and 3rd layers read every other output of the
layer below, shortening the sequence by 4x overall.  Both stacks read the
resolved ``RunConfig``: its ``enc_layers``, ``dropout`` and ``stride``.

Sequences travel between layers as one time-major [T, B, dim] block with a
per-row length vector.  Inside a layer the recurrence runs packed, as
cuDNN and PyTorch run variable-length batches: :func:`packing` sorts the
rows by length once, longest first, and lays the real positions out step
by step, so each step computes only its live rows, a prefix of the sorted
rows, and padded positions are never computed.  A bidirectional layer
runs its two directions as one recurrence stacked on a leading direction
axis, the backward direction reading each row's real steps in reverse
order, so both share each step's live prefix.  A layer's output block is
zero at padded positions; attention skips them.

The recurrence has two forms: :func:`run_lstm`, the primitive chain a tape
records, and :func:`_lstm_arrays`, the same numpy operations on plain
arrays that every untaped pass runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import RunConfig


@dataclass
class LstmCellParams:
    """Gate order along the first axis: input, forget, candidate, output."""

    wx: Tensor  # [4m, input_dim]
    wh: Tensor  # [4m, m]
    b: Tensor   # [4m]


def _cell_update(gates: Tensor, c: Optional[Tensor]):
    """(c', h') from the [B, 4m] gate pre-activations: one sigmoid for the
    whole block, tanh on its candidate slice.  ``c`` None is the zero
    state, whose f * c term is skipped rather than multiplied out."""
    m = gates.shape[-1] // 4
    act = ad.sigmoid(gates)  # the candidate slice of this block goes unused
    i, o = ad.slice_axis(act, -1, 0, m), ad.slice_axis(act, -1, 3 * m, 4 * m)
    g = ad.tanh(ad.slice_axis(gates, -1, 2 * m, 3 * m))
    c_new = i * g if c is None else (ad.slice_axis(act, -1, m, 2 * m) * c) + (i * g)
    return c_new, o * ad.tanh(c_new)


@dataclass(frozen=True)
class Packing:
    """The packed layout of a [T, B] time-major block whose rows are real up
    to their lengths: for each step ``(n, at)`` of ``steps``, packed
    positions ``at + j`` hold that step of sorted rows ``j < n``, the rows
    still live there (``n`` is cuDNN's ``batch_sizes``).  Index arrays
    name a block's slots time-major, ``t * B + b``; every array is
    read-only."""

    lengths: tuple            # [B] each sorted row's length, non-increasing
    order: np.ndarray         # [B] the batch row of each sorted row (a stable sort)
    steps: tuple              # (live rows, first packed position) of each step with a live row
    slots: np.ndarray         # [2, N] the slot each packed position reads: forward, reversed
    last: np.ndarray          # [B] packed position of each batch row's last step
    unpack: np.ndarray        # [2, T, B] the row each slot reads in padded_rows(packed [2, N, w], T * B)
    sorted: bool              # the rows are in batch order already


def _key(lengths) -> tuple:
    return lengths if type(lengths) is tuple else tuple(np.asarray(lengths).tolist())


def packing(lengths, steps: int) -> Packing:
    """The :class:`Packing` of ``steps`` time steps over rows of the given
    ``lengths`` (each from 1 to ``steps``); plans are cached by value."""
    return _packing(_key(lengths), int(steps))


@lru_cache(maxsize=32)
def _packing(lengths: tuple, steps: int) -> Packing:
    lengths = np.array(lengths, dtype=np.intp)
    if not lengths.size or lengths.min() < 1 or lengths.max() > steps:
        raise ValueError(f"row lengths must lie in [1, {steps}], got {lengths.tolist()}")
    batch, count = len(lengths), steps * len(lengths)
    order = np.argsort(-lengths, kind="stable")
    ranked = lengths[order]
    step, row = np.nonzero(np.arange(steps)[:, None] < ranked[None, :])
    sizes = np.bincount(step)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    slots = np.stack([step, ranked[row] - 1 - step]) * batch + order[row]
    padding = np.flatnonzero(np.arange(steps)[:, None] >= lengths[None, :])

    def inverse(targets):
        index = np.empty(len(targets), dtype=np.intp)
        index[targets] = np.arange(len(targets))
        return index

    unpack = np.stack([inverse(np.concatenate([direction, padding])) for direction in slots])
    plan = Packing(tuple(ranked.tolist()), order, tuple(zip(sizes.tolist(), starts.tolist())), slots,
                   starts[lengths - 1] + inverse(order), (unpack + [[0], [count]]).reshape(2, steps, batch),
                   bool((order == np.arange(batch)).all()))
    for value in vars(plan).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return plan


def _lstm_arrays(projected: np.ndarray, wh: np.ndarray, lengths, start=None):
    """:func:`run_lstm` on plain arrays, untaped: each step makes exactly the
    numpy operations of the primitive chain, in its order, so every state
    is bit-equal to the taped one.  Returns the packed [..., N, m] cell and
    hidden blocks, each step's products written into its rows.

    This is the forward of a future one-primitive recurrence (an
    ``lstm_seq`` kind with its own BPTT backward), which will replace the
    chain; until then the chain records what training differentiates."""
    steps = _check_lstm(projected.shape, wh.shape, lengths, start)
    m = wh.shape[-1]
    cells, hidden = np.empty((2,) + projected.shape[:-1] + (m,))
    c, h = (None, None) if start is None else start
    recurrent = wh.swapaxes(-1, -2)
    for n, at in steps:
        gates = rows = projected[..., at:at + n, :]
        if h is not None:
            if h.shape[-2] > n:
                c, h = c[..., :n, :], h[..., :n, :]
            gates = np.matmul(h, recurrent)
            gates += rows
        act = ad.sigmoid_array(gates)
        i, o = act[..., :m], act[..., 3 * m:]
        g = np.tanh(gates[..., 2 * m:3 * m])
        cell = cells[..., at:at + n, :]
        c = np.multiply(i, g, out=cell) if c is None else np.add(act[..., m:2 * m] * c, i * g, out=cell)
        h = np.multiply(o, np.tanh(c), out=hidden[..., at:at + n, :])
    return cells, hidden


def _check_lstm(shape, wh_shape, lengths, start):
    """The steps of the :class:`Packing` of rows sorted by their ``lengths``;
    raises ShapeMismatch unless the lengths are longest first and sum to N,
    the recurrent weight is [..., 4m, m] and each start state [..., B, m]
    for the packed [..., N, 4m] projection ``shape``."""
    lengths = _key(lengths)
    plan = packing(lengths, max(lengths, default=0))
    m = shape[-1] // 4
    state = shape[:-2] + (len(lengths), m)
    if (wh_shape != shape[:-2] + (4 * m, m) or 4 * m != shape[-1] or not plan.sorted
            or plan.slots.shape[1] != shape[-2]
            or start is not None and (start[0].shape != state or start[1].shape != state)):
        raise ad.ShapeMismatch(f"lstm: projection {shape}, recurrent weight {wh_shape}, start state "
                               f"{None if start is None else [s.shape for s in start]} and row "
                               f"lengths {list(lengths)} do not agree")
    return plan.steps


def lstm_arrays(x: np.ndarray, cell: LstmCellParams, lengths, start=None):
    """:func:`_lstm_arrays` of the packed [N, d] array ``x`` through ``cell``'s
    input projection ``linear(x, wx, b)``, untaped."""
    return _lstm_arrays(ad.linear_array(x, cell.wx.data, cell.b.data), cell.wh.data, lengths, start)


def run_lstm(projected: Tensor, wh: Tensor, lengths, start=None):
    """The LSTM over a packed input projection ``linear(x, wx, b)`` as a
    primitive chain, the one a tape records for training.  ``projected``
    is [..., N, 4m] in the layout of :class:`Packing` for rows sorted by
    their ``lengths``, longest first, and ``wh`` [..., 4m, m]: a leading
    axis stacks recurrences, such as a layer's two directions.  Steps start
    from the (c, h) ``start`` of the sorted rows (None: the zero state) and
    run on their live rows only.  Returns the packed [..., N, m] cell and
    hidden blocks.

    A step from a nonzero state is one ``linear(h, wh, projected rows)``
    entry: the step's live slice of the projection rides in as the GEMM's
    output-shaped bias, so the step keeps one gate array.  A step with
    fewer live rows than the last slices the states first.  Untaped passes
    (search, dev loss, gradient-check probes) do not come here: their
    callers run :func:`_lstm_arrays`."""
    steps = _check_lstm(projected.shape, wh.shape, lengths, start)
    c, h = (None, None) if start is None else start
    cells, hidden = [], []
    for n, at in steps:
        gates = ad.slice_axis(projected, -2, at, at + n)
        if h is not None:
            if h.shape[-2] > n:
                c, h = ad.slice_axis(c, -2, 0, n), ad.slice_axis(h, -2, 0, n)
            gates = ad.linear(h, wh, gates)
        c, h = _cell_update(gates, c)
        cells.append(c)
        hidden.append(h)
    return join_steps(cells), join_steps(hidden)


def join_steps(parts: list) -> Tensor:
    """Per-step [..., n_t, w] Tensors as one packed [..., N, w] Tensor."""
    if len(parts) == 1:
        return parts[0]
    lead, width = parts[0].shape[:-2], parts[0].shape[-1]
    flat = ad.concat([ad.reshape(part, lead + (part.shape[-2] * width,)) for part in parts])
    return ad.reshape(flat, lead + (flat.shape[-1] // width, width))


def take_rows(x: Tensor, index) -> Tensor:
    """The rows (axis 0) of ``x`` at the integer array ``index``, one ``slice``
    entry; each row is named at most once."""
    return ad.apply_primitive("slice", (x,), axis=0, index=index)


def padded_rows(x: Tensor, count: int) -> Tensor:
    """The rows of the packed [..., N, w] ``x``, each [N, w] block followed by
    zero rows up to ``count``, as one [prod(...) * count, w] block: the
    source a :class:`Packing` unpack index reads."""
    lead, (rows, width) = x.shape[:-2], x.shape[-2:]
    if rows == count:
        return ad.reshape(x, (x.size // width, width))
    flat = ad.concat([ad.reshape(x, lead + (rows * width,)), Tensor(np.zeros(lead + ((count - rows) * width,)))])
    return ad.reshape(flat, (flat.size // width, width))


def padded_arrays(x: np.ndarray, count: int) -> np.ndarray:
    """:func:`padded_rows` on an array."""
    lead, (rows, width) = x.shape[:-2], x.shape[-2:]
    if rows < count:
        x = np.concatenate([x, np.zeros(lead + (count - rows, width))], axis=-2)
    return x.reshape(-1, width)


def bidirectional_layer(
    fwd: LstmCellParams,
    bwd: LstmCellParams,
    inputs: Tensor,
    lengths: Optional[np.ndarray] = None,
):
    """Runs both directions over a [T, B, d] block whose rows are real up
    to ``lengths`` (default: all of them), as one packed recurrence stacked
    on a direction axis: step ``s`` of the backward direction reads each
    row's real step ``length - 1 - s``.  Returns (outputs [T, B, m], the sum
    of the two directions, zero at padded positions; the packed [2, N, m]
    cell and hidden states of both directions, for :func:`final_state`).
    Untaped, everything runs on the arrays, and only the results become
    Tensors."""
    if len(inputs) == 0:
        raise ValueError("bidirectional layer needs a nonempty input sequence")
    steps, batch, width = inputs.shape
    plan = packing((steps,) * batch if lengths is None else lengths, steps)
    if not ad.recording():
        x = inputs.data.reshape(steps * batch, width)[plan.slots]
        cells, hidden = _lstm_arrays(ad.linear_array(x, _stacked(fwd.wx, bwd.wx), _stacked(fwd.b, bwd.b)),
                                     _stacked(fwd.wh, bwd.wh), plan.lengths)
        outputs = padded_arrays(hidden, steps * batch)[plan.unpack].sum(axis=0)
        return ad.wrap(outputs), (ad.wrap(cells), ad.wrap(hidden))
    flat = ad.reshape(inputs, (steps * batch, width))
    projected = ad.linear(ad.stack([take_rows(flat, plan.slots[0]), take_rows(flat, plan.slots[1])]),
                          ad.stack([fwd.wx, bwd.wx]), ad.stack([fwd.b, bwd.b]))
    cells, hidden = run_lstm(projected, ad.stack([fwd.wh, bwd.wh]), plan.lengths)
    return ad.tsum(take_rows(padded_rows(hidden, steps * batch), plan.unpack), axis=0), (cells, hidden)


def final_state(forward, lengths: np.ndarray) -> Tensor:
    """[B, 2m]: the forward direction's (c | h) at each row's last real step,
    one gather each from the packed states :func:`bidirectional_layer`
    returns for rows of these ``lengths``; on the arrays when untaped."""
    last = packing(lengths, max(lengths)).last
    if not ad.recording():
        return ad.wrap(np.concatenate([states.data[0][last] for states in forward], axis=-1))
    return ad.concat([take_rows(states[0], last) for states in forward])


def _stacked(a: Tensor, b: Tensor) -> np.ndarray:
    """The arrays of two directions' parameters stacked, as ``stack`` would,
    each copied in its own memory order: the column-major matrices of the
    decode layout stay column-major, so their products take the same GEMM
    path as unstacked."""
    if a.shape != b.shape:
        raise ad.ShapeMismatch(f"stack: shapes differ, {a.shape} vs {b.shape}")
    if a.data.flags.c_contiguous:
        out = np.empty((2,) + a.shape)
        out[0], out[1] = a.data, b.data
        return out
    out = np.empty((2,) + a.shape[::-1])
    out[0], out[1] = a.data.T, b.data.T
    return out.swapaxes(-1, -2)


def speech_prenet(layers: Sequence[tuple[Tensor, Tensor]], frames: Tensor) -> Tensor:
    """Two fully connected tanh layers applied to feature frames.

    ``frames`` may be a single vector, a [B, 41] batch or an [S, B, 41]
    block; weights are [out, in] matrices.
    """
    out = frames
    for w, b in layers:
        if out.shape[-1] != w.shape[1]:
            raise ad.ShapeMismatch(f"prenet: input dim {out.shape[-1]} != expected {w.shape[1]}")
        out = ad.tanh(ad.linear(out, w, b))
    return out


def dropout_mask(shape, rate: float, rng: Optional[np.random.Generator]) -> Optional[np.ndarray]:
    """The inverted-dropout mask of a stacked layer's [T, B, d] input block,
    drawn as one block from ``rng``; None when ``rng`` is None or ``rate``
    is 0."""
    if rng is None or rate == 0.0:
        return None
    return (rng.random(shape) >= rate) * (1.0 / (1.0 - rate))


def dropout_between_layers(x: Tensor, rate: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout of a stacked layer's input block by
    :func:`dropout_mask`; ``x`` itself when no mask is drawn."""
    mask = dropout_mask(x.shape, rate, rng)
    return x if mask is None else ad.dropout(x, mask)


def pyramidal_encode(
    config: RunConfig,
    layers: Sequence[tuple[LstmCellParams, LstmCellParams]],
    inputs: Tensor,
    lengths: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
):
    """Stacks the ``config.enc_layers`` bidirectional layers of a resolved
    configuration over a [T, B, d] block whose rows are real up to
    ``lengths`` (default: all); with ``config.stride`` above 1 the 2nd and
    later layers read ``[0::2]``.  Rejects inputs shorter than
    ``config.stride``; dropout between layers when ``rng`` is given.
    Returns (outputs [T', B, m], final [B, 2m], out_lengths)."""
    if len(layers) != config.enc_layers:
        raise ValueError(f"expected {config.enc_layers} layers, got {len(layers)}")
    lengths = np.full(inputs.shape[1], len(inputs)) if lengths is None else np.asarray(lengths)
    shortest = int(np.min(lengths))
    if shortest < config.stride:  # every row of a padded batch must be long enough
        raise ValueError(f"input too short: {shortest} steps, need at least {config.stride}")

    seq = inputs
    for index, (fwd, bwd) in enumerate(layers):
        if index > 0:
            if config.stride > 1:
                seq, lengths = seq[0::2], (lengths + 1) // 2
            seq = dropout_between_layers(seq, config.dropout, rng)
        seq, forward = bidirectional_layer(fwd, bwd, seq, lengths)
    return seq, final_state(forward, lengths), lengths
