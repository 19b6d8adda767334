"""The model's one LSTM recurrence, bidirectional layers, and the encoder stacks.

The text encoder is two stacked bidirectional layers.  The speech encoder
adds a two-layer tanh prenet over the 41-dim feature frames and a third
bidirectional layer; its 2nd and 3rd layers read every other output of the
layer below, shortening the sequence by 4x overall.  Both stacks read the
resolved ``RunConfig``: its ``enc_layers``, ``dropout`` and ``stride``.

Sequences travel as one time-major [T, B, dim] block with a per-row length
vector.  Padded steps are computed and never read: the forward direction
runs on through them, the backward one starts each row from the zero state
at its last real step, the final state is read there, attention skips them.

The recurrence has two forms: :func:`run_lstm`, the primitive chain a tape
records, and :func:`lstm_arrays`, the same numpy operations on plain arrays
that every untaped pass runs.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _lstm_arrays(projected: np.ndarray, wh: np.ndarray, order, start=None, restart=None):
    """:func:`run_lstm` on plain arrays, untaped: each step makes exactly the
    numpy operations of the primitive chain, in its order, so every state
    is bit-equal to the taped one.  ``order`` runs over every step;
    ``start`` is None or a (c, h) pair of [B, m] arrays.  Returns the
    [T, B, m] cell and hidden blocks, each step's products written into
    its slab.

    This is the forward of a future one-primitive recurrence (an
    ``lstm_seq`` kind with its own BPTT backward), which will replace the
    chain; until then the chain records what training differentiates."""
    _check_lstm(projected.shape, wh.shape, start)
    m = wh.shape[1]
    c, h = (None, None) if start is None else start
    cells, outputs = np.empty((2,) + projected.shape[:2] + (m,))
    restarts = set() if restart is None else set(restart.tolist())
    for t in order:
        gates = projected[t]
        if h is not None:
            if t in restarts:
                keep = (restart != t).astype(np.float64)[:, None]
                c, h = c * keep, h * keep
            gates = h @ wh.T
            gates += projected[t]
        act = ad.sigmoid_array(gates)
        i, o = act[:, :m], act[:, 3 * m:]
        g = np.tanh(gates[:, 2 * m:3 * m])
        c = np.multiply(i, g, out=cells[t]) if c is None else np.add(act[:, m:2 * m] * c, i * g, out=cells[t])
        h = np.multiply(o, np.tanh(c), out=outputs[t])
    return cells, outputs


def _check_lstm(shape, wh_shape, start) -> None:
    """Raises ShapeMismatch unless the recurrent weight is [4m, m] and each
    start state [B, m] for the [T, B, 4m] projection ``shape``."""
    _, batch, width = shape
    starts = [] if start is None else [s.shape for s in start]
    if wh_shape != (width, width // 4) or any(s != (batch, width // 4) for s in starts):
        raise ad.ShapeMismatch(f"lstm: projection {shape}, recurrent weight {wh_shape} "
                               f"and start state {starts} do not agree")


def lstm_arrays(x: np.ndarray, cell: LstmCellParams, order, start=None, restart=None):
    """:func:`_lstm_arrays` of the [T, B, d] array ``x`` through ``cell``'s
    input projection ``linear(x, wx, b)``, untaped."""
    return _lstm_arrays(ad.linear_array(x, cell.wx.data, cell.b.data), cell.wh.data, order, start, restart)


def run_lstm(projected: Tensor, wh: Tensor, order, start=None, restart=None):
    """The LSTM over the [T, B, 4m] input projection ``linear(x, wx, b)`` as
    a primitive chain, the one a tape records for training: steps in
    ``order`` from the (c, h) ``start`` (None: the zero state); rows whose
    ``restart`` is ``t`` enter step ``t`` from zero.  Returns per-step lists
    of [B, m] cell and hidden states, indexed by step.

    A step from a nonzero state is one ``linear(h, wh, projected[t])``
    entry: the projection rides in as the GEMM's output-shaped bias, so the
    step keeps one [B, 4m] gate array.  Untaped passes (search, dev loss,
    gradient-check probes) do not come here: their callers run
    :func:`lstm_arrays`."""
    _check_lstm(projected.shape, wh.shape, start)
    c, h = (None, None) if start is None else start
    cells, outputs = [None] * len(order), [None] * len(order)
    restarts = set() if restart is None else set(restart.tolist())
    for t in order:
        gates = projected[t]
        if h is not None:
            if t in restarts:
                keep = Tensor((restart != t).astype(np.float64)[:, None])
                c, h = c * keep, h * keep
            gates = ad.linear(h, wh, gates)
        c, h = _cell_update(gates, c)
        cells[t], outputs[t] = c, h
    return cells, outputs


def bidirectional_layer(
    fwd: LstmCellParams,
    bwd: LstmCellParams,
    inputs: Tensor,
    lengths: Optional[np.ndarray] = None,
):
    """Runs both directions over a [T, B, d] block whose rows are real up
    to ``lengths`` (default: all of them).  Returns (outputs [T, B, m], the
    sum of the two directions; the forward direction's per-step cell and
    hidden states, for :func:`final_state`).  Untaped, both directions and
    their sum run on the arrays, and only the results become Tensors."""
    if len(inputs) == 0:
        raise ValueError("bidirectional layer needs a nonempty input sequence")
    steps, batch, _ = inputs.shape
    last = np.full(batch, steps - 1) if lengths is None else np.asarray(lengths) - 1
    if not ad.recording():
        fwd_c, fwd_h = lstm_arrays(inputs.data, fwd, range(steps))
        _, bwd_h = lstm_arrays(inputs.data, bwd, range(steps)[::-1], restart=last)
        return ad.wrap(fwd_h + bwd_h), ([ad.wrap(c) for c in fwd_c], [ad.wrap(h) for h in fwd_h])
    fwd_c, fwd_h = run_lstm(ad.linear(inputs, fwd.wx, fwd.b), fwd.wh, range(steps))
    _, bwd_h = run_lstm(ad.linear(inputs, bwd.wx, bwd.b), bwd.wh, range(steps)[::-1], restart=last)
    return ad.stack(fwd_h) + ad.stack(bwd_h), (fwd_c, fwd_h)


def final_state(forward, lengths: np.ndarray) -> Tensor:
    """[B, 2m]: the forward direction's (c | h) at each row's last real step,
    from the per-step states :func:`bidirectional_layer` returns."""
    cells, hidden = forward
    steps, last = len(cells), np.asarray(lengths) - 1
    if (last == steps - 1).all():
        return ad.concat([cells[-1], hidden[-1]])
    # one gather of each row's c and h, interleaved so the result is [c | h]
    batch, m = cells[0].shape
    states = ad.reshape(ad.stack(cells + hidden), (2 * steps * batch, m))
    rows = last * batch + np.arange(batch)
    index = np.stack([rows, rows + steps * batch], axis=1).reshape(-1)
    return ad.reshape(ad.apply_primitive("slice", (states,), axis=0, index=index), (batch, 2 * m))


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


def dropout_between_layers(x: Tensor, rate: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout of a stacked layer's input, drawn as one block from
    ``rng``; ``x`` itself when ``rng`` is None or ``rate`` is 0."""
    if rng is None or rate == 0.0:
        return x
    return ad.dropout(x, (rng.random(x.shape) >= rate) * (1.0 / (1.0 - rate)))


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
