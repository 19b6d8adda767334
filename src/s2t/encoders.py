"""LSTM cell, bidirectional layers, and the text / speech encoder stacks.

The text encoder is two stacked bidirectional layers.  The speech encoder
adds a two-layer tanh prenet over the 41-dim feature frames and a third
bidirectional layer; its 2nd and 3rd layers read every other output of the
layer below, shortening the sequence by 4x overall.

Sequences travel as one time-major [T, B, dim] block from the input to the
top layer, and the functions take an optional per-row length vector; rows
shorter than the padded extent carry their last real state forward, which
makes batched results identical to per-sequence computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class LstmCellParams:
    """Gate order along the first axis: input, forget, candidate, output."""

    wx: Tensor  # [4m, input_dim]
    wh: Tensor  # [4m, m]
    b: Tensor   # [4m]

    def gate_weights(self) -> tuple[Tensor, Tensor]:
        """Per-pass [input_dim + m, 4m] weight of the [x|h] gate GEMM, and the bias."""
        return ad.transpose(ad.concat([self.wx, self.wh])), self.b


@dataclass
class EncoderConfig:
    kind: str                      # "text" | "speech"
    layer_count: int
    subsample_layers: frozenset    # 1-based indices of layers reading every other input
    dropout: float = 0.0

    def __post_init__(self):
        if self.kind == "text" and self.subsample_layers:
            raise ValueError("text encoder does not subsample")

    @property
    def stride(self) -> int:
        """Input frames per encoder position, which is also the shortest
        input the encoder accepts."""
        return 2 ** len(self.subsample_layers)


def text_encoder_config(layer_count: int = 2, dropout: float = 0.0) -> EncoderConfig:
    return EncoderConfig("text", layer_count, frozenset(), dropout)


def speech_encoder_config(layer_count: int = 3, dropout: float = 0.0) -> EncoderConfig:
    # the 2nd and later layers read every other output from the layer below
    return EncoderConfig("speech", layer_count, frozenset(range(2, layer_count + 1)), dropout)


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


def lstm_step(weights: tuple[Tensor, Tensor], x: Tensor, state: tuple[Tensor, Tensor]):
    """One LSTM transition from :meth:`LstmCellParams.gate_weights`: one [x|h]
    GEMM for the whole gate block."""
    (w_t, b), (c, h) = weights, state
    return _cell_update((ad.concat([x, h]) @ w_t) + b, c)


def _run_direction(params: LstmCellParams, x1: Tensor, batch: int, live: Optional[np.ndarray], order):
    """One direction over the stacked [T*B, d+1] block ``x1`` (inputs with
    a column of ones): the input projection and bias of every step are one
    GEMM, each step adds h @ wh^T to its rows of it, and rows whose ``live``
    entry is 0 keep their state.  Returns ([T, B, m] outputs, final c, h)."""
    m = params.wh.shape[1]
    bias_col = ad.reshape(params.b, (4 * m, 1))
    projected = x1 @ ad.transpose(ad.concat([params.wx, bias_col]))  # [T*B, 4m]
    wh_t = ad.transpose(params.wh)
    c = h = None  # the zero state
    outputs = [None] * len(order)
    for t in order:
        gates = ad.slice_axis(projected, 0, t * batch, (t + 1) * batch)
        if h is not None:
            gates = gates + (h @ wh_t)
        c_new, h_new = _cell_update(gates, c)
        if live is not None and not live[t].all():
            keep, hold = Tensor(live[t]), Tensor(1.0 - live[t])
            c_new, h_new = c_new * keep, h_new * keep
            if c is not None:
                c_new, h_new = c_new + (c * hold), h_new + (h * hold)
        c, h = c_new, h_new
        outputs[t] = h
    return ad.stack(outputs), c, h


def bidirectional_layer(
    fwd: LstmCellParams,
    bwd: LstmCellParams,
    inputs: Tensor,
    lengths: Optional[np.ndarray] = None,
):
    """Runs both directions over a [T, B, d] block.  Returns (outputs
    [T, B, m], the sum of the two directions; final state [B, 2m], the
    forward direction's (c, h) frozen per row at its true length)."""
    if len(inputs) == 0:
        raise ValueError("bidirectional layer needs a nonempty input sequence")
    steps, batch, width = inputs.shape
    live = None  # [T, B, 1]: 1.0 where step t lies within row b's length
    if lengths is not None:
        live = (np.arange(steps)[:, None, None] < np.asarray(lengths)[:, None]).astype(np.float64)
    x1 = ad.concat([ad.reshape(inputs, (steps * batch, width)), Tensor(np.ones((steps * batch, 1)))])
    fwd_out, fwd_c, fwd_h = _run_direction(fwd, x1, batch, live, range(steps))
    bwd_out, _, _ = _run_direction(bwd, x1, batch, live, range(steps - 1, -1, -1))
    return fwd_out + bwd_out, ad.concat([fwd_c, fwd_h])


def speech_prenet(layers: Sequence[tuple[Tensor, Tensor]], frames: Tensor) -> Tensor:
    """Two fully connected tanh layers applied to feature frames.

    ``frames`` may be a single vector, a [B, 41] batch or an [S, B, 41]
    block; weights are [out, in] matrices.
    """
    out = frames
    for w, b in layers:
        if out.shape[-1] != w.shape[1]:
            raise ad.ShapeMismatch(f"prenet: input dim {out.shape[-1]} != expected {w.shape[1]}")
        out = ad.tanh((out @ ad.transpose(w)) + b)
    return out


def subsampled_length(length: int, subsample_count: int = 2) -> int:
    """Length after ``subsample_count`` rounds of keeping indices 0, 2, 4, ..."""
    for _ in range(subsample_count):
        length = (length + 1) // 2
    return length


def pyramidal_encode(
    config: EncoderConfig,
    layers: Sequence[tuple[LstmCellParams, LstmCellParams]],
    inputs: Tensor,
    lengths: Optional[np.ndarray] = None,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
):
    """Stack bidirectional layers over a [T, B, d] block; subsampling layers
    read ``[0::2]`` of the layer below.  Inputs shorter than
    ``config.stride`` are rejected.  Inter-layer dropout applies during training only.  Returns (outputs
    [T', B, m], final state [B, 2m], out_lengths, None when lengths is)."""
    if len(layers) != config.layer_count:
        raise ValueError(f"expected {config.layer_count} layers, got {len(layers)}")
    shortest = len(inputs) if lengths is None else int(np.min(lengths))
    if shortest < config.stride:  # every row of a padded batch must be long enough
        raise ValueError(f"input too short: {shortest} steps, need at least {config.stride}")

    seq = inputs
    seq_lengths = None if lengths is None else np.asarray(lengths)
    final = None
    for index, (fwd, bwd) in enumerate(layers, start=1):
        if index in config.subsample_layers:
            seq = seq[0::2]
            if seq_lengths is not None:
                seq_lengths = (seq_lengths + 1) // 2
        if index > 1 and train and config.dropout > 0.0:
            scale = 1.0 / (1.0 - config.dropout)
            seq = ad.dropout(seq, (rng.random(seq.shape) >= config.dropout) * scale)
        seq, final = bidirectional_layer(fwd, bwd, seq, seq_lengths)
    return seq, final, seq_lengths
