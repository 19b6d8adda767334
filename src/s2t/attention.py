"""Additive attention plus the convolutional (location-aware) variant that
feeds the previous step's attention weights through a one-dimensional
filter.  Padded encoder positions enter once per pass, as the score bias
``padding_bias`` builds, added inside the score product; ``attend`` takes
no mask.

Encoder outputs are carried as an [A, B, m] block; decoder-facing scores
and weights are [B, A].  While a tape records, a decoder step attends
through the primitive chain of ``additive_scores`` or
``convolutional_scores`` and ``attend``; untaped (``ad.recording()``
false) it calls :func:`attend_arrays`, which repeats that chain on plain
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

# Finite stand-in for minus infinity: exp(MASKED_SCORE - max) underflows to
# exactly 0.0, so masked positions get weight 0 while tape values stay finite.
MASKED_SCORE = -1e30


@dataclass
class AttentionParams:
    enc_w: Tensor                        # [m, m] applied to encoder outputs
    state_w: Tensor                      # [m, 2m] applied to the decoder state
    bias: Tensor                         # [m]
    score_v: Tensor                      # [m]
    conv_gate: Optional[Tensor] = None   # [m], convolutional variant only
    conv_filter: Optional[Tensor] = None  # [k], k odd


def project_encoder(params: AttentionParams, h: Tensor) -> Tensor:
    """Precompute enc_w . h_i for every position (reused across steps)."""
    return ad.linear(h, params.enc_w)


def padding_bias(enc_mask: np.ndarray) -> Tensor:
    """The [A, B] score bias of a [B, A] encoder mask, built once per pass:
    0 on real positions, MASKED_SCORE on padding."""
    enc_mask = np.asarray(enc_mask, dtype=bool)
    if not enc_mask.any(axis=1).all():
        raise ValueError("attention: a row has all positions masked")
    return Tensor(np.where(enc_mask.T, 0.0, MASKED_SCORE))


def _scores(params, enc_proj, state, conv_term, pad):
    inner = enc_proj + ad.linear(state, params.state_w, params.bias)
    if conv_term is not None:
        inner = inner + conv_term
    return ad.transpose(ad.linear(ad.tanh(inner), params.score_v, pad))  # [A, B] -> [B, A]


def additive_scores(params: AttentionParams, enc_proj: Tensor, state: Tensor,
                    pad: Optional[Tensor] = None) -> Tensor:
    """score_i = v . tanh(enc_proj_i + state_w s + bias) + pad_i, returned as [B, A]."""
    return _scores(params, enc_proj, state, None, pad)


def convolutional_scores(params: AttentionParams, enc_proj: Tensor, state: Tensor,
                         prev_weights: Optional[Tensor], pad: Optional[Tensor] = None) -> Tensor:
    """Adds the filtered previous attention weights inside the tanh.

    With no previous weights (the first step) the previous attention vector
    is taken as zero, which reduces exactly to the additive scores.
    """
    conv_term = None
    if prev_weights is not None:
        filtered = ad.conv1d(prev_weights, params.conv_filter)          # [B, A]
        per_pos = ad.reshape(ad.transpose(filtered), filtered.shape[::-1] + (1,))
        conv_term = per_pos * params.conv_gate                          # [A, B, m]
    return _scores(params, enc_proj, state, conv_term, pad)


def attend(scores: Tensor, h: Tensor):
    """Softmax over positions and the attention-weighted context.

    Returns (weights [B, A], context [B, m]); a position whose score carries
    the padding bias gets weight exactly zero.
    """
    weights = ad.softmax(scores)                                        # [B, A]
    per_pos = ad.reshape(ad.transpose(weights), weights.shape[::-1] + (1,))
    context = ad.tsum(per_pos * h, axis=0)                              # [B, m]
    return weights, context


def attend_arrays(enc_proj, h, state, state_w, bias, score_v, pad, prev=None, conv_filter=None, conv_gate=None):
    """One decoder step's attention on plain arrays, untaped: the numpy
    operations of the scores-then-:func:`attend` chain in its order, so
    (weights [B, A], context [B, m]) are bit-equal to the taped ones.  The
    arrays are the projected and the plain [A, B, m] encoder blocks, the
    [B, 2m] state, ``state_w``, ``bias``, ``score_v``, the [A, B] padding
    bias and, for the convolutional variant from its second step on, the
    previous [B, A] weights, the filter and the gate.  The chain's shape
    checks hold: a state projection, previous weights or gate that does not
    fit the encoder block raises ShapeMismatch.

    This is the forward of a future one-primitive attention step (an
    ``attend`` kind with its own backward), which will replace the chain."""
    projected = ad.linear_array(state, state_w, bias)
    if projected.shape != enc_proj.shape[1:] or prev is not None and (
            prev.shape != enc_proj.shape[1::-1] or conv_gate.shape != projected.shape[1:]):
        raise ad.ShapeMismatch(f"attention: state projection {projected.shape}, previous weights "
                               f"{None if prev is None else prev.shape} or gate do not fit the "
                               f"encoder projection {enc_proj.shape}")
    inner = enc_proj + projected
    if prev is not None:
        filtered = ad.conv1d_array(prev, conv_filter)
        inner = inner + np.swapaxes(filtered, -1, -2).reshape(filtered.shape[::-1] + (1,)) * conv_gate
    scores = np.swapaxes(ad.linear_array(np.tanh(inner), score_v, pad), -1, -2)  # [A, B] -> [B, A]
    weights = ad.softmax_array(scores)
    per_pos = np.swapaxes(weights, -1, -2).reshape(weights.shape[::-1] + (1,))
    return weights, (per_pos * h).sum(axis=0)
