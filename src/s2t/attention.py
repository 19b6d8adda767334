"""Additive attention plus the convolutional (location-aware) variant that
feeds the previous step's attention weights through a one-dimensional
filter, with masking over padded encoder positions.

Encoder outputs are carried as an [A, B, m] block; decoder-facing scores
and weights are [B, A].
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


def _scores(params, h, state, conv_term, enc_proj):
    if h.ndim != 3:
        raise ad.ShapeMismatch(f"attention: encoder block must be [A, B, m], got {h.shape}")
    if enc_proj is None:
        enc_proj = project_encoder(params, h)
    inner = enc_proj + ad.linear(state, params.state_w, params.bias)
    if conv_term is not None:
        inner = inner + conv_term
    return ad.transpose(ad.linear(ad.tanh(inner), params.score_v))  # [A, B] -> [B, A]


def additive_scores(params: AttentionParams, h: Tensor, state: Tensor,
                    enc_proj: Optional[Tensor] = None) -> Tensor:
    """score_i = v . tanh(enc_w h_i + state_w s + bias), returned as [B, A]."""
    return _scores(params, h, state, None, enc_proj)


def convolutional_scores(params: AttentionParams, h: Tensor, state: Tensor,
                         prev_weights: Optional[Tensor],
                         enc_proj: Optional[Tensor] = None) -> Tensor:
    """Adds the filtered previous attention weights inside the tanh.

    With no previous weights (the first step) the previous attention vector
    is taken as zero, which reduces exactly to the additive scores.
    """
    if params.conv_gate is None or params.conv_filter is None:
        raise ValueError("convolutional attention needs conv_gate and conv_filter parameters")
    conv_term = None
    if prev_weights is not None:
        positions = h.shape[0]
        if prev_weights.ndim != 2 or prev_weights.shape[1] != positions:
            raise ad.ShapeMismatch(
                f"attention: previous weights {prev_weights.shape} do not match "
                f"{positions} positions"
            )
        filtered = ad.conv1d(prev_weights, params.conv_filter)          # [B, A]
        per_pos = ad.reshape(ad.transpose(filtered), (positions, prev_weights.shape[0], 1))
        conv_term = per_pos * params.conv_gate                          # [A, B, m]
    return _scores(params, h, state, conv_term, enc_proj)


def attend(scores: Tensor, h: Tensor, mask: Optional[np.ndarray] = None):
    """Masked softmax over positions and the attention-weighted context.

    Returns (weights [B, A], context [B, m]); masked positions get weight
    exactly zero.
    """
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != scores.shape:
            raise ad.ShapeMismatch(f"attention mask {mask.shape} does not match scores {scores.shape}")
        if not mask.any(axis=1).all():
            raise ValueError("attention: a row has all positions masked")
        if not mask.all():
            scores = scores + Tensor(np.where(mask, 0.0, MASKED_SCORE))
    weights = ad.softmax(scores)                                        # [B, A]
    positions, batch = weights.shape[1], weights.shape[0]
    per_pos = ad.reshape(ad.transpose(weights), (positions, batch, 1))
    context = ad.tsum(per_pos * h, axis=0)                              # [B, m]
    return weights, context
