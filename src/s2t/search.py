"""One decode core: beam search with shallow language-model fusion and
log-linear ensembles of independently trained models.  Greedy decoding
is beam search of width 1, so "beam 1 equals greedy" holds by
construction.

Live hypotheses share one batched decoder state per model; after each
step one ``gather_state`` by parent row moves every model's state to the
surviving hypotheses.  All tie-breaking prefers the lowest flat index
(parent row, then token id), so every decode is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus import BOS_ID, EOS_ID
from .lm import TrigramModel, fused_log_rows, lm_logprob, vocabulary_id_map
from .model import DivergenceError, Seq2SeqModel, gather_state


@dataclass
class FusionWeights:
    """Per-model log-linear weights (uniform 1/J when omitted) plus a
    nonnegative language-model weight."""

    model_weights: Optional[list[float]] = None
    lm_weight: float = 0.2

    def resolve(self, n_models: int) -> list[float]:
        if self.lm_weight < 0:
            raise ValueError("lm weight must be nonnegative")
        if self.model_weights is None:
            return [1.0 / n_models] * n_models
        if len(self.model_weights) != n_models:
            raise ValueError(
                f"{len(self.model_weights)} model weights for {n_models} models"
            )
        if any(w <= 0 for w in self.model_weights):
            raise ValueError("model weights must be positive")
        return list(self.model_weights)


@dataclass
class Hypothesis:
    """BOS-rooted partial output with its cumulative fused log score."""

    tokens: tuple[int, ...]
    score: float
    attention: list[np.ndarray]
    finished: bool = False

    @property
    def content(self) -> list[int]:
        out = list(self.tokens[1:])
        if self.finished:
            out = out[:-1]
        return out


@dataclass
class DecodeResult:
    tokens: list[int]          # content token ids (no BOS/EOS)
    attention: np.ndarray      # one row per emitted content token, [T, A']
    score: float
    finished: bool = True      # EOS reached before the length cap


def check_limits(beam_size: int, max_len: Optional[int]) -> None:
    """Reject a beam narrower than 1 or a length cap below 1."""
    for name, value in (("beam size", beam_size), ("max len", max_len)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _prepare(model: Seq2SeqModel, source):
    src = np.asarray(source)
    block = src[None, :] if model.config.task == "text" else src[None, :, :]
    lengths = np.array([block.shape[1]])
    tensors = model.store.as_tensors()
    h, enc_mask, final = model.encode(tensors, block, lengths)
    core = model.decoder(tensors, h, enc_mask)
    return core, final


def greedy_decode(model: Seq2SeqModel, source, max_len: Optional[int] = None) -> DecodeResult:
    """Argmax token per step (ties to the lowest id); stops at EOS or
    ``max_len``.  Attention rows cover the emitted content tokens."""
    return beam_search([model], source, beam_size=1, max_len=max_len)


def _top_k(flat: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` highest scores, best first, ties to the lowest
    index: the head of a stable descending sort, without sorting it all."""
    if k == 1:
        return np.argmax(flat, keepdims=True)
    if k >= flat.size:
        return np.argsort(-flat, kind="stable")
    kth = np.partition(flat, flat.size - k)[flat.size - k]
    candidates = np.flatnonzero(flat >= kth)  # ties with the k-th all stay
    return candidates[np.argsort(-flat[candidates], kind="stable")[:k]]


def _lm_context(tokens: tuple[int, ...]) -> tuple[int, int]:
    padded = (BOS_ID, BOS_ID) + tokens[1:]  # skip the BOS root, re-pad
    return padded[-2], padded[-1]


def beam_search(
    models: Sequence[Seq2SeqModel],
    source,
    beam_size: int = 8,
    lm: Optional[TrigramModel] = None,
    weights: Optional[FusionWeights] = None,
    max_len: Optional[int] = None,
    length_norm: bool = False,
    rescore_only: bool = False,
) -> DecodeResult:
    """Breadth-limited search over the fused per-step distribution
    sum_j w_j ln p_j(w|.) + lm_weight * ln p_lm(w | last two tokens).

    Finished hypotheses retire to a completed pool; the winner is the
    completed hypothesis with the highest cumulative score (per-token
    normalized when ``length_norm``), falling back to the best live
    hypothesis if nothing finished.  With ``rescore_only`` the language
    model is applied to the completed pool instead of during expansion.
    """
    if len(models) == 0:
        raise ValueError("beam search needs at least one model")
    check_limits(beam_size, max_len)
    if len(source) == 0:
        raise ValueError("source is empty")
    weights = weights or FusionWeights(lm_weight=0.0)
    model_weights = weights.resolve(len(models))
    fuse_lm = lm is not None and weights.lm_weight > 0.0 and not rescore_only
    id_map = vocabulary_id_map(lm, models[0].tgt_vocab) if lm is not None else None

    cores, states = [], []
    for model in models:
        core, final = _prepare(model, source)
        cores.append(core)
        states.append(core.init_state(final))
    if max_len is None:
        max_len = models[0].max_decode_length(cores[0].positions, len(source))

    live = [Hypothesis(tokens=(BOS_ID,), score=0.0, attention=[])]
    completed: list[Hypothesis] = []
    overlong: list[Hypothesis] = []

    while live:
        prev_ids = np.array([hyp.tokens[-1] for hyp in live])
        for j, core in enumerate(cores):
            states[j], dist, attn = core.step(states[j], prev_ids)
            scores = model_weights[j] * np.log(dist.data)
            if j == 0:
                fused, weight_rows = scores, attn.data
            else:
                fused += scores
        if fuse_lm:
            for i, hyp in enumerate(live):
                u, v = _lm_context(hyp.tokens)
                fused[i] += weights.lm_weight * fused_log_rows(lm, id_map, u, v)

        flat = (np.array([h.score for h in live])[:, None] + fused).reshape(-1)
        if np.isnan(flat).any():
            raise DivergenceError("decoder scores are NaN")
        next_live = []
        parents = []
        for flat_idx in _top_k(flat, beam_size):
            parent, token = divmod(int(flat_idx), fused.shape[1])
            hyp = live[parent]
            new = Hypothesis(
                tokens=hyp.tokens + (token,),
                score=float(flat[flat_idx]),
                attention=hyp.attention if token == EOS_ID
                else hyp.attention + [weight_rows[parent].copy()],
                finished=token == EOS_ID,
            )
            if new.finished:
                completed.append(new)
            elif len(new.tokens) - 1 >= max_len:
                overlong.append(new)
            else:
                next_live.append(new)
                parents.append(parent)
        if next_live and parents != list(range(len(live))):  # greedy's one row never moves
            rows = np.array(parents)
            states = [gather_state(state, rows) for state in states]
        live = next_live

    pool = completed if completed else overlong
    best = max(pool, key=lambda h: (_rank_score(h, lm, id_map, weights, rescore_only, length_norm),
                                    [-t for t in h.tokens]))
    attention = (np.vstack(best.attention) if best.attention
                 else np.zeros((0, cores[0].positions)))
    return DecodeResult(best.content, attention, best.score, best.finished)


def _rank_score(hyp: Hypothesis, lm, id_map, weights, rescore_only: bool, length_norm: bool) -> float:
    score = hyp.score
    if rescore_only and lm is not None and weights.lm_weight > 0.0:
        ids = [int(id_map[t]) for t in hyp.content]
        lm_score = lm_logprob(lm, ids) if ids else lm.logprob(BOS_ID, BOS_ID, EOS_ID)
        score = score + weights.lm_weight * lm_score
    if length_norm:
        steps = len(hyp.content) + (1 if hyp.finished else 0)
        score = score / max(1, steps)
    return score
