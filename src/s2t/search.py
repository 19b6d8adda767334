"""One decode core: beam search with shallow language-model fusion and
log-linear ensembles of independently trained models.  Greedy decoding
is beam search of width 1, so "beam 1 equals greedy" holds by
construction.

A list of sources decodes at once: the live hypotheses of every source
share one batched decoder state per model, grouped by source, and after
each step one ``gather_state`` by parent row moves every model's state to
the surviving hypotheses.  Each source keeps its own beam, and all
tie-breaking prefers the lowest flat index within the source's rows
(parent row, then token id), so every decode is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus import BOS_ID, EOS_ID, pad_sources
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
    """:func:`decode_batch` of the one input ``source``."""
    return decode_batch(models, [source], beam_size, lm, weights, max_len,
                        length_norm, rescore_only)[0]


def _encode(model: Seq2SeqModel, sources: Sequence):
    """Encode ``sources`` as one padded batch; returns the decoder core
    (one source per row) and the encoder final states [S, 2m]."""
    block, lengths = pad_sources(sources)
    tensors = model.store.as_tensors()
    h, enc_mask, final = model.encode(tensors, block, lengths)
    return model.decoder(tensors, h, enc_mask), final


def decode_batch(
    models: Sequence[Seq2SeqModel],
    sources: Sequence,
    beam_size: int = 8,
    lm: Optional[TrigramModel] = None,
    weights: Optional[FusionWeights] = None,
    max_len: Optional[int] = None,
    length_norm: bool = False,
    rescore_only: bool = False,
) -> list[DecodeResult]:
    """Breadth-limited search over the fused per-step distribution
    sum_j w_j ln p_j(w|.) + lm_weight * ln p_lm(w | last two tokens),
    one result per source.

    The sources are encoded as one padded batch, and the live hypotheses
    of every source share one row block per model, grouped by source; each
    source keeps its own beam of ``beam_size``.  Finished hypotheses
    retire to a per-source completed pool; the winner is the completed
    hypothesis with the highest cumulative score (per-token normalized
    when ``length_norm``), falling back to the best live hypothesis if
    nothing finished.  With ``rescore_only`` the language model is
    applied to the completed pool instead of during expansion.
    """
    if len(models) == 0:
        raise ValueError("beam search needs at least one model")
    check_limits(beam_size, max_len)
    if len(sources) == 0 or any(len(source) == 0 for source in sources):
        raise ValueError("source is empty")
    weights = weights or FusionWeights(lm_weight=0.0)
    model_weights = weights.resolve(len(models))
    fuse_lm = lm is not None and weights.lm_weight > 0.0 and not rescore_only
    id_map = vocabulary_id_map(lm, models[0].tgt_vocab) if lm is not None else None

    cores, states = [], []
    for model in models:
        core, final = _encode(model, sources)
        cores.append(core)
        states.append(core.init_state(final))
    positions = [int(n) for n in cores[0].enc_mask.sum(axis=1)]  # per source
    caps = [max_len or models[0].max_decode_length(n, len(source))
            for n, source in zip(positions, sources)]

    live = [[Hypothesis(tokens=(BOS_ID,), score=0.0, attention=[])] for _ in sources]
    completed: list[list[Hypothesis]] = [[] for _ in sources]
    overlong: list[list[Hypothesis]] = [[] for _ in sources]
    row_sources = np.arange(len(sources))  # the source of each row
    views = list(cores)

    while True:
        rows = [hyp for beam in live for hyp in beam]
        prev_ids = np.array([hyp.tokens[-1] for hyp in rows])
        for j, view in enumerate(views):
            states[j], dist, attn = view.step(states[j], prev_ids)
            scores = model_weights[j] * np.log(dist.data)
            if j == 0:
                fused, weight_rows = scores, attn.data
            else:
                fused += scores
        if fuse_lm:
            for i, hyp in enumerate(rows):
                u, v = _lm_context(hyp.tokens)
                fused[i] += weights.lm_weight * fused_log_rows(lm, id_map, u, v)

        totals = np.array([h.score for h in rows])[:, None] + fused
        if np.isnan(totals).any():
            raise DivergenceError("decoder scores are NaN")
        parents = []
        first = 0  # the source's first row
        for s, beam in enumerate(live):
            if not beam:
                continue
            flat = totals[first:first + len(beam)].reshape(-1)
            live[s] = []
            for flat_idx in _top_k(flat, beam_size):
                parent, token = divmod(int(flat_idx), totals.shape[1])
                hyp = beam[parent]
                new = Hypothesis(
                    tokens=hyp.tokens + (token,),
                    score=float(flat[flat_idx]),
                    attention=hyp.attention if token == EOS_ID
                    else hyp.attention + [weight_rows[first + parent, :positions[s]].copy()],
                    finished=token == EOS_ID,
                )
                if new.finished:
                    completed[s].append(new)
                elif len(new.tokens) - 1 >= caps[s]:
                    overlong[s].append(new)
                else:
                    live[s].append(new)
                    parents.append(first + parent)
            first += len(beam)
        if not parents:
            break
        if parents != list(range(len(rows))):  # greedy rows move only as sources finish
            index = np.array(parents)
            states = [gather_state(state, index) for state in states]
            moved = row_sources[index]
            if not np.array_equal(moved, row_sources):
                row_sources = moved
                views = [core.select(row_sources) for core in cores]

    results = []
    for s in range(len(sources)):
        pool = completed[s] if completed[s] else overlong[s]
        best = max(pool, key=lambda h: (_rank_score(h, lm, id_map, weights, rescore_only, length_norm),
                                        [-t for t in h.tokens]))
        attention = (np.vstack(best.attention) if best.attention
                     else np.zeros((0, positions[s])))
        results.append(DecodeResult(best.content, attention, best.score, best.finished))
    return results


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
