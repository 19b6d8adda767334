"""One decode core: beam search with shallow language-model fusion and
log-linear ensembles of independently trained models.  Greedy decoding
is beam search of width 1, so "beam 1 equals greedy" holds by
construction.

A list of sources decodes at once: the live rows of every source share
one batched decoder state per model, grouped by source, and after each
step one ``gather_state`` by parent row moves every model's state to the
surviving rows.  A beam is arrays, not objects: a score and an LM context
per row, and a trail of (attention rows, parent row, token) per step that
the retired candidates are traced back through at the end.  Each source
keeps its own beam, and all tie-breaking prefers the lowest flat index
within the source's rows (parent row, then token id), so every decode is
bit-reproducible.

A search that ranks by raw score (neither ``length_norm`` nor
``rescore_only``) stops a source as soon as its best finished hypothesis
can no longer be beaten: a step adds each model's weighted log-probability,
at most 0, and the LM's, at most ``lm_weight * ln`` of the largest
probability the trigram model can return, about 0.  Once the best EOS
score exceeds every live row's score by more than the remaining steps
could add, no later candidate outranks it, so the result is the one the
search to the length cap returns.  Length-normalized and LM-rescored
searches rank by other scores and still run every source to its cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, ulp
from typing import Optional, Sequence

import numpy as np

from .corpus import BOS_ID, EOS_ID, PAD_ID, pad_sources
from .lm import TrigramModel, fused_log_rows, lm_logprob, vocabulary_id_map
from .model import DivergenceError, Seq2SeqModel, gather_state


class SearchLimitError(ValueError):
    """A search option (beam size, length cap, fusion weight) is out of range."""


@dataclass
class FusionWeights:
    """Per-model log-linear weights (uniform 1/J when omitted) plus a
    nonnegative language-model weight."""

    model_weights: Optional[list[float]] = None
    lm_weight: float = 0.2

    def resolve(self, n_models: int) -> list[float]:
        if not 0.0 <= self.lm_weight < float("inf"):  # NaN fails every comparison
            raise SearchLimitError("lm weight must be finite and nonnegative")
        if self.model_weights is None:
            return [1.0 / n_models] * n_models
        if len(self.model_weights) != n_models:
            raise SearchLimitError(
                f"{len(self.model_weights)} model weights for {n_models} models"
            )
        if not all(0.0 < w < float("inf") for w in self.model_weights):
            raise SearchLimitError("model weights must be finite and positive")
        return list(self.model_weights)


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
            raise SearchLimitError(f"{name} must be >= 1, got {value}")


def greedy_decode(model: Seq2SeqModel, source, max_len: Optional[int] = None) -> DecodeResult:
    """Argmax token per step (ties to the lowest id); stops at EOS or
    ``max_len``.  Attention rows cover the emitted content tokens."""
    return beam_search([model], source, beam_size=1, max_len=max_len)


# The largest probability a TrigramModel returns: its interpolation weights
# sum to at most 1 + 1e-12, and the rest covers the rounding of its sums.
LM_PROBABILITY_BOUND = 1.0 + 2e-12


def _settled(finished: float, live: float, steps_left: int, step_gain: float) -> bool:
    """Whether ``finished``, a source's best EOS score, outranks whatever its
    live rows, best score ``live``, can still reach when each of the
    ``steps_left`` steps adds at most ``step_gain``.  With no gain the
    comparison is exact (adding a score <= 0 never rounds up); a positive
    gain also covers each step's rounding near ``finished``."""
    if step_gain > 0.0:
        step_gain += 2 * ulp(finished)
    return finished > live + steps_left * step_gain


def _top_k(flat: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` highest scores, best first, ties to the lowest
    index: the head of a stable descending sort, without sorting it all."""
    if k == 1:
        return np.argmax(flat, keepdims=True)
    k = min(k, flat.size)
    kth = np.partition(flat, flat.size - k)[flat.size - k]
    candidates = np.flatnonzero(flat >= kth)  # ties with the k-th all stay
    return candidates[np.argsort(-flat[candidates], kind="stable")[:k]]


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
    one result per source.  The reserved ``<pad>`` and ``<bos>`` ids score
    -inf, and a candidate whose total is not finite enters no beam and no
    pool, so neither is ever decoded, at any beam width.

    The sources are encoded as one padded batch, and the live rows of
    every source (at most ``beam_size`` each) share one row block per
    model, grouped by source.  A source's length cap is ``max_len``, else
    2 x its encoder positions + 10.  The beam is arrays: each row's
    cumulative score and LM context (its last two tokens, BOS-padded), and
    a trail with one entry per step: that step's attention rows and, for
    each row that survives the step, its parent row and token.  A
    candidate that emits EOS or reaches the length cap retires to its
    source's pool as (score, step, row, token).  Only the pool entries are
    traced back through the trail, once, at the end.  The winner ranks
    highest by (finished, cumulative score, lowest token ids): an entry
    that emitted EOS beats one cut at the cap, and the score is per-token
    normalized when ``length_norm``.  With ``rescore_only`` the language
    model scores the pool instead of every expansion.

    When the winner ranks by raw score (neither ``length_norm`` nor
    ``rescore_only``), a source stops before its cap once its best EOS
    score exceeds each live row's score by more than the remaining steps
    can add (see :func:`_settled`): no step adds more than 0 from the models
    and ``lm_weight * ln LM_PROBABILITY_BOUND`` from the LM, so no later
    candidate can outrank that EOS candidate and every result is the one the
    search to the cap returns.  Its live rows leave the block as a capped
    source's do.
    """
    if len(models) == 0:
        raise ValueError("beam search needs at least one model")
    check_limits(beam_size, max_len)
    if len(sources) == 0 or any(len(source) == 0 for source in sources):
        raise ValueError("source is empty")
    weights = weights or FusionWeights(lm_weight=0.0)
    model_weights = weights.resolve(len(models))
    fuse_lm = lm is not None and weights.lm_weight > 0.0 and not rescore_only
    stop_early = not (length_norm or rescore_only)  # the winner ranks by raw score
    step_gain = weights.lm_weight * log(LM_PROBABILITY_BOUND) if fuse_lm else 0.0
    id_map = vocabulary_id_map(lm, models[0].tgt_vocab) if lm is not None else None

    block, lengths = pad_sources(sources)
    cores, states = [], []
    for model in models:
        core, state = model.start(model.store.as_tensors(), block, lengths)
        cores.append(core)
        states.append(state)
    positions = [int(n) for n in cores[0].enc_mask.sum(axis=1)]  # per source
    caps = [max_len or 2 * n + 10 for n in positions]

    sizes = [1] * len(sources)  # live rows per source, in row order
    scores = np.zeros(len(sources))
    context = np.full((len(sources), 2), BOS_ID)
    prev_ids = np.full(len(sources), BOS_ID)
    retired = [[] for _ in sources]  # per source: (score, step, row, token)
    best_finished = [-np.inf] * len(sources)  # per source: its best EOS score
    trail = []  # per step: (attention rows, parent row, token) of the survivors
    row_sources = np.arange(len(sources))  # the source of each row
    views = list(cores)

    while True:
        step = len(trail)
        for j, view in enumerate(views):
            states[j], dist, attn = view.step(states[j], prev_ids)
            with np.errstate(divide="ignore"):  # an underflowed probability scores -inf
                model_scores = model_weights[j] * np.log(dist.data)
            if j == 0:
                fused, attn_rows = model_scores, attn.data
            else:
                fused += model_scores
        if fuse_lm:  # one LM row per distinct context, gathered by row
            keys, inverse = np.unique(context, axis=0, return_inverse=True)
            lm_rows = np.array([fused_log_rows(lm, id_map, u, v) for u, v in keys.tolist()])
            fused += weights.lm_weight * lm_rows[inverse.reshape(-1)]
        fused[:, [PAD_ID, BOS_ID]] = -np.inf  # reserved ids are never decoded

        totals = scores[:, None] + fused
        if np.isnan(totals).any():
            raise DivergenceError("decoder scores are NaN")
        vocab = totals.shape[1]
        flat = totals.reshape(-1)
        survivors, first = [], 0  # first: the source's first row
        for s, size in enumerate(sizes):
            if not size:
                continue
            best = first * vocab + _top_k(flat[first * vocab:(first + size) * vocab], beam_size)
            best = best[np.isfinite(flat[best])]  # a masked or impossible candidate goes nowhere
            first += size
            eos = best % vocab == EOS_ID
            retire = eos | (step + 1 >= caps[s])
            for index in best[retire].tolist():
                retired[s].append((float(flat[index]), step, *divmod(index, vocab)))
            if eos.any():  # best is sorted, so its first EOS is the best one
                best_finished[s] = max(best_finished[s], float(flat[best[eos][0]]))
            live = best[~retire]
            if stop_early and live.size and _settled(best_finished[s], float(flat[live[0]]),
                                                     caps[s] - step - 1, step_gain):
                live = live[:0]
            survivors.append(live)
            sizes[s] = len(live)
        keep = np.concatenate(survivors)
        parents, prev_ids = np.divmod(keep, vocab)
        trail.append((attn_rows, parents, prev_ids))
        if not len(keep):
            break
        scores = flat[keep]
        context = np.column_stack([context[parents, 1], prev_ids])
        if not np.array_equal(parents, np.arange(len(totals))):  # greedy rows move only as sources finish
            states = [gather_state(state, parents) for state in states]
            moved = row_sources[parents]
            if not np.array_equal(moved, row_sources):
                row_sources = moved
                views = [core.select(row_sources) for core in cores]

    results = []
    for s, width in enumerate(positions):
        if not retired[s]:
            raise DivergenceError(f"source {s}: no candidate has a finite score")
        entries = []
        for score, step, row, token in retired[s]:
            tokens, path = _trace(trail, step, row, token)
            finished = token == EOS_ID
            content = tokens[:-1] if finished else tokens
            rank = _rank_score(score, content, finished, lm, id_map, weights, rescore_only, length_norm)
            entries.append(((finished, rank, [-t for t in tokens]), score, content, finished, path))
        _, score, content, finished, path = max(entries, key=lambda entry: entry[0])
        rows = [trail[t][0][path[t], :width] for t in range(len(content))]
        attention = np.vstack(rows) if rows else np.zeros((0, width))
        results.append(DecodeResult(content, attention, score, finished))
    return results


def _trace(trail: list, step: int, row: int, token: int) -> tuple[list[int], list[int]]:
    """The tokens emitted up to ``token``, the candidate of ``row`` at
    ``step``, and the row of each step 0 .. ``step`` on the way there."""
    tokens, rows = [token], [row]
    for _, parents, emitted in reversed(trail[:step]):
        tokens.append(int(emitted[rows[-1]]))
        rows.append(int(parents[rows[-1]]))
    return tokens[::-1], rows[::-1]


def _rank_score(score: float, content: list[int], finished: bool, lm, id_map, weights,
                rescore_only: bool, length_norm: bool) -> float:
    if rescore_only and lm is not None and weights.lm_weight > 0.0:
        ids = [int(id_map[t]) for t in content]
        lm_score = lm_logprob(lm, ids) if ids else lm.logprob(BOS_ID, BOS_ID, EOS_ID)
        score = score + weights.lm_weight * lm_score
    if length_norm:
        score = score / max(1, len(content) + finished)  # EOS counts as a step
    return score
