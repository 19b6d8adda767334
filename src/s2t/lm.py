"""Interpolated trigram language model over target tokens.

p(w | u, v) = l3 * p3(w|u,v) + l2 * p2(w|v) + l1 * p1(w), with maximum
likelihood n-gram estimates.  Unseen higher-order contexts simply
contribute nothing (no renormalization).  The unigram distribution gives
every unseen word exactly 1/(V * total) and discounts seen words
proportionally, so it still sums to one and every probability is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from typing import Optional, Sequence

import numpy as np

from .corpus import BOS_ID, EOS_ID, Vocabulary

LM_MAGIC = "S2TLM1"
DEFAULT_LAMBDAS = (0.1, 0.3, 0.6)  # unigram, bigram, trigram
# Cached contexts, each a float64 vector of V entries (32 KB at V=4000).  A
# beam-8 + LM translate group of 64 inputs of 6-13 tokens (untrained 256-unit
# model, V=4000) asks for at most 1,717 distinct contexts; a whole 1,000-line
# input for 3,163.
CONTEXT_CACHE_SIZE = 4096


@dataclass
class TrigramModel:
    vocab: Vocabulary
    lambdas: tuple[float, float, float]
    unigram_counts: np.ndarray              # [V] counts of predicted tokens
    bigram: dict                            # v -> {w: count}
    trigram: dict                           # (u, v) -> {w: count}

    def __post_init__(self):
        l1, l2, l3 = self.lambdas
        if not (abs(l1 + l2 + l3 - 1.0) <= 1e-12 and min(l1, l2, l3) > 0):  # NaN fails too
            raise ValueError("interpolation weights must be positive and sum to 1")
        self.unigram_counts = np.asarray(self.unigram_counts, dtype=np.int64)
        self._unigram_probs = self._smoothed_unigrams()
        self._bigram_totals = {v: sum(c.values()) for v, c in self.bigram.items()}
        self._trigram_totals = {uv: sum(c.values()) for uv, c in self.trigram.items()}
        self._context_cache: dict = {}

    def _smoothed_unigrams(self) -> np.ndarray:
        total = int(self.unigram_counts.sum())
        size = len(self.vocab)
        if total == 0:
            return np.full(size, 1.0 / size)
        floor = 1.0 / (size * total)
        unseen = int((self.unigram_counts == 0).sum())
        probs = self.unigram_counts / total * (1.0 - unseen * floor)
        probs[self.unigram_counts == 0] = floor
        return probs

    @property
    def unigram_probs(self) -> np.ndarray:
        return self._unigram_probs

    def context_distribution(self, u: int, v: int) -> np.ndarray:
        """p(. | u, v) as a dense vector over the model's vocabulary.  Up to
        ``CONTEXT_CACHE_SIZE`` contexts are cached; a full cache is cleared."""
        key = (u, v)
        cached = self._context_cache.get(key)
        if cached is not None:
            return cached
        l1, l2, l3 = self.lambdas
        probs = l1 * self._unigram_probs
        bi = self.bigram.get(v)
        if bi:
            probs = probs.copy()
            total = self._bigram_totals[v]
            for w, count in bi.items():
                probs[w] += l2 * count / total
        tri = self.trigram.get(key)
        if tri:
            if bi is None:
                probs = probs.copy()
            total = self._trigram_totals[key]
            for w, count in tri.items():
                probs[w] += l3 * count / total
        if len(self._context_cache) >= CONTEXT_CACHE_SIZE:
            self._context_cache.clear()
        self._context_cache[key] = probs
        return probs

    def logprob(self, u: int, v: int, w: int) -> float:
        return float(log(self.context_distribution(u, v)[w]))

    def observed_contexts(self) -> list[tuple[int, int]]:
        return list(self.trigram)


def train_trigram(
    corpus: Sequence[Sequence[str]],
    lambdas: tuple[float, float, float] = DEFAULT_LAMBDAS,
    vocab: Optional[Vocabulary] = None,
) -> TrigramModel:
    """Count-based maximum-likelihood model of the target side.

    Each sentence is predicted token by token with a BOS BOS initial
    context and an EOS terminal; BOS itself is never a predicted event.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    if vocab is None:
        vocab = Vocabulary.from_corpus(corpus)
    unigrams = np.zeros(len(vocab), dtype=np.int64)
    bigram: dict = {}
    trigram: dict = {}
    for sentence in corpus:
        ids = vocab.encode_sequence(sentence) + [EOS_ID]
        u, v = BOS_ID, BOS_ID
        for w in ids:
            unigrams[w] += 1
            bigram.setdefault(v, {})
            bigram[v][w] = bigram[v].get(w, 0) + 1
            trigram.setdefault((u, v), {})
            trigram[(u, v)][w] = trigram[(u, v)].get(w, 0) + 1
            u, v = v, w
    return TrigramModel(vocab, tuple(lambdas), unigrams, bigram, trigram)


def lm_logprob(model: TrigramModel, ids: Sequence[int]) -> float:
    """Log probability of a token-id sequence (content tokens only): sums
    ln p(w_t | w_{t-2}, w_{t-1}) with BOS BOS start and the EOS terminal."""
    if len(ids) == 0:
        raise ValueError("sequence is empty")
    total = 0.0
    u, v = BOS_ID, BOS_ID
    for w in list(ids) + [EOS_ID]:
        total += model.logprob(u, v, w)
        u, v = v, w
    return total


def vocabulary_id_map(model: TrigramModel, other: Vocabulary) -> np.ndarray:
    """Map ids of another vocabulary onto the model's ids by token string
    (missing tokens map to UNK)."""
    return np.array([model.vocab.encode(tok) for tok in other.tokens()], dtype=np.int64)


def fused_log_rows(model: TrigramModel, id_map: np.ndarray, u_other: int, v_other: int) -> np.ndarray:
    """ln p(w | u, v) for every id of the mapped vocabulary."""
    dist = model.context_distribution(int(id_map[u_other]), int(id_map[v_other]))
    return np.log(dist[id_map])


# --- textual model file; round-trips exactly ---


def save_lm(path, model: TrigramModel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LM_MAGIC + "\n")
        fh.write("order=3\n")
        for i, lam in enumerate(model.lambdas, start=1):
            fh.write(f"lambda{i}={lam!r}\n")
        tokens = model.vocab.tokens()
        fh.write(f"vocab={len(tokens)}\n")
        for tok in tokens:
            fh.write(tok + "\n")
        seen = np.flatnonzero(model.unigram_counts)
        fh.write(f"unigrams={len(seen)}\n")
        for w in seen:
            fh.write(f"{w} {model.unigram_counts[w]}\n")
        rows = [(v, w, c) for v, succ in sorted(model.bigram.items())
                for w, c in sorted(succ.items())]
        fh.write(f"bigrams={len(rows)}\n")
        for v, w, c in rows:
            fh.write(f"{v} {w} {c}\n")
        rows = [(u, v, w, c) for (u, v), succ in sorted(model.trigram.items())
                for w, c in sorted(succ.items())]
        fh.write(f"trigrams={len(rows)}\n")
        for u, v, w, c in rows:
            fh.write(f"{u} {v} {w} {c}\n")


def load_lm(path) -> TrigramModel:
    """Read a model file; any malformed content raises ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse_lm(fh.read().splitlines())
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {exc}") from None


def _parse_lm(lines: list[str]) -> TrigramModel:
    pos = 0

    def block(count: int) -> list[str]:
        nonlocal pos
        if count < 0:
            raise ValueError(f"negative count {count} in the header")
        if pos + count > len(lines):
            raise ValueError("truncated language model file")
        pos += count
        return lines[pos - count:pos]

    def take(prefix: str) -> str:
        text = block(1)[0]
        if not text.startswith(prefix):
            raise ValueError(f"expected {prefix!r}, found {text!r}")
        return text[len(prefix):]

    if block(1)[0] != LM_MAGIC:
        raise ValueError("not a language model file")
    if take("order=") != "3":
        raise ValueError("unsupported model order")
    lambdas = tuple(float(take(f"lambda{i}=")) for i in (1, 2, 3))
    vocab_size = int(take("vocab="))
    vocab = Vocabulary.from_tokens(block(vocab_size))
    sections = [_records(block(int(take(f"{section}="))), section, width, vocab_size)
                for section, width in (("unigrams", 1), ("bigrams", 2), ("trigrams", 3))]
    if any(text.strip() for text in lines[pos:]):
        raise ValueError("trailing content after the trigram records")
    unigrams = np.zeros(vocab_size, dtype=np.int64)
    for w, c in sections[0].tolist():
        unigrams[w] = c
    bigram: dict = {}
    for v, w, c in sections[1].tolist():
        bigram.setdefault(v, {})[w] = c
    trigram: dict = {}
    for u, v, w, c in sections[2].tolist():
        trigram.setdefault((u, v), {})[w] = c
    return TrigramModel(vocab, lambdas, unigrams, bigram, trigram)


def _records(texts: list[str], section: str, width: int, vocab_size: int) -> np.ndarray:
    """One section's records as a [count, width + 1] int64 array; the first
    bad record (see :func:`_bad_record`) is quoted.

    The section is split once, with a ``;`` token after each record: when
    every ``width + 2``-th token is ``;`` and every other one an integer,
    each record has exactly ``width + 1`` fields."""
    step, count = width + 2, len(texts)
    tokens = " ; ".join(texts).split()
    tokens.append(";")
    if len(tokens) == count * step and tokens[step - 1::step].count(";") == count:
        del tokens[step - 1::step]
        try:
            grid = np.fromiter(map(int, tokens), np.int64, len(tokens)).reshape(count, width + 1)
        except (ValueError, OverflowError):
            grid = None
        if grid is not None:
            ids, counts = grid[:, :-1], grid[:, -1]
            if not ((ids < 0) | (ids >= vocab_size)).any() and ((counts > 0) & (counts < 2**32)).all():
                return grid
    first = next(text for text in texts if _bad_record(text, width, vocab_size))
    raise ValueError(f"bad {section} record {first!r}")


def _bad_record(text: str, width: int, vocab_size: int) -> bool:
    """A record is ``width`` token ids in [0, vocab) and a count in [1, 2^32),
    which keeps the int64 unigram total from wrapping."""
    try:
        fields = [int(x) for x in text.split()]
    except ValueError:
        return True
    return (len(fields) != width + 1 or min(fields) < 0 or not 0 < fields[-1] < 2**32
            or max(fields[:-1]) >= vocab_size)
