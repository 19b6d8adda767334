"""Interpolated trigram language model over target tokens.

p(w | u, v) = l3 * p3(w|u,v) + l2 * p2(w|v) + l1 * p1(w), with maximum
likelihood n-gram estimates.  Unseen higher-order contexts simply
contribute nothing (no renormalization).  The unigram distribution gives
every unseen word exactly 1/(V * total) and discounts seen words
proportionally, so it still sums to one and every probability is positive.

The model holds what its file holds: the [V] unigram counts and int64
records, [n, 3] rows (v, w, count) for bigrams and [n, 4] rows
(u, v, w, count) for trigrams.  Each record section is sorted and has no
repeated n-gram, so the successors of a context are one slice of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from typing import Optional, Sequence

import numpy as np

from .corpus import BOS_ID, EOS_ID, Vocabulary, whole_file

LM_MAGIC = "S2TLM1"
DEFAULT_LAMBDAS = (0.1, 0.3, 0.6)  # unigram, bigram, trigram


@dataclass
class TrigramModel:
    vocab: Vocabulary
    lambdas: tuple[float, float, float]
    unigram_counts: np.ndarray  # [V] counts of predicted tokens
    bigrams: np.ndarray         # [n, 3] records (v, w, count), sorted and unique
    trigrams: np.ndarray        # [n, 4] records (u, v, w, count), sorted and unique

    def __post_init__(self):
        l1, l2, l3 = self.lambdas
        if not (abs(l1 + l2 + l3 - 1.0) <= 1e-12 and min(l1, l2, l3) > 0):  # NaN fails too
            raise ValueError("interpolation weights must be positive and sum to 1")
        self.unigram_counts = np.asarray(self.unigram_counts, dtype=np.int64)
        self.unigram_probs = self._smoothed_unigrams()
        size = len(self.vocab)
        self._successors = (_successors(self.bigrams, size, l2), _successors(self.trigrams, size, l3))

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

    def context_distribution(self, u: int, v: int) -> np.ndarray:
        """p(. | u, v) as a new dense vector over the model's vocabulary: the
        unigram term, then one indexed add per seen higher-order context."""
        probs = self.lambdas[0] * self.unigram_probs
        for (spans, words, shares), context in zip(self._successors, (v, u * len(self.vocab) + v)):
            span = spans.get(context)
            if span is not None:
                start, stop = span
                probs[words[start:stop]] += shares[start:stop]
        return probs

    def logprob(self, u: int, v: int, w: int) -> float:
        return float(log(self.context_distribution(u, v)[w]))


def _successors(records: np.ndarray, size: int, weight: float):
    """One sorted record section as ({packed context: (start, stop) of its
    records}, successor ids, each record's ``weight * count / context total``)."""
    contexts, words, counts = _pack(records[:, :-2], size), records[:, -2], records[:, -1]
    starts = np.flatnonzero(np.diff(contexts, prepend=-1))
    stops = np.append(starts[1:], len(records))
    shares = weight * counts / np.repeat(np.add.reduceat(counts, starts), stops - starts)
    spans = dict(zip(contexts[starts].tolist(), zip(starts.tolist(), stops.tolist())))
    return spans, words, shares


def _pack(ids: np.ndarray, size: int) -> np.ndarray:
    """One int64 key per row of [n, k] token ids, ordered as the rows are."""
    if size ** ids.shape[1] > 2**63:
        raise ValueError(f"a vocabulary of {size} tokens is too large for int64 n-gram keys")
    keys = np.zeros(len(ids), dtype=np.int64)
    for column in ids.T:
        keys = keys * size + column
    return keys


def _count(grams: np.ndarray, size: int) -> np.ndarray:
    """Sorted unique [n, k + 1] records (ids..., count) of the rows of [events, k]."""
    _, first, counts = np.unique(_pack(grams, size), return_index=True, return_counts=True)
    return np.column_stack([grams[first], counts])


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
    events = []  # (u, v, w) for every predicted token
    for sentence in corpus:
        ids = [BOS_ID, BOS_ID] + vocab.encode_sequence(sentence) + [EOS_ID]
        events.extend(zip(ids, ids[1:], ids[2:]))
    grams = np.array(events, dtype=np.int64)
    size = len(vocab)
    return TrigramModel(vocab, tuple(lambdas), np.bincount(grams[:, 2], minlength=size),
                        _count(grams[:, 1:], size), _count(grams, size))


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
    """Header, vocabulary, then the seen unigrams as (w, count) records and
    the bigram and trigram records, one per line; written whole."""
    seen = np.flatnonzero(model.unigram_counts)
    sections = (("unigrams", np.column_stack([seen, model.unigram_counts[seen]])),
                ("bigrams", model.bigrams), ("trigrams", model.trigrams))
    with whole_file(path) as fh:
        fh.write(LM_MAGIC + "\n")
        fh.write("order=3\n")
        for i, lam in enumerate(model.lambdas, start=1):
            fh.write(f"lambda{i}={lam!r}\n")
        tokens = model.vocab.tokens()
        fh.write(f"vocab={len(tokens)}\n")
        for tok in tokens:
            fh.write(tok + "\n")
        for section, records in sections:
            fh.write(f"{section}={len(records)}\n")
            fh.writelines(" ".join(map(str, row)) + "\n" for row in records.tolist())


class LmFormatError(ValueError):
    """A language model file is malformed; the message names the file."""


def load_lm(path) -> TrigramModel:
    """Read a model file; any malformed content raises LmFormatError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse_lm(fh.read().splitlines())
    except ValueError as exc:  # UnicodeDecodeError included
        raise LmFormatError(f"{path}: {exc}") from None


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
    unigrams, bigrams, trigrams = (
        _records(block(int(take(f"{section}="))), section, width, vocab_size)
        for section, width in (("unigrams", 1), ("bigrams", 2), ("trigrams", 3)))
    if any(text.strip() for text in lines[pos:]):
        raise ValueError("trailing content after the trigram records")
    unigram_counts = np.zeros(vocab_size, dtype=np.int64)
    unigram_counts[unigrams[:, 0]] = unigrams[:, 1]
    return TrigramModel(vocab, lambdas, unigram_counts, bigrams, trigrams)


def _records(texts: list[str], section: str, width: int, vocab_size: int) -> np.ndarray:
    """One section's records as a [count, width + 1] int64 array, sorted by
    their ids with none repeated; the first bad record (see
    :func:`_bad_record`), or else the first out of order, is quoted.

    The section is split once, with a ``;`` token after each record: when
    every ``width + 2``-th token is ``;`` and every other one an integer,
    each record has exactly ``width + 1`` fields."""
    step, count = width + 2, len(texts)
    tokens = " ; ".join(texts + [""]).split()
    if len(tokens) == count * step and tokens[step - 1::step].count(";") == count:
        del tokens[step - 1::step]
        try:
            grid = np.fromiter(map(int, tokens), np.int64, len(tokens)).reshape(count, width + 1)
        except (ValueError, OverflowError):
            grid = None
        if grid is not None:
            ids, counts = grid[:, :-1], grid[:, -1]
            if not ((ids < 0) | (ids >= vocab_size)).any() and ((counts > 0) & (counts < 2**32)).all():
                keys = _pack(ids, vocab_size)
                unordered = np.flatnonzero(keys[1:] <= keys[:-1])
                if unordered.size:
                    raise ValueError(f"{section} record {texts[unordered[0] + 1]!r} "
                                     "is out of order or repeated")
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
