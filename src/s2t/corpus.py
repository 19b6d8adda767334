"""Text ingestion: tokenization, vocabularies and padded training batches;
the file layer: ``whole_file`` writes each file s2t writes at once, whole
or not at all, and ``FieldReader`` parses both binary formats' fields."""

from __future__ import annotations

import contextlib
import os
import re
import secrets
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3

RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

_PUNCT = re.compile(r"([.,!?'\";:()])")


class DataError(ValueError):
    """Input data the program cannot use (exit code 2)."""


def tokenize(line: str) -> list[str]:
    """Lowercase, split on whitespace and isolate common punctuation marks."""
    return _PUNCT.sub(r" \1 ", line.lower()).split()


class Vocabulary:
    """Bidirectional token/id map with reserved PAD, BOS, EOS and UNK ids."""

    def __init__(self, tokens: Sequence[str]):
        self._id_to_token = list(RESERVED_TOKENS) + list(tokens)
        self._token_to_id = {tok: i for i, tok in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    @classmethod
    def from_corpus(cls, corpus: Sequence[Sequence[str]], max_size: Optional[int] = None) -> "Vocabulary":
        """Rank tokens by frequency (ties broken lexicographically); truncate
        the total size, reserved ids included, to ``max_size`` when given."""
        counts: dict[str, int] = {}
        for seq in corpus:
            for tok in seq:
                counts[tok] = counts.get(tok, 0) + 1
        ranked = sorted(counts, key=lambda tok: (-counts[tok], tok))
        if max_size is not None:
            ranked = ranked[: max(0, max_size - len(RESERVED_TOKENS))]
        return cls(ranked)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def encode(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def encode_sequence(self, tokens: Sequence[str]) -> list[int]:
        return [self.encode(t) for t in tokens]

    def decode(self, token_id: int) -> str:
        return self._id_to_token[token_id]

    def decode_sequence(self, ids: Sequence[int]) -> list[str]:
        return [self._id_to_token[i] for i in ids]

    def tokens(self) -> list[str]:
        """All tokens in id order, reserved entries included."""
        return list(self._id_to_token)

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "Vocabulary":
        """Rebuild from the full id-ordered token list (checkpoint loading)."""
        if tuple(tokens[:4]) != RESERVED_TOKENS:
            raise ValueError("vocabulary token list does not start with the reserved entries")
        return cls(tokens[4:])

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._id_to_token == other._id_to_token


@dataclass
class ParallelCorpus:
    """Aligned (source, target) pairs; sources are token-id lists for the
    text task or T x 41 feature arrays for the speech task."""

    sources: list
    targets: list[list[int]]

    def __post_init__(self):
        if len(self.sources) != len(self.targets):
            raise ValueError(
                f"source/target counts differ: {len(self.sources)} vs {len(self.targets)}"
            )

    def __len__(self) -> int:
        return len(self.sources)


@dataclass
class Batch:
    """Padded batch: BOS-prefixed decoder input, EOS-suffixed decoder output,
    and a mask that is 1 exactly on real target positions."""

    src: np.ndarray            # [B, S] int64 token ids or [B, S, D] float features
    src_lengths: np.ndarray    # [B]
    dec_in: np.ndarray         # [B, T+1] starts with BOS
    dec_out: np.ndarray        # [B, T+1] ends each row with EOS
    tgt_mask: np.ndarray       # [B, T+1] float64

    @property
    def size(self) -> int:
        return self.src.shape[0]

    @property
    def real_token_count(self) -> float:
        return float(self.tgt_mask.sum())


def pad_sources(sources: list) -> tuple[np.ndarray, np.ndarray]:
    """Token-id ([B, S], PAD-filled) or feature ([B, S, D], zero-filled)
    block of ``sources`` with their lengths."""
    lengths = np.array([len(s) for s in sources], dtype=np.int64)
    smax = int(lengths.max())
    first = np.asarray(sources[0])
    if first.ndim == 2:  # feature frames
        dim = first.shape[1]
        block = np.zeros((len(sources), smax, dim), dtype=np.float64)
        for i, s in enumerate(sources):
            block[i, : len(s)] = s
    else:
        block = np.full((len(sources), smax), PAD_ID, dtype=np.int64)
        for i, s in enumerate(sources):
            block[i, : len(s)] = s
    return block, lengths


def _pad_targets(targets: list[list[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tmax = max(len(t) for t in targets) + 1  # room for BOS / EOS
    dec_in = np.full((len(targets), tmax), PAD_ID, dtype=np.int64)
    dec_out = np.full((len(targets), tmax), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(targets), tmax), dtype=np.float64)
    for i, t in enumerate(targets):
        dec_in[i, 0] = BOS_ID
        dec_in[i, 1 : len(t) + 1] = t
        dec_out[i, : len(t)] = t
        dec_out[i, len(t)] = EOS_ID
        mask[i, : len(t) + 1] = 1.0
    return dec_in, dec_out, mask


def make_batch(sources: list, targets: list[list[int]]) -> Batch:
    src, lengths = pad_sources(sources)
    dec_in, dec_out, mask = _pad_targets(targets)
    return Batch(src, lengths, dec_in, dec_out, mask)


def make_batches(corpus: ParallelCorpus, batch_size: int = 64, shuffle_seed: int = 0) -> list[Batch]:
    """Deterministically shuffled batches, each padded to its own max source
    and target length; the final short batch is kept."""
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    order = np.random.default_rng(shuffle_seed).permutation(len(corpus))
    batches = []
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        batches.append(make_batch([corpus.sources[i] for i in idx], [corpus.targets[i] for i in idx]))
    return batches


def read_lines(path) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


@contextlib.contextmanager
def whole_file(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing (UTF-8 in text mode)
    and rename it over ``path`` when the block ends; on any error remove it
    instead, so ``path`` holds either its previous content or all of the
    new.  Each writer has its own temporary name, ``<path>.<pid>.<token>.tmp``,
    so two writers of one path never share a file: the last to finish wins
    whole.  A device or a pipe (``/dev/stdout``) is written in place, a
    link's target whole."""
    encoding = None if "b" in mode else "utf-8"
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


class FieldReader:
    """Little-endian fields read in order from a buffer (bytes or a mapping)
    holding the file ``path``.  Reading past the end raises
    ``error(f"{path}: truncated {what}")``."""

    def __init__(self, blob, path, what: str, error=DataError):
        self.blob = memoryview(blob)
        self.pos = 0
        self.path, self.what, self.error = path, what, error

    def take(self, count: int) -> memoryview:
        """The next ``count`` bytes, as a view into the buffer."""
        if self.pos + count > len(self.blob):
            raise self.error(f"{self.path}: truncated {self.what}")
        self.pos += count
        return self.blob[self.pos - count : self.pos]

    def number(self, fmt: str) -> int:
        """One field by its struct format, such as ``"<I"``."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def text(self, length_fmt: str = "<I") -> str:
        """UTF-8 text after its byte count."""
        start = self.pos
        try:
            return str(self.take(self.number(length_fmt)), "utf-8")
        except UnicodeDecodeError:
            raise self.error(f"{self.path}: text at byte {start} is not UTF-8") from None

    def at_end(self) -> bool:
        return self.pos == len(self.blob)
