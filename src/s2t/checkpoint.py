"""Self-describing binary checkpoints.

Layout: magic ``S2TCKPT1``, a version word, a key=value text header
(config snapshot plus the optimizer step), optional vocabulary and
feature-stat sections, then named parameter records with float32 values
and Adam moments, sorted by name.

Saving rounds the live parameter store to float32 record by record, so
the file is the canonical state: a run that keeps training after a save and
a run that reloads the file continue from bit-identical parameters, which
makes training resumable with exact loss trajectories.  Loading maps the
file, converts only the values and then releases the mapping's resident
pages; the moments stay float32 views of the mapping, read back from the
file if training reads them.  A decoder loads its matrices in the layout
its products want (``load_checkpoint(path, order="F")``); the file and the
values are the same.
"""

from __future__ import annotations

import mmap
import struct
from typing import Optional

import numpy as np

from .audio import FeatureStats
from .autodiff import ParameterStore
from .config import config_from_lines
from .corpus import FieldReader, Vocabulary, whole_file
from .model import Seq2SeqModel, parameter_shapes

MAGIC = b"S2TCKPT1"
VERSION = 1


class CheckpointError(ValueError):
    pass


def _quantize(store: ParameterStore, name: str) -> tuple[np.ndarray, ...]:
    """Round one parameter and its Adam moments to float32 in place; returns the
    float32 (value, m1, m2) of its record, None for moments never built (left so)."""
    value = store.value(name).astype("<f4")
    store.set_value(name, value.astype(np.float64))
    m1, m2 = (None if m is None else m.astype("<f4") for m in store.held_moments(name))
    if m1 is not None:
        store.set_moments(name, m1, m2)  # float64 again on first use, as after a load
    return value, m1, m2


def _text_block(text: str) -> bytes:
    blob = text.encode("utf-8")
    return struct.pack("<I", len(blob)) + blob


def save_checkpoint(path, model: Seq2SeqModel) -> None:
    """Write ``model`` to ``path`` whole: a crash mid-write leaves the
    previous file intact."""
    with whole_file(path, "wb") as fh:
        _write_checkpoint(fh, model)


def _write_checkpoint(fh, model: Seq2SeqModel) -> None:
    store = model.store
    fh.write(MAGIC)
    fh.write(struct.pack("<I", VERSION))
    header = "\n".join(model.config.to_lines() + [f"step={store.step}"])
    fh.write(_text_block(header))

    fh.write(struct.pack("<B", 1 if model.src_vocab is not None else 0))
    if model.src_vocab is not None:
        fh.write(_text_block("\n".join(model.src_vocab.tokens())))
    fh.write(_text_block("\n".join(model.tgt_vocab.tokens())))

    fh.write(struct.pack("<B", 1 if model.feat_stats is not None else 0))
    if model.feat_stats is not None:
        dim = model.feat_stats.mean.shape[0]
        fh.write(struct.pack("<I", dim))
        fh.write(model.feat_stats.mean.astype("<f8").tobytes())
        fh.write(model.feat_stats.std.astype("<f8").tobytes())

    names = sorted(store.names())
    fh.write(struct.pack("<I", len(names)))
    for name in names:
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<H", len(encoded)))
        fh.write(encoded)
        value, m1, m2 = _quantize(store, name)
        fh.write(struct.pack("<B", value.ndim))
        fh.write(struct.pack(f"<{value.ndim}I", *value.shape))
        for arr in (value, m1, m2):
            fh.write(bytes(value.nbytes) if arr is None else arr.tobytes())


def load_checkpoint(path, order: str = "C") -> Seq2SeqModel:
    """Map the file read-only and convert only the parameter values; the
    moments stay float32 views of the mapping, which lives as long as they
    do.  ``save_checkpoint`` renames a new file over the old one, so a saved
    model never changes under a loaded one.  Every malformed file raises
    ``CheckpointError`` naming it.

    ``order`` is the memory order of each matrix value: "C" (row-major, the
    layout training keeps) or "F", the decode layout.  Every product reads
    a weight ``w`` as ``x @ w.T``; in "F" order ``w.T`` is the row-major
    [in, out] operand the BLAS multiplies without repacking it, and an
    embedding lookup ``table.T[ids]`` gathers contiguous rows.  With one
    OpenBLAS 0.3.31 thread on a 2-vCPU Xeon guest, 3 rows by the
    [4000, 256] output weight take 0.79 instead of 1.17 ms, 24 rows by a
    [1024, 256] gate weight 0.45 instead of 0.53 ms and a 24-id lookup
    3.2 instead of 13.3 us.  The values and their logical [out, in] shapes
    are the same, and so is the file a save of the model writes.  A
    decode's scores can differ from a row-major model's in the last bits:
    OpenBLAS multiplies the two layouts with different kernels for 256-wide
    outputs at 7 rows or fewer, and numpy takes a matrix-vector product
    for one row."""
    if order not in ("C", "F"):
        raise ValueError(f"unknown parameter order {order!r}")
    try:
        return _read_checkpoint(path, order)
    except CheckpointError:
        raise
    except ValueError as exc:  # a bad header value, vocabulary or UTF-8 text
        raise CheckpointError(f"{path}: {exc}") from None


def _fortran_float64(value: np.ndarray) -> np.ndarray:
    """The float64 copy of a row-major matrix in column-major order, made
    256 rows at a time: one strided pass over the whole matrix takes
    5-6x as long (7.6 against 1.4 ms for [4000, 256])."""
    out = np.empty(value.shape, order="F")
    for row in range(0, len(value), 256):
        out[row:row + 256] = value[row:row + 256]
    return out


def _read_checkpoint(path, order: str) -> Seq2SeqModel:
    with open(path, "rb") as fh:  # an empty file cannot be mapped: it reads as truncated
        blob = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if fh.read(1) else b""
    reader = FieldReader(blob, path, "checkpoint", CheckpointError)
    if bytes(reader.take(8)) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version = reader.number("<I")
    if version != VERSION:
        raise CheckpointError(f"{path}: unknown checkpoint format version {version}")

    header_lines = reader.text().splitlines()
    step = None
    config_lines = []
    for line in header_lines:
        if line.startswith("step="):
            step = line[5:]
        else:
            config_lines.append(line)
    if step is None:
        raise CheckpointError(f"{path}: header is missing the step counter")
    if not (step.isascii() and step.isdigit()):
        raise CheckpointError(f"{path}: step counter {step!r} is not a nonnegative integer")
    config = config_from_lines(config_lines).resolved()

    src_vocab = None
    if reader.number("<B"):
        src_vocab = Vocabulary.from_tokens(reader.text().split("\n"))
    tgt_vocab = Vocabulary.from_tokens(reader.text().split("\n"))
    feat_stats: Optional[FeatureStats] = None
    if reader.number("<B"):
        dim = reader.number("<I")
        feat_stats = FeatureStats(*(np.frombuffer(reader.take(8 * dim), dtype="<f8").copy()
                                    for _ in range(2)))

    store = ParameterStore()
    for _ in range(reader.number("<I")):
        name = reader.text("<H")
        shape = tuple(reader.number("<I") for _ in range(reader.number("<B")))
        count = int(np.prod(shape)) if shape else 1
        value, m1, m2 = (np.frombuffer(reader.take(4 * count), dtype="<f4").reshape(shape)
                         for _ in range(3))
        store.add(name, _fortran_float64(value) if order == "F" and value.ndim == 2 else value)
        store.set_moments(name, m1, m2)
    store.step = int(step)
    if not reader.at_end():
        raise CheckpointError(f"{path}: trailing bytes after checkpoint payload")
    # the values are converted: drop the mapping's resident pages; the moment
    # views fault theirs back in from the file if training reads them
    blob.madvise(mmap.MADV_DONTNEED)

    expected = parameter_shapes(config, len(src_vocab) if src_vocab else None, len(tgt_vocab))
    actual = {name: store.value(name).shape for name in store.names()}
    if actual != {name: tuple(shape) for name, shape in expected.items()}:
        missing = sorted(set(expected) ^ set(actual))
        raise CheckpointError(
            f"{path}: parameter set does not match the stored architecture"
            + (f" (mismatched names: {missing[:4]})" if missing else " (shape mismatch)")
        )
    return Seq2SeqModel(config, store, src_vocab, tgt_vocab, feat_stats)
