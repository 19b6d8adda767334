"""Malformed inputs end in a typed error and exit code 2, a diverged
checkpoint in exit code 3, and a failed save never damages the previous
checkpoint."""

import contextlib
import errno
import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import s2t.checkpoint as checkpoint
import s2t.corpus as corpus
from s2t.audio import (ARCHIVE_MAGIC, FEATURE_DIM, SUPPORTED_RATES, AudioFormatError, load_pcm_wav,
                       read_feature_archive, write_feature_archive)
from s2t.checkpoint import load_checkpoint, save_checkpoint
from s2t.cli import main
from s2t.corpus import EOS_ID
from s2t.config import ConfigError, RunConfig, config_from_lines, load_config
from s2t.lm import load_lm, save_lm, train_trigram
from s2t.model import parameter_shapes
from s2t.search import _top_k, beam_search
from s2t.training import rewind_log

from test_audio import write_wav
from test_cli import TRAIN_FLAGS, run
from util import build_tiny_model, randomize


def _archive(tmp_path, frames=6):
    path = tmp_path / "feats.bin"
    rows = np.random.default_rng(0).normal(size=(frames, FEATURE_DIM)).astype(np.float32)
    write_feature_archive(path, [("u0", rows)])
    return path


def _speech_checkpoint(tmp_path):
    path = tmp_path / "speech.ckpt"
    save_checkpoint(path, randomize(build_tiny_model(task="speech", m=3, n=3, tgt_words=5), seed=3))
    return path


def _archive_command(tmp_path, command, archive):
    """argv of ``train`` on ``archive`` with one target line, or of
    ``translate`` of it with a tiny speech checkpoint."""
    if command == "train":
        tgt = tmp_path / "train.tgt"
        tgt.write_text("t0 t1\n")
        return ["train", "--task", "speech", "--train-src", str(archive), "--train-tgt", str(tgt),
                "--save-dir", str(tmp_path / "run"), *TRAIN_FLAGS]
    return ["translate", "--checkpoint", str(_speech_checkpoint(tmp_path)), "--input", str(archive)]


@pytest.mark.parametrize("cut", [8, 10, 16])
@pytest.mark.parametrize("command", ["train", "translate"])
def test_truncated_archive_exits_2(tmp_path, capsys, cut, command):
    archive = tmp_path / "cut.bin"
    archive.write_bytes(_archive(tmp_path).read_bytes()[:cut])
    with pytest.raises(ValueError, match="truncated"):
        read_feature_archive(archive)
    code, _, err = run(capsys, *_archive_command(tmp_path, command, archive))
    assert code == 2
    assert "truncated archive" in err


def test_archive_cut_at_every_field_boundary_is_truncated(tmp_path, capsys, monkeypatch):
    """An archive cut where any field of its header or of a record ends
    raises "truncated archive", and translate exits 2.  (A cut exactly at a
    record boundary leaves a shorter archive that reads as valid.)"""
    path = tmp_path / "full.bin"
    rng = np.random.default_rng(2)
    opened = _filling_open(monkeypatch, budget=float("inf"))
    write_feature_archive(path, [(name, rng.normal(size=(t, FEATURE_DIM)).astype(np.float32))
                                 for name, t in (("u0", 5), ("utt1", 3))])
    monkeypatch.undo()
    starts = opened[0].starts  # magic, dimension, then 4 fields per record
    assert len(starts) == 2 + 2 * 4
    blob = path.read_bytes()
    records = set(starts[2::4])
    cuts = [end for end in starts[1:] if end not in records] + [len(blob) - 1]
    assert cuts == [8, 14, 16, 20, starts[6] + 2, starts[6] + 6, starts[6] + 10, len(blob) - 1]
    checkpoint_path = _speech_checkpoint(tmp_path)
    cut = tmp_path / "cut.bin"
    for end in cuts:
        cut.write_bytes(blob[:end])
        with pytest.raises(ValueError, match="truncated archive"):
            read_feature_archive(cut)
        code, out, err = run(capsys, "translate", "--checkpoint", str(checkpoint_path), "--input", str(cut))
        assert code == 2 and out == ""
        assert f"{cut}: truncated archive" in err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("command", ["train", "translate"])
def test_non_finite_archive_exits_2(tmp_path, capsys, value, command):
    """A NaN or infinite feature value is an input error naming its record,
    before any model reads it."""
    archive = tmp_path / "bad.bin"
    rows = np.random.default_rng(1).normal(size=(6, FEATURE_DIM)).astype(np.float32)
    rows[3, 7] = value
    write_feature_archive(archive, [("u0", np.zeros((4, FEATURE_DIM), np.float32)), ("u1", rows)])
    with pytest.raises(ValueError, match="non-finite feature value in record 'u1'"):
        read_feature_archive(archive)
    code, out, err = run(capsys, *_archive_command(tmp_path, command, archive))
    assert code == 2
    assert "non-finite feature value in record 'u1'" in err
    assert out == ""


@pytest.mark.parametrize("command", ["train", "translate"])
def test_archive_utterance_id_not_utf8_names_the_file(tmp_path, capsys, command):
    archive = tmp_path / "id.bin"
    write_feature_archive(archive, [("u0", np.zeros((6, FEATURE_DIM), np.float32))])
    archive.write_bytes(archive.read_bytes().replace(b"u0", b"\xff0", 1))
    with pytest.raises(ValueError, match=re.escape(str(archive)) + ".*not UTF-8"):
        read_feature_archive(archive)
    code, out, err = run(capsys, *_archive_command(tmp_path, command, archive))
    assert code == 2
    assert str(archive) in err
    assert out == ""


def test_unsupported_sample_rate_names_the_wav(tmp_path, capsys):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    wav = wav_dir / "odd.wav"
    write_wav(wav, [0] * 2000, rate=11025)
    with pytest.raises(AudioFormatError, match=re.escape(str(wav)) + ".*sample rate 11025"):
        load_pcm_wav(wav)
    code, out, err = run(capsys, "extract-features", "--wav-dir", str(wav_dir),
                         "--output", str(tmp_path / "feats.bin"))
    assert code == 2
    assert str(wav) in err
    assert out == ""


def test_truncated_wav_data_chunk_is_an_error(tmp_path, capsys):
    """A data chunk that declares 32,000 bytes with 2,199 present is a
    truncated file, not 1,099 samples."""
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    wav = wav_dir / "cut.wav"
    write_wav(wav, np.random.default_rng(5).integers(-3000, 3000, 16000).tolist())
    blob = bytearray(wav.read_bytes())
    assert blob[36:40] == b"data"
    struct.pack_into("<I", blob, 40, 32000)
    wav.write_bytes(bytes(blob[:44 + 2199]))
    with pytest.raises(AudioFormatError, match=re.escape(f"{wav}: truncated")):
        load_pcm_wav(wav)
    code, out, err = run(capsys, "extract-features", "--wav-dir", str(wav_dir),
                         "--output", str(tmp_path / "feats.bin"))
    assert code == 2
    assert f"{wav}: truncated" in err
    assert out == ""


def test_archive_with_wrong_dimension_is_rejected(tmp_path):
    path = tmp_path / "dim3.bin"
    record = struct.pack("<H", 2) + b"u0" + struct.pack("<I", 2) + np.zeros(6, "<f4").tobytes()
    path.write_bytes(ARCHIVE_MAGIC + struct.pack("<I", 3) + record)
    with pytest.raises(ValueError, match="3-dim"):
        read_feature_archive(path)


def test_truncated_lm_file_names_the_file(tmp_path, capsys):
    path = tmp_path / "cut.lm"
    full = tmp_path / "full.lm"
    save_lm(full, train_trigram([["t0", "t1", "t2"], ["t1", "t2"]]))
    path.write_text("".join(full.read_text().splitlines(keepends=True)[:5]))
    with pytest.raises(ValueError, match="cut.lm: truncated"):
        load_lm(path)
    model = tmp_path / "text.ckpt"
    save_checkpoint(model, randomize(build_tiny_model(m=3, n=3, src_words=5, tgt_words=5), seed=4))
    inp = tmp_path / "in.txt"
    inp.write_text("t0 t1\n")
    code, _, err = run(capsys, "translate", "--checkpoint", str(model), "--input", str(inp),
                       "--lm", str(path))
    assert code == 2
    assert "cut.lm" in err


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, randomize(build_tiny_model(m=3, n=3), seed=5))
    before = path.read_bytes()
    real_block = checkpoint._text_block
    calls = []

    def failing_block(text):
        calls.append(text)
        if len(calls) == 2:  # the header is already written
            raise OSError("disk full")
        return real_block(text)

    monkeypatch.setattr(checkpoint, "_text_block", failing_block)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, randomize(build_tiny_model(m=3, n=3), seed=6))
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt"]
    load_checkpoint(path)


def test_failed_archive_write_keeps_previous_archive(tmp_path):
    """A second item that is not T x 41 fails the write after the first
    record is out; the previous archive stays as it was and no .tmp file is
    left."""
    path = _archive(tmp_path)
    before = path.read_bytes()
    rows = np.ones((3, FEATURE_DIM), np.float32)
    with pytest.raises(ValueError, match="u1: feature matrix must be T x 41"):
        write_feature_archive(path, [("u0", rows), ("u1", rows[:, :40])])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


class _FillingFile:
    """A file opened for writing that takes ``budget`` bytes (or characters)
    and then fails as a full disk does, having written part of the call;
    records where each write call starts."""

    def __init__(self, fh, budget):
        self.fh, self.budget, self.written, self.starts = fh, budget, 0, []

    def write(self, data):
        self.starts.append(self.written)
        self.written += len(data)
        if len(data) > self.budget:
            self.fh.write(data[:self.budget])
            self.budget = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _filling_open(monkeypatch, budget):
    """Every file ``s2t.corpus.whole_file`` opens takes ``budget`` bytes."""
    opened = []

    def open_(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        if "w" in mode:
            fh = _FillingFile(fh, budget)
            opened.append(fh)
        return fh

    monkeypatch.setattr(corpus, "open", open_, raising=False)
    return opened


def _write_with(tmp_path, writer, seed):
    """Write the file of ``writer`` (a name below) with content that depends
    on ``seed``; returns the exit code of a command, else 0."""
    rng = np.random.default_rng(seed)
    path = tmp_path / writer
    if writer == "checkpoint":
        save_checkpoint(path, randomize(build_tiny_model(m=3, n=3), seed=seed))
    elif writer == "archive":
        write_feature_archive(path, [(f"u{i}", rng.normal(size=(5, FEATURE_DIM)).astype(np.float32))
                                     for i in range(2)])
    elif writer == "lm":
        save_lm(path, train_trigram([[f"t{i}" for i in rng.integers(0, 6, 6)] for _ in range(3)]))
    elif writer == "train.log":
        if seed == 0:
            path.write_text("".join(f"{step}\t2.5\t-\t-\n" for step in range(1, 7)))
        else:
            rewind_log(path, 3)
    else:
        model = tmp_path / "text.ckpt"
        if not model.exists():  # never choosing EOS, greedy search writes long lines
            tiny = randomize(build_tiny_model(m=3, n=3, src_words=5, tgt_words=5), seed=4)
            tiny.store.set_value("dec.vocab_b", np.where(np.arange(9) == EOS_ID, -50.0, 0.0))
            save_checkpoint(model, tiny)
        inp = tmp_path / "in.txt"
        inp.write_text(["t0 t1 t2\nt3\n", "t3 t2\nt1 t0 t4\n"][seed % 2])
        with contextlib.redirect_stderr(io.StringIO()):
            beam = ["--beam-size", "1"] if writer == "translate" else []
            return main([writer, "--checkpoint", str(model), "--input", str(inp), "--output", str(path),
                         *beam])
    return 0


@pytest.mark.parametrize("writer", ["checkpoint", "archive", "lm", "train.log", "translate",
                                    "dump-attention"])
def test_full_disk_mid_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    """Every file s2t writes at once is written whole: when the disk fills
    halfway through the new content, the previous file stays
    byte-identical, no .tmp file is left, and a command exits 2."""
    assert _write_with(tmp_path, writer, 0) == 0
    path = tmp_path / writer
    before = path.read_bytes()
    opened = _filling_open(monkeypatch, budget=float("inf"))
    assert _write_with(tmp_path, writer, 1) == 0
    assert path.read_bytes() != before and len(opened) == 1
    path.write_bytes(before)
    listing = sorted(p.name for p in tmp_path.iterdir())

    _filling_open(monkeypatch, budget=opened[0].written // 2)
    if writer in ("translate", "dump-attention"):
        assert _write_with(tmp_path, writer, 1) == 2
    else:
        with pytest.raises(OSError, match="No space left"):
            _write_with(tmp_path, writer, 1)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == listing


@pytest.mark.parametrize("flag, value, message", [
    ("--lm-weight", "-1", "nonnegative"), ("--lm-weight", "nan", "nonnegative"),
    ("--lm-weight", "inf", "nonnegative"), ("--model-weight", "nan", "model weights"),
    ("--model-weight", "inf", "model weights"),
], ids=["lm-negative", "lm-nan", "lm-inf", "model-nan", "model-inf"])
def test_negative_lm_weight_exits_2(tmp_path, capsys, flag, value, message):
    """Negative or non-finite fusion weights fail the run before decoding."""
    model = tmp_path / "text.ckpt"
    save_checkpoint(model, randomize(build_tiny_model(m=3, n=3, src_words=5, tgt_words=5), seed=7))
    lm_path = tmp_path / "toy.lm"
    save_lm(lm_path, train_trigram([["t0", "t1"]]))
    inp = tmp_path / "in.txt"
    inp.write_text("t0 t1\n")
    code, out, err = run(capsys, "translate", "--checkpoint", str(model), "--input", str(inp),
                         "--lm", str(lm_path), flag, value)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("beam", ["1", "8"])
def test_nan_checkpoint_translate_exits_3(tmp_path, capsys, beam):
    model = build_tiny_model(m=3, n=3, src_words=5, tgt_words=5)
    model.store.set_value("dec.vocab_b", np.full(len(model.tgt_vocab), np.nan))
    path = tmp_path / "nan.ckpt"
    save_checkpoint(path, model)
    inp = tmp_path / "in.txt"
    inp.write_text("t0 t1\n")
    code, out, err = run(capsys, "translate", "--checkpoint", str(path), "--input", str(inp),
                         "--beam-size", beam)
    assert code == 3
    assert "divergence" in err
    assert out == ""


def test_text_file_for_speech_task_exits_2(tmp_path, capsys):
    src = tmp_path / "train.src"
    src.write_text("t0 t1\n")
    code, _, err = run(capsys, "train", "--task", "speech", "--train-src", str(src),
                       "--train-tgt", str(src), "--save-dir", str(tmp_path / "run"), *TRAIN_FLAGS)
    assert code == 2
    assert "feature archive" in err


def test_top_k_is_the_head_of_a_stable_descending_sort():
    rng = np.random.default_rng(0)
    for trial in range(300):
        flat = rng.integers(-4, 1, size=int(rng.integers(1, 40))).astype(float)  # many ties
        flat[rng.random(flat.size) < 0.2] = -np.inf
        for k in (1, 2, 3, 8, flat.size, flat.size + 3):
            expected = np.argsort(-flat, kind="stable")[:k]
            np.testing.assert_array_equal(_top_k(flat, k), expected)


def _section_start(lines, section):
    """Index of the first record line of ``section``."""
    return next(i for i, line in enumerate(lines) if line.startswith(section + "=")) + 1


def _translate_with_lm(tmp_path, capsys, lm_path):
    """``translate`` of one line with a tiny text model and the LM file."""
    model = tmp_path / "text.ckpt"
    save_checkpoint(model, randomize(build_tiny_model(m=3, n=3, src_words=5, tgt_words=5), seed=9))
    inp = tmp_path / "in.txt"
    inp.write_text("t0 t1\n")
    return run(capsys, "translate", "--checkpoint", str(model), "--input", str(inp),
               "--lm", str(lm_path))


def _lm_file(path):
    save_lm(path, train_trigram([["t0", "t1", "t2"], ["t1", "t2"], ["t2", "t0"]]))
    return path


@pytest.mark.parametrize("section, record", [
    ("unigrams", "999 1"),      # id past the vocabulary
    ("unigrams", "-1 1"),       # negative id
    ("unigrams", "4 -3"),       # negative count
    ("unigrams", "4 99999999999999999999"),  # count past int64
    ("bigrams", "4 999 1"),
    ("bigrams", "4 5 0"),       # zero count
    ("trigrams", "1 1 999 1"),
    ("trigrams", "1 1 4"),      # missing count
])
def test_lm_record_out_of_range_exits_2(tmp_path, capsys, section, record):
    path = _lm_file(tmp_path / "bad.lm")
    lines = path.read_text().splitlines()
    first = _section_start(lines, section)
    lines[first] = record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"bad.lm: bad {section} record"):
        load_lm(path)
    code, out, err = _translate_with_lm(tmp_path, capsys, path)
    assert code == 2
    assert "bad.lm" in err
    assert out == ""


@pytest.mark.parametrize("section, records, quoted", [
    ("unigrams", ["4 1 ;", "5 2"], "4 1 ;"),       # a separator-like token
    ("unigrams", ["4 ; 1", "5 2"], "4 ; 1"),
    ("bigrams", ["4 5 1.5", "4 999 1"], "4 5 1.5"),  # the first of two bad records
    ("bigrams", ["4 5", "4 5 1 1"], "4 5"),         # short, then long: same token total
    ("trigrams", ["1 1 4 1", "1 1 4 2 7"], "1 1 4 2 7"),
])
def test_lm_first_bad_record_is_quoted(tmp_path, section, records, quoted):
    path = _lm_file(tmp_path / "bad.lm")
    lines = path.read_text().splitlines()
    first = _section_start(lines, section)
    lines[first:first + len(records)] = records
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"bad.lm: bad {section} record '{re.escape(quoted)}'$"):
        load_lm(path)


@pytest.mark.parametrize("sections", [("unigrams",), ("bigrams",), ("trigrams",),
                                      ("unigrams", "bigrams", "trigrams")],
                         ids=["unigrams", "bigrams", "trigrams", "all"])
def test_lm_with_empty_sections_loads_and_decodes(tmp_path, capsys, sections):
    """A section of zero records holds no counts: an empty unigram section
    gives the uniform unigram distribution, an empty bigram or trigram
    section leaves every context unseen at that order."""
    path = _lm_file(tmp_path / "empty.lm")
    lines = path.read_text().splitlines()
    for section in sections:
        start = _section_start(lines, section)
        count = int(lines[start - 1].split("=")[1])
        lines[start - 1:start + count] = [f"{section}=0"]
    path.write_text("\n".join(lines) + "\n")
    model = load_lm(path)
    size = len(model.vocab)
    for u in range(size):
        for v in range(size):
            dist = model.context_distribution(u, v)
            assert np.isfinite(dist).all() and (dist > 0).all()
    if "unigrams" in sections:
        np.testing.assert_array_equal(model.unigram_probs, np.full(size, 1.0 / size))
    code, out, err = _translate_with_lm(tmp_path, capsys, path)
    assert code == 0, err
    assert len(out.splitlines()) == 1


@pytest.mark.parametrize("section, change", [
    ("unigrams", "swap"), ("bigrams", "swap"), ("trigrams", "swap"), ("bigrams", "repeat"),
])
def test_lm_records_out_of_order_or_repeated_exit_2(tmp_path, capsys, section, change):
    """Each section must be sorted by its ids with none repeated, as
    ``save_lm`` writes it; the first record breaking that is quoted."""
    path = _lm_file(tmp_path / "order.lm")
    lines = path.read_text().splitlines()
    first = _section_start(lines, section)
    quoted = lines[first]
    if change == "swap":
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
    else:
        lines[first + 1] = lines[first]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"order.lm: {section} record '{re.escape(quoted)}' "
                                         "is out of order or repeated$"):
        load_lm(path)
    code, out, err = _translate_with_lm(tmp_path, capsys, path)
    assert code == 2
    assert "out of order or repeated" in err
    assert out == ""


def test_lm_negative_record_count_is_rejected(tmp_path):
    path = _lm_file(tmp_path / "neg.lm")
    text = path.read_text()
    path.write_text(text.replace("trigrams=", "trigrams=-", 1))
    with pytest.raises(ValueError, match="neg.lm: negative count"):
        load_lm(path)


_MUTATION = st.one_of(
    st.tuples(st.just("cut"), st.floats(0.0, 1.0)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0), st.integers(1, 255)),
    st.tuples(st.just("tail"), st.binary(min_size=1, max_size=12)),
)


def _mutated(blob: bytes, mutations) -> bytes:
    out = bytearray(blob)
    for kind, *args in mutations:
        if kind == "cut":
            out = out[:int(args[0] * len(out))]
        elif kind == "flip" and out:
            out[min(int(args[0] * len(out)), len(out) - 1)] ^= args[1]
        elif kind == "tail":
            out += args[0]
    return bytes(out)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_lm_file_fails_typed_or_loads_sane(tmp_path_factory, mutations):
    """Truncation, byte flips and trailing bytes either fail with ValueError
    or load a model whose every context distribution is finite and positive."""
    path = _lm_file(tmp_path_factory.mktemp("lm") / "mutated.lm")
    path.write_bytes(_mutated(path.read_bytes(), mutations))
    try:
        model = load_lm(path)
    except ValueError:
        return
    size = len(model.vocab)
    for u in range(size):
        for v in range(size):
            dist = model.context_distribution(u, v)
            assert dist.shape == (size,)
            assert np.isfinite(dist).all() and (dist > 0).all()


@pytest.fixture(scope="module")
def text_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "text.ckpt"
    save_checkpoint(path, randomize(build_tiny_model(m=3, n=3, src_words=5, tgt_words=5), seed=5))
    inp = path.parent / "in.txt"
    inp.write_text("t0 t1 t2\nt3\n")
    return path.read_bytes(), inp


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_checkpoint_fails_typed_or_loads_sane(tmp_path_factory, text_checkpoint, mutations):
    """Truncation, byte flips and trailing bytes either fail to load with
    ValueError (CheckpointError among them), and ``translate`` exits 2, or
    load with every parameter at its declared shape.  ``translate`` then
    exits 0, or 3 when a flipped float32 is no longer finite: the format has
    no checksum, so such a file reads like a diverged checkpoint."""
    blob, inp = text_checkpoint
    path = tmp_path_factory.mktemp("mutated") / "mutated.ckpt"
    path.write_bytes(_mutated(blob, mutations))
    try:
        model = load_checkpoint(path)
    except ValueError:
        model = None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["translate", "--checkpoint", str(path), "--input", str(inp), "--beam-size", "2"])
    if model is None:
        assert code == 2
        return
    shapes = parameter_shapes(model.config, len(model.src_vocab), len(model.tgt_vocab))
    assert {n: model.store.value(n).shape for n in model.store.names()} == shapes
    finite = all(np.isfinite(model.store.value(n)).all() for n in model.store.names())
    assert code == 0 if finite else code in (0, 3)


def _with_step(blob: bytes, step: str) -> bytes:
    """``blob`` with its header's step counter rewritten, length prefix included."""
    (size,) = struct.unpack_from("<I", blob, 12)
    header = re.sub("(?m)^step=.*$", f"step={step}", blob[16:16 + size].decode("utf-8")).encode("utf-8")
    return blob[:12] + struct.pack("<I", len(header)) + header + blob[16 + size:]


@pytest.mark.parametrize("step", ["-7", "x0"])
def test_checkpoint_step_counter_must_be_a_nonnegative_integer(tmp_path, capsys, text_checkpoint, step):
    blob, inp = text_checkpoint
    assert _with_step(blob, "0") == blob  # the saved model never trained
    path = tmp_path / "step.ckpt"
    path.write_bytes(_with_step(blob, step))
    with pytest.raises(checkpoint.CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)
    code, out, err = run(capsys, "translate", "--checkpoint", str(path), "--input", str(inp))
    assert code == 2
    assert str(path) in err
    assert out == ""


@pytest.mark.parametrize("old, new", [
    pytest.param(b"dropout=0.0", b"dropout=2.0", id="header-value"),
    pytest.param(b"<pad>\n<bos>", b"<bos>\n<pad>", id="vocabulary-reserved"),
    pytest.param(b"\nt0\n", b"\n\xff0\n", id="text-not-utf8"),
])
@pytest.mark.parametrize("ensemble", [False, True])
def test_malformed_checkpoint_names_its_file(tmp_path, capsys, text_checkpoint, old, new, ensemble):
    """A bad header value, a vocabulary without the reserved tokens first
    and invalid UTF-8 in a text section (each rewritten in place at equal
    length) fail naming the file, alone or as an ensemble's second member."""
    blob, inp = text_checkpoint
    good = tmp_path / "good.ckpt"
    good.write_bytes(blob)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob.replace(old, new, 1))
    with pytest.raises(checkpoint.CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)
    models = ["--checkpoint", str(good)] * ensemble + ["--checkpoint", str(path)]
    code, out, err = run(capsys, "translate", *models, "--input", str(inp))
    assert code == 2
    assert str(path) in err and str(good) not in err
    assert out == ""


@pytest.mark.parametrize("command", ["translate", "dump-attention"])
def test_text_file_not_utf8_names_the_file(tmp_path, capsys, text_checkpoint, command):
    """A 0xff byte in `translate --input` or `dump-attention --reference`
    exits 2 naming that file."""
    blob, inp = text_checkpoint
    path = tmp_path / "text.ckpt"
    path.write_bytes(blob)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"t0 t1\n\xfft2\n")
    if command == "translate":
        args = ["--input", str(bad)]
    else:
        args = ["--input", str(inp), "--reference", str(bad), "--line", "0"]
    code, out, err = run(capsys, command, "--checkpoint", str(path), *args)
    assert code == 2 and out == ""
    assert f"{bad}: not UTF-8 text" in err


@pytest.mark.parametrize("flag, value", [("--beam-size", "0"), ("--max-len", "0"),
                                         ("--max-len", "-3")])
def test_translate_rejects_bad_search_limits_up_front(tmp_path, capsys, flag, value):
    model = tmp_path / "text.ckpt"
    save_checkpoint(model, randomize(build_tiny_model(m=3, n=3, src_words=5, tgt_words=5), seed=8))
    inp = tmp_path / "in.txt"
    inp.write_text("t0 t1\nt2\n")
    code, out, err = run(capsys, "translate", "--checkpoint", str(model), "--input", str(inp),
                         flag, value)
    assert code == 2
    assert f"{flag[2:].replace('-', ' ')} must be >= 1, got {value}" in err
    assert out == ""


@pytest.mark.parametrize("beam_size, max_len", [(0, None), (1, 0), (8, -3)])
def test_beam_search_rejects_bad_limits(beam_size, max_len):
    model = build_tiny_model(m=3, n=3)
    with pytest.raises(ValueError, match="must be >= 1"):
        beam_search([model], [4, 5], beam_size=beam_size, max_len=max_len)


@pytest.fixture(scope="module")
def wav_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("wav") / "clean.wav"
    write_wav(path, np.random.default_rng(4).integers(-3000, 3000, 1600).tolist())  # 0.1 s
    return path.read_bytes()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_wav_fails_typed_or_loads_sane(tmp_path_factory, wav_blob, mutations):
    """Truncation, byte flips and trailing bytes either fail with
    AudioFormatError, and ``extract-features`` exits 2, or load finite
    samples in [-1, 1) at a supported rate, and ``extract-features`` exits
    0 with one record of the frame count the 40 ms / 10 ms framing implies.
    The format has no checksum, so a flip inside the samples loads."""
    wav_dir = tmp_path_factory.mktemp("wavs")
    path = wav_dir / "a.wav"
    path.write_bytes(_mutated(wav_blob, mutations))
    try:
        audio = load_pcm_wav(path)
    except AudioFormatError:
        audio = None
    out = wav_dir.parent / (wav_dir.name + ".feats")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["extract-features", "--wav-dir", str(wav_dir), "--output", str(out)])
    if audio is None:
        assert code == 2
        return
    assert audio.samples.ndim == 1 and audio.sample_rate in SUPPORTED_RATES
    assert ((audio.samples >= -1.0) & (audio.samples < 1.0)).all()
    assert code == 0
    [(utt_id, frames)] = read_feature_archive(out)
    window, hop = audio.sample_rate * 40 // 1000, audio.sample_rate * 10 // 1000
    count = (len(audio.samples) - window) // hop + 1 if len(audio.samples) >= window else 0
    assert utt_id == "a" and frames.shape == (count, FEATURE_DIM)
    assert np.isfinite(frames).all()


@pytest.fixture(scope="module")
def archive_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("feats") / "clean.feats"
    rng = np.random.default_rng(6)
    write_feature_archive(path, [(f"u{i}", rng.normal(size=(n, FEATURE_DIM)).astype(np.float32))
                                 for i, n in enumerate((6, 9))])
    return path.read_bytes(), _speech_checkpoint(path.parent)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_archive_fails_typed_or_round_trips(tmp_path_factory, archive_blob, mutations):
    """Truncation, byte flips and trailing bytes either fail with
    ValueError, and ``translate`` exits 2, or read records of finite 41-dim
    frames that write back and read again unchanged; ``translate`` then
    exits 0.  A flip that makes a float32 non-finite is one such error."""
    blob, ckpt = archive_blob
    work = tmp_path_factory.mktemp("mutated")
    path = work / "mutated.feats"
    path.write_bytes(_mutated(blob, mutations))
    try:
        items = read_feature_archive(path)
    except ValueError:
        items = None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["translate", "--checkpoint", str(ckpt), "--input", str(path),
                     "--beam-size", "2", "--max-len", "3"])
    if items is None:
        assert code == 2
        return
    write_feature_archive(work / "again.feats", items)
    again = read_feature_archive(work / "again.feats")
    assert [u for u, _ in again] == [u for u, _ in items]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(again, items))
    assert all(f.ndim == 2 and f.shape[1] == FEATURE_DIM for _, f in items)
    assert all(np.isfinite(f).all() for _, f in items)
    assert code == 0


CONFIG_TEXT = "\n".join(RunConfig(task="speech", hidden_size=8, embed_size=8, dropout=0.25,
                                  learning_rate=0.01, steps=40, max_vocab=30).to_lines()) + "\n"


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_config_fails_typed_or_round_trips(tmp_path_factory, mutations):
    """Truncation, byte flips and trailing bytes either fail with
    ConfigError, and ``train`` exits 2 before it reads any data, or give a
    valid configuration that writes back and reads again unchanged."""
    work = tmp_path_factory.mktemp("config")
    path = work / "run.cfg"
    path.write_bytes(_mutated(CONFIG_TEXT.encode("utf-8"), mutations))
    try:
        config = load_config(path).resolved()
    except ConfigError:
        config = None
    if config is None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["train", "--config", str(path), "--train-src", str(work / "absent.src"),
                         "--train-tgt", str(work / "absent.tgt"), "--save-dir", str(work / "run")])
        assert code == 2
        assert not (work / "run").exists()
        return
    assert config_from_lines(config.to_lines()).resolved().to_lines() == config.to_lines()


def test_feature_dim_is_no_config_field():
    """``feature_dim`` is fixed at 41: no config dump writes it, a
    ``feature_dim=41`` line (which older dumps hold) is accepted, and any
    other value fails naming the key."""
    config = RunConfig(task="speech").resolved()
    assert config.feature_dim == FEATURE_DIM
    assert not [line for line in config.to_lines() if line.startswith("feature_dim")]
    assert config_from_lines(["task=speech", "feature_dim=41"]).resolved() == config
    for value in ("40", "", "x"):
        with pytest.raises(ConfigError, match="feature_dim"):
            config_from_lines([f"feature_dim={value}"])

