import io

import numpy as np
import pytest

import s2t.checkpoint as checkpoint
from s2t.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from s2t.corpus import ParallelCorpus
from s2t.training import train_loop

from util import build_tiny_model, random_speech_source, random_text_source, randomize


def test_save_load_save_is_byte_identical(tmp_path):
    model = build_tiny_model(task="text", m=3, n=3, seed=42)
    model.store.step = 17
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, model)
    loaded = load_checkpoint(a)
    save_checkpoint(b, loaded)
    assert a.read_bytes() == b.read_bytes()


def test_load_restores_everything(tmp_path):
    model = build_tiny_model(task="speech", m=3, n=3, seed=7)
    model.store.step = 5
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)  # quantizes the live store
    loaded = load_checkpoint(path)
    assert loaded.store.step == 5
    assert loaded.config == model.config
    assert loaded.tgt_vocab == model.tgt_vocab
    np.testing.assert_array_equal(loaded.feat_stats.mean, model.feat_stats.mean)
    for name in model.store.names():
        np.testing.assert_array_equal(loaded.store.value(name), model.store.value(name))
        for got, want in zip(loaded.store.moments(name), model.store.moments(name)):
            np.testing.assert_array_equal(got, want)


def test_loaded_moments_continue_training_bit_exactly(tmp_path):
    """A loaded store builds its float64 moments only when first asked;
    an Adam step on it matches the same step on the store it was saved
    from, values and moments bit for bit."""
    from s2t.corpus import make_batch

    model = build_tiny_model(task="text", m=3, n=3, seed=4, learning_rate=0.05)
    batch = make_batch([[4, 5, 6], [7, 4]], [[5, 6], [4, 7, 8]])
    for step in (1, 2):
        model.train_step(batch, step)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    for source in (model, loaded):
        source.train_step(batch, 3)
    for name in model.store.names():
        np.testing.assert_array_equal(loaded.store.value(name), model.store.value(name))
        for got, want in zip(loaded.store.moments(name), model.store.moments(name)):
            assert got.dtype == np.float64 and got.flags.writeable
            assert np.abs(want).max() > 0
            np.testing.assert_array_equal(got, want)


def _trained_tiny_model(seed=4):
    """A tiny text model after two Adam steps, so its moments are nonzero."""
    from s2t.corpus import make_batch

    model = build_tiny_model(task="text", m=3, n=3, seed=seed, learning_rate=0.05)
    batch = make_batch([[4, 5, 6], [7, 4]], [[5, 6], [4, 7, 8]])
    for step in (1, 2):
        model.train_step(batch, step)
    return model


def _assert_same_store(got, want):
    assert got.step == want.step and got.names() == want.names()
    for name in want.names():
        assert got.value(name).tobytes() == want.value(name).tobytes()
        for a, b in zip(got.moments(name), want.moments(name)):
            assert a.tobytes() == b.tobytes()


def test_loaded_model_outlives_its_file(tmp_path):
    """A loaded model keeps its values and its lazy moments, bit for bit,
    after save_checkpoint renames a different model over the same path (as
    train_loop does with best.ckpt) and after the file is deleted."""
    model = _trained_tiny_model()
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, model)
    first, second = load_checkpoint(path), load_checkpoint(path)
    other = _trained_tiny_model(seed=9)
    other.store.step = 40
    save_checkpoint(path, other)
    _assert_same_store(first.store, model.store)
    path.unlink()
    _assert_same_store(second.store, model.store)
    assert any(np.abs(m1).max() > 0 for m1, _ in map(second.store.moments, second.store.names()))


def _with_header_line(blob: bytes, before: bytes, line: bytes) -> bytes:
    """``blob`` with ``line`` inserted into its header ahead of the line
    that starts with ``before``, length prefix included."""
    size = int.from_bytes(blob[12:16], "little")
    header = blob[16:16 + size].replace(b"\n" + before, b"\n" + line + b"\n" + before, 1)
    assert len(header) == size + len(line) + 1
    return blob[:12] + len(header).to_bytes(4, "little") + header + blob[16 + size:]


@pytest.mark.parametrize("task", ["text", "speech"])
def test_checkpoint_with_feature_dim_line_loads_bit_identically(tmp_path, task):
    """Checkpoints written while ``feature_dim`` was a config field hold a
    ``feature_dim=41`` header line after ``prenet_size``; such a file loads
    to the same model, bit for bit, as the file without it, and saves back
    without the line."""
    model = (_trained_tiny_model() if task == "text"
             else randomize(build_tiny_model(task="speech", m=3, n=3, seed=5), seed=6))
    path, old, again = tmp_path / "new.ckpt", tmp_path / "old.ckpt", tmp_path / "again.ckpt"
    save_checkpoint(path, model)
    blob = path.read_bytes()
    assert b"feature_dim" not in blob and b"\nprenet_size=6\ndropout=" in blob
    old.write_bytes(_with_header_line(blob, b"dropout=", b"feature_dim=41"))
    want, got = load_checkpoint(path), load_checkpoint(old)
    assert got.config == want.config and got.config.feature_dim == 41
    _assert_same_store(got.store, want.store)
    save_checkpoint(again, got)
    assert again.read_bytes() == blob

    old.write_bytes(_with_header_line(blob, b"dropout=", b"feature_dim=40"))
    with pytest.raises(CheckpointError, match=f"{old}: feature_dim must be 41"):
        load_checkpoint(old)


def test_cut_at_every_field_boundary_is_truncated(tmp_path, capsys):
    """A checkpoint cut where any of its fields ends, the 0-byte file among
    them, raises CheckpointError, and translate exits 2."""
    from s2t.cli import main

    model = build_tiny_model(task="text", m=3, n=3, seed=2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    blob = path.read_bytes()

    class Recording(io.BytesIO):
        def write(self, data):
            starts.append(self.tell())
            return super().write(data)

    starts = []
    recorded = Recording()
    checkpoint._write_checkpoint(recorded, model)
    assert recorded.getvalue() == blob and starts[0] == 0
    inp = tmp_path / "in.txt"
    inp.write_text("t0 t1 t2\n")
    cut = tmp_path / "cut.ckpt"
    for end in starts:
        cut.write_bytes(blob[:end])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(cut)
        assert main(["translate", "--checkpoint", str(cut), "--input", str(inp)]) == 2
        assert "truncated" in capsys.readouterr().err


def _decode_layout_pair(tmp_path, task):
    """A saved tiny model with nonzero moments and an output matrix of more
    than 256 rows, loaded in the default and in the decode layout."""
    model = randomize(build_tiny_model(task=task, m=3, n=3, tgt_words=600, seed=6), seed=6)
    for name in model.store.names():
        model.store.set_moments(name, *(np.full(model.store.value(name).shape, k) for k in (0.5, 0.25)))
    path = tmp_path / f"{task}.ckpt"
    save_checkpoint(path, model)
    return path, load_checkpoint(path), load_checkpoint(path, order="F")


@pytest.mark.parametrize("task", ["text", "speech"])
def test_decode_layout_holds_the_same_values_column_major(tmp_path, task):
    """order="F" gives every matrix column-major with the default load's
    values and shape; the default load stays row-major, and vectors,
    moments, vocabularies and stats are the same in both."""
    _, default, decode = _decode_layout_pair(tmp_path, task)
    assert decode.store.value("dec.vocab_w").shape[0] > 256  # more than one conversion block
    assert decode.config == default.config and decode.store.step == default.store.step
    assert decode.tgt_vocab == default.tgt_vocab and decode.src_vocab == default.src_vocab
    for name in default.store.names():
        want, got = default.store.value(name), decode.store.value(name)
        assert want.dtype == got.dtype == np.float64 and want.shape == got.shape
        assert np.array_equal(got, want)
        assert want.flags.c_contiguous and got.flags.f_contiguous
        assert got.flags.c_contiguous == (got.ndim < 2)
        for a, b in zip(decode.store.moments(name), default.store.moments(name)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("task", ["text", "speech"])
def test_saving_the_decode_layout_writes_the_file_it_came_from(tmp_path, task):
    path, _, decode = _decode_layout_pair(tmp_path, task)
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, decode)
    assert again.read_bytes() == path.read_bytes()


def test_decode_layout_decodes_like_the_default_load(tmp_path):
    """On random tiny instances (text and speech, additive and conv
    attention, 1-4 ragged sources) greedy, beam 8, beam 8 with an LM and a
    two-model ensemble decode the same tokens from both layouts.  Scores
    and attention may differ in the last bits, which the recurrences can
    amplify: over 1,252 results the largest relative differences seen were
    1.6e-12 (score) and 2.7e-11 (an attention weight)."""
    from s2t.lm import train_trigram
    from s2t.search import FusionWeights, decode_batch

    rng = np.random.default_rng(41)
    for k in range(16):
        task, attention = ("text", "speech")[k % 2], ("additive", "conv")[k // 2 % 2]
        paths = []
        for j in range(2):
            model = randomize(build_tiny_model(task=task, m=int(rng.integers(2, 9)), n=3, src_words=9,
                                               tgt_words=9, attention=attention), seed=10 * k + j)
            paths.append(tmp_path / f"{k}-{j}.ckpt")
            save_checkpoint(paths[-1], model)
        words = model.tgt_vocab.tokens()[4:]
        lm = train_trigram([[words[int(i)] for i in rng.integers(0, len(words), 4)] for _ in range(10)])
        sources = [random_text_source(rng, 13, 1) if task == "text" else random_speech_source(rng)
                   for _ in range(int(rng.integers(1, 5)))]
        default = [load_checkpoint(path) for path in paths]
        decode = [load_checkpoint(path, order="F") for path in paths]
        fused = dict(beam_size=8, lm=lm, weights=FusionWeights(lm_weight=0.2))
        for count, options in [(1, dict(beam_size=1)), (1, dict(beam_size=8)), (1, fused), (2, fused)]:
            want = decode_batch(default[:count], sources, **options)
            got = decode_batch(decode[:count], sources, **options)
            for a, b in zip(want, got):
                assert a.tokens == b.tokens
                assert abs(b.score - a.score) <= 1e-9 * abs(a.score)
                np.testing.assert_allclose(b.attention, a.attention, rtol=1e-9, atol=1e-15)


def test_load_rejects_an_unknown_order(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_tiny_model(m=3))
    with pytest.raises(ValueError, match="order"):
        load_checkpoint(path, order="A")


def test_save_quantizes_live_store_to_float32(tmp_path):
    model = build_tiny_model(m=3)
    save_checkpoint(tmp_path / "m.ckpt", model)
    for name in model.store.names():
        value = model.store.value(name)
        np.testing.assert_array_equal(value, value.astype(np.float32).astype(np.float64))


def test_saving_an_untrained_model_leaves_its_moments_unbuilt(tmp_path):
    """Moments a store never built are written as zero records without
    being built; the file is byte-identical to one saved after building
    them, and loads as zero moments."""
    model = build_tiny_model(task="speech", m=3, n=3, seed=8)
    lazy, built = tmp_path / "lazy.ckpt", tmp_path / "built.ckpt"
    save_checkpoint(lazy, model)
    assert all(model.store.held_moments(name) == (None, None) for name in model.store.names())
    for name in model.store.names():
        model.store.moments(name)
    save_checkpoint(built, model)
    assert lazy.read_bytes() == built.read_bytes()
    loaded = load_checkpoint(lazy)
    for name in loaded.store.names():
        for moment in loaded.store.moments(name):
            np.testing.assert_array_equal(moment, 0.0)


def test_rejects_unknown_version(tmp_path):
    model = build_tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    blob = bytearray(path.read_bytes())
    blob[8] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_rejects_truncation(tmp_path):
    model = build_tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 20])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_rejects_architecture_mismatch(tmp_path):
    model = build_tiny_model()
    model.store.add("bogus.extra", np.zeros(3))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    with pytest.raises(CheckpointError, match="architecture"):
        load_checkpoint(path)


def _toy_corpus(rng, n=12, vocab=6):
    sources = [list(rng.integers(4, 4 + vocab, rng.integers(2, 5))) for _ in range(n)]
    targets = [list(reversed(s)) for s in sources]
    return ParallelCorpus(sources, targets)


def test_resume_matches_uninterrupted_run(tmp_path):
    rng = np.random.default_rng(90)
    corpus = _toy_corpus(rng)

    def drive(model, save_dir):
        lines = []
        train_loop(model, corpus, None, str(save_dir), lines.append)
        return lines

    # uninterrupted run: 12 steps with a checkpoint every 4 (dropout active)
    full_model = build_tiny_model(m=4, n=4, src_words=6, tgt_words=6, seed=11,
                                  dropout=0.5, steps=12, save_every=4, batch_size=4)
    full_lines = drive(full_model, tmp_path / "full")

    # interrupted run: 8 steps, then resume from the step-8 checkpoint
    part_model = build_tiny_model(m=4, n=4, src_words=6, tgt_words=6, seed=11,
                                  dropout=0.5, steps=8, save_every=4, batch_size=4)
    part_lines = drive(part_model, tmp_path / "part")
    resumed = load_checkpoint(tmp_path / "part" / "ckpt-8.ckpt")
    assert resumed.store.step == 8
    resumed.config.steps = 12
    resumed_lines = drive(resumed, tmp_path / "resumed")

    assert part_lines == full_lines[:8]
    assert resumed_lines == full_lines[8:]
