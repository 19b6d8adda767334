from dataclasses import replace

import numpy as np
import pytest

from s2t import autodiff as ad
from s2t import cli
from s2t.audio import FEATURE_DIM, read_feature_archive, write_feature_archive
from s2t.checkpoint import save_checkpoint
from s2t.cli import main
from s2t.corpus import tokenize
from s2t.lm import load_lm
from s2t.search import decode_batch, greedy_decode

from test_audio import write_wav
from util import build_tiny_model, randomize


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_toy_text(tmp_path, n=12, seed=1):
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "eps"]
    src, tgt = [], []
    for _ in range(n):
        tokens = [words[i] for i in rng.integers(0, len(words), rng.integers(2, 5))]
        src.append(" ".join(tokens))
        tgt.append(" ".join(reversed(tokens)))
    src_path, tgt_path = tmp_path / "train.src", tmp_path / "train.tgt"
    src_path.write_text("\n".join(src) + "\n")
    tgt_path.write_text("\n".join(tgt) + "\n")
    return src_path, tgt_path


TRAIN_FLAGS = ["--hidden-size", "4", "--embed-size", "4", "--dropout", "0.0",
               "--batch-size", "4", "--steps", "10", "--save-every", "5",
               "--seed", "3", "--quiet"]


def test_train_writes_checkpoints_and_log(tmp_path, capsys):
    src, tgt = write_toy_text(tmp_path)
    save = tmp_path / "run"
    code, _, _ = run(capsys, "train", "--task", "text", "--train-src", str(src),
                     "--train-tgt", str(tgt), "--dev-src", str(src), "--dev-tgt", str(tgt),
                     "--save-dir", str(save), *TRAIN_FLAGS)
    assert code == 0
    assert (save / "ckpt-5.ckpt").exists() and (save / "ckpt-10.ckpt").exists()
    assert (save / "best.ckpt").exists()
    lines = (save / "train.log").read_text().splitlines()
    assert len(lines) == 10
    first = lines[0].split("\t")
    assert first[0] == "1" and first[2] == "-" and first[3] == "-"
    eval_line = lines[4].split("\t")
    assert eval_line[2] != "-" and eval_line[3] != "-"


def test_train_is_deterministic(tmp_path, capsys):
    src, tgt = write_toy_text(tmp_path)
    logs = []
    for name in ("a", "b"):
        save = tmp_path / name
        code, _, _ = run(capsys, "train", "--task", "text", "--train-src", str(src),
                         "--train-tgt", str(tgt), "--save-dir", str(save), *TRAIN_FLAGS)
        assert code == 0
        logs.append((save / "train.log").read_bytes())
    assert logs[0] == logs[1]


def test_initial_loss_near_uniform(tmp_path, capsys):
    src, tgt = write_toy_text(tmp_path)
    save = tmp_path / "run"
    run(capsys, "train", "--task", "text", "--train-src", str(src), "--train-tgt", str(tgt),
        "--save-dir", str(save), *TRAIN_FLAGS)
    first_loss = float((save / "train.log").read_text().splitlines()[0].split("\t")[1])
    vocab_size = 4 + 5  # reserved ids + five distinct words
    assert abs(first_loss - np.log(vocab_size)) / np.log(vocab_size) < 0.05


def test_train_resume_reproduces_log(tmp_path, capsys):
    src, tgt = write_toy_text(tmp_path)
    full = tmp_path / "full"
    run(capsys, "train", "--task", "text", "--train-src", str(src), "--train-tgt", str(tgt),
        "--save-dir", str(full), *TRAIN_FLAGS)
    part = tmp_path / "part"
    flags = list(TRAIN_FLAGS)
    flags[flags.index("--steps") + 1] = "5"
    run(capsys, "train", "--task", "text", "--train-src", str(src), "--train-tgt", str(tgt),
        "--save-dir", str(part), *flags)
    code, _, _ = run(capsys, "train", "--train-src", str(src), "--train-tgt", str(tgt),
                     "--save-dir", str(part), "--resume", str(part / "ckpt-5.ckpt"),
                     "--steps", "10", "--quiet")
    assert code == 0
    full_lines = (full / "train.log").read_text().splitlines()
    part_lines = (part / "train.log").read_text().splitlines()
    assert part_lines[5:] == full_lines[5:]


def test_resume_from_an_earlier_save_point_rewrites_the_log(tmp_path, capsys):
    """A 10-step run resumed from its step-5 checkpoint, with a line cut
    mid-write at the end of its log, leaves a train.log byte-identical to
    an uninterrupted 10-step run's: one whole line per step."""
    src, tgt = write_toy_text(tmp_path)
    data = ["--train-src", str(src), "--train-tgt", str(tgt), "--dev-src", str(src),
            "--dev-tgt", str(tgt)]
    full, part = tmp_path / "full", tmp_path / "part"
    for save in (full, part):
        run(capsys, "train", "--task", "text", *data, "--save-dir", str(save), *TRAIN_FLAGS)
    with open(part / "train.log", "a", encoding="utf-8") as fh:
        fh.write("11\t2.5")
    code, _, err = run(capsys, "train", *data, "--save-dir", str(part),
                       "--resume", str(part / "ckpt-5.ckpt"), "--steps", "10", "--quiet")
    assert code == 0, err
    assert (part / "train.log").read_bytes() == (full / "train.log").read_bytes()
    assert sorted(p.name for p in part.iterdir() if p.suffix != ".ckpt") == ["train.log"]


def test_resume_keeps_the_best_checkpoint(tmp_path, capsys):
    """best.ckpt ranks save points by the dev BLEU train.log records,
    earliest on ties, so a run resumed from its first save point keeps the
    best.ckpt an uninterrupted run picks."""
    src, tgt = write_toy_text(tmp_path)
    data = ["--train-src", str(src), "--train-tgt", str(tgt), "--dev-src", str(src),
            "--dev-tgt", str(tgt)]
    full, part = tmp_path / "full", tmp_path / "part"
    for save, steps in ((full, "15"), (part, "5")):
        flags = list(TRAIN_FLAGS)
        flags[flags.index("--steps") + 1] = steps
        run(capsys, "train", "--task", "text", *data, "--save-dir", str(save), *flags)
    code, _, err = run(capsys, "train", *data, "--save-dir", str(part),
                       "--resume", str(part / "ckpt-5.ckpt"), "--steps", "15", "--quiet")
    assert code == 0, err

    def best_of(save):
        best = (save / "best.ckpt").read_bytes()
        return [path.name for path in sorted(save.glob("ckpt-*.ckpt")) if path.read_bytes() == best]

    logged = [line.split("\t") for line in (full / "train.log").read_text().splitlines()]
    scored = [(-float(bleu), int(step)) for step, _, _, bleu in logged if bleu != "-"]
    assert best_of(full) == best_of(part) == [f"ckpt-{min(scored)[1]}.ckpt"]


def _save_random_model(tmp_path, seed=1, task="text"):
    model = randomize(build_tiny_model(task=task, m=3, n=3, src_words=5, tgt_words=5), seed=seed)
    path = tmp_path / f"model{seed}.ckpt"
    save_checkpoint(path, model)
    return path, model


def test_translate_beam_one_matches_greedy(tmp_path, capsys):
    path, model = _save_random_model(tmp_path, seed=21)
    inp = tmp_path / "in.txt"
    inp.write_text("t0 t1 t2\nt3 t0\n")
    out = tmp_path / "out.txt"
    code, _, _ = run(capsys, "translate", "--checkpoint", str(path), "--input", str(inp),
                     "--output", str(out), "--beam-size", "1")
    assert code == 0
    from s2t.checkpoint import load_checkpoint

    loaded = load_checkpoint(path)
    expected = []
    for line in ["t0 t1 t2", "t3 t0"]:
        ids = loaded.src_vocab.encode_sequence(tokenize(line))
        result = greedy_decode(loaded, ids)
        expected.append(" ".join(loaded.tgt_vocab.decode_sequence(result.tokens)))
    assert out.read_text().splitlines() == expected


@pytest.mark.parametrize("task", ["text", "speech"])
def test_translate_beam_one_is_greedy_on_the_decode_layout(tmp_path, capsys, monkeypatch, task):
    """translate --beam-size 1 of one input gives greedy_decode's result on
    the model as translate loads it, every matrix column-major, bit for bit:
    tokens, repr(score) and attention bytes."""
    path, _ = _save_random_model(tmp_path, seed=23, task=task)
    results = []

    def recording(*args, **kwargs):
        batch = decode_batch(*args, **kwargs)
        results.extend(batch)
        return batch

    monkeypatch.setattr(cli, "decode_batch", recording)
    (model,) = cli._load_ensemble([path])
    assert all(model.store.value(name).flags.f_contiguous for name in model.store.names())
    rng = np.random.default_rng(23)
    inp = tmp_path / "in.bin"
    for trial in range(4):
        if task == "text":
            inp.write_text(" ".join(f"t{i}" for i in rng.integers(0, 5, trial + 2)) + "\n")
        else:
            write_feature_archive(inp, [("u", rng.normal(size=(8 + 3 * trial, FEATURE_DIM)).astype(np.float32))])
        code, _, _ = run(capsys, "translate", "--checkpoint", str(path), "--input", str(inp),
                         "--output", str(tmp_path / "out.txt"), "--beam-size", "1")
        assert code == 0 and len(results) == trial + 1
        want = greedy_decode(model, cli._model_inputs(model, cli._read_sources(inp, task))[0])
        got = results[-1]
        assert got.tokens == want.tokens
        assert repr(got.score) == repr(want.score)
        assert got.attention.tobytes() == want.attention.tobytes()


def test_decoding_loads_column_major_and_training_row_major(tmp_path, capsys, monkeypatch):
    """translate and dump-attention load every matrix column-major through
    s2t.cli.load_checkpoint; train --resume loads row-major, as
    load_checkpoint(path) does."""
    loaded, cli_load = [], cli.load_checkpoint

    def recording(*args, **kwargs):
        loaded.append(cli_load(*args, **kwargs))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_checkpoint", recording)
    path, _ = _save_random_model(tmp_path, seed=24)
    inp = tmp_path / "in.txt"
    inp.write_text("t0 t1 t2\n")
    src, tgt = write_toy_text(tmp_path, n=4)
    commands = {
        "F": [["translate", "--checkpoint", str(path), "--input", str(inp), "--output", str(tmp_path / "o")],
              ["dump-attention", "--checkpoint", str(path), "--input", str(inp),
               "--output", str(tmp_path / "a")]],
        "C": [["train", "--train-src", str(src), "--train-tgt", str(tgt), "--save-dir", str(tmp_path / "run"),
               "--resume", str(path), "--steps", "2", "--save-every", "2", "--quiet"]],
    }
    for order, argvs in commands.items():
        other = "C" if order == "F" else "F"
        for argv in argvs:
            loaded.clear()
            assert run(capsys, *argv)[0] == 0
            (model,) = loaded
            matrices = [model.store.value(name) for name in model.store.names()
                        if model.store.value(name).ndim == 2]
            assert matrices
            assert all(m.flags[f"{order}_CONTIGUOUS"] and not m.flags[f"{other}_CONTIGUOUS"] for m in matrices)


def test_translate_repeated_checkpoint_matches_single(tmp_path, capsys):
    path, _ = _save_random_model(tmp_path, seed=22)
    inp = tmp_path / "in.txt"
    inp.write_text("t1 t2\n")
    single, five = tmp_path / "one.txt", tmp_path / "five.txt"
    run(capsys, "translate", "--checkpoint", str(path), "--input", str(inp),
        "--output", str(single), "--beam-size", "4")
    args = ["translate", "--input", str(inp), "--output", str(five), "--beam-size", "4"]
    for _ in range(5):
        args += ["--checkpoint", str(path)]
    code, _, _ = run(capsys, *args)
    assert code == 0
    assert single.read_text() == five.read_text()


def test_translate_empty_input(tmp_path, capsys):
    path, _ = _save_random_model(tmp_path, seed=23)
    inp = tmp_path / "empty.txt"
    inp.write_text("")
    out = tmp_path / "out.txt"
    code, _, _ = run(capsys, "translate", "--checkpoint", str(path), "--input", str(inp),
                     "--output", str(out))
    assert code == 0
    assert out.read_text() == ""


def test_translate_rejects_kind_mismatch(tmp_path, capsys):
    path, _ = _save_random_model(tmp_path, seed=24)
    archive = tmp_path / "feats.bin"
    write_feature_archive(archive, [("u0", np.zeros((6, FEATURE_DIM), dtype=np.float32))])
    code, _, err = run(capsys, "translate", "--checkpoint", str(path), "--input", str(archive))
    assert code == 2
    assert "feature archive" in err


def test_translate_rejects_vocabulary_mismatch(tmp_path, capsys):
    path_a, _ = _save_random_model(tmp_path, seed=25)
    model_b = randomize(build_tiny_model(m=3, n=3, src_words=5, tgt_words=7), seed=26)
    path_b = tmp_path / "other.ckpt"
    save_checkpoint(path_b, model_b)
    inp = tmp_path / "in.txt"
    inp.write_text("t0\n")
    code, _, err = run(capsys, "translate", "--checkpoint", str(path_a),
                       "--checkpoint", str(path_b), "--input", str(inp))
    assert code == 2
    assert "vocabulary" in err


def test_translate_rejects_feature_stats_mismatch(tmp_path, capsys):
    """Every input is normalized with the first member's stats, so a speech
    member trained with other stats is refused, not decoded mis-normalized."""
    path_a, model = _save_random_model(tmp_path, seed=32, task="speech")
    model.feat_stats = replace(model.feat_stats, std=model.feat_stats.std * 2.0)
    path_b = tmp_path / "other.ckpt"
    save_checkpoint(path_b, model)
    archive = tmp_path / "feats.bin"
    write_feature_archive(archive, [("u0", np.zeros((8, FEATURE_DIM), dtype=np.float32))])
    args = ["translate", "--input", str(archive), "--checkpoint", str(path_a)]
    code, _, err = run(capsys, *args, "--checkpoint", str(path_a))
    assert code == 0, err
    code, _, err = run(capsys, *args, "--checkpoint", str(path_b))
    assert code == 2
    assert "feature statistics" in err


def test_translate_with_lm_weight_zero_matches_plain(tmp_path, capsys):
    path, _ = _save_random_model(tmp_path, seed=27)
    corpus = tmp_path / "lmcorpus.txt"
    corpus.write_text("t0 t1\nt1 t2\n")
    lm_path = tmp_path / "toy.lm"
    run(capsys, "lm-train", "--corpus", str(corpus), "--output", str(lm_path))
    inp = tmp_path / "in.txt"
    inp.write_text("t0 t1\n")
    plain, fused = tmp_path / "plain.txt", tmp_path / "fused.txt"
    run(capsys, "translate", "--checkpoint", str(path), "--input", str(inp),
        "--output", str(plain), "--beam-size", "3")
    code, _, _ = run(capsys, "translate", "--checkpoint", str(path), "--input", str(inp),
                     "--output", str(fused), "--beam-size", "3",
                     "--lm", str(lm_path), "--lm-weight", "0.0")
    assert code == 0
    assert plain.read_text() == fused.read_text()


def test_evaluate_identity_is_100(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("the cat sat\nhello world !\n")
    code, out, _ = run(capsys, "evaluate", "--hyp", str(hyp), "--ref", str(hyp))
    assert code == 0
    assert "BLEU = 100.00" in out


def test_evaluate_seven_references_with_one_match(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("the cat sat\n")
    refs = []
    for i in range(7):
        path = tmp_path / f"ref{i}.txt"
        path.write_text("the cat sat\n" if i == 3 else f"totally different line {i}\n")
        refs.append(path)
    args = ["evaluate", "--hyp", str(hyp)]
    for path in refs:
        args += ["--ref", str(path)]
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "BLEU = 100.00" in out


def test_evaluate_line_count_mismatch_names_file(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("a\nb\n")
    ref = tmp_path / "short.txt"
    ref.write_text("a\n")
    code, _, err = run(capsys, "evaluate", "--hyp", str(hyp), "--ref", str(ref))
    assert code == 2
    assert "short.txt" in err


def test_lm_train_round_trip(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("Hello, world!\nhello again\n\n")
    out = tmp_path / "model.lm"
    code, _, _ = run(capsys, "lm-train", "--corpus", str(corpus), "--output", str(out))
    assert code == 0
    model = load_lm(out)
    assert "hello" in model.vocab.tokens()


def test_dump_attention_text(tmp_path, capsys):
    path, model = _save_random_model(tmp_path, seed=28)
    inp = tmp_path / "in.txt"
    inp.write_text("t0 t1 t2 t3\n")
    out = tmp_path / "att.tsv"
    code, _, _ = run(capsys, "dump-attention", "--checkpoint", str(path), "--input", str(inp),
                     "--output", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split("\t")
    assert header == ["token", "t0", "t1", "t2", "t3"]
    for line in lines[1:]:
        cells = line.split("\t")
        weights = np.array([float(v) for v in cells[1:]])
        assert weights.shape[0] == 4
        assert abs(weights.sum() - 1.0) < 1e-6


def test_reserved_ids_are_never_decoded(tmp_path, capsys):
    """A 2-step toy checkpoint whose decoder still favours <bos> and <pad>:
    neither ``translate`` at beam 1, 2 and 40 nor ``dump-attention``'s
    greedy rows print a reserved token."""
    src, tgt = tmp_path / "train.src", tmp_path / "train.tgt"
    src.write_text("a b c d\nb c d a\nc d a b\nd a b c\n")
    tgt.write_text("w x y z\nx y z w\ny z w x\nz w x y\n")
    save = tmp_path / "run"
    code, _, _ = run(capsys, "train", "--task", "text", "--train-src", str(src), "--train-tgt", str(tgt),
                     "--save-dir", str(save), "--steps", "2", "--hidden-size", "8", "--embed-size", "8",
                     "--batch-size", "2", "--seed", "7", "--quiet")
    assert code == 0
    ckpt = str(save / "ckpt-2.ckpt")
    printed, rows = [], 0
    for beam in ("1", "2", "40"):
        code, out, _ = run(capsys, "translate", "--checkpoint", ckpt, "--input", str(src), "--beam-size", beam)
        assert code == 0 and len(out.splitlines()) == 4
        printed.append(out)
    for line in range(4):
        code, out, _ = run(capsys, "dump-attention", "--checkpoint", ckpt, "--input", str(src),
                           "--line", str(line))
        assert code == 0
        printed.append(out)
        rows += len(out.splitlines()) - 1
    tokens = " ".join(printed).split()
    assert rows and "x" in tokens
    assert "<pad>" not in tokens and "<bos>" not in tokens


@pytest.mark.parametrize("line", [-1, 2])
def test_dump_attention_line_out_of_range_exits_2(tmp_path, capsys, line):
    path, _ = _save_random_model(tmp_path, seed=31)
    inp = tmp_path / "in.txt"
    inp.write_text("t0 t1\nt2 t3\n")
    code, out, err = run(capsys, "dump-attention", "--checkpoint", str(path), "--input", str(inp),
                         "--line", str(line))
    assert code == 2 and out == ""
    assert "in.txt" in err and f"item {line}" in err


def test_dump_attention_empty_reference_line_exits_2(tmp_path, capsys):
    path, _ = _save_random_model(tmp_path, seed=32)
    inp = tmp_path / "in.txt"
    inp.write_text("t0 t1\nt2 t3\n")
    ref = tmp_path / "ref.txt"
    ref.write_text("t0\n   \n")
    code, out, err = run(capsys, "dump-attention", "--checkpoint", str(path), "--input", str(inp),
                         "--reference", str(ref), "--line", "1")
    assert code == 2 and out == ""
    assert "ref.txt" in err and "line 1" in err and "empty" in err


def test_dump_attention_teacher_forced_speech_shape(tmp_path, capsys):
    model = randomize(build_tiny_model(task="speech", m=3, n=3, tgt_words=5), seed=29)
    path = tmp_path / "speech.ckpt"
    save_checkpoint(path, model)
    frames = np.random.default_rng(0).normal(size=(13, FEATURE_DIM)).astype(np.float32)
    archive = tmp_path / "feats.bin"
    write_feature_archive(archive, [("u0", frames)])
    ref = tmp_path / "ref.txt"
    ref.write_text("t0 t1 t2\n")
    out = tmp_path / "att.tsv"
    code, _, _ = run(capsys, "dump-attention", "--checkpoint", str(path), "--input", str(archive),
                     "--reference", str(ref), "--output", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 3  # header + one row per reference token
    assert len(lines[0].split("\t")) == 1 + 4  # ceil(ceil(13/2)/2) positions
    for line in lines[1:]:
        weights = np.array([float(v) for v in line.split("\t")[1:]])
        assert abs(weights.sum() - 1.0) < 1e-6


@pytest.mark.parametrize("teacher_forced", [False, True])
def test_dump_attention_labels_speech_positions_by_stride(tmp_path, capsys, teacher_forced):
    """Four encoder layers subsample three times: a position covers 8 frames."""
    model = randomize(build_tiny_model(task="speech", m=3, n=3, tgt_words=5, enc_layers=4), seed=30)
    path = tmp_path / "speech.ckpt"
    save_checkpoint(path, model)
    frames = np.random.default_rng(1).normal(size=(16, FEATURE_DIM)).astype(np.float32)
    archive = tmp_path / "feats.bin"
    write_feature_archive(archive, [("u0", frames)])
    ref = tmp_path / "ref.txt"
    ref.write_text("t0 t1\n")
    out = tmp_path / "att.tsv"
    extra = ["--reference", str(ref)] if teacher_forced else []
    code, _, err = run(capsys, "dump-attention", "--checkpoint", str(path), "--input", str(archive),
                       "--output", str(out), *extra)
    assert code == 0, err
    assert out.read_text().splitlines()[0].split("\t") == ["token", "0", "8"]


def _speech_pairs(tmp_path, lengths):
    rng = np.random.default_rng(4)
    archive = tmp_path / "train.feats"
    write_feature_archive(archive, [(f"u{i}", rng.normal(size=(n, FEATURE_DIM)).astype(np.float32))
                                    for i, n in enumerate(lengths)])
    tgt = tmp_path / "train.tgt"
    tgt.write_text("".join(f"w{i % 3} w{(i + 1) % 3}\n" for i in range(len(lengths))))
    return archive, tgt


@pytest.mark.parametrize("enc_layers, lengths, dropped", [
    (4, (12, 5, 16, 10, 9), True),   # 5 frames < 8, the 4-layer encoder's stride
    (2, (6, 3, 4, 9), False),        # 3 frames >= 2, the 2-layer encoder's stride
])
def test_train_drops_pairs_shorter_than_the_encoder_stride(tmp_path, capsys, enc_layers, lengths,
                                                           dropped):
    archive, tgt = _speech_pairs(tmp_path, lengths)
    config = tmp_path / "speech.cfg"
    config.write_text(f"enc_layers={enc_layers}\nprenet_size=6\nconv_filter_size=5\n")
    code, _, err = run(capsys, "train", "--task", "speech", "--config", str(config),
                       "--train-src", str(archive), "--train-tgt", str(tgt),
                       "--dev-src", str(archive), "--dev-tgt", str(tgt),
                       "--save-dir", str(tmp_path / "run"), "--hidden-size", "3",
                       "--embed-size", "3", "--dropout", "0.0", "--batch-size", "8",
                       "--steps", "2", "--save-every", "2", "--quiet")
    assert code == 0, err
    assert ("dropped 1 unusable pair(s)" in err) == dropped
    assert "too short" not in err


def test_extract_features_from_wavs(tmp_path, capsys):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    rng = np.random.default_rng(31)
    for name, n in [("a.wav", 16000), ("b.wav", 8000)]:
        samples = (rng.uniform(-0.3, 0.3, n) * 32767).astype(int).tolist()
        write_wav(wav_dir / name, samples)
    out = tmp_path / "feats.bin"
    code, _, _ = run(capsys, "extract-features", "--wav-dir", str(wav_dir),
                     "--output", str(out))
    assert code == 0
    items = read_feature_archive(out)
    assert [u for u, _ in items] == ["a", "b"]
    assert items[0][1].shape == ((16000 - 640) // 160 + 1, FEATURE_DIM)


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "translate", "--input", "missing.txt")
    assert code == 1


def test_missing_file_is_data_error(tmp_path, capsys):
    code, _, _ = run(capsys, "evaluate", "--hyp", str(tmp_path / "nope.txt"),
                     "--ref", str(tmp_path / "nope.txt"))
    assert code == 2


@pytest.mark.parametrize("flag, key", [
    ("--learning-rate=nan", "learning_rate"), ("--learning-rate=inf", "learning_rate"),
    ("--learning-rate=-0.5", "learning_rate"), ("--max-vocab=0", "max_vocab"),
])
def test_bad_numeric_config_is_rejected_before_reading_data(tmp_path, capsys, flag, key):
    # the training files do not exist: the config check must fire first
    code, _, err = run(capsys, "train", "--train-src", str(tmp_path / "none.src"),
                       "--train-tgt", str(tmp_path / "none.tgt"),
                       "--save-dir", str(tmp_path / "run"), flag, "--quiet")
    assert code == 2
    assert key in err
    assert not (tmp_path / "run").exists()


def test_bad_config_file_value_is_rejected_before_reading_data(tmp_path, capsys):
    # -1 is odd (-1 % 2 == 1), so only the positivity check catches it
    config = tmp_path / "bad.cfg"
    config.write_text("attention=conv\nconv_filter_size=-1\n")
    code, _, err = run(capsys, "train", "--config", str(config),
                       "--train-src", str(tmp_path / "none.src"), "--train-tgt", str(tmp_path / "none.tgt"),
                       "--save-dir", str(tmp_path / "run"), "--quiet")
    assert code == 2
    assert "conv_filter_size" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("setting, flags, key", [
    ("feature_dim=40", [], "feature_dim"), ("", ["--seed=-1"], "seed"),
], ids=["feature-dim", "negative-seed"])
def test_config_that_cannot_run_fails_before_touching_the_log(tmp_path, capsys, setting, flags, key):
    """A feature width no archive holds and a negative seed fail the config
    check: exit 2 naming the key, and the save directory's train.log is
    left as it was."""
    rng = np.random.default_rng(6)
    archive, tgt = tmp_path / "train.feats", tmp_path / "train.tgt"
    write_feature_archive(archive, [(f"u{i}", rng.normal(size=(8, FEATURE_DIM)).astype(np.float32))
                                    for i in range(3)])
    tgt.write_text("a b\nb\na\n")
    config = tmp_path / "run.cfg"
    config.write_text(f"task=speech\nprenet_size=4\n{setting}\n")
    log = tmp_path / "run" / "train.log"
    log.parent.mkdir()
    log.write_text("1\t2.5\t-\t-\n")
    before = log.read_bytes()
    code, _, err = run(capsys, "train", "--config", str(config), "--train-src", str(archive),
                       "--train-tgt", str(tgt), "--save-dir", str(log.parent), *TRAIN_FLAGS, *flags)
    assert code == 2
    assert key in err
    assert log.read_bytes() == before


@pytest.mark.parametrize("flag, key", [
    ("--save-every=0", "save_every"), ("--save-every=-1", "save_every"), ("--steps=-3", "steps"),
])
def test_bad_resume_schedule_is_rejected_before_reading_data(tmp_path, capsys, flag, key):
    path = tmp_path / "text.ckpt"
    save_checkpoint(path, build_tiny_model(m=3, n=3, src_words=5, tgt_words=5))
    code, _, err = run(capsys, "train", "--train-src", str(tmp_path / "none.src"),
                       "--train-tgt", str(tmp_path / "none.tgt"), "--save-dir", str(tmp_path / "run"),
                       "--resume", str(path), flag, "--quiet")
    assert code == 2
    assert key in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("given", ["--dev-src", "--dev-tgt"])
def test_dev_files_must_come_together(tmp_path, capsys, given):
    src, tgt = write_toy_text(tmp_path)
    code, _, err = run(capsys, "train", "--task", "text", "--train-src", str(src),
                       "--train-tgt", str(tgt), given, str(src if given == "--dev-src" else tgt),
                       "--save-dir", str(tmp_path / "run"), *TRAIN_FLAGS)
    assert code == 1
    assert "usage error" in err and "--dev-src and --dev-tgt" in err
    assert not (tmp_path / "run").exists()


def test_divergence_exit_code(tmp_path, capsys):
    model = build_tiny_model(m=3, n=3, src_words=5, tgt_words=5)
    model.store.set_value("dec.vocab_b", np.full(len(model.tgt_vocab), np.nan))
    path = tmp_path / "nan.ckpt"
    save_checkpoint(path, model)
    src, tgt = write_toy_text(tmp_path, n=4)
    code, _, err = run(capsys, "train", "--train-src", str(src), "--train-tgt", str(tgt),
                       "--save-dir", str(tmp_path / "run"), "--resume", str(path), "--quiet")
    assert code == 3
    assert "divergence" in err


@pytest.mark.parametrize("fault", ["shape-mismatch", "unknown-primitive"])
@pytest.mark.parametrize("command", ["translate", "train"])
def test_program_fault_exits_70_with_its_traceback(tmp_path, capsys, monkeypatch, command, fault):
    """A ShapeMismatch or UnknownPrimitive out of a primitive rule is the
    program's fault, not a data error: exit 70 (EX_SOFTWARE), the traceback
    and an internal-error line on stderr, nothing on stdout."""
    if fault == "shape-mismatch":
        def forward(d, a):
            raise ad.ShapeMismatch("softmax: forced fault")

        prim = ad._PRIMITIVES["softmax"]
        monkeypatch.setitem(ad._PRIMITIVES, "softmax", ad.Primitive(forward, prim.backward, prim.reads))
    else:
        monkeypatch.delitem(ad._PRIMITIVES, "softmax")
    if command == "translate":
        path, _ = _save_random_model(tmp_path, seed=25)
        inp = tmp_path / "in.txt"
        inp.write_text("t0 t1 t2\n")
        argv = ["translate", "--checkpoint", str(path), "--input", str(inp)]
    else:
        src, tgt = write_toy_text(tmp_path, n=4)
        argv = ["train", "--task", "text", "--train-src", str(src), "--train-tgt", str(tgt),
                "--save-dir", str(tmp_path / "run"), *TRAIN_FLAGS]
    code, out, err = run(capsys, *argv)
    assert code == 70
    assert out == ""
    assert "Traceback (most recent call last)" in err
    assert err.splitlines()[-1].startswith("internal error: ")
    assert ("forced fault" if fault == "shape-mismatch" else "unknown primitive id: 'softmax'") in err
