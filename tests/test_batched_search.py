"""Decoding a list of sources as one [sentences x beam] row block gives each
source the decode ``beam_search`` gives it alone, through the search core
and through ``translate``."""

import numpy as np
import pytest

from s2t.audio import FEATURE_DIM, write_feature_archive
from s2t.bleu import corpus_bleu
from s2t.checkpoint import load_checkpoint, save_checkpoint
from s2t import search
from s2t.corpus import BOS_ID, EOS_ID, ParallelCorpus
from s2t.lm import save_lm, train_trigram
from s2t.model import DecoderCore
from s2t.search import FusionWeights, beam_search, decode_batch, greedy_decode
from s2t.training import dev_greedy_bleu

from test_cli import run
from util import build_tiny_model, random_speech_source, random_text_source, randomize

CASES = [("text", "additive"), ("text", "conv"), ("speech", "additive"), ("speech", "conv")]
LM = train_trigram([["t4", "t5"], ["t5", "t6", "t4"], ["t6"], ["t4", "t4", "t7"]])
RUNGS = {  # name -> (model count, search options)
    "greedy": (1, dict(beam_size=1)),
    "beam8": (1, dict(beam_size=8)),
    "beam8_lm": (1, dict(beam_size=8, lm=LM, weights=FusionWeights(lm_weight=0.3))),
    "ensemble2": (2, dict(beam_size=8)),
}


SRC_IDS = len(build_tiny_model().src_vocab)


def _models(task, attention, seed):
    """Two random models whose outputs mix empty (EOS first) and capped
    decodes, so the sources of one batch retire at different steps."""
    models = []
    for j in range(2):
        model = randomize(build_tiny_model(task=task, m=4, n=4, tgt_words=6, attention=attention),
                          seed=seed + j, scale=0.7)
        bias = model.store.value("dec.vocab_b").copy()
        bias[EOS_ID] = 1.0
        model.store.set_value("dec.vocab_b", bias)
        models.append(model)
    return models


def _sources(rng, task, count):
    if task == "text":
        return [random_text_source(rng, SRC_IDS, min_len=1, max_len=7) for _ in range(count)]
    return [random_speech_source(rng, min_len=4, max_len=13) for _ in range(count)]


def _assert_same_decode(got, want):
    assert got.tokens == want.tokens
    assert got.finished == want.finished
    assert got.score == pytest.approx(want.score, rel=1e-12, abs=0)
    np.testing.assert_allclose(got.attention, want.attention, rtol=1e-12, atol=0)


@pytest.mark.parametrize("task, attention", CASES)
@pytest.mark.parametrize("rung", list(RUNGS))
def test_batched_decode_matches_per_input(task, attention, rung):
    count, options = RUNGS[rung]
    rng = np.random.default_rng([CASES.index((task, attention)), list(RUNGS).index(rung)])
    for trial, size in enumerate((1, 3, 7)):
        models = _models(task, attention, seed=100 * trial)[:count]
        sources = _sources(rng, task, size)
        batched = decode_batch(models, sources, **options)
        assert len(batched) == size
        for source, got in zip(sources, batched):
            _assert_same_decode(got, beam_search(models, source, **options))


def test_batched_decode_with_length_norm_and_rescoring():
    rng = np.random.default_rng(5)
    models = _models("text", "additive", seed=9)
    sources = _sources(rng, "text", 5)
    options = dict(beam_size=3, lm=LM, weights=FusionWeights(lm_weight=0.5),
                   length_norm=True, rescore_only=True)
    for source, got in zip(sources, decode_batch(models, sources, **options)):
        _assert_same_decode(got, beam_search(models, source, **options))


def test_batched_decode_rejects_an_empty_source():
    model = build_tiny_model()
    with pytest.raises(ValueError, match="source is empty"):
        decode_batch([model], [[4, 5], []])


def _write_inputs(tmp_path, task, sources, src_vocab):
    path = tmp_path / ("in.txt" if task == "text" else "in.feats")
    if task == "text":
        path.write_text("".join(" ".join(src_vocab.decode_sequence(s)) + "\n" for s in sources))
    else:
        write_feature_archive(path, [(f"u{i}", s) for i, s in enumerate(sources)])
    return path


@pytest.mark.parametrize("task, attention", CASES)
def test_translate_file_matches_per_input_decodes(tmp_path, capsys, task, attention):
    """Files of 1, 3 and more than ``batch_size`` (4) ragged inputs, text
    with an empty line among them, decode line for line as one
    ``beam_search`` per input."""
    rng = np.random.default_rng(61)
    paths = []
    for j, model in enumerate(_models(task, attention, seed=40)):
        paths.append(tmp_path / f"m{j}.ckpt")
        save_checkpoint(paths[-1], model)
    models = [load_checkpoint(p) for p in paths]  # float32-rounded, as translate sees them
    lm_path = tmp_path / "t.lm"
    save_lm(lm_path, LM)
    flags = {"greedy": ["--beam-size", "1"], "beam8": ["--beam-size", "8"],
             "beam8_lm": ["--beam-size", "8", "--lm", str(lm_path), "--lm-weight", "0.3"],
             "ensemble2": ["--beam-size", "8", "--checkpoint", str(paths[1])]}
    for size in (1, 3, 9):
        sources = _sources(rng, task, size)
        if task == "text" and size > 1:
            sources[1] = []
        inp = _write_inputs(tmp_path, task, sources, models[0].src_vocab)
        if task == "speech":  # translate reads float32 frames
            sources = [np.asarray(s, dtype=np.float32).astype(np.float64) for s in sources]
        for rung, (count, options) in RUNGS.items():
            code, out, err = run(capsys, "translate", "--checkpoint", str(paths[0]),
                                 "--input", str(inp), *flags[rung])
            assert code == 0, err
            expected = [" ".join(models[0].tgt_vocab.decode_sequence(
                beam_search(models[:count], s, **options).tokens)) if len(s) else ""
                for s in sources]
            assert out.split("\n")[:-1] == expected, rung


def test_translate_short_utterance_among_good_ones(tmp_path, capsys):
    """A 2-frame utterance is shorter than the encoder's stride: translate
    reports it before decoding, the other inputs decode as one batch with
    no per-input retry, and only that input's line is empty."""
    model = randomize(build_tiny_model(task="speech", m=3, n=3, tgt_words=5), seed=12)
    bias = np.zeros(len(model.tgt_vocab))
    bias[EOS_ID] = -50.0  # never finishes: every good input emits max-len tokens
    model.store.set_value("dec.vocab_b", bias)
    ckpt = tmp_path / "speech.ckpt"
    save_checkpoint(ckpt, model)
    rng = np.random.default_rng(3)
    frames = [rng.normal(size=(n, FEATURE_DIM)).astype(np.float32) for n in (8, 2, 6, 10, 5)]
    archive = tmp_path / "in.feats"
    write_feature_archive(archive, [(f"u{i}", f) for i, f in enumerate(frames)])
    code, out, err = run(capsys, "translate", "--checkpoint", str(ckpt), "--input", str(archive),
                         "--beam-size", "2", "--max-len", "3")
    assert code == 0
    lines = out.split("\n")[:-1]
    assert len(lines) == 5
    assert [i for i, line in enumerate(lines) if not line] == [1]
    assert "input 1: input too short: 2 steps, need at least 4; emitting empty line" in err
    assert "input 0" not in err and "input 2" not in err
    loaded = load_checkpoint(ckpt)
    for i in (0, 2, 3, 4):
        result = beam_search([loaded], frames[i].astype(np.float64), beam_size=2, max_len=3)
        assert lines[i] == " ".join(loaded.tgt_vocab.decode_sequence(result.tokens))


def test_translate_archive_of_only_too_short_inputs(tmp_path, capsys):
    """Every input is shorter than the encoder's stride of 4: all lines are
    empty, each input gets one note, and the run succeeds."""
    model = randomize(build_tiny_model(task="speech", m=3, n=3, tgt_words=5), seed=13)
    ckpt = tmp_path / "speech.ckpt"
    save_checkpoint(ckpt, model)
    rng = np.random.default_rng(4)
    archive = tmp_path / "in.feats"
    write_feature_archive(archive, [(f"u{i}", rng.normal(size=(n, FEATURE_DIM)).astype(np.float32))
                                    for i, n in enumerate((2, 3, 1))])
    code, out, err = run(capsys, "translate", "--checkpoint", str(ckpt), "--input", str(archive))
    assert code == 0
    assert out == "\n\n\n"
    assert err.splitlines() == [
        f"input {i}: input too short: {n} steps, need at least 4; emitting empty line"
        for i, n in enumerate((2, 3, 1))]


def test_lm_fusion_scores_each_distinct_context_once_per_step(monkeypatch):
    """``fused_log_rows`` runs once per distinct (u, v) context of a step,
    and the decode equals the one without the counting wrapper."""
    models = _models("text", "additive", seed=70)[:1]
    sources = _sources(np.random.default_rng(71), "text", 3)
    options = dict(beam_size=8, lm=LM, weights=FusionWeights(lm_weight=0.3))
    plain = decode_batch(models, sources, **options)

    steps = []  # per step: (the rows' previous tokens, the contexts scored)
    original_step, original_rows = DecoderCore.step, search.fused_log_rows

    def step(self, state, prev_ids):
        steps.append((list(prev_ids), []))
        return original_step(self, state, prev_ids)

    def rows(lm, id_map, u, v):
        steps[-1][1].append((u, v))
        return original_rows(lm, id_map, u, v)

    monkeypatch.setattr(DecoderCore, "step", step)
    monkeypatch.setattr(search, "fused_log_rows", rows)
    counted = decode_batch(models, sources, **options)
    for got, want in zip(counted, plain):
        _assert_same_decode(got, want)

    assert steps[0] == ([BOS_ID] * 3, [(BOS_ID, BOS_ID)])
    assert len(steps) > 2
    for prev_ids, contexts in steps:
        assert len(contexts) == len(set(contexts))  # no context scored twice
        assert {v for _, v in contexts} == set(prev_ids)
    assert sorted(steps[1][1]) == [(BOS_ID, v) for v in sorted(set(steps[1][0]))]
    assert sum(len(c) for _, c in steps) < sum(len(p) for p, _ in steps)


def test_dev_bleu_decodes_in_batches_like_per_input_greedy():
    rng = np.random.default_rng(8)
    model = randomize(build_tiny_model(m=4, n=4, tgt_words=8), seed=21)  # batch_size 4
    sources = _sources(rng, "text", 11)
    targets = [list(rng.integers(4, 8, int(rng.integers(1, 5)))) for _ in sources]
    corpus = ParallelCorpus(sources, targets)
    hyps = [model.tgt_vocab.decode_sequence(greedy_decode(model, s).tokens) for s in sources]
    refs = [[model.tgt_vocab.decode_sequence(t)] for t in targets]
    assert dev_greedy_bleu(model, corpus) == corpus_bleu(hyps, refs).score
