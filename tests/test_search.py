import warnings

import numpy as np
import pytest

from s2t.checkpoint import save_checkpoint
from s2t.cli import main
from s2t.corpus import BOS_ID, EOS_ID, PAD_ID, UNK_ID, make_batch
from s2t.lm import train_trigram, vocabulary_id_map, lm_logprob
from s2t.model import DivergenceError
from s2t.search import DecodeResult, FusionWeights, beam_search, decode_batch, greedy_decode

from util import build_tiny_model, random_speech_source, random_text_source, randomize


def test_greedy_immediate_eos_gives_empty_translation():
    model = build_tiny_model(tgt_words=4)
    bias = np.zeros(len(model.tgt_vocab))
    bias[EOS_ID] = 50.0
    model.store.set_value("dec.vocab_b", bias)
    result = greedy_decode(model, [4, 5])
    assert result.tokens == []
    assert result.attention.shape[0] == 0


def test_underflowed_probability_decodes_without_warning(tmp_path, capsys):
    """A target logit 1e4 below the rest underflows to probability 0, which
    scores -inf: the decode is the same with warnings raised as errors, and
    ``translate`` writes nothing to stderr."""
    model = randomize(build_tiny_model(), seed=71)
    bias = model.store.value("dec.vocab_b").copy()
    bias[5] = -1e4
    model.store.set_value("dec.vocab_b", bias)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = beam_search([model], [4, 5, 6], beam_size=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert beam_search([model], [4, 5, 6], beam_size=2).tokens == expected.tokens
    path, inp = tmp_path / "model.ckpt", tmp_path / "in.txt"
    save_checkpoint(path, model)
    inp.write_text("t0 t1 t2\n")
    assert main(["translate", "--checkpoint", str(path), "--input", str(inp), "--beam-size", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == " ".join(model.tgt_vocab.decode_sequence(expected.tokens)) + "\n"
    assert captured.err == ""


def test_greedy_deterministic():
    model = randomize(build_tiny_model(), seed=70)
    a = greedy_decode(model, [4, 5, 6])
    b = greedy_decode(model, [4, 5, 6])
    assert a.tokens == b.tokens
    assert a.attention.tobytes() == b.attention.tobytes()


def test_greedy_respects_max_len():
    model = randomize(build_tiny_model(), seed=71)
    result = greedy_decode(model, [4, 5], max_len=3)
    assert len(result.tokens) <= 3


def test_greedy_reproduces_overfit_target():
    model = build_tiny_model(m=16, n=8, seed=2, learning_rate=0.01, dropout=0.0)
    src, tgt = [4, 5, 6, 7], [7, 6, 5, 4]
    batch = make_batch([src], [tgt])
    for step in range(1, 151):
        model.train_step(batch, step)
    result = greedy_decode(model, src)
    assert result.tokens == tgt
    assert result.attention.shape == (len(tgt), len(src))


def test_beam_one_equals_greedy_on_random_instances():
    base = build_tiny_model(m=3, n=3, src_words=5, tgt_words=5)
    rng = np.random.default_rng(72)
    for trial in range(100):
        model = randomize(base, seed=1000 + trial)
        source = random_text_source(rng, len(model.src_vocab))
        greedy = greedy_decode(model, source)
        beam = beam_search([model], source, beam_size=1)
        assert beam.tokens == greedy.tokens
        assert beam.attention.tobytes() == greedy.attention.tobytes()


def test_beam_one_equals_greedy_for_speech_models():
    base = build_tiny_model(task="speech", m=3, n=3, tgt_words=5)
    rng = np.random.default_rng(73)
    for trial in range(20):
        model = randomize(base, seed=2000 + trial)
        source = random_speech_source(rng, min_len=5, max_len=10)
        greedy = greedy_decode(model, source)
        beam = beam_search([model], source, beam_size=1)
        assert beam.tokens == greedy.tokens
        assert beam.attention.tobytes() == greedy.attention.tobytes()


def test_ensemble_of_identical_models_equals_single():
    rng = np.random.default_rng(74)
    for trial in range(20):
        model = randomize(build_tiny_model(m=3, n=3), seed=3000 + trial)
        source = random_text_source(rng, len(model.src_vocab))
        single = beam_search([model], source, beam_size=3)
        triple = beam_search([model, model, model], source, beam_size=3)
        assert triple.tokens == single.tokens


def test_zero_lm_weight_equals_no_lm():
    lm = train_trigram([["t0", "t1"], ["t1", "t2"]])
    rng = np.random.default_rng(75)
    for trial in range(20):
        model = randomize(build_tiny_model(m=3, n=3), seed=4000 + trial)
        source = random_text_source(rng, len(model.src_vocab))
        plain = beam_search([model], source, beam_size=3)
        fused = beam_search([model], source, beam_size=3,
                            lm=lm, weights=FusionWeights(lm_weight=0.0))
        assert fused.tokens == plain.tokens
        assert fused.score == plain.score


def _exhaustive_winner(model, source, max_len):
    """Brute-force enumeration of every completed output with content
    length < max_len, scored by chaining decoder steps."""
    import itertools

    src = np.asarray(source)[None, :]
    core, start = model.start(model.store.as_tensors(), src, np.array([src.shape[1]]))
    vocab = len(model.tgt_vocab)
    non_eos = [t for t in range(vocab) if t not in (PAD_ID, BOS_ID, EOS_ID)]  # reserved ids never decode

    best = None
    for k in range(max_len):
        for content in itertools.product(non_eos, repeat=k):
            state = start
            score = 0.0
            for prev, target in zip((BOS_ID,) + content, content + (EOS_ID,)):
                state, dist, _ = core.step(state, np.array([prev]))
                score += float(np.log(dist.data[0, target]))
            if best is None or score > best[0]:
                best = (score, list(content))
    return best


def test_full_width_beam_matches_exhaustive_search():
    rng = np.random.default_rng(76)
    for trial in range(5):
        model = randomize(build_tiny_model(m=3, n=3, tgt_words=2), seed=5000 + trial)
        vocab = len(model.tgt_vocab)
        max_len = 3
        source = random_text_source(rng, len(model.src_vocab))
        expected_score, expected_tokens = _exhaustive_winner(model, source, max_len)
        result = beam_search([model], source, beam_size=vocab ** max_len, max_len=max_len)
        assert result.tokens == expected_tokens
        assert result.score == pytest.approx(expected_score, abs=1e-12)


def test_scores_are_non_positive():
    rng = np.random.default_rng(77)
    for trial in range(20):
        model = randomize(build_tiny_model(m=3, n=3), seed=6000 + trial)
        source = random_text_source(rng, len(model.src_vocab))
        assert beam_search([model], source, beam_size=4).score <= 1e-12


def test_wider_beam_never_decreases_winner_score():
    rng = np.random.default_rng(78)
    for trial in range(50):
        model = randomize(build_tiny_model(m=3, n=3), seed=7000 + trial)
        source = random_text_source(rng, len(model.src_vocab))
        k = int(rng.integers(1, 5))
        narrow = beam_search([model], source, beam_size=k)
        wide = beam_search([model], source, beam_size=k + 1)
        assert wide.score >= narrow.score - 1e-12


def test_lm_fusion_changes_scores_consistently():
    corpus = [["t0", "t1", "t2"], ["t0", "t1"], ["t2", "t0"]]
    lm = train_trigram(corpus)
    model = randomize(build_tiny_model(m=3, n=3), seed=80)
    source = [4, 5]
    fused = beam_search([model], source, beam_size=2,
                        lm=lm, weights=FusionWeights(lm_weight=0.5))
    # winner score must equal model log-prob plus weighted LM log-prob
    plainlike = beam_search([model], source, beam_size=2)
    id_map = vocabulary_id_map(lm, model.tgt_vocab)

    def replay(tokens, finished):
        src = np.asarray(source)[None, :]
        core, state = model.start(model.store.as_tensors(), src, np.array([2]))
        total = 0.0
        targets = tokens + [EOS_ID] if finished else tokens
        for prev, tgt in zip([BOS_ID] + tokens, targets):
            state, dist, _ = core.step(state, np.array([prev]))
            total += float(np.log(dist.data[0, tgt]))
        return total

    assert fused.finished
    lm_ids = [int(id_map[t]) for t in fused.tokens]
    lm_term = 0.5 * (lm_logprob(lm, lm_ids) if lm_ids else lm.logprob(BOS_ID, BOS_ID, EOS_ID))
    assert fused.score == pytest.approx(replay(fused.tokens, True) + lm_term, abs=1e-9)
    assert plainlike.score == pytest.approx(
        replay(plainlike.tokens, plainlike.finished), abs=1e-9)


def test_rescore_only_reranks_completed_pool():
    corpus = [["t0", "t0", "t0"]] * 5
    lm = train_trigram(corpus)
    rng = np.random.default_rng(81)
    for trial in range(10):
        model = randomize(build_tiny_model(m=3, n=3), seed=8200 + trial)
        source = random_text_source(rng, len(model.src_vocab))
        result = beam_search([model], source, beam_size=4, lm=lm,
                             weights=FusionWeights(lm_weight=1.0), rescore_only=True)
        assert isinstance(result, DecodeResult)


def test_beam_requires_models():
    with pytest.raises(ValueError, match="at least one model"):
        beam_search([], [4, 5])


def test_decoding_never_mutates_parameters():
    model = randomize(build_tiny_model(m=3, n=3), seed=84)
    before = {n: model.store.value(n).tobytes() for n in model.store.names()}
    beam_search([model, model], [4, 5, 6], beam_size=4)
    greedy_decode(model, [5, 6])
    after = {n: model.store.value(n).tobytes() for n in model.store.names()}
    assert before == after


def test_greedy_ties_break_to_lowest_token_id():
    model = build_tiny_model(m=3, n=3)
    for name in model.store.names():
        model.store.set_value(name, np.zeros_like(model.store.value(name)))
    bias = np.zeros(len(model.tgt_vocab))
    bias[EOS_ID] = -1.0
    model.store.set_value("dec.vocab_b", bias)
    # uniform over every id but EOS: argmax must pick the lowest id that can be
    # decoded, UNK, since <pad> (0) and <bos> (1) never are
    result = greedy_decode(model, [4, 5], max_len=4)
    assert result.tokens == [UNK_ID] * 4
    assert not result.finished


def test_length_normalization_flag_runs():
    model = randomize(build_tiny_model(m=3, n=3), seed=83)
    result = beam_search([model], [4, 5, 6], beam_size=3, length_norm=True)
    assert isinstance(result.tokens, list)


def test_beam_wider_than_vocabulary_keeps_finite_scores():
    """Beam 40 over a 7-word target vocabulary (11 ids, <pad> and <bos>
    masked), with and without an LM: every result has a finite score and
    no reserved id."""
    lm = train_trigram([["t0", "t1", "t2"], ["t3", "t4"], ["t5", "t6", "t0"]])
    rng = np.random.default_rng(86)
    for trial in range(10):
        model = randomize(build_tiny_model(m=3, n=3, tgt_words=7), seed=8600 + trial)
        sources = [random_text_source(rng, len(model.src_vocab)) for _ in range(3)]
        for options in ({}, dict(lm=lm, weights=FusionWeights(lm_weight=0.5))):
            for result in decode_batch([model], sources, beam_size=40, max_len=4, **options):
                assert np.isfinite(result.score)
                assert not {PAD_ID, BOS_ID}.intersection(result.tokens)


def test_no_finite_candidate_raises_divergence():
    """A model that gives every decodable id probability 0 (all its mass on
    <pad> and <bos>) has no candidate to rank: DivergenceError, not a
    decode of reserved ids."""
    model = build_tiny_model(m=3, n=3)
    bias = np.full(len(model.tgt_vocab), -1e4)
    bias[[PAD_ID, BOS_ID]] = 0.0
    model.store.set_value("dec.vocab_b", bias)
    with np.errstate(divide="ignore"), pytest.raises(DivergenceError, match="finite"):
        beam_search([model], [4, 5], beam_size=2)
