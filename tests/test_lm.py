import itertools

import numpy as np
import pytest

from s2t.corpus import BOS_ID, EOS_ID, PAD_ID, Vocabulary
from s2t.lm import (
    DEFAULT_LAMBDAS,
    fused_log_rows,
    lm_logprob,
    load_lm,
    save_lm,
    train_trigram,
    vocabulary_id_map,
)

from oracles import observed_contexts, trigram_oracle


def test_single_sentence_hand_count_case():
    # corpus "a b": vocab {pad,bos,eos,unk,a,b}, predicted tokens a, b, EOS
    model = train_trigram([["a", "b"]])
    vocab = model.vocab
    a, b = vocab.encode("a"), vocab.encode("b")
    # unigram: total 3, floor 1/(6*3), three unseen ids discount seen mass
    floor = 1.0 / (6 * 3)
    p_b = (1 / 3) * (1 - 3 * floor)
    l1, l2, l3 = DEFAULT_LAMBDAS
    expected = l3 * 1.0 + l2 * 1.0 + l1 * p_b
    assert model.context_distribution(BOS_ID, a)[b] == pytest.approx(expected, abs=1e-15)


def test_unigram_floor_and_normalization():
    model = train_trigram([["a", "b"], ["a"]])
    probs = model.unigram_probs
    total = 5  # a, b, EOS, a, EOS
    floor = 1.0 / (len(model.vocab) * total)
    assert probs[PAD_ID] == pytest.approx(floor)
    assert probs[BOS_ID] == pytest.approx(floor)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert (probs > 0).all()


def test_unseen_trigram_context_backs_off_without_renormalization():
    model = train_trigram([["a", "b"]])
    vocab = model.vocab
    a, b = vocab.encode("a"), vocab.encode("b")
    l1, l2, l3 = DEFAULT_LAMBDAS
    # context (b, a): trigram unseen, bigram a -> b seen
    expected = l2 * 1.0 + l1 * model.unigram_probs[b]
    assert model.context_distribution(b, a)[b] == pytest.approx(expected, abs=1e-15)


def test_observed_contexts_sum_to_one():
    rng = np.random.default_rng(60)
    words = [f"w{i}" for i in range(12)]
    corpus = [[words[i] for i in rng.integers(0, 12, rng.integers(1, 9))] for _ in range(50)]
    model = train_trigram(corpus)
    contexts = observed_contexts(model)
    assert contexts
    for u, v in contexts:
        total = model.context_distribution(u, v).sum()
        assert total == pytest.approx(1.0, abs=1e-9)


def test_lm_logprob_hand_case():
    model = train_trigram([["a"]])
    a = model.vocab.encode("a")
    l1, l2, l3 = DEFAULT_LAMBDAS
    floor = 1.0 / (5 * 2)
    p_a = 0.5 * (1 - 3 * floor)  # pad, bos, unk unseen
    step = np.log(l3 + l2 + l1 * p_a)  # identical for both steps here
    assert lm_logprob(model, [a]) == pytest.approx(2 * step, abs=1e-12)


def test_lm_logprob_strictly_negative_and_finite():
    model = train_trigram([["a", "b"], ["b", "c"]])
    rng = np.random.default_rng(61)
    for _ in range(50):
        ids = rng.integers(0, len(model.vocab), size=rng.integers(1, 8)).tolist()
        value = lm_logprob(model, ids)
        assert np.isfinite(value) and value < 0


def test_lm_logprob_decreases_with_length():
    model = train_trigram([["a"]] * 3)
    a = model.vocab.encode("a")
    values = [lm_logprob(model, [a] * n) for n in range(1, 6)]
    assert all(b < x for x, b in zip(values, values[1:]))


def test_lambda_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        train_trigram([["a"]], lambdas=(0.5, 0.5, 0.5))


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty"):
        train_trigram([])


def test_lm_file_round_trip(tmp_path):
    rng = np.random.default_rng(62)
    words = [f"w{i}" for i in range(9)]
    corpus = [[words[i] for i in rng.integers(0, 9, rng.integers(1, 7))] for _ in range(20)]
    model = train_trigram(corpus)
    path_a = tmp_path / "model.lm"
    path_b = tmp_path / "model2.lm"
    save_lm(path_a, model)
    loaded = load_lm(path_a)
    save_lm(path_b, loaded)
    assert path_a.read_bytes() == path_b.read_bytes()
    for u, v in itertools.product(range(len(model.vocab)), repeat=2):
        np.testing.assert_array_equal(model.context_distribution(u, v),
                                      loaded.context_distribution(u, v))


def test_lm_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.lm"
    path.write_text("NOTANLM\n")
    with pytest.raises(ValueError, match="not a language model"):
        load_lm(path)


def test_vocabulary_remap_for_fusion():
    model = train_trigram([["a", "b", "c"]])
    other = Vocabulary(["c", "zzz", "a"])
    id_map = vocabulary_id_map(model, other)
    assert model.vocab.decode(id_map[other.encode("a")]) == "a"
    assert model.vocab.decode(id_map[other.encode("c")]) == "c"
    assert id_map[other.encode("zzz")] == 3  # UNK
    rows = fused_log_rows(model, id_map, BOS_ID, BOS_ID)
    direct = np.log(model.context_distribution(BOS_ID, BOS_ID))
    assert rows[other.encode("a")] == direct[model.vocab.encode("a")]


@pytest.mark.parametrize("seed", range(6))
def test_every_context_matches_the_count_oracle_bitwise(tmp_path, seed):
    """Every p(. | u, v) over the whole vocabulary, as trained and after a
    save and reload, equals the raw-count formula in Python floats bit for
    bit."""
    rng = np.random.default_rng(600 + seed)
    words = [f"w{i}" for i in range(int(rng.integers(1, 14)))]
    corpus = [[words[i] for i in rng.integers(0, len(words), rng.integers(0, 9))]
              for _ in range(int(rng.integers(1, 40)))]
    lambdas = DEFAULT_LAMBDAS if seed % 2 else (0.2, 0.25, 0.55)
    model = train_trigram(corpus, lambdas)
    save_lm(tmp_path / "model.lm", model)
    loaded = load_lm(tmp_path / "model.lm")
    size = len(model.vocab)
    oracle = trigram_oracle([model.vocab.encode_sequence(s) + [EOS_ID] for s in corpus],
                            size, lambdas, BOS_ID)
    for u, v in itertools.product(range(size), repeat=2):
        expected = np.array(oracle(u, v))
        assert model.context_distribution(u, v).tobytes() == expected.tobytes(), (u, v)
        assert loaded.context_distribution(u, v).tobytes() == expected.tobytes(), (u, v)
