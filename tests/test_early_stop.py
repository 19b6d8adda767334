"""A search ranked by raw score stops a source once its best finished
hypothesis can no longer be beaten, and returns what the search to the
length cap returns; the full search is the one with ``search._settled``
switched off."""

import itertools

import numpy as np
import pytest

from s2t import search
from s2t.corpus import EOS_ID
from s2t.lm import TrigramModel, train_trigram
from s2t.model import DecoderCore
from s2t.search import LM_PROBABILITY_BOUND, FusionWeights, beam_search

from test_batched_search import CASES, LM, _models, _sources
from util import build_tiny_model, randomize


def _full_search(monkeypatch):
    monkeypatch.setattr(search, "_settled", lambda *args: False)


def _peaked_models(task, attention, seed):
    """Two wider EOS-biased models with sharper distributions than
    ``_models``: many of their winners finish after a step where an earlier
    EOS candidate retired below a live row."""
    models = []
    for j in range(2):
        model = randomize(build_tiny_model(task=task, m=8, n=8, tgt_words=6, attention=attention),
                          seed=seed + j, scale=1.5)
        bias = model.store.value("dec.vocab_b").copy()
        bias[EOS_ID] = 1.0
        model.store.set_value("dec.vocab_b", bias)
        models.append(model)
    return models


def _count_steps(monkeypatch):
    """Each ``DecoderCore.step`` call appends its row count to the list."""
    steps, original = [], DecoderCore.step

    def step(self, state, prev_ids):
        steps.append(len(prev_ids))
        return original(self, state, prev_ids)

    monkeypatch.setattr(DecoderCore, "step", step)
    return steps


def test_stopped_search_equals_the_full_search(monkeypatch):
    """240 single-source decodes over text and speech, both attentions,
    beam 1/3/8, LM weight 0 and 0.3, one and two models, ``_models``'
    EOS-biased pairs (whose winners are mostly empty) and peaked ones: the
    same tokens, ``finished``, score and attention bytes."""
    settled, original = [], search._settled

    def counted(*args):
        settled.append(original(*args))
        return settled[-1]

    combos = list(itertools.product(CASES, (1, 3, 8), (0.0, 0.3), (1, 2)))
    runs = []
    for index, ((task, attention), beam, lm_weight, count) in enumerate(combos):
        rng = np.random.default_rng([7, index])
        for trial, source in enumerate(_sources(rng, task, 5)):
            build = _models if trial % 2 else _peaked_models
            models = build(task, attention, seed=1000 * index + 10 * trial)[:count]
            options = dict(beam_size=beam, lm=LM, weights=FusionWeights(lm_weight=lm_weight))
            runs.append((models, source, options))
    assert len(runs) >= 200

    monkeypatch.setattr(search, "_settled", counted)
    stopped = [beam_search(models, source, **options) for models, source, options in runs]
    _full_search(monkeypatch)
    later = 0  # winners that finish after the first step
    for (models, source, options), got in zip(runs, stopped):
        want = beam_search(models, source, **options)
        later += want.finished and len(want.tokens) > 0
        assert got.tokens == want.tokens
        assert got.finished == want.finished
        assert repr(got.score) == repr(want.score)
        assert got.attention.shape == want.attention.shape
        assert got.attention.tobytes() == want.attention.tobytes()
    assert sum(settled) >= 50  # the rule stopped many of these searches early
    assert later >= 30


def test_settled_needs_a_strict_lead_over_every_reachable_score():
    assert not search._settled(-1.0, -1.0, 5, 0.0)  # a tie may still win on token ids
    assert search._settled(-1.0, -1.0 - 1e-15, 5, 0.0)
    assert not search._settled(-1.0, -1.5, 3, 0.2)  # three steps may add 0.6
    assert search._settled(-1.0, -1.7, 3, 0.2)
    assert not search._settled(-np.inf, -50.0, 1, 0.0)  # nothing finished yet


def _eos_biased_case():
    models = _models("text", "additive", seed=70)[:1]
    source = _sources(np.random.default_rng(71), "text", 1)[0]
    return models, source, len(source) * 2 + 10


def test_eos_biased_search_with_lm_stops_before_the_cap(monkeypatch):
    models, source, cap = _eos_biased_case()
    options = dict(beam_size=8, lm=LM, weights=FusionWeights(lm_weight=0.3))
    steps = _count_steps(monkeypatch)
    stopped = beam_search(models, source, **options)
    assert stopped.finished and 0 < len(steps) < cap
    stopped_steps = len(steps)

    steps.clear()
    _full_search(monkeypatch)
    full = beam_search(models, source, **options)
    assert len(steps) == cap > stopped_steps
    assert (full.tokens, repr(full.score)) == (stopped.tokens, repr(stopped.score))


@pytest.mark.parametrize("ranking", [dict(length_norm=True), dict(rescore_only=True),
                                     dict(length_norm=True, rescore_only=True)])
def test_length_normalized_or_rescored_search_runs_to_the_cap(monkeypatch, ranking):
    models, source, cap = _eos_biased_case()
    options = dict(beam_size=8, lm=LM, weights=FusionWeights(lm_weight=0.3), **ranking)
    steps = _count_steps(monkeypatch)
    beam_search(models, source, **options)
    assert len(steps) == cap


def _saturated_lm(lambdas):
    """A model whose p(t4 | t4, t4) is within 1e-14 of the weights' sum:
    t4 is nearly every unigram event and the only successor of its contexts."""
    vocab = LM.vocab
    w = vocab.encode("t4")
    counts = np.ones(len(vocab), dtype=np.int64)
    counts[w] = 10**15
    return TrigramModel(vocab, lambdas, counts, np.array([[w, w, 5]]), np.array([[w, w, w, 5]]))


@pytest.mark.parametrize("lambdas", [(0.1, 0.3, 0.6), (0.2, 0.2, 0.6 + 9.9e-13),
                                     (1e-9, 1e-9, 1.0 - 2e-9 + 1e-12)])
def test_every_lm_probability_is_within_the_bound_the_rule_uses(lambdas):
    models = [train_trigram([["t4", "t5"], ["t5", "t6", "t4"], ["t6"], ["t4", "t4", "t7"]], lambdas),
              _saturated_lm(lambdas)]
    for lm in models:
        ids = range(len(lm.vocab))
        top = max(lm.context_distribution(u, v).max() for u in ids for v in ids)
        assert top <= LM_PROBABILITY_BOUND
    assert top > sum(lambdas) - 1e-14
