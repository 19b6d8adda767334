"""Shared helpers for building tiny models in tests."""

import numpy as np

from s2t.config import RunConfig
from s2t.corpus import Vocabulary
from s2t.model import Seq2SeqModel


def tiny_config(task="text", m=4, n=4, dropout=0.0, seed=1, **overrides):
    base = dict(
        task=task,
        hidden_size=m,
        embed_size=n,
        dropout=dropout,
        seed=seed,
        conv_filter_size=5,
        prenet_size=6,
        batch_size=4,
        steps=10,
        save_every=5,
    )
    base.update(overrides)
    return RunConfig(**base).resolved()


def word_vocab(count):
    return Vocabulary([f"t{i}" for i in range(count)])


def build_tiny_model(task="text", m=4, n=4, src_words=6, tgt_words=6, seed=1, **overrides):
    config = tiny_config(task=task, m=m, n=n, seed=seed, **overrides)
    src_vocab = word_vocab(src_words) if task == "text" else None
    tgt_vocab = word_vocab(tgt_words)
    from s2t.audio import FeatureStats

    stats = FeatureStats.identity(config.feature_dim) if task == "speech" else None
    return Seq2SeqModel.build(config, src_vocab=src_vocab, tgt_vocab=tgt_vocab, feat_stats=stats)


def randomize(model, seed, scale=0.4):
    """Replace every parameter with fresh random values (for random-instance
    decoding tests)."""
    rng = np.random.default_rng(seed)
    for name in sorted(model.store.names()):
        shape = model.store.value(name).shape
        model.store.set_value(name, rng.normal(size=shape) * scale)
    return model


def keep_every_value(monkeypatch):
    """Re-register every primitive kind without its ``reads`` declaration,
    so tapes made until the test ends keep every value."""
    from s2t import autodiff as ad

    for kind, prim in list(ad._PRIMITIVES.items()):
        monkeypatch.setitem(ad._PRIMITIVES, kind, ad.Primitive(prim.forward, prim.backward))


def random_text_source(rng, vocab_size, min_len=2, max_len=6):
    return list(rng.integers(4, vocab_size, size=int(rng.integers(min_len, max_len + 1))))


def random_speech_source(rng, dim=41, min_len=4, max_len=12):
    return rng.normal(size=(int(rng.integers(min_len, max_len + 1)), dim)) * 0.5


def count_primitive_calls(monkeypatch):
    """Re-register every primitive kind so that each forward it runs until
    the test ends appends its kind to the returned list."""
    from s2t import autodiff as ad

    calls = []
    for kind, prim in list(ad._PRIMITIVES.items()):
        def forward(d, a, kind=kind, rule=prim.forward):
            calls.append(kind)
            return rule(d, a)
        monkeypatch.setitem(ad._PRIMITIVES, kind, ad.Primitive(forward, prim.backward, prim.reads))
    return calls
