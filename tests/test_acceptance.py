"""Acceptance suite: one test per criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The trained-model criteria stop early once their targets are met,
so the whole suite stays well inside the stated runtime budgets.
"""

import itertools
import time

import numpy as np
import pytest

from s2t.autodiff import Tensor, gradient_check
from s2t.bleu import bleu_score, corpus_bleu
from s2t.checkpoint import load_checkpoint, save_checkpoint
from s2t.corpus import BOS_ID, EOS_ID, ParallelCorpus, make_batch, make_batches
from s2t.lm import train_trigram
from s2t.search import FusionWeights, beam_search, greedy_decode
from s2t.training import train_loop

from oracles import bleu_oracle, observed_contexts, pyramid_length_oracle, subsampled_length
from test_bleu import HAND_CASES
from util import build_tiny_model, random_text_source, randomize

# attention matrices collected from every decode run by criteria 2-4,
# checked wholesale by criterion 5
ATTENTION_LOG: list[np.ndarray] = []


def _collect(result):
    ATTENTION_LOG.append(result.attention)
    return result


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_integrity():
    """Full-model finite differences, both attention kinds, < 1e-3, < 1 min."""
    start = time.monotonic()
    worst = {}
    for task, src_len in (("text", 5), ("speech", 6)):
        rng = np.random.default_rng(100)
        model = build_tiny_model(task=task, m=8, n=8, src_words=16, tgt_words=16,
                                 seed=100, prenet_size=8, conv_filter_size=5)
        assert len(model.tgt_vocab) == 20
        if task == "text":
            source = [int(rng.integers(4, 20)) for _ in range(src_len)]
        else:
            source = rng.normal(size=(src_len, 41)) * 0.5
        batch = make_batch([source], [[4, 5]])
        point = {n: Tensor(model.store.value(n)) for n in model.store.names()}
        # epsilon 1e-4: at 1e-5 the finite-difference resolution floor
        # (ulp(loss)/2eps vs the 1e-8 denominator floor) exceeds 1e-3 on
        # near-zero-gradient coordinates for ANY implementation
        worst[task] = gradient_check(lambda p: model.batch_nll(p, batch),
                                     point, epsilon=1e-4)
        assert worst[task] < 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\ncriterion 1 PASS: max rel err text {worst['text']:.2e}, "
          f"speech {worst['speech']:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2


def _train_toy(model, corpus, max_steps, eval_every, evaluate, target):
    start = time.monotonic()
    step = 0
    epoch = 0
    score = None
    while step < max_steps:
        for batch in make_batches(corpus, model.config.batch_size,
                                  shuffle_seed=1_000_003 * model.config.seed + epoch):
            step += 1
            model.train_step(batch, step)
            if step >= max_steps:
                break
        epoch += 1
        if step % eval_every < len(corpus) // model.config.batch_size + 1 or step >= max_steps:
            score = evaluate()
            if target(score):
                break
    return step, time.monotonic() - start, score


@pytest.fixture(scope="module")
def text_toy():
    rng = np.random.default_rng(7)
    sources = [list(map(int, rng.integers(4, 20, rng.integers(3, 9)))) for _ in range(500)]
    targets = [list(reversed(s)) for s in sources]
    corpus = ParallelCorpus(sources, targets)
    model = build_tiny_model(m=64, n=64, src_words=16, tgt_words=16, seed=1,
                             batch_size=64, learning_rate=0.001, dropout=0.0)

    def evaluate():
        hyps, refs, exact = [], [], 0
        for s, t in zip(sources, targets):
            out = _collect(greedy_decode(model, s)).tokens
            exact += out == t
            hyps.append([str(i) for i in out])
            refs.append([[str(i) for i in t]])
        return corpus_bleu(hyps, refs).score, exact / len(sources)

    steps, elapsed, (bleu, exact) = _train_toy(
        model, corpus, max_steps=5000, eval_every=400, evaluate=evaluate,
        target=lambda score: score[0] >= 95 and score[1] >= 0.9)
    return dict(model=model, sources=sources, targets=targets,
                steps=steps, elapsed=elapsed, bleu=bleu, exact=exact)


def test_criterion_2_text_toy_task(text_toy):
    """Token reversal, vocab 20, m=64: train BLEU >= 95, exact match >= 90%."""
    assert text_toy["steps"] <= 5000
    assert text_toy["bleu"] >= 95.0
    assert text_toy["exact"] >= 0.90
    assert text_toy["elapsed"] < 15 * 60
    print(f"\ncriterion 2 PASS: BLEU {text_toy['bleu']:.2f}, "
          f"exact {100 * text_toy['exact']:.1f}%, {text_toy['steps']} steps, "
          f"{text_toy['elapsed']:.0f}s")


# ---------------------------------------------------------------- criterion 3


@pytest.fixture(scope="module")
def speech_toy():
    rng = np.random.default_rng(11)
    patterns = rng.normal(size=(10, 41))

    def render(symbols):
        # each symbol is a fixed pattern over 4..8 frames plus noise
        frames = []
        for s in symbols:
            block = np.repeat(patterns[s][None, :], int(rng.integers(4, 9)), axis=0)
            frames.append(block + rng.normal(0.0, 0.05, block.shape))
        return np.vstack(frames)

    sources, targets = [], []
    for _ in range(200):
        syms = rng.integers(0, 10, rng.integers(2, 6))
        sources.append(render(syms))
        targets.append([int(4 + s) for s in syms])
    corpus = ParallelCorpus(sources, targets)
    model = build_tiny_model(task="speech", m=32, n=32, tgt_words=10, seed=1,
                             batch_size=32, learning_rate=0.001, dropout=0.0,
                             prenet_size=32, conv_filter_size=25)

    def evaluate():
        correct = total = 0
        for s, t in zip(sources, targets):
            out = _collect(greedy_decode(model, s)).tokens
            total += len(t)
            correct += sum(1 for a, b in zip(out, t) if a == b)
        return correct / total

    steps, elapsed, accuracy = _train_toy(
        model, corpus, max_steps=10000, eval_every=400, evaluate=evaluate,
        target=lambda acc: acc >= 0.9)
    return dict(model=model, sources=sources, targets=targets,
                steps=steps, elapsed=elapsed, accuracy=accuracy)


def test_criterion_3_speech_toy_task(speech_toy):
    """Pyramidal encoder + convolutional attention: token accuracy >= 90%."""
    assert speech_toy["steps"] <= 10000
    assert speech_toy["accuracy"] >= 0.90
    assert speech_toy["elapsed"] < 45 * 60
    print(f"\ncriterion 3 PASS: token accuracy {100 * speech_toy['accuracy']:.1f}%, "
          f"{speech_toy['steps']} steps, {speech_toy['elapsed']:.0f}s")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_decoding_ladder_laws():
    """Beam-1 = greedy, lm-weight 0 = no LM, identical ensemble = single,
    full-width beam = exhaustive search; each exact on >= 100 instances."""
    rng = np.random.default_rng(40)
    lm = train_trigram([["t0", "t1"], ["t1", "t2"], ["t2", "t0"]])
    base = build_tiny_model(m=3, n=3, src_words=5, tgt_words=5)

    for trial in range(100):
        model = randomize(base, seed=9000 + trial)
        source = random_text_source(rng, len(model.src_vocab))
        greedy = _collect(greedy_decode(model, source))
        beam1 = _collect(beam_search([model], source, beam_size=1))
        assert beam1.tokens == greedy.tokens
        assert beam1.attention.tobytes() == greedy.attention.tobytes()

        plain = beam_search([model], source, beam_size=3)
        no_weight = _collect(beam_search([model], source, beam_size=3, lm=lm,
                                         weights=FusionWeights(lm_weight=0.0)))
        assert no_weight.tokens == plain.tokens and no_weight.score == plain.score

        ensemble = _collect(beam_search([model] * 3, source, beam_size=3))
        assert ensemble.tokens == plain.tokens

    tiny = build_tiny_model(m=3, n=3, src_words=5, tgt_words=1)
    vocab = len(tiny.tgt_vocab)  # 5: reserved + one word
    max_len = 3
    for trial in range(100):
        model = randomize(tiny, seed=9500 + trial)
        source = random_text_source(rng, len(model.src_vocab))
        expected_score, expected_tokens = _exhaustive_winner(model, source, max_len)
        result = _collect(beam_search([model], source,
                                      beam_size=vocab ** max_len, max_len=max_len))
        assert result.tokens == expected_tokens
        assert result.score == pytest.approx(expected_score, abs=1e-12)
    print("\ncriterion 4 PASS: beam-1=greedy, lm0=plain, ensemble=single, "
          "beam=exhaustive on 100 instances each")


def _exhaustive_winner(model, source, max_len):
    src = np.asarray(source)[None, :]
    core, start = model.start(model.store.as_tensors(), src, np.array([src.shape[1]]))
    non_eos = [t for t in range(len(model.tgt_vocab)) if t != EOS_ID]
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


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_attention_normalization(text_toy):
    """Every attention row of every decode sums to 1 +- 1e-9; padded
    positions carry exactly zero mass."""
    assert len(ATTENTION_LOG) > 1000
    rows = 0
    for matrix in ATTENTION_LOG:
        if matrix.shape[0] == 0:
            continue
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
        rows += matrix.shape[0]

    # masked positions: teacher-forced batch with uneven source lengths
    model = text_toy["model"]
    sources = [text_toy["sources"][0], text_toy["sources"][1][:3]]
    targets = [text_toy["targets"][0], text_toy["targets"][1][:3]]
    batch = make_batch(sources, targets)
    core, state = model.start(model.store.as_tensors(), batch.src, batch.src_lengths)
    _, _, attn = core.advance(state, batch.dec_in.T)
    short = int(np.argmin(batch.src_lengths))
    limit = int(batch.src_lengths[short])
    masked_rows = 0
    for weights in attn:
        np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-9)
        assert (weights.data[short, limit:] == 0.0).all()
        masked_rows += 1
    print(f"\ncriterion 5 PASS: {rows} decode rows normalized, "
          f"{masked_rows} masked rows carry zero padded mass")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_pyramidal_length_law():
    """Output length is ceil(ceil(A/2)/2) for A in [4, 200]."""
    for a in range(4, 201):
        expected = pyramid_length_oracle(a)
        assert subsampled_length(a) == expected
        if a % 4 == 0:
            assert expected == a // 4
    # spot-check the real encoder at a few lengths
    from s2t import autodiff as ad
    from s2t.encoders import pyramidal_encode
    from test_encoders import _stack

    rng = np.random.default_rng(66)
    cfg, cells = _stack(rng, "speech", 3, 2, 3)
    for a in (4, 5, 13, 16, 29, 64, 200):
        inputs = ad.stack([Tensor(rng.normal(size=(1, 3))) for _ in range(a)])
        outputs, _, _ = pyramidal_encode(cfg, cells, inputs)
        assert len(outputs) == pyramid_length_oracle(a)
    print("\ncriterion 6 PASS: length law holds on [4, 200] and on the encoder")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_frame_count_consistency():
    """2.8 s at 16 kHz with 40 ms / 10 ms framing gives 277 frames, within
    2% of the reported 281 frames per 2.8 s utterance."""
    from s2t.audio import AudioBuffer, frame_and_window

    buf = AudioBuffer(np.zeros(int(2.8 * 16000)), 16000)
    count = len(frame_and_window(buf).windowed)
    assert count == 277
    assert abs(count - 281) / 281 < 0.02
    print(f"\ncriterion 7 PASS: 277 frames, {100 * abs(count - 281) / 281:.2f}% "
          "from the reported average")


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_trigram_normalization():
    """Sum over the vocabulary equals 1 +- 1e-9 for every observed context
    of a 50-sentence corpus."""
    rng = np.random.default_rng(88)
    words = [f"w{i}" for i in range(15)]
    corpus = [[words[i] for i in rng.integers(0, 15, rng.integers(1, 10))]
              for _ in range(50)]
    model = train_trigram(corpus)
    contexts = observed_contexts(model)
    assert len(contexts) >= 50
    worst = 0.0
    for u, v in contexts:
        worst = max(worst, abs(model.context_distribution(u, v).sum() - 1.0))
    assert worst < 1e-9
    print(f"\ncriterion 8 PASS: {len(contexts)} contexts, worst |sum-1| {worst:.2e}")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_bleu_correctness():
    """Identity scores 100.00; ten hand cases match the independent
    n-gram-count oracle to 0.01."""
    hyps = [["a", "b", "c"], ["d", "e"]]
    assert bleu_score(hyps, [[h] for h in hyps]) == pytest.approx(100.0, abs=1e-9)
    assert len(HAND_CASES) == 10
    for (case_hyps, case_refs), frozen in HAND_CASES:
        assert bleu_oracle(case_hyps, case_refs) == pytest.approx(frozen, abs=1e-9)
        assert bleu_score(case_hyps, case_refs) == pytest.approx(frozen, abs=0.01)
    print("\ncriterion 9 PASS: identity = 100.00 and 10 hand cases match the oracle")


# --------------------------------------------------------------- criterion 10


def test_criterion_10_checkpoint_round_trip_and_resume(tmp_path):
    """save-load-save is byte identical; a resumed run reproduces the
    uninterrupted loss trajectory bit-exactly for 100 steps."""
    rng = np.random.default_rng(10)
    sources = [list(map(int, rng.integers(4, 10, rng.integers(2, 6)))) for _ in range(16)]
    corpus = ParallelCorpus(sources, [list(reversed(s)) for s in sources])

    def fresh(steps):
        return build_tiny_model(m=8, n=8, src_words=6, tgt_words=6, seed=5,
                                dropout=0.5, batch_size=4, steps=steps, save_every=50)

    def drive(model, directory):
        lines = []
        train_loop(model, corpus, None, str(directory), lines.append)
        return lines

    full_lines = drive(fresh(100), tmp_path / "full")
    part_lines = drive(fresh(50), tmp_path / "part")

    # byte-identical round trip through a second save
    first = tmp_path / "part" / "ckpt-50.ckpt"
    second = tmp_path / "copy.ckpt"
    save_checkpoint(second, load_checkpoint(first))
    assert first.read_bytes() == second.read_bytes()

    resumed = load_checkpoint(first)
    resumed.config.steps = 100
    resumed_lines = drive(resumed, tmp_path / "resumed")
    assert part_lines == full_lines[:50]
    assert resumed_lines == full_lines[50:]
    print("\ncriterion 10 PASS: byte-identical checkpoints, bit-exact 100-step resume")


# --------------------------------------------------------------- criterion 11


def test_criterion_11_monotone_alignment(tmp_path):
    """Overfit copy-task model: per-row attention argmax non-decreasing for
    >= 95% of sentences."""
    rng = np.random.default_rng(21)
    sources = [list(map(int, rng.integers(4, 20, rng.integers(4, 9)))) for _ in range(300)]
    corpus = ParallelCorpus(sources, [list(s) for s in sources])
    model = build_tiny_model(m=32, n=32, src_words=16, tgt_words=16, seed=2,
                             batch_size=32, learning_rate=0.001, dropout=0.0)

    def evaluate():
        return sum(greedy_decode(model, s).tokens == t
                   for s, t in zip(corpus.sources, corpus.targets)) / len(corpus.sources)

    steps, elapsed, exact = _train_toy(model, corpus, max_steps=3000, eval_every=300,
                                       evaluate=evaluate, target=lambda e: e >= 0.98)
    assert exact >= 0.9  # the model must actually be overfit

    monotone = 0
    for source in sources:
        matrix = greedy_decode(model, source).attention
        peaks = matrix.argmax(axis=1)
        monotone += bool((np.diff(peaks) >= 0).all())
    fraction = monotone / len(sources)
    assert fraction >= 0.95
    print(f"\ncriterion 11 PASS: {100 * fraction:.1f}% monotone alignments "
          f"(exact match {100 * exact:.1f}%, {steps} steps, {elapsed:.0f}s)")
