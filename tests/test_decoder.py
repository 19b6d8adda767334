import contextlib
from dataclasses import replace

import numpy as np
import pytest

from s2t import autodiff as ad
from s2t.autodiff import ShapeMismatch, Tensor, gradient_check
from s2t.attention import MASKED_SCORE
from s2t.corpus import BOS_ID, EOS_ID, PAD_ID, Batch, make_batch
from s2t.model import DecoderCore, DivergenceError

from oracles import sequence_nll, text_forward_oracle
from util import build_tiny_model, count_primitive_calls, random_speech_source, random_text_source, randomize


def zeroed(model):
    for name in model.store.names():
        model.store.set_value(name, np.zeros_like(model.store.value(name)))
    return model


def start_decoder(model, src, lengths=None):
    src = np.asarray(src)
    if src.ndim == 1:
        src = src[None, :]
    elif model.config.task == "speech" and src.ndim == 2:
        src = src[None, :, :]
    lengths = np.array([src.shape[1]] * src.shape[0]) if lengths is None else lengths
    return model.start(model.store.as_tensors(), src, lengths)


# --- decoder state initialization ---


def test_init_state_zero_weight_matrix():
    model = build_tiny_model(m=3)
    zeroed(model)
    _, state = start_decoder(model, [4, 5])
    for c, h in state.layers:
        np.testing.assert_array_equal(c.data, 0.0)
        np.testing.assert_array_equal(h.data, 0.0)
    assert state.attn_weights is None


def test_init_state_identity_on_zero_final_state():
    model = build_tiny_model(m=2)
    model.store.set_value("dec.init_w", np.eye(4))
    tensors = model.store.as_tensors()
    core = DecoderCore(model, tensors, Tensor(np.zeros((2, 1, 2))), np.ones((1, 2), dtype=bool))
    state = core.init_state(Tensor(np.zeros((1, 4))))
    np.testing.assert_array_equal(state.layers[-1][0].data, 0.0)
    np.testing.assert_array_equal(state.layers[-1][1].data, 0.0)


def test_init_state_matches_scalar_tanh():
    model = build_tiny_model(m=2)
    w = model.store.value("dec.init_w")
    final = np.array([[0.3, -0.8, 1.4, 0.1]])
    tensors = model.store.as_tensors()
    core = DecoderCore(model, tensors, Tensor(np.zeros((2, 1, 2))), np.ones((1, 2), dtype=bool))
    state = core.init_state(Tensor(final))
    expected = np.tanh(w @ final[0])
    np.testing.assert_allclose(state.layers[-1][0].data[0], expected[:2], atol=1e-12)
    np.testing.assert_allclose(state.layers[-1][1].data[0], expected[2:], atol=1e-12)
    # lower layer starts at zero
    np.testing.assert_array_equal(state.layers[0][0].data, 0.0)


# --- decoder step ---


def test_step_distribution_is_normalized_and_positive():
    model = build_tiny_model(m=3, tgt_words=5)
    core, state = start_decoder(model, [4, 5, 4])
    state, dist, weights = core.step(state, np.array([BOS_ID]))
    assert dist.data.shape == (1, 9)
    assert (dist.data > 0).all()
    assert abs(dist.data.sum() - 1.0) < 1e-9
    assert abs(weights.data.sum() - 1.0) < 1e-9


def test_step_all_zero_parameters_give_uniform_distribution():
    model = zeroed(build_tiny_model(m=3, tgt_words=4))
    core, state = start_decoder(model, [4, 5])
    state, dist, _ = core.step(state, np.array([BOS_ID]))
    np.testing.assert_allclose(dist.data, 1.0 / 8, atol=1e-12)


def test_step_rejects_out_of_range_token():
    model = build_tiny_model()
    core, state = start_decoder(model, [4, 5])
    with pytest.raises(ShapeMismatch, match="token id"):
        core.step(state, np.array([len(model.tgt_vocab)]))


def test_tiny_instance_matches_end_to_end_scalar_oracle():
    model = build_tiny_model(m=2, n=2, src_words=3, tgt_words=1, seed=9)
    assert len(model.tgt_vocab) == 5
    src = [4, 5, 6]
    dec_in = [BOS_ID, 4, 2]
    values = {name: model.store.value(name) for name in model.store.names()}
    expected = text_forward_oracle(values, 2, src, dec_in)

    core, state = start_decoder(model, src)
    for step, prev in enumerate(dec_in):
        state, dist, _ = core.step(state, np.array([prev]))
        np.testing.assert_allclose(dist.data[0], expected[step], atol=1e-10)


def test_step_deterministic_without_dropout():
    model = build_tiny_model(m=3)
    outs = []
    for _ in range(2):
        core, state = start_decoder(model, [4, 5, 6])
        _, dist, _ = core.step(state, np.array([BOS_ID]))
        outs.append(dist.data.tobytes())
    assert outs[0] == outs[1]


def test_teacher_forcing_matches_free_running_on_same_prefix():
    model = build_tiny_model(m=4, seed=3)
    core, start = start_decoder(model, [4, 6, 5])
    # free-running greedy picks
    state = start
    prev = BOS_ID
    picks, free_dists = [], []
    for _ in range(4):
        state, dist, _ = core.step(state, np.array([prev]))
        prev = int(np.argmax(dist.data[0]))
        picks.append(prev)
        free_dists.append(dist.data.copy())
    # teacher forcing with the same prefix reproduces the distributions
    state = start
    for step, token in enumerate([BOS_ID] + picks[:-1]):
        state, dist, _ = core.step(state, np.array([token]))
        assert dist.data.tobytes() == free_dists[step].tobytes()


# --- sequence negative log likelihood ---


def test_uniform_model_loss_is_log_vocab_size():
    model = zeroed(build_tiny_model(tgt_words=6))
    loss = sequence_nll(model, [4, 5], [6, 7, 8])
    assert loss == pytest.approx(np.log(10), abs=1e-12)


def test_loss_invariant_to_target_padding():
    model = build_tiny_model(seed=5)
    batch = make_batch([[4, 5, 6]], [[7, 8]])
    loss_a = model.batch_nll(model.store.as_tensors(), batch).item()
    width = batch.dec_in.shape[1] + 3
    padded = Batch(
        src=batch.src,
        src_lengths=batch.src_lengths,
        dec_in=np.hstack([batch.dec_in, np.full((1, 3), PAD_ID)]),
        dec_out=np.hstack([batch.dec_out, np.full((1, 3), PAD_ID)]),
        tgt_mask=np.hstack([batch.tgt_mask, np.zeros((1, 3))]),
    )
    assert padded.dec_in.shape[1] == width
    loss_b = model.batch_nll(model.store.as_tensors(), padded).item()
    assert loss_a == loss_b


def test_padded_target_rows_cannot_make_the_loss_nan():
    """With PAD's logit 1000 below the rest its probability underflows to 0
    on the padded target rows of a ragged batch.  Those rows are never
    scored, so the loss stays finite, equals the token-weighted mean of the
    pairs' own losses, and a train step runs."""
    model = randomize(build_tiny_model(m=4, n=4, src_words=8, tgt_words=8, seed=3), seed=13)
    bias = model.store.value("dec.vocab_b").copy()
    bias[PAD_ID] = -1000.0
    model.store.set_value("dec.vocab_b", bias)
    sources, targets = [[4, 5, 6], [7, 5]], [[4, 5, 6, 7], [6]]
    batch = make_batch(sources, targets)
    loss = model.batch_nll(model.store.as_tensors(), batch).item()
    singles = [sequence_nll(model, s, t) for s, t in zip(sources, targets)]
    assert np.isfinite(loss)
    assert loss == pytest.approx((5 * singles[0] + 2 * singles[1]) / 7, rel=1e-12)
    assert model.train_step(batch, 0) == loss


def test_loss_matches_scalar_oracle():
    model = build_tiny_model(m=2, n=2, src_words=3, tgt_words=1, seed=11)
    src, tgt = [4, 5], [4, 4]
    values = {name: model.store.value(name) for name in model.store.names()}
    dists = text_forward_oracle(values, 2, src, [BOS_ID] + tgt)
    expected = -(np.log(dists[0][tgt[0]]) + np.log(dists[1][tgt[1]]) + np.log(dists[2][EOS_ID])) / 3
    assert sequence_nll(model, src, tgt) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("task", ["text", "speech"])
@pytest.mark.parametrize("attention", ["additive", "conv"])
def test_batched_output_layer_matches_per_step(task, attention):
    """batch_nll's one output layer over all target steps equals core.step
    then pick at each step, on ragged sources and targets."""
    rng = np.random.default_rng(21)
    model = randomize(build_tiny_model(task=task, m=5, n=4, src_words=9, tgt_words=9, seed=6,
                                       attention=attention, conv_filter_size=3), seed=12)
    sources = ([random_text_source(rng, 9, 2, 7) for _ in range(4)] if task == "text"
               else [random_speech_source(rng, min_len=4, max_len=14) for _ in range(4)])
    targets = [[int(i) for i in rng.integers(4, 9, n)] for n in (1, 4, 2, 6)]
    batch = make_batch(sources, targets)
    tensors = model.store.as_tensors()
    got = model.batch_nll(tensors, batch).item()

    core, state = model.start(tensors, batch.src, batch.src_lengths)
    total = 0.0
    for t in range(batch.dec_in.shape[1]):
        state, dist, _ = core.step(state, batch.dec_in[:, t])
        picked = ad.pick(dist, batch.dec_out[:, t]).data
        total += float((np.log(picked) * batch.tgt_mask[:, t]).sum())
    assert got == pytest.approx(-total / batch.real_token_count, rel=1e-12, abs=0)


@pytest.mark.parametrize("attention", ["additive", "conv"])
def test_advance_over_a_block_equals_step_by_step(attention):
    """One advance over T = 3 previous ids gives the layer states, merge
    rows and attention rows of three one-position advances, and step's
    distributions, on a ragged batch."""
    rng = np.random.default_rng(48)
    model = randomize(build_tiny_model(m=5, n=4, src_words=9, tgt_words=9, seed=7,
                                       attention=attention, conv_filter_size=3), seed=49)
    batch = make_batch([random_text_source(rng, 9, 2, 7) for _ in range(3)], [[4], [5], [6]])
    tensors = model.store.as_tensors()
    core, start = model.start(tensors, batch.src, batch.src_lengths)
    prev = rng.integers(0, len(model.tgt_vocab), size=(3, 3))  # [T, B]
    block, merged, rows = core.advance(start, prev)

    def close(got, want):
        np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=0)

    state = stepped = start
    for t in range(3):
        state, merged_t, [weights] = core.advance(state, prev[t:t + 1])
        stepped, dist, step_weights = core.step(stepped, prev[t])
        close(merged[t], merged_t[0])
        close(rows[t], weights)
        close(step_weights, weights)
        close(core.output(merged[t]), dist)
    for (c, h), (c_t, h_t) in zip(block.layers, state.layers):
        close(c, c_t)
        close(h, h_t)
    close(block.attn_weights, state.attn_weights)


@pytest.mark.parametrize("task, src_lens, limit", [
    pytest.param("text", (5,), 388, id="text"),
    pytest.param("speech", (6,), 426, id="speech"),
    pytest.param("speech", (9, 7, 8), 593, id="speech-ragged"),
])
def test_tiny_loss_tape_size(task, src_lens, limit):
    """Criterion 1's tiny models (same sizes, seed and batch) record one
    taped loss within budget: the per-primitive cost dominates there.  The
    ragged batch restarts the backward direction of every encoder layer
    at each shorter row's end and gathers the final state once."""
    rng = np.random.default_rng(100)
    model = build_tiny_model(task=task, m=8, n=8, src_words=16, tgt_words=16,
                             seed=100, prenet_size=8, conv_filter_size=5)
    sources = [[int(rng.integers(4, 20)) for _ in range(n)] if task == "text"
               else rng.normal(size=(n, 41)) * 0.5 for n in src_lens]
    tape = ad.Tape()
    with tape:
        model.batch_nll(model.store.watch(tape), make_batch(sources, [[4, 5]] * len(sources)))
    assert len(tape.entries) <= limit


@pytest.mark.parametrize("attention", ["additive", "conv"])
@pytest.mark.parametrize("task", ["text", "speech"])
def test_loss_forward_never_transposes_weights(task, attention):
    """Weights enter their products as the store holds them, [out, in]: no
    taped ``transpose`` reads a value computed from parameters alone (a
    parameter, a concat of weights, a reshaped bias).  Activations are
    still transposed."""
    rng = np.random.default_rng(46)
    model = randomize(build_tiny_model(task=task, m=4, n=3, src_words=7, tgt_words=7,
                                       attention=attention), seed=47)
    sources = ([random_text_source(rng, 7) for _ in range(3)] if task == "text"
               else [random_speech_source(rng) for _ in range(3)])
    tape = ad.Tape()
    with tape:
        params = model.store.watch(tape)
        model.batch_nll(params, make_batch(sources, [[4, 5, 6], [5], [6, 4]]))
    from_params = {tape.node_of(tensor) for tensor in params.values()}
    for entry in tape.entries:
        if from_params.issuperset(entry.inputs):
            from_params.add(entry.output)
    transposes = [entry for entry in tape.entries if entry.kind == "transpose"]
    assert transposes
    assert not [entry for entry in transposes if entry.inputs[0] in from_params]


@pytest.mark.parametrize("attention", ["additive", "conv"])
@pytest.mark.parametrize("task", ["text", "speech"])
def test_loss_forward_adds_no_bias_outside_matmul(task, attention):
    """Every bias enters its affine map inside the ``matmul`` entry: no taped
    ``add`` reads a parameter."""
    rng = np.random.default_rng(48)
    model = randomize(build_tiny_model(task=task, m=4, n=3, src_words=7, tgt_words=7,
                                       attention=attention), seed=49)
    sources = ([random_text_source(rng, 7) for _ in range(3)] if task == "text"
               else [random_speech_source(rng) for _ in range(3)])
    tape = ad.Tape()
    with tape:
        params = model.store.watch(tape)
        model.batch_nll(params, make_batch(sources, [[4, 5, 6], [5], [6, 4]]))
    param_nodes = {tape.node_of(tensor) for tensor in params.values()}
    adds = [entry for entry in tape.entries if entry.kind == "add"]
    assert adds
    assert not [entry for entry in adds if param_nodes.intersection(entry.inputs)]
    biased = [entry for entry in tape.entries if entry.kind == "matmul" and len(entry.inputs) == 3]
    assert biased


@pytest.mark.parametrize("attention", ["additive", "conv"])
@pytest.mark.parametrize("task", ["text", "speech"])
def test_padding_enters_each_score_product_as_its_bias(task, attention):
    """On a padded batch the pass's one padding bias is the third input of
    every ``matmul`` with ``score_v``, and no ``add`` reads a score product
    or its transpose."""
    rng = np.random.default_rng(50)
    model = randomize(build_tiny_model(task=task, m=4, n=3, src_words=9, tgt_words=7,
                                       attention=attention, conv_filter_size=3), seed=51)
    sources = ([random_text_source(rng, 9, n, n) for n in (7, 3, 5)] if task == "text"
               else [random_speech_source(rng, min_len=n, max_len=n) for n in (13, 6, 9)])
    batch = make_batch(sources, [[4, 5, 6], [5], [6, 4]])
    tape = ad.Tape()
    with tape:
        params = model.store.watch(tape)
        core, state = model.start(params, batch.src, batch.src_lengths)
        core.advance(state, batch.dec_in.T)
    assert not core.enc_mask.all()
    score_v = tape.node_of(params["attn.score_v"])
    products = [entry for entry in tape.entries if entry.kind == "matmul" and entry.inputs[1] == score_v]
    assert len(products) == batch.dec_in.shape[1]
    assert all(len(entry.inputs) == 3 for entry in products)
    assert len({entry.inputs[2] for entry in products}) == 1  # one bias per pass
    assert products[0].inputs[2] == tape.node_of(core.pad)  # read by shape only: not kept
    np.testing.assert_array_equal(core.pad.data, np.where(core.enc_mask.T, 0.0, MASKED_SCORE))
    scores = {entry.output for entry in products}
    scores |= {entry.output for entry in tape.entries
               if entry.kind == "transpose" and entry.inputs[0] in scores}
    assert not [entry for entry in tape.entries if entry.kind == "add" and scores.intersection(entry.inputs)]


@pytest.mark.parametrize("task", ["text", "speech"])
def test_padded_source_positions_are_never_read(task):
    """Large random values in the padded source positions of a ragged batch
    leave every real encoder output and the final state bit-identical, and
    the loss and every gradient too, in eval mode and with dropout."""
    rng = np.random.default_rng(43)
    model = randomize(build_tiny_model(task=task, m=6, n=5, src_words=12, tgt_words=8, dropout=0.3),
                      seed=44, scale=0.7)
    sources = ([random_text_source(rng, 12, n, n) for n in (7, 3, 5)] if task == "text"
               else [random_speech_source(rng, min_len=n, max_len=n) for n in (13, 6, 9)])
    batch = make_batch(sources, [[4, 5, 6], [7], [5, 4]])
    padded = np.arange(batch.src.shape[1])[None, :] >= batch.src_lengths[:, None]
    noisy = batch.src.copy()
    noisy[padded] = (rng.integers(0, 12, size=padded.sum()) if task == "text"
                     else rng.normal(size=(padded.sum(), 41)) * 1e3)

    def run(src, train):
        h, enc_mask, final = model.encode(model.store.as_tensors(), src, batch.src_lengths)
        real = [h.data[:n, b] for b, n in enumerate(enc_mask.sum(axis=1))]
        tape = ad.Tape()
        with tape:
            loss = model.batch_nll(model.store.watch(tape), replace(batch, src=src),
                                   np.random.default_rng(45) if train else None)
        grads = ad.backprop(tape, loss)
        return [a.tobytes() for a in real + [final.data, loss.data] + [grads[k].data for k in sorted(grads)]]

    for train in (False, True):
        assert run(noisy, train) == run(batch.src, train)


def test_empty_target_rejected():
    model = build_tiny_model()
    with pytest.raises(ValueError, match="empty target"):
        sequence_nll(model, [4], [])


# --- training ---


def test_overfit_single_pair():
    model = build_tiny_model(m=16, n=8, src_words=6, tgt_words=6, seed=2,
                             learning_rate=0.01, dropout=0.0)
    batch = make_batch([[4, 5, 6, 7]], [[7, 6, 5, 4]])
    losses = [model.train_step(batch, step) for step in range(1, 101)]
    decreasing = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
    assert decreasing >= 95
    assert losses[-1] < 0.1


def test_zero_learning_rate_keeps_parameters():
    model = build_tiny_model(learning_rate=0.0)
    before = {n: model.store.value(n).copy() for n in model.store.names()}
    batch = make_batch([[4, 5]], [[5]])
    model.train_step(batch, 1)
    for name, value in before.items():
        np.testing.assert_array_equal(model.store.value(name), value)


def test_train_step_frees_tape_before_adam(monkeypatch):
    """backprop, drop the tape, then Adam: no tape is alive while
    ``adam_update`` runs, so its activations are freed before Adam builds
    the new parameter arrays."""
    import weakref

    from s2t import model as model_module

    tapes, alive = [], []
    backprop, adam_update = model_module.backprop, model_module.adam_update

    def tracking_backprop(tape, loss):
        tapes.append(weakref.ref(tape))
        return backprop(tape, loss)

    def checking_adam_update(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in tapes))
        return adam_update(*args, **kwargs)

    monkeypatch.setattr(model_module, "backprop", tracking_backprop)
    monkeypatch.setattr(model_module, "adam_update", checking_adam_update)
    model = build_tiny_model(dropout=0.3)
    for step in (1, 2):
        model.train_step(make_batch([[4, 5, 6], [5]], [[5, 4], [6]]), step)
    assert len(tapes) == 2 and alive == [0, 0]


def test_divergence_raises():
    model = build_tiny_model()
    model.store.set_value("dec.vocab_b", np.full(len(model.tgt_vocab), np.nan))
    batch = make_batch([[4]], [[4]])
    with pytest.raises(DivergenceError, match="step 7"):
        model.train_step(batch, 7)


def _full_model_gradient_error(task, seed, m=3, n=3, source_len=5):
    # epsilon 1e-4: at 1e-5 the central-difference resolution floor
    # (ulp(loss)/2/eps ~ 1e-11) already exceeds 1e-3 relative to the 1e-8
    # denominator floor on near-zero-gradient coordinates
    rng = np.random.default_rng(seed)
    model = build_tiny_model(task=task, m=m, n=n, src_words=4, tgt_words=4, seed=seed)
    if task == "text":
        src = [int(rng.integers(4, 8)) for _ in range(source_len)]
    else:
        src = random_speech_source(rng, min_len=source_len, max_len=source_len)
    batch = make_batch([src], [[4, 5, 6]])
    point = {name: Tensor(model.store.value(name)) for name in model.store.names()}
    return gradient_check(lambda p: model.batch_nll(p, batch), point, epsilon=1e-4)


def test_full_text_model_gradient():
    assert _full_model_gradient_error("text", seed=13) < 1e-3


def test_full_speech_model_gradient():
    assert _full_model_gradient_error("speech", seed=14) < 1e-3


def test_batched_attention_masks_padded_positions():
    model = build_tiny_model(seed=6)
    batch = make_batch([[4, 5, 6, 7], [4, 5]], [[6, 7], [7]])
    tensors = model.store.as_tensors()
    loss = model.batch_nll(tensors, batch)
    core, state = model.start(tensors, batch.src, batch.src_lengths)
    _, _, rows = core.advance(state, batch.dec_in.T)
    assert np.isfinite(loss.item())
    for weights in rows:
        np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-9)
        assert (weights.data[1, 2:] == 0.0).all()  # short row's padded positions


def _ragged_pass(task, attention, seed, rows=3, dropout=0.0):
    """A random tiny model and a padded ragged batch of ``rows`` sources."""
    rng = np.random.default_rng(seed)
    model = randomize(build_tiny_model(task=task, m=3, n=3, src_words=7, tgt_words=7, attention=attention,
                                       dropout=dropout), seed=seed)
    sources = [random_text_source(rng, 7) if task == "text" else random_speech_source(rng) for _ in range(rows)]
    return model, make_batch(sources, [[4] * (i + 1) for i in range(rows)])


@pytest.mark.parametrize("dropout", [0.0, 0.3], ids=["no-dropout", "dropout"])
@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("attention", ["additive", "conv"])
@pytest.mark.parametrize("task", ["text", "speech"])
def test_untaped_advance_is_bit_equal_to_the_taped_chain(task, attention, steps, dropout):
    """Two advances of T steps over a ragged batch: untaped (on arrays) and
    taped (the primitive chain) give the same bytes for every merge output,
    attention row and state, with dropout masks drawn in the same order."""
    model, batch = _ragged_pass(task, attention, 55 + steps, dropout=dropout)
    ids = np.random.default_rng(56).integers(4, 11, size=(2, steps, batch.size))
    runs = []
    for tape in (None, ad.Tape()):
        rng = np.random.default_rng(57) if dropout else None
        tensors = model.store.as_tensors() if tape is None else model.store.watch(tape)
        with tape or contextlib.nullcontext():
            core, state = model.start(tensors, batch.src, batch.src_lengths, rng)
            out = []
            for block in ids:
                state, merged, rows = core.advance(state, block)
                out += [merged, *rows, state.attn_weights, *(x for pair in state.layers for x in pair)]
        runs.append([x.data.tobytes() for x in out])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
@pytest.mark.parametrize("case", ["target-high", "target-negative", "state_w-rows", "state_w-cols",
                                  "enc_w-rows", "enc_w-cols", "dec-wx", "dec-wh", "even-filter"])
def test_loss_and_step_checks_raise_shape_mismatch(case, taped):
    """A target id out of range or negative, an attention weight that does
    not fit the state or the encoder block, a decoder LSTM weight of the
    wrong shape and an even conv filter raise ShapeMismatch, untaped (the
    array path) and taped (the chain), from the loss and from a step."""
    m = 3
    model = build_tiny_model(m=m, attention="conv" if case == "even-filter" else "additive")
    tensors = model.store.as_tensors()
    targets, step_ids = [[4, 5], [6]], np.array([4, 5])
    bad = {"state_w-rows": ("attn.state_w", (m + 1, 2 * m)), "state_w-cols": ("attn.state_w", (m, 2 * m + 1)),
           "enc_w-rows": ("attn.enc_w", (m + 1, m)), "enc_w-cols": ("attn.enc_w", (m, m + 1)),
           "dec-wx": ("dec.1.wx", (4 * m, m + 1)), "dec-wh": ("dec.0.wh", (4 * m, m + 1)),
           "even-filter": ("attn.conv_filter", (4,))}
    if case in bad:
        name, shape = bad[case]
        tensors[name] = Tensor(np.full(shape, 0.1))
    else:
        wrong = len(model.tgt_vocab) if case == "target-high" else -1
        targets, step_ids = [[4, wrong], [6]], np.array([4, wrong])
    batch = make_batch([[4, 5, 6], [5, 4]], targets)
    with ad.Tape() if taped else contextlib.nullcontext():
        with pytest.raises(ShapeMismatch):
            model.batch_nll(tensors, batch)
        with pytest.raises(ShapeMismatch):
            core, state = model.start(tensors, batch.src, batch.src_lengths)
            for ids in (np.array([BOS_ID, BOS_ID]), step_ids):
                state, _, _ = core.step(state, ids)


def test_untaped_tiny_probe_and_search_step_dispatch_few_primitives(monkeypatch):
    """An untaped loss of criterion 1's tiny speech model dispatches at most
    40 primitives, none of them in a recurrence, a bidirectional sum, the
    attention or the merge; an untaped search step dispatches only the
    output layer.  Taped, the chain records them."""
    rng = np.random.default_rng(100)
    model = build_tiny_model(task="speech", m=8, n=8, src_words=16, tgt_words=16,
                             seed=100, prenet_size=8, conv_filter_size=5)
    batch = make_batch([rng.normal(size=(6, 41)) * 0.5], [[4, 5]])
    calls = count_primitive_calls(monkeypatch)
    model.batch_nll(model.store.as_tensors(), batch)
    assert len(calls) <= 40
    chain = {"sigmoid", "stack", "add", "mul", "conv1d", "transpose"}
    assert not chain.intersection(calls)
    core, state = model.start(model.store.as_tensors(), batch.src, batch.src_lengths)
    for step in range(3):
        calls.clear()
        state, _, _ = core.step(state, np.array([BOS_ID if step == 0 else 4]))
        assert calls == ["matmul", "softmax"]
    calls.clear()
    with ad.Tape():
        model.batch_nll(model.store.as_tensors(), batch)
    assert chain.issubset(calls)


@pytest.mark.parametrize("attention", ["additive", "conv"])
@pytest.mark.parametrize("task", ["text", "speech"])
def test_every_gradient_is_c_contiguous(task, attention):
    """backprop returns a C-ordered array for every parameter of a tiny
    model, also where one conv step leaves the filter a single gradient."""
    for rows in (1, 3):
        model, batch = _ragged_pass(task, attention, 58, rows)
        tape = ad.Tape()
        with tape:
            loss = model.batch_nll(model.store.watch(tape), batch)
        grads = ad.backprop(tape, loss)
        assert sorted(grads) == sorted(model.store.names())
        assert [name for name, g in grads.items() if not g.data.flags.c_contiguous] == []
