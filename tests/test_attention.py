import numpy as np
import pytest

from s2t import autodiff as ad
from s2t.autodiff import Tensor, gradient_check
from s2t.attention import (
    AttentionParams,
    additive_scores,
    attend,
    attend_arrays,
    convolutional_scores,
    padding_bias,
    project_encoder,
)


def make_params(rng, m, conv=False, k=3):
    return AttentionParams(
        enc_w=Tensor(rng.normal(size=(m, m))),
        state_w=Tensor(rng.normal(size=(m, 2 * m))),
        bias=Tensor(rng.normal(size=m)),
        score_v=Tensor(rng.normal(size=m)),
        conv_gate=Tensor(rng.normal(size=m)) if conv else None,
        conv_filter=Tensor(rng.normal(size=k)) if conv else None,
    )


def block(rng, positions, batch, m):
    return Tensor(rng.normal(size=(positions, batch, m)))


def test_zero_projection_vector_gives_zero_scores():
    rng = np.random.default_rng(40)
    params = make_params(rng, 3)
    params = AttentionParams(params.enc_w, params.state_w, params.bias, Tensor(np.zeros(3)))
    scores = additive_scores(params, project_encoder(params, block(rng, 4, 2, 3)),
                             Tensor(rng.normal(size=(2, 6))))
    np.testing.assert_array_equal(scores.data, np.zeros((2, 4)))


def test_identical_positions_get_equal_scores():
    rng = np.random.default_rng(41)
    params = make_params(rng, 3)
    one = rng.normal(size=(1, 3))
    h = Tensor(np.repeat(one[None, :, :], 5, axis=0))
    scores = additive_scores(params, project_encoder(params, h), Tensor(rng.normal(size=(1, 6))))
    np.testing.assert_allclose(scores.data, scores.data[0, 0], atol=1e-12)


def test_additive_scores_match_scalar_evaluation():
    rng = np.random.default_rng(42)
    m, positions = 2, 3
    params = make_params(rng, m)
    h = rng.normal(size=(positions, 1, m))
    s = rng.normal(size=(1, 2 * m))
    expected = []
    for i in range(positions):
        inner = params.enc_w.data @ h[i, 0] + params.state_w.data @ s[0] + params.bias.data
        expected.append(float(params.score_v.data @ np.tanh(inner)))
    scores = additive_scores(params, project_encoder(params, Tensor(h)), Tensor(s))
    np.testing.assert_allclose(scores.data[0], expected, atol=1e-12)


def test_conv_scores_with_zero_filter_equal_additive_bitwise():
    rng = np.random.default_rng(43)
    m = 3
    params = make_params(rng, m, conv=True)
    zero_filter = AttentionParams(params.enc_w, params.state_w, params.bias, params.score_v,
                                  params.conv_gate, Tensor(np.zeros(3)))
    h = block(rng, 4, 2, m)
    s = Tensor(rng.normal(size=(2, 2 * m)))
    prev = Tensor(rng.dirichlet(np.ones(4), size=2))
    enc_proj = project_encoder(zero_filter, h)
    add = additive_scores(zero_filter, enc_proj, s)
    conv = convolutional_scores(zero_filter, enc_proj, s, prev)
    assert add.data.tobytes() == conv.data.tobytes()


def test_conv_scores_first_step_equal_additive_bitwise():
    rng = np.random.default_rng(44)
    params = make_params(rng, 3, conv=True)
    h = block(rng, 4, 2, 3)
    s = Tensor(rng.normal(size=(2, 6)))
    enc_proj = project_encoder(params, h)
    add = additive_scores(params, enc_proj, s)
    conv = convolutional_scores(params, enc_proj, s, None)
    assert add.data.tobytes() == conv.data.tobytes()


def test_delta_filter_with_one_hot_history_shifts_only_that_position():
    rng = np.random.default_rng(45)
    params = make_params(rng, 3, conv=True)
    delta = AttentionParams(params.enc_w, params.state_w, params.bias, params.score_v,
                            params.conv_gate, Tensor(np.array([0.0, 1.0, 0.0])))
    h = block(rng, 5, 1, 3)
    s = Tensor(rng.normal(size=(1, 6)))
    one_hot = np.zeros((1, 5))
    one_hot[0, 2] = 1.0
    enc_proj = project_encoder(delta, h)
    add = additive_scores(delta, enc_proj, s).data[0]
    conv = convolutional_scores(delta, enc_proj, s, Tensor(one_hot)).data[0]
    differs = np.abs(add - conv) > 1e-15
    assert differs[2] and not differs[[0, 1, 3, 4]].any()


def test_conv_feature_matches_direct_convolution():
    # f = F * a_{t-1} with F=[0.25,0.5,0.25], a=[1,0,0,0] -> [0.5,0.25,0,0]
    filt = np.array([0.25, 0.5, 0.25])
    prev = np.array([[1.0, 0.0, 0.0, 0.0]])
    out = ad.conv1d(Tensor(prev), Tensor(filt))
    np.testing.assert_allclose(out.data[0], [0.5, 0.25, 0.0, 0.0], atol=1e-15)


def test_attend_single_unmasked_position():
    rng = np.random.default_rng(46)
    h = block(rng, 4, 1, 3)
    scores = Tensor(rng.normal(size=(1, 4)))
    mask = np.zeros((1, 4), dtype=bool)
    mask[0, 2] = True
    weights, context = attend(scores + ad.transpose(padding_bias(mask)), h)
    np.testing.assert_array_equal(weights.data[0], [0.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(context.data[0], h.data[2, 0], atol=1e-12)


def test_attend_uniform_scores_average_positions():
    rng = np.random.default_rng(47)
    h = block(rng, 5, 2, 3)
    weights, context = attend(Tensor(np.zeros((2, 5))), h)
    np.testing.assert_allclose(weights.data, 0.2, atol=1e-12)
    np.testing.assert_allclose(context.data, h.data.mean(axis=0), atol=1e-12)


def test_attend_shift_invariance():
    rng = np.random.default_rng(48)
    h = block(rng, 4, 1, 2)
    scores = rng.normal(size=(1, 4))
    w1, _ = attend(Tensor(scores), h)
    w2, _ = attend(Tensor(scores + 7.0), h)
    np.testing.assert_allclose(w1.data, w2.data, atol=1e-12)


def test_attend_rejects_fully_masked_row():
    with pytest.raises(ValueError, match="masked"):
        padding_bias(np.zeros((1, 3), dtype=bool))


def test_padding_bias_is_zero_when_nothing_is_padded():
    bias = padding_bias(np.ones((3, 5), dtype=bool))
    assert bias.shape == (5, 3)
    assert bias.data.tobytes() == np.zeros((5, 3)).tobytes()  # +0.0 everywhere: scores stay bit-equal


def test_attention_weights_normalized_and_zero_on_masked():
    rng = np.random.default_rng(50)
    for _ in range(20):
        positions = int(rng.integers(2, 8))
        batch = int(rng.integers(1, 4))
        h = block(rng, positions, batch, 3)
        scores = Tensor(rng.normal(size=(batch, positions)) * 5)
        mask = rng.random((batch, positions)) > 0.3
        mask[:, 0] = True
        weights, _ = attend(scores + ad.transpose(padding_bias(mask)), h)
        np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-9)
        assert (weights.data[~mask] == 0.0).all()


def test_context_in_convex_hull_for_scalar_outputs():
    rng = np.random.default_rng(51)
    for _ in range(20):
        h = block(rng, 6, 1, 1)
        scores = Tensor(rng.normal(size=(1, 6)) * 3)
        _, context = attend(scores, h)
        assert h.data.min() - 1e-12 <= context.data[0, 0] <= h.data.max() + 1e-12


def test_attention_gradients_match_finite_differences():
    rng = np.random.default_rng(52)
    worst = 0.0
    for _ in range(10):
        m, positions = 2, 4
        h0 = rng.normal(size=(positions, 1, m))
        s0 = rng.normal(size=(1, 2 * m))
        prev0 = rng.dirichlet(np.ones(positions), size=1)
        base = make_params(rng, m, conv=True)
        weight_vec = rng.normal(size=m)

        def f(p):
            params = AttentionParams(p["enc_w"], p["state_w"], p["bias"], p["score_v"],
                                     p["conv_gate"], p["conv_filter"])
            scores = convolutional_scores(params, project_encoder(params, p["h"]), p["s"], Tensor(prev0))
            _, context = attend(scores, p["h"])
            return ad.tsum(context * Tensor(weight_vec[None, :]))

        point = {
            "enc_w": base.enc_w, "state_w": base.state_w, "bias": base.bias,
            "score_v": base.score_v, "conv_gate": base.conv_gate,
            "conv_filter": base.conv_filter, "h": Tensor(h0), "s": Tensor(s0),
        }
        worst = max(worst, gradient_check(f, point, epsilon=1e-5))
    assert worst < 1e-6


@pytest.mark.parametrize("first", [False, True], ids=["later-step", "first-step"])
@pytest.mark.parametrize("conv, k", [(False, 3), (True, 1), (True, 3), (True, 5)],
                         ids=["additive", "conv-1", "conv-3", "conv-5"])
@pytest.mark.parametrize("positions, batch, ragged", [(1, 1, False), (1, 3, False), (5, 1, False),
                                                      (5, 3, True), (6, 4, True)])
def test_array_attention_is_bit_equal_to_the_chain(positions, batch, ragged, conv, k, first):
    """attend_arrays returns the bytes of the scores-then-attend chain's
    weights and context: additive and conv (filter lengths 1, 3, 5, with and
    without previous weights), A = 1, B = 1 and ragged padding."""
    rng = np.random.default_rng(53 + 11 * positions + batch + k)
    m = 3
    params = make_params(rng, m, conv, k)
    h = block(rng, positions, batch, m)
    lengths = rng.integers(1, positions + 1, size=batch) if ragged else np.full(batch, positions)
    pad = padding_bias(np.arange(positions)[None, :] < lengths[:, None])
    enc_proj = project_encoder(params, h)
    state = Tensor(rng.normal(size=(batch, 2 * m)))
    prev = None if first or not conv else attend(Tensor(rng.normal(size=(batch, positions))), h)[0]
    if conv:
        scores = convolutional_scores(params, enc_proj, state, prev, pad)
    else:
        scores = additive_scores(params, enc_proj, state, pad)
    weights, context = attend(scores, h)
    tail = () if prev is None else (prev.data, params.conv_filter.data, params.conv_gate.data)
    fast = attend_arrays(enc_proj.data, h.data, state.data, params.state_w.data, params.bias.data,
                         params.score_v.data, pad.data, *tail)
    assert [x.tobytes() for x in fast] == [weights.data.tobytes(), context.data.tobytes()]
    assert [x.shape for x in fast] == [(batch, positions), (batch, m)]


def test_array_attention_rejects_what_does_not_fit_the_encoder_block():
    """A state projection, previous weights or gate that does not fit the
    encoder block, a state that does not fit ``state_w`` and an even filter
    raise ShapeMismatch, as the chain's primitives do."""
    rng = np.random.default_rng(54)
    m, positions, batch = 3, 4, 2
    params = make_params(rng, m, conv=True)
    enc_proj, h = block(rng, positions, batch, m).data, block(rng, positions, batch, m).data
    state, pad, prev = rng.normal(size=(batch, 2 * m)), np.zeros((positions, batch)), np.full((batch, positions), 0.25)
    good = dict(state=state, state_w=params.state_w.data, bias=params.bias.data, prev=prev,
                conv_filter=params.conv_filter.data, conv_gate=params.conv_gate.data)
    for change in [dict(state_w=rng.normal(size=(m + 1, 2 * m)), bias=np.zeros(m + 1)),
                   dict(state=rng.normal(size=(batch, 2 * m + 1))), dict(state=rng.normal(size=(batch + 1, 2 * m))),
                   dict(prev=np.full((batch, positions + 1), 0.2)), dict(conv_gate=np.ones(m + 1)),
                   dict(conv_filter=np.ones(4))]:
        args = {**good, **change}
        with pytest.raises(ad.ShapeMismatch):
            attend_arrays(enc_proj, h, args["state"], args["state_w"], args["bias"], params.score_v.data, pad,
                          args["prev"], args["conv_filter"], args["conv_gate"])
