import contextlib

import numpy as np
import pytest

from s2t import autodiff as ad
from s2t.autodiff import Tensor, gradient_check
from s2t.config import RunConfig
from s2t.corpus import make_batch
from s2t.encoders import (
    LstmCellParams,
    _lstm_arrays,
    bidirectional_layer,
    final_state,
    pyramidal_encode,
    run_lstm,
    speech_prenet,
)

from oracles import lstm_step_oracle, pyramid_length_oracle, subsampled_length
from util import build_tiny_model, random_speech_source, random_text_source, randomize


def make_cell(rng, input_dim, m, scale=0.5):
    return LstmCellParams(
        wx=Tensor(rng.normal(size=(4 * m, input_dim)) * scale),
        wh=Tensor(rng.normal(size=(4 * m, m)) * scale),
        b=Tensor(rng.normal(size=4 * m) * scale),
    )


def zero_cell(input_dim, m):
    return LstmCellParams(Tensor(np.zeros((4 * m, input_dim))), Tensor(np.zeros((4 * m, m))), Tensor(np.zeros(4 * m)))


def lstm_steps(params, xs, start=None):
    """run_lstm over the [T, B, d] block ``xs``, projected as the model
    projects it; returns the last step's (c, h)."""
    projected = ad.linear(xs, params.wx, params.b)
    cells, hidden = run_lstm(projected, params.wh, range(len(xs)), start)
    return cells[-1], hidden[-1]


def test_lstm_zero_weights_halves_cell_state():
    params = zero_cell(3, 2)
    c = Tensor(np.ones((1, 2)))
    h = Tensor(np.zeros((1, 2)))
    c2, h2 = lstm_steps(params, Tensor(np.array([[[0.3, -0.5, 2.0]]])), (c, h))
    np.testing.assert_allclose(c2.data, 0.5)
    np.testing.assert_allclose(h2.data, 0.5 * np.tanh(0.5))


def test_lstm_matches_scalar_oracle_over_two_steps():
    rng = np.random.default_rng(21)
    params = make_cell(rng, 2, 2)
    xs = rng.normal(size=(2, 2))
    c = [0.0, 0.0]
    h = [0.0, 0.0]
    for step in range(2):
        c, h = lstm_step_oracle(params.wx.data.tolist(), params.wh.data.tolist(),
                                params.b.data.tolist(), xs[step].tolist(), c, h)
    ct, ht = lstm_steps(params, Tensor(xs[:, None, :]))
    np.testing.assert_allclose(ct.data[0], c, atol=1e-12)
    np.testing.assert_allclose(ht.data[0], h, atol=1e-12)


def test_lstm_saturated_gates_hold_memory():
    m = 3
    params = zero_cell(2, m)
    b = np.zeros(4 * m)
    b[0:m] = -10.0       # input gate shut
    b[m:2 * m] = 10.0    # forget gate open
    b[3 * m:] = -10.0    # output gate shut
    params = LstmCellParams(params.wx, params.wh, Tensor(b))
    c = Tensor(np.array([[0.4, -0.2, 0.9]]))
    h = Tensor(np.zeros((1, m)))
    c2, _ = lstm_steps(params, Tensor(np.zeros((1, 1, 2))), (c, h))
    np.testing.assert_allclose(c2.data, c.data, atol=1e-4)


def test_lstm_rejects_dimension_mismatch():
    """Taped and untaped: a wrong input width, recurrent weight or start state."""
    params = zero_cell(3, 2)
    projected = Tensor(np.zeros((2, 3, 8)))
    for tape in (contextlib.nullcontext(), ad.Tape()):
        with tape:
            with pytest.raises(ad.ShapeMismatch):
                lstm_steps(params, Tensor(np.zeros((1, 1, 4))),
                           (Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2)))))
            for wh, start in [(np.zeros((8, 3)), None), (np.zeros((2, 8)), None),
                              (np.zeros((8, 2)), (np.zeros((1, 2)), np.zeros((1, 2)))),
                              (np.zeros((8, 2)), (np.zeros((3, 2)), np.zeros((3, 3))))]:
                with pytest.raises(ad.ShapeMismatch):
                    run_lstm(projected, Tensor(wh), range(2), start and tuple(map(Tensor, start)))


def test_lstm_gradients_match_finite_differences():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(20):
        wx = rng.normal(size=(8, 3)) * 0.6
        wh = rng.normal(size=(8, 2)) * 0.6
        b = rng.normal(size=8) * 0.6
        x = rng.normal(size=(1, 1, 3))
        c0 = rng.normal(size=(1, 2))
        h0 = rng.normal(size=(1, 2))

        def f(p):
            cell = LstmCellParams(p["wx"], p["wh"], p["b"])
            c, h = lstm_steps(cell, p["x"], start=(p["c"], p["h"]))
            return ad.tsum(c) + ad.tsum(h)

        point = {"wx": Tensor(wx), "wh": Tensor(wh), "b": Tensor(b),
                 "x": Tensor(x), "c": Tensor(c0), "h": Tensor(h0)}
        worst = max(worst, gradient_check(f, point, epsilon=1e-5))
    assert worst < 1e-6


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_recurrent_step_adds_projection_inside_matmul(steps):
    """From a nonzero state a step is one ``linear(h, wh, projected[t])``:
    a T-step direction records T - 1 three-input ``matmul`` entries whose
    bias is that step's slice of the projection, and no ``add`` reads a
    projection slice or a recurrent product."""
    rng = np.random.default_rng(25)
    params = make_cell(rng, 3, 2)
    order = range(steps)[::-1]
    tape = ad.Tape()
    with tape:
        projected = ad.linear(Tensor(rng.normal(size=(steps, 2, 3))), params.wx, params.b)
        run_lstm(projected, params.wh, order)
    slices = {entry.output: entry.attrs["index"] for entry in tape.entries
              if entry.kind == "slice" and entry.inputs == (tape.node_of(projected),)}
    recurrent = [entry for entry in tape.entries
                 if entry.kind == "matmul" and entry.inputs[1] == tape.node_of(params.wh)]
    assert [len(entry.inputs) for entry in recurrent] == [3] * (steps - 1)
    assert [slices.get(entry.inputs[2]) for entry in recurrent] == list(order)[1:]
    read = set(slices) | {entry.output for entry in recurrent}
    assert not [entry for entry in tape.entries if entry.kind == "add" and read.intersection(entry.inputs)]


def _recurrence_case(rng, steps, batch, reverse, ragged, with_start, m=3):
    """A run_lstm call: (projection, recurrent weight, order, start, restart)."""
    params = make_cell(rng, 4, m)
    projected = ad.linear(Tensor(rng.normal(size=(steps, batch, 4))), params.wx, params.b)
    order = range(steps)[::-1] if reverse else range(steps)
    start = (Tensor(rng.normal(size=(batch, m))), Tensor(rng.normal(size=(batch, m)))) if with_start else None
    restart = rng.integers(0, steps, size=batch) if ragged else None
    return projected, params.wh, order, start, restart


def _run_arrays(projected, wh, order, start, restart):
    """A run_lstm call's arguments through _lstm_arrays; the states come
    back as run_lstm returns them, per-step lists of Tensors."""
    cells, hidden = _lstm_arrays(projected.data, wh.data, order,
                                 None if start is None else (start[0].data, start[1].data), restart)
    return [ad.wrap(c) for c in cells], [ad.wrap(h) for h in hidden]


@pytest.mark.parametrize("with_start", [False, True], ids=["zero-start", "given-start"])
@pytest.mark.parametrize("ragged", [False, True], ids=["even", "ragged"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize("steps, batch", [(1, 1), (1, 3), (4, 1), (6, 3)])
def test_untaped_recurrence_is_bit_equal_to_the_taped_chain(steps, batch, reverse, ragged, with_start):
    """On the arrays, every step's c and h has the bytes of the taped
    primitive chain's."""
    rng = np.random.default_rng(26 + steps * 7 + batch)
    case = _recurrence_case(rng, steps, batch, reverse, ragged, with_start)
    untaped = _run_arrays(*case)
    with ad.Tape():
        taped = run_lstm(*case)
    for fast, chain in zip(untaped, taped):
        assert [x.data.tobytes() for x in fast] == [x.data.tobytes() for x in chain]
        assert all(x.data.dtype == np.float64 and x.shape == (batch, 3) for x in fast)


def test_untaped_recurrence_makes_no_primitive_call(monkeypatch):
    """The recurrence on the arrays over T steps dispatches no primitive;
    taped, the chain still records every step."""
    calls = []
    for kind, prim in list(ad._PRIMITIVES.items()):
        def forward(d, a, kind=kind, rule=prim.forward):
            calls.append(kind)
            return rule(d, a)
        monkeypatch.setitem(ad._PRIMITIVES, kind, ad.Primitive(forward, prim.backward, prim.reads))
    case = _recurrence_case(np.random.default_rng(27), 5, 3, True, True, True)
    calls.clear()
    _run_arrays(*case)
    assert calls == []
    with ad.Tape():
        run_lstm(*case)
    assert calls.count("sigmoid") == 5 and calls.count("matmul") == 5


def test_untaped_loss_is_bit_equal_to_the_taped_loss():
    """On random ragged batches (text and speech, additive and conv
    attention) the untaped loss, whose recurrences run on arrays, has the
    repr of the taped one."""
    rng = np.random.default_rng(28)
    for k in range(40):
        task, attention = ("text", "speech")[k % 2], ("additive", "conv")[k // 2 % 2]
        model = randomize(build_tiny_model(task=task, m=int(rng.integers(2, 6)), n=3, src_words=7,
                                           tgt_words=7, attention=attention), seed=k)
        rows = int(rng.integers(1, 4))
        sources = [random_text_source(rng, 11, 1) if task == "text" else random_speech_source(rng)
                   for _ in range(rows)]
        targets = [[int(w) for w in rng.integers(4, 11, size=int(rng.integers(1, 5)))] for _ in range(rows)]
        batch = make_batch(sources, targets)
        untaped = model.batch_nll(model.store.as_tensors(), batch)
        tape = ad.Tape()
        with tape:
            taped = model.batch_nll(model.store.watch(tape), batch)
        assert repr(untaped.item()) == repr(taped.item())


@pytest.mark.parametrize("ragged", [False, True], ids=["no-lengths", "lengths"])
@pytest.mark.parametrize("steps, batch", [(1, 1), (1, 3), (5, 1), (5, 3)])
def test_untaped_bidirectional_layer_is_bit_equal_to_the_taped_chain(steps, batch, ragged):
    """Untaped, both directions and their sum run on the arrays; the output
    block, every forward state and the final state have the taped bytes."""
    rng = np.random.default_rng(29 + steps * 5 + batch)
    fwd, bwd = make_cell(rng, 4, 3), make_cell(rng, 4, 3)
    inputs = Tensor(rng.normal(size=(steps, batch, 4)))
    lengths = rng.integers(1, steps + 1, size=batch) if ragged else None
    runs = []
    for tape in (contextlib.nullcontext(), ad.Tape()):
        with tape:
            outputs, forward = bidirectional_layer(fwd, bwd, inputs, lengths)
            final = final_state(forward, np.full(batch, steps) if lengths is None else lengths)
        runs.append([x.data.tobytes() for x in [outputs, final, *forward[0], *forward[1]]])
    assert runs[0] == runs[1]


def test_bidirectional_single_element():
    rng = np.random.default_rng(23)
    fwd = make_cell(rng, 2, 2)
    bwd = make_cell(rng, 2, 2)
    x = Tensor(rng.normal(size=(1, 2)))
    outputs, forward = bidirectional_layer(fwd, bwd, ad.stack([x]))
    final = final_state(forward, [1])
    zeros = (Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))))
    _, hf = lstm_steps(fwd, ad.stack([x]), zeros)
    _, hb = lstm_steps(bwd, ad.stack([x]), zeros)
    np.testing.assert_allclose(outputs[0].data, hf.data + hb.data, atol=1e-12)
    assert final.shape == (1, 4)


def test_bidirectional_palindrome_symmetry():
    rng = np.random.default_rng(24)
    cell = make_cell(rng, 2, 3)
    seq = [Tensor(rng.normal(size=(1, 2))) for _ in range(2)]
    seq = seq + [seq[1], seq[0]]  # palindrome x0 x1 x1 x0
    outputs, _ = bidirectional_layer(cell, cell, ad.stack(seq))
    values = [o.data for o in outputs]
    np.testing.assert_allclose(values[0], values[3], atol=1e-12)
    np.testing.assert_allclose(values[1], values[2], atol=1e-12)


def test_bidirectional_matches_two_oracle_passes():
    rng = np.random.default_rng(25)
    fwd = make_cell(rng, 2, 2)
    bwd = make_cell(rng, 2, 2)
    xs = rng.normal(size=(3, 2))
    outputs, forward = bidirectional_layer(fwd, bwd, ad.stack([Tensor(x[None, :]) for x in xs]))
    final = final_state(forward, [3])

    def run_oracle(cell, order):
        c, h = [0.0, 0.0], [0.0, 0.0]
        outs = {}
        for t in order:
            c, h = lstm_step_oracle(cell.wx.data.tolist(), cell.wh.data.tolist(),
                                    cell.b.data.tolist(), xs[t].tolist(), c, h)
            outs[t] = h
        return outs, c, h

    fwd_outs, fwd_c, fwd_h = run_oracle(fwd, [0, 1, 2])
    bwd_outs, _, _ = run_oracle(bwd, [2, 1, 0])
    for t in range(3):
        np.testing.assert_allclose(
            outputs[t].data[0],
            np.array(fwd_outs[t]) + np.array(bwd_outs[t]),
            atol=1e-12,
        )
    np.testing.assert_allclose(final.data[0], fwd_c + fwd_h, atol=1e-12)


def test_bidirectional_rejects_empty_sequence():
    rng = np.random.default_rng(26)
    cell = make_cell(rng, 2, 2)
    with pytest.raises(ValueError, match="nonempty"):
        bidirectional_layer(cell, cell, Tensor(np.zeros((0, 1, 2))))


def _stack(rng, kind, input_dim, m, layers):
    cfg = RunConfig(task=kind, enc_layers=layers, dropout=0.0).resolved()
    cells = []
    for i in range(layers):
        d = input_dim if i == 0 else m
        cells.append((make_cell(rng, d, m), make_cell(rng, d, m)))
    return cfg, cells


def test_stride_is_frames_per_speech_encoder_position():
    for layers in (1, 2, 3):
        assert RunConfig(task="text", enc_layers=layers).resolved().stride == 1
    for layers, stride in zip((1, 2, 3, 4), (1, 2, 4, 8)):
        assert RunConfig(task="speech", enc_layers=layers).resolved().stride == stride


def test_pyramidal_output_lengths():
    rng = np.random.default_rng(27)
    cfg, cells = _stack(rng, "speech", 4, 2, 3)
    for a, expected in [(16, 4), (13, 4)]:
        inputs = ad.stack([Tensor(rng.normal(size=(1, 4))) for _ in range(a)])
        outputs, final, _ = pyramidal_encode(cfg, cells, inputs)
        assert len(outputs) == expected
        assert final.shape == (1, 4)


def test_text_encoder_keeps_length():
    rng = np.random.default_rng(28)
    cfg, cells = _stack(rng, "text", 3, 2, 2)
    inputs = ad.stack([Tensor(rng.normal(size=(1, 3))) for _ in range(9)])
    outputs, _, _ = pyramidal_encode(cfg, cells, inputs)
    assert len(outputs) == 9


def test_pyramidal_length_law_4_to_200():
    for a in range(4, 201):
        assert subsampled_length(a) == pyramid_length_oracle(a)
        assert subsampled_length(a) == -(-(-(-a // 2)) // 2)  # ceil(ceil(a/2)/2)
    for a in range(4, 201, 4):
        assert subsampled_length(a) == a // 4  # exactly 1/4 on multiples of 4


def test_pyramidal_rejects_too_short_input():
    rng = np.random.default_rng(29)
    cfg, cells = _stack(rng, "speech", 4, 2, 3)
    with pytest.raises(ValueError, match="too short"):
        pyramidal_encode(cfg, cells, ad.stack([Tensor(np.zeros((1, 4)))] * 3))


def test_prenet_zero_weights_give_zero_output():
    layers = [(Tensor(np.zeros((4, 41))), Tensor(np.zeros(4))),
              (Tensor(np.zeros((4, 4))), Tensor(np.zeros(4)))]
    out = speech_prenet(layers, Tensor(np.ones((1, 41))))
    np.testing.assert_array_equal(out.data, np.zeros((1, 4)))


def test_prenet_output_in_tanh_range():
    rng = np.random.default_rng(30)
    layers = [(Tensor(rng.normal(size=(8, 41))), Tensor(rng.normal(size=8))),
              (Tensor(rng.normal(size=(8, 8))), Tensor(rng.normal(size=8)))]
    out = speech_prenet(layers, Tensor(rng.normal(size=(5, 41))))
    assert (np.abs(out.data) < 1.0).all()


def test_prenet_matches_scalar_evaluation():
    w1 = np.array([[0.5, -0.25], [1.0, 0.75]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[-0.3, 0.6], [0.2, 0.4]])
    b2 = np.array([0.05, 0.0])
    x = np.array([0.8, -1.2])
    hidden = np.tanh(w1 @ x + b1)
    expected = np.tanh(w2 @ hidden + b2)
    out = speech_prenet([(Tensor(w1), Tensor(b1)), (Tensor(w2), Tensor(b2))], Tensor(x))
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_batched_encoding_matches_per_sequence():
    rng = np.random.default_rng(31)
    cfg, cells = _stack(rng, "speech", 3, 2, 3)
    lengths = np.array([9, 5, 7])
    seqs = [rng.normal(size=(n, 3)) for n in lengths]
    smax = int(lengths.max())

    # batched with padding
    padded = np.zeros((3, smax, 3))
    for i, s in enumerate(seqs):
        padded[i, : len(s)] = s
    batch_inputs = ad.stack([Tensor(padded[:, t, :]) for t in range(smax)])
    batch_out, batch_final, out_lengths = pyramidal_encode(cfg, cells, batch_inputs, lengths)

    for i, s in enumerate(seqs):
        single_inputs = ad.stack([Tensor(s[t][None, :]) for t in range(len(s))])
        single_out, single_final, _ = pyramidal_encode(cfg, cells, single_inputs)
        assert out_lengths[i] == len(single_out)
        for t in range(len(single_out)):
            np.testing.assert_allclose(batch_out[t].data[i], single_out[t].data[0], atol=1e-12)
        np.testing.assert_allclose(batch_final.data[i], single_final.data[0], atol=1e-12)


def test_encoding_deterministic_without_dropout():
    rng = np.random.default_rng(32)
    cfg, cells = _stack(rng, "text", 3, 2, 2)
    inputs = ad.stack([Tensor(rng.normal(size=(2, 3))) for _ in range(5)])
    out1, final1, _ = pyramidal_encode(cfg, cells, inputs)
    out2, final2, _ = pyramidal_encode(cfg, cells, inputs)
    for a, b in zip(out1, out2):
        assert a.data.tobytes() == b.data.tobytes()
    assert final1.data.tobytes() == final2.data.tobytes()
