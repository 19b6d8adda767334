import contextlib
import pathlib
import re

import numpy as np
import pytest

from s2t import autodiff as ad
from s2t.autodiff import (
    ParameterStore,
    ShapeMismatch,
    Tape,
    Tensor,
    UnknownPrimitive,
    adam_update,
    apply_primitive,
    backprop,
    gradient_check,
)
from s2t.corpus import make_batch

from oracles import (adam_oracle, conv1d_backward_oracle, conv1d_oracle, conv_windows_oracle,
                     sigmoid_expression_oracle, slice_index_oracle, tape_replays_exactly,
                     transposed_weight_grad_oracle)
from util import (build_tiny_model, keep_every_value, random_speech_source, random_text_source,
                  randomize)


def t(values):
    return Tensor(np.asarray(values, dtype=np.float64))


# --- forward behaviour of the primitives ---


def test_softmax_uniform_input():
    out = apply_primitive("softmax", (t([0.0, 0.0, 0.0, 0.0]),))
    np.testing.assert_allclose(out.data, [0.25, 0.25, 0.25, 0.25], rtol=0, atol=0)


def test_softmax_shift_invariance():
    x = t([1.0, 2.0, 3.0])
    shifted = t([101.0, 102.0, 103.0])
    a = apply_primitive("softmax", (x,)).data
    b = apply_primitive("softmax", (shifted,)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_normalization_properties():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = t(rng.normal(size=rng.integers(2, 9)) * 10)
        s = apply_primitive("softmax", (x,)).data
        assert (s > 0).all() and (s <= 1).all()
        assert abs(s.sum() - 1.0) < 1e-12


def test_conv_identity_filter():
    out = ad.conv1d(t([0.2, 0.5, 0.3]), t([1.0]))
    np.testing.assert_array_equal(out.data, [0.2, 0.5, 0.3])


def test_conv_matches_numpy_convolve():
    rng = np.random.default_rng(1)
    for _ in range(10):
        sig = rng.normal(size=rng.integers(3, 12))
        filt = rng.normal(size=int(rng.choice([1, 3, 5, 7])))
        ours = ad.conv1d(t(sig), t(filt)).data
        half = (len(filt) - 1) // 2
        ref = np.convolve(sig, filt, mode="full")[half:half + len(sig)]
        np.testing.assert_allclose(ours, ref, atol=1e-12)


def test_conv_signal_gradient_matches_the_shift_and_add_sum():
    """The signal gradient (g convolved with the reversed filter) equals
    sum_j g shifted by j - half times the reversed filter's j-th tap."""
    rng = np.random.default_rng(3)
    conv = ad._PRIMITIVES["conv1d"]
    for k in (1, 3, 5, 25):
        for _ in range(50):
            rows = tuple(int(r) for r in rng.integers(1, 4, size=int(rng.integers(0, 3))))
            sig = rng.normal(size=rows + (int(rng.integers(1, 40)),))
            filt = rng.normal(size=k)
            g = rng.normal(size=sig.shape)
            n, half = sig.shape[-1], (k - 1) // 2
            expect = np.zeros(sig.shape[:-1] + (n + 2 * half,))
            for j, tap in enumerate(filt[::-1]):
                expect[..., j:j + n] += g * tap
            dsignal, _ = conv.backward(g, [sig, filt], None, {})
            np.testing.assert_allclose(dsignal, expect[..., half:half + n], rtol=1e-13, atol=1e-13)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_conv_matches_the_padded_window_oracle_bit_for_bit():
    """Forward and both gradients equal those over np.pad and
    sliding_window_view windows: filter length 1, filters longer than the
    signal, and 0 to 3 leading axes."""
    rng = np.random.default_rng(4)
    conv = ad._PRIMITIVES["conv1d"]
    for k in (1, 3, 5, 9, 25):
        for _ in range(40):
            rows = tuple(int(r) for r in rng.integers(1, 4, size=int(rng.integers(0, 4))))
            sig = rng.normal(size=rows + (int(rng.integers(1, 12)),))
            filt = rng.normal(size=k)
            g = rng.normal(size=sig.shape)
            assert same_bits(ad._windows(sig, k), conv_windows_oracle(sig, k))
            assert same_bits(conv.forward([sig, filt], {}), conv1d_oracle(sig, filt))
            for ours, oracle in zip(conv.backward(g, [sig, filt], None, {}),
                                    conv1d_backward_oracle(g, sig, filt)):
                assert same_bits(ours, oracle)


def test_sigmoid_matches_its_expression_bit_for_bit():
    x = np.concatenate([[-800.0, -40.0, -1.0, -0.0, 0.0, 1e-300, 1.0, 40.0, 800.0],
                        np.random.default_rng(5).normal(scale=6.0, size=199)])
    sigmoid = ad._PRIMITIVES["sigmoid"].forward
    for value in (x, x.reshape(13, 16), x[::3], np.asarray(x[4])):
        assert same_bits(sigmoid([value], {}), sigmoid_expression_oracle(value))
        assert same_bits(ad.sigmoid_array(value), sigmoid_expression_oracle(value))
    assert same_bits(sigmoid([x[[0, 8]]], {}), [0.0, 1.0])


@pytest.mark.parametrize("attrs", [
    dict(axis=0, start=1, stop=3),
    dict(axis=-1, start=0, stop=6, step=2),
    dict(axis=2, start=5, stop=0, step=-2),
    dict(axis=1, start=-3, stop=None, step=None),
    dict(axis=1, index=-2),
    dict(axis=-3, index=3),
    dict(axis=-2, index=np.array([4, 0, 2])),
    dict(axis=2, index=np.array([[1, 5], [0, 0]])),
], ids=repr)
def test_slice_matches_the_list_built_index_bit_for_bit(attrs):
    """Every ``slice`` attribute form (negative axis, step, integer index,
    index array) reads and scatters what the full list-built index does."""
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 5, 6))
    prim = ad._PRIMITIVES["slice"]
    index = slice_index_oracle(x.ndim, attrs)
    out = prim.forward([x], attrs)
    assert same_bits(out, x[index])
    g = rng.normal(size=out.shape)
    [grad] = prim.backward(g, [x], out, attrs)
    ours, oracle = np.zeros_like(x), np.zeros_like(x)
    ours[grad.index] += grad.value
    oracle[index] += g
    assert same_bits(ours, oracle)


@pytest.mark.parametrize("axis", [3, -4])
def test_slice_axis_out_of_range_is_a_shape_mismatch(axis):
    with pytest.raises(ShapeMismatch, match=f"slice: axis {axis} out of range"):
        ad.slice_axis(t(np.zeros((2, 3, 4))), axis, 0, 1)


def test_conv_rejects_even_filter():
    with pytest.raises(ShapeMismatch):
        ad.conv1d(t([1.0, 2.0]), t([1.0, 2.0]))


def test_matmul_hand_example():
    a = t([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    b = t([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])  # [out, in]
    out = apply_primitive("matmul", (a, b))
    np.testing.assert_array_equal(out.data, [[22.0, 28.0], [49.0, 64.0]])
    out = apply_primitive("matmul", (a, b, t([1.0, -1.0])))
    np.testing.assert_array_equal(out.data, [[23.0, 27.0], [50.0, 63.0]])
    # 3-D, 2-D and 1-D inputs, by an [out, in] matrix and by an [in] vector, each
    # without a bias, with one of the weight's output shape and with one of the
    # whole output's shape
    rng = np.random.default_rng(12)
    for x_shape, w_shape in [((4, 2, 3), (5, 3)), ((3,), (5, 3)), ((4, 2, 3), (3,)), ((3,), (3,)),
                             ((4, 3), (5, 3))]:
        out_shape = x_shape[:-1] + w_shape[:-1]
        for bias_shape in (None, w_shape[:-1], out_shape):
            x, w, g = rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=out_shape)
            bias = rng.normal(size=bias_shape or ())
            tape = Tape()
            with tape:
                xt, wt, bt = t(x), t(w), t(bias)
                tape.watch("x", xt)
                tape.watch("w", wt)
                tape.watch("b", bt)
                out = apply_primitive("matmul", (xt, wt) if bias_shape is None else (xt, wt, bt))
                loss = ad.tsum(out * t(g))
            grads = ad.backprop(tape, loss)
            wm, gm = w.reshape(-1, 3), g.reshape(x_shape[:-1] + (-1,))  # a vector weight as [1, in]
            want = np.einsum("...i,oi->...o", x, wm).reshape(out_shape)
            if bias_shape is not None:
                want = want + bias
            np.testing.assert_allclose(out.data, want, rtol=1e-12)
            np.testing.assert_allclose(grads["x"].data, np.einsum("...o,oi->...i", gm, wm), rtol=1e-12)
            dw = np.einsum("ro,ri->oi", gm.reshape(-1, len(wm)), x.reshape(-1, 3))
            np.testing.assert_allclose(grads["w"].data, dw.reshape(w_shape), rtol=1e-12)
            if bias_shape is None:
                db = 0.0
            elif bias_shape == out_shape:
                db = np.einsum("...->...", g)
            else:
                db = np.einsum("ro->o", gm.reshape(-1, len(wm))).reshape(bias_shape)
            np.testing.assert_allclose(grads["b"].data, db, rtol=1e-12)


def test_matmul_weight_gradient_is_c_ordered_with_the_transposed_form_bytes():
    """The weight gradient is ``g2.T @ x2``, a C-ordered array with the bytes
    of the earlier transposed ``(x2.T @ g2).T``: rows 1 to 832, [out, in]
    matrices and [in] vectors, 2-D and 3-D inputs."""
    rng = np.random.default_rng(13)
    backward = ad._PRIMITIVES["matmul"].backward
    for rows in (1, 2, 3, 7, 24, 64, 65, 130, 832):
        for w_shape in ((1, 1), (3, 2), (8, 5), (40, 16), (16, 40), (5,), (1,)):
            for lead in ((rows,), (rows, 2)):
                x = rng.normal(size=lead + w_shape[-1:])
                w = rng.normal(size=w_shape)
                g = rng.normal(size=lead + w_shape[:-1])
                dw = backward(g, [x, w], None, {})[1]
                assert dw.flags.c_contiguous and dw.shape == w.shape
                assert dw.tobytes() == transposed_weight_grad_oracle(g, x, w).tobytes()


def test_matmul_shape_error_names_primitive():
    with pytest.raises(ShapeMismatch, match="matmul"):
        apply_primitive("matmul", (t(np.ones((2, 3))), t(np.ones((3, 2)))))
    for x_shape in ((3, 4, 2), (4, 2), (2, 2, 4, 2)):  # a stacked [2, 5, 2] weight needs a [2, n, 2] input
        with pytest.raises(ShapeMismatch, match="matmul"):
            apply_primitive("matmul", (t(np.ones(x_shape)), t(np.ones((2, 5, 2)))))


@pytest.mark.parametrize("bias_shape", [(3,), (2, 1), (1,), (), (2, 4, 5), (4, 2)])
def test_matmul_bias_shape_error_names_primitive(bias_shape):
    """A bias must have the weight's output shape [2] or the whole output's
    [5, 4, 2] exactly: no broadcasting, so neither the output shape reversed
    nor one with a leading axis dropped."""
    with pytest.raises(ShapeMismatch, match="matmul"):
        ad.linear(t(np.ones((5, 4, 3))), t(np.ones((2, 3))), t(np.ones(bias_shape)))


def test_unknown_primitive():
    with pytest.raises(UnknownPrimitive):
        apply_primitive("frobnicate", (t([1.0]),))


def test_embedding_out_of_range():
    table = t(np.ones((4, 5)))
    with pytest.raises(ShapeMismatch, match="token id"):
        ad.embedding(table, np.array([5]))


def test_embedding_of_2d_ids_is_ids_shape_by_table_rows():
    table = np.arange(12.0).reshape(3, 4)
    ids = np.array([[0, 3], [3, 1], [2, 2]])
    out = ad.embedding(t(table), ids)
    assert out.shape == (3, 2, 3)
    np.testing.assert_array_equal(out.data, table.T[ids])


def test_tensor_indexing_on_axis_zero():
    x0 = np.arange(12.0).reshape(4, 3)
    tape = Tape()
    with tape:
        x = t(x0)
        row, rows = x[-1], x[0::2]
    np.testing.assert_array_equal(row.data, x0[3])
    np.testing.assert_array_equal(rows.data, x0[0::2])
    assert [e.kind for e in tape.entries] == ["slice", "slice"]
    assert len(x) == 4 and len(list(x)) == 4
    for index in (4, -5):
        with pytest.raises(IndexError):
            x[index]
    with pytest.raises(TypeError):
        len(t(1.0))


# --- tape and backprop ---


def test_backprop_sum_gives_ones():
    tape = Tape()
    with tape:
        w = t([1.0, 2.0, 3.0])
        tape.watch("w", w)
        loss = ad.tsum(w)
    grads = backprop(tape, loss)
    np.testing.assert_array_equal(grads["w"].data, [1.0, 1.0, 1.0])


def test_backprop_tanh_at_zero():
    tape = Tape()
    with tape:
        w = t(0.0)
        tape.watch("w", w)
        loss = ad.tanh(w)
    grads = backprop(tape, loss)
    assert grads["w"].data == pytest.approx(1.0)


def test_backprop_random_composition_matches_finite_differences():
    rng = np.random.default_rng(7)
    w0 = rng.normal(size=(3,))

    def f(params):
        x = ad.tanh(params["w"])
        y = x * params["w"]
        return ad.tsum(apply_primitive("sigmoid", (y,)))

    err = gradient_check(f, {"w": Tensor(w0)}, epsilon=1e-5)
    assert err < 1e-6


def test_backprop_rejects_non_scalar_loss():
    tape = Tape()
    with tape:
        w = t([1.0, 2.0])
        tape.watch("w", w)
        out = ad.tanh(w)
    with pytest.raises(ValueError, match="scalar"):
        backprop(tape, out)


def test_backprop_rejects_off_tape_node():
    tape = Tape()
    with tape:
        w = t([1.0])
        tape.watch("w", w)
        ad.tanh(w)
    stray = t(1.0)
    with pytest.raises(ValueError, match="tape"):
        backprop(tape, stray)


def test_unreachable_parameter_gets_zero_gradient():
    tape = Tape()
    with tape:
        w = t([1.0, 2.0])
        u = t([5.0])
        tape.watch("w", w)
        tape.watch("u", u)
        loss = ad.tsum(w)
    grads = backprop(tape, loss)
    np.testing.assert_array_equal(grads["u"].data, [0.0])


def test_partial_gradients_accumulate_like_the_dense_rule():
    """One node read by overlapping slices (a range, an integer index, an
    array of distinct rows and a step), a pick, embeddings with repeated
    1-D and 2-D ids and a dense consumer: backprop adds the partial
    gradients in place, bit-identical to zero-filled gradients summed in
    tape order."""
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(4, 6))
    pick_ids, embed_ids = np.array([5, 0, 5, 2]), np.array([1, 3, 1, 1, 5])
    grid_ids, row_ids = np.array([[1, 3, 1], [5, 1, 3]]), np.array([3, 0, 2])
    consumers = [
        lambda x: ad.slice_axis(x, 1, 0, 4),
        lambda x: ad.slice_axis(x, 1, 2, 6),
        lambda x: ad.slice_axis(x, 0, 1, 3),
        lambda x: ad.pick(x, pick_ids),
        lambda x: ad.embedding(x, embed_ids),
        lambda x: ad.tanh(x),
        lambda x: x[2],
        lambda x: x[1::2],
        lambda x: ad.embedding(x, grid_ids),
        lambda x: ad.apply_primitive("slice", (x,), axis=0, index=row_ids),
    ]
    tape = Tape()
    with tape:
        x = t(x0)
        tape.watch("x", x)
        weights, loss = [], None
        for consumer in consumers:
            part = consumer(x)
            weights.append(rng.normal(size=part.shape))
            term = ad.tsum(part * t(weights[-1]))
            loss = term if loss is None else loss + term
    got = backprop(tape, loss)["x"].data

    def dense(k, w):
        dx = np.zeros_like(x0)
        if k == 0:
            dx[:, 0:4] = w
        elif k == 1:
            dx[:, 2:6] = w
        elif k == 2:
            dx[1:3] = w
        elif k == 3:
            dx[np.arange(4), pick_ids] = w
        elif k == 4:
            np.add.at(dx.T, embed_ids, w)
        elif k == 5:
            dx = w * (1.0 - np.tanh(x0) ** 2)
        elif k == 6:
            dx[2] = w
        elif k == 7:
            dx[1::2] = w
        elif k == 8:
            np.add.at(dx.T, grid_ids.reshape(-1), w.reshape(-1, 4))
        else:
            dx[row_ids] = w
        return dx

    want = None
    for k in reversed(range(len(consumers))):
        want = dense(k, weights[k]) if want is None else want + dense(k, weights[k])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("task", ["text", "speech"])
def test_backprop_writes_only_buffers_it_allocated(monkeypatch, task):
    """Tape values and every array a backward rule hands out (concat and
    stack views, the broadcast of sum, slice and pick values) are unchanged
    after backprop, and the tape still replays exactly."""
    handed = []

    def recording(backward):
        def wrapped(g, d, out, a):
            grads = backward(g, d, out, a)
            for gi in grads:
                arr = gi.value if isinstance(gi, ad.IndexedGrad) else gi
                if arr is not None:
                    handed.append((arr, arr.copy()))
            return grads
        return wrapped

    for kind, prim in list(ad._PRIMITIVES.items()):
        monkeypatch.setitem(ad._PRIMITIVES, kind, ad.Primitive(prim.forward, recording(prim.backward)))
    rng = np.random.default_rng(4)
    model = randomize(build_tiny_model(task=task, m=4, n=3, src_words=7, tgt_words=7, seed=3), seed=9)
    sources = ([random_text_source(rng, 7) for _ in range(3)] if task == "text"
               else [random_speech_source(rng) for _ in range(3)])
    batch = make_batch(sources, [[4, 5, 6], [5], [6, 4]])
    tape = Tape()
    with tape:
        loss = model.batch_nll(model.store.watch(tape), batch)
    before = [v.copy() for v in tape.values]
    backprop(tape, loss)
    assert all(np.array_equal(v, b) for v, b in zip(tape.values, before))
    assert len(handed) > len(tape.entries)
    assert all(np.array_equal(arr, snapshot) for arr, snapshot in handed)
    assert tape_replays_exactly(tape)


def test_tape_replay_is_exact(monkeypatch):
    keep_every_value(monkeypatch)  # a lean tape keeps only what backward reads
    rng = np.random.default_rng(3)
    tape = Tape()
    with tape:
        a = t(rng.normal(size=(4, 3)))
        b = t(rng.normal(size=(3, 2)).T)
        out = apply_primitive("matmul", (a, b))
        out = ad.tanh(out)
        ad.tsum(out)
    assert tape_replays_exactly(tape)


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 4))
    w = rng.normal(size=(4, 3))

    def run():
        h = apply_primitive("matmul", (Tensor(x), Tensor(w.T)))
        return apply_primitive("softmax", (ad.tanh(h),)).data

    first, second = run(), run()
    assert first.tobytes() == second.tobytes()


# --- what the tape keeps: only the values a backward rule reads ---


def is_stand_in(value):
    return value.base is ad._ZERO


def taped_loss(model, batch, seed):
    tape = Tape()
    with tape:
        loss = model.batch_nll(model.store.watch(tape), batch, np.random.default_rng(seed))
    return tape, loss


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("attention", ["additive", "conv"])
@pytest.mark.parametrize("task", ["text", "speech"])
def test_lean_tape_matches_a_keep_everything_tape(monkeypatch, task, attention, seed):
    """Gradients from the lean tape are bit-identical to those of a tape that
    keeps every value; a node keeps its array exactly when some entry's
    backward reads it, equal to the full tape's, and is otherwise a
    stand-in of that node's shape."""
    rng = np.random.default_rng(100 + seed)
    src_words = int(rng.integers(6, 10))
    model = randomize(build_tiny_model(task=task, m=int(rng.integers(2, 6)), n=int(rng.integers(2, 5)),
                                       src_words=src_words, tgt_words=7, attention=attention,
                                       conv_filter_size=3, dropout=0.3), seed=seed)
    rows = int(rng.integers(1, 5))
    sources = ([random_text_source(rng, src_words) for _ in range(rows)] if task == "text"
               else [random_speech_source(rng) for _ in range(rows)])
    targets = [list(rng.integers(4, 7, size=int(rng.integers(1, 5)))) for _ in range(rows)]
    batch = make_batch(sources, targets)

    lean, lean_loss = taped_loss(model, batch, seed)
    lean_grads = backprop(lean, lean_loss)
    with monkeypatch.context() as patch:
        keep_every_value(patch)
        full, full_loss = taped_loss(model, batch, seed)
        full_grads = backprop(full, full_loss)

    assert lean_loss.data.tobytes() == full_loss.data.tobytes()
    assert sorted(lean_grads) == sorted(full_grads)
    assert all(lean_grads[name].data.tobytes() == full_grads[name].data.tobytes() for name in lean_grads)
    assert [(e.kind, e.inputs, e.output) for e in lean.entries] == \
        [(e.kind, e.inputs, e.output) for e in full.entries]
    read = set()
    for entry in lean.entries:
        reads = ad._PRIMITIVES[entry.kind].reads
        read.update(node for i, node in enumerate(entry.inputs) if i in reads)
        if ad.OUT in reads:
            read.add(entry.output)
    assert len(lean.values) == len(full.values)
    assert not any(is_stand_in(value) for value in full.values)
    for node, (value, want) in enumerate(zip(lean.values, full.values)):
        assert is_stand_in(value) != (node in read)
        if node in read:
            np.testing.assert_array_equal(value, want)
        else:
            assert value.shape == want.shape and value.dtype == want.dtype


@pytest.mark.parametrize("task", ["text", "speech"])
def test_lean_tape_keeps_activations_not_pre_activations(task):
    """The LSTM gate pre-activations (the recurrent ``matmul``) and the
    attention's ``inner`` sum are stand-ins; ``sigmoid`` and ``tanh``
    outputs are kept."""
    rng = np.random.default_rng(21)
    model = randomize(build_tiny_model(task=task, m=4, n=3, src_words=7, tgt_words=7), seed=22)
    sources = ([random_text_source(rng, 7) for _ in range(3)] if task == "text"
               else [random_speech_source(rng) for _ in range(3)])
    tape = Tape()
    with tape:
        params = model.store.watch(tape)
        model.batch_nll(params, make_batch(sources, [[4, 5, 6], [5], [6, 4]]))
    recurrent = {tape.node_of(tensor) for name, tensor in params.items() if name.endswith(".wh")}
    gates = [e.output for e in tape.entries if e.kind == "matmul" and e.inputs[1] in recurrent]
    assert gates and all(is_stand_in(tape.values[node]) for node in gates)
    tanh_of = {e.output: e.inputs[0] for e in tape.entries if e.kind == "tanh"}
    score_v = tape.node_of(params["attn.score_v"])
    inner = [tanh_of[e.inputs[0]] for e in tape.entries if e.kind == "matmul" and e.inputs[1] == score_v]
    assert inner and all(is_stand_in(tape.values[node]) for node in inner)
    activations = [e.output for e in tape.entries if e.kind in ("sigmoid", "tanh")]
    assert activations and not any(is_stand_in(tape.values[node]) for node in activations)


def test_reused_tensor_id_gets_its_own_node():
    """A Tensor that reuses the ``id`` of a dead one is a new node: the dead
    Tensor's node keeps its value and the new one gets the right gradient."""
    tape = Tape()
    with tape:
        a = t([1.0, 2.0, 3.0])
        first = ad.tsum(a * a)
        dead_id, dead_node = id(a), tape.node_of(a)
        del a
        alive = []
        for _ in range(10_000):
            b = t([4.0, 5.0, 6.0])
            if id(b) == dead_id:
                break
            alive.append(b)
        assert id(b) == dead_id
        assert tape.node_of(b) is None
        tape.watch("b", b)
        second = ad.tsum(b * b)
    assert tape.node_of(b) != dead_node
    np.testing.assert_array_equal(tape.values[dead_node], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(backprop(tape, second)["b"].data, [8.0, 10.0, 12.0])
    np.testing.assert_array_equal(backprop(tape, first)["b"].data, [0.0, 0.0, 0.0])


def test_recording_follows_the_active_tape():
    """``recording()`` is true exactly while a tape is active, nested tapes
    included, and other modules ask it (and ``wrap``) instead of reading
    the engine's private state."""
    assert not ad.recording()
    with Tape():
        assert ad.recording()
        with Tape():
            assert ad.recording()
        assert ad.recording()
    assert not ad.recording()
    data = np.arange(3.0)
    assert ad.wrap(data).data is data
    package = pathlib.Path(ad.__file__).parent
    readers = [path.name for path in sorted(package.glob("*.py")) if path.name != "autodiff.py"
               and re.search(r"\b_ACTIVE\b|\b_new_tensor\b", path.read_text(encoding="utf-8"))]
    assert readers == []


def test_tensor_on_two_nested_tapes():
    """A Tensor bound on an outer and an inner tape has a node on each, kept
    on each tape where an entry reads it."""
    outer, inner = Tape(), Tape()
    x = t([0.5, -1.0])
    with outer:
        outer.watch("x", x)
        y = ad.tanh(x)
        with inner:
            inner.watch("y", y)
            inner_loss = ad.tsum(y * y)
        outer_loss = ad.tsum(ad.log(y * y))
    assert inner.node_of(x) is None and outer.node_of(inner_loss) is None
    assert not is_stand_in(inner.values[inner.node_of(y)])
    assert not is_stand_in(outer.values[outer.node_of(y)])
    np.testing.assert_array_equal(backprop(inner, inner_loss)["y"].data, 2.0 * y.data)
    np.testing.assert_allclose(backprop(outer, outer_loss)["x"].data,
                               2.0 * (1.0 - y.data ** 2) / y.data, rtol=1e-12)


def test_kind_registered_without_reads_keeps_every_value(monkeypatch):
    monkeypatch.setattr(ad, "_PRIMITIVES", dict(ad._PRIMITIVES))
    ad.register_primitive("double", lambda d, a: 2.0 * d[0], lambda g, d, out, a: [2.0 * g])
    tape = Tape()
    with tape:
        x = t([1.0, 2.0])
        y = apply_primitive("double", (x,))
    assert not is_stand_in(tape.values[tape.node_of(x)])
    np.testing.assert_array_equal(tape.values[tape.node_of(y)], [2.0, 4.0])


@pytest.mark.parametrize("result", [np.arange(3), 2.5, np.float64(2.5), np.ones(2, np.float32),
                                    np.ones(2, ">f8"), [1, 2]], ids=repr)
def test_rule_result_is_a_float64_tensor(monkeypatch, result):
    """A rule that returns something other than a float64 array (an int
    array, a Python float, a numpy scalar, float32, big-endian float64, a
    list) still gives a float64 Tensor, taped or not."""
    monkeypatch.setattr(ad, "_PRIMITIVES", dict(ad._PRIMITIVES))
    ad.register_primitive("const", lambda d, a: result, lambda g, d, out, a: [None], reads=())
    for tape in (None, Tape()):
        with tape or contextlib.nullcontext():
            out = apply_primitive("const", (t([1.0]),))
        assert type(out.data) is np.ndarray and out.data.dtype == np.float64
        assert out.data.dtype.isnative
        np.testing.assert_array_equal(out.data, np.asarray(result))
        if tape is not None:
            assert tape.values[tape.node_of(out)].dtype == np.float64


# --- per-primitive gradient checks (20 random instances each) ---


def _case_add(rng):
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4,))
    return {"a": Tensor(a), "b": Tensor(b)}, lambda p: ad.tsum(p["a"] + p["b"])


def _case_mul(rng):
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    return {"a": Tensor(a), "b": Tensor(b)}, lambda p: ad.tsum(p["a"] * p["b"])


def _case_scale(rng):
    a = rng.normal(size=(5,))
    return {"a": Tensor(a)}, lambda p: ad.tsum(p["a"].scaled(-2.5))


def _case_matmul_22(rng):
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    return {"a": Tensor(a), "b": Tensor(b.T)}, lambda p: ad.tsum(ad.linear(p["a"], p["b"]))


def _case_matmul_32(rng):
    a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 2))
    return {"a": Tensor(a), "b": Tensor(b.T)}, lambda p: ad.tsum(ad.linear(p["a"], p["b"]))


def _case_matmul_vec(rng):
    a, v = rng.normal(size=(2, 3, 4)), rng.normal(size=(4,))
    return {"a": Tensor(a), "v": Tensor(v)}, lambda p: ad.tsum(ad.linear(p["a"], p["v"]))


def _case_matmul_bias(rng):
    a, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(5, 4)), rng.normal(size=(5,))
    point = {"a": Tensor(a), "w": Tensor(w), "b": Tensor(b)}
    return point, lambda p: ad.tsum(ad.tanh(ad.linear(p["a"], p["w"], p["b"])))


def _case_matmul_out_bias(rng):
    # half scale: none of the 30 tanh outputs saturates, where the finite
    # difference would lose its digits
    a, w, b = (rng.normal(size=shape) * 0.5 for shape in [(2, 3, 4), (5, 4), (2, 3, 5)])
    point = {"a": Tensor(a), "w": Tensor(w), "b": Tensor(b)}
    return point, lambda p: ad.tsum(ad.tanh(ad.linear(p["a"], p["w"], p["b"])))


def _case_matmul_stacked(rng):
    # a [2, out, in] weight takes a [2, n, in] input, with a [2, out] bias or one of the output's shape
    a, w, b, c = (rng.normal(size=shape) * 0.5 for shape in [(2, 3, 4), (2, 5, 4), (2, 5), (2, 3, 5)])
    point = {"a": Tensor(a), "w": Tensor(w), "b": Tensor(b), "c": Tensor(c)}
    return point, lambda p: ad.tsum(ad.tanh(ad.linear(p["a"], p["w"], p["b"]))) + ad.tsum(
        ad.tanh(ad.linear(p["a"], p["w"], p["c"])))


def _case_transpose(rng):
    a = rng.normal(size=(3, 4))
    return {"a": Tensor(a)}, lambda p: ad.tsum(ad.tanh(ad.transpose(p["a"])))


def _case_reshape(rng):
    a = rng.normal(size=(3, 4))
    return {"a": Tensor(a)}, lambda p: ad.tsum(ad.sigmoid(ad.reshape(p["a"], (2, 6))))


def _case_tanh(rng):
    a = rng.normal(size=(6,))
    return {"a": Tensor(a)}, lambda p: ad.tsum(ad.tanh(p["a"]))


def _case_sigmoid(rng):
    a = rng.normal(size=(6,))
    return {"a": Tensor(a)}, lambda p: ad.tsum(ad.sigmoid(p["a"]))


def _case_softmax(rng):
    a = rng.normal(size=(2, 5))
    w = rng.normal(size=(2, 5))
    return {"a": Tensor(a)}, lambda p: ad.tsum(ad.softmax(p["a"]) * Tensor(w))


def _case_log(rng):
    a = rng.uniform(0.5, 2.0, size=(5,))
    return {"a": Tensor(a)}, lambda p: ad.tsum(ad.log(p["a"]))


def _case_sum_axis(rng):
    a = rng.normal(size=(3, 4))
    return {"a": Tensor(a)}, lambda p: ad.tsum(ad.tanh(ad.tsum(p["a"], axis=0)))


def _case_concat(rng):
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
    return {"a": Tensor(a), "b": Tensor(b)}, lambda p: ad.tsum(ad.tanh(ad.concat([p["a"], p["b"]])))


def _case_stack(rng):
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    return {"a": Tensor(a), "b": Tensor(b)}, lambda p: ad.tsum(ad.tanh(ad.stack([p["a"], p["b"]])))


def _case_slice(rng):
    a = rng.normal(size=(3, 6))
    return {"a": Tensor(a)}, lambda p: ad.tsum(ad.tanh(ad.slice_axis(p["a"], -1, 2, 5)))


def _case_conv(rng):
    sig = rng.normal(size=(2, 7))
    filt = rng.normal(size=(5,))
    return {"s": Tensor(sig), "f": Tensor(filt)}, lambda p: ad.tsum(ad.tanh(ad.conv1d(p["s"], p["f"])))


def _case_embedding(rng):
    table = rng.normal(size=(3, 6))
    ids = rng.integers(0, 6, size=4)
    return {"e": Tensor(table)}, lambda p: ad.tsum(ad.tanh(ad.embedding(p["e"], ids)))


def _case_slice_index(rng):
    a = rng.normal(size=(4, 3))
    return {"a": Tensor(a)}, lambda p: ad.tsum(ad.tanh(p["a"][-2]))


def _case_slice_step(rng):
    a = rng.normal(size=(5, 3))
    return {"a": Tensor(a)}, lambda p: ad.tsum(ad.tanh(p["a"][0::2]))


def _case_slice_rows(rng):
    a = rng.normal(size=(5, 3))
    rows = rng.permutation(5)[:3]  # distinct rows, as the encoder's final-state gather reads
    return {"a": Tensor(a)}, lambda p: ad.tsum(ad.tanh(ad.apply_primitive("slice", (p["a"],), axis=0, index=rows)))


def _case_embedding_2d(rng):
    table = rng.normal(size=(3, 4))
    ids = rng.integers(0, 4, size=(3, 5))  # 15 ids over 4 columns repeat
    return {"e": Tensor(table)}, lambda p: ad.tsum(ad.tanh(ad.embedding(p["e"], ids)))


def _case_dropout(rng):
    a = rng.normal(size=(3, 4))
    mask = (rng.random((3, 4)) > 0.4) * 2.0
    return {"a": Tensor(a)}, lambda p: ad.tsum(ad.dropout(p["a"], mask))


def _case_pick(rng):
    a = rng.normal(size=(4, 5))
    ids = rng.integers(0, 5, size=4)
    return {"a": Tensor(a)}, lambda p: ad.tsum(ad.tanh(ad.pick(p["a"], ids)))


ALL_CASES = [
    _case_add, _case_mul, _case_scale, _case_matmul_22, _case_matmul_32,
    _case_matmul_vec, _case_transpose, _case_reshape, _case_tanh, _case_sigmoid,
    _case_softmax, _case_log, _case_sum_axis, _case_concat, _case_stack,
    _case_slice, _case_conv, _case_embedding, _case_dropout, _case_pick,
    _case_slice_index, _case_slice_step, _case_embedding_2d, _case_slice_rows,
    _case_matmul_bias, _case_matmul_out_bias, _case_matmul_stacked,
]


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.__name__[6:])
def test_primitive_gradients_match_finite_differences(case):
    rng = np.random.default_rng(ALL_CASES.index(case) + 1)
    worst = 0.0
    for _ in range(20):
        point, f = case(rng)
        worst = max(worst, gradient_check(f, point, epsilon=1e-5))
    assert worst < 1e-6


def test_every_kind_returns_a_float64_array(monkeypatch):
    """apply_primitive wraps a rule's float64 array as it is, so every
    registered kind's forward, on the float64 inputs of rank >= 1 of every
    case above and of a tiny text and speech model, returns exactly a
    float64 ndarray.  (On 0-d inputs numpy's ufuncs return numpy scalars,
    such as the loss's ``scale``; apply_primitive converts those.)"""
    seen = {}
    for kind, prim in list(ad._PRIMITIVES.items()):
        def forward(d, a, kind=kind, rule=prim.forward):
            out = rule(d, a)
            if all(x.ndim for x in d):
                seen.setdefault(kind, set()).add((type(out), getattr(out, "dtype", None)))
            return out
        monkeypatch.setitem(ad._PRIMITIVES, kind, ad.Primitive(forward, prim.backward, prim.reads))
    rng = np.random.default_rng(7)
    for case in ALL_CASES:
        point, f = case(rng)
        f(point)
    for task, source in (("text", random_text_source(rng, 6)), ("speech", random_speech_source(rng))):
        model = randomize(build_tiny_model(task=task, dropout=0.3), seed=8)
        model.batch_nll(model.store.as_tensors(), make_batch([source], [[4, 5]]), rng)
    assert set(seen) == set(ad._PRIMITIVES)
    assert {kind: types for kind, types in seen.items() if types != {(np.ndarray, np.dtype(np.float64))}} == {}


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.__name__[6:])
def test_each_kind_reads_exactly_its_declared_values(monkeypatch, case):
    """Per entry, the backward rule returns the same gradients when every
    value its kind does not declare is a stand-in, and different ones when
    any one declared value is."""
    declared = {kind: prim.reads for kind, prim in ad._PRIMITIVES.items()}
    keep_every_value(monkeypatch)
    rng = np.random.default_rng(ALL_CASES.index(case) + 101)
    point, f = case(rng)
    tape = Tape()
    with tape:
        f(point)
    for entry in tape.entries:
        values = [tape.values[node] for node in entry.inputs + (entry.output,)]
        g = np.asarray(rng.normal(size=values[-1].shape))

        def grads(stand_ins):  # value positions, the output's last
            d = [ad._stand_in(v) if i in stand_ins else v for i, v in enumerate(values)]
            with np.errstate(divide="ignore", invalid="ignore"):
                out = ad._PRIMITIVES[entry.kind].backward(g, d[:-1], d[-1], entry.attrs)
            return [np.asarray(gi.value if isinstance(gi, ad.IndexedGrad) else gi) for gi in out]

        def same(a, b):
            return all(x.shape == y.shape and np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b))

        read = {len(entry.inputs) if r == ad.OUT else r for r in declared[entry.kind]}
        full = grads(set())
        assert same(grads(set(range(len(values))) - read), full), entry.kind
        assert not [i for i in read if same(grads({i}), full)], entry.kind


# --- Adam ---


def test_adam_zero_gradient_is_identity():
    store = ParameterStore()
    store.add("w", [1.0, -2.0, 3.0])
    before = store.value("w").copy()
    adam_update(store, {"w": Tensor(np.zeros(3))}, learning_rate=0.001)
    np.testing.assert_array_equal(store.value("w"), before)
    assert store.step == 1


def test_adam_single_step_matches_direct_formula():
    store = ParameterStore()
    store.add("w", 1.0)
    adam_update(store, {"w": Tensor(1.0)}, learning_rate=0.001)
    # independent evaluation of the update rule at step 1
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = (1 - beta1) * 1.0
    v = (1 - beta2) * 1.0
    m_hat = m / (1 - beta1)
    v_hat = v / (1 - beta2)
    expected = 1.0 - 0.001 * m_hat / (np.sqrt(v_hat) + eps)
    assert store.value("w").item() == pytest.approx(expected, rel=0, abs=1e-15)


def test_adam_matches_scalar_oracle_bitwise():
    """Five steps of random gradients spanning 1e-8 to 1e2 in magnitude, on
    values down to 1e-8 so that the update's rounding shows, give values and
    moments bit-identical to the element-by-element formula, and the arrays
    handed out before a step keep their contents."""
    rng = np.random.default_rng(21)
    shapes = {"w": (7, 5), "b": (11,)}
    store = ParameterStore()
    state = {}
    for name, shape in shapes.items():
        store.add(name, rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 0, size=shape))
        state[name] = (store.value(name).ravel().tolist(), [0.0] * int(np.prod(shape)),
                       [0.0] * int(np.prod(shape)))
    for step in range(1, 6):
        grads = {name: rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 2, size=shape)
                 for name, shape in shapes.items()}
        held = {name: (store.value(name), store.value(name).copy()) for name in shapes}
        adam_update(store, {name: Tensor(g) for name, g in grads.items()}, learning_rate=0.003)
        for name, shape in shapes.items():
            state[name] = adam_oracle(*state[name], grads[name].ravel().tolist(), step, 0.003)
            got = (store.value(name),) + store.moments(name)
            for array, want in zip(got, state[name]):
                assert array.shape == shape
                assert array.tobytes() == np.array(want).reshape(shape).tobytes()
            assert np.array_equal(*held[name])
    assert store.step == 5


def test_adam_descends_on_constant_gradient():
    store = ParameterStore()
    store.add("w", 5.0)
    v0 = store.value("w").item()
    adam_update(store, {"w": Tensor(2.0)}, learning_rate=0.01)
    v1 = store.value("w").item()
    adam_update(store, {"w": Tensor(2.0)}, learning_rate=0.01)
    v2 = store.value("w").item()
    assert v1 < v0 and v2 < v1
    assert store.step == 2


def test_adam_untouched_without_gradient_entry():
    store = ParameterStore()
    store.add("w", [1.0])
    store.add("u", [2.0])
    adam_update(store, {"w": Tensor([1.0])}, learning_rate=0.1)
    np.testing.assert_array_equal(store.value("u"), [2.0])


def test_adam_shape_mismatch():
    store = ParameterStore()
    store.add("w", [1.0, 2.0])
    with pytest.raises(ShapeMismatch):
        adam_update(store, {"w": Tensor([1.0, 2.0, 3.0])}, learning_rate=0.1)


# --- gradient_check itself ---


def test_gradient_check_quadratic_is_nearly_exact():
    err = gradient_check(lambda p: p["w"] * p["w"], {"w": Tensor(3.0)}, epsilon=1e-5)
    assert err < 1e-9


def test_gradient_check_sigmoid_sum():
    rng = np.random.default_rng(5)
    err = gradient_check(
        lambda p: ad.tsum(ad.sigmoid(p["w"])),
        {"w": Tensor(rng.normal(size=4))},
        epsilon=1e-5,
    )
    assert err < 1e-7


def test_gradient_check_catches_corrupted_tanh_rule():
    # install a tanh variant whose backward drops the 1 - tanh^2 factor
    ad.register_primitive("tanh_bad", lambda d, a: np.tanh(d[0]), lambda g, d, out, a: [g])
    try:
        err = gradient_check(
            lambda p: ad.tsum(apply_primitive("tanh_bad", (p["w"],))),
            {"w": Tensor([0.7, -1.1, 0.3])},
            epsilon=1e-5,
        )
        assert err > 0.1
    finally:
        ad._PRIMITIVES.pop("tanh_bad")


def test_gradient_check_rejects_non_finite():
    with pytest.raises(ad.NonFiniteValue):
        gradient_check(lambda p: ad.log(p["w"]), {"w": Tensor(-1.0)}, epsilon=1e-5)
