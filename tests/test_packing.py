"""The packed recurrence: the layout plan, finite-difference checks of a
packed bidirectional layer and a packed decoder, the rows the recurrent
products compute, and dropout masks drawn over the padded block."""

import numpy as np
import pytest

from s2t import autodiff as ad
from s2t.autodiff import Tensor, gradient_check
from s2t.corpus import make_batch
from s2t.encoders import LstmCellParams, bidirectional_layer, final_state, packing

from util import build_tiny_model, randomize


def test_packing_lays_out_live_rows_step_by_step():
    """Rows sorted longest first (stable); each step holds its live rows;
    the reversed direction reads each row's real steps backward; the unpack
    indices send every slot to its packed position or to the zero tail."""
    plan = packing([2, 3, 1, 3], 3)
    assert plan.order.tolist() == [1, 3, 0, 2] and plan.lengths == (3, 3, 2, 1)
    assert plan.steps == ((4, 0), (3, 4), (2, 7))
    # slot t * B + b of each packed position, forward and reversed
    forward, backward = plan.slots
    assert forward.tolist() == [1, 3, 0, 2, 5, 7, 4, 9, 11]
    assert backward.tolist() == [9, 11, 4, 2, 5, 7, 0, 1, 3]
    assert plan.last.tolist() == [6, 7, 3, 8]
    # each direction's rows are followed by its own zero tail up to T * B
    unpack = plan.unpack.reshape(2, -1)
    assert unpack[0][forward].tolist() == list(range(9))
    assert sorted(unpack[0][[6, 8, 10]].tolist()) == [9, 10, 11]
    assert unpack[1][backward].tolist() == list(range(12, 21))
    assert sorted(unpack[1][[6, 8, 10]].tolist()) == [21, 22, 23]
    assert sorted(unpack.reshape(-1).tolist()) == list(range(24))
    assert not plan.sorted
    dense = packing([2, 2], 2)
    assert dense.sorted and dense.slots[0].tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="lengths"):
        packing([0, 2], 2)
    with pytest.raises(ValueError, match="lengths"):
        packing([3, 2], 2)


def _cell(rng, d, m):
    return LstmCellParams(Tensor(rng.normal(size=(4 * m, d)) * 0.6), Tensor(rng.normal(size=(4 * m, m)) * 0.6),
                          Tensor(rng.normal(size=4 * m) * 0.6))


@pytest.mark.parametrize("lengths", [[3, 1, 2], [1], [1, 1], [4, 2, 4, 1]],
                         ids=["ragged", "one-step", "one-step-two-rows", "one-live-row"])
def test_packed_bidirectional_layer_matches_finite_differences(lengths):
    """Gradients of both directions' weights and of the input block through
    the packed, stacked layer, on ragged rows, steps with exactly one live
    row and T = 1; the output block and the final state are both read."""
    rng = np.random.default_rng(sum(lengths) * 7 + len(lengths))
    steps, batch, d, m = max(lengths), len(lengths), 3, 2
    fwd, bwd = _cell(rng, d, m), _cell(rng, d, m)
    out_w = Tensor(rng.normal(size=(steps, batch, m)))
    final_w = Tensor(rng.normal(size=(batch, 2 * m)))

    def f(p):
        outputs, forward = bidirectional_layer(LstmCellParams(p["fwd.wx"], p["fwd.wh"], p["fwd.b"]),
                                               LstmCellParams(p["bwd.wx"], p["bwd.wh"], p["bwd.b"]),
                                               p["x"], np.array(lengths))
        return ad.tsum(outputs * out_w) + ad.tsum(final_state(forward, lengths) * final_w)

    point = {"x": Tensor(rng.normal(size=(steps, batch, d)))}
    for name, cell in (("fwd", fwd), ("bwd", bwd)):
        point.update({f"{name}.wx": cell.wx, f"{name}.wh": cell.wh, f"{name}.b": cell.b})
    assert gradient_check(f, point, epsilon=1e-5) < 1e-6


@pytest.mark.parametrize("task, attention, src_lens, tgt_lens", [
    pytest.param("text", "additive", (5, 1, 3), (3, 0, 1), id="text-additive-ragged"),
    pytest.param("text", "conv", (1, 1), (0, 0), id="text-conv-one-step"),
    pytest.param("speech", "additive", (7, 5, 4), (2, 0, 4), id="speech-additive-odd-pyramid"),
    pytest.param("speech", "conv", (9, 4, 5), (1, 3, 0), id="speech-conv-odd-pyramid"),
])
def test_packed_loss_matches_finite_differences(task, attention, src_lens, tgt_lens):
    """Every parameter's gradient of a tiny model's loss on a ragged batch:
    packed encoder layers (odd pyramid lengths for speech), a packed
    decoder with steps of one live row, T = 1, both attention kinds."""
    rng = np.random.default_rng(len(src_lens) * 11 + sum(tgt_lens))
    model = randomize(build_tiny_model(task=task, m=2, n=2, src_words=5, tgt_words=5, attention=attention,
                                       conv_filter_size=3, prenet_size=3), seed=sum(src_lens), scale=0.6)
    sources = [[int(w) for w in rng.integers(4, 9, n)] if task == "text" else rng.normal(size=(n, 41)) * 0.5
               for n in src_lens]
    batch = make_batch(sources, [[int(w) for w in rng.integers(4, 9, n)] for n in tgt_lens])
    point = {name: Tensor(model.store.value(name)) for name in model.store.names()}
    # criterion 1's step; near-zero coordinates set the 1e-5 floor, a wrong gradient reads O(1)
    assert gradient_check(lambda p: model.batch_nll(p, batch), point, epsilon=1e-4) < 1e-4


def _live_rows(lengths: np.ndarray, stride: int, layers: int, dec_layers: int, tgt: np.ndarray) -> int:
    """Rows the recurrent products compute: every real position past each
    encoder direction's first step, every real target position per decoder
    layer (its start state is given)."""
    total = 0
    for layer in range(layers):
        if layer and stride > 1:
            lengths = (lengths + 1) // 2
        total += 2 * int((lengths - 1).sum())
    return total + dec_layers * int(tgt.sum())


@pytest.mark.parametrize("task", ["text", "speech"])
def test_recurrent_products_compute_only_live_positions(task):
    """Summed over the encoder's and the decoder's recurrent ``matmul``
    entries, the input rows equal the live positions: no padded position
    is computed."""
    rng = np.random.default_rng(61)
    model = randomize(build_tiny_model(task=task, m=3, n=3, src_words=9, tgt_words=9), seed=62)
    src_lens = (7, 2, 5, 7) if task == "text" else (13, 6, 9, 4)
    sources = [[int(w) for w in rng.integers(4, 13, n)] if task == "text" else rng.normal(size=(n, 41)) * 0.5
               for n in src_lens]
    batch = make_batch(sources, [[4] * n for n in (2, 5, 0, 3)])
    tape = ad.Tape()
    with tape:
        params = model.store.watch(tape)
        model.batch_nll(params, batch)
    recurrent = {tape.node_of(params[f"dec.{i}.wh"]) for i in range(model.config.dec_layers)}
    enc_wh = {tape.node_of(params[f"enc.{i}.{d}.wh"])
              for i in range(model.config.enc_layers) for d in ("fwd", "bwd")}
    recurrent |= {entry.output for entry in tape.entries
                  if entry.kind == "stack" and enc_wh.issuperset(entry.inputs)}
    products = [entry for entry in tape.entries if entry.kind == "matmul" and entry.inputs[1] in recurrent]
    rows = sum(int(np.prod(tape.values[entry.inputs[0]].shape[:-1])) for entry in products)
    cfg = model.config
    assert rows == _live_rows(batch.src_lengths, cfg.stride, cfg.enc_layers, cfg.dec_layers,
                              batch.tgt_mask.sum(axis=1).astype(int))
    steps, rows_per_step = batch.src.shape[1], batch.size
    padded = cfg.dec_layers * batch.dec_in.size
    for layer in range(cfg.enc_layers):
        steps = (steps + 1) // 2 if layer and cfg.stride > 1 else steps
        padded += 2 * (steps - 1) * rows_per_step
    assert rows < padded


@pytest.mark.parametrize("task", ["text", "speech"])
def test_dropout_masks_are_the_padded_draws_at_real_positions(task):
    """In train mode (dropout 0.3) every mask is drawn over the padded
    [T, B, d] block in the parent order, so the RNG stream is unchanged:
    encoder masks are the whole draw, the packed decoder's are the draw's
    real positions."""
    rng = np.random.default_rng(63)
    model = randomize(build_tiny_model(task=task, m=3, n=3, src_words=9, tgt_words=9, dropout=0.3), seed=64)
    sources = [[int(w) for w in rng.integers(4, 13, n)] if task == "text" else rng.normal(size=(n, 41)) * 0.5
               for n in ((6, 3, 5) if task == "text" else (12, 7, 9))]
    batch = make_batch(sources, [[4, 5], [6, 4, 5, 7], []])
    tape = ad.Tape()
    with tape:
        model.batch_nll(model.store.watch(tape), batch, np.random.default_rng(65))
    masks = [entry.attrs["mask"] for entry in tape.entries if entry.kind == "dropout"]
    steps, batch_size = batch.dec_in.T.shape
    plan = packing(batch.tgt_mask.sum(axis=1).astype(int), steps)
    replay = np.random.default_rng(65)
    encoder = model.config.enc_layers - 1
    assert len(masks) == encoder + model.config.dec_layers - 1
    for index, mask in enumerate(masks):
        shape = mask.shape if index < encoder else (steps, batch_size, mask.shape[-1])
        drawn = (replay.random(shape) >= 0.3) * (1.0 / 0.7)
        if index >= encoder:
            drawn = drawn.reshape(-1, shape[-1])[plan.slots[0]]
        assert mask.tobytes() == drawn.tobytes()
