"""The attention decoder and the full sequence-to-sequence model.

With no input feeding the decoder LSTMs never read attention, so a decoder
pass embeds a [T, B] block of previous target tokens, runs each LSTM layer
over it, attends step by step over the encoder outputs with the top-layer
state (the cell/hidden concatenation) and merges each LSTM output with its
context.  Dropout between the LSTM layers is drawn as in the encoder, by
``encoders.dropout_between_layers``.  Training is teacher-forced cross
entropy over the whole target block, normalized per real target token;
search advances one position.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .attention import (AttentionParams, additive_scores, attend, attend_arrays, convolutional_scores,
                        padding_bias, project_encoder)
from .audio import FEATURE_DIM
from .autodiff import ParameterStore, Tape, Tensor, adam_update, backprop
from .config import RunConfig
from .encoders import (LstmCellParams, dropout_between_layers, lstm_arrays, pyramidal_encode, run_lstm,
                       speech_prenet)


class DivergenceError(ArithmeticError):
    """Training loss became non-finite."""


@dataclass
class DecoderState:
    """Per-layer (cell, hidden) pairs plus the previous attention weights."""

    layers: list[tuple[Tensor, Tensor]]
    attn_weights: Optional[Tensor] = None


def parameter_shapes(config: RunConfig, src_vocab_size: Optional[int], tgt_vocab_size: int) -> dict:
    """Every named parameter with its shape, as implied by the configuration."""
    cfg = config.resolved()
    m, n = cfg.hidden_size, cfg.embed_size
    shapes: dict[str, tuple] = {}
    if cfg.task == "text":
        if src_vocab_size is None:
            raise ValueError("text task needs a source vocabulary size")
        shapes["src_embed"] = (n, src_vocab_size)
        enc_input = n
    else:
        p = cfg.prenet_size
        shapes["prenet.0.w"] = (p, FEATURE_DIM)
        shapes["prenet.0.b"] = (p,)
        shapes["prenet.1.w"] = (p, p)
        shapes["prenet.1.b"] = (p,)
        enc_input = p
    for layer in range(cfg.enc_layers):
        for direction in ("fwd", "bwd"):
            _lstm_shapes(shapes, f"enc.{layer}.{direction}", enc_input if layer == 0 else m, m)
    shapes["dec.embed"] = (n, tgt_vocab_size)
    shapes["dec.init_w"] = (2 * m, 2 * m)
    for layer in range(cfg.dec_layers):
        _lstm_shapes(shapes, f"dec.{layer}", n if layer == 0 else m, m)
    shapes["dec.merge_w"] = (m, 2 * m)
    shapes["dec.merge_b"] = (m,)
    shapes["dec.vocab_w"] = (tgt_vocab_size, m)
    shapes["dec.vocab_b"] = (tgt_vocab_size,)
    shapes["attn.enc_w"] = (m, m)
    shapes["attn.state_w"] = (m, 2 * m)
    shapes["attn.bias"] = (m,)
    shapes["attn.score_v"] = (m,)
    if cfg.attention == "conv":
        shapes["attn.conv_gate"] = (m,)
        shapes["attn.conv_filter"] = (cfg.conv_filter_size,)
    return shapes


def _lstm_shapes(shapes: dict, prefix: str, d: int, m: int) -> None:
    shapes.update({f"{prefix}.wx": (4 * m, d), f"{prefix}.wh": (4 * m, m), f"{prefix}.b": (4 * m,)})


def init_parameters(store: ParameterStore, shapes: dict, hidden_size: int, seed: int) -> None:
    """Glorot-uniform matrices; zero biases except LSTM forget gates at 1."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    m = hidden_size
    for name in sorted(shapes):
        shape = shapes[name]
        if name.endswith((".b", "_b", "bias")):
            value = np.zeros(shape)
            if name.endswith(".b") and name[:-2] + ".wx" in shapes:
                value[m:2 * m] = 1.0  # LSTM gate bias: forget gate starts open
        elif len(shape) == 1:
            limit = np.sqrt(6.0 / (shape[0] + 1))
            value = rng.uniform(-limit, limit, shape)
        else:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            value = rng.uniform(-limit, limit, shape)
        store.add(name, value)


class Seq2SeqModel:
    """Configuration, parameters and vocabularies bundled with the forward,
    loss and training-step logic."""

    def __init__(self, config: RunConfig, store: ParameterStore,
                 src_vocab=None, tgt_vocab=None, feat_stats=None):
        self.config = config.resolved()
        self.store = store
        self.src_vocab = src_vocab
        self.tgt_vocab = tgt_vocab
        self.feat_stats = feat_stats

    @classmethod
    def build(cls, config: RunConfig, src_vocab=None, tgt_vocab=None, feat_stats=None) -> "Seq2SeqModel":
        cfg = config.resolved()
        src_size = len(src_vocab) if src_vocab is not None else None
        shapes = parameter_shapes(cfg, src_size, len(tgt_vocab))
        store = ParameterStore()
        init_parameters(store, shapes, cfg.hidden_size, cfg.seed)
        return cls(cfg, store, src_vocab, tgt_vocab, feat_stats)

    # --- assembly helpers ---

    def attention_params(self, tensors) -> AttentionParams:
        conv = self.config.attention == "conv"
        return AttentionParams(
            enc_w=tensors["attn.enc_w"],
            state_w=tensors["attn.state_w"],
            bias=tensors["attn.bias"],
            score_v=tensors["attn.score_v"],
            conv_gate=tensors["attn.conv_gate"] if conv else None,
            conv_filter=tensors["attn.conv_filter"] if conv else None,
        )

    # --- forward passes ---

    def encode(self, tensors, src_block: np.ndarray, lengths: np.ndarray, rng=None):
        """Runs the [S, B, d] block of embedded ids or prenet frames through the
        encoder, with dropout when ``rng`` is given; returns (h [A', B, m],
        encoder mask [B, A'], final state [B, 2m])."""
        if self.config.task == "text":
            inputs = ad.embedding(tensors["src_embed"], src_block.T)
        else:
            frames = Tensor(np.ascontiguousarray(np.swapaxes(src_block, 0, 1)))  # [S, B, D]
            layers = [(tensors["prenet.0.w"], tensors["prenet.0.b"]),
                      (tensors["prenet.1.w"], tensors["prenet.1.b"])]
            inputs = speech_prenet(layers, frames)
        cells = [(_cell(tensors, f"enc.{layer}.fwd"), _cell(tensors, f"enc.{layer}.bwd"))
                 for layer in range(self.config.enc_layers)]
        h, final, out_lengths = pyramidal_encode(self.config, cells, inputs, np.asarray(lengths), rng)
        enc_mask = np.arange(len(h))[None, :] < out_lengths[:, None]
        return h, enc_mask, final

    def start(self, tensors, src_block: np.ndarray, lengths: np.ndarray, rng=None):
        """``encode``, then the decoder over its outputs, with dropout when ``rng``
        is given; returns (decoder core, initial state).  Every pass starts here."""
        h, enc_mask, final = self.encode(tensors, src_block, lengths, rng)
        core = DecoderCore(self, tensors, h, enc_mask, rng)
        return core, core.init_state(final)

    def batch_nll(self, tensors, batch, rng=None):
        """Teacher-forced negative log likelihood, averaged over the real
        target tokens in the batch; dropout runs when ``rng`` is given."""
        if batch.dec_in.shape[1] == 0:
            raise ValueError("empty target")
        core, state = self.start(tensors, batch.src, batch.src_lengths, rng)
        _, merged, _ = core.advance(state, batch.dec_in.T)
        # the output layer runs once, over the real rows of the time-major [T*B] block
        real = np.flatnonzero(batch.tgt_mask.T.reshape(-1))
        rows = ad.apply_primitive("slice", (ad.reshape(merged, (-1, merged.shape[2])),), axis=0, index=real)
        picked = ad.pick(core.output(rows), batch.dec_out.T.reshape(-1)[real])
        return ad.tsum(ad.log(picked)).scaled(-1.0 / batch.real_token_count)

    def train_step(self, batch, step_index: int) -> float:
        """One optimizer step; returns the pre-update loss.

        Dropout masks are seeded from (seed, step_index) so an interrupted
        run can resume bit-exactly.  The order is backprop, drop the tape,
        then Adam: the tape and every activation it holds are freed before
        Adam builds the new parameter arrays.
        """
        rng = np.random.default_rng(np.random.SeedSequence([self.config.seed, step_index]))
        tape = Tape()
        with tape:
            tensors = self.store.watch(tape)
            loss = self.batch_nll(tensors, batch, rng)
        value = loss.item()
        if not np.isfinite(value):
            raise DivergenceError(f"non-finite loss at step {step_index}")
        grads = backprop(tape, loss)
        del tape, tensors, loss
        adam_update(self.store, grads, self.config.learning_rate)
        return value


def _cell(tensors, prefix: str) -> LstmCellParams:
    return LstmCellParams(tensors[f"{prefix}.wx"], tensors[f"{prefix}.wh"], tensors[f"{prefix}.b"])


class DecoderCore:
    """Per-pass decoder: the weights, the projected encoder block and the
    attention configuration for one source batch; dropout between the LSTM
    layers when ``rng`` is given."""

    def __init__(self, model: Seq2SeqModel, tensors, h: Tensor, enc_mask: np.ndarray, rng=None):
        cfg = model.config
        self.config = cfg
        self.h = h
        self.enc_mask = np.asarray(enc_mask, dtype=bool)
        self.rng = rng
        self.embed = tensors["dec.embed"]
        self.init_w = tensors["dec.init_w"]
        self.cells = [_cell(tensors, f"dec.{i}") for i in range(cfg.dec_layers)]
        self.merge_w = tensors["dec.merge_w"]
        self.merge_b = tensors["dec.merge_b"]
        self.vocab_w = tensors["dec.vocab_w"]
        self.vocab_b = tensors["dec.vocab_b"]
        self.attn = model.attention_params(tensors)
        self.enc_proj = project_encoder(self.attn, h)
        self.pad = padding_bias(self.enc_mask)

    def select(self, sources: np.ndarray) -> "DecoderCore":
        """This core with row i attending over batch entry ``sources[i]``:
        the encoder block, its projection, mask and padding bias gathered by row."""
        view = copy.copy(self)
        view.h = Tensor(self.h.data[:, sources])
        view.enc_proj = Tensor(self.enc_proj.data[:, sources])
        view.enc_mask = self.enc_mask[sources]
        view.pad = Tensor(self.pad.data[:, sources])
        return view

    def init_state(self, enc_final: Tensor) -> DecoderState:
        """s0 = tanh(init_w . final) becomes the top layer's (cell, hidden);
        lower layers start at zero, the attention history starts empty."""
        m = self.config.hidden_size
        s0 = ad.tanh(ad.linear(enc_final, self.init_w))
        batch = s0.shape[0]
        zeros = Tensor(np.zeros((batch, m)))
        layers = [(zeros, zeros) for _ in range(self.config.dec_layers - 1)]
        layers.append((ad.slice_axis(s0, -1, 0, m), ad.slice_axis(s0, -1, m, 2 * m)))
        return DecoderState(layers=layers, attn_weights=None)

    def advance(self, state: DecoderState, prev_ids: np.ndarray):
        """Advance over a [T, B] block of previous target ids up to the output
        layer; returns (state', merge outputs [T, B, m], the T attention
        weights [B, A']).  Untaped, the layers, attention and merge run on
        the arrays (:meth:`_advance_arrays`)."""
        if not ad.recording():
            return self._advance_arrays(state, ad.embedding_array(self.embed.data, prev_ids))
        cfg = self.config
        x = ad.embedding(self.embed, prev_ids)
        layers = []
        for layer, (cell, start) in enumerate(zip(self.cells, state.layers)):
            if layer > 0:
                x = dropout_between_layers(x, cfg.dropout, self.rng)
            cells, hidden = run_lstm(ad.linear(x, cell.wx, cell.b), cell.wh, range(len(prev_ids)), start)
            layers.append((cells[-1], hidden[-1]))
            x = ad.stack(hidden)
        # attention reads each step's top-layer state, conv also the weights before it
        weights, rows, contexts = state.attn_weights, [], []
        for c_t, h_t in zip(cells, hidden):
            s_t = ad.concat([c_t, h_t])
            if cfg.attention == "conv":
                scores = convolutional_scores(self.attn, self.enc_proj, s_t, weights, self.pad)
            else:
                scores = additive_scores(self.attn, self.enc_proj, s_t, self.pad)
            weights, context = attend(scores, self.h)
            rows.append(weights)
            contexts.append(context)
        merged = ad.linear(ad.concat([x, ad.stack(contexts)]), self.merge_w, self.merge_b)
        return DecoderState(layers=layers, attn_weights=weights), merged, rows

    def _advance_arrays(self, state: DecoderState, x: np.ndarray):
        """:meth:`advance` from the embedded [T, B, n] array, untaped: the
        chain's numpy operations in its order, so every result is bit-equal
        to the taped one; only the results become Tensors."""
        cfg, attn = self.config, self.attn
        layers = []
        for layer, (cell, (c0, h0)) in enumerate(zip(self.cells, state.layers)):
            if layer > 0:
                x = dropout_between_layers(ad.wrap(x), cfg.dropout, self.rng).data
            cells, hidden = lstm_arrays(x, cell, range(len(x)), (c0.data, h0.data))
            layers.append((ad.wrap(cells[-1]), ad.wrap(hidden[-1])))
            x = hidden
        inputs = (self.enc_proj.data, self.h.data)
        params = (attn.state_w.data, attn.bias.data, attn.score_v.data, self.pad.data)
        weights = None if state.attn_weights is None else state.attn_weights.data
        rows, contexts = [], []
        for c_t, h_t in zip(cells, hidden):
            conv = () if cfg.attention != "conv" or weights is None else (
                weights, attn.conv_filter.data, attn.conv_gate.data)
            weights, context = attend_arrays(*inputs, np.concatenate([c_t, h_t], axis=-1), *params, *conv)
            rows.append(ad.wrap(weights))
            contexts.append(context)
        merged = ad.linear_array(np.concatenate([x, np.stack(contexts)], axis=-1),
                                 self.merge_w.data, self.merge_b.data)
        return DecoderState(layers=layers, attn_weights=rows[-1]), ad.wrap(merged), rows

    def output(self, merged: Tensor) -> Tensor:
        """Softmax over the target vocabulary of merge outputs [rows, m]."""
        return ad.softmax(ad.linear(merged, self.vocab_w, self.vocab_b))

    def step(self, state: DecoderState, prev_ids: np.ndarray):
        """Advance one target position; returns (state', distribution [B, V],
        attention weights [B, A'])."""
        state, merged, rows = self.advance(state, np.asarray(prev_ids)[None])
        return state, self.output(merged[0] if ad.recording() else ad.wrap(merged.data[0])), rows[0]


def gather_state(state: DecoderState, index: np.ndarray) -> DecoderState:
    """Reorder the batch dimension of a decoder state (beam bookkeeping)."""
    layers = [(Tensor(c.data[index]), Tensor(h.data[index])) for c, h in state.layers]
    attn = None if state.attn_weights is None else Tensor(state.attn_weights.data[index])
    return DecoderState(layers=layers, attn_weights=attn)
