"""Where the traced run records spans and counts, and how they become the
per-layer metrics.

Every function is wrapped under the name its caller looks it up by (for
example ``s2t.model.backprop``, the global ``Seq2SeqModel.train_step``
calls), so the wrappers see exactly the calls the program makes.  Times
are self times: a span's duration minus its child spans'.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from tracer import Tracer

# span name -> the targets it wraps, each as its caller looks it up
SPANS = {
    "autodiff.backprop": ("s2t.model.backprop", "s2t.autodiff.backprop"),
    "autodiff.adam": ("s2t.model.adam_update",),
    "encoders.prenet": ("s2t.model.speech_prenet",),
    "encoders.layer": ("s2t.encoders.bidirectional_layer",),
    "attention.project": ("s2t.model.project_encoder",),
    "attention.scores": ("s2t.model.additive_scores", "s2t.model.convolutional_scores"),
    "attention.attend": ("s2t.model.attend",),
    "model.encode": ("s2t.model.Seq2SeqModel.encode",),
    "model.train_step": ("s2t.model.Seq2SeqModel.train_step",),
    "model.step": ("s2t.model.DecoderCore.step",),
    "search": ("s2t.cli.beam_search",),
    "lm.fused_rows": ("s2t.search.fused_log_rows",),
    "lm.load": ("s2t.cli.load_lm",),
    "checkpoint.save": ("s2t.checkpoint.save_checkpoint",),
    "checkpoint.load": ("s2t.cli.load_checkpoint", "s2t.checkpoint.load_checkpoint"),
    "audio.wav_read": ("s2t.cli.load_pcm_wav",),
    "audio.features": ("s2t.cli.extract_features",),
    "audio.archive_write": ("s2t.cli.write_feature_archive",),
    "audio.archive_read": ("s2t.cli.read_feature_archive", "s2t.audio.read_feature_archive"),
    "corpus.batch": ("s2t.corpus.make_batch", "s2t.training.make_batches"),
    "training.dev_loss": ("s2t.training.dev_loss",),
    "training.dev_bleu": ("s2t.training.dev_greedy_bleu",),
    "bleu.corpus_bleu": ("s2t.training.corpus_bleu",),
    "cli.translate": ("s2t.cli.cmd_translate",),
}

# self-time metrics: metric name -> span name
SELF_TIMES = {
    "autodiff.backprop_s": "autodiff.backprop",
    "autodiff.adam_s": "autodiff.adam",
    "encoders.prenet_s": "encoders.prenet",
    "encoders.layer1_s": "encoders.layer1",
    "encoders.layer2_s": "encoders.layer2",
    "encoders.layer3_s": "encoders.layer3",
    "attention.project_s": "attention.project",
    "attention.scores_s": "attention.scores",
    "attention.attend_s": "attention.attend",
    "model.encode_s": "model.encode",
    "model.train_step_s": "model.train_step",
    "model.step_self_s": "model.step",
    "search.self_s": "search",
    "lm.fused_rows_s": "lm.fused_rows",
    "lm.load_s": "lm.load",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
    "audio.wav_read_s": "audio.wav_read",
    "audio.features_s": "audio.features",
    "audio.archive_write_s": "audio.archive_write",
    "audio.archive_read_s": "audio.archive_read",
    "corpus.batch_s": "corpus.batch",
    "training.dev_loss_s": "training.dev_loss",
    "training.dev_bleu_s": "training.dev_bleu",
    "bleu.corpus_bleu_s": "bleu.corpus_bleu",
    "cli.translate_self_s": "cli.translate",
}

# end-to-end figures measured untraced inside the traced run, by workload;
# a workload reports 0 for the ones it does not run
NAMED_FIGURES = {
    "train_tokens_per_s": "tokens/s",
    "save_point_s": "s",
    "extract_x_realtime": "audio_s/s",
    "greedy_sent_per_s": "inputs/s",
    "beam8_sent_per_s": "inputs/s",
    "beam8_lm_sent_per_s": "inputs/s",
    "ensemble3_sent_per_s": "inputs/s",
    "speech_beam8_sent_per_s": "inputs/s",
    "gradcheck_probes_per_s": "probes/s",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def instrument(tracer: Tracer, autodiff) -> None:
    """Install every span, count hook and the primitive timers."""
    c = tracer.counts

    def on_tape(args, kwargs):
        tape = _arg(args, kwargs, 0, "tape")
        c["tapes"] += 1
        c["tape_entries"] += len(tape.entries)
        c["tape_bytes"] += sum(v.nbytes for v in tape.values)

    def on_encode(args, kwargs):
        c["layer_index"] = 0

    def layer_name(args, kwargs):
        c["layer_index"] += 1
        return f"encoders.layer{int(c['layer_index'])}"

    def on_layer(args, kwargs):
        inputs = _arg(args, kwargs, 2, "inputs")
        lengths = _arg(args, kwargs, 3, "lengths")
        steps, rows = len(inputs), inputs[0].shape[0]
        c["positions"] += 2 * steps * rows
        c["padded_positions"] += steps * rows
        c["live_positions"] += steps * rows if lengths is None else int(np.minimum(lengths, steps).sum())

    def on_step(args, kwargs):
        rows = len(_arg(args, kwargs, 2, "prev_ids"))
        c["step_rows"] += rows
        if tracer.inside("search"):
            c["search_rows"] += rows
            c["search_step_calls"] += 1

    def on_search(args, kwargs):
        c["search_start"] = c["search_step_calls"]

    def after_search(args, kwargs, result):
        models = _arg(args, kwargs, 0, "models")
        c["searches"] += 1
        c["search_iterations"] += (c["search_step_calls"] - c["search_start"]) / len(models)
        c["search_finished"] += bool(result.finished)

    def on_nll(args, kwargs):
        mask = _arg(args, kwargs, 2, "batch").tgt_mask
        c["target_real"] += float(mask.sum())
        c["target_padded"] += mask.size

    def checkpoint_size(args, kwargs, result):
        path = _arg(args, kwargs, 0, "path")
        c["checkpoint_mb"] = max(c["checkpoint_mb"], os.path.getsize(path) / 1e6)

    before = {"s2t.model.backprop": on_tape, "s2t.autodiff.backprop": on_tape,
              "s2t.model.Seq2SeqModel.encode": on_encode,
              "s2t.encoders.bidirectional_layer": on_layer,
              "s2t.model.DecoderCore.step": on_step, "s2t.cli.beam_search": on_search}
    after = {"s2t.cli.beam_search": after_search,
             "s2t.checkpoint.save_checkpoint": checkpoint_size,
             "s2t.cli.load_checkpoint": checkpoint_size,
             "s2t.checkpoint.load_checkpoint": checkpoint_size}
    for span, targets in SPANS.items():
        for target in targets:
            name = layer_name if span == "encoders.layer" else span
            tracer.wrap(target, name, before.get(target), after.get(target))
    tracer.wrap("s2t.model.Seq2SeqModel.batch_nll", None, on_nll)
    tracer.time_primitives(autodiff)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, windows: list, untraced: list, figures: dict,
                  attempted: int, failed: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}, totals over the traced
    passes (``windows``, as (start, end)); ``untraced`` holds the wall
    times of the matching untraced passes.  Metrics of a span with a
    missing target are left out."""
    c = tracer.counts
    self_s, calls = tracer.self_times()
    present = {span for span, targets in SPANS.items()
               if not tracer.missing.intersection(targets)}
    if "encoders.layer" in present:
        present |= {"encoders.layer1", "encoders.layer2", "encoders.layer3"}
    out = {}
    for metric, span in SELF_TIMES.items():
        if span in present:
            out[metric] = (self_s.get(span, 0.0), "s")
    if "autodiff.backprop" in present:
        out["autodiff.backprop_self_s"] = (self_s.get("autodiff.backprop", 0.0)
                                           - sum(tracer.prim_bwd_s.values()), "s")
        out["autodiff.tape_entries"] = (_ratio(c["tape_entries"], c["tapes"]), "count")
        out["autodiff.tape_mb"] = (_ratio(c["tape_bytes"], c["tapes"]) / 1e6, "MB")
    for kind in sorted(tracer.prim_calls):
        out[f"autodiff.fwd.{kind}_s"] = (tracer.prim_fwd_s.get(kind, 0.0), "s")
        out[f"autodiff.bwd.{kind}_s"] = (tracer.prim_bwd_s.get(kind, 0.0), "s")
        out[f"autodiff.calls.{kind}"] = (tracer.prim_calls[kind], "count")
    if "encoders.layer" in present:
        out["encoders.positions"] = (c["positions"], "count")
        out["encoders.live_ratio"] = (_ratio(c["live_positions"], c["padded_positions"]), "ratio")
    if "model.step" in present:
        out["model.step_rows"] = (c["step_rows"], "count")
    if "s2t.model.Seq2SeqModel.batch_nll" not in tracer.missing:
        out["model.target_live_ratio"] = (_ratio(c["target_real"], c["target_padded"]), "ratio")
    if {"search", "model.step"} <= present:
        out["search.rows_per_step"] = (_ratio(c["search_rows"], c["search_step_calls"]), "rows")
        out["search.steps_per_sentence"] = (_ratio(c["search_iterations"], c["searches"]), "steps")
        out["search.finished_ratio"] = (_ratio(c["search_finished"], c["searches"]), "ratio")
    if "lm.fused_rows" in present:
        out["lm.fused_rows_calls"] = (calls.get("lm.fused_rows", 0), "count")
    if "checkpoint.save" in present or "checkpoint.load" in present:
        out["checkpoint.mb"] = (c["checkpoint_mb"], "MB")
    traced = [end - start for start, end in windows]
    covered = sum(tracer.covered_seconds(start, end) for start, end in windows)
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    out["trace.uncovered_share"] = (1.0 - covered / sum(traced), "ratio")
    out["failed_op_ratio"] = (_ratio(failed, attempted), "ratio")
    for name, unit in NAMED_FIGURES.items():
        out[name] = (figures.get(name, 0.0), unit)
    return out
