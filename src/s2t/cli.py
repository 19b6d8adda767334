"""Command-line surface: train, translate, evaluate, lm-train,
dump-attention and extract-features.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric divergence,
70 internal error (a fault of the program, printed with its traceback).
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from dataclasses import replace

import numpy as np

from .audio import (
    ARCHIVE_MAGIC,
    AudioFormatError,
    FeatureSequence,
    compute_feature_stats,
    extract_features,
    load_pcm_wav,
    normalize_features,
    read_feature_archive,
    write_feature_archive,
)
from .autodiff import ShapeMismatch, UnknownPrimitive
from .bleu import corpus_bleu
from .checkpoint import CheckpointError, load_checkpoint
from .config import ConfigError, RunConfig, load_config
from .corpus import (DataError, ParallelCorpus, Vocabulary, make_batch, read_lines, tokenize,
                     whole_file)
from .lm import DEFAULT_LAMBDAS, load_lm, save_lm, train_trigram
from .model import DivergenceError, Seq2SeqModel
from .search import FusionWeights, beam_search, check_limits, decode_batch
from .training import logged_best, rewind_log, train_loop


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# --- input loading: one reader for text files and feature archives ---

def _read_sources(path, task: str) -> list:
    """Raw inputs for ``task``: token lists from a text file or frame
    matrices from a feature archive.  The file kind must match the task."""
    with open(path, "rb") as fh:
        is_archive = fh.read(8) == ARCHIVE_MAGIC
    if is_archive != (task == "speech"):
        need = ("a feature archive input (S2TFEAT1)" if task == "speech"
                else "a text input, not a feature archive")
        raise DataError(f"{path}: {task} models need {need}")
    if is_archive:
        return [frames for _, frames in read_feature_archive(path)]
    return [tokenize(line) for line in read_lines(path)]


def _model_inputs(model: Seq2SeqModel, raw: list) -> list:
    """Encoder inputs for ``raw`` sources: source-vocabulary ids for text,
    frames normalized with the checkpoint's feature stats for speech."""
    if model.config.task == "text":
        return [model.src_vocab.encode_sequence(tokens) for tokens in raw]
    if model.feat_stats is None:
        raise DataError("checkpoint carries no feature-normalization stats")
    return [normalize_features(FeatureSequence(f), model.feat_stats).frames for f in raw]


def _load_pairs(config: RunConfig, src_path, tgt_path) -> list:
    """(raw source, target tokens) training pairs.  Pairs with an empty
    target or a source shorter than the encoder's stride are dropped; a
    file with no pair left is an error."""
    sources = _read_sources(src_path, config.task)
    targets = read_lines(tgt_path)
    if len(sources) != len(targets):
        raise DataError(
            f"item counts differ: {src_path} has {len(sources)}, {tgt_path} has {len(targets)}"
        )
    pairs = [(s, tokenize(t)) for s, t in zip(sources, targets)]
    min_len = config.stride
    kept = [(s, t) for s, t in pairs if len(s) >= min_len and t]
    if len(kept) < len(pairs):
        print(f"dropped {len(pairs) - len(kept)} unusable pair(s)", file=sys.stderr)
    if not kept:
        raise DataError(f"{src_path}: no usable training pairs")
    return kept


def _corpus(model: Seq2SeqModel, pairs) -> ParallelCorpus:
    return ParallelCorpus(_model_inputs(model, [s for s, _ in pairs]),
                          [model.tgt_vocab.encode_sequence(t) for _, t in pairs])


def _emit(text: str, output) -> None:
    """Write ``text`` to the ``--output`` file, whole, or else to stdout."""
    if output:
        with whole_file(output) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- commands ---


def cmd_train(args) -> int:
    overrides = {
        name: getattr(args, name)
        for name in ("task", "hidden_size", "embed_size", "dropout", "learning_rate",
                     "batch_size", "steps", "save_every", "seed", "max_vocab")
        if getattr(args, name) is not None
    }
    if (args.dev_src is None) != (args.dev_tgt is None):
        raise UsageError("--dev-src and --dev-tgt must be given together")
    if args.resume:
        model = load_checkpoint(args.resume)
        # schedule may be extended; everything else is pinned by the checkpoint
        schedule = {name: overrides[name] for name in ("steps", "save_every") if name in overrides}
        config = model.config = replace(model.config, **schedule).resolved()
        ignored = sorted(set(overrides) - set(schedule))
        if ignored:
            print(f"resuming: ignoring {', '.join(ignored)} (the checkpoint config wins)",
                  file=sys.stderr)
    else:
        config = load_config(args.config) if args.config else RunConfig()
        for name, value in overrides.items():
            setattr(config, name, value)
        config = config.resolved()
        model = None

    train_pairs = _load_pairs(config, args.train_src, args.train_tgt)
    if model is None:
        sources = [s for s, _ in train_pairs]
        text = config.task == "text"
        model = Seq2SeqModel.build(
            config,
            src_vocab=Vocabulary.from_corpus(sources, config.max_vocab) if text else None,
            tgt_vocab=Vocabulary.from_corpus([t for _, t in train_pairs], config.max_vocab),
            feat_stats=None if text else compute_feature_stats(sources))
    train_corpus = _corpus(model, train_pairs)
    dev_corpus = None
    if args.dev_src:
        dev_corpus = _corpus(model, _load_pairs(config, args.dev_src, args.dev_tgt))

    os.makedirs(args.save_dir, exist_ok=True)
    log_path = os.path.join(args.save_dir, "train.log")
    if args.resume:
        rewind_log(log_path, model.store.step)
    best = logged_best(log_path, model.store.step)  # none before a fresh run's step 0
    with open(log_path, "a" if args.resume else "w", encoding="utf-8") as log_fh:

        def log_line(text: str) -> None:
            log_fh.write(text + "\n")
            log_fh.flush()
            if not args.quiet:
                print(text)

        outcome = train_loop(model, train_corpus, dev_corpus, args.save_dir, log_line, best)
    if outcome.best_step >= 0 and not args.quiet:
        print(f"best dev BLEU {outcome.best_bleu:.2f} at step {outcome.best_step}", file=sys.stderr)
    return 0


def _load_ensemble(paths) -> list[Seq2SeqModel]:
    """The decode commands' models, each matrix in the decode layout."""
    models = [load_checkpoint(path, order="F") for path in paths]
    first = models[0]
    for path, model in zip(paths[1:], models[1:]):
        if model.config.task != first.config.task:
            raise DataError(f"{path}: task kind differs between ensemble members")
        if model.tgt_vocab != first.tgt_vocab:
            raise DataError(f"{path}: target vocabulary differs between ensemble members")
        if model.src_vocab != first.src_vocab:
            raise DataError(f"{path}: source vocabulary differs between ensemble members")
        if not _same_feat_stats(model.feat_stats, first.feat_stats):
            raise DataError(f"{path}: feature statistics differ between ensemble members")
    return models


def _same_feat_stats(a, b) -> bool:
    """Both absent, or equal arrays: every member's inputs are normalized
    with the first member's stats."""
    if a is None or b is None:
        return a is b
    return np.array_equal(a.mean, b.mean) and np.array_equal(a.std, b.std)


def cmd_translate(args) -> int:
    models = _load_ensemble(args.checkpoint)
    lm = load_lm(args.lm) if args.lm else None
    weights = FusionWeights(model_weights=args.model_weight or None,
                            lm_weight=args.lm_weight if lm else 0.0)
    weights.resolve(len(models))  # a bad weight or limit fails the run, not each input
    check_limits(args.beam_size, args.max_len)
    sources = _model_inputs(models[0], _read_sources(args.input, models[0].config.task))

    options = dict(beam_size=args.beam_size, lm=lm, weights=weights, max_len=args.max_len,
                   length_norm=args.length_norm, rescore_only=args.rescore_only)
    lines = [""] * len(sources)  # empty and too-short inputs stay empty lines
    min_len = max(model.config.stride for model in models)
    todo = []
    for index, source in enumerate(sources):
        if 0 < len(source) < min_len:
            print(f"input {index}: input too short: {len(source)} steps, need at least {min_len}; "
                  "emitting empty line", file=sys.stderr)
        elif len(source):
            todo.append(index)
    size = models[0].config.batch_size
    for group in (todo[i:i + size] for i in range(0, len(todo), size)):
        results = decode_batch(models, [sources[index] for index in group], **options)
        for index, result in zip(group, results):
            lines[index] = " ".join(models[0].tgt_vocab.decode_sequence(result.tokens))

    _emit("".join(line + "\n" for line in lines), args.output)
    return 0


def cmd_evaluate(args) -> int:
    hyp_lines = read_lines(args.hyp)
    ref_streams = []
    for path in args.ref:
        lines = read_lines(path)
        if len(lines) != len(hyp_lines):
            raise DataError(
                f"{path}: has {len(lines)} lines but {args.hyp} has {len(hyp_lines)}"
            )
        ref_streams.append(lines)
    hyps = [tokenize(line) for line in hyp_lines]
    refs = [[tokenize(stream[i]) for stream in ref_streams] for i in range(len(hyp_lines))]
    report = corpus_bleu(hyps, refs)
    precisions = "/".join(f"{100.0 * p:.2f}" for p in report.precisions)
    print(f"BLEU = {report.score:.2f}")
    print(f"precisions = {precisions}")
    print(f"brevity_penalty = {report.brevity_penalty:.4f}")
    print(f"length_ratio = {report.length_ratio:.3f} (hyp {report.hyp_length} / ref {report.ref_length})")
    return 0


def cmd_lm_train(args) -> int:
    corpus = [tokenize(line) for line in read_lines(args.corpus)]
    corpus = [tokens for tokens in corpus if tokens]
    model = train_trigram(corpus, lambdas=(args.lambda1, args.lambda2, args.lambda3))
    save_lm(args.output, model)
    print(f"trained trigram model on {len(corpus)} sentences, vocabulary {len(model.vocab)}")
    return 0


def _teacher_forced_attention(model, source, target_ids):
    batch = make_batch([source], [target_ids])
    core, state = model.start(model.store.as_tensors(), batch.src, batch.src_lengths)
    _, _, rows = core.advance(state, batch.dec_in.T)
    return np.vstack([row.data[0] for row in rows[:-1]])  # drop the EOS step


def cmd_dump_attention(args) -> int:
    (model,) = _load_ensemble([args.checkpoint])
    raw = _read_sources(args.input, model.config.task)
    if not 0 <= args.line < len(raw):
        raise DataError(f"{args.input}: item {args.line} out of range")
    source = _model_inputs(model, raw[args.line : args.line + 1])[0]

    if args.reference:
        ref_lines = read_lines(args.reference)
        if args.line >= len(ref_lines):
            raise DataError(f"{args.reference}: line {args.line} out of range")
        target_tokens = tokenize(ref_lines[args.line])
        if not target_tokens:
            raise DataError(f"{args.reference}: line {args.line} is empty")
        target_ids = model.tgt_vocab.encode_sequence(target_tokens)
        matrix = _teacher_forced_attention(model, source, target_ids)
        row_labels = target_tokens
    else:
        result = beam_search([model], source, beam_size=1)
        matrix = result.attention
        row_labels = model.tgt_vocab.decode_sequence(result.tokens)

    # a speech position covers ``stride`` frames: label it with its first frame
    source_labels = (raw[args.line] if model.config.task == "text"
                     else [str(model.config.stride * i) for i in range(matrix.shape[1])])
    out = ["token\t" + "\t".join(source_labels)]
    for label, row in zip(row_labels, matrix):
        out.append(label + "\t" + "\t".join(repr(float(v)) for v in row))
    _emit("\n".join(out) + "\n", args.output)
    return 0


def cmd_extract_features(args) -> int:
    names = sorted(n for n in os.listdir(args.wav_dir) if n.lower().endswith(".wav"))
    if not names:
        raise DataError(f"{args.wav_dir}: no .wav files found")
    items = []
    for name in names:
        audio = load_pcm_wav(os.path.join(args.wav_dir, name))
        feats = extract_features(audio, window_ms=args.window_ms, hop_ms=args.hop_ms)
        items.append((os.path.splitext(name)[0], feats.frames.astype(np.float32)))
    write_feature_archive(args.output, items)
    print(f"wrote {len(items)} utterance(s) to {args.output}")
    return 0


# --- parser ---


def build_parser() -> _Parser:
    parser = _Parser(prog="s2t", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model with periodic checkpoints")
    p.add_argument("--task", choices=("text", "speech"))
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--train-src", required=True, help="source text file or feature archive")
    p.add_argument("--train-tgt", required=True)
    p.add_argument("--dev-src")
    p.add_argument("--dev-tgt")
    p.add_argument("--save-dir", required=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--hidden-size", type=int)
    p.add_argument("--embed-size", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--save-every", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-vocab", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", help="decode a text file or feature archive")
    p.add_argument("--checkpoint", action="append", required=True,
                   help="repeat for a log-linear ensemble")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--beam-size", type=int, default=8,
                   help="1 reproduces the greedy decoder exactly (default 8)")
    p.add_argument("--lm", help="trigram model file for shallow fusion")
    p.add_argument("--lm-weight", type=float, default=0.2)
    p.add_argument("--model-weight", action="append", type=float)
    p.add_argument("--max-len", type=int)
    p.add_argument("--length-norm", action="store_true")
    p.add_argument("--rescore-only", action="store_true",
                   help="apply the LM to finished hypotheses instead of during expansion")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="multi-reference corpus BLEU")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", action="append", required=True, help="repeat per reference stream")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("lm-train", help="estimate the interpolated trigram model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--lambda1", type=float, default=DEFAULT_LAMBDAS[0])
    p.add_argument("--lambda2", type=float, default=DEFAULT_LAMBDAS[1])
    p.add_argument("--lambda3", type=float, default=DEFAULT_LAMBDAS[2])
    p.set_defaults(func=cmd_lm_train)

    p = sub.add_parser("dump-attention", help="write one item's attention matrix as TSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--line", type=int, default=0)
    p.add_argument("--reference", help="teacher-force this reference file's matching line")
    p.add_argument("--output")
    p.set_defaults(func=cmd_dump_attention)

    p = sub.add_parser("extract-features", help="WAV directory to feature archive")
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--window-ms", type=int, default=40)
    p.add_argument("--hop-ms", type=int, default=10)
    p.set_defaults(func=cmd_extract_features)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args) or 0
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 3
    except (ShapeMismatch, UnknownPrimitive) as exc:  # ValueErrors the program, not its input, raised
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 70  # EX_SOFTWARE
    except (DataError, CheckpointError, ConfigError, AudioFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
