"""Training loop with periodic checkpointing, dev validation and
machine-parseable logging.

One log line per step: ``step<TAB>trainLoss<TAB>devLoss<TAB>devBLEU`` with
``-`` in the dev columns outside evaluation steps.  Dev BLEU uses greedy
decoding.  Batch shuffling is derived from (seed, epoch) and dropout from
(seed, step), so a resumed run reproduces an uninterrupted one exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

from .bleu import corpus_bleu
from .corpus import ParallelCorpus, make_batches, whole_file
from .model import Seq2SeqModel
from .search import decode_batch


def _epoch_shuffle_seed(seed: int, epoch: int) -> int:
    return seed * 1_000_003 + epoch


def dev_loss(model: Seq2SeqModel, corpus: ParallelCorpus) -> float:
    tensors = model.store.as_tensors()
    total, tokens = 0.0, 0.0
    for batch in make_batches(corpus, model.config.batch_size, shuffle_seed=0):
        count = batch.real_token_count
        total += model.batch_nll(tensors, batch).item() * count
        tokens += count
    return total / tokens


def dev_greedy_bleu(model: Seq2SeqModel, corpus: ParallelCorpus) -> float:
    """Corpus BLEU of greedy decodes, in groups of ``batch_size`` sources."""
    size = model.config.batch_size
    hyps = [model.tgt_vocab.decode_sequence(result.tokens)
            for start in range(0, len(corpus.sources), size)
            for result in decode_batch([model], corpus.sources[start:start + size], beam_size=1)]
    refs = [[model.tgt_vocab.decode_sequence(target)] for target in corpus.targets]
    return corpus_bleu(hyps, refs).score


@dataclass(frozen=True)
class TrainOutcome:
    best_step: int
    best_bleu: float


NO_BEST = TrainOutcome(-1, -1.0)


def logged_best(log_path, last_step: int) -> TrainOutcome:
    """The best save point a ``train.log`` records up to ``last_step``:
    the highest logged dev BLEU, the earliest step on ties.  Lines that do
    not parse (a run cut mid-write) are skipped; no log, no best."""
    best = NO_BEST
    if not os.path.exists(log_path):
        return best
    with open(log_path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            try:
                step, bleu = int(fields[0]), float(fields[3])
            except (IndexError, ValueError):  # "-" outside save points
                continue
            if step <= last_step and (bleu, -step) > (best.best_bleu, -best.best_step):
                best = TrainOutcome(step, bleu)
    return best


def rewind_log(log_path, last_step: int) -> None:
    """Rewrite ``train.log`` with only its whole lines up to ``last_step``,
    so that a run resumed from that step appends one line per step.  The
    new log is written whole."""
    if not os.path.exists(log_path):
        return
    kept = []
    with open(log_path, encoding="utf-8") as fh:
        for line in fh:
            step = line.split("\t", 1)[0]
            if line.endswith("\n") and step.isdecimal() and int(step) <= last_step:
                kept.append(line)
    with whole_file(log_path) as fh:
        fh.writelines(kept)


def train_loop(
    model: Seq2SeqModel,
    train_corpus: ParallelCorpus,
    dev_corpus: Optional[ParallelCorpus],
    save_dir: str,
    log_line: Callable[[str], None],
    best: TrainOutcome = NO_BEST,
) -> TrainOutcome:
    """Runs from the store's current step up to ``config.steps``.

    Checkpoints go to ``save_dir`` as ``ckpt-<step>.ckpt`` plus
    ``best.ckpt``, ranked by the dev BLEU the log records (two decimals;
    the earliest save point wins ties).  ``best`` is the ranking so far,
    which a resumed run recovers with :func:`logged_best`.
    """
    from .checkpoint import save_checkpoint

    os.makedirs(save_dir, exist_ok=True)
    config = model.config
    batches: list = []
    batches_per_epoch = max(1, -(-len(train_corpus) // config.batch_size))
    best_path = os.path.join(save_dir, "best.ckpt")

    step = model.store.step
    while step < config.steps:
        step += 1
        epoch, offset = divmod(step - 1, batches_per_epoch)
        if offset == 0 or not batches:
            batches = make_batches(train_corpus, config.batch_size,
                                   shuffle_seed=_epoch_shuffle_seed(config.seed, epoch))
        loss = model.train_step(batches[offset], step)

        dev_loss_text = dev_bleu_text = "-"
        at_save_point = step % config.save_every == 0 or step == config.steps
        if at_save_point:
            if dev_corpus is not None:
                d_loss = dev_loss(model, dev_corpus)
                dev_loss_text, dev_bleu_text = repr(d_loss), f"{dev_greedy_bleu(model, dev_corpus):.2f}"
            save_checkpoint(os.path.join(save_dir, f"ckpt-{step}.ckpt"), model)
            if dev_bleu_text != "-" and float(dev_bleu_text) > best.best_bleu:
                best = TrainOutcome(step, float(dev_bleu_text))
                save_checkpoint(best_path, model)
        log_line(f"{step}\t{loss!r}\t{dev_loss_text}\t{dev_bleu_text}")
    return best
