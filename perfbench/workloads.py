"""The three benchmark workloads.

Each workload builds its inputs from the seed, runs as one closed-loop
client (the next operation starts when the previous one returns), checks
the program's outputs, and reports its metrics.  The program sees only
the generated inputs: token-id batches, WAV files, feature archives,
text files, checkpoints and an LM file, written under a scratch directory
inside the checkout.

Inputs are stratified so that every timed operation of one workload does
the same amount of work whatever the seed: each text batch holds every
source length equally often, and decode input lines and utterances have
fixed lengths.  The seed changes the content (token ids, audio, initial
weights), not the sizes.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import time
import traceback
import wave
from dataclasses import dataclass

import numpy as np

from s2t import audio, autodiff, checkpoint, cli, corpus, lm, search, training
from s2t.config import RunConfig
from s2t.model import Seq2SeqModel

GRADCHECK_TOLERANCE = 1e-3   # acceptance criterion 1
GRADCHECK_EPSILON = 1e-4     # the step criterion 1 uses
SAMPLE_RATE = 16000
WINDOW, HOP = 640, 160       # 40 ms / 10 ms at 16 kHz, the extract-features defaults
TINY_STEPS = 5               # tiny train steps after the gradient checks of a traced pass


@dataclass(frozen=True)
class Sizes:
    hidden: int = 256
    embed: int = 256
    prenet: int = 256
    conv_filter: int = 25
    vocab: int = 4000                          # both sides, reserved ids included
    text_batch: int = 64
    text_lengths: tuple = tuple(range(6, 14))  # each text batch holds each length equally often
    text_batches: int = 4                      # distinct batches the train loop cycles through
    dev_lengths: tuple = (7, 9, 11, 13)        # dev set of the save point
    decode_lengths: tuple = (7, 10, 13)        # text input lines of the ladder
    decode_frames: tuple = (281,)              # utterances of the speech rung, the BTEC mean
    lm_sentences: int = 1000
    ensemble: int = 3
    gradcheck_coords: int = 400                # coordinates of the fixed subset, at least


FULL = Sizes()
# tiny sizes for the smoke self-test only
SMOKE = Sizes(hidden=8, embed=8, prenet=8, conv_filter=5, vocab=24, text_batch=4,
              text_lengths=(3, 5), text_batches=2, dev_lengths=(3, 4),
              decode_lengths=(3, 5), decode_frames=(40,),
              lm_sentences=40, gradcheck_coords=20)


class Ledger:
    """Attempted and failed operations; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, count: int, failed: int = 0, why: str = "") -> None:
        self.attempted += count
        self.failed += failed
        if failed:
            print(f"check failed ({failed} of {count}): {why}", file=sys.stderr)

    def attempt(self, count: int, what: str, fn, *args):
        """Run one operation; an exception fails it and the loop goes on."""
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            self.add(count, count, f"{what} raised")
            return None


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _word_vocab(size: int) -> corpus.Vocabulary:
    return corpus.Vocabulary([f"w{i}" for i in range(size - len(corpus.RESERVED_TOKENS))])


def _words(rng, sizes: Sizes, length: int) -> list[int]:
    return [int(i) for i in rng.integers(len(corpus.RESERVED_TOKENS), sizes.vocab, length)]


def _config(sizes: Sizes, task: str, seed: int, batch: int) -> RunConfig:
    return RunConfig(task=task, hidden_size=sizes.hidden, embed_size=sizes.embed,
                     prenet_size=sizes.prenet, conv_filter_size=sizes.conv_filter,
                     batch_size=batch, seed=seed % 2**31).resolved()


def _cli(argv: list[str]) -> tuple[int, str]:
    """Runs one ``s2t`` command in-process; returns (exit code, stderr)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        print(f"s2t {argv[0]} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code, err.getvalue()


def _samples_for(frames: int) -> int:
    # half a hop of slack, discarded as a trailing partial frame
    return WINDOW + (frames - 1) * HOP + HOP // 2


def _write_wav(path: str, rng, frames: int) -> None:
    """A seeded speech-like signal: three partials under a syllable-rate
    envelope plus noise, as 16 kHz mono 16-bit PCM."""
    n = _samples_for(frames)
    t = np.arange(n) / SAMPLE_RATE
    freqs = rng.uniform(120.0, 3000.0, 3)
    signal = sum(np.sin(2 * np.pi * f * t + p) for f, p in zip(freqs, rng.uniform(0, 6.3, 3)))
    envelope = 0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(3.0, 6.0) * t)
    signal = 0.25 * envelope * signal / 3.0 + rng.normal(0.0, 0.01, n)
    pcm = np.clip(signal * 32767, -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


def work_per_s(samples: dict) -> float:
    """Work per second over one operation of each kind in ``samples``
    (kind -> ``(work, seconds)`` samples), each at its fastest sample.

    On a shared host the same operation takes up to twice as long while
    neighbours load the machine, and that state changes every few seconds;
    the fastest of many samples reads the program's own cost, which a
    slower program raises just the same."""
    fastest = [max(kind, key=lambda s: s[0] / s[1]) for kind in samples.values()]
    return sum(work for work, _ in fastest) / sum(seconds for _, seconds in fastest)


class Workload:
    """Set-up, warm-up, the timed loop and the fixed work list of a traced run."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, work_dir: str):
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self, ledger: Ledger) -> None:
        raise NotImplementedError

    def timed(self, seconds: float, ledger: Ledger, samples: dict) -> None:
        """Closed loop for ``seconds``; appends ``(work, seconds)`` of each
        operation to ``samples`` under its kind.  ``samples`` collects the
        loops of several set-ups of one run, for ``work_per_s``."""
        raise NotImplementedError

    def check(self, ledger: Ledger) -> None:
        """Untimed, after the timed loop: the checks it does not reach."""

    def fixed_work(self, ledger: Ledger) -> dict:
        """Seed-determined work of the traced run; returns the named
        end-to-end figures it measured (meaningful untraced only)."""
        raise NotImplementedError


def _train_step(ledger: Ledger, model, batch, step: int) -> float:
    """One ``train_step``; a non-finite loss fails it.  Returns seconds."""
    start = time.perf_counter()
    loss = ledger.attempt(1, "train step", model.train_step, batch, step)
    elapsed = time.perf_counter() - start
    if loss is not None:
        ledger.add(1, 0 if math.isfinite(loss) else 1, f"train loss {loss}")
    return elapsed


# --------------------------------------------------------------- text_train


class TextTrain(Workload):
    """Paper-size text model on synthetic reversal: timed train steps; the
    traced run adds a save point (dev loss, dev greedy BLEU, checkpoint
    save) after its steps."""

    name = "text_train"

    def setup(self) -> None:
        s = self.sizes
        rng = _rng(self.seed, 1)
        vocab = _word_vocab(s.vocab)
        per_length = s.text_batch // len(s.text_lengths)
        self.batches = []
        for _ in range(s.text_batches):
            lengths = rng.permutation(np.repeat(s.text_lengths, per_length))
            sources = [_words(rng, s, int(n)) for n in lengths]
            self.batches.append(corpus.make_batch(sources, [src[::-1] for src in sources]))
        dev_sources = [_words(rng, s, n) for n in s.dev_lengths]
        self.dev = corpus.ParallelCorpus(dev_sources, [src[::-1] for src in dev_sources])
        self.model = Seq2SeqModel.build(_config(s, "text", self.seed, s.text_batch),
                                        src_vocab=vocab, tgt_vocab=vocab)
        self.ckpt = os.path.join(self.work_dir, "text.ckpt")
        self.step = 0

    def train_op(self, ledger: Ledger):
        """One train step; returns (seconds, real target tokens)."""
        batch = self.batches[self.step % len(self.batches)]
        self.step += 1
        return _train_step(ledger, self.model, batch, self.step), batch.real_token_count

    def warm_up(self, ledger: Ledger) -> None:
        self.train_op(ledger)

    def save_point(self, ledger: Ledger) -> float:
        """dev_loss, dev_greedy_bleu, save_checkpoint as train_loop pays
        them; checks that the saved file loads bit-identical."""
        start = time.perf_counter()
        dev_loss = training.dev_loss(self.model, self.dev)
        training.dev_greedy_bleu(self.model, self.dev)
        checkpoint.save_checkpoint(self.ckpt, self.model)
        elapsed = time.perf_counter() - start
        loaded = checkpoint.load_checkpoint(self.ckpt).store
        store = self.model.store
        same = loaded.step == store.step and sorted(loaded.names()) == sorted(store.names()) and all(
            np.array_equal(loaded.value(n), store.value(n))
            and all(np.array_equal(a, b) for a, b in zip(loaded.moments(n), store.moments(n)))
            for n in store.names())
        ledger.add(1, 0 if same and math.isfinite(dev_loss) else 1,
                   f"save point: reload identical {same}, dev loss {dev_loss}")
        return elapsed

    def _save_point(self, ledger: Ledger):
        return ledger.attempt(1, "save point", self.save_point, ledger)

    def timed(self, seconds: float, ledger: Ledger, samples: dict) -> None:
        steps = samples.setdefault("train_step", [])
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            elapsed, tokens = self.train_op(ledger)
            steps.append((tokens, elapsed))

    def check(self, ledger: Ledger) -> None:
        self._save_point(ledger)

    def fixed_work(self, ledger: Ledger) -> dict:
        self.step = 0
        steps = [self.train_op(ledger) for _ in range(2)]
        save = self._save_point(ledger)
        return {"train_tokens_per_s": sum(t for _, t in steps) / sum(s for s, _ in steps),
                "save_point_s": save if save is not None else math.nan}


# ------------------------------------------------------------------- decode


class Decode(Workload):
    """The translate ladder through ``s2t translate`` on files written at
    set-up; untrained weights, so every decode runs to the length cap.  The
    timed loop runs the text rungs; the speech rung, with extract-features
    from its WAVs first, runs in the checks and the traced passes."""

    name = "decode"
    TEXT_RUNGS = ("greedy", "beam8", "beam8_lm", "ensemble3")

    def setup(self) -> None:
        s = self.sizes
        rng = _rng(self.seed, 3)
        vocab = _word_vocab(s.vocab)
        wd = self.work_dir
        self.ckpts = []
        for j in range(s.ensemble):
            model = Seq2SeqModel.build(_config(s, "text", self.seed * s.ensemble + j, s.text_batch),
                                       src_vocab=vocab, tgt_vocab=vocab)
            self.ckpts.append(os.path.join(wd, f"text{j}.ckpt"))
            checkpoint.save_checkpoint(self.ckpts[-1], model)
        self.lines = [" ".join(vocab.decode_sequence(_words(rng, s, n))) for n in s.decode_lengths]
        self.text_input = os.path.join(wd, "input.txt")
        with open(self.text_input, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in self.lines))
        sentences = [vocab.decode_sequence(_words(rng, s, int(n)))
                     for n in rng.integers(6, 14, s.lm_sentences)]
        self.lm_path = os.path.join(wd, "target.lm")
        lm.save_lm(self.lm_path, lm.train_trigram(sentences))

        self.wav_dir = os.path.join(wd, "wavs")
        os.makedirs(self.wav_dir, exist_ok=True)
        for i, frames in enumerate(s.decode_frames):
            _write_wav(os.path.join(self.wav_dir, f"dec{i:04d}.wav"), rng, frames)
        self.audio_s = sum(_samples_for(f) for f in s.decode_frames) / SAMPLE_RATE
        self.speech_input = os.path.join(wd, "input.feats")
        if _cli(["extract-features", "--wav-dir", self.wav_dir, "--output", self.speech_input])[0] != 0:
            raise RuntimeError("extract-features failed during set-up")
        stats = audio.compute_feature_stats([f for _, f in audio.read_feature_archive(self.speech_input)])
        speech = Seq2SeqModel.build(_config(s, "speech", self.seed, s.text_batch),
                                    tgt_vocab=vocab, feat_stats=stats)
        self.speech_ckpt = os.path.join(wd, "speech.ckpt")
        checkpoint.save_checkpoint(self.speech_ckpt, speech)
        self.rungs = {
            "greedy": (["--checkpoint", self.ckpts[0], "--beam-size", "1"], self.text_input, len(self.lines)),
            "beam8": (["--checkpoint", self.ckpts[0], "--beam-size", "8"], self.text_input, len(self.lines)),
            "beam8_lm": (["--checkpoint", self.ckpts[0], "--beam-size", "8", "--lm", self.lm_path,
                          "--lm-weight", "0.2"], self.text_input, len(self.lines)),
            "ensemble3": ([a for p in self.ckpts for a in ("--checkpoint", p)]
                          + ["--beam-size", "8", "--lm", self.lm_path, "--lm-weight", "0.2"],
                          self.text_input, len(self.lines)),
            "speech_beam8": (["--checkpoint", self.speech_ckpt, "--beam-size", "8"],
                             self.speech_input, len(s.decode_frames)),
        }

    def extract(self, ledger: Ledger) -> float:
        """One extract-features call over the speech rung's WAVs; checks one
        record per WAV with the frame count the 40 ms / 10 ms framing
        implies.  Returns seconds."""
        frames = list(self.sizes.decode_frames)
        start = time.perf_counter()
        ran = ledger.attempt(len(frames), "extract-features", _cli,
                             ["extract-features", "--wav-dir", self.wav_dir, "--output", self.speech_input])
        elapsed = time.perf_counter() - start
        if ran is None:
            return elapsed
        got = [f.shape[0] for _, f in audio.read_feature_archive(self.speech_input)] if ran[0] == 0 else []
        bad = len(frames) if len(got) != len(frames) else sum(g != want for g, want in zip(got, frames))
        ledger.add(len(frames), bad, f"extract-features frame counts {got} vs {frames}")
        return elapsed

    def translate(self, rung: str, ledger: Ledger):
        """One ``s2t translate`` call; returns (seconds, output lines).
        Checks one line per input; an input translate replaced with an
        empty line (it says so on stderr) fails."""
        flags, source, count = self.rungs[rung]
        out = os.path.join(self.work_dir, f"{rung}.out")
        start = time.perf_counter()
        ran = ledger.attempt(count, f"translate {rung}", _cli,
                             ["translate", "--input", source, "--output", out] + flags)
        elapsed = time.perf_counter() - start
        if ran is None:
            return elapsed, []
        code, err = ran
        lines = corpus.read_lines(out) if code == 0 else []
        replaced = err.count("emitting empty line")
        bad = count if len(lines) != count else replaced
        ledger.add(count, bad, f"translate {rung}: {len(lines)} lines for {count} inputs, "
                               f"{replaced} replaced by empty lines")
        return elapsed, lines

    def check_greedy(self, outputs: list, ledger: Ledger) -> None:
        """The beam-1 rung must equal greedy_decode on the same inputs."""
        model = checkpoint.load_checkpoint(self.ckpts[0])
        expected = []
        for line in self.lines:
            ids = model.src_vocab.encode_sequence(corpus.tokenize(line))
            expected.append(" ".join(model.tgt_vocab.decode_sequence(search.greedy_decode(model, ids).tokens)))
        bad = len(expected) if len(outputs) != len(expected) else sum(
            a != b for a, b in zip(outputs, expected))
        ledger.add(0, bad, "beam 1 differs from greedy_decode")

    def warm_up(self, ledger: Ledger) -> None:
        self.check_greedy(self.translate("greedy", ledger)[1], ledger)

    def timed(self, seconds: float, ledger: Ledger, samples: dict) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            for rung in self.TEXT_RUNGS:
                samples.setdefault(rung, []).append((self.rungs[rung][2], self.translate(rung, ledger)[0]))

    def check(self, ledger: Ledger) -> None:
        self.extract(ledger)
        self.translate("speech_beam8", ledger)

    def fixed_work(self, ledger: Ledger) -> dict:
        figures = {"extract_x_realtime": self.audio_s / self.extract(ledger)}
        for rung, (_, _, count) in self.rungs.items():
            figures[f"{rung}_sent_per_s"] = count / self.translate(rung, ledger)[0]
        return figures


# ----------------------------------------------------------- tiny_gradcheck


class TinyGradcheck(Workload):
    """gradient_check of batch_nll on criterion 1's tiny speech model over
    a fixed, seeded subset of parameter tensors; the traced run adds train
    steps of the same tiny model."""

    name = "tiny_gradcheck"

    def setup(self) -> None:
        rng = _rng(self.seed, 4)
        config = RunConfig(task="speech", hidden_size=8, embed_size=8, prenet_size=8,
                           conv_filter_size=5, dropout=0.0, batch_size=4,
                           seed=self.seed % 2**31).resolved()
        self.model = Seq2SeqModel.build(config, tgt_vocab=corpus.Vocabulary([f"t{i}" for i in range(16)]),
                                        feat_stats=audio.FeatureStats.identity(config.feature_dim))
        source = rng.normal(size=(6, config.feature_dim)) * 0.5
        self.batch = corpus.make_batch([source], [[int(t) for t in rng.integers(4, 20, 2)]])
        self.base = self.model.store.as_tensors()  # Adam replaces arrays, so these stay put
        self.step = 0
        names = sorted(self.base)
        self.subset = []
        coords = 0
        for index in rng.permutation(len(names)):
            if coords >= self.sizes.gradcheck_coords:
                break
            name = names[index]
            self.subset.append(name)
            coords += self.base[name].size
        self.probe_s: list[float] = []

    def check_op(self, ledger: Ledger, name: str) -> None:
        """gradient_check over one parameter tensor.  The first call of
        ``f`` is the taped forward; every later one is a probe."""
        probes = 2 * self.base[name].size
        calls = []

        def f(params):
            start = time.perf_counter()
            loss = self.model.batch_nll({**self.base, **params}, self.batch)
            calls.append(time.perf_counter() - start)
            return loss

        err = ledger.attempt(probes, f"gradient_check {name}", autodiff.gradient_check, f,
                             {name: self.base[name]}, GRADCHECK_EPSILON)
        if err is None:
            return
        self.probe_s.extend(calls[1:])
        ledger.add(probes, 0 if err < GRADCHECK_TOLERANCE else probes,
                   f"gradient_check {name}: max relative error {err:.3e}")

    def train_op(self, ledger: Ledger) -> float:
        """One train step of the tiny model (taped forward, backprop, Adam)."""
        self.step += 1
        return _train_step(ledger, self.model, self.batch, self.step)

    def warm_up(self, ledger: Ledger) -> None:
        self.check_op(ledger, min(self.base, key=lambda name: self.base[name].size))
        self.train_op(ledger)
        self.probe_s.clear()

    def timed(self, seconds: float, ledger: Ledger, samples: dict) -> None:
        end = time.perf_counter() + seconds
        done = 0
        while time.perf_counter() < end:
            self.check_op(ledger, self.subset[done % len(self.subset)])
            done += 1
        samples.setdefault("probe", []).extend((1, s) for s in self.probe_s)

    def fixed_work(self, ledger: Ledger) -> dict:
        self.probe_s.clear()
        for name in self.subset:
            self.check_op(ledger, name)
        for _ in range(TINY_STEPS):
            self.train_op(ledger)
        return {"gradcheck_probes_per_s": len(self.probe_s) / sum(self.probe_s)}


WORKLOADS = {w.name: w for w in (TextTrain, Decode, TinyGradcheck)}
