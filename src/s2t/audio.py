"""Speech feature extraction: WAV input, 40 ms / 10 ms framing, and 40 MFCCs
plus log frame energy per frame (41 feature dimensions).

Conventions fixed here: Hamming window, pre-emphasis 0.97, FFT zero-padded
to the next power of two, 40 triangular Mel filters spanning 0..Nyquist,
natural log with a 1e-10 floor, orthonormal DCT-II keeping coefficients
0..39.  Frame energy is the log of the pre-window (post pre-emphasis)
sample energy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .corpus import DataError, FieldReader, whole_file

SUPPORTED_RATES = (8000, 16000, 22050, 44100, 48000)
FEATURE_DIM = 41
N_MEL_FILTERS = 40
LOG_FLOOR = 1e-10
PRE_EMPHASIS = 0.97

ARCHIVE_MAGIC = b"S2TFEAT1"


class AudioFormatError(ValueError):
    """Malformed or unsupported WAV input."""


@dataclass
class AudioBuffer:
    samples: np.ndarray  # float64 in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate not in SUPPORTED_RATES:
            raise AudioFormatError(f"unsupported sample rate {self.sample_rate}")
        if not np.isfinite(self.samples).all():
            raise AudioFormatError("audio contains non-finite samples")


@dataclass
class FrameBlock:
    """Windowed frames plus the pre-window energy of each frame."""

    windowed: np.ndarray      # [T, W]
    raw_energy: np.ndarray    # [T] sum of squares before windowing


@dataclass
class FeatureSequence:
    """T x 41 matrix: columns 0..39 are MFCC c0..c39, column 40 is the log
    frame energy."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[1] != FEATURE_DIM:
            raise ValueError(f"feature matrix must be T x {FEATURE_DIM}, got {self.frames.shape}")


def load_pcm_wav(path) -> AudioBuffer:
    """Read a RIFF/WAVE file containing 16-bit signed PCM.

    Stereo is averaged down to mono; samples are scaled by 1/32768.  A
    chunk that runs past the end of the file is a truncated file.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise AudioFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    reader = FieldReader(blob, path, "RIFF chunk", AudioFormatError)
    reader.take(12)
    while not reader.at_end():
        chunk_id = bytes(reader.take(4))
        chunk_size = reader.number("<I")
        body = reader.take(chunk_size)
        if chunk_size & 1 and not reader.at_end():
            reader.take(1)  # the pad byte, which writers may leave off a last chunk
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise AudioFormatError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data = body

    if fmt is None:
        raise AudioFormatError(f"{path}: missing fmt chunk")
    audio_format, channels, rate, _, _, bits = fmt
    if audio_format != 1:
        raise AudioFormatError(f"{path}: unsupported encoding (format tag {audio_format}, want PCM)")
    if bits != 16:
        raise AudioFormatError(f"{path}: unsupported encoding ({bits}-bit, want 16-bit PCM)")
    if channels < 1:
        raise AudioFormatError(f"{path}: invalid channel count {channels}")
    if data is None or len(data) == 0:
        raise AudioFormatError(f"{path}: empty data chunk")

    raw = np.frombuffer(data[: len(data) - len(data) % (2 * channels)], dtype="<i2")
    samples = raw.astype(np.float64) / 32768.0
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    try:
        return AudioBuffer(samples=samples, sample_rate=rate)
    except AudioFormatError as exc:  # an unsupported sample rate
        raise AudioFormatError(f"{path}: {exc}") from None


def frame_and_window(audio: AudioBuffer, window_ms: int = 40, hop_ms: int = 10) -> FrameBlock:
    """Slice the signal into overlapping frames, pre-emphasize each frame and
    apply a Hamming window.  The trailing partial frame is discarded."""
    if not window_ms >= hop_ms > 0:
        raise ValueError(f"need window_ms >= hop_ms > 0, got {window_ms}/{hop_ms}")
    window = int(round(audio.sample_rate * window_ms / 1000))
    hop = int(round(audio.sample_rate * hop_ms / 1000))
    n = len(audio.samples)
    count = (n - window) // hop + 1 if n >= window else 0
    if count == 0:
        return FrameBlock(np.zeros((0, window)), np.zeros(0))

    starts = np.arange(count) * hop
    frames = audio.samples[starts[:, None] + np.arange(window)[None, :]]
    # pre-emphasis stays frame-internal (HTK convention for the first sample)
    # so each frame is a pure function of its own W samples
    emphasized = frames.copy()
    emphasized[:, 1:] -= PRE_EMPHASIS * frames[:, :-1]
    emphasized[:, 0] *= 1.0 - PRE_EMPHASIS
    raw_energy = (emphasized ** 2).sum(axis=1)
    return FrameBlock(emphasized * np.hamming(window), raw_energy)


def _mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz) / 700.0)


def _hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


def mel_filterbank(sample_rate: int, n_fft: int, n_filters: int = N_MEL_FILTERS) -> tuple[np.ndarray, np.ndarray]:
    """Triangular filters spanning 0..Nyquist; returns (weights [F, bins],
    center frequencies in Hz)."""
    nyquist = sample_rate / 2.0
    points = _hz(np.linspace(_mel(0.0), _mel(nyquist), n_filters + 2))
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
    weights = np.zeros((n_filters, len(freqs)))
    for j in range(n_filters):
        lo, mid, hi = points[j], points[j + 1], points[j + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        weights[j] = np.maximum(0.0, np.minimum(up, down))
    return weights, points[1:-1]


def _dct_matrix(n: int) -> np.ndarray:
    # orthonormal DCT-II
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    mat = np.sqrt(2.0 / n) * np.cos(np.pi * (m + 0.5) * k / n)
    mat[0] *= np.sqrt(0.5)
    return mat


def mfcc_with_energy(block: FrameBlock, sample_rate: int) -> FeatureSequence:
    """40 MFCCs plus log frame energy for each windowed frame."""
    t, window = block.windowed.shape
    if t == 0:
        return FeatureSequence(np.zeros((0, FEATURE_DIM)))
    n_fft = 1
    while n_fft < window:
        n_fft *= 2
    power = np.abs(np.fft.rfft(block.windowed, n=n_fft, axis=1)) ** 2
    weights, _ = mel_filterbank(sample_rate, n_fft)
    log_mel = np.log(np.maximum(power @ weights.T, LOG_FLOOR))
    coeffs = log_mel @ _dct_matrix(N_MEL_FILTERS).T
    energy = np.log(np.maximum(block.raw_energy, LOG_FLOOR))
    return FeatureSequence(np.hstack([coeffs, energy[:, None]]))


def extract_features(audio: AudioBuffer, window_ms: int = 40, hop_ms: int = 10) -> FeatureSequence:
    return mfcc_with_energy(frame_and_window(audio, window_ms, hop_ms), audio.sample_rate)


@dataclass
class FeatureStats:
    mean: np.ndarray
    std: np.ndarray  # floored at 1e-8

    @classmethod
    def identity(cls, dim: int = FEATURE_DIM) -> "FeatureStats":
        return cls(np.zeros(dim), np.ones(dim))


def compute_feature_stats(sequences) -> FeatureStats:
    """Per-dimension mean/stddev over a whole corpus of feature sequences."""
    stacked = np.concatenate([np.asarray(s.frames if isinstance(s, FeatureSequence) else s)
                              for s in sequences], axis=0)
    return FeatureStats(stacked.mean(axis=0), np.maximum(stacked.std(axis=0), 1e-8))


def normalize_features(seq: FeatureSequence, stats: FeatureStats) -> FeatureSequence:
    if seq.frames.shape[1] != stats.mean.shape[0]:
        raise ValueError(
            f"dimension mismatch: features have {seq.frames.shape[1]} dims, stats have {stats.mean.shape[0]}"
        )
    return FeatureSequence((seq.frames - stats.mean) / stats.std)


# --- feature archive: magic, dimension count, then per-utterance records ---


def write_feature_archive(path, items) -> None:
    """``items``: iterable of (utterance_id, T x 41 array); written whole."""
    with whole_file(path, "wb") as fh:
        fh.write(ARCHIVE_MAGIC)
        fh.write(struct.pack("<I", FEATURE_DIM))
        for utt_id, frames in items:
            frames = np.asarray(frames, dtype=np.float32)
            if frames.ndim != 2 or frames.shape[1] != FEATURE_DIM:
                raise ValueError(f"{utt_id}: feature matrix must be T x {FEATURE_DIM}")
            encoded = utt_id.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", frames.shape[0]))
            fh.write(frames.astype("<f4").tobytes())


def read_feature_archive(path) -> list[tuple[str, np.ndarray]]:
    """Every (utterance_id, T x 41 float64 array) record of an archive.
    Raises ``DataError`` naming the file on a bad magic, a dimension other
    than 41, any truncation, an utterance id that is not UTF-8 and a NaN or
    infinite feature value."""
    with open(path, "rb") as fh:
        reader = FieldReader(fh.read(), path, "archive")
    if bytes(reader.take(8)) != ARCHIVE_MAGIC:
        raise DataError(f"{path}: not a feature archive (bad magic)")
    dim = reader.number("<I")
    if dim != FEATURE_DIM:
        raise DataError(f"{path}: archive holds {dim}-dim features, expected {FEATURE_DIM}")
    items = []
    while not reader.at_end():
        utt_id = reader.text("<H")
        frames = np.frombuffer(reader.take(4 * dim * reader.number("<I")), dtype="<f4").reshape(-1, dim)
        if not np.isfinite(frames).all():
            raise DataError(f"{path}: non-finite feature value in record {utt_id!r}")
        items.append((utt_id, frames.astype(np.float64)))
    return items
