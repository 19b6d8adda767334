import struct

import numpy as np
import pytest

from s2t.audio import (
    FEATURE_DIM,
    LOG_FLOOR,
    AudioBuffer,
    AudioFormatError,
    FeatureStats,
    compute_feature_stats,
    extract_features,
    frame_and_window,
    load_pcm_wav,
    mel_filterbank,
    mfcc_with_energy,
    normalize_features,
    read_feature_archive,
    write_feature_archive,
)

from oracles import frame_count_oracle


def write_wav(path, samples_i16, rate=16000, bits=16, fmt=1, channels=1):
    data = struct.pack(f"<{len(samples_i16)}h", *samples_i16) if bits == 16 else bytes(samples_i16)
    block_align = channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, fmt, channels, rate, rate * block_align, block_align, bits)
    header += b"data" + struct.pack("<I", len(data))
    path.write_bytes(header + data)


def test_load_silence(tmp_path):
    path = tmp_path / "silence.wav"
    write_wav(path, [0] * 16000)
    buf = load_pcm_wav(path)
    assert buf.sample_rate == 16000
    assert len(buf.samples) == 16000
    assert (buf.samples == 0.0).all()


def test_load_scaling_endpoints(tmp_path):
    path = tmp_path / "scale.wav"
    write_wav(path, [-32768, 16384])
    buf = load_pcm_wav(path)
    assert buf.samples[0] == -1.0
    assert buf.samples[1] == 0.5


def test_load_rejects_8bit(tmp_path):
    path = tmp_path / "8bit.wav"
    write_wav(path, [0, 1, 2, 3], bits=8)
    with pytest.raises(AudioFormatError, match="unsupported encoding"):
        load_pcm_wav(path)


def test_load_rejects_float_wav(tmp_path):
    path = tmp_path / "float.wav"
    write_wav(path, [0] * 8, fmt=3)
    with pytest.raises(AudioFormatError, match="unsupported encoding"):
        load_pcm_wav(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a wav at all")
    with pytest.raises(AudioFormatError):
        load_pcm_wav(path)


def test_load_rejects_empty_data(tmp_path):
    path = tmp_path / "empty.wav"
    write_wav(path, [])
    with pytest.raises(AudioFormatError, match="empty data"):
        load_pcm_wav(path)


def test_rejects_unsupported_sample_rate(tmp_path):
    path = tmp_path / "odd_rate.wav"
    write_wav(path, [0] * 100, rate=11025)
    with pytest.raises(AudioFormatError, match="sample rate"):
        load_pcm_wav(path)


def test_stereo_averaged_to_mono(tmp_path):
    path = tmp_path / "stereo.wav"
    write_wav(path, [16384, -16384, 8192, 8192], channels=2)
    buf = load_pcm_wav(path)
    assert len(buf.samples) == 2
    assert buf.samples[0] == pytest.approx(0.0)
    assert buf.samples[1] == pytest.approx(0.25)


@pytest.mark.parametrize("tail", [b"", b"\x00", b"\x00LIST" + struct.pack("<I", 4) + b"INFO"])
def test_odd_data_chunk_loads_its_whole_samples(tmp_path, tail):
    """A complete data chunk of odd length loads its whole samples and drops
    the odd byte; its pad byte, a chunk after it, or no pad byte at the end
    of the file change nothing."""
    path = tmp_path / "odd.wav"
    write_wav(path, [-32768, 16384, 3])
    blob = bytearray(path.read_bytes()[:-1])  # the data chunk's last byte is its odd one
    struct.pack_into("<I", blob, 40, 5)
    path.write_bytes(bytes(blob) + tail)
    buf = load_pcm_wav(path)
    np.testing.assert_array_equal(buf.samples, [-1.0, 0.5])


def test_one_second_at_16k_gives_97_frames():
    buf = AudioBuffer(np.zeros(16000), 16000)
    assert len(frame_and_window(buf).windowed) == 97  # floor((16000-640)/160)+1


def test_frame_count_close_to_reported_average():
    # 2.8 s utterance: 277 frames, within 2% of the reported 281 frames
    buf = AudioBuffer(np.zeros(int(2.8 * 16000)), 16000)
    count = len(frame_and_window(buf).windowed)
    assert count == 277
    assert abs(count - 281) / 281 < 0.02


def test_too_short_audio_gives_zero_frames():
    buf = AudioBuffer(np.zeros(639), 16000)
    block = frame_and_window(buf)
    assert len(block.windowed) == 0
    feats = mfcc_with_energy(block, 16000)
    assert len(feats.frames) == 0


def test_frame_count_formula_matches_loop_oracle():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(0, 5000))
        window = int(rng.integers(2, 400))
        hop = int(rng.integers(1, window + 1))
        expected = frame_count_oracle(n, window, hop)
        got = (n - window) // hop + 1 if n >= window else 0
        assert got == expected


def test_all_zero_frame_feature_values():
    buf = AudioBuffer(np.zeros(640), 16000)
    feats = extract_features(buf)
    assert len(feats.frames) == 1
    row = feats.frames[0]
    # constant log-Mel floor: only the 0th DCT coefficient is nonzero
    assert row[0] == pytest.approx(40 * np.log(LOG_FLOOR) / np.sqrt(40))
    np.testing.assert_allclose(row[1:40], 0.0, atol=1e-9)
    assert row[40] == pytest.approx(np.log(LOG_FLOOR))


def test_scaling_signal_changes_only_c0_and_energy():
    rng = np.random.default_rng(14)
    samples = rng.uniform(-0.4, 0.4, 1600)
    a = extract_features(AudioBuffer(samples, 16000)).frames
    b = extract_features(AudioBuffer(2.0 * samples, 16000)).frames
    np.testing.assert_allclose(a[:, 1:40], b[:, 1:40], atol=1e-9)
    assert not np.allclose(a[:, 0], b[:, 0])
    assert not np.allclose(a[:, 40], b[:, 40])


def test_440hz_sine_peaks_at_nearest_mel_filter():
    rate = 16000
    t = np.arange(int(0.2 * rate)) / rate
    buf = AudioBuffer(np.sin(2 * np.pi * 440.0 * t) * 0.9, rate)
    block = frame_and_window(buf)
    n_fft = 1024
    power = np.abs(np.fft.rfft(block.windowed, n=n_fft, axis=1)) ** 2
    weights, centers = mel_filterbank(rate, n_fft)
    responses = (power @ weights.T).mean(axis=0)
    assert int(np.argmax(responses)) == int(np.argmin(np.abs(centers - 440.0)))


def test_time_shift_by_one_hop_drops_first_frame_exactly():
    rng = np.random.default_rng(15)
    samples = rng.uniform(-0.5, 0.5, 3200)
    full = extract_features(AudioBuffer(samples, 16000)).frames
    shifted = extract_features(AudioBuffer(samples[160:], 16000)).frames
    np.testing.assert_array_equal(full[1 : 1 + shifted.shape[0]], shifted)


def test_features_finite_for_arbitrary_input():
    rng = np.random.default_rng(16)
    for samples in [np.zeros(800), rng.uniform(-1, 1, 800), np.ones(800) * 1e-8]:
        feats = extract_features(AudioBuffer(samples, 16000))
        assert np.isfinite(feats.frames).all()
        assert feats.frames.shape[1] == FEATURE_DIM


def test_normalize_self_gives_zero_mean_unit_variance():
    rng = np.random.default_rng(17)
    seqs = [extract_features(AudioBuffer(rng.uniform(-0.5, 0.5, 2000), 16000)) for _ in range(3)]
    stats = compute_feature_stats(seqs)
    normalized = np.concatenate([normalize_features(s, stats).frames for s in seqs])
    np.testing.assert_allclose(normalized.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(normalized.var(axis=0), 1.0, atol=1e-6)


def test_normalize_identity_stats():
    rng = np.random.default_rng(18)
    seq = extract_features(AudioBuffer(rng.uniform(-0.5, 0.5, 1000), 16000))
    out = normalize_features(seq, FeatureStats.identity())
    np.testing.assert_array_equal(out.frames, seq.frames)


def test_normalize_constant_dimension_maps_to_zero():
    frames = np.ones((5, FEATURE_DIM))
    from s2t.audio import FeatureSequence

    stats = compute_feature_stats([FeatureSequence(frames)])
    out = normalize_features(FeatureSequence(frames), stats)
    np.testing.assert_array_equal(out.frames, np.zeros_like(frames))


def test_normalize_dimension_mismatch():
    from s2t.audio import FeatureSequence

    seq = FeatureSequence(np.zeros((2, FEATURE_DIM)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        normalize_features(seq, FeatureStats(np.zeros(3), np.ones(3)))


def test_feature_archive_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    items = [("utt1", rng.normal(size=(7, FEATURE_DIM)).astype(np.float32)),
             ("utt2", rng.normal(size=(3, FEATURE_DIM)).astype(np.float32))]
    path = tmp_path / "features.bin"
    write_feature_archive(path, items)
    loaded = read_feature_archive(path)
    assert [u for u, _ in loaded] == ["utt1", "utt2"]
    for (_, orig), (_, back) in zip(items, loaded):
        np.testing.assert_array_equal(orig.astype(np.float64), back)


def test_feature_archive_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXXXXXX\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="magic"):
        read_feature_archive(path)
