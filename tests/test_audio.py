"""Audio front end: WAV I/O, VAD, windowing, MFCC, fragmenting."""
import io
import struct
import wave

import numpy as np
import pytest
import scipy.fftpack
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvector import audio
from hvector.audio import AudioClip


def tone(freq, duration_s, amplitude=0.5, sr=8000):
    t = np.arange(int(duration_s * sr)) / sr
    return amplitude * np.sin(2 * np.pi * freq * t)


class TestWavIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = np.clip(rng.normal(scale=0.2, size=8000), -1, 1)
        path = tmp_path / "a.wav"
        audio.save_wav(path, AudioClip(x))
        clip = audio.load_wav(path)
        assert clip.sample_rate == 8000
        # int16 quantisation costs at most half a step
        np.testing.assert_allclose(clip.samples, x, atol=1.0 / 32767)

    def test_file_is_a_plain_16_bit_mono_wav(self, tmp_path):
        samples = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 2e-5])
        path = tmp_path / "a.wav"
        audio.save_wav(path, AudioClip(samples))
        pcm = struct.pack("<6h", 0, 16384, -16384, 32767, -32768, 1)
        header = (b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVEfmt "
                  + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
                  + b"data" + struct.pack("<I", len(pcm)))
        assert path.read_bytes() == header + pcm
        assert [p.name for p in tmp_path.iterdir()] == ["a.wav"]

    def test_full_scale_sample_values(self, tmp_path):
        path = tmp_path / "fs.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(np.array([0, 32767, -32768], dtype="<i2").tobytes())
        clip = audio.load_wav(path)
        np.testing.assert_allclose(
            clip.samples, [0.0, 32767 / 32768, -1.0], atol=1e-12
        )

    def test_stereo_needs_channel(self, tmp_path):
        path = tmp_path / "st.wav"
        left = (tone(440, 0.1) * 32767).astype("<i2")
        right = np.zeros_like(left)
        inter = np.empty(2 * len(left), dtype="<i2")
        inter[0::2], inter[1::2] = left, right
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(inter.tobytes())
        with pytest.raises(ValueError, match="2 channels; only mono is supported"):
            audio.load_wav(path)

    def test_wrong_bit_depth_rejected(self, tmp_path):
        path = tmp_path / "w8.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(8000)
            fh.writeframes(bytes(100))
        with pytest.raises(ValueError, match="16-bit"):
            audio.load_wav(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.wav"
        audio.save_wav(path, AudioClip(tone(440, 0.5)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises((IOError, ValueError, wave.Error)):
            audio.load_wav(path)


def pcm_wav_bytes(n_channels, n_frames=400, rate=8000):
    buf = io.BytesIO()
    with wave.open(buf, "wb") as fh:
        fh.setnchannels(n_channels)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(np.arange(n_frames * n_channels, dtype="<i2").tobytes())
    return buf.getvalue()


_WAVS = {1: pcm_wav_bytes(1), 2: pcm_wav_bytes(2)}
_WAV_LEN = len(_WAVS[1])   # 44-byte header: sizes at 4, 16 and 40, rate at 24


@pytest.fixture(scope="module")
def wav_path(tmp_path_factory):
    return tmp_path_factory.mktemp("wav_fuzz") / "clip.wav"


@settings(max_examples=300, deadline=None)
@given(n_channels=st.sampled_from([1, 2]), cut=st.integers(0, 2 * _WAV_LEN),
       flips=st.lists(st.tuples(st.integers(0, 47), st.integers(1, 255)), max_size=4))
@example(n_channels=1, cut=0, flips=[])             # empty file
@example(n_channels=1, cut=30, flips=[])            # cut inside fmt
@example(n_channels=1, cut=_WAV_LEN, flips=[(18, 0x80)])  # fmt runs past the end
@example(n_channels=1, cut=_WAV_LEN, flips=[(43, 0x80)])  # data claims 2 GB
@example(n_channels=1, cut=_WAV_LEN, flips=[(24, 0x40), (25, 0x1F)])  # rate 0
@example(n_channels=2, cut=2 * _WAV_LEN, flips=[])  # a whole stereo file
def test_load_wav_fails_cleanly(wav_path, n_channels, cut, flips):
    """A truncated or byte-flipped WAV loads, or raises ValueError/OSError
    naming the file: never EOFError, RuntimeError or a bare message."""
    raw = bytearray(_WAVS[n_channels][:cut])
    for offset, mask in flips:
        if offset < len(raw):
            raw[offset] ^= mask
    wav_path.write_bytes(bytes(raw))
    try:
        clip = audio.load_wav(wav_path)
    except (ValueError, OSError) as exc:
        assert str(wav_path) in str(exc), str(exc)
    else:
        assert isinstance(clip, AudioClip)


class TestVad:
    def test_short_clip_unchanged(self):
        x = np.ones(150) * 0.1
        out = audio.vad_filter(AudioClip(x))
        np.testing.assert_array_equal(out.samples, x)

    def test_constant_tone_untouched(self):
        x = tone(1000, 1.0)
        out = audio.vad_filter(AudioClip(x))
        np.testing.assert_array_equal(out.samples, x)

    def test_aligned_silence_removed_completely(self):
        # interior silence vanishes wholly when it starts on the 80-sample hop
        # grid and ends 40 past it (so full frames tile the region); trailing
        # silence only needs the grid-aligned start
        speech_a = tone(800, 0.3, amplitude=0.5)   # 2400 samples, on-grid end
        speech_b = tone(600, 0.305, amplitude=0.5)  # 2440 samples
        x = np.concatenate([speech_a, np.zeros(2440), speech_b, np.zeros(2440)])
        out = audio.vad_filter(AudioClip(x)).samples
        np.testing.assert_array_equal(out, np.concatenate([speech_a, speech_b]))

    def test_quiet_tone_removed_by_relative_threshold(self):
        loud = tone(500, 0.5, amplitude=1.0)      # 0 dBFS peak, 4000 samples
        quiet = tone(500, 0.5, amplitude=10 ** (-50 / 20))  # 50 dB down
        out = audio.vad_filter(AudioClip(np.concatenate([loud, quiet]))).samples
        np.testing.assert_array_equal(out, loud)

    def test_idempotent(self):
        cases = [
            np.concatenate([tone(800, 0.3), np.zeros(2440), tone(600, 0.4)]),
            tone(1000, 0.7),
            np.concatenate([np.zeros(2440), tone(300, 0.5, amplitude=0.8)]),
        ]
        for x in cases:
            once = audio.vad_filter(AudioClip(x)).samples
            twice = audio.vad_filter(AudioClip(once)).samples
            np.testing.assert_array_equal(twice, once)

    def test_all_silence_removed(self):
        out = audio.vad_filter(AudioClip(np.zeros(4000)))
        assert len(out.samples) == 0


class TestWindowing:
    def test_three_seconds_in_one_second_windows(self):
        clip = AudioClip(tone(440, 3.0))
        wins = audio.window_utterances(clip, 1.0)
        assert len(wins) == 5
        assert all(len(w.samples) == 8000 for w in wins)
        np.testing.assert_array_equal(wins[1].samples, clip.samples[4000:12000])

    def test_exact_length_gives_one_window(self):
        wins = audio.window_utterances(AudioClip(tone(440, 1.0)), 1.0)
        assert len(wins) == 1

    def test_too_short_gives_empty_list(self):
        assert audio.window_utterances(AudioClip(tone(440, 2.4)), 3.0) == []

    def test_count_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(8000, 60000))
            clip = AudioClip(rng.normal(scale=0.1, size=n))
            wins = audio.window_utterances(clip, 1.0)
            assert len(wins) == (n - 8000) // 4000 + 1


class TestMfcc:
    def test_one_second_gives_98_frames(self):
        feats = audio.mfcc_frames(AudioClip(tone(440, 1.0)))
        assert feats.shape == (98, 20)

    def test_frame_count_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(200, 30000))
            feats = audio.mfcc_frames(AudioClip(rng.normal(scale=0.1, size=n)))
            assert feats.shape[0] == (n - 200) // 80 + 1

    def test_wrong_sample_rate_rejected(self):
        with pytest.raises(ValueError, match="8000"):
            audio.mfcc_frames(AudioClip(np.zeros(16000), sample_rate=16000))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="short"):
            audio.mfcc_frames(AudioClip(np.zeros(150)))

    def test_dct_orthonormal(self):
        d = audio.dct_matrix(23, 23)
        err = np.abs(d @ d.T - np.eye(23)).max()
        assert err < 1e-10

    def test_dct_matches_scipy(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=23)
        want = scipy.fftpack.dct(v, type=2, norm="ortho")[:20]
        got = audio.dct_matrix() @ v
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_constant_log_mel_keeps_only_c0(self):
        flat = np.full((5, 23), 3.7)
        ceps = flat @ audio.dct_matrix().T
        assert np.abs(ceps[:, 1:]).max() < 1e-12
        np.testing.assert_allclose(ceps[:, 0], 3.7 * np.sqrt(23), atol=1e-12)

    def test_filterbank_covers_all_filters(self):
        bank = audio.mel_filterbank()
        assert bank.shape == (23, 129)
        assert (bank.sum(axis=1) > 0).all()

    def test_tone_peaks_in_nearest_filter(self):
        clip = AudioClip(tone(1000, 1.0))
        x = clip.samples
        emphasised = np.concatenate([x[:1], x[1:] - 0.97 * x[:-1]])
        frame = emphasised[:200] * np.hamming(200)
        power = np.abs(np.fft.rfft(frame, 256)) ** 2
        energies = audio.mel_filterbank() @ power
        centers_mel = np.linspace(0, 2595 * np.log10(1 + 4000 / 700), 25)[1:-1]
        centers_hz = 700 * (10 ** (centers_mel / 2595) - 1)
        assert np.argmax(energies) == np.argmin(np.abs(centers_hz - 1000))


class TestFragments:
    def test_298_frames(self):
        frames = np.random.default_rng(4).normal(size=(298, 20))
        uf = audio.split_fragments(frames)
        assert uf.fragments.shape == (10, 30, 20)
        assert uf.n_frames == 298
        np.testing.assert_array_equal(uf.fragments[9, -2:], 0.0)
        np.testing.assert_array_equal(uf.fragments[9, -3], frames[297])

    def test_98_frames(self):
        frames = np.random.default_rng(5).normal(size=(98, 20))
        uf = audio.split_fragments(frames)
        assert uf.fragments.shape == (10, 10, 20)
        np.testing.assert_array_equal(uf.fragments[9, 8:], 0.0)

    def test_exact_multiple_has_no_padding(self):
        frames = np.random.default_rng(6).normal(size=(100, 20))
        uf = audio.split_fragments(frames)
        assert uf.fragments.shape == (10, 10, 20)
        np.testing.assert_array_equal(
            uf.fragments.reshape(100, 20), frames
        )

    def test_lossless_up_to_padding(self):
        rng = np.random.default_rng(7)
        for t in (10, 57, 98, 131, 298):
            frames = rng.normal(size=(t, 20))
            uf = audio.split_fragments(frames)
            flat = uf.fragments.reshape(-1, 20)
            np.testing.assert_array_equal(flat[:t], frames)
            np.testing.assert_array_equal(flat[t:], 0.0)

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            audio.split_fragments(np.zeros((9, 20)))
