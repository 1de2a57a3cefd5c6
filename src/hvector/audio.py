"""Audio front end: WAV loading, energy VAD, windowing, MFCC, fragmenting.

The whole chain is fixed at 8 kHz with 25 ms frames on a 10 ms hop
(200/80 samples).  Features are 20 mel-frequency cepstral coefficients per
frame, and utterances are cut into 10 ordered fragments for the models.
"""
from __future__ import annotations

import os
import wave
from dataclasses import dataclass, field

import numpy as np

from .tensor import atomic_write

SAMPLE_RATE = 8000
FRAME_LEN = 200   # 25 ms
FRAME_HOP = 80    # 10 ms
N_FFT = 256
N_MELS = 23
N_CEPSTRA = 20
PREEMPHASIS = 0.97
LOG_FLOOR = 1e-10
N_FRAGMENTS = 10

VAD_RELATIVE_DB = 30.0   # keep frames within this many dB of the loudest
VAD_ABSOLUTE_DB = -60.0  # and above this absolute mean-square level

__all__ = [
    "AudioClip", "UtteranceFeatures", "load_wav", "save_wav", "vad_filter",
    "window_utterances", "mfcc_frames", "split_fragments",
    "frame_count", "mel_filterbank", "dct_matrix",
]


@dataclass
class AudioClip:
    """Mono PCM audio as float64 samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"AudioClip needs 1-D samples, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate}")
        if not np.isfinite(self.samples).all():
            raise ValueError("AudioClip samples contain non-finite values")


@dataclass
class UtteranceFeatures:
    """MFCC frames of one utterance, split into ordered fragments."""

    fragments: np.ndarray          # (N_FRAGMENTS, M, N_CEPSTRA)
    utterance_id: str = ""
    speaker_id: str = ""


def load_wav(path) -> AudioClip:
    """Read a mono 16-bit PCM WAV file; anything else is rejected."""
    try:
        with open(path, "rb") as raw_fh, wave.open(raw_fh) as fh:
            n_channels = fh.getnchannels()
            sampwidth = fh.getsampwidth()
            rate = fh.getframerate()
            n = fh.getnframes()
            # a corrupt frame count must not ask for gigabytes: check it
            # against the bytes after the header before reading
            left = os.fstat(raw_fh.fileno()).st_size - raw_fh.tell()
            if n * n_channels * sampwidth > left:
                raise OSError(f"{path}: truncated WAV payload ({left} bytes for {n} frames)")
            raw = fh.readframes(n)
    except wave.Error as exc:
        raise ValueError(f"{path}: unsupported WAV encoding ({exc})") from exc
    except (EOFError, RuntimeError):
        # how the wave module reports a header or chunk that runs past the end
        raise ValueError(f"{path}: truncated WAV header") from None
    if sampwidth != 2:
        raise ValueError(f"{path}: only 16-bit PCM is supported, got {8 * sampwidth}-bit")
    if rate <= 0:
        raise ValueError(f"{path}: sample rate {rate} Hz")
    if len(raw) != n * n_channels * 2:
        raise IOError(f"{path}: truncated WAV payload ({len(raw)} bytes for {n} frames)")
    if n_channels != 1:
        raise ValueError(f"{path}: has {n_channels} channels; only mono is supported")
    pcm = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioClip(pcm, rate)


def save_wav(path, clip: AudioClip):
    pcm = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    with atomic_write(path) as raw_fh, wave.open(raw_fh, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(clip.sample_rate)
        fh.writeframes(pcm.tobytes())


def frame_count(n_samples: int) -> int:
    """Number of full 25 ms frames at a 10 ms hop."""
    if n_samples < FRAME_LEN:
        return 0
    return (n_samples - FRAME_LEN) // FRAME_HOP + 1


def _frame_energies_db(x: np.ndarray) -> np.ndarray:
    t = frame_count(len(x))
    frames = np.lib.stride_tricks.sliding_window_view(x, FRAME_LEN)[::FRAME_HOP][:t]
    power = np.mean(frames * frames, axis=1)
    return 10.0 * np.log10(power + 1e-20)


def vad_filter(clip: AudioClip) -> AudioClip:
    """Drop samples that belong to low-energy frames.

    A frame passes when its mean-square level is within VAD_RELATIVE_DB of
    the loudest frame and above VAD_ABSOLUTE_DB.  A sample is kept only when
    every frame containing it passes; trailing samples beyond the last frame
    start share the last frame's fate.  Clips shorter than one frame are
    returned unchanged.
    """
    x = clip.samples
    if len(x) < FRAME_LEN:
        return clip
    energies = _frame_energies_db(x)
    threshold = max(energies.max() - VAD_RELATIVE_DB, VAD_ABSOLUTE_DB)
    passed = energies >= threshold
    drop = np.zeros(len(x), dtype=bool)
    for i in np.nonzero(~passed)[0]:
        start = i * FRAME_HOP
        drop[start:start + FRAME_LEN] = True
    if not passed[-1]:
        drop[(len(energies) - 1) * FRAME_HOP:] = True
    return AudioClip(x[~drop], clip.sample_rate)


def window_utterances(clip: AudioClip, length_s: float) -> list[AudioClip]:
    """Cut a clip into fixed windows with half-window overlap.

    A window must span N_FRAGMENTS frames, so that split_fragments can cut
    it; a shorter length_s is refused.  Too-short clips yield an empty list;
    any remainder after the last full window is discarded.
    """
    samples = length_s * clip.sample_rate
    if not (np.isfinite(samples) and frame_count(round(samples)) >= N_FRAGMENTS):
        shortest = (FRAME_LEN + (N_FRAGMENTS - 1) * FRAME_HOP) / clip.sample_rate
        raise ValueError(f"len must be finite and at least {shortest:g} s, the "
                         f"span of {N_FRAGMENTS} frames; got {length_s}")
    win = int(round(samples))
    step = win // 2
    n = len(clip.samples)
    if n < win:
        return []
    starts = range(0, n - win + 1, step)
    return [AudioClip(clip.samples[s:s + win].copy(), clip.sample_rate) for s in starts]


def mel_filterbank(n_mels: int = N_MELS, n_fft: int = N_FFT,
                   sample_rate: int = SAMPLE_RATE) -> np.ndarray:
    """Triangular mel filters from 0 Hz to Nyquist, as a (n_mels, bins) matrix."""
    def to_mel(hz):
        return 2595.0 * np.log10(1.0 + hz / 700.0)

    def to_hz(mel):
        return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)

    high = sample_rate / 2.0
    mel_points = np.linspace(to_mel(0.0), to_mel(high), n_mels + 2)
    bins = np.floor((n_fft + 1) * to_hz(mel_points) / sample_rate).astype(int)
    bank = np.zeros((n_mels, n_fft // 2 + 1))
    for j in range(n_mels):
        lo, mid, hi = bins[j], bins[j + 1], bins[j + 2]
        for k in range(lo, mid):
            bank[j, k] = (k - lo) / (mid - lo)
        for k in range(mid, hi):
            bank[j, k] = (hi - k) / (hi - mid)
    return bank


def dct_matrix(n_out: int = N_CEPSTRA, n_in: int = N_MELS) -> np.ndarray:
    """Orthonormal DCT-II matrix with shape (n_out, n_in)."""
    n = np.arange(n_in)
    k = np.arange(n_out)[:, None]
    mat = np.cos(np.pi * k * (2 * n + 1) / (2 * n_in))
    mat *= np.sqrt(2.0 / n_in)
    mat[0] *= np.sqrt(0.5)
    return mat


_MEL_BANK = mel_filterbank()
_DCT = dct_matrix()


def mfcc_frames(clip: AudioClip) -> np.ndarray:
    """Compute 20 MFCCs per 25 ms frame at a 10 ms hop.

    Chain: pre-emphasis 0.97, Hamming window, 256-point FFT power spectrum,
    23 triangular mel filters to 4 kHz, log with a 1e-10 floor, orthonormal
    DCT-II keeping c0..c19.  Returns a (T, 20) array with
    T = (n_samples - 200) // 80 + 1.
    """
    if clip.sample_rate != SAMPLE_RATE:
        raise ValueError(
            f"sample rate {clip.sample_rate} not supported; expected {SAMPLE_RATE}"
        )
    x = clip.samples
    t = frame_count(len(x))
    if t < 1:
        raise ValueError(
            f"clip too short for one frame: {len(x)} samples < {FRAME_LEN}"
        )
    emphasised = np.concatenate([x[:1], x[1:] - PREEMPHASIS * x[:-1]])
    frames = np.lib.stride_tricks.sliding_window_view(emphasised, FRAME_LEN)[::FRAME_HOP][:t]
    windowed = frames * np.hamming(FRAME_LEN)
    power = np.abs(np.fft.rfft(windowed, N_FFT)) ** 2
    mel_energy = power @ _MEL_BANK.T
    log_mel = np.log(np.maximum(mel_energy, LOG_FLOOR))
    return log_mel @ _DCT.T


def split_fragments(frames: np.ndarray, utterance_id: str = "",
                    speaker_id: str = "") -> UtteranceFeatures:
    """Split (T, 20) frames into 10 ordered fragments of floor(T/10) frames.

    The last T mod 10 frames are dropped, as window_utterances drops the
    samples after a clip's last window, so no fragment holds padding.
    """
    frames = np.array(frames, dtype=np.float64)  # a copy: no alias of the caller's array
    if frames.ndim != 2:
        raise ValueError(f"expected (T, F) frames, got shape {frames.shape}")
    t = frames.shape[0]
    if t < N_FRAGMENTS:
        raise ValueError(f"need at least {N_FRAGMENTS} frames to fragment, got {t}")
    m = t // N_FRAGMENTS
    fragments = frames[:N_FRAGMENTS * m].reshape(N_FRAGMENTS, m, frames.shape[1])
    return UtteranceFeatures(fragments, utterance_id, speaker_id)
