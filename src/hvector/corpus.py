"""Synthetic speaker corpus, manifests, and dataset splits.

A synthetic speaker is a pitch plus three vocal-tract resonances; an
utterance is a jittered glottal pulse train run through those resonators
in cascade (Klatt, "Software for a cascade/parallel formant synthesizer",
JASA 1980) with a little noise on top.  Different master seeds give
disjoint speaker identities, which the verification protocol relies on.

Synthesis needs numpy alone: the pulse train is one cumulative sum of
jittered periods, and the cascade is applied as one frequency response.
Each utterance draws from its own seeded generator in a fixed order
(pulse jitters, formant jitters, gain, noise), so a corpus is a function
of its arguments.
"""
from __future__ import annotations

import functools
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import SAMPLE_RATE, AudioClip, save_wav
from .tensor import atomic_write, forked_map

__all__ = [
    "ManifestEntry", "Manifest", "SynthSpeakerSpec", "check_ids",
    "make_speaker_spec", "synth_utterance", "check_synth_args", "synth_corpus",
    "split", "make_verification_split", "open_text", "parse_setting", "read_settings",
]


@contextmanager
def open_text(path):
    """open() a UTF-8 text file for reading; bytes in it that do not decode
    raise a ValueError that names the file and the line they are on."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
            return
        except UnicodeDecodeError as exc:
            error = exc
    # the reader decodes in chunks, so find the byte's offset in the file
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        error = exc
    line = raw.count(b"\n", 0, error.start) + 1
    raise ValueError(f"{path}:{line}: not UTF-8 text ({error.reason} "
                     f"at byte {error.start})") from None


def parse_setting(parsers: dict, key: str, raw: str, where: str):
    """parsers[key](raw); a ValueError starting with `where` if key or value is bad."""
    if key not in parsers:
        raise ValueError(f"{where}: unknown config key {key!r} "
                         f"(known: {', '.join(sorted(parsers)) or 'none'})")
    try:
        return parsers[key](raw)
    except ValueError as exc:
        raise ValueError(f"{where}: bad value for {key}: {exc}") from None


def read_settings(text: str, parsers: dict) -> dict:
    """Flat key=value text, one setting a line, each value through its key's
    parser; blank and `#` lines are skipped, and errors name the line."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
            key, _, raw = (part.strip() for part in line.partition("="))
            values[key] = parse_setting(parsers, key, raw, f"line {lineno}")
    return values


def _optional(cast):
    def parse(raw):
        return None if raw.strip().lower() == "none" else cast(raw)
    return parse


# parser by config dataclass field annotation, a string under
# `from __future__ import annotations`
_CASTS = {"int": int, "float": float, "str": str, "float | None": _optional(float)}


_NOT_IN_ID = re.compile(r'[\x00-\x1f,"]')


def check_ids(ids, where):
    """Refuse an utterance or speaker id holding a comma, a `"` or a control
    character (U+0000-U+001F): a ValueError that starts with `where`, or
    with where(k) for the k-th id if `where` is a function."""
    for k, bad in enumerate(map(_NOT_IN_ID.search, ids)):
        if bad:
            raise ValueError(f"{where(k) if callable(where) else where}: id {bad.string!r} "
                             f"holds {bad.group()!r}; an id holds no comma, no '\"' and "
                             "no control character")


@dataclass
class ManifestEntry:
    utterance_id: str
    speaker_id: str
    path: str
    row: int = 0    # the window's row in the feature store at path; 0 for a WAV


@dataclass
class Manifest:
    entries: list

    def __len__(self):
        return len(self.entries)

    def speakers(self) -> list[str]:
        return sorted({e.speaker_id for e in self.entries})

    def by_speaker(self) -> dict:
        out: dict[str, list[ManifestEntry]] = {}
        for e in self.entries:
            out.setdefault(e.speaker_id, []).append(e)
        return out

    def save(self, path):
        check_ids([i for e in self.entries for i in (e.utterance_id, e.speaker_id)], path)
        with atomic_write(path, "w", encoding="utf-8") as fh:
            for e in self.entries:
                fh.write(f"{e.utterance_id}\t{e.speaker_id}\t{e.path}\t{e.row}\n")

    @classmethod
    def load(cls, path, check_paths: bool = True) -> "Manifest":
        entries = []
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 4:
                    raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
                utt, spk, p, row = parts
                check_ids((utt, spk), f"{path}:{lineno}")
                # os.path.exists: False, not OSError, for a name too long to stat
                if check_paths and not os.path.exists(p):
                    raise FileNotFoundError(f"{path}:{lineno}: missing file {p}")
                try:
                    index = int(row)
                except ValueError:
                    index = -1
                if index < 0:
                    raise ValueError(f"{path}:{lineno}: row {row!r} "
                                     "is not a non-negative integer")
                entries.append(ManifestEntry(utt, spk, p, index))
        return cls(entries)


MIN_BANDWIDTH_HZ = 10.0


@dataclass
class SynthSpeakerSpec:
    """Generative parameters of one synthetic speaker."""

    speaker_id: str
    pitch_hz: float
    formants_hz: tuple
    bandwidths_hz: tuple
    noise_level: float

    def __post_init__(self):
        if not 60.0 <= self.pitch_hz <= 300.0:
            raise ValueError(f"pitch {self.pitch_hz} Hz outside [60, 300]")
        if any(f >= SAMPLE_RATE / 2 for f in self.formants_hz):
            raise ValueError(f"formants {self.formants_hz} must stay below Nyquist")
        # synthesis pads its FFT by ~46 / (pi * bw / SAMPLE_RATE) samples,
        # ~12,000 at 10 Hz; a bandwidth <= 0 would make a resonator diverge
        if not all(MIN_BANDWIDTH_HZ <= b <= SAMPLE_RATE / 2 for b in self.bandwidths_hz):
            raise ValueError(f"bandwidths_hz {self.bandwidths_hz} must lie in "
                             f"[{MIN_BANDWIDTH_HZ:g}, {SAMPLE_RATE / 2:g}] Hz")


def make_speaker_spec(master_seed: int, index: int, speaker_id: str) -> SynthSpeakerSpec:
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, index]))
    return SynthSpeakerSpec(
        speaker_id=speaker_id,
        pitch_hz=float(rng.uniform(80.0, 250.0)),
        formants_hz=(
            float(rng.uniform(300.0, 850.0)),
            float(rng.uniform(950.0, 2100.0)),
            float(rng.uniform(2300.0, 3400.0)),
        ),
        bandwidths_hz=tuple(float(b) for b in rng.uniform(60.0, 120.0, size=3)),
        noise_level=float(rng.uniform(0.01, 0.03)),
    )


def _fast_fft_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length numpy's FFT is fast at."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _pulse_train(rng, n: int, pitch_hz: float) -> np.ndarray:
    """n samples of glottal pulses at pitch_hz with 3% jitter per period.

    Pulse k + 1 follows pulse k by period * (1 + u_k), u_k ~ U(-0.03, 0.03),
    until a position reaches n: one draw per pulse.  More draws than can be
    needed are made, the pulses counted, and the generator rewound to draw
    exactly that many, so the draws after these are the ones a draw per
    pulse leaves.
    """
    period = SAMPLE_RATE / pitch_hz
    state = rng.bit_generator.state
    bound = int(n / (0.97 * period)) + 2
    positions = np.cumsum(np.concatenate(
        ([0.0], period * (1.0 + rng.uniform(-0.03, 0.03, bound)))))
    count = int(np.searchsorted(positions, n))
    rng.bit_generator.state = state
    rng.uniform(-0.03, 0.03, count)
    pulses = np.zeros(n)
    pulses[positions[:count].astype(np.intp)] = 1.0
    return pulses


@functools.lru_cache(maxsize=16)
def _unit_delay(size: int) -> np.ndarray:
    """z^-1 = e^(-2 pi i k / size) at each bin k of a real FFT of that size.

    Cached: a corpus asks for few sizes, and the complex exp costs as much
    as the FFT itself.
    """
    z = np.exp(-2j * np.pi / size * np.arange(size // 2 + 1))
    z.flags.writeable = False
    return z


def _resonate(x: np.ndarray, poles) -> np.ndarray:
    """x through the resonators (1 - r) / ((1 - p z^-1)(1 - conj(p) z^-1)),
    p = r e^(i theta), one per (r, theta) in poles, in cascade.

    The cascade is applied as one frequency response.  Each pole's factor is
    evaluated on its own at every FFT bin, which stays accurate when poles
    lie close together.  The FFT runs so far past len(x) that the slowest
    pole has decayed below e^-46 < 1e-20 there, which keeps the circular
    wrap-around below rounding.
    """
    n = len(x)
    size = _fast_fft_len(n + math.ceil(-46.0 / math.log(max(r for r, _ in poles))))
    z = _unit_delay(size)
    gain, den = 1.0, np.ones_like(z)
    for r, theta in poles:
        p = r * np.exp(1j * theta)
        gain *= 1.0 - r
        den *= (1.0 - p * z) * (1.0 - p.conjugate() * z)
    return np.fft.irfft(np.fft.rfft(x, size) * (gain / den), size)[:n]


# a WAV's RIFF size field, 32 bits, counts 36 header bytes and 2 per sample
_MAX_WAV_SAMPLES = (2**32 - 1 - 36) // 2


def _sample_count(duration_s: float) -> int:
    if not math.isfinite(duration_s):
        raise ValueError(f"duration must be finite, got {duration_s}")
    if duration_s > _MAX_WAV_SAMPLES / SAMPLE_RATE:
        raise ValueError(f"duration {duration_s} s does not fit a WAV file, "
                         f"at most {_MAX_WAV_SAMPLES / SAMPLE_RATE} s")
    n = int(round(duration_s * SAMPLE_RATE))
    if n < 1:
        raise ValueError(f"duration {duration_s} s holds no samples")
    return n


def synth_utterance(spec: SynthSpeakerSpec, duration_s: float,
                    master_seed: int, speaker_index: int, utt_index: int) -> AudioClip:
    """Render one utterance: jittered pulse train through formant resonators."""
    rng = np.random.default_rng(
        np.random.SeedSequence([master_seed, speaker_index, utt_index])
    )
    n = _sample_count(duration_s)
    pulses = _pulse_train(rng, n, spec.pitch_hz)
    poles = [(np.exp(-np.pi * bw / SAMPLE_RATE),
              2.0 * np.pi * (f * (1.0 + rng.uniform(-0.02, 0.02))) / SAMPLE_RATE)
             for f, bw in zip(spec.formants_hz, spec.bandwidths_hz)]
    x = _resonate(pulses, poles)
    x = x / np.max(np.abs(x)) * 0.5 * rng.uniform(0.7, 1.0)
    x = x + rng.normal(0.0, spec.noise_level, n)
    return AudioClip(np.clip(x, -0.99, 0.99))


def check_synth_args(n_speakers: int = 2, utts_per_speaker: int = 1,
                     duration_s: float = 1.0, seed: int = 0):
    """Refuse what synth_corpus cannot use; every default passes, so one
    argument can be checked alone."""
    if n_speakers < 2:
        raise ValueError(f"need at least 2 speakers, got {n_speakers}")
    if utts_per_speaker < 1:
        raise ValueError(f"need at least 1 utterance per speaker, got {utts_per_speaker}")
    _sample_count(duration_s)   # refuses a clip too short or long for a WAV
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


# each extra process forked to render or featurize clips must get at least
# this many.  Both stages break even between 16 and 24 1 s clips per extra
# process on a 2-CPU x86-64 host, 60 MB resident; and after a fork the
# parent's next BLAS products touch a second OpenBLAS buffer, which put a
# paper-size training run's peak RSS ~5% higher when its 12-clip corpus was
# made in the same process
CLIP_FORK_FLOOR = 32


def synth_corpus(n_speakers: int, utts_per_speaker: int, duration_s: float,
                 seed: int, out_dir) -> Manifest:
    """Generate WAV files plus a manifest under out_dir.

    Same arguments produce a bit-identical audio set; speaker identities are
    derived from the seed so corpora built with different seeds are disjoint.
    The clips are rendered and written by `forked_map`'s processes, each a
    contiguous share, so the bytes do not depend on the CPU count.
    """
    check_synth_args(n_speakers, utts_per_speaker, duration_s, seed)
    out_dir = Path(out_dir)
    specs, entries = [], []
    for i in range(n_speakers):
        speaker_id = f"s{seed}_{i:03d}"
        specs.append(make_speaker_spec(seed, i, speaker_id))
        spk_dir = out_dir / "wav" / speaker_id
        spk_dir.mkdir(parents=True, exist_ok=True)
        for j in range(utts_per_speaker):
            utt_id = f"{speaker_id}-u{j:03d}"
            path = spk_dir / f"{utt_id}.wav"
            entries.append(ManifestEntry(utt_id, speaker_id, str(path), 0))

    def render(share):
        for k in share:
            i, j = divmod(k, utts_per_speaker)
            save_wav(entries[k].path, synth_utterance(specs[i], duration_s, seed, i, j))

    forked_map(render, len(entries), CLIP_FORK_FLOOR,
               f"{out_dir}: the process rendering clips")
    manifest = Manifest(entries)
    manifest.save(out_dir / "manifest.tsv")
    return manifest


def split(manifest: Manifest, train_fraction: float = 0.9,
          seed: int = 0) -> tuple[Manifest, Manifest]:
    """Per-speaker stratified split into train and test manifests."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9]))
    train, test = [], []
    for speaker_id, utts in sorted(manifest.by_speaker().items()):
        if len(utts) < 2:
            raise ValueError(
                f"speaker {speaker_id} has {len(utts)} utterance(s); need at least 2 to split"
            )
        order = rng.permutation(len(utts))
        n_train = int(round(train_fraction * len(utts)))
        n_train = min(max(n_train, 1), len(utts) - 1)
        for k, idx in enumerate(order):
            (train if k < n_train else test).append(utts[idx])
    return Manifest(train), Manifest(test)


def make_verification_split(manifest: Manifest, n_enrol_spk: int, n_eval_spk: int,
                            utts_per_spk: int = 10, seed: int = 0
                            ) -> tuple[Manifest, Manifest]:
    """Sample disjoint enrolment and evaluation speaker sets.

    Each selected speaker contributes exactly utts_per_spk utterances to its
    own side.
    """
    speakers = manifest.speakers()
    need = n_enrol_spk + n_eval_spk
    if need > len(speakers):
        raise ValueError(
            f"asked for {n_enrol_spk}+{n_eval_spk} speakers but the manifest has "
            f"only {len(speakers)}"
        )
    by_speaker = manifest.by_speaker()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
    chosen = rng.permutation(len(speakers))[:need]
    enrol_spk = sorted(speakers[i] for i in chosen[:n_enrol_spk])
    eval_spk = sorted(speakers[i] for i in chosen[n_enrol_spk:])

    def take(speaker_ids):
        out = []
        for speaker_id in speaker_ids:
            utts = by_speaker[speaker_id]
            if len(utts) < utts_per_spk:
                raise ValueError(
                    f"speaker {speaker_id} has {len(utts)} utterances, "
                    f"need {utts_per_spk}"
                )
            idx = rng.permutation(len(utts))[:utts_per_spk]
            out.extend(utts[k] for k in sorted(idx))
        return Manifest(out)

    return take(enrol_spk), take(eval_spk)
