"""Synthetic corpus generation, manifests, and splits."""
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from hvector import audio, corpus


def pulse_train_loop(rng, n, pitch_hz):
    """Reference for `corpus._pulse_train`: one scalar jitter draw per pulse."""
    pulses = np.zeros(n)
    pos = 0.0
    while pos < n:
        pulses[int(pos)] = 1.0
        period = audio.SAMPLE_RATE / pitch_hz
        pos += period * (1.0 + rng.uniform(-0.03, 0.03))
    return pulses


def resonate_lfilter(x, poles):
    """Reference for `corpus._resonate`: the two-pole recursions in cascade."""
    for r, theta in poles:
        x = lfilter([1.0 - r], [1.0, -2.0 * r * np.cos(theta), r * r], x)
    return x


class TestSynth:
    def test_counts_and_duration(self, tmp_path):
        manifest = corpus.synth_corpus(3, 4, 1.0, seed=5, out_dir=tmp_path)
        assert len(manifest) == 12
        assert len(manifest.speakers()) == 3
        clip = audio.load_wav(manifest.entries[0].path)
        assert len(clip.samples) == 8000

    def test_same_seed_is_bit_identical(self, tmp_path):
        a = corpus.synth_corpus(2, 3, 1.0, seed=9, out_dir=tmp_path / "a")
        b = corpus.synth_corpus(2, 3, 1.0, seed=9, out_dir=tmp_path / "b")
        for ea, eb in zip(a.entries, b.entries):
            assert ea.utterance_id == eb.utterance_id
            raw_a = open(ea.path, "rb").read()
            raw_b = open(eb.path, "rb").read()
            assert raw_a == raw_b

    def test_different_seeds_give_disjoint_speakers(self, tmp_path):
        a = corpus.synth_corpus(2, 2, 1.0, seed=1, out_dir=tmp_path / "a")
        b = corpus.synth_corpus(2, 2, 1.0, seed=2, out_dir=tmp_path / "b")
        assert not set(a.speakers()) & set(b.speakers())

    def test_speaker_spec_ranges(self):
        for i in range(20):
            spec = corpus.make_speaker_spec(3, i, f"x{i}")
            assert 60 <= spec.pitch_hz <= 300
            assert all(f < 4000 for f in spec.formants_hz)

    def test_wav_bytes_are_pinned(self, tmp_path):
        # digest of the WAV files as the per-pulse loop and scipy's lfilter
        # wrote them, before synthesis moved to numpy alone
        manifest = corpus.synth_corpus(2, 3, 0.5, seed=7, out_dir=tmp_path)
        digest = hashlib.sha256()
        for e in manifest.entries:
            digest.update(Path(e.path).read_bytes())
        assert digest.hexdigest() == (
            "1706cbf8020e5776e1a3847b938345123a74769e0795cf8d8d66ee4c7513800e")

    @settings(max_examples=150, deadline=None)
    @given(pitch_hz=st.floats(60.0, 300.0), duration_s=st.floats(0.1, 4.0),
           seed=st.integers(0, 2**32 - 1))
    def test_pulse_train_matches_per_pulse_loop(self, pitch_hz, duration_s, seed):
        n = int(round(duration_s * audio.SAMPLE_RATE))
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(corpus._pulse_train(fast, n, pitch_hz),
                              pulse_train_loop(slow, n, pitch_hz))
        # the generator is left where the loop leaves it, so the formant,
        # gain and noise draws that follow are unchanged
        assert fast.bit_generator.state == slow.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(800, 32_000),
           formants=st.lists(st.floats(250.0, 3750.0), min_size=3, max_size=3),
           bandwidths=st.lists(st.floats(corpus.MIN_BANDWIDTH_HZ, 4000.0),
                               min_size=3, max_size=3))
    @example(seed=0, n=8000, formants=[1000.0, 1005.0, 1010.0], bandwidths=[10.0] * 3)
    @example(seed=1, n=8000, formants=[3740.0, 3745.0, 3750.0], bandwidths=[10.0] * 3)
    def test_resonators_match_lfilter_cascade(self, seed, n, formants, bandwidths):
        # formants span past make_speaker_spec's jittered 294-3468 Hz.  Close
        # to 0 Hz or Nyquist, narrow coincident resonators make the recursion
        # the less accurate of the two (20 Hz x3 at 10 Hz: lfilter 1.8e-12,
        # the FFT 3e-14, against an extended-precision recursion), so the
        # oracle stops short of there.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) * (rng.random(n) < 0.1)
        x[0] = 1.0
        poles = [(np.exp(-np.pi * bw / audio.SAMPLE_RATE), 2.0 * np.pi * f / audio.SAMPLE_RATE)
                 for f, bw in zip(formants, bandwidths)]
        want = resonate_lfilter(x, poles)
        got = corpus._resonate(x, poles)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("bandwidths", [(60.0, 0.0, 90.0), (60.0, -5.0, 90.0),
                                            (9.9, 80.0, 90.0), (60.0, 80.0, float("nan"))])
    def test_bad_bandwidth_rejected(self, bandwidths):
        with pytest.raises(ValueError, match="bandwidths_hz"):
            corpus.SynthSpeakerSpec("x", 120.0, (500.0, 1500.0, 2500.0), bandwidths,
                                    0.02)

    def test_empty_duration_rejected(self):
        spec = corpus.make_speaker_spec(0, 0, "x")
        with pytest.raises(ValueError, match="no samples"):
            corpus.synth_utterance(spec, 0.0, 0, 0, 0)
        for duration in (np.inf, np.nan):
            with pytest.raises(ValueError, match="duration must be finite"):
                corpus.synth_utterance(spec, duration, 0, 0, 0)

    def test_duration_must_fit_a_wav_file(self):
        # the RIFF size field, 36 header bytes plus 2 per sample, is 32 bits;
        # only the check runs here, nothing is rendered
        longest = (2**32 - 1 - 36) // 2
        corpus.check_synth_args(duration_s=longest / audio.SAMPLE_RATE)
        for duration in ((longest + 1) / audio.SAMPLE_RATE, 1e9, 1e305):
            with pytest.raises(ValueError, match=r"does not fit a WAV file, at most "
                                                 r"268435\.453625 s$"):
                corpus.check_synth_args(duration_s=duration)

    def test_too_few_speakers_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least 2"):
            corpus.synth_corpus(1, 5, 1.0, seed=0, out_dir=tmp_path)

    def test_speakers_separable_by_mean_mfcc(self, tmp_path):
        # nearest-centroid sanity check on held-out utterances
        manifest = corpus.synth_corpus(6, 10, 1.0, seed=11, out_dir=tmp_path)
        feats, labels = [], []
        speakers = manifest.speakers()
        for e in manifest.entries:
            clip = audio.load_wav(e.path)
            feats.append(audio.mfcc_frames(clip).mean(axis=0))
            labels.append(speakers.index(e.speaker_id))
        feats = np.stack(feats)
        labels = np.array(labels)
        train = np.ones(len(feats), dtype=bool)
        train[::5] = False  # hold out every fifth utterance
        centroids = np.stack([
            feats[train & (labels == k)].mean(axis=0) for k in range(6)
        ])
        test = ~train
        d = np.linalg.norm(feats[test, None, :] - centroids[None], axis=2)
        acc = np.mean(d.argmin(axis=1) == labels[test])
        assert acc >= 0.9


class TestManifest:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.tsv"
        feature = tmp_path / "u0.hvt"
        feature.write_bytes(b"x")
        m = corpus.Manifest([corpus.ManifestEntry("u0", "s0", str(feature), 98)])
        m.save(path)
        loaded = corpus.Manifest.load(path)
        assert loaded.entries[0].utterance_id == "u0"
        assert loaded.entries[0].row == 98

    def test_missing_path_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("u0\ts0\t/nonexistent/u0.hvt\t98\n")
        with pytest.raises(FileNotFoundError):
            corpus.Manifest.load(path)
        loaded = corpus.Manifest.load(path, check_paths=False)
        assert len(loaded) == 1

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("u0\ts0\n")
        with pytest.raises(ValueError, match="4 tab-separated"):
            corpus.Manifest.load(path)

    def test_undecodable_byte_names_its_line_past_the_first_chunk(self, tmp_path):
        # text files are decoded in chunks of a few KiB; the line is the file's
        lines = [f"u{i}\ts\tx.hvt\t98\n".encode() for i in range(3000)]
        lines[2499] = b"u2499\ts\t\xe9.hvt\t98\n"
        path = tmp_path / "m.tsv"
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2500: not UTF-8 text"):
            corpus.Manifest.load(path, check_paths=False)


def _fake_manifest(n_speakers, utts_per_speaker):
    entries = [
        corpus.ManifestEntry(f"s{i:02d}-u{j:02d}", f"s{i:02d}", f"/tmp/{i}_{j}", 98)
        for i in range(n_speakers)
        for j in range(utts_per_speaker)
    ]
    return corpus.Manifest(entries)


class TestSplit:
    def test_stratified_fractions(self):
        m = _fake_manifest(5, 60)
        train, test = corpus.split(m, 0.9, seed=3)
        assert len(train) == 5 * 54 and len(test) == 5 * 6
        for spk, utts in train.by_speaker().items():
            assert len(utts) == 54

    def test_partition_is_exact(self):
        m = _fake_manifest(4, 10)
        train, test = corpus.split(m, 0.9, seed=1)
        all_ids = {e.utterance_id for e in m.entries}
        got = {e.utterance_id for e in train.entries} | {e.utterance_id for e in test.entries}
        assert got == all_ids
        assert not {e.utterance_id for e in train.entries} & {e.utterance_id for e in test.entries}

    def test_deterministic(self):
        m = _fake_manifest(3, 20)
        a = corpus.split(m, 0.9, seed=7)
        b = corpus.split(m, 0.9, seed=7)
        assert [e.utterance_id for e in a[0].entries] == [e.utterance_id for e in b[0].entries]

    def test_both_sides_nonempty_for_tiny_speakers(self):
        m = _fake_manifest(2, 2)
        train, test = corpus.split(m, 0.9, seed=0)
        for spk, utts in train.by_speaker().items():
            assert len(utts) == 1
        assert len(test) == 2

    def test_single_utterance_speaker_rejected(self):
        m = _fake_manifest(2, 1)
        with pytest.raises(ValueError, match="at least 2"):
            corpus.split(m, 0.9, seed=0)


class TestVerificationSplit:
    def test_disjoint_speakers_and_counts(self):
        m = _fake_manifest(20, 12)
        enrol, ev = corpus.make_verification_split(m, 5, 5, 10, seed=2)
        enrol_spk = set(enrol.speakers())
        eval_spk = set(ev.speakers())
        assert len(enrol_spk) == 5 and len(eval_spk) == 5
        assert not enrol_spk & eval_spk
        for utts in enrol.by_speaker().values():
            assert len(utts) == 10
        for utts in ev.by_speaker().values():
            assert len(utts) == 10

    def test_deterministic(self):
        m = _fake_manifest(30, 10)
        a = corpus.make_verification_split(m, 4, 6, 10, seed=5)
        b = corpus.make_verification_split(m, 4, 6, 10, seed=5)
        assert [e.utterance_id for e in a[0].entries] == [e.utterance_id for e in b[0].entries]
        assert [e.utterance_id for e in a[1].entries] == [e.utterance_id for e in b[1].entries]

    def test_insufficient_speakers(self):
        m = _fake_manifest(6, 10)
        with pytest.raises(ValueError, match="only 6"):
            corpus.make_verification_split(m, 5, 5, 10, seed=0)

    def test_insufficient_utterances(self):
        m = _fake_manifest(12, 4)
        with pytest.raises(ValueError, match="need 10"):
            corpus.make_verification_split(m, 5, 5, 10, seed=0)
