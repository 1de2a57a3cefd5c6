import csv
import io
import os
import re
import tempfile
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hvector.scoring as scoring
import hvector.tensor as hv
from hvector.scoring import (
    EmbeddingRecord,
    PldaModel,
    Trial,
    _lda_projection,
    compute_eer,
    cosine_score,
    eer_operating_point,
    embedding_matrix,
    enrolment_models,
    load_embeddings,
    load_trials,
    make_trials,
    plda_fit,
    plda_score,
    save_eer_report,
    save_embeddings,
    save_score_matrix,
    save_trials,
    score_trials,
)

from test_acceptance import sample_two_cov, sweep_oracle


def threshold_oracle(scores, targets):
    """Brute-force threshold: the distinct score minimising
    (|FAR - FRR|, score), with exact rational error rates."""
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=bool)
    t_scores = scores[targets]
    n_scores = scores[~targets]

    def key(th):
        far = Fraction(int((n_scores >= th).sum()), len(n_scores))
        frr = Fraction(int((t_scores < th).sum()), len(t_scores))
        return abs(far - frr), th
    return float(min(np.unique(scores), key=key))


# scores from a small grid (heavy ties) or anywhere, both classes present
_score_sets = st.lists(
    st.tuples(st.one_of(st.integers(-3, 3).map(lambda k: k / 2.0),
                        st.floats(-1e3, 1e3, allow_nan=False)),
              st.booleans()),
    min_size=2, max_size=60,
).filter(lambda rows: {t for _, t in rows} == {True, False})


# runs of consecutive distinct scores held by one class only (the sweep's
# straight stretches) next to runs that both classes share; each step of a
# run draws its own (targets, non-targets) tie counts
_score_runs = st.lists(
    st.tuples(st.sampled_from(["target", "non-target", "both"]),
              st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                       min_size=1, max_size=8)),
    min_size=1, max_size=10,
)


def _expand_runs(runs):
    """(scores, targets) with one distinct score per step of each run."""
    scores, targets = [], []
    for kind, steps in runs:
        for n_target, n_non in steps:
            level = len(set(scores)) / 4.0
            n_target *= kind != "non-target"
            n_non *= kind != "target"
            scores += [level] * (n_target + n_non)
            targets += [True] * n_target + [False] * n_non
    return scores, targets


class _StableSortNumpy:
    """numpy, with a stable argsort."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def argsort(a):
        return np.argsort(a, kind="stable")


class TestEqualErrorRate:
    def test_interleaved_example(self):
        # one miss or one false alarm at the crossing: a quarter either way
        assert compute_eer([2.0, 3.0, 1.0, 2.5], [1, 1, 0, 0]) == 0.25

    def test_identical_distributions(self):
        assert compute_eer([1.0, 2.0, 1.0, 2.0], [1, 1, 0, 0]) == 0.5

    def test_perfect_separation(self):
        assert compute_eer([5.0, 6.0, 1.0, 2.0], [1, 1, 0, 0]) == 0.0

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="non-target"):
            compute_eer([1.0, 2.0], [1, 1])
        with pytest.raises(ValueError, match="target"):
            compute_eer([1.0, 2.0], [0, 0])

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            compute_eer([1.0, np.nan], [1, 0])

    def test_matches_sweep_oracle_exactly(self):
        rng = np.random.default_rng(1)
        sizes = [500, 500] + list(rng.integers(2, 501, size=24))
        for i, n in enumerate(sizes):
            n_t = int(rng.integers(1, n))
            targets = np.zeros(n, dtype=bool)
            targets[:n_t] = True
            if i % 3 == 0:
                scores = rng.standard_normal(n) + targets * rng.uniform(0.0, 2.0)
            elif i % 3 == 1:
                scores = rng.integers(0, 10, n).astype(float)  # heavy ties
            else:
                scores = np.round(rng.standard_normal(n), 1)
            assert compute_eer(scores, targets) == sweep_oracle(scores, targets)

    def test_invariant_under_strictly_increasing_transforms(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(5, 80))
            targets = rng.random(n) < 0.5
            if targets.all() or not targets.any():
                continue
            scores = rng.standard_normal(n)
            base = compute_eer(scores, targets)
            assert compute_eer(3.0 * scores + 7.0, targets) == base
            assert compute_eer(np.exp(scores), targets) == base
            assert compute_eer(np.arctan(scores), targets) == base

    def test_operating_point_threshold(self):
        eer, threshold = eer_operating_point([2.0, 3.0, 1.0, 2.5], [1, 1, 0, 0])
        assert eer == 0.25
        assert threshold == 2.5

    @settings(max_examples=300, deadline=None)
    @given(_score_sets)
    def test_operating_point_matches_brute_force(self, rows):
        scores = [s for s, _ in rows]
        targets = [t for _, t in rows]
        eer, threshold = eer_operating_point(scores, targets)
        assert eer == sweep_oracle(scores, targets)
        assert threshold == threshold_oracle(scores, targets)

    @settings(max_examples=150, deadline=None)
    @given(_score_runs, st.randoms(use_true_random=False))
    def test_long_one_class_runs_match_brute_force(self, runs, shuffler):
        scores, targets = _expand_runs(runs)
        assume(any(targets) and not all(targets))
        order = list(range(len(scores)))
        shuffler.shuffle(order)
        scores = [scores[i] for i in order]
        targets = [targets[i] for i in order]
        eer, threshold = eer_operating_point(scores, targets)
        assert eer == sweep_oracle(scores, targets)
        assert threshold == threshold_oracle(scores, targets)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 3000), levels=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_order_within_a_tie_changes_nothing(self, n, levels, seed):
        # integer scores from a few levels: almost every trial ties, and an
        # unstable sort orders a tie's trials differently from the stable
        # sort the sweep once used, which is the oracle here
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, levels, n).astype(float)
        targets = rng.random(n) < rng.uniform(0.05, 0.95)
        assume(targets.any() and not targets.all())
        with mock.patch.object(scoring, "np", _StableSortNumpy()):
            want = eer_operating_point(scores, targets)
        assert eer_operating_point(scores, targets) == want

    def test_cross_products_beyond_int64(self):
        # 65,000 targets spread over 12 scores and 65,000 non-targets on the
        # top three: n_target * n_non = 4.2e9, and the hull's orientation
        # tests multiply coordinate spans of that size, past 2**63
        target_counts = [5000] * 11 + [10000]
        nontarget_counts = [0] * 9 + [55000, 5000, 5000]
        grid = np.arange(12.0)
        scores = np.r_[np.repeat(grid, target_counts), np.repeat(grid, nontarget_counts)]
        targets = np.r_[np.ones(65000, bool), np.zeros(65000, bool)]
        eer, threshold = eer_operating_point(scores, targets)
        assert eer == sweep_oracle(scores, targets)
        assert threshold == threshold_oracle(scores, targets)


class TestMakeTrials:
    def embed(self, spk, utt, vec):
        return EmbeddingRecord(utt, spk, np.asarray(vec, dtype=float))

    def test_cartesian_count(self):
        enrol = [self.embed("a", "a1", [1.0]), self.embed("b", "b1", [2.0])]
        eval_recs = [self.embed("a", f"e{i}", [0.5]) for i in range(4)]
        assert len(make_trials(enrol, eval_recs)) == 8

    def test_one_target_per_own_utterance(self):
        enrol = [self.embed("a", "a1", [1.0]), self.embed("b", "b1", [2.0])]
        eval_recs = [self.embed("a", "x", [0.0]), self.embed("c", "y", [0.0])]
        trials = make_trials(enrol, eval_recs)
        targets_for_x = [t for t in trials if t.test_utterance == "x" and t.target]
        assert len(targets_for_x) == 1
        assert targets_for_x[0].enrol_speaker == "a"
        assert not any(t.target for t in trials if t.test_utterance == "y")

    def test_enrolment_model_is_mean(self):
        enrol = [self.embed("a", "a1", [1.0, 3.0]), self.embed("a", "a2", [3.0, 5.0])]
        trials = make_trials(enrol, [self.embed("a", "x", [0.0, 0.0])])
        assert np.array_equal(trials[0].enrol_vector, [2.0, 4.0])

    def test_fifty_enrol_speakers_against_1200_utterances(self):
        enrol = [self.embed(f"s{k:03d}", f"s{k:03d}-u{j}", [0.1, 0.2])
                 for k in range(50) for j in range(10)]
        eval_recs = [self.embed(f"s{k:03d}", f"s{k:03d}-v{j}", [0.3, 0.4])
                     for k in range(120) for j in range(10)]
        trials = make_trials(enrol, eval_recs)
        assert len(trials) == 60000
        assert sum(t.target for t in trials) == 500  # 50 shared speakers x 10 utts

    def test_length_norm_flag(self):
        # score-ver's length_norm=true: each record normalized, then the mean
        enrol = [self.embed("a", "a1", [2.0, 0.0]), self.embed("a", "a2", [0.0, 4.0])]
        trials = make_trials(unit_records(enrol),
                             unit_records([self.embed("a", "x", [3.0, 4.0])]))
        np.testing.assert_allclose(trials[0].enrol_vector, [0.5, 0.5])
        np.testing.assert_allclose(trials[0].test_vector, [0.6, 0.8])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            make_trials([], [self.embed("a", "x", [1.0])])
        with pytest.raises(ValueError, match="non-empty"):
            make_trials([self.embed("a", "x", [1.0])], [])

    def test_cosine_score(self):
        assert abs(cosine_score([1.0, 0.0], [0.0, 1.0])) < 1e-15
        assert abs(cosine_score([2.0, 0.0], [5.0, 0.0]) - 1.0) < 1e-15

    def test_row_wise_cosine_matches_per_pair_dot(self):
        def unit(v):
            n = np.linalg.norm(v)
            return v if n == 0.0 else v / n

        rng = np.random.default_rng(5)
        e = rng.standard_normal((500, 64)) * rng.uniform(0.01, 100.0, (500, 1))
        t = rng.standard_normal((500, 64))
        e[7] = 0.0
        scores = cosine_score(e, t)
        expected = [float(np.dot(unit(a), unit(b))) for a, b in zip(e, t)]
        assert scores.shape == (500,)
        assert scores[7] == 0.0
        assert scores.tolist() == expected


def unit_records(records):
    """The records with each vector length-normalized, as `score-ver` reads
    them under length_norm=true."""
    return [EmbeddingRecord(r.utterance_id, r.speaker_id, v)
            for r, v in zip(records, embedding_matrix(records, length_norm=True))]


def make_trials_oracle(enrol, eval_records, length_norm=False):
    """Per-pair trials as the one-Trial-per-pair back end built them: each
    enrolment model a mean of per-record vectors, speakers sorted."""
    def vector(r):
        v = np.asarray(r.vector, dtype=np.float64)
        if not length_norm:
            return v
        norm = np.sqrt((v[None] @ v[:, None])[0, 0])
        return v / (1.0 if norm == 0.0 else norm)

    by_speaker = {}
    for r in enrol:
        by_speaker.setdefault(r.speaker_id, []).append(vector(r))
    models = {spk: np.mean(vs, axis=0) for spk, vs in sorted(by_speaker.items())}
    return [Trial(spk, r.utterance_id, m, vector(r), r.speaker_id == spk)
            for spk, m in models.items() for r in eval_records]


def llr_oracle(model, e, t):
    """The LLR as two quadratic forms in u = (e+t)/sqrt(2), v = (e-t)/sqrt(2),
    on row-stacked projected vectors, and the size of its terms,
    |const| + |u'Pu/2| + |v'Qv/2|, to which its rounding error scales."""
    b, w = model.phi_b, model.phi_w
    t_inv = np.linalg.inv(b + w)
    p = t_inv - np.linalg.inv(w + 2.0 * b)
    q = t_inv - np.linalg.inv(w)
    const = (np.linalg.slogdet(b + w)[1]
             - 0.5 * (np.linalg.slogdet(w + 2.0 * b)[1] + np.linalg.slogdet(w)[1]))
    u = (e + t - 2.0 * model.mu) / np.sqrt(2.0)
    v = (e - t) / np.sqrt(2.0)
    u_term = 0.5 * np.sum((u @ p) * u, axis=1)
    v_term = 0.5 * np.sum((v @ q) * v, axis=1)
    return const + u_term + v_term, abs(const) + np.abs(u_term) + np.abs(v_term)


def assert_plda_matches_oracle(model, trials, models, tests):
    """plda_score on the (K, N) matrix and score_trials on the trial list
    agree with llr_oracle within 1e-12 of the largest trial's terms: when
    the terms cancel, the score is far smaller than their rounding error.
    Returns the oracle's scores and term sizes."""
    e = np.stack([tr.enrol_vector for tr in trials])
    t = np.stack([tr.test_vector for tr in trials])
    expected, terms = llr_oracle(model, model.project(e), model.project(t))
    plda = plda_score(model, models[:, None], tests[None])
    assert plda.shape == (len(models), len(tests))
    bound = 1e-12 * np.max(terms)
    assert np.max(np.abs(plda.ravel() - expected)) <= bound
    assert np.max(np.abs(score_trials(model, trials) - expected)) <= bound
    return expected, terms


# plain tokens (corpus.check_ids): inner and outer spaces, non-ASCII
# letters and the empty id included
_ids = st.sampled_from(["a", "b", "spk 3", " pad ", "é語", ""])


@st.composite
def _verification_sets(draw):
    """Enrolment and evaluation records in d dims, some of them zero vectors."""
    d = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def records(n, tag):
        out = []
        for i in range(n):
            vec = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
            if draw(st.integers(0, 4)) == 0:
                vec[:] = 0.0
            out.append(EmbeddingRecord(f"{tag}{i}", draw(_ids), vec))
        return out

    return d, rng, records(draw(st.integers(1, 9)), "e"), records(draw(st.integers(1, 9)), "t")


class TestScoreMatrix:
    """The (K, N) score matrix `score-ver` computes, held to per-pair oracles."""

    @settings(max_examples=150, deadline=None)
    @given(_verification_sets(), st.booleans())
    def test_matrix_equals_per_pair_scoring(self, sets, length_norm):
        d, rng, enrol, eval_records = sets
        trials = make_trials_oracle(enrol, eval_records, length_norm)
        if length_norm:
            enrol, eval_records = unit_records(enrol), unit_records(eval_records)
        speakers, models = enrolment_models(enrol)
        tests = embedding_matrix(eval_records)
        targets = speakers[:, None] == np.array([r.speaker_id for r in eval_records])
        assert [(tr.enrol_speaker, tr.test_utterance, tr.target) for tr in trials] == [
            (spk, r.utterance_id, bool(targets[k, j]))
            for k, spk in enumerate(speakers) for j, r in enumerate(eval_records)]
        e = np.stack([tr.enrol_vector for tr in trials])
        t = np.stack([tr.test_vector for tr in trials])
        assert np.array_equal(models[:, None].repeat(len(tests), 1).reshape(e.shape), e)

        cosine = cosine_score(models[:, None], tests[None])
        assert cosine.shape == targets.shape
        assert cosine.ravel().tolist() == cosine_score(e, t).tolist()

        k = int(rng.integers(1, d + 1))
        a, c = rng.standard_normal((2, k, k))
        model = PldaModel(mean=rng.standard_normal(d), lda=rng.standard_normal((d, k)),
                          mu=rng.standard_normal(k), phi_b=a @ a.T + 0.1 * np.eye(k),
                          phi_w=c @ c.T + 0.1 * np.eye(k))
        assert_plda_matches_oracle(model, trials, models, tests)

    def test_plda_score_whose_terms_cancel(self):
        """At t = 0 with B = W = 1 in one dimension the LLR is
        log 2 - log(3)/2 - e^2/12, zero at e^2 = 12 log 2 - 6 log 3: the
        score is rounding noise, ~1e-16 against terms of ~0.4."""
        model = PldaModel(mean=np.zeros(1), lda=np.eye(1), mu=np.zeros(1),
                          phi_b=np.eye(1), phi_w=np.eye(1))
        root = np.sqrt(12.0 * np.log(2.0) - 6.0 * np.log(3.0))
        enrol = [EmbeddingRecord("e0", "a", np.array([root + 0.75])),
                 EmbeddingRecord("e1", "a", np.array([root - 0.75]))]
        eval_records = [EmbeddingRecord("t0", "b", np.zeros(1))]
        _, models = enrolment_models(enrol)
        expected, terms = assert_plda_matches_oracle(
            model, make_trials_oracle(enrol, eval_records), models,
            embedding_matrix(eval_records))
        assert abs(expected[0]) <= 1e-12 * terms[0]

    @settings(max_examples=60, deadline=None)
    @given(_verification_sets())
    def test_matrix_file_equals_per_trial_file(self, sets):
        _, rng, enrol, eval_records = sets
        trials = make_trials_oracle(enrol, eval_records)
        speakers, _ = enrolment_models(enrol)
        targets = speakers[:, None] == np.array([r.speaker_id for r in eval_records])
        scores = rng.standard_normal(targets.shape) * 10.0 ** rng.uniform(-20, 20)
        with tempfile.TemporaryDirectory() as tmp:
            save_trials(f"{tmp}/oracle.csv", trials, scores.ravel())
            save_score_matrix(f"{tmp}/matrix.csv", speakers,
                              [r.utterance_id for r in eval_records], scores, targets)
            with open(f"{tmp}/oracle.csv", "rb") as a, open(f"{tmp}/matrix.csv", "rb") as b:
                assert a.read() == b.read()
            with open(f"{tmp}/matrix.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
        assert rows[1:] == [[tr.enrol_speaker, tr.test_utterance, repr(s), str(int(tr.target))]
                            for tr, s in zip(trials, scores.ravel().tolist())]

    def test_matrix_file_rejects_mismatched_shapes(self, tmp_path):
        with pytest.raises(ValueError, match="2 x 3 trials"):
            save_score_matrix(tmp_path / "t.csv", ["a", "b"], ["u", "v", "w"],
                              np.zeros((3, 2)), np.zeros((3, 2), dtype=bool))


def _save_matrix(path, *args, workers, floor=1) -> int:
    """save_score_matrix with `workers` usable CPUs and a fork floor of
    `floor` trials; returns how many writer processes it forked."""
    with mock.patch.object(hv, "worker_count", return_value=workers), \
            mock.patch.object(scoring, "_FORK_FLOOR", floor), \
            mock.patch.object(scoring.os, "fork", wraps=os.fork) as fork:
        save_score_matrix(path, *args)
    return fork.call_count


# plain tokens, non-ASCII ones included
_row_ids = st.text(st.sampled_from("ab é語"), max_size=4)


class TestForkedScoreMatrix:
    """save_score_matrix's forked writers, held to its in-process path."""

    @settings(max_examples=40, deadline=None)
    @given(speakers=st.lists(_row_ids, min_size=1, max_size=6),
           tests=st.lists(_row_ids, min_size=1, max_size=5),
           workers=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    @example(speakers=["a"], tests=["u"], workers=4, seed=0)       # K = N = 1
    @example(speakers=["é", "a "], tests=["u"] * 3, workers=4, seed=1)   # K < workers
    def test_forked_file_equals_in_process_file(self, speakers, tests, workers, seed):
        rng = np.random.default_rng(seed)
        shape = (len(speakers), len(tests))
        scores = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-20, 20, shape)
        args = (speakers, tests, scores, rng.random(shape) < 0.5)
        with tempfile.TemporaryDirectory() as tmp:
            assert _save_matrix(f"{tmp}/serial.csv", *args, workers=1) == 0
            forks = _save_matrix(f"{tmp}/forked.csv", *args, workers=workers)
            assert forks == min(workers, len(speakers)) - 1
            assert sorted(os.listdir(tmp)) == ["forked.csv", "serial.csv"]
            with open(f"{tmp}/serial.csv", "rb") as a, open(f"{tmp}/forked.csv", "rb") as b:
                assert a.read() == b.read()

    @pytest.mark.parametrize("shape,workers,forks", [
        ((4, 5), 4, 1),         # 1 row of 5 trials per process is below 10; 2 rows are not
        ((4, 10), 4, 3),
        ((3, 9), 4, 0),         # 1 row of 9
        ((5, 10), 2, 1),
        ((1, 100), 4, 0),       # one enrolment row is never split
    ])
    def test_forks_only_past_the_floor(self, tmp_path, shape, workers, forks):
        args = ([f"s{k}" for k in range(shape[0])], [f"u{j}" for j in range(shape[1])],
                np.ones(shape), np.zeros(shape, dtype=bool))
        assert _save_matrix(tmp_path / "t.csv", *args, workers=workers, floor=10) == forks
        assert len(load_trials(tmp_path / "t.csv")[0]) == shape[0] * shape[1]


def rel_frobenius(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def spearman(a, b):
    ra = np.argsort(np.argsort(a))
    rb = np.argsort(np.argsort(b))
    return np.corrcoef(ra, rb)[0, 1]


def plda_fit_oracle(embeddings, use_lda, max_iter=50, tol=1e-6):
    """(mu, phi_b, phi_w, lda) of the two-covariance EM, one speaker at a time.

    Each speaker keeps its own scatter matrix, likelihood term and posterior,
    summed in Python; same initialisation, stopping rule, ridges and default
    LDA rank as `plda_fit`.
    """
    vectors = np.stack([r.vector for r in embeddings])
    mean = vectors.mean(axis=0)
    by_speaker = {}
    for r in embeddings:
        by_speaker.setdefault(r.speaker_id, []).append(r.vector - mean)
    groups = [np.stack(g) for _, g in sorted(by_speaker.items())]
    dim = len(mean)
    if use_lda:
        sw = np.zeros((dim, dim))
        sb = np.zeros((dim, dim))
        for g in groups:
            m = g.mean(axis=0)
            sw += (g - m).T @ (g - m)
            sb += len(g) * np.outer(m, m)
        sw, sb = sw / len(vectors), sb / len(vectors)
        try:
            evals, evecs = scipy.linalg.eigh(sb, sw)
        except scipy.linalg.LinAlgError:
            evals, evecs = scipy.linalg.eigh(sb, sw + 1e-6 * np.eye(dim))
        w = evecs[:, np.argsort(evals)[::-1][:min(len(groups) - 1, dim)]]
        signs = np.sign(w[np.argmax(np.abs(w), axis=0), np.arange(w.shape[1])])
        lda = w * np.where(signs == 0.0, 1.0, signs)
    else:
        lda = np.eye(dim)

    stats = []
    for g in groups:
        p = g @ lda
        m = p.mean(axis=0)
        stats.append((len(g), m, (p - m).T @ (p - m)))
    d = lda.shape[1]
    n_total = len(vectors)
    mu = sum(n * m for n, m, _ in stats) / n_total
    phi_w = sum(s for _, _, s in stats) / n_total + 1e-6 * np.eye(d)
    phi_b = sum(n * np.outer(m - mu, m - mu) for n, m, _ in stats) / n_total \
        + 1e-6 * np.eye(d)

    def log_likelihood():
        _, logdet_w = np.linalg.slogdet(phi_w)
        total = 0.0
        for n, m, s in stats:
            cov = phi_b * n + phi_w
            _, logdet = np.linalg.slogdet(cov)
            total += (-0.5 * n * d * np.log(2.0 * np.pi) - 0.5 * (n - 1) * logdet_w
                      - 0.5 * logdet - 0.5 * np.sum(np.linalg.inv(phi_w) * s)
                      - 0.5 * n * (m - mu) @ np.linalg.solve(cov, m - mu))
        return total

    ll_prev = -np.inf
    for _ in range(max_iter):
        ll = log_likelihood()
        if ll - ll_prev < tol:
            break
        ll_prev = ll
        post = []
        for n, m, _ in stats:
            gain = phi_b @ np.linalg.inv(phi_b + phi_w / n)
            post.append((mu + gain @ (m - mu), phi_b - gain @ phi_b))
        mu = sum(pm for pm, _ in post) / len(stats)
        phi_b = sum(pc + np.outer(pm - mu, pm - mu) for pm, pc in post) / len(stats)
        phi_w = sum(s + n * (np.outer(m - pm, m - pm) + pc)
                    for (n, m, s), (pm, pc) in zip(stats, post)) / n_total
        phi_b = 0.5 * (phi_b + phi_b.T)
        phi_w = 0.5 * (phi_w + phi_w.T)
        evals = np.linalg.eigvalsh(phi_w)
        if evals[0] <= 1e-12 * max(evals[-1], 1.0):
            phi_w = phi_w + 1e-6 * np.eye(d)
    return mu, phi_b, phi_w, lda


def log_normal(x, cov):
    _, logdet = np.linalg.slogdet(cov)
    return -0.5 * (len(x) * np.log(2.0 * np.pi) + logdet + x @ np.linalg.solve(cov, x))


@st.composite
def _rank_deficient_shape(draw):
    """(counts, d) for 2-8 speakers, one with a repeat, and fewer than d
    within-speaker contrasts: sum(counts) - len(counts) < d."""
    d = draw(st.integers(2, 5))
    counts = [1] * draw(st.integers(2, 8))
    for k in draw(st.lists(st.integers(0, len(counts) - 1), min_size=1, max_size=d - 1)):
        counts[k] += 1
    return counts, d


class TestLdaProjection:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 40))
    def test_cholesky_reduction_matches_scipy(self, seed, d):
        # sw = B Bᵀ and sb = B Λ Bᵀ, whose eigenvectors are the columns of
        # B⁻ᵀ: B has condition number at most 4, and the eigenvalues are at
        # least 0.25 apart, so each eigenvector is well determined
        rng = np.random.default_rng(seed)
        q1 = np.linalg.qr(rng.standard_normal((d, d)))[0]
        q2 = np.linalg.qr(rng.standard_normal((d, d)))[0]
        b = (q1 * rng.uniform(0.5, 2.0, d)) @ q2
        lam = np.cumsum(rng.uniform(0.25, 1.0, d))
        sw, sb = b @ b.T, (b * lam) @ b.T
        w = _lda_projection(sw, sb, d, singular=False)
        evals, evecs = scipy.linalg.eigh(sb, sw)
        evals, evecs = evals[::-1], evecs[:, ::-1]
        # vᵀ sw v = 1, so vᵀ sb v is v's eigenvalue
        assert np.max(np.abs(w.T @ sw @ w - np.eye(d))) <= 1e-12
        assert np.max(np.abs(np.diag(w.T @ sb @ w) - evals)) <= 1e-12 * evals[0]
        signs = np.sign(np.sum(w * evecs, axis=0))
        assert np.max(np.abs(w - evecs * signs)) <= 1e-10 * np.max(np.abs(evecs))

    def test_failed_cholesky_regularizes_and_warns(self):
        # rank 2 of 3, though the caller did not flag it singular
        with pytest.warns(UserWarning, match="within-class scatter is singular"):
            w = _lda_projection(np.diag([1.0, 2.0, 0.0]), np.eye(3), 2, singular=False)
        assert w.shape == (3, 2) and np.all(np.isfinite(w))

    def test_indefinite_scatter_is_an_error(self):
        with pytest.warns(UserWarning), pytest.raises(
                np.linalg.LinAlgError, match="singular even after regularization"):
            _lda_projection(np.diag([1.0, -1.0]), np.eye(2), 1, singular=False)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPlda:
    def test_recovers_generating_covariances(self):
        recs, truth, latents, noises, rng = sample_two_cov(seed=42)
        model = plda_fit(recs, use_lda=False)
        # the achievable targets are the realized moments of this draw: with
        # 20 speakers the latent sample covariance itself sits ~40% from the
        # true phi_b, so recovery is judged against what the data contains
        yc = latents - latents.mean(axis=0)
        nc = noises - noises.mean(axis=0)
        assert rel_frobenius(model.phi_b, yc.T @ yc / len(yc)) <= 0.10
        assert rel_frobenius(model.phi_w, nc.T @ nc / len(nc)) <= 0.10

    def test_llr_ranking_tracks_true_parameter_oracle(self):
        recs, truth, _, _, rng = sample_two_cov(seed=42)
        model = plda_fit(recs, use_lda=False)
        idx = rng.integers(0, len(recs), size=(1000, 2))
        trials = [Trial("e", "t", recs[i].vector, recs[j].vector,
                        recs[i].speaker_id == recs[j].speaker_id)
                  for i, j in idx]
        rho = spearman(score_trials(model, trials), score_trials(truth, trials))
        assert rho > 0.99

    def test_identical_repeats_trigger_regularized_path(self):
        rng = np.random.default_rng(3)
        recs = []
        for k in range(3):
            v = rng.standard_normal(4)
            for j in range(3):
                recs.append(EmbeddingRecord(f"d{k}-{j}", f"d{k}", v.copy()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = plda_fit(recs, reduced_dim=2)
        assert any("singular" in str(w.message) for w in caught)
        assert np.all(np.isfinite(model.phi_w))
        # repeats have no within-speaker spread: phi_w is the 1e-6 ridge alone
        assert np.linalg.eigvalsh(model.phi_w)[-1] < 2e-6

    @pytest.mark.parametrize("lda", [{"reduced_dim": 5}, {"use_lda": False}])
    def test_a_common_shift_moves_no_score(self, lda):
        # plda_fit centres on its training mean and scoring on the model's, so
        # shifting every set by one vector changes the scores by rounding alone
        # (~1e-14 of the largest); data whose mean is far from 0 show it
        recs, _, _, _, _ = sample_two_cov(seed=5, per_speaker=6, d=8)
        shift = np.full(8, 5.0)
        moved = [EmbeddingRecord(r.utterance_id, r.speaker_id, r.vector + shift) for r in recs]
        x = embedding_matrix(recs)
        scores = plda_score(plda_fit(recs, **lda), x[:40, None], x[None, 40:])
        shifted = plda_score(plda_fit(moved, **lda), x[:40, None] + shift, x[None, 40:] + shift)
        assert np.max(np.abs(shifted - scores)) <= 1e-10 * np.max(np.abs(scores))

    def test_full_rank_projection_equals_no_projection(self):
        recs, _, _, _, rng = sample_two_cov(seed=7)
        plain = plda_fit(recs, use_lda=False)
        projected = plda_fit(recs, reduced_dim=5)
        pairs = [(rng.standard_normal(5), rng.standard_normal(5))
                 for _ in range(25)]
        for e, t in pairs:
            assert abs(plda_score(plain, e, t)
                       - plda_score(projected, e, t)) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           counts=st.lists(st.integers(1, 6), min_size=2, max_size=8)
           .filter(lambda c: max(c) >= 2),
           d=st.integers(2, 5), use_lda=st.booleans(), max_iter=st.integers(1, 5))
    @example(seed=673371, counts=[2, 4], d=4, use_lda=False, max_iter=2)
    def test_fit_matches_per_speaker_oracle(self, seed, counts, d, use_lda, max_iter):
        # Uneven counts: EM inverts one matrix per distinct count.  With fewer
        # within-speaker contrasts than dimensions the within scatter is
        # singular up to rounding, and even the oracle's fit then changes
        # with the order of the records, so such draws are left out.
        # Both fits run exactly max_iter EM steps (tol=-inf never stops them
        # early): a slowly converging fit, like the pinned 2-speaker draw,
        # piles up the two implementations' rounding over 50 steps (2.9e-9
        # there), and a stop decided by rounding could differ between them.
        assume(sum(counts) - len(counts) >= d)
        rng = np.random.default_rng(seed)
        recs = [EmbeddingRecord(f"s{k}-u{j}", f"s{k}", y + rng.standard_normal(d))
                for k, n in enumerate(counts)
                for y in [2.0 * rng.standard_normal(d)] for j in range(n)]
        recs = [recs[i] for i in rng.permutation(len(recs))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            model = plda_fit(recs, use_lda=use_lda, max_iter=max_iter, tol=-np.inf)
            expected = plda_fit_oracle(recs, use_lda, max_iter=max_iter, tol=-np.inf)
        # the data are O(1), so mu (0 when every count is equal) is held to
        # the data scale, the rest to their own norms
        for got, want in zip((model.mu, model.phi_b, model.phi_w, model.lda), expected):
            assert np.linalg.norm(got - want) <= 1e-9 * max(np.linalg.norm(want), 1.0)

    @pytest.mark.parametrize("use_lda", [False, True])
    def test_default_stopping_matches_oracle(self, use_lda):
        # the property test above runs a fixed number of steps; here both
        # fits stop by the default likelihood rule, on a well-posed corpus
        # with uneven counts
        recs = [r for i, r in enumerate(sample_two_cov(seed=2)[0]) if i % 7]
        model = plda_fit(recs, use_lda=use_lda)
        expected = plda_fit_oracle(recs, use_lda)
        for got, want in zip((model.mu, model.phi_b, model.phi_w, model.lda), expected):
            assert np.linalg.norm(got - want) <= 1e-9 * max(np.linalg.norm(want), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=_rank_deficient_shape(),
           max_iter=st.integers(1, 5))
    @example(seed=1640569929, shape=([1, 3], 3), max_iter=1)
    def test_rank_deficient_lda_ignores_record_order(self, seed, shape, max_iter):
        # Fewer within-speaker contrasts than dimensions: the within scatter
        # is singular, so the LDA is ridged up front and the fit depends on
        # the data, not on the rounding of a sum taken in record order (the
        # pinned draw moved by 4e12 relative when that rounding decided).
        # Over 3,000 draws the two orders differed by at most 8e-9.  EM runs
        # exactly max_iter steps: more steps on a singular scatter magnify
        # rounding on their own, whatever the projection.
        counts, d = shape
        rng = np.random.default_rng(seed)
        recs = [EmbeddingRecord(f"s{k}-u{j}", f"s{k}", y + rng.standard_normal(d))
                for k, n in enumerate(counts)
                for y in [2.0 * rng.standard_normal(d)] for j in range(n)]
        fits = []
        for order in (recs, recs[::-1]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fits.append(plda_fit(order, max_iter=max_iter, tol=-np.inf))
            assert any("within-class scatter is singular" in str(w.message)
                       for w in caught)
        for field in ("mu", "phi_b", "phi_w", "lda"):
            got, want = (getattr(f, field) for f in fits)
            assert np.linalg.norm(got - want) <= 1e-7 * max(np.linalg.norm(want), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6))
    def test_llr_matches_joint_gaussian_oracle(self, seed, d):
        rng = np.random.default_rng(seed)
        a, c = rng.standard_normal((2, d, d))
        b = a @ a.T + 0.1 * np.eye(d)
        w = c @ c.T + 0.1 * np.eye(d)
        mu = rng.standard_normal(d)
        model = PldaModel(mean=np.zeros(d), lda=np.eye(d), mu=mu, phi_b=b, phi_w=w)
        pairs = 2.0 * rng.standard_normal((20, 2, d))
        t = b + w
        joint = np.block([[t, b], [b, t]])
        expected = [log_normal(np.r_[e - mu, x - mu], joint)
                    - log_normal(e - mu, t) - log_normal(x - mu, t) for e, x in pairs]
        trials = [Trial("e", "t", e, x, False) for e, x in pairs]
        np.testing.assert_allclose(score_trials(model, trials), expected, rtol=0, atol=1e-9)

    def test_zero_between_covariance_gives_zero_llr(self):
        rng = np.random.default_rng(4)
        d = 4
        b = rng.standard_normal((d, d))
        model = PldaModel(mean=np.zeros(d), lda=np.eye(d), mu=np.zeros(d),
                          phi_b=np.zeros((d, d)),
                          phi_w=b @ b.T + 0.5 * np.eye(d))
        for _ in range(10):
            assert plda_score(model, rng.standard_normal(d),
                              rng.standard_normal(d)) == 0.0

    def test_matching_vectors_score_positive(self):
        d = 3
        model = PldaModel(mean=np.zeros(d), lda=np.eye(d), mu=np.zeros(d),
                          phi_b=10.0 * np.eye(d), phi_w=0.1 * np.eye(d))
        v = np.array([1.0, -2.0, 0.5])
        assert plda_score(model, v, v) > 0.0

    def test_score_is_symmetric(self):
        recs, _, _, _, rng = sample_two_cov(seed=9)
        model = plda_fit(recs, use_lda=False)
        for _ in range(10):
            e = rng.standard_normal(5)
            t = rng.standard_normal(5)
            assert abs(plda_score(model, e, t) - plda_score(model, t, e)) < 1e-10

    def test_ranking_invariant_to_rotation(self):
        recs, _, _, _, rng = sample_two_cov(seed=11)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        rotated = [EmbeddingRecord(r.utterance_id, r.speaker_id, r.vector @ q)
                   for r in recs]
        model = plda_fit(recs, use_lda=False)
        model_rot = plda_fit(rotated, use_lda=False)
        idx = rng.integers(0, len(recs), size=(300, 2))
        trials = [Trial("e", "t", recs[i].vector, recs[j].vector, False)
                  for i, j in idx]
        trials_rot = [Trial("e", "t", rotated[i].vector @ np.eye(5),
                            rotated[j].vector, False) for i, j in idx]
        rho = spearman(score_trials(model, trials),
                       score_trials(model_rot, trials_rot))
        assert rho > 0.9999

    def test_input_validation(self):
        rng = np.random.default_rng(12)
        one_spk = [EmbeddingRecord(f"u{i}", "only", rng.standard_normal(3))
                   for i in range(4)]
        with pytest.raises(ValueError, match="2 speakers"):
            plda_fit(one_spk)
        singles = [EmbeddingRecord(f"u{i}", f"s{i}", rng.standard_normal(3))
                   for i in range(4)]
        with pytest.raises(ValueError, match="repeated"):
            plda_fit(singles)
        recs, _, _, _, _ = sample_two_cov(seed=13, n_speakers=4, per_speaker=3)
        with pytest.raises(ValueError, match="caps"):
            plda_fit(recs, reduced_dim=4)  # 4 speakers allow at most rank 3

    def test_dim_mismatch_rejected(self):
        d = 3
        model = PldaModel(mean=np.zeros(d), lda=np.eye(d), mu=np.zeros(d),
                          phi_b=np.eye(d), phi_w=np.eye(d))
        with pytest.raises(ValueError, match="dims differ"):
            plda_score(model, np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="expects 3"):
            model.project(np.zeros(5))


def _csv_writer_embeddings(path, records):
    """The embedding CSV as a csv writer writes it, one value at a time.

    The writer ends each row with \r\n, which makes it quote a field that
    holds a carriage return too, and the file ends each row with \n."""
    rows = [["utterance_id", "speaker_id"] + [f"e{i}" for i in range(len(records[0].vector))]]
    rows += [[r.utterance_id, r.speaker_id] + [repr(float(x)) for x in r.vector]
             for r in records]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in rows:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\r\n").writerow(row)
            fh.write(buf.getvalue()[:-2] + "\n")


# np.loadtxt reads a number with one of these around it; the loader refuses them
_LOADTXT_SPACES = "\t\x0b\x0c\x1c\x1d\x1e\x1f"


def _oracle_value(text):
    """A value as the loader's contract reads it: as float() does, less the
    spellings only float() takes (`1_0`, non-ASCII digits); None if refused."""
    if "_" in text or any(c.isdigit() and not c.isascii() for c in text):
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _oracle_embeddings(path):
    """load_embeddings one line at a time: (ids, value bits) per record, or
    `<path>:<line>` of the line it refuses, or its message for a file with
    no lines to refuse.  The first line that is blank, holds one of
    _LOADTXT_SPACES, or has a value count or value it cannot take is
    refused; then the first with an id that is not a plain token; then the
    first with a value that is not finite."""
    with open(path, encoding="utf-8") as fh:      # \r\n and \r end a line too
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    header = lines[0].split(",") if lines else []
    if header[:2] != ["utterance_id", "speaker_id"]:
        return f"{path} is not an embedding CSV"
    if len(header) == 2:
        return f"{path} has no embedding value columns"
    rows = []
    for number, line in enumerate(lines[1:], 2):
        fields = line.split(",")
        values = [_oracle_value(v) for v in fields[2:]]
        if (len(values) != len(header) - 2 or None in values
                or any(c in line for c in _LOADTXT_SPACES)):
            return f"{path}:{number}"
        rows.append((number, fields[0], fields[1], np.array(values)))
    if not rows:
        return f"{path} contains no embeddings"
    for number, *ids, _ in rows:
        if any(c == '"' or ord(c) < 32 for c in "".join(ids)):
            return f"{path}:{number}"
    for number, _, _, vector in rows:
        if not np.isfinite(vector).all():
            return f"{path}:{number}"
    return [(u, s, np.dtype(np.float64), v.tobytes()) for _, u, s, v in rows]


def _loaded(path):
    """load_embeddings(path) in the oracle's terms: (ids, value bits) of each
    record, or what its error message says before its first `: `."""
    try:
        records = load_embeddings(path)
    except ValueError as exc:
        return str(exc).partition(": ")[0]
    return [(r.utterance_id, r.speaker_id, r.vector.dtype, r.vector.tobytes())
            for r in records]


_FILE_IDS = _ids | st.text(st.characters(exclude_categories=("Cs",),
                                         exclude_characters=',"' + "".join(map(chr, range(32)))),
                           max_size=6)
_EDGE_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
     1.7976931348623157e308, -1.7976931348623157e308])


@st.composite
def _embedding_records(draw):
    dim = draw(st.integers(1, 5))
    return [EmbeddingRecord(draw(_FILE_IDS), draw(_FILE_IDS),
                            np.array(draw(st.lists(_EDGE_VALUES, min_size=dim, max_size=dim))))
            for _ in range(draw(st.integers(1, 6)))]


# spellings the loader reads, and ones it refuses or reads as not finite
_READ_SPELLINGS = st.floats(allow_nan=False, allow_infinity=False).map(repr) \
    | st.sampled_from([" 1.5", "\u20033", "+.5", "1e-400", "-0.0", "5e-324"])
_ODD_SPELLINGS = st.sampled_from(
    ["1_0", "١٢", "\x1c1", "\t2\x0c", "1\x00", "0x1p3", "1d5", "1e999", "nan", "-inf",
     "", " ", "x", '"2"'])
# ids a plain-token writer never writes, next to plain ones
_TEXT_IDS = _ids | st.sampled_from(['say "hi"', "nul\x00", "fs\x1c", "tab\t", "x,y"])


@st.composite
def _embedding_texts(draw):
    """Embedding CSV text; each file draws whether it has odd value
    spellings, ragged rows, blank lines and line ends other than \\n."""
    dim = draw(st.integers(1, 3))
    odd = draw(st.lists(st.booleans(), min_size=4, max_size=4))
    spellings = _READ_SPELLINGS | _ODD_SPELLINGS if odd[0] else _READ_SPELLINGS
    widths = st.integers(dim - 1, dim + 1) if odd[1] else st.just(dim)
    lines = ["utterance_id,speaker_id," + ",".join(f"e{i}" for i in range(dim))]
    for _ in range(draw(st.integers(0, 4))):
        width = draw(widths)
        values = draw(st.lists(spellings, min_size=width, max_size=width))
        lines.append("" if odd[2] and draw(st.booleans()) else
                     ",".join([draw(_TEXT_IDS), draw(_TEXT_IDS), *values]))
    ends = st.sampled_from(["\n", "\r\n", "\r"]) if odd[3] else st.just("\n")
    return "".join(line + draw(ends) for line in lines)


class TestFileFormats:
    def records(self, rng, n=5, dim=4):
        return [EmbeddingRecord(f"u{i}", f"s{i % 2}", rng.standard_normal(dim))
                for i in range(n)]

    def test_embedding_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        recs = self.records(rng)
        recs[0].vector[0] = 1e-17  # repr keeps even awkward magnitudes exact
        path = tmp_path / "emb.csv"
        save_embeddings(path, recs)
        loaded = load_embeddings(path)
        assert [r.utterance_id for r in loaded] == [r.utterance_id for r in recs]
        assert [r.speaker_id for r in loaded] == [r.speaker_id for r in recs]
        for a, b in zip(loaded, recs):
            assert np.array_equal(a.vector, b.vector)

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(15)
        recs = self.records(rng)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        save_embeddings(p1, recs)
        save_embeddings(p2, recs)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(records=_embedding_records())
    @example(records=[EmbeddingRecord("spk 3", "é語", np.array([-0.0, 5e-324])),
                      EmbeddingRecord("", " pad ", np.array([1.7976931348623157e308,
                                                              -1.7976931348623157e308]))])
    def test_save_embeddings_matches_csv_writer(self, records):
        # bit for bit: -0.0, subnormals and +-max come back as written, and
        # a csv writer, which quotes no plain token, writes the same bytes
        with tempfile.TemporaryDirectory() as tmp:
            save_embeddings(f"{tmp}/rows.csv", records)
            _csv_writer_embeddings(f"{tmp}/oracle.csv", records)
            with open(f"{tmp}/rows.csv", "rb") as a, open(f"{tmp}/oracle.csv", "rb") as b:
                assert a.read() == b.read()
            assert _loaded(f"{tmp}/rows.csv") == [
                (r.utterance_id, r.speaker_id, np.dtype(np.float64),
                 r.vector.astype(np.float64).tobytes()) for r in records]

    @settings(max_examples=100, deadline=None)
    @given(records=_embedding_records(), bad=st.sampled_from(',"\r\x00\x1c'),
           at=st.integers(0, 11))
    def test_loader_equals_per_line_oracle(self, records, bad, at):
        # a csv writer quotes an id that holds a comma, a quote or a carriage
        # return, and leaves NUL and \x1c bare: the loader refuses the line
        # of the first such id, where the oracle does
        k, field = divmod(at % (2 * len(records)), 2)
        ids = [records[k].utterance_id, records[k].speaker_id]
        ids[field] += bad
        records[k] = EmbeddingRecord(*ids, records[k].vector)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/emb.csv"
            _csv_writer_embeddings(path, records)
            assert _loaded(path) == _oracle_embeddings(path)
            assert isinstance(_loaded(path), str)

    @settings(max_examples=300, deadline=None)
    @given(text=_embedding_texts())
    @example(text="utterance_id,speaker_id,e0\nu,s,\x1c1\n")
    @example(text="utterance_id,speaker_id,e0\nu,s,\n")
    @example(text="utterance_id,speaker_id,e0,e1\nu,s,1,2\nu,s,nan,2\n\n")
    def test_any_text_loads_as_the_per_line_oracle_loads_it(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/emb.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            assert _loaded(path) == _oracle_embeddings(path)

    @pytest.mark.parametrize("text,expected", [
        ("utterance_id,speaker_id,e0\nu0,s,2.5\nu1,s,1_0\n", "{path}:3: could not convert"),
        ("utterance_id,speaker_id,e0\nu0,s,2.5\nu1,s, 1.5\n", [2.5, 1.5]),
        ("utterance_id,speaker_id,e0\nu0,s,2.5\nu1,s,١٢\n", "{path}:3: could not convert"),
        ("utterance_id,speaker_id,e0\nu0,s,2.5\nu1,s,\t1.5\n", "{path}:3: holds '\\t'"),
        ("utterance_id,speaker_id,e0\r\nu0,s,-0.0\r\nu1,s,3e-2\r\n", [-0.0, 0.03]),
        ("utterance_id,speaker_id,e0\nu0,s,1.0\n\nu1,s,2.0\n", "{path}:3: blank line"),
    ], ids=["underscore", "leading space", "arabic-indic digits", "tab", "crlf",
            "blank line"])
    def test_value_spellings(self, tmp_path, text, expected):
        # `1_0` and non-ASCII digits, which float() reads, are refused, as is a
        # tab that both parsers strip; CRLF line ends load
        path = tmp_path / "emb.csv"
        path.write_bytes(text.encode("utf-8"))
        if isinstance(expected, str):
            with pytest.raises(ValueError) as caught:
                load_embeddings(path)
            assert str(caught.value).startswith(expected.format(path=path))
        else:
            assert [r.vector.tobytes() for r in load_embeddings(path)] == \
                [np.array([v]).tobytes() for v in expected]

    def test_loadtxt_reads_the_spellings_the_loaders_rely_on(self):
        """A canary for np.loadtxt as the CSV loaders call it: pyproject
        allows numpy >= 1.24, and few versions have been run."""
        def read(lines):
            return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                              dtype=np.float64)

        for spelling in ("1_0", "١٢"):
            with pytest.raises(ValueError):
                read([spelling + "\n"])
        for around in ("\x1c", "\t"):
            assert read([f"{around}2.5{around}\n"]).tolist() == [[2.5]]
        edges = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        assert read([",".join(map(repr, edges)) + "\n"]).tobytes() == \
            np.array([edges]).tobytes()
        # the loaders name the line loadtxt refuses by the lines it took,
        # leave a value count other than the first line's to it, and refuse
        # a line by raising from the lines they give it
        for refused in ("x\n", "1,2\n", ValueError("refused here")):
            taken = []

            def lines():
                for line in ("1\n", refused, "2\n"):
                    taken.append(line)
                    if isinstance(line, Exception):
                        raise line
                    yield line

            with pytest.raises(ValueError) as caught:
                read(lines())
            assert taken == ["1\n", refused]
            assert not isinstance(refused, Exception) or caught.value is refused

    def test_embedding_csv_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n")
        with pytest.raises(ValueError, match="not an embedding CSV"):
            load_embeddings(path)
        path.write_text("utterance_id,speaker_id,e0,e1\nu0,s0,1.0\n")
        with pytest.raises(ValueError, match=":2: value count is not 2$"):
            load_embeddings(path)
        path.write_text("utterance_id,speaker_id,e0\n")
        with pytest.raises(ValueError, match="no embeddings"):
            load_embeddings(path)
        path.write_text("utterance_id,speaker_id\nu0,s0\nu1,s1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} has no embedding "
                                             "value columns$"):
            load_embeddings(path)

    @pytest.mark.parametrize("value", ["x", "", "nan", "-inf", "1e999"])
    def test_bad_value_names_file_and_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"utterance_id,speaker_id,e0,e1\nu0,s0,1.0,2.0\nu1,s0,3.0,{value}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
            load_embeddings(path)

    def test_trials_roundtrip(self, tmp_path):
        rng = np.random.default_rng(16)
        trials = [Trial(f"s{i % 3}", f"u{i}", np.zeros(2), np.zeros(2),
                        bool(i % 2)) for i in range(7)]
        scores = rng.standard_normal(7)
        path = tmp_path / "trials.csv"
        save_trials(path, trials, scores)
        got_scores, got_targets = load_trials(path)
        assert np.array_equal(got_scores, scores)
        assert np.array_equal(got_targets, np.array([bool(i % 2) for i in range(7)]))
        with pytest.raises(ValueError, match="scores"):
            save_trials(path, trials, scores[:3])
        raw = path.read_bytes().split(b"\n")
        raw[4] = raw[4].replace(b"u3", b"u\xff")
        path.write_bytes(b"\n".join(raw))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: not UTF-8 text"):
            load_trials(path)

    @pytest.mark.parametrize("row,message", [
        ("s0,u1,0.5", "value count is not 2"),
        ("s0,u1,0.5,1,extra", "value count is not 2"),
        ("s0,u1,x,1", "could not convert string 'x' to float64"),
        ("s0,u1,,1", "could not convert string '' to float64"),
        ("s0,u1,nan,1", "values must be finite"),
        ("s0,u1,-inf,0", "values must be finite"),
        ("s0,u1,0.5,7", "target must be 0 or 1"),
        ("s0,u1,0.5,true", "target must be 0 or 1"),
        ("s0,u1,0.5,1.0", "target must be 0 or 1"),
        ("s0,u1," + "9" * 200_000 + ",1", "values must be finite"),
    ], ids=["short row", "long row", "text score", "empty score", "nan score",
            "-inf score", "target 7", "target true", "target 1.0", "oversized field"])
    def test_bad_trial_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "trials.csv"
        path.write_text(f"enrol_speaker,test_utterance,score,target\ns0,u0,1.5,1\n{row}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "
                                             f"{re.escape(message)}$"):
            load_trials(path)

    def test_eer_report_format(self, tmp_path):
        path = tmp_path / "eer.txt"
        save_eer_report(path, 0.25, 2.5)
        lines = path.read_text().splitlines()
        assert lines[0] == "EER=0.2500"
        assert lines[1] == "threshold=2.5"
