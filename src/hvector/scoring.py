"""Identification accuracy, verification EER, and an LDA/PLDA back-end."""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

__all__ = [
    "EmbeddingRecord", "Trial", "PldaModel",
    "accuracy", "compute_eer", "eer_operating_point",
    "make_trials", "plda_fit", "plda_score", "score_trials", "cosine_score",
    "save_embeddings", "load_embeddings", "save_trials", "load_trials",
    "save_eer_report",
]


@dataclass
class EmbeddingRecord:
    utterance_id: str
    speaker_id: str
    vector: np.ndarray


@dataclass
class Trial:
    enrol_speaker: str
    test_utterance: str
    enrol_vector: np.ndarray
    test_vector: np.ndarray
    target: bool


def accuracy(preds, truth) -> float:
    """Exact-match fraction between two equal-length label sequences."""
    preds = list(preds)
    truth = list(truth)
    if not preds or len(preds) != len(truth):
        raise ValueError(f"need equal non-empty label lists, "
                         f"got {len(preds)} and {len(truth)}")
    return sum(p == t for p, t in zip(preds, truth)) / len(preds)


# --- equal error rate ----------------------------------------------------
#
# Operating points sweep a threshold over the distinct scores (accept iff
# score >= threshold): FAR = P(accept | non-target), FRR = P(reject | target).
# With finite trial counts the two step functions rarely meet, so the EER is
# read off the ROC convex hull of the operating points in (FAR, FRR) space
# (as in the BOSARIS toolkit): the hull edges are exactly the linear
# interpolations between achievable points, and the EER is where the hull
# crosses FAR == FRR.
#
# Scaled by n_target * n_non the points are integers, so the hull is exact
# and the crossing is one rational, rounded to float once: any other exact
# procedure over the same points (e.g. a brute-force sweep over all point
# pairs) lands on the identical float.

def eer_operating_point(scores, targets) -> tuple[float, float]:
    """(EER, threshold) of a verification score set.

    The threshold is the swept operating point closest to equal error
    (ties resolved toward the lower threshold).
    """
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=bool)
    if scores.ndim != 1 or scores.shape != targets.shape:
        raise ValueError("scores and targets must be matching 1-D sequences")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    n_t = int(targets.sum())
    n_n = len(targets) - n_t
    if n_t == 0 or n_n == 0:
        raise ValueError("EER needs at least one target and one non-target trial")
    n = n_t * n_n
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    below = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    misses = np.r_[0, np.cumsum(targets[order])][below]
    # int64 holds these coordinates (each <= n); their cross products can
    # pass 2**63, so the hull below works on Python ints
    far = (n_n - (below - misses)) * n_t
    frr = misses * n_n
    threshold = float(ranked[below[np.argmin(np.abs(far - frr))]])

    # accept-everything (n, 0) and reject-everything (0, n) close the sweep
    xs = np.r_[n, 0, far]
    ys = np.r_[0, n, frr]
    by_x = np.lexsort((ys, xs))
    hull: list[tuple[int, int]] = []
    for p in zip(xs[by_x].tolist(), ys[by_x].tolist()):
        while len(hull) >= 2 and (
                (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                - (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])) <= 0:
            hull.pop()
        hull.append(p)
    # the hull runs from FAR == 0 (FAR - FRR <= 0) to (1, 0): some edge crosses
    for (ax, ay), (bx, by) in zip(hull, hull[1:]):
        da, db = ax - ay, bx - by
        if da <= 0 <= db or db <= 0 <= da:
            return float(Fraction(da * bx - db * ax, (da - db) * n)), threshold
    raise AssertionError("operating points never crossed the diagonal")


def compute_eer(scores, targets) -> float:
    """Equal error rate of a verification score set."""
    return eer_operating_point(scores, targets)[0]


# --- verification trials --------------------------------------------------

def _inner(a, b):
    # unlike np.sum(a * b, -1) or einsum, a stacked matmul rounds each row
    # exactly as np.dot does for one pair
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _unit(v):
    """v scaled to unit length along its last axis; zero rows stay zero."""
    v = np.asarray(v, dtype=np.float64)
    norm = np.sqrt(_inner(v, v))[..., None]
    return v / np.where(norm == 0.0, 1.0, norm)


def make_trials(enrol, eval_records, length_norm: bool = False) -> list[Trial]:
    """Cartesian trials: every enrolment speaker against every eval utterance.

    The enrolment model for a speaker is the mean of that speaker's
    embeddings (optionally length-normalized first); a trial is a target
    iff the eval utterance belongs to the enrolment speaker.
    """
    if not enrol or not eval_records:
        raise ValueError("enrolment and evaluation sets must both be non-empty")

    def vector(r):
        return _unit(r.vector) if length_norm else np.asarray(r.vector, dtype=np.float64)

    by_speaker: dict[str, list[np.ndarray]] = {}
    for r in enrol:
        by_speaker.setdefault(r.speaker_id, []).append(vector(r))
    models = {spk: np.mean(vs, axis=0) for spk, vs in sorted(by_speaker.items())}
    tests = [vector(r) for r in eval_records]
    return [Trial(enrol_speaker=spk, test_utterance=r.utterance_id,
                  enrol_vector=model_vec, test_vector=v, target=r.speaker_id == spk)
            for spk, model_vec in models.items() for r, v in zip(eval_records, tests)]


def cosine_score(e, t) -> float | np.ndarray:
    """Cosine similarity along the last axis: a float for two vectors, an
    array of scores for two row-stacked arrays. A zero vector scores 0."""
    scores = _inner(_unit(e), _unit(t))
    return float(scores) if scores.ndim == 0 else scores


# --- LDA + two-covariance PLDA ---------------------------------------------

@dataclass
class PldaModel:
    mean: np.ndarray      # global mean in the raw embedding space
    lda: np.ndarray       # projection matrix, raw dim x reduced dim
    mu: np.ndarray        # speaker-factor mean in the projected space
    phi_b: np.ndarray     # between-speaker covariance
    phi_w: np.ndarray     # within-speaker covariance

    def project(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.mean.shape[0]:
            raise ValueError(f"vector has dim {x.shape[-1]}, "
                             f"model expects {self.mean.shape[0]}")
        return (x - self.mean) @ self.lda


def _group_by_speaker(embeddings):
    groups: dict[str, list[np.ndarray]] = {}
    for r in embeddings:
        groups.setdefault(r.speaker_id, []).append(np.asarray(r.vector, np.float64))
    return {k: np.stack(v) for k, v in sorted(groups.items())}


def _scatter_matrices(groups, dim):
    """Biased within/between scatter of globally centred data."""
    n = sum(len(g) for g in groups.values())
    sw = np.zeros((dim, dim))
    sb = np.zeros((dim, dim))
    for g in groups.values():
        m = g.mean(axis=0)
        c = g - m
        sw += c.T @ c
        sb += len(g) * np.outer(m, m)
    return sw / n, sb / n


def _lda_projection(groups, dim, reduced_dim):
    sw, sb = _scatter_matrices(groups, dim)
    try:
        evals, evecs = scipy.linalg.eigh(sb, sw)
    except scipy.linalg.LinAlgError:
        warnings.warn("within-class scatter is singular; regularizing with 1e-6*I")
        try:
            evals, evecs = scipy.linalg.eigh(sb, sw + 1e-6 * np.eye(dim))
        except scipy.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "within-class scatter is singular even after regularization"
            ) from exc
    order = np.argsort(evals)[::-1][:reduced_dim]
    w = evecs[:, order]
    # deterministic sign: largest-magnitude component of each column positive
    flips = np.sign(w[np.argmax(np.abs(w), axis=0), np.arange(w.shape[1])])
    flips[flips == 0.0] = 1.0
    return w * flips


def _marginal_log_likelihood(stats, mu, phi_b, phi_w):
    """Exact marginal log-likelihood of the two-covariance model.

    Decomposing each speaker's observations into the mean and within-speaker
    contrasts makes the likelihood a product of small Gaussians: the n-1
    contrast directions see covariance phi_w, the mean direction sees
    phi_b + phi_w / n.
    """
    d = mu.shape[0]
    _, logdet_w = np.linalg.slogdet(phi_w)
    w_inv = np.linalg.inv(phi_w)
    total = 0.0
    for count, mean_vec, scatter in stats:
        m = phi_b * count + phi_w
        _, logdet_m = np.linalg.slogdet(m)
        diff = mean_vec - mu
        quad = count * diff @ np.linalg.solve(m, diff)
        total += (
            -0.5 * count * d * np.log(2.0 * np.pi)
            - 0.5 * (count - 1) * logdet_w
            - 0.5 * logdet_m
            - 0.5 * np.sum(w_inv * scatter)
            - 0.5 * quad
        )
    return total


def plda_fit(embeddings, reduced_dim: int | None = None, use_lda: bool = True,
             max_iter: int = 50, tol: float = 1e-6) -> PldaModel:
    """Center, optionally LDA-project, then EM-fit the two-covariance model.

    The generative model: speaker factor y ~ N(mu, phi_b); each observation
    x = y + e with e ~ N(0, phi_w). EM stops after max_iter iterations or
    when the exact marginal log-likelihood improves by less than tol.
    """
    vectors = np.stack([np.asarray(r.vector, dtype=np.float64) for r in embeddings])
    if not np.all(np.isfinite(vectors)):
        raise ValueError("embeddings must be finite")
    dim = vectors.shape[1]
    speakers = {r.speaker_id for r in embeddings}
    if len(speakers) < 2:
        raise ValueError("PLDA needs at least 2 speakers")
    mean = vectors.mean(axis=0)
    centred = [EmbeddingRecord(r.utterance_id, r.speaker_id,
                               np.asarray(r.vector, np.float64) - mean)
               for r in embeddings]
    groups = _group_by_speaker(centred)
    if max(len(g) for g in groups.values()) < 2:
        raise ValueError("PLDA needs repeated utterances for at least one speaker")

    if use_lda:
        if reduced_dim is None:
            reduced_dim = min(len(speakers) - 1, 300, dim)
        if not 1 <= reduced_dim <= dim:
            raise ValueError(f"reduced_dim must be in [1, {dim}], got {reduced_dim}")
        if reduced_dim > len(speakers) - 1:
            raise ValueError(
                f"LDA rank caps at n_speakers-1 = {len(speakers) - 1}, "
                f"got reduced_dim {reduced_dim}"
            )
        lda = _lda_projection(groups, dim, reduced_dim)
    else:
        lda = np.eye(dim)

    projected = {spk: g @ lda for spk, g in groups.items()}
    # sufficient statistics per speaker: count, mean, within scatter
    stats = []
    for g in projected.values():
        m = g.mean(axis=0)
        c = g - m
        stats.append((len(g), m, c.T @ c))

    d = lda.shape[1]
    n_total = sum(count for count, _, _ in stats)
    mu = sum(count * m for count, m, _ in stats) / n_total
    phi_w = sum(s for _, _, s in stats) / n_total + 1e-6 * np.eye(d)
    phi_b = sum(count * np.outer(m - mu, m - mu) for count, m, _ in stats) \
        / n_total + 1e-6 * np.eye(d)

    ll_prev = -np.inf
    for _ in range(max_iter):
        ll = _marginal_log_likelihood(stats, mu, phi_b, phi_w)
        if ll - ll_prev < tol:
            break
        ll_prev = ll
        # E-step: Gaussian posterior of each speaker factor, in a form that
        # tolerates phi_b approaching zero
        post = []
        for count, m, _ in stats:
            g = np.linalg.solve(phi_b + phi_w / count, np.eye(d))
            gain = phi_b @ g
            post_mean = mu + gain @ (m - mu)
            post_cov = phi_b - gain @ phi_b
            post.append((post_mean, post_cov))
        # M-step
        k = len(stats)
        mu = sum(pm for pm, _ in post) / k
        phi_b = sum(pc + np.outer(pm - mu, pm - mu) for pm, pc in post) / k
        phi_w_new = np.zeros((d, d))
        for (count, m, scatter), (pm, pc) in zip(stats, post):
            diff = m - pm
            phi_w_new += scatter + count * (np.outer(diff, diff) + pc)
        phi_w = phi_w_new / n_total
        # keep both covariances symmetric against accumulated round-off
        phi_b = 0.5 * (phi_b + phi_b.T)
        phi_w = 0.5 * (phi_w + phi_w.T)
        # identical repeats per speaker drive the within covariance to zero;
        # ridge it only then, so healthy fits stay reparameterization-exact
        evals = np.linalg.eigvalsh(phi_w)
        if evals[0] <= 1e-12 * max(evals[-1], 1.0):
            warnings.warn("within-speaker covariance is near-singular; "
                          "regularizing with 1e-6*I")
            phi_w = phi_w + 1e-6 * np.eye(d)

    return PldaModel(mean=mean, lda=lda, mu=mu, phi_b=phi_b, phi_w=phi_w)


def _llr_terms(model):
    b, w = model.phi_b, model.phi_w
    t = b + w
    s_plus = w + 2.0 * b
    return t, s_plus, w


def score_trials(model: PldaModel, trials) -> np.ndarray:
    """Log-likelihood ratios, same speaker vs different, for each trial."""
    if not trials:
        return np.zeros(0)
    e = model.project(np.stack([tr.enrol_vector for tr in trials])) - model.mu
    t = model.project(np.stack([tr.test_vector for tr in trials])) - model.mu
    cov_t, cov_plus, cov_minus = _llr_terms(model)
    u = (e + t) / np.sqrt(2.0)
    v = (e - t) / np.sqrt(2.0)

    def quad(cov, x):
        return np.sum(x * np.linalg.solve(cov, x.T).T, axis=1)

    _, ld_t = np.linalg.slogdet(cov_t)
    _, ld_plus = np.linalg.slogdet(cov_plus)
    _, ld_minus = np.linalg.slogdet(cov_minus)
    llr = (
        ld_t - 0.5 * (ld_plus + ld_minus)
        - 0.5 * (quad(cov_plus, u) + quad(cov_minus, v))
        + 0.5 * (quad(cov_t, u) + quad(cov_t, v))
    )
    return llr


def plda_score(model: PldaModel, enrol, test) -> float:
    """Closed-form same-speaker log-likelihood ratio for one pair."""
    enrol = np.asarray(enrol, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if enrol.shape != test.shape:
        raise ValueError(f"vector dims differ: {enrol.shape} vs {test.shape}")
    trial = Trial("", "", enrol, test, target=False)
    return float(score_trials(model, [trial])[0])


# --- file formats ----------------------------------------------------------

def save_embeddings(path, records):
    """CSV with header utterance_id,speaker_id,e0,...; repr-exact floats."""
    records = list(records)
    if not records:
        raise ValueError("no embeddings to save")
    dim = len(records[0].vector)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["utterance_id", "speaker_id"]
                        + [f"e{i}" for i in range(dim)])
        for r in records:
            if len(r.vector) != dim:
                raise ValueError(f"embedding dim mismatch for {r.utterance_id}: "
                                 f"{len(r.vector)} vs {dim}")
            writer.writerow([r.utterance_id, r.speaker_id]
                            + [repr(float(x)) for x in r.vector])


def load_embeddings(path) -> list[EmbeddingRecord]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["utterance_id", "speaker_id"]:
            raise ValueError(f"{path} is not an embedding CSV")
        dim = len(header) - 2
        out = []
        for row in reader:
            if len(row) != dim + 2:
                raise ValueError(f"row for {row[0] if row else '?'} has "
                                 f"{len(row) - 2} values, expected {dim}")
            vec = np.array([float(x) for x in row[2:]])
            out.append(EmbeddingRecord(row[0], row[1], vec))
    if not out:
        raise ValueError(f"{path} contains no embeddings")
    return out


def save_trials(path, trials, scores):
    trials = list(trials)
    scores = np.asarray(scores, dtype=np.float64)
    if len(trials) != len(scores):
        raise ValueError(f"{len(trials)} trials but {len(scores)} scores")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["enrol_speaker", "test_utterance", "score", "target"])
        for tr, s in zip(trials, scores):
            writer.writerow([tr.enrol_speaker, tr.test_utterance,
                             repr(float(s)), int(tr.target)])


def load_trials(path) -> tuple[np.ndarray, np.ndarray]:
    """Scores and target flags from a trials CSV."""
    scores, targets = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["enrol_speaker", "test_utterance", "score", "target"]:
            raise ValueError(f"{path} is not a trials CSV")
        for row in reader:
            scores.append(float(row[2]))
            targets.append(bool(int(row[3])))
    return np.array(scores), np.array(targets, dtype=bool)


def save_eer_report(path, eer: float, threshold: float):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"EER={eer:.4f}\n")
        fh.write(f"threshold={threshold!r}\n")
