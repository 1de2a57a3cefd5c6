"""Identification accuracy, verification EER, and an LDA/PLDA back-end."""
from __future__ import annotations

import os
import shutil
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .corpus import check_ids, open_text
from .tensor import atomic_write, forked_map

__all__ = [
    "EmbeddingRecord", "Trial", "PldaModel",
    "accuracy", "compute_eer", "eer_operating_point",
    "embedding_matrix", "enrolment_models", "make_trials", "plda_fit",
    "plda_score", "score_trials", "cosine_score", "save_embeddings",
    "load_embeddings", "save_trials", "save_score_matrix", "load_trials",
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
    # the sweep reads the first index of each distinct score and the target
    # count below it, which the order within a tie cannot change
    order = np.argsort(scores)
    ranked = scores[order]
    below = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    misses = np.r_[0, np.cumsum(targets[order])][below]
    # int64 holds these coordinates (each <= n); their cross products can
    # pass 2**63, so the hull below works on Python ints
    far = (n_n - (below - misses)) * n_t
    frr = misses * n_n
    threshold = float(ranked[below[np.argmin(np.abs(far - frr))]])

    # raising the threshold past one distinct score moves the point up (only
    # targets had it), left (only non-targets) or diagonally (both); a point
    # between two up-steps or two left-steps lies inside a straight run of
    # the sweep, so it is no hull vertex and the hull never sees it
    hits = np.diff(misses, append=n_t)
    step = np.sign(hits) - np.sign(np.diff(below, append=len(ranked)) - hits)
    corner = np.r_[True, (step[1:] != step[:-1]) | (step[1:] == 0)]
    # accept-everything (n, 0) and reject-everything (0, n) close the sweep
    xs = np.r_[n, 0, far[corner]]
    ys = np.r_[0, n, frr[corner]]
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


def embedding_matrix(records, length_norm: bool = False) -> np.ndarray:
    """The records' vectors stacked into an (n, d) matrix, each row scaled to
    unit length if asked."""
    vectors = np.stack([np.asarray(r.vector, dtype=np.float64) for r in records])
    return _unit(vectors) if length_norm else vectors


def enrolment_models(enrol) -> tuple[np.ndarray, np.ndarray]:
    """Sorted enrolment speaker ids and the (K, d) matrix of their models.

    A speaker's model is the mean of that speaker's embeddings.
    """
    if not enrol:
        raise ValueError("enrolment set must be non-empty")
    vectors = embedding_matrix(enrol)
    speakers, which = np.unique([r.speaker_id for r in enrol], return_inverse=True)
    return speakers, np.stack([np.mean(vectors[which == k], axis=0)
                               for k in range(len(speakers))])


def make_trials(enrol, eval_records) -> list[Trial]:
    """Cartesian trials: every enrolment model (`enrolment_models`) against
    every eval utterance, row-major; a trial is a target iff the eval
    utterance belongs to the enrolment speaker.
    """
    if not enrol or not eval_records:
        raise ValueError("enrolment and evaluation sets must both be non-empty")
    speakers, models = enrolment_models(enrol)
    tests = embedding_matrix(eval_records)
    return [Trial(enrol_speaker=spk, test_utterance=r.utterance_id,
                  enrol_vector=model_vec, test_vector=v, target=r.speaker_id == spk)
            for spk, model_vec in zip(speakers.tolist(), models)
            for r, v in zip(eval_records, tests)]


def cosine_score(e, t) -> float | np.ndarray:
    """Cosine similarity along the last axis: a float for two vectors, an
    array for stacks that broadcast against each other, so (K, 1, d) models
    against (1, N, d) tests give the (K, N) score matrix. A zero vector
    scores 0."""
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


def _lda_projection(sw, sb, reduced_dim, singular):
    """Top `reduced_dim` generalized eigenvectors of (sb, sw), scaled so that
    vᵀ sw v = 1.  With sw = L Lᵀ, sb v = λ sw v becomes the symmetric
    problem (L⁻¹ sb L⁻ᵀ) u = λ u with v = L⁻ᵀ u: the Cholesky reduction of
    LAPACK's sygvd (Golub & Van Loan, Matrix Computations, §8.7).  `singular`
    says the data leave sw rank-deficient: it is then ridged up front, not
    only when rounding happens to make the Cholesky fail on it."""
    if not singular:
        try:
            chol = np.linalg.cholesky(sw)
        except np.linalg.LinAlgError:
            singular = True
    if singular:
        warnings.warn("within-class scatter is singular; regularizing with 1e-6*I")
        try:
            chol = np.linalg.cholesky(sw + 1e-6 * np.eye(len(sw)))
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "within-class scatter is singular even after regularization"
            ) from exc
    # L⁻¹ (L⁻¹ sb)ᵀ = L⁻¹ sb L⁻ᵀ, since sb is symmetric
    evals, evecs = np.linalg.eigh(np.linalg.solve(chol, np.linalg.solve(chol, sb).T))
    evecs = np.linalg.solve(chol.T, evecs)
    order = np.argsort(evals)[::-1][:reduced_dim]
    w = evecs[:, order]
    # deterministic sign: largest-magnitude component of each column positive
    flips = np.sign(w[np.argmax(np.abs(w), axis=0), np.arange(w.shape[1])])
    flips[flips == 0.0] = 1.0
    return w * flips


def _marginal_log_likelihood(sizes, groups, means, scatter, mu, phi_b, phi_w):
    """Exact marginal log-likelihood of the two-covariance model.

    Decomposing each speaker's observations into the mean and within-speaker
    contrasts makes the likelihood a product of small Gaussians: the n-1
    contrast directions see covariance phi_w, the mean direction sees
    phi_b + phi_w / n.  groups[s] indexes the rows of `means` (one mean per
    speaker) whose speakers have sizes[s] observations each, and `scatter`
    is the within scatter summed over speakers.
    """
    d = mu.shape[0]
    speakers_of = np.array([len(g) for g in groups])
    _, logdet_w = np.linalg.slogdet(phi_w)
    m = phi_b * sizes[:, None, None] + phi_w
    _, logdet_m = np.linalg.slogdet(m)
    diff = means - mu
    # one (speakers, d) @ (d, d) product per distinct count
    quad = sum(n * np.sum(x * (x @ m_inv.T))
               for n, m_inv, x in zip(sizes, np.linalg.inv(m), (diff[g] for g in groups)))
    n_total = speakers_of @ sizes
    return (
        -0.5 * n_total * d * np.log(2.0 * np.pi)
        - 0.5 * (n_total - len(means)) * logdet_w
        - 0.5 * speakers_of @ logdet_m
        - 0.5 * np.sum(np.linalg.inv(phi_w) * scatter)
        - 0.5 * quad
    )


def plda_fit(embeddings, reduced_dim: int | None = None, use_lda: bool = True,
             max_iter: int = 50, tol: float = 1e-6) -> PldaModel:
    """Center, optionally LDA-project, then EM-fit the two-covariance model.

    The generative model: speaker factor y ~ N(mu, phi_b); each observation
    x = y + e with e ~ N(0, phi_w). EM stops after max_iter iterations or
    when the exact marginal log-likelihood improves by less than tol.
    """
    vectors = embedding_matrix(embeddings)
    if not np.all(np.isfinite(vectors)):
        raise ValueError("embeddings must be finite")
    dim = vectors.shape[1]
    speakers, which, counts = np.unique([r.speaker_id for r in embeddings],
                                        return_inverse=True, return_counts=True)
    if len(speakers) < 2:
        raise ValueError("PLDA needs at least 2 speakers")
    mean = vectors.mean(axis=0)
    if counts.max() < 2:
        raise ValueError("PLDA needs repeated utterances for at least one speaker")

    # sufficient statistics of the centred data: count and mean per speaker,
    # one within scatter summed over all speakers
    centred = vectors - mean
    sums = np.zeros((len(speakers), dim))
    np.add.at(sums, which, centred)
    means = sums / counts[:, None]
    contrasts = centred - means[which]
    within = contrasts.T @ contrasts
    n_total = len(vectors)

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
        between = (means.T * counts) @ means
        # n_total - K within-speaker contrasts span at most that many dimensions
        lda = _lda_projection(within / n_total, between / n_total, reduced_dim,
                              singular=n_total - len(speakers) < dim)
    else:
        lda = np.eye(dim)

    means = means @ lda
    scatter = lda.T @ within @ lda
    # every matrix EM needs depends on a speaker only through its count, so
    # it is built once per distinct count: the speakers groups[s] have
    # count sizes[s], and each group meets its matrix in one product
    sizes, slot = np.unique(counts, return_inverse=True)
    groups = [np.flatnonzero(slot == s) for s in range(len(sizes))]
    speakers_of = np.bincount(slot)

    d = lda.shape[1]
    mu = counts @ means / n_total
    phi_w = scatter / n_total + 1e-6 * np.eye(d)
    diff = means - mu
    phi_b = (diff.T * counts) @ diff / n_total + 1e-6 * np.eye(d)

    ll_prev = -np.inf
    for _ in range(max_iter):
        ll = _marginal_log_likelihood(sizes, groups, means, scatter, mu, phi_b, phi_w)
        if ll - ll_prev < tol:
            break
        ll_prev = ll
        # E-step: Gaussian posterior of each speaker factor, in a form that
        # tolerates phi_b approaching zero
        gain = phi_b @ np.linalg.inv(phi_b + phi_w / sizes[:, None, None])
        post_mean = np.empty_like(means)
        for g, gain_s in zip(groups, gain):
            post_mean[g] = mu + (means[g] - mu) @ gain_s.T
        post_cov = phi_b - gain @ phi_b
        # M-step
        mu = post_mean.mean(axis=0)
        diff = post_mean - mu
        phi_b = (np.tensordot(speakers_of, post_cov, 1) + diff.T @ diff) / len(counts)
        resid = means - post_mean
        phi_w = (scatter + (resid.T * counts) @ resid
                 + np.tensordot(speakers_of * sizes, post_cov, 1)) / n_total
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


def plda_score(model: PldaModel, enrol, test) -> float | np.ndarray:
    """Same-speaker log-likelihood ratio along the last axis: a float for two
    vectors, an array for stacks that broadcast against each other, so
    (K, 1, d) models against (1, N, d) tests give the (K, N) score matrix.

    Centred on mu, u = (e+t)/sqrt(2) and v = (e-t)/sqrt(2) are independent
    under both hypotheses: same speaker, u ~ N(0, W+2B) and v ~ N(0, W);
    different speakers, both ~ N(0, T) with T = B+W.  So the LLR is
    const + u'Pu/2 + v'Qv/2 with P = T^-1 - (W+2B)^-1 and Q = T^-1 - W^-1.
    Expanded, it is const + e'Ae + t'At + e'Ct with A = (P+Q)/4 and
    C = (P-Q)/2: only the cross term pairs a model with a test vector.
    """
    enrol = np.asarray(enrol, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if enrol.shape[-1] != test.shape[-1]:
        raise ValueError(f"vector dims differ: {enrol.shape} vs {test.shape}")
    b, w = model.phi_b, model.phi_w
    cov_t, cov_plus = b + w, w + 2.0 * b
    t_inv = np.linalg.inv(cov_t)
    p = t_inv - np.linalg.inv(cov_plus)
    q = t_inv - np.linalg.inv(w)
    a, c = (p + q) / 4.0, (p - q) / 2.0
    _, ld_t = np.linalg.slogdet(cov_t)
    _, ld_plus = np.linalg.slogdet(cov_plus)
    _, ld_w = np.linalg.slogdet(w)
    e = model.project(enrol) - model.mu
    t = model.project(test) - model.mu
    scores = (ld_t - 0.5 * (ld_plus + ld_w)
              + _inner(e @ a, e) + _inner(t @ a, t) + _inner(e @ c, t))
    return float(scores) if scores.ndim == 0 else scores


def score_trials(model: PldaModel, trials) -> np.ndarray:
    """Log-likelihood ratios, same speaker vs different, for each trial."""
    if not trials:
        return np.zeros(0)
    return plda_score(model, np.stack([tr.enrol_vector for tr in trials]),
                      np.stack([tr.test_vector for tr in trials]))


# --- file formats ----------------------------------------------------------
#
# A CSV's ids are plain tokens (corpus.check_ids), so no field is quoted.

def save_embeddings(path, records):
    """CSV with header utterance_id,speaker_id,e0,...; repr-exact floats."""
    records = list(records)
    if not records:
        raise ValueError("no embeddings to save")
    check_ids([i for r in records for i in (r.utterance_id, r.speaker_id)], path)
    dim = len(records[0].vector)
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["utterance_id", "speaker_id"]
                          + [f"e{i}" for i in range(dim)]) + "\n")
        for r in records:
            if len(r.vector) != dim:
                raise ValueError(f"embedding dim mismatch for {r.utterance_id}: "
                                 f"{len(r.vector)} vs {dim}")
            values = np.asarray(r.vector, dtype=np.float64).tolist()
            fh.write(",".join([r.utterance_id, r.speaker_id, *map(repr, values)]) + "\n")


# np.loadtxt reads a number with one of these around it, and refuses every
# other control character in a value
_LOADTXT_SPACES = ("\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def _read_rows(path, fh, width, target=False) -> tuple[list, np.ndarray]:
    """The ids, two a line, and the (lines, width) values of the lines left
    in fh, split at their first two commas; one np.loadtxt parses all values.
    Refused, each at its first line: a blank line, a control character, a
    value count or value loadtxt cannot take, or a last value other than `0`
    or `1` with `target`; then an id that is not plain; then a value not finite."""
    ids = []

    def texts():
        for line in fh:
            utterance, _, rest = line.partition(",")
            speaker, _, text = rest.partition(",")
            ids.extend((utterance, speaker))
            # loadtxt refuses a value count other than the first line's; a
            # target must be the last value
            if text in ("", "\n") or (target or len(ids) == 2) and text.count(",") != width - 1:
                raise ValueError("blank line" if line == "\n" else f"value count is not {width}")
            if control := next((c for c in _LOADTXT_SPACES if c in line), None):
                raise ValueError(f"holds {control!r}; no id or value holds a control character")
            if target and text.rpartition(",")[2].rstrip("\n") not in ("0", "1"):
                raise ValueError("target must be 0 or 1")
            yield text

    def line_of(k):     # the k-th id's
        return f"{path}:{k // 2 + 2}"

    try:
        with warnings.catch_warnings():     # loadtxt warns of a file of no rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(texts(), delimiter=",", comments=None, ndmin=2,
                                dtype=np.float64).reshape(-1, width)
    except UnicodeDecodeError:
        raise               # open_text names its line
    except ValueError as exc:   # at the last line read; loadtxt reads no further
        raise ValueError(f"{line_of(len(ids) - 2)}: "
                         f"{str(exc).partition(' at row ')[0]}") from None
    check_ids(ids, line_of)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ValueError(f"{line_of(2 * np.argmin(finite))}: values must be finite")
    return ids, values


def load_embeddings(path) -> list[EmbeddingRecord]:
    """Records of an embedding CSV; a malformed file is one ValueError naming
    the file, and its line where the fault is on one (`_read_rows`)."""
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[:2] != ["utterance_id", "speaker_id"]:
            raise ValueError(f"{path} is not an embedding CSV")
        if len(header) == 2:
            raise ValueError(f"{path} has no embedding value columns")
        ids, values = _read_rows(path, fh, len(header) - 2)
    if not ids:
        raise ValueError(f"{path} contains no embeddings")
    pairs = iter(ids)
    return [EmbeddingRecord(u, s, v) for u, s, v in zip(pairs, pairs, values)]


_TRIALS_HEADER = ["enrol_speaker", "test_utterance", "score", "target"]


def save_trials(path, trials, scores):
    trials = list(trials)
    scores = np.asarray(scores, dtype=np.float64)
    if len(trials) != len(scores):
        raise ValueError(f"{len(trials)} trials but {len(scores)} scores")
    check_ids([i for tr in trials for i in (tr.enrol_speaker, tr.test_utterance)], path)
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_TRIALS_HEADER) + "\n")
        for tr, s in zip(trials, scores.tolist()):
            fh.write(f"{tr.enrol_speaker},{tr.test_utterance},{s!r},{int(tr.target)}\n")


# each extra writer process must get at least this many trials: below it,
# forking, reaping and appending a share cost more than formatting it here
# (break-even near 4,000 on a 2-CPU x86-64 host, 60 or 400 MB resident)
_FORK_FLOOR = 5_000
_TARGET_ENDS = (",0\n", ",1\n")


def save_score_matrix(path, speakers, test_utterances, scores, targets):
    """The trials CSV of a (K, N) score matrix, row-major: the file
    `save_trials` writes for `make_trials`' list.

    Past _FORK_FLOOR trials per extra process, contiguous shares of the
    enrolment rows are written at once by `forked_map`'s processes: this one
    writes the header and the first share, a forked child writes each other
    share to a part file, and the parts are appended in order, so the bytes
    never depend on the CPU count.  A child's failure is raised here as an
    OSError."""
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=bool)
    if not scores.shape == targets.shape == (len(speakers), len(test_utterances)):
        raise ValueError(f"{len(speakers)} x {len(test_utterances)} trials but "
                         f"scores {scores.shape} and targets {targets.shape}")
    check_ids([*speakers, *test_utterances], path)
    enrols = [f"{spk}," for spk in speakers]
    tests = [f"{u}," for u in test_utterances]

    def write_rows(fh, rows):
        # one list per row, [prefix, score, end] per trial, joined once:
        # the repr of each score is most of the cost
        parts = [None] * (3 * len(tests))
        for k in rows:
            parts[0::3] = [enrols[k] + u for u in tests]
            parts[1::3] = map(repr, scores[k].tolist())
            parts[2::3] = map(_TARGET_ENDS.__getitem__, targets[k].tolist())
            fh.write("".join(parts))

    n_rows, n_tests = scores.shape
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_TRIALS_HEADER) + "\n")
        part_dir = f"{fh.name}.parts"

        def write_share(rows):
            if rows.start == 0:
                write_rows(fh, rows)
                return None
            part = os.path.join(part_dir, str(rows.start))
            with open(part, "w", encoding="utf-8", newline="") as out:
                write_rows(out, rows)
            return part

        os.mkdir(part_dir)
        try:
            parts = forked_map(write_share, n_rows, -(-_FORK_FLOOR // max(n_tests, 1)),
                               f"{path}: the process writing enrolment rows")
            fh.flush()
            for part in parts[1:]:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
        finally:
            shutil.rmtree(part_dir, ignore_errors=True)


def load_trials(path) -> tuple[np.ndarray, np.ndarray]:
    """Scores and target flags from a trials CSV, read as `load_embeddings`
    reads an embedding CSV."""
    with open_text(path) as fh:
        if fh.readline().rstrip("\n") != ",".join(_TRIALS_HEADER):
            raise ValueError(f"{path} is not a trials CSV")
        _, values = _read_rows(path, fh, 2, target=True)
    return values[:, 0], values[:, 1] == 1.0


def save_eer_report(path, eer: float, threshold: float):
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(f"EER={eer:.4f}\n")
        fh.write(f"threshold={threshold!r}\n")
