"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The identification fixture trains nine small models (three architectures,
three seeds) on a 600-utterance synthetic corpus; the module asserts its own
runtime budget.  Every expected value here is recomputed from scratch —
brute-force EER sweep, naive pooling loops, closed-form PLDA oracle — rather
than imported from the implementation under test.
"""

import contextlib
import io
import time
from fractions import Fraction

import numpy as np
import pytest

from hvector import tensor as hv
from hvector.audio import (
    AudioClip,
    dct_matrix,
    frame_count,
    load_wav,
    mfcc_frames,
    split_fragments,
    vad_filter,
    window_utterances,
)
from hvector.cli import main as cli_main
from hvector.corpus import (
    make_speaker_spec,
    make_verification_split,
    split,
    synth_corpus,
    synth_utterance,
)
from hvector.model import (
    ModelConfig,
    attention_normalize,
    build_params,
    embed_batch,
    forward_batch,
)
from hvector.scoring import (
    EmbeddingRecord,
    PldaModel,
    Trial,
    compute_eer,
    make_trials,
    plda_fit,
    score_trials,
)
from hvector.tensor import Tensor
from hvector.train import TrainConfig, cross_entropy, train

from helpers import tiny_config

MODES = ("hvector", "xvector", "xvector_attn")


@contextlib.contextmanager
def _criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number}: FAIL - {title}")
        raise
    print(f"\ncriterion {number}: PASS - {title}")


# --- independent oracles -----------------------------------------------------

def sweep_oracle(scores, targets):
    """Brute-force EER: exact rational crossing over every pair of operating
    points from a full threshold sweep, minimum taken."""
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=bool)
    t_scores = scores[targets]
    n_scores = scores[~targets]
    pts = [(Fraction(1), Fraction(0))]
    for th in np.unique(scores):
        pts.append((Fraction(int((n_scores >= th).sum()), len(n_scores)),
                    Fraction(int((t_scores < th).sum()), len(t_scores))))
    pts.append((Fraction(0), Fraction(1)))
    best = None
    for i, a in enumerate(pts):
        da = a[0] - a[1]
        if da == 0 and (best is None or a[0] < best):
            best = a[0]
        for b in pts[i + 1:]:
            db = b[0] - b[1]
            if db == 0:
                if best is None or b[0] < best:
                    best = b[0]
            elif (da < 0 < db) or (db < 0 < da):
                t = da / (da - db)
                cand = a[0] + t * (b[0] - a[0])
                if best is None or cand < best:
                    best = cand
    return float(best)


def sample_two_cov(seed, n_speakers=20, per_speaker=30, d=5):
    """Draw a corpus from a known two-covariance model; return everything."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    phi_b = a @ a.T + 0.5 * np.eye(d)
    b = rng.standard_normal((d, d)) * 0.5
    phi_w = b @ b.T + 0.3 * np.eye(d)
    mu = rng.standard_normal(d)
    lb = np.linalg.cholesky(phi_b)
    lw = np.linalg.cholesky(phi_w)
    recs, latents, noises = [], [], []
    for k in range(n_speakers):
        y = mu + lb @ rng.standard_normal(d)
        latents.append(y)
        for j in range(per_speaker):
            e = lw @ rng.standard_normal(d)
            noises.append(e)
            recs.append(EmbeddingRecord(f"s{k}-u{j}", f"s{k}", y + e))
    truth = PldaModel(mean=np.zeros(d), lda=np.eye(d), mu=mu,
                      phi_b=phi_b, phi_w=phi_w)
    return recs, truth, np.stack(latents), np.stack(noises), rng


def _rel_frobenius(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _spearman(a, b):
    ra = np.argsort(np.argsort(a))
    rb = np.argsort(np.argsort(b))
    return np.corrcoef(ra, rb)[0, 1]


def _featurize_manifest(manifest, window_s=1.0):
    """One fixed window per corpus clip, as the training pipeline sees it."""
    feats = {}
    for e in manifest.entries:
        windows = window_utterances(vad_filter(load_wav(e.path)), window_s)
        assert len(windows) == 1, f"{e.utterance_id}: {len(windows)} windows"
        feats[e.utterance_id] = split_fragments(
            mfcc_frames(windows[0]), e.utterance_id, e.speaker_id)
    return feats


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


# --- criterion 1: gradients --------------------------------------------------

def _op_gradient_cases():
    """(name, parameter tensor, scalar-valued function) triples covering every
    differentiable tensor op, each mixed to a scalar with fixed weights."""
    rng = np.random.default_rng(11)

    def aux(*shape):
        return Tensor(rng.standard_normal(shape))

    def p(*shape):
        """A checked input: only grad-tracking tensors land on the tape."""
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    cases = []

    def case(name, theta, build, out_shape):
        mix = rng.standard_normal(out_shape)
        cases.append((name, theta, lambda th: hv.tsum(hv.mul(build(th), mix))))

    a43, a32, a54 = aux(4, 3), aux(3, 2), aux(5, 4)
    case("add", p(4, 3), lambda th: hv.add(th, a43), (4, 3))
    case("add broadcast bias", p(3), lambda th: hv.add(a43, th), (4, 3))
    case("sub", p(4, 3), lambda th: hv.sub(th, a43), (4, 3))
    case("mul", p(4, 3), lambda th: hv.mul(th, a43), (4, 3))
    case("neg", p(4, 3), hv.neg, (4, 3))
    relu_in = Tensor(rng.uniform(0.2, 1.0, (4, 3)) * rng.choice([-1.0, 1.0], (4, 3)),
                     requires_grad=True)  # kept away from the kink
    case("relu", relu_in, hv.relu, (4, 3))
    case("sigmoid", p(4, 3), hv.sigmoid, (4, 3))
    case("tanh", p(4, 3), hv.tanh, (4, 3))
    cases.append(("mean", p(4, 3), lambda th: hv.mean(th)))
    cases.append(("tsum", p(4, 3), lambda th: hv.tsum(th)))
    case("mean axis", p(4, 3), lambda th: hv.mean(th, axis=0), (3,))
    case("concat", p(4, 3), lambda th: hv.concat([th, a43, th], axis=0), (12, 3))
    case("reshape", p(4, 6), lambda th: hv.reshape(th, (3, 8)), (3, 8))
    case("slice_axis", p(4, 6), lambda th: hv.slice_axis(th, 1, 1, 4), (4, 3))
    case("matmul lhs", p(4, 3), lambda th: hv.matmul(th, a32), (4, 2))
    case("matmul rhs", p(4, 3), lambda th: hv.matmul(a54, th), (5, 3))

    kern, bias, x9 = aux(3, 3, 4), aux(4), aux(9, 3)
    case("conv1d x", p(9, 3), lambda th: hv.conv1d(th, kern, bias), (9, 4))
    case("conv1d kernel", p(3, 3, 4), lambda th: hv.conv1d(x9, th, bias), (9, 4))
    case("conv1d bias", p(4), lambda th: hv.conv1d(x9, kern, th), (9, 4))
    case("conv1d batched", p(2, 7, 3), lambda th: hv.conv1d(th, kern, bias), (2, 7, 4))

    case("softmax", p(4, 5), lambda th: hv.softmax(th, axis=-1), (4, 5))
    case("log_sum_exp", p(4, 5), lambda th: hv.log_sum_exp(th, axis=-1), (4,))
    pick_idx = np.array([0, 3, 1, 4])
    case("pick", p(4, 5), lambda th: hv.pick(th, pick_idx), (4,))
    case("stats_pool", p(5, 3), hv.stats_pool, (6,))
    w_aux = Tensor(rng.uniform(0.1, 1.0, 5))
    case("weighted_stats_pool seq", p(5, 3),
         lambda th: hv.weighted_stats_pool(th, w_aux), (6,))
    seq_aux = aux(5, 3)
    case("weighted_stats_pool weights",
         Tensor(rng.uniform(0.1, 1.0, 5), requires_grad=True),
         lambda th: hv.weighted_stats_pool(seq_aux, th), (6,))
    case("dropout", p(6, 4),
         lambda th: hv.dropout(th, 0.35, rng=np.random.default_rng(99),
                               training=True), (6, 4))

    gamma, beta, bn_x = aux(4), aux(4), aux(6, 4)
    def bn(x, g, b):
        return hv.batchnorm(x, g, b, np.zeros(4), np.ones(4), training=True)
    case("batchnorm x", p(6, 4), lambda th: bn(th, gamma, beta), (6, 4))
    case("batchnorm gamma", p(4), lambda th: bn(bn_x, th, beta), (6, 4))
    case("batchnorm beta", p(4), lambda th: bn(bn_x, gamma, th), (6, 4))

    gru_p = {k: aux(5, 4) for k in ("wz", "wr", "wh")}
    gru_p.update({k: aux(4, 4) for k in ("uz", "ur", "uh")})
    gru_p.update({k: aux(4) for k in ("bz", "br", "bh")})
    gru_h, gru_x = aux(3, 4), aux(3, 5)
    case("gru_cell x", p(3, 5), lambda th: hv.gru_cell(th, gru_h, gru_p), (3, 4))
    case("gru_cell h_prev", p(3, 4), lambda th: hv.gru_cell(gru_x, th, gru_p), (3, 4))
    case("gru_cell wz", p(5, 4),
         lambda th: hv.gru_cell(gru_x, gru_h, {**gru_p, "wz": th}), (3, 4))
    return cases


def test_criterion_1_gradient_suite():
    title = "finite differences agree for every op and the full tiny network"
    with _criterion(1, title):
        started = time.monotonic()
        for name, theta, fn in _op_gradient_cases():
            err = hv.grad_check(fn, theta)
            assert err < 1e-4, f"{name}: rel err {err:.3e}"

        cfg = tiny_config()  # M=4, E=2*4=8, N=10, K=3
        params = build_params(cfg, seed=3)
        # triple the weight matrices so gradients sit well above the
        # finite-difference noise floor of ~1e-11 per evaluation
        for pname, tensor in params.tensors.items():
            if pname.endswith((".w", ".w0", ".w1", ".wz", ".wr", ".wh",
                               ".uz", ".ur", ".uh")):
                tensor.data *= 3.0
        rng = np.random.default_rng(7)
        frags = rng.standard_normal(
            (3, cfg.n_fragments, cfg.frames_per_fragment, cfg.feat_dim))
        labels = np.array([0, 1, 2])

        def loss(_):
            logits, _emb = forward_batch(frags, params, cfg,
                                         training=False)
            return cross_entropy(logits, labels)

        for pname, theta in params.tensors.items():
            err = hv.grad_check(loss, theta)
            assert err < 1e-4, f"{pname}: rel err {err:.3e}"

        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# --- criterion 2: published dimensions ---------------------------------------

def test_criterion_2_full_scale_shapes():
    title = "default config produces 30x1024, 2048, 10x1500, 3000, 512"
    with _criterion(2, title):
        cfg = ModelConfig(n_speakers=50)
        assert cfg.frames_per_fragment == 30
        assert cfg.frame_out_dim == 1024
        params = build_params(cfg, seed=0)
        frags = np.random.default_rng(0).standard_normal((1, 10, 30, 20))
        trace = {}
        logits, emb = forward_batch(frags, params, cfg,
                                    trace=trace)
        assert trace["frame_encoded"].shape == (10, 30, 1024)
        assert trace["segments"].shape == (1, 10, 2048)
        assert trace["segment_encoded"].shape == (1, 10, 1500)
        assert trace["utterance_vector"].shape == (1, 3000)
        assert trace["emb"].shape == (1, 512)
        assert emb.shape == (1, 512)
        assert logits.shape == (1, 50)


# --- criterion 3: attention invariants ----------------------------------------

def test_criterion_3_attention_invariants():
    title = "attention weights sum to 1 and ignore constant score shifts"
    with _criterion(3, title):
        rng = np.random.default_rng(502)
        worst_sum = worst_shift = 0.0
        for _ in range(1000):
            # frame-level geometry, then segment-level geometry
            for shape in ((10, 12), (2, 10)):
                scores = rng.standard_normal(shape) * rng.uniform(0.5, 4.0)
                c = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(0.0, 4.0)
                alpha = attention_normalize(Tensor(scores)).data
                shifted = attention_normalize(Tensor(scores + c)).data
                worst_sum = max(worst_sum, np.abs(alpha.sum(-1) - 1.0).max())
                worst_shift = max(worst_shift, np.abs(alpha - shifted).max())
        assert worst_sum <= 1e-9, f"weight sums off by {worst_sum:.2e}"
        assert worst_shift <= 1e-9, f"shift changed weights by {worst_shift:.2e}"

        # the same holds for the alphas an actual forward pass emits
        cfg = tiny_config()
        params = build_params(cfg, seed=1)
        for _ in range(25):
            frags = rng.standard_normal((2, 10, 4, 20))
            trace = {}
            forward_batch(frags, params, cfg, trace=trace)
            for key in ("frame_alpha", "seg_alpha"):
                sums = trace[key].data.sum(axis=-1)
                assert np.abs(sums - 1.0).max() <= 1e-9


# --- criterion 4: pooling identities ------------------------------------------

def test_criterion_4_pooling_identities():
    title = "stats_pool collapses identical rows; weighted pool matches naive oracle"
    with _criterion(4, title):
        rng = np.random.default_rng(404)
        for _ in range(20):
            t = int(rng.integers(2, 12))
            e = int(rng.integers(1, 8))
            row = rng.standard_normal(e)
            pooled = hv.stats_pool(Tensor(np.tile(row, (t, 1)))).data
            assert np.allclose(pooled[:e], row, rtol=1e-12, atol=0.0)
            assert np.all(np.abs(pooled[e:]) <= 1e-6)  # sqrt of variance floor

        for _ in range(100):
            t = int(rng.integers(2, 15))
            e = int(rng.integers(1, 9))
            seq = rng.standard_normal((t, e))
            raw = rng.uniform(0.05, 1.0, t)
            weights = raw / raw.sum()
            got = hv.weighted_stats_pool(Tensor(seq), Tensor(weights)).data

            mu = np.zeros(e)
            for s in range(t):
                mu += weights[s] * seq[s]
            var = np.zeros(e)
            for s in range(t):
                var += weights[s] * (seq[s] - mu) ** 2
            expect = np.concatenate([mu, np.sqrt(np.maximum(var, hv.VAR_FLOOR))])
            assert np.abs(got - expect).max() < 1e-10


# --- criteria 5 and 6: synthetic identification and verification --------------

@pytest.fixture(scope="module")
def identification(tmp_path_factory):
    """Nine trainings (three modes x three seeds) on the 10x60x1s corpus."""
    started = time.monotonic()
    root = tmp_path_factory.mktemp("ident")
    manifest = synth_corpus(10, 60, 1.0, seed=0, out_dir=root)
    feats = _featurize_manifest(manifest)
    accs = {mode: [] for mode in MODES}
    max_epochs = 0
    keep = {}
    for seed in (0, 1, 2):
        train_man, dev_man = split(manifest, 0.9, seed)
        train_feats = [feats[e.utterance_id] for e in train_man.entries]
        dev_feats = [feats[e.utterance_id] for e in dev_man.entries]
        for mode in MODES:
            model_cfg = ModelConfig.desk(10, mode)
            run_cfg = TrainConfig(lr=1e-3, epochs=30, seed=seed,
                                  stop_at_dev_acc=0.98)
            best, history = train(train_feats, dev_feats, model_cfg, run_cfg)
            accs[mode].append(max(h.dev_acc for h in history))
            max_epochs = max(max_epochs, len(history))
            if mode == "hvector" and seed == 0:
                keep = {"params": best, "cfg": model_cfg,
                        "train_feats": train_feats}
    return {"accs": accs, "max_epochs": max_epochs,
            "elapsed": time.monotonic() - started, **keep}


def test_criterion_5_synthetic_identification(identification):
    title = "desk models reach the accuracy floors within budget"
    with _criterion(5, title):
        accs = identification["accs"]
        means = {mode: float(np.mean(accs[mode])) for mode in MODES}
        assert identification["max_epochs"] <= 30
        assert means["hvector"] >= 0.95, f"hvector mean {means['hvector']}"
        assert means["xvector"] >= 0.90, f"xvector mean {means['xvector']}"
        assert means["xvector_attn"] >= 0.90, \
            f"xvector_attn mean {means['xvector_attn']}"
        assert means["hvector"] >= means["xvector"] - 0.01
        assert identification["elapsed"] <= 900.0, \
            f"identification runs took {identification['elapsed']:.0f}s"


def test_criterion_6_synthetic_verification(identification, tmp_path):
    title = "held-out speaker PLDA verification reaches EER <= 0.10"
    with _criterion(6, title):
        held = synth_corpus(10, 20, 1.0, seed=1000, out_dir=tmp_path / "held")
        feats = _featurize_manifest(held)
        enrol_man, eval_man = make_verification_split(held, 5, 5, 10, seed=0)
        enrol_ids = {e.utterance_id for e in enrol_man.entries}
        enrol_speakers = set(enrol_man.speakers())
        # the verification split keeps speaker sets disjoint, so target trials
        # come from the enrolled speakers' utterances left out of enrolment
        target_entries = [e for e in held.entries
                          if e.speaker_id in enrol_speakers
                          and e.utterance_id not in enrol_ids]
        assert len(target_entries) == 50

        params = identification["params"]
        model_cfg = identification["cfg"]

        def embed_entries(entries):
            batch = [feats[e.utterance_id] for e in entries]
            vecs = embed_batch(batch, params, model_cfg)
            return [EmbeddingRecord(u.utterance_id, u.speaker_id, vecs[i])
                    for i, u in enumerate(batch)]

        train_feats = identification["train_feats"]
        train_vecs = embed_batch(train_feats, params, model_cfg)
        plda = plda_fit([
            EmbeddingRecord(u.utterance_id, u.speaker_id, train_vecs[i])
            for i, u in enumerate(train_feats)
        ])

        trials = make_trials(embed_entries(enrol_man.entries),
                             embed_entries(eval_man.entries + target_entries))
        assert len(trials) == 500
        scores = score_trials(plda, trials)
        targets = [t.target for t in trials]
        assert sum(targets) == 50

        eer = compute_eer(scores, targets)
        assert eer <= 0.10, f"EER {eer:.4f}"
        assert eer == sweep_oracle(scores, targets)


# --- criterion 7: PLDA recovery ------------------------------------------------

def test_criterion_7_plda_recovery():
    title = "EM recovers the sampled two-covariance model and its LLR ranking"
    with _criterion(7, title):
        recs, truth, latents, noises, rng = sample_two_cov(seed=42)
        model = plda_fit(recs, use_lda=False)
        # with 20 speakers the latent sample covariance itself sits ~40% from
        # the true phi_b, so recovery is judged against the realized moments
        yc = latents - latents.mean(axis=0)
        nc = noises - noises.mean(axis=0)
        assert _rel_frobenius(model.phi_b, yc.T @ yc / len(yc)) <= 0.10
        assert _rel_frobenius(model.phi_w, nc.T @ nc / len(nc)) <= 0.10

        idx = rng.integers(0, len(recs), size=(1000, 2))
        trials = [Trial("e", "t", recs[i].vector, recs[j].vector,
                        recs[i].speaker_id == recs[j].speaker_id)
                  for i, j in idx]
        rho = _spearman(score_trials(model, trials),
                        score_trials(truth, trials))
        assert rho > 0.99, f"Spearman {rho:.4f}"


# --- criterion 8: front-end exactness ------------------------------------------

def test_criterion_8_front_end_exactness():
    title = "frame counts, DCT orthonormality, window counts, VAD removal"
    with _criterion(8, title):
        rng = np.random.default_rng(88)
        for n in (200, 201, 279, 280, 281, 800, 999, 1000, 8000, 12345, 24000):
            clip = AudioClip(rng.standard_normal(n) * 0.1)
            expected_t = (n - 200) // 80 + 1
            assert frame_count(n) == expected_t
            assert mfcc_frames(clip).shape == (expected_t, 20)
        with pytest.raises(ValueError):
            mfcc_frames(AudioClip(rng.standard_normal(150)))

        d = dct_matrix()
        assert np.abs(d @ d.T - np.eye(20)).max() < 1e-10

        for n in (8000, 8001, 11999, 12000, 24000, 24001, 36000, 40000):
            clip = AudioClip(rng.standard_normal(n) * 0.1)
            assert len(window_utterances(clip, 1.0)) == (n - 8000) // 4000 + 1
            expected_3s = (n - 24000) // 12000 + 1 if n >= 24000 else 0
            assert len(window_utterances(clip, 3.0)) == expected_3s

        spec = make_speaker_spec(5, 0, "vad-spk")
        clip = synth_utterance(spec, 2.0, 5, 0, 0)
        samples = clip.samples.copy()
        assert np.count_nonzero(samples == 0.0) == 0
        # grid-aligned digital silence: starts on the 80-sample hop, ends 40
        # past it, so failing frames tile the region exactly
        samples[8000:10440] = 0.0
        cleaned = vad_filter(AudioClip(samples, clip.sample_rate))
        assert np.count_nonzero(cleaned.samples == 0.0) == 0
        assert len(cleaned.samples) <= len(samples) - 2440


# --- criterion 9: determinism ---------------------------------------------------

def test_criterion_9_pipeline_determinism(tmp_path):
    title = "identical seeds give identical accuracy and byte-identical CSVs"
    with _criterion(9, title):
        def pipeline(base):
            corpus, feats = base / "corpus", base / "feats"
            run, emb = base / "run", base / "emb.csv"
            for argv in (
                ("synth", "--out", str(corpus), "--speakers", "3",
                 "--utts", "6", "--dur", "1", "--seed", "11"),
                ("prepare", "--manifest", str(corpus / "manifest.tsv"),
                 "--out", str(feats), "--len", "1"),
                ("train", "--manifest", str(feats / "manifest.tsv"),
                 "--out", str(run), "--model", "hvector", "--epochs", "2",
                 "--seed", "4", "--set", "lr=0.001"),
                ("embed", "--manifest", str(feats / "manifest.tsv"),
                 "--ckpt", str(run / "model.hvt"), "--out", str(emb)),
            ):
                code, _, err = _run_cli(*argv)
                assert code == 0, err
            code, out, err = _run_cli("score-id", "--manifest",
                                      str(feats / "manifest.tsv"),
                                      "--ckpt", str(run / "model.hvt"))
            assert code == 0, err
            [acc_line] = [ln for ln in out.splitlines()
                          if ln.startswith("accuracy=")]
            return acc_line, emb.read_bytes()

        acc_one, csv_one = pipeline(tmp_path / "one")
        acc_two, csv_two = pipeline(tmp_path / "two")
        assert acc_one == acc_two
        assert csv_one == csv_two
