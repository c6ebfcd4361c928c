"""Release acceptance suite.

One test per release criterion. Each test appends a one-line PASS/FAIL
summary (printed in the terminal summary by conftest) before asserting,
so the full scoreboard is visible even when a criterion fails.

Criteria 1 and 3 pin formula-exact reference values. Two published
numbers do not follow from the defining formulas and are recorded here
only as errata: kappa = -0.131 at beta = -12 (the exact value
is -0.1095; -0.131 is kappa at beta = -15), and the contributions
[0.9518, -0.0077] at beta = 1/2 (eigenvalues of the unsymmetrized
C_kl / sqrt(t_k t_l), not of the symmetrized matrix that decompose takes).
"""

from __future__ import annotations

import math
import time

import numpy as np
from conftest import ACCEPTANCE_LINES, both_priors, quadrature_cmat

from coactive import (
    FitConfig,
    InputPrior,
    activity_scores,
    cmat,
    cmat_trace,
    decompose,
    discordance_matrix,
    fit,
    fit_ensemble,
    lhs_design,
    mds_embed,
    model_centers,
    pairwise_concordance,
    poincare_bound,
    shared_matrix,
    symmetrize,
)
from coactive.montecarlo import poly_pair
from coactive.verify import check_metric, check_piston, check_poly

UNIT2 = ((0.0, 1.0), (0.0, 1.0))


def _record(num: int, ok: bool, detail: str, dt: float) -> str:
    line = f"criterion-{num:02d}: {'PASS' if ok else 'FAIL'} ({detail}; {dt:.1f}s)"
    ACCEPTANCE_LINES.append(line)
    return line


def _fit_poly_pair(beta: float, n: int = 1000, seed: int = 20260813):
    fa, fb = poly_pair(beta)
    X = lhs_design(n, 2, UNIT2, seed=seed)
    cfg = FitConfig(domain=UNIT2)
    return fit(X, fa(X), cfg), fit(X, fb(X), cfg)


def test_criterion_01_polynomial_concordance_reference_values():
    t0 = time.perf_counter()
    results = check_poly()
    dt = time.perf_counter() - t0
    ok = all(r.passed for r in results) and dt < 1.0
    detail = ", ".join(f"kappa(beta={r.name.split('=')[1]})={r.measured:.4f}" for r in results)
    if not ok:
        bad = [r for r in results if not r.passed]
        detail += "".join(f"; {r.name} off formula-exact target {r.target}" for r in bad)
    line = _record(1, ok, detail, dt)
    assert ok, line


def test_criterion_02_polynomial_concordance_surrogate_path():
    t0 = time.perf_counter()
    ma, mb = _fit_poly_pair(3.0)
    prior = InputPrior.uniform_box(UNIT2)
    C = cmat(ma, mb, prior).entries
    ref = np.array([[2.667, 6.167], [0.917, 1.833]])
    err = float(np.linalg.norm(C - ref))
    dt = time.perf_counter() - t0
    ok = err < 0.1 and dt < 60.0
    line = _record(2, ok, f"|C12 - ref|_F = {err:.2e} (tol 0.1)", dt)
    assert ok, line


def test_criterion_03_leading_direction_and_contributions():
    t0 = time.perf_counter()
    ma, mb = _fit_poly_pair(0.5)
    prior = InputPrior.uniform_box(UNIT2)
    V = symmetrize(cmat(ma, mb, prior), cmat(mb, ma, prior))
    dec = decompose(V, cmat_trace(ma, ma, prior), cmat_trace(mb, mb, prior))
    w1 = dec.eigvecs[:, 0]
    if w1[0] < 0:
        w1 = -w1
    # exact at beta=1/2: V = [[8/3, 65/48], [65/48, 7/12]], t_k t_l = 237/20,
    # lambda = (13/4 +- sqrt(6725)/24)/2, so pi = [0.96836, -0.02424] and
    # w1 = [0.89714, 0.44175]
    w_ok = bool(np.all(np.abs(w1 - [0.8971, 0.4418]) < 0.03))
    pi = dec.contributions
    pi_ok = abs(pi[0] - 0.9684) < 0.01 and abs(pi[1] - (-0.0242)) < 0.005
    dt = time.perf_counter() - t0
    ok = w_ok and pi_ok and dt < 60.0
    detail = (
        f"w1=[{w1[0]:.4f}, {w1[1]:.4f}] {'OK' if w_ok else 'off'}, "
        f"pi=[{pi[0]:.4f}, {pi[1]:.4f}] vs exact [0.9684, -0.0242]"
        + ("" if pi_ok else " outside windows")
    )
    line = _record(3, ok, detail, dt)
    assert ok, line


def test_criterion_04_piston_monte_carlo_cross_validation():
    t0 = time.perf_counter()
    (res,) = check_piston()
    dt = time.perf_counter() - t0
    ok = res.passed and dt < 300.0
    line = _record(4, ok, f"MC vs closed-form rel Frobenius = {res.measured:.4f} (tol 0.05)", dt)
    assert ok, line


def test_criterion_05_discordance_pseudo_metric_properties():
    t0 = time.perf_counter()
    results = check_metric(n_models=50, seed=404)
    dt = time.perf_counter() - t0
    ok = all(r.passed for r in results) and dt < 300.0
    detail = ", ".join(f"{r.name.removeprefix('metric-')}={r.measured:.2e}" for r in results)
    line = _record(5, ok, detail, dt)
    assert ok, line


def test_criterion_06_eigen_and_score_identities(metric_corpus, small_pair_corpus):
    t0 = time.perf_counter()
    prior = InputPrior.uniform_box(metric_corpus[0].domain)
    pairs = []
    for a in range(len(metric_corpus)):
        for b in range(a + 1, len(metric_corpus)):
            pairs.append((metric_corpus[a], metric_corpus[b], prior))
    for mk, ml, p in small_pair_corpus:
        pairs.append((mk, ml, InputPrior.uniform_box(mk.domain)))

    worst_sum, worst_trace, worst_q1 = 0.0, 0.0, 0.0
    for mk, ml, pr in pairs:
        V = symmetrize(cmat(mk, ml, pr), cmat(ml, mk, pr))
        dec = decompose(V, cmat_trace(mk, mk, pr), cmat_trace(ml, ml, pr))
        worst_sum = max(worst_sum, abs(math.fsum(dec.contributions) - dec.concordance))
        tr = float(np.trace(V))
        worst_trace = max(worst_trace, abs(dec.eigvals.sum() - tr) / max(abs(tr), 1e-300))
        assert abs(dec.concordance) <= 1.0
        signed, unsigned = activity_scores(dec, 1)
        worst_q1 = max(worst_q1, float(np.abs(np.abs(signed) - unsigned).max()))

    worst_self = 0.0
    for m in metric_corpus:
        t = cmat_trace(m, m, prior)
        dec = decompose(cmat(m, m, prior), t, t)
        assert float(dec.contributions.min()) >= -1e-12
        worst_self = max(worst_self, abs(sum(dec.contributions) - 1.0))

    dt = time.perf_counter() - t0
    ok = worst_sum <= 1e-12 and worst_trace <= 1e-10 and worst_q1 <= 1e-12 and worst_self <= 1e-12
    detail = (
        f"{len(pairs)} pairs: max|sum(pi)-kappa|={worst_sum:.1e}, "
        f"max rel|sum(lam)-tr|={worst_trace:.1e}, q=1 score gap={worst_q1:.1e}, "
        f"self sum gap={worst_self:.1e}"
    )
    line = _record(6, ok, detail, dt)
    assert ok, line


def test_criterion_07_closed_form_matches_quadrature(small_pair_corpus):
    t0 = time.perf_counter()
    worst = 0.0
    for mk, ml, p in small_pair_corpus:
        for name, prior in both_priors(p):
            Cc = cmat(mk, ml, prior).entries
            Cq = quadrature_cmat(mk, ml, prior)
            scale = max(float(np.abs(Cc).max()), float(np.abs(Cq).max()), 1e-300)
            worst = max(worst, float(np.abs(Cc - Cq).max()) / scale)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 300.0
    line = _record(7, ok, f"40 matrices (2 priors x 20 pairs): max rel err = {worst:.1e} (tol 1e-6)", dt)
    assert ok, line


def test_criterion_08_analytic_gradients_match_finite_differences(metric_corpus):
    t0 = time.perf_counter()
    h = 1e-6
    worst = 0.0
    for idx, m in enumerate(metric_corpus):
        rng = np.random.default_rng(20260813 + idx)
        knots = [np.array(sorted({f.knot for t in m.terms for f in t.factors if f.var == i}))
                 for i in range(m.p)]
        pts = []
        while len(pts) < 100:
            x = np.array([rng.uniform(lo + 2 * h, hi - 2 * h) for lo, hi in m.domain])
            # central differences straddle a kink if a knot is within h
            if all(k.size == 0 or np.abs(k - x[i]).min() > 2 * h for i, k in enumerate(knots)):
                pts.append(x)
        X = np.array(pts)
        fd = np.empty_like(X)
        for i in range(m.p):
            E = np.zeros_like(X)
            E[:, i] = h
            fd[:, i] = (m.evaluate_batch(X + E) - m.evaluate_batch(X - E)) / (2 * h)
        worst = max(worst, float(np.abs(m.gradient_batch(X) - fd).max()))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6
    line = _record(8, ok, f"50 models x 100 points: max |grad - FD| = {worst:.1e} (tol 1e-6)", dt)
    assert ok, line


def test_criterion_09_projection_bound_minimality(metric_corpus):
    t0 = time.perf_counter()
    prior = InputPrior.uniform_box(metric_corpus[0].domain)
    mats = [cmat(m, m, prior).entries for m in metric_corpus[:5]]
    H = shared_matrix(mats)
    p = H.shape[0]

    Sigma = prior.covariance()
    full = poincare_bound(H, Sigma, np.eye(p))
    full_ok = abs(full) <= 1e-10 * float(np.trace(H))

    lam, W = np.linalg.eigh(H)
    lead = W[:, ::-1]  # descending eigenvalue order
    rng = np.random.default_rng(20260813)
    min_ok = True
    for r in range(1, p):
        b0 = poincare_bound(H, Sigma, lead[:, :r])
        for _ in range(100):
            Q, _ = np.linalg.qr(rng.standard_normal((p, r)))
            if poincare_bound(H, Sigma, Q) < b0 - 1e-12 * float(np.trace(H)):
                min_ok = False
    dt = time.perf_counter() - t0
    ok = full_ok and min_ok
    line = _record(
        9, ok,
        f"full-basis bound = {full:.1e}, leading-eigvec basis minimal vs 100 random bases per rank",
        dt,
    )
    assert ok, line


def test_criterion_10_cluster_pipeline_separates_families():
    t0 = time.perf_counter()
    betas = (0.25, 0.5, 4.0)
    prior = InputPrior.uniform_box(UNIT2)
    X = lhs_design(120, 2, UNIT2, seed=2026)
    ensembles = []
    for j, beta in enumerate(betas):
        y = X[:, 0] ** 2 + X[:, 0] * X[:, 1] + beta * X[:, 1] ** 3
        cfg = FitConfig(domain=UNIT2, label=f"beta{beta:g}")
        ensembles.append(fit_ensemble(X, y, cfg, B=5, seed=11 + j))

    grid = pairwise_concordance(ensembles, prior)
    # block means must follow the exact-concordance ordering of the family
    means = np.array([[grid.summary(k, l).mean for l in range(3)] for k in range(3)])
    order_ok = means[0, 1] > means[1, 2] > means[0, 2]  # 0.988 > 0.744 > 0.631 exactly

    D = discordance_matrix(grid.kappa)
    emb = mds_embed(D, dims=2)
    hist = np.asarray(emb.stress_history)
    stress_ok = bool(np.all(np.diff(hist) <= 1e-12))

    centers = model_centers(emb.points, grid.membership)
    spread4 = float(
        np.linalg.norm(emb.points[grid.membership == 2] - centers[2], axis=1).max()
    )
    gap4 = min(
        float(np.linalg.norm(centers[2] - centers[0])),
        float(np.linalg.norm(centers[2] - centers[1])),
    )
    sep_ok = spread4 < gap4
    dt = time.perf_counter() - t0
    ok = order_ok and stress_ok and sep_ok and dt < 120.0
    detail = (
        f"block-mean order {'OK' if order_ok else 'WRONG'}, stress non-increasing "
        f"{'OK' if stress_ok else 'NO'}, beta=4 spread {spread4:.3f} < center gap {gap4:.3f}"
    )
    line = _record(10, ok, detail, dt)
    assert ok, line
