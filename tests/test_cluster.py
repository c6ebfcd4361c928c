"""Member-level concordance grids, discordance, and the MDS embedding."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import coactive
from coactive import (
    Ensemble,
    FitConfig,
    InputPrior,
    MarsSurrogate,
    NormalDim,
    UniformDim,
    cmat,
    concordance,
    discordance_matrix,
    fit,
    fit_ensemble,
    lhs_design,
    mds_embed,
    model_centers,
    pairwise_concordance,
    save_prior,
)
from conftest import procrustes_error

UNIT2 = ((0.0, 1.0), (0.0, 1.0))
PRIOR2 = InputPrior.uniform_box(UNIT2)


def _beta_ensemble(beta, B=2, n=80, seed=0, label=None):
    X = lhs_design(n, 2, UNIT2, seed=seed)
    y = X[:, 0] ** 2 + X[:, 0] * X[:, 1] + beta * X[:, 1] ** 3
    cfg = FitConfig(domain=UNIT2, label=label or f"beta{beta:g}")
    return fit_ensemble(X, y, cfg, B=B, seed=seed + 1)


def _kappa_formula(bk, bl):
    t12 = 3.0 + (bk + bl) / 2.0 + 1.8 * bk * bl
    tk = 3.0 + bk + 1.8 * bk * bk
    tl = 3.0 + bl + 1.8 * bl * bl
    return t12 / math.sqrt(tk * tl)


# -- pairwise grids --------------------------------------------------------------


def test_grid_single_member_is_trivially_exact():
    ens = _beta_ensemble(0.5, B=1)
    grid = pairwise_concordance([ens], PRIOR2)
    np.testing.assert_array_equal(grid.kappa, [[1.0]])
    s = grid.summary(0, 0)
    assert s.mean == 1.0 and s.sd == 0.0 and s.samples.shape == (1,)
    assert grid.n_members == 1 and grid.n_excluded == 0


def test_grid_identical_ensembles_fully_concordant():
    ens = _beta_ensemble(1.0, B=2)
    twin = Ensemble(members=ens.members, label="twin")
    grid = pairwise_concordance([ens, twin], PRIOR2)
    assert grid.kappa.shape == (4, 4)
    # members repeat across the two ensembles, so every cross block equals
    # the self block and everything on the diagonal blocks is ~1 or exact 1
    np.testing.assert_allclose(np.diag(grid.kappa), 1.0)
    assert grid.summary(0, 1).mean == pytest.approx(grid.summary(1, 0).mean)
    i, j = 0, 2  # same underlying member
    assert grid.kappa[i, j] == pytest.approx(1.0, abs=1e-12)


def test_grid_matches_closed_form_kappa_for_beta_family():
    e1 = _beta_ensemble(0.5, B=1, n=220, seed=3)
    e2 = _beta_ensemble(3.0, B=1, n=220, seed=4)
    grid = pairwise_concordance([e1, e2], PRIOR2)
    expected = _kappa_formula(0.5, 3.0)
    assert grid.summary(0, 1).mean == pytest.approx(expected, abs=0.02)
    assert grid.labels == ("beta0.5", "beta3")
    assert grid.summary(0, 1).labels == ("beta0.5", "beta3")


def test_grid_symmetry_and_membership():
    e1 = _beta_ensemble(0.5, B=2, seed=5)
    e2 = _beta_ensemble(4.0, B=3, seed=6)
    grid = pairwise_concordance([e1, e2], PRIOR2)
    assert grid.kappa.shape == (5, 5)
    np.testing.assert_array_equal(grid.kappa, grid.kappa.T)
    np.testing.assert_array_equal(grid.membership, [0, 0, 1, 1, 1])
    np.testing.assert_array_equal(grid.positions, np.arange(5))
    blk = grid.summary(0, 1)
    assert blk.samples.shape == (6,)
    assert blk.mean == pytest.approx(float(grid.kappa[:2, 2:].mean()))
    assert not grid.kappa.flags.writeable


def test_grid_kappa_matches_cmat_trace():
    # the grid takes traces alone; they must give the full matrices' kappa
    e1 = _beta_ensemble(0.5, B=2, seed=7)
    e2 = _beta_ensemble(2.0, B=2, seed=8)
    grid = pairwise_concordance([e1, e2], PRIOR2)
    members = [*e1.members, *e2.members]
    trace = lambda a, b: cmat(members[a], members[b], PRIOR2).trace
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            want = concordance(trace(a, b), trace(a, a), trace(b, b))
            assert grid.kappa[a, b] == grid.kappa[b, a] == want


def test_grid_stacked_pass_in_chunks_matches_cmat_trace(monkeypatch):
    # a small pair budget splits the stacked pass into many runs of two or
    # three member pairs; every kappa must still be concordance() of the
    # pair's own cmat_trace, bitwise, and the constant member dropped
    from coactive import closedform

    calls = []
    kernel = closedform._pair_sums
    monkeypatch.setattr(closedform, "_PAIR_BUDGET", 400)
    monkeypatch.setattr(
        closedform, "_pair_sums", lambda *a, **k: calls.append(1) or kernel(*a, **k)
    )
    e1 = _beta_ensemble(0.5, B=3, seed=7)
    flat = MarsSurrogate(intercept=2.0, terms=(), p=2, domain=UNIT2, label="flat")
    e2 = _beta_ensemble(2.0, B=3, seed=8)
    e2 = Ensemble(members=(e2.members[0], flat, *e2.members[1:]), label=e2.label)
    with pytest.warns(UserWarning, match="excluded 1 constant"):
        grid = pairwise_concordance([e1, e2], PRIOR2)
    assert len(calls) > 1
    # each row's index among all the loaded members skips the constant one
    np.testing.assert_array_equal(grid.positions, [0, 1, 2, 3, 5, 6])
    members = [*e1.members, *(m for m in e2.members if m is not flat)]
    assert grid.kappa.shape == (6, 6)
    t = lambda a, b: closedform.cmat_trace(members[a], members[b], PRIOR2)
    for a in range(6):
        for b in range(a + 1, 6):
            assert grid.kappa[a, b] == grid.kappa[b, a] == concordance(t(a, b), t(a, a), t(b, b))


def test_grid_excludes_constant_members_with_warning():
    ens = _beta_ensemble(1.0, B=2, seed=9)
    flat = MarsSurrogate(intercept=2.0, terms=(), p=2, domain=UNIT2, label="flat")
    withflat = Ensemble(members=(*ens.members, flat), label="mixed")
    with pytest.warns(UserWarning, match="excluded 1 constant"):
        grid = pairwise_concordance([withflat], PRIOR2)
    assert grid.n_excluded == 1
    assert grid.kappa.shape == (2, 2)
    only_flat = Ensemble(members=(flat,), label="flat")
    with pytest.warns(UserWarning), pytest.raises(ValueError, match="all members are constant"):
        pairwise_concordance([only_flat], PRIOR2)


def test_grid_validation():
    e1 = _beta_ensemble(1.0, B=1)
    with pytest.raises(ValueError, match="at least one"):
        pairwise_concordance([], PRIOR2)
    with pytest.raises(ValueError, match="prior has p"):
        pairwise_concordance([e1], InputPrior.uniform_box(((0.0, 1.0),) * 3))
    m3 = MarsSurrogate(intercept=0.0, terms=(), p=3, domain=((0.0, 1.0),) * 3)
    e3 = Ensemble(members=(m3,), label="p3")
    with pytest.raises(ValueError, match="share p and domain"):
        pairwise_concordance([e1, e3], PRIOR2)


# -- discordance ------------------------------------------------------------------


def test_discordance_matrix_from_grid_and_raw():
    e1 = _beta_ensemble(0.5, B=2, seed=10)
    grid = pairwise_concordance([e1], PRIOR2)
    D = discordance_matrix(grid.kappa)
    np.testing.assert_allclose(D, np.sqrt((1.0 - np.minimum(grid.kappa, 1.0)) / 2.0), atol=1e-15)
    np.testing.assert_array_equal(np.diag(D), 0.0)
    raw = np.array([[1.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_array_equal(discordance_matrix(raw), [[0.0, 1.0], [1.0, 0.0]])


def test_discordance_matrix_validation():
    with pytest.raises(ValueError, match="NaN"):
        discordance_matrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        discordance_matrix(np.ones((2, 3)))


@pytest.mark.parametrize("off", [-2.0, math.inf])
def test_discordance_matrix_refuses_concordance_outside_minus_one_to_one(off):
    # the matrix goes through discordance(), so it refuses what the scalar
    # refuses instead of returning an entry outside [0, 1] or a 0 for +inf
    with pytest.raises(ValueError, match="concordance out of range"):
        discordance_matrix(np.array([[1.0, off], [off, 1.0]]))


def test_metric_check_slack_is_the_minimum_over_every_triple():
    # the triangle slack of verify's metric check against the loop over
    # ordered triples of distinct models, bitwise
    from coactive.verify import check_metric, random_surrogate_corpus

    models = random_surrogate_corpus(12, seed=7)
    ens = [Ensemble(members=(m,), label=m.label) for m in models]
    D = discordance_matrix(pairwise_concordance(ens, InputPrior.uniform_box(models[0].domain)).kappa)
    n = D.shape[0]
    want = min(float(D[a, b] + D[b, c] - D[a, c])
               for a in range(n) for b in range(n) for c in range(n) if len({a, b, c}) == 3)
    got = {r.name: r.measured for r in check_metric(12, seed=7)}["metric-triangle"]
    assert got == want


def test_metric_check_scans_the_triples_in_square_memory():
    # the slack scan holds O(n^2) floats: at n = 200 a whole n^3 table is 64 MB
    from coactive.verify import _worst_triangle_slack

    rng = np.random.default_rng(5)
    X = rng.uniform(size=(200, 3))
    D = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=-1)) ** rng.uniform(0.5, 2.0)
    small = D[:20, :20]
    a, b, c = np.ogrid[:20, :20, :20]
    slack = small[:, :, None] + small[None, :, :] - small[:, None, :]
    assert _worst_triangle_slack(small) == slack[(a != b) & (b != c) & (a != c)].min()
    tracemalloc.start()
    try:
        _worst_triangle_slack(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * D.nbytes


# -- MDS ---------------------------------------------------------------------------


def test_mds_collinear_three_points():
    D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    emb = mds_embed(D, dims=2, seed=0)
    assert emb.stress < 1e-6
    pts = emb.points
    d12 = np.linalg.norm(pts[0] - pts[1])
    d23 = np.linalg.norm(pts[1] - pts[2])
    d13 = np.linalg.norm(pts[0] - pts[2])
    # order must be preserved; the tied pair must come out equal
    assert d13 >= max(d12, d23) - 1e-9
    assert d12 == pytest.approx(d23, rel=1e-6)


def test_mds_equilateral_triangle():
    D = (np.ones((3, 3)) - np.eye(3)) * 0.7
    emb = mds_embed(D, dims=2, seed=0)
    assert emb.stress < 1e-8
    pts = emb.points
    dists = [np.linalg.norm(pts[a] - pts[b]) for a, b in ((0, 1), (0, 2), (1, 2))]
    assert max(dists) == pytest.approx(min(dists), rel=1e-6)


def test_mds_recovers_euclidean_configuration():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(12, 2))
    D = np.sqrt(((X[:, None] - X[None, :]) ** 2).sum(-1))
    emb = mds_embed(D, dims=2, seed=0)
    assert emb.stress < 1e-8
    assert procrustes_error(X, emb.points) < 1e-4


def test_mds_stress_history_non_increasing_on_noisy_input():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 2))
    D = np.sqrt(((X[:, None] - X[None, :]) ** 2).sum(-1))
    noise = rng.uniform(0, 0.3, size=D.shape)
    D = D + 0.5 * (noise + noise.T)
    np.fill_diagonal(D, 0.0)
    emb = mds_embed(D, dims=2, seed=0)
    hist = np.asarray(emb.stress_history)
    assert hist.size >= 2
    assert np.all(np.diff(hist) <= 1e-12)
    assert emb.stress == hist[-1]
    assert emb.points.shape == (10, 2)
    np.testing.assert_allclose(emb.points.mean(axis=0), 0.0, atol=1e-12)
    assert not emb.points.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        emb.stress = 0.0


def test_mds_stops_at_a_rising_step(monkeypatch):
    # the first Guttman candidate is made to look worse, so the run stops
    # at the centred classical-scaling start; no step on this input raises
    # the stress by itself
    from coactive import cluster

    stress, calls = cluster._stress, []

    def worse_once(dist, order, blocks):
        value, dhat = stress(dist, order, blocks)
        calls.append(value)
        return (value + 1.0 if len(calls) == 2 else value), dhat

    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 2))
    D = np.sqrt(((X[:, None] - X[None, :]) ** 2).sum(-1))
    noise = rng.uniform(0, 0.3, size=D.shape)
    D = D + 0.5 * (noise + noise.T)
    np.fill_diagonal(D, 0.0)
    free = mds_embed(D)
    assert len(free.stress_history) > 2
    assert np.all(np.diff(free.stress_history) <= 0.0)
    monkeypatch.setattr(cluster, "_stress", worse_once)
    stopped = mds_embed(D)
    assert len(calls) == 2
    assert stopped.stress_history == [calls[0]] and stopped.stress == calls[0]
    start = cluster._torgerson(D, 2)
    start = start - start.mean(axis=0)  # as mds_embed centres it, before and after
    np.testing.assert_array_equal(stopped.points, start - start.mean(axis=0))
    monkeypatch.undo()
    again = mds_embed(D)
    assert again.stress_history == free.stress_history
    np.testing.assert_array_equal(again.points, free.points)


def test_mds_stress_invariant_under_relabeling():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(9, 2))
    D = np.sqrt(((X[:, None] - X[None, :]) ** 2).sum(-1))
    noise = rng.uniform(0, 0.2, size=D.shape)
    D = D + 0.5 * (noise + noise.T)
    np.fill_diagonal(D, 0.0)
    perm = rng.permutation(9)
    a = mds_embed(D, dims=2, seed=0)
    b = mds_embed(D[np.ix_(perm, perm)], dims=2, seed=0)
    assert a.stress == pytest.approx(b.stress, abs=1e-6)


def test_mds_embeds_a_grids_discordance():
    e1 = _beta_ensemble(0.5, B=2, seed=13)
    e2 = _beta_ensemble(4.0, B=2, seed=14)
    grid = pairwise_concordance([e1, e2], PRIOR2)
    emb = mds_embed(discordance_matrix(grid.kappa), dims=2, seed=0)
    assert emb.points.shape == (4, 2)
    assert 0.0 <= emb.stress <= 1.0


def test_mds_validation():
    with pytest.raises(ValueError, match="at least 3"):
        mds_embed(np.zeros((2, 2)))
    bad = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        mds_embed(bad)
    neg = -np.ones((3, 3)) + np.eye(3)
    with pytest.raises(ValueError, match="symmetric, non-negative"):
        mds_embed(neg)


def test_mds_refuses_a_relative_asymmetry():
    # the symmetry check is absolute: a 5e-6 gap between D[0, 1] and
    # D[1, 0] is no roundoff, and only the upper triangle would be used
    D = np.ones((3, 3)) - np.eye(3)
    D[1, 0] = 1.000005
    with pytest.raises(ValueError, match="symmetric"):
        mds_embed(D)


@pytest.mark.parametrize("dims", [0, 4, 12])
def test_mds_refuses_dims_outside_one_to_n_less_one(dims, monkeypatch):
    from coactive import cluster

    D = np.ones((4, 4)) - np.eye(4)
    monkeypatch.setattr(cluster, "_torgerson", lambda *a: pytest.fail("work began"))
    with pytest.raises(ValueError, match=rf"dims must be in \[1, 3\] for 4 points, got {dims}"):
        mds_embed(D, dims=dims)


STARTUP_SCRIPT = """
import os, sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import coactive.cli
assert scipy_loaded() == [], scipy_loaded()

tmp = sys.argv[1]
prior = os.path.join(tmp, "prior.json")
main = coactive.cli.main
for i in (0, 1):
    assert main(["fit", os.path.join(tmp, f"t{i}.csv"), "--out", os.path.join(tmp, f"ens{i}"),
                 "--prior", prior, "--ensemble", "2", "--seed", str(i)]) == 0
assert main(["cluster", os.path.join(tmp, "ens0"), os.path.join(tmp, "ens1"),
             "--prior", prior, "--out-dir", os.path.join(tmp, "clust")]) == 0
assert main(["cmat", os.path.join(tmp, "ens0", "member_000.json"),
             os.path.join(tmp, "ens1", "member_000.json"), "--prior", prior,
             "--out-dir", os.path.join(tmp, "pair"), "--mc", "500"]) == 0
assert scipy_loaded() == [], scipy_loaded()

coactive.NormalDim(0.0, 1.0, trunc_lo=-1.0)
assert scipy_loaded() == [], scipy_loaded()
models = [os.path.join(tmp, "ens0", "member_000.json"), os.path.join(tmp, "ens1", "member_000.json")]
tn = os.path.join(tmp, "tn.json")
assert main(["cmat", *models, "--prior", tn, "--out-dir", os.path.join(tmp, "pair_tn"),
             "--modified", "--mc", "500"]) == 0
assert scipy_loaded() == [], scipy_loaded()
assert main(["mc", "--model", models[0], "--model", models[1], "--prior", tn, "--B", "500",
             "--out", os.path.join(tmp, "mc_tn.json")]) == 0
assert scipy_loaded() == [], scipy_loaded()
print("ok")
"""


def test_startup_and_uniform_runs_leave_scipy_unloaded(tmp_path):
    # no SciPy module is loaded by the package, under a uniform prior or a
    # truncated-normal one
    for i, beta in enumerate((0.5, 4.0)):
        X = lhs_design(60, 2, UNIT2, seed=20 + i)
        y = X[:, 0] ** 2 + X[:, 0] * X[:, 1] + beta * X[:, 1] ** 3
        rows = [f"{a:.17g},{b:.17g},{v:.17g}" for (a, b), v in zip(X, y)]
        (tmp_path / f"t{i}.csv").write_text("\n".join(["x1,x2,y", *rows]) + "\n")
    save_prior(PRIOR2, tmp_path / "prior.json")
    tn = InputPrior((NormalDim(0.5, 0.25, trunc_lo=0.0, trunc_hi=1.0), UniformDim(0.0, 1.0)))
    save_prior(tn, tmp_path / "tn.json")
    src = os.path.dirname(os.path.dirname(coactive.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "ok"


# -- centers ------------------------------------------------------------------------


def test_model_centers_means_by_group():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0], [0.0, 6.0]])
    centers = model_centers(pts, [0, 0, 1, 1])
    np.testing.assert_array_equal(centers, [[1.0, 0.0], [0.0, 5.0]])
    with pytest.raises(ValueError, match="no points"):
        model_centers(pts, [0, 0, 2, 2])
    with pytest.raises(ValueError, match="length"):
        model_centers(pts, [0, 0, 1])


def test_model_centers_from_embedding_and_grid():
    e1 = _beta_ensemble(0.25, B=2, seed=15)
    e2 = _beta_ensemble(4.0, B=2, seed=16)
    grid = pairwise_concordance([e1, e2], PRIOR2)
    emb = mds_embed(discordance_matrix(grid.kappa), dims=2, seed=0)
    centers = model_centers(emb.points, grid.membership)
    assert centers.shape == (2, 2)
    d_between = np.linalg.norm(centers[0] - centers[1])
    spread = max(
        np.linalg.norm(emb.points[grid.membership == k] - centers[k], axis=1).max()
        for k in (0, 1)
    )
    assert d_between > spread
