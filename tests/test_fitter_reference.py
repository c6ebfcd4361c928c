"""The fast fitter against the dense reference in mars_reference.py.

The forward pass must select the same factor sets as the dense n x K
scan, and every candidate's reduction must agree with the dense value on
every step; the backward pass must keep the same subset as one solve per
deletion candidate, with the same coefficients.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from mars_reference import dense_backward, dense_forward, select

from coactive import FitConfig, fit_with_report, lhs_design, piston
from coactive.model import (
    HingeFactor,
    _backward_pass,
    _design_from_factor_sets,
    _drop_costs,
    _forward_pass,
    _gcv,
    _KnotScan,
)

# Reductions are differences of sums over n <= 600 products, each sum
# carrying up to n * eps ~ 1.3e-13 of its magnitude in float64; the
# centred moments of a knot near the end of the data lose up to four more
# digits to cancellation. So every candidate's reduction must match the
# dense scan to 1e-8 of the current SSE, which bounds all reductions.
RED_TOL = 1e-8

PISTON_A = piston(90000.0, 284.0)
PISTON_B = piston(110000.0, 302.0)
PISTON_CFG = FitConfig(max_terms=60, max_degree=4, max_knots=64, domain=PISTON_A.domain)
SMALL_CFG = FitConfig(max_terms=30)


def _piston(seed, fn):
    X = lhs_design(600, fn.p, fn.domain, seed=seed)
    return X, fn(X), PISTON_CFG


def _bootstrap():
    X = lhs_design(400, PISTON_A.p, PISTON_A.domain, seed=11)
    rows = np.random.default_rng(7).integers(0, 400, size=400)
    return X[rows], PISTON_A(X[rows]), PISTON_CFG


def _integer():
    X = np.random.default_rng(8).integers(0, 6, size=(300, 3)).astype(float)
    return X, np.sin(X[:, 0]) + np.exp(0.3 * X[:, 1]) * np.cos(X[:, 2]), SMALL_CFG


def _constant_column():
    X = np.random.default_rng(9).uniform(size=(300, 3))
    X[:, 1] = 0.5
    return X, np.exp(X[:, 0]) * np.sin(3.0 * X[:, 2]), SMALL_CFG


def _degree_one():
    X = np.random.default_rng(10).uniform(size=(300, 3))
    y = np.exp(X[:, 0]) + np.sin(4.0 * X[:, 1]) + X[:, 0] * X[:, 2]
    return X, y, FitConfig(max_terms=30, max_degree=1)


def _one_input():
    X = np.random.default_rng(11).uniform(size=(300, 1))
    return X, np.sin(6.0 * X[:, 0]) + X[:, 0] ** 3, SMALL_CFG


def _large_offset():
    # unscaled inputs whose offset is 1000x their spread: moments about 0
    # would cancel six digits away (x ~ 1e5 +- 1e4, as in the piston
    # inputs, costs only two and is covered above)
    X = 1e5 + 1e2 * np.random.default_rng(12).uniform(-1.0, 1.0, size=(400, 3))
    Z = (X - 1e5) / 1e2
    y = np.exp(Z[:, 0]) * np.sin(2.0 * Z[:, 1]) + Z[:, 2] ** 2
    return X, y, FitConfig(max_terms=30, max_degree=2)


CASES = {
    **{f"piston-{v}-seed{s}": (lambda s=s, fn=fn: _piston(s, fn))
       for s in range(1, 6) for v, fn in (("a", PISTON_A), ("b", PISTON_B))},
    "bootstrap-resample": _bootstrap,
    "integer-inputs": _integer,
    "constant-column": _constant_column,
    "max-degree-1": _degree_one,
    "p-1": _one_input,
    "large-offset": _large_offset,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fitter_matches_dense_reference(case):
    X, y, cfg = CASES[case]()
    n = X.shape[0]
    sst = float(np.sum((y - y.mean()) ** 2))
    factor_sets, rss = _forward_pass(X, y, cfg, sst)

    # run the dense scan, mirroring its basis and parents into a fresh
    # knot scan, and compare both scores of every candidate on every step
    scan = _KnotScan(X, cfg, min(cfg.max_terms + 1, max(3, int(0.9 * n))))
    worst = []

    def on_step(resid, sse, dense):
        fast = {}
        reds = scan.reductions(resid)
        for s, key in enumerate(zip(scan.par.tolist(), scan.var.tolist())):
            at = scan.loc == s
            fast[key] = (scan.knot[at], *(r[at] for r in reds))
        assert fast.keys() == dense.keys()
        err = 0.0
        for key, (kn, *reds) in dense.items():
            np.testing.assert_array_equal(fast[key][0], kn)
            for got, want in zip(fast[key][1:], reds):
                err = max(err, float(np.abs(got - want).max()))
        worst.append(err / sse)

        # the scan's collinearity test a + c - 2b against the explicit
        # residual of g*x: each side of the 1e-12 threshold keeps a margin.
        # A knot on a constant column makes two zero hinges, scored by neither
        Q = scan.basis
        R = np.array(scan.parent_cols)[scan.par] * X[:, scan.var].T
        for _ in range(2):
            R = R - (R @ Q) @ Q.T
        scale = scan.raw_p + scan.raw_m
        live = scale > 0
        gap = (scan.raw_p - scan.spp + scan.raw_m - scan.smm + 2.0 * scan.spm)[live] / scale[live]
        collinear = (np.einsum("ij,ij->i", R, R)[scan.loc] < 1e-12 * scale)[live]
        assert np.all(gap[collinear] < 1e-13) and np.all(gap[~collinear] > 1e-10)

    ref_sets, ref_rss = dense_forward(X, y, cfg, sst, mirror=scan, on_step=on_step)
    assert factor_sets == ref_sets
    np.testing.assert_allclose(rss, ref_rss, rtol=1e-10)
    assert len(worst) >= 5 and max(worst) <= RED_TOL

    kept, coefs, intercept, _, gcv_path = _backward_pass(X, y, factor_sets, cfg)
    ref_kept, ref_coef, ref_gcv = dense_backward(X, y, factor_sets, cfg)
    assert kept == [factor_sets[j - 1] for j in ref_kept[1:]]
    np.testing.assert_allclose(np.r_[intercept, coefs], ref_coef, rtol=1e-10)
    np.testing.assert_allclose(gcv_path, ref_gcv, rtol=1e-6)


def test_collinear_pair_scores_plus_only():
    # after x itself is in the model, C+ - C- = x - t lies in the basis, so
    # for every knot the pair is not scored and minus mirrors plus
    X = lhs_design(200, 1, ((0.0, 1.0),), seed=4)
    y = np.sin(5.0 * X[:, 0])
    cfg = FitConfig(max_terms=10)
    scan = _KnotScan(X, cfg, 11)
    n = X.shape[0]
    q0 = np.full(n, 1.0 / np.sqrt(n))
    scan.add_column(q0)
    scan.add_parent(np.ones(n), ())
    q1 = X[:, 0] - X[:, 0].mean()
    scan.add_column(q1 / np.linalg.norm(q1))
    resid = y - scan.basis @ (scan.basis.T @ y)
    red2, red_p, red_m = scan.reductions(resid)
    assert np.all(red2 == 0.0) and np.all(red_m == 0.0)
    assert np.count_nonzero(red_p) >= red_p.size - 1


def test_best_breaks_ties_as_the_plain_scan():
    # planted ties across slots, modes and knots: the whole-array rule of
    # best must pick what select's plain (parent, var, mode, knot) scan picks
    X = lhs_design(50, 3, ((0.0, 1.0),) * 3, seed=2)
    scan = _KnotScan(X, FitConfig(), 4)
    rng = np.random.default_rng(6)
    levels = np.array([0.0, 0.5, 1.0, 1.0 - 1e-9, 1.0 - 1e-7])
    picks = set()
    for _ in range(300):
        pairs = sorted({(int(a), int(b)) for a, b in rng.integers(0, 3, size=(5, 2))})
        sizes = rng.integers(1, 4, size=len(pairs))
        scan.par, scan.var = (np.array(c, dtype=np.intp) for c in zip(*pairs))
        scan.loc = np.repeat(np.arange(len(pairs)), sizes)
        scan.knot = rng.uniform(size=scan.loc.size)
        reds = tuple(rng.choice(levels, size=(3, scan.loc.size), p=[0.3, 0.3, 0.2, 0.1, 0.1]))
        scan.reductions = lambda resid, reds=reds: reds
        at = np.cumsum(sizes)[:-1]
        scores = {key: (kn, *rs) for key, kn, *rs in
                  zip(pairs, np.split(scan.knot, at), *(np.split(r, at) for r in reds))}
        got = scan.best(None)
        assert got == select(scores)
        picks.add(None if got is None else got[-1])
    assert {"both", "plus", "minus"} <= picks
    scan.reductions = lambda resid: tuple(np.zeros((3, scan.loc.size)))
    assert scan.best(None) is None


def test_singular_gram_block_falls_back_to_lstsq():
    # columns a = 2v and b = v with y = v: Cholesky rejects the block, and
    # either column alone still fits y exactly, so dropping costs nothing
    Gs = np.array([[4.0, 2.0], [2.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(Gs)
    coef, cost, solve = _drop_costs(Gs, np.array([2.0, 1.0]), 1.0)
    assert 1.0 - float(np.array([2.0, 1.0]) @ coef) == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(cost, [0.0, 0.0], atol=1e-12)
    # the solver is the same lstsq on the block
    np.testing.assert_array_equal(solve(np.array([2.0, 1.0])), coef)


def test_backward_pass_factors_each_subset_once(monkeypatch):
    # one Cholesky factorization per subset on the deletion path, largest
    # first: the kept subset's refinement reuses the factor of its own step
    X, y, cfg = _piston(1, PISTON_A)
    sizes = []
    cholesky = np.linalg.cholesky

    def counted(a):
        sizes.append(a.shape[0])
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    _, rep = fit_with_report(X, y, cfg)
    m = len(rep.backward_gcv)
    assert m >= 10
    assert sizes == list(range(m, 0, -1))


@pytest.mark.parametrize("penalty", [None, -2.0])
def test_backward_pass_through_a_singular_block(penalty):
    # a hinge whose knot is the data maximum is an all-zero column, so every
    # Gram block that holds it is exactly singular: Cholesky rejects it here
    # and LU in the reference does too. With the default penalty the column
    # goes first; a negative penalty rewards terms, so the kept subset is the
    # full, singular one and its refinement runs through the lstsq solver.
    X, y, cfg = _piston(1, PISTON_A)
    cfg = replace(cfg, penalty=penalty)
    factor_sets, _ = _forward_pass(X, y, cfg, float(np.sum((y - y.mean()) ** 2)))
    zero = (HingeFactor(var=0, sign=1, knot=float(X[:, 0].max())),)
    factor_sets = factor_sets[:2] + [zero] + factor_sets[2:]
    B = _design_from_factor_sets(X, factor_sets)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(B.T @ B)

    kept, coefs, intercept, sse, gcv_path = _backward_pass(X, y, factor_sets, cfg)
    ref_kept, ref_coef, ref_gcv = dense_backward(X, y, factor_sets, cfg)
    assert kept == [factor_sets[j - 1] for j in ref_kept[1:]]
    assert (zero in kept) == (penalty is not None)
    r = y - B[:, ref_kept] @ ref_coef
    assert sse == pytest.approx(float(r @ r), rel=1e-10)
    np.testing.assert_allclose(np.r_[intercept, coefs], ref_coef,
                               rtol=1e-10, atol=1e-10 * np.abs(ref_coef).max())
    np.testing.assert_allclose(gcv_path, ref_gcv, rtol=1e-6)


def test_backward_path_sse_comes_from_the_residual():
    # y is exactly linear: y'y - g'coef cancels to a clamped 0.0 for the
    # full model, while its residual keeps a round-off sized SSE
    X = lhs_design(60, 2, ((0.0, 1.0), (0.0, 1.0)), seed=5)
    y = 2.0 * X[:, 0] - 3.0 * X[:, 1] + 1.0
    cfg = FitConfig(max_degree=1, domain=((0.0, 1.0), (0.0, 1.0)))
    factor_sets, _ = _forward_pass(X, y, cfg, float(np.sum((y - y.mean()) ** 2)))
    _, _, _, _, gcv_path = _backward_pass(X, y, factor_sets, cfg)
    n, m = X.shape[0], len(factor_sets) + 1
    tiny = _gcv(1e-24 * float(y @ y), n, m, m - 1, cfg.effective_penalty())
    assert 0.0 < gcv_path[0] < tiny
