"""The fast fitter against the dense reference in mars_reference.py.

The forward pass must select the same factor sets as the dense n x K
scan, and every candidate's reduction must agree with the dense value on
every step; the backward pass must keep the same subset as one solve per
deletion candidate, with the same coefficients.
"""

from __future__ import annotations

import numpy as np
import pytest
from mars_reference import dense_backward, dense_forward

from coactive import FitConfig, lhs_design, piston
from coactive.model import _backward_pass, _drop_costs, _forward_pass, _gcv, _KnotScan

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
        for v, vs in enumerate(scan.vars):
            if vs.parents:
                reds = vs.reductions(resid)
                for pi in vs.parents:
                    at = vs.par == pi
                    fast[(pi, v)] = (vs.knot[at], *(r[at] for r in reds))
        assert fast.keys() == dense.keys()
        err = 0.0
        for key, (kn, *reds) in dense.items():
            np.testing.assert_array_equal(fast[key][0], kn)
            for got, want in zip(fast[key][1:], reds):
                err = max(err, float(np.abs(got - want).max()))
        worst.append(err / sse)

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
    red2, red_p, red_m = scan.vars[0].reductions(resid)
    assert np.all(red2 == 0.0) and np.all(red_m == 0.0)
    assert np.count_nonzero(red_p) >= red_p.size - 1


def test_singular_gram_block_falls_back_to_lstsq():
    # columns a = 2v and b = v with y = v: Cholesky rejects the block, and
    # either column alone still fits y exactly, so dropping costs nothing
    Gs = np.array([[4.0, 2.0], [2.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(Gs)
    coef, cost = _drop_costs(Gs, np.array([2.0, 1.0]), 1.0)
    assert 1.0 - float(np.array([2.0, 1.0]) @ coef) == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(cost, [0.0, 0.0], atol=1e-12)


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
