"""Shared test fixtures: independent numerical oracles and corpora.

The quadrature oracle integrates gradient products on an adaptively
refined tensor Gauss grid split at every knot, so it shares no code
with the moment-formula path it is used to check.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from coactive import FitConfig, InputPrior, NormalDim, UniformDim, fit, lhs_design
from coactive.montecarlo import SampledFunction

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def _dim_pdf(d, x):
    if isinstance(d, UniformDim):
        return np.where((x >= d.lo) & (x <= d.hi), 1.0 / (d.hi - d.lo), 0.0)
    from scipy.special import ndtr

    z = (x - d.mean) / d.sd
    alpha = (d.trunc_lo - d.mean) / d.sd
    beta = (d.trunc_hi - d.mean) / d.sd
    # reflected in the upper tail, where ndtr rounds to 1
    mass = ndtr(-alpha) - ndtr(-beta) if alpha > 0 else ndtr(beta) - ndtr(alpha)
    pdf = np.exp(-0.5 * z * z) / (d.sd * np.sqrt(2.0 * np.pi)) / mass
    return np.where((x >= d.trunc_lo) & (x <= d.trunc_hi), pdf, 0.0)


def quadrature_cmat(mk, ml, prior, rtol=1e-9, order=10, max_level=4):
    """Expected gradient outer-product matrix by tensor Gauss quadrature.

    The mesh splits at every knot of both models (the integrand is only
    piecewise smooth there) and is refined until the whole matrix is
    stable to rtol between consecutive levels.
    """
    p = mk.p
    all_terms = list(mk.terms) + list(ml.terms)
    knots = [sorted({f.knot for t in all_terms for f in t.factors if f.var == i}) for i in range(p)]
    edges = []
    for i, d in enumerate(prior.dims):
        lo, hi = d.support()
        if np.isinf(lo):
            lo = d.mean - 10.0 * d.sd
        if np.isinf(hi):
            hi = max(d.mean, lo) + 10.0 * d.sd
        ks = [k for k in knots[i] if lo < k < hi]
        edges.append(np.array([lo, *ks, hi]))
    gk = SampledFunction.from_surrogate(mk).grad
    gl = SampledFunction.from_surrogate(ml).grad
    nodes0, wts0 = leggauss(order)

    prev = None
    level = 1
    while True:
        pts_1d, wts_1d = [], []
        for i in range(p):
            e = edges[i]
            sub = np.unique(np.concatenate([np.linspace(a, b, level + 1) for a, b in zip(e[:-1], e[1:])]))
            mids = 0.5 * (sub[:-1] + sub[1:])
            half = 0.5 * (sub[1:] - sub[:-1])
            x = (mids[:, None] + half[:, None] * nodes0[None, :]).ravel()
            w = (half[:, None] * wts0[None, :]).ravel()
            pts_1d.append(x)
            wts_1d.append(w * _dim_pdf(prior.dims[i], x))
        grids = np.meshgrid(*pts_1d, indexing="ij")
        X = np.column_stack([g.ravel() for g in grids])
        W = np.ones(X.shape[0])
        for g in np.meshgrid(*wts_1d, indexing="ij"):
            W = W * g.ravel()
        C = (gk(X) * W[:, None]).T @ gl(X)
        if prev is not None and np.abs(C - prev).max() <= rtol * max(float(np.abs(C).max()), 1e-300):
            return C
        if level >= max_level:
            return C
        prev = C
        level *= 2


def procrustes_error(A, B):
    """Relative misfit of B to A after centering, optimal rotation or
    reflection, and isotropic scaling."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    A = A - A.mean(axis=0)
    B = B - B.mean(axis=0)
    U, s, Vt = np.linalg.svd(B.T @ A)
    R = U @ Vt
    scale = s.sum() / max(float((B * B).sum()), 1e-300)
    resid = A - scale * (B @ R)
    return float(np.linalg.norm(resid) / max(np.linalg.norm(A), 1e-300))


def polyish_targets(X, rng):
    """A random smooth target: linear + quadratic + cubic pieces."""
    p = X.shape[1]
    lin = rng.normal(size=p)
    quad = rng.normal(size=(p, p))
    cubic = rng.normal(size=p)
    return X @ lin + np.einsum("ni,ij,nj->n", X, quad, X) + (X**3) @ cubic


def fitted_pair_corpus(n_pairs=20, seed=101):
    """(mk, ml, p) tuples with p <= 3, small term counts, unit-box domain."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n_pairs):
        p = 2 if i % 2 == 0 else 3
        domain = tuple((0.0, 1.0) for _ in range(p))
        X = lhs_design(90, p, domain, seed=seed + 7 * i)
        cfg = FitConfig(max_terms=6, domain=domain, label=f"pair{i}")
        mk = fit(X, polyish_targets(X, rng), cfg)
        ml = fit(X, polyish_targets(X, rng), cfg)
        pairs.append((mk, ml, p))
    return pairs


def both_priors(p):
    uni = InputPrior.uniform_box(tuple((0.0, 1.0) for _ in range(p)))
    nor = InputPrior(
        dims=tuple(NormalDim(mean=0.45, sd=0.35, trunc_lo=0.0, trunc_hi=1.0) for _ in range(p))
    )
    return [("uniform", uni), ("normal", nor)]


@pytest.fixture(scope="session")
def metric_corpus():
    """50 fitted surrogates sharing one dimension and domain."""
    from coactive.verify import random_surrogate_corpus

    return random_surrogate_corpus(50, seed=404)


@pytest.fixture(scope="session")
def small_pair_corpus():
    return fitted_pair_corpus(n_pairs=20, seed=101)
