"""The NumPy normal CDF and its inverse against 40-digit references."""

from __future__ import annotations

import statistics

import mpmath
import numpy as np
import pytest
from scipy import special

from coactive import NormalDim
from coactive._normal import ndtr, ndtri

mpmath.mp.dps = 40


def _ref_ndtr(x: float) -> float:
    return float(mpmath.ncdf(mpmath.mpf(float(x))))


def _ref_ndtri(y: float) -> float:
    """The root of ncdf(t) = y, from the lower half by symmetry (1 - y is
    exact at 40 digits), started from the standard library's AS241."""
    y = mpmath.mpf(float(y))
    q, sign = (y, 1) if y <= 0.5 else (1 - y, -1)
    if q == 0.5:
        return 0.0
    start = statistics.NormalDist().inv_cdf(float(q))
    t = mpmath.findroot(lambda t: mpmath.ncdf(t) - q, mpmath.mpf(start))
    return sign * float(t)


def _max_rel(got, ref):
    ref = np.asarray(ref)
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


@pytest.mark.parametrize(
    "lo,hi,rtol",
    [(-5.0, 8.5, 1e-14), (-20.0, -5.0, 1e-13), (-37.5, -20.0, 5e-13)],
)
def test_ndtr_relative_error(lo, hi, rtol):
    rng = np.random.default_rng(11)
    x = np.concatenate([np.linspace(lo, hi, 601)[:-1], rng.uniform(lo, hi, 400)])
    if hi == 8.5:
        x = np.append(x, hi)
    ref = [_ref_ndtr(v) for v in x]
    assert _max_rel(ndtr(x), ref) <= rtol


def test_ndtri_relative_error():
    rng = np.random.default_rng(12)
    y = np.concatenate([
        10.0 ** -rng.uniform(1, 300, 300),  # lower tail, both tail branches
        rng.uniform(0.0, 1.0, 300),
        1.0 - 10.0 ** -rng.uniform(1, 16, 200),  # upper tail
        [1e-300, 1.0 - 1e-16, 0.25, 0.75, np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0)],
    ])
    ref = np.array([_ref_ndtri(v) for v in y])
    off = ref != 0.0
    assert _max_rel(ndtri(y)[off], ref[off]) <= 2e-15


def test_special_values_and_shapes():
    assert ndtri(0.0) == -np.inf
    assert ndtri(1.0) == np.inf
    assert ndtri(0.5) == 0.0
    assert ndtr(np.inf) == 1.0
    assert ndtr(-np.inf) == 0.0
    assert ndtr(0.0) == 0.5
    assert ndtr(-40.0) == 0.0
    assert np.isnan(ndtr(np.nan)) and np.isnan(ndtri(np.nan))
    assert np.all(np.isnan(ndtri(np.array([-0.1, 1.1]))))
    # a scalar for a scalar, the argument's shape for an array
    assert np.ndim(ndtr(0.3)) == 0 and np.ndim(ndtri(0.3)) == 0
    assert ndtr(np.zeros((2, 3))).shape == (2, 3)
    assert ndtri(np.full((3, 2), 0.1)).shape == (3, 2)
    assert ndtr(np.zeros((2, 0))).shape == (2, 0)


def test_ndtri_is_monotone_on_a_dense_grid():
    y = np.sort(np.concatenate([
        np.linspace(0.0, 1.0, 200_001),
        10.0 ** -np.linspace(0.5, 320, 20_001),
        1.0 - 10.0 ** -np.linspace(0.5, 16, 2_001),
    ]))
    x = ndtri(y)
    assert np.all(np.diff(x) >= 0.0)
    # and ndtr maps it back within a few ulps in the centre
    mid = (y > 0.01) & (y < 0.99)
    np.testing.assert_allclose(ndtr(x[mid]), y[mid], rtol=4e-15)


@pytest.mark.parametrize("edge", [np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0)])
def test_ndtri_steps_back_at_most_two_ulps_at_a_branch_switch(edge):
    # the Cephes centre and tail fits meet within two ulps at exp(-2), not
    # exactly; SciPy's ndtri takes the same steps there
    y = edge + np.spacing(edge) * np.arange(-500, 501)
    x = ndtri(y)
    assert np.all(np.diff(x) >= -2.0 * np.spacing(np.abs(x[1:])))


class _FixedUniforms:
    """Stands in for a Generator: maps fixed unit uniforms onto [lo, hi)."""

    def __init__(self, u):
        self.u = u

    def uniform(self, lo, hi, size):
        assert size == self.u.size
        return lo + (hi - lo) * self.u


@pytest.mark.parametrize(
    "dim",
    [
        NormalDim(0.5, 0.25, trunc_lo=0.0, trunc_hi=1.0),  # central
        NormalDim(1.0, 2.0, trunc_lo=-1.0),  # one-sided
        NormalDim(0.0, 1.0, trunc_lo=2.5, trunc_hi=6.0),  # reflected, upper tail
    ],
)
def test_sample_matches_the_scipy_draw(dim):
    u = np.concatenate([np.linspace(0.0, 1.0, 1001)[1:-1], [1e-12, 1.0 - 2.0**-53]])
    x = dim.sample(_FixedUniforms(u), u.size)
    alpha, beta = (dim.trunc_lo - dim.mean) / dim.sd, (dim.trunc_hi - dim.mean) / dim.sd
    if alpha > 0:
        lo, hi = special.ndtr(-beta), special.ndtr(-alpha)
        ref = dim.mean - dim.sd * special.ndtri(lo + (hi - lo) * u)
    else:
        lo, hi = special.ndtr(alpha), special.ndtr(beta)
        ref = dim.mean + dim.sd * special.ndtri(lo + (hi - lo) * u)
    assert np.all((x >= dim.trunc_lo) & (x <= dim.trunc_hi))
    np.testing.assert_allclose(x, ref, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize(
    "dim",
    [NormalDim(0.5, 0.25, trunc_lo=0.0, trunc_hi=1.0), NormalDim(0.0, 1.0, trunc_lo=2.5, trunc_hi=6.0)],
)
def test_sample_calls_no_ndtr_and_draws_the_same_bytes(dim, monkeypatch):
    # the bounds' (reflected) CDF pair is kept at construction, so a draw
    # calls ndtri only, and it draws what ndtr of the bounds gives now
    import coactive._normal as normal

    calls = []
    monkeypatch.setattr(normal, "ndtr", lambda x: calls.append(x) or ndtr(x))
    x = dim.sample(np.random.default_rng(4), 500)
    assert calls == []
    rng = np.random.default_rng(4)
    alpha, beta = (dim.trunc_lo - dim.mean) / dim.sd, (dim.trunc_hi - dim.mean) / dim.sd
    if alpha > 0:
        lo, hi = ndtr([-beta, -alpha])
        ref = dim.mean - dim.sd * ndtri(rng.uniform(lo, hi, size=500))
    else:
        lo, hi = ndtr([alpha, beta])
        ref = dim.mean + dim.sd * ndtri(rng.uniform(lo, hi, size=500))
    assert x.tobytes() == ref.tobytes()
