"""Each output check accepts a right answer and refuses a wrong one.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

import checks

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def _model(terms, p=2, intercept=0.5):
    return {
        "p": p,
        "intercept": intercept,
        "domain": [[0.0, 1.0]] * p,
        "terms": [
            {"coef": c, "factors": [{"var": v, "sign": s, "knot": k} for v, s, k in fs]}
            for c, fs in terms
        ],
    }


# f = 2 (x0 - 0.3)_+ (0.7 - x1)_+ - (x1 - 0.2)_+ on [0, 1]^2
PAIR = _model([(2.0, [(0, 1, 0.3), (1, -1, 0.7)]), (-1.0, [(1, 1, 0.2)])])
ONE = _model([(1.0, [(0, 1, 0.3), (1, -1, 0.7)])])


def _perturb(M, i=0, j=1, rel=0.01):
    M = np.array(M, dtype=float)
    M[i, j] *= 1.0 + rel
    return M


def _corr(n=6, seed=0):
    A = np.random.default_rng(seed).normal(size=(n, 2 * n))
    S = A @ A.T
    d = np.sqrt(np.diag(S))
    return S / np.outer(d, d)


# -- the references themselves ------------------------------------------------


def test_hinge_matches_the_program_and_its_own_differences():
    from coactive.model import model_from_dict

    X = np.random.default_rng(1).uniform(size=(500, 2))
    h = checks.Hinge(PAIR)
    m = model_from_dict(PAIR)
    assert np.allclose(h(X), m.evaluate_batch(X), rtol=0, atol=1e-14)
    assert np.allclose(h.gradient(X), m.gradient_batch(X), rtol=0, atol=1e-14)
    fd = checks.central_gradients(h, X, 1e-7)
    assert np.allclose(fd, h.gradient(X), atol=1e-6)


def test_quadrature_is_exact_on_a_known_integral():
    # grad f = ((0.7 - x1)_+ 1{x0 > 0.3}, -(x0 - 0.3)_+ 1{x1 < 0.7}); each
    # squared component integrates to 0.7 * 0.7^3 / 3
    h = checks.Hinge(ONE)
    assert checks.quadrature_trace(h, h) == pytest.approx(2 * 0.7 * 0.7**3 / 3, rel=1e-13)


def test_mc_outer_is_exact_for_constant_gradients():
    G = np.tile([1.0, -2.0], (100, 1))
    mean, se = checks.mc_outer(G, 3 * G)
    assert np.allclose(mean, 3 * np.outer([1, -2], [1, -2]))
    assert np.all(se < 1e-7)


def test_truncated_normal_draws_stay_in_bounds():
    prior = {"dims": [{"type": "normal", "mean": 0.5, "sd": 0.25, "trunc_lo": 0.0, "trunc_hi": 1.0},
                      {"type": "uniform", "lo": 2.0, "hi": 3.0}]}
    X = checks.sample_prior(prior, 20_000, np.random.default_rng(0))
    assert X[:, 0].min() >= 0.0 and X[:, 0].max() <= 1.0
    assert X[:, 1].min() >= 2.0 and X[:, 1].max() <= 3.0
    assert abs(X[:, 0].mean() - 0.5) < 0.01


# -- each check refuses a wrong answer ---------------------------------------


def test_rel_frobenius_refuses_a_six_percent_error():
    B = _corr()
    assert checks.rel_frobenius(B * 1.01, B, 0.05)[0]
    assert not checks.rel_frobenius(B * 1.06, B, 0.05)[0]


def test_within_z_refuses_an_entry_eight_errors_off():
    ref = _corr()
    se = np.full_like(ref, 1e-3)
    noise = np.random.default_rng(2).normal(size=ref.shape) * 1e-3
    assert checks.within_z(ref + noise, ref, se)[0]
    wrong = ref + noise
    wrong[2, 3] += 8e-3
    assert not checks.within_z(wrong, ref, se)[0]


def test_within_z_refuses_a_change_where_the_error_is_zero():
    ref = np.diag([1.0, 0.0])
    se = np.diag([1e-3, 0.0])
    assert checks.within_z(ref, ref, se)[0]
    assert not checks.within_z(ref + np.diag([0.0, 1e-6]), ref, se)[0]


def test_within_z_refuses_one_entry_perturbed_by_one_percent_at_exact_precision():
    ref = _corr()
    se = np.abs(ref) * 1e-4  # a reference with 0.01% errors
    assert not checks.within_z(_perturb(ref), ref, se)[0]


def test_r_squared_refuses_a_poor_surrogate():
    y = np.linspace(0.0, 1.0, 200)
    noisy = y + 0.05 * np.sin(40 * y)
    assert checks.r_squared(y, y + 1e-4 * np.sin(40 * y), 0.999)[0]
    assert not checks.r_squared(y, noisy, 0.999)[0]


def test_symmetric_refuses_one_entry_perturbed_by_one_percent():
    K = _corr()
    assert checks.symmetric(K)[0]
    assert not checks.symmetric(_perturb(K))[0]


def test_unit_diagonal_refuses_a_diagonal_off_by_one_percent():
    K = _corr()
    assert checks.unit_diagonal(K)[0]
    assert not checks.unit_diagonal(_perturb(K, 1, 1))[0]


def test_psd_refuses_a_grid_with_a_negative_eigenvalue():
    assert checks.psd(_corr())[0]
    bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    assert np.linalg.eigvalsh(bad).min() < 0
    assert not checks.psd(bad)[0]


def test_close_refuses_a_value_off_by_one_percent():
    # used for kappa against quadrature, centers against means, and kappa
    # against the sum of the contributions
    v = np.array([0.3, -0.7, 0.95])
    assert checks.close(v + 1e-14, v)[0]
    assert not checks.close(v * np.array([1.0, 1.01, 1.0]), v)[0]


def test_triangle_refuses_one_stretched_distance():
    P = np.random.default_rng(3).normal(size=(8, 2))
    D = np.linalg.norm(P[:, None] - P[None], axis=2)
    assert checks.triangle(D)[0]
    a, b, c = 0, 1, 2
    D[a, c] = D[c, a] = D[a, b] + D[b, c] + 0.01
    assert not checks.triangle(D)[0]


def test_non_increasing_refuses_a_stress_rise():
    h = [0.3, 0.2, 0.1, 0.1, 0.05]
    assert checks.non_increasing(h)[0]
    assert not checks.non_increasing(h[:3] + [0.1 + 1e-9] + h[3:])[0]
