"""Symmetrization, decomposition, scores, shared matrix, projection bound."""

from __future__ import annotations

import math

import numpy as np
import pytest

from coactive import (
    ConstantFunctionError,
    InputPrior,
    activity_scores,
    cmat,
    concordance,
    decompose,
    discordance,
    poincare_bound,
    select_dim,
    shared_matrix,
    symmetrize,
)
from coactive.analysis import DimSelection
from coactive.verify import poly_cmat_exact, poly_kappa_exact


def _poly_V(beta):
    Ckl = poly_cmat_exact(0.0, beta)
    Clk = poly_cmat_exact(beta, 0.0)
    return symmetrize(Ckl, Clk)


def _poly_traces(beta):
    t1 = np.trace(poly_cmat_exact(0.0, 0.0))
    t2 = np.trace(poly_cmat_exact(beta, beta))
    t12 = np.trace(poly_cmat_exact(0.0, beta))
    return t12, t1, t2


# -- symmetrize -----------------------------------------------------------------


def test_symmetrize_averages_with_transpose():
    np.testing.assert_array_equal(symmetrize([[0.0, 1.0], [0.0, 0.0]]), [[0.0, 0.5], [0.5, 0.0]])
    sym = np.array([[2.0, 0.3], [0.3, 1.0]])
    np.testing.assert_array_equal(symmetrize(sym), sym)


def test_symmetrize_two_argument_form():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    B = np.array([[1.0, 5.0], [1.0, 4.0]])
    V = symmetrize(A, B)
    np.testing.assert_array_equal(V, V.T)
    half = 0.5 * (A + B)
    np.testing.assert_allclose(V, 0.5 * (half + half.T), atol=1e-15)


def test_symmetrize_poly_pair_entry():
    # V12[0,1] at beta: (11/12 + 7 beta/4 + 11/12)/2 = (165 + 157.5 beta)/180
    for beta in (1.0, 0.5, 3.0):
        V = _poly_V(beta)
        assert V[0, 1] == pytest.approx((165.0 + 157.5 * beta) / 180.0, rel=1e-14)
        assert V[0, 1] == V[1, 0]


def test_symmetrize_validation():
    with pytest.raises(ValueError, match="square"):
        symmetrize(np.ones((2, 3)))
    with pytest.raises(ValueError, match="mismatch"):
        symmetrize(np.eye(2), np.eye(3))


# -- concordance / discordance ----------------------------------------------------


def test_concordance_self_is_one():
    for t in (1e-6, 1.0, 3.7, 1e8):
        assert concordance(t, t, t) == 1.0


def test_concordance_sign_of_linear_rescaling():
    # f and a + b*f: t_kl = b*t, t_l = b^2*t, so kappa = sign(b)
    t = 3.0
    assert concordance(2.0 * t, t, 4.0 * t) == 1.0
    assert concordance(-2.0 * t, t, 4.0 * t) == -1.0


def test_concordance_poly_values():
    k12 = poly_kappa_exact(0.5)
    assert k12 == pytest.approx(3.25 / math.sqrt(3.0 * 3.95), rel=1e-14)
    assert round(k12, 3) == 0.944
    assert round(poly_kappa_exact(3.0), 3) == 0.551
    # the defining formula at beta=-12; the published -0.131 is kappa at beta=-15
    assert poly_kappa_exact(-12.0) == pytest.approx(-3.0 / math.sqrt(3.0 * 250.2), rel=1e-12)
    assert round(poly_kappa_exact(-12.0), 4) == -0.1095

    # independent check: integrate the gradient products of f_1 = x1^2 + x1 x2
    # and f_2 = f_1 + beta x2^3 symbolically over U(0,1)^2
    import sympy as sp

    x1, x2 = sp.symbols("x1 x2", real=True)

    def trace_e(fa, fb):
        g = sum(sp.diff(fa, v) * sp.diff(fb, v) for v in (x1, x2))
        return sp.integrate(sp.expand(g), (x1, 0, 1), (x2, 0, 1))

    f1 = x1**2 + x1 * x2
    exact = {
        0.5: 13 * sp.sqrt(1185) / 474,
        3.0: 3 * sp.sqrt(185) / 74,
        -12.0: -sp.sqrt(2085) / 417,
    }
    for beta, closed in exact.items():
        f2 = f1 + sp.nsimplify(beta) * x2**3
        kappa = trace_e(f1, f2) / sp.sqrt(trace_e(f1, f1) * trace_e(f2, f2))
        assert sp.simplify(kappa - closed) == 0
        assert poly_kappa_exact(beta) == pytest.approx(float(closed), rel=1e-14)


def test_concordance_clamps_roundoff_but_rejects_violations():
    t = 1.0
    assert concordance(1.0 + 5e-13, t, t) == 1.0
    assert concordance(-(1.0 + 5e-13), t, t) == -1.0
    with pytest.raises(ValueError, match="Cauchy-Schwarz"):
        concordance(1.01, t, t)


def test_concordance_rejects_constant_functions():
    with pytest.raises(ConstantFunctionError):
        concordance(0.0, 0.0, 1.0)
    with pytest.raises(ConstantFunctionError):
        concordance(0.0, 1.0, 1e-15)


def test_discordance_endpoints_and_midpoint():
    assert discordance(1.0) == 0.0
    assert discordance(-1.0) == 1.0
    assert discordance(0.0) == pytest.approx(math.sqrt(0.5))
    with pytest.raises(ValueError, match="out of range"):
        discordance(1.5)


def test_discordance_clamps_a_concordance_just_below_minus_one():
    # kappa goes through the same clamp as concordance(), so delta stays in [0, 1]
    kappa = -1.0 - 5e-13
    assert discordance(kappa) == 1.0
    np.testing.assert_array_equal(discordance(np.array([kappa, -1.0, 1.0 + 5e-13])), [1.0, 1.0, 0.0])


def test_concordance_and_discordance_work_elementwise():
    # one implementation for a pair and for a grid: an array gives an array
    # whose entries equal the scalar calls bitwise, a scalar gives a float
    t = np.array([[4.0, -1.0, 5.9], [-1.0, 9.0, 2.5], [5.9, 2.5, 16.0]])
    d = np.diag(t)
    kappa = concordance(t, d[:, None], d[None, :])
    D = discordance(kappa)
    assert isinstance(kappa, np.ndarray) and kappa.shape == (3, 3)
    assert isinstance(D, np.ndarray) and D.shape == (3, 3)
    for i in range(3):
        for j in range(3):
            assert kappa[i, j] == concordance(t[i, j], d[i], d[j])
            assert D[i, j] == discordance(kappa[i, j])
    assert type(concordance(1.0, 4.0, 9.0)) is float
    assert type(discordance(0.5)) is float
    with pytest.raises(ValueError, match="Cauchy-Schwarz"):
        concordance(np.array([1.0, 7.0]), 4.0, 9.0)
    with pytest.raises(ValueError, match="Cauchy-Schwarz"):
        concordance(math.nan, 4.0, 9.0)
    with pytest.raises(ConstantFunctionError):
        concordance(np.array([1.0, 1.0]), np.array([4.0, 0.0]), 9.0)
    with pytest.raises(ValueError, match="out of range"):
        discordance(np.array([0.5, -1.5]))


# -- decomposition ------------------------------------------------------------------


def test_decompose_diagonal_ordering_and_scores():
    dec = decompose(np.diag([2.0, -1.0]), t_k=4.0, t_l=4.0)
    np.testing.assert_array_equal(dec.eigvals, [2.0, -1.0])
    np.testing.assert_array_equal(np.abs(dec.eigvecs), np.eye(2))
    np.testing.assert_allclose(dec.contributions, [0.5, -0.25])
    assert dec.concordance == pytest.approx(0.25)
    signed, unsigned = activity_scores(dec, q=2)
    np.testing.assert_allclose(signed, [2.0, -1.0])
    np.testing.assert_allclose(unsigned, [2.0, 1.0])


def test_decompose_orders_by_absolute_value_with_signed_ties():
    dec = decompose(np.diag([1.0, -3.0, -1.0, 2.0]), t_k=1.0, t_l=100.0)
    np.testing.assert_array_equal(dec.eigvals, [-3.0, 2.0, 1.0, -1.0])


def test_decompose_sign_convention():
    # eigenvectors of [[0,1],[1,0]] are (1,1)/sqrt2 and (1,-1)/sqrt2; the
    # tied largest component keeps the first index positive
    dec = decompose(np.array([[0.0, 1.0], [1.0, 0.0]]), t_k=2.0, t_l=2.0)
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(dec.eigvecs[:, 0], [s, s])
    np.testing.assert_allclose(dec.eigvecs[:, 1], [s, -s])


def test_decompose_invariants_on_poly_matrices():
    for beta in (0.5, 3.0, -12.0):
        V = _poly_V(beta)
        t12, t1, t2 = _poly_traces(beta)
        dec = decompose(V, t1, t2)
        np.testing.assert_allclose(dec.eigvecs.T @ dec.eigvecs, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(
            (dec.eigvecs * dec.eigvals) @ dec.eigvecs.T, V, atol=1e-12 * np.abs(V).max()
        )
        assert math.fsum(dec.eigvals) == pytest.approx(np.trace(V), rel=1e-12)
        assert math.fsum(dec.contributions) == pytest.approx(dec.concordance, abs=1e-15)
        assert dec.concordance == pytest.approx(concordance(t12, t1, t2), abs=1e-12)
        assert abs(dec.concordance) <= 1.0


def test_decompose_poly_half_leading_direction():
    dec = decompose(_poly_V(0.5), *_poly_traces(0.5)[1:])
    np.testing.assert_allclose(np.abs(dec.eigvecs[:, 0]), [0.8971, 0.4418], atol=5e-4)
    assert dec.eigvecs[0, 0] > 0
    # V = [[8/3, 65/48], [65/48, 7/12]] and t_k t_l = 237/20 exactly, so the
    # eigenvalues are (13/4 +- sqrt(6725)/24)/2 and pi = lambda / sqrt(237/20)
    lam = (13.0 / 4.0 + np.array([1.0, -1.0]) * math.sqrt(6725.0) / 24.0) / 2.0
    np.testing.assert_allclose(_poly_V(0.5), [[8 / 3, 65 / 48], [65 / 48, 7 / 12]], rtol=1e-15)
    np.testing.assert_allclose(dec.contributions, lam / math.sqrt(237.0 / 20.0), rtol=1e-12)
    np.testing.assert_allclose(dec.contributions, [0.96836, -0.02424], atol=5e-6)


def test_decompose_self_contributions_nonnegative(metric_corpus):
    prior = InputPrior.uniform_box(metric_corpus[0].domain)
    m = metric_corpus[0]
    C = cmat(m, m, prior)
    dec = decompose(C.entries, C.trace, C.trace)
    assert np.all(dec.contributions >= -1e-12)
    assert dec.concordance == pytest.approx(1.0, abs=1e-12)
    signed, unsigned = activity_scores(dec, q=dec.p)
    np.testing.assert_allclose(signed, unsigned, atol=1e-12 * max(1.0, unsigned.max()))
    np.testing.assert_allclose(signed, np.diag(C.entries), rtol=1e-10)


def test_decompose_validation():
    with pytest.raises(ValueError, match="symmetric"):
        decompose(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, 1.0)
    with pytest.raises(ConstantFunctionError):
        decompose(np.eye(2), 0.0, 1.0)
    with pytest.raises(ValueError, match="square"):
        decompose(np.ones((2, 3)), 1.0, 1.0)


def test_decomposition_to_dict_round_trips_floats():
    import json

    dec = decompose(_poly_V(3.0), *_poly_traces(3.0)[1:])
    d = json.loads(json.dumps(dec.to_dict()))
    assert d["concordance"] == dec.concordance
    assert d["discordance"] == pytest.approx(discordance(dec.concordance))
    assert len(d["eigvecs"]) == 2


def test_activity_scores_q_one_sign_relation():
    dec = decompose(_poly_V(3.0), *_poly_traces(3.0)[1:])
    signed, unsigned = activity_scores(dec, q=1)
    lam1 = dec.eigvals[0]
    np.testing.assert_allclose(signed, np.sign(lam1) * unsigned)
    np.testing.assert_allclose(signed, lam1 * dec.eigvecs[:, 0] ** 2)
    with pytest.raises(ValueError, match="q must be"):
        activity_scores(dec, q=0)
    with pytest.raises(ValueError, match="q must be"):
        activity_scores(dec, q=3)


# -- shared matrix -------------------------------------------------------------------


def test_shared_matrix_sums_elementwise():
    C1 = poly_cmat_exact(1.0, 1.0)
    np.testing.assert_array_equal(shared_matrix([C1]), C1)
    np.testing.assert_allclose(shared_matrix([C1, C1]), 2.0 * C1)
    # H[0,0] for the pair at beta=1: 8/3 + 8/3 = 16/3
    C2 = poly_cmat_exact(0.0, 0.0)
    H = shared_matrix([C2, C1])
    assert H[0, 0] == pytest.approx(16.0 / 3.0, rel=1e-14)
    with pytest.raises(ValueError, match="at least one"):
        shared_matrix([])
    with pytest.raises(ValueError, match="mismatch"):
        shared_matrix([np.eye(2), np.eye(3)])


# -- projection bound -----------------------------------------------------------------


def test_poincare_full_basis_is_zero():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3))
    C = A @ A.T
    Sigma = np.eye(3) / 12.0
    B = rng.normal(size=(3, 3))
    assert abs(poincare_bound(C, Sigma, B)) <= 1e-10 * np.abs(C).max()


def test_poincare_orthogonal_direction_picks_up_full_variance():
    # f(x) = x0 on U(0,1)^2: C = e0 e0^T; projecting onto e1 keeps all of it
    C = np.outer([1.0, 0.0], [1.0, 0.0])
    prior = InputPrior.uniform_box(((0.0, 1.0), (0.0, 1.0)))
    val = poincare_bound(C, prior.covariance(), np.array([0.0, 1.0]))
    assert val == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert poincare_bound(C, prior.covariance(), np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-14)


def test_poincare_nonnegative_and_monotone_isotropic():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 4))
    C = A @ A.T
    Sigma = 0.2 * np.eye(4)
    lam, W = np.linalg.eigh(C)
    W = W[:, ::-1]
    prev = poincare_bound(C, Sigma, W[:, :1])
    assert prev >= 0.0
    for r in (2, 3, 4):
        cur = poincare_bound(C, Sigma, W[:, :r])
        assert cur <= prev + 1e-12
        prev = cur
    for _ in range(20):
        Brand = rng.normal(size=(4, 2))
        assert poincare_bound(C, Sigma, Brand) >= -1e-12


def test_poincare_validation():
    C = np.eye(2)
    Sigma = np.eye(2)
    with pytest.raises(ValueError, match="rank-deficient"):
        poincare_bound(C, Sigma, np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        poincare_bound(C, Sigma, np.ones((3, 1)))
    with pytest.raises(ValueError, match="columns"):
        poincare_bound(C, Sigma, np.ones((2, 3)))
    with pytest.raises(ValueError, match="must be finite"):
        poincare_bound(C, np.diag([1.0, np.nan]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="must be finite"):
        poincare_bound(C, Sigma, np.array([1.0, np.inf]))


# -- dimension selection -----------------------------------------------------------------


def test_select_dim_counts_and_gap():
    sel = select_dim([2.0, -1.0, 0.001], tau=0.01)
    assert sel == DimSelection(r=2, gap_after=2, gap_ratio=pytest.approx(1000.0))
    assert select_dim([5.0], tau=1.0) == DimSelection(r=1, gap_after=0, gap_ratio=0.0)


def test_select_dim_warns_when_none_reach_tau():
    with pytest.warns(UserWarning, match="no eigenvalue"):
        sel = select_dim([0.1, 0.01], tau=1.0)
    assert sel.r == 0


def test_select_dim_on_poly_pair():
    dec = decompose(_poly_V(0.5), *_poly_traces(0.5)[1:])
    sel = select_dim(dec.eigvals, tau=0.1 * abs(dec.eigvals[0]))
    assert sel.r == 1 and sel.gap_after == 1


def test_select_dim_validation():
    with pytest.raises(ValueError, match="tau"):
        select_dim([1.0], tau=0.0)
    with pytest.raises(ValueError, match="non-empty"):
        select_dim([], tau=1.0)
    with pytest.warns(UserWarning):
        sel = select_dim([0.0, 0.0], tau=np.inf)  # zero spectrum: ratio guard
    assert sel.gap_ratio == 1.0
