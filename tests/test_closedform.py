"""Closed-form gradient integrals: moments, I-tables, pair matrices."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm, truncnorm

from coactive import (
    BasisTerm,
    CoActiveMatrix,
    FitConfig,
    HingeFactor,
    InputPrior,
    MarsSurrogate,
    NormalDim,
    UniformDim,
    cmat,
    cmat_modified,
    cmat_trace,
    expected_gradient,
    fit,
    lhs_design,
    load_prior,
    save_model,
    save_prior,
)
from coactive.closedform import (
    _hinge_integrals,
    _hinge_support,
    _validate_self_matrix,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    prior_from_dict,
    prior_to_dict,
    save_matrix,
    write_matrix_csv,
)

from coactive.model import model_to_dict
from closedform_reference import dense_cmat, loop_expected_gradient
from conftest import both_priors, fitted_pair_corpus, quadrature_cmat

UNIT2 = ((0.0, 1.0), (0.0, 1.0))
U01 = UniformDim(0.0, 1.0)


def _term(coef, *factors):
    return BasisTerm(coef=coef, factors=tuple(HingeFactor(*f) for f in factors))


def _model(terms, p=2, intercept=0.0, domain=None, label=""):
    return MarsSurrogate(
        intercept=intercept,
        terms=tuple(terms),
        p=p,
        domain=domain or tuple((0.0, 1.0) for _ in range(p)),
        label=label,
    )


def _side(f):
    """(sign, knot) arrays of one factor; None is the absent factor."""
    if f is None:
        return np.ones(1), np.full(1, -np.inf)
    return np.array([float(f.sign)]), np.array([f.knot])


def _cells(fk, fl, dim):
    """(i1_kl, i1_lk, i2, i3) of one f_k factor against one f_l factor on x_0."""
    return tuple(float(g[0]) for g in _hinge_integrals(dim, *_side(fk), *_side(fl)))


def _support(fk, fl):
    """Support (a, b) of one factor pair, as the table builder takes it."""
    a, b = _hinge_support(*_side(fk), *_side(fl))
    return float(a[0]), float(b[0])


# -- truncated moments --------------------------------------------------------


def test_uniform_moments_basic():
    assert U01.moments(0.0, 1.0)[0] == pytest.approx(1.0)
    assert U01.moments(0.0, 1.0)[1] == pytest.approx(0.5)
    assert U01.moments(0.2, 0.7)[2] == pytest.approx((0.7**3 - 0.2**3) / 3.0)


def test_uniform_moments_clip_and_empty():
    assert U01.moments(-5.0, 0.5)[0] == pytest.approx(0.5)
    assert U01.moments(2.0, 3.0)[0] == 0.0
    assert U01.moments(0.8, 0.3)[1] == 0.0
    wide = UniformDim(0.2, 0.8)
    assert wide.moments(-np.inf, np.inf)[1] == pytest.approx(0.5)


def test_uniform_validation_and_order():
    with pytest.raises(ValueError, match="lo < hi"):
        UniformDim(1.0, 1.0)
    for lo, hi in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="uniform needs finite bounds"):
            UniformDim(lo, hi)


def test_normal_moments_closed_form():
    std = NormalDim(mean=0.0, sd=1.0)
    assert std.moments(-np.inf, np.inf)[0] == pytest.approx(1.0)
    assert std.moments(-np.inf, np.inf)[1] == pytest.approx(0.0, abs=1e-15)
    assert std.moments(-np.inf, np.inf)[2] == pytest.approx(1.0)
    assert std.moments(0.0, np.inf)[1] == pytest.approx(0.3989422804014327)


@pytest.mark.parametrize(
    "dim", [U01, UniformDim(-1.0, 2.0), NormalDim(0.3, 0.7), NormalDim(2.0, 0.5, 1.0, 3.0)]
)
def test_moments_are_three_broadcast_arrays_zero_off_the_interval(dim):
    # one call gives every order, shaped like the broadcast (a, b): 0-d for scalars
    for a, b, shape in ((0.2, 0.7, ()), (np.zeros((3, 1)), np.linspace(0.1, 0.9, 4), (3, 4)),
                        (-np.inf, np.full(5, np.inf), (5,))):
        xi = dim.moments(a, b)
        assert len(xi) == 3
        assert all(isinstance(x, np.ndarray) and x.shape == shape for x in xi)
    # empty or reversed intervals, inside and outside the support, give exact zeros
    a = np.array([0.5, 0.8, 2.5, -np.inf, np.inf, 5.0])
    b = np.array([0.5, 0.3, 1.5, -np.inf, np.inf, -5.0])
    for x in dim.moments(a, b):
        assert x.shape == (6,) and np.all(x == 0.0)


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize(
    "dim,a,b",
    [
        (NormalDim(mean=0.3, sd=0.7), -0.5, 1.2),
        (NormalDim(mean=0.0, sd=1.0, trunc_lo=-1.0, trunc_hi=1.0), -0.4, 0.9),
        (NormalDim(mean=2.0, sd=0.5, trunc_lo=1.0, trunc_hi=3.0), 0.0, 2.4),
        (UniformDim(-1.0, 2.0), -0.3, 1.7),
    ],
)
def test_moments_match_quadrature(dim, a, b, r):
    if isinstance(dim, UniformDim):
        lo, hi = dim.lo, dim.hi
        pdf = lambda x: 1.0 / (hi - lo)
    else:
        lo, hi = max(dim.trunc_lo, dim.mean - 12 * dim.sd), min(dim.trunc_hi, dim.mean + 12 * dim.sd)
        mass = norm.cdf(dim.trunc_hi, dim.mean, dim.sd) - norm.cdf(dim.trunc_lo, dim.mean, dim.sd)
        pdf = lambda x: math.exp(-0.5 * ((x - dim.mean) / dim.sd) ** 2) / (
            dim.sd * math.sqrt(2 * math.pi) * mass
        )
    val, _ = integrate.quad(lambda x: x**r * pdf(x), max(a, lo), min(b, hi))
    assert dim.moments(a, b)[r] == pytest.approx(val, abs=1e-12)


@pytest.mark.parametrize("a", [6.0, 8.0, 9.0])
def test_normal_upper_tail_matches_truncnorm(a):
    # ndtr rounds to 1 this far up, so the mass must come from the lower tail
    dim = NormalDim(mean=0.0, sd=1.0, trunc_lo=a)
    ref = truncnorm(a, np.inf)
    for r in (0, 1, 2):
        assert float(dim.moments(-np.inf, np.inf)[r]) == pytest.approx(ref.moment(r), rel=1e-12)
    x = dim.sample(np.random.default_rng(3), 20_000)
    assert x.min() >= a
    assert x.mean() == pytest.approx(ref.mean(), rel=1e-3)


def test_normal_validation():
    with pytest.raises(ValueError, match="sd > 0"):
        NormalDim(mean=0.0, sd=0.0)
    with pytest.raises(ValueError, match="trunc_lo < trunc_hi"):
        NormalDim(mean=0.0, sd=1.0, trunc_lo=1.0, trunc_hi=1.0)
    with pytest.raises(ValueError, match="vanishing"):
        NormalDim(mean=0.0, sd=1.0, trunc_lo=50.0, trunc_hi=51.0)
    with pytest.raises(ValueError, match="finite mean"):
        NormalDim(mean=np.nan, sd=1.0)
    for sd in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite sd > 0"):
            NormalDim(mean=0.0, sd=sd)
    with pytest.raises(ValueError, match="trunc_lo < trunc_hi"):
        NormalDim(mean=0.0, sd=1.0, trunc_lo=np.nan)
    # a truncation bound may be infinite
    half = NormalDim(mean=0.0, sd=1.0, trunc_lo=-np.inf, trunc_hi=0.0)
    assert half.support() == (-np.inf, 0.0)


# -- hinge support bounds -----------------------------------------------------


def test_integration_bounds_four_cases():
    up3 = HingeFactor(var=0, sign=1, knot=0.3)
    up5 = HingeFactor(var=0, sign=1, knot=0.5)
    dn4 = HingeFactor(var=0, sign=-1, knot=0.4)
    dn7 = HingeFactor(var=0, sign=-1, knot=0.7)
    assert _support(up3, up5) == (0.5, np.inf)
    assert _support(up3, dn7) == (0.3, 0.7)
    assert _support(dn7, up3) == (0.3, 0.7)
    assert _support(dn4, dn7) == (-np.inf, 0.4)
    # empty overlap clamps to a zero-length interval
    a, b = _support(HingeFactor(var=0, sign=1, knot=0.6), dn4)
    assert a == b == 0.6
    # absent factor = full support
    assert _support(None, None) == (-np.inf, np.inf)
    assert _support(up3, None) == (0.3, np.inf)


def test_scalar_integrals_hand_values():
    fk = HingeFactor(var=0, sign=1, knot=0.3)
    fl = HingeFactor(var=0, sign=1, knot=0.5)
    i1_kl, i1_lk, i2, i3 = _cells(fk, fl, U01)
    # int_{.5}^{1} (x - .5) dx and int_{.5}^{1} (x - .3) dx
    assert i1_kl == pytest.approx(0.125)
    assert i1_lk == pytest.approx(0.225)
    assert _cells(fl, fk, U01)[0] == i1_lk
    # int_{.5}^{1} (x - .3)(x - .5) dx = 1/15
    assert i2 == pytest.approx(1.0 / 15.0)
    assert i3 == pytest.approx(0.5)


def test_scalar_integrals_mixed_signs():
    fk = HingeFactor(var=0, sign=-1, knot=0.7)
    fl = HingeFactor(var=0, sign=1, knot=0.2)
    _, _, i2, i3 = _cells(fk, fl, U01)
    # int_{.2}^{.7} (.7 - x)(x - .2) dx = 0.5^3 / 6
    assert i2 == pytest.approx(0.5**3 / 6.0)
    assert i3 == pytest.approx(-0.5)
    # disjoint supports integrate to zero
    gk = HingeFactor(var=0, sign=1, knot=0.6)
    gl = HingeFactor(var=0, sign=-1, knot=0.4)
    assert _cells(gk, gl, U01) == (0.0, 0.0, 0.0, 0.0)


def test_scalar_integrals_absent_factor():
    fl = HingeFactor(var=0, sign=1, knot=0.5)
    fk = HingeFactor(var=0, sign=1, knot=0.3)
    assert _cells(None, None, U01)[2] == 1.0
    assert _cells(None, fl, U01)[2] == pytest.approx(0.125)
    i1_kl, i1_lk, i2, i3 = _cells(fk, None, U01)
    assert i2 == pytest.approx(0.245)  # int_{.3}^{1}(x-.3)
    assert _cells(None, fl, U01)[0] == 0.0
    assert i1_kl == pytest.approx(0.7)
    assert i1_lk == 0.0
    assert i3 == 0.0


def test_scalar_integrals_match_quadrature_randomized():
    rng = np.random.default_rng(2)
    dims = [U01, NormalDim(mean=0.4, sd=0.5, trunc_lo=0.0, trunc_hi=1.0)]
    for _ in range(25):
        dim = dims[int(rng.integers(2))]
        fk = HingeFactor(var=0, sign=int(rng.choice([-1, 1])), knot=float(rng.uniform(0, 1)))
        fl = HingeFactor(var=0, sign=int(rng.choice([-1, 1])), knot=float(rng.uniform(0, 1)))
        if isinstance(dim, UniformDim):
            pdf = lambda x: 1.0
        else:
            mass = norm.cdf(1.0, 0.4, 0.5) - norm.cdf(0.0, 0.4, 0.5)
            pdf = lambda x: math.exp(-0.5 * ((x - 0.4) / 0.5) ** 2) / (
                0.5 * math.sqrt(2 * math.pi) * mass
            )
        hk = lambda x: max(fk.sign * (x - fk.knot), 0.0)
        hl = lambda x: max(fl.sign * (x - fl.knot), 0.0)
        dk = lambda x: float(fk.sign) * ((x >= fk.knot) if fk.sign > 0 else (x < fk.knot))
        pts = sorted({0.0, 1.0, fk.knot, fl.knot})
        ref_i2 = sum(
            integrate.quad(lambda x: hk(x) * hl(x) * pdf(x), a, b)[0]
            for a, b in zip(pts[:-1], pts[1:])
        )
        ref_i1 = sum(
            integrate.quad(lambda x: dk(x) * hl(x) * pdf(x), a, b)[0]
            for a, b in zip(pts[:-1], pts[1:])
        )
        i1_kl, _, i2, _ = _cells(fk, fl, dim)
        assert i2 == pytest.approx(ref_i2, abs=1e-10)
        assert i1_kl == pytest.approx(ref_i1, abs=1e-10)


# -- pair matrices -------------------------------------------------------------


def test_cmat_hand_built_models():
    prior = InputPrior.uniform_box(UNIT2)
    mA = _model([_term(1.0, (0, 1, 0.0))], label="A")  # f = x0, grad (1, 0)
    mB = _model([_term(1.0, (0, 1, 0.0), (1, 1, 0.0))], label="B")  # f = x0*x1
    CA = cmat(mA, mA, prior)
    np.testing.assert_allclose(CA.entries, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
    CB = cmat(mB, mB, prior)
    np.testing.assert_allclose(CB.entries, [[1 / 3, 1 / 4], [1 / 4, 1 / 3]], rtol=1e-14)
    CAB = cmat(mA, mB, prior)
    np.testing.assert_allclose(CAB.entries, [[0.5, 0.5], [0.0, 0.0]], atol=1e-15)
    assert CA.labels == ("A", "A") and CAB.labels == ("A", "B")
    assert CB.trace == pytest.approx(2 / 3)


def test_cmat_intercept_only_is_zero():
    prior = InputPrior.uniform_box(UNIT2)
    m0 = _model([], intercept=3.0)
    m1 = _model([_term(1.0, (0, 1, 0.0))])
    assert np.all(cmat(m0, m1, prior).entries == 0.0)
    assert cmat_trace(m0, m0, prior) == 0.0


def test_cmat_validation():
    prior = InputPrior.uniform_box(UNIT2)
    m2 = _model([_term(1.0, (0, 1, 0.0))], p=2)
    m3 = _model([_term(1.0, (0, 1, 0.0))], p=3)
    with pytest.raises(ValueError, match="dimensions differ"):
        cmat(m2, m3, prior)
    other = _model([_term(1.0, (0, 1, 0.0))], p=2, domain=((0.0, 2.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="domain"):
        cmat(m2, other, prior)
    with pytest.raises(ValueError, match="prior has p"):
        cmat(m3, m3, InputPrior.uniform_box(UNIT2))


def test_cmat_transpose_identity(small_pair_corpus):
    for mk, ml, p in small_pair_corpus[:6]:
        prior = InputPrior.uniform_box(tuple((0.0, 1.0) for _ in range(p)))
        Ckl = cmat(mk, ml, prior).entries
        Clk = cmat(ml, mk, prior).entries
        scale = max(np.abs(Ckl).max(), 1e-300)
        assert np.abs(Ckl.T - Clk).max() <= 1e-12 * scale


def test_cmat_self_psd_and_cauchy_schwarz(small_pair_corpus):
    for mk, ml, p in small_pair_corpus[:6]:
        prior = InputPrior.uniform_box(tuple((0.0, 1.0) for _ in range(p)))
        Ck = cmat(mk, mk, prior)
        lam = np.linalg.eigvalsh(Ck.entries)
        assert lam.min() >= -1e-10 * max(lam.max(), 1e-300)
        tk = Ck.trace
        tl = cmat_trace(ml, ml, prior)
        tkl = cmat_trace(mk, ml, prior)
        assert abs(tkl) <= math.sqrt(tk * tl) * (1.0 + 1e-12)


def test_cmat_trace_matches_full_matrix(small_pair_corpus):
    for mk, ml, p in small_pair_corpus[:6]:
        prior = InputPrior.uniform_box(tuple((0.0, 1.0) for _ in range(p)))
        assert cmat_trace(mk, ml, prior) == cmat(mk, ml, prior).trace


def test_cmat_scale_equivariance():
    prior = InputPrior.uniform_box(UNIT2)
    mB = _model([_term(1.0, (0, 1, 0.0), (1, 1, 0.0)), _term(-0.5, (1, -1, 0.75))])
    scaled = _model(
        [BasisTerm(coef=3.0 * t.coef, factors=t.factors) for t in mB.terms]
    )
    base_cross = cmat(mB, _model([_term(1.0, (0, 1, 0.0))]), prior).entries
    scaled_cross = cmat(scaled, _model([_term(1.0, (0, 1, 0.0))]), prior).entries
    np.testing.assert_allclose(scaled_cross, 3.0 * base_cross, rtol=1e-13)
    np.testing.assert_allclose(
        cmat(scaled, scaled, prior).entries, 9.0 * cmat(mB, mB, prior).entries, rtol=1e-13
    )


def test_cmat_agrees_with_quadrature_spot_checks():
    for mk, ml, p in fitted_pair_corpus(n_pairs=4, seed=55):
        for name, prior in both_priors(p):
            C = cmat(mk, ml, prior).entries
            Q = quadrature_cmat(mk, ml, prior)
            scale = max(np.abs(Q).max(), 1e-300)
            assert np.abs(C - Q).max() <= 1e-10 * scale, f"{name} prior disagrees"


@pytest.mark.parametrize(
    "dim",
    [
        NormalDim(mean=0.0, sd=1.0, trunc_lo=6.0),
        NormalDim(mean=0.0, sd=1.0, trunc_lo=8.0),
        NormalDim(mean=0.5, sd=0.3, trunc_lo=0.2),
        NormalDim(mean=0.5, sd=0.3, trunc_hi=0.7),
    ],
    ids=["upper-tail-6", "upper-tail-8", "lower-bound-only", "upper-bound-only"],
)
def test_cmat_agrees_with_quadrature_tail_and_one_sided_priors(dim):
    # in the upper tail the density falls by e^-8 per sd; 20-point rules
    # resolve that on the oracle's finest mesh
    for mk, ml, p in fitted_pair_corpus(n_pairs=2, seed=55):
        prior = InputPrior(dims=(dim,) * p)
        C = cmat(mk, ml, prior).entries
        Q = quadrature_cmat(mk, ml, prior, order=20)
        scale = max(np.abs(Q).max(), 1e-300)
        assert np.abs(C - Q).max() <= 1e-10 * scale


def _wide_pair(p=14, n_terms=40, seed=21):
    """Two generated surrogates of degree-1 to 3 terms that share a third
    of their terms, under a prior mixing uniform, truncated-normal and
    normal inputs."""
    rng = np.random.default_rng(seed)

    def terms(n):
        out = []
        for _ in range(n):
            deg = int(rng.integers(1, 4))
            factors = [
                HingeFactor(int(v), int(rng.choice([-1, 1])), float(rng.uniform(0.05, 0.95)))
                for v in rng.choice(p, size=deg, replace=False)
            ]
            out.append(BasisTerm(coef=float(rng.normal()), factors=tuple(factors)))
        return out

    ta = terms(n_terms)
    tb = ta[: n_terms // 3] + terms(n_terms - n_terms // 3 + 3)
    mk, ml = _model(ta, p=p, label="a"), _model(tb, p=p, label="b")
    kinds = [
        UniformDim(0.0, 1.0),
        NormalDim(mean=0.5, sd=0.25, trunc_lo=0.0, trunc_hi=1.0),
        NormalDim(mean=0.6, sd=0.3),
    ]
    return mk, ml, InputPrior(dims=tuple(kinds[i % 3] for i in range(p)))


def _reference_cases(corpus):
    for mk, ml, p in corpus:
        for _, prior in both_priors(p):
            yield mk, ml, prior
    yield _wide_pair()


def _check_dense_bitwise(a, b, prior):
    """cmat(a, b) is the dense reference bitwise, and so is its trace; a self
    matrix is keyed on its upper triangle, and its lower one mirrors it."""
    C, ref = cmat(a, b, prior), dense_cmat(a, b, prior)
    if a is b:
        np.testing.assert_array_equal(np.triu(C.entries), np.triu(ref))
        assert C.entries.tobytes() == C.entries.T.tobytes()
    else:
        np.testing.assert_array_equal(C.entries, ref)
    assert cmat_trace(a, b, prior) == C.trace


def test_cmat_matches_dense_reference_bitwise(small_pair_corpus):
    for mk, ml, prior in _reference_cases(small_pair_corpus):
        for a, b in ((mk, ml), (mk, mk)):
            _check_dense_bitwise(a, b, prior)


def test_kernel_in_small_passes_is_bitwise_unchanged(monkeypatch):
    # a budget far below one model pair's factor pairs splits each kernel
    # call into many passes of several keys each
    import coactive.closedform as closedform

    mk, ml, prior = _wide_pair()
    Z = expected_gradient(mk, prior)
    monkeypatch.setattr(closedform, "_PAIR_BUDGET", 40)
    for a, b in ((mk, ml), (mk, mk)):
        _check_dense_bitwise(a, b, prior)
    np.testing.assert_array_equal(expected_gradient(mk, prior), Z)


def test_kernel_folds_four_other_variable_factors_bitwise(monkeypatch):
    # degree-3 terms of f_k on x_0..x_4 against degree-3 terms of f_l on
    # x_4..x_8: a product of two terms with no variable in common takes
    # the i2 of four other variables, folded in ascending order
    import coactive.closedform as closedform

    rng = np.random.default_rng(23)

    def terms(vars_, n):
        return [
            BasisTerm(
                coef=float(rng.normal()),
                factors=tuple(
                    HingeFactor(int(v), int(rng.choice([-1, 1])), float(rng.uniform(0.05, 0.95)))
                    for v in rng.choice(vars_, size=3, replace=False)
                ),
            )
            for _ in range(n)
        ]

    tk, tl = terms(range(0, 5), 12), terms(range(4, 9), 12)
    assert any(not {f.var for f in r.factors} & {f.var for f in c.factors} for r in tk for c in tl)
    mk, ml = _model(tk, p=9, label="a"), _model(tl, p=9, label="b")
    monkeypatch.setattr(closedform, "_PAIR_BUDGET", 40)
    for prior in (InputPrior.uniform_box(((0.0, 1.0),) * 9), _wide_pair(p=9)[2]):
        for a, b in ((mk, ml), (ml, mk), (mk, mk), (ml, ml)):
            _check_dense_bitwise(a, b, prior)


def test_kernel_is_bitwise_the_dense_reference_beyond_64_inputs():
    # p = 70, with terms on inputs both sides of 64: no per-term bitmask of
    # used inputs fits one 64-bit word
    mk, ml, prior = _wide_pair(p=70, n_terms=14, seed=24)
    assert any(f.var >= 64 for m in (mk, ml) for t in m.terms for f in t.factors)
    for a, b in ((mk, ml), (mk, mk)):
        _check_dense_bitwise(a, b, prior)


@pytest.mark.parametrize("family", ["uniform", "truncated-normal", "mixed"])
def test_self_matrices_are_exactly_symmetric(family):
    mk, ml, prior = _wide_pair()
    dims = {
        "uniform": (U01,) * mk.p,
        "truncated-normal": (NormalDim(mean=0.4, sd=0.3, trunc_lo=0.0, trunc_hi=1.0),) * mk.p,
        "mixed": prior.dims,
    }[family]
    for m in (mk, ml):
        C = cmat(m, m, InputPrior(dims=dims)).entries
        assert C.tobytes() == C.T.tobytes()
        assert np.count_nonzero(C - np.diag(np.diag(C))) > 0


def test_expected_gradient_matches_reference_loop(small_pair_corpus):
    for mk, ml, prior in _reference_cases(small_pair_corpus):
        for m in (mk, ml):
            Z, ref = expected_gradient(m, prior), loop_expected_gradient(m, prior)
            assert np.abs(Z - ref).max() <= 1e-15 * np.abs(ref).max()


def test_cmat_fitted_self_matrix_matches_analytic_target():
    # f(x) = x0^2 + x0*x1 has exact self matrix [[8/3, 11/12], [11/12, 1/3]]
    X = lhs_design(200, 2, UNIT2, seed=11)
    y = X[:, 0] ** 2 + X[:, 0] * X[:, 1]
    m = fit(X, y, FitConfig(domain=UNIT2))
    C = cmat(m, m, InputPrior.uniform_box(UNIT2)).entries
    target = np.array([[8 / 3, 11 / 12], [11 / 12, 1 / 3]])
    assert np.linalg.norm(C - target) < 0.1


# -- expected gradient and modified matrix -------------------------------------


def test_expected_gradient_hand_values():
    prior = InputPrior.uniform_box(UNIT2)
    mA = _model([_term(2.0, (0, 1, 0.0))])
    np.testing.assert_allclose(expected_gradient(mA, prior), [2.0, 0.0], atol=1e-15)
    mB = _model([_term(1.0, (0, 1, 0.0), (1, 1, 0.0))])
    np.testing.assert_allclose(expected_gradient(mB, prior), [0.5, 0.5], rtol=1e-14)
    g = 1.7
    mC = _model([_term(g, (0, 1, 0.3), (1, 1, 0.5))])
    np.testing.assert_allclose(
        expected_gradient(mC, prior),
        [g * 0.7 * (0.5**2 / 2.0), g * 0.5 * (0.7**2 / 2.0)],
        rtol=1e-14,
    )


def test_expected_gradient_matches_sampling(small_pair_corpus):
    mk = small_pair_corpus[0][0]
    prior = InputPrior.uniform_box(UNIT2)
    Z = expected_gradient(mk, prior)
    rng = np.random.default_rng(123)
    G = mk.gradient_batch(prior.sample(rng, 200_000))
    se = G.std(axis=0, ddof=1) / np.sqrt(G.shape[0])
    assert np.all(np.abs(Z - G.mean(axis=0)) <= 4.0 * se + 1e-12)


def test_cmat_modified_rank_one_identity(small_pair_corpus):
    mk, ml, p = small_pair_corpus[1]
    prior = InputPrior.uniform_box(tuple((0.0, 1.0) for _ in range(p)))
    base = cmat(mk, ml, prior)
    mod = cmat_modified(mk, ml, prior)
    zk = expected_gradient(mk, prior)
    zl = expected_gradient(ml, prior)
    np.testing.assert_array_equal(mod.entries, base.entries + np.outer(zk, zl))
    assert mod.kind == "modified"
    assert mod.trace == pytest.approx(base.trace + zk @ zl)


# -- containers and IO ----------------------------------------------------------


def test_coactive_matrix_validation():
    with pytest.raises(ValueError):
        matrix_from_dict({"entries": np.eye(2).tolist(), "trace": 5.0, "labels": ["a", "b"]})
    M = CoActiveMatrix(entries=np.eye(2), labels=("a", "b"))
    assert not M.entries.flags.writeable
    assert M.p == 2
    with pytest.raises(ValueError):
        CoActiveMatrix(entries=np.ones((2, 3)), labels=("a", "b"))
    with pytest.raises(ValueError, match="^kind must be plain or modified, got 'x'$"):
        CoActiveMatrix(entries=np.eye(2), labels=("a", "b"), kind="x")


def test_coactive_matrix_trace_is_its_diagonal_sum():
    # the trace is worked out from the entries, never passed in or stored
    entries = np.array([[1 / 3, 0.1], [np.pi, 2.0]])
    M = CoActiveMatrix(entries=entries, labels=("k", "l"))
    assert M.trace == float(np.sum(entries.diagonal()))
    assert [f.name for f in dataclasses.fields(CoActiveMatrix)] == ["entries", "labels", "kind"]
    with pytest.raises(TypeError):
        CoActiveMatrix(entries=entries, trace=1 / 3 + 2.0, labels=("k", "l"))
    # finite entries whose sum overflows
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^co-active matrix entries and trace must be finite$"):
        CoActiveMatrix(entries=np.diag([1e308, 1e308]), labels=("k", "l"))


def test_matrix_from_dict_refuses_a_stored_trace_that_is_not_the_diagonal_sum():
    d = {"entries": [[1.0, 0.5], [0.5, 2.0]], "labels": ["k", "l"]}
    assert matrix_from_dict({**d, "trace": 3.0 + 2e-12}).trace == 3.0
    with pytest.raises(ValueError, match=r"^trace 3\.1 inconsistent with diagonal sum 3\.0$"):
        matrix_from_dict({**d, "trace": 3.1})
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^co-active matrix entries and trace must be finite$"):
            matrix_from_dict({**d, "trace": bad})


def test_self_matrix_must_be_symmetric_and_positive_semi_definite():
    _validate_self_matrix(np.zeros((2, 2)))
    _validate_self_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="^self matrix is not symmetric$"):
        _validate_self_matrix(np.array([[2.0, 1.0], [1.0 + 1e-6, 2.0]]))
    # eigenvalues 3 and -1
    with pytest.raises(ValueError, match="^self matrix is not positive semi-definite$"):
        _validate_self_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_matrix_json_round_trip(tmp_path):
    M = CoActiveMatrix(entries=np.array([[1 / 3, 0.1], [np.pi, 2.0]]), labels=("k", "l"))
    d = matrix_to_dict(M)
    back = matrix_from_dict(d)
    np.testing.assert_array_equal(back.entries, M.entries)
    assert back.labels == M.labels and back.kind == "plain"
    save_matrix(M, tmp_path / "m.json", meta={"note": "x"})
    loaded = load_matrix(tmp_path / "m.json")
    np.testing.assert_array_equal(loaded.entries, M.entries)
    assert loaded.trace == M.trace


def test_matrix_csv_17_digit_round_trip(tmp_path):
    entries = np.array([[1 / 3, -7.213412341e-13], [np.pi, 0.1 + 0.2]])
    path = tmp_path / "c.csv"
    write_matrix_csv(path, entries, meta={"pair": "k,l"})
    assert path.read_text().startswith("# ")
    back = np.loadtxt(path, delimiter=",", comments="#")
    np.testing.assert_array_equal(back, entries)


def test_prior_round_trip(tmp_path):
    prior = InputPrior(
        dims=(
            UniformDim(0.0, 2.0),
            NormalDim(mean=0.5, sd=0.25, trunc_lo=0.0, trunc_hi=1.0),
            NormalDim(mean=0.0, sd=1.0),
        )
    )
    back = prior_from_dict(prior_to_dict(prior))
    assert back == prior
    save_prior(prior, tmp_path / "prior.json")
    assert load_prior(tmp_path / "prior.json") == prior
    with pytest.raises(ValueError, match="family|type"):
        prior_from_dict({"dims": [{"type": "beta", "a": 1, "b": 1}]})


def test_prior_refuses_no_dims_and_a_wrong_p():
    with pytest.raises(ValueError, match="^prior needs at least one dimension$"):
        InputPrior(dims=())
    with pytest.raises(ValueError, match="^prior file says p=3 but has 2 dims$"):
        prior_from_dict({"p": 3, "dims": [{"type": "uniform", "lo": 0, "hi": 1}] * 2})


def test_json_files_share_one_layout(tmp_path):
    # one writer: indent 2, a final newline, meta last; model and prior
    # files keep their keys in field order, every other file sorts them
    meta = {"version": "v", "seed": 1}
    m = _model([_term(2.0, (0, 1, 0.5))], label="m")
    prior = InputPrior(dims=(U01, NormalDim(mean=0.5, sd=0.25)))
    M = CoActiveMatrix(entries=np.eye(2), labels=("k", "l"))
    files = {
        "model": (save_model, m, [*model_to_dict(m), "meta"]),
        "prior": (save_prior, prior, [*prior_to_dict(prior), "meta"]),
        "matrix": (save_matrix, M, sorted([*matrix_to_dict(M), "meta"])),
    }
    for name, (save, obj, keys) in files.items():
        path = tmp_path / f"{name}.json"
        save(obj, path, meta=meta)
        text = path.read_text()
        assert text.startswith('{\n  "') and text.endswith("\n}\n"), name
        assert list(json.loads(text)) == keys, name


def test_prior_moments_and_covariance():
    prior = InputPrior.uniform_box(UNIT2)
    np.testing.assert_allclose(prior.mean(), [0.5, 0.5])
    np.testing.assert_allclose(prior.covariance(), np.eye(2) / 12.0)
    rng = np.random.default_rng(0)
    X = prior.sample(rng, 1000)
    assert X.shape == (1000, 2) and X.min() >= 0.0 and X.max() <= 1.0


@pytest.mark.parametrize("n", [0, 1, 1000])
def test_prior_sample_is_the_column_stack_of_each_dimension_in_turn(n):
    # uniform, truncated normal, plain normal and the reflected upper-tail draw
    prior = InputPrior([UniformDim(-1.0, 2.0), NormalDim(0.5, 0.25, 0.0, 1.0),
                        NormalDim(0.0, 1.0), NormalDim(0.0, 1.0, trunc_lo=6.0), UniformDim(0.0, 1.0)])
    rng = np.random.default_rng(8)
    ref = np.column_stack([d.sample(rng, n) for d in prior.dims])
    X = prior.sample(np.random.default_rng(8), n)
    assert X.shape == (n, 5) and X.flags.c_contiguous
    np.testing.assert_array_equal(X, ref)
