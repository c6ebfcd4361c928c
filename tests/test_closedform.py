"""Closed-form gradient integrals: moments, I-tables, pair matrices."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import truncnorm

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
    save_prior,
)
from coactive.closedform import (
    _hinge_integrals,
    _hinge_support,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    prior_from_dict,
    prior_to_dict,
    save_matrix,
    write_matrix_csv,
)

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
    assert U01.moment(0, 0.0, 1.0) == pytest.approx(1.0)
    assert U01.moment(1, 0.0, 1.0) == pytest.approx(0.5)
    assert U01.moment(2, 0.2, 0.7) == pytest.approx((0.7**3 - 0.2**3) / 3.0)


def test_uniform_moments_clip_and_empty():
    assert U01.moment(0, -5.0, 0.5) == pytest.approx(0.5)
    assert U01.moment(0, 2.0, 3.0) == 0.0
    assert U01.moment(1, 0.8, 0.3) == 0.0
    wide = UniformDim(0.2, 0.8)
    assert wide.moment(1, -np.inf, np.inf) == pytest.approx(0.5)


def test_uniform_validation_and_order():
    with pytest.raises(ValueError, match="lo < hi"):
        UniformDim(1.0, 1.0)
    with pytest.raises(ValueError, match="moment order"):
        U01.moment(3, 0.0, 1.0)


def test_normal_moments_closed_form():
    std = NormalDim(mean=0.0, sd=1.0)
    assert std.moment(0, -np.inf, np.inf) == pytest.approx(1.0)
    assert std.moment(1, -np.inf, np.inf) == pytest.approx(0.0, abs=1e-15)
    assert std.moment(2, -np.inf, np.inf) == pytest.approx(1.0)
    assert std.moment(1, 0.0, np.inf) == pytest.approx(0.3989422804014327)


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
        mass = dim._raw_mass(dim.trunc_lo, dim.trunc_hi)
        pdf = lambda x: math.exp(-0.5 * ((x - dim.mean) / dim.sd) ** 2) / (
            dim.sd * math.sqrt(2 * math.pi) * mass
        )
    val, _ = integrate.quad(lambda x: x**r * pdf(x), max(a, lo), min(b, hi))
    assert dim.moment(r, a, b) == pytest.approx(val, abs=1e-12)


@pytest.mark.parametrize("a", [6.0, 8.0, 9.0])
def test_normal_upper_tail_matches_truncnorm(a):
    # ndtr rounds to 1 this far up, so the mass must come from the lower tail
    dim = NormalDim(mean=0.0, sd=1.0, trunc_lo=a)
    ref = truncnorm(a, np.inf)
    for r in (0, 1, 2):
        assert float(dim.moment(r, -np.inf, np.inf)) == pytest.approx(ref.moment(r), rel=1e-12)
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
            mass = dim._raw_mass(0.0, 1.0)
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


def test_cmat_matches_dense_reference_bitwise(small_pair_corpus):
    for mk, ml, prior in _reference_cases(small_pair_corpus):
        for a, b in ((mk, ml), (mk, mk)):
            C = cmat(a, b, prior)
            np.testing.assert_array_equal(C.entries, dense_cmat(a, b, prior))
            assert cmat_trace(a, b, prior) == C.trace


def test_kernel_in_small_passes_is_bitwise_unchanged(monkeypatch):
    # a budget far below one model pair's factor pairs splits each kernel
    # call into many passes of several keys each
    import coactive.closedform as closedform

    mk, ml, prior = _wide_pair()
    Z = expected_gradient(mk, prior)
    monkeypatch.setattr(closedform, "_PAIR_BUDGET", 40)
    for a, b in ((mk, ml), (mk, mk)):
        C = cmat(a, b, prior)
        np.testing.assert_array_equal(C.entries, dense_cmat(a, b, prior))
        assert cmat_trace(a, b, prior) == C.trace
    np.testing.assert_array_equal(expected_gradient(mk, prior), Z)


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
        CoActiveMatrix(entries=np.eye(2), trace=5.0, labels=("a", "b"))
    M = CoActiveMatrix(entries=np.eye(2), trace=2.0, labels=("a", "b"))
    assert not M.entries.flags.writeable
    assert M.p == 2
    with pytest.raises(ValueError):
        CoActiveMatrix(entries=np.ones((2, 3)), trace=2.0, labels=("a", "b"))


def test_matrix_json_round_trip(tmp_path):
    M = CoActiveMatrix(entries=np.array([[1 / 3, 0.1], [np.pi, 2.0]]), trace=1 / 3 + 2.0, labels=("k", "l"))
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


def test_prior_moments_and_covariance():
    prior = InputPrior.uniform_box(UNIT2)
    np.testing.assert_allclose(prior.mean(), [0.5, 0.5])
    np.testing.assert_allclose(prior.covariance(), np.eye(2) / 12.0)
    rng = np.random.default_rng(0)
    X = prior.sample(rng, 1000)
    assert X.shape == (1000, 2) and X.min() >= 0.0 and X.max() <= 1.0
