"""Hinge-spline model: evaluation, gradients, serialization, fitting."""

from __future__ import annotations

import json

import numpy as np
import pytest

from coactive import (
    BasisTerm,
    Ensemble,
    FitConfig,
    HingeFactor,
    MarsSurrogate,
    fit,
    fit_ensemble,
    fit_ensemble_with_report,
    fit_with_report,
    lhs_design,
    load_ensemble,
    load_model,
    save_ensemble,
    save_model,
)
from coactive.model import (
    _design_from_factor_sets,
    cross_validated_rmspe,
    load_training_csv,
    model_from_dict,
    model_to_dict,
)

from mars_reference import loop_gradient

UNIT2 = ((0.0, 1.0), (0.0, 1.0))


def _poly_xy(n=200, seed=11):
    X = lhs_design(n, 2, UNIT2, seed=seed)
    y = X[:, 0] ** 2 + X[:, 0] * X[:, 1]
    return X, y


# -- construction and validation ------------------------------------------


def test_hinge_factor_validation():
    HingeFactor(var=0, sign=1, knot=0.5)
    with pytest.raises(ValueError):
        HingeFactor(var=0, sign=2, knot=0.5)
    with pytest.raises(ValueError):
        HingeFactor(var=-1, sign=1, knot=0.5)
    with pytest.raises(ValueError):
        HingeFactor(var=0, sign=1, knot=float("nan"))


def test_basis_term_rejects_duplicate_variable():
    f1 = HingeFactor(var=0, sign=1, knot=0.2)
    f2 = HingeFactor(var=0, sign=-1, knot=0.8)
    with pytest.raises(ValueError, match="duplicate"):
        BasisTerm(coef=1.0, factors=(f1, f2))
    assert BasisTerm(coef=1.0, factors=(f1,)).degree == 1


def test_surrogate_validation():
    t = BasisTerm(coef=1.0, factors=(HingeFactor(var=0, sign=1, knot=0.5),))
    MarsSurrogate(intercept=0.0, terms=(t,), p=2, domain=UNIT2)
    with pytest.raises(ValueError, match="outside domain"):
        MarsSurrogate(intercept=0.0, terms=(t,), p=2, domain=((0.6, 1.0), (0.0, 1.0)))
    t2 = BasisTerm(coef=1.0, factors=(HingeFactor(var=1, sign=1, knot=0.5),))
    with pytest.raises(ValueError, match="out of range"):
        MarsSurrogate(intercept=0.0, terms=(t2,), p=1, domain=((0.0, 1.0),))
    with pytest.raises(ValueError, match="lo < hi"):
        MarsSurrogate(intercept=0.0, terms=(), p=1, domain=((1.0, 1.0),))


# -- evaluation ------------------------------------------------------------


def test_evaluate_intercept_only():
    m = MarsSurrogate(intercept=2.0, terms=(), p=2, domain=UNIT2)
    assert m.evaluate([0.3, 0.9]) == 2.0
    assert np.array_equal(m.evaluate_batch(np.zeros((4, 2))), np.full(4, 2.0))


def test_evaluate_single_hinge():
    t = BasisTerm(coef=3.0, factors=(HingeFactor(var=0, sign=1, knot=0.25),))
    m = MarsSurrogate(intercept=1.0, terms=(t,), p=2, domain=UNIT2)
    assert m.evaluate([0.75, 0.0]) == pytest.approx(1.0 + 3.0 * 0.5)
    assert m.evaluate([0.1, 0.0]) == 1.0
    # knot at the domain edge makes the hinge linear over the whole box
    lin = BasisTerm(coef=1.0, factors=(HingeFactor(var=0, sign=1, knot=0.0),))
    m2 = MarsSurrogate(intercept=0.0, terms=(lin,), p=2, domain=UNIT2)
    assert m2.evaluate([0.3, 0.8]) == pytest.approx(0.3)


def test_evaluate_interaction_term():
    t = BasisTerm(
        coef=2.0,
        factors=(HingeFactor(var=0, sign=1, knot=0.5), HingeFactor(var=1, sign=-1, knot=0.5)),
    )
    m = MarsSurrogate(intercept=0.0, terms=(t,), p=2, domain=UNIT2)
    assert m.evaluate([0.75, 0.25]) == pytest.approx(2.0 * 0.25 * 0.25)
    assert m.evaluate([0.25, 0.25]) == 0.0
    assert m.evaluate([0.75, 0.75]) == 0.0


def test_call_dispatches_on_ndim():
    t = BasisTerm(coef=1.0, factors=(HingeFactor(var=0, sign=1, knot=0.0),))
    m = MarsSurrogate(intercept=0.0, terms=(t,), p=1, domain=((0.0, 1.0),))
    assert isinstance(m([0.5]), float)
    out = m(np.array([[0.25], [0.5]]))
    assert out.shape == (2,)
    assert out[1] == pytest.approx(0.5)


def test_coefficient_scaling_scales_output():
    rng = np.random.default_rng(0)
    X, y = _poly_xy()
    m = fit(X, y, FitConfig(domain=UNIT2))
    scaled = MarsSurrogate(
        intercept=m.intercept,
        terms=tuple(BasisTerm(coef=2.5 * t.coef, factors=t.factors) for t in m.terms),
        p=m.p,
        domain=m.domain,
    )
    Xq = rng.uniform(size=(50, 2))
    np.testing.assert_allclose(
        scaled.evaluate_batch(Xq) - m.intercept,
        2.5 * (m.evaluate_batch(Xq) - m.intercept),
        rtol=1e-12,
    )


# -- gradients --------------------------------------------------------------


def test_gradient_constant_is_zero():
    m = MarsSurrogate(intercept=5.0, terms=(), p=3, domain=((0.0, 1.0),) * 3)
    assert np.array_equal(m.gradient([0.1, 0.2, 0.3]), np.zeros(3))


def test_gradient_single_hinge():
    t = BasisTerm(coef=2.0, factors=(HingeFactor(var=0, sign=1, knot=0.5),))
    m = MarsSurrogate(intercept=0.0, terms=(t,), p=2, domain=UNIT2)
    np.testing.assert_array_equal(m.gradient([0.75, 0.3]), [2.0, 0.0])
    np.testing.assert_array_equal(m.gradient([0.25, 0.3]), [0.0, 0.0])


def test_gradient_right_continuous_at_knot():
    up = BasisTerm(coef=1.0, factors=(HingeFactor(var=0, sign=1, knot=0.5),))
    dn = BasisTerm(coef=1.0, factors=(HingeFactor(var=0, sign=-1, knot=0.5),))
    m_up = MarsSurrogate(intercept=0.0, terms=(up,), p=1, domain=((0.0, 1.0),))
    m_dn = MarsSurrogate(intercept=0.0, terms=(dn,), p=1, domain=((0.0, 1.0),))
    assert m_up.gradient([0.5])[0] == 1.0
    assert m_dn.gradient([0.5])[0] == 0.0
    assert m_dn.gradient([0.499999])[0] == -1.0


def test_gradient_interaction_product_rule():
    t = BasisTerm(
        coef=3.0,
        factors=(HingeFactor(var=0, sign=1, knot=0.2), HingeFactor(var=1, sign=1, knot=0.4)),
    )
    m = MarsSurrogate(intercept=0.0, terms=(t,), p=2, domain=UNIT2)
    g = m.gradient([0.7, 0.9])
    np.testing.assert_allclose(g, [3.0 * 0.5, 3.0 * 0.5], rtol=1e-15)


def test_gradient_matches_finite_differences():
    X, y = _poly_xy()
    m = fit(X, y, FitConfig(domain=UNIT2))
    knots = sorted({f.knot for t in m.terms for f in t.factors})
    rng = np.random.default_rng(3)
    h = 1e-6
    pts = []
    while len(pts) < 100:
        x = rng.uniform(2 * h, 1.0 - 2 * h, size=2)
        if all(min(abs(x[i] - k) for k in knots) > 2 * h for i in range(2)):
            pts.append(x)
    P = np.array(pts)
    G = m.gradient_batch(P)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (m.evaluate_batch(P + e) - m.evaluate_batch(P - e)) / (2 * h)
        np.testing.assert_allclose(G[:, i], fd, atol=1e-6)


def test_fitted_gradient_close_to_target_gradient():
    X, y = _poly_xy()
    m = fit(X, y, FitConfig(domain=UNIT2))
    g = m.gradient([0.5, 0.5])
    np.testing.assert_allclose(g, [1.5, 0.5], atol=0.05)


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _random_surrogate(rng, X, n_terms, used):
    """Terms of degree 1-4 on the first `used` inputs (the rest unused),
    signed coefficients, and knots taken from the sample coordinates or
    placed on a domain edge."""
    p = X.shape[1]
    terms = []
    for _ in range(n_terms):
        deg = int(rng.integers(1, 5))
        factors = []
        for v in rng.choice(used, size=deg, replace=False):
            u = rng.uniform()
            if u < 0.8:
                knot = float(X[rng.integers(X.shape[0]), v])
            else:
                knot = 1.0 if u < 0.9 else 0.0
            factors.append(HingeFactor(var=int(v), sign=int(rng.choice([-1, 1])), knot=knot))
        terms.append(BasisTerm(coef=float(rng.normal()) * 10.0 ** rng.integers(-3, 3),
                               factors=tuple(factors)))
    return MarsSurrogate(intercept=0.5, terms=tuple(terms), p=p, domain=((0.0, 1.0),) * p)


def _check_against_loop(m, X):
    before = X.copy()
    G = m.gradient_batch(X)
    assert _bitwise_equal(G, loop_gradient(m, X))
    assert G.shape == (X.shape[0], m.p) and G.flags.c_contiguous
    assert not np.shares_memory(G, X)
    assert _bitwise_equal(X, before)


def test_gradient_batch_is_bitwise_the_loop_on_random_models():
    rng = np.random.default_rng(20)
    X = rng.uniform(size=(400, 7))
    for trial in range(12):
        m = _random_surrogate(rng, X, n_terms=int(rng.integers(1, 40)), used=5)
        assert {f.var for t in m.terms for f in t.factors} <= set(range(5))
        assert max(t.degree for t in m.terms) <= 4
        _check_against_loop(m, X)
        G = m.gradient_batch(X)
        assert np.all(G[:, 5:] == 0.0)  # unused inputs


def test_gradient_batch_is_bitwise_the_loop_on_any_layout_and_size():
    rng = np.random.default_rng(21)
    X = rng.uniform(size=(300, 6))
    models = [_random_surrogate(rng, X, n_terms=30, used=6),
              MarsSurrogate(intercept=2.0, terms=(), p=6, domain=((0.0, 1.0),) * 6)]
    for m in models:
        for Y in (X, np.asfortranarray(X), X[::2], X[:0], X[:1], X[:2]):
            _check_against_loop(m, Y)
    assert models[1].gradient_batch(X[:0]).shape == (0, 6)
    assert np.array_equal(models[1].gradient_batch(X), np.zeros((300, 6)))


# -- serialization ----------------------------------------------------------


def _awkward_model():
    terms = (
        BasisTerm(coef=0.1 + 0.2, factors=(HingeFactor(var=0, sign=1, knot=1.0 / 3.0),)),
        BasisTerm(
            coef=-7.213412341e-13,
            factors=(
                HingeFactor(var=0, sign=-1, knot=0.7234092341),
                HingeFactor(var=1, sign=1, knot=np.nextafter(0.5, 1.0)),
            ),
        ),
    )
    return MarsSurrogate(intercept=np.pi, terms=terms, p=2, domain=UNIT2, label="awkward")


def test_json_round_trip_is_exact(tmp_path):
    m = _awkward_model()
    path = tmp_path / "m.json"
    save_model(m, path)
    m2 = load_model(path)
    assert m2.intercept == m.intercept
    assert m2.p == m.p and m2.domain == m.domain and m2.label == m.label
    for t, t2 in zip(m.terms, m2.terms):
        assert t2.coef == t.coef
        assert t2.factors == t.factors
    # a second save writes the same bytes
    path2 = tmp_path / "m2.json"
    save_model(m2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_model_dict_round_trip():
    m = _awkward_model()
    d = model_to_dict(m)
    assert model_from_dict(json.loads(json.dumps(d))).to_dict() == d


def test_load_model_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"intercept": 1.0}')
    with pytest.raises((KeyError, ValueError)):
        load_model(path)


# -- training CSV -----------------------------------------------------------


def test_load_training_csv(tmp_path):
    f = tmp_path / "train.csv"
    f.write_text("x1,x2,y\n0.1,0.2,1.5\n0.3,0.4,2.5\n")
    X, y, names, resp = load_training_csv(f)
    np.testing.assert_array_equal(X, [[0.1, 0.2], [0.3, 0.4]])
    np.testing.assert_array_equal(y, [1.5, 2.5])
    assert names == ["x1", "x2"] and resp == "y"


def test_load_training_csv_response_by_name(tmp_path):
    f = tmp_path / "train.csv"
    f.write_text("y,x1\n1.5,0.1\n2.5,0.3\n")
    X, y, names, resp = load_training_csv(f, response="y")
    np.testing.assert_array_equal(X, [[0.1], [0.3]])
    assert resp == "y" and names == ["x1"]
    with pytest.raises(ValueError, match="response column"):
        load_training_csv(f, response="z")


def test_load_training_csv_malformed_row_reports_line(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("x1,y\n0.1,1.0\n0.2\n")
    with pytest.raises(ValueError, match="line 3"):
        load_training_csv(f)
    g = tmp_path / "nonnum.csv"
    g.write_text("x1,y\n0.1,1.0\n0.2,oops\n")
    with pytest.raises(ValueError, match="line 3: non-numeric"):
        load_training_csv(g)


def test_load_training_csv_empty(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_training_csv(f)
    f.write_text("x1,y\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_training_csv(f)


# -- fitting ----------------------------------------------------------------


def test_fit_recovers_linear_function_exactly():
    X = lhs_design(60, 2, UNIT2, seed=5)
    y = 2.0 * X[:, 0] - 3.0 * X[:, 1] + 1.0
    m = fit(X, y, FitConfig(max_degree=1, domain=UNIT2))
    Xq = np.random.default_rng(9).uniform(size=(100, 2))
    np.testing.assert_allclose(m.evaluate_batch(Xq), 2.0 * Xq[:, 0] - 3.0 * Xq[:, 1] + 1.0, atol=1e-7)


def test_fit_poly_target_accuracy_and_report():
    X, y = _poly_xy()
    m, rep = fit_with_report(X, y, FitConfig(domain=UNIT2))
    assert rep.n == 200 and rep.n_terms == len(m.terms) >= 1
    assert rep.r2 > 0.999
    assert rep.rmse == pytest.approx(np.sqrt(rep.sse / rep.n))
    assert not rep.constant


def test_fit_report_forward_rss_and_backward_gcv_paths():
    X, y = _poly_xy()
    m, rep = fit_with_report(X, y, FitConfig(domain=UNIT2))
    sst = float(np.sum((y - y.mean()) ** 2))
    rss = np.array(rep.forward_rss)
    assert rss[0] == pytest.approx(sst, rel=1e-12)
    assert rss.size >= 2 and np.all(np.diff(rss) <= 0.0)
    # one GCV per subset on the deletion path: all forward terms down to none
    gcv = rep.backward_gcv
    assert len(rss) <= len(gcv) <= 2 * len(rss) - 1  # each step adds one or two terms
    assert len(gcv) >= rep.n_terms + 1
    assert rep.gcv == min(gcv)
    again = fit_with_report(X, y, FitConfig(domain=UNIT2))[1]
    assert again.forward_rss == rep.forward_rss and again.backward_gcv == rep.backward_gcv


def test_fit_constant_report_has_empty_paths():
    X = lhs_design(30, 2, UNIT2, seed=1)
    with pytest.warns(UserWarning, match="zero variance"):
        _, rep = fit_with_report(X, np.full(30, 4.2), FitConfig(domain=UNIT2))
    assert rep.forward_rss == () and rep.backward_gcv == ()


def test_fit_is_deterministic():
    X, y = _poly_xy()
    cfg = FitConfig(domain=UNIT2)
    assert fit(X, y, cfg).to_dict() == fit(X, y, cfg).to_dict()


def test_fit_constant_response_warns():
    X = lhs_design(30, 2, UNIT2, seed=1)
    with pytest.warns(UserWarning, match="zero variance"):
        m, rep = fit_with_report(X, np.full(30, 4.2), FitConfig(domain=UNIT2))
    assert rep.constant and m.terms == () and m.intercept == 4.2


def test_fit_input_validation():
    X, y = _poly_xy(n=30)
    with pytest.raises(ValueError, match="at least"):
        fit(X[:5], y[:5], FitConfig(min_samples=10))
    with pytest.raises(ValueError, match="2-D"):
        fit(y, y)
    with pytest.raises(ValueError, match="rows"):
        fit(X, y[:-1])
    with pytest.raises(ValueError, match="outside declared domain"):
        fit(X, y, FitConfig(domain=((0.0, 0.5), (0.0, 1.0))))


def test_fit_respects_term_budget():
    X, y = _poly_xy()
    m = fit(X, y, FitConfig(max_terms=4, domain=UNIT2))
    assert len(m.terms) <= 4


def test_fit_additive_when_degree_one():
    X, y = _poly_xy()
    m = fit(X, y, FitConfig(max_degree=1, domain=UNIT2))
    assert all(t.degree == 1 for t in m.terms)


def test_refit_in_own_representation_is_exact():
    X, y = _poly_xy()
    m = fit(X, y, FitConfig(domain=UNIT2))
    yhat = m.evaluate_batch(X)
    # the model's design matrix is the fitter's without the intercept
    # column, bitwise, and its coefficient product is the one a contiguous
    # copy gives
    D = m.design_matrix(X)
    B = _design_from_factor_sets(X, [t.factors for t in m.terms])
    np.testing.assert_array_equal(D, B[:, 1:])
    coefs = np.array([t.coef for t in m.terms])
    np.testing.assert_array_equal(yhat, m.intercept + np.ascontiguousarray(D) @ coefs)
    coef, *_ = np.linalg.lstsq(B, yhat, rcond=None)
    again = B @ coef
    scale = max(1.0, float(np.abs(yhat).max()))
    assert np.abs(again - yhat).max() <= 1e-10 * scale


def test_full_refit_to_own_predictions_stays_close():
    X, y = _poly_xy()
    cfg = FitConfig(domain=UNIT2)
    m = fit(X, y, cfg)
    yhat = m.evaluate_batch(X)
    m2 = fit(X, yhat, cfg)
    rel = np.sqrt(np.mean((m2.evaluate_batch(X) - yhat) ** 2)) / np.std(yhat)
    assert rel < 0.05


def test_span_guard_overrides():
    X, y = _poly_xy(n=60)
    m_tight = fit(X, y, FitConfig(domain=UNIT2, endspan=20, minspan=20))
    m_loose = fit(X, y, FitConfig(domain=UNIT2, endspan=0, minspan=1))
    knots = {f.knot for t in m_tight.terms for f in t.factors}
    assert len(knots) <= len({f.knot for t in m_loose.terms for f in t.factors})


# -- ensembles ---------------------------------------------------------------


def test_fit_ensemble_member0_is_full_fit():
    X, y = _poly_xy(n=80)
    cfg = FitConfig(domain=UNIT2, label="poly")
    ens = fit_ensemble(X, y, cfg, B=3, seed=42)
    assert len(ens) == 3
    assert ens.members[0].to_dict() == fit(X, y, cfg).to_dict()
    assert ens.p == 2 and ens.domain == UNIT2


def test_fit_ensemble_with_report_pairs_members_and_reports():
    X, y = _poly_xy(n=80)
    cfg = FitConfig(domain=UNIT2, label="poly")
    ens, reports = fit_ensemble_with_report(X, y, cfg, B=3, seed=42)
    # member 0 is the full-data fit, then one bootstrap draw per member
    rng = np.random.default_rng(42)
    samples = [np.arange(80)] + [rng.integers(0, 80, size=80) for _ in range(2)]
    assert len(reports) == 3
    for m, rep, rows in zip(ens.members, reports, samples):
        ref, ref_rep = fit_with_report(X[rows], y[rows], cfg)
        assert m.to_dict() == ref.to_dict() and rep == ref_rep


def test_fit_ensemble_reproducible_and_validated():
    X, y = _poly_xy(n=80)
    cfg = FitConfig(domain=UNIT2)
    e1 = fit_ensemble(X, y, cfg, B=3, seed=7)
    e2 = fit_ensemble(X, y, cfg, B=3, seed=7)
    assert [m.to_dict() for m in e1.members] == [m.to_dict() for m in e2.members]
    with pytest.raises(ValueError, match="B must be"):
        fit_ensemble(X, y, cfg, B=0, seed=7)


def test_ensemble_save_load_round_trip(tmp_path):
    X, y = _poly_xy(n=80)
    ens = fit_ensemble(X, y, FitConfig(domain=UNIT2, label="ens"), B=2, seed=1)
    save_ensemble(ens, tmp_path / "ens")
    back = load_ensemble(tmp_path / "ens")
    assert [m.to_dict() for m in back.members] == [m.to_dict() for m in ens.members]


def test_ensemble_requires_consistent_members():
    m1 = MarsSurrogate(intercept=0.0, terms=(), p=2, domain=UNIT2)
    m2 = MarsSurrogate(intercept=0.0, terms=(), p=1, domain=((0.0, 1.0),))
    with pytest.raises(ValueError):
        Ensemble(members=(m1, m2), label="bad")
    with pytest.raises(ValueError):
        Ensemble(members=(), label="empty")


# -- cross-validation ---------------------------------------------------------


def test_cv_rmspe_small_for_learnable_target():
    X, y = _poly_xy(n=120)
    val = cross_validated_rmspe(X, y, FitConfig(domain=UNIT2), k=5)
    assert 0.0 <= val < 0.2


def test_cv_rmspe_is_dimensionless():
    # reported on the unit-variance scale, so rescaling y moves the value
    # only through floating-point tie flips in the greedy selection
    X, y = _poly_xy(n=120)
    cfg = FitConfig(domain=UNIT2)
    a = cross_validated_rmspe(X, y, cfg, k=4)
    b = cross_validated_rmspe(X, 5.0 * y, cfg, k=4)
    assert a < 0.05 and b < 0.05
    assert b == pytest.approx(a, rel=0.5)
