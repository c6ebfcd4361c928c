"""Hinge-spline model: evaluation, gradients, serialization, fitting."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import coactive
from coactive import (
    BasisTerm,
    Ensemble,
    FitConfig,
    HingeFactor,
    InputPrior,
    MarsSurrogate,
    NormalDim,
    UniformDim,
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
    _CHUNK_CELLS,
    _design_from_factor_sets,
    cross_validated_rmspe,
    load_training_csv,
    model_from_dict,
    model_to_dict,
)
from coactive.montecarlo import SampledFunction, _chunk_rows, mc_cmat

from mars_reference import loop_gradient
from mc_reference import whole_sample_mc

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


@pytest.mark.parametrize("entries", [1, 3])
def test_surrogate_refuses_a_domain_of_another_length(entries):
    with pytest.raises(ValueError, match=f"^domain has {entries} entries for p=2$"):
        MarsSurrogate(intercept=0.0, terms=(), p=2, domain=((0.0, 1.0),) * entries)


# -- evaluation ------------------------------------------------------------


def test_evaluate_intercept_only():
    m = MarsSurrogate(intercept=2.0, terms=(), p=2, domain=UNIT2)
    assert m.evaluate_batch([[0.3, 0.9]])[0] == 2.0
    assert np.array_equal(m.evaluate_batch(np.zeros((4, 2))), np.full(4, 2.0))


def test_evaluate_single_hinge():
    t = BasisTerm(coef=3.0, factors=(HingeFactor(var=0, sign=1, knot=0.25),))
    m = MarsSurrogate(intercept=1.0, terms=(t,), p=2, domain=UNIT2)
    assert m.evaluate_batch([[0.75, 0.0]])[0] == pytest.approx(1.0 + 3.0 * 0.5)
    assert m.evaluate_batch([[0.1, 0.0]])[0] == 1.0
    # knot at the domain edge makes the hinge linear over the whole box
    lin = BasisTerm(coef=1.0, factors=(HingeFactor(var=0, sign=1, knot=0.0),))
    m2 = MarsSurrogate(intercept=0.0, terms=(lin,), p=2, domain=UNIT2)
    assert m2.evaluate_batch([[0.3, 0.8]])[0] == pytest.approx(0.3)


def test_evaluate_interaction_term():
    t = BasisTerm(
        coef=2.0,
        factors=(HingeFactor(var=0, sign=1, knot=0.5), HingeFactor(var=1, sign=-1, knot=0.5)),
    )
    m = MarsSurrogate(intercept=0.0, terms=(t,), p=2, domain=UNIT2)
    assert m.evaluate_batch([[0.75, 0.25]])[0] == pytest.approx(2.0 * 0.25 * 0.25)
    assert m.evaluate_batch([[0.25, 0.25]])[0] == 0.0
    assert m.evaluate_batch([[0.75, 0.75]])[0] == 0.0


def test_evaluate_batch_of_two_rows():
    t = BasisTerm(coef=1.0, factors=(HingeFactor(var=0, sign=1, knot=0.0),))
    m = MarsSurrogate(intercept=0.0, terms=(t,), p=1, domain=((0.0, 1.0),))
    out = m.evaluate_batch(np.array([[0.25], [0.5]]))
    assert out.shape == (2,)
    assert out[1] == pytest.approx(0.5)


def test_evaluate_batch_in_row_blocks_is_the_one_product():
    # 94 terms: blocks of 1,724 rows. At n = 100,000 the one product's
    # design matrix is 76 MB.
    rng = np.random.default_rng(3)
    m = _random_surrogate(rng, rng.uniform(size=(200, 5)), n_terms=94, used=5)
    coefs = np.array([t.coef for t in m.terms])
    rows = _CHUNK_CELLS // 95
    for n in (0, 1, rows, rows + 1, 5000, 100_000):
        X = np.random.default_rng(n).uniform(size=(n, 5))
        ref = m.intercept + m.design_matrix(X) @ coefs
        np.testing.assert_array_equal(m.evaluate_batch(X), ref)
        np.testing.assert_array_equal(m.evaluate_batch(np.asfortranarray(X)), ref)
    tracemalloc.start()
    try:
        m.evaluate_batch(X)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 4.0, f"evaluate_batch(1e5 rows) peaked at {peak:.1f} MiB"


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
    assert np.array_equal(m.gradient_batch([[0.1, 0.2, 0.3]])[0], np.zeros(3))


def test_gradient_single_hinge():
    t = BasisTerm(coef=2.0, factors=(HingeFactor(var=0, sign=1, knot=0.5),))
    m = MarsSurrogate(intercept=0.0, terms=(t,), p=2, domain=UNIT2)
    np.testing.assert_array_equal(m.gradient_batch([[0.75, 0.3]])[0], [2.0, 0.0])
    np.testing.assert_array_equal(m.gradient_batch([[0.25, 0.3]])[0], [0.0, 0.0])


def test_gradient_right_continuous_at_knot():
    up = BasisTerm(coef=1.0, factors=(HingeFactor(var=0, sign=1, knot=0.5),))
    dn = BasisTerm(coef=1.0, factors=(HingeFactor(var=0, sign=-1, knot=0.5),))
    m_up = MarsSurrogate(intercept=0.0, terms=(up,), p=1, domain=((0.0, 1.0),))
    m_dn = MarsSurrogate(intercept=0.0, terms=(dn,), p=1, domain=((0.0, 1.0),))
    assert m_up.gradient_batch([[0.5]])[0, 0] == 1.0
    assert m_dn.gradient_batch([[0.5]])[0, 0] == 0.0
    assert m_dn.gradient_batch([[0.499999]])[0, 0] == -1.0


def test_gradient_interaction_product_rule():
    t = BasisTerm(
        coef=3.0,
        factors=(HingeFactor(var=0, sign=1, knot=0.2), HingeFactor(var=1, sign=1, knot=0.4)),
    )
    m = MarsSurrogate(intercept=0.0, terms=(t,), p=2, domain=UNIT2)
    g = m.gradient_batch([[0.7, 0.9]])[0]
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
    g = m.gradient_batch([[0.5, 0.5]])[0]
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


def test_gradient_batch_on_knots_is_bitwise_the_loop():
    # every coordinate sits on a knot of its input: a minus hinge is +0.0
    # there, where the loop's sign * (x - t) is -0.0; G starts at +0.0 and
    # adding a zero of either sign leaves it as it was
    rng = np.random.default_rng(22)
    m = _random_surrogate(rng, rng.uniform(size=(50, 4)), n_terms=40, used=4)
    knots = [[f.knot for t in m.terms for f in t.factors if f.var == v] for v in range(4)]
    X = np.column_stack([rng.choice(k, size=300) for k in knots])
    on = [(t, f) for t in m.terms for f in t.factors if f.sign < 0 and t.degree > 1]
    assert any(np.any(X[:, f.var] == f.knot) for _, f in on)
    assert m.gradient_batch(X).tobytes() == loop_gradient(m, X).tobytes()


def _term(coef, *factors):
    return BasisTerm(coef=coef, factors=tuple(HingeFactor(v, s, t) for v, s, t in factors))


def test_gradient_batch_on_empty_and_full_supports_is_bitwise_the_loop():
    # inputs in [0.2, 0.8]: no row reaches x0 >= 0.9 or x2 < 0.1, and every
    # row has x0 >= 0.1, x1 < 0.9, x2 >= 0.15 and x3 < 0.85
    rng = np.random.default_rng(23)
    X = rng.uniform(0.2, 0.8, size=(500, 4))
    empty = (_term(-1.5, (0, 1, 0.9), (1, -1, 0.5)),
             _term(2.5, (3, 1, 0.3), (1, -1, 0.5), (2, -1, 0.1)))
    full = (_term(-0.75, (0, 1, 0.1), (1, -1, 0.9), (2, 1, 0.15)),
            _term(3.0, (3, -1, 0.85), (0, 1, 0.05)))
    constant = (_term(0.5),)  # degree 0: the loop adds nothing
    for terms in (empty, full, constant, empty + full + constant + (_term(-2.0, (1, 1, 0.4)),)):
        m = MarsSurrogate(intercept=0.0, terms=terms, p=4, domain=((0.0, 1.0),) * 4)
        _check_against_loop(m, X)
    for terms in (empty, constant):
        m = MarsSurrogate(intercept=0.0, terms=terms, p=4, domain=((0.0, 1.0),) * 4)
        assert m.gradient_batch(X).tobytes() == np.zeros((500, 4)).tobytes()  # no -0.0
    m = MarsSurrogate(intercept=0.0, terms=full, p=4, domain=((0.0, 1.0),) * 4)
    assert np.all(m.gradient_batch(X) != 0.0)


def test_gradient_batch_rows_do_not_depend_on_their_block():
    rng = np.random.default_rng(24)
    X = rng.uniform(size=(1000, 6))
    m = _random_surrogate(rng, X, n_terms=40, used=6)
    whole = m.gradient_batch(X).tobytes()
    for rows in (1, 7, 256):
        blocks = [m.gradient_batch(X[a:a + rows]) for a in range(0, X.shape[0], rows)]
        assert np.concatenate(blocks).tobytes() == whole


def test_mc_cmat_on_surrogates_is_bitwise_the_loop_gradient_estimate():
    # mc_cmat streams gradient_batch over chunks of 6,656 rows; B is not a
    # multiple of that, and whole_sample_mc takes every gradient from the loop
    rng = np.random.default_rng(25)
    p = 24
    models = []
    for label in ("a", "b"):
        terms = []
        for _ in range(60):
            deg = int(rng.choice([1, 2, 3], p=[0.4, 0.4, 0.2]))
            terms.append(_term(float(rng.normal()), *(
                (int(v), int(rng.choice([-1, 1])), float(rng.uniform(0.05, 0.95)))
                for v in rng.choice(p, size=deg, replace=False))))
        models.append(MarsSurrogate(intercept=0.0, terms=tuple(terms), p=p,
                                    domain=((0.0, 1.0),) * p, label=label))
    prior = InputPrior([NormalDim(0.5, 0.25, 0.0, 1.0) if i % 3 == 2 else UniformDim(0.0, 1.0)
                        for i in range(p)])
    fk, fl = (SampledFunction.from_surrogate(m) for m in models)
    rk, rl = (replace(f, grad=lambda X, m=m: loop_gradient(m, X)) for f, m in zip((fk, fl), models))
    B = 2 * 6656 + 1001
    assert _chunk_rows((fk, fl)) == 6656
    for (a, b), (ra, rb) in (((fk, fl), (rk, rl)), ((fk, fk), (rk, rk))):
        res = mc_cmat(a, b, prior, B=B, seed=4)
        mean, se, _, _ = whole_sample_mc(ra, rb, prior, B, seed=4)
        assert res.matrix.entries.tobytes() == mean.tobytes()
        assert res.se.tobytes() == se.tobytes()


@pytest.mark.parametrize("method", ["gradient_batch", "evaluate_batch", "design_matrix"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batch_methods_refuse_a_non_finite_entry(method, bad):
    m = _awkward_model()
    X = np.full((5, 2), 0.5)
    X[3, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        getattr(m, method)(X)


@pytest.mark.parametrize("method", ["gradient_batch", "evaluate_batch"])
def test_batch_methods_refuse_a_batch_of_another_width(method):
    with pytest.raises(ValueError, match=r"^expected input of shape \(n, 2\), got \(5, 3\)$"):
        getattr(_awkward_model(), method)(np.full((5, 3), 0.5))


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


@pytest.mark.parametrize("path, value", [
    (("intercept",), float("nan")),
    (("terms", 0, "coef"), float("nan")),
    (("terms", 0, "coef"), float("inf")),
    (("domain", 1, 1), float("inf")),
    (("domain", 0, 0), float("-inf")),
])
def test_model_refuses_non_finite_numbers(path, value):
    d = model_to_dict(_awkward_model())
    model_from_dict(d)
    *head, last = path
    node = d
    for key in head:
        node = node[key]
    node[last] = value
    with pytest.raises(ValueError, match="must be finite"):
        model_from_dict(json.loads(json.dumps(d)))


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


@pytest.mark.parametrize("row, column", [("0.2,nan", "y"), ("inf,1.0", "x1"), ("nan,1.0", "x1")])
def test_load_training_csv_refuses_a_non_finite_field(tmp_path, row, column):
    f = tmp_path / "bad.csv"
    f.write_text(f"x1,y\n0.1,1.0\n\n{row}\n")
    with pytest.raises(ValueError, match=f"line 4: non-finite value in column '{column}'"):
        load_training_csv(f)


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


def test_fit_runs_at_the_edge_settings():
    # the least settings FitConfig accepts: no terms gives the intercept,
    # and a negative penalty rewards terms rather than refusing
    X, y = _poly_xy()
    assert fit_with_report(X, y, FitConfig(max_terms=0, domain=UNIT2))[1].n_terms == 0
    for cfg in (FitConfig(max_degree=1, max_knots=1, domain=UNIT2),
                FitConfig(penalty=-2.0, domain=UNIT2)):
        assert fit_with_report(X, y, cfg)[1].n_terms >= 1


def test_fit_constant_report_has_empty_paths():
    X = lhs_design(30, 2, UNIT2, seed=1)
    with pytest.warns(UserWarning, match="zero variance"):
        _, rep = fit_with_report(X, np.full(30, 4.2), FitConfig(domain=UNIT2))
    assert rep.forward_rss == () and rep.backward_gcv == ()


def test_fit_with_no_eligible_knot_is_the_intercept():
    # n=10 and p=5 give endspan 10, so no input offers a knot: the scan has
    # no candidate and the fit stops at the intercept-only model
    X = np.random.default_rng(3).uniform(size=(10, 5))
    y = X[:, 0] + X[:, 1] ** 2
    m, rep = fit_with_report(X, y)
    assert m.terms == () and rep.n_terms == 0 and rep.constant is False
    assert m.intercept == pytest.approx(y.mean(), rel=1e-12)
    sst = float(np.sum((y - y.mean()) ** 2))
    assert len(rep.forward_rss) == 1 and rep.forward_rss[0] == pytest.approx(sst, rel=1e-12)
    assert rep.sse == pytest.approx(sst, rel=1e-12)


def test_fit_is_deterministic():
    X, y = _poly_xy()
    cfg = FitConfig(domain=UNIT2)
    assert fit(X, y, cfg).to_dict() == fit(X, y, cfg).to_dict()


THREADS_SCRIPT = """
import json
import numpy as np
from coactive import FitConfig, fit_with_report, lhs_design, piston
from coactive.model import model_to_dict
fa = piston(90000.0, 284.0)
X = lhs_design(1000, fa.p, fa.domain, seed=20260814)
cfg = FitConfig(max_terms=120, max_degree=4, max_knots=128, domain=fa.domain)
Xb = np.random.default_rng(3).uniform(size=(12_000, 3))
yb = np.sin(3 * Xb[:, 0]) * Xb[:, 1] + Xb[:, 2] ** 2
fits = [fit_with_report(X, fa(X), cfg),
        fit_with_report(Xb, yb, FitConfig(max_terms=21, max_degree=2))]
print(json.dumps([model_to_dict(m) for m, _ in fits], sort_keys=True))
print(repr([rep for _, rep in fits]))
"""


def test_fit_bytes_do_not_depend_on_the_blas_thread_count():
    # verify piston's fit (1000 rows, 121 columns) and a 12,000-row fit, in
    # fresh processes under one and two OpenBLAS threads, give the same model
    # and report bytes; OpenBLAS splits a dot product over its threads from
    # 10,001 elements on, which once moved the forward RSS path
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        pytest.skip("needs two CPUs")
    src = os.path.dirname(os.path.dirname(coactive.__file__))
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        res = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0].count("\n") == 2 and outs[0] == outs[1]


def test_fit_constant_response_warns():
    X = lhs_design(30, 2, UNIT2, seed=1)
    with pytest.warns(UserWarning, match="zero variance"):
        m, rep = fit_with_report(X, np.full(30, 4.2), FitConfig(domain=UNIT2))
    assert rep.constant and m.terms == () and m.intercept == 4.2


def test_fit_input_validation():
    X, y = _poly_xy(n=30)
    with pytest.raises(ValueError, match="at least"):
        fit(X[:9], y[:9])
    with pytest.raises(ValueError, match="2-D"):
        fit(y, y)
    with pytest.raises(ValueError, match="rows"):
        fit(X, y[:-1])
    with pytest.raises(ValueError, match="outside declared domain"):
        fit(X, y, FitConfig(domain=((0.0, 0.5), (0.0, 1.0))))


@pytest.mark.parametrize("entries", [1, 3])
def test_fit_refuses_a_domain_of_another_length_before_fitting(entries, monkeypatch):
    # a shorter domain raised a bare IndexError, and a longer one was
    # refused only by the model built after a whole fit
    import coactive.model

    def no_pass(*args):
        raise AssertionError("forward pass ran")

    monkeypatch.setattr(coactive.model, "_forward_pass", no_pass)
    X, y = _poly_xy(n=30)
    cfg = FitConfig(domain=((0.0, 1.0),) * entries)
    msg = f"the fit domain has {entries} entries but X has 2 columns"
    with pytest.raises(ValueError, match=msg):
        fit_with_report(X, y, cfg)
    with pytest.raises(ValueError, match=msg):
        fit_ensemble(X, y, cfg, B=2, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_refuses_non_finite_data(bad):
    # a NaN response once gave a constant model with a NaN intercept, and an
    # infinite input a model with an infinite domain bound
    X, y = _poly_xy(n=30)
    Xb, yb = X.copy(), y.copy()
    Xb[3, 1], yb[3] = bad, bad
    with pytest.raises(ValueError, match="X has non-finite values"):
        fit_with_report(Xb, y)
    with pytest.raises(ValueError, match="y has non-finite values"):
        fit_with_report(X, yb)
    with pytest.raises(ValueError, match="X has non-finite values"):
        fit_ensemble(Xb, y, FitConfig(), B=2, seed=0)


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


def test_fit_ensemble_widens_a_constant_column_as_fit_does():
    X, y = _poly_xy(n=80)
    X = np.column_stack([X, np.full(80, 0.5)])  # a third input held at 0.5
    cfg = FitConfig(label="const")
    ens = fit_ensemble(X, y, cfg, B=2, seed=3)
    single = fit(X, y, cfg)
    assert single.domain[2] == (0.5, 1.5)
    assert ens.members[0].to_dict() == single.to_dict()
    assert all(m.domain == single.domain for m in ens.members)


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


def test_save_ensemble_over_a_larger_one_leaves_only_its_members(tmp_path):
    X, y = _poly_xy(n=80)
    cfg = FitConfig(domain=UNIT2, label="ens")
    out = tmp_path / "ens"
    save_ensemble(fit_ensemble(X, y, cfg, B=4, seed=1), out)
    (out / "report.json").write_text("{}\n")
    small = fit_ensemble(X, y, cfg, B=2, seed=2)
    written = save_ensemble(small, out)
    assert written == [os.path.join(out, f"member_{i:03d}.json") for i in range(2)]
    assert sorted(os.listdir(out)) == ["member_000.json", "member_001.json", "report.json"]
    back = load_ensemble(out)
    assert [m.to_dict() for m in back.members] == [m.to_dict() for m in small.members]


def test_load_ensemble_reads_member_files_in_member_order(tmp_path):
    # other JSON files are not models; member_1000 follows member_999
    X, y = _poly_xy(n=80)
    ens = fit_ensemble(X, y, FitConfig(domain=UNIT2), B=2, seed=1)
    for name, m in (("member_999.json", ens.members[0]), ("member_1000.json", ens.members[1])):
        save_model(m, tmp_path / name)
    (tmp_path / "settings.json").write_text('{"note": "x"}\n')
    back = load_ensemble(tmp_path)
    assert [m.to_dict() for m in back.members] == [m.to_dict() for m in ens.members]
    (tmp_path / "member_999.json").unlink()
    (tmp_path / "member_1000.json").unlink()
    with pytest.raises(ValueError, match="no member_NNN.json model files"):
        load_ensemble(tmp_path)


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


@pytest.mark.parametrize("k", [1, 0, -3])
def test_cv_rmspe_refuses_fewer_than_two_folds_before_fitting(k, monkeypatch):
    import coactive.model

    def no_fit(*args, **kwargs):
        raise AssertionError("fit called")

    monkeypatch.setattr(coactive.model, "fit", no_fit)
    X, y = _poly_xy(n=40)
    with pytest.raises(ValueError, match=rf"^k-fold CV needs k >= 2 folds, got {k}$"):
        cross_validated_rmspe(X, y, FitConfig(domain=UNIT2), k=k)


def test_cv_rmspe_of_a_constant_response_is_zero():
    X, _ = _poly_xy(n=40)
    with pytest.warns(UserWarning, match="zero variance"):
        assert cross_validated_rmspe(X, np.full(40, 3.0), FitConfig(domain=UNIT2), k=4) == 0.0


def test_cv_rmspe_is_dimensionless():
    # reported on the unit-variance scale, so rescaling y moves the value
    # only through floating-point tie flips in the greedy selection
    X, y = _poly_xy(n=120)
    cfg = FitConfig(domain=UNIT2)
    a = cross_validated_rmspe(X, y, cfg, k=4)
    b = cross_validated_rmspe(X, 5.0 * y, cfg, k=4)
    assert a < 0.05 and b < 0.05
    assert b == pytest.approx(a, rel=0.5)
