"""Sampling designs, finite differences, and the MC matrix estimator."""

from __future__ import annotations

import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from coactive import (
    FitConfig,
    InputPrior,
    NormalDim,
    UniformDim,
    fit,
    lhs_design,
    mc_cmat,
    cmat,
)
from coactive.model import _CHUNK_CELLS
from coactive.montecarlo import (
    SampledFunction,
    _LHS_REFINE,
    _chunk_rows,
    builtin_functions,
    linear_function,
    piston,
    poly_pair,
)
from mc_reference import loop_fd_gradients, replay_lhs_design, whole_sample_mc

UNIT2 = ((0.0, 1.0), (0.0, 1.0))

BOX6 = (
    (1.785, 1.895),
    (8.268, 8.780),
    (0.177, 0.187),
    (4.414, 4.686),
    (1.261, 1.339),
    (0.369, 0.391),
)


# -- Latin hypercube designs ---------------------------------------------------


def test_lhs_stratification_unit_interval():
    X = lhs_design(8, 1, ((0.0, 1.0),), seed=3)
    strata = np.sort(np.floor(X[:, 0] * 8).astype(int))
    np.testing.assert_array_equal(strata, np.arange(8))


def test_lhs_respects_arbitrary_box():
    X = lhs_design(500, 6, BOX6, seed=0)
    assert X.shape == (500, 6)
    for j, (lo, hi) in enumerate(BOX6):
        assert X[:, j].min() >= lo and X[:, j].max() <= hi
        strata = np.sort(np.floor((X[:, j] - lo) / (hi - lo) * 500).astype(int))
        np.testing.assert_array_equal(strata, np.arange(500))


def test_lhs_deterministic_per_seed():
    a = lhs_design(40, 3, ((0.0, 1.0),) * 3, seed=9)
    b = lhs_design(40, 3, ((0.0, 1.0),) * 3, seed=9)
    c = lhs_design(40, 3, ((0.0, 1.0),) * 3, seed=10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_lhs_maximin_refinement_improves_separation(monkeypatch):
    from coactive import montecarlo

    monkeypatch.setattr(montecarlo, "_LHS_REFINE", 0)
    base = lhs_design(30, 2, UNIT2, seed=4)
    monkeypatch.setattr(montecarlo, "_LHS_REFINE", 300)
    refined = lhs_design(30, 2, UNIT2, seed=4)

    def min_dist(X):
        d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
        return d[np.triu_indices_from(d, k=1)].min()

    assert min_dist(refined) >= min_dist(base)


def test_lhs_validation():
    with pytest.raises(ValueError):
        lhs_design(0, 2, UNIT2, seed=1)
    with pytest.raises(ValueError):
        lhs_design(10, 2, ((0.0, 1.0),), seed=1)


def test_lhs_design_matches_the_whole_table_replay():
    # seeds 0, 27 and 117 of (150, 3) each meet a swap whose two rows are
    # each other's nearest: it leaves their distance as it was, so it is
    # undone, while a table filled in another summation form can hold that
    # distance one ulp lower and count the swap as a gain
    cases = [(150, ((0.0, 1.0),) * 3, seed) for seed in (0, 1, 27, 117)] + [(40, BOX6, 3)]
    for n, domain, seed in cases:
        np.testing.assert_array_equal(
            lhs_design(n, len(domain), domain, seed=seed),
            replay_lhs_design(n, len(domain), domain, seed, _LHS_REFINE),
        )


def _traced_peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_lhs_design_working_memory():
    # the one-shot (n, n, p) difference array alone was 13.7 MiB here, and
    # the traced peak 16.5 MiB; an (n, n) distance table would be 2.7 MiB
    peak = _traced_peak_mib(lambda: lhs_design(600, 5, ((0.0, 1.0),) * 5, seed=1))
    assert peak < 8.0, f"lhs_design(600, 5) peaked at {peak:.1f} MiB"


def test_lhs_design_keeps_no_distance_table():
    # an (n, n) table of squared distances would be 69 MiB here
    peak = _traced_peak_mib(lambda: lhs_design(3000, 5, ((0.0, 1.0),) * 5, seed=1))
    assert peak < 1.0, f"lhs_design(3000, 5) peaked at {peak:.2f} MiB"


# -- finite differences ---------------------------------------------------------


def _fd(evaluator, x, domain=UNIT2):
    """The finite-difference gradient at one point, without an analytic one."""
    f = SampledFunction(evaluator=evaluator, p=len(domain), domain=domain)
    return f.gradients(np.asarray(x, dtype=float)[None, :])[0][0]


def test_fd_gradient_linear():
    np.testing.assert_allclose(_fd(lambda X: 3.0 * X[:, 0], [0.4, 0.6]), [3.0, 0.0], atol=1e-9)


def test_fd_gradient_quadratic_is_exact_centered():
    g = _fd(lambda X: X[:, 0] ** 2, [0.5, 0.25])
    np.testing.assert_allclose(g, [1.0, 0.0], atol=1e-10)


def test_fd_gradient_one_sided_at_boundary():
    square = lambda X: X[:, 0] ** 2
    assert _fd(square, [1.0, 0.5])[0] == pytest.approx(2.0, abs=1e-4)
    assert _fd(square, [0.0, 0.5])[0] == pytest.approx(0.0, abs=1e-4)


def test_sampled_function_wrapper():
    fa, fb = poly_pair(3.0)
    assert fa(np.array([[0.5, 0.5]])) == pytest.approx([0.5])
    batch = fb(np.array([[0.5, 0.5], [1.0, 1.0]]))
    assert batch.shape == (2,)
    assert batch[1] == pytest.approx(2.0 + 3.0)
    G, ones = fa.gradients(np.array([[0.5, 0.5]]))
    np.testing.assert_allclose(G, [[1.5, 0.5]])
    assert ones == 0  # analytic gradient, no FD fallback


def test_sampled_function_fd_path_counts_onesided():
    # the step is 1e-5 of each input's range
    f = SampledFunction(evaluator=lambda X: X[:, 0] ** 2, p=1, domain=((0.0, 2.0),))
    G, ones = f.gradients(np.array([[0.5], [2.0]]))
    assert ones == 1
    np.testing.assert_allclose(G[:, 0], [1.0, 4.0], atol=1e-4)
    np.testing.assert_array_equal(f.steps(), [2e-5])
    np.testing.assert_array_equal(piston().steps(), [1e-5] * 5)


def _view_function():
    # X[:, 0] is a view of the stepped input, not a copy of its values
    return SampledFunction(evaluator=lambda X: X[:, 0], p=2, domain=UNIT2)


VIEW_POINTS = np.array([[0.25, 0.5], [0.5, 1.0], [1.0, 0.75]])


def test_fd_gradients_of_an_evaluator_that_returns_a_view():
    G, ones = _view_function().gradients(VIEW_POINTS)
    assert ones == 2
    np.testing.assert_allclose(G, [[1.0, 0.0]] * 3, rtol=1e-9)


def _boundary_points(domain, rng):
    """Interior rows, then one row per domain bound with that input on it,
    then the two corners."""
    lo = np.array([d[0] for d in domain])
    hi = np.array([d[1] for d in domain])
    p = lo.shape[0]
    rows = [lo + (hi - lo) * rng.uniform(0.1, 0.9, size=(40, p))]
    for j in range(p):
        for bound in (lo, hi):
            x = lo + (hi - lo) * rng.uniform(0.1, 0.9, size=p)
            x[j] = bound[j]
            rows.append(x[None, :])
    rows += [lo[None, :], hi[None, :]]
    return np.vstack(rows)


@pytest.mark.parametrize("case", ["piston", "piston boundary", "box boundary", "view"])
def test_stacked_fd_gradients_match_the_column_loop_bitwise(case):
    rng = np.random.default_rng(17)
    if case == "view":
        f, X = _view_function(), VIEW_POINTS
    elif case == "box boundary":
        f = SampledFunction(evaluator=lambda X: np.exp(X).prod(axis=1) + X[:, 0] * X[:, 2],
                            p=3, domain=((-1.0, 2.0), (0.5, 0.75), (10.0, 30.0)))
        X = _boundary_points(f.domain, rng)
    else:
        f = piston(110000.0, 302.0)
        X = rng.uniform(size=(500, 5)) if case == "piston" else _boundary_points(f.domain, rng)
    G, ones = f.gradients(X)
    G_ref, ones_ref = loop_fd_gradients(f.evaluator, X, f.steps(), f.domain)
    np.testing.assert_array_equal(G, G_ref)
    assert ones == ones_ref
    assert G.flags.c_contiguous
    if case != "piston":
        assert ones > 0


def test_piston_gradient_matches_symbolic():
    import sympy as sp

    u = sp.symbols("u0:5", real=True)
    ranges = [(30, 60), (0.005, 0.020), (0.002, 0.010), (1000, 5000), (340, 360)]
    M, S, V0, k, T0 = [lo + ui * (hi - lo) for ui, (lo, hi) in zip(u, ranges)]
    for p0, ta in [(90000.0, 284.0), (110000.0, 302.0)]:
        A = p0 * S + 19.62 * M - k * V0 / S
        V = S / (2 * k) * (sp.sqrt(A**2 + 4 * k * p0 * V0 * ta / T0) - A)
        T = 120 * sp.pi * sp.sqrt(M / (k + S**2 * p0 * V0 * ta / (T0 * V**2)))
        grads = sp.lambdify(u, [sp.diff(T, ui) for ui in u], "numpy")
        value = sp.lambdify(u, T, "numpy")
        fn = piston(p0, ta)
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.uniform(0.05, 0.95, size=5)
            assert fn(x[None, :]) == pytest.approx([float(value(*x))], rel=1e-12)
            ref = np.array(grads(*x), dtype=float)
            got = _fd(fn.evaluator, x, fn.domain)
            np.testing.assert_allclose(got, ref, atol=1e-6 * max(1.0, np.abs(ref).max()))


# -- MC estimator ----------------------------------------------------------------


def test_mc_linear_function_is_exact_for_any_budget():
    a = np.array([1.0, -2.0, 3.0])
    f = linear_function(a)
    prior = InputPrior.uniform_box(((0.0, 1.0),) * 3)
    res = mc_cmat(f, f, prior, B=8, seed=0)
    np.testing.assert_allclose(res.matrix.entries, np.outer(a, a), rtol=1e-12)
    assert np.abs(res.se).max() <= 1e-12
    assert res.h is None and res.n_onesided == 0


def test_mc_poly_pair_within_sampling_error():
    fa, fb = poly_pair(3.0)
    prior = InputPrior.uniform_box(UNIT2)
    exact = np.array([[8 / 3, 11 / 12 + 1.75 * 3], [11 / 12, 1 / 3 + 1.5]])
    res = mc_cmat(fa, fb, prior, B=40_000, seed=77)
    assert np.all(np.abs(res.matrix.entries - exact) <= 4.0 * res.se + 1e-12)
    assert res.matrix.labels == ("poly-f1", "poly-f2-beta3")


def test_mc_self_matrix_symmetric_psd():
    _, fb = poly_pair(0.5)
    prior = InputPrior.uniform_box(UNIT2)
    res = mc_cmat(fb, fb, prior, B=5000, seed=3)
    E = res.matrix.entries
    np.testing.assert_array_equal(E, E.T)
    assert np.linalg.eigvalsh(E).min() >= -1e-10 * np.abs(E).max()


def test_mc_reproducible_from_one_stream():
    fa, fb = poly_pair(2.0)
    prior = InputPrior.uniform_box(UNIT2)
    r1 = mc_cmat(fa, fb, prior, B=4000, seed=5)
    r2 = mc_cmat(fa, fb, prior, B=4000, seed=5)
    np.testing.assert_array_equal(r1.matrix.entries, r2.matrix.entries)
    np.testing.assert_array_equal(r1.se, r2.se)
    r3 = mc_cmat(fa, fb, prior, B=4000, seed=6)
    assert not np.array_equal(r1.matrix.entries, r3.matrix.entries)
    gap = np.abs(r1.matrix.entries - r3.matrix.entries)
    assert np.all(gap <= 6.0 * (r1.se + r3.se) + 1e-12)


def test_mc_se_shrinks_like_sqrt_budget():
    fa, fb = poly_pair(1.0)
    prior = InputPrior.uniform_box(UNIT2)
    se_small = np.linalg.norm(mc_cmat(fa, fb, prior, B=1000, seed=11).se)
    se_big = np.linalg.norm(mc_cmat(fa, fb, prior, B=16_000, seed=11).se)
    assert se_big == pytest.approx(se_small / 4.0, rel=0.35)


def test_mc_agrees_with_closed_form_on_surrogates(small_pair_corpus):
    mk, ml, p = small_pair_corpus[0]
    prior = InputPrior.uniform_box(tuple((0.0, 1.0) for _ in range(p)))
    fk = SampledFunction.from_surrogate(mk)
    fl = SampledFunction.from_surrogate(ml)
    res = mc_cmat(fk, fl, prior, B=40_000, seed=21)
    ref = cmat(mk, ml, prior).entries
    assert np.all(np.abs(res.matrix.entries - ref) <= 4.0 * res.se + 1e-9)


def test_mc_validation_and_report_dict():
    fa, fb = poly_pair(1.0)
    prior = InputPrior.uniform_box(UNIT2)
    with pytest.raises(ValueError, match="B must be"):
        mc_cmat(fa, fb, prior, B=0, seed=0)
    with pytest.raises(ValueError, match="dimensions"):
        mc_cmat(fa, piston(), prior, B=10, seed=0)
    res = mc_cmat(fa, fb, prior, B=16, seed=2)
    d = res.to_dict()
    assert set(d) == {"entries", "se_entries", "B", "seed", "h"}
    assert d["B"] == 16 and d["seed"] == 2 and d["h"] is None


def test_mc_fd_path_reports_step():
    fn = piston()
    prior = InputPrior.uniform_box(fn.domain)
    res = mc_cmat(fn, fn, prior, B=64, seed=1)
    assert res.h == pytest.approx(1e-5)
    assert res.matrix.entries.shape == (5, 5)


def test_mc_reports_the_step_of_the_differenced_function_only():
    # the linear function has an analytic gradient; its range alone would
    # give a step of 1e-5 * 10 = 1e-4
    lin = replace(linear_function([1.0] * 5), domain=((0.0, 10.0),) * 5)
    prior = InputPrior.uniform_box(piston().domain)
    for pair in ((lin, piston()), (piston(), lin)):
        assert mc_cmat(*pair, prior, B=8, seed=1).h == 1e-5
    wide = replace(lin, grad=None, domain=((0.0, 2.0),) * 5)
    assert mc_cmat(piston(), wide, prior, B=8, seed=1).h == 2e-5


def _wave(p, freq, phase, label):
    """A function with the elementwise gradient cos(freq * x + phase): no BLAS
    call, entries of both signs and of unequal size."""
    return SampledFunction(
        evaluator=lambda X: np.sin(freq * X + phase).sum(axis=1) / freq,
        p=p,
        domain=((0.0, 1.0),) * p,
        grad=lambda X: np.cos(freq * X + phase),
        label=label,
    )


@pytest.mark.parametrize("B, seed", [(1, 1), (100, 1), (600, 1), (1000, 3), (2048, 2)])
def test_mc_block_sums_match_one_shot_products(B, seed):
    p = 24
    rng = np.random.default_rng(B)
    fk = _wave(p, rng.uniform(1.0, 6.0, p), rng.uniform(0.0, 6.0, p), "k")
    fl = _wave(p, rng.uniform(1.0, 6.0, p), rng.uniform(0.0, 6.0, p), "l")
    prior = InputPrior.uniform_box(fk.domain)
    # the one stream mc_cmat draws from
    X = prior.sample(np.random.default_rng([seed, 0]), B)
    for f_l in (fl, fk):
        Gk, Gl = fk.grad(X), f_l.grad(X)
        sum1 = Gk.T @ Gl
        sum2 = (Gk * Gk).T @ (Gl * Gl)
        mean = sum1 / B
        var = np.maximum(sum2 / B - mean**2, 0.0)
        if f_l is fk:
            mean = 0.5 * (mean + mean.T)
        res = mc_cmat(fk, f_l, prior, B=B, seed=seed)
        scale = np.abs(mean).max()
        np.testing.assert_allclose(res.matrix.entries, mean, rtol=0, atol=1e-13 * scale)
        scale2 = np.abs(sum2 / B).max()
        np.testing.assert_allclose(res.se**2 * B, var, rtol=0, atol=1e-13 * scale2)


def _mixed_prior(p):
    """Every third input a normal truncated to the unit box, the rest uniform."""
    return InputPrior([NormalDim(0.5, 0.25, 0.0, 1.0) if i % 3 == 2 else UniformDim(0.0, 1.0)
                       for i in range(p)])


def _stream_case(kind):
    """(f_k, f_l, prior): raw piston functions by finite differences, two
    analytic waves, an analytic linear function on a wider domain than
    the differenced piston, or two analytic p = 24 waves under a mixed
    uniform and truncated-normal prior."""
    if kind == "p24":
        rng = np.random.default_rng(24)
        fk = _wave(24, rng.uniform(1.0, 6.0, 24), rng.uniform(0.0, 6.0, 24), "k")
        fl = _wave(24, rng.uniform(1.0, 6.0, 24), rng.uniform(0.0, 6.0, 24), "l")
        return fk, fl, _mixed_prior(24)
    if kind == "piston":
        fk, fl = piston(90000.0, 284.0), piston(110000.0, 302.0)
    elif kind == "wave":
        rng = np.random.default_rng(5)
        fk = _wave(5, rng.uniform(1.0, 6.0, 5), rng.uniform(0.0, 6.0, 5), "k")
        fl = _wave(5, rng.uniform(1.0, 6.0, 5), rng.uniform(0.0, 6.0, 5), "l")
    else:
        fk = replace(linear_function([1.0, -2.0, 0.5, 3.0, 1.5]), domain=((0.0, 10.0),) * 5)
        fl = piston()
    return fk, fl, InputPrior.uniform_box(((0.0, 1.0),) * 5)


def _stacked_cells(f, rows):
    """Cells of the input of one gradient call on rows sample rows."""
    return rows * f.p * (1 if f.grad is not None else 2 * f.p)


def test_chunk_rows():
    fk, fl, _ = _stream_case("mixed")
    assert _chunk_rows((fl,)) == 3072 and _chunk_rows((fk, fl)) == 3072
    assert _chunk_rows((fk,)) == _CHUNK_CELLS // 5 == 32_768
    wide = replace(fl, p=24, domain=((0.0, 1.0),) * 24)
    assert _chunk_rows((replace(wide, grad=lambda X: X),)) == 6656
    # a differenced p = 24 row stacks 1,152 cells, so one block is over the
    # budget and the chunk is that one block
    assert _chunk_rows((wide,)) == 256
    # a chunk is never less than one block
    assert _chunk_rows((replace(fl, p=200, domain=((0.0, 1.0),) * 200),)) == 256
    for p in (1, 2, 5, 12, 24, 40, 200):
        f = replace(fl, p=p, domain=((0.0, 1.0),) * p)
        for fs in ((f,), (replace(f, grad=lambda X: X),), (f, replace(f, grad=lambda X: X))):
            chunk = _chunk_rows(fs)
            assert chunk >= 256 and chunk % 256 == 0
            assert chunk == 256 or all(_stacked_cells(g, chunk) <= _CHUNK_CELLS for g in fs)


@pytest.mark.parametrize("kind", ["piston", "wave", "mixed", "p24"])
@pytest.mark.parametrize("size", ["1", "255", "256", "chunk-1", "chunk", "chunk+257"])
def test_mc_streams_bitwise_as_the_whole_sample(kind, size):
    fk, fl, prior = _stream_case(kind)
    pairs = [(fk, fl), (fl, fk)] if kind == "mixed" else [(fk, fl), (fk, fk)]
    for a, b in pairs:
        chunk = _chunk_rows((a,) if b is a else (a, b))
        B = {"1": 1, "255": 255, "256": 256, "chunk-1": chunk - 1,
             "chunk": chunk, "chunk+257": chunk + 257}[size]
        res = mc_cmat(a, b, prior, B=B, seed=9)
        mean, se, ones, h = whole_sample_mc(a, b, prior, B, seed=9)
        np.testing.assert_array_equal(res.matrix.entries, mean)
        np.testing.assert_array_equal(res.se, se)
        assert res.n_onesided == ones and res.h == h


def test_mc_calls_each_differenced_function_once_per_chunk():
    # piston (p = 5) fits 3,072 rows a chunk; a differenced p = 24 linear
    # function fits none within the budget, so its chunk is one block
    for fn in (piston(), replace(linear_function(np.linspace(-1.0, 1.0, 24)), grad=None)):
        sizes = []

        def counted(X):
            sizes.append(X.shape[0])
            return fn.evaluator(X)

        f = replace(fn, evaluator=counted)
        chunk = _chunk_rows((f,))
        mc_cmat(f, f, InputPrior.uniform_box(f.domain), B=2 * chunk + 5, seed=1)
        stacked = 2 * f.p
        assert sizes == [stacked * chunk, stacked * chunk, stacked * 5]
        assert max(sizes) * f.p <= _CHUNK_CELLS or chunk == 256
    assert chunk == 256


def test_a_differenced_pair_shares_one_stack_per_chunk():
    fa, fb = piston(90000.0, 284.0), piston(110000.0, 302.0)
    calls = []

    def counted(name, fn):
        def evaluator(X):
            # the array itself is kept, so its memory cannot be reused
            calls.append((name, X, X.tobytes()))
            return fn.evaluator(X)
        return replace(fn, evaluator=evaluator)

    ca, cb = counted("a", fa), counted("b", fb)
    prior = InputPrior.uniform_box(fa.domain)
    chunk = _chunk_rows((ca, cb))
    B = 2 * chunk + 5
    res = mc_cmat(ca, cb, prior, B=B, seed=3)
    assert [c[0] for c in calls] == ["a", "b"] * 3
    for (_, Xa, bytes_a), (_, Xb, bytes_b) in zip(calls[0::2], calls[1::2]):
        assert Xa is Xb and bytes_a == bytes_b and Xa.flags.f_contiguous
    assert [c[1].shape for c in calls[0::2]] == [(10 * chunk, 5)] * 2 + [(50, 5)]
    mean, se, ones, h = whole_sample_mc(fa, fb, prior, B, seed=3)
    np.testing.assert_array_equal(res.matrix.entries, mean)
    np.testing.assert_array_equal(res.se, se)
    assert res.n_onesided == ones and res.h == h


def test_mc_working_memory_is_the_sample_and_one_chunk():
    # the whole-sample path held every (B, p) gradient array at once and
    # peaked at 27 MiB here; the sample alone is 3.8 MiB
    fa, fb = piston(90000.0, 284.0), piston(110000.0, 302.0)
    prior = InputPrior.uniform_box(fa.domain)
    peak = _traced_peak_mib(lambda: mc_cmat(fa, fb, prior, B=100_000, seed=1))
    assert peak < 12.0, f"mc_cmat(B=1e5) peaked at {peak:.1f} MiB"


def test_mc_working_memory_at_p24_does_not_grow_with_the_sample():
    # an analytic p = 24 chunk is 6,656 rows, so B = 20,000 and 60,000 both
    # run whole chunks, and the peak over the sample's own bytes is one
    # chunk's (6.2 MiB here). Chunks of 32,768 rows with whole-chunk squares
    # and a column-stacked sample put 14.7 MiB over the sample at
    # B = 20,000 and 34.1 MiB at 60,000.
    fk, fl, prior = _stream_case("p24")
    extra = []
    for B in (20_000, 60_000):
        peak = _traced_peak_mib(lambda: mc_cmat(fk, fl, prior, B=B, seed=1))
        extra.append(peak - B * 24 * 8 / 2**20)
    assert extra[1] <= extra[0] + 0.25, f"over the sample: {extra[0]:.2f} -> {extra[1]:.2f} MiB"


def test_fits_and_mc_sums_leave_the_blas_workers_asleep():
    # An OpenBLAS call above its threading threshold wakes the worker
    # threads, which keep spinning for about 0.1 s after it returns: CPU
    # time above wall time, with no gain. CPU time is read after a pause
    # that lets such a spin end; wall time at the end of the call.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        pytest.skip("needs two CPUs")
    fa, fb = piston(90000.0, 284.0), piston(110000.0, 302.0)
    cfg = FitConfig(max_terms=60, max_degree=4, max_knots=64, domain=fa.domain)
    X = lhs_design(600, 5, fa.domain, seed=1)
    # verify piston's fit: 1000 rows and 121 columns, where the Gram matrix
    # and the backward pass's inverses once woke the pool
    big = FitConfig(max_terms=120, max_degree=4, max_knots=128, domain=fa.domain)
    Xc = lhs_design(1000, 5, fa.domain, seed=20260814)
    # 12,000 rows, where the forward pass's dot products once woke the pool
    Xb = np.random.default_rng(3).uniform(size=(12_000, 3))
    yb = np.sin(3 * Xb[:, 0]) * Xb[:, 1] + Xb[:, 2] ** 2
    p = 24
    fk = _wave(p, np.linspace(1.0, 6.0, p), np.zeros(p), "k")
    fl = _wave(p, np.linspace(6.0, 1.0, p), np.ones(p), "l")
    prior = InputPrior.uniform_box(fk.domain)
    X20 = np.random.default_rng(2).uniform(size=(20_000, 5))
    models = []
    calls = {
        "piston fit a": lambda: models.append(fit(X, fa(X), cfg)),
        "mc_cmat p=24, B=20000": lambda: mc_cmat(fk, fl, prior, B=20_000, seed=1),
        "evaluate_batch n=20000": lambda: models[0].evaluate_batch(X20),
        "piston fit b": lambda: fit(X, fb(X), cfg),
        "criterion-size piston fit": lambda: fit(Xc, fa(Xc), big),
        "12,000-row fit": lambda: fit(Xb, yb, FitConfig(max_terms=21, max_degree=2)),
    }
    time.sleep(0.3)  # a spin left by an earlier test ends
    for name, call in calls.items():
        c0, w0 = time.process_time(), time.perf_counter()
        call()
        wall = time.perf_counter() - w0
        time.sleep(0.3)
        cpu = time.process_time() - c0
        assert cpu <= 1.2 * wall, f"{name}: {cpu:.3f} s CPU in {wall:.3f} s wall"


# -- builtin registry -------------------------------------------------------------


def test_builtin_registry():
    fns = builtin_functions("builtin:poly?beta=3")
    assert len(fns) == 2 and fns[1].label == "poly-f2-beta3"
    (pis,) = builtin_functions("builtin:piston?p0=110000&ta=302")
    assert pis.p == 5 and "110000" in pis.label
    (lin,) = builtin_functions("builtin:linear?a=1,2,3")
    assert lin.p == 3
    (default_lin,) = builtin_functions("builtin:linear")
    assert default_lin.p == 1
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_functions("builtin:nope")
    with pytest.raises(ValueError, match="not a builtin"):
        builtin_functions("poly?beta=3")
