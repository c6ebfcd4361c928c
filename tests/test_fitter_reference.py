"""The fast fitter against the dense reference in mars_reference.py.

The forward pass must select the same factor sets as the dense n x K
scan, and every candidate's reduction must agree with the dense value on
every step; its support-compacted running sums must equal those of the
full-width scan bitwise. The backward pass must keep the same subset as
one solve per deletion candidate, with the same coefficients.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from mars_reference import FullWidthScan, dense_backward, dense_forward, select

from coactive import FitConfig, fit_with_report, lhs_design, model, piston
from coactive.model import (
    _MIN_WIDTH,
    _TIE_RTOL,
    HingeFactor,
    _backward_pass,
    _design_from_factor_sets,
    _forward_pass,
    _gcv,
    _KnotScan,
    _parent_candidates,
    _span_lengths,
)

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


def _ensemble_member():
    # one bootstrap member of a cubic response at the size fit --ensemble
    # runs in the benchmark: n = 200 < 2 * _MIN_WIDTH, so one width class
    rng = np.random.default_rng(13)
    X = rng.uniform(size=(200, 3))
    y = X @ [1.0, -0.5, 0.3] + (X**2) @ [0.4, 0.9, -1.2] + (X**3) @ [-0.7, 0.2, 1.1] + X[:, 0] * X[:, 1]
    rows = rng.integers(0, 200, size=200)
    return X[rows], y[rows], FitConfig(max_terms=15)


CASES = {
    **{f"piston-{v}-seed{s}": (lambda s=s, fn=fn: _piston(s, fn))
       for s in range(1, 6) for v, fn in (("a", PISTON_A), ("b", PISTON_B))},
    "bootstrap-resample": _bootstrap,
    "integer-inputs": _integer,
    "constant-column": _constant_column,
    "max-degree-1": _degree_one,
    "p-1": _one_input,
    "large-offset": _large_offset,
    "ensemble-member": _ensemble_member,
}


def _candidates(scan):
    """The scan's candidates over all its width classes as one flat list
    in (parent, variable, knot) order: par and var of each slot in
    (parent, variable) order, each candidate's slot loc there, and its
    knot, raw norms, running sums and reductions red2, red_p, red_m."""
    cls = scan.classes
    par, var = (np.concatenate([getattr(c, name) for c in cls]) for name in ("par", "var"))
    slot = np.lexsort((var, par))
    rank = np.empty_like(slot)
    rank[slot] = np.arange(slot.size)
    first = np.cumsum([0] + [c.size for c in cls[:-1]])
    loc = rank[np.concatenate([f + c.loc for f, c in zip(first, cls)])]
    # a slot's candidates sit in one class in knot order, so a stable sort
    # by slot keeps them in that order
    order = np.argsort(loc, kind="stable")
    flat = {"par": par[slot], "var": var[slot], "loc": loc[order]}
    for name in ("knot", "raw_p", "raw_m", "spp", "smm", "spm", "u", "w"):
        flat[name] = np.concatenate([getattr(c, name) for c in cls])[order]
    reds = [c.reductions() for c in cls]
    for k, name in enumerate(("red2", "red_p", "red_m")):
        flat[name] = np.concatenate([r[k] for r in reds])[order]
    return SimpleNamespace(**flat)


@pytest.mark.parametrize("case", sorted(CASES))
def test_fitter_matches_dense_reference(case):
    X, y, cfg = CASES[case]()
    n = X.shape[0]
    sst = float(np.sum((y - y.mean()) ** 2))
    B, factor_sets, rss = _forward_pass(X, y, cfg, sst)

    # run the dense scan, mirroring its terms, columns and residual into a
    # fresh knot scan, and compare both scores of every candidate on every
    # step: the scan's running u, w against the dense scan's fresh ones
    scan = _KnotScan(X, cfg, min(cfg.max_terms + 1, max(3, int(0.9 * n))))
    worst = []

    def on_step(resid, sse, dense):
        fast = {}
        flat = _candidates(scan)
        for s, key in enumerate(zip(flat.par.tolist(), flat.var.tolist())):
            at = flat.loc == s
            fast[key] = (flat.knot[at], flat.red2[at], flat.red_p[at], flat.red_m[at])
        assert fast.keys() == dense.keys()
        err = 0.0
        for key, (kn, *reds) in dense.items():
            np.testing.assert_array_equal(fast[key][0], kn)
            for got, want in zip(fast[key][1:], reds):
                err = max(err, float(np.abs(got - want).max()))
        worst.append(err / sse)

        # the scan's collinearity test a + c - 2b against the explicit
        # residual of g*x: each side of the 1e-12 threshold keeps a margin.
        # A knot on a constant column makes two zero hinges, scored by neither
        Q = scan.basis
        R = np.array(scan.parent_cols)[flat.par] * X[:, flat.var].T
        for _ in range(2):
            R = R - (R @ Q) @ Q.T
        scale = flat.raw_p + flat.raw_m
        live = scale > 0
        gap = (flat.raw_p - flat.spp + flat.raw_m - flat.smm + 2.0 * flat.spm)[live] / scale[live]
        collinear = (np.einsum("ij,ij->i", R, R)[flat.loc] < 1e-12 * scale)[live]
        assert np.all(gap[collinear] < 1e-13) and np.all(gap[~collinear] > 1e-10)

    ref_sets, ref_rss = dense_forward(X, y, cfg, sst, mirror=scan, on_step=on_step)
    assert factor_sets == ref_sets
    np.testing.assert_allclose(rss, ref_rss, rtol=1e-10)
    assert len(worst) >= 5 and max(worst) <= RED_TOL

    # the forward pass's columns are the design its factor sets rebuild
    np.testing.assert_array_equal(B, _design_from_factor_sets(X, factor_sets))
    kept, coefs, intercept, _, gcv_path = _backward_pass(B, y, factor_sets, cfg)
    ref_kept, ref_coef, ref_gcv = dense_backward(X, y, factor_sets, cfg)
    assert kept == [factor_sets[j - 1] for j in ref_kept[1:]]
    np.testing.assert_allclose(np.r_[intercept, coefs], ref_coef, rtol=1e-10)
    np.testing.assert_allclose(gcv_path, ref_gcv, rtol=1e-6)


# running u = resid.C+ and w = resid.C- against fresh sums, relative to
# their Cauchy-Schwarz bound sqrt(sse * |C|^2): measured up to 4.4e-12 on
# these cases, and a reduction u^2/a must hold to RED_TOL of the SSE
RUNNING_TOL = 1e-10


def _fit_with_scan(X, y, cfg, scan_class, monkeypatch):
    """The forward pass with scan_class for its knot scan; returns the
    forward pass's result and the scan."""
    scans = []

    class Recorded(scan_class):
        def __init__(self, *args):
            super().__init__(*args)
            scans.append(self)

    monkeypatch.setattr(model, "_KnotScan", Recorded)
    out = _forward_pass(X, y, cfg, float(np.sum((y - y.mean()) ** 2)))
    monkeypatch.undo()
    return out, scans[0]


@pytest.mark.parametrize("case", sorted(CASES))
def test_compacted_scan_matches_the_full_width_scan(case, monkeypatch):
    # after every update, the sums over each parent's support rows equal
    # those over all n sorted rows bitwise, and the running residual sums
    # stay close to fresh ones
    X, y, cfg = CASES[case]()
    errors = []

    class Lockstep(_KnotScan):
        def __init__(self, X, cfg, capacity):
            super().__init__(X, cfg, capacity)
            self.ref = FullWidthScan(X, cfg, capacity)

        def add_term(self, *args):
            super().add_term(*args)
            self.ref.add_term(*args)

        def update(self, resid):
            super().update(resid)
            self.ref.update(resid)
            flat = _candidates(self)
            for name in ("par", "var", "loc", "knot", "raw_p", "raw_m", "spp", "smm", "spm"):
                assert getattr(flat, name).tobytes() == getattr(self.ref, name).tobytes(), name
            sse = float(resid @ resid)
            for got, want, raw in zip((flat.u, flat.w), self.ref.residual_sums(),
                                      (flat.raw_p, flat.raw_m)):
                live = raw > 0
                assert np.all(got[~live] == 0.0)
                errors.append(float(np.max(np.abs(got - want)[live] / np.sqrt(sse * raw[live]),
                                            initial=0.0)))

    (B, factor_sets, rss), _ = _fit_with_scan(X, y, cfg, Lockstep, monkeypatch)
    ref_B, ref_sets, ref_rss = _forward_pass(X, y, cfg, float(np.sum((y - y.mean()) ** 2)))
    assert (factor_sets, rss) == (ref_sets, ref_rss) and B.tobytes() == ref_B.tobytes()
    assert len(errors) >= 10 and max(errors) <= RUNNING_TOL


def test_a_step_makes_one_pass_and_one_registration(monkeypatch):
    # each update folds its new columns into every width class that holds
    # slots with one pass each and registers its new terms with one call;
    # scoring makes none
    X, y, cfg = _piston(1, PISTON_A)
    log = []
    fold = model._WidthClass.fold

    def counted_fold(c, W, betas):
        log.append(("fold", c.width, W.shape[1]))
        fold(c, W, betas)

    class Counted(_KnotScan):
        def update(self, resid):
            log.append(("update", len(self.betas), self.m, [c.width for c in self.classes if c.size]))
            super().update(resid)

        def _register(self, terms, resid):
            log.append(("register", list(terms)))
            super()._register(terms, resid)

    monkeypatch.setattr(model._WidthClass, "fold", counted_fold)
    _, scan = _fit_with_scan(X, y, cfg, Counted, monkeypatch)
    steps = [i for i, entry in enumerate(log) if entry[0] == "update"]
    assert log[:2] == [("update", 1, 1, []), ("register", [0])]
    widths, held = [], []
    for i, j in zip(steps[1:], steps[2:] + [len(log)]):
        _, k, m, live = log[i]
        passes = [("fold", w, k) for w in live]
        assert live and log[i + 1 : j] == passes + [("register", list(range(m - k, m)))]
        widths.append(k)
        held.append(len(live))
    assert len(widths) >= 20 and set(widths) == {1, 2} and max(held) == 3
    assert scan.m == len(scan.parent_cols) == sum(widths) + 1 + len(scan.betas)


def test_slots_sit_in_the_narrowest_width_class(monkeypatch):
    X, y, cfg = _piston(1, PISTON_A)
    _, scan = _fit_with_scan(X, y, cfg, _KnotScan, monkeypatch)
    widths = [c.width for c in scan.classes]
    assert widths == [600, 300, 150] and widths[-1] >= _MIN_WIDTH > widths[-1] // 2
    flat = _candidates(scan)
    assert flat.knot.size == sum(c.knot.size for c in scan.classes)
    # every slot is one (parent, variable) pair of the scan
    assert len(set(zip(flat.par.tolist(), flat.var.tolist()))) == flat.par.size
    assert sum(c.size for c in scan.classes) == flat.par.size
    for i, c in enumerate(scan.classes):
        assert c.size and c.rows.shape[0] <= 2 * c.size  # grown on demand
        assert c.par.size == c.var.size == c.size
        # every slot has candidates, and they run in (slot, knot) order
        np.testing.assert_array_equal(np.unique(c.loc), np.arange(c.size))
        assert np.all(np.diff(c.loc) >= 0)
        for name in ("knot", "tc", "ip", "im", "raw_p", "raw_m", "spp", "smm", "spm", "u", "w"):
            assert getattr(c, name).shape == c.loc.shape, name
        for s in range(c.size):
            pcol, v = scan.parent_cols[c.par[s]], c.var[s]
            a = np.count_nonzero(pcol)
            assert a <= c.width and (i + 1 == len(widths) or a > widths[i + 1])
            # the support rows in the variable's sorted order, then padding
            order = scan.order[v]
            np.testing.assert_array_equal(c.rows[s, :a], order[pcol[order] > 0])
            np.testing.assert_array_equal(c.g[s, :a], pcol[c.rows[s, :a]])
            assert not np.any(c.g[s, a:]) and not np.any(c.rows[s, a:])
    # all slots of one parent sit in one class, as consecutive rows in
    # variable order, and each class's slots run in (parent, variable) order
    home = {}  # parent -> class
    for i, c in enumerate(scan.classes):
        assert np.all(np.diff(c.par) >= 0)
        for pi in np.unique(c.par):
            assert int(pi) not in home
            home[int(pi)] = i
            slots = np.flatnonzero(c.par == pi)
            np.testing.assert_array_equal(slots, np.arange(slots[0], slots[-1] + 1))
            assert np.all(np.diff(c.var[slots]) > 0)
    assert sorted(home) == np.unique(flat.par).tolist()
    # below twice the floor every slot shares one class of width n
    for n, count in ((2 * _MIN_WIDTH - 1, 1), (2 * _MIN_WIDTH, 2)):
        Xn = np.random.default_rng(n).uniform(size=(n, 2))
        assert [c.width for c in _KnotScan(Xn, cfg, 4).classes] == [n, n // 2][:count]


def test_a_support_of_a_class_width_sits_in_that_class():
    # n = 600 makes classes 600/300/150: a parent supported on exactly 150
    # rows goes to the 150 class, one on 151 rows to the 300 class
    n = 600
    X = lhs_design(n, 2, ((0.0, 1.0),) * 2, seed=5)
    y = np.sin(4.0 * X[:, 0]) + X[:, 1]
    x = np.sort(X[:, 0])
    knots = [float(x[n - 1 - a]) for a in (150, 151)]
    cols = [np.ones(n)] + [np.maximum(X[:, 0] - t, 0.0) for t in knots]
    factors = [()] + [(HingeFactor(var=0, sign=1, knot=t),) for t in knots]
    assert [np.count_nonzero(c) for c in cols] == [600, 150, 151]
    Q = np.linalg.qr(np.column_stack(cols))[0]
    scan = _KnotScan(X, FitConfig(), 4)
    for q, col, fs in zip(Q.T, cols, factors):
        scan.add_term(q, float(q @ y), col, fs)
    scan.update(y - Q @ (Q.T @ y))
    width = {}
    for c in scan.classes:
        for s in np.unique(c.loc):
            width[int(c.par[s]), int(c.var[s])] = c.width
    assert width == {(0, 0): 600, (0, 1): 600, (1, 1): 150, (2, 1): 300}


@pytest.mark.parametrize("p", [1, 3, 5, 24])
def test_parent_candidates_are_empty_exactly_below_endspan_plus_one(p):
    # the registration of a parent rests on this: the candidates depend on
    # the support size, so a parent has them on every free variable or on
    # none. Supports of endspan - 1 to 2 * endspan + 2 points and two larger
    # ones, all with many ties, with and without thinning to max_knots
    endspan = _span_lengths(p, 1)[0]
    rng = np.random.default_rng(p)
    for a in [*range(endspan - 1, 2 * endspan + 3), 60, 200]:
        assert _span_lengths(p, a)[0] == endspan
        xs = np.sort(rng.integers(0, 2 + a // 8, size=a).astype(float))
        _, minspan = _span_lengths(p, a)
        ranked = np.concatenate([xs[:1], xs[np.arange(endspan, a - endspan, minspan)]])
        for cfg in (FitConfig(max_knots=64), FitConfig(max_knots=2)):
            kn = _parent_candidates(xs, cfg, p)
            assert (kn.size == 0) == (a < endspan + 1), a
            if kn.size:
                # np.unique of the rank-selected values, thinned to max_knots
                want = np.unique(ranked)
                if want.size > cfg.max_knots:
                    want = want[np.unique(np.linspace(0, want.size - 1, cfg.max_knots).round().astype(int))]
                np.testing.assert_array_equal(kn, want)


def test_collinear_pair_scores_plus_only():
    # after x itself is in the model, C+ - C- = x - t lies in the basis, so
    # for every knot the pair is not scored and minus mirrors plus
    X = lhs_design(200, 1, ((0.0, 1.0),), seed=4)
    y = np.sin(5.0 * X[:, 0])
    cfg = FitConfig(max_terms=10)
    scan = _KnotScan(X, cfg, 11)
    n, x = X.shape[0], X[:, 0]
    q0 = np.full(n, 1.0 / np.sqrt(n))
    q1 = (x - x.mean()) / np.linalg.norm(x - x.mean())
    # the intercept, then x itself as the hinge at its minimum; it leaves no
    # variable free, so it adds no slot
    scan.add_term(q0, q0 @ y, np.ones(n), ())
    scan.add_term(q1, q1 @ y, x - x.min(), (HingeFactor(var=0, sign=1, knot=float(x.min())),))
    scan.update(y - scan.basis @ (scan.basis.T @ y))
    flat = _candidates(scan)
    red2, red_p, red_m = flat.red2, flat.red_p, flat.red_m
    assert np.all(red2 == 0.0) and np.all(red_m == 0.0)
    assert np.count_nonzero(red_p) >= red_p.size - 1


def test_best_breaks_ties_as_the_plain_scan():
    # planted ties across width classes, slots, modes and knots: the rule
    # of best must pick what select's plain (parent, var, mode, knot) scan
    # picks. Each parent's slots go to one of two classes at random, in
    # (parent, var) order there, as registration places them
    X = lhs_design(2 * _MIN_WIDTH, 3, ((0.0, 1.0),) * 3, seed=2)
    scan = _KnotScan(X, FitConfig(), 4)
    assert len(scan.classes) == 2
    rng = np.random.default_rng(6)
    levels = np.array([0.0, 0.5, 1.0, 1.0 - 1e-9, 1.0 - 1e-7])
    picks, contested = set(), set()
    for _ in range(300):
        pairs = sorted({(int(a), int(b)) for a, b in rng.integers(0, 3, size=(5, 2))})
        sizes = rng.integers(1, 4, size=len(pairs))
        knot = rng.uniform(size=sizes.sum())
        reds = tuple(rng.choice(levels, size=(3, knot.size), p=[0.3, 0.3, 0.2, 0.1, 0.1]))
        at = np.cumsum(sizes)[:-1]
        scores = {key: (kn, *rs) for key, kn, *rs in
                  zip(pairs, np.split(knot, at), *(np.split(r, at) for r in reds))}
        home = rng.integers(0, 2, size=3)[[pi for pi, _ in pairs]]
        slot = np.repeat(np.arange(len(pairs)), sizes)
        cut = max(r.max() for r in reds) * (1.0 - _TIE_RTOL)
        hits = []
        for i, c in enumerate(scan.classes):
            slots = np.flatnonzero(home == i)
            mine = np.isin(slot, slots)
            c.size = slots.size
            c.par, c.var = (np.array([pairs[s][k] for s in slots], dtype=np.intp) for k in (0, 1))
            c.loc = np.searchsorted(slots, slot[mine])
            c.knot = knot[mine]
            c.reductions = lambda r=tuple(r[mine] for r in reds): r
            hits.append(bool(np.any(np.stack(reds)[:, mine] >= cut)))
        got = scan.best()
        assert got == select(scores)
        picks.add(None if got is None else got[-1])
        if got is not None and all(hits):
            contested.add(int(home[pairs.index(got[1:3])]))
    assert {"both", "plus", "minus"} <= picks
    # both classes held a hit and each of them won such a step
    assert contested == {0, 1}
    for c in scan.classes:
        c.reductions = lambda c=c: tuple(np.zeros((3, c.loc.size)))
    assert scan.best() is None
    for c in scan.classes:
        c.size = 0
    assert scan.best() is None


def test_aliased_column_stays_out_of_the_sweep(monkeypatch):
    # columns a = 2v and b = v with y = v, next to the intercept: their Gram
    # block is singular, and once a is swept in b's pivot is 0, so b is
    # aliased with a and never swept in. The fit is still exact; b costs
    # nothing to drop and goes first, without an un-sweep; a alone then
    # carries all of y'y
    v = np.tile([0.25, -0.25], 8)
    B = np.column_stack([np.ones(16), 2.0 * v, v])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(B[:, 1:].T @ B[:, 1:])
    factor_sets = [(HingeFactor(var=0, sign=sign, knot=0.0),) for sign in (1, -1)]
    cfg = FitConfig()
    calls = []
    sweep = model._sweep

    def counted(A, k, sign):
        calls.append((int(k), sign))
        sweep(A, k, sign)

    monkeypatch.setattr(model, "_sweep", counted)
    kept, coefs, intercept, sse, gcv_path = _backward_pass(B, v, factor_sets, cfg)
    assert calls == [(0, 1), (1, 1), (1, -1)]
    assert gcv_path[0] == pytest.approx(0.0, abs=1e-12)
    assert gcv_path[1] == gcv_path[0]
    assert gcv_path[2] == pytest.approx(_gcv(1.0, 16, 1, 0, cfg.effective_penalty()), rel=1e-12)
    # the kept subset is the smaller exact one; the refinement solver, the
    # negated swept block, reproduces its coefficients
    assert kept == factor_sets[:1] and sse == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_array_equal(np.r_[intercept, coefs], [0.0, 0.5])


def test_backward_pass_sweeps_each_column_once(monkeypatch):
    # every column is swept in once, in order, and each deletion step
    # un-sweeps the column it drops; no LAPACK routine runs
    X, y, cfg = _piston(1, PISTON_A)
    calls = []
    sweep = model._sweep

    def counted(A, k, sign):
        calls.append((int(k), sign))
        sweep(A, k, sign)

    def refused(*args, **kwargs):
        raise AssertionError("the backward pass called np.linalg")

    monkeypatch.setattr(model, "_sweep", counted)
    for name in ("cholesky", "inv", "solve", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refused)
    _, rep = fit_with_report(X, y, cfg)
    m = len(rep.backward_gcv)
    assert m >= 10
    assert calls[:m] == [(k, 1) for k in range(m)]
    assert all(sign == -1 for _, sign in calls[m:])
    assert sorted(k for k, _ in calls[m:]) == list(range(1, m))


@pytest.mark.parametrize("penalty", [None, -2.0])
def test_backward_pass_through_a_singular_block(penalty):
    # a hinge whose knot is the data maximum is an all-zero column, so every
    # Gram block that holds it is exactly singular: Cholesky rejects it here
    # and LU in the reference does too. With the default penalty the column
    # goes first; a negative penalty rewards terms, so the kept subset is the
    # full, singular one and its refinement runs through the lstsq solver.
    X, y, cfg = _piston(1, PISTON_A)
    cfg = replace(cfg, penalty=penalty)
    _, factor_sets, _ = _forward_pass(X, y, cfg, float(np.sum((y - y.mean()) ** 2)))
    zero = (HingeFactor(var=0, sign=1, knot=float(X[:, 0].max())),)
    factor_sets = factor_sets[:2] + [zero] + factor_sets[2:]
    B = _design_from_factor_sets(X, factor_sets)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(B.T @ B)

    kept, coefs, intercept, sse, gcv_path = _backward_pass(B, y, factor_sets, cfg)
    ref_kept, ref_coef, ref_gcv = dense_backward(X, y, factor_sets, cfg)
    assert kept == [factor_sets[j - 1] for j in ref_kept[1:]]
    assert (zero in kept) == (penalty is not None)
    r = y - B[:, ref_kept] @ ref_coef
    assert sse == pytest.approx(float(r @ r), rel=1e-10)
    np.testing.assert_allclose(np.r_[intercept, coefs], ref_coef,
                               rtol=1e-10, atol=1e-10 * np.abs(ref_coef).max())
    np.testing.assert_allclose(gcv_path, ref_gcv, rtol=1e-6)


def test_backward_pass_through_a_duplicated_factor_set():
    # the first forward term doubled makes every Gram block that holds both
    # copies numerically singular: Cholesky rejects them, and both the
    # fitter and the reference solve those by lstsq
    X = lhs_design(300, PISTON_A.p, PISTON_A.domain, seed=1)
    y = PISTON_A(X)
    cfg = FitConfig(max_terms=20, max_degree=2, domain=PISTON_A.domain)
    _, factor_sets, _ = _forward_pass(X, y, cfg, float(np.sum((y - y.mean()) ** 2)))
    factor_sets = factor_sets[:1] + factor_sets
    B = _design_from_factor_sets(X, factor_sets)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(B.T @ B)

    kept, coefs, intercept, _, gcv_path = _backward_pass(B, y, factor_sets, cfg)
    ref_kept, ref_coef, ref_gcv = dense_backward(X, y, factor_sets, cfg)
    assert len(kept) >= 10 and kept == [factor_sets[j - 1] for j in ref_kept[1:]]
    np.testing.assert_allclose(np.r_[intercept, coefs], ref_coef, rtol=1e-10)
    np.testing.assert_allclose(gcv_path, ref_gcv, rtol=1e-6)


def test_backward_path_sse_comes_from_the_residual():
    # y is exactly linear: y'y - g'coef cancels to a clamped 0.0 for the
    # full model, while its residual keeps a round-off sized SSE
    X = lhs_design(60, 2, ((0.0, 1.0), (0.0, 1.0)), seed=5)
    y = 2.0 * X[:, 0] - 3.0 * X[:, 1] + 1.0
    cfg = FitConfig(max_degree=1, domain=((0.0, 1.0), (0.0, 1.0)))
    B, factor_sets, _ = _forward_pass(X, y, cfg, float(np.sum((y - y.mean()) ** 2)))
    _, _, _, _, gcv_path = _backward_pass(B, y, factor_sets, cfg)
    n, m = X.shape[0], len(factor_sets) + 1
    tiny = _gcv(1e-24 * float(y @ y), n, m, m - 1, cfg.effective_penalty())
    assert 0.0 < gcv_path[0] < tiny
