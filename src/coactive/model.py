"""Hinge-spline surrogate models.

A surrogate is an intercept plus coefficient-weighted products of hinge
factors max(sign*(x - knot), 0), one factor per input at most. Variables
absent from a term simply do not appear (exponent-zero semantics). The
module provides exact evaluation and differentiation, JSON round-tripping,
a deterministic forward-stepwise fitter with GCV backward pruning, and
bootstrap ensembles.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "HingeFactor",
    "BasisTerm",
    "MarsSurrogate",
    "Ensemble",
    "FitConfig",
    "FitReport",
    "fit",
    "fit_with_report",
    "fit_ensemble",
    "fit_ensemble_with_report",
    "cross_validated_rmspe",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
    "save_ensemble",
    "load_ensemble",
    "load_training_csv",
]


@dataclass(frozen=True)
class HingeFactor:
    """One hinge max(sign*(x[var] - knot), 0) inside a basis term."""

    var: int
    sign: int
    knot: float

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {self.sign!r}")
        if self.var < 0:
            raise ValueError(f"var must be a non-negative index, got {self.var}")
        if not np.isfinite(self.knot):
            raise ValueError(f"knot must be finite, got {self.knot!r}")


@dataclass(frozen=True)
class BasisTerm:
    """coef times a product of hinge factors on distinct variables."""

    coef: float
    factors: tuple[HingeFactor, ...]

    def __post_init__(self):
        if not np.isfinite(self.coef):
            raise ValueError(f"coef must be finite, got {self.coef!r}")
        object.__setattr__(self, "factors", tuple(self.factors))
        seen = [f.var for f in self.factors]
        if len(set(seen)) != len(seen):
            raise ValueError(f"duplicate variable in basis term: {sorted(seen)}")

    @property
    def degree(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class MarsSurrogate:
    """Immutable hinge-spline model on a box domain.

    Evaluation is deterministic: identical inputs take an identical code
    path and produce bitwise-identical outputs.
    """

    intercept: float
    terms: tuple[BasisTerm, ...]
    p: int
    domain: tuple[tuple[float, float], ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(
            self, "domain", tuple((float(lo), float(hi)) for lo, hi in self.domain)
        )
        if not np.isfinite(self.intercept):
            raise ValueError(f"intercept must be finite, got {self.intercept!r}")
        if len(self.domain) != self.p:
            raise ValueError(f"domain has {len(self.domain)} entries for p={self.p}")
        for lo, hi in self.domain:
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"domain bounds must be finite, got [{lo}, {hi}]")
            if not lo < hi:
                raise ValueError(f"domain bounds must satisfy lo < hi, got [{lo}, {hi}]")
        for term in self.terms:
            for f in term.factors:
                if f.var >= self.p:
                    raise ValueError(f"factor var {f.var} out of range for p={self.p}")
                lo, hi = self.domain[f.var]
                if not lo <= f.knot <= hi:
                    raise ValueError(
                        f"knot {f.knot} outside domain [{lo}, {hi}] of var {f.var}"
                    )

    # -- evaluation ------------------------------------------------------

    def design_matrix(self, X: np.ndarray) -> np.ndarray:
        """Basis-function values, shape (n, len(terms))."""
        X = _as_batch(X, self.p)
        return _design_from_factor_sets(X, [t.factors for t in self.terms])[:, 1:]

    def evaluate(self, x) -> float:
        return float(self.evaluate_batch(np.asarray(x, dtype=float)[None, :])[0])

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        X = _as_batch(X, self.p)
        coefs = np.array([t.coef for t in self.terms])
        if coefs.size == 0:
            return np.full(X.shape[0], self.intercept)
        return self.intercept + self.design_matrix(X) @ coefs

    def __call__(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            return self.evaluate(X)
        return self.evaluate_batch(X)

    # -- differentiation -------------------------------------------------

    def gradient(self, x) -> np.ndarray:
        return self.gradient_batch(np.asarray(x, dtype=float)[None, :])[0]

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        """Analytic gradient, shape (n, p).

        At a knot the one-sided derivative that is continuous from the
        right is used: d/dx max(x - t, 0) = 1{x >= t} and
        d/dx max(t - x, 0) = -1{x < t}. The function is non-differentiable
        only on this measure-zero knot set.

        Each input is a contiguous row of a transposed copy of X, and the
        gradient is summed into contiguous rows in term order. The product
        of the other factors' hinge values is a left fold in factor order,
        so the result is bitwise that of the per-column loop in
        tests/mars_reference.py.
        """
        X = _as_batch(X, self.p)
        n = X.shape[0]
        XT = X.T.copy()  # (p, n), C-ordered; its buffer later holds the result
        GT = np.zeros_like(XT)
        for term in self.terms:
            factors = term.factors
            # a degree-1 term needs no hinge value, only its derivative
            vals = [np.maximum(f.sign * (XT[f.var] - f.knot), 0.0)
                    for f in factors] if len(factors) > 1 else []
            for a, f in enumerate(factors):
                x = XT[f.var]
                active = (x >= f.knot) if f.sign > 0 else (x < f.knot)
                deriv = np.where(active, term.coef * f.sign, 0.0)
                others = None
                for b, val in enumerate(vals):
                    if b != a:
                        others = val if others is None else others * val
                GT[f.var] += deriv if others is None else deriv * others
        G = XT.reshape(n, self.p)
        np.copyto(G, GT.T)
        return G

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return model_to_dict(self)


def _as_batch(X: np.ndarray, p: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != p:
        raise ValueError(f"expected input of shape (n, {p}), got {X.shape}")
    return X


@dataclass(frozen=True)
class Ensemble:
    """A bag of surrogates for one model, all sharing p and domain."""

    members: tuple[MarsSurrogate, ...]
    label: str

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("ensemble must have at least one member")
        m0 = self.members[0]
        for m in self.members[1:]:
            if m.p != m0.p or m.domain != m0.domain:
                raise ValueError("all ensemble members must share p and domain")

    @property
    def p(self) -> int:
        return self.members[0].p

    @property
    def domain(self) -> tuple[tuple[float, float], ...]:
        return self.members[0].domain

    def __len__(self) -> int:
        return len(self.members)


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------


def model_to_dict(m: MarsSurrogate) -> dict:
    return {
        "label": m.label,
        "p": m.p,
        "domain": [[lo, hi] for lo, hi in m.domain],
        "intercept": m.intercept,
        "terms": [
            {
                "coef": t.coef,
                "factors": [
                    {"var": f.var, "sign": f.sign, "knot": f.knot} for f in t.factors
                ],
            }
            for t in m.terms
        ],
    }


def model_from_dict(d: dict) -> MarsSurrogate:
    terms = tuple(
        BasisTerm(
            coef=float(t["coef"]),
            factors=tuple(
                HingeFactor(var=int(f["var"]), sign=int(f["sign"]), knot=float(f["knot"]))
                for f in t["factors"]
            ),
        )
        for t in d["terms"]
    )
    return MarsSurrogate(
        intercept=float(d["intercept"]),
        terms=terms,
        p=int(d["p"]),
        domain=tuple((float(lo), float(hi)) for lo, hi in d["domain"]),
        label=str(d.get("label", "")),
    )


def save_model(m: MarsSurrogate, path, meta: dict | None = None) -> None:
    """Write a model JSON file. Floats round-trip bitwise (shortest repr)."""
    d = model_to_dict(m)
    if meta:
        d["meta"] = meta
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(d, fh, indent=2)
        fh.write("\n")


def load_model(path) -> MarsSurrogate:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def _member_paths(directory) -> list:
    """The member_NNN.json files in directory, in member order."""
    names = [n for n in os.listdir(directory) if re.fullmatch(r"member_\d{3,}\.json", n)]
    return [os.path.join(directory, n) for n in sorted(names, key=lambda n: (len(n), n))]


def save_ensemble(ens: Ensemble, directory, meta: dict | None = None) -> list:
    """Write member_000.json ... under directory, remove the other
    member_NNN.json files there (a larger earlier ensemble's); returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = [os.path.join(directory, f"member_{i:03d}.json") for i in range(len(ens))]
    for m, path in zip(ens.members, paths):
        save_model(m, path, meta=meta)
    for path in set(_member_paths(directory)) - set(paths):
        os.remove(path)
    return paths


def load_ensemble(directory) -> Ensemble:
    """The members save_ensemble wrote under directory, labelled with its
    basename; its other files, such as the fit report.json, are not models."""
    members = [load_model(path) for path in _member_paths(directory)]
    if not members:
        raise ValueError(f"no member_NNN.json model files found in {directory}")
    return Ensemble(members=tuple(members), label=os.path.basename(str(directory).rstrip("/")))


def load_training_csv(path, response: str | None = None):
    """Read a training CSV: header row, p input columns, one response column.

    response selects the response column by name; default is the last
    column. Returns (X, y, input_names, response_name). Malformed rows and
    non-finite fields (nan, inf) raise ValueError with the 1-based line
    number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if response is None:
            resp_idx = len(header) - 1
        else:
            try:
                resp_idx = header.index(response)
            except ValueError:
                raise ValueError(
                    f"{path}: response column {response!r} not in header {header}"
                ) from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                vals = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric field") from None
            if not all(map(math.isfinite, vals)):
                col = next(h for h, v in zip(header, vals) if not math.isfinite(v))
                raise ValueError(f"{path}: line {lineno}: non-finite value in column {col!r}")
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows)
    mask = np.ones(len(header), dtype=bool)
    mask[resp_idx] = False
    X = data[:, mask]
    y = data[:, resp_idx]
    names = [h for i, h in enumerate(header) if mask[i]]
    return X, y, names, header[resp_idx]


# ---------------------------------------------------------------------------
# Fitting: deterministic forward-stepwise selection + GCV backward pruning
# ---------------------------------------------------------------------------


# the fewest training rows fit accepts
_MIN_SAMPLES = 10


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the stepwise fitter.

    penalty is the GCV cost per term (Friedman's d); None picks 3.0, or
    2.0 for additive models (max_degree == 1). max_knots caps candidate
    knots per variable; candidates are always observed data values.

    The span guards are fixed by the alpha=0.05 span formulas (see
    _span_lengths): an interior knot must leave at least endspan points of
    the parent's support on each side, and consecutive candidate knots are
    at least minspan support points apart. The minimum support value is
    always offered as a knot (it yields a hinge linear over the parent's
    support). Without these guards a term can end up supported by a
    handful of points in a thin corner; its wild coefficient barely moves
    the training error but dominates gradient integrals over the corner.

    No knob touches tie-breaking: candidates whose SSE reductions agree to
    a relative 1e-8 tie and go to a fixed order, and a plus/minus hinge
    pair that is collinear after projection scores as plus only (see
    fit_with_report), so near-equal scores are never settled by roundoff.
    """

    max_terms: int = 50
    max_degree: int = 3
    max_knots: int = 64
    penalty: float | None = None
    domain: tuple[tuple[float, float], ...] | None = None
    label: str = ""

    def effective_penalty(self) -> float:
        if self.penalty is not None:
            return float(self.penalty)
        return 2.0 if self.max_degree == 1 else 3.0


@dataclass(frozen=True)
class FitReport:
    """Summary of one fit.

    forward_rss is the training SSE after each forward step, the
    intercept-only fit first; backward_gcv is the GCV of each subset on the
    deletion path, from all forward terms down to the intercept. gcv is
    the smallest entry of backward_gcv, the one of the kept subset. Both
    paths are empty for a constant model.
    """

    n: int
    n_terms: int
    sse: float
    rmse: float
    r2: float
    gcv: float
    constant: bool = False
    forward_rss: tuple[float, ...] = ()
    backward_gcv: tuple[float, ...] = ()


def _data_domain(X: np.ndarray) -> tuple[tuple[float, float], ...]:
    """The range of each column of X; a constant column v becomes [v, v + 1]."""
    dom = ((float(X[:, j].min()), float(X[:, j].max())) for j in range(X.shape[1]))
    return tuple((lo, hi) if lo < hi else (lo, lo + 1.0) for lo, hi in dom)


def fit(X, y, cfg: FitConfig = FitConfig()) -> MarsSurrogate:
    """Fit a hinge-spline surrogate; see fit_with_report for details."""
    return fit_with_report(X, y, cfg)[0]


def fit_with_report(X, y, cfg: FitConfig = FitConfig()) -> tuple[MarsSurrogate, FitReport]:
    """Deterministic MARS fit.

    Forward pass: grows paired +/- hinge terms greedily, candidate knots
    at (up to max_knots) observed data values, parents restricted to
    interaction degree < max_degree and one factor per variable. Every
    candidate is scored from running sums over the sorted inputs
    (Friedman 1991, sec. 3.9). Each step takes the largest SSE reduction;
    reductions within a relative 1e-8 of it tie, and a tie goes to the
    first candidate in (parent, variable, mode, knot) order with the modes
    ordered pair, plus, minus. Once the parent times x is in the model,
    the plus and minus hinges of every knot coincide after projection and
    reduce the SSE equally: the pair is not scored and only plus is.

    Backward pass: deletes, one at a time, the term whose removal raises
    the SSE least (ties to the earliest term), from one Cholesky
    factorization per step, and keeps the subset with the lowest GCV
    (ties to the smaller subset). Zero-variance responses yield a constant
    model with a warning flag rather than an error.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    n, p = X.shape
    if y.shape[0] != n:
        raise ValueError(f"X has {n} rows but y has {y.shape[0]}")
    if n < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples, got {n}")
    for name, arr in (("X", X), ("y", y)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has non-finite values")

    domain = cfg.domain
    if domain is None:
        domain = _data_domain(X)
    else:
        domain = tuple((float(lo), float(hi)) for lo, hi in domain)
        for j in range(p):
            lo, hi = domain[j]
            if X[:, j].min() < lo or X[:, j].max() > hi:
                raise ValueError(f"column {j} has values outside declared domain [{lo}, {hi}]")

    ybar = float(np.mean(y))
    sst = float(np.sum((y - ybar) ** 2))
    # ptp catches exactly-constant responses where the rounded mean leaves
    # sst tiny but nonzero
    if sst == 0.0 or np.ptp(y) == 0.0:
        warnings.warn("response has zero variance; returning a constant model")
        m = MarsSurrogate(intercept=float(y[0]), terms=(), p=p, domain=domain, label=cfg.label)
        rep = FitReport(n=n, n_terms=0, sse=0.0, rmse=0.0, r2=1.0, gcv=0.0, constant=True)
        return m, rep

    factor_sets, forward_rss = _forward_pass(X, y, cfg, sst)
    factor_sets, coefs, intercept, sse, backward_gcv = _backward_pass(X, y, factor_sets, cfg)

    terms = tuple(
        BasisTerm(coef=float(c), factors=fs) for c, fs in zip(coefs, factor_sets)
    )
    m = MarsSurrogate(intercept=float(intercept), terms=terms, p=p, domain=domain, label=cfg.label)
    rep = FitReport(
        n=n,
        n_terms=len(terms),
        sse=float(sse),
        rmse=float(np.sqrt(sse / n)),
        r2=float(1.0 - sse / sst),
        gcv=min(backward_gcv),
        forward_rss=forward_rss,
        backward_gcv=backward_gcv,
    )
    return m, rep


def _span_lengths(p: int, count: int) -> tuple[int, int]:
    """endspan/minspan per the alpha=0.05 span formulas (Friedman 1991);
    count >= 1 is the number of support points of the parent being
    extended. For every p >= 1 they give endspan >= 7 and minspan >= 2."""
    endspan = int(round(3.0 - math.log2(0.05 / p)))
    minspan = int(round(-math.log2(-math.log1p(-0.05) / (p * count)) / 2.5))
    return endspan, minspan


def _parent_candidates(xs: np.ndarray, cfg: FitConfig, p: int) -> np.ndarray:
    """Eligible knot values on one variable given the parent's support xs,
    sorted ascending; xs is never empty, as every parent column the forward
    pass keeps has a positive entry.

    The minimum support value always qualifies (the resulting hinge is
    linear across the support); interior values are rank-trimmed by
    endspan on both sides and rank-thinned by minspan, then capped at
    max_knots evenly spaced order statistics.
    """
    a = xs.size
    endspan, minspan = _span_lengths(p, a)
    if a < endspan + 1:
        return np.empty(0)
    cands = [xs[:1]]
    if a >= 2 * endspan + 1:
        cands.append(xs[np.arange(endspan, a - endspan, minspan)])
    vals = np.unique(np.concatenate(cands))
    if vals.size > cfg.max_knots:
        idx = np.unique(np.linspace(0, vals.size - 1, cfg.max_knots).round().astype(int))
        vals = vals[idx]
    return vals


def _gcv(sse: float, n: int, ncols: int, nterms: int, penalty: float) -> float:
    cost = ncols + penalty * nterms
    denom = 1.0 - cost / n
    if denom <= 0:
        return np.inf
    return (sse / n) / denom**2


def _hinge_sums(W, G, xc, loc, tc, ip, im):
    """Inner products of the columns of W with both candidate hinges.

    Slot s holds a parent column G[s] (n) and the columns W[s] (n x k),
    both in the row order of its sorted centred inputs xc[s]. Candidate i
    is slot loc[i] with centred knot tc[i]; ip[i] and im[i] count the
    sorted x <= t and x < t. Returns (plus, minus), each (L x k):
    w . g(x - t)_+ is a suffix sum and w . g(t - x)_+ a prefix sum of w*g
    and w*g*x, taken from one cumsum over all slots at once.
    """
    WG = G[:, :, None] * W
    c0 = np.zeros((WG.shape[0], WG.shape[1] + 1, WG.shape[2]))
    c1 = np.zeros_like(c0)
    np.cumsum(WG, axis=1, out=c0[:, 1:])
    np.cumsum(WG * xc[:, :, None], axis=1, out=c1[:, 1:])
    t = tc[:, None]
    plus = (c1[loc, -1] - c1[loc, ip]) - t * (c0[loc, -1] - c0[loc, ip])
    minus = t * c0[loc, im] - c1[loc, im]
    return plus, minus


# relative width of a tie between candidate reductions. Against the dense
# n x K scan the running sums differ by up to ~1e-9 of the top reduction,
# while distinct top-two reductions of piston fits differ by 2e-7 or more
_TIE_RTOL = 1e-8


class _KnotScan:
    """Friedman's fast knot update (Friedman 1991, Ann. Stat., sec. 3.9).

    Keeps the orthonormal basis Q of the forward pass and running sums from
    which every candidate knot is scored in O(n) per step. Each eligible
    (parent, variable) pair is a slot, in (parent, variable) order: its
    parent par[s], variable var[s] and the parent column g in the
    variable's sorted row order G[s]. Flat over the candidates in (slot,
    knot) order, loc holds each one's slot, next to the raw hinge norms
    |C+|^2, |C-|^2 and the sums over the columns q of Q of (q.C+)^2,
    (q.C-)^2 and (q.C+)(q.C-). C+ . C- is exactly 0 (disjoint supports).
    """

    def __init__(self, X: np.ndarray, cfg: FitConfig, capacity: int):
        n, p = X.shape
        self.p = p
        self.cfg = cfg
        self.Q = np.empty((n, capacity))
        self.m = 0
        self.parent_cols: list[np.ndarray] = []
        self.parent_factors: list[tuple[HingeFactor, ...]] = []
        self.order = np.argsort(X, axis=0, kind="stable").T  # (p, n)
        self.xs = np.take_along_axis(X, self.order.T, axis=0).T
        self.center = np.median(X, axis=0)
        self.xc = self.xs - self.center[:, None]
        # one row per slot, so only the rows in use are ever touched
        self.G = np.empty((p * capacity, n))
        self.par = self.var = self.loc = self.ip = self.im = np.empty(0, dtype=np.intp)
        self.knot = self.tc = self.raw_p = self.raw_m = np.empty(0)
        self.spp = self.smm = self.spm = np.empty(0)

    @property
    def basis(self) -> np.ndarray:
        return self.Q[:, : self.m]

    def add_parent(self, pcol: np.ndarray, factors: tuple[HingeFactor, ...]) -> None:
        """A selected term becomes a parent on each variable it leaves free,
        registered on all of them in one stacked pass."""
        pi = len(self.parent_factors)
        self.parent_cols.append(pcol)
        self.parent_factors.append(factors)
        if len(factors) >= self.cfg.max_degree:
            return
        p = self.p
        used = {f.var for f in factors}
        gs = pcol[self.order]  # the parent column in each variable's sorted order
        cands = {v: _parent_candidates(self.xs[v][gs[v] > 0], self.cfg, p)
                 for v in range(p) if v not in used}
        vs = np.array([v for v, kn in cands.items() if kn.size], dtype=np.intp)
        if not vs.size:
            return
        knots, s0 = [cands[v] for v in vs], self.par.size
        g, xc, xs = gs[vs], self.xc[vs], self.xs[vs]
        loc = np.repeat(np.arange(vs.size), [kn.size for kn in knots])
        knot = np.concatenate(knots)
        tc = knot - self.center[vs][loc]
        ip = np.concatenate([np.searchsorted(x, kn, side="right") for x, kn in zip(xs, knots)])
        im = np.concatenate([np.searchsorted(x, kn, side="left") for x, kn in zip(xs, knots)])
        self.G[s0 : s0 + vs.size] = g
        # raw norms: sum of g^2 (x - t)^2 over the suffix / prefix
        g2 = g * g
        S = np.zeros((vs.size, g.shape[1] + 1, 3))
        np.cumsum(np.stack([g2, g2 * xc, g2 * xc**2], axis=-1), axis=1, out=S[:, 1:])
        suf, pre = S[loc, -1] - S[loc, ip], S[loc, im]
        raw_p = suf[:, 2] - 2.0 * tc * suf[:, 1] + tc * tc * suf[:, 0]
        raw_m = pre[:, 2] - 2.0 * tc * pre[:, 1] + tc * tc * pre[:, 0]
        plus, minus = _hinge_sums(self.basis[self.order[vs]], g, xc, loc, tc, ip, im)
        cat = np.concatenate
        self.par, self.var = cat([self.par, np.full(vs.size, pi)]), cat([self.var, vs])
        self.loc, self.ip, self.im = cat([self.loc, loc + s0]), cat([self.ip, ip]), cat([self.im, im])
        self.knot, self.tc = cat([self.knot, knot]), cat([self.tc, tc])
        self.raw_p = cat([self.raw_p, np.maximum(raw_p, 0.0)])
        self.raw_m = cat([self.raw_m, np.maximum(raw_m, 0.0)])
        self.spp = cat([self.spp, np.einsum("ij,ij->i", plus, plus)])
        self.smm = cat([self.smm, np.einsum("ij,ij->i", minus, minus)])
        self.spm = cat([self.spm, np.einsum("ij,ij->i", plus, minus)])

    def _sums(self, w: np.ndarray):
        """w.C+ and w.C- of every candidate, for a w in original row order."""
        ws, G = w[self.order[self.var]][:, :, None], self.G[: self.par.size]
        plus, minus = _hinge_sums(ws, G, self.xc[self.var], self.loc, self.tc, self.ip, self.im)
        return plus[:, 0], minus[:, 0]

    def add_column(self, q: np.ndarray) -> None:
        """Add a basis column; fold it into every candidate's sums."""
        self.Q[:, self.m] = q
        self.m += 1
        if not self.par.size:
            return
        plus, minus = self._sums(q)
        self.spp = self.spp + plus**2
        self.smm = self.smm + minus**2
        self.spm = self.spm + plus * minus

    def reductions(self, resid: np.ndarray):
        """SSE reductions (paired, plus only, minus only) of every candidate,
        for a residual orthogonal to the basis."""
        u, w = self._sums(resid)
        a = self.raw_p - self.spp
        c = self.raw_m - self.smm
        b = -self.spm
        ok_p = a > 1e-12 * np.maximum(self.raw_p, 1e-300)
        ok_m = c > 1e-12 * np.maximum(self.raw_m, 1e-300)
        # C+ - C- = g*(x - t) and g is in the span of Q, so the residualized
        # pair is collinear exactly when the residual of g*x vanishes; its
        # squared norm is that of the residualized C+ - C-, a + c - 2b
        apart = a + c - 2.0 * b > 1e-12 * (self.raw_p + self.raw_m)
        with np.errstate(divide="ignore", invalid="ignore"):
            red_p = np.where(ok_p, u * u / a, 0.0)
            red_m = np.where(ok_m, w * w / c, 0.0)
            det = a * c - b * b
            ok2 = ok_p & ok_m & apart & (det > 1e-12 * a * c)
            red2 = np.where(ok2, (c * u * u - 2 * b * u * w + a * w * w) / det, 0.0)
        red2 = np.where(np.isfinite(red2), red2, 0.0)
        # mirror tie: each hinge is admissible alone but not as a pair, so
        # the residualized C+ and C- are collinear and reduce the SSE
        # equally; only plus is scored
        red_m = np.where(ok_p & ok_m & ~ok2, 0.0, red_m)
        return red2, red_p, red_m

    def best(self, resid: np.ndarray):
        """(reduction, parent, var, knot, mode) of the best candidate, or None.

        Reductions within a relative _TIE_RTOL of the largest one tie, and
        a tie goes to the first candidate in (parent, var, mode, knot)
        order, modes ordered both, plus, minus. Exact fits tie many
        candidates up to roundoff (every paired knot on a linear
        response), so the order, not the roundoff, picks among them.
        """
        if not self.loc.size:
            return None
        reds = np.stack(self.reductions(resid))
        top = max(float(r.max()) for r in reds)
        if not top > 0:
            return None
        hit = reds >= top * (1.0 - _TIE_RTOL)
        # the first slot with a hit, then its first mode with a hit, then
        # that mode's first knot: candidates run in (slot, knot) order
        s = self.loc[hit.any(axis=0).argmax()]
        at = np.flatnonzero(self.loc == s)
        rank = int(hit[:, at].any(axis=1).argmax())
        i = at[hit[rank, at].argmax()]
        r = float(reds[rank, i])
        return r, int(self.par[s]), int(self.var[s]), float(self.knot[i]), ("both", "plus", "minus")[rank]


def _forward_pass(X, y, cfg: FitConfig, sst):
    """Greedy paired-hinge growth.

    Returns the selected factor sets and the SSE after each step, the
    intercept-only fit first.
    """
    n = X.shape[0]
    max_cols = min(cfg.max_terms + 1, max(3, int(0.9 * n)))
    scan = _KnotScan(X, cfg, max_cols)
    q0 = np.full(n, 1.0 / np.sqrt(n))
    scan.add_column(q0)
    scan.add_parent(np.ones(n), ())
    factor_sets: list[tuple[HingeFactor, ...]] = []

    resid = y - q0 * (q0 @ y)
    sse = float(resid @ resid)
    rss_path = [sse]
    floor = 1e-24 * sst

    while len(factor_sets) + 2 <= cfg.max_terms and scan.m + 2 <= max_cols and sse > floor:
        best = scan.best(resid)
        if best is None or best[0] <= 1e-13 * sst:
            break
        _, pi, v, knot, mode = best
        pcol = scan.parent_cols[pi]
        pf = scan.parent_factors[pi]
        xv = X[:, v]
        additions = []
        if mode in ("both", "plus"):
            additions.append((1, pcol * np.maximum(xv - knot, 0.0)))
        if mode in ("both", "minus"):
            additions.append((-1, pcol * np.maximum(knot - xv, 0.0)))
        added = False
        for sign, col in additions:
            Q = scan.basis
            r = col - Q @ (Q.T @ col)
            r = r - Q @ (Q.T @ r)  # re-orthogonalize for stability
            nrm2 = float(r @ r)
            raw2 = float(col @ col)
            if nrm2 <= 1e-20 * max(raw2, 1e-300):
                continue
            qnew = r / np.sqrt(nrm2)
            scan.add_column(qnew)
            resid = resid - qnew * (qnew @ resid)
            fs = pf + (HingeFactor(var=v, sign=sign, knot=knot),)
            factor_sets.append(fs)
            scan.add_parent(col, fs)
            added = True
        if not added:
            break
        sse = float(resid @ resid)
        rss_path.append(sse)
    return factor_sets, tuple(rss_path)


def _design_from_factor_sets(X, factor_sets) -> np.ndarray:
    n = X.shape[0]
    B = np.ones((n, 1 + len(factor_sets)))
    for j, fs in enumerate(factor_sets, start=1):
        col = np.ones(n)
        for f in fs:
            col = col * np.maximum(f.sign * (X[:, f.var] - f.knot), 0.0)
        B[:, j] = col
    return B


def _drop_costs(Gs: np.ndarray, gs: np.ndarray, yty: float):
    """Coefficients of the least-squares fit with Gram block Gs, the SSE
    increase from dropping each column, coef_j^2 / (Gs^-1)_jj, and a solver
    v -> Gs^-1 v, all from one Cholesky factorization. A singular Gs falls
    back to lstsq: on Gs for the solver, and one fit per column for the costs."""
    try:
        Linv = np.linalg.inv(np.linalg.cholesky(Gs))
    except np.linalg.LinAlgError:
        def solve(v):
            return np.linalg.lstsq(Gs, v, rcond=None)[0]
        coef = solve(gs)
        sse = max(yty - float(gs @ coef), 0.0)
        cost = np.empty(gs.size)
        for j in range(gs.size):
            keep = np.arange(gs.size) != j
            Gj, gj = Gs[np.ix_(keep, keep)], gs[keep]
            cj = np.linalg.lstsq(Gj, gj, rcond=None)[0]
            cost[j] = max(yty - float(gj @ cj), 0.0) - sse
        return coef, cost, solve

    def solve(v):
        return Linv.T @ (Linv @ v)

    coef = solve(gs)
    return coef, coef * coef / np.einsum("ij,ij->j", Linv, Linv), solve


def _backward_pass(X, y, factor_sets, cfg: FitConfig):
    """GCV-pruned subset along the greedy deletion path.

    Each step drops the term whose removal raises the SSE least (ties to
    the lowest index); each subset's SSE is ||y - B_s coef||^2, which does
    not cancel to 0 on a near-exact fit as y'y - g'coef does. The kept
    subset takes one refinement step with the factor of its own step, the
    corrected semi-normal equations (Bjorck 1987). Returns the kept factor
    sets, their coefficients, the intercept, the SSE and the GCV of every
    subset on the path, the full model first.
    """
    n = X.shape[0]
    penalty = cfg.effective_penalty()
    B = _design_from_factor_sets(X, factor_sets)
    yty = float(y @ y)
    G = B.T @ B
    g = B.T @ y

    active = list(range(B.shape[1]))  # column 0 = intercept, kept always
    best, best_gcv = None, np.inf
    gcv_path = []
    while True:
        idx = np.asarray(active)
        coef, cost, solve = _drop_costs(G[np.ix_(idx, idx)], g[idx], yty)
        resid = y - B[:, idx] @ coef
        sse = float(resid @ resid)
        gcv_here = _gcv(sse, n, len(active), len(active) - 1, penalty)
        gcv_path.append(float(gcv_here))
        if best is None or gcv_here <= best_gcv:  # a NaN path keeps the full model
            best_gcv = gcv_here
            best = idx, coef, resid, solve
        if len(active) == 1:
            break
        del active[1 + int(np.argmin(cost[1:]))]

    idx, coef, resid, solve = best
    Bs = B[:, idx]
    coef = coef + solve(Bs.T @ resid)
    resid = y - Bs @ coef
    kept = [factor_sets[j - 1] for j in idx[1:]]
    return kept, coef[1:], float(coef[0]), float(resid @ resid), tuple(gcv_path)


def fit_ensemble(X, y, cfg: FitConfig, B: int, seed: int) -> Ensemble:
    """B-member bootstrap ensemble; see fit_ensemble_with_report."""
    return fit_ensemble_with_report(X, y, cfg, B, seed)[0]


def fit_ensemble_with_report(
    X, y, cfg: FitConfig, B: int, seed: int
) -> tuple[Ensemble, tuple[FitReport, ...]]:
    """B surrogates and their fit reports, in member order: member 0 is the
    full-data fit, members 1..B-1 are fits to bootstrap row-resamples drawn
    from seed.

    These bootstrap members stand in for the draws of a posterior over
    hinge-spline models; B is exposed directly (there is no burn-in or
    thinning analogue for bootstrap resampling).
    """
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    # every member gets the full data's range, as member 0 would by itself
    cfg_dom = cfg if cfg.domain is not None else replace(cfg, domain=_data_domain(X))
    fits = [fit_with_report(X, y, cfg_dom)]
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    for _ in range(B - 1):
        rows = rng.integers(0, n, size=n)
        fits.append(fit_with_report(X[rows], y[rows], cfg_dom))
    members, reports = zip(*fits)
    return Ensemble(members=members, label=cfg.label or "model"), reports


def cross_validated_rmspe(X, y, cfg: FitConfig, k: int) -> float:
    """k-fold CV root mean squared prediction error on the unit-variance
    scale (divided by the sd of y). Folds are deterministic round-robin."""
    if k < 2:
        raise ValueError(f"k-fold CV needs k >= 2 folds, got {k}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n = X.shape[0]
    k = min(k, n)
    folds = np.arange(n) % k
    pred = np.empty(n)
    for f in range(k):
        mask = folds == f
        m = fit(X[~mask], y[~mask], cfg)
        pred[mask] = m.evaluate_batch(X[mask])
    sd = float(np.std(y))
    if sd == 0:
        return 0.0
    return float(np.sqrt(np.mean((y - pred) ** 2)) / sd)
