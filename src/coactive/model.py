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


# Array cells (rows x columns) in one block of a batch computation: the
# design matrix of evaluate_batch and the input of one gradient call in
# mc_cmat. Working memory then does not grow with the batch, and the block's
# products stay below OpenBLAS's threading threshold, so no worker thread
# wakes and spins.
_CHUNK_CELLS = 5 << 15


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

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        """Values at the rows of X, from design matrices of row blocks of at
        most _CHUNK_CELLS cells; a row's value does not depend on its block."""
        X = _as_batch(X, self.p)
        coefs = np.array([t.coef for t in self.terms])
        if coefs.size == 0:
            return np.full(X.shape[0], self.intercept)
        factor_sets = [t.factors for t in self.terms]
        rows = max(1, _CHUNK_CELLS // (coefs.size + 1))
        out = np.empty(X.shape[0])
        for a in range(0, X.shape[0], rows):
            B = _design_from_factor_sets(X[a:a + rows], factor_sets)
            out[a:a + rows] = self.intercept + B[:, 1:] @ coefs
        return out

    # -- differentiation -------------------------------------------------

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        """Analytic gradient, shape (n, p).

        At a knot the one-sided derivative that is continuous from the
        right is used: d/dx max(x - t, 0) = 1{x >= t} and
        d/dx max(t - x, 0) = -1{x < t}. The function is non-differentiable
        only on this measure-zero knot set.

        Each input is a contiguous row of a transposed copy of X, and the
        gradient is summed into contiguous rows in term order. A term of
        degree >= 2 is computed only on its joint support, the rows where
        every factor is active; elsewhere the loop's product is a zero of
        either sign, and adding it to an entry that starts at +0.0 changes
        nothing. On the support each hinge value is its plain difference,
        x - t >= +0.0 or t - x > 0, and the product of the other factors'
        values is a left fold in factor order, so the result is bitwise
        that of the per-column loop in tests/mars_reference.py.
        """
        X = _as_batch(X, self.p)
        n = X.shape[0]
        XT = X.T.copy()  # (p, n), C-ordered; its buffer later holds the result
        GT = np.zeros_like(XT)
        for term in self.terms:
            factors = term.factors
            if not factors:  # a constant term has a zero gradient
                continue
            actives = [(XT[f.var] >= f.knot) if f.sign > 0 else (XT[f.var] < f.knot)
                       for f in factors]
            if len(factors) == 1:
                f = factors[0]
                GT[f.var] += actives[0] * (term.coef * f.sign)
                continue
            support = actives[0]
            for act in actives[1:]:
                support &= act
            idx = np.flatnonzero(support)
            vals = [XT[f.var].take(idx) - f.knot if f.sign > 0 else f.knot - XT[f.var].take(idx)
                    for f in factors]
            for a, f in enumerate(factors):
                others = None
                for b, val in enumerate(vals):
                    if b != a:
                        others = val if others is None else others * val
                g = GT[f.var]  # a row view: GT[f.var, idx] indexes ~20 % slower
                g[idx] += others * (term.coef * f.sign)
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
    if not np.isfinite(X).all():  # off a term's support a NaN would give 0, on it NaN
        raise ValueError("input batch has a non-finite entry")
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


def _write_json(path, d: dict, meta: dict | None = None, sort_keys: bool = True) -> None:
    """The one JSON artifact writer: indent 2, a final newline, meta last.
    Floats round-trip bitwise (shortest repr)."""
    if meta:
        d = {**d, "meta": meta}
    text = json.dumps(d, indent=2, sort_keys=sort_keys) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_meta_csv(path, rows, meta: dict | None = None, header=None) -> None:
    """The one CSV artifact writer: a `# k=v ...` meta line when meta is
    given, the header when given, then one line per row, floats at 17
    significant digits."""

    def cell(v):
        return f"{v:.17g}" if isinstance(v, float) else str(v)

    with open(path, "w", encoding="utf-8") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        if header:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


def save_model(m: MarsSurrogate, path, meta: dict | None = None) -> None:
    """Write a model JSON file, keys in field order."""
    _write_json(path, model_to_dict(m), meta, sort_keys=False)


def load_model(path) -> MarsSurrogate:
    return model_from_dict(_read_json(path))


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
    return Ensemble(members=tuple(members), label=os.path.basename(os.path.normpath(directory)))


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

    def __post_init__(self):
        if self.max_terms < 0:
            raise ValueError(f"max_terms must be >= 0, got {self.max_terms}")
        if self.max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {self.max_degree}")
        if self.max_knots < 1:
            raise ValueError(f"max_knots must be >= 1, got {self.max_knots}")
        if self.penalty is not None and not math.isfinite(self.penalty):
            raise ValueError(f"penalty must be finite, got {self.penalty}")

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
    the SSE least (ties to the earliest term), read off one sweep of the
    Gram matrix, and keeps the subset with the lowest GCV (ties to the
    smaller subset). Zero-variance responses yield a constant model with a
    warning flag rather than an error.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    n, p = X.shape
    if y.shape[0] != n:
        raise ValueError(f"X has {n} rows but y has {y.shape[0]}")
    if cfg.domain is not None and len(cfg.domain) != p:
        raise ValueError(f"the fit domain has {len(cfg.domain)} entries but X has {p} columns")
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

    B, factor_sets, forward_rss = _forward_pass(X, y, cfg, sst)
    factor_sets, coefs, intercept, sse, backward_gcv = _backward_pass(B, y, factor_sets, cfg)

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
    vals = _distinct(np.concatenate([xs[:1], xs[endspan : a - endspan : minspan]]))
    if vals.size > cfg.max_knots:
        # the step (size - 1)/(max_knots - 1) exceeds 1, so the rounded
        # indices strictly increase
        vals = vals[np.linspace(0, vals.size - 1, cfg.max_knots).round().astype(int)]
    return vals


def _distinct(v: np.ndarray) -> np.ndarray:
    """np.unique of v, which is sorted ascending, without its sort."""
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def _gcv(sse: float, n: int, ncols: int, nterms: int, penalty: float) -> float:
    cost = ncols + penalty * nterms
    denom = 1.0 - cost / n
    if denom <= 0:
        return np.inf
    return (sse / n) / denom**2


def _slot_rows(loc, ip, im, width):
    """Rows of a prefix table flattened from (slots x (width + 1)): each
    candidate's slot end, and its counts ip and im into its slot loc."""
    base = loc * (width + 1)
    return base + width, base + ip, base + im


def _split_sums(A, at):
    """Sums of A (slots x width x k) over each candidate's sorted support
    rows, from one prefix table over all slots read at at = _slot_rows:
    (suffix from ip on, prefix before im), each (L x k). Rows are read with
    take, several times faster than indexing when they are short."""
    S, width, k = A.shape
    T = np.zeros((S, width + 1, k))
    np.cumsum(A, axis=1, out=T[:, 1:])
    T = T.reshape(-1, k)
    end, ip, im = at
    return T.take(end, axis=0) - T.take(ip, axis=0), T.take(im, axis=0)


# relative width of a tie between candidate reductions. Against the dense
# n x K scan the running sums differ by up to ~1e-9 of the top reduction,
# while distinct top-two reductions of piston fits differ by 2e-7 or more
_TIE_RTOL = 1e-8

# the narrowest width class of the knot scan's slots
_MIN_WIDTH = 128


class _WidthClass:
    """The slots of a _KnotScan whose parent support fits in width rows,
    and their candidate knots.

    Slot s extends parent par[s] on variable var[s]; slots run in (parent,
    variable) order, a parent's slots being consecutive. Row s of rows, g
    and xc is the slot's support in its variable's sorted order,
    left-aligned and zero-padded: the sample rows, the parent column there
    and the centred input. A zero g leaves every running sum bitwise
    unchanged, so the sums over these rows are those over all n. The row
    buffers grow on demand.
    Flat over the candidates in (slot, knot) order, loc holds each one's
    slot, knot its knot, tc the centred knot t and ip and im the counts of
    the slot's sorted x <= t and x < t, next to the raw hinge norms |C+|^2,
    |C-|^2, the sums over the columns q of Q of (q.C+)^2, (q.C-)^2 and
    (q.C+)(q.C-), and the residual sums u = resid.C+ and w = resid.C-,
    updated as each column takes its share off the residual. C+ . C- is
    exactly 0 (disjoint supports).
    """

    def __init__(self, width: int):
        self.width = width
        self.size = 0
        self.rows = np.zeros((0, width), dtype=np.intp)
        self.g = np.zeros((0, width))
        self.xc = np.zeros((0, width))
        self.par = self.var = self.loc = self.ip = self.im = np.empty(0, dtype=np.intp)
        self.knot = self.tc = self.raw_p = self.raw_m = np.empty(0)
        self.spp = self.smm = self.spm = self.u = self.w = np.empty(0)

    def add(self, pi, free, rows, g, xs, knots, center, W):
        """Register parent pi on the variables free, in the next rows of
        the buffers: its (slots x a) sample rows, parent values and inputs
        in each free variable's sorted order, the knots on each and the
        variables' centres. Its candidates are projected on the columns of
        W, the m columns of Q and then the residual. Term pi came with
        column pi of Q: its sums over columns 0..pi are one einsum and the
        later columns are added one at a time, as when each term was
        registered right after its own column."""
        (k, a), s0 = rows.shape, self.size
        if s0 + k > self.rows.shape[0]:
            cap = max(2 * self.rows.shape[0], s0 + k)
            for name in ("rows", "g", "xc"):
                old = getattr(self, name)
                new = np.zeros((cap, self.width), dtype=old.dtype)
                new[:s0] = old[:s0]
                setattr(self, name, new)
        self.size = s0 + k
        xc = xs - center[:, None]
        block = (slice(s0, self.size), slice(0, a))
        self.rows[block], self.g[block], self.xc[block] = rows, g, xc
        loc = np.repeat(np.arange(k), [kn.size for kn in knots])
        knot = np.concatenate(knots)
        tc = knot - center[loc]
        ip = np.concatenate([np.searchsorted(x, kn, side="right") for x, kn in zip(xs, knots)])
        im = np.concatenate([np.searchsorted(x, kn, side="left") for x, kn in zip(xs, knots)])
        at = _slot_rows(loc, ip, im, a)
        # raw norms: sum of g^2 (x - t)^2 over the suffix / prefix
        g2 = g * g
        suf, pre = _split_sums(np.stack([g2, g2 * xc, g2 * xc**2], axis=-1), at)
        raw_p = suf[:, 2] - 2.0 * tc * suf[:, 1] + tc * tc * suf[:, 0]
        raw_m = pre[:, 2] - 2.0 * tc * pre[:, 1] + tc * tc * pre[:, 0]
        plus, minus = self._hinge_sums(W, s0, a, at, tc)
        m = W.shape[1] - 1
        P, M = plus[:, : pi + 1], minus[:, : pi + 1]
        spp, smm, spm = (np.einsum("ij,ij->i", A, B) for A, B in ((P, P), (M, M), (P, M)))
        for j in range(pi + 1, m):
            spp += plus[:, j] ** 2
            smm += minus[:, j] ** 2
            spm += plus[:, j] * minus[:, j]
        new = {"par": np.full(k, pi), "var": free, "loc": s0 + loc, "knot": knot, "tc": tc, "ip": ip,
               "im": im, "raw_p": np.maximum(raw_p, 0.0), "raw_m": np.maximum(raw_m, 0.0),
               "spp": spp, "smm": smm, "spm": spm, "u": plus[:, m], "w": minus[:, m]}
        for name, part in new.items():
            setattr(self, name, np.concatenate([getattr(self, name), part]))

    def fold(self, W, betas):
        """Fold the columns of W (n x k), new columns of Q that took
        betas off the residual, into the sums of every candidate here."""
        at = _slot_rows(self.loc, self.ip, self.im, self.width)
        plus, minus = self._hinge_sums(W, 0, self.width, at, self.tc)
        for j, beta in enumerate(betas):
            pj, mj = plus[:, j], minus[:, j]
            self.spp = self.spp + pj**2
            self.smm = self.smm + mj**2
            self.spm = self.spm + pj * mj
            self.u = self.u - beta * pj
            self.w = self.w - beta * mj

    def _hinge_sums(self, W, s0, width, at, tc):
        """W.C+ and W.C- (L x k), for the columns of W (n x k) in
        sample-row order, of the candidates of slots s0 on, whose supports
        fit in width rows, read at at = _slot_rows, with centred knots tc:
        w . g(x - t)_+ is a suffix sum and w . g(t - x)_+ a prefix sum of
        w*g and w*g*x."""
        s = (slice(s0, self.size), slice(0, width))
        A = W.take(self.rows[s], axis=0)
        A *= self.g[s][:, :, None]
        suf0, pre0 = _split_sums(A, at)
        A *= self.xc[s][:, :, None]
        suf1, pre1 = _split_sums(A, at)
        t = tc[:, None]
        return suf1 - t * suf0, t * pre0 - pre1

    def reductions(self):
        """SSE reductions (paired, plus only, minus only) of every candidate
        here, for the residual of the last update."""
        u, w = self.u, self.w
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


class _KnotScan:
    """Friedman's fast knot update (Friedman 1991, Ann. Stat., sec. 3.9).

    Keeps the orthonormal basis Q of the forward pass and the parents. Each
    term added comes with one column of Q and becomes a parent. Each
    eligible (parent, variable) pair is a slot. A parent's slots and their
    candidates are stored together in the narrowest width class (n, n/2,
    n/4, ... down to _MIN_WIDTH) that holds its support, which keeps the
    running sums that score every candidate knot in O(n) per step.
    """

    def __init__(self, X: np.ndarray, cfg: FitConfig, capacity: int):
        n, p = X.shape
        self.p = p
        self.cfg = cfg
        self.Q = np.empty((n, capacity))
        self.m = 0
        self.betas: list[float] = []  # of the columns not yet folded in
        self.parent_cols: list[np.ndarray] = []
        self.parent_factors: list[tuple[HingeFactor, ...]] = []
        self.order = np.argsort(X, axis=0, kind="stable").T  # (p, n)
        self.xs = np.take_along_axis(X, self.order.T, axis=0).T
        self.center = np.median(X, axis=0)
        widths = [n]
        while widths[-1] // 2 >= _MIN_WIDTH:
            widths.append(widths[-1] // 2)
        self.classes = [_WidthClass(w) for w in widths]

    @property
    def basis(self) -> np.ndarray:
        return self.Q[:, : self.m]

    def add_term(self, q: np.ndarray, beta: float, col: np.ndarray,
                 factors: tuple[HingeFactor, ...]) -> None:
        """Append the basis column q of the term col with factors; beta is
        q.resid, the share q takes off the residual. update folds it in."""
        self.Q[:, self.m] = q
        self.m += 1
        self.betas.append(beta)
        self.parent_cols.append(col)
        self.parent_factors.append(factors)

    def update(self, resid: np.ndarray) -> None:
        """Fold the terms added since the last update into the scan, for
        the residual resid after them: one pass over each class's slots for
        all their columns, then one registration of them as parents."""
        betas, self.betas = self.betas, []
        k = len(betas)
        for c in self.classes:
            if c.size:
                c.fold(self.Q[:, self.m - k : self.m], betas)
        self._register(range(self.m - k, self.m), resid)

    def _register(self, terms, resid: np.ndarray) -> None:
        """The terms (indices into parent_cols) become parents on each
        variable they leave free. A parent column is non-negative and each
        variable's sorted order permutes its rows, so a parent has one
        support size a on every free variable: one span rule, one width
        class, and candidates on all of those variables or on none. Its
        slots go as one block into the narrowest class that holds a and are
        projected there on every column of Q and on resid at once."""
        p, cfg, m = self.p, self.cfg, self.m
        W = np.empty((self.Q.shape[0], m + 1))
        W[:, :m], W[:, m] = self.basis, resid
        widths = [c.width for c in reversed(self.classes)]
        for pi in terms:
            factors = self.parent_factors[pi]
            used = {f.var for f in factors}
            free = [v for v in range(p) if v not in used]
            if len(factors) >= cfg.max_degree or not free:
                continue
            order = self.order[free]
            gs = self.parent_cols[pi][order]  # the parent in each free variable's sorted order
            sup = np.flatnonzero(gs > 0)
            shape = (len(free), sup.size // len(free))
            rows, g, xs = (B.take(sup).reshape(shape) for B in (order, gs, self.xs[free]))
            knots = [_parent_candidates(x, cfg, p) for x in xs]
            if not knots[0].size:  # too few support points, so on every variable
                continue
            c = self.classes[len(widths) - 1 - np.searchsorted(widths, shape[1])]
            c.add(pi, np.array(free, dtype=np.intp), rows, g, xs, knots, self.center[free], W)

    def best(self):
        """(reduction, parent, var, knot, mode) of the best candidate for the
        residual of the last update, or None.

        Reductions within a relative _TIE_RTOL of the largest one tie, and
        a tie goes to the first candidate in (parent, var, mode, knot)
        order, modes ordered both, plus, minus. Exact fits tie many
        candidates up to roundoff (every paired knot on a linear
        response), so the order, not the roundoff, picks among them.
        """
        scored = [(c, np.stack(c.reductions())) for c in self.classes if c.size]
        if not scored:
            return None
        top = max(float(reds.max()) for _, reds in scored)
        if not top > 0:
            return None
        # each class's first slot with a hit, in (parent, var) order; a
        # parent's slots share one class, so the lowest parent among them
        # is the first slot overall. Then its first mode with a hit, then
        # that mode's first knot: candidates run in (slot, knot) order
        firsts = []
        for c, reds in scored:
            hit = reds >= top * (1.0 - _TIE_RTOL)
            if hit.any():
                s = c.loc[hit.any(axis=0).argmax()]
                firsts.append((c.par[s], c, reds, hit, s))
        _, c, reds, hit, s = min(firsts, key=lambda f: f[0])
        at = np.flatnonzero(c.loc == s)
        rank = int(hit[:, at].any(axis=1).argmax())
        i = at[hit[rank, at].argmax()]
        r = float(reds[rank, i])
        return r, int(c.par[s]), int(c.var[s]), float(c.knot[i]), ("both", "plus", "minus")[rank]


def _forward_pass(X, y, cfg: FitConfig, sst):
    """Greedy paired-hinge growth.

    Returns the design matrix of the scan's parents, the intercept column
    first, their factor sets after the intercept, and the SSE after each
    step, the intercept-only fit first.
    """
    n = X.shape[0]
    max_cols = min(cfg.max_terms + 1, max(3, int(0.9 * n)))
    scan = _KnotScan(X, cfg, max_cols)
    q0 = np.full(n, 1.0 / np.sqrt(n))
    beta = q0 @ y
    resid = y - q0 * beta
    scan.add_term(q0, beta, np.ones(n), ())

    sse = float(resid @ resid)
    rss_path = [sse]
    floor = 1e-24 * sst

    # max_cols <= max_terms + 1, so this also holds the scan.m - 1 terms to max_terms
    while scan.m + 2 <= max_cols and sse > floor:
        scan.update(resid)
        best = scan.best()
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
            beta = qnew @ resid
            resid = resid - qnew * beta
            scan.add_term(qnew, beta, col, pf + (HingeFactor(var=v, sign=sign, knot=knot),))
            added = True
        if not added:
            break
        sse = float(resid @ resid)
        rss_path.append(sse)
    return np.column_stack(scan.parent_cols), scan.parent_factors[1:], tuple(rss_path)


def _design_from_factor_sets(X, factor_sets) -> np.ndarray:
    n = X.shape[0]
    B = np.ones((n, 1 + len(factor_sets)))
    for j, fs in enumerate(factor_sets, start=1):
        col = np.ones(n)
        for f in fs:
            col = col * np.maximum(f.sign * (X[:, f.var] - f.knot), 0.0)
        B[:, j] = col
    return B


def _sweep(A, k, sign):
    """Sweep (sign 1) or un-sweep (sign -1) the symmetric A on pivot k in
    place (Goodnight 1979). With the columns S of [[G, g], [g', y'y]] swept
    in, A[S, S] = -G_S^-1 and A[S, -1] = G_S^-1 g_S, the fit's coefficients."""
    d = A[k, k]
    b = A[k] / d
    A -= np.multiply.outer(b, b) * d
    A[k] = A[:, k] = sign * b
    A[k, k] = -1.0 / d


def _backward_pass(B, y, factor_sets, cfg: FitConfig):
    """GCV-pruned subset along the greedy deletion path, over the columns
    of B: the intercept, then one column per factor set.

    Every column is swept into [[B'B, B'y], [y'B, y'y]] once; each step
    drops the term whose removal raises the SSE least (ties to the lowest
    index) and un-sweeps it. Each subset's SSE is ||y - B_s coef||^2, which
    does not cancel to 0 on a near-exact fit as y'y - g'coef does. The kept
    subset takes one refinement step with its swept block, the corrected
    semi-normal equations (Bjorck 1987). Every product is an einsum, so no
    BLAS thread count changes the bytes. Returns the kept factor sets, their
    coefficients, the intercept, the SSE and the GCV of every subset on the
    path, the full model first.
    """
    n, m = B.shape
    penalty = cfg.effective_penalty()
    By = np.column_stack((B, y))
    A = np.einsum("ij,ik->jk", By, By)
    # a column whose pivot has fallen to 1e-12 of its own square is aliased
    # with earlier ones: it stays out, with coefficient 0
    own = A.diagonal()[:m].copy()
    swept = np.zeros(m, dtype=bool)
    for k in range(m):
        swept[k] = A[k, k] > 1e-12 * own[k]
        if swept[k]:
            _sweep(A, k, 1)
    active = np.arange(m)  # column 0 = intercept, kept always
    best, best_gcv = None, np.inf
    gcv_path = []
    while True:
        s = swept[active]
        coef = np.where(s, A[active, -1], 0.0)
        resid = y - np.einsum("ij,j->i", B[:, active], coef)
        sse = float(np.einsum("i,i->", resid, resid))
        gcv_here = _gcv(sse, n, active.size, active.size - 1, penalty)
        gcv_path.append(float(gcv_here))
        if best is None or gcv_here <= best_gcv:  # a NaN path keeps the full model
            best_gcv, best = gcv_here, (active, coef, resid, A.copy())
        if active.size == 1:
            break
        # dropping column j costs coef_j^2 / (G_s^-1)_jj of SSE, an aliased one 0
        cost = coef * coef / np.where(s, -A[active, active], 1.0)
        j = active[1 + int(np.argmin(cost[1:]))]
        if swept[j]:
            _sweep(A, j, -1)
        active = active[active != j]

    idx, coef, resid, A = best
    s = swept[idx]
    Ginv = np.where(np.multiply.outer(s, s), -A[np.ix_(idx, idx)], 0.0)
    Bs = B[:, idx]
    coef = coef + np.einsum("jk,k->j", Ginv, np.einsum("ij,i->j", Bs, resid))
    resid = y - np.einsum("ij,j->i", Bs, coef)
    kept = [factor_sets[j - 1] for j in idx[1:]]
    return kept, coef[1:], float(coef[0]), float(np.einsum("i,i->", resid, resid)), tuple(gcv_path)


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
