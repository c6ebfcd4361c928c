"""Exact gradient outer-product matrices for hinge-spline surrogates.

Every entry of C_kl = E[grad f_k grad f_l^T] reduces, for independent
product priors, to sums over term pairs of products of univariate
integrals over hinge supports: the derivative-value tables i1_kl and
i1_lk, the value-value table i2 and the derivative-derivative table i3.
Those integrals in turn reduce to truncated moments
xi(r | a, b) = int_a^b x^r mu_i(x) dx of order r in {0, 1, 2}, available
in closed form for uniform and (truncated) normal marginals.

One kernel, _pair_sums, multiplies out each pair of an f_k factor (on
x_i) and an f_l factor (on x_j), skipping the i2 of variables neither term
uses, which are exactly 1, and sums them by key with math.fsum: (i, j) for
cmat (i <= j, mirrored, for a model against itself), i = j for cmat_trace
and the stacked cluster grid, and i for expected_gradient (the kernel
against the constant 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BasisTerm, MarsSurrogate, _read_json, _write_json, _write_meta_csv

__all__ = [
    "UniformDim",
    "NormalDim",
    "InputPrior",
    "CoActiveMatrix",
    "cmat",
    "cmat_trace",
    "expected_gradient",
    "cmat_modified",
    "save_prior",
    "load_prior",
    "prior_from_dict",
    "prior_to_dict",
    "write_matrix_csv",
    "matrix_to_dict",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _phi(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT2PI


def _zphi(z):
    z = np.asarray(z, dtype=float)
    out = np.where(np.isinf(z), 0.0, z * _phi(np.where(np.isinf(z), 0.0, z)))
    return out


def _ndtr_ends(alpha, beta):
    """(sgn, ndtr(sgn * alpha), ndtr(sgn * beta)), reflected (sgn = -1)
    where alpha > 0: in the upper tail ndtr rounds to 1 and the direct
    difference loses every digit."""
    from ._normal import ndtr  # loaded by the first NormalDim only

    sgn = np.where(alpha > 0, -1.0, 1.0)
    lo, hi = ndtr(np.stack(np.broadcast_arrays(sgn * alpha, sgn * beta)))
    return sgn, lo, hi


def _ndtr_diff(alpha, beta):
    """ndtr(beta) - ndtr(alpha), from the reflected ends where alpha > 0."""
    sgn, lo, hi = _ndtr_ends(alpha, beta)
    return sgn * (hi - lo)


@dataclass(frozen=True)
class UniformDim:
    """Uniform marginal on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError(f"uniform needs finite bounds, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"uniform needs lo < hi, got [{self.lo}, {self.hi}]")

    def moments(self, a, b):
        """(xi(0 | a, b), xi(1 | a, b), xi(2 | a, b)), vectorized over a, b."""
        A = np.maximum(np.asarray(a, dtype=float), self.lo)
        B = np.minimum(np.asarray(b, dtype=float), self.hi)
        width, on = self.hi - self.lo, B > A
        return tuple(
            np.where(on, (B ** (r + 1) - A ** (r + 1)) / ((r + 1) * width), 0.0) for r in range(3)
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)

    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def to_dict(self) -> dict:
        return {"type": "uniform", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class NormalDim:
    """Normal marginal, optionally truncated to [trunc_lo, trunc_hi]; the
    mean and sd are finite, a truncation bound may be infinite."""

    mean: float
    sd: float
    trunc_lo: float = -np.inf
    trunc_hi: float = np.inf

    def __post_init__(self):
        if not np.isfinite(self.mean):
            raise ValueError(f"normal needs a finite mean, got {self.mean}")
        if not (self.sd > 0 and np.isfinite(self.sd)):
            raise ValueError(f"normal needs a finite sd > 0, got {self.sd}")
        if not self.trunc_lo < self.trunc_hi:
            raise ValueError("truncation needs trunc_lo < trunc_hi")
        sgn, lo, hi = map(float, _ndtr_ends(self._std(self.trunc_lo), self._std(self.trunc_hi)))
        mass = sgn * (hi - lo)
        if mass <= 1e-300:
            raise ValueError("truncation interval has vanishing probability mass")
        object.__setattr__(self, "_mass", mass)
        # the CDF interval that sample draws from, reflected where sgn < 0
        object.__setattr__(self, "_draw", (sgn, *((lo, hi) if sgn > 0 else (hi, lo))))

    def _std(self, x):
        return (np.asarray(x, dtype=float) - self.mean) / self.sd

    def moments(self, a, b):
        """(xi(0 | a, b), xi(1 | a, b), xi(2 | a, b)) for the (possibly
        truncated) normal, vectorized; one mass and one phi difference."""
        A = np.maximum(np.asarray(a, dtype=float), self.trunc_lo)
        B = np.minimum(np.asarray(b, dtype=float), self.trunc_hi)
        alpha, beta = self._std(A), self._std(B)
        z0 = _ndtr_diff(alpha, beta)
        dphi = _phi(alpha) - _phi(beta)
        m, s, on = self.mean, self.sd, B > A
        z1 = m * z0 + s * dphi
        z2 = m * m * z0 + 2.0 * m * s * dphi + s * s * (z0 + _zphi(alpha) - _zphi(beta))
        return tuple(np.where(on, z / self._mass, 0.0) for z in (z0, z1, z2))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if np.isinf(self.trunc_lo) and np.isinf(self.trunc_hi):
            return rng.normal(self.mean, self.sd, size=n)
        from ._normal import ndtri

        sgn, lo, hi = self._draw
        return self.mean + sgn * self.sd * ndtri(rng.uniform(lo, hi, size=n))

    def support(self) -> tuple[float, float]:
        return (float(self.trunc_lo), float(self.trunc_hi))

    def to_dict(self) -> dict:
        d = {"type": "normal", "mean": self.mean, "sd": self.sd}
        if np.isfinite(self.trunc_lo):
            d["trunc_lo"] = float(self.trunc_lo)
        if np.isfinite(self.trunc_hi):
            d["trunc_hi"] = float(self.trunc_hi)
        return d


@dataclass(frozen=True)
class InputPrior:
    """Independent product prior, one marginal per input dimension."""

    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        if not self.dims:
            raise ValueError("prior needs at least one dimension")

    @property
    def p(self) -> int:
        return len(self.dims)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """(n, p) draws, each dimension's in turn written into its column."""
        out = np.empty((n, self.p))
        for j, d in enumerate(self.dims):
            out[:, j] = d.sample(rng, n)
        return out

    def mean(self) -> np.ndarray:
        return np.array([float(d.moments(-np.inf, np.inf)[1]) for d in self.dims])

    def covariance(self) -> np.ndarray:
        """Diagonal covariance of the product prior (uniform: width^2/12;
        normal: the actual, possibly truncated, variance)."""
        xi = [[float(v) for v in d.moments(-np.inf, np.inf)] for d in self.dims]
        return np.diag([max(m2 - m1 * m1, 0.0) for _, m1, m2 in xi])

    @classmethod
    def uniform_box(cls, domain) -> "InputPrior":
        return cls(dims=tuple(UniformDim(float(lo), float(hi)) for lo, hi in domain))


def prior_to_dict(prior: InputPrior) -> dict:
    return {"p": prior.p, "dims": [d.to_dict() for d in prior.dims]}


def prior_from_dict(d: dict) -> InputPrior:
    dims = []
    for spec in d["dims"]:
        kind = spec["type"]
        if kind == "uniform":
            dims.append(UniformDim(float(spec["lo"]), float(spec["hi"])))
        elif kind == "normal":
            dims.append(
                NormalDim(
                    float(spec["mean"]),
                    float(spec["sd"]),
                    float(spec.get("trunc_lo", -np.inf)),
                    float(spec.get("trunc_hi", np.inf)),
                )
            )
        else:
            raise ValueError(f"unsupported prior family {kind!r}")
    prior = InputPrior(dims=tuple(dims))
    if "p" in d and int(d["p"]) != prior.p:
        raise ValueError(f"prior file says p={d['p']} but has {prior.p} dims")
    return prior


def save_prior(prior: InputPrior, path, meta: dict | None = None) -> None:
    """Write a prior JSON file, keys in field order."""
    _write_json(path, prior_to_dict(prior), meta, sort_keys=False)


def load_prior(path) -> InputPrior:
    return prior_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# The closed-form kernel: factor pairs and the hinge integrals they need
# ---------------------------------------------------------------------------

# Most factor pairs one kernel pass multiplies out, and most diagonal factor
# pairs one block of grid rows holds; small passes keep every array small.
_PAIR_BUDGET = 1 << 12


def _hinge_support(sk, tk, sl, tl):
    """Support (a, b) of the product of two hinge regions on one variable,
    elementwise: a plus hinge bounds it below at its knot, a minus hinge
    above; b = max(b*, a) so empty overlaps integrate to zero. An absent
    factor is sign +1 at knot -inf, the full support."""
    kp, lp = sk > 0, sl > 0
    a = np.maximum(np.where(kp, tk, -np.inf), np.where(lp, tl, -np.inf))
    b_star = np.minimum(np.where(kp, np.inf, tk), np.where(lp, np.inf, tl))
    return a, np.maximum(b_star, a)


def _hinge_integrals(dim, sk, tk, sl, tl):
    """(i1_kl, i1_lk, i2, i3) = int (h_k' h_l, h_k h_l', h_k h_l, h_k' h_l')
    dmu of hinge pairs on one variable, elementwise; an absent factor (sign
    +1, knot -inf) is the constant 1."""
    a, b = _hinge_support(sk, tk, sl, tl)
    xi0, xi1, xi2 = dim.moments(a, b)
    uk, ul = tk > -np.inf, tl > -np.inf
    tk, tl = np.where(uk, tk, 0.0), np.where(ul, tl, 0.0)
    ss = sk * sl
    both, only_k, only_l = uk & ul, uk & ~ul, ~uk & ul
    i2 = ss * np.where(
        both,
        xi2 - (tk + tl) * xi1 + tk * tl * xi0,
        np.where(only_k, xi1 - tk * xi0, np.where(only_l, xi1 - tl * xi0, 1.0)),
    )
    i1_kl = np.where(both, ss * (xi1 - tl * xi0), np.where(only_k, ss * xi0, 0.0))
    i1_lk = np.where(both, ss * (xi1 - tk * xi0), np.where(only_l, ss * xi0, 0.0))
    return i1_kl, i1_lk, i2, np.where(both, ss * xi0, 0.0)


class _Stack:
    """Terms of models stacked with their owner (model position); factors
    listed in (owner, var) blocks, each led by a virtual factor, the
    constant 1 (term -1), at first[o, q], of count[o, q]. fidx[q, m] is
    term m's factor on x_q, the virtual one where has[m, q] is False."""

    def __init__(self, models, p: int):
        terms = [(o, t) for o, m in enumerate(models) for t in m.terms]
        facs = sorted(
            [(o, f.var, m, f.sign, f.knot) for m, (o, t) in enumerate(terms) for f in t.factors]
            + [(o, q, -1, 1, -np.inf) for o in range(len(models)) for q in range(p)]
        )
        cols = list(zip(*facs))
        owner, self.var, self.term = (np.array(c, dtype=np.intp) for c in cols[:3])
        self.sign, self.knot = (np.array(c, dtype=float) for c in cols[3:])
        self.p, self.coef = p, np.array([t.coef for _, t in terms], dtype=float)
        edges = np.searchsorted(owner * p + self.var, np.arange(len(models) * p + 1))
        self.first, self.count = edges[:-1].reshape(-1, p), np.diff(edges).reshape(-1, p)
        self.fidx = np.repeat(self.first.T, [len(m.terms) for m in models], axis=1)
        real = np.flatnonzero(self.term >= 0)
        self.fidx[self.var[real], self.term[real]] = real
        self.has = np.zeros(self.fidx.shape[::-1], dtype=bool)
        self.has[self.term[real], self.var[real]] = True


def _blocks(r0, nr, c0, nc):
    """Row-major index pairs of blocks [r0, r0+nr) x [c0, c0+nc) in turn."""
    size = nr * nc
    blk = np.repeat(np.arange(size.size), size)
    hi, lo = np.divmod(np.arange(blk.size) - (np.cumsum(size) - size)[blk], nc[blk])
    return r0[blk] + hi, c0[blk] + lo, blk


def _runs(work):
    """Consecutive ranges [lo, hi) of work summing to <= _PAIR_BUDGET, or one item."""
    ends, lo = np.cumsum(work), 0
    while lo < len(work):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - work[lo] + _PAIR_BUDGET, "right")))
        yield lo, hi
        lo = hi


def _pair_sums(K, L, prior, pairs, diagonal=False, deriv_l=True) -> np.ndarray:
    """fsum of factor-pair products by owner pair o (K owner orow[o] with
    L owner ocol[o], pairs = (orow, ocol)) and key (o, i, j), or (o, i) if
    diagonal (i = j) or not deriv_l (L terms as undifferentiated columns).
    A factor of f_k term r on x_i with one of f_l term c on x_j gives
    coef_r coef_c * i1_kl[x_i] * i1_lk[x_j] (i3[x_i] if i = j) times i2[x_q]
    for each q in vars(r) | vars(c) - {i, j}, ascending; each i2 skipped is
    exactly 1. Whole keys go in runs under _PAIR_BUDGET; each is summed once.
    A model against itself (L is K, orow = ocol) is keyed on i <= j only,
    and (o, j, i) mirrors (o, i, j): its self matrix is exactly symmetric."""
    p = K.p
    orow, ocol = pairs
    r0, nr, c0, nc = K.first[orow], K.count[orow], L.first[ocol], L.count[ocol]
    # integrals of every two factors (virtual ones too) on one variable x_q;
    # those of (a, b) for owner pair o are at two(o * p + q, a, b)
    ta, tb, _ = _blocks(r0.ravel(), nr.ravel(), c0.ravel(), nc.ravel())
    at = (np.cumsum(nr * nc) - (nr * nc).ravel()).reshape(nr.shape) - r0 * nc - c0
    two = lambda oq, a, b: at.take(oq) + a * nc.take(oq) + b
    tabs = np.empty((4, ta.size))
    marginals = list(dict.fromkeys(prior.dims))  # one call per distinct marginal
    which = np.array([marginals.index(d) for d in prior.dims])[K.var[ta]]
    for g, dim in enumerate(marginals):
        s = np.flatnonzero(which == g)
        sides = (K.sign[ta[s]], K.knot[ta[s]], L.sign[tb[s]], L.knot[tb[s]])
        for row, v in zip(tabs, _hinge_integrals(dim, *sides)):
            row[s] = v
    i1_kl, i1_lk, i2, i3 = tabs

    # output keys (o, i[, j]): real f_k factors by real f_l factors or L terms
    o, i = np.divmod(np.arange(nr.size), p)
    kr0, knr = r0.ravel() + 1, nr.ravel() - 1
    if deriv_l and not diagonal:
        o, i, j = o.repeat(p), i.repeat(p), np.tile(np.arange(p), nr.size)
        if L is K and np.array_equal(orow, ocol):  # self matrices: i <= j only
            upper = i <= j
            o, i, j = o[upper], i[upper], j[upper]
        keys = (o, i, j, kr0[o * p + i], knr[o * p + i], c0[o, j] + 1, nc[o, j] - 1)
    else:
        cols = (c0.ravel() + 1, nc.ravel() - 1) if deriv_l else (0 * kr0, 0 * kr0 + L.coef.size)
        keys = (o, i, i if deriv_l else np.full_like(i, -1), kr0, knr, *cols)
    size = keys[4] * keys[6]
    values = np.empty(int(size.sum()))
    ends = np.cumsum(size)
    for lo, hi in _runs(size):
        a, b, blk = _blocks(*(k[lo:hi] for k in keys[3:]))
        ok, j = keys[0][lo:hi].take(blk), keys[2][lo:hi].take(blk)
        r, i = K.term.take(a), K.var.take(a)
        c = L.term.take(b) if deriv_l else b
        prod = K.coef.take(r) * L.coef.take(c)
        at_i = two(ok * p + i, a, L.fidx.take(i * L.coef.size + c))
        prod *= np.where(i == j, i3.take(at_i), i1_kl.take(at_i))
        if deriv_l:
            at_j = two(ok * p + j, K.fidx.take(j * K.coef.size + r), b)
            prod *= np.where(i == j, 1.0, i1_lk.take(at_j))
        # i2 where either term has x_q, other than x_i, x_j: the flat mask
        # lists each product's q ascending, and multiply.at folds in that order
        need, rows = K.has.take(r, axis=0) | L.has.take(c, axis=0), np.arange(r.size)
        need[rows, i] = False
        if deriv_l:
            need[rows, j] = False
        s, q = np.divmod(np.flatnonzero(need), p)
        hr, hc = K.fidx.take(q * K.coef.size + r.take(s)), L.fidx.take(q * L.coef.size + c.take(s))
        np.multiply.at(prod, s, i2.take(two(ok.take(s) * p + q, hr, hc)))
        values[ends[lo] - size[lo] : ends[hi - 1]] = prod
    sums = [math.fsum(values[e - k : e].tolist()) for e, k in zip(ends.tolist(), size.tolist())]
    if diagonal or not deriv_l:
        return np.array(sums).reshape(nr.shape)
    o, i, j = keys[:3]
    out = np.empty(nr.shape + (p,))
    out[o, j, i] = sums  # a self matrix's lower triangle; all p^2 keys overwrite it
    out[o, i, j] = sums
    return out


def _pair_traces(models, prior) -> np.ndarray:
    """t[a, b] = t[b, a] = cmat_trace(models[a], models[b], prior), a <= b,
    from one stacked pass keyed by (row model, column model, x_i). It runs
    over consecutive model pairs of at most _PAIR_BUDGET same-variable
    factor pairs, so its working memory does not grow with their number."""
    S = _Stack(models, prior.p)
    a, b = np.triu_indices(len(models))
    t = np.zeros((len(models), len(models)))
    for lo, hi in _runs((S.count @ S.count.T)[a, b]):
        run = (a[lo:hi], b[lo:hi])
        for x, y, d in zip(*run, _pair_sums(S, S, prior, run, diagonal=True)):
            t[x, y] = t[y, x] = float(np.sum(d))
    return t


@dataclass(frozen=True)
class CoActiveMatrix:
    """p x p expected gradient outer-product matrix; trace is its diagonal sum."""

    entries: np.ndarray
    labels: tuple[str, str]
    kind: str = "plain"

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "labels", tuple(self.labels))
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be square, got {entries.shape}")
        if self.kind not in ("plain", "modified"):
            raise ValueError(f"kind must be plain or modified, got {self.kind!r}")
        # a sum of finite entries can still overflow
        if not (np.isfinite(entries).all() and np.isfinite(self.trace)):
            raise ValueError("co-active matrix entries and trace must be finite")

    @property
    def trace(self) -> float:
        return float(np.sum(self.entries.diagonal()))

    @property
    def p(self) -> int:
        return self.entries.shape[0]


def _validate_self_matrix(entries: np.ndarray) -> None:
    """Same-model matrices must be symmetric and positive semi-definite."""
    nrm = float(np.linalg.norm(entries))
    if nrm == 0:
        return
    if np.max(np.abs(entries - entries.T)) > 1e-10 * nrm:
        raise ValueError("self matrix is not symmetric")
    if float(np.linalg.eigvalsh(entries).min()) < -1e-10 * nrm:
        raise ValueError("self matrix is not positive semi-definite")


_ONE_PAIR = (np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp))


def _pair(mk: MarsSurrogate, ml: MarsSurrogate, prior: InputPrior, **mode) -> np.ndarray:
    """The kernel's sums for the one pair (mk, ml), after the pair check; one
    stack serves both sides when ml is mk, and cmat then keys one triangle."""
    if mk.p != ml.p:
        raise ValueError(f"model dimensions differ: {mk.p} vs {ml.p}")
    if mk.p != prior.p:
        raise ValueError(f"models have p={mk.p} but prior has p={prior.p}")
    if mk.domain != ml.domain:
        raise ValueError("models must share the same input domain")
    K = _Stack([mk], mk.p)
    return _pair_sums(K, K if ml is mk else _Stack([ml], ml.p), prior, _ONE_PAIR, **mode)[0]


def cmat(mk: MarsSurrogate, ml: MarsSurrogate, prior: InputPrior) -> CoActiveMatrix:
    """Closed-form C_kl: entry (i, j) = E[df_k/dx_i * df_l/dx_j]; the trace
    is the sum of the diagonal, taken as cmat_trace takes it."""
    entries = _pair(mk, ml, prior)
    if mk is ml:
        _validate_self_matrix(entries)
    return CoActiveMatrix(entries=entries, labels=(mk.label, ml.label))


def cmat_trace(mk: MarsSurrogate, ml: MarsSurrogate, prior: InputPrior) -> float:
    """t_kl = trace(C_kl) from same-variable factor pairs; cmat(...).trace bitwise."""
    return float(np.sum(_pair(mk, ml, prior, diagonal=True)))


def expected_gradient(m: MarsSurrogate, prior: InputPrior) -> np.ndarray:
    """Z_k = E[grad f_k], the kernel against the constant 1: a factor's
    i1_kl is then I4 = s * xi(0 | support) and its i2 I5 = s * (xi(1 |
    support) - t * xi(0 | support)). (The printed I5, with the knot outside
    the moment, is dimensionally inconsistent; this matches quadrature.)"""
    one = MarsSurrogate(
        intercept=0.0, terms=(BasisTerm(coef=1.0, factors=()),), p=m.p, domain=m.domain
    )
    return _pair(m, one, prior, deriv_l=False)


def cmat_modified(
    mk: MarsSurrogate, ml: MarsSurrogate, prior: InputPrior, base: CoActiveMatrix | None = None
) -> CoActiveMatrix:
    """Rank-one augmented matrix C_kl + Z_k Z_l^T (kind="modified").

    base is C_kl = cmat(mk, ml, prior) when the caller already has it;
    None computes it here.
    """
    if base is None:
        base = cmat(mk, ml, prior)
    zk = expected_gradient(mk, prior)
    zl = expected_gradient(ml, prior)
    entries = base.entries + np.outer(zk, zl)
    return CoActiveMatrix(entries=entries, labels=base.labels, kind="modified")


# ---------------------------------------------------------------------------
# Matrix output formats
# ---------------------------------------------------------------------------


def matrix_to_dict(C: CoActiveMatrix) -> dict:
    return {
        "labels": list(C.labels),
        "kind": C.kind,
        "trace": C.trace,
        "entries": [[float(v) for v in row] for row in C.entries],
    }


def matrix_from_dict(d: dict) -> CoActiveMatrix:
    """The stored matrix, refused unless its stored trace is its diagonal sum."""
    C = CoActiveMatrix(
        entries=np.asarray(d["entries"], dtype=float),
        labels=tuple(d["labels"]),
        kind=d.get("kind", "plain"),
    )
    stored, diag = float(d["trace"]), C.trace
    if not math.isfinite(stored):
        raise ValueError("co-active matrix entries and trace must be finite")
    if abs(diag - stored) > 1e-12 * max(abs(diag), abs(stored), 1e-300):
        raise ValueError(f"trace {stored} inconsistent with diagonal sum {diag}")
    return C


def save_matrix(C: CoActiveMatrix, path, meta: dict | None = None) -> None:
    _write_json(path, matrix_to_dict(C), meta)


def load_matrix(path) -> CoActiveMatrix:
    return matrix_from_dict(_read_json(path))


def write_matrix_csv(path, entries: np.ndarray, meta: dict | None = None) -> None:
    """p rows x p cols at 17 significant digits; optional leading comment
    line carrying run metadata."""
    _write_meta_csv(path, np.asarray(entries, dtype=float).tolist(), meta)
