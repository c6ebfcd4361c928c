"""Exact gradient outer-product matrices for hinge-spline surrogates.

Every entry of C_kl = E[grad f_k grad f_l^T] reduces, for independent
product priors, to sums of products of univariate integrals I1/I2/I3 over
hinge supports. Those integrals in turn reduce to truncated moments
xi(r | a, b) = int_a^b x^r mu_i(x) dx of order r in {0, 1, 2}, available in
closed form for uniform and (truncated) normal marginals. This module
implements the moments, the support bounds, the I-tables, the full matrix
assembly, the expected gradient Z_k, and the rank-one modified matrix
C + Z_k Z_l^T.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .model import HingeFactor, MarsSurrogate

__all__ = [
    "UniformDim",
    "NormalDim",
    "InputPrior",
    "CoActiveMatrix",
    "truncated_moment",
    "integration_bounds",
    "I1",
    "I2",
    "I3",
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


@dataclass(frozen=True)
class UniformDim:
    """Uniform marginal on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"uniform needs lo < hi, got [{self.lo}, {self.hi}]")

    def moment(self, r: int, a, b):
        """xi(r | a, b): vectorized over array-valued a, b."""
        if r not in (0, 1, 2):
            raise ValueError(f"moment order must be 0, 1 or 2, got {r}")
        A = np.maximum(np.asarray(a, dtype=float), self.lo)
        B = np.minimum(np.asarray(b, dtype=float), self.hi)
        width = self.hi - self.lo
        val = (B ** (r + 1) - A ** (r + 1)) / ((r + 1) * width)
        return np.where(B > A, val, 0.0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)

    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def to_dict(self) -> dict:
        return {"type": "uniform", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class NormalDim:
    """Normal marginal, optionally truncated to [trunc_lo, trunc_hi]."""

    mean: float
    sd: float
    trunc_lo: float = -np.inf
    trunc_hi: float = np.inf

    def __post_init__(self):
        if not self.sd > 0:
            raise ValueError(f"normal needs sd > 0, got {self.sd}")
        if not self.trunc_lo < self.trunc_hi:
            raise ValueError("truncation needs trunc_lo < trunc_hi")
        mass = self._raw_mass(self.trunc_lo, self.trunc_hi)
        if mass <= 1e-300:
            raise ValueError("truncation interval has vanishing probability mass")
        object.__setattr__(self, "_mass", mass)

    def _std(self, x):
        return (np.asarray(x, dtype=float) - self.mean) / self.sd

    def _raw_mass(self, a, b) -> float:
        return float(ndtr(self._std(b)) - ndtr(self._std(a)))

    def moment(self, r: int, a, b):
        """xi(r | a, b) for the (possibly truncated) normal, vectorized."""
        if r not in (0, 1, 2):
            raise ValueError(f"moment order must be 0, 1 or 2, got {r}")
        A = np.maximum(np.asarray(a, dtype=float), self.trunc_lo)
        B = np.minimum(np.asarray(b, dtype=float), self.trunc_hi)
        alpha = self._std(A)
        beta = self._std(B)
        z0 = ndtr(beta) - ndtr(alpha)
        if r == 0:
            val = z0
        else:
            dphi = _phi(alpha) - _phi(beta)
            m, s = self.mean, self.sd
            if r == 1:
                val = m * z0 + s * dphi
            else:
                val = m * m * z0 + 2.0 * m * s * dphi + s * s * (z0 + _zphi(alpha) - _zphi(beta))
        return np.where(B > A, val / self._mass, 0.0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if np.isinf(self.trunc_lo) and np.isinf(self.trunc_hi):
            return rng.normal(self.mean, self.sd, size=n)
        lo = ndtr(self._std(self.trunc_lo))
        hi = ndtr(self._std(self.trunc_hi))
        u = rng.uniform(lo, hi, size=n)
        return self.mean + self.sd * ndtri(u)

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
        return np.column_stack([d.sample(rng, n) for d in self.dims])

    def mean(self) -> np.ndarray:
        return np.array([float(d.moment(1, -np.inf, np.inf)) for d in self.dims])

    def covariance(self) -> np.ndarray:
        """Diagonal covariance of the product prior (uniform: width^2/12;
        normal: the actual, possibly truncated, variance)."""
        var = []
        for d in self.dims:
            m1 = float(d.moment(1, -np.inf, np.inf))
            m2 = float(d.moment(2, -np.inf, np.inf))
            var.append(max(m2 - m1 * m1, 0.0))
        return np.diag(var)

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
    d = prior_to_dict(prior)
    if meta:
        d["meta"] = meta
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(d, fh, indent=2)
        fh.write("\n")


def load_prior(path) -> InputPrior:
    with open(path, encoding="utf-8") as fh:
        return prior_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Truncated moments and hinge-support integrals
# ---------------------------------------------------------------------------


def truncated_moment(prior_dim, r: int, a: float, b: float) -> float:
    """xi(r | a, b) = int_a^b x^r mu_i(x) dx; empty or inverted intervals
    integrate to 0."""
    return float(prior_dim.moment(r, a, b))


def integration_bounds(f1: HingeFactor | None, f2: HingeFactor | None) -> tuple[float, float]:
    """Support (a, b) of the product of two hinge indicator regions.

    An absent factor behaves as sign +1 with knot -inf (full support); the
    upper bound is clamped to b = max(b*, a) so empty overlaps integrate
    to zero.
    """
    if f1 is not None and f2 is not None and f1.var != f2.var:
        raise ValueError("factors must refer to the same variable")
    s1, t1 = (f1.sign, f1.knot) if f1 is not None else (1, -np.inf)
    s2, t2 = (f2.sign, f2.knot) if f2 is not None else (1, -np.inf)
    if s1 > 0 and s2 > 0:
        a, b = max(t1, t2), np.inf
    elif s1 > 0:
        a, b = t1, t2
    elif s2 > 0:
        a, b = t2, t1
    else:
        a, b = -np.inf, min(t1, t2)
    return (a, max(b, a))


def _xi(prior_dim, a, b):
    return (prior_dim.moment(0, a, b), prior_dim.moment(1, a, b), prior_dim.moment(2, a, b))


def I1(f_k: HingeFactor | None, f_l: HingeFactor | None, prior_dim) -> float:
    """int (dh_k/dx) h_l dmu over the joint support. Asymmetric in (k, l)."""
    if f_k is None:
        return 0.0
    a, b = integration_bounds(f_k, f_l)
    xi0 = truncated_moment(prior_dim, 0, a, b)
    if f_l is None:
        return f_k.sign * xi0
    xi1 = truncated_moment(prior_dim, 1, a, b)
    return f_k.sign * f_l.sign * (xi1 - f_l.knot * xi0)


def I2(f_k: HingeFactor | None, f_l: HingeFactor | None, prior_dim) -> float:
    """int h_k h_l dmu over the joint support; 1 when both are absent."""
    a, b = integration_bounds(f_k, f_l)
    if f_k is None and f_l is None:
        return 1.0
    xi0 = truncated_moment(prior_dim, 0, a, b)
    xi1 = truncated_moment(prior_dim, 1, a, b)
    if f_k is not None and f_l is not None:
        xi2 = truncated_moment(prior_dim, 2, a, b)
        return f_k.sign * f_l.sign * (
            xi2 - (f_k.knot + f_l.knot) * xi1 + f_k.knot * f_l.knot * xi0
        )
    f = f_k if f_k is not None else f_l
    return f.sign * (xi1 - f.knot * xi0)


def I3(f_k: HingeFactor | None, f_l: HingeFactor | None, prior_dim) -> float:
    """int (dh_k/dx)(dh_l/dx) dmu over the joint support."""
    if f_k is None or f_l is None:
        return 0.0
    a, b = integration_bounds(f_k, f_l)
    return f_k.sign * f_l.sign * truncated_moment(prior_dim, 0, a, b)


# ---------------------------------------------------------------------------
# Vectorized I-tables (one (M_k x M_l) grid per variable)
# ---------------------------------------------------------------------------


def _factor_grids(m: MarsSurrogate, i: int):
    """(u, s, t_bound, t_val) arrays over terms for variable i.

    Absent factors carry s=+1 and t_bound=-inf so the four-case sign
    bounds reproduce the u=0 integral rows exactly; t_val=0 keeps the
    value formulas finite where masked out.
    """
    M = len(m.terms)
    u = np.zeros(M, dtype=bool)
    s = np.ones(M)
    tb = np.full(M, -np.inf)
    tv = np.zeros(M)
    for mi, term in enumerate(m.terms):
        for f in term.factors:
            if f.var == i:
                u[mi] = True
                s[mi] = float(f.sign)
                tb[mi] = f.knot
                tv[mi] = f.knot
    return u, s, tb, tv


def _bounds_grids(sk, tk, sl, tl):
    SK = sk[:, None]
    TK = tk[:, None]
    SL = sl[None, :]
    TL = tl[None, :]
    kp = SK > 0
    lp = SL > 0
    a = np.where(
        kp & lp,
        np.maximum(TK, TL),
        np.where(kp, TK, np.where(lp, TL, -np.inf)),
    )
    b_star = np.where(
        kp & lp,
        np.inf,
        np.where(kp, TL, np.where(lp, TK, np.minimum(TK, TL))),
    )
    return a, np.maximum(b_star, a)


def _itables(mk: MarsSurrogate, ml: MarsSurrogate, prior: InputPrior, i: int, with_i1: bool):
    """I-tables for variable i: (I1_kl, I1_lk, I2, I3), each (M_k, M_l);
    the I1 grids are None when with_i1 is False (trace-only mode)."""
    uk, sk, tkb, tkv = _factor_grids(mk, i)
    ul, sl, tlb, tlv = _factor_grids(ml, i)
    a, b = _bounds_grids(sk, tkb, sl, tlb)
    dim = prior.dims[i]
    xi0 = dim.moment(0, a, b)
    xi1 = dim.moment(1, a, b)
    UK = uk[:, None]
    UL = ul[None, :]
    SS = sk[:, None] * sl[None, :]
    TK = tkv[:, None]
    TL = tlv[None, :]
    both = UK & UL
    only_k = UK & ~UL
    only_l = ~UK & UL
    xi2 = dim.moment(2, a, b)
    i2 = SS * np.where(
        both,
        xi2 - (TK + TL) * xi1 + TK * TL * xi0,
        np.where(only_k, xi1 - TK * xi0, np.where(only_l, xi1 - TL * xi0, 1.0)),
    )
    i3 = np.where(both, SS * xi0, 0.0)
    if not with_i1:
        return None, None, i2, i3
    i1_kl = np.where(both, SS * (xi1 - TL * xi0), np.where(only_k, SS * xi0, 0.0))
    i1_lk = np.where(both, SS * (xi1 - TK * xi0), np.where(only_l, SS * xi0, 0.0))
    return i1_kl, i1_lk, i2, i3


def _entry_sum(grid: np.ndarray) -> float:
    # compensated summation once the signed product grids get large
    if grid.size > 10_000:
        return math.fsum(grid.ravel().tolist())
    return float(grid.sum())


def _check_pair(mk: MarsSurrogate, ml: MarsSurrogate, prior: InputPrior) -> None:
    if mk.p != ml.p:
        raise ValueError(f"model dimensions differ: {mk.p} vs {ml.p}")
    if mk.p != prior.p:
        raise ValueError(f"models have p={mk.p} but prior has p={prior.p}")
    if mk.domain != ml.domain:
        raise ValueError("models must share the same input domain")


@dataclass(frozen=True)
class CoActiveMatrix:
    """p x p expected gradient outer-product matrix with its trace."""

    entries: np.ndarray
    trace: float
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
        diag = float(np.trace(entries))
        scale = max(abs(diag), abs(self.trace), 1e-300)
        if abs(diag - self.trace) > 1e-12 * scale:
            raise ValueError(f"trace {self.trace} inconsistent with diagonal sum {diag}")

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


def cmat(mk: MarsSurrogate, ml: MarsSurrogate, prior: InputPrior) -> CoActiveMatrix:
    """Closed-form C_kl: entry (i, j) = E[df_k/dx_i * df_l/dx_j].

    The I-tables are built once per (pair, variable) and reused across all
    (i, j) entries: diagonal entries combine I3 with the product of the
    other variables' I2 grids, off-diagonal entries combine the two
    derivative-side I1 grids with the remaining I2 grids.
    """
    _check_pair(mk, ml, prior)
    p = mk.p
    Mk, Ml = len(mk.terms), len(ml.terms)
    ck = np.array([t.coef for t in mk.terms])
    cl = np.array([t.coef for t in ml.terms])
    entries = np.zeros((p, p))
    if Mk == 0 or Ml == 0:
        return CoActiveMatrix(entries=entries, trace=0.0, labels=(mk.label, ml.label))
    GG = ck[:, None] * cl[None, :]
    tables = [_itables(mk, ml, prior, i, with_i1=True) for i in range(p)]
    i2 = [t[2] for t in tables]
    for i in range(p):
        for j in range(p):
            if i == j:
                grid = GG * tables[i][3]
            else:
                grid = GG * tables[i][0] * tables[j][1]
            for ip in range(p):
                if ip != i and ip != j:
                    grid = grid * i2[ip]
            entries[i, j] = _entry_sum(grid)
    trace = float(entries.diagonal().sum())
    if mk is ml:
        _validate_self_matrix(entries)
    return CoActiveMatrix(entries=entries, trace=trace, labels=(mk.label, ml.label))


def cmat_trace(mk: MarsSurrogate, ml: MarsSurrogate, prior: InputPrior) -> float:
    """t_kl = trace(C_kl) without assembling off-diagonal entries.

    Skips both I1 grids, halving the number of univariate integrals; the
    diagonal entries are computed exactly as in cmat, so the value matches
    cmat(...).trace bitwise.
    """
    _check_pair(mk, ml, prior)
    p = mk.p
    if len(mk.terms) == 0 or len(ml.terms) == 0:
        return 0.0
    ck = np.array([t.coef for t in mk.terms])
    cl = np.array([t.coef for t in ml.terms])
    GG = ck[:, None] * cl[None, :]
    tables = [_itables(mk, ml, prior, i, with_i1=False) for i in range(p)]
    i2 = [t[2] for t in tables]
    total = 0.0
    for i in range(p):
        grid = GG * tables[i][3]
        for ip in range(p):
            if ip != i:
                grid = grid * i2[ip]
        total += _entry_sum(grid)
    return float(total)


def expected_gradient(m: MarsSurrogate, prior: InputPrior) -> np.ndarray:
    """Z_k = E[grad f_k] assembled from per-factor integrals.

    Each coordinate is sum_m coef_m * I4^(i)[m] * prod_{j != i} I5^(j)[m]
    with I4 = E[dh/dx] = s * xi(0 | support) and I5 = E[h] =
    s * (xi(1 | support) - t * xi(0 | support)); an absent factor
    contributes I4 = 0 and I5 = 1. (The printed form of I5 with the knot
    outside the moment is dimensionally inconsistent; this reading matches
    direct quadrature.)
    """
    if m.p != prior.p:
        raise ValueError(f"model has p={m.p} but prior has p={prior.p}")
    M = len(m.terms)
    Z = np.zeros(m.p)
    if M == 0:
        return Z
    coefs = np.array([t.coef for t in m.terms])
    I4 = np.zeros((m.p, M))
    I5 = np.ones((m.p, M))
    for i in range(m.p):
        u, s, tb, tv = _factor_grids(m, i)
        a = np.where(u & (s > 0), tb, -np.inf)
        b = np.where(u & (s < 0), tb, np.inf)
        dim = prior.dims[i]
        xi0 = dim.moment(0, a, b)
        xi1 = dim.moment(1, a, b)
        I4[i] = np.where(u, s * xi0, 0.0)
        I5[i] = np.where(u, s * (xi1 - tv * xi0), 1.0)
    for i in range(m.p):
        prod = np.ones(M)
        for j in range(m.p):
            if j != i:
                prod = prod * I5[j]
        Z[i] = float(np.sum(coefs * I4[i] * prod))
    return Z


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
    return CoActiveMatrix(
        entries=entries,
        trace=float(entries.diagonal().sum()),
        labels=base.labels,
        kind="modified",
    )


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
    return CoActiveMatrix(
        entries=np.asarray(d["entries"], dtype=float),
        trace=float(d["trace"]),
        labels=tuple(d["labels"]),
        kind=d.get("kind", "plain"),
    )


def save_matrix(C: CoActiveMatrix, path, meta: dict | None = None) -> None:
    d = matrix_to_dict(C)
    if meta:
        d["meta"] = meta
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(d, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_matrix(path) -> CoActiveMatrix:
    with open(path, encoding="utf-8") as fh:
        return matrix_from_dict(json.load(fh))


def write_matrix_csv(path, entries: np.ndarray, meta: dict | None = None) -> None:
    """p rows x p cols at 17 significant digits; optional leading comment
    line carrying run metadata."""
    entries = np.asarray(entries, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        for row in entries:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
