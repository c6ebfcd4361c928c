"""Exact gradient outer-product matrices for hinge-spline surrogates.

Every entry of C_kl = E[grad f_k grad f_l^T] reduces, for independent
product priors, to sums over term pairs of products of univariate
integrals over hinge supports: the derivative-value tables i1_kl and
i1_lk, the value-value table i2 and the derivative-derivative table i3.
Those integrals in turn reduce to truncated moments
xi(r | a, b) = int_a^b x^r mu_i(x) dx of order r in {0, 1, 2}, available
in closed form for uniform and (truncated) normal marginals.

One kernel, _gradient_products, assembles every expected gradient
product: the entries of cmat, the diagonal behind cmat_trace, and the
expected gradient Z_k (the kernel against the constant 1). Entry (i, j)
multiplies out only the term pairs whose f_k term has a factor on x_i and
whose f_l term has one on x_j, since every other pair contributes an exact
zero, and sums them with math.fsum. The module also holds the priors, the
rank-one modified matrix C + Z_k Z_l^T and the matrix file formats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

from .model import BasisTerm, MarsSurrogate

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


def _ndtr_diff(alpha, beta):
    """ndtr(beta) - ndtr(alpha), reflected to ndtr(-alpha) - ndtr(-beta)
    where alpha > 0: in the upper tail ndtr rounds to 1 and the direct
    difference loses every digit."""
    sgn = np.where(alpha > 0, -1.0, 1.0)
    return sgn * (ndtr(sgn * beta) - ndtr(sgn * alpha))


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
        return float(_ndtr_diff(self._std(a), self._std(b)))

    def moment(self, r: int, a, b):
        """xi(r | a, b) for the (possibly truncated) normal, vectorized."""
        if r not in (0, 1, 2):
            raise ValueError(f"moment order must be 0, 1 or 2, got {r}")
        A = np.maximum(np.asarray(a, dtype=float), self.trunc_lo)
        B = np.minimum(np.asarray(b, dtype=float), self.trunc_hi)
        alpha = self._std(A)
        beta = self._std(B)
        z0 = _ndtr_diff(alpha, beta)
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
        alpha, beta = self._std(self.trunc_lo), self._std(self.trunc_hi)
        if alpha > 0:
            # the reflected draw, for the same reason as _ndtr_diff
            return self.mean - self.sd * ndtri(rng.uniform(ndtr(-beta), ndtr(-alpha), size=n))
        return self.mean + self.sd * ndtri(rng.uniform(ndtr(alpha), ndtr(beta), size=n))

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
# The closed-form kernel: hinge-support I-tables and sparse gradient products
# ---------------------------------------------------------------------------


def _factor_arrays(m: MarsSurrogate):
    """(u, s, tb, tv), each (p, M): u[i] marks the terms with a factor on
    x_i, s and tb carry its sign and knot, tv its knot for the value
    formulas.

    Absent factors carry s=+1 and tb=-inf so the four-case support bounds
    give the full support; tv=0 keeps the value formulas finite where
    masked out.
    """
    shape = (m.p, len(m.terms))
    u = np.zeros(shape, dtype=bool)
    s = np.ones(shape)
    tb = np.full(shape, -np.inf)
    tv = np.zeros(shape)
    for mi, term in enumerate(m.terms):
        for f in term.factors:
            u[f.var, mi] = True
            s[f.var, mi] = float(f.sign)
            tb[f.var, mi] = f.knot
            tv[f.var, mi] = f.knot
    return u, s, tb, tv


def _bounds_grids(sk, tk, sl, tl):
    """Support (a, b) of each product of two hinge regions on one variable;
    b = max(b*, a) so empty overlaps integrate to zero."""
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


class _ITables:
    """Hinge integrals over x_i for every (f_k term, f_l term) pair, each
    (M_k, M_l): i2 = int h_k h_l dmu (1 where neither term has a factor on
    x_i), and, on first use, i1_kl = int h_k' h_l dmu, i1_lk =
    int h_k h_l' dmu and i3 = int h_k' h_l' dmu.
    """

    def __init__(self, k, l, i: int, dim):
        uk, sk, tkb, tkv = (arr[i] for arr in k)
        ul, sl, tlb, tlv = (arr[i] for arr in l)
        a, b = _bounds_grids(sk, tkb, sl, tlb)
        self.xi0 = xi0 = dim.moment(0, a, b)
        self.xi1 = xi1 = dim.moment(1, a, b)
        xi2 = dim.moment(2, a, b)
        UK = uk[:, None]
        UL = ul[None, :]
        self.SS = sk[:, None] * sl[None, :]
        self.TK = TK = tkv[:, None]
        self.TL = TL = tlv[None, :]
        self.both = UK & UL
        self.only_k = UK & ~UL
        self.only_l = ~UK & UL
        self.i2 = self.SS * np.where(
            self.both,
            xi2 - (TK + TL) * xi1 + TK * TL * xi0,
            np.where(self.only_k, xi1 - TK * xi0, np.where(self.only_l, xi1 - TL * xi0, 1.0)),
        )

    @cached_property
    def i1_kl(self):
        return np.where(
            self.both,
            self.SS * (self.xi1 - self.TL * self.xi0),
            np.where(self.only_k, self.SS * self.xi0, 0.0),
        )

    @cached_property
    def i1_lk(self):
        return np.where(
            self.both,
            self.SS * (self.xi1 - self.TK * self.xi0),
            np.where(self.only_l, self.SS * self.xi0, 0.0),
        )

    @cached_property
    def i3(self):
        return np.where(self.both, self.SS * self.xi0, 0.0)


def _gradient_products(mk: MarsSurrogate, ml: MarsSurrogate, prior: InputPrior, entries) -> list:
    """E[df_k/dx_i * df_l/dx_j] for each (i, j) in entries; j=None leaves
    f_l undifferentiated, giving E[df_k/dx_i * f_l].

    Over the term pairs, entry (i, j) sums coef_k coef_l * i1_kl[x_i] *
    i1_lk[x_j] * prod_{q != i, j} i2[x_q], with i3[x_i] in place of the
    two derivative tables on the diagonal and no i1_lk factor when j is
    None. i1_kl[x_i] and i3[x_i] vanish unless the f_k term has a factor
    on x_i, and i1_lk[x_j] unless the f_l term has one on x_j, so only the
    rows R_i and the columns C_j (every column when j is None) are
    multiplied out. The cells left out are exact zeros, and math.fsum is
    correctly rounded, so each entry equals the fsum of the dense grid
    bitwise.
    """
    k, l = _factor_arrays(mk), _factor_arrays(ml)
    ck = np.array([t.coef for t in mk.terms])
    cl = np.array([t.coef for t in ml.terms])
    coef = ck[:, None] * cl[None, :]
    tables = [_ITables(k, l, i, dim) for i, dim in enumerate(prior.dims)]
    i2 = np.stack([t.i2 for t in tables])
    rows = [np.flatnonzero(u) for u in k[0]]
    cols = [np.flatnonzero(u) for u in l[0]]
    every = np.arange(len(ml.terms))
    out = []
    for i, j in entries:
        sub = (rows[i][:, None], every if j is None else cols[j])
        if i == j:
            grid = coef[sub] * tables[i].i3[sub]
        else:
            grid = coef[sub] * tables[i].i1_kl[sub]
            if j is not None:
                grid = grid * tables[j].i1_lk[sub]
        block = i2[(slice(None), *sub)]
        for q in range(len(tables)):
            if q != i and q != j:
                grid = grid * block[q]
        out.append(math.fsum(grid.ravel().tolist()))
    return out


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

    Every entry comes from the sparse kernel; the trace is the sum of the
    diagonal, taken as cmat_trace takes it.
    """
    _check_pair(mk, ml, prior)
    p = mk.p
    values = _gradient_products(mk, ml, prior, [(i, j) for i in range(p) for j in range(p)])
    entries = np.array(values).reshape(p, p)
    if mk is ml:
        _validate_self_matrix(entries)
    return CoActiveMatrix(
        entries=entries, trace=float(np.sum(entries.diagonal())), labels=(mk.label, ml.label)
    )


def cmat_trace(mk: MarsSurrogate, ml: MarsSurrogate, prior: InputPrior) -> float:
    """t_kl = trace(C_kl) from the diagonal entries alone.

    Builds no i1 tables; the diagonal entries and their sum are computed
    as in cmat, so the value equals cmat(...).trace bitwise.
    """
    _check_pair(mk, ml, prior)
    diag = _gradient_products(mk, ml, prior, [(i, i) for i in range(mk.p)])
    return float(np.sum(diag))


def expected_gradient(m: MarsSurrogate, prior: InputPrior) -> np.ndarray:
    """Z_k = E[grad f_k], the kernel against the constant 1.

    Against a one-term model with no factors and coefficient 1, the
    kernel's i1_kl is I4 = E[dh/dx] = s * xi(0 | support) and its i2 is
    I5 = E[h] = s * (xi(1 | support) - t * xi(0 | support)); an absent
    factor contributes I4 = 0 and I5 = 1. (The printed form of I5 with the
    knot outside the moment is dimensionally inconsistent; this reading
    matches direct quadrature.)
    """
    if m.p != prior.p:
        raise ValueError(f"model has p={m.p} but prior has p={prior.p}")
    one = MarsSurrogate(
        intercept=0.0, terms=(BasisTerm(coef=1.0, factors=()),), p=m.p, domain=m.domain
    )
    return np.array(_gradient_products(m, one, prior, [(i, None) for i in range(m.p)]))


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
