"""Output checks, computed apart from the program.

Models are read from the program's JSON files and evaluated with this
module's own hinge evaluator; Monte Carlo estimates use this module's own
sampling (``scipy.stats`` for the truncated normals) and central
differences; the quadrature is an exact tensor Gauss-Legendre rule on the
cells cut by every knot. Each check returns ``(ok, detail)`` so that a
test can feed it a wrong answer and see it refused.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
from numpy.polynomial.legendre import leggauss

Z_BOUND = 5.0  # |z| beyond this is a failure; max |z| over ~600 sound entries is about 3.5
EXACT = 1e-9  # relative tolerance for identities that hold up to roundoff


# ---------------------------------------------------------------------------
# Hinge models, read from the program's JSON format
# ---------------------------------------------------------------------------


class Hinge:
    """intercept + sum_m coef_m prod_a max(sign_ma (x[var_ma] - knot_ma), 0)."""

    def __init__(self, d: dict):
        self.p = int(d["p"])
        self.intercept = float(d["intercept"])
        self.terms = [
            (float(t["coef"]), [(int(f["var"]), float(f["sign"]), float(f["knot"])) for f in t["factors"]])
            for t in d["terms"]
        ]

    @classmethod
    def load(cls, path) -> "Hinge":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def knots(self, i: int) -> np.ndarray:
        return np.unique([k for _, fs in self.terms for v, _, k in fs if v == i])

    def _hinges(self, X):
        """Per term: (coef, [(var, sign, hinge values)])."""
        for coef, factors in self.terms:
            yield coef, [(v, s, np.maximum(s * (X[:, v] - k), 0.0)) for v, s, k in factors]

    def __call__(self, X) -> np.ndarray:
        X = np.asfortranarray(X, dtype=float)
        out = np.full(len(X), self.intercept)
        for coef, factors in self._hinges(X):
            out += coef * np.prod([h for _, _, h in factors], axis=0)
        return out

    def gradient(self, X) -> np.ndarray:
        X = np.asfortranarray(X, dtype=float)
        G = np.zeros((len(X), self.p), order="F")
        for coef, factors in self._hinges(X):
            for a, (v, s, h) in enumerate(factors):
                term = coef * s * (h > 0)
                for b, (_, _, hb) in enumerate(factors):
                    if b != a:
                        term = term * hb
                G[:, v] += term
        return G


def sample_prior(prior: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draws from the program's prior JSON format with scipy.stats."""
    from scipy import stats

    cols = []
    for d in prior["dims"]:
        if d["type"] == "uniform":
            lo, hi = float(d["lo"]), float(d["hi"])
            dist = stats.uniform(loc=lo, scale=hi - lo)
        else:
            m, s = float(d["mean"]), float(d["sd"])
            a = (float(d.get("trunc_lo", -np.inf)) - m) / s
            b = (float(d.get("trunc_hi", np.inf)) - m) / s
            dist = stats.truncnorm(a, b, loc=m, scale=s)
        cols.append(dist.rvs(size=n, random_state=rng))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# Monte Carlo and quadrature references
# ---------------------------------------------------------------------------


def mc_outer(Gk: np.ndarray, Gl: np.ndarray):
    """Mean of the gradient outer products and its elementwise standard error."""
    n = len(Gk)
    mean = Gk.T @ Gl / n
    var = np.maximum((Gk * Gk).T @ (Gl * Gl) / n - mean**2, 0.0)
    return mean, np.sqrt(var / n)


def central_gradients(f, X: np.ndarray, h: float) -> np.ndarray:
    """Central differences of f on the unit box, shortened one-sided at its faces."""
    G = np.empty_like(X)
    for i in range(X.shape[1]):
        up = X.copy()
        dn = X.copy()
        up[:, i] = np.minimum(X[:, i] + h, 1.0)
        dn[:, i] = np.maximum(X[:, i] - h, 0.0)
        G[:, i] = (f(up) - f(dn)) / (up[:, i] - dn[:, i])
    return G


def quadrature_trace(mk: Hinge, ml: Hinge) -> float:
    """E[grad f_k . grad f_l] under Uniform[0, 1]^p, exactly.

    On each cell cut by every knot of both models, each gradient entry is
    a polynomial of degree at most 1 per variable, so the product has
    degree at most 2 and a 2-point Gauss-Legendre rule per dimension is
    exact; 3 points leave a margin.
    """
    nodes, weights = leggauss(3)
    axes_x, axes_w = [], []
    for i in range(mk.p):
        edges = np.unique(np.concatenate([[0.0, 1.0], mk.knots(i), ml.knots(i)]))
        edges = edges[(edges >= 0.0) & (edges <= 1.0)]
        a, b = edges[:-1], edges[1:]
        half = 0.5 * (b - a)
        axes_x.append(((a + b)[:, None] / 2 + half[:, None] * nodes[None, :]).ravel())
        axes_w.append((half[:, None] * weights[None, :]).ravel())
    total = 0.0
    # one slab of the tensor grid per point of the first axis bounds memory
    rest_x = np.array(list(itertools.product(*axes_x[1:]))) if mk.p > 1 else np.empty((1, 0))
    rest_w = np.array([np.prod(w) for w in itertools.product(*axes_w[1:])]) if mk.p > 1 else np.ones(1)
    for x0, w0 in zip(axes_x[0], axes_w[0]):
        X = np.column_stack([np.full(len(rest_x), x0), rest_x])
        dot = np.einsum("ij,ij->i", mk.gradient(X), ml.gradient(X))
        total += w0 * float(rest_w @ dot)
    return total


# ---------------------------------------------------------------------------
# Checks: each returns (ok, detail)
# ---------------------------------------------------------------------------


def rel_frobenius(A, B, tol: float):
    rel = float(np.linalg.norm(A - B) / np.linalg.norm(B))
    return rel <= tol, f"relative Frobenius distance {rel:.4f} (limit {tol})"


def within_z(A, ref, se, bound: float = Z_BOUND):
    """Every entry of A within bound standard errors of ref; entries whose
    standard error is 0 must agree to roundoff."""
    A, ref, se = (np.asarray(v, dtype=float) for v in (A, ref, se))
    scale = max(float(np.abs(ref).max()), 1e-300)
    diff = np.abs(A - ref)
    pos = se > 0
    z = np.where(pos, diff / np.where(pos, se, 1.0), 0.0)
    exact_ok = bool(np.all(diff[~pos] <= EXACT * scale))
    zmax = float(z.max(initial=0.0))
    return zmax <= bound and exact_ok, f"max |z| {zmax:.2f} over {A.size} entries (limit {bound})"


def r_squared(y, pred, floor: float):
    r2 = 1.0 - float(np.sum((y - pred) ** 2) / np.sum((y - np.mean(y)) ** 2))
    return r2 >= floor, f"held-out R^2 {r2:.5f} (floor {floor})"


def symmetric(M, tol: float = EXACT):
    M = np.asarray(M, dtype=float)
    err = float(np.abs(M - M.T).max() / max(np.abs(M).max(), 1e-300))
    return err <= tol, f"max relative asymmetry {err:.2e}"


def unit_diagonal(M, tol: float = EXACT):
    err = float(np.abs(np.diag(M) - 1.0).max())
    return err <= tol, f"max |diag - 1| {err:.2e}"


def psd(M, tol: float = EXACT):
    M = np.asarray(M, dtype=float)
    lam = float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())
    scale = max(float(np.abs(M).max()), 1e-300)
    return lam >= -tol * scale * len(M), f"min eigenvalue {lam:.3e}"


def close(a, b, tol: float = EXACT, what: str = "value"):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    err = float(np.abs(a - b).max() / max(float(np.abs(b).max()), 1e-300))
    return err <= tol, f"{what}: max relative difference {err:.2e}"


def triangle(D, tol: float = 1e-12):
    D = np.asarray(D, dtype=float)
    worst = float((D[:, None, :] - D[:, :, None] - D[None, :, :]).max())
    return worst <= tol, f"worst D_ac - D_ab - D_bc = {worst:.2e} over {len(D)}^3 triples"


def non_increasing(history):
    rise = float(np.diff(np.asarray(history, dtype=float)).max(initial=0.0))
    return rise <= 0.0, f"largest stress increase {rise:.2e} over {len(history)} values"
