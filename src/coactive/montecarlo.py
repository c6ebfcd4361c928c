"""Monte Carlo estimation of gradient outer-product matrices.

Serves both as the baseline estimator (sample the prior, average gradient
outer products) and as the independent validation oracle for the
closed-form path. Raw fixture functions use central finite differences;
surrogates use their exact analytic gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from urllib.parse import parse_qsl

import numpy as np

from .closedform import CoActiveMatrix, InputPrior, _validate_self_matrix
from .model import _CHUNK_CELLS, MarsSurrogate

__all__ = [
    "SampledFunction",
    "MCResult",
    "lhs_design",
    "mc_cmat",
    "poly_pair",
    "piston",
    "linear_function",
    "builtin_functions",
]


# the random within-column swaps one maximin refinement proposes
_LHS_REFINE = 200


def lhs_design(n: int, p: int, domain, seed: int) -> np.ndarray:
    """Latin hypercube sample with maximin refinement.

    Each column is stratified: exactly one point per stratum of width
    1/n. Refinement proposes _LHS_REFINE random within-column value swaps
    between two rows and keeps those that strictly increase the nearest
    distance of the two rows (computed on the unit cube; the swap leaves
    every other pair's distance as it was). Reproducible from seed.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    domain = [(float(lo), float(hi)) for lo, hi in domain]
    if len(domain) != p:
        raise ValueError(f"domain has {len(domain)} entries for p={p}")
    rng = np.random.default_rng(seed)
    unit = np.empty((n, p))
    for j in range(p):
        unit[:, j] = (rng.permutation(n) + rng.uniform(size=n)) / n

    if n > 2:
        for _ in range(_LHS_REFINE):
            j = int(rng.integers(p))
            r1, r2 = rng.choice(n, size=2, replace=False)
            cur = min(_nearest2(unit, r1), _nearest2(unit, r2))
            unit[[r1, r2], j] = unit[[r2, r1], j]
            if _nearest2(unit, r1) <= cur or _nearest2(unit, r2) <= cur:
                unit[[r1, r2], j] = unit[[r2, r1], j]

    out = np.empty_like(unit)
    for j, (lo, hi) in enumerate(domain):
        out[:, j] = lo + unit[:, j] * (hi - lo)
    return out


def _nearest2(U: np.ndarray, r) -> float:
    """The squared distance from row r of U to its nearest other row."""
    d2 = ((U[r] - U) ** 2).sum(axis=1)
    d2[r] = np.inf
    return float(d2.min())


@dataclass(frozen=True)
class SampledFunction:
    """A deterministic scalar function of p inputs, evaluated on batches.

    evaluator maps (n, p) arrays to (n,) outputs. grad, when given, maps
    (n, p) to (n, p) analytic gradients; otherwise central finite
    differences with a step of 1e-5 of each input's range are used,
    falling back to one-sided differences at the domain boundary.
    """

    evaluator: callable
    p: int
    domain: tuple[tuple[float, float], ...]
    grad: callable = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(
            self, "domain", tuple((float(lo), float(hi)) for lo, hi in self.domain)
        )

    @classmethod
    def from_surrogate(cls, m: MarsSurrogate) -> "SampledFunction":
        return cls(
            evaluator=m.evaluate_batch,
            p=m.p,
            domain=m.domain,
            grad=m.gradient_batch,
            label=m.label,
        )

    def __call__(self, X) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(X, dtype=float)), dtype=float)

    def steps(self) -> np.ndarray:
        return np.array([1e-5 * (hi - lo) for lo, hi in self.domain])

    def gradients(self, X: np.ndarray) -> tuple[np.ndarray, int]:
        """Batch gradients and the count of one-sided boundary fallbacks."""
        X = np.asarray(X, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(X), dtype=float), 0
        (G,), onesided = _fd_gradients_batch((self.evaluator,), X, self.steps(), self.domain)
        return G, onesided


def _fd_gradients_batch(evaluators, X, steps, domain):
    """Central differences of each evaluator from one (2p*n, p) stack.

    Copy 2i of X steps column i up and copy 2i + 1 steps it down, each only
    where the step stays inside the domain; a row with one step refused
    gets a one-sided difference. The stack is built column by column and
    goes to every evaluator, one call each, as a Fortran-ordered view. It
    is not changed after the calls, so an evaluator may return a view of
    it. Returns the gradients and the one-sided count of one evaluator.
    """
    n, p = X.shape
    XT = X.T.copy()
    lo = np.array([d[0] for d in domain])[:, None]
    hi = np.array([d[1] for d in domain])[:, None]
    xp, xm = XT + steps[:, None], XT - steps[:, None]
    up_ok, dn_ok = xp <= hi, xm >= lo
    np.copyto(xp, XT, where=~up_ok)
    np.copyto(xm, XT, where=~dn_ok)
    cols = np.empty((p, p, 2, n))  # [column, stepped input, up or down, row]
    cols[:] = XT[:, None, None, :]
    i = np.arange(p)
    cols[i, i, 0] = xp
    cols[i, i, 1] = xm
    stack = cols.reshape(p, 2 * p * n).T
    width = xp - xm
    refused = ~(width > 0)
    width[refused] = 1.0

    def difference(F):
        F = np.asarray(F, dtype=float).reshape(p, 2, n)
        # written through the transpose of a C-ordered G: on a transposed G
        # the BLAS products in mc_cmat take other paths and give other bits
        G = np.empty((n, p))
        GT = G.T
        np.subtract(F[:, 0], F[:, 1], out=GT)
        GT /= width
        GT[refused] = 0.0
        return G

    onesided = 2 * n * p - int(np.count_nonzero(up_ok)) - int(np.count_nonzero(dn_ok))
    # each evaluator's values are freed before the next one runs
    return [difference(evaluator(stack)) for evaluator in evaluators], onesided


# Rows per block of the cross products in mc_cmat: a (p x 256)(256 x p)
# product stays below OpenBLAS's threading threshold (measured up to p = 40),
# so no worker thread wakes and spins after it, whatever the sample size.
_MC_BLOCK = 256


# On a 2-core Xeon the raw piston pair at B = 1e5 took 78 ms with chunks of
# 2^16 to 2^18 cells, _CHUNK_CELLS among them, 12-15 % more with 2^15 or
# 2^19, and 55 % more with 2^20.
def _chunk_rows(fs) -> int:
    """Sample rows per chunk: as many whole _MC_BLOCK blocks as fit the
    input of one gradient call into _CHUNK_CELLS cells, and at least one.
    A sample row is p cells for an analytic gradient and 2p stacked rows of
    p cells when differenced: 6,656 rows for an analytic p = 24 gradient,
    3,072 for a differenced p = 5 function."""
    cells = max(f.p if f.grad is not None else 2 * f.p * f.p for f in fs)
    return max(1, _CHUNK_CELLS // cells // _MC_BLOCK) * _MC_BLOCK


@dataclass(frozen=True)
class MCResult:
    """MC estimate of C_kl with its elementwise standard-error matrix."""

    matrix: CoActiveMatrix
    se: np.ndarray
    B: int
    seed: int
    h: float | None
    n_onesided: int = 0

    def to_dict(self) -> dict:
        return {
            "entries": [[float(v) for v in row] for row in self.matrix.entries],
            "se_entries": [[float(v) for v in row] for row in self.se],
            "B": self.B,
            "seed": self.seed,
            "h": self.h,
        }


def mc_cmat(
    f_k: SampledFunction,
    f_l: SampledFunction,
    prior: InputPrior,
    B: int,
    seed: int,
) -> MCResult:
    """Plain MC estimator: mean of B gradient outer products at i.i.d.
    prior draws, with the elementwise standard error of the mean.

    The draws come from one stream seeded by (seed, 0) and are drawn at
    once. The gradients are taken over chunks of _chunk_rows rows, so the
    working memory is the sample and one chunk; the sums run over blocks
    of _MC_BLOCK rows in sample order, whatever the chunk size. Two
    differenced functions on one domain take their differences from one
    stack.
    """
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    if f_k.p != f_l.p or f_k.p != prior.p:
        raise ValueError("function and prior dimensions must agree")
    p = f_k.p
    X = prior.sample(np.random.default_rng([seed, 0]), B)
    chunk = _chunk_rows((f_k, f_l))
    shared = (f_l is not f_k and f_k.grad is None and f_l.grad is None
              and f_k.domain == f_l.domain)
    sum1 = np.zeros((p, p))
    sum2 = np.zeros((p, p))
    onesided = 0
    for c in range(0, B, chunk):
        Xc = X[c:c + chunk]
        if shared:
            (Gk, Gl), o = _fd_gradients_batch(
                (f_k.evaluator, f_l.evaluator), Xc, f_k.steps(), f_k.domain)
            onesided += 2 * o
        else:
            Gk, o1 = f_k.gradients(Xc)
            Gl, o2 = (Gk, 0) if f_l is f_k else f_l.gradients(Xc)
            onesided += o1 + o2
        for a in range(0, Xc.shape[0], _MC_BLOCK):
            gk, gl = Gk[a:a + _MC_BLOCK], Gl[a:a + _MC_BLOCK]
            sum1 += gk.T @ gl
            sum2 += (gk * gk).T @ (gl * gl)
    mean = sum1 / B
    var = np.maximum(sum2 / B - mean**2, 0.0)
    se = np.sqrt(var / B)
    if f_k is f_l:
        mean = 0.5 * (mean + mean.T)
        _validate_self_matrix(mean)
    C = CoActiveMatrix(entries=mean, labels=(f_k.label, f_l.label))
    h = max((float(np.max(f.steps())) for f in (f_k, f_l) if f.grad is None), default=None)
    return MCResult(matrix=C, se=se, B=B, seed=seed, h=h, n_onesided=onesided)


# ---------------------------------------------------------------------------
# Builtin fixtures
# ---------------------------------------------------------------------------


def poly_pair(beta: float) -> tuple[SampledFunction, SampledFunction]:
    """The two-variable polynomial pair on [0,1]^2:

        f1(x) = x1^2 + x1 x2        f2(x) = f1(x) + beta * x2^3

    Analytic gradients are attached; the closed-form matrices are simple
    moments, which makes the pair the workhorse test fixture.
    """
    domain = ((0.0, 1.0), (0.0, 1.0))

    def f1(X):
        return X[:, 0] ** 2 + X[:, 0] * X[:, 1]

    def g1(X):
        return np.column_stack([2 * X[:, 0] + X[:, 1], X[:, 0]])

    def f2(X):
        return X[:, 0] ** 2 + X[:, 0] * X[:, 1] + beta * X[:, 1] ** 3

    def g2(X):
        return np.column_stack([2 * X[:, 0] + X[:, 1], X[:, 0] + 3 * beta * X[:, 1] ** 2])

    a = SampledFunction(evaluator=f1, p=2, domain=domain, grad=g1, label="poly-f1")
    b = SampledFunction(evaluator=f2, p=2, domain=domain, grad=g2, label=f"poly-f2-beta{beta:g}")
    return a, b


_PISTON_RANGES = (
    (30.0, 60.0),  # M: piston weight
    (0.005, 0.020),  # S: surface area
    (0.002, 0.010),  # V0: initial gas volume
    (1000.0, 5000.0),  # k: spring coefficient
    (340.0, 360.0),  # T0: filling gas temperature
)


def piston(p0: float = 90000.0, ta: float = 284.0) -> SampledFunction:
    """Piston cycle-time function with ambient (pressure, temperature)
    fixed at (p0, ta); inputs scaled to [0,1]^5.

    Gradients are estimated by central differences (no analytic form is
    attached). The intended sampling prior for cross-validation runs is
    Uniform[0,1]^5 on the scaled inputs.
    """

    def evaluator(U):
        U = np.asarray(U, dtype=float)
        cols = [lo + U[:, j] * (hi - lo) for j, (lo, hi) in enumerate(_PISTON_RANGES)]
        M, S, V0, k, T0 = cols
        A = p0 * S + 19.62 * M - k * V0 / S
        V = S / (2 * k) * (np.sqrt(A**2 + 4 * k * p0 * V0 * ta / T0) - A)
        return 120.0 * math.pi * np.sqrt(M / (k + S**2 * p0 * V0 * ta / (T0 * V**2)))

    return SampledFunction(
        evaluator=evaluator,
        p=5,
        domain=tuple((0.0, 1.0) for _ in range(5)),
        label=f"piston-p0{p0:g}-ta{ta:g}",
    )


def linear_function(a) -> SampledFunction:
    """f(x) = a . x on the unit box, with constant analytic gradient."""
    a = np.asarray(a, dtype=float)
    p = a.shape[0]

    def evaluator(X):
        return np.asarray(X, dtype=float) @ a

    def grad(X):
        return np.tile(a, (np.asarray(X).shape[0], 1))

    return SampledFunction(evaluator=evaluator, p=p, domain=((0.0, 1.0),) * p, grad=grad, label="linear")


def builtin_functions(spec: str) -> tuple[SampledFunction, ...]:
    """Resolve a fixture registry string.

    Examples: "builtin:poly?beta=3" (returns the pair),
    "builtin:piston?p0=90000&ta=284", "builtin:linear?a=1,2,3".
    """
    if not spec.startswith("builtin:"):
        raise ValueError(f"not a builtin spec: {spec!r}")
    body = spec[len("builtin:"):]
    name, _, query = body.partition("?")
    params = dict(parse_qsl(query)) if query else {}
    if name == "poly":
        return poly_pair(float(params.get("beta", 1.0)))
    if name == "piston":
        return (piston(float(params.get("p0", 90000.0)), float(params.get("ta", 284.0))),)
    if name == "linear":
        a = [float(v) for v in params.get("a", "1").split(",")]
        return (linear_function(a),)
    raise ValueError(f"unknown builtin fixture {name!r}")
