"""Derived quantities from gradient outer-product matrices.

Symmetrization, eigendecomposition with absolute-magnitude ordering,
concordance and discordance, per-direction contributions, activity and
co-activity scores, the shared matrix, and the projection error bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConstantFunctionError",
    "CoActiveDecomposition",
    "DimSelection",
    "symmetrize",
    "decompose",
    "concordance",
    "discordance",
    "activity_scores",
    "shared_matrix",
    "poincare_bound",
    "select_dim",
]


class ConstantFunctionError(ValueError):
    """Raised when a function has (numerically) zero gradient variance;
    concordance is undefined for constant functions."""


def _entries(M) -> np.ndarray:
    return np.asarray(getattr(M, "entries", M), dtype=float)


def symmetrize(C_kl, C_lk=None) -> np.ndarray:
    """V = (C_kl + C_lk)/2, with C_lk defaulting to C_kl^T.

    The result is forced exactly symmetric.
    """
    A = _entries(C_kl)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    B = A.T if C_lk is None else _entries(C_lk)
    if B.shape != A.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    V = 0.5 * (A + B)
    return 0.5 * (V + V.T)


def _require_nonconstant(t_k, t_l) -> None:
    # threshold is relative to the pair's own gradient-variance scale
    tol = 1e-12 * np.maximum(np.abs(t_k), np.abs(t_l))
    if np.any((t_k <= tol) | (t_l <= tol)):
        raise ConstantFunctionError(
            f"gradient variance too small (t_k={np.min(t_k):g}, t_l={np.min(t_l):g}); "
            "concordance is undefined for constant functions"
        )


def _clamp(kappa, what: str):
    """kappa clipped to [-1, 1]. Floating-point overshoot beyond +-1 by at
    most 1e-12 is clamped; larger overshoot, or NaN, raises with what."""
    bad = ~(np.abs(kappa) <= 1.0 + 1e-12)
    if np.any(bad):
        raise ValueError(f"{what}: kappa={float(np.extract(bad, kappa)[0])!r}")
    return np.clip(kappa, -1.0, 1.0)


def concordance(t_kl, t_k, t_l):
    """kappa = t_kl / sqrt(t_k t_l), in [-1, 1], elementwise: scalars give
    a float, arrays broadcast to an array.

    Floating-point overshoot beyond +-1 by at most 1e-12 is clamped;
    larger overshoot indicates inconsistent traces and raises.
    """
    t_kl, t_k, t_l = (np.asarray(t, dtype=float) for t in (t_kl, t_k, t_l))
    _require_nonconstant(t_k, t_l)
    kappa = _clamp(t_kl / np.sqrt(t_k * t_l), "traces violate the Cauchy-Schwarz bound")
    return float(kappa) if np.ndim(kappa) == 0 else kappa


def discordance(conc):
    """sqrt((1 - kappa)/2), in [0, 1], elementwise: a scalar gives a float,
    an array an array. A pseudo-metric across models."""
    conc = np.asarray(conc, dtype=float)
    bad = ~((-1.0 - 1e-12 <= conc) & (conc <= 1.0 + 1e-12))
    if np.any(bad):
        raise ValueError(f"concordance out of range: {float(np.extract(bad, conc)[0])!r}")
    d = np.sqrt((1.0 - np.minimum(1.0, conc)) / 2.0)
    return float(d) if d.ndim == 0 else d


@dataclass(frozen=True)
class CoActiveDecomposition:
    """Eigendecomposition of a symmetrized matrix V = W diag(lambda) W^T.

    eigvals are ordered by descending absolute magnitude (ties broken
    signed-descending); eigvecs holds the matching orthonormal columns,
    each signed so its largest-magnitude component is positive.
    contributions are pi_i = lambda_i / sqrt(t_k t_l) and sum to the
    concordance.
    """

    V: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    contributions: np.ndarray
    concordance: float
    t_k: float
    t_l: float

    def __post_init__(self):
        for name in ("V", "eigvals", "eigvecs", "contributions"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def p(self) -> int:
        return self.eigvals.shape[0]

    def to_dict(self) -> dict:
        return {
            "eigvals": [float(v) for v in self.eigvals],
            "eigvecs": [[float(v) for v in row] for row in self.eigvecs],
            "contributions": [float(v) for v in self.contributions],
            "concordance": self.concordance,
            "discordance": discordance(self.concordance),
            "t_k": self.t_k,
            "t_l": self.t_l,
        }


def decompose(V, t_k: float, t_l: float) -> CoActiveDecomposition:
    """Full symmetric eigendecomposition of V with the ordering and sign
    conventions fixed, plus contributions and concordance.

    The concordance is accumulated as the compensated sum of the
    contributions; it equals trace(V)/sqrt(t_k t_l) up to roundoff since
    the eigenvalues sum to the trace.
    """
    V = _entries(V)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {V.shape}")
    if not np.allclose(V, V.T, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(V).max()))):
        raise ValueError("V must be symmetric; apply symmetrize() first")
    _require_nonconstant(t_k, t_l)

    lam, W = np.linalg.eigh(0.5 * (V + V.T))
    order = np.lexsort((-lam, -np.abs(lam)))
    lam = lam[order]
    W = W[:, order]
    for j in range(W.shape[1]):
        lead = int(np.argmax(np.abs(W[:, j])))
        if W[lead, j] < 0:
            W[:, j] = -W[:, j]

    denom = math.sqrt(float(t_k) * float(t_l))
    pi = lam / denom
    kappa = float(_clamp(math.fsum(pi), "traces inconsistent with V"))
    return CoActiveDecomposition(
        V=V,
        eigvals=lam,
        eigvecs=W,
        contributions=pi,
        concordance=kappa,
        t_k=float(t_k),
        t_l=float(t_l),
    )


def activity_scores(dec: CoActiveDecomposition, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed and unsigned per-input scores over the leading q directions.

    signed alpha_i = sum_{j<=q} lambda_j w_{ij}^2, unsigned uses
    |lambda_j|; both over the stored absolute-magnitude ordering. For a
    self matrix these reduce to classical activity scores.
    """
    if not 1 <= q <= dec.p:
        raise ValueError(f"q must be in [1, {dec.p}], got {q}")
    W2 = dec.eigvecs[:, :q] ** 2
    signed = W2 @ dec.eigvals[:q]
    unsigned = W2 @ np.abs(dec.eigvals[:q])
    return signed, unsigned


def shared_matrix(C_list) -> np.ndarray:
    """Elementwise sum of self matrices: H = sum_k C_k."""
    if not C_list:
        raise ValueError("need at least one matrix")
    mats = [_entries(C) for C in C_list]
    p = mats[0].shape[0]
    for M in mats:
        if M.shape != (p, p):
            raise ValueError(f"shape mismatch: {M.shape} vs {(p, p)}")
    return np.sum(mats, axis=0)


def poincare_bound(C_self, Sigma, B) -> float:
    """Projection error bound trace(Sigma (I - P_B) C (I - P_B)) with
    P_B = B (B^T B)^{-1} B^T.

    Sigma is the prior covariance, InputPrior.covariance(). B must have
    full column rank.
    """
    C = _entries(C_self)
    Sigma = np.asarray(Sigma, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    p = C.shape[0]
    if B.shape[0] != p or Sigma.shape != (p, p):
        raise ValueError("dimension mismatch between C, Sigma, and B")
    if B.shape[1] > p:
        raise ValueError(f"basis has {B.shape[1]} columns for p={p}")
    if not (np.isfinite(B).all() and np.isfinite(Sigma).all()):
        raise ValueError("basis and Sigma must be finite")
    Q, R = np.linalg.qr(B)
    diag = np.abs(np.diag(R))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise ValueError("basis is rank-deficient")
    E = np.eye(p) - Q @ Q.T
    M = E @ C @ E
    return float(np.trace(Sigma @ M))


@dataclass(frozen=True)
class DimSelection:
    """r = count of |lambda| >= tau, with the largest consecutive
    absolute-magnitude gap ratio as a diagnostic."""

    r: int
    gap_after: int
    gap_ratio: float


def select_dim(eigvals, tau: float) -> DimSelection:
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    lam = np.abs(np.asarray(eigvals, dtype=float))
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("eigvals must be a non-empty vector")
    lam = np.sort(lam)[::-1]
    r = int(np.sum(lam >= tau))
    if r == 0:
        warnings.warn(f"no eigenvalue reaches tau={tau:g}", stacklevel=2)
    gap_after, gap_ratio = 0, 0.0
    if lam.size > 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(lam[1:] > 0, lam[:-1] / lam[1:], np.inf)
        ratios = np.where(lam[:-1] > 0, ratios, 1.0)
        gap_after = int(np.argmax(ratios)) + 1
        gap_ratio = float(ratios[gap_after - 1])
    return DimSelection(r=r, gap_after=gap_after, gap_ratio=gap_ratio)
