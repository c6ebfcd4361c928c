"""Ensemble-level neighborhood analysis.

Pairwise concordance across every member of every ensemble, the
elementwise discordance matrix, a 2-D non-metric MDS embedding, and
per-model centers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import concordance, discordance
from .closedform import InputPrior, _pair_traces
from .model import Ensemble

__all__ = [
    "ConcordanceSummary",
    "PairwiseGrid",
    "Embedding",
    "pairwise_concordance",
    "discordance_matrix",
    "mds_embed",
    "model_centers",
]


@dataclass(frozen=True)
class ConcordanceSummary:
    """Model-block summary: all member-pair concordances between model k
    and model l, with their mean and (population) sd."""

    labels: tuple[str, str]
    samples: np.ndarray
    mean: float
    sd: float

    def __post_init__(self):
        s = np.array(self.samples, dtype=float)
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class PairwiseGrid:
    """Member-level concordance matrix over all non-constant members;
    summary(k, l) gives a model block's summary.

    kappa is N x N over the included members; membership[i] is the model
    index of member row i and positions[i] its index among all the loaded
    members, ensemble by ensemble. Constant members are dropped (counted in
    n_excluded). The diagonal pairs equal 1 by definition and are
    included in the diagonal-block samples.
    """

    labels: tuple[str, ...]
    membership: np.ndarray
    positions: np.ndarray
    kappa: np.ndarray
    n_excluded: int = 0

    def __post_init__(self):
        for name in ("membership", "positions", "kappa"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_members(self) -> int:
        return self.kappa.shape[0]

    def summary(self, k: int, l: int) -> ConcordanceSummary:
        samples = self.kappa[np.ix_(self.membership == k, self.membership == l)].ravel()
        return ConcordanceSummary(
            labels=(self.labels[k], self.labels[l]),
            samples=samples,
            mean=float(samples.mean()) if samples.size else math.nan,
            sd=float(samples.std(ddof=0)) if samples.size else math.nan,
        )


def pairwise_concordance(
    ensembles: list[Ensemble],
    prior: InputPrior,
) -> PairwiseGrid:
    """Concordance for every member pair across a list of ensembles.

    The concordance needs only traces: one stacked closed-form pass gives
    every pair's trace bitwise as cmat_trace does.
    """
    if not ensembles:
        raise ValueError("need at least one ensemble")
    p, domain = ensembles[0].p, ensembles[0].domain
    for e in ensembles[1:]:
        if e.p != p or e.domain != domain:
            raise ValueError("all ensembles must share p and domain")
    if prior.p != p:
        raise ValueError(f"prior has p={prior.p}, models have p={p}")

    members = [m for e in ensembles for m in e.members]
    membership = np.repeat(np.arange(len(ensembles)), [len(e.members) for e in ensembles])
    traces = _pair_traces(members, prior)
    included = traces.diagonal() > 1e-12 * float(traces.diagonal().max(initial=0.0))
    n_excluded = int(np.sum(~included))
    if n_excluded:
        warnings.warn(
            f"excluded {n_excluded} constant member(s) from the grid", stacklevel=2
        )
    membership = membership[included]
    traces = traces[np.ix_(included, included)]
    t_self = traces.diagonal()
    n = len(t_self)
    if n == 0:
        raise ValueError("all members are constant; no grid to compute")

    # included members pass concordance()'s constant check
    kappa = concordance(traces, t_self[:, None], t_self[None, :])
    np.fill_diagonal(kappa, 1.0)
    return PairwiseGrid(
        labels=tuple(e.label for e in ensembles),
        membership=membership,
        positions=np.flatnonzero(included),
        kappa=kappa,
        n_excluded=n_excluded,
    )


def discordance_matrix(kappa) -> np.ndarray:
    """Elementwise discordance() of a member-level concordance matrix such
    as PairwiseGrid.kappa. The result is symmetric with a zero diagonal and
    entries in [0, 1].
    """
    kappa = np.asarray(kappa, dtype=float)
    if kappa.ndim != 2 or kappa.shape[0] != kappa.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {kappa.shape}")
    if np.any(np.isnan(kappa)):
        raise ValueError("grid is incomplete (NaN entries)")
    D = discordance(kappa)
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    return D


@dataclass(frozen=True)
class Embedding:
    """2-D configuration from non-metric MDS.

    points (read-only) has one row per grid member; stress is the final
    Kruskal stress-1 value and stress_history the accepted value per
    iteration (non-increasing). model_centers gives model means.
    """

    points: np.ndarray
    stress: float
    stress_history: list

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)


def _pava(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted pool-adjacent-violators: the non-decreasing sequence
    nearest to y in the weighted least-squares sense."""
    # the first m entries of the lists are the pooled blocks so far; block
    # m is never ahead of the input being read, so the lists hold both
    vals, wts = y.tolist(), w.tolist()
    size = [1] * len(vals)
    m = 0
    for v, wt in zip(vals, wts):
        s = 1
        while m and vals[m - 1] > v:
            m -= 1
            tot = wts[m] + wt
            v = (wts[m] * vals[m] + wt * v) / tot
            wt = tot
            s += size[m]
        vals[m], wts[m], size[m] = v, wt, s
        m += 1
    return np.repeat(vals[:m], size[:m])


def _tie_blocks(d_sorted: np.ndarray) -> np.ndarray:
    """Start indices of runs of equal dissimilarity values, then the size."""
    inner = np.flatnonzero(np.diff(d_sorted)) + 1
    return np.concatenate(([0], inner, [d_sorted.size]))


def _stress(dist_flat, order, blocks):
    """Kruskal stress-1 with the secondary tie approach: distances are
    pooled within equal-dissimilarity blocks before isotonic fitting.
    Returns (stress, fitted disparities in flat order)."""
    d = dist_flat[order]
    counts = np.diff(blocks)
    # reduceat seeds each block's sum with its first element, where np.mean
    # sums from 0; a zero ahead of every block keeps the block means
    # bitwise equal to a per-block np.mean
    heads = blocks[:-1] + np.arange(counts.size)
    padded = np.zeros(d.size + counts.size)
    rest = np.ones(padded.size, dtype=bool)
    rest[heads] = False
    padded[rest] = d
    pooled = np.add.reduceat(padded, heads) / counts
    dhat_sorted = np.repeat(_pava(pooled, counts.astype(float)), counts)
    denom = float(np.sum(d * d))
    if denom == 0.0:
        return 0.0, np.zeros_like(dist_flat)
    raw = float(np.sum((d - dhat_sorted) ** 2))
    dhat = np.empty_like(dist_flat)
    dhat[order] = dhat_sorted
    return math.sqrt(raw / denom), dhat


def _pair_distances(X, iu):
    diff = X[iu[0]] - X[iu[1]]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _torgerson(D: np.ndarray, dims: int) -> np.ndarray:
    n = D.shape[0]
    J = np.eye(n) - np.full((n, n), 1.0 / n)
    B = -0.5 * J @ (D * D) @ J
    lam, V = np.linalg.eigh(0.5 * (B + B.T))
    idx = np.argsort(lam)[::-1][:dims]
    lam = np.maximum(lam[idx], 0.0)
    return V[:, idx] * np.sqrt(lam)


# the most Guttman iterations one embedding takes
_MDS_MAX_ITER = 500


def mds_embed(D, dims: int = 2, seed: int = 0) -> Embedding:
    """Kruskal non-metric MDS of a dissimilarity matrix D: classical-scaling
    start, then alternating monotone regression and Guttman updates.

    Stops at the first Guttman step that would raise stress-1 (the step is
    rejected, so the recorded stress history is non-increasing), when the
    improvement drops below 1e-8, or after _MDS_MAX_ITER iterations.
    """
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {D.shape}")
    n = D.shape[0]
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if not 1 <= dims <= n - 1:
        raise ValueError(f"dims must be in [1, {n - 1}] for {n} points, got {dims}")
    if np.any(D < 0) or not np.allclose(D, D.T, rtol=0.0, atol=1e-12) or np.any(np.diag(D) != 0):
        raise ValueError("D must be symmetric, non-negative, with a zero diagonal")

    iu = np.triu_indices(n, k=1)
    diss = D[iu]
    order = np.argsort(diss, kind="stable")
    blocks = _tie_blocks(diss[order])

    X = _torgerson(D, dims)
    if not np.any(X):
        X = np.random.default_rng(seed).normal(scale=1e-3, size=(n, dims))
    X = X - X.mean(axis=0)

    dist = _pair_distances(X, iu)
    stress, dhat = _stress(dist, order, blocks)
    history = [stress]

    for _ in range(_MDS_MAX_ITER):
        if stress == 0.0:
            break
        # Guttman transform at the current disparities
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dist > 0, dhat / dist, 0.0)
        Bmat = np.zeros((n, n))
        Bmat[iu] = -ratio
        Bmat += Bmat.T
        np.fill_diagonal(Bmat, -Bmat.sum(axis=1))
        X_new = (Bmat @ X) / n

        dist_new = _pair_distances(X_new, iu)
        stress_new, dhat_new = _stress(dist_new, order, blocks)
        if stress_new > stress:  # a rising step is rejected and ends the run
            break
        improvement = stress - stress_new
        X, dist, dhat, stress = X_new, dist_new, dhat_new, stress_new
        history.append(stress)
        if improvement < 1e-8:
            break

    X = X - X.mean(axis=0)
    return Embedding(points=X, stress=stress, stress_history=history)


def model_centers(points, membership) -> np.ndarray:
    """Per-model means of embedded points such as Embedding.points.

    membership[i] is the model index (0..K-1) of point i; every model
    index must own at least one point.
    """
    points = np.asarray(points, dtype=float)
    membership = np.asarray(membership, dtype=int)
    if membership.shape[0] != points.shape[0]:
        raise ValueError("membership length must match the number of points")
    K = int(membership.max()) + 1 if membership.size else 0
    centers = np.empty((K, points.shape[1]))
    for k in range(K):
        mask = membership == k
        if not np.any(mask):
            raise ValueError(f"model {k} has no points")
        centers[k] = points[mask].mean(axis=0)
    return centers
