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
    """Member-level concordance matrix over all non-constant members,
    with per-model-block summaries.

    kappa is N x N over the included members; membership[i] is the model
    index of member row i. Constant members are dropped (counted in
    n_excluded). The diagonal pairs equal 1 by definition and are
    included in the diagonal-block samples.
    """

    labels: tuple[str, ...]
    membership: np.ndarray
    kappa: np.ndarray
    summaries: list
    n_excluded: int = 0

    def __post_init__(self):
        for name in ("membership", "kappa"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_members(self) -> int:
        return self.kappa.shape[0]

    def summary(self, k: int, l: int) -> ConcordanceSummary:
        return self.summaries[k][l]


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

    # concordance() elementwise; included members pass its constant check
    kappa = traces / np.sqrt(np.multiply.outer(t_self, t_self))
    if np.any(np.abs(kappa) > 1.0 + 1e-12):
        raise ValueError("traces violate the Cauchy-Schwarz bound")
    kappa = np.clip(kappa, -1.0, 1.0)
    np.fill_diagonal(kappa, 1.0)

    K = len(ensembles)
    summaries = [[None] * K for _ in range(K)]
    for k in range(K):
        ik = np.flatnonzero(membership == k)
        for l in range(K):
            il = np.flatnonzero(membership == l)
            samples = kappa[np.ix_(ik, il)].ravel()
            summaries[k][l] = ConcordanceSummary(
                labels=(ensembles[k].label, ensembles[l].label),
                samples=samples,
                mean=float(samples.mean()) if samples.size else math.nan,
                sd=float(samples.std(ddof=0)) if samples.size else math.nan,
            )

    return PairwiseGrid(
        labels=tuple(e.label for e in ensembles),
        membership=membership,
        kappa=kappa,
        summaries=summaries,
        n_excluded=n_excluded,
    )


def discordance_matrix(grid) -> np.ndarray:
    """Elementwise sqrt((1 - kappa)/2) over the member-level grid.

    Accepts a PairwiseGrid or a raw concordance matrix. The result is
    symmetric with a zero diagonal and entries in [0, 1].
    """
    kappa = np.asarray(getattr(grid, "kappa", grid), dtype=float)
    if kappa.ndim != 2 or kappa.shape[0] != kappa.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {kappa.shape}")
    if np.any(np.isnan(kappa)):
        raise ValueError("grid is incomplete (NaN entries)")
    D = np.sqrt(np.maximum(0.0, (1.0 - np.minimum(1.0, kappa))) / 2.0)
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
    vals, wts, size = [], [], []
    for v, wt in zip(y.tolist(), w.tolist()):
        s = 1
        while vals and vals[-1] > v:
            tot = wts[-1] + wt
            v = (wts[-1] * vals.pop() + wt * v) / tot
            wt = tot
            wts.pop()
            s += size.pop()
        vals.append(v)
        wts.append(wt)
        size.append(s)
    return np.repeat(vals, size)


def _tie_blocks(d_sorted: np.ndarray) -> np.ndarray:
    """Start indices of runs of equal dissimilarity values, then the size."""
    inner = np.flatnonzero(np.diff(d_sorted)) + 1
    return np.concatenate(([0], inner, [d_sorted.size]))


def _stress(dist_flat, order, blocks):
    """Kruskal stress-1 with the secondary tie approach: distances are
    pooled within equal-dissimilarity blocks before isotonic fitting.
    Returns (stress, fitted disparities in flat order)."""
    d = dist_flat[order]
    starts, counts = blocks[:-1], np.diff(blocks)
    # reduceat seeds each block's sum with its first element, where np.mean
    # sums from 0; a zero ahead of every block keeps the block means
    # bitwise equal to a per-block np.mean
    padded = np.insert(d, starts, 0.0)
    pooled = np.add.reduceat(padded, starts + np.arange(starts.size)) / counts
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


def mds_embed(D, dims: int = 2, seed: int = 0, max_iter: int = 500) -> Embedding:
    """Kruskal non-metric MDS: classical-scaling start, then alternating
    monotone regression and Guttman updates.

    Stops at the first Guttman step that would raise stress-1 (the step is
    rejected, so the recorded stress history is non-increasing), when the
    improvement drops below 1e-8, or after max_iter iterations.
    """
    if hasattr(D, "kappa"):  # a grid was passed; convert
        D = discordance_matrix(D)
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {D.shape}")
    n = D.shape[0]
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if np.any(D < 0) or not np.allclose(D, D.T, atol=1e-12) or np.any(np.diag(D) != 0):
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

    for _ in range(max_iter):
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


def model_centers(embedding, membership) -> np.ndarray:
    """Per-model means of the embedded points.

    membership[i] is the model index (0..K-1) of point i; every model
    index must own at least one point.
    """
    points = np.asarray(getattr(embedding, "points", embedding), dtype=float)
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
