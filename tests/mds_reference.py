"""Test-only reference MDS helpers: the plain loop forms.

``_tie_blocks`` walks the sorted dissimilarities one pair at a time,
``_stress`` takes each tie block's mean with its own ``np.mean`` call, and
``_pava`` runs pool-adjacent-violators on NumPy arrays indexed element by
element. ``coactive.cluster`` does the same arithmetic with one
``np.diff``, one ``np.add.reduceat`` and a stack of Python floats, and the
tests compare the two.
"""

from __future__ import annotations

import math

import numpy as np


def _pava(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted pool-adjacent-violators: the non-decreasing sequence
    nearest to y in the weighted least-squares sense."""
    n = y.size
    vals = np.empty(n)
    wts = np.empty(n)
    size = np.empty(n, dtype=int)
    m = 0
    for i in range(n):
        vals[m], wts[m], size[m] = y[i], w[i], 1
        m += 1
        while m > 1 and vals[m - 2] > vals[m - 1]:
            tot = wts[m - 2] + wts[m - 1]
            vals[m - 2] = (wts[m - 2] * vals[m - 2] + wts[m - 1] * vals[m - 1]) / tot
            wts[m - 2] = tot
            size[m - 2] += size[m - 1]
            m -= 1
    out = np.empty(n)
    pos = 0
    for b in range(m):
        out[pos : pos + size[b]] = vals[b]
        pos += size[b]
    return out


def _tie_blocks(d_sorted: np.ndarray):
    """Start indices of runs of equal dissimilarity values, then the size."""
    starts = [0]
    for i in range(1, d_sorted.size):
        if d_sorted[i] != d_sorted[i - 1]:
            starts.append(i)
    starts.append(d_sorted.size)
    return starts


def _stress(dist_flat, order, blocks):
    """Kruskal stress-1 with the secondary tie approach: distances are
    pooled within equal-dissimilarity blocks before isotonic fitting.
    Returns (stress, fitted disparities in flat order)."""
    d = dist_flat[order]
    nb = len(blocks) - 1
    pooled = np.empty(nb)
    wts = np.empty(nb)
    for b in range(nb):
        s, e = blocks[b], blocks[b + 1]
        pooled[b] = d[s:e].mean()
        wts[b] = e - s
    fit_blocks = _pava(pooled, wts)
    dhat_sorted = np.repeat(fit_blocks, np.diff(blocks).astype(int))
    denom = float(np.sum(d * d))
    if denom == 0.0:
        return 0.0, np.zeros_like(dist_flat)
    raw = float(np.sum((d - dhat_sorted) ** 2))
    dhat = np.empty_like(dist_flat)
    dhat[order] = dhat_sorted
    return math.sqrt(raw / denom), dhat
