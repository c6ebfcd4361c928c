"""Whole-sample references for the streamed Monte Carlo estimator.

`loop_fd_gradients` is the per-column finite-difference loop that
`SampledFunction.gradients` once ran: one working copy of the sample, each
column stepped up, then down, then restored, with two evaluator calls per
column. `whole_sample_mc` is `mc_cmat` before it streamed: every gradient
array at full size, then the 256-row block sums over the whole sample.
The tests hold the streamed code bitwise equal to both.

`replay_lhs_design` repeats `lhs_design`'s draws and decides each maximin
swap from a full table of squared distances, every entry of one form.
"""

from __future__ import annotations

import numpy as np


def loop_fd_gradients(evaluator, X, steps, domain):
    n, p = X.shape
    G = np.empty((n, p))
    onesided = 0
    lo = np.array([d[0] for d in domain])
    hi = np.array([d[1] for d in domain])
    W = X.copy()  # one working copy: each column is stepped up, down, then restored
    for i in range(p):
        h = steps[i]
        x = X[:, i]
        up_ok = x + h <= hi[i]
        dn_ok = x - h >= lo[i]
        xp = np.where(up_ok, x + h, x)
        xm = np.where(dn_ok, x - h, x)
        W[:, i] = xp
        # a copy: the evaluator may return a view of W, which changes next
        fp = np.array(evaluator(W), dtype=float)
        W[:, i] = xm
        fm = np.asarray(evaluator(W), dtype=float)
        width = xp - xm
        safe = width > 0
        G[:, i] = np.where(safe, (fp - fm) / np.where(safe, width, 1.0), 0.0)
        W[:, i] = x
        onesided += int(np.sum(~up_ok) + np.sum(~dn_ok))
    return G, onesided


def _gradients(f, X):
    if f.grad is not None:
        return np.asarray(f.grad(X), dtype=float), 0
    return loop_fd_gradients(f.evaluator, X, f.steps(), f.domain)


def whole_sample_mc(f_k, f_l, prior, B, seed, block=256):
    """(mean, se, n_onesided, h) as mc_cmat computed them on the whole sample."""
    p = f_k.p
    X = prior.sample(np.random.default_rng([seed, 0]), B)
    Gk, o1 = _gradients(f_k, X)
    Gl, o2 = (Gk, 0) if f_l is f_k else _gradients(f_l, X)
    Gk2, Gl2 = Gk * Gk, Gl * Gl
    sum1 = np.zeros((p, p))
    sum2 = np.zeros((p, p))
    for a in range(0, B, block):
        rows = slice(a, a + block)
        sum1 += Gk[rows].T @ Gl[rows]
        sum2 += Gk2[rows].T @ Gl2[rows]
    mean = sum1 / B
    var = np.maximum(sum2 / B - mean**2, 0.0)
    se = np.sqrt(var / B)
    if f_k is f_l:
        mean = 0.5 * (mean + mean.T)
    h = max((float(np.max(f.steps())) for f in (f_k, f_l) if f.grad is None), default=None)
    return mean, se, o1 + o2, h


def replay_lhs_design(n, p, domain, seed, refine):
    """lhs_design with its swaps decided on whole distance tables.

    Every proposal builds the (n, n) table of the trial design from its
    (n, n, p) differences, squared and summed over the last axis, and
    keeps the swap when the nearest distance of its two rows rises
    strictly over the same rows of the current table.
    """
    rng = np.random.default_rng(seed)
    U = np.empty((n, p))
    for j in range(p):
        U[:, j] = (rng.permutation(n) + rng.uniform(size=n)) / n

    def table(U):
        D = ((U[:, None, :] - U[None, :, :]) ** 2).sum(axis=-1)
        np.fill_diagonal(D, np.inf)
        return D

    if n > 2:
        D = table(U)
        for _ in range(refine):
            j = int(rng.integers(p))
            r1, r2 = rng.choice(n, size=2, replace=False)
            T = U.copy()
            T[[r1, r2], j] = T[[r2, r1], j]
            DT = table(T)
            if DT[[r1, r2]].min() > D[[r1, r2]].min():
                U, D = T, DT
    return np.column_stack([lo + U[:, j] * (hi - lo) for j, (lo, hi) in enumerate(domain)])
