"""Test-only references: the dense fitter and the per-column gradient loop.

The forward pass builds the full n x K hinge block of every (parent,
variable) pair on every step and projects it on the whole orthonormal
basis; the backward pass solves one Gram system per deletion candidate.
Both are slow and plain, which is the point: ``coactive.model`` scores
candidates from running sums and prunes from one factorization per step,
and the tests compare the two. The reference takes the kept subset's
coefficients from an orthogonal solve (LAPACK gelsd) on the tall design
block, where the fitter uses the corrected semi-normal equations.
Candidate sets, span rules, thresholds, the mirror-tie rule and the tie
order are the fitter's.

loop_gradient is the surrogate gradient as one strided column pass per
factor; ``MarsSurrogate.gradient_batch`` must equal it bitwise.
"""

from __future__ import annotations

import numpy as np

from coactive.model import _TIE_RTOL, FitConfig, HingeFactor, _design_from_factor_sets, _gcv
from coactive.model import _as_batch, _parent_candidates

MODES = ("both", "plus", "minus")


def dense_reductions(pcol, xv, kn, Q, resid):
    """(red2, red_p, red_m) of every knot in kn for one (parent, variable)."""
    Cp = pcol[:, None] * np.maximum(xv[:, None] - kn[None, :], 0.0)
    Cm = pcol[:, None] * np.maximum(kn[None, :] - xv[:, None], 0.0)
    QtCp = Q.T @ Cp
    QtCm = Q.T @ Cm
    raw_p = np.einsum("ij,ij->j", Cp, Cp)
    raw_m = np.einsum("ij,ij->j", Cm, Cm)
    a = raw_p - np.einsum("ij,ij->j", QtCp, QtCp)
    c = raw_m - np.einsum("ij,ij->j", QtCm, QtCm)
    b = np.einsum("ij,ij->j", Cp, Cm) - np.einsum("ij,ij->j", QtCp, QtCm)
    u = Cp.T @ resid
    w = Cm.T @ resid
    ok_p = a > 1e-12 * np.maximum(raw_p, 1e-300)
    ok_m = c > 1e-12 * np.maximum(raw_m, 1e-300)
    # the pair is collinear after projection when C+ - C- = pcol*(x - t),
    # equivalently pcol*x, lies in the span of Q
    r = pcol * xv
    r = r - Q @ (Q.T @ r)
    r = r - Q @ (Q.T @ r)
    apart = float(r @ r) > 1e-12 * (raw_p + raw_m)
    with np.errstate(divide="ignore", invalid="ignore"):
        red_p = np.where(ok_p, u * u / a, 0.0)
        red_m = np.where(ok_m, w * w / c, 0.0)
        det = a * c - b * b
        ok2 = ok_p & ok_m & apart & (det > 1e-12 * a * c)
        red2 = np.where(ok2, (c * u * u - 2 * b * u * w + a * w * w) / det, 0.0)
    red2 = np.where(np.isfinite(red2), red2, 0.0)
    red_m = np.where(ok_p & ok_m & ~ok2, 0.0, red_m)  # mirror tie: plus only
    return red2, red_p, red_m


def dense_forward(X, y, cfg: FitConfig, sst, mirror=None, on_step=None):
    """Dense forward pass; returns (factor_sets, rss_path).

    mirror, if given, receives add_column(q) and add_parent(col, factors)
    as the basis and the parents grow. on_step(resid, sse, scores) sees
    every step's scores {(parent, var): (knots, red2, red_p, red_m)}.
    """
    n, p = X.shape
    max_cols = min(cfg.max_terms + 1, max(3, int(0.9 * n)))
    q0 = np.full(n, 1.0 / np.sqrt(n))
    Q = q0[:, None]
    parent_cols = [np.ones(n)]
    parent_factors: list[tuple[HingeFactor, ...]] = [()]
    factor_sets: list[tuple[HingeFactor, ...]] = []
    cand_cache: dict[tuple[int, int], np.ndarray] = {}
    if mirror is not None:
        mirror.add_column(q0)
        mirror.add_parent(parent_cols[0], ())

    resid = y - q0 * (q0 @ y)
    sse = float(resid @ resid)
    rss_path = [sse]
    floor = 1e-24 * sst

    while len(factor_sets) + 2 <= cfg.max_terms and Q.shape[1] + 2 <= max_cols and sse > floor:
        scores = {}
        for pi, pf in enumerate(parent_factors):
            if len(pf) >= cfg.max_degree:
                continue
            used = {f.var for f in pf}
            for v in range(p):
                if v in used:
                    continue
                key = (pi, v)
                if key not in cand_cache:
                    cand_cache[key] = _parent_candidates(
                        np.sort(X[parent_cols[pi] > 0, v]), cfg, p)
                kn = cand_cache[key]
                if kn.size:
                    scores[key] = (kn, *dense_reductions(parent_cols[pi], X[:, v], kn, Q, resid))
        if on_step is not None:
            on_step(resid, sse, scores)
        best = select(scores)
        if best is None or best[0] <= 1e-13 * sst:
            break
        _, pi, v, knot, mode = best
        pcol = parent_cols[pi]
        xv = X[:, v]
        additions = []
        if mode in ("both", "plus"):
            additions.append((1, pcol * np.maximum(xv - knot, 0.0)))
        if mode in ("both", "minus"):
            additions.append((-1, pcol * np.maximum(knot - xv, 0.0)))
        added = False
        for sign, col in additions:
            r = col - Q @ (Q.T @ col)
            r = r - Q @ (Q.T @ r)
            nrm2 = float(r @ r)
            if nrm2 <= 1e-20 * max(float(col @ col), 1e-300):
                continue
            qnew = r / np.sqrt(nrm2)
            Q = np.hstack([Q, qnew[:, None]])
            resid = resid - qnew * (qnew @ resid)
            fs = parent_factors[pi] + (HingeFactor(var=v, sign=sign, knot=knot),)
            factor_sets.append(fs)
            parent_cols.append(col)
            parent_factors.append(fs)
            if mirror is not None:
                mirror.add_column(qnew)
                mirror.add_parent(col, fs)
            added = True
        if not added:
            break
        sse = float(resid @ resid)
        rss_path.append(sse)
    return factor_sets, rss_path


def select(scores):
    """The fitter's rule: the largest reduction, with reductions within
    _TIE_RTOL of it tied and ties going to the first (parent, var, mode,
    knot); written as a plain scan over every candidate."""
    top = max((float(r.max()) for kn, *reds in scores.values() for r in reds), default=0.0)
    if not top > 0:
        return None
    cut = top * (1.0 - _TIE_RTOL)
    for (pi, v), (kn, *reds) in sorted(scores.items()):
        for mode, red in zip(MODES, reds):
            hits = np.flatnonzero(red >= cut)
            if hits.size:
                k = int(hits[0])
                return float(red[k]), pi, v, float(kn[k]), mode
    raise AssertionError("unreachable: the top candidate clears the cut")


def _lstsq_fit(B: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least squares by LAPACK gelsd on the whole design block B."""
    coef, _, _, _ = np.linalg.lstsq(B, y, rcond=None)
    r = y - B @ coef
    return coef, float(r @ r)


def dense_backward(X, y, factor_sets, cfg: FitConfig):
    """Deletion path with one solve per candidate subset; returns
    (kept column indices, coefficients with the intercept first, gcv path)."""
    n = X.shape[0]
    penalty = cfg.effective_penalty()
    B = _design_from_factor_sets(X, factor_sets)
    yty = float(y @ y)
    G = B.T @ B
    g = B.T @ y

    def subset_coef(idx):
        Gs, gs = G[np.ix_(idx, idx)], g[idx]
        try:
            return np.linalg.solve(Gs, gs)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(Gs, gs, rcond=None)[0]

    def gram_sse(idx):
        return max(yty - float(g[idx] @ subset_coef(idx)), 0.0)

    def resid_sse(idx):
        r = y - B[:, idx] @ subset_coef(idx)
        return float(r @ r)

    # candidates are ranked by their Gram-form SSE; the path SSE of the
    # subset kept at each step comes from its residual
    active = list(range(B.shape[1]))
    best_active = list(active)
    best_gcv = _gcv(resid_sse(np.asarray(active)), n, len(active), len(active) - 1, penalty)
    path = [best_gcv]
    while len(active) > 1:
        trials = [(gram_sse(np.asarray([k for k in active if k != j])), j) for j in active[1:]]
        _, drop = min(trials)
        active.remove(drop)
        gcv_here = _gcv(resid_sse(np.asarray(active)), n, len(active), len(active) - 1, penalty)
        path.append(gcv_here)
        if gcv_here <= best_gcv:
            best_gcv = gcv_here
            best_active = list(active)
    coef, _ = _lstsq_fit(B[:, np.asarray(best_active)], y)
    return best_active, coef, path


def loop_gradient(m, X):
    """Gradient of surrogate m at the rows of X, shape (n, p), one strided
    column pass per factor with every product formed in full."""
    X = _as_batch(X, m.p)
    n = X.shape[0]
    G = np.zeros((n, m.p))
    for term in m.terms:
        factors = term.factors
        vals = [np.maximum(f.sign * (X[:, f.var] - f.knot), 0.0) for f in factors]
        for a, f in enumerate(factors):
            xv = X[:, f.var]
            active = (xv >= f.knot) if f.sign > 0 else (xv < f.knot)
            deriv = np.where(active, float(f.sign), 0.0)
            others = np.ones(n)
            for b, val in enumerate(vals):
                if b != a:
                    others = others * val
            G[:, f.var] += term.coef * deriv * others
    return G
