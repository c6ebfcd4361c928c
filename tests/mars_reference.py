"""Test-only references: the dense fitter, the full-width knot scan and the
per-column gradient loop.

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

FullWidthScan is the knot scan with one row of all n sorted samples per
slot, each new parent registered right after its own column and u, w
summed afresh from the residual: the support-compacted ``_KnotScan`` must
keep the same sums bitwise, and running u, w close to fresh ones.

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

    mirror, if given, receives add_term(q, q.resid, col, factors) for each
    column and term the fit adds, and update(resid) ahead of every step, as
    the fitter's scan does. on_step(resid, sse, scores) then sees every
    step's scores {(parent, var): (knots, red2, red_p, red_m)}.
    """
    n, p = X.shape
    max_cols = min(cfg.max_terms + 1, max(3, int(0.9 * n)))
    q0 = np.full(n, 1.0 / np.sqrt(n))
    Q = q0[:, None]
    parent_cols = [np.ones(n)]
    parent_factors: list[tuple[HingeFactor, ...]] = [()]
    factor_sets: list[tuple[HingeFactor, ...]] = []
    cand_cache: dict[tuple[int, int], np.ndarray] = {}
    beta = q0 @ y
    resid = y - q0 * beta
    if mirror is not None:
        mirror.add_term(q0, beta, parent_cols[0], ())
    sse = float(resid @ resid)
    rss_path = [sse]
    floor = 1e-24 * sst

    while len(factor_sets) + 2 <= cfg.max_terms and Q.shape[1] + 2 <= max_cols and sse > floor:
        if mirror is not None:
            mirror.update(resid)
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
            beta = qnew @ resid
            resid = resid - qnew * beta
            fs = parent_factors[pi] + (HingeFactor(var=v, sign=sign, knot=knot),)
            factor_sets.append(fs)
            parent_cols.append(col)
            parent_factors.append(fs)
            if mirror is not None:
                mirror.add_term(qnew, beta, col, fs)
            added = True
        if not added:
            break
        sse = float(resid @ resid)
        rss_path.append(sse)
    return factor_sets, rss_path


def full_width_hinge_sums(W, G, xc, loc, tc, ip, im):
    """Inner products of the columns of W with both candidate hinges.

    Slot s holds a parent column G[s] (n) and the columns W[s] (n x k),
    both in the row order of its sorted centred inputs xc[s]. Candidate i
    is slot loc[i] with centred knot tc[i]; ip[i] and im[i] count the
    sorted x <= t and x < t. Returns (plus, minus), each (L x k).
    """
    WG = G[:, :, None] * W
    c0 = np.zeros((WG.shape[0], WG.shape[1] + 1, WG.shape[2]))
    c1 = np.zeros_like(c0)
    np.cumsum(WG, axis=1, out=c0[:, 1:])
    np.cumsum(WG * xc[:, :, None], axis=1, out=c1[:, 1:])
    t = tc[:, None]
    plus = (c1[loc, -1] - c1[loc, ip]) - t * (c0[loc, -1] - c0[loc, ip])
    minus = t * c0[loc, im] - c1[loc, im]
    return plus, minus


class FullWidthScan:
    """The running sums of the knot scan, one row of all n sorted samples
    per (parent, variable) slot.

    add_column folds a basis column into every candidate's sums and
    add_parent registers a term on each variable it leaves free, projected
    on the basis so far. add_term and update take the fitter's calls and
    replay them in that order, each parent right after its own column;
    residual_sums gives u = resid.C+ and w = resid.C- afresh.
    """

    def __init__(self, X: np.ndarray, cfg: FitConfig, capacity: int):
        n, p = X.shape
        self.p = p
        self.cfg = cfg
        self.Q = np.empty((n, capacity))
        self.m = 0
        self.staged = []
        self.resid = None
        self.parent_cols: list[np.ndarray] = []
        self.parent_factors: list[tuple[HingeFactor, ...]] = []
        self.order = np.argsort(X, axis=0, kind="stable").T  # (p, n)
        self.xs = np.take_along_axis(X, self.order.T, axis=0).T
        self.center = np.median(X, axis=0)
        self.xc = self.xs - self.center[:, None]
        self.G = np.empty((p * capacity, n))
        self.par = self.var = self.loc = self.ip = self.im = np.empty(0, dtype=np.intp)
        self.knot = self.tc = self.raw_p = self.raw_m = np.empty(0)
        self.spp = self.smm = self.spm = np.empty(0)

    @property
    def basis(self) -> np.ndarray:
        return self.Q[:, : self.m]

    def add_term(self, q, beta, col, factors) -> None:
        self.staged.append((q, col, factors))

    def update(self, resid) -> None:
        for q, col, factors in self.staged:
            self.add_column(q)
            self.add_parent(col, factors)
        self.staged, self.resid = [], resid

    def residual_sums(self):
        return self._sums(self.resid)

    def add_parent(self, pcol: np.ndarray, factors: tuple[HingeFactor, ...]) -> None:
        pi = len(self.parent_factors)
        self.parent_cols.append(pcol)
        self.parent_factors.append(factors)
        if len(factors) >= self.cfg.max_degree:
            return
        p = self.p
        used = {f.var for f in factors}
        gs = pcol[self.order]  # the parent column in each variable's sorted order
        cands = {v: _parent_candidates(self.xs[v][gs[v] > 0], self.cfg, p)
                 for v in range(p) if v not in used}
        vs = np.array([v for v, kn in cands.items() if kn.size], dtype=np.intp)
        if not vs.size:
            return
        knots, s0 = [cands[v] for v in vs], self.par.size
        g, xc, xs = gs[vs], self.xc[vs], self.xs[vs]
        loc = np.repeat(np.arange(vs.size), [kn.size for kn in knots])
        knot = np.concatenate(knots)
        tc = knot - self.center[vs][loc]
        ip = np.concatenate([np.searchsorted(x, kn, side="right") for x, kn in zip(xs, knots)])
        im = np.concatenate([np.searchsorted(x, kn, side="left") for x, kn in zip(xs, knots)])
        self.G[s0 : s0 + vs.size] = g
        # raw norms: sum of g^2 (x - t)^2 over the suffix / prefix
        g2 = g * g
        S = np.zeros((vs.size, g.shape[1] + 1, 3))
        np.cumsum(np.stack([g2, g2 * xc, g2 * xc**2], axis=-1), axis=1, out=S[:, 1:])
        suf, pre = S[loc, -1] - S[loc, ip], S[loc, im]
        raw_p = suf[:, 2] - 2.0 * tc * suf[:, 1] + tc * tc * suf[:, 0]
        raw_m = pre[:, 2] - 2.0 * tc * pre[:, 1] + tc * tc * pre[:, 0]
        plus, minus = full_width_hinge_sums(self.basis[self.order[vs]], g, xc, loc, tc, ip, im)
        cat = np.concatenate
        self.par, self.var = cat([self.par, np.full(vs.size, pi)]), cat([self.var, vs])
        self.loc, self.ip, self.im = cat([self.loc, loc + s0]), cat([self.ip, ip]), cat([self.im, im])
        self.knot, self.tc = cat([self.knot, knot]), cat([self.tc, tc])
        self.raw_p = cat([self.raw_p, np.maximum(raw_p, 0.0)])
        self.raw_m = cat([self.raw_m, np.maximum(raw_m, 0.0)])
        self.spp = cat([self.spp, np.einsum("ij,ij->i", plus, plus)])
        self.smm = cat([self.smm, np.einsum("ij,ij->i", minus, minus)])
        self.spm = cat([self.spm, np.einsum("ij,ij->i", plus, minus)])

    def _sums(self, w: np.ndarray):
        """w.C+ and w.C- of every candidate, for a w in original row order."""
        ws, G = w[self.order[self.var]][:, :, None], self.G[: self.par.size]
        plus, minus = full_width_hinge_sums(ws, G, self.xc[self.var], self.loc, self.tc, self.ip, self.im)
        return plus[:, 0], minus[:, 0]

    def add_column(self, q: np.ndarray) -> None:
        self.Q[:, self.m] = q
        self.m += 1
        if not self.par.size:
            return
        plus, minus = self._sums(q)
        self.spp = self.spp + plus**2
        self.smm = self.smm + minus**2
        self.spm = self.spm + plus * minus


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
    """Deletion path with one solve per candidate subset, LU where Cholesky
    accepts the Gram block and lstsq where it does not; returns (kept
    column indices, coefficients with the intercept first, gcv path)."""
    n = X.shape[0]
    penalty = cfg.effective_penalty()
    B = _design_from_factor_sets(X, factor_sets)
    yty = float(y @ y)
    G = B.T @ B
    g = B.T @ y

    def subset_coef(idx):
        # a block that Cholesky rejects, exactly or numerically singular,
        # goes to lstsq, where the fitter's sweep leaves an aliased column
        # out at 0; LU would solve a numerically singular one into huge
        # coefficients
        Gs, gs = G[np.ix_(idx, idx)], g[idx]
        try:
            np.linalg.cholesky(Gs)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(Gs, gs, rcond=None)[0]
        return np.linalg.solve(Gs, gs)

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
