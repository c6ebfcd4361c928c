"""Dense reference assembly of the closed-form matrices (not collected).

Every entry (i, j) of C_kl multiplies full M_k x M_l grids: the
coefficient products, the derivative-side tables of x_i and x_j (I3 on
the diagonal) and the I2 tables of every other variable, in variable
order, and sums the whole grid with math.fsum. expected_gradient is the
per-factor I4/I5 loop. Both share only the prior's moments() with the
package code, so the tests can hold the sparse kernel to them.
"""

from __future__ import annotations

import math

import numpy as np


def _factor_grids(m, i):
    M = len(m.terms)
    u = np.zeros(M, dtype=bool)
    s = np.ones(M)
    tb = np.full(M, -np.inf)
    tv = np.zeros(M)
    for mi, term in enumerate(m.terms):
        for f in term.factors:
            if f.var == i:
                u[mi] = True
                s[mi] = float(f.sign)
                tb[mi] = f.knot
                tv[mi] = f.knot
    return u, s, tb, tv


def _bounds_grids(sk, tk, sl, tl):
    SK, TK, SL, TL = sk[:, None], tk[:, None], sl[None, :], tl[None, :]
    kp = SK > 0
    lp = SL > 0
    a = np.where(kp & lp, np.maximum(TK, TL), np.where(kp, TK, np.where(lp, TL, -np.inf)))
    b_star = np.where(kp & lp, np.inf, np.where(kp, TL, np.where(lp, TK, np.minimum(TK, TL))))
    return a, np.maximum(b_star, a)


def itables(mk, ml, prior, i):
    """(I1_kl, I1_lk, I2, I3) of variable i, each (M_k, M_l)."""
    uk, sk, tkb, tkv = _factor_grids(mk, i)
    ul, sl, tlb, tlv = _factor_grids(ml, i)
    a, b = _bounds_grids(sk, tkb, sl, tlb)
    dim = prior.dims[i]
    xi0, xi1, xi2 = dim.moments(a, b)
    UK, UL = uk[:, None], ul[None, :]
    SS = sk[:, None] * sl[None, :]
    TK, TL = tkv[:, None], tlv[None, :]
    both = UK & UL
    only_k = UK & ~UL
    only_l = ~UK & UL
    i2 = SS * np.where(
        both,
        xi2 - (TK + TL) * xi1 + TK * TL * xi0,
        np.where(only_k, xi1 - TK * xi0, np.where(only_l, xi1 - TL * xi0, 1.0)),
    )
    i3 = np.where(both, SS * xi0, 0.0)
    i1_kl = np.where(both, SS * (xi1 - TL * xi0), np.where(only_k, SS * xi0, 0.0))
    i1_lk = np.where(both, SS * (xi1 - TK * xi0), np.where(only_l, SS * xi0, 0.0))
    return i1_kl, i1_lk, i2, i3


def dense_cmat(mk, ml, prior) -> np.ndarray:
    p = mk.p
    entries = np.zeros((p, p))
    if not mk.terms or not ml.terms:
        return entries
    ck = np.array([t.coef for t in mk.terms])
    cl = np.array([t.coef for t in ml.terms])
    GG = ck[:, None] * cl[None, :]
    tables = [itables(mk, ml, prior, i) for i in range(p)]
    for i in range(p):
        for j in range(p):
            if i == j:
                grid = GG * tables[i][3]
            else:
                grid = GG * tables[i][0] * tables[j][1]
            for q in range(p):
                if q != i and q != j:
                    grid = grid * tables[q][2]
            entries[i, j] = math.fsum(grid.ravel().tolist())
    return entries


def loop_expected_gradient(m, prior) -> np.ndarray:
    """Z_i = sum_m coef_m * I4_i[m] * prod_{j != i} I5_j[m]."""
    M = len(m.terms)
    Z = np.zeros(m.p)
    if M == 0:
        return Z
    coefs = np.array([t.coef for t in m.terms])
    I4 = np.zeros((m.p, M))
    I5 = np.ones((m.p, M))
    for i in range(m.p):
        u, s, tb, tv = _factor_grids(m, i)
        a = np.where(u & (s > 0), tb, -np.inf)
        b = np.where(u & (s < 0), tb, np.inf)
        dim = prior.dims[i]
        xi0, xi1, _ = dim.moments(a, b)
        I4[i] = np.where(u, s * xi0, 0.0)
        I5[i] = np.where(u, s * (xi1 - tv * xi0), 1.0)
    for i in range(m.p):
        prod = np.ones(M)
        for j in range(m.p):
            if j != i:
                prod = prod * I5[j]
        Z[i] = float(np.sum(coefs * I4[i] * prod))
    return Z
