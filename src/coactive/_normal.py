"""The standard normal CDF ndtr and its inverse ndtri, in NumPy.

Both are the Cephes forms (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989), whose erf/erfc rational functions are
W. J. Cody's ("Rational Chebyshev approximations for the error function",
*Math. Comp.* 23, 1969). ndtr evaluates each branch on its own subset;
ndtri evaluates its centre over the whole array and redoes only the tails.
closedform imports this module from the first NormalDim only.
"""

from __future__ import annotations

import numpy as np

_MAXLOG = 7.09782712893383996843e2  # log of the largest double
_SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXPM2 = 0.13533528323661269189  # exp(-2)

# erf(x) = x T(x^2) / U(x^2) for |x| < 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, and R(x) / S(x) beyond
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)

# ndtri, centre |y - 1/2| <= 1/2 - exp(-2): x = s2pi (y + y y^2 P0(y^2) / Q0(y^2))
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# tails in z = sqrt(-2 log y): P1/Q1 for 2 <= z < 8, P2/Q2 for z >= 8
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef, monic=False):
    """Horner's rule, highest power first; monic prepends a leading 1."""
    out = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _ratio(w, x, num, den):
    """w num(x) / den(x), den monic, in Cephes' order of operations."""
    out = _polevl(x, num)
    out *= w
    out /= _polevl(x, den, monic=True)
    return out


def _erf(x):
    """erf(x) for |x| < 1."""
    return _ratio(x, x * x, _T, _U)


def _erfc(z):
    """erfc(z) for z >= 1 (or nan), 0 where exp(-z^2) underflows."""
    out = np.zeros_like(z)
    with np.errstate(over="ignore"):
        zz = z * z
    live = np.flatnonzero(~(zz > _MAXLOG))
    z = z.take(live)
    ez = np.exp(-zz.take(live))
    out[live] = _ratio(ez, z, _P, _Q)
    far = np.flatnonzero(z >= 8.0)
    if far.size:
        out[live[far]] = _ratio(ez.take(far), z.take(far), _R, _S)
    return out


def ndtr(x):
    """Standard normal CDF, elementwise; a scalar for a scalar."""
    x = np.asarray(x, dtype=float)
    xs = x.ravel() * _SQRTH
    z = np.abs(xs)
    out = np.empty_like(xs)
    small = z < 1.0
    i = np.flatnonzero(small)
    if i.size:
        e = _erf(xs.take(i))
        out[i] = np.where(z.take(i) < _SQRTH, 0.5 + 0.5 * e, 0.5 * (1.0 - np.abs(e)))
    i = np.flatnonzero(~small)
    if i.size:
        out[i] = 0.5 * _erfc(z.take(i))
    # from |x| >= 1 on, out holds the lower tail erfc(|x| / sqrt 2) / 2
    np.subtract(1.0, out, out=out, where=(xs > 0) & ~(z < _SQRTH))
    return out.reshape(x.shape)[()]


def ndtri(y):
    """Inverse of ndtr, elementwise: -inf at 0, +inf at 1, nan outside [0, 1]."""
    y = np.asarray(y, dtype=float)
    y0 = y.ravel()
    # the centre over the whole array, in place
    c = y0 - 0.5
    c2 = c * c
    out = _ratio(c2, c2, _P0, _Q0)
    out *= c
    out += c
    out *= _S2PI
    # the tails, q = min(y, 1 - y) <= exp(-2), recomputed on their subset
    tail = np.flatnonzero((y0 <= _EXPM2) | (y0 > 1.0 - _EXPM2))
    if tail.size:
        yt = y0.take(tail)
        up = yt > 1.0 - _EXPM2
        q = np.where(up, 1.0 - yt, yt)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.sqrt(-2.0 * np.log(q))
            r = 1.0 / x
            x1 = _ratio(r, r, _P1, _Q1)
            far = np.flatnonzero(x >= 8.0)
            if far.size:
                rf = r.take(far)
                x1[far] = _ratio(rf, rf, _P2, _Q2)
            t = x - np.log(x) / x - x1
        t[q == 0.0] = np.inf
        out[tail] = np.where(up, t, -t)  # nan where q < 0, outside [0, 1]
    return out.reshape(y.shape)[()]
