"""Self-check suites runnable from the command line.

Each suite returns CheckResult records; a check compares a measured
value against a frozen reference at a fixed tolerance. The poly suite
pins the formula-exact concordance values; one published value that the
defining formula cannot reproduce is recorded as an erratum in check_poly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import concordance
from .closedform import InputPrior, cmat
from .cluster import discordance_matrix, pairwise_concordance
from .model import Ensemble, FitConfig, fit
from .montecarlo import lhs_design, mc_cmat, piston

__all__ = [
    "CheckResult",
    "poly_cmat_exact",
    "poly_kappa_exact",
    "check_poly",
    "check_piston",
    "check_metric",
    "random_surrogate_corpus",
    "run_suite",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    target: float
    tol: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": float(self.measured),
            "target": float(self.target),
            "tol": float(self.tol),
            "detail": self.detail,
        }


def poly_cmat_exact(beta_k: float, beta_l: float) -> np.ndarray:
    """Exact C_kl for the polynomial pair family

        f_b(x) = x1^2 + x1 x2 + b x2^3   on Uniform(0,1)^2,

    derived by integrating the gradient products termwise:
    C[0,0] = E[(2x1+x2)^2] = 8/3,
    C[0,1] = E[(2x1+x2)(x1+3 b_l x2^2)] = 11/12 + 7 b_l/4,
    C[1,0] = E[x1 (2x1+x2)] ... = 11/12 + 7 b_k/4 transposed role,
    C[1,1] = E[(x1+3 b_k x2^2)(x1+3 b_l x2^2)]
           = 1/3 + (b_k+b_l)/2 + 9 b_k b_l/5.
    """
    return np.array(
        [
            [8.0 / 3.0, 11.0 / 12.0 + 1.75 * beta_l],
            [11.0 / 12.0 + 1.75 * beta_k, 1.0 / 3.0 + 0.5 * (beta_k + beta_l) + 1.8 * beta_k * beta_l],
        ]
    )


def poly_kappa_exact(beta: float) -> float:
    """Concordance between f_0 (beta=0) and f_beta from the exact traces."""
    t1 = float(np.trace(poly_cmat_exact(0.0, 0.0)))
    t2 = float(np.trace(poly_cmat_exact(beta, beta)))
    t12 = float(np.trace(poly_cmat_exact(0.0, beta)))
    return concordance(t12, t1, t2)


def check_poly() -> list[CheckResult]:
    """Concordance of the polynomial pair at three beta values against
    formula-exact references.

    The exact values are 13 sqrt(1185)/474 = 0.94411 (beta=1/2),
    3 sqrt(185)/74 = 0.55141 (beta=3) and -sqrt(2085)/417 = -0.10950
    (beta=-12); the first two reproduce the published 0.944 and 0.551.

    Erratum: the published beta=-12 value, -0.131, does not follow from
    the defining formula; it is the concordance at beta=-15
    (-3 sqrt(131)/262 = -0.13106). The beta=-12 target is -0.1095, to
    four decimals, because the three-decimal -0.110 would sit 7e-7
    inside the 5e-4 tolerance.
    """
    cases = [(0.5, 0.944), (3.0, 0.551), (-12.0, -0.1095)]
    out = []
    for beta, target in cases:
        kappa = poly_kappa_exact(beta)
        out.append(
            CheckResult(
                name=f"poly-kappa-beta={beta:g}",
                passed=abs(kappa - target) < 5e-4,
                measured=kappa,
                target=target,
                tol=5e-4,
                detail="|measured - target| < 5e-4; concordance from formula-exact matrices",
            )
        )
    return out


def check_piston(B: int = 100_000, n_fit: int = 1000, seed: int = 20260813) -> list[CheckResult]:
    """Cross-validation of the two estimation routes on the piston pair.

    MC with finite-difference gradients on the raw functions versus the
    closed-form matrix of surrogates fitted to n_fit maximin-LHS samples;
    agreement within 5% relative Frobenius. Both surrogates are fitted on
    one shared design with a generous term budget; the gap is dominated
    by surrogate gradient bias (the MC standard error is ~0.4% here).
    A design of fewer than 2 samples is refused before the MC runs.
    """
    if n_fit < 2:
        raise ValueError(f"the piston check needs at least 2 fit samples (--n), got {n_fit}")
    fa = piston(90000.0, 284.0)
    fb = piston(110000.0, 302.0)
    prior = InputPrior.uniform_box(fa.domain)
    mc = mc_cmat(fa, fb, prior, B=B, seed=seed)
    cfg = FitConfig(max_terms=120, max_degree=4, max_knots=128, domain=fa.domain)
    X = lhs_design(n_fit, fa.p, fa.domain, seed=seed + 1)
    ma = fit(X, fa(X), cfg)
    mb = fit(X, fb(X), cfg)
    cf = cmat(ma, mb, prior)
    num = float(np.linalg.norm(cf.entries - mc.matrix.entries))
    den = float(np.linalg.norm(mc.matrix.entries))
    rel = num / den
    return [
        CheckResult(
            name="piston-mc-vs-closedform",
            passed=rel <= 0.05,
            measured=rel,
            target=0.0,
            tol=0.05,
            detail=f"relative Frobenius distance, B={B}, n_fit={n_fit}",
        )
    ]


def random_surrogate_corpus(n_models: int, seed: int = 0) -> list:
    """Surrogates of at most 15 terms fitted to random cubic polynomials,
    each on one shared 150-point LHS of the unit box.

    All models share p (2 or 3, drawn once) and the unit-box domain, so
    every pair is comparable under one prior.
    """
    rng = np.random.default_rng(seed)
    p = int(rng.choice((2, 3)))
    domain = tuple((0.0, 1.0) for _ in range(p))
    X = lhs_design(150, p, domain, seed=seed)
    models = []
    for m in range(n_models):
        # random polynomial: linear + quadratic + a few cubic interactions
        lin = rng.normal(size=p)
        quad = rng.normal(size=(p, p))
        cubic = rng.normal(size=p)
        y = X @ lin + np.einsum("ni,ij,nj->n", X, quad, X) + (X**3) @ cubic
        cfg = FitConfig(max_terms=15, domain=domain, label=f"rand-{m:03d}")
        models.append(fit(X, y, cfg))
    return models


def check_metric(n_models: int = 12, seed: int = 7) -> list[CheckResult]:
    """Pseudo-metric properties of the discordance over a random fitted
    corpus: non-negativity, zero self-distance, symmetry, and every
    triangle inequality. A triangle needs three models, so fewer are
    refused."""
    if n_models < 3:
        raise ValueError(f"the metric check needs at least 3 models, got {n_models}")
    models = random_surrogate_corpus(n_models, seed=seed)
    prior = InputPrior.uniform_box(models[0].domain)
    ens = [Ensemble(members=(m,), label=m.label) for m in models]
    grid = pairwise_concordance(ens, prior)
    D = discordance_matrix(grid.kappa)
    n = D.shape[0]

    sym = float(np.abs(D - D.T).max())
    selfd = float(np.abs(np.diag(D)).max())
    neg = float(D.min())
    # slack[a, b, c] = D[a, b] + D[b, c] - D[a, c], over distinct a, b, c
    a, b, c = np.ogrid[:n, :n, :n]
    slack = D[:, :, None] + D[None, :, :] - D[:, None, :]
    worst_slack = float(slack[(a != b) & (b != c) & (a != c)].min())
    return [
        CheckResult("metric-nonnegative", neg >= 0.0, neg, 0.0, 0.0, "min entry"),
        CheckResult("metric-symmetry", sym <= 1e-10, sym, 0.0, 1e-10, "max |D - D^T|"),
        CheckResult("metric-zero-self", selfd <= 1e-10, selfd, 0.0, 1e-10, "max |diag|"),
        CheckResult(
            "metric-triangle",
            worst_slack >= -1e-9,
            worst_slack,
            0.0,
            1e-9,
            f"min triangle slack over all ordered triples, {n} models",
        ),
    ]


def run_suite(name: str, **kwargs) -> list[CheckResult]:
    suites = {"poly": check_poly, "piston": check_piston, "metric": check_metric}
    if name not in suites:
        raise ValueError(f"unknown fixture {name!r}; expected one of {sorted(suites)}")
    return suites[name](**kwargs)
