"""Command-line front end.

Subcommands: fit, cmat, mc, analyze, cluster, bound, verify. Every
output artifact embeds {tool version, seed, config hash}; nothing is
timestamped, so reruns with identical flags are bitwise-identical.
Existing outputs are never overwritten without --force.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import activity_scores, decompose, poincare_bound, select_dim, symmetrize
from .closedform import (
    InputPrior,
    cmat,
    cmat_modified,
    load_matrix,
    load_prior,
    save_matrix,
    write_matrix_csv,
)
from .cluster import discordance_matrix, mds_embed, model_centers, pairwise_concordance
from .model import (
    Ensemble,
    FitConfig,
    _write_json,
    _write_meta_csv,
    cross_validated_rmspe,
    fit_ensemble_with_report,
    fit_with_report,
    load_ensemble,
    load_model,
    load_training_csv,
    save_ensemble,
    save_model,
)
from .montecarlo import SampledFunction, builtin_functions, mc_cmat
from .verify import run_suite


def _config_hash(args: argparse.Namespace) -> str:
    # output destinations are left out, so one run written to two places
    # carries one hash; input paths stay in
    skip = {"func", "force", "out", "out_dir", "ratios"}
    cfg = {k: str(v) for k, v in sorted(vars(args).items()) if k not in skip}
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _meta(args: argparse.Namespace, seed=None) -> dict:
    return {"version": __version__, "seed": seed, "config": _config_hash(args)}


def _guard(args: argparse.Namespace, paths, directory=None) -> None:
    """Before any work: refuse a file for the output directory, a directory
    for an output file, and an existing file without --force. Paths are
    names in directory when one is given."""
    if directory is not None:
        if os.path.exists(directory) and not os.path.isdir(directory):
            writer = "--ensemble" if args.cmd == "fit" else args.cmd
            raise NotADirectoryError(f"{directory} is a file; {writer} writes a directory")
        paths = [os.path.join(directory, p) for p in paths]
    for p in paths:
        if p is None:
            continue
        if os.path.isdir(p):
            raise IsADirectoryError(f"{p} is a directory; {args.cmd} writes a file")
        if os.path.exists(p) and not args.force:
            raise FileExistsError(f"{p} exists; pass --force to overwrite")


def _write_all(bundle: dict, directory=None) -> None:
    """Write a computed bundle, {path: call that writes a file there}, in
    order. Paths are names in directory when one is given; it is made here,
    after all the work, so a run that fails leaves no directory behind."""
    if directory is not None:
        os.makedirs(directory, exist_ok=True)
    for path, write in bundle.items():
        write(path if directory is None else os.path.join(directory, path))


def _domain_from_prior(prior: InputPrior):
    dom = []
    for d in prior.dims:
        lo, hi = d.support()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            return None
        dom.append((float(lo), float(hi)))
    return tuple(dom)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _fit_summary(fr) -> dict:
    """The size and training error of one fit, as both fit reports write them."""
    return {"n": fr.n, "n_terms": fr.n_terms, "rmse": fr.rmse, "r2": fr.r2}


def _fit_paths(fr) -> dict:
    """The forward RSS and backward GCV paths of one fit, as reports write them."""
    return {
        "forward_rss": list(fr.forward_rss),
        # null where the GCV denominator is not positive (too many terms for n)
        "backward_gcv": [g if math.isfinite(g) else None for g in fr.backward_gcv],
    }


def cmd_fit(args) -> int:
    if args.ensemble:
        if os.path.isdir(args.out) and os.listdir(args.out) and not args.force:
            raise FileExistsError(f"{args.out} is non-empty; pass --force to overwrite")
        _guard(args, ["report.json"], args.out)
        report_path = os.path.join(args.out, "report.json")
    else:
        report_path = os.path.splitext(args.out)[0] + ".report.json"
        _guard(args, [args.out, report_path])
    X, y, names, response = load_training_csv(args.data, response=args.response)
    domain = None
    if args.prior:
        domain = _domain_from_prior(load_prior(args.prior))
    cfg = FitConfig(
        max_terms=args.max_terms,
        max_degree=args.max_degree,
        max_knots=args.max_knots,
        penalty=args.penalty,
        domain=domain,
        label=args.label or os.path.splitext(os.path.basename(os.path.normpath(args.out)))[0],
    )
    meta = _meta(args, seed=args.seed)
    # the CV refits on its own folds, so a refused k stops the run before the main fit
    cv = {"cv_rmspe": cross_validated_rmspe(X, y, cfg, k=args.cv)} if args.cv else {}

    t0 = time.perf_counter()
    if args.ensemble:
        ens, reports = fit_ensemble_with_report(X, y, cfg, B=args.ensemble, seed=args.seed)
        print(f"fit: {len(ens)} members, {time.perf_counter() - t0:.2f}s", file=sys.stderr)
        # member 0 is the full-data fit, so these are the numbers `fit` reports
        report = {
            **_fit_summary(reports[0]),
            "members": len(ens),
            "member_paths": [_fit_paths(fr) for fr in reports],
        }
        save = lambda path: save_ensemble(ens, path, meta=meta)
    else:
        model, fr = fit_with_report(X, y, cfg)
        steps = max(len(fr.forward_rss) - 1, 0)  # the path starts at the intercept-only fit
        print(
            f"fit: {fr.n_terms} terms, {steps} forward steps, {time.perf_counter() - t0:.2f}s",
            file=sys.stderr,
        )
        report = {**_fit_summary(fr), "gcv": fr.gcv, "constant": fr.constant, **_fit_paths(fr)}
        save = lambda path: save_model(model, path, meta=meta)
    report.update(response=response, inputs=names, **cv)
    _write_all({args.out: save, report_path: lambda path: _write_json(path, report, meta)})
    print(f"fit: {report['n_terms']} terms, rmse={report['rmse']:.6g} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# cmat + analyze
# ---------------------------------------------------------------------------


def _resolve_q(args, dec):
    """q from --q / --q auto (needs --tau); also the r diagnostic."""
    r_selected = None
    if args.tau is not None:
        r_selected = select_dim(dec.eigvals, args.tau).r
    if args.q == "auto":
        if args.tau is None:
            raise ValueError("--q auto requires --tau")
        q = max(1, r_selected)
    else:
        q = int(args.q)
    return q, r_selected


def _analyze(C, Ck, Cl, args):
    """Decomposition of the symmetrized cross matrix C against the self
    traces of Ck and Cl, the self matrices of C's row and column models,
    with q resolved from args; returns (dec, q, report)."""
    for flag, M, want in (("--self-k", Ck, C.labels[0]), ("--self-l", Cl, C.labels[1])):
        if M.p != C.p:
            raise ValueError(f"{flag} matrix has p={M.p}, the cross matrix p={C.p}")
        if want and any(lab and lab != want for lab in M.labels):
            raise ValueError(f"{flag} matrix is labelled {list(M.labels)}, not {want!r}")
    dec = decompose(symmetrize(C), Ck.trace, Cl.trace)
    q, r_selected = _resolve_q(args, dec)
    signed, unsigned = activity_scores(dec, q)
    report = {
        **dec.to_dict(),
        "pair": list(C.labels),
        "signed_scores": [float(v) for v in signed],
        "unsigned_scores": [float(v) for v in unsigned],
        "q": q,
        "r_selected": r_selected,
    }
    return dec, q, report


def _ratios_csv(Ck, Cl, dec, q, meta):
    """The writer of the per-input relative activity of each model to the
    joint co-activity (unsigned scores throughout); decomposes the two self
    matrices now, so a refused one stops the run before any write."""
    dec_k, dec_l = (decompose(M.entries, M.trace, M.trace) for M in (Ck, Cl))
    a_k, a_l, a_kl = (activity_scores(d, min(q, d.p))[1] for d in (dec_k, dec_l, dec))
    rows = []
    for i in range(dec.p):
        denom = a_kl[i]
        rk = float(a_k[i] / denom) if denom != 0 else float("nan")
        rl = float(a_l[i] / denom) if denom != 0 else float("nan")
        rows.append((f"x{i + 1}", rk, rl))
    header = ["input", "alpha_k_over_kl", "alpha_l_over_kl"]
    return lambda path: _write_meta_csv(path, rows, meta, header)


def _z_entries(C, C_mc, se):
    """Per-entry (C - C_mc)/se. Where se is 0 the sampled products had no
    spread: z is 0 if the two matrices agree there and None (JSON null) if not."""
    return [
        [float((c - m) / s) if s > 0 else (0.0 if c == m else None) for c, m, s in zip(*rows)]
        for rows in zip(C, C_mc, se)
    ]


def cmd_cmat(args) -> int:
    names = ["c_kl.csv", "c_kl.json", "v_kl.csv", "c_kk.csv", "c_ll.csv",
             "analysis.json", "ratios.csv"]
    if args.modified:
        names.append("c_modified.csv")
    if args.mc:
        names.append("mc.json")
    _guard(args, names, args.out_dir)
    ma = load_model(args.model_a)
    mb = load_model(args.model_b)
    prior = load_prior(args.prior)
    meta = _meta(args, seed=args.seed)

    C = cmat(ma, mb, prior)
    Ck = cmat(ma, ma, prior)
    Cl = cmat(mb, mb, prior)
    dec, q, report = _analyze(C, Ck, Cl, args)
    bundle = {
        "c_kl.csv": lambda path: write_matrix_csv(path, C.entries, meta=meta),
        "c_kl.json": lambda path: save_matrix(C, path, meta=meta),
        "v_kl.csv": lambda path: write_matrix_csv(path, dec.V, meta=meta),
        "c_kk.csv": lambda path: write_matrix_csv(path, Ck.entries, meta=meta),
        "c_ll.csv": lambda path: write_matrix_csv(path, Cl.entries, meta=meta),
        "ratios.csv": _ratios_csv(Ck, Cl, dec, q, meta),
    }

    if args.modified:
        Cm = cmat_modified(ma, mb, prior, base=C)
        bundle["c_modified.csv"] = lambda path: write_matrix_csv(path, Cm.entries, meta=meta)
        report["modified_trace"] = Cm.trace

    if args.mc:
        fa = SampledFunction.from_surrogate(ma)
        fb = SampledFunction.from_surrogate(mb)
        res = mc_cmat(fa, fb, prior, B=args.mc, seed=args.seed)
        mc = res.to_dict()
        mc["z_entries"] = _z_entries(C.entries, res.matrix.entries, res.se)
        bundle["mc.json"] = lambda path: _write_json(path, mc, meta)
        frob = float(np.linalg.norm(C.entries - res.matrix.entries))
        report["mc_frobenius"] = frob
        report["mc_frobenius_rel"] = frob / float(np.linalg.norm(C.entries))

    bundle["analysis.json"] = lambda path: _write_json(path, report, meta)
    _write_all(bundle, args.out_dir)
    print(f"concordance kappa={dec.concordance:.6g} (q={q}) -> {args.out_dir}")
    return 0


def cmd_analyze(args) -> int:
    C = load_matrix(args.matrix)
    Ck = load_matrix(args.self_k)
    Cl = load_matrix(args.self_l)
    meta = _meta(args)
    _guard(args, [args.out, args.ratios])
    dec, q, report = _analyze(C, Ck, Cl, args)
    bundle = {args.out: lambda path: _write_json(path, report, meta)}
    if args.ratios:
        bundle[args.ratios] = _ratios_csv(Ck, Cl, dec, q, meta)
    _write_all(bundle)
    print(f"concordance kappa={dec.concordance:.6g} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def _resolve_functions(args):
    fns = []
    for spec in args.fn or []:
        fns.extend(builtin_functions(spec))
    for path in args.model or []:
        fns.append(SampledFunction.from_surrogate(load_model(path)))
    if not 1 <= len(fns) <= 2:
        raise ValueError(f"need one or two functions, got {len(fns)}")
    if len(fns) == 1:
        fns = [fns[0], fns[0]]
    return fns


def cmd_mc(args) -> int:
    f_k, f_l = _resolve_functions(args)
    if args.prior:
        prior = load_prior(args.prior)
    else:
        prior = InputPrior.uniform_box(f_k.domain)
    meta = _meta(args, seed=args.seed)
    _guard(args, [args.out])
    res = mc_cmat(f_k, f_l, prior, B=args.B, seed=args.seed)
    d = res.to_dict()
    d["labels"] = [f_k.label, f_l.label]
    d["n_onesided"] = res.n_onesided
    _write_json(args.out, d, meta)
    print(f"mc: B={args.B} trace={res.matrix.trace:.6g} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------


def _load_model_set(path) -> Ensemble:
    if os.path.isdir(path):
        return load_ensemble(path)
    m = load_model(path)
    label = m.label or os.path.splitext(os.path.basename(path))[0]
    return Ensemble(members=(m,), label=label)


def cmd_cluster(args) -> int:
    names = ["grid_summary.csv", "grid_samples.csv", "discordance.csv",
             "embedding.csv", "centers.csv", "embedding.json"]
    _guard(args, names, args.out_dir)
    ensembles = [_load_model_set(p) for p in args.models]
    if len(ensembles) < 2:
        raise ValueError("need at least 2 model files or ensemble directories")
    prior = load_prior(args.prior)
    meta = _meta(args, seed=args.seed)

    t0 = time.perf_counter()
    grid = pairwise_concordance(ensembles, prior)
    n = grid.n_members
    n_pairs = n * (n - 1) // 2
    print(f"grid: {n} members, {n_pairs} cross pairs, {time.perf_counter() - t0:.2f}s",
          file=sys.stderr)
    D = discordance_matrix(grid.kappa)
    t0 = time.perf_counter()
    emb = mds_embed(D, dims=args.dims, seed=args.seed)
    print(f"mds: {len(emb.stress_history) - 1} iterations, {time.perf_counter() - t0:.2f}s",
          file=sys.stderr)
    centers = model_centers(emb.points, grid.membership)

    K = len(grid.labels)
    blocks = (grid.summary(k, l) for k in range(K) for l in range(K))
    summary = [(*s.labels, s.mean, s.sd) for s in blocks]
    # a member is named by its index in its own ensemble, excluded ones counted
    first = np.cumsum([0] + [len(e) for e in ensembles])
    member_ids = [
        f"{grid.labels[k]}[{pos - first[k]}]" for k, pos in zip(grid.membership, grid.positions)
    ]
    samples = [
        (member_ids[a], member_ids[b], float(grid.kappa[a, b])) for a in range(n) for b in range(n)
    ]
    coords = ["x", "y"] if args.dims == 2 else [f"x{i + 1}" for i in range(args.dims)]
    points = [
        (grid.labels[grid.membership[i]], grid.positions[i], *[float(v) for v in emb.points[i]])
        for i in range(n)
    ]
    center_rows = [(grid.labels[k], *[float(v) for v in centers[k]]) for k in range(K)]
    embedding = {
        "stress": emb.stress,
        "stress_history": emb.stress_history,
        "n_members": n,
        "n_pairs": n_pairs,
        "n_excluded": grid.n_excluded,
    }
    _write_all(
        {
            "grid_summary.csv": lambda path: _write_meta_csv(
                path, summary, meta, ["model_k", "model_l", "mean", "sd"]),
            "grid_samples.csv": lambda path: _write_meta_csv(
                path, samples, meta, ["member_k", "member_l", "kappa"]),
            "discordance.csv": lambda path: write_matrix_csv(path, D, meta=meta),
            "embedding.csv": lambda path: _write_meta_csv(
                path, points, meta, ["label", "member_index"] + coords),
            "centers.csv": lambda path: _write_meta_csv(
                path, center_rows, meta, ["label"] + [f"c{c}" for c in coords]),
            "embedding.json": lambda path: _write_json(path, embedding, meta),
        },
        args.out_dir,
    )
    print(f"cluster: stress={emb.stress:.6g} -> {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def cmd_bound(args) -> int:
    m = load_model(args.model)
    prior = load_prior(args.prior)
    meta = _meta(args)
    _guard(args, [args.out])
    C = cmat(m, m, prior)
    if args.basis:
        B = np.loadtxt(args.basis, delimiter=",", comments="#", ndmin=2)
        source = args.basis
    else:
        if not 1 <= args.r <= m.p:
            raise ValueError(f"--r must be in [1, {m.p}], got {args.r}")
        dec = decompose(C.entries, C.trace, C.trace)
        B = dec.eigvecs[:, : args.r]
        source = f"leading-{args.r}-eigvecs"
    val = poincare_bound(C, prior.covariance(), B)
    report = {"bound": val, "r": int(B.shape[1]), "basis_source": source}
    _write_json(args.out, report, meta)
    print(f"bound: {val:.6g} (r={B.shape[1]}) -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    kwargs = {}
    if args.fixture == "piston":
        kwargs = {"B": args.B, "n_fit": args.n, "seed": args.seed}
    elif args.fixture == "metric":
        kwargs = {"n_models": args.n, "seed": args.seed}
    # an --n left out keeps the suite's default; one given is used as given
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    _guard(args, [args.out])
    results = run_suite(args.fixture, **kwargs)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: measured={r.measured:.6g} target={r.target:.6g} tol={r.tol:g}")
    if args.out:
        report = {"fixture": args.fixture, "checks": [r.to_dict() for r in results]}
        _write_json(args.out, report, _meta(args, seed=args.seed))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coactive",
        description="Gradient-subspace concordance toolkit for adjacent computer models.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("fit", help="fit a hinge-spline surrogate to training CSV")
    p.add_argument("data")
    p.add_argument("--out", required=True, help="model JSON path (or directory with --ensemble)")
    p.add_argument("--response", default=None, help="response column name (default: last)")
    p.add_argument("--prior", default=None, help="prior JSON; finite supports set the fit domain")
    p.add_argument("--max-terms", type=int, default=50)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--max-knots", type=int, default=64)
    p.add_argument("--penalty", type=float, default=None)
    p.add_argument("--ensemble", type=int, default=0, metavar="B",
                   help="fit a B-member bootstrap ensemble into a directory")
    p.add_argument("--cv", type=int, default=0, metavar="K",
                   help="report K-fold CV RMSPE on the unit-variance scale")
    p.add_argument("--label", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cmat", help="closed-form matrices + analysis for a model pair")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--prior", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--modified", action="store_true",
                   help="also write the rank-one augmented matrix")
    p.add_argument("--mc", type=int, default=0, metavar="B",
                   help="also run the MC estimator and report the Frobenius distance")
    p.add_argument("--q", default="1", help="number of leading directions, or 'auto' with --tau")
    p.add_argument("--tau", type=float, default=None, help="eigenvalue threshold")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_cmat)

    p = sub.add_parser("mc", help="Monte Carlo matrix for builtin fixtures or model files")
    p.add_argument("--fn", action="append", default=None,
                   help="builtin spec, e.g. builtin:poly?beta=3 or builtin:piston?p0=90000&ta=284")
    p.add_argument("--model", action="append", default=None, help="model JSON path")
    p.add_argument("--prior", default=None, help="prior JSON (default: uniform over the domain)")
    p.add_argument("--B", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("analyze", help="decomposition report from stored matrix JSONs")
    p.add_argument("--matrix", required=True, help="cross-matrix JSON")
    p.add_argument("--self-k", required=True, help="self-matrix JSON of model k")
    p.add_argument("--self-l", required=True, help="self-matrix JSON of model l")
    p.add_argument("--out", required=True)
    p.add_argument("--ratios", default=None, help="also write relative-activity CSV here")
    p.add_argument("--q", default="1")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cluster", help="pairwise grid, discordance matrix, MDS embedding")
    p.add_argument("models", nargs="+", help="model JSON files and/or ensemble directories")
    p.add_argument("--prior", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("bound", help="projection error bound for a basis")
    p.add_argument("model")
    p.add_argument("--prior", required=True)
    p.add_argument("--basis", default=None, help="CSV basis matrix (p x r)")
    p.add_argument("--r", type=int, default=None, help="use the leading r eigenvectors")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="run a named self-check suite")
    p.add_argument("fixture", choices=["poly", "piston", "metric"])
    p.add_argument("--out", default=None, help="write the machine-readable report here")
    p.add_argument("--n", type=int, default=None,
                   help="fit sample count (piston) or corpus size (metric)")
    p.add_argument("--B", type=int, default=100_000, help="MC samples (piston)")
    p.add_argument("--seed", type=int, default=20260813)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.cmd == "bound" and (args.basis is None) == (args.r is None):
        print("error: pass exactly one of --basis or --r", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except Exception as exc:  # surface a clean one-line error, exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
