"""The three workloads: inputs made from a seed, one timed round, checks.

A round is the same whole set of program operations every time, so every
round of a run does identical work and the rounds can be compared. The
program sees only the generated arrays (``piston-pair``) or the generated
files (``ensemble-cluster``, ``highdim-pair``); seeds never reach it
except as the ``--seed`` flag a user would pass.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os

import numpy as np

import checks

# sizes; README.md explains how they were chosen
PISTON = dict(n_fit=600, max_terms=60, max_degree=4, max_knots=64, mc_B=100_000)
PISTON_CHECK = dict(n_mc=200_000, h=1e-5, n_test=4000, r2_floor=0.99, frob_tol=0.10)
ENSEMBLE = dict(studies=4, models=2, members=8, n=200, p=3, max_terms=15)
HIGHDIM = dict(p=24, terms=110, shared=0.6, mc_B=20_000)
HIGHDIM_CHECK = dict(n_mc=200_000)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _cli(argv) -> None:
    """Run one CLI command in this process, as the installed script would,
    keeping its chatter off the benchmark's standard output."""
    import coactive.cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = coactive.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"coactive {argv[0]} exited {rc}: {sink.getvalue().strip()}")


def _dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f)) for root, _dirs, files in os.walk(path) for f in files
    )


def _digest_dir(path) -> str:
    h = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for f in sorted(files):
            full = os.path.join(root, f)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _read_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def _read_rows_csv(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)


def _uniform_prior(p: int) -> dict:
    return {"p": p, "dims": [{"type": "uniform", "lo": 0.0, "hi": 1.0} for _ in range(p)]}


# ---------------------------------------------------------------------------
# piston-pair: library API, fitter-dominated
# ---------------------------------------------------------------------------


class PistonPair:
    """Fit both piston variants of ``coactive verify piston`` on one maximin
    LHS, form C_kl, C_kk, C_ll, symmetrize, decompose, and cross-check with
    ``mc_cmat`` on the raw functions by finite differences."""

    name = "piston-pair"
    ops_per_round = 9  # lhs_design, 2 fits, 3 cmat, symmetrize, decompose, mc_cmat

    def setup(self, seed: int, workdir) -> dict:
        import coactive as ca

        fa = ca.piston(90000.0, 284.0)
        fb = ca.piston(110000.0, 302.0)
        seeds = _rng(seed, 0).integers(0, 2**31, size=2)
        return {
            "fa": fa,
            "fb": fb,
            "prior": ca.InputPrior.uniform_box(fa.domain),
            "cfg": ca.FitConfig(
                max_terms=PISTON["max_terms"],
                max_degree=PISTON["max_degree"],
                max_knots=PISTON["max_knots"],
                domain=fa.domain,
            ),
            "lhs_seed": int(seeds[0]),
            "mc_seed": int(seeds[1]),
            "seed": seed,
        }

    def round(self, s: dict, rdir, tracer) -> dict:
        import coactive as ca

        fa, fb, prior = s["fa"], s["fb"], s["prior"]
        X = ca.lhs_design(PISTON["n_fit"], fa.p, fa.domain, seed=s["lhs_seed"])
        ma = ca.fit(X, fa(X), s["cfg"])
        mb = ca.fit(X, fb(X), s["cfg"])
        C = ca.cmat(ma, mb, prior)
        Ck = ca.cmat(ma, ma, prior)
        Cl = ca.cmat(mb, mb, prior)
        V = ca.symmetrize(C)
        dec = ca.decompose(V, Ck.trace, Cl.trace)
        mc = ca.mc_cmat(fa, fb, prior, B=PISTON["mc_B"], seed=s["mc_seed"])
        return {"ma": ma, "mb": mb, "C": C, "Ck": Ck, "Cl": Cl, "dec": dec, "mc": mc}

    def digest(self, out: dict) -> str:
        from coactive.model import model_to_dict

        h = hashlib.sha256()
        h.update(json.dumps([model_to_dict(out["ma"]), model_to_dict(out["mb"])]).encode())
        for key in ("C", "Ck", "Cl"):
            h.update(out[key].entries.tobytes())
        h.update(out["dec"].eigvals.tobytes())
        h.update(out["mc"].matrix.entries.tobytes())
        return h.hexdigest()

    def check(self, s: dict, out: dict) -> list:
        from coactive.model import model_to_dict

        c = PISTON_CHECK
        fa, fb = s["fa"], s["fb"]
        rng = _rng(s["seed"], 1)
        U = rng.uniform(size=(c["n_mc"], fa.p))
        ref, ref_se = checks.mc_outer(
            checks.central_gradients(fa, U, c["h"]), checks.central_gradients(fb, U, c["h"])
        )
        mc = out["mc"]
        T = rng.uniform(size=(c["n_test"], fa.p))
        ha, hb = checks.Hinge(model_to_dict(out["ma"])), checks.Hinge(model_to_dict(out["mb"]))
        C, Ck, Cl, dec = out["C"], out["Ck"], out["Cl"], out["dec"]
        kappa = np.trace(C.entries) / np.sqrt(np.trace(Ck.entries) * np.trace(Cl.entries))
        return [
            ("closed form vs own MC", *checks.rel_frobenius(C.entries, ref, c["frob_tol"])),
            ("mc_cmat vs own MC", *checks.within_z(mc.matrix.entries, ref, np.hypot(mc.se, ref_se))),
            ("held-out R^2 of surrogate a", *checks.r_squared(fa(T), ha(T), c["r2_floor"])),
            ("held-out R^2 of surrogate b", *checks.r_squared(fb(T), hb(T), c["r2_floor"])),
            ("C_kk, C_ll symmetric", *_both(checks.symmetric, Ck.entries, Cl.entries)),
            ("C_kk, C_ll PSD", *_both(checks.psd, Ck.entries, Cl.entries)),
            ("concordance = sum of contributions",
             *checks.close([dec.concordance, sum(dec.contributions)], [kappa, kappa], what="kappa")),
        ]


def _both(check, A, B):
    ok_a, da = check(A)
    ok_b, db = check(B)
    return ok_a and ok_b, f"{da}; {db}"


# ---------------------------------------------------------------------------
# ensemble-cluster: CLI fit --ensemble then cluster, MDS- and grid-heavy
# ---------------------------------------------------------------------------


def _ensemble_response(X, rng, family, p):
    """A cubic response; models of one family differ by small jitters."""
    lin = family[0] + 0.2 * rng.normal(size=p)
    quad = family[1] + 0.2 * rng.normal(size=p)
    cubic = family[2] + 0.2 * rng.normal(size=p)
    inter = family[3, 0] + 0.2 * rng.normal()
    return X @ lin + (X**2) @ quad + (X**3) @ cubic + inter * X[:, 0] * X[:, 1]


class EnsembleCluster:
    """Independent studies, each ``coactive fit --ensemble B`` on every
    training CSV of the study and then ``coactive cluster`` on its ensemble
    directories with default flags.

    The MDS iteration count of one study swings by a factor of two or more
    from one input to the next, so a round runs several small studies and
    the seed-to-seed spread of a round's time shrinks with their number.
    """

    name = "ensemble-cluster"

    @property
    def ops_per_round(self) -> int:
        return ENSEMBLE["studies"] * (ENSEMBLE["models"] + 1)

    def setup(self, seed: int, workdir) -> dict:
        e = ENSEMBLE
        p, n = e["p"], e["n"]
        rng = _rng(seed, 0)
        studies = []
        for st in range(e["studies"]):
            families = rng.normal(size=(2, 4, p))
            csvs = []
            for k in range(e["models"]):
                X = rng.uniform(size=(n, p))
                y = _ensemble_response(X, rng, families[k % 2], p)
                path = os.path.join(workdir, f"study{st}-model{k}.csv")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(",".join([f"x{i}" for i in range(p)] + ["y"]) + "\n")
                    for row, v in zip(X, y):
                        fh.write(",".join(repr(float(x)) for x in row) + f",{float(v)!r}\n")
                csvs.append(path)
            boot = [int(v) for v in rng.integers(0, 2**31, size=e["models"])]
            studies.append({"csvs": csvs, "boot_seeds": boot})
        prior = os.path.join(workdir, "prior.json")
        _write_json(prior, _uniform_prior(p))
        return {"studies": studies, "prior": prior}

    def round(self, s: dict, rdir, tracer) -> dict:
        e = ENSEMBLE
        outs = []
        for st, study in enumerate(s["studies"]):
            dirs = []
            for k, (path, bseed) in enumerate(zip(study["csvs"], study["boot_seeds"])):
                d = os.path.join(rdir, f"study{st}", f"model{k}")
                _cli(["fit", path, "--out", d, "--ensemble", str(e["members"]),
                      "--max-terms", str(e["max_terms"]), "--prior", s["prior"],
                      "--seed", str(bseed)])
                dirs.append(d)
            out = os.path.join(rdir, f"study{st}", "cluster")
            _cli(["cluster", *dirs, "--prior", s["prior"], "--out-dir", out])
            outs.append({"dirs": dirs, "out": out})
        if tracer is not None:
            tracer.count("cli.bytes_written", _dir_bytes(rdir))
        return {"rdir": rdir, "studies": outs}

    def digest(self, out: dict) -> str:
        return _digest_dir(out["rdir"])

    def check(self, s: dict, out: dict) -> list:
        results = []
        for st, study in enumerate(out["studies"]):
            results += [(f"study {st}: {name}", ok, detail)
                        for name, ok, detail in self._check_study(study)]
        return results

    def _check_study(self, study: dict) -> list:
        o = study["out"]
        rows = _read_rows_csv(os.path.join(o, "grid_samples.csv"))
        ids = list(dict.fromkeys(r["member_k"] for r in rows))
        pos = {m: i for i, m in enumerate(ids)}
        K = np.zeros((len(ids), len(ids)))
        for r in rows:
            K[pos[r["member_k"]], pos[r["member_l"]]] = float(r["kappa"])
        D = _read_matrix_csv(os.path.join(o, "discordance.csv"))
        with open(os.path.join(o, "embedding.json"), encoding="utf-8") as fh:
            emb = json.load(fh)
        points = _read_rows_csv(os.path.join(o, "embedding.csv"))
        centers = _read_rows_csv(os.path.join(o, "centers.csv"))
        coords = [c for c in points[0] if c not in ("label", "member_index")]
        means = []
        for c in centers:
            mine = [[float(r[x]) for x in coords] for r in points if r["label"] == c["label"]]
            means.append(np.mean(mine, axis=0))
        got = [[float(c["c" + x]) for x in coords] for c in centers]

        # members "label[i]" are the sorted member files of ensemble "label"
        files = {}
        for d in study["dirs"]:
            names = sorted(n for n in os.listdir(d) if n.endswith(".json") and n != "report.json")
            for i, name in enumerate(names):
                files[f"{os.path.basename(d)}[{i}]"] = os.path.join(d, name)
        m = ENSEMBLE["members"]
        pairs = [(0, m), (1, 2), (m + 1, len(ids) - 1)]
        quad, prog = [], []
        for a, b in pairs:
            ha, hb = checks.Hinge.load(files[ids[a]]), checks.Hinge.load(files[ids[b]])
            t = checks.quadrature_trace(ha, hb)
            quad.append(t / np.sqrt(checks.quadrature_trace(ha, ha) * checks.quadrature_trace(hb, hb)))
            prog.append(K[a, b])
        return [
            ("kappa symmetric", *checks.symmetric(K)),
            ("kappa unit diagonal", *checks.unit_diagonal(K)),
            ("kappa PSD", *checks.psd(K)),
            (f"kappa vs quadrature on {len(pairs)} pairs", *checks.close(prog, quad, what="kappa")),
            ("discordance triangle inequalities", *checks.triangle(D)),
            ("stress history non-increasing", *checks.non_increasing(emb["stress_history"])),
            ("centers = per-model means", *checks.close(got, means, what="centers")),
        ]


# ---------------------------------------------------------------------------
# highdim-pair: CLI cmat --modified --mc on a generated wide pair
# ---------------------------------------------------------------------------


def _random_terms(rng, n_terms, p):
    terms = []
    for _ in range(n_terms):
        deg = int(rng.choice([1, 2, 3], p=[0.4, 0.4, 0.2]))
        vars_ = rng.choice(p, size=deg, replace=False)
        terms.append({
            "coef": float(rng.normal()),
            "factors": [
                {"var": int(v), "sign": int(rng.choice([-1, 1])), "knot": float(rng.uniform(0.05, 0.95))}
                for v in vars_
            ],
        })
    return terms


def _highdim_prior(p: int) -> dict:
    """Every third input is a normal truncated to the unit box, well inside
    its tails; the rest are uniform."""
    dims = []
    for i in range(p):
        if i % 3 == 2:
            dims.append({"type": "normal", "mean": 0.5, "sd": 0.25, "trunc_lo": 0.0, "trunc_hi": 1.0})
        else:
            dims.append({"type": "uniform", "lo": 0.0, "hi": 1.0})
    return {"p": p, "dims": dims}


class HighdimPair:
    """``coactive cmat a.json b.json --prior prior.json --modified --mc B``
    on two generated surrogates that share part of their terms."""

    name = "highdim-pair"
    ops_per_round = 1

    def setup(self, seed: int, workdir) -> dict:
        h = HIGHDIM
        p, M = h["p"], h["terms"]
        rng = _rng(seed, 0)
        ta = _random_terms(rng, M, p)
        n_shared = int(h["shared"] * M)
        tb = [dict(t, coef=t["coef"] * (1 + 0.3 * rng.normal())) for t in ta[:n_shared]]
        tb += _random_terms(rng, M + 5 - n_shared, p)
        paths = {}
        for name, terms in (("a", ta), ("b", tb)):
            model = {"label": name, "p": p, "domain": [[0.0, 1.0]] * p,
                     "intercept": float(rng.normal()), "terms": terms}
            paths[name] = os.path.join(workdir, f"{name}.json")
            _write_json(paths[name], model)
        paths["prior"] = os.path.join(workdir, "prior.json")
        _write_json(paths["prior"], _highdim_prior(p))
        return {**paths, "seed": seed, "mc_seed": int(rng.integers(0, 2**31))}

    def round(self, s: dict, rdir, tracer) -> dict:
        out = os.path.join(rdir, "cmat")
        _cli(["cmat", s["a"], s["b"], "--prior", s["prior"], "--out-dir", out,
              "--modified", "--mc", str(HIGHDIM["mc_B"]), "--seed", str(s["mc_seed"])])
        if tracer is not None:
            tracer.count("cli.bytes_written", _dir_bytes(out))
        return {"out": out}

    def digest(self, out: dict) -> str:
        return _digest_dir(out["out"])

    def check(self, s: dict, out: dict) -> list:
        o = out["out"]
        ha, hb = checks.Hinge.load(s["a"]), checks.Hinge.load(s["b"])
        with open(s["prior"], encoding="utf-8") as fh:
            prior = json.load(fh)
        X = checks.sample_prior(prior, HIGHDIM_CHECK["n_mc"], _rng(s["seed"], 1))
        Ga, Gb = ha.gradient(X), hb.gradient(X)
        ref, se = checks.mc_outer(Ga, Gb)
        C = _read_matrix_csv(os.path.join(o, "c_kl.csv"))
        Ck = _read_matrix_csv(os.path.join(o, "c_kk.csv"))
        Cl = _read_matrix_csv(os.path.join(o, "c_ll.csv"))
        Cm = _read_matrix_csv(os.path.join(o, "c_modified.csv"))
        with open(os.path.join(o, "analysis.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        kappa = np.trace(C) / np.sqrt(np.trace(Ck) * np.trace(Cl))
        # delta-method standard error of the product of the two MC mean gradients
        n = len(X)
        za, zb = Ga.mean(axis=0), Gb.mean(axis=0)
        va, vb = Ga.var(axis=0), Gb.var(axis=0)
        var = (np.outer(va, zb**2) + np.outer(za**2, vb)
               + 2 * np.outer(za, zb) * (ref - np.outer(za, zb)))
        se_zz = np.sqrt(np.maximum(var, 0.0) / n)
        return [
            ("c_kl vs own MC", *checks.within_z(C, ref, se)),
            ("c_kk, c_ll symmetric", *_both(checks.symmetric, Ck, Cl)),
            ("c_kk, c_ll PSD", *_both(checks.psd, Ck, Cl)),
            ("kappa from CSVs = sum of contributions",
             *checks.close(sum(report["contributions"]), kappa, what="kappa")),
            ("c_modified - c_kl vs own MC Z_k Z_l^T", *checks.within_z(Cm - C, np.outer(za, zb), se_zz)),
        ]


WORKLOADS = {w.name: w for w in (PistonPair(), EnsembleCluster(), HighdimPair())}
