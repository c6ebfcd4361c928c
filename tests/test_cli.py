"""End-to-end CLI checks: artifacts, guards, determinism, exit codes."""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

from coactive import (
    BasisTerm,
    HingeFactor,
    InputPrior,
    MarsSurrogate,
    lhs_design,
    load_model,
    save_model,
    save_prior,
)
from coactive.cli import main
from coactive.closedform import load_matrix, save_matrix

UNIT2 = ((0.0, 1.0), (0.0, 1.0))


def _write_train(path, n=150, seed=2, target="full"):
    X = lhs_design(n, 2, UNIT2, seed=seed)
    if target == "full":
        y = X[:, 0] ** 2 + X[:, 0] * X[:, 1] + 0.5 * X[:, 1] ** 3
    elif target == "base":
        y = X[:, 0] ** 2 + X[:, 0] * X[:, 1]
    else:
        y = np.full(n, 3.0)
    with open(path, "w") as fh:
        fh.write("x1,x2,y\n")
        for row, val in zip(X, y):
            fh.write(f"{row[0]:.17g},{row[1]:.17g},{val:.17g}\n")
    return path


@pytest.fixture()
def prior2(tmp_path):
    path = tmp_path / "prior.json"
    save_prior(InputPrior.uniform_box(UNIT2), path)
    return str(path)


@pytest.fixture()
def fitted_pair(tmp_path, prior2):
    """Two fitted model JSONs and their prior, via the fit subcommand."""
    train_a = _write_train(tmp_path / "a.csv", target="base")
    train_b = _write_train(tmp_path / "b.csv", target="full")
    out_a = str(tmp_path / "ma.json")
    out_b = str(tmp_path / "mb.json")
    assert main(["fit", str(train_a), "--out", out_a, "--prior", prior2]) == 0
    assert main(["fit", str(train_b), "--out", out_b, "--prior", prior2]) == 0
    return out_a, out_b


# -- fit ---------------------------------------------------------------------


def test_fit_writes_model_and_report(tmp_path, prior2, capsys):
    train = _write_train(tmp_path / "t.csv")
    out = str(tmp_path / "m.json")
    assert main(["fit", str(train), "--out", out, "--prior", prior2, "--cv", "3"]) == 0
    cap = capsys.readouterr()
    assert "fit:" in cap.out
    note = re.fullmatch(r"fit: (\d+) terms, (\d+) forward steps, \d+\.\d\ds\n", cap.err)
    assert note, cap.err
    m = load_model(out)
    assert int(note[1]) == len(m.terms)
    assert m.p == 2 and m.domain == UNIT2
    rep = json.loads((tmp_path / "m.report.json").read_text())
    assert rep["n"] == 150 and rep["r2"] > 0.99
    assert rep["response"] == "y" and rep["inputs"] == ["x1", "x2"]
    assert 0 <= rep["cv_rmspe"] < 0.5
    assert rep["meta"]["version"] and rep["meta"]["config"]
    # the forward RSS and backward GCV paths of the fit (null: GCV undefined)
    rss, gcv = rep["forward_rss"], rep["backward_gcv"]
    assert len(rss) >= 2 and all(b <= a for a, b in zip(rss, rss[1:]))
    assert len(rss) <= len(gcv) <= 2 * len(rss) - 1  # each step adds one or two terms
    assert rep["gcv"] == min(g for g in gcv if g is not None)
    assert int(note[2]) == len(rss) - 1  # the path starts at the intercept-only fit
    # the note stays out of the artifacts
    for name in os.listdir(tmp_path):
        blob = (tmp_path / name).read_bytes()
        assert b"forward steps" not in blob and b"fit: " not in blob, name


def test_fit_refuses_overwrite_without_force(tmp_path, prior2, capsys):
    train = _write_train(tmp_path / "t.csv")
    out = str(tmp_path / "m.json")
    assert main(["fit", str(train), "--out", out, "--prior", prior2]) == 0
    assert main(["fit", str(train), "--out", out, "--prior", prior2]) == 1
    assert "--force" in capsys.readouterr().err
    before = (open(out, "rb").read(), (tmp_path / "m.report.json").read_bytes())
    assert main(["fit", str(train), "--out", out, "--prior", prior2, "--force"]) == 0
    after = (open(out, "rb").read(), (tmp_path / "m.report.json").read_bytes())
    assert before == after  # reruns are bitwise-identical


def test_fit_ensemble_directory(tmp_path, prior2, capsys):
    train = _write_train(tmp_path / "t.csv")
    out = str(tmp_path / "ens")
    assert main(["fit", str(train), "--out", out, "--prior", prior2, "--ensemble", "3",
                 "--seed", "5"]) == 0
    assert re.fullmatch(r"fit: 3 members, \d+\.\d\ds\n", capsys.readouterr().err)
    rep = json.loads((tmp_path / "ens" / "report.json").read_text())
    assert rep["members"] == 3
    # each member's forward RSS and backward GCV paths, in member order
    paths = rep["member_paths"]
    assert len(paths) == 3
    for i, path in enumerate(paths):
        rss, gcv = path["forward_rss"], path["backward_gcv"]
        assert len(rss) >= 2 and all(b <= a for a, b in zip(rss, rss[1:]))
        assert len(rss) <= len(gcv) <= 2 * len(rss) - 1
        # the deletion path ends at the intercept; the kept subset has the lowest GCV
        best = min(g for g in gcv if g is not None)
        kept = len(gcv) - 1 - max(k for k, g in enumerate(gcv) if g == best)
        assert kept == len(load_model(os.path.join(out, f"member_{i:03d}.json")).terms)
    # member 0 is the full-data fit: its paths are the single-fit report's
    single = str(tmp_path / "m.json")
    assert main(["fit", str(train), "--out", single, "--prior", prior2]) == 0
    srep = json.loads((tmp_path / "m.report.json").read_text())
    assert paths[0] == {k: srep[k] for k in ("forward_rss", "backward_gcv")}
    for name in os.listdir(out):
        assert b"fit: " not in (tmp_path / "ens" / name).read_bytes(), name
    from coactive import load_ensemble

    ens = load_ensemble(out)
    assert len(ens) == 3
    # non-empty output directory is guarded
    assert main(["fit", str(train), "--out", out, "--prior", prior2, "--ensemble", "3"]) == 1
    assert "non-empty" in capsys.readouterr().err


def test_fit_constant_response_still_succeeds(tmp_path, prior2):
    train = _write_train(tmp_path / "c.csv", target="constant")
    out = str(tmp_path / "m.json")
    with pytest.warns(UserWarning, match="zero variance"):
        assert main(["fit", str(train), "--out", out, "--prior", prior2]) == 0
    rep = json.loads((tmp_path / "m.report.json").read_text())
    assert rep["constant"] is True and rep["n_terms"] == 0


def test_fit_malformed_csv_reports_line(tmp_path, prior2, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2,y\n0.1,0.2,1.0\n0.3,0.4\n")
    assert main(["fit", str(bad), "--out", str(tmp_path / "m.json")]) == 1
    assert "line 3" in capsys.readouterr().err


def test_missing_input_file_fails_cleanly(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")]) == 1
    assert "error:" in capsys.readouterr().err


# -- cmat / analyze -------------------------------------------------------------


def test_cmat_writes_complete_bundle(tmp_path, prior2, fitted_pair, capsys):
    ma, mb = fitted_pair
    out = tmp_path / "pair"
    assert main(["cmat", ma, mb, "--prior", prior2, "--out-dir", str(out),
                 "--modified", "--mc", "2000", "--seed", "3"]) == 0
    assert "concordance kappa=" in capsys.readouterr().out
    for name in ("c_kl.csv", "c_kl.json", "v_kl.csv", "c_kk.csv", "c_ll.csv",
                 "analysis.json", "ratios.csv", "c_modified.csv", "mc.json"):
        assert (out / name).exists(), name
    rep = json.loads((out / "analysis.json").read_text())
    for key in ("pair", "concordance", "discordance", "t_k", "t_l", "eigvals",
                "eigvecs", "contributions", "signed_scores", "unsigned_scores",
                "q", "r_selected", "mc_frobenius", "mc_frobenius_rel", "modified_trace"):
        assert key in rep, key
    assert -1.0 <= rep["concordance"] <= 1.0
    assert rep["mc_frobenius_rel"] < 0.2
    V = np.loadtxt(out / "v_kl.csv", delimiter=",", comments="#")
    np.testing.assert_array_equal(V, V.T)
    mc = json.loads((out / "mc.json").read_text())
    assert mc["B"] == 2000 and mc["seed"] == 3
    # per-entry z-scores of the closed form against the MC mean
    C = np.loadtxt(out / "c_kl.csv", delimiter=",", comments="#")
    Cmc, se, z = (np.array(mc[k], dtype=float) for k in ("entries", "se_entries", "z_entries"))
    assert (se > 0).all()
    np.testing.assert_allclose(z, (C - Cmc) / se, rtol=1e-12)
    assert np.abs(z).max() < 6.0
    # contributions sum to the concordance
    assert sum(rep["contributions"]) == pytest.approx(rep["concordance"], abs=1e-12)


def test_cmat_mc_z_scores_with_an_unused_input(tmp_path):
    # x3 is in neither model: its row and column are 0 in both the closed
    # form and every MC draw, so se == 0 there and z == 0 exactly
    box = ((0.0, 1.0),) * 3
    prior = tmp_path / "prior3.json"
    save_prior(InputPrior.uniform_box(box), prior)
    a = MarsSurrogate(intercept=0.1, p=3, domain=box, terms=(
        BasisTerm(coef=1.5, factors=(HingeFactor(0, 1, 0.3),)),
        BasisTerm(coef=-2.0, factors=(HingeFactor(0, -1, 0.6), HingeFactor(1, 1, 0.2))),
    ))
    b = MarsSurrogate(intercept=0.0, p=3, domain=box, terms=(
        BasisTerm(coef=0.7, factors=(HingeFactor(1, -1, 0.8),)),
        BasisTerm(coef=1.1, factors=(HingeFactor(0, 1, 0.4), HingeFactor(1, 1, 0.5))),
    ))
    save_model(a, tmp_path / "a.json")
    save_model(b, tmp_path / "b.json")
    out = tmp_path / "pair"
    assert main(["cmat", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--prior",
                 str(prior), "--out-dir", str(out), "--mc", "3000", "--seed", "4"]) == 0
    mc = json.loads((out / "mc.json").read_text())
    C = np.loadtxt(out / "c_kl.csv", delimiter=",", comments="#")
    Cmc, se = np.array(mc["entries"]), np.array(mc["se_entries"])
    z = mc["z_entries"]
    for i in range(3):
        for j in range(3):
            if i == 2 or j == 2:
                assert C[i, j] == 0.0 and Cmc[i, j] == 0.0 and se[i, j] == 0.0
                assert z[i][j] == 0.0
            else:
                assert se[i, j] > 0 and z[i][j] == pytest.approx((C[i, j] - Cmc[i, j]) / se[i, j])


def test_cmat_mc_z_score_is_null_where_se_is_zero_and_values_differ():
    from coactive.cli import _z_entries

    z = _z_entries(np.array([[1.0, 0.0], [2.0, 3.0]]), np.array([[1.0, 0.0], [2.5, 2.0]]),
                   np.array([[0.0, 0.0], [0.0, 0.5]]))
    assert z == [[0.0, 0.0], [None, 2.0]]


def test_cmat_modified_reuses_c_kl(tmp_path, prior2, fitted_pair, monkeypatch):
    import coactive.cli
    import coactive.closedform
    from coactive.closedform import cmat, cmat_modified, load_prior, write_matrix_csv

    ma_path, mb_path = fitted_pair
    ma, mb, prior = load_model(ma_path), load_model(mb_path), load_prior(prior2)
    # C_kl + Z_k Z_l^T with C_kl computed inside cmat_modified, as before
    write_matrix_csv(tmp_path / "ref.csv", cmat_modified(ma, mb, prior).entries)

    calls = []

    def counting_cmat(*args, **kwargs):
        calls.append(args[:2])
        return cmat(*args, **kwargs)

    monkeypatch.setattr(coactive.cli, "cmat", counting_cmat)
    monkeypatch.setattr(coactive.closedform, "cmat", counting_cmat)
    out = tmp_path / "pair"
    assert main(["cmat", ma_path, mb_path, "--prior", prior2, "--out-dir", str(out),
                 "--modified"]) == 0
    assert len(calls) == 3  # C_kl, C_kk, C_ll; the modified matrix reuses C_kl
    header, *rows = (out / "c_modified.csv").read_text().splitlines(keepends=True)
    assert header.startswith("# ")
    assert "".join(rows) == (tmp_path / "ref.csv").read_text()


def test_cmat_rerun_is_bitwise_identical(tmp_path, prior2, fitted_pair):
    ma, mb = fitted_pair
    out = tmp_path / "pair"
    args = ["cmat", ma, mb, "--prior", prior2, "--out-dir", str(out)]
    assert main(args) == 0
    blobs = {n: (out / n).read_bytes() for n in os.listdir(out)}
    assert main(args) == 1  # guard fires
    assert main([*args, "--force"]) == 0
    for name, blob in blobs.items():
        assert (out / name).read_bytes() == blob, name
    # the config hash leaves out the output destination
    other = tmp_path / "elsewhere"
    assert main([*args[:-1], str(other)]) == 0
    assert sorted(os.listdir(other)) == sorted(blobs)
    for name, blob in blobs.items():
        assert (other / name).read_bytes() == blob, name


def test_cmat_q_auto_requires_tau(tmp_path, prior2, fitted_pair, capsys):
    ma, mb = fitted_pair
    out = tmp_path / "pair"
    assert main(["cmat", ma, mb, "--prior", prior2, "--out-dir", str(out),
                 "--q", "auto"]) == 1
    assert "--q auto requires --tau" in capsys.readouterr().err
    assert main(["cmat", ma, mb, "--prior", prior2, "--out-dir", str(out),
                 "--q", "auto", "--tau", "0.05", "--force"]) == 0
    rep = json.loads((out / "analysis.json").read_text())
    assert rep["q"] >= 1 and rep["r_selected"] is not None


def test_analyze_matches_cmat(tmp_path, prior2, fitted_pair, capsys):
    from coactive import cmat
    from coactive.closedform import load_prior

    ma_path, mb_path = fitted_pair
    out = tmp_path / "pair"
    assert main(["cmat", ma_path, mb_path, "--prior", prior2, "--out-dir", str(out)]) == 0
    cm_rep = json.loads((out / "analysis.json").read_text())

    prior = load_prior(prior2)
    ma, mb = load_model(ma_path), load_model(mb_path)
    save_matrix(cmat(ma, ma, prior), tmp_path / "ckk.json")
    save_matrix(cmat(mb, mb, prior), tmp_path / "cll.json")
    out2 = tmp_path / "analysis2.json"
    assert main(["analyze", "--matrix", str(out / "c_kl.json"),
                 "--self-k", str(tmp_path / "ckk.json"),
                 "--self-l", str(tmp_path / "cll.json"),
                 "--out", str(out2), "--ratios", str(tmp_path / "r.csv")]) == 0
    an_rep = json.loads(out2.read_text())
    assert an_rep["concordance"] == cm_rep["concordance"]
    assert an_rep["eigvals"] == cm_rep["eigvals"]
    ratios = (tmp_path / "r.csv").read_text().splitlines()
    assert ratios[1] == "input,alpha_k_over_kl,alpha_l_over_kl"
    assert len(ratios) == 4  # comment, header, two inputs


# -- mc ----------------------------------------------------------------------------


def test_mc_builtin_pair(tmp_path, capsys):
    out = tmp_path / "mc.json"
    assert main(["mc", "--fn", "builtin:poly?beta=3", "--B", "4000",
                 "--seed", "9", "--out", str(out)]) == 0
    assert "mc: B=4000" in capsys.readouterr().out
    d = json.loads(out.read_text())
    assert d["B"] == 4000 and d["seed"] == 9 and d["h"] is None
    assert d["labels"] == ["poly-f1", "poly-f2-beta3"]
    exact = [[8 / 3, 11 / 12 + 5.25], [11 / 12, 1 / 3 + 1.5]]
    got = np.array(d["entries"])
    se = np.array(d["se_entries"])
    assert np.all(np.abs(got - exact) <= 5.0 * se)


def test_mc_single_function_is_self_pair(tmp_path):
    out = tmp_path / "mc.json"
    assert main(["mc", "--fn", "builtin:linear?a=1,2", "--B", "16", "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    np.testing.assert_allclose(d["entries"], [[1.0, 2.0], [2.0, 4.0]], rtol=1e-12)


def test_mc_model_file_and_validation(tmp_path, prior2, fitted_pair, capsys):
    ma, mb = fitted_pair
    out = tmp_path / "mc.json"
    assert main(["mc", "--model", ma, "--model", mb, "--prior", prior2,
                 "--B", "500", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["h"] is None  # surrogate gradients are analytic
    assert main(["mc", "--model", ma, "--model", mb, "--fn", "builtin:piston",
                 "--B", "10", "--out", str(tmp_path / "x.json")]) == 1
    assert "one or two functions" in capsys.readouterr().err


# -- cluster --------------------------------------------------------------------------


@pytest.fixture()
def two_ensembles(tmp_path, prior2):
    outs = []
    for i, beta in enumerate((0.5, 4.0)):
        train = tmp_path / f"t{i}.csv"
        X = lhs_design(100, 2, UNIT2, seed=20 + i)
        y = X[:, 0] ** 2 + X[:, 0] * X[:, 1] + beta * X[:, 1] ** 3
        with open(train, "w") as fh:
            fh.write("x1,x2,y\n")
            for row, val in zip(X, y):
                fh.write(f"{row[0]:.17g},{row[1]:.17g},{val:.17g}\n")
        out = str(tmp_path / f"ens{i}")
        assert main(["fit", str(train), "--out", out, "--prior", prior2,
                     "--ensemble", "2", "--seed", str(30 + i), "--label", f"b{beta:g}"]) == 0
        outs.append(out)
    return outs


def test_cluster_bundle(tmp_path, prior2, two_ensembles, capsys):
    out = tmp_path / "clust"
    assert main(["cluster", *two_ensembles, "--prior", prior2,
                 "--out-dir", str(out), "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert "cluster: stress=" in captured.out
    assert "grid:" in captured.err  # wall-clock notes go to stderr only
    mds = re.search(r"^mds: (\d+) iterations, \d+\.\d\ds$", captured.err, re.M)
    assert mds, captured.err
    for name in ("grid_summary.csv", "grid_samples.csv", "discordance.csv",
                 "embedding.csv", "centers.csv", "embedding.json"):
        assert (out / name).exists(), name
    emb = json.loads((out / "embedding.json").read_text())
    assert emb["n_members"] == 4 and emb["n_pairs"] == 6 and emb["n_excluded"] == 0
    assert emb["stress"] == emb["stress_history"][-1]
    assert int(mds.group(1)) == len(emb["stress_history"]) - 1
    for path in out.iterdir():
        assert "mds:" not in path.read_text(), path.name
        assert "halvings" not in path.read_text(), path.name
    assert np.all(np.diff(emb["stress_history"]) <= 1e-12)
    summary = (out / "grid_summary.csv").read_text().splitlines()
    assert len(summary) == 2 + 4  # comment, header, K^2 rows
    samples = (out / "grid_samples.csv").read_text().splitlines()
    assert len(samples) == 2 + 16
    # ensembles are labelled by directory basename at load time
    assert samples[2].startswith("ens0[0],ens0[0],1")
    centers = (out / "centers.csv").read_text().splitlines()
    assert centers[1] == "label,cx,cy"


def test_cluster_rerun_identical(tmp_path, prior2, two_ensembles):
    out = tmp_path / "clust"
    args = ["cluster", *two_ensembles, "--prior", prior2, "--out-dir", str(out)]
    assert main(args) == 0
    blobs = {n: (out / n).read_bytes() for n in os.listdir(out)}
    assert main([*args, "--force"]) == 0
    for name, blob in blobs.items():
        assert (out / name).read_bytes() == blob, name
    # the config hash leaves out the output destination
    other = tmp_path / "elsewhere"
    assert main([*args[:-1], str(other)]) == 0
    assert sorted(os.listdir(other)) == sorted(blobs)
    for name, blob in blobs.items():
        assert (other / name).read_bytes() == blob, name


def test_cluster_single_model_and_mixed_inputs(tmp_path, prior2, two_ensembles, fitted_pair, capsys):
    assert main(["cluster", two_ensembles[0], "--prior", prior2,
                 "--out-dir", str(tmp_path / "one")]) == 1
    assert "at least 2" in capsys.readouterr().err
    out = tmp_path / "mixed"
    assert main(["cluster", two_ensembles[0], fitted_pair[0], "--prior", prior2,
                 "--out-dir", str(out)]) == 0
    emb = json.loads((out / "embedding.json").read_text())
    assert emb["n_members"] == 3


# -- bound -----------------------------------------------------------------------------


def test_bound_leading_eigvecs_and_explicit_basis(tmp_path, prior2, fitted_pair):
    ma, _ = fitted_pair
    out1 = tmp_path / "b1.json"
    assert main(["bound", ma, "--prior", prior2, "--r", "1", "--out", str(out1)]) == 0
    rep1 = json.loads(out1.read_text())
    assert rep1["bound"] >= 0.0 and rep1["r"] == 1
    assert rep1["basis_source"] == "leading-1-eigvecs"

    basis = tmp_path / "basis.csv"
    basis.write_text("1.0\n0.0\n")
    out2 = tmp_path / "b2.json"
    assert main(["bound", ma, "--prior", prior2, "--basis", str(basis), "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["bound"] >= 0.0

    full = tmp_path / "full.csv"
    full.write_text("1.0,0.0\n0.0,1.0\n")
    out3 = tmp_path / "b3.json"
    assert main(["bound", ma, "--prior", prior2, "--basis", str(full), "--out", str(out3)]) == 0
    assert abs(json.loads(out3.read_text())["bound"]) <= 1e-10


def test_bound_argument_validation(tmp_path, prior2, fitted_pair, capsys):
    ma, _ = fitted_pair
    out = str(tmp_path / "b.json")
    assert main(["bound", ma, "--prior", prior2, "--out", out]) == 2
    assert main(["bound", ma, "--prior", prior2, "--r", "1", "--basis", "x.csv",
                 "--out", out]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(["bound", ma, "--prior", prior2, "--r", "5", "--out", out]) == 1


# -- verify ------------------------------------------------------------------------------


def test_verify_poly_prints_lines_and_fails_honestly(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "poly", "--out", str(out)])
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert code == 0
    assert len(lines) == 3 and all(l.startswith("PASS") for l in lines)
    assert "beta=-12: measured=-0.109501 target=-0.1095" in lines[2]
    rep = json.loads(out.read_text())
    assert [c["passed"] for c in rep["checks"]] == [True, True, True]
    assert rep["checks"][2]["name"] == "poly-kappa-beta=-12"
    assert rep["checks"][2]["target"] == -0.1095
    assert {c["detail"] for c in rep["checks"]} == {
        "|measured - target| < 5e-4; concordance from formula-exact matrices"
    }
    assert all(c["tol"] == 5e-4 for c in rep["checks"])


def test_verify_metric_passes(tmp_path, capsys):
    assert main(["verify", "metric", "--n", "6", "--seed", "2"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 4 and all(l.startswith("PASS") for l in lines)


# -- misc ---------------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "coactive" in capsys.readouterr().out
