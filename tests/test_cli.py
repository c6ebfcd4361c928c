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
    # ... and so are its size and training error, to the last digit
    assert {k: rep[k] for k in ("n", "n_terms", "rmse", "r2")} == {
        k: srep[k] for k in ("n", "n_terms", "rmse", "r2")
    }
    for name in os.listdir(out):
        assert b"fit: " not in (tmp_path / "ens" / name).read_bytes(), name
    from coactive import load_ensemble

    ens = load_ensemble(out)
    assert len(ens) == 3
    # non-empty output directory is guarded
    assert main(["fit", str(train), "--out", out, "--prior", prior2, "--ensemble", "3"]) == 1
    assert "non-empty" in capsys.readouterr().err


def test_ensemble_label_is_the_normalized_directory_name(tmp_path, prior2):
    # members are labelled by the directory's name however --out spells it,
    # so both spellings write the same bytes
    train = _write_train(tmp_path / "t.csv")
    files = []
    for out in (str(tmp_path / "a" / "e2"), str(tmp_path / "b" / "e2") + "/"):
        assert main(["fit", str(train), "--out", out, "--prior", prior2, "--ensemble", "2"]) == 0
        files.append({name: open(os.path.join(out, name), "rb").read() for name in os.listdir(out)})
    assert sorted(files[0]) == ["member_000.json", "member_001.json", "report.json"]
    assert files[0] == files[1]
    assert load_model(str(tmp_path / "b" / "e2" / "member_001.json")).label == "e2"
    from coactive import load_ensemble

    for spelling in ("e2", "e2/", "e2/.", "./e2/./"):
        assert load_ensemble(os.path.join(tmp_path, "a", spelling)).label == "e2", spelling


def test_ensemble_members_carry_the_name_cluster_gives_the_directory(tmp_path, prior2):
    # a dot in the directory's name is part of it, while a model file
    # loses its extension
    from coactive import load_ensemble

    train = _write_train(tmp_path / "t.csv")
    out = tmp_path / "runs" / "e.v2"
    assert main(["fit", str(train), "--out", str(out), "--prior", prior2, "--ensemble", "2"]) == 0
    assert load_ensemble(str(out)).label == "e.v2"
    for i in range(2):
        assert load_model(str(out / f"member_{i:03d}.json")).label == "e.v2"
    assert main(["fit", str(train), "--out", str(tmp_path / "m.json"), "--prior", prior2]) == 0
    assert load_model(str(tmp_path / "m.json")).label == "m"


@pytest.mark.parametrize("setting, message", [
    ("--max-knots=0", "max_knots must be >= 1, got 0"),
    ("--max-knots=-1", "max_knots must be >= 1, got -1"),
    ("--max-terms=-3", "max_terms must be >= 0, got -3"),
    ("--max-degree=0", "max_degree must be >= 1, got 0"),
    ("--penalty=nan", "penalty must be finite, got nan"),
    ("--penalty=inf", "penalty must be finite, got inf"),
    ("--penalty=-inf", "penalty must be finite, got -inf"),
])
def test_fit_refuses_a_bad_setting_and_writes_nothing(tmp_path, prior2, capsys, setting, message):
    train = _write_train(tmp_path / "t.csv")
    for out, ensemble in (("m.json", []), ("ens", ["--ensemble", "2"])):
        assert main(["fit", str(train), "--out", str(tmp_path / out), "--prior", prior2,
                     setting, *ensemble]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["prior.json", "t.csv"]


def test_fit_ensemble_refuses_a_file_before_fitting(tmp_path, prior2, capsys):
    train = _write_train(tmp_path / "t.csv")
    out = tmp_path / "ens"
    out.write_text("not a directory\n")
    for force in ([], ["--force"]):
        assert main(["fit", str(train), "--out", str(out), "--prior", prior2,
                     "--ensemble", "3"] + force) == 1
        err = capsys.readouterr().err
        assert err == f"error: {out} is a file; --ensemble writes a directory\n"
    assert out.read_text() == "not a directory\n"


def test_fit_ensemble_force_drops_stale_members(tmp_path, prior2):
    # a smaller refit with --force leaves no member of the larger one behind
    from coactive import load_ensemble

    train = _write_train(tmp_path / "t.csv")
    out = tmp_path / "ens"
    args = ["fit", str(train), "--out", str(out), "--prior", prior2, "--ensemble"]
    assert main([*args, "4"]) == 0
    (out / "notes.txt").write_text("kept\n")
    assert main([*args, "2", "--force"]) == 0
    assert sorted(os.listdir(out)) == ["member_000.json", "member_001.json",
                                       "notes.txt", "report.json"]
    assert (out / "notes.txt").read_text() == "kept\n"
    assert len(load_ensemble(out)) == 2


@pytest.mark.parametrize("earlier, bad, B", [(0, "member_001.json", "3"),
                                              (4, "member_003.json", "2")])
def test_fit_ensemble_refuses_a_directory_for_a_member_before_fitting(
        tmp_path, prior2, capsys, monkeypatch, earlier, bad, B):
    # save_ensemble writes the new members and removes the stale ones of a
    # larger earlier ensemble; a directory at either path once failed only
    # after the fit, with part of the ensemble written
    import coactive.cli

    train = _write_train(tmp_path / "t.csv")
    out = tmp_path / "ens"
    args = ["fit", str(train), "--out", str(out), "--prior", prior2, "--ensemble"]
    if earlier:
        assert main([*args, str(earlier)]) == 0
        os.remove(out / bad)
    (out / bad).mkdir(parents=True)
    capsys.readouterr()
    monkeypatch.setattr(coactive.cli, "fit_ensemble_with_report",
                        lambda *a, **k: pytest.fail("fit ran before the output check"))
    before = _tree(tmp_path)
    assert main([*args, B, "--force"]) == 1
    assert capsys.readouterr().err == f"error: {out / bad} is a directory; fit writes a file\n"
    assert _tree(tmp_path) == before


def test_fit_cv_below_two_fails_before_writing(tmp_path, prior2, capsys):
    # the CV runs before any save, so a refused k leaves no model, report or directory
    train = _write_train(tmp_path / "t.csv")
    for out, ensemble in (("m.json", []), ("ens", ["--ensemble", "2"])):
        assert main(["fit", str(train), "--out", str(tmp_path / out), "--prior", prior2,
                     "--cv", "1", *ensemble]) == 1
        assert capsys.readouterr().err == "error: k-fold CV needs k >= 2 folds, got 1\n"
    assert sorted(os.listdir(tmp_path)) == ["prior.json", "t.csv"]


def test_fit_refuses_a_directory_before_fitting(tmp_path, prior2, capsys):
    train = _write_train(tmp_path / "t.csv")
    for name in ("m", "n.report.json"):
        (tmp_path / name).mkdir()
    for out, bad in (("m", "m"), ("n.json", "n.report.json")):
        for force in ([], ["--force"]):
            assert main(["fit", str(train), "--out", str(tmp_path / out), "--prior", prior2]
                        + force) == 1
            err = capsys.readouterr().err
            assert err == f"error: {tmp_path / bad} is a directory; fit writes a file\n"
    assert not (tmp_path / "n.json").exists()
    assert not os.listdir(tmp_path / "m") and not os.listdir(tmp_path / "n.report.json")


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


@pytest.mark.parametrize("row, line", [("0.1,0.2,nan", 2), ("0.1,inf,1.0", 2), ("nan,0.2,1.0", 2)])
def test_fit_refuses_a_non_finite_field_and_writes_nothing(tmp_path, capsys, row, line):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"x1,x2,y\n{row}\n0.3,0.4,2.0\n")
    for args in ([], ["--ensemble", "2"]):
        out = tmp_path / "out"
        assert main(["fit", str(bad), "--out", str(out), *args]) == 1
        assert f"line {line}: non-finite value" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["bad.csv"]


@pytest.mark.parametrize("inputs, dims", [(3, 2), (2, 3)])
def test_fit_refuses_a_prior_of_another_length_and_writes_nothing(tmp_path, capsys, inputs, dims):
    # a prior with fewer dims than the CSV has inputs once failed with
    # "tuple index out of range", and one with more only after a whole fit
    X = lhs_design(60, inputs, ((0.0, 1.0),) * inputs, seed=3)
    train = tmp_path / "t.csv"
    np.savetxt(train, np.column_stack([X, X.sum(axis=1) ** 2]), fmt="%.17g", delimiter=",",
               header=",".join([f"x{j}" for j in range(inputs)] + ["y"]), comments="")
    prior = tmp_path / "p.json"
    save_prior(InputPrior.uniform_box(((0.0, 1.0),) * dims), prior)
    for args in ([], ["--ensemble", "2"]):
        out = tmp_path / "out"
        assert main(["fit", str(train), "--out", str(out), "--prior", str(prior), *args]) == 1
        err = capsys.readouterr().err
        assert err == f"error: the fit domain has {dims} entries but X has {inputs} columns\n"
        assert sorted(os.listdir(tmp_path)) == ["p.json", "t.csv"]


def test_fit_under_a_prior_unbounded_in_one_input_fits_the_data_range(tmp_path):
    # only a prior with a finite support in every input sets the fit domain
    from coactive import NormalDim, UniformDim

    train = _write_train(tmp_path / "t.csv")
    prior = tmp_path / "half.json"
    save_prior(InputPrior(dims=(NormalDim(mean=0.5, sd=0.25), UniformDim(0.0, 1.0))), prior)
    files = []
    for name, extra in (("with", ["--prior", str(prior)]), ("without", [])):
        assert main(["fit", str(train), "--out", str(tmp_path / name / "m.json"), *extra]) == 0
        # all but the meta, whose config hash names the prior
        pair = [json.loads((tmp_path / name / f).read_text()) for f in ("m.json", "m.report.json")]
        files.append([{k: v for k, v in d.items() if k != "meta"} for d in pair])
    assert files[0] == files[1]


def test_cmat_refuses_a_nan_prior_mean_by_name(tmp_path, fitted_pair, capsys):
    prior = tmp_path / "nan_prior.json"
    prior.write_text(json.dumps({"p": 2, "dims": [
        {"type": "normal", "mean": float("nan"), "sd": 1.0},
        {"type": "uniform", "lo": 0.0, "hi": 1.0},
    ]}))
    out = tmp_path / "out"
    assert main(["cmat", *fitted_pair, "--prior", str(prior), "--out-dir", str(out)]) == 1
    assert "normal needs a finite mean, got nan" in capsys.readouterr().err
    assert not out.exists()


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


def test_cmat_failing_mc_writes_no_file(tmp_path, prior2, fitted_pair, capsys):
    # the MC runs before the first write, so its refusal leaves no bundle file
    ma, mb = fitted_pair
    out = tmp_path / "pair"
    assert main(["cmat", ma, mb, "--prior", prior2, "--out-dir", str(out),
                 "--modified", "--mc", "-5"]) == 1
    assert capsys.readouterr().err == "error: B must be >= 1, got -5\n"
    assert not out.exists()
    out.mkdir()
    assert main(["cmat", ma, mb, "--prior", prior2, "--out-dir", str(out), "--mc", "-5"]) == 1
    assert not os.listdir(out)


def test_cmat_q_above_p_makes_no_directory(tmp_path, prior2, fitted_pair, capsys):
    ma, mb = fitted_pair
    out = tmp_path / "o2"
    assert main(["cmat", ma, mb, "--prior", prior2, "--out-dir", str(out), "--q", "7"]) == 1
    assert capsys.readouterr().err == "error: q must be in [1, 2], got 7\n"
    assert not out.exists()


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
    # one report: every field but the run metadata is cmat's
    del an_rep["meta"], cm_rep["meta"]
    assert an_rep == cm_rep
    ratios = (tmp_path / "r.csv").read_text().splitlines()
    assert ratios[1] == "input,alpha_k_over_kl,alpha_l_over_kl"
    assert len(ratios) == 4  # comment, header, two inputs
    # the rows below the comment line are cmat's, byte for byte
    cm_ratios = (out / "ratios.csv").read_bytes()
    assert (tmp_path / "r.csv").read_bytes().split(b"\n", 1)[1] == cm_ratios.split(b"\n", 1)[1]


def test_analyze_without_ratios_reads_only_the_self_traces(tmp_path, prior2, fitted_pair, capsys):
    from coactive import cmat
    from coactive.closedform import CoActiveMatrix, load_prior

    ma_path, mb_path = fitted_pair
    prior = load_prior(prior2)
    ma, mb = load_model(ma_path), load_model(mb_path)
    save_matrix(cmat(ma, mb, prior), tmp_path / "ckl.json")
    for name, m in (("ckk", ma), ("cll", mb)):
        C = cmat(m, m, prior)
        save_matrix(C, tmp_path / f"{name}.json")
        # same trace, but no self matrix: decomposing it would be refused
        skew = C.entries + np.array([[0.0, 1.0], [-1.0, 0.0]])
        save_matrix(CoActiveMatrix(skew, C.labels), tmp_path / f"{name}_skew.json")
    argv = lambda k, l, out: ["analyze", "--matrix", str(tmp_path / "ckl.json"),
                              "--self-k", str(tmp_path / k), "--self-l", str(tmp_path / l),
                              "--out", str(tmp_path / out)]
    assert main(argv("ckk.json", "cll.json", "a.json")) == 0
    assert main(argv("ckk_skew.json", "cll_skew.json", "b.json")) == 0
    a, b = (json.loads((tmp_path / n).read_text()) for n in ("a.json", "b.json"))
    del a["meta"], b["meta"]  # the config hash names the input files
    assert a == b
    ratios = ["--ratios", str(tmp_path / "r.csv")]
    assert main(argv("ckk_skew.json", "cll_skew.json", "c.json") + ratios) == 1
    assert "symmetric" in capsys.readouterr().err


def _pair_matrices(tmp_path, prior2, fitted_pair):
    """c_kl.json, ckk.json and cll.json of the fitted pair, labelled ma and mb."""
    from coactive import cmat
    from coactive.closedform import load_prior

    prior = load_prior(prior2)
    ma, mb = (load_model(p) for p in fitted_pair)
    assert (ma.label, mb.label) == ("ma", "mb")
    for name, (mk, ml) in (("ckl", (ma, mb)), ("ckk", (ma, ma)), ("cll", (mb, mb))):
        save_matrix(cmat(mk, ml, prior), tmp_path / f"{name}.json")
    return lambda k, l: ["analyze", "--matrix", str(tmp_path / "ckl.json"),
                         "--self-k", str(tmp_path / k), "--self-l", str(tmp_path / l),
                         "--out", str(tmp_path / "an.json"), "--ratios", str(tmp_path / "r.csv")]


def test_analyze_and_bound_refuse_a_directory_for_a_file(tmp_path, prior2, fitted_pair, capsys):
    ma, mb = fitted_pair
    out = tmp_path / "pair"
    assert main(["cmat", ma, mb, "--prior", prior2, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    (tmp_path / "D").mkdir()
    mats = ["--matrix", str(out / "c_kl.json"), "--self-k", str(out / "c_kl.json"),
            "--self-l", str(out / "c_kl.json")]
    runs = [
        ("analyze", [*mats, "--out", str(tmp_path / "a.json"), "--ratios", str(tmp_path / "D")]),
        ("analyze", [*mats, "--out", str(tmp_path / "D")]),
        ("bound", [ma, "--prior", prior2, "--r", "1", "--out", str(tmp_path / "D")]),
    ]
    for cmd, args in runs:
        for force in ([], ["--force"]):
            assert main([cmd, *args, *force]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {tmp_path / 'D'} is a directory; {cmd} writes a file\n"
    assert not (tmp_path / "a.json").exists() and not os.listdir(tmp_path / "D")


def test_analyze_rejects_a_self_matrix_of_another_size(tmp_path, prior2, fitted_pair, capsys):
    from coactive.closedform import CoActiveMatrix

    argv = _pair_matrices(tmp_path, prior2, fitted_pair)
    save_matrix(CoActiveMatrix(np.eye(3), ("mb", "mb")), tmp_path / "c3.json")
    assert main(argv("ckk.json", "c3.json")) == 1
    assert capsys.readouterr().err == "error: --self-l matrix has p=3, the cross matrix p=2\n"
    assert not (tmp_path / "an.json").exists() and not (tmp_path / "r.csv").exists()


def test_analyze_rejects_the_other_models_self_matrix(tmp_path, prior2, fitted_pair, capsys):
    from coactive.closedform import CoActiveMatrix

    argv = _pair_matrices(tmp_path, prior2, fitted_pair)
    assert main(argv("cll.json", "cll.json")) == 1
    assert capsys.readouterr().err == "error: --self-k matrix is labelled ['mb', 'mb'], not 'ma'\n"
    assert main(argv("ckk.json", "ckk.json")) == 1
    assert capsys.readouterr().err == "error: --self-l matrix is labelled ['ma', 'ma'], not 'mb'\n"
    assert not (tmp_path / "an.json").exists() and not (tmp_path / "r.csv").exists()
    # an unlabelled self matrix is not compared
    C = load_matrix(tmp_path / "cll.json")
    save_matrix(CoActiveMatrix(C.entries, ("", "")), tmp_path / "cll_bare.json")
    assert main(argv("ckk.json", "cll_bare.json")) == 0


@pytest.mark.parametrize("where", ["trace", "off-diagonal"])
def test_analyze_refuses_a_non_finite_matrix(tmp_path, prior2, fitted_pair, capsys, where):
    # a NaN trace passes any comparison with the diagonal, and a NaN pair
    # fails the symmetry check with advice a CLI user cannot act on
    argv = _pair_matrices(tmp_path, prior2, fitted_pair)
    d = json.loads((tmp_path / "ckl.json").read_text())
    if where == "trace":
        d["trace"] = float("nan")
    else:
        d["entries"][0][1] = d["entries"][1][0] = float("nan")
    (tmp_path / "ckl.json").write_text(json.dumps(d))
    capsys.readouterr()
    assert main(argv("ckk.json", "cll.json")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: co-active matrix entries and trace must be finite\n"
    assert not (tmp_path / "an.json").exists() and not (tmp_path / "r.csv").exists()


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


def test_mc_refuses_a_directory_before_sampling(tmp_path, capsys):
    out = tmp_path / "D"
    out.mkdir()
    for force in ([], ["--force"]):
        assert main(["mc", "--fn", "builtin:piston", "--B", "200000", "--out", str(out)]
                    + force) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out} is a directory; mc writes a file\n"
    assert not os.listdir(out)


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
                 "--out-dir", str(out)]) == 0
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


def test_cluster_reads_only_the_member_files_of_an_ensemble(tmp_path, prior2, two_ensembles):
    # a stray JSON file in an ensemble directory is not a model
    args = ["cluster", *two_ensembles, "--prior", prior2, "--out-dir"]
    assert main([*args, str(tmp_path / "before")]) == 0
    (tmp_path / "ens0" / "settings.json").write_text('{"note": "x"}\n')
    assert main([*args, str(tmp_path / "after")]) == 0
    for name in CLUSTER_FILES:
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "before" / name).read_bytes()


def test_cluster_names_members_past_an_excluded_one(tmp_path, prior2, two_ensembles):
    # ens0 gets a constant member_001.json; its old member_001 becomes
    # member_002 and keeps that name in every artifact
    ens0 = tmp_path / "ens0"
    os.replace(ens0 / "member_001.json", ens0 / "member_002.json")
    save_model(MarsSurrogate(intercept=2.0, terms=(), p=2, domain=UNIT2), ens0 / "member_001.json")
    out = tmp_path / "clust"
    with pytest.warns(UserWarning, match="excluded 1 constant"):
        assert main(["cluster", *two_ensembles, "--prior", prior2,
                     "--out-dir", str(out)]) == 0
    emb = json.loads((out / "embedding.json").read_text())
    assert emb["n_members"] == 4 and emb["n_excluded"] == 1
    names = ["ens0[0]", "ens0[2]", "ens1[0]", "ens1[1]"]
    samples = [l.split(",")[:2] for l in (out / "grid_samples.csv").read_text().splitlines()[2:]]
    assert samples == [[a, b] for a in names for b in names]
    rows = [l.split(",")[:2] for l in (out / "embedding.csv").read_text().splitlines()[2:]]
    assert rows == [["ens0", "0"], ["ens0", "2"], ["ens1", "3"], ["ens1", "4"]]


def test_cluster_single_model_and_mixed_inputs(tmp_path, prior2, two_ensembles, fitted_pair, capsys):
    assert main(["cluster", two_ensembles[0], "--prior", prior2,
                 "--out-dir", str(tmp_path / "one")]) == 1
    assert "at least 2" in capsys.readouterr().err
    out = tmp_path / "mixed"
    assert main(["cluster", two_ensembles[0], fitted_pair[0], "--prior", prior2,
                 "--out-dir", str(out)]) == 0
    emb = json.loads((out / "embedding.json").read_text())
    assert emb["n_members"] == 3


def test_cluster_embeds_identical_members_at_the_origin(tmp_path, prior2, fitted_pair, capsys):
    # every discordance is 0, so the classical start puts every member at
    # the origin, which is exact: stress 0 after 0 iterations
    out = tmp_path / "same"
    assert main(["cluster", *[fitted_pair[0]] * 3, "--prior", prior2,
                 "--out-dir", str(out)]) == 0
    assert re.search(r"^mds: 0 iterations, ", capsys.readouterr().err, re.M)
    rows = (out / "embedding.csv").read_text().splitlines()
    assert rows[1] == "label,member_index,x,y" and len(rows) == 2 + 3
    assert all(float(v) == 0.0 for row in rows[2:] for v in row.split(",")[2:])
    emb = json.loads((out / "embedding.json").read_text())
    assert emb["stress"] == 0.0 and emb["stress_history"] == [0.0]
    assert emb["meta"]["seed"] is None


CLUSTER_FILES = ("grid_summary.csv", "grid_samples.csv", "discordance.csv",
                 "embedding.csv", "centers.csv", "embedding.json")


def test_cmat_and_cluster_refuse_a_file_for_out_dir(tmp_path, prior2, fitted_pair, capsys):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    for cmd in ("cmat", "cluster"):
        for force in ([], ["--force"]):
            assert main([cmd, *fitted_pair, "--prior", prior2, "--out-dir", str(afile), *force]) == 1
            assert capsys.readouterr().err == f"error: {afile} is a file; {cmd} writes a directory\n"
    assert afile.read_text() == "not a directory\n"


def test_cluster_writes_nothing_when_the_embedding_fails(tmp_path, prior2, fitted_pair, capsys):
    # two single models give two members, too few to embed: the grid and D
    # are computed, but no file of the bundle is written
    out = tmp_path / "o3"
    assert main(["cluster", *fitted_pair, "--prior", prior2, "--out-dir", str(out)]) == 1
    assert "need at least 3 points, got 2" in capsys.readouterr().err
    for name in CLUSTER_FILES:
        assert not (out / name).exists(), name


@pytest.mark.parametrize("dims", ["0", "4"])
def test_cluster_refuses_dims_outside_one_to_members_less_one(tmp_path, prior2, two_ensembles,
                                                              dims, capsys):
    out = tmp_path / "clust"
    assert main(["cluster", *two_ensembles, "--prior", prior2,
                 "--out-dir", str(out), "--dims", dims]) == 1
    assert f"dims must be in [1, 3] for 4 points, got {dims}" in capsys.readouterr().err
    for name in CLUSTER_FILES:
        assert not (out / name).exists(), name


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


@pytest.mark.parametrize("basis", ["1\nnan\n", "1,nan\n0,1\n", "inf\n0\n"])
def test_bound_refuses_a_non_finite_basis(tmp_path, prior2, fitted_pair, capsys, basis):
    # unchecked, these wrote a NaN bound (not JSON), a bound of 0.0, and a
    # report of a rank-deficient basis
    ma, _ = fitted_pair
    path = tmp_path / "basis.csv"
    path.write_text(basis)
    out = tmp_path / "b.json"
    capsys.readouterr()
    assert main(["bound", ma, "--prior", prior2, "--basis", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: basis and Sigma must be finite\n"
    assert not out.exists()


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


def test_verify_refuses_its_output_before_running(tmp_path, capsys):
    out = tmp_path / "verify.json"
    out.write_text("{}\n")
    (tmp_path / "D").mkdir()
    runs = [(out, [], f"error: {out} exists; pass --force to overwrite\n")]
    err = f"error: {tmp_path / 'D'} is a directory; verify writes a file\n"
    runs += [(tmp_path / "D", force, err) for force in ([], ["--force"])]
    for path, force, err in runs:
        assert main(["verify", "poly", "--out", str(path), *force]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == err
    assert out.read_text() == "{}\n" and not os.listdir(tmp_path / "D")


def test_verify_metric_passes(tmp_path, capsys):
    assert main(["verify", "metric", "--n", "6", "--seed", "2"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 4 and all(l.startswith("PASS") for l in lines)


def test_run_suite_refuses_an_unknown_fixture():
    from coactive.verify import run_suite

    with pytest.raises(ValueError, match=r"^unknown fixture 'nope'; expected one of \['metric', 'piston', 'poly'\]$"):
        run_suite("nope")


@pytest.mark.parametrize("n", ["0", "2"])
def test_verify_metric_uses_n_as_given_and_refuses_under_three(tmp_path, capsys, n):
    # --n 0 once fell back to the default 12 models; 2 models have no triangle
    out = tmp_path / "verify.json"
    assert main(["verify", "metric", "--n", n, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: the metric check needs at least 3 models, got {n}\n"
    assert not out.exists()


@pytest.mark.parametrize("n", ["1", "0"])
def test_verify_piston_refuses_a_small_n_before_the_mc(tmp_path, capsys, monkeypatch, n):
    # the 100,000-sample MC once ran first, and lhs_design refused after it
    import coactive.verify

    def no_mc(*args, **kwargs):
        raise AssertionError("mc_cmat ran before --n was checked")

    monkeypatch.setattr(coactive.verify, "mc_cmat", no_mc)
    out = tmp_path / "verify.json"
    assert main(["verify", "piston", "--n", n, "--out", str(out)]) == 1
    err = f"error: the piston check needs at least 2 fit samples (--n), got {n}\n"
    assert capsys.readouterr().err == err
    assert not out.exists()


# -- output paths ------------------------------------------------------------------------


def _every_mode(tmp_path, prior2, fitted_pair, ensembles):
    """The eight command modes that write files, as (writer, argv for its
    outputs under root) given root; writer names a mode in the refusal."""
    ma, mb = fitted_pair
    train = str(_write_train(tmp_path / "t.csv"))
    _pair_matrices(tmp_path, prior2, fitted_pair)
    mats = ["--matrix", str(tmp_path / "ckl.json"), "--self-k", str(tmp_path / "ckk.json"),
            "--self-l", str(tmp_path / "cll.json")]
    return lambda root: [
        ("fit", ["fit", train, "--out", f"{root}/m.json", "--prior", prior2]),
        ("--ensemble", ["fit", train, "--out", f"{root}/ens", "--prior", prior2,
                        "--ensemble", "2"]),
        ("cmat", ["cmat", ma, mb, "--prior", prior2, "--out-dir", f"{root}/pair"]),
        ("mc", ["mc", "--fn", "builtin:linear?a=1,2", "--B", "16", "--out", f"{root}/mc.json"]),
        ("analyze", ["analyze", *mats, "--out", f"{root}/an.json", "--ratios", f"{root}/r.csv"]),
        ("cluster", ["cluster", *ensembles, "--prior", prior2, "--out-dir", f"{root}/cl"]),
        ("bound", ["bound", ma, "--prior", prior2, "--r", "1", "--out", f"{root}/b.json"]),
        ("verify", ["verify", "poly", "--out", f"{root}/v.json"]),
    ]


def _tree(root):
    """{path under root: bytes} of every file, and the set of directories."""
    files, dirs = {}, set()
    for here, subdirs, names in os.walk(root):
        dirs.update(os.path.relpath(os.path.join(here, d), root) for d in subdirs)
        for n in names:
            path = os.path.join(here, n)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files, dirs


def test_every_command_makes_the_missing_directories_of_its_outputs(
        tmp_path, prior2, fitted_pair, two_ensembles, capsys):
    # fit, mc, analyze, bound and verify once ran all their work and then
    # failed on the missing parent directory of an output file
    modes = _every_mode(tmp_path, prior2, fitted_pair, two_ensembles)
    flat = tmp_path / "flat"
    flat.mkdir()
    for writer, argv in modes(flat):
        assert main(argv) == 0, writer
    want, _ = _tree(flat)
    assert len(want) == 23
    got = {}
    for i in range(8):
        deep = tmp_path / "new" / str(i) / "a" / "b"
        writer, argv = modes(deep)[i]
        assert main(argv) == 0, (writer, capsys.readouterr().err)
        files, _ = _tree(deep)
        # the same bytes as a write into an existing directory
        assert files and all(want.get(k) == v for k, v in files.items()), writer
        got.update(files)
    assert got == want


def test_every_command_refuses_an_output_under_a_file_before_any_work(
        tmp_path, prior2, fitted_pair, two_ensembles, capsys, monkeypatch):
    # an output under a file, at any depth, once failed with "Not a
    # directory" only after all the work, in fit, mc and under --out-dir
    import coactive.cli

    modes = _every_mode(tmp_path, prior2, fitted_pair, two_ensembles)
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    capsys.readouterr()

    def work(name):
        def reached(*args, **kwargs):
            raise AssertionError(f"{name} ran before the output check")
        return reached

    for name in ("load_training_csv", "fit_with_report", "fit_ensemble_with_report",
                 "load_model", "load_ensemble", "load_matrix", "load_prior", "cmat",
                 "mc_cmat", "builtin_functions", "decompose", "pairwise_concordance",
                 "poincare_bound", "run_suite"):
        monkeypatch.setattr(coactive.cli, name, work(name))
    before = _tree(tmp_path)
    runs = [run for root in (afile, afile / "sub", afile / "sub" / "deeper")
            for run in modes(root)]
    # the ratios file alone under the file
    _, analyze = modes(tmp_path)[4]
    runs.append(("analyze", analyze[:-1] + [str(afile / "r.csv")]))
    for writer, argv in runs:
        for force in ([], ["--force"]):
            assert main(argv + force) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {afile} is a file; {writer} writes a directory\n"
    assert _tree(tmp_path) == before


# -- misc ---------------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "coactive" in capsys.readouterr().out
