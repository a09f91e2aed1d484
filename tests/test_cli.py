import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpkdv import cli
from qpkdv import dynamics as dyn
from qpkdv import kamreduce as km
from qpkdv import solver as sv
from qpkdv import spectral
from qpkdv.spectral import field_from_json, sobolev_norm


def base_config(out_dir, **overrides):
    cfg = {
        "schema_version": 1,
        "nonlinearity": {"text": "cos(phi_1) * sin(x) + z0^2 * z3",
                         "declared_form": "raw_f"},
        "epsilon": 1e-3,
        "frequency": {"omega_bar": [1.0]},
        "lambda": 1.25,
        "truncation": {"n_phi": 6, "n_x": 6},
        "dynamics": {"T": 2.0, "dt": 0.02, "s": 2.0, "seed": 3},
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


# neither reversible nor a total x-derivative: no projection applies
NO_STRUCTURE = {"text": "cos(phi_1) * sin(x) + z0^2", "declared_form": "raw_f"}
# at epsilon = 1 step 1 meets a space diffeomorphism with |beta_x|_inf > 1/2
STEEP = {"text": "cos(phi_1)*sin(x) + z3*exp(3*cos(x))", "declared_form": "raw_f"}


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(tmp_path / "out", **overrides)))
    return path


# ------------------------------------------------------------------- config


def test_config_missing_field_names_path():
    with pytest.raises(cli.ConfigError, match="nonlinearity"):
        cli.ExperimentConfig.from_dict({"epsilon": 1e-3})


def test_config_unknown_builtin():
    raw = base_config("out", nonlinearity={"builtin": "nope"})
    with pytest.raises(cli.ConfigError, match="nonlinearity.builtin"):
        cli.ExperimentConfig.from_dict(raw)


def test_config_builtin_lookup():
    raw = base_config("out", nonlinearity={"builtin": "quasilinear_cubic"})
    config = cli.ExperimentConfig.from_dict(raw)
    assert config.nonlinearity_text == "z0^2 * z3"
    assert config.declared_form == "raw_f"


def test_config_lambda_grid_and_range():
    raw = base_config("out")
    raw["lambda"] = {"min": 0.5, "max": 1.5, "count": 5}
    config = cli.ExperimentConfig.from_dict(raw)
    assert config.lambdas == [0.5, 0.75, 1.0, 1.25, 1.5]
    raw["lambda"] = 2.0
    with pytest.raises(cli.ConfigError, match="lambda"):
        cli.ExperimentConfig.from_dict(raw)


def test_config_schema_version_checked():
    raw = base_config("out", schema_version=99)
    with pytest.raises(cli.ConfigError, match="schema_version"):
        cli.ExperimentConfig.from_dict(raw)


def test_config_low_tau_warns():
    raw = base_config("out", kam={"tau": 1.5})
    with pytest.warns(UserWarning, match="tau"):
        cli.ExperimentConfig.from_dict(raw)


def test_config_frequency_preset():
    raw = base_config("out", frequency={"preset": "unit"})
    assert cli.ExperimentConfig.from_dict(raw).omega_bar == (1.0,)
    raw = base_config("out", frequency={"preset": "bogus"})
    with pytest.raises(cli.ConfigError, match="frequency.preset"):
        cli.ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("overrides,path", [
    ({"kam": {"gama": 0.01, "max_steps": 1}}, "kam.gama"),
    ({"nash_moser": {"tol": 1e-3}}, "nash_moser.tol"),
    ({"dynamics": {"TT": 5}}, "dynamics.TT"),
    ({"truncation": {"n_phi": 6, "nx": 6}}, "truncation.nx"),
    ({"frequency": {"omega_bar": [1.0], "lam": 1.0}}, "frequency.lam"),
    ({"lambda": {"min": 0.5, "max": 1.5, "n": 5}}, "lambda.n"),
    ({"nonlinearity": {"text": "z0^2 * z3", "form": "raw_f"}}, "nonlinearity.form"),
    ({"epsilons": [1e-3]}, "epsilons"),
    ({"truncation": {"n_phi": 6, "oversample": 3}}, "truncation.oversample"),
])
def test_config_unknown_field_names_path(tmp_path, overrides, path):
    raw = base_config(tmp_path / "out", **overrides)
    with pytest.raises(cli.ConfigError, match=rf"^{path}: unknown field$"):
        cli.ExperimentConfig.from_dict(raw)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "solve")]) == 1
    assert not (tmp_path / "solve").exists()


@pytest.mark.parametrize("dynamics,path", [
    ({"dt": 0}, "dynamics.dt"),
    ({"dt": -0.01}, "dynamics.dt"),
    ({"T": float("nan")}, "dynamics.T"),
])
def test_config_refuses_a_step_or_horizon_not_positive(tmp_path, capsys, dynamics, path):
    cfg = write_config(tmp_path, dynamics=dynamics)
    out = tmp_path / "stab"
    assert cli.main(["stability", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: {path}: must be finite and > 0")
    assert not out.exists()


@pytest.mark.parametrize("overrides,message", [
    ({"dynamics": {"s": None}}, "dynamics.s: expected a number, got null"),
    ({"dynamics": {"seed": None}}, "dynamics.seed: expected an integer, got null"),
    ({"truncation": {"n_phi": None}}, "truncation.n_phi: expected an integer, got null"),
    ({"epsilon": None}, "epsilon: expected a number, got null"),
    ({"epsilon": [1e-3, "1e-4"]}, 'epsilon: expected a number, got "1e-4"'),
    ({"kam": {"tau": "3.5"}}, 'kam.tau: expected a number, got "3.5"'),
    ({"nash_moser": {"max_iters": 2.5}}, "nash_moser.max_iters: expected an integer, got 2.5"),
    ({"seed": True}, "seed: expected an integer, got true"),
    ({"frequency": {"omega_bar": 1.0}}, "frequency.omega_bar: expected a list of numbers"),
    ({"nonlinearity": {"text": None}}, "nonlinearity.text: expected a string, got null"),
    ({"nonlinearity": {"text": "z0^2 * z3", "declared_form": None}},
     "nonlinearity.declared_form: expected a string, got null"),
    ({"output_dir": None}, "output_dir: expected a string, got null"),
], ids=["dynamics.s", "dynamics.seed", "truncation.n_phi", "epsilon", "epsilon-list", "kam.tau",
        "nash_moser.max_iters", "seed", "frequency.omega_bar", "nonlinearity.text",
        "nonlinearity.declared_form", "output_dir"])
def test_config_value_of_the_wrong_type_names_its_path(tmp_path, capsys, overrides, message):
    # each of these ended in a TypeError and a traceback, or was read as
    # something else (the directory "None")
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "stab"
    assert cli.main(["stability", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_solver_config_reads_every_kam_and_nash_moser_key():
    kam = {"gamma": 0.02, "a": 0.4, "tau": 3.5, "N0": 3, "target_decay": 1e-11, "max_steps": 5}
    nm = {"tol_res": 1e-9, "max_iters": 7}
    config = cli.ExperimentConfig.from_dict(base_config("out", kam=kam, nash_moser=nm))
    assert config.solver_config() == sv.SolverConfig(
        trunc=config.truncation, gamma=0.02, a=0.4, tau=3.5, N0=3, kam_target=1e-11,
        kam_max_steps=5, tol_res=1e-9, max_iters=7)


# -------------------------------------------------------------- subcommands


def test_solve_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "solve"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["subcommand"] == "solve"
    assert report["runs"][0]["converged"] is True
    assert report["runs"][0]["failure"] is None
    assert (out / "trace.csv").read_text().startswith(
        "tag,n,u_norm,res,N,gamma,m3_minus_1,m1_abs,r1_sup")
    # the iterate that linearized at u = 0 regularized to the identity; the
    # converged one did not regularize
    first, *_, last = report["runs"][0]["iterates"]
    assert [first[k] for k in sv.REGULARIZATION_HEALTH] == [0.0, 0.0, 0.0]
    assert not set(sv.REGULARIZATION_HEALTH) & set(last)
    sol = field_from_json((out / "fields" / "solution_lam1.25_eps0.001.json").read_text())
    assert sobolev_norm(sol, 2.0) > 0.0


def test_solve_zero_epsilon_gives_zero_solution(tmp_path):
    cfg = write_config(tmp_path, epsilon=0.0)
    out = tmp_path / "solve0"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    sol = field_from_json((out / "fields" / "solution_lam1.25_eps0.json").read_text())
    assert sobolev_norm(sol, 2.0) == 0.0


def test_solve_excluded_lambda_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["lambda"] = 0.9
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "excl"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["runs"][0]["excluded_lambda"] is True
    assert report["runs"][0]["exclusion_reason"]


def test_solve_writes_every_run_when_one_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, nonlinearity=STEEP, epsilon=[1e-3, 1.0],
                       kam={"gamma": 0.01})
    out = tmp_path / "solve"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    runs = json.loads((out / "report.json").read_text())["runs"]
    assert [(r["epsilon"], r["converged"]) for r in runs] == [(1e-3, True), (1.0, False)]
    assert runs[0]["failure"] is None
    assert runs[1]["failure"].startswith("DegenerateCoefficientError: space diffeomorphism")
    assert not runs[1]["excluded_lambda"]
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: lam1.25_eps1: {runs[1]['failure']}"]


def test_solve_out_of_iterations_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, nash_moser={"max_iters": 0})
    out = tmp_path / "solve"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    run = json.loads((out / "report.json").read_text())["runs"][0]
    assert not run["converged"] and not run["excluded_lambda"]
    assert run["failure"].startswith("DivergenceError: ")
    assert "after 0 iterations" in capsys.readouterr().err


def test_reduce_writes_eigenvalues(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "reduce"
    assert cli.main(["reduce", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["m3"] - 1.0) < 0.1
    assert report["excluded"] is False and report["reason"] is None
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "step,N,R_s0,R_s0p2,sup_r"
    assert len(lines) == report["steps"] + 1
    assert b"\r" not in (out / "trace.csv").read_bytes()
    eig = json.loads((out / "fields" / "eigenvalues.json").read_text())
    assert len(eig["mu"]["re"]) == 13


def test_reduce_reports_antisymmetry_of_reversible_f(tmp_path):
    cfg = write_config(tmp_path, nonlinearity={"builtin": "quasilinear_cubic"})
    out = tmp_path / "reduce"
    assert cli.main(["reduce", "--config", str(cfg), "--out", str(out)]) == 0
    eig = json.loads((out / "report.json").read_text())["eigenvalues"]
    assert eig["mode"] == "reversible"
    assert eig["antisym_defect"] < 1e-10


def test_reduce_reports_a_first_order_exclusion(tmp_path):
    # the criterion-8 problem at lambda = 1: R = 0 at u = 0, so no KAM step
    # runs, and the final exponents meet the exact resonance
    # i omega.l + mu_j = i (-8) + i 2^3 = 0
    cfg = write_config(tmp_path, truncation={"n_phi": 8, "n_x": 8}, **{"lambda": 1.0})
    out = tmp_path / "reduce"
    assert cli.main(["reduce", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_EXCLUDED
    report = json.loads((out / "report.json").read_text())
    assert report["excluded"] is True
    assert report["reason"].startswith("divisor |i omega.l + mu_j| = 0.000e+00 < ")
    assert report["reason"].endswith("at l=(-8,), j=-2")
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == report["steps"] + 1 == 2  # the exclusion adds no row


def test_measure_reports_fractions(tmp_path):
    cfg = write_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["lambda"] = {"min": 0.6, "max": 1.4, "count": 5}
    raw["epsilon"] = [1e-3, 1e-5]
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "measure"
    code = cli.main(["measure", "--config", str(cfg), "--out", str(out)])
    assert code in (0, 2)
    report = json.loads((out / "report.json").read_text())
    assert set(report["fractions"]) == {"0.001", "1e-05"}
    assert all(0.0 <= f <= 1.0 for f in report["fractions"].values())
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "epsilon,lambda,accepted,excluded,reason"
    assert len(lines) == 11
    for row in csv.DictReader(lines):
        if row["accepted"] == "1":
            assert row["reason"] == ""
        else:
            assert row["reason"].startswith("divisor |i omega.l + mu_j")


def test_measure_uses_the_solver_config_of_solve(tmp_path, monkeypatch):
    real, seen = sv.nash_moser, []

    def recording(spec, freq, config):
        seen.append(config)
        return real(spec, freq, config)

    monkeypatch.setattr(sv, "nash_moser", recording)
    cfg = write_config(tmp_path, kam={"gamma": 0.02, "target_decay": 1e-11,
                                      "max_steps": 9},
                       nash_moser={"tol_res": 1e-9, "max_iters": 8})
    out = tmp_path / "measure"
    assert cli.main(["measure", "--config", str(cfg), "--out", str(out)]) in (0, 2)
    solve_config = cli.ExperimentConfig.from_dict(
        json.loads(cfg.read_text())).solver_config()
    assert seen and all(c == solve_config for c in seen)


def test_measure_with_every_point_failed_exits_1(tmp_path):
    cfg = write_config(tmp_path, nonlinearity=NO_STRUCTURE,
                       truncation={"n_phi": 4, "n_x": 4})
    out = tmp_path / "measure"
    assert cli.main(["measure", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    with open(out / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert [r[:4] for r in rows[1:]] == [["0.001", "1.25", "0", "0"]]
    assert rows[1][4].startswith("StructureError: f is neither a total x-derivative nor reversible")


def test_measure_completes_past_a_failed_step(tmp_path):
    cfg = write_config(tmp_path, nonlinearity=STEEP, epsilon=1.0, kam={"gamma": 0.01},
                       **{"lambda": [0.8, 1.25]})
    out = tmp_path / "measure"
    assert cli.main(["measure", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    assert json.loads((out / "report.json").read_text())["fractions"] == {"1.0": 0.0}
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["lambda"] for r in rows] == ["0.8", "1.25"]
    assert all(r["reason"].startswith("DegenerateCoefficientError: space diffeomorphism")
               for r in rows)


def test_stability_writes_trajectory(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "stab"
    assert cli.main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["v_drift"] < 1e-8
    assert 0.9 <= report["ratio_max"] <= 1.1
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,h_H1,h_Hs,v_Hs,discrepancy"
    assert len(lines) == 101 + 1  # T / dt = 100 steps
    assert b"\r" not in (out / "trace.csv").read_bytes()
    h0 = json.loads((out / "fields" / "h0.json").read_text())["h"]
    h0 = np.array(h0["re"]) + 1j * np.array(h0["im"])
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == pytest.approx(dyn.profile_norm(h0, 1.0))


@pytest.mark.parametrize("name", ["hamiltonian_cubic", "quasilinear_cubic"])
def test_identity_chain_serves_stability_and_verify(tmp_path, name):
    # at epsilon = 0 the stability report regularizes zero coefficients, so
    # every reader of the chain (psi_map, FrozenChain) reads the identity
    # chain that steps 1-4 are skipped for
    cfg = write_config(tmp_path, nonlinearity={"builtin": name}, epsilon=0.0)
    out = tmp_path / "stab"
    assert cli.main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["v_drift"] < 1e-12
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "verify")]) == 0


def test_stability_stops_on_a_failed_solve(tmp_path, capsys):
    cfg = write_config(tmp_path, nonlinearity=STEEP, epsilon=1.0, kam={"gamma": 0.01})
    out = tmp_path / "stab"
    assert cli.main(["stability", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"subcommand", "excluded", "error", "seed"}
    assert report["subcommand"] == "stability" and report["excluded"] is False
    assert report["error"].startswith("DegenerateCoefficientError: space diffeomorphism")
    assert capsys.readouterr().err == f"error: {report['error']}\n"
    assert not (out / "trace.csv").exists()


def test_verify_prints_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "verify"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "pass" in shown and "FAIL" not in shown
    report = json.loads((out / "report.json").read_text())
    assert all(c["passed"] for c in report["checks"])


def test_verify_names_why_the_right_inverse_failed(tmp_path, capsys):
    cfg = write_config(tmp_path, nonlinearity=NO_STRUCTURE)
    out = tmp_path / "verify"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    checks = json.loads((out / "report.json").read_text())["checks"]
    failed = [c for c in checks if not c["passed"]]
    assert [c["check"] for c in failed] == ["right-inverse residual"]
    assert failed[0]["value"] is None
    assert "neither a total x-derivative nor reversible" in failed[0]["reason"]
    assert "neither a total x-derivative nor reversible" in capsys.readouterr().out


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out1),
                     "--seed", "11"]) == 0
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out2),
                     "--seed", "11"]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_main_bad_config_exits_1(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["solve", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"epsilon": 1e-3}))
    assert cli.main(["solve", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["solve"], "qpkdv solve: the following arguments are required: --config"),
    (["bogus", "--config", "c.json"], "invalid choice: 'bogus'"),
    ([], "the following arguments are required: subcommand"),
    (["measure", "--config", "c.json", "--workers", "x"], "invalid int value: 'x'"),
    # only measure reads --workers
    (["solve", "--config", "c.json", "--workers", "2"], "unrecognized arguments: --workers 2"),
])
def test_main_usage_error_exits_1(argv, message, capsys):
    # exit 2 is reserved for a run whose every lambda was excluded
    assert cli.main(argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: qpkdv") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["measure", "-h"]])
def test_main_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage: qpkdv" in capsys.readouterr().out


def test_main_workers_reach_measure(tmp_path, monkeypatch):
    seen = {}
    monkeypatch.setattr(cli, "run", lambda config, subcommand, out, workers, seed:
                        seen.update(subcommand=subcommand, workers=workers) or 0)
    cfg = write_config(tmp_path)
    assert cli.main(["measure", "--config", str(cfg), "--workers", "3"]) == 0
    assert seen == {"subcommand": "measure", "workers": 3}
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    assert seen == {"subcommand": "solve", "workers": 1}


@pytest.mark.parametrize("text", [
    " + ".join(f"{i + 1}*z0^2*z3" for i in range(500)),  # 500 sums deep
    "-" * 1000 + "z0",  # 1000 signs deep
], ids=["long sum", "many signs"])
def test_main_deep_expression_tree_exits_1(tmp_path, capsys, text):
    # each walk of the tree recurses per level: past nonlin.MAX_DEPTH levels
    # the text is refused at an offset instead of exhausting the stack
    cfg = write_config(tmp_path, nonlinearity={"text": text, "declared_form": "raw_f"})
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"error: expression nested deeper than 100 levels \(at offset \d+\)", err[0])


def test_main_constant_division_by_zero_exits_1(tmp_path, capsys):
    text = "cos(phi_1) * sin(x) + z0/0"
    cfg = write_config(tmp_path, nonlinearity={"text": text, "declared_form": "raw_f"})
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: division by zero (at offset {text.index('/')})"]


def test_main_deeply_nested_text_exits_1(tmp_path, capsys):
    text = "(" * 300 + "z0" + ")" * 300
    cfg = write_config(tmp_path, nonlinearity={"text": text, "declared_form": "raw_f"})
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    # CPython refuses the parenthesis past its nesting limit of 200
    assert err == ["error: too many nested parentheses, found '(' (at offset 200)"]


def test_solve_non_finite_f_names_its_cause(tmp_path, capsys):
    # singular at u = 0, the first iterate
    text = "cos(phi_1) * sin(x) + z3/z0"
    cfg = write_config(tmp_path, nonlinearity={"text": text, "declared_form": "raw_f"})
    out = tmp_path / "solve"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    run = json.loads((out / "report.json").read_text(),
                     parse_constant=lambda c: pytest.fail(f"report.json holds {c}"))["runs"][0]
    assert run["failure"].startswith("NonFiniteError: f is not finite at ")
    assert not run["converged"] and not run["excluded_lambda"]
    assert capsys.readouterr().err.splitlines() == [f"error: lam1.25_eps0.001: {run['failure']}"]


def test_runtime_never_imports_sympy(tmp_path):
    cfg = write_config(tmp_path)
    script = "\n".join([
        "import sys",
        "import qpkdv.cli as cli",
        "assert 'sympy' not in sys.modules, 'importing qpkdv.cli imported sympy'",
        "sys.modules['sympy'] = None",
        f"sys.exit(cli.main(['solve', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r}]))",
    ])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_main_failed_reduction_exits_1(tmp_path, capsys):
    # at epsilon = 0.4 the Neumann contraction of the reduction fails
    path = write_config(
        tmp_path,
        nonlinearity={"text": "cos(phi_1)*sin(x) + cos(phi_1)*cos(x)*z3 + z0^2*z3",
                      "declared_form": "raw_f"},
        epsilon=0.4,
        kam={"gamma": 0.01},
    )
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_main_diffeo_non_convergence_exits_1(tmp_path, monkeypatch, capsys):
    # the d_xxx coefficient eps cos(phi) cos(x) does not vanish at u = 0, so the
    # first inversion iterates, and with tolerance 0 it does not converge
    monkeypatch.setattr(spectral, "DIFFEO_MAX_ITER", 1)
    monkeypatch.setattr(spectral, "DIFFEO_TOL", 0.0)
    cfg = write_config(tmp_path, nonlinearity={
        "text": "cos(phi_1)*sin(x) + cos(phi_1)*cos(x)*z3 + z0^2*z3", "declared_form": "raw_f"})
    out = tmp_path / "diffeo_fail"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "did not converge" in err


def test_reduce_numerical_failure_is_an_error_not_an_exclusion(tmp_path, monkeypatch):
    def failing(rg, freq, schedule):
        raise km.ContractionError("|Psi|_s0 = 0.700 >= 1/2 at step 1")

    monkeypatch.setattr(cli.km, "reduce", failing)
    cfg = write_config(tmp_path)
    out = tmp_path / "reduce_fail"
    assert cli.main(["reduce", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    report = json.loads((out / "report.json").read_text())
    assert report["excluded"] is False
    assert "|Psi|_s0" in report["error"]


@pytest.mark.parametrize("subcommand", ["reduce", "stability"])
def test_solver_config_reaches_schedule(tmp_path, monkeypatch, subcommand):
    real_reduce = km.reduce
    seen = []

    def recording(rg, freq, schedule):
        seen.append(schedule)
        return real_reduce(rg, freq, schedule)

    monkeypatch.setattr(km, "reduce", recording)
    cfg = write_config(tmp_path, kam={"N0": 3})
    out = tmp_path / subcommand
    assert cli.main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
    assert seen and all(s.N0 == 3 for s in seen)


# ------------------------------------------------------------------- fuzz

# each term is odd under (phi, x) -> (-phi, -x) when u is even, so every f
# drawn below is reversible
REVERSIBLE_TERMS = ("z0^2*z3", "z0*z1", "z1*z2", "z1^3", "z3*cos(x)", "z1*cos(x)",
                    "z2*sin(x)", "cos(phi_1)*cos(x)*z3", "z3*exp(3*cos(x))")


FORCING = st.floats(0.1, 3.0)
TERMS = st.lists(st.tuples(st.sampled_from(REVERSIBLE_TERMS), st.floats(-3.0, 3.0)),
                 min_size=1, max_size=3)


def reversible_text(forcing, terms):
    """The text of forcing * cos(phi_1) sin(x) + sum c * term."""
    return f"{forcing:.3g}*cos(phi_1)*sin(x)" + "".join(
        f" {'-' if c < 0 else '+'} {abs(c):.3g}*({t})" for t, c in terms)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(forcing=FORCING,
       terms=TERMS,
       log_eps=st.floats(-6.0, 0.0),
       n=st.integers(4, 8),
       lambdas=st.lists(st.floats(0.5, 1.5), min_size=2, max_size=2),
       subcommand=st.sampled_from(sorted(cli._SUBCOMMANDS)))
def test_every_subcommand_ends_in_a_report(forcing, terms, log_eps, n, lambdas, subcommand):
    text = reversible_text(forcing, terms)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(base_config(
            Path(tmp) / "out", nonlinearity={"text": text, "declared_form": "raw_f"},
            epsilon=10.0 ** log_eps, truncation={"n_phi": n, "n_x": n},
            dynamics={"T": 1.0}, **{"lambda": lambdas})))
        assert cli.main([subcommand, "--config", str(cfg)]) in (0, 1, 2)
        assert (Path(tmp) / "out" / "report.json").exists()
