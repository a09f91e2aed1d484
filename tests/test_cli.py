import json
from dataclasses import replace

import numpy as np
import pytest

from qpkdv import cli
from qpkdv import kamreduce as km
from qpkdv import regularize as reg
from qpkdv import solver as sv
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


# -------------------------------------------------------------- subcommands


def test_solve_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "solve"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["subcommand"] == "solve"
    assert report["runs"][0]["converged"] is True
    assert (out / "trace.csv").read_text().startswith("tag,n,u_norm,res,N,gamma")
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


def test_reduce_writes_eigenvalues(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "reduce"
    assert cli.main(["reduce", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["m3"] - 1.0) < 0.1
    assert (out / "trace.csv").read_text().startswith("step,N,R_s0")
    eig = json.loads((out / "fields" / "eigenvalues.json").read_text())
    assert len(eig["mu"]["re"]) == 13


def test_reduce_reports_antisymmetry_of_reversible_f(tmp_path):
    cfg = write_config(tmp_path, nonlinearity={"builtin": "quasilinear_cubic"})
    out = tmp_path / "reduce"
    assert cli.main(["reduce", "--config", str(cfg), "--out", str(out)]) == 0
    eig = json.loads((out / "report.json").read_text())["eigenvalues"]
    assert eig["mode"] == "reversible"
    assert eig["antisym_defect"] < 1e-10


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
    assert lines[0] == "epsilon,lambda,accepted,excluded"
    assert len(lines) == 11


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
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[1:] == ["0.001,1.25,0,0"]


def test_stability_writes_trajectory(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "stab"
    assert cli.main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["v_drift"] < 1e-8
    assert 0.9 <= report["ratio_max"] <= 1.1
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,h_H1,h_Hs,v_Hs,discrepancy"


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
    real = reg.invert_torus_diffeo
    monkeypatch.setattr(reg, "invert_torus_diffeo",
                        lambda *a, **kw: real(*a, **{**kw, "max_iter": 1, "tol": 0.0}))
    cfg = write_config(tmp_path)
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
def test_solver_config_chi_reaches_schedule(tmp_path, monkeypatch, subcommand):
    real_config, real_reduce = cli.ExperimentConfig.solver_config, km.reduce
    seen = []

    def with_chi(self):
        return replace(real_config(self), chi=1.3)

    def recording(rg, freq, schedule):
        seen.append(schedule)
        return real_reduce(rg, freq, schedule)

    monkeypatch.setattr(cli.ExperimentConfig, "solver_config", with_chi)
    monkeypatch.setattr(km, "reduce", recording)
    cfg = write_config(tmp_path)
    out = tmp_path / subcommand
    assert cli.main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
    assert seen and all(s.chi == 1.3 for s in seen)
