"""The README's examples run: its Python quick start executes, and its JSON
config parses and drives the command-line runner."""

import json
import re
from pathlib import Path

from qpkdv import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_block(language: str, heading: str) -> str:
    """The first fenced block of `language` after the line `heading`."""
    after = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", after, re.S).group(1)


def readme_config() -> cli.ExperimentConfig:
    return cli.ExperimentConfig.from_dict(
        json.loads(readme_block("json", "## Command-line runner")))


def test_quick_start_runs(capsys):
    exec(readme_block("python", "## Quick start"), {})
    assert capsys.readouterr().out.startswith("True ")


def test_config_parses():
    config = readme_config()
    assert config.nonlinearity_text == "cos(phi_1) * sin(x) + z0^2 * z3"
    assert len(config.lambdas) == 201 and config.epsilons == [1e-3, 1e-5]


def test_verify_names_the_reduction_exclusion(tmp_path, capsys):
    # verify runs at the first lambda, 0.5, where the reduction is excluded at
    # second order; the right inverse then has nothing to invert
    assert cli.run(readme_config(), "verify", out=tmp_path) == cli.EXIT_ERROR
    checks = {c["check"]: c for c in
              json.loads((tmp_path / "report.json").read_text())["checks"]}
    red, rinv = checks["reduction final remainder"], checks["right-inverse residual"]
    assert not red["passed"] and red["value"] is not None
    assert red["reason"].startswith("divisor |i omega.l + mu_j - mu_k|")
    assert red["reason"].endswith("at l=(-2,), j=-1, k=0")
    assert not rinv["passed"] and rinv["value"] is None
    assert rinv["reason"] == red["reason"]
    failed = [name for name, c in checks.items() if not c["passed"]]
    assert failed == ["reduction final remainder", "right-inverse residual"]
    assert f"FAIL  ({red['reason']})" in capsys.readouterr().out
