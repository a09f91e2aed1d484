"""Configuration-driven experiment runner.

One JSON config file describes an experiment (nonlinearity, forcing
frequency, lambda values, truncation, iteration budgets); the subcommands
solve | reduce | measure | stability | verify run the corresponding pipeline
stage and serialize every report.  Outputs are deterministic for a fixed
config and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass, field as dc_field, fields
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import kamreduce as km
from . import nonlin
from . import opalg
from . import regularize
from . import solver as sv
from .spectral import (
    FourierField,
    Frequency,
    NumericalFailure,
    Truncation,
    dx_pow,
    field_to_json,
    multiply,
    random_real_field,
    sobolev_norm,
    synthesize,
    analyze,
)

SCHEMA_VERSION = 1

FREQUENCY_PRESETS = {
    "unit": (1.0,),
    "golden": ((math.sqrt(5.0) - 1.0) / 2.0,),
}

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXCLUDED = 2


class ConfigError(ValueError):
    """Config validation failure; the message names the offending field path."""


_MISSING = object()


def _take(d, key, path, default=_MISSING):
    if key in d:
        return d[key]
    if default is _MISSING:
        raise ConfigError(f"{path}: missing required field")
    return default


def _number(value, path: str, cast=float):
    """A config number as float or int; null, a string, a boolean or a
    fractional value where an int is read is refused, naming its path."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            cast is int and not float(value).is_integer()):
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"{path}: expected {kind}, got {json.dumps(value)}")
    return cast(value)


def _string(value, path: str) -> str:
    """A config text; any other JSON value is refused, naming its path."""
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {json.dumps(value)}")
    return value


def _check_keys(d: dict, allowed, prefix: str = "") -> None:
    """Refuse a key that no field reads, naming its path."""
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{prefix}{key}: unknown field")


def _section(raw: dict, key: str, allowed, default=_MISSING) -> dict:
    """The object raw[key], whose keys must all be in allowed."""
    section = _take(raw, key, key, default)
    if not isinstance(section, dict):
        raise ConfigError(f"{key}: expected an object")
    _check_keys(section, allowed, key + ".")
    return dict(section)


# the kam and nash_moser keys: the SolverConfig field each sets, and its type
SOLVER_FIELDS = {
    "kam": {"gamma": ("gamma", float), "a": ("a", float), "tau": ("tau", float),
            "N0": ("N0", int), "target_decay": ("kam_target", float),
            "max_steps": ("kam_max_steps", int)},
    "nash_moser": {"tol_res": ("tol_res", float), "max_iters": ("max_iters", int)},
}
TOP_LEVEL_KEYS = ("schema_version", "nonlinearity", "epsilon", "frequency", "lambda",
                  "truncation", "kam", "nash_moser", "dynamics", "output_dir", "seed")


@dataclass
class ExperimentConfig:
    nonlinearity_text: str
    declared_form: str
    epsilons: list
    omega_bar: tuple
    lambdas: list
    truncation: Truncation
    kam: dict = dc_field(default_factory=dict)
    nash_moser: dict = dc_field(default_factory=dict)
    dynamics: dict = dc_field(default_factory=dict)
    output_dir: str = "out"
    seed: int = 0

    @property
    def nu(self) -> int:
        return len(self.omega_bar)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        take = _take
        version = raw.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
        _check_keys(raw, TOP_LEVEL_KEYS)

        nl = _section(raw, "nonlinearity", ("builtin", "text", "declared_form"))
        if "builtin" in nl:
            name = nl["builtin"]
            if name not in nonlin.BUILTINS:
                raise ConfigError(
                    f"nonlinearity.builtin: unknown name {name!r}; "
                    f"have {sorted(nonlin.BUILTINS)}"
                )
            text, form = nonlin.BUILTINS[name]
        else:
            text = _string(take(nl, "text", "nonlinearity.text"), "nonlinearity.text")
            form = _string(take(nl, "declared_form", "nonlinearity.declared_form", "raw_f"),
                           "nonlinearity.declared_form")

        eps = take(raw, "epsilon", "epsilon")
        epsilons = [_number(e, "epsilon") for e in (eps if isinstance(eps, list) else [eps])]
        if any(e < 0 for e in epsilons):
            raise ConfigError("epsilon: values must be >= 0")

        fr = _section(raw, "frequency", ("preset", "omega_bar"), {"preset": "unit"})
        if "preset" in fr:
            preset = fr["preset"]
            if preset not in FREQUENCY_PRESETS:
                raise ConfigError(
                    f"frequency.preset: unknown preset {preset!r}; "
                    f"have {sorted(FREQUENCY_PRESETS)}"
                )
            omega_bar = FREQUENCY_PRESETS[preset]
        else:
            omega_bar = take(fr, "omega_bar", "frequency.omega_bar")
            if not isinstance(omega_bar, list):
                raise ConfigError("frequency.omega_bar: expected a list of numbers")
            omega_bar = tuple(_number(w, "frequency.omega_bar") for w in omega_bar)
        if not omega_bar:
            raise ConfigError("frequency.omega_bar: must be non-empty")

        lam = take(raw, "lambda", "lambda", 1.25)
        if isinstance(lam, dict):
            _check_keys(lam, ("min", "max", "count"), "lambda.")
            lo = _number(take(lam, "min", "lambda.min"), "lambda.min")
            hi = _number(take(lam, "max", "lambda.max"), "lambda.max")
            count = _number(take(lam, "count", "lambda.count"), "lambda.count", int)
            if count < 1:
                raise ConfigError("lambda.count: must be >= 1")
            lambdas = [float(v) for v in np.linspace(lo, hi, count)]
        else:
            lambdas = [_number(v, "lambda") for v in (lam if isinstance(lam, list) else [lam])]
        if any(not (0.5 <= v <= 1.5) for v in lambdas):
            raise ConfigError("lambda: values must lie in [1/2, 3/2]")

        tr = _section(raw, "truncation", ("n_phi", "n_x"), {})
        trunc = Truncation(len(omega_bar), *(
            _number(take(tr, key, f"truncation.{key}", 8), f"truncation.{key}", int)
            for key in ("n_phi", "n_x")))

        dynamics = _section(raw, "dynamics", ("T", "s", "dt", "seed"), {})
        for key, cast in (("T", float), ("dt", float), ("s", float), ("seed", int)):
            if key in dynamics:
                dynamics[key] = _number(dynamics[key], f"dynamics.{key}", cast)
        for key in ("T", "dt"):
            value = dynamics.get(key, 1.0)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"dynamics.{key}: must be finite and > 0, got {value!r}")

        solver = {name: _section(raw, name, fields, {}) for name, fields in SOLVER_FIELDS.items()}
        for name, fields in SOLVER_FIELDS.items():
            for key, (_, cast) in fields.items():
                if solver[name].get(key) is not None:
                    solver[name][key] = _number(solver[name][key], f"{name}.{key}", cast)
        kam = solver["kam"]
        nu = len(omega_bar)
        tau = kam.get("tau")
        if tau is not None and tau <= nu + 1:
            warnings.warn(
                f"kam.tau = {tau} <= nu + 1 = {nu + 1}: outside the regime "
                "where the divisor estimates are justified",
                stacklevel=2,
            )

        return cls(
            nonlinearity_text=text,
            declared_form=form,
            epsilons=epsilons,
            omega_bar=omega_bar,
            lambdas=lambdas,
            truncation=trunc,
            kam=kam,
            nash_moser=solver["nash_moser"],
            dynamics=dynamics,
            output_dir=_string(take(raw, "output_dir", "output_dir", "out"), "output_dir"),
            seed=_number(take(raw, "seed", "seed", 0), "seed", int),
        )

    def solver_config(self) -> sv.SolverConfig:
        kw = {}
        for name, table in SOLVER_FIELDS.items():
            section = getattr(self, name)
            for key, (target, _) in table.items():
                if section.get(key) is not None:
                    kw[target] = section[key]  # typed by from_dict
        return sv.SolverConfig(trunc=self.truncation, **kw)

    def spec(self, epsilon: float) -> nonlin.NonlinearitySpec:
        # epsilon = 0 is allowed in configs; the parsed strength must be
        # positive, so the nonlinearity is switched off by an underflowing one
        eff = epsilon if epsilon > 0 else 1e-300
        return nonlin.parse_nonlinearity(self.nonlinearity_text, self.declared_form, eff)


# ------------------------------------------------------------ serialization


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": obj.real.tolist(), "im": obj.imag.tolist()}
        return obj.tolist()
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trace(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _write_failure(out: Path, subcommand: str, seed: int, error: str) -> int:
    _write_json(out / "report.json", {"subcommand": subcommand, "excluded": False,
                                      "error": error, "seed": seed})
    print(f"error: {error}", file=sys.stderr)
    return EXIT_ERROR


# -------------------------------------------------------------- subcommands


def _run_solve(config: ExperimentConfig, out: Path) -> int:
    results, trace_rows = [], []
    for eps in config.epsilons:
        for lam in config.lambdas:
            freq = Frequency(config.omega_bar, lam)
            rep = sv.nash_moser(config.spec(eps), freq, config.solver_config())
            tag = f"lam{lam:g}_eps{eps:g}"
            results.append({
                "tag": tag,
                "lambda": lam,
                "epsilon": eps,
                "converged": rep.converged,
                "excluded_lambda": rep.excluded_lambda,
                "exclusion_reason": rep.exclusion_reason,
                "failure": rep.failure,
                "iterates": rep.iterates,
                "solution_norm_s0": sobolev_norm(rep.solution, config.truncation.s0),
                "structure": rep.diagnostics.get("structure"),
            })
            if rep.failure:
                print(f"error: {tag}: {rep.failure}", file=sys.stderr)
            _write_json(out / "fields" / f"solution_{tag}.json", field_to_json(rep.solution))
            if rep.eigs is not None:
                _write_json(out / "fields" / f"eigenvalues_{tag}.json",
                            {"mu": rep.eigs})
            for it in rep.iterates:
                trace_rows.append({"tag": tag, **it})
    _write_json(out / "report.json", {"subcommand": "solve", "runs": results,
                                      "seed": config.seed})
    _write_trace(out / "trace.csv", ["tag", "n", "u_norm", "res", "N", "gamma"],
                 trace_rows)
    if any(r["failure"] for r in results):
        return EXIT_ERROR
    return EXIT_EXCLUDED if all(r["excluded_lambda"] for r in results) else EXIT_OK


def _run_reduce(config: ExperimentConfig, out: Path) -> int:
    eps = config.epsilons[0]
    lam = config.lambdas[0]
    freq = Frequency(config.omega_bar, lam)
    spec = config.spec(eps)
    u = FourierField.zeros(config.truncation)
    rg = regularize.regularize_at(spec, freq, u)
    red = km.reduce(rg, freq, config.solver_config().schedule(spec.epsilon))
    mode = rg.mode
    if mode == "generic" and nonlin.structure_flags(spec).reversible:
        mode = "reversible"
    report = {
        "subcommand": "reduce",
        "lambda": lam,
        "epsilon": eps,
        "m3": rg.m3,
        "m1": rg.m1,
        "excluded": red.exclusion is not None,
        "reason": None if red.exclusion is None else str(red.exclusion),
        "eigenvalues": km.eigenvalue_report(red.eigs, rg.m3, rg.m1, eps, mode),
        "steps": len(red.trace),
        "seed": config.seed,
    }
    _write_json(out / "report.json", report)
    _write_trace(out / "trace.csv",
                 ["step", "N", "R_s0", "R_s0p2", "sup_r"], red.trace)
    _write_json(out / "fields" / "eigenvalues.json", {"mu": red.eigs})
    return EXIT_OK if red.exclusion is None else EXIT_EXCLUDED


def _run_measure(config: ExperimentConfig, out: Path, workers: int) -> int:
    cfg = config.solver_config()
    rep = sv.cantor_measure(
        config.nonlinearity_text,
        config.declared_form,
        config.omega_bar,
        [e for e in config.epsilons if e > 0],
        np.asarray(config.lambdas),
        a=cfg.a,
        trunc=config.truncation,
        workers=workers,
        config_kw={f.name: getattr(cfg, f.name) for f in fields(cfg)
                   if f.name not in ("trunc", "a")},
    )
    _write_json(out / "report.json", {
        "subcommand": "measure",
        "epsilons": rep.epsilons,
        "fractions": rep.fractions,
        "baseline_fractions": rep.baseline_fractions,
        "gamma_rule": rep.gamma_rule,
        "seed": config.seed,
    })
    rows = []
    for eps in rep.epsilons:
        for rec in rep.records[eps]:
            rows.append({"epsilon": eps, "lambda": rec["lambda"],
                         "accepted": int(rec["accepted"]),
                         "excluded": int(rec["excluded"]),
                         "reason": rec["reason"] or rec["error"]})
    _write_trace(out / "trace.csv",
                 ["epsilon", "lambda", "accepted", "excluded", "reason"], rows)
    if any(f > 0.0 for f in rep.fractions.values()):
        return EXIT_OK
    # no lambda accepted: excluded if any was excluded, else every point failed
    return EXIT_EXCLUDED if any(r["excluded"] for r in rows) else EXIT_ERROR


def _run_stability(config: ExperimentConfig, out: Path) -> int:
    eps = config.epsilons[0]
    lam = config.lambdas[0]
    freq = Frequency(config.omega_bar, lam)
    spec = config.spec(eps)
    cfg = config.solver_config()
    solve = sv.nash_moser(spec, freq, cfg)
    if solve.failure:
        return _write_failure(out, "stability", config.seed, solve.failure)
    if solve.excluded_lambda:
        _write_json(out / "report.json", {
            "subcommand": "stability", "lambda": lam, "epsilon": eps,
            "excluded": True, "reason": solve.exclusion_reason,
            "seed": config.seed,
        })
        return EXIT_EXCLUDED
    rg = regularize.regularize_at(spec, freq, solve.solution)
    red = km.reduce(rg, freq, cfg.schedule(spec.epsilon))
    h0 = dyn.random_phase_state(
        config.truncation.n_x,
        np.random.default_rng(int(config.dynamics.get("seed", config.seed))),
        decay=3.0,
    )
    report = dyn.stability_report(
        rg, red, freq, h0,
        T=float(config.dynamics.get("T", 100.0)),
        s=float(config.dynamics.get("s", 2.0)),
        dt=float(config.dynamics.get("dt", 0.01)),
    )
    samples = report.pop("samples")
    _write_json(out / "report.json", {
        "subcommand": "stability", "lambda": lam, "epsilon": eps,
        "excluded": False, "seed": config.seed, **report,
    })
    _write_trace(out / "trace.csv", ["t", "h_H1", "h_Hs", "v_Hs", "discrepancy"], samples)
    _write_json(out / "fields" / "h0.json", {"h": h0})
    return EXIT_OK


def _verify_checks(config: ExperimentConfig, rng: np.random.Generator) -> list:
    trunc = Truncation(config.nu, min(config.truncation.n_phi, 6),
                       min(config.truncation.n_x, 6))
    lam = config.lambdas[0]
    freq = Frequency(config.omega_bar, lam)
    checks = []

    def add(name, value, tol, reason=None):  # a reason fails the check
        row = {"check": name, "value": None if value is None else float(value),
               "tol": tol, "passed": bool(reason is None and value < tol)}
        checks.append(row if reason is None else {**row, "reason": reason})

    u = random_real_field(trunc, rng, decay=3.0)
    v = random_real_field(trunc, rng, decay=3.0)
    round_trip = analyze(trunc, synthesize(u))
    add("transform round trip", sobolev_norm(round_trip - u, trunc.s0), 1e-12)
    add("product rule defect",
        sobolev_norm(dx_pow(multiply(u, v), 1)
                     - multiply(dx_pow(u, 1), v) - multiply(u, dx_pow(v, 1)),
                     trunc.s0) / (1.0 + sobolev_norm(u, trunc.s0 + 3)), 1e-8)

    A = opalg.from_multiplication(random_real_field(trunc, rng, decay=4.0, scale=0.1))
    B = opalg.from_multiplier(trunc, lambda j: 1j * j)
    w = random_real_field(trunc, rng, decay=3.0)
    add("operator composition defect",
        sobolev_norm(opalg.apply(opalg.compose(A, B), w)
                     - opalg.apply(A, opalg.apply(B, w)), trunc.s0), 1e-10)

    eps = next((e for e in config.epsilons if e > 0), 1e-3)
    spec = config.spec(eps)
    u0 = random_real_field(trunc, rng, decay=4.0, scale=1e-3, parity="X")
    rg = regularize.regularize_at(spec, freq, u0)
    probe = random_real_field(trunc, rng, decay=3.0, scale=1.0)
    # relative: one probe reads the rounding floor, which scales with |L Phi2 z|_s0
    add("regularization semi-conjugacy (relative)", regularize.conjugacy_residual(rg, probe)
        / sobolev_norm(rg.apply_L(rg.phi2(probe)), trunc.s0), 1e-8)
    add("order-one remainder", rg.diagnostics["r1_sup"], 1e-10)

    sched = sv.SolverConfig(trunc=trunc, gamma=0.01).schedule(spec.epsilon)
    check = "reduction final remainder"
    try:
        red = km.reduce(rg, freq, sched)
        # an excluded lambda fails the reduction and leaves no right inverse
        excluded = None if red.exclusion is None else str(red.exclusion)
        add(check, red.trace[-1]["R_s0"], 1e-9, excluded)
        check = "right-inverse residual"
        # drawn in either case, so the later checks see the same random stream
        f = random_real_field(trunc, rng, decay=4.0, scale=1.0, parity="Y")
        if excluded:
            add(check, None, None, excluded)
        else:
            structure = sv.structure_mode(nonlin.structure_flags(spec))
            if structure == "total_derivative":
                f = f.shift_mean(-f.mean)
            h = sv.right_inverse(rg, red, f, structure)
            add(check, sobolev_norm(rg.apply_L(h) - f, trunc.s0), 1e-6)
    # a stage that failed: the check cannot run
    except NumericalFailure as err:
        add(check, None, None, str(err))

    h0 = dyn.random_phase_state(trunc.n_x, rng, decay=3.0)
    zero = FourierField.zeros(trunc)
    _, states = dyn.integrate_linear((zero, zero, zero, zero), freq, h0, 1.0, 0.01)
    j = np.arange(-trunc.n_x, trunc.n_x + 1)
    add("free flow exactness",
        float(np.max(np.abs(states[-1] - np.exp(1j * j**3) * h0))), 1e-12)
    return checks


def _run_verify(config: ExperimentConfig, out: Path) -> int:
    checks = _verify_checks(config, np.random.default_rng(config.seed))
    width = max(len(c["check"]) for c in checks)
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        value = "n/a" if c["value"] is None else f"{c['value']:.3e}"
        reason = f"  ({c['reason']})" if "reason" in c else ""
        print(f"{c['check']:<{width}}  {value:>10}  {status}{reason}")
    _write_json(out / "report.json", {"subcommand": "verify", "checks": checks,
                                      "seed": config.seed})
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_ERROR


_SUBCOMMANDS = {
    "solve": _run_solve,
    "reduce": _run_reduce,
    "measure": _run_measure,
    "stability": _run_stability,
    "verify": _run_verify,
}


def run(config: ExperimentConfig, subcommand: str, out: Path | None = None,
        workers: int = 1, seed: int | None = None) -> int:
    if subcommand not in _SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    if seed is not None:
        config.seed = int(seed)
    out = Path(out) if out is not None else Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if subcommand == "measure":
            return _run_measure(config, out, workers)
        return _SUBCOMMANDS[subcommand](config, out)
    except NumericalFailure as err:
        return _write_failure(out, subcommand, config.seed, err.describe())


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line with a ValueError, so that it exits 1 like
    any other unreadable input (argparse itself exits 2, the code of an
    all-excluded run)."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(
        prog="qpkdv",
        description="Quasi-periodic forced KdV: solve, reduce, measure, "
                    "stability, verify.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        if name == "measure":
            p.add_argument("--workers", type=int, default=1)

    try:
        args = parser.parse_args(argv)
        with open(args.config) as fh:
            raw = json.load(fh)
        config = ExperimentConfig.from_dict(raw)
        return run(config, args.subcommand, out=args.out,
                   workers=getattr(args, "workers", 1), seed=args.seed)
    # numerical failures end in run, with their report; what is left here is
    # a command line or a config that cannot be read (ConfigError,
    # JSONDecodeError, ParseError, or a usage error from _Parser)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
