"""End-to-end acceptance gate: one test per headline property of the library.

Each test prints a single pass/fail line with the measured figure of merit so
a full run reads as a checklist.

Criterion 8 also compares its 402 scan records with the pinned ones in
tests/data/criterion_08_records.json.  A change that moves a record on
purpose rewrites that file with ``PYTHONPATH=src python tests/test_acceptance.py``
and says why.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from qpkdv import dynamics as dyn
from qpkdv import kamreduce as km
from qpkdv import nonlin
from qpkdv import opalg as op
from qpkdv import regularize as reg
from qpkdv import solver as sv
from qpkdv.spectral import (
    FourierField,
    Frequency,
    Truncation,
    analyze,
    dx_pow,
    multiply,
    random_real_field,
    sobolev_norm,
    synthesize,
    x_average,
)
from test_kamreduce import homological_residual
from test_regularize import builtin
from test_solver import unflatten_field
from test_spectral import embed_field

FREQ = Frequency.default(1, lam=1.25)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_criterion_01_spectral_identities():
    trunc = Truncation(1, 12, 12)
    rng = np.random.default_rng(0)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        u = random_real_field(trunc, rng, decay=3.0)
        rt = analyze(trunc, synthesize(u))
        worst = max(worst, sobolev_norm(rt - u, trunc.s0))
        pi0 = u - x_average(u)
        worst = max(worst, sobolev_norm(dx_pow(dx_pow(u, 1), -1) - pi0, trunc.s0))
        A = op.from_multiplication(u)
        worst = max(worst, abs(op.decay_norm(A, 2.0) - sobolev_norm(u, 2.0)))
    elapsed = time.time() - t0
    _report("spectral identities", worst < 1e-12 and elapsed < 10.0,
            f"max defect {worst:.2e} over 100 fields in {elapsed:.1f}s")


def test_criterion_02_homological_equation():
    trunc = Truncation(1, 8, 8)
    rng = np.random.default_rng(1)
    t0 = time.time()
    worst = 0.0
    for trial in range(50):
        mu = -1j * np.arange(-8, 9).astype(float) ** 3
        pert = 0.01 * (rng.standard_normal(17) + 1j * rng.standard_normal(17))
        pert = 0.5 * (pert + np.conj(pert[::-1]))
        D = mu + pert
        p = random_real_field(trunc, rng, decay=3.0, scale=1e-3)
        q = random_real_field(trunc, rng, decay=3.0, scale=1e-3)
        R = op.add(op.from_multiplication(p),
                   op.compose(op.from_multiplication(q),
                              op.from_multiplier(trunc, op.dx_inv_symbol)))
        N = int(rng.integers(2, 9))
        sol = km.solve_homological(D, R, FREQ, N, 1e-8, 3.0)
        assert sol.ok, f"trial {trial}: divisor screen rejected a generic instance"
        worst = max(worst, homological_residual(sol.Psi, D, R, FREQ, N))
    elapsed = time.time() - t0
    _report("homological equation", worst < 1e-12 and elapsed < 10.0,
            f"max residual {worst:.2e} over 50 instances in {elapsed:.1f}s")


def test_criterion_03_regularization_chain():
    trunc = Truncation(1, 12, 12)
    spec = builtin("quasilinear_cubic", epsilon=1e-3)
    u = random_real_field(trunc, np.random.default_rng(2), decay=4.0,
                          scale=0.1, parity="X")
    t0 = time.time()
    a3, a2, a1, a0 = nonlin.linearized_coefficients(spec, u)
    s1 = reg.step1_space_diffeo(a3, a2, a1, a0, FREQ, "generic")
    b3_var = float(np.max(np.abs((s1["b3"] - x_average(s1["b3"])).c)))

    rg = reg.run_regularization(a3, a2, a1, a0, FREQ, "generic")
    m3 = rg.m3
    s2 = reg.step2_time_reparam(s1["b3"], s1["b2"], s1["b1"], s1["b0"], FREQ)
    s3 = reg.step3_descent_zero(s2["c2"], s2["c1"], s2["c0"], m3, FREQ)
    yy = multiply(s2["c2"], s3["v"]) + dx_pow(s3["v"], 1) * (3.0 * m3)
    yy_norm = float(np.max(np.abs(synthesize(yy) / synthesize(s3["v"]))))

    e1_avg = x_average(rg.chain["e1"])
    e1_defect = float(np.max(np.abs((e1_avg - FourierField.constant(trunc, rg.m1)).c)))
    r1_sup = float(np.max(np.abs(rg.chain["r1"].c)))

    sub = Truncation(1, 6, 6)
    conj = max(
        reg.conjugacy_residual(rg, embed_field(
            random_real_field(sub, np.random.default_rng(s), decay=3.0), trunc))
        for s in range(3)
    )
    elapsed = time.time() - t0
    ok = (b3_var < 1e-9 and yy_norm < 1e-10 and e1_defect < 1e-10
          and r1_sup < 1e-12 and conj < 1e-6 and elapsed < 120.0)
    _report("regularization chain", ok,
            f"x-variance {b3_var:.1e}, yy {yy_norm:.1e}, e1-avg {e1_defect:.1e}, "
            f"r1 {r1_sup:.1e}, conjugacy {conj:.1e} in {elapsed:.1f}s")


def _reduced_pipeline(text, eps, scale, seed=0, trunc=Truncation(1, 8, 8)):
    spec = nonlin.parse_nonlinearity(text, "raw_f", epsilon=eps)
    u = random_real_field(trunc, np.random.default_rng(seed), decay=4.0,
                          scale=scale, parity="X")
    rg = reg.regularize_at(spec, FREQ, u)
    red = km.reduce(rg, FREQ, km.IterationSchedule(gamma=0.01,
                                                   smallness_threshold=1e6))
    return rg, red


def test_criterion_04_kam_reduction():
    trunc = Truncation(1, 8, 8)
    t0 = time.time()
    rg, red = _reduced_pipeline("z0^2 * z3", 1e-3, 5e-4)
    norms = [row["R_s0"] for row in red.trace]
    decreasing = all(b < a for a, b in zip(norms, norms[1:]))

    L5 = op.add(rg.R, op.from_multiplier(
        trunc, lambda j: -1j * (rg.m3 * float(j) ** 3 - rg.m1 * j)))
    M = op.materialize_matrix(L5, FREQ)
    ev = np.linalg.eigvals(M)
    pred = (1j * FREQ.omega_dot_l(trunc)[:, None] + red.eigs[None, :]).ravel()
    cost = np.abs(ev[:, None] - pred[None, :])
    r, c = linear_sum_assignment(cost)
    spectral_gap = float(cost[r, c].max())
    elapsed = time.time() - t0
    ok = (decreasing and norms[-1] < 1e-10 and len(norms) <= 9
          and spectral_gap < 1e-6 and elapsed < 120.0)
    _report("kam reduction", ok,
            f"|R| {norms[0]:.1e} -> {norms[-1]:.1e} in {len(norms) - 1} steps, "
            f"dense spectrum gap {spectral_gap:.1e} in {elapsed:.1f}s")


def test_criterion_05_reversible_structure():
    worst = {"re_mu_max": 0.0, "antisym_defect": 0.0, "mu0_abs": 0.0}
    for eps in (1e-3, 1e-4):
        rg, red = _reduced_pipeline("z0^2 * z3", eps, 5e-4)
        rep = km.eigenvalue_report(red.eigs, rg.m3, rg.m1, eps, mode="reversible")
        for key in worst:
            worst[key] = max(worst[key], rep[key])
    ok = (worst["re_mu_max"] < 1e-10 and worst["antisym_defect"] < 1e-10
          and worst["mu0_abs"] < 1e-12)
    _report("reversible structure", ok,
            f"max |Re mu| {worst['re_mu_max']:.1e}, antisymmetry "
            f"{worst['antisym_defect']:.1e}, |mu_0| {worst['mu0_abs']:.1e}")


def test_criterion_06_eigenvalue_asymptotics():
    stats = {}
    for eps in (1e-3, 1e-4):
        rg, red = _reduced_pipeline("z0^2 * z3 + z1 + z0", eps, 2e-3)
        rep = km.eigenvalue_report(red.eigs, rg.m3, rg.m1, eps, mode="reversible")
        stats[eps] = {
            "sup_rj": rep["sup_rj"] / eps,
            "m3": abs(rg.m3 - 1.0) / eps,
            "m1": abs(rg.m1) / eps,
        }
    ratios = {k: stats[1e-3][k] / stats[1e-4][k] for k in stats[1e-3]}
    ok = all(0.5 <= v <= 2.0 for v in ratios.values())
    _report("eigenvalue asymptotics", ok,
            "eps-normalized stability ratios "
            + ", ".join(f"{k} {v:.3f}" for k, v in ratios.items()))


def test_criterion_07_nash_moser():
    trunc = Truncation(1, 16, 16)
    spec = nonlin.parse_nonlinearity("30 * cos(phi_1) * sin(x) + z0^2 * z3",
                                     "raw_f", epsilon=1e-3)
    t0 = time.time()
    rep = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=trunc))
    res = [it["res"] for it in rep.iterates]
    order = math.log(res[-1] / res[-2]) / math.log(res[-2] / res[-3])
    oracle = sv.galerkin_newton(spec, FREQ, trunc)
    gap = sobolev_norm(rep.solution - oracle, trunc.s0)
    elapsed = time.time() - t0
    ok = (rep.converged and res[-1] < 1e-10 and order > 1.5 and gap < 1e-8
          and elapsed < 600.0)
    _report("nash-moser solve", ok,
            f"residual {res[-1]:.1e}, order {order:.2f}, oracle gap {gap:.1e} "
            f"in {elapsed:.1f}s")


CRITERION_08_RECORDS = Path(__file__).parent / "data" / "criterion_08_records.json"


def _criterion_08_scan():
    return sv.cantor_measure(
        "cos(phi_1) * sin(x) + z0^2 * z3", "raw_f", (1.0,),
        [1e-3, 1e-5], np.linspace(0.5, 1.5, 201), a=0.5,
        trunc=Truncation(1, 8, 8), workers=8,
    )


def _criterion_08_rows(rep) -> list:
    """One record per (epsilon, lambda): its ending, with the reason text."""
    return [{"lambda": r["lambda"], "epsilon": eps, "accepted": bool(r["accepted"]),
             "excluded": bool(r["excluded"]), "reason": r["reason"], "error": r["error"]}
            for eps in rep.epsilons for r in rep.records[eps]]


def test_criterion_08_measure_trend():
    t0 = time.time()
    rep = _criterion_08_scan()
    elapsed = time.time() - t0
    f3, f5 = rep.fractions[1e-3], rep.fractions[1e-5]
    rows = _criterion_08_rows(rep)
    pinned = json.loads(CRITERION_08_RECORDS.read_text())
    changed = [(old, new) for old, new in zip(pinned, rows) if old != new]
    ok = (f5 >= f3 and f3 >= 0.5 and f5 >= 0.5 and elapsed < 1800.0
          and len(rows) == len(pinned) and not changed)
    _report("measure trend", ok,
            f"accepted fraction {f3:.3f} (eps 1e-3) <= {f5:.3f} (eps 1e-5), "
            f"201-point grid in {elapsed:.1f}s; {len(rows)} records, "
            f"{len(changed)} differ from the {len(pinned)} pinned"
            + (f", first {changed[0][0]} -> {changed[0][1]}" if changed else ""))


def test_criterion_09_linear_stability():
    trunc = Truncation(1, 8, 8)
    spec = nonlin.parse_nonlinearity("cos(phi_1) * sin(x) + z0^2 * z3",
                                     "raw_f", epsilon=1e-3)
    t0 = time.time()
    solve = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=trunc))
    rg = reg.regularize_at(spec, FREQ, solve.solution)
    red = km.reduce(rg, FREQ, km.IterationSchedule(gamma=0.01,
                                                   smallness_threshold=1e6))
    h0 = dyn.random_phase_state(trunc.n_x, np.random.default_rng(9), decay=3.0)
    report = dyn.stability_report(rg, red, FREQ, h0, T=100.0, s=2.0, dt=0.01)
    elapsed = time.time() - t0
    ok = (report["v_drift"] < 1e-8 and 0.9 <= report["ratio_max"] <= 1.1
          and report["endpoint_discrepancy"] < 1e-4 and elapsed < 300.0)
    _report("linear stability", ok,
            f"drift {report['v_drift']:.1e}, h-ratio {report['ratio_max']:.6f}, "
            f"endpoint {report['endpoint_discrepancy']:.1e} over T=100 "
            f"in {elapsed:.1f}s")


def test_criterion_10_right_inverse_oracle():
    trunc = Truncation(1, 6, 6)
    spec = nonlin.parse_nonlinearity("cos(phi_1) * sin(x) + z0^2 * z3",
                                     "raw_f", epsilon=1e-3)
    u = random_real_field(trunc, np.random.default_rng(5), decay=4.0,
                          scale=2e-3, parity="X")
    rg = reg.regularize_at(spec, FREQ, u)
    red = km.reduce(rg, FREQ, km.IterationSchedule(gamma=0.01,
                                                   smallness_threshold=1e6))
    f = random_real_field(trunc, np.random.default_rng(6), decay=4.0,
                          scale=1.0, parity="Y")
    h = sv.right_inverse(rg, red, f, "reversible")
    a3, a2, a1, a0 = rg.coefficients
    M = op.materialize_linearized(a3, a2, a1, a0, FREQ)
    dense, *_ = np.linalg.lstsq(M, op.flatten_field(f), rcond=None)
    gap = sobolev_norm(h - unflatten_field(trunc, dense), trunc.s0)
    _report("right-inverse oracle", gap < 1e-6,
            f"dense restricted-solve gap {gap:.1e}")


if __name__ == "__main__":
    # prints each record that moves (old -> new), then rewrites the pinned file
    CRITERION_08_RECORDS.parent.mkdir(exist_ok=True)
    rows = _criterion_08_rows(_criterion_08_scan())
    pinned = json.loads(CRITERION_08_RECORDS.read_text()) if CRITERION_08_RECORDS.exists() else []
    for old, new in zip(pinned, rows):
        if old != new:
            print(f"eps {new['epsilon']:g}, lambda {new['lambda']:.3f}: {old} -> {new}")
    if len(pinned) != len(rows):
        print(f"{len(pinned)} pinned records -> {len(rows)}")
    CRITERION_08_RECORDS.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n")
