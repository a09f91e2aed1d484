import math

import numpy as np
import pytest

from qpkdv import kamreduce as km
from qpkdv import nonlin
from qpkdv import opalg as op
from qpkdv import regularize as reg
from qpkdv import solver as sv
from qpkdv.spectral import (
    FourierField,
    Frequency,
    Truncation,
    omega_dphi,
    random_real_field,
    sobolev_norm,
    structure_check,
)

T = Truncation(1, 8, 8)
FREQ = Frequency.default(1, lam=1.25)
FORCED = "cos(phi_1) * sin(x) + z0^2 * z3"


def airy(trunc=T):
    return km.airy_diagonal(trunc, 1.0, 0.0)


def apply_diag_op(eigs, freq, w):
    out = omega_dphi(w, freq)
    mu = eigs.mu.reshape((1,) * w.trunc.nu + (-1,))
    return FourierField(w.trunc, out.c + mu * w.c)


def solve_pipeline(f: FourierField, spec, u_lin=None, structure="reversible"):
    u_lin = u_lin if u_lin is not None else FourierField.zeros(T)
    rg = reg.regularize_at(spec, FREQ, u_lin)
    red = km.reduce(rg, FREQ, km.IterationSchedule(gamma=0.01, smallness_threshold=1e6))
    h = sv.right_inverse(rg, red, FREQ, f, 0.01, 3.0, structure)
    return rg, h


# -------------------------------------------------------------- projections


def test_project_ball():
    u = FourierField.from_modes(T, {(0, 1): 1.0, (5, 0): 1.0, (2, 7): 1.0})
    v = sv.project_ball(u, 4)
    assert v.c[T.n_phi, T.n_x + 1] == 1.0
    assert v.c[T.n_phi + 5, T.n_x] == 0.0
    assert v.c[T.n_phi + 2, T.n_x + 7] == 0.0


# -------------------------------------------------------------- diag inverse


def test_diag_inverse_single_mode():
    g = FourierField.from_modes(T, {(2, 3): 0.5})
    w = sv.diag_inverse(airy(), FREQ, g, 1e-3, 3.0)
    delta = 1j * FREQ.omega[0] * 2 + (-1j * 27.0)
    assert abs(w.c[T.n_phi + 2, T.n_x + 3] - 0.5 / delta) < 1e-15
    assert sobolev_norm(apply_diag_op(airy(), FREQ, w) - g, T.s0) < 1e-13


def test_diag_inverse_rejects_constant():
    g = FourierField.constant(T, 1.0)
    with pytest.raises(sv.NonzeroAverageError):
        sv.diag_inverse(airy(), FREQ, g, 1e-3, 3.0)


def test_diag_inverse_random_residual():
    for seed in range(3):
        g = random_real_field(T, np.random.default_rng(seed), decay=3.0,
                              scale=1.0, zero_total_average=True)
        w = sv.diag_inverse(airy(), FREQ, g, 1e-3, 3.0)
        assert sobolev_norm(apply_diag_op(airy(), FREQ, w) - g, T.s0) < 1e-11
        assert abs(w.mean) == 0.0


def test_diag_inverse_divisor_violation_names_indices():
    mu = airy().mu.copy()
    mu[T.n_x + 1] = -1j * FREQ.omega[0] * 3  # resonates with l = 3 exactly
    eigs = op.DiagonalOperator(T, mu)
    g = random_real_field(T, np.random.default_rng(0), decay=3.0,
                          zero_total_average=True)
    with pytest.raises(sv.DivisorViolation) as err:
        sv.diag_inverse(eigs, FREQ, g, 1e-3, 3.0)
    assert err.value.j == 1 and err.value.l == (3,)


# ------------------------------------------------------------- right inverse


def test_right_inverse_unperturbed_is_mode_division():
    spec = nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=1e-300)
    f = FourierField.from_modes(T, {(1, 1): 0.5})  # cos(phi_1 + x)
    _, h = solve_pipeline(f, spec, structure="total_derivative")
    expected = 0.5 / (1j * (FREQ.omega[0] - 1.0))
    assert abs(h.c[T.n_phi + 1, T.n_x + 1] - expected) < 1e-12


def test_right_inverse_residual_and_parity():
    spec = nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=1e-3)
    u = random_real_field(T, np.random.default_rng(2), decay=4.0, scale=2e-3,
                          parity="X")
    f = random_real_field(T, np.random.default_rng(3), decay=4.0, scale=1.0,
                          parity="Y")
    rg, h = solve_pipeline(f, spec, u_lin=u)
    assert structure_check(h, tol=1e-9)["in_X"]
    assert sobolev_norm(rg.apply_L(h) - f, T.s0) < 1e-7


def test_right_inverse_rejects_wrong_parity():
    spec = nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=1e-3)
    f = random_real_field(T, np.random.default_rng(4), decay=4.0, parity="X")
    with pytest.raises(sv.StructureError):
        solve_pipeline(f, spec)


def test_right_inverse_matches_dense_restricted_solve():
    trunc = Truncation(1, 6, 6)
    freq = Frequency.default(1, lam=1.25)
    spec = nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=1e-3)
    u = random_real_field(trunc, np.random.default_rng(5), decay=4.0,
                          scale=2e-3, parity="X")
    rg = reg.regularize_at(spec, freq, u)
    red = km.reduce(rg, freq, km.IterationSchedule(gamma=0.01,
                                                   smallness_threshold=1e6))
    f = random_real_field(trunc, np.random.default_rng(6), decay=4.0,
                          scale=1.0, parity="Y")
    h = sv.right_inverse(rg, red, freq, f, 0.01, 3.0)

    a3, a2, a1, a0 = rg.coefficients
    M = op.materialize_linearized(a3, a2, a1, a0, freq)
    dense, *_ = np.linalg.lstsq(M, op.flatten_field(f), rcond=None)
    h_dense = op.unflatten_field(trunc, dense)
    assert sobolev_norm(h - h_dense, trunc.s0) < 1e-6


# ----------------------------------------------------------------- iteration


def test_nash_moser_zero_epsilon_trivial():
    spec = nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=1e-300)
    rep = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=T))
    assert rep.converged and not rep.excluded_lambda
    assert rep.iterates[-1]["n"] == 0
    assert sobolev_norm(rep.solution, T.s0) == 0.0


def test_nash_moser_rejects_constant_forcing():
    spec = nonlin.parse_nonlinearity("1 + z0 * 0", "raw_f", epsilon=1e-3)
    with pytest.raises(sv.StructureError, match="mean"):
        sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=T))


def test_nash_moser_converges_with_decreasing_residuals():
    spec = nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=1e-3)
    rep = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=T))
    assert rep.converged
    res = [it["res"] for it in rep.iterates]
    assert all(b < a for a, b in zip(res, res[1:]))
    assert res[-1] < 1e-10 * (1.0 + res[0])
    gammas = [it["gamma"] for it in rep.iterates]
    assert all(b < a for a, b in zip(gammas, gammas[1:]))
    assert structure_check(rep.solution, tol=1e-9)["in_X"]


def test_nash_moser_total_derivative_keeps_zero_average():
    spec = nonlin.parse_nonlinearity("cos(phi_1) * cos(x) + z0^3", "dx_of_g",
                                     epsilon=1e-3)
    rep = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=T))
    assert rep.converged
    final = nonlin.residual(spec, FREQ, rep.solution)
    assert abs(final.mean) < 1e-14
    assert rep.diagnostics["structure"] == "total_derivative"


def test_nash_moser_matches_dense_newton():
    spec = nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=1e-3)
    rep = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=T))
    oracle = sv.galerkin_newton(spec, FREQ, T)
    assert sobolev_norm(rep.solution - oracle, T.s0) < 1e-8


def test_nash_moser_solution_shrinks_with_epsilon():
    norms = {}
    for eps in (1e-3, 1e-4):
        spec = nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=eps)
        rep = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=T))
        assert rep.converged
        norms[eps] = sobolev_norm(rep.solution, T.s0)
    assert norms[1e-4] < norms[1e-3]


def test_nash_moser_excluded_lambda_is_clean():
    spec = nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=1e-3)
    freq = Frequency.default(1, lam=0.9)
    rep = sv.nash_moser(spec, freq, sv.SolverConfig(trunc=T))
    assert rep.excluded_lambda and not rep.converged
    assert rep.exclusion_reason is not None
    # the reduction passes and the first-order divisor i omega.l + mu_j at
    # (l, j) = (-1, -1) fails; the reason names it
    assert "l=(-1,), j=-1" in rep.exclusion_reason
    gamma_n = rep.iterates[-1]["gamma"]
    assert not km.melnikov_mask(np.array([0.9]), [rep.eigs], freq.omega_bar,
                                gamma_n, 3.0, T.n_phi, order="first")[0]


def test_nash_moser_second_order_exclusion_names_divisor_and_bound():
    spec = nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=1e-3)
    freq = Frequency.default(1, lam=0.94)
    rep = sv.nash_moser(spec, freq, sv.SolverConfig(trunc=T))
    assert rep.excluded_lambda and not rep.converged
    # the reduction fails at (l, j, k) = (-1, -1, 0); the reason carries the
    # divisor, formed with the exponents of the failed step, and its bound
    # gamma_n |j^3 - k^3| <l>^-tau
    head, tail = rep.exclusion_reason.split(" at ")
    assert head.startswith("divisor |i omega.l + mu_j - mu_k| = ")
    assert tail == "l=(-1,), j=-1, k=0"
    value, bound = (float(x) for x in head.split(" = ")[1].split(" < "))
    assert value < bound
    delta = -1j * freq.omega[0] + rep.eigs.mu_at(-1) - rep.eigs.mu_at(0)
    assert value == pytest.approx(abs(delta), rel=1e-3)
    assert bound == pytest.approx(rep.iterates[-1]["gamma"], rel=1e-3)


def test_solver_config_schedule():
    config = sv.SolverConfig(trunc=T, gamma=0.1, chi=1.3, N0=3, kam_max_steps=7)
    sched = config.schedule(1e-3, "hamiltonian")
    assert (sched.gamma, sched.tau, sched.chi, sched.N0) == (0.1, 3.0, 1.3, 3)
    assert (sched.max_steps, sched.target_decay, sched.mode) == (7, 1e-12, "hamiltonian")
    assert sched.smallness_threshold == config.smallness_threshold
    assert config.schedule(1e-3, "generic", n=2).gamma == 0.1 * 1.25
    assert sv.SolverConfig(trunc=T).schedule(1e-4, "generic").gamma == 1e-4 ** 0.5


def test_nash_moser_superlinear_order_estimate():
    spec = nonlin.parse_nonlinearity("30 * cos(phi_1) * sin(x) + z0^2 * z3",
                                     "raw_f", epsilon=1e-3)
    rep = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=T))
    res = [it["res"] for it in rep.iterates]
    assert rep.converged and len(res) >= 3
    p = math.log(res[-1] / res[-2]) / math.log(res[-2] / res[-3])
    assert p > 1.5


# -------------------------------------------------------------- measure scan


def test_cantor_measure_trend():
    grid = np.linspace(0.5, 1.5, 21)
    rep = sv.cantor_measure(FORCED, "raw_f", (1.0,), [1e-3, 1e-5], grid,
                            a=0.5, trunc=Truncation(1, 6, 6))
    assert all(0.0 <= fr <= 1.0 for fr in rep.fractions.values())
    assert rep.fractions[1e-5] >= rep.fractions[1e-3]
    assert rep.gamma_rule["a"] == 0.5
    assert len(rep.records[1e-3]) == len(grid)


def test_cantor_measure_baseline_uses_fixed_gamma():
    grid = np.linspace(0.5, 1.5, 11)
    trunc = Truncation(1, 4, 4)
    g = 0.2
    rep = sv.cantor_measure(FORCED, "raw_f", (1.0,), [1e-3], grid, a=0.5,
                            trunc=trunc, config_kw={"gamma": g})
    airy = [km.airy_diagonal(trunc, 1.0, 0.0) for _ in grid]
    base = km.melnikov_mask(grid, airy, (1.0,), g, 3.0, 2 * trunc.n_phi)
    base &= km.melnikov_mask(grid, airy, (1.0,), g, 3.0, trunc.n_phi, order="first")
    assert rep.baseline_fractions[1e-3] == float(base.mean())
    assert rep.gamma_rule == {"rule": "fixed gamma", "gamma": g}


def test_cantor_measure_validates_exponent():
    with pytest.raises(ValueError):
        sv.cantor_measure(FORCED, "raw_f", (1.0,), [1e-3], np.array([1.25]),
                          a=1.5)


def test_cantor_measure_records_failed_point(monkeypatch):
    real = sv.nash_moser

    def flaky(spec, freq, config):
        if freq.lam == 1.0:
            raise reg.ZeroMeanViolation(3, 2.2e-9)
        return real(spec, freq, config)

    monkeypatch.setattr(sv, "nash_moser", flaky)
    rep = sv.cantor_measure(FORCED, "raw_f", (1.0,), [1e-3],
                            np.array([0.9, 1.0, 1.1]), a=0.5,
                            trunc=Truncation(1, 4, 4))
    bad = rep.records[1e-3][1]
    assert not bad["accepted"] and not bad["excluded"]
    assert "x-mean" in bad["error"]
    assert len(rep.records[1e-3]) == 3
