import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qpkdv import kamreduce as km
from qpkdv import nonlin
from qpkdv import opalg as op
from qpkdv import regularize as reg
from qpkdv import solver as sv
from qpkdv import spectral
from qpkdv.spectral import (
    FourierField,
    Frequency,
    Truncation,
    omega_dphi,
    random_real_field,
    sobolev_norm,
)
from test_opalg import _spy_transforms
from test_spectral import structure_check

T = Truncation(1, 8, 8)
FREQ = Frequency.default(1, lam=1.25)
FORCED = "cos(phi_1) * sin(x) + z0^2 * z3"


def airy(trunc=T):
    return km.airy_diagonal(trunc.n_x, 1.0, 0.0)


def apply_diag_op(mu, freq, w):
    out = omega_dphi(w, freq)
    return FourierField(w.trunc, out.c + mu.reshape((1,) * w.trunc.nu + (-1,)) * w.c)


def unflatten_field(trunc, vec):
    return FourierField(trunc, vec.reshape(trunc.shape).copy())


def solve_pipeline(f: FourierField, spec, u_lin=None, structure="reversible"):
    u_lin = u_lin if u_lin is not None else FourierField.zeros(T)
    rg = reg.regularize_at(spec, FREQ, u_lin)
    red = km.reduce(rg, FREQ, km.IterationSchedule(gamma=0.01, smallness_threshold=1e6))
    h = sv.right_inverse(rg, red, f, structure)
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
    w = sv.diag_inverse(airy(), FREQ, g)
    delta = 1j * FREQ.omega[0] * 2 + (-1j * 27.0)
    assert abs(w.c[T.n_phi + 2, T.n_x + 3] - 0.5 / delta) < 1e-15
    assert sobolev_norm(apply_diag_op(airy(), FREQ, w) - g, T.s0) < 1e-13


def test_diag_inverse_rejects_constant():
    g = FourierField.constant(T, 1.0)
    with pytest.raises(sv.NonzeroAverageError):
        sv.diag_inverse(airy(), FREQ, g)


def test_diag_inverse_random_residual():
    for seed in range(3):
        g = random_real_field(T, np.random.default_rng(seed), decay=3.0,
                              scale=1.0, zero_total_average=True)
        w = sv.diag_inverse(airy(), FREQ, g)
        assert sobolev_norm(apply_diag_op(airy(), FREQ, w) - g, T.s0) < 1e-11
        assert abs(w.mean) == 0.0


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


def test_right_inverse_projects_rhs_onto_Y():
    # in the reversible case f is projected onto Y, not tested for parity: f
    # and P_Y f give the same h, and h lies in X
    spec = nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=1e-3)
    f = random_real_field(T, np.random.default_rng(4), decay=4.0)
    f_Y = FourierField(T, 0.5 * (f.c - np.flip(f.c)))
    _, h = solve_pipeline(f, spec)
    _, h_Y = solve_pipeline(f_Y, spec)
    assert np.array_equal(h.c, h_Y.c)
    assert np.array_equal(h.c, np.flip(h.c))


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
    h = sv.right_inverse(rg, red, f, "reversible")

    a3, a2, a1, a0 = rg.coefficients
    M = op.materialize_linearized(a3, a2, a1, a0, freq)
    dense, *_ = np.linalg.lstsq(M, op.flatten_field(f), rcond=None)
    h_dense = unflatten_field(trunc, dense)
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
    rep = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=T))
    assert not rep.converged and not rep.excluded_lambda
    assert rep.failure.startswith("StructureError: ") and "mean" in rep.failure


def test_nash_moser_out_of_iterations_is_a_failure():
    spec = nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=1e-3)
    rep = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=T, max_iters=0))
    assert not rep.converged and not rep.excluded_lambda
    assert rep.failure.startswith("DivergenceError: ")
    assert "after 0 iterations" in rep.failure
    assert len(rep.iterates) == 1


def test_nash_moser_non_finite_f_is_a_failure():
    # z3/z0 is 0/0 at u = 0, the first iterate, on every grid node
    spec = nonlin.parse_nonlinearity("cos(phi_1) * sin(x) + z3/z0", "raw_f", epsilon=1e-3)
    rep = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=T))
    nodes = int(np.prod(T.grid_shape))
    assert not rep.converged and not rep.excluded_lambda
    assert rep.failure == f"NonFiniteError: f is not finite at {nodes} of {nodes} grid nodes"
    assert rep.iterates == []


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


@pytest.mark.parametrize("forcing", ["sin(phi_1) * cos(x)", "cos(phi_1) * sin(x)"])
def test_nash_moser_non_reversible_hamiltonian_converges(forcing):
    # a Hamiltonian F need not be reversible: its iterates leave the even
    # class X, so no parity projection may act on them
    spec = nonlin.parse_nonlinearity(f"10 * {forcing} * z0 + z0^2 * z1^2",
                                     "hamiltonian_F", epsilon=1e-3)
    assert not nonlin.structure_flags(spec).reversible
    rep = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=T))
    assert rep.converged, rep.failure
    assert rep.iterates[-1]["res"] < 1e-10
    assert rep.diagnostics["structure"] == "total_derivative"


def test_nash_moser_matches_dense_newton():
    spec = nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=1e-3)
    rep = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=T))
    oracle = sv.galerkin_newton(spec, FREQ, T)
    assert sobolev_norm(rep.solution - oracle, T.s0) < 1e-8


@pytest.mark.parametrize("term", ["sin(z3)", "z3^3"])
def test_fully_nonlinear_solve_matches_dense_newton(term):
    # the paper's fully nonlinear case, f nonlinear in u_xxx: the leading
    # coefficient a3 = 1 + epsilon d_z3 f depends on u, so m3 != 1 at the
    # solution (1.0e-3 and 5.5e-6 here)
    spec = nonlin.parse_nonlinearity(f"30 * cos(phi_1) * sin(x) + {term}", "raw_f",
                                     epsilon=1e-3)
    rep = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=T))
    assert rep.converged, rep.failure or rep.exclusion_reason
    oracle = sv.galerkin_newton(spec, FREQ, T)
    assert sobolev_norm(rep.solution - oracle, T.s0) < 1e-12


def test_nu3_solve_matches_dense_newton():
    # nu = 3 on the default frequency; at epsilon = 1e-3 (gamma = 0.03) the
    # first-order divisor |i omega.l + mu_j| at |l|_inf = 1, j = -1 excludes
    # both lambda = 0.8 and 1.25 at iterate 0
    trunc = Truncation(3, 2, 2)
    freq = Frequency.default(3, lam=1.25)
    text = " + ".join(f"10 * cos(phi_{i}) * sin(x)" for i in (1, 2, 3)) + " + z0^2 * z3"
    spec = nonlin.parse_nonlinearity(text, "raw_f", epsilon=1e-6)
    rep = sv.nash_moser(spec, freq, sv.SolverConfig(trunc=trunc))
    assert rep.converged
    oracle = sv.galerkin_newton(spec, freq, trunc)
    assert sobolev_norm(rep.solution - oracle, trunc.s0) < 1e-8


# the nu = 3 solve above at n_phi = n_x = n, epsilon and lambda, in a process of
# its own so that its peak RSS is the solve's; it prints converged, the last
# residual and the MB
NU3_SOLVE = """
import resource, sys
from qpkdv import nonlin, solver as sv
from qpkdv.spectral import Frequency, Truncation
n, eps, lam = int(sys.argv[1]), float(sys.argv[2]), float(sys.argv[3])
text = " + ".join(f"10 * cos(phi_{i}) * sin(x)" for i in (1, 2, 3)) + " + z0^2 * z3"
spec = nonlin.parse_nonlinearity(text, "raw_f", epsilon=eps)
rep = sv.nash_moser(spec, Frequency.default(3, lam=lam), sv.SolverConfig(trunc=Truncation(3, n, n)))
print(rep.converged, rep.iterates[-1]["res"], resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def nu3_solve(n, eps=1e-6, lam=1.25):
    """(converged, last residual, peak RSS in MB) of the nu = 3 solve at n.

    At the default epsilon = 1e-6 the solve converges in one Newton step from
    u = 0, where the operator is zero and no KAM step runs; epsilon = 1e-4,
    lambda = 1.05 is the chain problem, which relinearizes twice and reduces."""
    src = str(Path(sv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NU3_SOLVE, str(n), repr(eps), repr(lam)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    converged, res, mb = done.stdout.split()
    return converged == "True", float(res), float(mb)


def test_nu3_solve_peak_memory():
    # guards the memory of the torus compositions: evaluated node by node they
    # build a (grid) x (modes)^2 intermediate at nu = 3, and this solve peaks at
    # 585 MB; as transport series on a fixed 4x grid it read about 120 MB, and
    # on the grid each displacement needs about 80 MB
    converged, res, mb = nu3_solve(3)
    assert converged and res < 1e-15 and mb <= 300, (converged, res, mb)


def test_nash_moser_solution_shrinks_with_epsilon():
    norms = {}
    for eps in (1e-3, 1e-4):
        spec = nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=eps)
        rep = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=T))
        assert rep.converged
        norms[eps] = sobolev_norm(rep.solution, T.s0)
    assert norms[1e-4] < norms[1e-3]


def test_nash_moser_excluded_lambda_is_clean(monkeypatch):
    spec = nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=1e-3)
    freq = Frequency.default(1, lam=0.9)
    calls = []
    real_right_inverse = sv.right_inverse

    def counted(*args):
        calls.append(args)
        return real_right_inverse(*args)

    monkeypatch.setattr(sv, "right_inverse", counted)
    rep = sv.nash_moser(spec, freq, sv.SolverConfig(trunc=T))
    assert rep.excluded_lambda and not rep.converged
    # the excluded iterate transports no right-hand side
    assert len(calls) == len(rep.iterates) - 1
    assert rep.exclusion_reason is not None
    # the reduction's steps pass and the first-order screen of its final
    # exponents fails at (l, j) = (-1, -1); the reason names it
    assert "l=(-1,), j=-1" in rep.exclusion_reason
    gamma_n = rep.iterates[-1]["gamma"]
    assert not km.melnikov_mask(np.array([0.9]), [rep.eigs], freq.omega_bar,
                                gamma_n, 3.0, T.n_phi, order="first")[0]


def test_nash_moser_second_order_exclusion_names_divisor_and_bound():
    # the z1 term gives a remainder R far above rounding at u = 0, and the
    # reduction fails at (l, j, k) = (-1, -1, 0); the reason carries the
    # divisor, formed with the exponents of the failed step, and its bound
    # gamma_n |j^3 - k^3| <l>^-tau
    spec = nonlin.parse_nonlinearity(
        "cos(phi_1) * sin(x) + cos(phi_1) * cos(x) * z1 + z0^2 * z3", "raw_f", epsilon=1e-3)
    freq = Frequency.default(1, lam=0.94)
    config = sv.SolverConfig(trunc=T)
    red = km.reduce(reg.regularize_at(spec, freq, FourierField.zeros(T)), freq,
                    config.schedule(1e-3, 0))
    assert red.trace[0]["R_s0"] > 1e-6
    rep = sv.nash_moser(spec, freq, config)
    assert rep.excluded_lambda and not rep.converged
    head, tail = rep.exclusion_reason.split(" at ")
    assert head.startswith("divisor |i omega.l + mu_j - mu_k| = ")
    assert tail == "l=(-1,), j=-1, k=0"
    value, bound = (float(x) for x in head.split(" = ")[1].split(" < "))
    assert value < bound
    delta = -1j * freq.omega[0] + rep.eigs[T.n_x - 1] - rep.eigs[T.n_x]
    assert value == pytest.approx(abs(delta), rel=1e-3)
    assert bound == pytest.approx(rep.iterates[-1]["gamma"], rel=1e-3)

    # FORCED has R = 0 at u = 0: no KAM step runs, and the same divisor fails
    # at first order
    forced = sv.nash_moser(nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=1e-3), freq, config)
    assert forced.excluded_lambda
    assert forced.exclusion_reason.startswith("divisor |i omega.l + mu_j| = ")
    assert forced.exclusion_reason.endswith(" at l=(-1,), j=-1")


def test_solver_config_schedule():
    config = sv.SolverConfig(trunc=T, gamma=0.1, N0=3, kam_max_steps=7)
    sched = config.schedule(1e-3)
    assert (sched.gamma, sched.tau, sched.N0) == (0.1, 3.0, 3)
    # N_k = N0^(chi^k) with the paper's chi = 3/2
    assert [sched.N(k) for k in range(4)] == [3, 5, 12, 41]
    assert (sched.max_steps, sched.target_decay) == (7, 1e-12)
    assert config.schedule(1e-3, n=2).gamma == 0.1 * 1.25
    assert sv.SolverConfig(trunc=T).schedule(1e-4).gamma == 1e-4 ** 0.5


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
    airy = [km.airy_diagonal(trunc.n_x, 1.0, 0.0) for _ in grid]
    base = km.melnikov_mask(grid, airy, (1.0,), g, 3.0, 2 * trunc.n_phi)
    base &= km.melnikov_mask(grid, airy, (1.0,), g, 3.0, trunc.n_phi, order="first")
    assert rep.baseline_fractions[1e-3] == float(base.mean())
    assert rep.gamma_rule == {"rule": "fixed gamma", "gamma": g}


def test_cantor_measure_validates_exponent():
    with pytest.raises(ValueError):
        sv.cantor_measure(FORCED, "raw_f", (1.0,), [1e-3], np.array([1.25]),
                          a=1.5)


def test_cantor_measure_records_failed_point(monkeypatch):
    real = reg.regularize_at

    def flaky(spec, freq, u):
        if freq.lam == 1.0:
            raise reg.ZeroMeanViolation("x-mean of the d_xx coefficient is 2.2e-09")
        return real(spec, freq, u)

    monkeypatch.setattr(reg, "regularize_at", flaky)
    rep = sv.cantor_measure(FORCED, "raw_f", (1.0,), [1e-3],
                            np.array([0.9, 1.0, 1.1]), a=0.5,
                            trunc=Truncation(1, 4, 4))
    bad = rep.records[1e-3][1]
    assert not bad["accepted"] and not bad["excluded"]
    assert bad["error"].startswith("ZeroMeanViolation: x-mean")
    assert len(rep.records[1e-3]) == 3


@pytest.mark.parametrize("text, cause", [
    ("cos(phi_1)*sin(x) + z3*exp(3*cos(x))",
     "DegenerateCoefficientError: space diffeomorphism not invertible"),
    ("cos(phi_1)*sin(x) + 3*z1*cos(x)",
     "SeriesRefused: Neumann contraction fails"),
], ids=["step1", "step5"])
def test_cantor_measure_completes_past_step_failures(text, cause):
    # at epsilon = 1 step 1 (a non-invertible space diffeomorphism) or step 5
    # (a Neumann series refused) fails at every lambda; the scan completes
    rep = sv.cantor_measure(text, "raw_f", (1.0,), [1.0], np.array([0.8, 1.25]),
                            trunc=Truncation(1, 6, 6), config_kw={"gamma": 0.01})
    assert len(rep.records[1.0]) == 2
    for rec in rep.records[1.0]:
        assert not rec["accepted"] and not rec["excluded"]
        assert rec["error"].startswith(cause)


def test_cantor_measure_records_diffeo_non_convergence(monkeypatch):
    # with tolerance 0 no inversion converges within its one iteration; the
    # d_xxx coefficient eps cos(phi) cos(x) does not vanish at u = 0, so the
    # first inversion iterates
    monkeypatch.setattr(spectral, "DIFFEO_MAX_ITER", 1)
    monkeypatch.setattr(spectral, "DIFFEO_TOL", 0.0)
    text = "cos(phi_1)*sin(x) + cos(phi_1)*cos(x)*z3 + z0^2*z3"
    rep = sv.cantor_measure(text, "raw_f", (1.0,), [1e-3], np.array([1.1]),
                            a=0.5, trunc=Truncation(1, 4, 4))
    rec = rep.records[1e-3][0]
    assert not rec["accepted"] and not rec["excluded"]
    assert "did not converge" in rec["error"]


def test_iterate_0_composes_at_order_0(monkeypatch):
    # at u = 0 the linearization of the criterion-8 problem is the Airy
    # operator: every displacement of the chain is 0 up to rounding below the
    # series cutoff, so every composition of iterate 0 (regularization and
    # right inverse) is planned at order 0 and samples nothing
    real_plan, real_regularize = spectral._plan, reg.regularize_at
    orders = []  # one list per Newton iterate

    def plan(*args):
        p = real_plan(*args)
        orders[-1].append(p.order)
        return p

    def regularize_at(*args):
        orders.append([])
        return real_regularize(*args)

    monkeypatch.setattr(spectral, "_plan", plan)
    monkeypatch.setattr(reg, "regularize_at", regularize_at)
    rep = sv.cantor_measure(FORCED, "raw_f", (1.0,), [1e-3], np.array([1.25]), a=0.5,
                            trunc=Truncation(1, 8, 8))
    assert rep.records[1e-3][0]["accepted"]
    # steps 1, 2 and 4 (two inverses, three compositions), then A, B and T
    # in each direction of the right inverse
    assert orders[0] == [0] * 11


def test_iterate_0_does_no_operator_work(monkeypatch):
    # at u = 0 the criterion-8 linearization is the Airy operator: step 5's
    # fields are zero, so R has an empty box (no entry of it is compared with
    # 0), reduce runs no KAM step, and neither the regularization nor the
    # right inverse transforms an operator table
    lengths = _spy_transforms(monkeypatch)
    steps = []
    monkeypatch.setattr(km, "kam_step", lambda *a, _f=km.kam_step: steps.append(1) or _f(*a))
    spec = nonlin.parse_nonlinearity(FORCED, "raw_f", epsilon=1e-3)
    zero = FourierField.zeros(T)
    rg = reg.regularize_at(spec, FREQ, zero)
    assert rg.R.box is None and op.decay_norm(rg.R, T.s0) == 0.0
    center = (slice(2 * T.n_phi, 2 * T.n_phi + 1),)
    assert rg.chain["S"].box == rg.chain["S_inv"].box == center
    config = sv.SolverConfig(trunc=T)
    red = km.reduce(rg, FREQ, config.schedule(spec.epsilon, 0))
    assert steps == [] and red.factors == () and len(red.trace) == 1
    f = sv.project_ball(nonlin.residual(spec, FREQ, zero), 8)
    h = sv.right_inverse(rg, red, f, "reversible")
    assert sobolev_norm(h, T.s0) > 0.0
    assert lengths == []


def _hermitian_defect(table):
    """(largest entry, sup |x - conj(flip(x))|) of a table of offsets (and
    blocks or modes): the defect is 0 for a real operator or field."""
    return np.max(np.abs(table)), float(np.max(np.abs(table - np.conj(np.flip(table)))))


def _scanned_box(table):
    """The box of the offsets whose block is not all zero."""
    return op._support_box(table.any(axis=(-2, -1)))


# the forcing of the nu = 1 bench solve, which relinearizes and reduces; the
# criterion-8 problem converges in one Newton step from u = 0, where every
# operand of step 5 is zero
BENCH_NU1 = "30 * cos(phi_1) * sin(x) + z0^2 * z3"


@pytest.mark.parametrize("text, form, nu, n, lam", [
    (FORCED, "raw_f", 1, 8, 1.25),
    ("10 * cos(phi_1) * sin(x) + 10 * cos(phi_2) * sin(x) + z0^2 * z3", "raw_f", 2, 4, 0.8),
    ("10 * sin(phi_1) * cos(x) * z0 + z0^2 * z1^2", "hamiltonian_F", 1, 8, 1.25),
    (BENCH_NU1, "raw_f", 1, 8, 1.25),
    (BENCH_NU1, "raw_f", 1, 16, 1.25),
], ids=["nu1-n8", "nu2-n4", "hamiltonian", "bench-nu1-n8", "nu1-n16"])
def test_solve_feeds_the_operator_algebra_only_real_operands(monkeypatch, text, form, nu, n, lam):
    # compose and apply multiply the rows j >= 0 of the left operand and
    # mirror the rest, which is the product only when every operand is real.
    # Each operand is real to 1e-12 of its largest entry, or of epsilon (the
    # size of the variable part of the linearized operator) when it is
    # smaller: the remainders and generators of the last KAM steps are
    # cancellations far below epsilon, whose rounding (and Hermitian defect)
    # is that of the larger tables they are computed from, up to 4e-2 of a
    # 6e-21 table at nu = 1, n = 16.  The boxes the operations declare are
    # the ones a scan of the tables finds (that of the left operand's rows
    # j >= 0, and of the whole right operand), so the convolutions run as
    # they did when they scanned; nu2-n4 and nu1-n16 are the bench solves.
    spec = nonlin.parse_nonlinearity(text, form, epsilon=1e-3)
    defects = {"compose": [], "apply": []}
    wider = []
    compose, apply = op.compose, op.apply

    def checked(name, run):
        def call(A, x):
            for table in (A.blocks, x.blocks if name == "compose" else x.c):
                top, defect = _hermitian_defect(table)
                defects[name].append(defect / max(top, spec.epsilon))
            if A.box != _scanned_box(op._upper(A.blocks)):
                wider.append((name, "left", A.box))
            if name == "compose" and op._full(x.box, 4 * n + 1) != _scanned_box(x.blocks):
                wider.append((name, "right", x.box))
            return run(A, x)
        return call

    monkeypatch.setattr(op, "compose", checked("compose", compose))
    monkeypatch.setattr(op, "apply", checked("apply", apply))
    trunc = Truncation(nu, n, n)
    rep = sv.nash_moser(spec, Frequency.default(nu, lam=lam), sv.SolverConfig(trunc=trunc))
    assert rep.converged, rep.failure
    assert defects["compose"] and defects["apply"]
    assert max(defects["compose"] + defects["apply"]) <= 1e-12
    assert wider == []


def test_cantor_measure_records_structure_error():
    # f is neither reversible nor a total derivative: the point fails with
    # that cause instead of aborting the scan
    rep = sv.cantor_measure(
        "cos(phi_1) + z0^2 * z3", "raw_f", (1.0,), [0.2], np.array([0.55]),
        trunc=Truncation(1, 6, 6), config_kw={"gamma": 0.01})
    rec = rep.records[0.2][0]
    assert not rec["accepted"] and not rec["excluded"]
    assert rec["error"].startswith("StructureError: f is neither")


def test_reversible_point_converges_at_the_rounding_floor():
    # at epsilon = 0.2 the right-hand side at lambda = 0.55 keeps its parity
    # only up to rounding; projected onto Y, the solve converges
    rep = sv.cantor_measure(
        "cos(phi_1) * sin(x) + cos(phi_1) * cos(x) * z3 + z0^2 * z3", "raw_f",
        (1.0,), [0.2], np.array([0.55]), trunc=Truncation(1, 6, 6),
        config_kw={"gamma": 0.01})
    rec = rep.records[0.2][0]
    assert rec["accepted"] and rec["error"] is None
    assert rec["residual"] < 1e-10


def test_structure_mode_decides_projection():
    flags = nonlin.StructureFlags
    assert sv.structure_mode(flags(True, False)) == "reversible"
    assert sv.structure_mode(flags(False, True)) == "total_derivative"
    assert sv.structure_mode(flags(True, True)) == "total_derivative"
    with pytest.raises(sv.StructureError, match="neither"):
        sv.structure_mode(flags(False, False))


if __name__ == "__main__":
    # the memory steps of CI:
    # PYTHONPATH=src python tests/test_solver.py <n> <peak MB> [<epsilon> <lambda>]
    n, limit = int(sys.argv[1]), float(sys.argv[2])
    eps, lam = (float(a) for a in sys.argv[3:5]) if len(sys.argv) > 3 else (1e-6, 1.25)
    converged, res, mb = nu3_solve(n, eps, lam)
    print(f"nu = 3, n = {n}, epsilon = {eps:g}, lambda = {lam:g}: converged {converged}, "
          f"residual {res:.2e}, peak RSS {mb:.0f} MB (limit {limit:.0f})")
    sys.exit(0 if converged and res < 1e-15 and mb <= limit else 1)
