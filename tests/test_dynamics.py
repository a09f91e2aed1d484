import math
import resource
import sys
import time
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from qpkdv import cli
from qpkdv import dynamics as dyn
from qpkdv import kamreduce as km
from qpkdv import nonlin
from qpkdv import opalg
from qpkdv import regularize as reg
from qpkdv import solver as sv
from qpkdv.spectral import (FourierField, Frequency, Truncation, omega_dphi, random_real_field,
                            sobolev_norm)

T = Truncation(1, 8, 8)
FREQ = Frequency.default(1, lam=1.25)
FORCED = "cos(phi_1) * sin(x) + z0^2 * z3"


def zero_field(trunc):
    return FourierField(trunc, np.zeros(trunc.shape, dtype=complex))


def pipeline(eps, gamma=None, text=FORCED, form="raw_f"):
    spec = nonlin.parse_nonlinearity(text, form, epsilon=eps)
    rep = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=T))
    assert rep.converged
    rg = reg.regularize_at(spec, FREQ, rep.solution)
    gamma = gamma if gamma is not None else rep.iterates[-1]["gamma"]
    red = km.reduce(rg, FREQ, km.IterationSchedule(gamma=gamma,
                                                   smallness_threshold=1e6))
    return rg, red


# -------------------------------------------------------------- reduced flow


def reduced_flow(mu, v0, t):
    """Exact diagonal flow v_j(t) = e^{-mu_j t} v_j(0)."""
    return np.exp(-mu * t) * v0


def test_reduced_flow_identity_at_zero():
    mu = km.airy_diagonal(T.n_x, 1.0, 0.0)
    v0 = dyn.random_phase_state(T.n_x, np.random.default_rng(0))
    assert np.array_equal(reduced_flow(mu, v0, 0.0), v0)


def test_reduced_flow_airy_conserves_norms():
    mu = km.airy_diagonal(T.n_x, 1.0, 0.0)
    v0 = dyn.random_phase_state(T.n_x, np.random.default_rng(1))
    v1 = reduced_flow(mu, v0, 17.3)
    j = np.arange(-T.n_x, T.n_x + 1)
    assert np.allclose(v1, np.exp(1j * j**3 * 17.3) * v0, atol=1e-14)
    for s in (0.0, 1.0, 2.5):
        norm0 = dyn.profile_norm(v0, s)
        assert abs(dyn.profile_norm(v1, s) - norm0) < 1e-13 * norm0


def test_reduced_flow_semigroup():
    mu = km.airy_diagonal(T.n_x, 1.0, 0.0) + 0.01  # add a real part
    v0 = dyn.random_phase_state(T.n_x, np.random.default_rng(2))
    once = reduced_flow(mu, v0, 5.0)
    twice = reduced_flow(mu, reduced_flow(mu, v0, 2.0), 3.0)
    assert np.max(np.abs(once - twice)) < 1e-13


def test_phase_state_validation_and_reality():
    # a phase state is a centered coefficient vector: 1-D, of odd length
    z = zero_field(Truncation(1, 2, 1))
    for h0 in (np.zeros(4), np.zeros((3, 3))):
        with pytest.raises(ValueError, match="odd length"):
            dyn.integrate_linear((z, z, z, z), FREQ, h0, 1.0, 0.01)
    v = dyn.random_phase_state(4, np.random.default_rng(3))
    assert v.shape == (9,)
    assert np.max(np.abs(np.conj(v) - v[::-1])) < 1e-15


# --------------------------------------------------------------- integrator


def test_integrate_airy_exactly():
    trunc = Truncation(1, 2, 4)
    z = zero_field(trunc)
    # an all-zero step table keeps its l = 0 offset and nothing else
    assert dyn._step_table((z, z, z, z), FREQ, 0.05).shape == (1, 9, 9)
    h0 = dyn.random_phase_state(trunc.n_x, np.random.default_rng(4))
    times, states = dyn.integrate_linear((z, z, z, z), FREQ, h0, 3.0, 0.05)
    j = np.arange(-trunc.n_x, trunc.n_x + 1)
    for t, h in zip(times, states):
        assert np.max(np.abs(h - np.exp(1j * j**3 * t) * h0)) < 1e-12


def test_integrate_scalar_oracle():
    # a0 = cos(phi_1) with omega = 1: every mode decays by e^{-sin t}
    trunc = Truncation(1, 2, 1)
    freq = Frequency.default(1, lam=1.0)
    a0 = FourierField.from_modes(trunc, {(1, 0): 0.5})
    z = zero_field(trunc)
    h0 = np.array([0.3 - 0.1j, 1.0, 0.3 + 0.1j])
    _, states = dyn.integrate_linear((z, z, z, a0), freq, h0, 2.0, 0.005)
    j = np.array([-1, 0, 1])
    exact = h0 * np.exp(1j * j**3 * 2.0 - math.sin(2.0))
    assert np.max(np.abs(states[-1] - exact)) < 1e-10


def test_integrate_self_convergence_order():
    trunc = Truncation(1, 3, 3)
    rng = np.random.default_rng(5)
    from qpkdv.spectral import random_real_field

    coeffs = tuple(random_real_field(trunc, rng, decay=3.0, scale=0.05)
                   for _ in range(4))
    h0 = dyn.random_phase_state(trunc.n_x, rng)
    ends = {}
    for dt in (0.04, 0.02, 0.01):
        _, states = dyn.integrate_linear(coeffs, FREQ, h0, 2.0, dt)
        ends[dt] = states[-1]
    e_coarse = dyn.profile_norm(ends[0.04] - ends[0.01], 1.0)
    e_fine = dyn.profile_norm(ends[0.02] - ends[0.01], 1.0)
    order = math.log(e_coarse / e_fine - 1.0) / math.log(2.0)
    assert order >= 3.5


def test_integrate_time_translation():
    trunc = Truncation(1, 3, 3)
    rng = np.random.default_rng(6)
    from qpkdv.spectral import random_real_field

    coeffs = tuple(random_real_field(trunc, rng, decay=3.0, scale=0.05)
                   for _ in range(4))
    h0 = dyn.random_phase_state(trunc.n_x, rng)
    times, states = dyn.integrate_linear(coeffs, FREQ, h0, 4.0, 0.01)
    t0 = float(times[len(times) // 2])
    _, resumed = dyn.integrate_linear(coeffs, FREQ, states[len(states) // 2], 4.0 - t0,
                                      0.01, t0=t0)
    assert dyn.profile_norm(resumed[-1] - states[-1], 1.0) < 1e-9


def test_integrate_detects_runaway():
    trunc = Truncation(1, 2, 2)
    z = zero_field(trunc)
    a0 = FourierField.constant(trunc, -2.0)  # h' = 2h: exponential growth
    h0 = dyn.random_phase_state(trunc.n_x, np.random.default_rng(7))
    with pytest.raises(dyn.InstabilityError):
        dyn.integrate_linear((z, z, z, a0), FREQ, h0, 20.0, 0.01)


def test_integrate_nonfinite_raises():
    trunc = Truncation(1, 2, 2)
    z = zero_field(trunc)
    a0 = FourierField.constant(trunc, float("nan"))
    h0 = dyn.random_phase_state(trunc.n_x, np.random.default_rng(7))
    with pytest.raises(dyn.InstabilityError, match="t = 0.010"):
        dyn.integrate_linear((z, z, z, a0), FREQ, h0, 1.0, 0.01)


@pytest.mark.parametrize("a0, cause", [
    (float("nan"), r"state is not finite at t = 0\.010"),
    (-2.0, r"\|h\(t\)\|_H1 exceeded 1\.0e\+06 x initial at t = 7\.\d{3}"),
])
def test_instability_names_its_cause(a0, cause):
    trunc = Truncation(1, 2, 2)
    z = zero_field(trunc)
    h0 = dyn.random_phase_state(trunc.n_x, np.random.default_rng(7))
    with pytest.raises(dyn.InstabilityError, match=cause):
        dyn.integrate_linear((z, z, z, FourierField.constant(trunc, a0)), FREQ, h0,
                             20.0, 0.01)


# ------------------------------------------- per-step oracle of the integrator


def _coefficient_matrix_stepwise(coeffs, freq, t, n_x):
    """-(a3 d_xxx + a2 d_xx + a1 d_x + a0) frozen at phi = omega t, rebuilt
    from the coefficient fields: x-profile at phi, then its convolution matrix."""
    phi = freq.omega * t
    j = np.arange(-n_x, n_x + 1)
    off = j[:, None] - j[None, :]
    inside = np.abs(off) <= n_x
    out = np.zeros((2 * n_x + 1, 2 * n_x + 1), dtype=complex)
    for a, k in zip(coeffs, (3, 2, 1, 0)):
        prof = a.c
        for ax in range(a.trunc.nu):
            phases = np.exp(1j * a.trunc.mode_range(ax) * phi[ax])
            prof = np.tensordot(phases, prof, axes=(0, 0))
        conv = np.zeros_like(out)
        conv[inside] = prof[off[inside] + n_x]
        out -= conv * ((1j * j.astype(float)) ** k)[None, :]
    return out


def _integrate_stepwise(coeffs, freq, h0, T, dt, t0=0.0, runaway=1e6):
    """integrate_linear with the frozen matrix rebuilt at every RK4 stage time."""
    n_x = (len(h0) - 1) // 2
    airy = 1j * np.arange(-n_x, n_x + 1).astype(float) ** 3
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        steps += 1
        dt = T / steps
    floor = runaway * (1.0 + dyn.profile_norm(h0, 1.0))

    def filtered(t):
        ph = np.exp(airy * t)
        return (_coefficient_matrix_stepwise(coeffs, freq, t, n_x)
                * (ph[None, :] / ph[:, None]))

    times = np.empty(steps + 1)
    states = np.empty((steps + 1, 2 * n_x + 1), dtype=complex)
    times[0], states[0] = t0, h0
    g = h0 * np.exp(-airy * t0)
    M_lo = filtered(t0)
    for n in range(steps):
        t = t0 + n * dt
        M_mid = filtered(t + 0.5 * dt)
        M_hi = filtered(t + dt)
        k1 = M_lo @ g
        k2 = M_mid @ (g + 0.5 * dt * k1)
        k3 = M_mid @ (g + 0.5 * dt * k2)
        k4 = M_hi @ (g + dt * k3)
        g = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        M_lo = M_hi
        times[n + 1] = t + dt
        states[n + 1] = g * np.exp(airy * (t + dt))
        if dyn.profile_norm(states[n + 1], 1.0) > floor:
            raise dyn.InstabilityError(
                f"|h(t)|_H1 exceeded {runaway:.1e} x initial at t = {t + dt:.3f}"
            )
    return times, states


# The integrator before the step was tabulated: the RK4 stage matrices of a
# chunk of steps frozen in one batch, four matrix-vector products per step.
_STAGE_CHUNK = 32


def _integrate_by_stages(coeffs, freq: Frequency, h0: np.ndarray, T: float,
                         dt: float, runaway: float = 1e6):
    n_x = (len(h0) - 1) // 2
    j = np.arange(-n_x, n_x + 1).astype(float)
    airy = 1j * j ** 3  # h_j' = i j^3 h_j for the unperturbed part

    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        steps += 1
        dt = T / steps
    floor = runaway * (1.0 + dyn.profile_norm(h0, 1.0))

    # -(a3 d_xxx + a2 d_xx + a1 d_x + a0) at phi = omega t is sum_l e^{i omega.l t} N_l
    # over |l_i| <= n_phi, the only offsets a multiplication operator has
    n_phi = coeffs[0].trunc.n_phi
    inner = (slice(n_phi, 3 * n_phi + 1),) * freq.nu
    N = -sum(opalg.from_multiplication(a).blocks[inner] * ((1j * j) ** k)[None, :]
             for a, k in zip(coeffs, (3, 2, 1, 0)))
    omega = freq.omega

    def filtered(t):
        # E(-t) N(t) E(t) with E(t) = diag e^{i j^3 t}, for a batch of times
        ph = np.exp(airy * t[:, None])
        frozen = opalg.freeze(N, np.multiply.outer(t, omega))
        frozen *= ph[:, None, :] * np.conj(ph)[:, :, None]
        return frozen

    times = np.empty(steps + 1)
    states = np.empty((steps + 1, 2 * n_x + 1), dtype=complex)
    times[0], states[0] = 0.0, h0

    half, sixth = 0.5 * dt, dt / 6.0
    g = h0.copy()
    M_lo = filtered(np.array([0.0]))[0]
    for n0 in range(0, steps, _STAGE_CHUNK):
        n = np.arange(n0, min(n0 + _STAGE_CHUNK, steps))
        t = n * dt
        stages = filtered(np.column_stack([t + half, t + dt]).ravel())
        for i, (M_mid, M_hi) in enumerate(stages.reshape(len(n), 2, *M_lo.shape)):
            k1 = M_lo @ g
            k2 = M_mid @ (g + half * k1)
            k3 = M_mid @ (g + half * k2)
            k4 = M_hi @ (g + dt * k3)
            g = g + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            M_lo = M_hi
            states[n0 + 1 + i] = g
        times[n + 1] = t + dt
        states[n + 1] *= np.exp(airy * times[n + 1, None])
        runaway_steps = np.flatnonzero(~(dyn.profile_norm(states[n + 1], 1.0) <= floor))
        if runaway_steps.size:
            raise dyn.InstabilityError(
                f"|h(t)|_H1 exceeded {runaway:.1e} x initial at "
                f"t = {times[n0 + 1 + runaway_steps[0]]:.3f}"
            )
    return times, states


def _random_problem(nu, n, seed):
    trunc = Truncation(nu, n, n)
    rng = np.random.default_rng(seed)
    coeffs = tuple(random_real_field(trunc, rng, decay=3.0, scale=0.05)
                   for _ in range(4))
    return coeffs, dyn.random_phase_state(n, rng)


@pytest.mark.parametrize("case", ["criterion9", "nu2", "ragged", "shifted"])
def test_integrate_matches_stepwise_oracle(case):
    freq, t0 = FREQ, 0.0
    if case == "criterion9":
        rg, _ = pipeline(1e-3)
        coeffs = rg.coefficients
        h0 = dyn.random_phase_state(T.n_x, np.random.default_rng(9), decay=3.0)
        span, dt = 20.0, 0.01
    elif case == "nu2":
        coeffs, h0 = _random_problem(2, 3, 11)
        freq = Frequency.default(2, lam=0.8)
        span, dt = 3.0, 0.01
    elif case == "ragged":  # 334 steps: neither T/dt nor the step count is round
        coeffs, h0 = _random_problem(1, 3, 12)
        span, dt = 1.0, 0.003
    else:
        coeffs, h0 = _random_problem(1, 3, 13)
        span, dt, t0 = 3.0, 0.01, 2.7
    times, states = dyn.integrate_linear(coeffs, freq, h0, span, dt, t0=t0)
    ref_times, ref_states = _integrate_stepwise(coeffs, freq, h0, span, dt, t0=t0)
    assert np.array_equal(times, ref_times)
    assert np.max(np.abs(states - ref_states)) <= 1e-13 * np.linalg.norm(h0)


@pytest.mark.parametrize("growth", [2.0, 60.0])
def test_runaway_time_matches_stepwise(growth):
    # h' = growth h crosses the threshold at step 737 (growth 2) or 25 (growth 60):
    # inside a later chunk or inside the first one, not at a chunk end
    trunc = Truncation(1, 2, 2)
    z = zero_field(trunc)
    coeffs = (z, z, z, FourierField.constant(trunc, -growth))
    h0 = dyn.random_phase_state(trunc.n_x, np.random.default_rng(7))
    with pytest.raises(dyn.InstabilityError) as ref:
        _integrate_stepwise(coeffs, FREQ, h0, 20.0, 0.01)
    with pytest.raises(dyn.InstabilityError) as got:
        dyn.integrate_linear(coeffs, FREQ, h0, 20.0, 0.01)
    assert str(got.value) == str(ref.value)
    crossing = round(float(str(ref.value).rsplit("t = ", 1)[1]) / 0.01)
    assert crossing % dyn._CHUNK != 0


def test_tabulated_step_matches_stage_oracle_over_long_time():
    # 10 000 steps: a near-identity table (P or E(dt) P in place of D = P - I)
    # rounds the same way at every step and drifts past the bound
    rg, _ = pipeline(1e-3)
    h0 = dyn.random_phase_state(T.n_x, np.random.default_rng(9), decay=3.0)
    times, states = dyn.integrate_linear(rg.coefficients, FREQ, h0, 100.0, 0.01)
    ref_times, ref_states = _integrate_by_stages(rg.coefficients, FREQ, h0, 100.0, 0.01)
    assert len(times) == 10001
    assert np.array_equal(times, ref_times)
    assert np.max(np.abs(states - ref_states)) <= 1e-13 * np.linalg.norm(h0)


@pytest.mark.parametrize("nu", [1, 2])
def test_step_table_is_exact_off_grid(nu):
    # the table must resolve D's degree 4 n_phi: an undersampled one is exact
    # only at its grid nodes
    n_x, dt = 3, 0.01
    coeffs, _ = _random_problem(nu, n_x, 20 + nu)
    freq = Frequency.default(nu, lam=0.8)
    table = dyn._step_table(coeffs, freq, dt)
    airy = 1j * np.arange(-n_x, n_x + 1).astype(float) ** 3
    eye = np.eye(2 * n_x + 1)

    def stage(phi, s):  # E(-s) N(phi + omega s) E(s)
        at = SimpleNamespace(omega=phi + freq.omega * s)
        ph = np.exp(airy * s)
        return _coefficient_matrix_stepwise(coeffs, at, 1.0, n_x) * (ph[None, :] / ph[:, None])

    for phi in np.random.default_rng(nu).uniform(0.0, 2.0 * np.pi, (5, nu)):
        A, B, C = stage(phi, 0.0), stage(phi, 0.5 * dt), stage(phi, dt)
        K2 = B @ (eye + 0.5 * dt * A)
        K3 = B @ (eye + 0.5 * dt * K2)
        K4 = C @ (eye + dt * K3)
        D = dt / 6.0 * (A + 2.0 * K2 + 2.0 * K3 + K4)
        assert np.max(np.abs(opalg.freeze(table, phi) - D)) <= 1e-14 * np.max(np.abs(D))


def _bench_nu2():
    """The solve-nu2-n4 benchmark problem, solved and regularized."""
    freq = Frequency.default(2, lam=0.8)
    spec = nonlin.parse_nonlinearity(
        "10 * cos(phi_1) * sin(x) + 10 * cos(phi_2) * sin(x) + z0^2 * z3", "raw_f", epsilon=1e-3)
    rep = sv.nash_moser(spec, freq, sv.SolverConfig(trunc=Truncation(2, 4, 4)))
    assert rep.converged
    return freq, reg.regularize_at(spec, freq, rep.solution)


@pytest.mark.parametrize("case, kept", [("criterion9", (9,)), ("nu2", (9, 9))])
def test_step_table_is_cut_to_the_offsets_above_rounding(case, kept, monkeypatch):
    # the criterion-9 table has content at l in {0, +-2, +-4} (down to
    # 3.4e-18) and FFT rounding (1e-25 to 1.4e-24) at the other 56 offsets;
    # the nu = 2 one keeps 9 x 9 of 33 x 33.  Frozen at any angle, the cut
    # table matches the full one to rounding (measured 4e-16 and 5e-15 of
    # the largest entry)
    if case == "criterion9":
        coeffs, freq = pipeline(1e-3)[0].coefficients, FREQ
    else:
        freq, rg = _bench_nu2()
        coeffs = rg.coefficients
    cut = dyn._step_table(coeffs, freq, 0.01)
    monkeypatch.setattr(dyn, "STEP_FLOOR", 0.0)
    full = dyn._step_table(coeffs, freq, 0.01)
    nu = freq.nu
    assert full.shape[:nu] == (8 * coeffs[0].trunc.n_phi + 1,) * nu
    assert cut.shape[:nu] == kept
    phi = np.random.default_rng(nu).uniform(0.0, 2.0 * np.pi, (20, nu))
    ref = opalg.freeze(full, phi)
    assert np.max(np.abs(opalg.freeze(cut, phi) - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("nu", [1, 2])
def test_step_table_of_decaying_coefficients_is_not_cut(nu):
    # coefficients that decay algebraically put content above the floor at
    # every offset up to 4 n_phi (the least of it about 1e7 rounding units)
    coeffs, _ = _random_problem(nu, 3, 20 + nu)
    table = dyn._step_table(coeffs, Frequency.default(nu, lam=0.8), 0.01)
    assert table.shape[:nu] == (8 * 3 + 1,) * nu


@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("t0", [0.0, 2.7])
def test_chunk_matrices_match_direct_freeze(nu, t0):
    # 334 steps: five whole chunks and a ragged last one of 14; the rows j < 0
    # are the mirror of the rows j >= 0, not frozen themselves
    n_x, dt, steps = 3, 0.003, 334
    coeffs, _ = _random_problem(nu, n_x, 30 + nu)
    freq = Frequency.default(nu, lam=0.8)
    table = dyn._step_table(coeffs, freq, dt)
    frozen = dyn._chunk_freezer(table, freq.omega, dt)
    airy = 1j * np.arange(-n_x, n_x + 1).astype(float) ** 3
    for n0 in range(0, steps, dyn._CHUNK):
        t = t0 + np.arange(n0, min(n0 + dyn._CHUNK, steps)) * dt
        ph = np.exp(airy * t[:, None])
        direct = opalg.freeze(table, np.multiply.outer(t, freq.omega))
        direct *= ph[:, None, :] * np.conj(ph)[:, :, None]
        got = frozen(t)
        scale = np.max(np.abs(direct))
        assert got.shape == direct.shape
        assert np.max(np.abs(got - direct)) <= 1e-14 * scale
        assert np.max(np.abs(got[:, :n_x] - direct[:, :n_x])) <= 1e-14 * scale
        assert np.array_equal(got[:, :n_x], np.conj(got[:, :n_x:-1, ::-1]))
    assert len(t) == steps % dyn._CHUNK


def test_integrate_refuses_non_real_coefficients():
    # the mirrored rows hold only for real coefficients
    trunc = Truncation(1, 2, 2)
    z = zero_field(trunc)
    c = np.zeros(trunc.shape, dtype=complex)
    c[3, 2] = 0.5  # e^{i phi} alone, without its conjugate
    h0 = dyn.random_phase_state(trunc.n_x, np.random.default_rng(7))
    with pytest.raises(ValueError, match=r"Hermitian defect 5\.00e-01"):
        dyn.integrate_linear((z, z, z, FourierField(trunc, c)), FREQ, h0, 1.0, 0.01)
    with pytest.raises(ValueError, match="Hermitian defect"):
        dyn.integrate_linear((FourierField(trunc, 1e-3j * c), z, z, z), FREQ, h0, 1.0, 0.01)
    # a defect at the rounding level of the field passes, as in synthesize
    a0 = FourierField.from_modes(trunc, {(1, 0): 0.5})
    noisy = FourierField(trunc, a0.c + 1e-12 * c)
    _, states = dyn.integrate_linear((z, z, z, noisy), FREQ, h0, 1.0, 0.01)
    assert np.isfinite(states).all()


def test_integrate_peak_memory_is_the_trajectory_and_a_few_chunks():
    # budget: the trajectory plus six arrays of 64 step matrices; the step
    # table's build temporaries and chunks much longer than 64 steps exceed it
    rg, _ = pipeline(1e-3)
    h0 = dyn.random_phase_state(T.n_x, np.random.default_rng(9), decay=3.0)
    tracemalloc.start()
    try:
        _, states = dyn.integrate_linear(rg.coefficients, FREQ, h0, 100.0, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = 2 * T.n_x + 1
    assert peak <= states.nbytes + 6 * 64 * m * m * np.dtype(complex).itemsize


# ------------------------------------------------------------- frozen chain


def _psi_inverse(rg, tau, tol=1e-13, max_iters=50):
    """Solve psi(t) = tau by scalar Newton (psi' = 1 + omega.d_phi alpha > 1/2)."""
    dalpha = omega_dphi(rg.chain["alpha"], rg.freq)
    t = tau
    for _ in range(max_iters):
        r = dyn.psi_map(rg, t) - tau
        if abs(r) < tol * max(1.0, abs(tau)):
            return t
        t -= r / (1.0 + dyn._scalar(dalpha, rg.freq.omega * t))
    raise AssertionError(f"time-reparametrization inversion stalled at tau = {tau}")


def test_psi_inverse_roundtrip():
    rg, _ = pipeline(1e-3)
    for t in (0.0, 1.7, 42.3):
        tau = dyn.psi_map(rg, t)
        assert abs(_psi_inverse(rg, tau) - t) < 1e-11
    assert abs(dyn.psi_map(rg, 5.0) - 5.0) < 0.1  # reparametrization is O(eps)


def _frozen_inverse_chain(rg, red, t):
    """The chain's inverse frozen factor by factor from the inverse maps:
    Phi_k^-1 ... Phi_0^-1 . S^-1 . e^{-i j p} . v^-1 . warp^-1, with warp^-1
    the composition with beta_tilde (after sigma_tilde in hamiltonian mode)."""
    freq, ch, n_x = rg.freq, rg.chain, rg.trunc.n_x
    phi = np.multiply.outer(t, freq.omega)
    theta = np.multiply.outer(dyn.psi_map(rg, t), freq.omega)
    frz = opalg.freeze

    def mult(f, angles):
        return frz(opalg.from_multiplication(f).blocks, angles)

    shift = np.exp(1j * np.multiply.outer(dyn._scalar(ch["p"], theta),
                                          np.arange(-n_x, n_x + 1)))
    inverse = dyn._warp_matrix(frz(ch["beta_tilde"].c, phi), n_x)
    if rg.mode == "hamiltonian":
        inverse = mult(ch["sigma_tilde"], phi) @ inverse
    if ch.get("v") is not None:
        inverse = np.linalg.inv(mult(ch["v"], theta)) @ inverse
    inverse = frz(ch["S_inv"].blocks, theta) @ (np.conj(shift)[:, :, None] * inverse)
    for _, Phi_inv in red.factors:
        inverse = frz(Phi_inv.blocks, theta) @ inverse
    return inverse


def hamiltonian_pipeline():
    # F's z0^2 z1^2 makes beta, sigma - 1 and the remainder nonzero
    spec = nonlin.parse_nonlinearity("cos(phi_1) * cos(x) * z0 + z0^2 * z1^2",
                                     "hamiltonian_F", epsilon=1e-3)
    rep = sv.nash_moser(spec, FREQ, sv.SolverConfig(trunc=T))
    assert rep.converged
    rg = reg.regularize_at(spec, FREQ, rep.solution)
    assert rg.mode == "hamiltonian"
    return rg, km.reduce(rg, FREQ, km.IterationSchedule(gamma=0.01))


@pytest.mark.parametrize("mode", ["generic", "hamiltonian"])
def test_frozen_chain_inverse_matches_factorwise_inverse(mode):
    rg, red = pipeline(1e-3) if mode == "generic" else hamiltonian_pipeline()
    assert np.max(np.abs(rg.chain["beta"].c)) > 0.0
    times = np.array([0.0, 2.4, 42.3, 100.0])
    chain = dyn.FrozenChain.at_time(rg, red, times)
    assert np.max(np.abs(chain.inverse - _frozen_inverse_chain(rg, red, times))) < 1e-12


def _multiplied(red):
    """red with its factors replaced by their product as tables, the pair
    (Phi_0 ... Phi_k, Phi_k^-1 ... Phi_0^-1), each product clipped at
    |l| <= 2 n_phi."""
    Phi, Phi_inv = red.factors[0]
    for P, P_inv in red.factors[1:]:
        Phi, Phi_inv = opalg.compose(Phi, P), opalg.compose(P_inv, Phi_inv)
    return replace(red, factors=((Phi, Phi_inv),))


@pytest.mark.parametrize("nu, n, lam, text, form, scale", [
    (1, 8, 1.25, "30 * cos(phi_1) * sin(x) + z0^2 * z3", "raw_f", 10.0),
    (1, 8, 1.25, "10 * sin(phi_1) * cos(x) * z0 + z0^2 * z1^2", "hamiltonian_F", 10.0),
    (2, 4, 0.8, "10 * cos(phi_1) * sin(x) + 10 * cos(phi_2) * sin(x) + z0^2 * z3", "raw_f", 10.0),
    (2, 4, 0.8, "10 * sin(phi_1) * cos(x) * z0 + 10 * sin(phi_2) * cos(x) * z0 + z0^2 * z1^2",
     "hamiltonian_F", 5.0),
], ids=["nu1-n8-generic", "nu1-n8-hamiltonian", "nu2-n4-generic", "nu2-n4-hamiltonian"])
def test_factored_chain_matches_the_product_of_its_factors(nu, n, lam, text, form, scale):
    # the reduction keeps its steps' factors and never multiplies them: the
    # right inverse applies them in turn, and FrozenChain multiplies them
    # frozen.  Linearized at `scale` times the solution, the three factors do
    # not commute to rounding: taken in the wrong order they move h by
    # 1.0e-13 to 3.5e-12 of its size, and the chain by 3.3e-14 to 9.5e-13.
    # Against their product as tables, the right inverse agrees to rounding
    # and the tails the products clip (measured up to 8.2e-15 of |h|_s0),
    # and the frozen chain up to that tail (the products' dropped-mass
    # bound, 1.7e-25 to 4.6e-22) and rounding (up to 1.2e-15 on entries of
    # size 1)
    trunc, freq = Truncation(nu, n, n), Frequency.default(nu, lam=lam)
    spec = nonlin.parse_nonlinearity(text, form, epsilon=1e-3)
    rep = sv.nash_moser(spec, freq, sv.SolverConfig(trunc=trunc))
    assert rep.converged
    rg = reg.regularize_at(spec, freq, rep.solution * scale)
    red = km.reduce(rg, freq, km.IterationSchedule(gamma=0.01, smallness_threshold=1e6,
                                                   target_decay=1e-20))
    assert red.mode == ("hamiltonian" if form == "hamiltonian_F" else "generic")
    assert red.exclusion is None and len(red.factors) == 3
    once = _multiplied(red)
    structure = sv.structure_mode(nonlin.structure_flags(spec))
    f = sv.project_ball(nonlin.residual(spec, freq, rep.solution * 0.5), n)
    h = sv.right_inverse(rg, red, f, structure)
    gap = sobolev_norm(h - sv.right_inverse(rg, once, f, structure), trunc.s0)
    assert gap <= 2e-14 * sobolev_norm(h, trunc.s0)
    tail = sum(P.dropped_mass for P in once.factors[0])
    assert tail < 1e-20
    times = np.array([0.0, 2.4, 42.3, 100.0])
    chain, ref = (dyn.FrozenChain.at_time(rg, r, times) for r in (red, once))
    assert np.max(np.abs(chain.forward - ref.forward)) <= 1e-14 + tail
    assert np.max(np.abs(chain.inverse - ref.inverse)) <= 1e-14 + tail


def test_frozen_chain_inverts():
    rg, red = pipeline(1e-3)
    batch = dyn.FrozenChain.at_time(rg, red, np.array([0.0, 2.4, 42.3]))
    eye = np.eye(2 * T.n_x + 1)
    assert np.max(np.abs(batch.inverse @ batch.forward - eye)) < 1e-14
    for k, t in enumerate(batch.t):
        one = dyn.FrozenChain.at_time(rg, red, np.array([t]))
        assert batch.tau[k] == pytest.approx(one.tau[0], abs=1e-14)
        assert np.max(np.abs(batch.forward[k] - one.forward[0])) < 1e-13
        assert np.max(np.abs(batch.inverse[k] - one.inverse[0])) < 1e-13


def test_stability_report_unperturbed_is_flat():
    rg, red = pipeline(1e-300, gamma=0.01)
    h0 = dyn.random_phase_state(T.n_x, np.random.default_rng(8), decay=3.0)
    rep = dyn.stability_report(rg, red, FREQ, h0, T=5.0, s=2.0, dt=0.02)
    assert abs(rep["ratio_max"] - 1.0) < 1e-10
    assert rep["v_drift"] < 1e-10


def test_stability_report_pipeline():
    rg, red = pipeline(1e-3)
    h0 = dyn.random_phase_state(T.n_x, np.random.default_rng(9), decay=3.0)
    rep = dyn.stability_report(rg, red, FREQ, h0, T=20.0, s=2.0, dt=0.01)
    assert rep["v_drift"] < 1e-10
    assert 0.9 <= rep["ratio_max"] <= 1.1
    assert rep["endpoint_discrepancy"] < 1e-6
    assert rep["chain_norm_max"] < 2.0
    assert rep["samples"][0]["t"] == 0.0
    assert rep["samples"][-1]["t"] == pytest.approx(20.0)


def test_stability_report_at_nu2():
    # the solve-nu2-n4 benchmark problem, reduced at gamma = 0.01, under the
    # benchmark's stability gates
    freq, rg = _bench_nu2()
    trunc = rg.trunc
    red = km.reduce(rg, freq, km.IterationSchedule(gamma=0.01))
    assert red.exclusion is None
    chain = dyn.FrozenChain.at_time(rg, red, np.array([0.0, 2.4, 42.3]))
    assert np.max(np.abs(chain.inverse @ chain.forward - np.eye(2 * trunc.n_x + 1))) < 1e-14
    h0 = dyn.random_phase_state(trunc.n_x, np.random.default_rng(9), decay=3.0)
    rep = dyn.stability_report(rg, red, freq, h0, T=20.0, s=2.0, dt=0.01)
    assert rep["v_drift"] < 1e-8
    assert 0.9 <= rep["ratio_max"] <= 1.1
    assert rep["endpoint_discrepancy"] < 1e-4
    assert rep["samples"][-1]["t"] == pytest.approx(20.0)


def test_trajectory_csv_roundtrip(tmp_path):
    rg, red = pipeline(1e-3)
    h0 = dyn.random_phase_state(T.n_x, np.random.default_rng(10), decay=3.0)
    rep = dyn.stability_report(rg, red, FREQ, h0, T=1.0, s=2.0, dt=0.05,
                               n_samples=5)
    header = ["t", "h_H1", "h_Hs", "v_Hs", "discrepancy"]
    assert all(list(row) == header for row in rep["samples"])
    path = tmp_path / "trace.csv"
    cli._write_trace(path, header, rep["samples"])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,h_H1,h_Hs,v_Hs,discrepancy"
    assert len(lines) == len(rep["samples"]) + 1
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == pytest.approx(dyn.profile_norm(h0, 1.0))


if __name__ == "__main__":
    # the long-time stability steps of CI:
    #   PYTHONPATH=src python tests/test_dynamics.py <T> <seconds> [<text> <declared_form>]
    # criterion 9's problem (or the nonlinearity given) under criterion 9's
    # gates, as in the acceptance test and the stability benchmark
    span, limit = float(sys.argv[1]), float(sys.argv[2])
    text, form = sys.argv[3:5] if len(sys.argv) > 3 else (FORCED, "raw_f")
    rg, red = pipeline(1e-3, gamma=0.01, text=text, form=form)
    h0 = dyn.random_phase_state(T.n_x, np.random.default_rng(9), decay=3.0)
    start = time.perf_counter()
    rep = dyn.stability_report(rg, red, FREQ, h0, T=span, s=2.0, dt=0.01)
    wall = time.perf_counter() - start
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = (rep["v_drift"] < 1e-8 and 0.9 <= rep["ratio_max"] <= 1.1
          and rep["endpoint_discrepancy"] < 1e-4)
    print(f"{text} ({form}, {rg.mode} mode)")
    print(f"stability_report at T = {span:g}: {wall:.2f} s (limit {limit:g}), peak RSS {mb:.0f} MB, "
          f"v_drift {rep['v_drift']:.2e}, ratio_max {rep['ratio_max']:.9f}, "
          f"endpoint discrepancy {rep['endpoint_discrepancy']:.2e}")
    sys.exit(0 if ok and wall <= limit else 1)
