import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from qpkdv import cli
from qpkdv import kamreduce as km
from qpkdv import nonlin
from qpkdv import opalg as op
from qpkdv import regularize as reg
from qpkdv.spectral import (
    FourierField,
    Frequency,
    Truncation,
    index_weights,
    omega_dphi,
    random_real_field,
    sobolev_norm,
)
from test_opalg import block, matrix_exponential, reality_defect, smooth
from test_regularize import builtin
from test_spectral import embed_field

T = Truncation(1, 8, 8)
FREQ = Frequency.default(1, lam=1.25)


def airy_D(trunc=T, m3=1.0, m1=0.0):
    return km.airy_diagonal(trunc.n_x, m3, m1)


def diagonal_operator(trunc, mu):
    """The Fourier multiplier of the exponents mu_j as a Toplitz operator."""
    return op.from_multiplier(trunc, lambda j: mu[j + trunc.n_x])


def homological_residual(Psi, mu, R, freq, N):
    """sup-entry residual of omega.d_phi Psi + [diag mu, Psi] + Pi_N R - [R]."""
    trunc = Psi.trunc
    t = op.commutator(Psi, freq, mu).blocks + smooth(R, N).blocks
    center = (2 * trunc.n_phi,) * trunc.nu
    diag = np.arange(2 * trunc.n_x + 1)
    t[center + (diag, diag)] -= np.diagonal(R.blocks[center])
    scale = 1.0 + float(np.max(np.abs(R.blocks)))
    return float(np.max(np.abs(t))) / scale


def random_remainder(trunc=T, seed=0, scale=1e-4, band=None):
    """Real random Toplitz remainder, optionally band-limited in time offsets."""
    rng = np.random.default_rng(seed)
    p = random_real_field(trunc, rng, decay=3.0, scale=scale)
    A = op.from_multiplication(p)
    q = random_real_field(trunc, rng, decay=3.0, scale=scale)
    A = op.add(A, op.compose(op.from_multiplication(q), op.from_multiplier(trunc, op.dx_inv_symbol)))
    if band is not None:
        A = smooth(A, band)
    return A


def pipeline(eps=1e-3, scale=5e-4, seed=0, text="z0^2 * z3", form="raw_f"):
    spec = nonlin.parse_nonlinearity(text, form, epsilon=eps)
    u = random_real_field(T, np.random.default_rng(seed), decay=4.0,
                          scale=scale, parity="X")
    return reg.regularize_at(spec, FREQ, u)


# ------------------------------------------------------- homological equation


def test_homological_zero_remainder():
    sol = km.solve_homological(airy_D(), op.identity(T).scale(0.0), FREQ, 4, 0.01, 3.0)
    assert sol.ok
    assert np.all(sol.Psi.blocks == 0)
    assert np.all(sol.diag_part == 0)


def test_homological_single_entry_scalar_divisor():
    blocks = np.zeros((4 * T.n_phi + 1, 17, 17), dtype=complex)
    blocks[2 * T.n_phi + 2, 5, 5] = 0.3  # offset l = 2, j = k
    R = op.ToplitzOperator(T, blocks)
    # Airy exponents keep every divisor with |l| <= N away from zero; at
    # j = k the mu_j cancel and the divisor is the scalar i omega.l
    sol = km.solve_homological(airy_D(), R, FREQ, 4, 1e-8, 3.0)
    assert sol.ok
    expected = -0.3 / (1j * FREQ.omega[0] * 2)
    assert abs(block(sol.Psi, (2,))[5, 5] - expected) < 1e-15


def test_homological_residual_random_instances():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        mu = airy_D() + 1j * 0.01 * rng.standard_normal(17)
        mu = 0.5 * (mu + np.conj(mu[::-1]))  # keep mu_j = conj(mu_{-j})
        R = random_remainder(seed=seed, scale=1e-3)
        N = 6
        sol = km.solve_homological(mu, R, FREQ, N, 1e-9, 3.0)
        assert sol.ok
        assert homological_residual(sol.Psi, mu, R, FREQ, N) < 1e-12


def test_homological_support_and_reality():
    R = random_remainder(seed=3, scale=1e-3)
    sol = km.solve_homological(airy_D(), R, FREQ, 4, 1e-9, 3.0)
    Psi = sol.Psi
    # zero outside |l| <= N and on the (j-k, l) = (0, 0) entries
    for l in range(5, 2 * T.n_phi + 1):
        assert np.all(block(Psi, (l,)) == 0)
        assert np.all(block(Psi, (-l,)) == 0)
    assert np.all(np.diagonal(block(Psi, (0,))) == 0)
    assert reality_defect(Psi) < 1e-15
    # the diagonal part collects R_j^j(0)
    assert np.allclose(sol.diag_part, np.diagonal(block(R, (0,))))


def test_homological_psi_lives_on_the_box_of_r_cut_to_n():
    # Psi is divided out on R's box cut to |l| <= N, which is its declared
    # box; a zero R gives a zero Psi
    c, N = 2 * T.n_phi, 4
    R = random_remainder(seed=3, scale=1e-3)
    for A, width in [(R, N), (smooth(R, 2), 2)]:
        sol = km.solve_homological(airy_D(), A, FREQ, N, 1e-9, 3.0)
        assert sol.Psi.box == (slice(c - width, c + width + 1),)
        assert homological_residual(sol.Psi, airy_D(), A, FREQ, N) < 1e-12
    zero = op.ToplitzOperator(T, np.zeros(op._block_shape(T), dtype=complex))
    sol = km.solve_homological(airy_D(), zero, FREQ, N, 1e-9, 3.0)
    assert sol.ok and sol.Psi.box is None and not sol.Psi.blocks.any()


def test_homological_divisor_violation_reports_indices():
    # craft a near-resonant pair: mu_j - mu_k cancels i omega.l at l = 1
    mu = np.zeros(17, dtype=complex)
    mu[9] = -1j * FREQ.omega[0]  # j = 1 against k = 0 at l = 1
    R = random_remainder(seed=1, scale=1e-3)
    sol = km.solve_homological(mu, R, FREQ, 4, 0.05, 3.0)
    assert not sol.ok
    assert sol.Psi is None
    ex = sol.exclusion
    assert ex.order == "second" and ex.j != ex.k and ex.value < ex.bound


def test_homological_screens_index_set_where_remainder_vanishes():
    # mu_1 - mu_0 cancels i omega.l at l = 1 (and at l = -1 with j, k
    # swapped), but R is zero at those offsets: the paper's index set
    # |l| <= N is screened whatever R holds
    mu = airy_D()
    mu[T.n_x + 1] = mu[T.n_x] - 1j * FREQ.omega[0]
    blocks = np.zeros(op._block_shape(T), dtype=complex)
    blocks[2 * T.n_phi + 2, 5, 5] = 0.3
    # gamma is large enough for further violations of nonzero margin; the
    # reported one is an exact resonance
    gamma = 0.5
    sol = km.solve_homological(mu, op.ToplitzOperator(T, blocks), FREQ, 4, gamma, 3.0)
    within = (index_weights(1, 2 * T.n_phi) <= 4)[:, None, None]
    bad, _, _ = km.screen(FREQ.omega_dot_l(T, double=True),
                          index_weights(1, 2 * T.n_phi, floor=1.0), mu, gamma, 3.0,
                          "second")
    bad &= within
    assert not sol.ok and np.count_nonzero(bad) > 2
    ex = sol.exclusion
    assert (ex.l, ex.j, ex.k) in [((1,), 1, 0), ((-1,), 0, 1)]
    assert ex.value < 1e-12 and ex.bound == pytest.approx(gamma)


@pytest.mark.parametrize("order", ["first", "second"])
def test_screen_matches_brute_force_loop(order):
    # nu = 2, perturbed Airy exponents, the whole table; at first order the
    # kernel (l, j) = (0, 0) has bound 0
    T2 = Truncation(2, 3, 3)
    freq = Frequency.default(2, lam=1.1)
    rng = np.random.default_rng(4)
    mu = airy_D(T2) + 0.3j * rng.standard_normal(7)
    dots = freq.omega_dot_l(T2)
    lsz = index_weights(2, 3, floor=1.0)
    gamma, tau = (0.2, 2.5) if order == "first" else (0.5, 2.5)
    shape = (7, 7, 7) if order == "first" else (7, 7, 7, 7)
    bad, delta, bound = km.screen(dots, lsz, mu, gamma, tau, order)

    expect = np.zeros(shape, dtype=bool)
    for idx in np.ndindex(*shape):
        l = (idx[0] - 3, idx[1] - 3)
        w = max(1, abs(l[0]), abs(l[1])) ** (-tau)
        j = idx[2] - 3
        if order == "first":
            d = 1j * (freq.omega[0] * l[0] + freq.omega[1] * l[1]) + mu[idx[2]]
            b = 0.0 if (l, j) == ((0, 0), 0) else 2.0 * gamma * max(1, abs(j)) ** 3 * w
        else:
            k = idx[3] - 3
            d = (1j * (freq.omega[0] * l[0] + freq.omega[1] * l[1])
                 + mu[idx[2]] - mu[idx[3]])
            b = gamma * abs(j**3 - k**3) * w
        assert abs(delta[idx] - d) < 1e-13 and abs(bound[idx] - b) < 1e-13 * (1 + b)
        assert b == 0 or abs(abs(d) - b) > 1e-9  # no decision sits on round-off
        expect[idx] = abs(d) < b
    assert np.array_equal(bad, expect)
    assert 0 < bad.sum() < bad.size


def test_screen_unknown_order():
    with pytest.raises(ValueError, match="order"):
        km.screen(np.zeros(3), np.ones(3), np.zeros(3, dtype=complex),
                  0.1, 3.0, "third")


def first_order_screen(mu, gamma=1e-3, tau=3.0):
    """`screen` at first order on T's l-table at FREQ."""
    return km.screen(FREQ.omega_dot_l(T), index_weights(1, T.n_phi, floor=1.0),
                     mu, gamma, tau, "first")


@pytest.mark.parametrize("mu0", [0.0, 5j])
def test_first_order_screen_exempts_the_kernel(mu0):
    # the bound 2 gamma <0>^3 <0>^-tau = 20 exceeds |delta(0, 0)| = |mu_0|
    # either way; (l, j) = (0, 0) spans the kernel and is never a violation
    mu = airy_D()
    mu[T.n_x] = mu0
    bad, delta, bound = first_order_screen(mu, gamma=10.0)
    center = (T.n_phi, T.n_x)
    assert delta[center] == mu0 and bound[center] == 0.0 and not bad[center]


def test_first_order_screen_names_indices():
    mu = airy_D()
    mu[T.n_x + 1] = -1j * FREQ.omega[0] * 3  # resonates with l = 3 exactly
    ex = km.smallest_margin("first", *first_order_screen(mu))
    assert ex.j == 1 and ex.l == (3,)


def test_first_order_screen_names_smallest_margin_not_first_violation():
    # (l, j) = (-2, 2) fails with margin 1/2 and comes first in C order;
    # (l, j) = (3, 1) is an exact resonance, the smaller margin
    mu = airy_D()
    mu[T.n_x + 2] = 2j * FREQ.omega[0] + 1e-3j
    mu[T.n_x + 1] = -3j * FREQ.omega[0]
    bad, delta, bound = first_order_screen(mu)
    first = np.argwhere(bad)[0]
    assert (first[0] - T.n_phi, first[1] - T.n_x) == (-2, 2)
    ex = km.smallest_margin("first", bad, delta, bound)
    assert (ex.order, ex.l, ex.j, ex.k) == ("first", (3,), 1, None)
    assert ex.value < 1e-12
    assert str(ex) == f"divisor |i omega.l + mu_j| = {ex.value:.3e} < 7.407e-05 at l=(3,), j=1"


# ---------------------------------------------------------------- kam steps


def make_state(R, **sched_kw):
    kw = {"gamma": 1e-6, "tau": 3.0}
    kw.update(sched_kw)
    sched = km.IterationSchedule(**kw)
    return km.ReducibilityState(
        nu_step=0, eigs=airy_D(), R=R, schedule=sched, mode="generic",
    )


def test_kam_step_already_diagonal():
    mu_r = 1j * np.linspace(-1.0, 1.0, 17) * 1e-4
    R = diagonal_operator(T, mu_r)
    state = make_state(R)
    new = km.kam_step(state, FREQ)
    assert np.allclose(new.eigs, airy_D() + mu_r)
    assert op.decay_norm(new.R, T.s0) < 1e-18


def test_kam_step_diagonal_update_is_center_block_diagonal():
    R = random_remainder(seed=2, scale=1e-4)
    state = make_state(R)
    new = km.kam_step(state, FREQ)
    assert np.allclose(new.eigs - state.eigs, np.diagonal(block(R, (0,))))


def test_kam_step_quadratic_contraction_band_limited():
    # with R supported on |l| <= N0 the tail projector vanishes and the new
    # remainder is quadratically small
    sched = km.IterationSchedule(N0=4, gamma=0.01, tau=3.0)
    R = random_remainder(seed=5, scale=1e-5, band=4)
    state = make_state(R, gamma=0.01)
    new = km.kam_step(state, FREQ)
    r0 = op.decay_norm(R, T.s0)
    r1 = op.decay_norm(new.R, T.s0)
    assert r1 < 10.0 * sched.N0 ** (2.0 * sched.tau + 1.0) / sched.gamma * r0**2


def test_kam_step_contraction_guard():
    R = random_remainder(seed=6, scale=1.0)
    state = make_state(R)
    with pytest.raises(km.ContractionError):
        km.kam_step(state, FREQ)


def test_kam_step_spectrum_preserved():
    # similarity invariance of the materialized operator across one step
    R = random_remainder(seed=7, scale=1e-5, band=2)
    state = make_state(R, gamma=1e-4)
    new = km.kam_step(state, FREQ)

    def spectrum(D, Rop):
        M = op.materialize_matrix(op.add(Rop, diagonal_operator(T, D)), FREQ)
        return np.linalg.eigvals(M)

    before = spectrum(state.eigs, state.R)
    after = spectrum(new.eigs, new.R)
    cost = np.abs(before[:, None] - after[None, :])
    r, c = linear_sum_assignment(cost)
    assert cost[r, c].max() < 1e-9


def _assembled_kam_remainder(state, freq):
    """kam_step's new remainder assembled by hand: in hamiltonian mode the
    conjugation by exp(Psi) with rows(D) Phi - Phi cols(D + [R]), otherwise
    the homological shortcut (I + Psi)^{-1}(Pi_N^perp R + R Psi - Psi [R])."""
    sched, R, D = state.schedule, state.R, state.eigs
    N = sched.cutoff(state.nu_step, R.trunc.n_phi)
    sol = km.solve_homological(D, R, freq, N, sched.gamma, sched.tau)
    Psi = sol.Psi
    if state.mode == "hamiltonian":
        Phi = matrix_exponential(Psi)
        Phi_inv = matrix_exponential(Psi.scale(-1.0))
        dots = freq.omega_dot_l(R.trunc, double=True)
        q = op.ToplitzOperator(R.trunc, (1j * dots)[..., None, None] * Phi.blocks)
        q = op.add(q, op.scale_modes(Phi, rows=D))
        q = op.add(q, op.compose(R, Phi))
        q = op.add(q, op.scale_modes(Phi, cols=-(D + sol.diag_part)))
    else:
        Phi_inv = op.neumann_inverse(Psi)
        q = op.add(R, smooth(R, N).scale(-1.0))
        q = op.add(q, op.compose(R, Psi))
        q = op.add(q, op.scale_modes(Psi, cols=-sol.diag_part))
    return op.compose(Phi_inv, q)


@pytest.mark.parametrize("mode", ["generic", "hamiltonian"])
def test_kam_step_matches_assembled_remainder(mode):
    # the first steps of a pipeline reduction against the hand assembly on
    # the same state, equal up to rounding: of the old remainder in generic
    # mode (1e-15 relative), and in hamiltonian mode of the assembly's
    # rows(D) Phi - Phi cols(D + [R]), two products of size max |mu_j|
    if mode == "hamiltonian":
        rg = pipeline(scale=2e-3, seed=3, text="z1^3", form="hamiltonian_F")
    else:
        rg = pipeline()
    state = km.initial_state(rg, km.IterationSchedule(gamma=0.01))
    assert state.mode == mode
    assert op.decay_norm(state.R, T.s0) > 1e-8
    for _ in range(2):
        new = km.kam_step(state, FREQ)
        old = _assembled_kam_remainder(state, FREQ)
        floor = 1e-14 * op.decay_norm(state.R, T.s0)
        if mode == "hamiltonian":
            floor += 1e-15 * np.max(np.abs(state.eigs))
        assert op.decay_norm(new.R - old, T.s0) < floor
        state = new


# ----------------------------------------------------------- full reduction


def test_reduce_zero_remainder_takes_zero_steps():
    rg = pipeline(eps=0.0 + 1e-300, scale=0.0)
    red = km.reduce(rg, FREQ, km.IterationSchedule(gamma=0.01))
    assert len(red.trace) == 1
    j = np.arange(-8, 9)
    assert np.max(np.abs(red.eigs - (-1j) * j.astype(float) ** 3)) < 1e-11


def test_reduce_pipeline_converges_monotonically():
    rg = pipeline()
    red = km.reduce(rg, FREQ, km.IterationSchedule(gamma=0.01))
    assert red.exclusion is None
    norms = [row["R_s0"] for row in red.trace]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-10
    assert [row["N"] for row in red.trace[:3]] == [4, 8, 16]


def test_excluded_reduce_screens_each_step_once(monkeypatch):
    # at lambda = 7/6 the divisor i omega.l + mu_j - mu_k nearly vanishes at
    # (l, j, k) = (-6, -2, -1): the first step (N = 4) passes, the second
    # (N = 8) is excluded
    freq = Frequency.default(1, lam=7.0 / 6.0)
    spec = nonlin.parse_nonlinearity("z0^2 * z3", "raw_f", epsilon=1e-3)
    u = random_real_field(T, np.random.default_rng(0), decay=4.0, scale=5e-4,
                          parity="X")
    rg = reg.regularize_at(spec, freq, u)
    calls, steps = [], []
    real_solve, real_step = km.solve_homological, km.kam_step

    def counted_solve(*args):
        calls.append(real_solve(*args))
        return calls[-1]

    def counted_step(*args):
        steps.append(real_step(*args))
        return steps[-1]

    monkeypatch.setattr(km, "solve_homological", counted_solve)
    monkeypatch.setattr(km, "kam_step", counted_step)
    red = km.reduce(rg, freq, km.IterationSchedule(gamma=0.01))
    assert red.exclusion is not None
    assert len(steps) == 2 and len(calls) == len(steps)
    # the last accepted step's exponents and factors, with the exclusion
    accepted = steps[0]
    assert accepted.exclusion is None and red.nu_step == accepted.nu_step == 1
    assert red.eigs is accepted.eigs and red.R is accepted.R
    assert red.factors is accepted.factors and len(red.factors) == 1
    assert not calls[-1].ok
    assert red.exclusion == calls[-1].exclusion
    assert (red.exclusion.l, red.exclusion.j, red.exclusion.k) == ((-6,), -2, -1)
    # the excluded step still adds its trace row, at N = 0
    assert red.exclusion.order == "second" and red.trace[-1]["N"] == 0


def test_reduce_smallness_guard():
    rg = pipeline(scale=0.05)
    with pytest.raises(km.SmallnessError):
        km.reduce(rg, FREQ, km.IterationSchedule(gamma=0.01, smallness_threshold=0.1))


def apply_factors(red, z):
    """Phi_0 ... Phi_k z: the reduction's factors applied in turn."""
    for Phi, _ in reversed(red.factors):
        z = op.apply(Phi, z)
    return z


def _conjugation_residual(rg, red, z):
    """|L5(Phi z) - Phi (omega.d_phi + D_inf) z|_{s0} on a probe field, for
    Phi = Phi_0 ... Phi_k."""
    trunc = rg.trunc
    lhs = rg.apply_L5(apply_factors(red, z))
    dz = omega_dphi(z, rg.freq)
    mu = red.eigs
    dz = FourierField(trunc, dz.c + z.c * mu.reshape((1,) * trunc.nu + (-1,)))
    rhs = apply_factors(red, dz)
    return sobolev_norm(lhs - rhs, trunc.s0)


def test_reduce_conjugation_probe():
    rg = pipeline()
    red = km.reduce(rg, FREQ, km.IterationSchedule(gamma=0.01))
    sub = Truncation(1, 4, 4)
    z = embed_field(random_real_field(sub, np.random.default_rng(1), decay=3.0,
                                      scale=1.0), T)
    assert _conjugation_residual(rg, red, z) < 5e-7


def test_reduce_dense_spectrum_oracle():
    rg = pipeline()
    red = km.reduce(rg, FREQ, km.IterationSchedule(gamma=0.01))
    L5 = op.add(rg.R, op.from_multiplier(
        T, lambda j: -1j * (rg.m3 * float(j) ** 3 - rg.m1 * j)))
    M = op.materialize_matrix(L5, FREQ)
    ev = np.linalg.eigvals(M)
    dots = FREQ.omega_dot_l(T)
    pred = (1j * dots[:, None] + red.eigs[None, :]).ravel()
    cost = np.abs(ev[:, None] - pred[None, :])
    r, c = linear_sum_assignment(cost)
    assert cost[r, c].max() < 1e-6


def test_reduce_hamiltonian_mode():
    spec = builtin("hamiltonian_cubic", epsilon=1e-3)
    u = random_real_field(T, np.random.default_rng(3), decay=5.0, scale=2e-3,
                          parity="X")
    rg = reg.regularize_at(spec, FREQ, u)
    sched = km.IterationSchedule(gamma=0.01, smallness_threshold=1e3)
    red = km.reduce(rg, FREQ, sched)
    assert red.exclusion is None
    assert red.trace[-1]["R_s0"] < 1e-10
    rep = km.eigenvalue_report(red.eigs, rg.m3, rg.m1, 1e-3, mode="hamiltonian")
    assert rep["re_mu_max"] < 1e-10
    assert rep["antisym_defect"] < 1e-10


def test_reduce_takes_the_mode_of_its_regularization():
    # a schedule names no mode: a hamiltonian regularization is reduced by
    # the conjugation with exp(Psi), not with I + Psi
    spec = builtin("hamiltonian_cubic", epsilon=1e-3)
    u = random_real_field(T, np.random.default_rng(3), decay=5.0, scale=2e-3,
                          parity="X")
    rg = reg.regularize_at(spec, FREQ, u)
    assert rg.mode == "hamiltonian"
    sched = km.IterationSchedule(gamma=0.01, max_steps=1, smallness_threshold=1e3)
    red = km.reduce(rg, FREQ, sched)
    assert red.mode == "hamiltonian" and red.nu_step == 1
    state = km.initial_state(rg, sched)
    Psi = km.solve_homological(state.eigs, state.R, FREQ, sched.cutoff(0, T.n_phi),
                               sched.gamma, sched.tau).Psi
    (Phi, _), = red.factors
    assert np.array_equal(Phi.blocks, matrix_exponential(Psi).blocks)
    assert not np.array_equal(Phi.blocks, op.add(op.identity(T), Psi).blocks)


def test_eigenvalue_report_reversible_defects():
    rg = pipeline()
    red = km.reduce(rg, FREQ, km.IterationSchedule(gamma=0.01))
    rep = km.eigenvalue_report(red.eigs, rg.m3, rg.m1, 1e-3, mode="reversible")
    assert rep["re_mu_max"] < 1e-10
    assert rep["mu0_abs"] < 1e-12
    assert rep["antisym_defect"] < 1e-10
    assert rep["conj_defect"] < 1e-12


def test_eigenvalue_asymptotics_linear_in_eps():
    # an order-zero term in f makes the exponent corrections linear in eps
    reports = {}
    for eps in (1e-3, 1e-4):
        rg = pipeline(eps=eps, scale=2e-3, text="z0^2 * z3 + z1 + z0")
        sched = km.IterationSchedule(gamma=0.01, smallness_threshold=1e6)
        red = km.reduce(rg, FREQ, sched)
        rep = km.eigenvalue_report(red.eigs, rg.m3, rg.m1, eps)
        reports[eps] = (rep["sup_rj"] / eps, abs(rg.m3 - 1.0) / eps,
                        abs(rg.m1) / eps)
    for a, b in zip(reports[1e-3], reports[1e-4]):
        assert 0.5 < a / b < 2.0


# ------------------------------------------------------------------- masks


def airy_eigs_table(lams, trunc=T):
    return [km.airy_diagonal(trunc.n_x, 1.0, 0.0) for _ in lams]


def test_melnikov_mask_monotone_in_gamma():
    lams = np.linspace(0.5, 1.5, 2001)
    eigs = airy_eigs_table(lams)
    big = km.melnikov_mask(lams, eigs, FREQ.omega_bar, 1e-2, 1.0, 8)
    small = km.melnikov_mask(lams, eigs, FREQ.omega_bar, 1e-3, 1.0, 8)
    assert np.all(small[big])  # accepted at large gamma => accepted at small
    assert big.sum() < small.sum() <= len(lams)


def test_melnikov_mask_double_gamma_inclusion():
    lams = np.linspace(0.5, 1.5, 101)
    eigs = airy_eigs_table(lams)
    gamma = 5e-3
    strict = km.melnikov_mask(lams, eigs, FREQ.omega_bar, 2 * gamma, 3.0, 8)
    loose = km.melnikov_mask(lams, eigs, FREQ.omega_bar, gamma, 3.0, 8)
    assert np.all(loose[strict])  # accepted under 2*gamma => accepted under gamma


def test_melnikov_mask_first_order():
    lams = np.linspace(0.5, 1.5, 101)
    eigs = airy_eigs_table(lams)
    mask = km.melnikov_mask(lams, eigs, FREQ.omega_bar, 1e-3, 3.0, 8,
                            order="first")
    assert mask.dtype == bool and mask.sum() > 0
    # lambda = 1 resonates: i*l*1 + mu_j vanishes at l = j^3
    idx = np.argmin(np.abs(lams - 1.0))
    assert not km.melnikov_mask(np.array([1.0]), airy_eigs_table([1.0]),
                                FREQ.omega_bar, 1e-3, 3.0, 8, order="first")[0]


def test_trace_csv_roundtrip(tmp_path):
    rg = pipeline()
    red = km.reduce(rg, FREQ, km.IterationSchedule(gamma=0.01))
    assert red.exclusion is None
    header = ["step", "N", "R_s0", "R_s0p2", "sup_r"]
    assert all(list(row) == header for row in red.trace)
    path = tmp_path / "trace.csv"
    cli._write_trace(path, header, red.trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,N,R_s0,R_s0p2,sup_r"
    assert len(lines) == len(red.trace) + 1
