import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpkdv import spectral
from qpkdv.opalg import freeze
from qpkdv.spectral import (
    DiffeoConvergenceError,
    FourierField,
    Frequency,
    Truncation,
    analyze,
    compose,
    dx_pow,
    field_from_json,
    field_to_json,
    index_weights,
    invert_torus_diffeo,
    LargeDisplacementError,
    multiply,
    omega_dphi,
    omega_dphi_inv,
    pointwise,
    random_real_field,
    sobolev_norm,
    synthesize,
    x_average,
)

T = Truncation(nu=1, n_phi=6, n_x=6)
RNG = np.random.default_rng(7)


def _nodes(m):
    return 2.0 * np.pi * np.arange(m) / m


def grids(trunc):
    return np.meshgrid(*[_nodes(m) for m in trunc.grid_shape], indexing="ij")


def direct_sum(f, pts):
    """sum_{l,j} u_{l,j} e^{i(l.phi + j x)} at points pts = [phi_1..phi_nu, x],
    term by term; a zero coefficient's term is skipped, which changes no sum."""
    tr = f.trunc
    phases = [np.exp(1j * np.multiply.outer(tr.mode_range(ax), p)) for ax, p in enumerate(pts)]
    out = np.zeros(pts[0].shape, dtype=complex)
    for idx in zip(*np.nonzero(f.c)):
        term = f.c[idx]
        for ax, k in enumerate(idx):
            term = term * phases[ax][k]
        out += term
    return out.real


def reality_defect(f):
    """sup |conj(u_{l,j}) - u_{-l,-j}| over stored indices."""
    return float(np.max(np.abs(np.conj(f.c) - np.flip(f.c))))


def is_real(f, tol):
    """|conj(u_{l,j}) - u_{-l,-j}| <= tol max(1, max |u|) everywhere."""
    return reality_defect(f) <= tol * max(1.0, float(np.max(np.abs(f.c))))


def structure_check(f, tol=1e-12):
    """Reality, parity class membership, and average flags.

    in_X: u(phi, x) = u(-phi, -x); in_Y: u(phi, x) = -u(-phi, -x).
    Tolerances are relative to the s0-norm of the field.
    """
    scale = max(sobolev_norm(f, f.trunc.s0), 1e-300)
    rev = np.flip(f.c)
    cen = (f.trunc.n_phi,) * f.trunc.nu + (f.trunc.n_x,)
    return {
        "is_real": reality_defect(f) <= tol * max(scale, 1.0),
        "in_X": float(np.max(np.abs(f.c - rev))) <= tol * scale,
        "in_Y": float(np.max(np.abs(f.c + rev))) <= tol * scale,
        "zero_space_average": float(np.max(np.abs(f.c[..., f.trunc.n_x]))) <= tol * scale,
        "zero_total_average": abs(f.c[cen]) <= tol * scale,
    }


def embed_field(f, big):
    """Zero-pad a field into a larger truncation (same nu)."""
    if big.nu != f.trunc.nu or big.n_phi < f.trunc.n_phi or big.n_x < f.trunc.n_x:
        raise ValueError("target truncation must dominate the source")
    c = np.zeros(big.shape, dtype=complex)
    c[tuple(slice((b - s) // 2, (b + s) // 2) for b, s in zip(big.shape, f.trunc.shape))] = f.c
    return FourierField(big, c)


def phi_grid_sum(f, gphi, x):
    """sum_{l,j} u_{l,j} e^{i(l.phi + j x)} at the product phi nodes of gphi and x of shape
    (gphi..., anything): the l sums are products with the phase matrices e^{i l phi}, the j sum is
    taken point by point; no transform, so it is exact on any grid."""
    tr = f.trunc
    a = f.c
    for ax, m in enumerate(gphi):
        phases = np.exp(1j * np.multiply.outer(_nodes(m), tr.mode_range(ax)))
        a = np.moveaxis(np.tensordot(phases, a, axes=(1, ax)), 0, ax)
    return np.einsum("...j,...xj->...x", a, np.exp(1j * x[..., None] * tr.mode_range(tr.nu))).real


# oracle truncations: nu = 1 and nu = 2
ORACLE_CASES = [Truncation(1, 4, 4), Truncation(2, 2, 2)]


def oracle_shape(tr, factor=6):
    """An equispaced grid fixed by the test, not chosen by the library: the least even
    length >= factor (2n + 1) per axis.  At 6x the Horner oracles below agree with their
    own 12x results to 6e-16 relative on every transport case, x = 1.3 included."""
    lengths = [factor * (2 * n + 1) for n in (tr.n_phi,) * tr.nu + (tr.n_x,)]
    return tuple(m + m % 2 for m in lengths)


def oracle_grid(tr, factor):
    return list(np.meshgrid(*[_nodes(m) for m in oracle_shape(tr, factor)], indexing="ij"))


# ---------------------------------------------------------------- transforms


def test_cosine_synthesis():
    f = FourierField.from_modes(T, {(0, 1): 0.5})
    phi, x = grids(T)
    assert np.allclose(synthesize(f), np.cos(x), atol=1e-13)


def test_round_trip_random():
    f = random_real_field(T, RNG)
    g = analyze(T, synthesize(f))
    assert np.max(np.abs(g.c - f.c)) < 1e-12


def test_constant_samples():
    ones = np.ones(T.grid_shape)
    f = analyze(T, ones)
    assert abs(f.mean - 1.0) < 1e-14
    c = f.c.copy()
    c[T.n_phi, T.n_x] = 0
    assert np.max(np.abs(c)) < 1e-14


def test_reality_preserved_by_calculus():
    f = random_real_field(T, RNG)
    freq = Frequency.default(1, lam=1.07)
    for g in [dx_pow(f, 2), dx_pow(f, -1), omega_dphi(f, freq), omega_dphi_inv(f, freq)]:
        assert is_real(g, 1e-12)


# ---------------------------------------------------------------- sobolev


def test_norm_constant_field():
    f = FourierField.constant(T, 1.0)
    for s in [0.0, 1.0, 3.5]:
        assert abs(sobolev_norm(f, s) - 1.0) < 1e-15


def test_norm_two_modes():
    f = FourierField.from_modes(T, {(0, 2): 0.5})  # cos(2x)
    assert abs(sobolev_norm(f, 1.0) - np.sqrt(2.0)) < 1e-14


def test_norm_against_double_loop_oracle():
    f = random_real_field(T, RNG)
    s = 1.7
    total = 0.0
    for il in range(2 * T.n_phi + 1):
        for ij in range(2 * T.n_x + 1):
            l, j = il - T.n_phi, ij - T.n_x
            w = max(1, abs(l), abs(j))
            total += w ** (2 * s) * abs(f.c[il, ij]) ** 2
    assert abs(sobolev_norm(f, s) - np.sqrt(total)) < 1e-13 * np.sqrt(total)


@pytest.mark.parametrize("nu, n_l, n_j, floor", [(1, 3, 5, 1.0), (2, 2, None, 0.0),
                                                 (2, 4, 1, 0.0)])
def test_index_weights_match_loop(nu, n_l, n_j, floor):
    w = index_weights(nu, n_l, n_j, floor)
    ranges = [range(-n_l, n_l + 1)] * nu + ([] if n_j is None else [range(-n_j, n_j + 1)])
    for idx in np.ndindex(*w.shape):
        k = [r[i] for r, i in zip(ranges, idx)]
        assert w[idx] == max(floor, *(abs(v) for v in k))
    # cached and shared between callers, hence read-only
    assert index_weights(nu, n_l, n_j, floor) is w
    with pytest.raises(ValueError):
        w[(0,) * w.ndim] = 7.0


def test_norm_monotone_in_s():
    f = random_real_field(T, RNG)
    assert sobolev_norm(f, 1.0) <= sobolev_norm(f, 2.0)


# ---------------------------------------------------------------- dx powers


def test_dx_inverse_single_mode():
    f = FourierField.from_modes(T, {(0, 3): 1.0})
    g = dx_pow(f, -1)
    assert np.allclose(g.c[T.n_phi, T.n_x + 3], 1.0 / (3j))
    const = FourierField.constant(T, 1.0)
    assert np.max(np.abs(dx_pow(const, -1).c)) == 0.0


def test_dx_inv_dx_is_pi0():
    f = random_real_field(T, RNG)
    g = dx_pow(dx_pow(f, 1), -1)
    expected = f.c.copy()
    expected[..., T.n_x] = 0.0  # the x-average column is annihilated
    assert np.max(np.abs(g.c - expected)) < 1e-14
    h = dx_pow(dx_pow(f, -1), 1)
    assert np.max(np.abs(h.c - expected)) < 1e-14


def test_third_derivative_of_cos():
    f = FourierField.from_modes(T, {(0, 1): 0.5})  # cos x
    g = dx_pow(f, 3)  # should be sin x
    sin = FourierField.from_modes(T, {(0, 1): -0.5j})
    assert np.max(np.abs(g.c - sin.c)) < 1e-14


# ---------------------------------------------------------------- omega.dphi


def test_omega_dphi_inv_scalar():
    freq = Frequency((1.0,), lam=1.0)
    f = FourierField.from_modes(T, {(1, 0): 0.5})  # cos(phi)
    g = omega_dphi_inv(f, freq)
    sin = FourierField.from_modes(T, {(1, 0): -0.5j})  # sin(phi)
    assert np.max(np.abs(g.c - sin.c)) < 1e-14


def test_omega_dphi_roundtrip():
    freq = Frequency.default(1, lam=1.31)
    f = random_real_field(T, RNG)
    g = omega_dphi(omega_dphi_inv(f, freq), freq)
    expected = f.c.copy()
    expected[T.n_phi, :] = 0.0
    assert np.max(np.abs(g.c - expected)) < 1e-12


def test_omega_dphi_inv_two_frequencies():
    t2 = Truncation(nu=2, n_phi=3, n_x=3)
    freq = Frequency.default(2, lam=0.83)
    f = random_real_field(t2, np.random.default_rng(3))
    g = omega_dphi(omega_dphi_inv(f, freq), freq)
    expected = f.c.copy()
    expected[t2.n_phi, t2.n_phi, :] = 0.0
    assert np.max(np.abs(g.c - expected)) < 1e-12


def test_default_frequency_up_to_three_angles():
    # the cubic-field basis passes the default witness; nu > 3 has no default
    assert Frequency.default(3).omega_bar == pytest.approx(
        (1.0, 2.0 ** (1.0 / 3.0) - 1.0, 4.0 ** (1.0 / 3.0) - 1.0), abs=1e-15)
    with pytest.raises(ValueError, match="pass omega_bar"):
        Frequency.default(4)


def test_diophantine_witness_rejects_resonant():
    with pytest.raises(ValueError):
        Frequency((1.0, 0.5))  # resonant at l = (1, -2)


def test_omega_dphi_inv_guards_every_l_but_zero():
    # omega = (1, 1) is resonant at l = (1, -1); built past the witness check
    freq = object.__new__(Frequency)
    object.__setattr__(freq, "omega_bar", (1.0, 1.0))
    object.__setattr__(freq, "lam", 1.0)
    f = FourierField.from_modes(Truncation(2, 2, 2), {(1, -1, 1): 0.5})
    with pytest.raises(ZeroDivisionError, match="underflow"):
        omega_dphi_inv(f, freq)


def test_omega_dphi_inv_underflow_is_a_numerical_failure_at_centered_l():
    # omega_bar = (1, 21/34) passes the witness, which stops at |l| = 24, and
    # resonates at l = (-21, 34): a solve records the failure, and the message
    # names the centered l, not the array index (13, 68)
    freq = Frequency((1.0, 21.0 / 34.0), lam=1.0)
    f = FourierField.from_modes(Truncation(2, 34, 1), {(1, 0, 1): 0.5})
    with pytest.raises(spectral.DivisorUnderflowError, match=r"at l = \(-21, 34\)") as info:
        omega_dphi_inv(f, freq)
    assert isinstance(info.value, spectral.NumericalFailure)
    assert isinstance(info.value, ZeroDivisionError)


# ---------------------------------------------------------------- compose


# The Horner oracle: the former compose and invert_torus_diffeo, which evaluate
# a field at every displaced node of a grid by Horner's rule (a nonuniform DFT),
# exact to rounding for any displacement.  It runs on oracle_shape's grid, which
# the library does not choose, so its only error is the projection's aliasing.


def _horner(c, z, real=False):
    """sum_m c_m z^m at unit phases z = e^{ip} by Horner's rule in place; the modes run
    along axis 0 of c, each c[k] broadcasting against z: -n..n, or with ``real`` the modes
    0..n of a Hermitian sequence, for which c_0 + 2 Re sum_{m>=1} c_m z^m is returned."""

    def tail(coef, w):  # sum_{m>=1} coef[m - 1] w^m
        acc = coef[-1] * w
        for ck in coef[-2::-1]:
            acc += ck
            acc *= w
        return acc

    if real:
        return c[0].real + 2.0 * tail(c[1:], z).real
    n = len(c) // 2  # the negative modes use conj(z) = 1/z
    return c[n] + tail(c[n + 1:], z) + tail(c[n - 1::-1], z.conj())


def _at_time_nodes(c, gphi, freq, alpha, real=False):
    """sum_l c_l e^{i l.theta}, c of layout (l_1..l_nu, rest...), one phi axis at a time at the nodes
    theta = phi + omega alpha(phi): (phi grid..., rest...); ``real``: c Hermitian in l, l_1 >= 0 read."""
    mesh = np.meshgrid(*[_nodes(m) for m in gphi], indexing="ij")
    a = c[None, len(c) // 2:] if real else c[None]  # the nodes lead, passengers follow
    for ax in range(len(gphi) - 1, -1, -1):
        z = np.exp(1j * (mesh[ax] + freq.omega[ax] * alpha)).reshape((-1,) + (1,) * (a.ndim - 2))
        a = _horner(np.moveaxis(a, ax + 1, 0), z, real and ax == 0)
    return a.reshape(gphi + a.shape[1:])


def horner_compose(kind, f, disp, freq=None):
    tr = f.trunc
    gs = oracle_shape(tr)
    half = f.c[None, ..., tr.n_x:]
    if kind == "space":
        hyb = np.moveaxis(spectral._phi_synth(tr, half, gs[:-1]), -1, 0)[..., None]
        return analyze(tr, _horner(hyb, np.exp(1j * (_nodes(gs[-1]) + synthesize(disp, gs))), real=True))[0]
    hyb = _at_time_nodes(np.moveaxis(half, 0, tr.nu), gs[:-1], freq, synthesize(disp, gs)[..., 0])
    return spectral._from_x_half(tr, np.moveaxis(hyb, tr.nu, 0))[0]


def horner_invert(kind, disp, freq=None, tol=1e-13):
    tr = disp.trunc
    gs = oracle_shape(tr)
    if kind == "space":
        hyb = np.moveaxis(spectral._phi_synth(tr, disp.c[None, ..., tr.n_x:], gs[:-1]), -1, 0)[..., None]
        y, cur = _nodes(gs[-1]), np.zeros(gs)

        def step(bt):
            return -_horner(hyb, np.exp(1j * (y + bt)), real=True)[0]
    else:
        a, cur = disp.c[..., tr.n_x], np.zeros(gs[:-1])

        def step(at):
            return -_at_time_nodes(a, gs[:-1], freq, at, real=True)
    for _ in range(200):
        new = step(cur)
        delta, cur = np.max(np.abs(new - cur)), new
        if delta < tol:
            break
    return analyze(tr, cur if kind == "space" else np.broadcast_to(cur[..., None], gs))


def test_compose_zero_displacement_identity():
    f = random_real_field(T, RNG)
    beta = FourierField.zeros(T)
    g = compose("space", f, beta)
    assert np.max(np.abs(g.c - f.c)) < 1e-12


def _planned_compose(kind, f, d, freq):
    """compose's general path, planned even at a zero displacement: the
    fields times the phase of the plan, with the series past order 0."""
    fields = [f] if isinstance(f, FourierField) else list(f)
    plan = spectral._plan(kind, d, freq)
    moved = [FourierField(d.trunc, g.c * plan.phase) for g in fields]
    if plan.order:
        s = plan.samples - d.mean
        table = plan.tables(np.stack([g.c for g in moved])[..., d.trunc.n_x:])
        series = plan.project(spectral._transport_sum(table, plan.order, s))
        moved = [g + h for g, h in zip(moved, series)]
    return moved if isinstance(f, list) else moved[0]


@pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
@pytest.mark.parametrize("kind", ["space", "time"])
def test_compose_zero_displacement_is_the_planned_path_unplanned(kind, batched, monkeypatch):
    tr = Truncation(2, 3, 3)
    rng = np.random.default_rng(11)
    freq = Frequency.default(2, lam=0.9)
    f = [random_real_field(tr, rng) for _ in range(3)] if batched else random_real_field(tr, rng)
    zero = FourierField.zeros(tr)
    expected = _planned_compose(kind, f, zero, freq)

    def same(a, b):
        a, b = (x if isinstance(x, list) else [x] for x in (a, b))
        return len(a) == len(b) and all(g.trunc == h.trunc and np.array_equal(g.c, h.c)
                                        for g, h in zip(a, b))
    # the reference is the general path: it agrees with compose off zero
    d = random_real_field(tr, rng, decay=3.0, scale=0.02)
    d = x_average(d) if kind == "time" else d
    assert same(compose(kind, f, d, freq), _planned_compose(kind, f, d, freq))
    monkeypatch.setattr(spectral, "_plan", lambda *a: pytest.fail("a zero displacement is planned"))
    out = compose(kind, f, zero, freq)
    assert isinstance(out, list) == batched and same(out, expected)


@pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
def test_compose_zero_displacement_keeps_every_check(batched):
    freq = Frequency.default(1, lam=1.0)
    zero = FourierField.zeros(T)

    def fields(*f):
        return list(f) if batched else f[-1]
    ok = fields(random_real_field(T, RNG), random_real_field(T, RNG))
    with pytest.raises(ValueError, match="the time kind needs a Frequency"):
        compose("time", ok, zero)
    with pytest.raises(ValueError, match="unknown diffeomorphism kind 'shear'"):
        compose("shear", ok, zero, freq)
    with pytest.raises(ValueError, match="truncation mismatch"):
        compose("space", ok, FourierField.zeros(Truncation(1, 6, 5)))
    # the Hermitian check at a zero displacement: test_non_hermitian_field_is_rejected


def test_compose_constant_shift_is_phase():
    c = 0.3
    f = FourierField.from_modes(T, {(0, 1): 1.0})
    beta = FourierField.constant(T, c)
    g = compose("space", f, beta)
    # e^{i(x + c)} picks up the phase e^{ic} on the +1 mode
    assert abs(g.c[T.n_phi, T.n_x + 1] - np.exp(1j * c)) < 1e-12


def test_compose_space_fine_grid_oracle():
    for tr in ORACLE_CASES:
        rng = np.random.default_rng(5)
        f = random_real_field(tr, rng, decay=3.0)
        beta = random_real_field(tr, rng, decay=3.0, scale=0.05 / tr.nu)  # |beta_x| < 1/2
        g = compose("space", f, beta)
        # oracle: term-by-term evaluation on an 8x oversampled grid; x = 1.73 at nu = 1
        pts = oracle_grid(tr, 8)
        moved = pts[:-1] + [pts[-1] + direct_sum(beta, pts)]
        oracle = analyze(tr, direct_sum(f, moved))
        assert np.max(np.abs(g.c - oracle.c)) <= 1e-12 * np.max(np.abs(oracle.c))


@pytest.mark.parametrize("tr", ORACLE_CASES, ids=["nu1", "nu2"])
def test_compose_time_fine_grid_oracle(tr):
    rng = np.random.default_rng(6)
    freq = Frequency.default(tr.nu, lam=1.1)
    f = random_real_field(tr, rng, decay=3.0)
    alpha = x_average(random_real_field(tr, rng, decay=3.0, scale=0.05))
    g = compose("time", f, alpha, freq)
    pts = oracle_grid(tr, 8)  # x = 1.5 at nu = 2
    a = direct_sum(alpha, pts)
    moved = [pts[ax] + freq.omega[ax] * a for ax in range(tr.nu)] + [pts[-1]]
    oracle = analyze(tr, direct_sum(f, moved))
    assert np.max(np.abs(g.c - oracle.c)) <= 1e-12 * np.max(np.abs(oracle.c))


@pytest.mark.parametrize("kind", ["space", "time"])
@pytest.mark.parametrize("tr", ORACLE_CASES, ids=["nu1", "nu2"])
def test_inverse_diffeo_fixed_point_oracle(tr, kind):
    rng = np.random.default_rng(8)
    freq = Frequency.default(tr.nu, lam=0.9)
    disp = random_real_field(tr, rng, decay=3.0, scale=0.02)
    if kind == "time":
        disp = x_average(disp)
    inv = invert_torus_diffeo(kind, disp, freq)
    # oracle: the same fixed point node by node, with the displacement summed
    # term by term on a 10x oversampled grid that the library does not choose
    # (the time kind's at x = 0 only: alpha does not depend on x).  The inverse
    # displacement is not band-limited: at nu = 2, n = 2 the space kind's
    # reference moves by 9.0e-9 from the 4x to the 8x grid (the aliasing of the
    # fixed composition grid the library once used), by 1.2e-13 from the 8x to
    # the 12x grid, and by 2e-16 from the 10x to the 16x grid
    gs = oracle_shape(tr, 10)
    pts = oracle_grid(tr, 10)
    if kind == "time":
        pts = [p[..., :1] for p in pts]
    cur = np.zeros(pts[0].shape)
    for _ in range(100):
        if kind == "space":
            new = -phi_grid_sum(disp, gs[:-1], pts[-1] + cur)
        else:
            new = -direct_sum(disp, [pts[ax] + freq.omega[ax] * cur for ax in range(tr.nu)] + pts[-1:])
        delta, cur = np.max(np.abs(new - cur)), new
        if delta < 1e-14:
            break
    oracle = analyze(tr, np.broadcast_to(cur, gs))
    assert np.max(np.abs(inv.c - oracle.c)) <= 1e-12 * np.max(np.abs(oracle.c))


@pytest.mark.parametrize("kind", ["space", "time"])
def test_compose_batch_matches_single_calls_and_reruns(kind):
    tr = Truncation(2, 3, 3)
    rng = np.random.default_rng(9)
    freq = Frequency.default(2, lam=0.9)
    fields = [random_real_field(tr, rng) for _ in range(3)]
    disp = random_real_field(tr, rng, decay=3.0, scale=0.02)
    if kind == "time":
        disp = x_average(disp)
    batch = compose(kind, fields, disp, freq)
    assert len(batch) == len(fields)
    for f, g in zip(fields, batch):
        assert np.array_equal(g.c, compose(kind, f, disp, freq).c)
    # two identical calls give bit-identical results
    again = compose(kind, fields, disp, freq)
    assert all(np.array_equal(g.c, h.c) for g, h in zip(batch, again))


def transport_case(kind, tr, freq, x, mean, rng):
    """A displacement whose transport series has x = max|m| max|d - mean d| on the
    oracle grid, m = j (space) or omega.l (time), shifted by the constant mean."""
    d = random_real_field(tr, rng, decay=6.0, zero_total_average=True)
    if kind == "time":
        d = x_average(d)
    m = tr.n_x if kind == "space" else tr.n_phi * np.sum(np.abs(freq.omega))
    d = d * (x / (m * np.max(np.abs(synthesize(d, oracle_shape(tr))))))
    return d.shift_mean(mean)


# per kind, the least modes along the displaced axes that carry x = 1.3 at a slope below 1/2
TRANSPORT_CASES = {"space": [Truncation(1, 4, 4), Truncation(2, 3, 4), Truncation(3, 1, 3)],
                   "time": [Truncation(1, 4, 4), Truncation(2, 3, 4), Truncation(3, 2, 1)]}


@pytest.mark.parametrize("kind", ["space", "time"])
@pytest.mark.parametrize("nu", [1, 2, 3], ids=["nu1", "nu2", "nu3"])
def test_transport_series_matches_horner_oracle(nu, kind):
    # x from 1e-17 to 1.3, and a large constant, the exact phase, plus a small
    # part; a batch equals its single calls bit for bit.  The grid: along each
    # displaced axis (phi, and x for the space kind) at least (K + 1) n + 1
    # points, where the series order K has x^K/K! <= 1e-17, since orders k < K
    # have bandwidth (k + 1) n <= K n; the standard grid while K <= 3
    tr = TRANSPORT_CASES[kind][nu - 1]
    rng = np.random.default_rng(nu)
    freq = Frequency.default(tr.nu, lam=0.9)
    fields = [random_real_field(tr, rng, decay=2.0) for _ in range(2)]
    for x, mean in [(1e-17, 0.0), (1e-8, 0.0), (0.1, 0.0), (1.3, 0.0), (0.1, 50.0)]:
        disp = transport_case(kind, tr, freq, x, mean, rng)
        gs = spectral._plan(kind, disp, freq).grid
        order = next(k for k in range(1, 100) if x ** k / math.factorial(k) <= 1e-17)
        displaced = [tr.n_phi] * nu + ([tr.n_x] if kind == "space" else [])
        assert all(g >= (order + 1) * n + 1 for g, n in zip(gs, displaced)), (x, gs)
        assert all(g >= std for g, std in zip(gs, tr.grid_shape))
        if kind == "time":  # it does not displace x
            assert gs[-1] == tr.grid_shape[-1]
        if x <= 1e-8:  # K = 3, and (K + 1) n + 1 fits the standard 4n + 2 points
            assert gs == tr.grid_shape
        batch = compose(kind, fields, disp, freq)
        for f, g in zip(fields, batch):
            assert np.array_equal(g.c, compose(kind, f, disp, freq).c)
        oracle = horner_compose(kind, fields[0], disp, freq)
        assert np.max(np.abs(batch[0].c - oracle.c)) <= 1e-13 * np.max(np.abs(oracle.c)), (x, mean)
        oracle = horner_invert(kind, disp, freq)
        inv = invert_torus_diffeo(kind, disp, freq)
        assert np.max(np.abs(inv.c - oracle.c)) <= 1e-13 * np.max(np.abs(oracle.c)), (x, mean)


@pytest.mark.parametrize("kind", ["space", "time"])
def test_transport_series_refuses_large_displacement(kind):
    # slope 0.45 <= 1/2, but x = 24 * 0.45 = 10.8, where e^x eps exceeds 1e-12
    tr = Truncation(1, 2, 24) if kind == "space" else Truncation(1, 24, 2)
    freq = Frequency.default(1, lam=1.0)
    disp = FourierField.from_modes(tr, {(0, 1) if kind == "space" else (1, 0): 0.225})
    with pytest.raises(LargeDisplacementError, match=r"x = max\|m\| max\|d - mean d\| = 10.8 > 8.41"):
        compose(kind, random_real_field(tr, RNG), disp, freq)
    with pytest.raises(LargeDisplacementError, match=r"= 10.8 > 8.41"):
        invert_torus_diffeo(kind, disp, freq)


@pytest.mark.parametrize("kind", ["space", "time"])
def test_oversized_grid_is_refused_before_sampling(kind):
    # x_bound >= 16 caps the series order at K = 49 (x = _X_MAX), so each displaced axis
    # of nu = 3, n = 4 would take 216 points: 216^4 x 50 tables for the space kind,
    # 216^3 x 18 x 50 for the time kind, refused before d is sampled
    tr = Truncation(3, 4, 4)
    freq = Frequency.default(3, lam=1.0)
    disp = FourierField.from_modes(tr, {(0, 0, 0, 1) if kind == "space" else (1, 0, 0, 0): 2.0})
    grid = "(216, 216, 216, 216)" if kind == "space" else "(216, 216, 216, 18)"
    for run in (lambda: compose(kind, random_real_field(tr, RNG), disp, freq),
                lambda: invert_torus_diffeo(kind, disp, freq)):
        tracemalloc.start()
        try:
            with pytest.raises(LargeDisplacementError, match=re.escape(f"grid {grid} for 50 tables")):
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def _tiny_displacement(kind, tr, freq, mean):
    """A displacement whose non-mean modes have x_bound = max|m| sum|d_{l,j}| = 5e-18."""
    d = random_real_field(tr, np.random.default_rng(4), zero_total_average=True)
    if kind == "time":
        d = x_average(d)
    m = tr.n_x if kind == "space" else np.max(np.abs(freq.omega_dot_l(tr)))
    return (d * (5e-18 / (m * np.sum(np.abs(d.c))))).shift_mean(mean)


@pytest.mark.parametrize("kind", ["space", "time"])
def test_order_0_composition_is_the_exact_phase(kind, monkeypatch):
    # at x_bound <= 1e-17 the series is its k = 0 term: the phase e^{i m c} of the
    # mean c, taken exactly, and the inverse is the constant -c; nothing is sampled,
    # synthesized or analyzed
    tr = Truncation(2, 3, 4)
    freq = Frequency.default(2, lam=0.9)
    f = random_real_field(tr, np.random.default_rng(3))
    disp = _tiny_displacement(kind, tr, freq, 0.7)
    assert disp.mean == 0.7
    plan = spectral._plan(kind, disp, freq)
    assert plan.order == 0 and plan.samples is None

    def refuse(*args, **kwargs):
        raise AssertionError("a transform ran")

    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    m = tr.mode_range(tr.nu) if kind == "space" else freq.omega_dot_l(tr)[..., None]
    assert np.array_equal(compose(kind, f, disp, freq).c, f.c * np.exp(1j * m * 0.7))
    assert np.array_equal(invert_torus_diffeo(kind, disp, freq).c,
                          FourierField.constant(tr, -0.7).c)
    # order 0 is the series cutoff, not an exact zero
    assert spectral._series_order(1e-17) == 0
    assert spectral._series_order(1e-16) == 2


@pytest.mark.parametrize("n, length", [(1, 6), (2, 10), (3, 16), (4, 18), (5, 24), (6, 30),
                                       (8, 36), (12, 50), (16, 72), (24, 100)])
def test_grid_shape_is_the_least_even_smooth_length(n, length):
    # the least even 2-3-5-smooth length >= 4n + 2 on every axis: pocketfft is slow
    # on large prime factors (34 = 2 x 17, 66 = 2 x 3 x 11)
    assert Truncation(2, n, n).grid_shape == (length,) * 3
    assert Truncation(1, n, 1).grid_shape == (length, 6)
    for g in range(4 * n + 2, length):  # no shorter even smooth length fits
        rest = g
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        assert g % 2 or rest > 1


def test_omega_dot_l_is_one_read_only_table():
    tr, freq = Truncation(2, 3, 3), Frequency.default(2, lam=1.1)
    dots = freq.omega_dot_l(tr)
    assert freq.omega_dot_l(tr) is dots
    assert Frequency.default(2, lam=1.1).omega_dot_l(tr, double=True) is freq.omega_dot_l(tr, double=True)
    with pytest.raises(ValueError, match="read-only"):
        dots[0, 0] = 1.0


def test_non_hermitian_field_is_rejected():
    c = np.zeros(T.shape, dtype=complex)
    c[T.n_phi, T.n_x + 1] = 1.0  # e^{ix} without its conjugate partner
    f = FourierField(T, c)
    freq = Frequency.default(1, lam=1.0)
    with pytest.raises(ValueError, match="not real"):
        synthesize(f)
    for kind in ("space", "time"):  # a zero displacement, which compose does not plan
        with pytest.raises(ValueError, match="not real"):
            compose(kind, f, FourierField.zeros(T), freq)
        with pytest.raises(ValueError, match="not real"):
            compose(kind, [FourierField.zeros(T), f], FourierField.zeros(T), freq)


@pytest.mark.parametrize("n_x", [8, 16])
def test_eval_x_displaced_matches_direct_sum(n_x):
    # the Horner primitive, complex (all modes) and real (half spectrum)
    tr = Truncation(nu=1, n_phi=3, n_x=n_x)
    rng = np.random.default_rng(n_x)
    hyb = rng.standard_normal((10, 2 * n_x + 1)) + 1j * rng.standard_normal((10, 2 * n_x + 1))
    xpts = 2 * np.pi * np.arange(40) / 40 + rng.uniform(-1.0, 1.0, (10, 40))
    jj = tr.mode_range(tr.nu)
    direct = np.sum(np.exp(1j * xpts[..., None] * jj) * hyb[:, None, :], axis=-1)
    vals = _horner(np.ascontiguousarray(hyb.T)[..., None], np.exp(1j * xpts))
    assert np.max(np.abs(vals - direct)) <= 1e-13 * np.max(np.abs(direct))
    herm = 0.5 * (hyb + np.conj(hyb[:, ::-1]))
    direct = np.sum(np.exp(1j * xpts[..., None] * jj) * herm[:, None, :], axis=-1)
    vals = _horner(np.ascontiguousarray(herm[:, n_x:].T)[..., None], np.exp(1j * xpts), real=True)
    assert np.max(np.abs(vals - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_compose_time_shifts_phi():
    freq = Frequency((1.0,), lam=1.0)
    f = FourierField.from_modes(T, {(1, 0): 1.0})
    alpha = FourierField.constant(T, 0.2)
    g = compose("time", f, alpha, freq)
    assert abs(g.c[T.n_phi + 1, T.n_x] - np.exp(1j * 0.2)) < 1e-12


def test_compose_rejects_steep_displacement():
    beta = FourierField.from_modes(T, {(0, 1): 0.4})  # beta_x amplitude 0.8
    f = random_real_field(T, RNG)
    with pytest.raises(ValueError):
        compose("space", f, beta)


# compose and invert_torus_diffeo on one displacement d: the refusals of the planner
# they share must reach both
TORUS_FUNCTIONS = {"compose": lambda kind, d, freq: compose(kind, random_real_field(T, RNG), d, freq),
                   "invert": invert_torus_diffeo}


@pytest.mark.parametrize("fn", TORUS_FUNCTIONS)
def test_compose_time_phi_only_tolerance_is_relative(fn):
    freq = Frequency.default(1, lam=1.0)
    # amplitude 1e3 with an x-mode 1e-14 of it: accepted, a pure phase shift
    big = FourierField.from_modes(T, {(0, 0): 1e3, (0, 1): 1e-11})
    if fn == "compose":
        f = random_real_field(T, RNG)
        shift = np.exp(1j * 1e3 * T.mode_range(0))[:, None]
        assert np.max(np.abs(compose("time", f, big, freq).c - f.c * shift)) < 1e-9
    else:  # the inverse of a constant shift is its opposite
        assert abs(invert_torus_diffeo("time", big, freq).mean + 1e3) < 1e-12
    # amplitude 1e-6 with an x-mode 1e-7 of it: rejected
    small = FourierField.from_modes(T, {(1, 0): 0.5e-6, (0, 1): 1e-13})
    with pytest.raises(ValueError, match="phi only"):
        TORUS_FUNCTIONS[fn]("time", small, freq)


@pytest.mark.parametrize("fn", TORUS_FUNCTIONS)
@pytest.mark.parametrize("kind, freq, message", [
    ("shear", Frequency.default(1), "unknown diffeomorphism kind 'shear'"),
    ("time", None, "the time kind needs a Frequency"),
])
def test_torus_functions_refuse_kind_and_missing_frequency(fn, kind, freq, message):
    with pytest.raises(ValueError, match=message):
        TORUS_FUNCTIONS[fn](kind, FourierField.from_modes(T, {(1, 0): 0.01}), freq)


# ------------------------------------------------------------ inverse diffeo


def test_inverse_diffeo_trivial_cases():
    z = invert_torus_diffeo("space", FourierField.zeros(T))
    assert np.max(np.abs(z.c)) < 1e-13
    c = FourierField.constant(T, 0.17)
    inv = invert_torus_diffeo("space", c)
    assert abs(inv.mean + 0.17) < 1e-13


def test_inverse_diffeo_residual_on_fine_grid():
    # n_x large enough to carry the Fourier tail of the inverse displacement
    t12 = Truncation(1, 6, 12)
    beta = FourierField.from_modes(t12, {(0, 1): 0.05})  # 0.1 cos x
    bt = invert_torus_diffeo("space", beta)
    # residual of beta~(y) + beta(y + beta~(y)) on a fine grid
    fine = 512
    y = 2 * np.pi * np.arange(fine) / fine
    def ev(field, pts):
        jj = np.arange(-t12.n_x, t12.n_x + 1)
        return np.real(field.c[t12.n_phi] @ np.exp(1j * np.outer(jj, pts)))
    res = ev(bt, y) + ev(beta, y + ev(bt, y))
    assert np.max(np.abs(res)) < 1e-12
    assert abs(np.max(np.abs(ev(bt, y))) - 0.1) < 1e-3  # |beta~|_inf = |beta|_inf


def test_inverse_diffeo_round_trip_composition():
    # smooth beta with |beta|_{1,inf} <= 0.2; intermediate bandwidth inflated
    rng = np.random.default_rng(11)
    big = Truncation(1, 16, 16)
    beta = embed_field(random_real_field(T, rng, decay=4.0, scale=0.03), big)
    bt = invert_torus_diffeo("space", beta)
    f = embed_field(random_real_field(T, rng, decay=3.0), big)
    g = compose("space", compose("space", f, beta), bt)
    assert np.max(np.abs(g.c - f.c)) < 1e-8


def test_inverse_time_diffeo():
    freq = Frequency.default(1, lam=1.2)
    big = Truncation(1, 16, 16)
    alpha = FourierField.from_modes(big, {(1, 0): 0.04})
    at = invert_torus_diffeo("time", alpha, freq)
    f = embed_field(random_real_field(T, RNG, decay=3.0), big)
    g = compose("time", compose("time", f, alpha, freq), at, freq)
    assert np.max(np.abs(g.c - f.c)) < 1e-9


@pytest.mark.parametrize("kind", ["space", "time"])
def test_inverse_diffeo_non_convergence_is_typed(kind, monkeypatch):
    freq = Frequency.default(1, lam=1.2)
    disp = FourierField.from_modes(T, {(1, 0): 0.02})
    monkeypatch.setattr(spectral, "DIFFEO_MAX_ITER", 1)
    with pytest.raises(DiffeoConvergenceError, match="did not converge in 1 iterations"):
        invert_torus_diffeo(kind, disp, freq)


# ---------------------------------------------------------------- structure


def test_structure_flags():
    even = FourierField.from_modes(T, {(1, 1): 0.5})  # cos(phi + x)
    sc = structure_check(even)
    assert sc["in_X"] and not sc["in_Y"]
    odd = FourierField.from_modes(T, {(0, 1): -0.5j})  # sin x
    sc = structure_check(odd)
    assert sc["in_Y"] and sc["zero_total_average"] and sc["zero_space_average"]
    const = FourierField.constant(T, 1.0)
    assert not structure_check(const)["zero_total_average"]


def test_parity_algebra_products():
    rng = np.random.default_rng(13)
    fx = random_real_field(T, rng, parity="X")
    gx = random_real_field(T, rng, parity="X")
    fy = random_real_field(T, rng, parity="Y")
    assert structure_check(multiply(fx, gx), 1e-10)["in_X"]
    assert structure_check(multiply(fx, fy), 1e-10)["in_Y"]


# ---------------------------------------------------------------- serialization


def test_json_round_trip():
    f = random_real_field(T, RNG)
    g = field_from_json(field_to_json(f))
    assert g.trunc.n_phi == T.n_phi
    assert np.max(np.abs(g.c - f.c)) < 1e-15


def test_field_at_phi_matches_synthesis():
    f = random_real_field(T, RNG)
    phi = np.array([0.37])
    hj = freeze(f.c, phi)  # h_j = sum_l u_{l,j} e^{i l.phi}
    x = np.linspace(0, 2 * np.pi, 7, endpoint=False)
    jj = np.arange(-T.n_x, T.n_x + 1)
    direct = np.zeros_like(x)
    for il in range(2 * T.n_phi + 1):
        l = il - T.n_phi
        direct += np.real(np.exp(1j * l * phi[0]) * (f.c[il] @ np.exp(1j * np.outer(jj, x))))
    assert np.allclose(np.real(hj @ np.exp(1j * np.outer(jj, x))), direct, atol=1e-12)


# ---------------------------------------------------------------- properties


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 4.0))
def test_property_norm_monotone(seed, s):
    rng = np.random.default_rng(seed)
    f = random_real_field(T, rng)
    assert sobolev_norm(f, s) <= sobolev_norm(f, s + 0.5) + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_property_pointwise_reality(seed):
    rng = np.random.default_rng(seed)
    f = random_real_field(T, rng, scale=0.1)
    g = pointwise(np.exp, f)
    assert is_real(g, 1e-11)
