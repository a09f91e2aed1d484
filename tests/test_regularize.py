import numpy as np
import pytest

from qpkdv import kamreduce as km, nonlin, opalg, regularize as reg
from qpkdv.spectral import (
    DivisorUnderflowError,
    FourierField,
    Frequency,
    Truncation,
    analyze,
    compose,
    dx_pow,
    multiply,
    omega_dphi,
    pointwise,
    random_real_field,
    sobolev_norm,
    synthesize,
    x_average,
)
from test_opalg import matrix_exponential
from test_spectral import embed_field, structure_check

T = Truncation(1, 8, 8)
FREQ = Frequency.default(1, lam=1.2)


def builtin(name, epsilon=1e-3):
    """The spec of a named entry of nonlin.BUILTINS."""
    if name not in nonlin.BUILTINS:
        raise KeyError(f"unknown builtin {name!r}; have {sorted(nonlin.BUILTINS)}")
    text, form = nonlin.BUILTINS[name]
    return nonlin.parse_nonlinearity(text, form, epsilon)


def small_u(trunc=T, seed=0, scale=0.1, decay=4.0):
    return random_real_field(trunc, np.random.default_rng(seed), decay=decay,
                             scale=scale, parity="X")


def pipeline_coeffs(eps=1e-3, trunc=T, seed=0):
    spec = builtin("quasilinear_cubic", epsilon=eps)
    u = small_u(trunc, seed)
    return nonlin.linearized_coefficients(spec, u)


# ------------------------------------------------------------------ step 1


def test_step1_identity_when_a3_zero():
    z = FourierField.zeros(T)
    out = reg.step1_space_diffeo(z, z, z, z, FREQ, "generic")
    assert np.max(np.abs(out["beta"].c)) < 1e-14
    assert abs(out["b"].mean - 1.0) < 1e-14
    assert np.max(np.abs(out["b3"].c - FourierField.constant(T, 1.0).c)) < 1e-13


def test_step1_constant_a3():
    c = 0.2
    z = FourierField.zeros(T)
    out = reg.step1_space_diffeo(FourierField.constant(T, c), z, z, z, FREQ, "generic")
    assert np.max(np.abs(out["beta"].c)) < 1e-13
    assert abs(out["b"].mean - (1.0 + c)) < 1e-13


def test_step1_quadrature_oracle():
    # b(phi) = ((1/2pi) int (1+a3)^{-1/3} dx)^{-3} against scipy quadrature
    from scipy.integrate import quad

    a3 = FourierField.from_modes(T, {(0, 1): 0.025})  # 0.05 cos x
    z = FourierField.zeros(T)
    out = reg.step1_space_diffeo(a3, z, z, z, FREQ, "generic")
    val, _ = quad(lambda x: (1 + 0.05 * np.cos(x)) ** (-1.0 / 3.0), 0, 2 * np.pi,
                  epsabs=1e-13, epsrel=1e-13)
    expected = (val / (2 * np.pi)) ** (-3.0)
    assert abs(out["b"].mean - expected) < 1e-11


def test_step1_defining_identity_on_grid():
    a3 = FourierField.from_modes(T, {(0, 1): 0.025})  # 0.05 cos x
    z = FourierField.zeros(T)
    out = reg.step1_space_diffeo(a3, z, z, z, FREQ, "generic")
    lhs = synthesize(a3)  # (1+a3)(1+beta_x)^3 should equal b(phi)
    bx = synthesize(dx_pow(out["beta"], 1))
    b = synthesize(out["b"])
    resid = (1.0 + lhs) * (1.0 + bx) ** 3 - b
    assert np.max(np.abs(resid)) < 1e-10


def test_step1_flattens_leading_coefficient():
    a3, a2, a1, a0 = pipeline_coeffs(eps=1e-2)
    out = reg.step1_space_diffeo(a3, a2, a1, a0, FREQ, "generic")
    g = synthesize(out["b3"])
    assert np.max(np.var(g, axis=-1)) < 1e-9


def test_step1_degenerate_rejection():
    a3 = FourierField.constant(T, -0.6)
    z = FourierField.zeros(T)
    with pytest.raises(reg.DegenerateCoefficientError):
        reg.step1_space_diffeo(a3, z, z, z, FREQ, "generic")


def test_step1_beta_parity():
    # for a3 even (u in X, f = z0^2 z3 gives a3 = eps u^2 even), beta is odd
    a3, a2, a1, a0 = pipeline_coeffs(eps=1e-2)
    out = reg.step1_space_diffeo(a3, a2, a1, a0, FREQ, "generic")
    assert structure_check(out["beta"], tol=1e-10)["in_Y"]


def test_step1_hamiltonian_b2_vanishes():
    spec = builtin("hamiltonian_cubic", epsilon=1e-3)
    u = small_u(scale=0.02, decay=5.0)
    a3, a2, a1, a0 = nonlin.linearized_coefficients(spec, u)
    out = reg.step1_space_diffeo(a3, a2, a1, a0, FREQ, "hamiltonian")
    assert sobolev_norm(out["b2"], T.s0) < 1e-10


# ------------------------------------------------------------------ step 2


def test_step2_constant_b3():
    b3 = FourierField.constant(T, 1.3)
    z = FourierField.zeros(T)
    out = reg.step2_time_reparam(b3, z, z, z, FREQ)
    assert abs(out["m3"] - 1.3) < 1e-14
    assert np.max(np.abs(out["alpha"].c)) < 1e-14
    assert np.max(np.abs(out["rho"].c - FourierField.constant(T, 1.0).c)) < 1e-12


def test_step2_explicit_cosine():
    # nu=1, omega = lam, b3 = 1 + delta cos(phi): alpha = delta sin(phi)/lam
    delta = 0.05
    freq = Frequency.default(1, lam=1.0)
    b3 = FourierField.from_modes(T, {(1, 0): delta / 2}).shift_mean(1.0)
    z = FourierField.zeros(T)
    out = reg.step2_time_reparam(b3, z, z, z, freq)
    assert abs(out["m3"] - 1.0) < 1e-14
    expected = FourierField.from_modes(T, {(1, 0): delta / (2 * 1j)})
    assert np.max(np.abs(out["alpha"].c - expected.c)) < 1e-12
    # identity b3 = m3 (1 + omega.d_phi alpha)
    from qpkdv.spectral import omega_dphi

    resid = b3 - (omega_dphi(out["alpha"], freq).shift_mean(1.0)) * out["m3"]
    assert np.max(np.abs(resid.c)) < 1e-12


def test_step2_mean_is_quadrature_mean():
    rng = np.random.default_rng(7)
    b3 = random_real_field(T, rng, decay=3.0, scale=0.05).shift_mean(1.0)
    z = FourierField.zeros(T)
    out = reg.step2_time_reparam(b3, z, z, z, FREQ)
    assert abs(out["m3"] - np.mean(synthesize(b3))) < 1e-12


# ------------------------------------------------------------------ step 3


def test_step3_trivial_when_c2_zero():
    # written in e = -(1/3m3) d_y^{-1} c2, the step leaves no rounding: at
    # c2 = 0 it returns c1, c0 and v = v^{-1} = 1 exactly
    z = FourierField.zeros(T)
    c1 = random_real_field(T, np.random.default_rng(1), scale=0.1)
    c0 = random_real_field(T, np.random.default_rng(2), scale=0.1)
    out = reg.step3_descent_zero(z, c1, c0, 1.0, FREQ)
    one = FourierField.constant(T, 1.0).c
    assert np.array_equal(out["v"].c, one) and np.array_equal(out["v_inv"].c, one)
    assert np.array_equal(out["d1"].c, c1.c) and np.array_equal(out["d0"].c, c0.c)


@pytest.mark.parametrize("text, n", [("30 * cos(phi_1) * sin(x) + z0^2 * z3", 16),
                                     ("cos(phi_1) * sin(x) + z0^2 * z3", 8)],
                         ids=["solve-nu1-n16", "criterion-8"])
def test_regularization_at_zero_is_exact(text, n):
    # at u = 0 these linearizations are the Airy operator: the chain leaves
    # R = 0 exactly, and the reduction makes no KAM step
    trunc = Truncation(1, n, n)
    spec = nonlin.parse_nonlinearity(text, "raw_f", epsilon=1e-3)
    rg = reg.regularize_at(spec, FREQ, FourierField.zeros(trunc))
    assert not np.any(rg.R.blocks)
    red = km.reduce(rg, FREQ, km.IterationSchedule(gamma=0.01))
    assert len(red.trace) == 1 and red.trace[0]["R_s0"] == 0.0


def test_step3_closed_form_exponential():
    delta = 0.1
    c2 = FourierField.from_modes(T, {(0, 1): delta / 2})  # delta cos y
    z = FourierField.zeros(T)
    out = reg.step3_descent_zero(c2, z, z, 1.0, FREQ)
    grid = synthesize(out["v"])
    yg = 2.0 * np.pi * np.arange(T.grid_shape[-1]) / T.grid_shape[-1]
    expected = np.exp(-delta * np.sin(yg) / 3.0)
    assert np.max(np.abs(grid - expected[None, :])) < 1e-12
    # the d_yy coefficient of the conjugated operator vanishes
    from qpkdv.spectral import multiply

    resid = dx_pow(out["v"], 1) * 3.0 + multiply(c2, out["v"])
    assert sobolev_norm(resid, T.s0) < 1e-12


def test_step3_zero_mean_violation():
    c2 = FourierField.constant(T, 0.1)
    z = FourierField.zeros(T)
    with pytest.raises(reg.ZeroMeanViolation):
        reg.step3_descent_zero(c2, z, z, 1.0, FREQ)


# ------------------------------------------------------------------ step 4


def test_step4_constant_d1():
    d1 = FourierField.constant(T, 0.7)
    z = FourierField.zeros(T)
    out = reg.step4_translation(d1, z, FREQ)
    assert abs(out["m1"] - 0.7) < 1e-14
    assert np.max(np.abs(out["p"].c)) < 1e-14


def test_step4_explicit_cosine():
    freq = Frequency.default(1, lam=1.25)
    d1 = FourierField.from_modes(T, {(1, 0): 0.5})  # cos(theta)
    z = FourierField.zeros(T)
    out = reg.step4_translation(d1, z, freq)
    assert abs(out["m1"]) < 1e-14
    expected = FourierField.from_modes(T, {(1, 0): -0.5 / (1j * 1.25)})
    # p solves omega.d_theta p = m1 - avg(d1) = -cos(theta)
    assert np.max(np.abs(out["p"].c - expected.c)) < 1e-13
    avg = x_average(out["e1"])
    assert np.max(np.abs(avg.c)) < 1e-12


def test_step4_average_constant():
    rng = np.random.default_rng(11)
    d1 = random_real_field(T, rng, decay=3.0, scale=0.05)
    d0 = random_real_field(T, rng, decay=3.0, scale=0.05)
    out = reg.step4_translation(d1, d0, FREQ)
    assert abs(out["m1"] - np.mean(synthesize(d1))) < 1e-12
    avg = x_average(out["e1"]).shift_mean(-out["m1"])
    assert np.max(np.abs(avg.c)) < 1e-10


# ------------------------------------------------------------------ step 5


def test_step5_trivial_when_e1_constant():
    e1 = FourierField.constant(T, 0.01)
    e0 = random_real_field(T, np.random.default_rng(2), scale=0.01)
    out = reg.step5_pseudo_diff(e1, e0, 1.0, 0.01, FREQ, "generic")
    assert np.max(np.abs(out["w"].c)) < 1e-15
    expected = opalg.from_multiplication(e0)
    assert np.max(np.abs(out["R"].blocks - expected.blocks)) < 1e-13


def test_step5_r1_vanishes():
    rng = np.random.default_rng(3)
    m1 = 0.02
    e1 = random_real_field(T, rng, decay=3.0, scale=0.02,
                           zero_total_average=True)
    e1 = FourierField(T, e1.c - x_average(e1).c).shift_mean(m1)
    e0 = random_real_field(T, rng, decay=3.0, scale=0.02)
    out = reg.step5_pseudo_diff(e1, e0, 1.0, m1, FREQ, "generic")
    assert np.max(np.abs(out["r1"].c)) < 1e-12


def test_step5_remainder_scales_with_eps():
    norms = {}
    for eps in (1e-3, 1e-4):
        spec = builtin("quasilinear_cubic", epsilon=eps)
        u = small_u(seed=4)
        result = reg.regularize_at(spec, FREQ, u)
        norms[eps] = opalg.decay_norm(result.R, T.s0)
    ratio = norms[1e-3] / norms[1e-4]
    assert 5.0 < ratio < 20.0  # linear in eps within a factor 2


# -------------------------------------------------------------- full chain


def test_chain_eps_zero_limit():
    z = FourierField.zeros(T)
    result = reg.run_regularization(z, z, z, z, FREQ, "generic")
    assert abs(result.m3 - 1.0) < 1e-14
    assert abs(result.m1) < 1e-14
    assert opalg.decay_norm(result.R, T.s0) < 1e-11
    u = random_real_field(T, np.random.default_rng(5), scale=0.3)
    assert np.max(np.abs(result.phi2(u).c - u.c)) < 1e-12


@pytest.mark.parametrize("mode", ["generic", "hamiltonian"])
def test_zero_coefficients_write_what_steps_1_to_4_return(mode):
    # at a3 = a2 = a1 = a0 = 0 the chain skips steps 1-4; every entry it
    # writes is what the steps return there, a None multiplier the constant 1
    z = FourierField.zeros(T)
    chain = reg.run_regularization(z, z, z, z, FREQ, mode).chain
    assert chain["m3"] == 1.0 and chain["m1"] == 0.0
    s1 = reg.step1_space_diffeo(z, z, z, z, FREQ, mode)
    s2 = reg.step2_time_reparam(s1["b3"], s1["b2"], s1["b1"], s1["b0"], FREQ)
    s3 = (reg.step3_descent_zero(s2["c2"], s2["c1"], s2["c0"], s2["m3"], FREQ)
          if mode == "generic" else {"v": None, "v_inv": None, "d1": s2["c1"], "d0": s2["c0"]})
    steps = {**s1, **s2, **s3, **reg.step4_translation(s3["d1"], s3["d0"], FREQ)}
    assert set(chain) == set(steps) | {"w", "r1", "S", "S_inv", "R"}
    one = FourierField.constant(T, 1.0)
    for key, want in steps.items():
        got = chain[key]
        if isinstance(want, float):
            assert abs(got - want) <= 1e-15, key
        elif want is None:
            assert got is None, key
        else:
            assert np.max(np.abs((one if got is None else got).c - want.c)) <= 1e-15, key


def test_zero_coefficients_keep_the_divisor_floor():
    # omega_bar = (1, 21/34) resonates at l = (-21, 34): step 2 refuses it
    # even on a zero field, and so does the chain that skips it
    trunc = Truncation(2, 34, 1)
    z = FourierField.zeros(trunc)
    with pytest.raises(DivisorUnderflowError, match=r"at l = \(-21, 34\)"):
        reg.run_regularization(z, z, z, z, Frequency((1.0, 21.0 / 34.0), lam=1.0), "generic")


@pytest.mark.parametrize("k", range(4))
def test_a_single_tiny_mode_takes_the_general_path(monkeypatch, k):
    # zero is decided on the tables, with no tolerance: a coefficient whose
    # only nonzero mode is 1e-30 runs steps 1-4
    calls = []
    monkeypatch.setattr(reg, "step1_space_diffeo",
                        lambda *a, _f=reg.step1_space_diffeo: calls.append(1) or _f(*a))
    z = FourierField.zeros(T)
    reg.run_regularization(z, z, z, z, FREQ, "generic")
    assert calls == []
    coeffs = [z] * 4
    coeffs[k] = FourierField.constant(T, 1e-30)
    reg.run_regularization(*coeffs, FREQ, "generic")
    assert calls == [1]


def test_chain_m_constants_small():
    spec = builtin("quasilinear_cubic", epsilon=1e-3)
    result = reg.regularize_at(spec, FREQ, small_u(seed=6))
    assert result.diagnostics["m3_minus_1"] < 0.01
    assert result.diagnostics["m1_abs"] < 0.01
    assert result.diagnostics["r1_sup"] < 1e-12


def test_chain_parities():
    spec = builtin("quasilinear_cubic", epsilon=1e-3)
    result = reg.regularize_at(spec, FREQ, small_u(seed=6))
    ch = result.chain
    assert structure_check(ch["beta"], tol=1e-9)["in_Y"]
    alpha_flags = structure_check(ch["alpha"], tol=1e-9)
    assert alpha_flags["in_Y"]  # alpha odd in phi
    assert structure_check(ch["v"], tol=1e-9)["in_X"]
    assert structure_check(ch["w"], tol=1e-9)["in_Y"]


def test_chain_transform_round_trips():
    spec = builtin("quasilinear_cubic", epsilon=1e-3)
    result = reg.regularize_at(spec, FREQ, small_u(seed=6))
    sub = Truncation(1, 4, 4)
    z = embed_field(random_real_field(sub, np.random.default_rng(8), decay=3.0,
                                      scale=0.5), T)
    for name in ("phi1", "phi2"):
        fwd = getattr(result, name)
        back = fwd(fwd(z), inverse=True)
        assert sobolev_norm(back - z, T.s0) < 1e-8


def test_chain_semi_conjugacy():
    spec = builtin("quasilinear_cubic", epsilon=1e-3)
    result = reg.regularize_at(spec, FREQ, small_u(seed=6))
    sub = Truncation(1, 4, 4)
    for seed in range(3):
        z = embed_field(random_real_field(sub, np.random.default_rng(seed),
                                          decay=3.0, scale=1.0), T)
        resid = reg.conjugacy_residual(result, z)
        assert resid < 1e-6 * max(1.0, sobolev_norm(z, T.s0 + 3))


def test_chain_hamiltonian_mode():
    spec = builtin("hamiltonian_cubic", epsilon=1e-3)
    result = reg.regularize_at(spec, FREQ, small_u(seed=9, scale=0.02, decay=5.0))
    assert result.mode == "hamiltonian"
    assert result.chain["v"] is None  # descent step skipped
    assert result.diagnostics["b2_sup"] < 1e-12
    assert opalg.decay_norm(result.R, T.s0) < 0.01
    sub = Truncation(1, 4, 4)
    z = embed_field(random_real_field(sub, np.random.default_rng(1), decay=3.0,
                                      scale=1.0), T)
    assert reg.conjugacy_residual(result, z) < 1e-6


# ----------------------------------------- steps 1-3 against the product form


def _product_step1(a3, a2, a1, a0, freq, mode):
    """Step 1 evaluated product by product: every product truncated."""
    trunc = a3.trunc
    beta = reg.step1_space_diffeo(a3, a2, a1, a0, freq, mode)["beta"]
    one = FourierField.constant(trunc, 1.0)
    bx, bxx, bxxx = (dx_pow(beta, k) for k in (1, 2, 3))
    opx, a3p = one + bx, one + a3
    if mode == "hamiltonian":
        sigma, sx, sxx, sxxx = opx, bxx, bxxx, dx_pow(beta, 4)
    else:
        sigma, sx, sxx, sxxx = one, *[FourierField.zeros(trunc)] * 3
    opx2 = multiply(opx, opx)
    c3 = multiply(a3p, multiply(sigma, multiply(opx2, opx)))
    c2 = (multiply(a3p, multiply(sx, opx2) * 3.0 + multiply(sigma, multiply(opx, bxx)) * 3.0)
          + multiply(a2, multiply(sigma, opx2)))
    c1 = (multiply(a3p, multiply(sxx, opx) * 3.0 + multiply(sx, bxx) * 3.0 + multiply(sigma, bxxx))
          + multiply(a2, multiply(sx, opx) * 2.0 + multiply(sigma, bxx))
          + multiply(a1, multiply(sigma, opx)) + multiply(sigma, omega_dphi(beta, freq)))
    c0 = (multiply(a3p, sxxx) + multiply(a2, sxx) + multiply(a1, sx) + multiply(a0, sigma)
          + omega_dphi(sigma, freq))
    sig, *c = compose("space", [sigma, c3, c2, c1, c0], reg.invert_torus_diffeo("space", beta))
    sigma_tilde = pointwise(lambda g: 1.0 / g, sig)
    return [multiply(sigma_tilde, g) for g in c]


def _product_step2(b3, b2, b1, b0, freq):
    out = reg.step2_time_reparam(b3, b2, b1, b0, freq)
    rho_inv = pointwise(lambda g: 1.0 / g, out["rho"])
    b = compose("time", [b2, b1, b0], out["alpha_tilde"], freq)
    return [rho_inv] + [multiply(g, rho_inv) for g in b]


def _product_step3(c2, c1, c0, m3, freq):
    """Step 3 evaluated product by product."""
    v = pointwise(np.exp, dx_pow(c2, -1) * (-1.0 / (3.0 * m3)))
    vy, vyy, vyyy = (dx_pow(v, k) for k in (1, 2, 3))
    t1 = vyy * (3.0 * m3) + multiply(c2, vy) * 2.0 + multiply(c1, v)
    t0 = (omega_dphi(v, freq) + vyyy * m3 + multiply(c2, vyy) + multiply(c1, vy)
          + multiply(c0, v))
    v_inv = pointwise(lambda g: 1.0 / g, v)
    return v, v_inv, multiply(t1, v_inv), multiply(t0, v_inv)


def _restrict(f, trunc):
    """The modes of f inside the smaller truncation."""
    big = f.trunc
    cut = tuple(slice(b - m, b + m + 1) for b, m in
                zip((big.n_phi,) * big.nu + (big.n_x,), (trunc.n_phi,) * trunc.nu + (trunc.n_x,)))
    return FourierField(trunc, f.c[cut].copy())


@pytest.mark.parametrize("nu,n", [(1, 8), (2, 4)])
@pytest.mark.parametrize("mode", ["generic", "hamiltonian"])
def test_steps_1_to_3_match_product_form(nu, n, mode):
    # each step on the grid against the same step product by product: the two
    # differ by less than the truncation level, the mass that the same step on
    # the doubled truncation puts outside the rectangle
    trunc, big = Truncation(nu, n, n), Truncation(nu, 2 * n, 2 * n)
    freq = Frequency.default(nu, lam=1.1)
    if mode == "hamiltonian":
        spec = builtin("hamiltonian_cubic", epsilon=1e-3)
        u = small_u(trunc, seed=4, scale=0.02, decay=5.0)
    else:
        spec = builtin("quasilinear_cubic", epsilon=1e-2)
        u = small_u(trunc, seed=4)
    coeffs = nonlin.linearized_coefficients(spec, u)

    def check(step, product_form, inputs, keys):
        new = step(*inputs)
        ref = step(*(embed_field(f, big) if isinstance(f, FourierField) else f for f in inputs))
        for key, old in zip(keys, product_form(*inputs)):
            if key is None:
                continue
            tail = ref[key] - embed_field(_restrict(ref[key], trunc), big)
            assert sobolev_norm(new[key] - old, trunc.s0) < sobolev_norm(tail, big.s0), key
        return new

    b_keys = ("b3", "b2", "b1", "b0")
    # in hamiltonian mode b2 vanishes up to rounding in both forms; it is
    # checked to vanish, not against the (vanishing) truncation level
    s1 = check(lambda *a: reg.step1_space_diffeo(*a, freq, mode),
               lambda *a: _product_step1(*a, freq, mode), coeffs,
               ("b3", None, "b1", "b0") if mode == "hamiltonian" else b_keys)
    if mode == "hamiltonian":
        assert sobolev_norm(s1["b2"], trunc.s0) < 1e-10
    s2 = check(lambda *a: reg.step2_time_reparam(*a, freq),
               lambda *a: _product_step2(*a, freq), [s1[k] for k in b_keys],
               ("rho_inv", "c2", "c1", "c0"))
    if mode == "generic":
        check(lambda *a: reg.step3_descent_zero(*a, freq),
              lambda *a: _product_step3(*a, freq),
              [s2["c2"], s2["c1"], s2["c0"], s2["m3"]], ("v", "v_inv", "d1", "d0"))


@pytest.mark.parametrize("mode,count", [("generic", (9, 8)), ("hamiltonian", (9, 8))])
def test_chain_transform_count(monkeypatch, mode, count):
    # steps 1-3 transform once per step, not once per product: the whole chain
    # makes about ten syntheses and as many analyses (the product form made
    # 39 to 49 of each)
    from qpkdv import spectral

    calls = {"synthesize": 0, "analyze": 0}
    for name in calls:
        def counted(*args, _f=getattr(spectral, name), _name=name, **kw):
            calls[_name] += 1
            return _f(*args, **kw)
        for module in (spectral, reg):
            monkeypatch.setattr(module, name, counted)
    spec = builtin("hamiltonian_cubic" if mode == "hamiltonian" else "quasilinear_cubic",
                          epsilon=1e-3)
    coeffs = nonlin.linearized_coefficients(spec, small_u(seed=6, scale=0.02, decay=5.0))
    reg.run_regularization(*coeffs, FREQ, mode)
    assert 0 < calls["synthesize"] <= count[0] and 0 < calls["analyze"] <= count[1]


# ----------------------------------------- step 5 against its hand assembly


def _assembled_step5(e1, e0, m3, m1, freq, mode):
    """Step 5 assembled term by term: S and S^{-1} from their series, then
    R = S^{-1}(L4 S - S D) with [omega.d_phi, S] and each d_x power applied
    to S on its own, and e1 d_x and e0 composed with S one at a time."""
    trunc = e1.trunc
    w = dx_pow(e1.shift_mean(-m1) * (-1.0), -1) * (1.0 / (3.0 * m3))
    core = opalg.scale_modes(opalg.from_multiplication(w),
                             cols=opalg.symbol(trunc, opalg.dx_inv_symbol))
    if mode == "hamiltonian":
        psi = opalg.scale_modes(core, rows=opalg.symbol(trunc, opalg.pi0_symbol))
        S = matrix_exponential(psi)
        S_inv = matrix_exponential(psi.scale(-1.0))
    else:
        S = opalg.add(opalg.identity(trunc), core)
        S_inv = opalg.neumann_inverse(core)
    dx = 1j * trunc.mode_range(trunc.nu)
    dots = freq.omega_dot_l(trunc, double=True)
    q = opalg.ToplitzOperator(trunc, (1j * dots)[..., None, None] * S.blocks)
    q = opalg.add(q, opalg.scale_modes(S, rows=m3 * dx**3))
    q = opalg.add(q, opalg.scale_modes(S, cols=-m3 * dx**3))
    q = opalg.add(q, opalg.compose(opalg.from_multiplication(e1),
                                   opalg.scale_modes(S, rows=dx)))
    q = opalg.add(q, opalg.compose(opalg.from_multiplication(e0), S))
    q = opalg.add(q, opalg.scale_modes(S, cols=-m1 * dx))
    return S, S_inv, opalg.compose(S_inv, q)


def _step5_inputs(nu, n, mode):
    trunc = Truncation(nu, n, n)
    freq = Frequency.default(nu, lam=1.1)
    spec = builtin("hamiltonian_cubic" if mode == "hamiltonian" else "quasilinear_cubic",
                          epsilon=1e-2)
    rg = reg.regularize_at(spec, freq, small_u(trunc, seed=4, scale=0.05, decay=4.0))
    ch = rg.chain
    return (ch["e1"], ch["e0"], rg.m3, rg.m1, freq, mode)


@pytest.mark.parametrize("nu,n", [(1, 8), (2, 4)])
@pytest.mark.parametrize("mode", ["generic", "hamiltonian"])
def test_step5_matches_assembled_form(nu, n, mode):
    # the same S and S^{-1}, and a remainder within rounding of the hand
    # assembly (the two differ by 3e-18 to 7e-16 relative)
    inputs = _step5_inputs(nu, n, mode)
    out = reg.step5_pseudo_diff(*inputs)
    S, S_inv, R = _assembled_step5(*inputs)
    assert np.array_equal(out["S"].blocks, S.blocks)
    assert np.array_equal(out["S_inv"].blocks, S_inv.blocks)
    s0 = S.trunc.s0
    assert opalg.decay_norm(R, s0) > 1e-3
    assert opalg.decay_norm(out["R"] - R, s0) < 1e-13 * opalg.decay_norm(R, s0)


@pytest.mark.parametrize("mode", ["generic", "hamiltonian"])
def test_step5_composes_twice_outside_its_series(monkeypatch, mode):
    # V S and S^{-1} q, with V = e1 d_x + e0 one operator; the hand assembly
    # composed three times
    calls = {"compose": 0, "series": 0}

    def counted(*args, _f=opalg.compose):
        calls["compose"] += calls["series"] == 0
        return _f(*args)

    def in_series(name):
        def series(*args, _f=getattr(opalg, name)):
            calls["series"] += 1
            try:
                return _f(*args)
            finally:
                calls["series"] -= 1
        return series

    inputs = _step5_inputs(1, 8, mode)
    monkeypatch.setattr(opalg, "compose", counted)
    monkeypatch.setattr(opalg, "near_identity", in_series("near_identity"))
    reg.step5_pseudo_diff(*inputs)
    assert calls == {"compose": 2, "series": 0}

