"""Conjugation of L = omega.d_phi + (1+a3)d_xxx + a2 d_xx + a1 d_x + a0 to
constant leading coefficients.

Five successive transformations (space diffeomorphism, time reparametrization,
multiplication, x-translation, pseudo-differential correction) reduce the
variable-coefficient operator to

    L5 = omega.d_phi + m3 d_xxx + m1 d_x + R

with constants m3 = 1 + O(eps), m1 = O(eps) and a bounded remainder R of
order d_x^0, returned as a Toplitz operator ready for the reducibility scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import opalg
from .spectral import (
    DegenerateCoefficientError,
    FourierField,
    Frequency,
    NumericalFailure,
    Truncation,
    analyze,
    compose,
    dx_pow,
    invert_torus_diffeo,
    multiply,
    omega_dphi,
    omega_dphi_inv,
    pointwise,
    synthesize,
    x_average,
)


class ZeroMeanViolation(NumericalFailure, ValueError):
    """The d_xx coefficient has nonzero x-mean somewhere: the structural
    hypotheses on f do not hold at this input."""


def _phi_only(trunc: Truncation, phi_samples: np.ndarray) -> FourierField:
    """Field from samples over the phi grid, constant in x."""
    full = np.broadcast_to(phi_samples[..., None], trunc.grid_shape)
    return analyze(trunc, np.ascontiguousarray(full))


def _reciprocal(f: FourierField, floor: float = 1e-14) -> FourierField:
    def inv(v):
        if np.min(np.abs(v)) < floor:
            raise DegenerateCoefficientError("division by a vanishing field")
        return 1.0 / v

    return pointwise(inv, f)


def _divide(f: FourierField, g: FourierField) -> FourierField:
    return multiply(f, _reciprocal(g))


# ----------------------------------------------------------------- step 1


def step1_space_diffeo(a3, a2, a1, a0, freq: Frequency, mode: str = "generic"):
    """Flatten the leading coefficient by x |-> x + beta(phi, x).

    Returns a dict with b (the flattened d_yyy coefficient, a function of phi
    alone), the displacement beta, its inverse displacement, and the four
    transformed coefficients.  In hamiltonian mode the transformation carries
    the weight 1 + beta_x and the d_yy coefficient vanishes identically.
    """
    trunc = a3.trunc
    g3 = synthesize(a3)
    if np.min(1.0 + g3) <= 0.5:
        raise DegenerateCoefficientError(
            f"1 + a3 reaches {np.min(1.0 + g3):.3f} <= 1/2"
        )
    q = (1.0 + g3) ** (-1.0 / 3.0)
    b_phi = np.mean(q, axis=-1) ** (-3.0)  # per phi node
    rho0 = analyze(trunc, b_phi[..., None] ** (1.0 / 3.0) * q - 1.0)
    beta = dx_pow(rho0, -1)
    beta_tilde = invert_torus_diffeo("space", beta)
    b = _phi_only(trunc, b_phi)

    one = FourierField.constant(trunc, 1.0)
    bx = dx_pow(beta, 1)
    bxx = dx_pow(beta, 2)
    bxxx = dx_pow(beta, 3)
    opx = one + bx  # 1 + beta_x
    a3p = one + a3  # 1 + a3

    if mode == "hamiltonian":
        sigma = opx
        sx, sxx, sxxx = bxx, bxxx, dx_pow(beta, 4)
    else:
        sigma = one
        sx = sxx = sxxx = FourierField.zeros(trunc)

    # weighted conjugation: collect the coefficients of d_x^k in L(sigma h(x+beta))
    opx2 = multiply(opx, opx)
    opx3 = multiply(opx2, opx)
    c3 = multiply(a3p, multiply(sigma, opx3))
    c2 = (
        multiply(a3p, multiply(sx, opx2) * 3.0 + multiply(sigma, multiply(opx, bxx)) * 3.0)
        + multiply(a2, multiply(sigma, opx2))
    )
    c1 = (
        multiply(a3p, multiply(sxx, opx) * 3.0 + multiply(sx, bxx) * 3.0 + multiply(sigma, bxxx))
        + multiply(a2, multiply(sx, opx) * 2.0 + multiply(sigma, bxx))
        + multiply(a1, multiply(sigma, opx))
        + multiply(sigma, omega_dphi(beta, freq))
    )
    c0 = (
        multiply(a3p, sxxx)
        + multiply(a2, sxx)
        + multiply(a1, sx)
        + multiply(a0, sigma)
        + omega_dphi(sigma, freq)
    )

    # A^{-1}_0: one batched composition with beta_tilde
    sig, c3, c2, c1, c0 = compose("space", [sigma, c3, c2, c1, c0], beta_tilde)
    sigma_tilde = _reciprocal(sig)
    b3, b2, b1, b0 = (multiply(sigma_tilde, g) for g in (c3, c2, c1, c0))

    return {
        "b": b,
        "beta": beta,
        "beta_tilde": beta_tilde,
        "sigma": sigma,
        "sigma_tilde": sigma_tilde,
        "b3": b3,
        "b2": b2,
        "b1": b1,
        "b0": b0,
    }


# ----------------------------------------------------------------- step 2


def step2_time_reparam(b3, b2, b1, b0, freq: Frequency):
    """Normalize the d_yyy coefficient to its phi-mean m3 by phi |-> phi + omega alpha."""
    trunc = b3.trunc
    b3 = x_average(b3)  # drop the O(truncation) x-variance left by step 1
    m3 = b3.mean
    alpha = omega_dphi_inv(b3.shift_mean(-m3), freq) * (1.0 / m3)
    wda = omega_dphi(alpha, freq)
    alpha_tilde = invert_torus_diffeo("time", alpha, freq)

    one = FourierField.constant(trunc, 1.0)
    # B^{-1}: one batched composition with alpha_tilde
    rho, b2, b1, b0 = compose("time", [one + wda, b2, b1, b0], alpha_tilde, freq)
    rho_inv = _reciprocal(rho)
    c2, c1, c0 = (multiply(g, rho_inv) for g in (b2, b1, b0))
    return {
        "m3": m3,
        "alpha": alpha,
        "alpha_tilde": alpha_tilde,
        "rho": rho,
        "c2": c2,
        "c1": c1,
        "c0": c0,
    }


# ----------------------------------------------------------------- step 3


def step3_descent_zero(c2, c1, c0, m3: float, freq: Frequency,
                       zero_mean_tol: float = 1e-9):
    """Remove the d_yy coefficient by conjugation with the multiplication
    operator v = exp(-(1/3m3) d_y^{-1} c2); requires c2 to have zero x-mean."""
    trunc = c2.trunc
    avg = x_average(c2)  # constant in x; inspect its phi samples
    samples = synthesize(avg)[..., 0]
    worst = np.unravel_index(np.argmax(np.abs(samples)), samples.shape)
    if np.abs(samples[worst]) > zero_mean_tol:
        raise ZeroMeanViolation(
            f"x-mean of the d_xx coefficient is {samples[worst]:.3e} at phi node "
            f"{tuple(int(i) for i in worst)}; expected 0")

    v = pointwise(np.exp, dx_pow(c2, -1) * (-1.0 / (3.0 * m3)))
    vy = dx_pow(v, 1)
    vyy = dx_pow(v, 2)
    vyyy = dx_pow(v, 3)
    t1 = vyy * (3.0 * m3) + multiply(c2, vy) * 2.0 + multiply(c1, v)
    t0 = (
        omega_dphi(v, freq)
        + vyyy * m3
        + multiply(c2, vyy)
        + multiply(c1, vy)
        + multiply(c0, v)
    )
    v_inv = _reciprocal(v)
    d1, d0 = multiply(t1, v_inv), multiply(t0, v_inv)
    return {"v": v, "d1": d1, "d0": d0}


# ----------------------------------------------------------------- step 4


def step4_translation(d1, d0, freq: Frequency):
    """Make the x-average of the d_x coefficient constant by y |-> y + p(theta)."""
    trunc = d1.trunc
    m1 = d1.mean
    avg = x_average(d1)  # function of theta, constant in x
    V = avg.shift_mean(-m1) * (-1.0)  # m1 - average
    p = omega_dphi_inv(V, freq)

    # T^{-1}: one batched composition with -p
    t1, e0 = compose("space", [d1, d0], -p)
    e1 = omega_dphi(p, freq) + t1
    return {"m1": m1, "p": p, "e1": e1, "e0": e0}


# ----------------------------------------------------------------- step 5


def step5_pseudo_diff(e1, e0, m3: float, m1: float, freq: Frequency,
                      mode: str = "generic"):
    """Trade the remaining variable d_x coefficient for an order-zero remainder
    via S = I + w d_x^{-1} (or its exponential form in hamiltonian mode)."""
    trunc = e1.trunc
    w = dx_pow(e1.shift_mean(-m1) * (-1.0), -1) * (1.0 / (3.0 * m3))
    r1 = dx_pow(w, 1) * (3.0 * m3) + e1.shift_mean(-m1)

    core = opalg.scale_modes(opalg.from_multiplication(w),
                             cols=opalg.symbol(trunc, opalg.dx_inv_symbol))
    if mode == "hamiltonian":
        psi = opalg.scale_modes(core, rows=opalg.symbol(trunc, opalg.pi0_symbol))
        S = opalg.matrix_exponential(psi)
        S_inv = opalg.matrix_exponential(psi.scale(-1.0))
    else:
        S = opalg.add(opalg.identity(trunc), core)
        S_inv = opalg.neumann_inverse(core)

    # R = S^{-1}(L4 S - S D) with D = omega.d_phi + m3 d_xxx + m1 d_x,
    # assembled exactly in the operator algebra; [omega.d_phi, S] scales each
    # block of S by i omega.l and the d_x powers scale its rows or columns,
    # so every term below is Toplitz
    dx = 1j * trunc.mode_range(trunc.nu)
    q = opalg.omega_commutator(S, freq)
    q = opalg.add(q, opalg.scale_modes(S, rows=m3 * dx**3))
    q = opalg.add(q, opalg.scale_modes(S, cols=-m3 * dx**3))
    q = opalg.add(q, opalg.compose(opalg.from_multiplication(e1),
                                   opalg.scale_modes(S, rows=dx)))
    q = opalg.add(q, opalg.compose(opalg.from_multiplication(e0), S))
    q = opalg.add(q, opalg.scale_modes(S, cols=-m1 * dx))
    R = opalg.compose(S_inv, q)
    return {"w": w, "r1": r1, "S": S, "S_inv": S_inv, "R": R}


# ------------------------------------------------------------- full chain


@dataclass
class RegularizationResult:
    m3: float
    m1: float
    R: opalg.ToplitzOperator
    chain: dict
    mode: str
    trunc: Truncation
    freq: Frequency
    coefficients: tuple  # (a3, a2, a1, a0)
    diagnostics: dict = dc_field(default_factory=dict)

    # ---- elementary transforms as field actions

    def A(self, z, inverse: bool = False):
        ch = self.chain
        if inverse:
            out = compose("space", z, ch["beta_tilde"])
            if self.mode == "hamiltonian":
                out = multiply(ch["sigma_tilde"], out)
            return out
        out = compose("space", z, ch["beta"])
        if self.mode == "hamiltonian":
            out = multiply(ch["sigma"], out)
        return out

    def B(self, z, inverse: bool = False):
        disp = self.chain["alpha_tilde"] if inverse else self.chain["alpha"]
        return compose("time", z, disp, self.freq)

    def rho_mult(self, z, inverse: bool = False):
        rho = self.chain["rho"]
        return _divide(z, rho) if inverse else multiply(rho, z)

    def M(self, z, inverse: bool = False):
        v = self.chain.get("v")
        if v is None:
            return z
        return _divide(z, v) if inverse else multiply(v, z)

    def T(self, z, inverse: bool = False):
        p = self.chain["p"]
        return compose("space", z, -p if inverse else p)

    def S(self, z, inverse: bool = False):
        op = self.chain["S_inv"] if inverse else self.chain["S"]
        return opalg.apply(op, z)

    # ---- composites

    @staticmethod
    def _through(steps, z, inverse: bool):
        """The product of steps (outermost first) applied to z, or its inverse."""
        for step in (steps if inverse else steps[::-1]):
            z = step(z, inverse=inverse)
        return z

    def phi2(self, z, inverse: bool = False):
        return self._through((self.A, self.B, self.M, self.T, self.S), z, inverse)

    def phi1(self, z, inverse: bool = False):
        return self._through((self.A, self.B, self.rho_mult, self.M, self.T, self.S), z, inverse)

    # ---- operators

    def apply_L(self, z):
        a3, a2, a1, a0 = self.coefficients
        out = omega_dphi(z, self.freq) + dx_pow(z, 3)
        out = out + multiply(a3, dx_pow(z, 3)) + multiply(a2, dx_pow(z, 2))
        return out + multiply(a1, dx_pow(z, 1)) + multiply(a0, z)

    def apply_L5(self, z):
        out = omega_dphi(z, self.freq) + dx_pow(z, 3) * self.m3
        return out + dx_pow(z, 1) * self.m1 + opalg.apply(self.R, z)


def run_regularization(a3, a2, a1, a0, freq: Frequency,
                       mode: str = "generic") -> RegularizationResult:
    """Full Steps 1-5 from the four linearization coefficients."""
    s1 = step1_space_diffeo(a3, a2, a1, a0, freq, mode)
    s2 = step2_time_reparam(s1["b3"], s1["b2"], s1["b1"], s1["b0"], freq)
    m3 = s2["m3"]
    if mode == "hamiltonian":
        # the d_yy coefficient already vanishes: no descent step needed
        s3 = {"v": None, "d1": s2["c1"], "d0": s2["c0"]}
    else:
        s3 = step3_descent_zero(s2["c2"], s2["c1"], s2["c0"], m3, freq)
    s4 = step4_translation(s3["d1"], s3["d0"], freq)
    m1 = s4["m1"]
    s5 = step5_pseudo_diff(s4["e1"], s4["e0"], m3, m1, freq, mode)

    chain = {**s1, **s2, **s3, **s4, **s5}
    diagnostics = {
        "m3_minus_1": abs(m3 - 1.0),
        "m1_abs": abs(m1),
        "R_norm_s0": opalg.decay_norm(s5["R"], a3.trunc.s0),
        "r1_sup": float(np.max(np.abs(s5["r1"].c))),
        "b2_sup": float(np.max(np.abs(s1["b2"].c))) if mode == "hamiltonian" else None,
    }
    return RegularizationResult(
        m3=m3,
        m1=m1,
        R=s5["R"],
        chain=chain,
        mode=mode,
        trunc=a3.trunc,
        freq=freq,
        coefficients=(a3, a2, a1, a0),
        diagnostics=diagnostics,
    )


def regularize_at(spec, freq: Frequency, u: FourierField) -> RegularizationResult:
    """Linearize the residual map at u and run the full chain."""
    from .nonlin import linearized_coefficients

    a3, a2, a1, a0 = linearized_coefficients(spec, u)
    mode = "hamiltonian" if spec.declared_form == "hamiltonian_F" else "generic"
    return run_regularization(a3, a2, a1, a0, freq, mode)


def conjugacy_residual(reg: RegularizationResult, z: FourierField) -> float:
    """|L(Phi2 z) - Phi1(L5 z)|_{s0} on a probe field z."""
    from .spectral import sobolev_norm

    lhs = reg.apply_L(reg.phi2(z))
    rhs = reg.phi1(reg.apply_L5(z))
    return sobolev_norm(lhs - rhs, reg.trunc.s0)
