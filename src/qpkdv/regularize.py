"""Conjugation of L = omega.d_phi + (1+a3)d_xxx + a2 d_xx + a1 d_x + a0 to
constant leading coefficients.

Five successive transformations (space diffeomorphism, time reparametrization,
multiplication by v = exp(e), written in e so that nothing is divided,
x-translation, pseudo-differential correction) reduce the variable-coefficient
operator to

    L5 = omega.d_phi + m3 d_xxx + m1 d_x + R

with constants m3 = 1 + O(eps), m1 = O(eps) and a bounded remainder R of
order d_x^0, returned as a Toplitz operator ready for the reducibility scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import opalg
from .nonlin import apply_L, linearized_coefficients
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
    sobolev_norm,
    synthesize,
    x_average,
)


class ZeroMeanViolation(NumericalFailure, ValueError):
    """The d_xx coefficient has nonzero x-mean somewhere: the structural
    hypotheses on f do not hold at this input."""


DIVISION_FLOOR = 1e-14
# step 3 requires |x-mean of c2| <= ZERO_MEAN_TOL at every phi node
ZERO_MEAN_TOL = 1e-9


def _inverse(samples: np.ndarray, what: str) -> np.ndarray:
    """1/g on grid samples of g, refused where g comes within DIVISION_FLOOR of zero."""
    if np.min(np.abs(samples)) < DIVISION_FLOOR:
        raise DegenerateCoefficientError(f"division by a vanishing {what}")
    return 1.0 / samples


# Steps 1-3 evaluate their formulas on the grid: each step synthesizes its
# inputs in one batched call and analyzes its outputs in one, while d_x, omega.d_phi
# and the diffeomorphisms act on coefficients between them.

# ----------------------------------------------------------------- step 1


def step1_space_diffeo(a3, a2, a1, a0, freq: Frequency, mode: str):
    """Flatten the leading coefficient by x |-> x + beta(phi, x).

    Returns a dict with b (the flattened d_yyy coefficient, a function of phi
    alone), the displacement beta, its inverse displacement, and the four
    transformed coefficients.  In hamiltonian mode the transformation carries
    the weight sigma = 1 + beta_x and the d_yy coefficient vanishes identically;
    in generic mode sigma = 1 and the chain holds None for it.
    """
    trunc = a3.trunc
    g3, g2, g1, g0 = synthesize([a3, a2, a1, a0])
    if np.min(1.0 + g3) <= 0.5:
        raise DegenerateCoefficientError(
            f"1 + a3 reaches {np.min(1.0 + g3):.3f} <= 1/2"
        )
    q = (1.0 + g3) ** (-1.0 / 3.0)
    b_phi = np.mean(q, axis=-1, keepdims=True) ** (-3.0)  # per phi node
    rho0, b = analyze(trunc, np.stack([b_phi ** (1.0 / 3.0) * q - 1.0,
                                       np.broadcast_to(b_phi, q.shape)]))
    beta = dx_pow(rho0, -1)
    beta_tilde = invert_torus_diffeo("space", beta)

    hamiltonian = mode == "hamiltonian"
    fields = [dx_pow(beta, k) for k in range(1, 5)] + [omega_dphi(beta, freq)]
    if hamiltonian:
        fields.append(dx_pow(fields[-1], 1))  # omega.d_phi sigma
    bx, bxx, bxxx, bxxxx, wdb, *wds = synthesize(fields)
    opx, a3p = 1.0 + bx, 1.0 + g3
    # sigma and its x-derivatives; sigma = 1 is a scalar in generic mode
    if hamiltonian:
        sigma, sx, sxx, sxxx, wds = opx, bxx, bxxx, bxxxx, wds[0]
    else:
        sigma, sx, sxx, sxxx, wds = 1.0, 0.0, 0.0, 0.0, 0.0

    # weighted conjugation: the coefficients of d_x^k in L(sigma h(x+beta))
    c = analyze(trunc, np.stack([
        a3p * sigma * opx**3,
        a3p * (3.0 * sx * opx**2 + 3.0 * sigma * opx * bxx) + g2 * sigma * opx**2,
        (a3p * (3.0 * sxx * opx + 3.0 * sx * bxx + sigma * bxxx)
         + g2 * (2.0 * sx * opx + sigma * bxx) + g1 * sigma * opx + sigma * wdb),
        a3p * sxxx + g2 * sxx + g1 * sx + g0 * sigma + wds,
    ]))

    # A^{-1}_0: one batched composition with beta_tilde, then the weight's reciprocal
    if hamiltonian:
        sigma = dx_pow(beta, 1).shift_mean(1.0)
        s, *g = synthesize(compose("space", [sigma] + c, beta_tilde))
        s_inv = _inverse(s, "space weight")
        sigma_tilde, *b_k = analyze(trunc, np.stack([s_inv] + [x * s_inv for x in g]))
    else:
        sigma = sigma_tilde = None
        b_k = compose("space", c, beta_tilde)

    b3, b2, b1, b0 = b_k
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
    alpha_tilde = invert_torus_diffeo("time", alpha, freq)

    # B^{-1}: one batched composition with alpha_tilde, then rho's reciprocal
    rho, *b = compose("time", [omega_dphi(alpha, freq).shift_mean(1.0), b2, b1, b0],
                      alpha_tilde, freq)
    r, *g = synthesize([rho] + b)
    r_inv = _inverse(r, "time reparametrization factor")
    rho_inv, c2, c1, c0 = analyze(trunc, np.stack([r_inv] + [x * r_inv for x in g]))
    return {
        "m3": m3,
        "alpha": alpha,
        "alpha_tilde": alpha_tilde,
        "rho": rho,
        "rho_inv": rho_inv,
        "c2": c2,
        "c1": c1,
        "c0": c0,
    }


# ----------------------------------------------------------------- step 3


def step3_descent_zero(c2, c1, c0, m3: float, freq: Frequency):
    """Remove the d_yy coefficient by conjugation with the multiplication
    operator v = exp(e), e = -(1/3m3) d_y^{-1} c2; requires c2 to have zero x-mean.

    v^{-1} L2 v is written in e, with v_y/v = e_y, v_yy/v = e_yy + e_y^2 and
    v_yyy/v = e_yyy + 3 e_y e_yy + e_y^3, so nothing is divided.  v - 1,
    v^{-1} - 1, d1 - c1 and d0 - c0 vanish with e: at c2 = 0 the step returns
    v = v^{-1} = 1, c1 and c0 exactly."""
    trunc = c2.trunc
    e = dx_pow(c2, -1) * (-1.0 / (3.0 * m3))
    g2, g1, ge, ey, eyy, eyyy, wde = synthesize(
        [c2, c1, e] + [dx_pow(e, k) for k in (1, 2, 3)] + [omega_dphi(e, freq)])
    avg = np.mean(g2, axis=-1)  # the x-mean at each phi node
    worst = np.unravel_index(np.argmax(np.abs(avg)), avg.shape)
    if np.abs(avg[worst]) > ZERO_MEAN_TOL:
        raise ZeroMeanViolation(
            f"x-mean of the d_xx coefficient is {avg[worst]:.3e} at phi node "
            f"{tuple(int(i) for i in worst)}; expected 0")

    # d_k - c_k: the coefficients of v^{-1} L2 v - L2 for
    # L2 = omega.d_phi + m3 d_yyy + c2 d_yy + c1 d_y + c0
    vyy = eyy + ey**2  # v_yy / v
    v, v_inv, t1, t0 = analyze(trunc, np.stack([
        np.expm1(ge),
        np.expm1(-ge),
        3.0 * m3 * vyy + 2.0 * g2 * ey,
        wde + m3 * (eyyy + 3.0 * ey * eyy + ey**3) + g2 * vyy + g1 * ey,
    ]))
    return {"v": v.shift_mean(1.0), "v_inv": v_inv.shift_mean(1.0), "d1": c1 + t1, "d0": c0 + t0}


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


def step5_pseudo_diff(e1, e0, m3: float, m1: float, freq: Frequency, mode: str):
    """Trade the remaining variable d_x coefficient for an order-zero remainder
    via S = I + w d_x^{-1} (exp(Pi_0 w d_x^{-1}) in hamiltonian mode)."""
    trunc = e1.trunc
    e1_var = e1.shift_mean(-m1)  # e1 - m1
    w = dx_pow(e1_var * (-1.0), -1) * (1.0 / (3.0 * m3))
    r1 = dx_pow(w, 1) * (3.0 * m3) + e1_var

    rows = opalg.symbol(trunc, opalg.pi0_symbol) if mode == "hamiltonian" else None
    psi = opalg.scale_modes(opalg.from_multiplication(w), rows=rows,
                            cols=opalg.symbol(trunc, opalg.dx_inv_symbol))

    # R = S^{-1}(L4 S - S D) = S^{-1}([D, S] + V S) for L4 = D + V with
    # D = omega.d_phi + m3 d_xxx + m1 d_x and V = (e1 - m1) d_x + e0
    dx = 1j * trunc.mode_range(trunc.nu)
    V = opalg.add(opalg.scale_modes(opalg.from_multiplication(e1_var), cols=dx),
                  opalg.from_multiplication(e0))
    S, S_inv = opalg.near_identity(psi, mode)
    # a zero psi gives S = I, which commutes with D; at u = 0 V is zero too,
    # so both products return the zero operator at once
    R = opalg.conjugate(S, S_inv, freq, m3 * dx**3 + m1 * dx, V, commutes=psi.box is None)
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
        return multiply(self.chain["rho_inv" if inverse else "rho"], z)

    def M(self, z, inverse: bool = False):
        v = self.chain["v_inv" if inverse else "v"]
        return z if v is None else multiply(v, z)

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
        return apply_L(self.coefficients, self.freq, z)

    def apply_L5(self, z):
        out = omega_dphi(z, self.freq) + dx_pow(z, 3) * self.m3
        return out + dx_pow(z, 1) * self.m1 + opalg.apply(self.R, z)


def run_regularization(a3, a2, a1, a0, freq: Frequency, mode: str) -> RegularizationResult:
    """Full Steps 1-5 from the four linearization coefficients."""
    s1 = step1_space_diffeo(a3, a2, a1, a0, freq, mode)
    s2 = step2_time_reparam(s1["b3"], s1["b2"], s1["b1"], s1["b0"], freq)
    m3 = s2["m3"]
    if mode == "hamiltonian":
        # the d_yy coefficient already vanishes: no descent step needed
        s3 = {"v": None, "v_inv": None, "d1": s2["c1"], "d0": s2["c0"]}
    else:
        s3 = step3_descent_zero(s2["c2"], s2["c1"], s2["c0"], m3, freq)
    s4 = step4_translation(s3["d1"], s3["d0"], freq)
    m1 = s4["m1"]
    s5 = step5_pseudo_diff(s4["e1"], s4["e0"], m3, m1, freq, mode)

    chain = {**s1, **s2, **s3, **s4, **s5}
    diagnostics = {
        "m3_minus_1": abs(m3 - 1.0),
        "m1_abs": abs(m1),
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
    a3, a2, a1, a0 = linearized_coefficients(spec, u)
    mode = "hamiltonian" if spec.declared_form == "hamiltonian_F" else "generic"
    return run_regularization(a3, a2, a1, a0, freq, mode)


def conjugacy_residual(reg: RegularizationResult, z: FourierField) -> float:
    """|L(Phi2 z) - Phi1(L5 z)|_{s0} on a probe field z."""
    lhs = reg.apply_L(reg.phi2(z))
    rhs = reg.phi1(reg.apply_L5(z))
    return sobolev_norm(lhs - rhs, reg.trunc.s0)
