"""Right inverse of the linearized operator and the Newton outer iteration.

The linear solve conjugates the linearized operator to constant diagonal form
(regularization followed by the quadratic reduction), divides by the exact
divisors i lambda omega_bar.l + mu_j, and transports the result back through
the transformation chains.  It reads the frequency from the regularization and
the exponents and the transformation's factors from the reduction's final
state; the reduction alone screens the divisors, of both orders.  The mode
(hamiltonian or generic) is decided once, by `regularize_at`, and the
projection (reversible or total derivative) once, by `structure_mode`;
`right_inverse` projects onto the parity classes instead of testing them.
The outer iteration is a projected Newton scheme with shrinking non-resonance
constants gamma_n; values of the modulation parameter lambda whose reduction
fails a divisor bound at some iterate are excluded, and the surviving fraction
of a lambda grid estimates the measure of the admissible set as epsilon varies.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import kamreduce as km
from . import nonlin
from . import opalg
from . import regularize
from .spectral import (
    FourierField,
    Frequency,
    NumericalFailure,
    Truncation,
    index_weights,
    sobolev_norm,
)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "MeasureReport",
    "NonzeroAverageError",
    "StructureError",
    "DivergenceError",
    "project_ball",
    "diag_inverse",
    "right_inverse",
    "structure_mode",
    "nash_moser",
    "galerkin_newton",
    "cantor_measure",
]


class NonzeroAverageError(ValueError):
    """Right-hand side has a nonzero component on the excluded constant mode."""


class StructureError(NumericalFailure, ValueError):
    """The nonlinearity admits no solution of the projected equation."""


class DivergenceError(NumericalFailure, RuntimeError):
    """The outer residual grew for two consecutive steps, or max_iters ran out."""


@dataclass(frozen=True)
class SolverConfig:
    trunc: Truncation
    gamma: float | None = None  # None: use epsilon**a
    a: float = 0.5
    tau: float | None = None  # None: nu + 2
    N0: int = 4
    tol_res: float | None = None  # None: 1e-10 (1 + |F(0)|_{s0})
    max_iters: int = 12
    kam_target: float = 1e-12
    kam_max_steps: int = 12

    def resolved(self, epsilon: float) -> tuple[float, float]:
        gamma = self.gamma if self.gamma is not None else float(epsilon) ** self.a
        tau = self.tau if self.tau is not None else self.trunc.nu + 2.0
        return gamma, tau

    def schedule(self, epsilon: float, n: int | None = None) -> km.IterationSchedule:
        """The KAM schedule of this config: gamma, or gamma_n = gamma (1 + 2^-n)
        at Newton iterate n."""
        gamma, tau = self.resolved(epsilon)
        if n is not None:
            gamma *= 1.0 + 0.5**n
        return km.IterationSchedule(
            N0=self.N0, gamma=gamma, tau=tau,
            max_steps=self.kam_max_steps, target_decay=self.kam_target,
        )


@dataclass
class SolveReport:
    """One solve's ending: converged, excluded with its reason, or failed."""

    iterates: list
    solution: FourierField  # the last iterate
    eigs: np.ndarray | None = None  # the exponents mu_j of the last reduction
    converged: bool = False
    excluded_lambda: bool = False
    exclusion_reason: str | None = None
    failure: str | None = None  # "<NumericalFailure class>: <message>"
    diagnostics: dict = dc_field(default_factory=dict)


@dataclass
class MeasureReport:
    epsilons: list
    fractions: dict
    baseline_fractions: dict
    gamma_rule: dict
    records: dict = dc_field(default_factory=dict)


def project_ball(u: FourierField, N: int) -> FourierField:
    """Keep the modes with <l, j> = max(1, |l|_inf, |j|) <= N."""
    trunc = u.trunc
    c = u.c.copy()
    c[index_weights(trunc.nu, trunc.n_phi, trunc.n_x) > N] = 0.0
    return FourierField(trunc, c)


def _parity_project(u: FourierField, sign: float = 1.0) -> FourierField:
    """Orthogonal projection onto X (coefficients even under (l, j) -> (-l, -j)),
    or onto Y (odd) with sign = -1."""
    return FourierField(u.trunc, 0.5 * (u.c + sign * np.flip(u.c)))


def diag_inverse(mu: np.ndarray, freq: Frequency, g: FourierField) -> FourierField:
    """Solve (omega.d_phi + diag mu) w = g by exact mode division.

    The constant (l, j) = (0, 0) mode is excluded (it spans the kernel), so g
    must carry no component there.  The divisors i omega.l + mu_j are not
    screened here: `kamreduce.reduce` has screened them.
    """
    trunc = g.trunc
    scale = 1.0 + sobolev_norm(g, trunc.s0)
    center = tuple(n // 2 for n in trunc.shape)
    if abs(g.c[center]) > 1e-10 * scale:
        raise NonzeroAverageError(
            f"constant-mode component {abs(g.c[center]):.3e} exceeds tolerance"
        )

    delta = 1j * freq.omega_dot_l(trunc)[..., None] + mu
    delta[center] = 1.0  # the kernel: w carries nothing there
    c = g.c / delta
    c[center] = 0.0
    return FourierField(trunc, c)


def right_inverse(
    reg: regularize.RegularizationResult,
    red: km.ReducibilityState,
    f: FourierField,
    structure: str,
) -> FourierField:
    """Approximate inverse h of the linearized operator applied to f.

    h is transported through both transformation chains: undo the outer chain
    and the reducing transformation, divide by the exact divisors, and map
    back, h = Phi2 Phi_0 ... Phi_k D^{-1} Phi_k^{-1} ... Phi_0^{-1} Phi1^{-1} f,
    applying the reduction's factors to the field one at a time, at the
    frequency of `reg`.  `red` is a state `kamreduce.reduce` did not exclude,
    so no divisor is screened here.  `structure` is what `structure_mode`
    chose; in the reversible case f is projected onto Y and h onto X, so that
    L maps X into Y, and no parity is tested.
    """
    trunc = f.trunc
    scale = 1.0 + sobolev_norm(f, trunc.s0)
    if structure == "total_derivative":
        center = tuple(n // 2 for n in trunc.shape)
        if abs(f.c[center]) > 1e-9 * scale:
            raise StructureError(
                "right-hand side has a nonzero total average; the image of the "
                "linearized operator excludes the constant mode"
            )
    elif structure == "reversible":
        f = _parity_project(f, -1.0)
    else:
        raise ValueError(f"unknown structure {structure!r}")

    g = reg.phi1(f, inverse=True)
    for _, Phi_inv in red.factors:
        g = opalg.apply(Phi_inv, g)
    g = g.shift_mean(-g.mean)  # drop round-off mass on the excluded mode
    h = diag_inverse(red.eigs, reg.freq, g)
    for Phi, _ in reversed(red.factors):
        h = opalg.apply(Phi, h)
    h = reg.phi2(h)
    if structure == "reversible":
        h = _parity_project(h)
    return h


def structure_mode(flags: nonlin.StructureFlags) -> str:
    """The projection `right_inverse` works in for f with these flags."""
    if flags.total_derivative:
        return "total_derivative"
    if flags.reversible:
        return "reversible"
    raise StructureError(
        "f is neither a total x-derivative nor reversible: projecting the "
        "equation onto the constant mode forces epsilon * mean(f) = 0, which "
        "has no solution when mean(f) != 0"
    )


def nash_moser(
    spec: nonlin.NonlinearitySpec,
    freq: Frequency,
    config: SolverConfig,
) -> SolveReport:
    """Projected Newton iteration u_{n+1} = u_n - P_{n+1} L_n^{-1} P_{n+1} F(u_n).

    Each step re-linearizes at the current iterate, reruns the full
    regularization and reduction; the reduction screens the divisors of both
    orders with the shrinking constants gamma_n = gamma (1 + 2^-n).  Every
    call ends in one report: converged; excluded, with the divisor of smallest
    margin as the reason; or failed, with the `NumericalFailure` that stopped
    it.  The
    residual must decrease: two consecutive growths, like running out of
    max_iters, are a DivergenceError.
    """
    report = SolveReport([], FourierField.zeros(config.trunc))
    try:
        _iterate(spec, freq, config, report)
    except NumericalFailure as exc:
        report.failure = exc.describe()
    return report


def _iterate(spec: nonlin.NonlinearitySpec, freq: Frequency, config: SolverConfig,
             report: SolveReport) -> None:
    """The iteration of `nash_moser`, recorded in its report as it goes."""
    trunc = config.trunc
    structure = structure_mode(nonlin.structure_flags(spec))

    u = report.solution
    Fu = nonlin.residual(spec, freq, u)
    res = sobolev_norm(Fu, trunc.s0)
    tol = config.tol_res if config.tol_res is not None else 1e-10 * (1.0 + res)
    report.diagnostics = {"structure": structure, "tol": tol}

    grow = 0
    for n in range(config.max_iters + 1):
        sched = config.schedule(spec.epsilon, n)
        N_next = sched.N(n + 1)
        report.iterates.append({
            "n": n,
            "u_norm": sobolev_norm(u, trunc.s0),
            "res": res,
            "N": min(N_next, max(trunc.n_phi, trunc.n_x)),
            "gamma": sched.gamma,
        })
        if res < tol:
            report.converged = True
            return
        if n == config.max_iters:
            raise DivergenceError(
                f"residual {res:.3e} above tol {tol:.3e} after {n} iterations")

        rg = regularize.regularize_at(spec, freq, u)
        red = km.reduce(rg, freq, sched)
        report.eigs = red.eigs
        if red.exclusion is not None:
            report.excluded_lambda = True
            report.exclusion_reason = str(red.exclusion)
            return
        h = right_inverse(rg, red, project_ball(Fu, N_next), structure)
        del rg, red  # one chain alive at a time: the next iterate builds its own

        u = u - project_ball(h, N_next)
        report.solution = u
        Fu = nonlin.residual(spec, freq, u)
        new_res = sobolev_norm(Fu, trunc.s0)
        grow = grow + 1 if new_res >= res else 0
        if grow >= 2:
            raise DivergenceError(
                f"residual grew twice in a row (now {new_res:.3e})"
            )
        res = new_res


# galerkin_newton stops below GALERKIN_TOL, or fails after GALERKIN_MAX_ITERS
GALERKIN_TOL = 1e-12
GALERKIN_MAX_ITERS = 40


def galerkin_newton(
    spec: nonlin.NonlinearitySpec,
    freq: Frequency,
    trunc: Truncation,
) -> FourierField:
    """Dense reference solver: Newton on the materialized linearization.

    The Jacobian is materialized over the flattened mode rectangle and the
    update solved in the least-squares sense (the minimal-norm solution kills
    the constant-mode kernel).  A full step halves, down to 1/4, after each
    residual growth.  Used as an oracle against the spectral path.
    """
    u = FourierField.zeros(trunc)
    res_prev = np.inf
    step = 1.0
    for _ in range(GALERKIN_MAX_ITERS):
        Fu = nonlin.residual(spec, freq, u)
        res = sobolev_norm(Fu, trunc.s0)
        if res < GALERKIN_TOL:
            return u
        if res > res_prev:
            step = max(0.25, step * 0.5)
        res_prev = res
        a3, a2, a1, a0 = nonlin.linearized_coefficients(spec, u)
        J = opalg.materialize_linearized(a3, a2, a1, a0, freq)
        du, *_ = np.linalg.lstsq(J, -opalg.flatten_field(Fu), rcond=None)
        c = u.c + step * du.reshape(trunc.shape)
        c = 0.5 * (c + np.conj(np.flip(c)))  # keep the iterate real
        u = FourierField(trunc, c)
    raise RuntimeError(f"dense Newton stalled at residual {res:.3e}")


# ---------------------------------------------------------------------------
# measure estimation over the lambda grid


def _measure_point(args) -> dict:
    text, declared_form, epsilon, lam, omega_bar, config = args
    spec = nonlin.parse_nonlinearity(text, declared_form, epsilon=epsilon)
    report = nash_moser(spec, Frequency(omega_bar, lam=lam), config)
    return {
        "lambda": lam,
        "accepted": report.converged,
        "excluded": report.excluded_lambda,
        "residual": report.iterates[-1]["res"] if report.iterates else None,
        "reason": report.exclusion_reason,
        "error": report.failure,
    }


def cantor_measure(
    text: str,
    declared_form: str,
    omega_bar,
    epsilons: list,
    lambda_grid: np.ndarray,
    a: float = 0.5,
    trunc: Truncation | None = None,
    workers: int = 1,
    config_kw: dict | None = None,
) -> MeasureReport:
    """Accepted fraction of the lambda grid for each epsilon, gamma = epsilon^a
    unless config_kw fixes gamma.

    Also reports the gamma-only baseline: the fraction passing the divisor
    masks at the unperturbed exponents mu_j = -i j^3, with no solve, screened
    with the gamma and tau of the solves.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("the exponent a must lie in (0, 1)")
    trunc = trunc or Truncation(len(tuple(np.atleast_1d(omega_bar))), 8, 8)
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    config = SolverConfig(trunc=trunc, a=a, **(config_kw or {}))
    fractions = {}
    baselines = {}
    records = {}
    for eps in epsilons:
        gamma, tau = config.resolved(eps)
        args = [(text, declared_form, eps, float(lam), tuple(omega_bar), config)
                for lam in lambda_grid]
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(workers) as pool:
                rows = list(pool.map(_measure_point, args))
        else:
            rows = [_measure_point(arg) for arg in args]
        records[eps] = rows
        fractions[eps] = sum(r["accepted"] for r in rows) / len(rows)

        airy = [km.airy_diagonal(trunc.n_x, 1.0, 0.0)] * len(lambda_grid)
        base = km.melnikov_mask(lambda_grid, airy, omega_bar, gamma, tau,
                                2 * trunc.n_phi)
        base &= km.melnikov_mask(lambda_grid, airy, omega_bar, gamma, tau,
                                 trunc.n_phi, order="first")
        baselines[eps] = float(base.mean())

    return MeasureReport(
        epsilons=list(epsilons),
        fractions=fractions,
        baseline_fractions=baselines,
        gamma_rule=({"rule": "gamma = epsilon^a", "a": a} if config.gamma is None
                    else {"rule": "fixed gamma", "gamma": config.gamma}),
        records=records,
    )
