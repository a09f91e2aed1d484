"""Right inverse of the linearized operator and the Newton outer iteration.

The linear solve conjugates the linearized operator to constant diagonal form
(regularization followed by the quadratic reduction), divides by the exact
divisors i lambda omega_bar.l + mu_j, and transports the result back through
the transformation chains.  The outer iteration is a projected Newton scheme
with shrinking non-resonance constants gamma_n; values of the modulation
parameter lambda that fail a divisor bound at some iterate are excluded, and
the surviving fraction of a lambda grid estimates the measure of the
admissible set as epsilon varies.
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
    Truncation,
    index_weights,
    sobolev_norm,
    structure_check,
)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "MeasureReport",
    "NonzeroAverageError",
    "DivisorViolation",
    "StructureError",
    "DivergenceError",
    "project_ball",
    "diag_inverse",
    "right_inverse",
    "nash_moser",
    "galerkin_newton",
    "cantor_measure",
]


class NonzeroAverageError(ValueError):
    """Right-hand side has a nonzero component on the excluded constant mode."""


class DivisorViolation(ValueError):
    def __init__(self, l, j, value, bound):
        self.l, self.j, self.value, self.bound = l, j, value, bound
        super().__init__(
            f"divisor |i omega.l + mu_j| = {value:.3e} < {bound:.3e} at l={l}, j={j}"
        )


class StructureError(ValueError):
    """The nonlinearity admits no solution of the projected equation."""


class DivergenceError(RuntimeError):
    """The outer residual grew for two consecutive steps."""


@dataclass(frozen=True)
class SolverConfig:
    trunc: Truncation
    gamma: float | None = None  # None: use epsilon**a
    a: float = 0.5
    tau: float | None = None  # None: nu + 2
    N0: int = 4
    chi: float = 1.5
    tol_res: float | None = None  # None: 1e-10 (1 + |F(0)|_{s0})
    max_iters: int = 12
    kam_target: float = 1e-12
    kam_max_steps: int = 12
    # the outer iteration relies on the |Psi| < 1/2 contraction guard instead
    # of the conservative N0^(2 tau + 1) smallness test
    smallness_threshold: float = 1e6

    def resolved(self, nu: int, epsilon: float) -> tuple[float, float]:
        gamma = self.gamma if self.gamma is not None else float(epsilon) ** self.a
        tau = self.tau if self.tau is not None else nu + 2.0
        return gamma, tau

    def schedule(self, epsilon: float, mode: str,
                 n: int | None = None) -> km.IterationSchedule:
        """The KAM schedule of this config: gamma, or gamma_n = gamma (1 + 2^-n)
        at Newton iterate n."""
        gamma, tau = self.resolved(self.trunc.nu, epsilon)
        if n is not None:
            gamma *= 1.0 + 0.5**n
        return km.IterationSchedule(
            N0=self.N0, chi=self.chi, gamma=gamma, tau=tau,
            max_steps=self.kam_max_steps, target_decay=self.kam_target,
            mode=mode, smallness_threshold=self.smallness_threshold,
        )


@dataclass
class SolveReport:
    iterates: list
    solution: FourierField
    eigs: opalg.DiagonalOperator | None
    converged: bool
    excluded_lambda: bool
    lam: float
    epsilon: float
    exclusion_reason: str | None = None
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


def _parity_project(u: FourierField) -> FourierField:
    """Orthogonal projection onto X (coefficients even under (l, j) -> (-l, -j))."""
    rev = u.c[tuple(slice(None, None, -1) for _ in u.c.shape)]
    return FourierField(u.trunc, 0.5 * (u.c + rev))


def diag_inverse(
    eigs: opalg.DiagonalOperator,
    freq: Frequency,
    g: FourierField,
    gamma: float,
    tau: float,
) -> FourierField:
    """Solve (omega.d_phi + D_inf) w = g by exact mode division.

    The constant (l, j) = (0, 0) mode is excluded (it spans the kernel), so g
    must carry no component there; every other divisor passes the first-order
    `kamreduce.screen` before dividing.
    """
    trunc = g.trunc
    scale = 1.0 + sobolev_norm(g, trunc.s0)
    center = tuple(n // 2 for n in trunc.shape)
    if abs(g.c[center]) > 1e-10 * scale:
        raise NonzeroAverageError(
            f"constant-mode component {abs(g.c[center]):.3e} exceeds tolerance"
        )

    check = np.ones(trunc.shape, dtype=bool)
    check[center] = False
    bad, delta, bound = km.screen(freq.omega_dot_l(trunc),
                                  index_weights(trunc.nu, trunc.n_phi, floor=1.0),
                                  eigs.mu, gamma, tau, "first", check)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        l = tuple(int(trunc.mode_range(ax)[idx[ax]]) for ax in range(trunc.nu))
        jj = int(trunc.mode_range(trunc.nu)[idx[-1]])
        raise DivisorViolation(l, jj, float(np.abs(delta[idx])), float(bound[idx]))

    c = np.zeros(trunc.shape, dtype=complex)
    np.divide(g.c, delta, out=c, where=check)
    c[center] = 0.0
    return FourierField(trunc, c)


def right_inverse(
    reg: regularize.RegularizationResult,
    red: km.ReductionResult,
    freq: Frequency,
    f: FourierField,
    gamma: float,
    tau: float,
    structure: str = "reversible",
) -> FourierField:
    """Approximate inverse h of the linearized operator applied to f.

    h is transported through both transformation chains: undo the outer chain
    and the reducing transformation, divide by the exact divisors, and map
    back (h = Phi2 Phi_inf D_inf^{-1} Phi_inf^{-1} Phi1^{-1} f).
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
        if not structure_check(f, tol=1e-8)["in_Y"]:
            raise StructureError("right-hand side must be odd under (phi, x) -> (-phi, -x)")
    else:
        raise ValueError(f"unknown structure {structure!r}")

    g = reg.phi1(f, inverse=True)
    g = opalg.apply(red.Phi_inf_inv, g)
    g = g.shift_mean(-g.mean)  # drop round-off mass on the excluded mode
    w = diag_inverse(red.eigs, freq, g, gamma, tau)
    h = opalg.apply(red.Phi_inf, w)
    h = reg.phi2(h)
    if structure == "reversible":
        h = _parity_project(h)
    return h


def _structure_mode(flags: nonlin.StructureFlags) -> str:
    if flags.hamiltonian or flags.total_derivative:
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
    regularization and reduction, and screens the divisors with the shrinking
    constants gamma_n = gamma (1 + 2^-n): the second order inside the
    reduction, the first order in `diag_inverse`.  A failed screen excludes
    this value of lambda (clean report, not an error).  The residual must
    decrease: two consecutive growths raise DivergenceError.
    """
    trunc = config.trunc
    flags = nonlin.structure_flags(spec)
    structure = _structure_mode(flags)
    mode = "hamiltonian" if spec.declared_form == "hamiltonian_F" else "generic"

    u = FourierField.zeros(trunc)
    Fu = nonlin.residual(spec, freq, u)
    res = sobolev_norm(Fu, trunc.s0)
    tol = config.tol_res if config.tol_res is not None else 1e-10 * (1.0 + res)

    iterates = []
    eigs = None
    grow = 0
    for n in range(config.max_iters + 1):
        sched = config.schedule(spec.epsilon, mode, n)
        N_next = int(round(config.N0 ** (config.chi ** (n + 1))))
        iterates.append({
            "n": n,
            "u_norm": sobolev_norm(u, trunc.s0),
            "res": res,
            "N": min(N_next, max(trunc.n_phi, trunc.n_x)),
            "gamma": sched.gamma,
        })
        if res < tol:
            return SolveReport(iterates, u, eigs, True, False,
                               freq.lam, spec.epsilon,
                               diagnostics={"structure": structure, "tol": tol})
        if n == config.max_iters:
            break

        rg = regularize.regularize_at(spec, freq, u)
        red = km.reduce(rg, freq, sched)
        eigs = red.eigs
        if not red.mask:
            l, j, k, value, bound = red.state.worst_violation
            return SolveReport(iterates, u, eigs, False, True,
                               freq.lam, spec.epsilon,
                               exclusion_reason=f"divisor |i omega.l + mu_j - mu_k| = {value:.3e}"
                                                f" < {bound:.3e} at l={l}, j={j}, k={k}")

        try:
            h = right_inverse(rg, red, freq, project_ball(Fu, N_next),
                              sched.gamma, sched.tau, structure)
        except DivisorViolation as exc:
            return SolveReport(iterates, u, eigs, False, True,
                               freq.lam, spec.epsilon, exclusion_reason=str(exc))
        u = u - project_ball(h, N_next)
        if structure == "reversible" or mode == "hamiltonian":
            u = _parity_project(u)
        Fu = nonlin.residual(spec, freq, u)
        new_res = sobolev_norm(Fu, trunc.s0)
        grow = grow + 1 if new_res >= res else 0
        if grow >= 2:
            raise DivergenceError(
                f"residual grew twice in a row (now {new_res:.3e})"
            )
        res = new_res

    return SolveReport(iterates, u, eigs, False, False, freq.lam, spec.epsilon,
                       diagnostics={"structure": structure, "tol": tol})


def galerkin_newton(
    spec: nonlin.NonlinearitySpec,
    freq: Frequency,
    trunc: Truncation,
    tol: float = 1e-12,
    max_iters: int = 40,
    damping: float = 1.0,
) -> FourierField:
    """Dense reference solver: Newton on the materialized linearization.

    The Jacobian is materialized over the flattened mode rectangle and the
    update solved in the least-squares sense (the minimal-norm solution kills
    the constant-mode kernel).  Used as an oracle against the spectral path.
    """
    u = FourierField.zeros(trunc)
    reality_flip = tuple(slice(None, None, -1) for _ in trunc.shape)
    res_prev = np.inf
    step = damping
    for _ in range(max_iters):
        Fu = nonlin.residual(spec, freq, u)
        res = sobolev_norm(Fu, trunc.s0)
        if res < tol:
            return u
        if res > res_prev:
            step = max(0.25, step * 0.5)
        res_prev = res
        a3, a2, a1, a0 = nonlin.linearized_coefficients(spec, u)
        J = opalg.materialize_linearized(a3, a2, a1, a0, freq)
        du, *_ = np.linalg.lstsq(J, -opalg.flatten_field(Fu), rcond=None)
        c = u.c + step * du.reshape(trunc.shape)
        c = 0.5 * (c + np.conj(c[reality_flip]))  # keep the iterate real
        u = FourierField(trunc, c)
    raise RuntimeError(f"dense Newton stalled at residual {res:.3e}")


# ---------------------------------------------------------------------------
# measure estimation over the lambda grid


def _measure_point(args) -> dict:
    (text, declared_form, epsilon, lam, omega_bar, n_phi, n_x, nu,
     a, config_kw) = args
    spec = nonlin.parse_nonlinearity(text, declared_form, epsilon=epsilon)
    freq = Frequency(omega_bar, lam=lam)
    trunc = Truncation(nu, n_phi, n_x)
    config = SolverConfig(trunc=trunc, a=a, **config_kw)
    try:
        report = nash_moser(spec, freq, config)
    except (DivergenceError, km.ReductionError,
            regularize.ZeroMeanViolation,
            regularize.DegenerateCoefficientError) as exc:
        return {"lambda": lam, "accepted": False, "excluded": False,
                "error": str(exc)}
    return {
        "lambda": lam,
        "accepted": bool(report.converged),
        "excluded": bool(report.excluded_lambda),
        "residual": report.iterates[-1]["res"],
        "reason": report.exclusion_reason,
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
    config_kw = dict(config_kw or {})

    config = SolverConfig(trunc=trunc, a=a, **config_kw)
    fractions = {}
    baselines = {}
    records = {}
    for eps in epsilons:
        gamma, tau = config.resolved(trunc.nu, eps)
        args = [
            (text, declared_form, eps, float(lam), tuple(omega_bar),
             trunc.n_phi, trunc.n_x, trunc.nu, a, config_kw)
            for lam in lambda_grid
        ]
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(workers) as pool:
                rows = list(pool.map(_measure_point, args))
        else:
            rows = [_measure_point(arg) for arg in args]
        records[eps] = rows
        fractions[eps] = sum(r["accepted"] for r in rows) / len(rows)

        airy = [km.airy_diagonal(trunc, 1.0, 0.0) for _ in lambda_grid]
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
