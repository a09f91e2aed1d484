"""Quadratic reduction of L = omega.d_phi + D + R to constant diagonal form.

Starting from the regularized operator omega.d_phi + m3 d_xxx + m1 d_x + R0,
each step solves a homological equation for a transformation Phi = I + Psi
(exp(Psi) in hamiltonian mode), absorbs the diagonal part of the remainder
into the Floquet exponents mu_j, and leaves a quadratically smaller remainder.

`screen` is the one implementation of the paper's Melnikov divisor bounds,
first order |i omega.l + mu_j| >= 2 gamma <j>^3 <l>^-tau and second order
|i omega.l + mu_j - mu_k| >= gamma |j^3 - k^3| <l>^-tau.  It checks an explicit
support: `solve_homological` passes the paper's index set, every |l| <= N and
every (j, k), whatever the remainder holds, `solver.diag_inverse` every
(l, j) != (0, 0), and `melnikov_mask` a whole l-rectangle per value of the
modulation parameter.  An exclusion is data: the failing step's violations,
and the one of smallest margin |delta| / bound with its divisor and bound,
stay in the returned state.  The module also writes a per-step trace
suitable for CSV export.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import opalg
from .opalg import DiagonalOperator, ToplitzOperator
from .spectral import FourierField, Frequency, Truncation, index_weights, sobolev_norm

__all__ = [
    "IterationSchedule",
    "ReducibilityState",
    "ReductionResult",
    "ReductionError",
    "ContractionError",
    "StagnationError",
    "SmallnessError",
    "airy_diagonal",
    "initial_state",
    "screen",
    "solve_homological",
    "homological_residual",
    "kam_step",
    "reduce",
    "melnikov_mask",
    "eigenvalue_report",
    "write_trace_csv",
]

#: safety factor applied on top of the resonance locality bound
#: |j^3 - k^3| <= 8 |omega_bar . l| when restricting divisor scans
LOCALITY_SAFETY = 2.0


class ReductionError(RuntimeError):
    """Base class for failures of the iterative diagonalization."""


class ContractionError(ReductionError):
    """The homological solution is too large for Phi = I + Psi to invert."""


class StagnationError(ReductionError):
    """The remainder failed to decrease for several consecutive steps."""


class SmallnessError(ReductionError):
    """The initial remainder is too large for the quadratic scheme."""


@dataclass(frozen=True)
class IterationSchedule:
    """Truncation/contraction schedule N_nu = N0^(chi^nu) with divisor bounds."""

    N0: int = 4
    chi: float = 1.5
    gamma: float = 0.05
    tau: float = 3.0
    max_steps: int = 12
    target_decay: float = 1e-10
    mode: str = "generic"
    smallness_threshold: float = 0.1

    def cutoff(self, nu_step: int, n_phi: int) -> int:
        """Time-truncation N_nu, capped where the complement projector dies."""
        n = round(float(self.N0) ** (self.chi**nu_step))
        return int(min(n, 2 * n_phi))


@dataclass(frozen=True)
class ReducibilityState:
    nu_step: int
    D: DiagonalOperator
    R: ToplitzOperator
    # product of the steps' transformations, the identity at nu_step = 0
    Phi_acc: ToplitzOperator
    Phi_acc_inv: ToplitzOperator
    schedule: IterationSchedule
    # (l, j, k) divisor violations of a failed step; None while not excluded
    exclusion: list | None = None
    # (l, j, k, |delta|, bound) of the violation of smallest margin
    worst_violation: tuple | None = None

    @property
    def mask(self) -> bool:
        return self.exclusion is None


class HomologicalSolution(NamedTuple):
    Psi: ToplitzOperator | None
    diag_part: DiagonalOperator
    ok: bool
    violations: list
    worst_violation: tuple | None = None


@dataclass
class ReductionResult:
    eigs: DiagonalOperator
    Phi_inf: ToplitzOperator
    Phi_inf_inv: ToplitzOperator
    trace: list
    state: ReducibilityState

    @property
    def exclusion(self) -> list | None:
        return self.state.exclusion

    @property
    def mask(self) -> bool:
        return self.state.mask


def airy_diagonal(trunc: Truncation, m3: float, m1: float) -> DiagonalOperator:
    """Unperturbed exponents mu_j = -i (m3 j^3 - m1 j)."""
    j = trunc.mode_range(trunc.nu)
    return DiagonalOperator(trunc, -1j * (m3 * j.astype(float) ** 3 - m1 * j))


def screen(dots, lsz, mu, gamma: float, tau: float, order: str, where):
    """The Melnikov divisor screen on an l-table; returns (violations, delta, bound).

    dots holds omega.l and lsz the weights <l> = max(1, |l|_inf), both over the
    same l-shape; mu holds the exponents mu_j, |j| <= n_x.  order "first":
    delta(l, j) = i omega.l + mu_j against 2 gamma <j>^3 <l>^-tau; order
    "second": delta(l, j, k) = i omega.l + mu_j - mu_k against
    gamma |j^3 - k^3| <l>^-tau (zero, so never violated, at j = k).  The
    boolean violations are where & (|delta| < bound); `where` (broadcastable to
    delta) is the support to check, chosen by the caller.
    """
    n_x = (len(mu) - 1) // 2
    j = np.arange(-n_x, n_x + 1, dtype=float)
    decay = lsz ** (-tau)
    if order == "first":
        delta = 1j * dots[..., None] + mu
        bound = 2.0 * gamma * np.maximum(1.0, np.abs(j)) ** 3 * decay[..., None]
    elif order == "second":
        delta = 1j * dots[..., None, None] + (mu[:, None] - mu[None, :])
        bound = gamma * np.abs(j[:, None] ** 3 - j[None, :] ** 3) * decay[..., None, None]
    else:
        raise ValueError(f"unknown order {order!r}")
    return where & (np.abs(delta) < bound), delta, bound


def solve_homological(
    D: DiagonalOperator,
    R: ToplitzOperator,
    freq: Frequency,
    N: int,
    gamma: float,
    tau: float,
) -> HomologicalSolution:
    """Closed-form solution Psi^k_j(l) = R^k_j(l) / (i omega.l + mu_j - mu_k).

    Every divisor with |l| <= N is screened first, whatever R holds there:
    off-diagonal pairs must pass the second-order `screen`, and the j = k
    entries (l != 0) inherit the Diophantine floor of the frequency witness.
    On any violation no Psi is produced (ok = False) and the offending indices
    are reported, with |delta| and the bound of the one of smallest margin;
    exclusion is data, not an error.
    """
    trunc = R.trunc
    mu = D.mu
    dots = freq.omega_dot_l(trunc, double=True)
    linf = index_weights(trunc.nu, 2 * trunc.n_phi)
    lsz = index_weights(trunc.nu, 2 * trunc.n_phi, floor=1.0)
    within = np.broadcast_to((linf <= N)[(...,) + (None, None)], R.blocks.shape)
    _, delta, bound = screen(dots, lsz, mu, gamma, tau, "second", within)
    # the j = k divisor is i omega.l; there the bound is the Diophantine
    # floor of the frequency witness (none at l = 0, where [R] is absorbed)
    diag = np.arange(len(mu))
    center = (2 * trunc.n_phi,) * trunc.nu
    bound[..., diag, diag] = (freq.gamma0 * lsz ** (-freq.tau0))[..., None]
    bound[center + (diag, diag)] = 0.0
    bad = within & (np.abs(delta) < bound)

    diag_part = DiagonalOperator(trunc, np.diagonal(R.blocks[center]).copy())

    if bad.any():
        npk, nx = trunc.n_phi, trunc.n_x

        def named(row):
            return (tuple(int(i) - 2 * npk for i in row[: trunc.nu]),
                    int(row[-2]) - nx, int(row[-1]) - nx)

        violations = [named(row) for row in np.argwhere(bad)[:10]]
        margin = np.where(bad, np.abs(delta), np.inf) / np.where(bad, bound, 1.0)
        idx = np.unravel_index(np.argmin(margin), bad.shape)
        worst = named(idx) + (float(np.abs(delta[idx])), float(bound[idx]))
        return HomologicalSolution(None, diag_part, False, violations, worst)

    # no violation, so every divisor on the kept set is nonzero
    keep = within.copy()
    keep[center + (diag, diag)] = False  # (j-k,l)=(0,0)
    # with blocks indexed by offset l = (output - input), eq:homo reads
    # (i omega.l + mu_j - mu_k) Psi^k_j(l) = -R^k_j(l) off the (0,0) entries
    blocks = np.zeros_like(R.blocks)
    np.divide(-R.blocks, delta, out=blocks, where=keep)
    return HomologicalSolution(ToplitzOperator(trunc, blocks), diag_part, True, [])


def homological_residual(
    Psi: ToplitzOperator,
    D: DiagonalOperator,
    R: ToplitzOperator,
    freq: Frequency,
    N: int,
) -> float:
    """sup-entry residual of omega.d_phi Psi + [D, Psi] + Pi_N R - [R]."""
    trunc = Psi.trunc
    mu = D.mu
    t = opalg.omega_commutator(Psi, freq).blocks.copy()
    t += mu[:, None] * Psi.blocks - Psi.blocks * mu[None, :]
    t += opalg.smooth(R, N).blocks
    center = (2 * trunc.n_phi,) * trunc.nu
    diag = np.arange(2 * trunc.n_x + 1)
    t[center + (diag, diag)] -= np.diagonal(R.blocks[center])
    scale = 1.0 + float(np.max(np.abs(R.blocks)))
    return float(np.max(np.abs(t))) / scale


def kam_step(state: ReducibilityState, freq: Frequency) -> ReducibilityState:
    """One quadratic step: D -> D + [R], R -> Phi^{-1}(Pi_N^perp R + R Psi - Psi [R])."""
    sched = state.schedule
    trunc = state.R.trunc
    N = sched.cutoff(state.nu_step, trunc.n_phi)
    sol = solve_homological(state.D, state.R, freq, N, sched.gamma, sched.tau)
    if not sol.ok:
        return replace(state, exclusion=sol.violations, worst_violation=sol.worst_violation)
    Psi = sol.Psi
    psi_norm = opalg.decay_norm(Psi, trunc.s0)
    if psi_norm >= 0.5:
        raise ContractionError(
            f"|Psi|_s0 = {psi_norm:.3f} >= 1/2 at step {state.nu_step}"
        )

    D_new = state.D + sol.diag_part
    if sched.mode == "hamiltonian":
        Phi = opalg.matrix_exponential(Psi)
        Phi_inv = opalg.matrix_exponential(Psi.scale(-1.0))
        # exp(Psi) satisfies the homological equation only to first order in
        # Psi, so conjugate exactly: R+ = Phi^{-1} L Phi - (omega.d_phi + D+)
        q = opalg.omega_commutator(Phi, freq)
        q = opalg.add(q, opalg.scale_modes(Phi, rows=state.D.mu))
        q = opalg.add(q, opalg.compose(state.R, Phi))
        q = opalg.add(q, opalg.scale_modes(Phi, cols=-D_new.mu))
        R_new = opalg.compose(Phi_inv, q)
    else:
        Phi = opalg.add(opalg.identity(trunc), Psi)
        Phi_inv = opalg.neumann_inverse(Psi)
        q = opalg.smooth_complement(state.R, N)
        q = opalg.add(q, opalg.compose(state.R, Psi))
        q = opalg.add(q, opalg.scale_modes(Psi, cols=-sol.diag_part.mu))
        R_new = opalg.compose(Phi_inv, q)

    first = state.nu_step == 0  # Phi_acc is still the identity
    return ReducibilityState(
        nu_step=state.nu_step + 1,
        D=D_new,
        R=R_new,
        Phi_acc=Phi if first else opalg.compose(state.Phi_acc, Phi),
        Phi_acc_inv=Phi_inv if first else opalg.compose(Phi_inv, state.Phi_acc_inv),
        schedule=sched,
    )


def initial_state(reg, schedule: IterationSchedule) -> ReducibilityState:
    """Step-0 state from a regularization result (D0 from m3, m1; R0 = reg.R)."""
    trunc = reg.trunc
    return ReducibilityState(
        nu_step=0,
        D=airy_diagonal(trunc, reg.m3, reg.m1),
        R=reg.R,
        Phi_acc=opalg.identity(trunc),
        Phi_acc_inv=opalg.identity(trunc),
        schedule=schedule,
    )


def _trace_row(state: ReducibilityState, D0: DiagonalOperator, N: int) -> dict:
    s0 = state.R.trunc.s0
    return {
        "step": state.nu_step,
        "N": N,
        "R_s0": opalg.decay_norm(state.R, s0),
        "R_s0p2": opalg.decay_norm(state.R, s0 + 2.0),
        "sup_r": float(np.max(np.abs(state.D.mu - D0.mu))),
        "mask_fraction": 1.0 if state.mask else 0.0,
    }


def reduce(reg, freq: Frequency, schedule: IterationSchedule) -> ReductionResult:
    """Iterate kam_step until |R_nu|_{s0} < target_decay (or exclusion).

    Raises SmallnessError when the initial remainder violates the operational
    smallness test |R0|_{s0} N0^(2 tau + 1) / gamma < threshold, and
    StagnationError when the norm fails to decrease three steps in a row.
    """
    trunc = reg.trunc
    s0 = trunc.s0
    state = initial_state(reg, schedule)
    D0 = state.D

    r0 = opalg.decay_norm(state.R, s0)
    smallness = r0 * float(schedule.N0) ** (2.0 * schedule.tau + 1.0) / schedule.gamma
    if r0 > 0.0 and smallness >= schedule.smallness_threshold:
        raise SmallnessError(
            f"|R0|_s0 N0^(2 tau + 1) / gamma = {smallness:.3e} "
            f">= {schedule.smallness_threshold}"
        )

    trace = [_trace_row(state, D0, schedule.cutoff(0, trunc.n_phi))]
    flat = 0
    norm = r0
    while norm > schedule.target_decay and state.nu_step < schedule.max_steps:
        new_state = kam_step(state, freq)
        if not new_state.mask:
            trace.append(_trace_row(new_state, D0, 0))
            return ReductionResult(
                eigs=state.D,
                Phi_inf=state.Phi_acc,
                Phi_inf_inv=state.Phi_acc_inv,
                trace=trace,
                state=new_state,
            )
        state = new_state
        new_norm = opalg.decay_norm(state.R, s0)
        flat = flat + 1 if new_norm >= norm else 0
        if flat >= 3:
            raise StagnationError(
                f"|R|_s0 stalled at {new_norm:.3e} for 3 consecutive steps"
            )
        norm = new_norm
        trace.append(_trace_row(state, D0, schedule.cutoff(state.nu_step, trunc.n_phi)))

    return ReductionResult(
        eigs=state.D,
        Phi_inf=state.Phi_acc,
        Phi_inf_inv=state.Phi_acc_inv,
        trace=trace,
        state=state,
    )


def conjugation_residual(reg, red: ReductionResult, z: FourierField) -> float:
    """|L5(Phi_inf z) - Phi_inf (omega.d_phi + D_inf) z|_{s0} on a probe field."""
    from .spectral import omega_dphi

    trunc = reg.trunc
    lhs = reg.apply_L5(opalg.apply(red.Phi_inf, z))
    dz = omega_dphi(z, reg.freq)
    mu = red.eigs.mu
    dz = FourierField(trunc, dz.c + z.c * mu.reshape((1,) * trunc.nu + (-1,)))
    rhs = opalg.apply(red.Phi_inf, dz)
    return sobolev_norm(lhs - rhs, trunc.s0)


# ---------------------------------------------------------------------------
# non-resonance masks over a lambda grid


def _l_table(nu: int, N: int) -> np.ndarray:
    rng = np.arange(-N, N + 1)
    grids = np.meshgrid(*([rng] * nu), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def melnikov_mask(
    lambdas: np.ndarray,
    eigs_by_lambda: list,
    omega_bar,
    gamma: float,
    tau: float,
    N: int,
    order: str = "second",
    locality: float | None = LOCALITY_SAFETY,
) -> np.ndarray:
    """Per-lambda acceptance under the first or second order divisor `screen`.

    Second order: checked for j != k only where |j^3 - k^3| <= 8 |omega_bar.l|
    inflated by the safety factor `locality` (pass None for the full scan).
    First order: checked for (l, j) != (0, 0).  Both over |l|_inf <= N.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    ob = np.atleast_1d(np.asarray(omega_bar, dtype=float))
    nu = len(ob)
    obl = _l_table(nu, N) @ ob
    lsz = index_weights(nu, N, floor=1.0).ravel()

    out = np.zeros(len(lambdas), dtype=bool)
    for i, (lam, eigs) in enumerate(zip(lambdas, eigs_by_lambda)):
        m = len(eigs.mu)
        if order == "first":
            where = np.ones((len(obl), m), dtype=bool)
            where[len(obl) // 2, m // 2] = False  # (l, j) = (0, 0)
        elif locality is None:
            where = True
        else:
            j = np.arange(m, dtype=float) - m // 2
            diff = np.abs(j[:, None] ** 3 - j[None, :] ** 3)
            where = diff <= 8.0 * locality * np.abs(obl)[:, None, None]
        bad, _, _ = screen(lam * obl, lsz, eigs.mu, gamma, tau, order, where)
        out[i] = not bad.any()
    return out


def eigenvalue_report(
    eigs: DiagonalOperator,
    m3: float,
    m1: float,
    epsilon: float,
    mode: str = "generic",
) -> dict:
    """Structural defects of the final exponents relative to the Airy part."""
    trunc = eigs.trunc
    mu = eigs.mu
    mu0 = airy_diagonal(trunc, m3, m1).mu
    report = {
        "sup_rj": float(np.max(np.abs(mu - mu0))),
        "re_mu_max": float(np.max(np.abs(mu.real))),
        "mu0_abs": float(np.abs(eigs.mu_at(0))),
        "conj_defect": eigs.conjugate_symmetry_defect(),
        "epsilon": epsilon,
        "mode": mode,
    }
    if mode in ("reversible", "hamiltonian"):
        report["antisym_defect"] = float(np.max(np.abs(mu + mu[::-1])))
    return report


def write_trace_csv(trace: list, path) -> None:
    fields = ["step", "N", "R_s0", "R_s0p2", "sup_r", "mask_fraction"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in trace:
            writer.writerow({k: row[k] for k in fields})
