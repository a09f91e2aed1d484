"""Quadratic reduction of L = omega.d_phi + D + R to constant diagonal form.

Starting from the regularized operator omega.d_phi + m3 d_xxx + m1 d_x + R0,
each step solves a homological equation for Psi, absorbs the diagonal part
[R] of the remainder into the Floquet exponents mu_j, and conjugates by
Phi = I + Psi (exp(Psi) in hamiltonian mode) through `opalg.near_identity`
and `opalg.conjugate`, as regularization step 5 does.  The new remainder is
quadratically smaller.  The exponents are a plain array, mu[j + n_x] for
|j| <= n_x.

`reduce` returns its final `ReducibilityState`: the exponents `eigs`, the
steps' `factors` (Phi_k, Phi_k^{-1}) in step order, the per-step `trace`, and
the `exclusion` of an excluded lambda beside the last accepted step's `eigs`
and `factors`.  The reducing transformation Phi_0 ... Phi_k is kept as that
list and never multiplied out (the paper's Phi_inf is the limit of the
products, a device of the proof): `solver.right_inverse` applies the factors
to a field in turn, and `dynamics.FrozenChain` multiplies them frozen at each
angle.  The state takes its mode from the regularization.

Each operator carries its support box (`opalg`): the homological Psi lives on
R's box cut to |l| <= N, and a remainder with an empty box has norm 0, so
`reduce` runs no step on it.

`screen` is the one implementation of the paper's Melnikov divisor bounds,
first order |i omega.l + mu_j| >= 2 gamma <j>^3 <l>^-tau and second order
|i omega.l + mu_j - mu_k| >= gamma |j^3 - k^3| <l>^-tau, on a whole table.  The
bound is 0, so never violated, at the kernel (l, j) = (0, 0) of the first order
and on j = k at second order.  `reduce` is the one place that decides an
exclusion: each step screens the second order on the paper's index set, every
|l| <= N and every (j, k), whatever the remainder holds, and the final
exponents are screened at first order on every |l| <= n_phi before any right
inverse divides by them.  `smallest_margin` turns a failed screen into the
one `Exclusion` record, the violation of smallest margin |delta| / bound with
its divisor and bound; `melnikov_mask` screens a whole l-rectangle per value
of the modulation parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import opalg
from .opalg import ToplitzOperator
from .spectral import (
    WITNESS_GAMMA0,
    Frequency,
    NumericalFailure,
    dot_l,
    index_weights,
)

__all__ = [
    "IterationSchedule",
    "Exclusion",
    "ReducibilityState",
    "ReductionError",
    "ContractionError",
    "StagnationError",
    "SmallnessError",
    "airy_diagonal",
    "initial_state",
    "screen",
    "smallest_margin",
    "solve_homological",
    "kam_step",
    "reduce",
    "melnikov_mask",
    "eigenvalue_report",
]

#: the paper's growth exponent chi = 3/2 of the cutoffs N_k = N0^(chi^k)
CHI = 1.5


class ReductionError(NumericalFailure, RuntimeError):
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
    gamma: float = 0.05
    tau: float = 3.0
    max_steps: int = 12
    target_decay: float = 1e-10
    smallness_threshold: float = 1e6  # loose: each step's |Psi|_s0 < 1/2 guard binds

    def N(self, k: int) -> int:
        """N_k = N0^(chi^k), rounded."""
        return round(float(self.N0) ** (CHI**k))

    def cutoff(self, nu_step: int, n_phi: int) -> int:
        """Time-truncation N_nu, capped where the complement projector dies."""
        return min(self.N(nu_step), 2 * n_phi)


@dataclass(frozen=True)
class Exclusion:
    """The divisor that excludes lambda: order "first" (k is None) or "second"."""

    order: str
    l: tuple
    j: int
    k: int | None
    value: float  # |delta|
    bound: float

    def __str__(self) -> str:
        second = self.k is not None
        return (f"divisor |i omega.l + mu_j{' - mu_k' if second else ''}| = "
                f"{self.value:.3e} < {self.bound:.3e} at l={self.l}, j={self.j}"
                + (f", k={self.k}" if second else ""))


@dataclass(frozen=True)
class ReducibilityState:
    nu_step: int
    eigs: np.ndarray  # the exponents mu_j
    R: ToplitzOperator
    schedule: IterationSchedule
    mode: str  # the regularization's: "hamiltonian" conjugates by exp(Psi)
    # the steps' transformations (Phi_k, Phi_k^{-1}) in step order; the
    # reducing transformation is their product Phi_0 ... Phi_k, never formed
    factors: tuple = ()
    # the divisor that excludes lambda, of either order; None while not excluded
    exclusion: Exclusion | None = None
    trace: list = field(default_factory=list)  # reduce's rows, one per step


class HomologicalSolution(NamedTuple):
    Psi: ToplitzOperator | None
    diag_part: np.ndarray
    exclusion: Exclusion | None = None

    @property
    def ok(self) -> bool:
        return self.exclusion is None


def airy_diagonal(n_x: int, m3: float, m1: float) -> np.ndarray:
    """Unperturbed exponents mu_j = -i (m3 j^3 - m1 j), |j| <= n_x."""
    j = np.arange(-n_x, n_x + 1)
    return -1j * (m3 * j.astype(float) ** 3 - m1 * j)


def screen(dots, lsz, mu, gamma: float, tau: float, order: str):
    """The Melnikov divisor screen on an l-table; returns (violations, delta, bound).

    dots holds omega.l and lsz the weights <l> = max(1, |l|_inf), both over the
    same centered l-shape; mu holds the exponents mu_j, |j| <= n_x.  order
    "first": delta(l, j) = i omega.l + mu_j against 2 gamma <j>^3 <l>^-tau,
    except the bound 0 at the center (l, j) = (0, 0), the kernel; order
    "second": delta(l, j, k) = i omega.l + mu_j - mu_k against
    gamma |j^3 - k^3| <l>^-tau (zero at j = k).  The boolean violations are
    |delta| < bound, so a zero bound is never violated.
    """
    n_x = (len(mu) - 1) // 2
    j = np.arange(-n_x, n_x + 1, dtype=float)
    decay = lsz ** (-tau)
    if order == "first":
        delta = 1j * dots[..., None] + mu
        bound = 2.0 * gamma * index_weights(0, 0, n_x, 1.0) ** 3 * decay[..., None]
        bound[tuple(n // 2 for n in bound.shape)] = 0.0
    elif order == "second":
        delta = 1j * dots[..., None, None] + (mu[:, None] - mu[None, :])
        bound = gamma * np.abs(j[:, None] ** 3 - j[None, :] ** 3) * decay[..., None, None]
    else:
        raise ValueError(f"unknown order {order!r}")
    return np.abs(delta) < bound, delta, bound


def smallest_margin(order: str, bad, delta, bound) -> Exclusion | None:
    """The violation of smallest margin |delta| / bound among `screen`'s, or
    None if there is none; bad, delta and bound share one centered layout,
    the l axes first, then j (and k at second order)."""
    if not bad.any():
        return None
    margin = np.where(bad, np.abs(delta), np.inf) / np.where(bad, bound, 1.0)
    idx = np.unravel_index(np.argmin(margin), bad.shape)
    named = [int(i) - (n - 1) // 2 for i, n in zip(idx, bad.shape)]
    nu = bad.ndim - (1 if order == "first" else 2)
    return Exclusion(order, tuple(named[:nu]), named[nu],
                     named[nu + 1] if order == "second" else None,
                     float(np.abs(delta[idx])), float(bound[idx]))


def solve_homological(
    mu: np.ndarray,
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
    On any violation no Psi is produced (ok = False) and the violation of
    smallest margin is reported as the exclusion; exclusion is data, not an
    error.  Psi is divided out on R's box cut to |l| <= N (`opalg.quotient`),
    which is its box.
    """
    trunc = R.trunc
    n2 = 2 * trunc.n_phi
    N = min(N, n2)
    # the index set |l|_inf <= N is a box of the table: screen on it alone
    cut = (slice(n2 - N, n2 + N + 1),) * trunc.nu
    lsz = index_weights(trunc.nu, N, floor=1.0)
    _, delta, bound = screen(freq.omega_dot_l(trunc, double=True)[cut], lsz, mu, gamma, tau,
                             "second")
    # the j = k divisor is i omega.l; there the bound is the Diophantine
    # floor of the frequency witness (none at l = 0, where [R] is absorbed)
    diag = np.arange(len(mu))
    center = (N,) * trunc.nu
    bound[..., diag, diag] = (WITNESS_GAMMA0 * lsz ** -freq.nu)[..., None]
    bound[center + (diag, diag)] = 0.0
    exclusion = smallest_margin("second", np.abs(delta) < bound, delta, bound)

    diag_part = np.diagonal(R.blocks[(n2,) * trunc.nu]).copy()
    if exclusion is not None:
        return HomologicalSolution(None, diag_part, exclusion)

    # no violation, so every divisor on the kept set is nonzero; with blocks
    # indexed by offset l = (output - input), eq:homo reads
    # (i omega.l + mu_j - mu_k) Psi^k_j(l) = -R^k_j(l) off the (0,0) entries
    keep = np.ones(delta.shape, dtype=bool)
    keep[center + (diag, diag)] = False
    return HomologicalSolution(opalg.quotient(R, -delta, keep), diag_part)


def kam_step(state: ReducibilityState, freq: Frequency) -> ReducibilityState:
    """One quadratic step: mu -> mu + [R] and
    R -> Phi^{-1}([omega.d_phi + diag mu, Phi] + R Phi - Phi [R]), with
    Phi = I + Psi (exp(Psi) in hamiltonian mode) for the homological Psi."""
    sched = state.schedule
    trunc = state.R.trunc
    N = sched.cutoff(state.nu_step, trunc.n_phi)
    sol = solve_homological(state.eigs, state.R, freq, N, sched.gamma, sched.tau)
    if not sol.ok:
        return replace(state, exclusion=sol.exclusion)
    Psi = sol.Psi
    psi_norm = opalg.decay_norm(Psi, trunc.s0)
    if psi_norm >= 0.5:
        raise ContractionError(
            f"|Psi|_s0 = {psi_norm:.3f} >= 1/2 at step {state.nu_step}"
        )

    Phi, Phi_inv = opalg.near_identity(Psi, state.mode)
    return replace(
        state,
        nu_step=state.nu_step + 1,
        eigs=state.eigs + sol.diag_part,
        R=opalg.conjugate(Phi, Phi_inv, freq, state.eigs, state.R, sol.diag_part),
        factors=state.factors + ((Phi, Phi_inv),),
    )


def initial_state(reg, schedule: IterationSchedule) -> ReducibilityState:
    """Step-0 state of a regularization: mu from m3, m1, R0 = reg.R, reg.mode."""
    trunc = reg.trunc
    return ReducibilityState(
        nu_step=0,
        eigs=airy_diagonal(trunc.n_x, reg.m3, reg.m1),
        R=reg.R,
        schedule=schedule,
        mode=reg.mode,
    )


def _trace_row(state: ReducibilityState, mu0: np.ndarray, N: int) -> dict:
    s0 = state.R.trunc.s0
    R_s0, R_s0p2 = opalg.decay_norm(state.R, s0, s0 + 2.0)
    return {
        "step": state.nu_step,
        "N": N,
        "R_s0": R_s0,
        "R_s0p2": R_s0p2,
        "sup_r": float(np.max(np.abs(state.eigs - mu0))),
    }


def reduce(reg, freq: Frequency, schedule: IterationSchedule) -> ReducibilityState:
    """Iterate kam_step until |R_nu|_{s0} < target_decay (or exclusion), and
    return the final state with its trace.  An excluded step leaves the last
    accepted step's exponents and factors beside the exclusion.  Otherwise
    the final exponents are screened at first order, every |l| <= n_phi and
    every j, so the state's `exclusion` is the one record for both orders
    (a first-order exclusion adds no trace row).

    Raises SmallnessError when the initial remainder violates the operational
    smallness test |R0|_{s0} N0^(2 tau + 1) / gamma < threshold, and
    StagnationError when the norm fails to decrease three steps in a row.
    """
    trunc = reg.trunc
    state = initial_state(reg, schedule)
    mu0 = state.eigs

    trace = [_trace_row(state, mu0, schedule.cutoff(0, trunc.n_phi))]
    r0 = trace[0]["R_s0"]
    smallness = r0 * float(schedule.N0) ** (2.0 * schedule.tau + 1.0) / schedule.gamma
    if r0 > 0.0 and smallness >= schedule.smallness_threshold:
        raise SmallnessError(
            f"|R0|_s0 N0^(2 tau + 1) / gamma = {smallness:.3e} "
            f">= {schedule.smallness_threshold}"
        )

    flat = 0
    norm = r0
    while norm > schedule.target_decay and state.nu_step < schedule.max_steps:
        state = kam_step(state, freq)
        if state.exclusion is not None:  # the last accepted step's state
            trace.append(_trace_row(state, mu0, 0))
            return replace(state, trace=trace)
        trace.append(_trace_row(state, mu0, schedule.cutoff(state.nu_step, trunc.n_phi)))
        new_norm = trace[-1]["R_s0"]
        flat = flat + 1 if new_norm >= norm else 0
        if flat >= 3:
            raise StagnationError(
                f"|R|_s0 stalled at {new_norm:.3e} for 3 consecutive steps"
            )
        norm = new_norm
    first = screen(freq.omega_dot_l(trunc), index_weights(trunc.nu, trunc.n_phi, floor=1.0),
                   state.eigs, schedule.gamma, schedule.tau, "first")
    return replace(state, exclusion=smallest_margin("first", *first), trace=trace)


# ---------------------------------------------------------------------------
# non-resonance masks over a lambda grid


def melnikov_mask(
    lambdas: np.ndarray,
    mu_by_lambda: list,
    omega_bar,
    gamma: float,
    tau: float,
    N: int,
    order: str = "second",
) -> np.ndarray:
    """Per-lambda acceptance under the first or second order divisor `screen`
    over |l|_inf <= N."""
    lambdas = np.asarray(lambdas, dtype=float)
    ob = np.atleast_1d(np.asarray(omega_bar, dtype=float))
    obl = dot_l(ob, N).ravel()
    lsz = index_weights(len(ob), N, floor=1.0).ravel()

    out = np.zeros(len(lambdas), dtype=bool)
    for i, (lam, mu) in enumerate(zip(lambdas, mu_by_lambda)):
        bad, _, _ = screen(lam * obl, lsz, mu, gamma, tau, order)
        out[i] = not bad.any()
    return out


def eigenvalue_report(
    mu: np.ndarray,
    m3: float,
    m1: float,
    epsilon: float,
    mode: str = "generic",
) -> dict:
    """Structural defects of the final exponents relative to the Airy part."""
    n_x = (len(mu) - 1) // 2
    report = {
        "sup_rj": float(np.max(np.abs(mu - airy_diagonal(n_x, m3, m1)))),
        "re_mu_max": float(np.max(np.abs(mu.real))),
        "mu0_abs": float(np.abs(mu[n_x])),
        "conj_defect": float(np.max(np.abs(mu - np.conj(mu[::-1])))),
        "epsilon": epsilon,
        "mode": mode,
    }
    if mode in ("reversible", "hamiltonian"):
        report["antisym_defect"] = float(np.max(np.abs(mu + mu[::-1])))
    return report

