"""Linear-stability verification in the time domain.

The forced linear equation d_t h + (1 + a3(omega t, x)) d_xxx h + a2 d_xx h
+ a1 d_x h + a0 h = 0 is integrated directly with an exponential
integrating-factor scheme, and independently predicted by pushing the exact
diagonal flow v_j(t) = e^{-mu_j t} v_j(0) through the transformation chain
frozen along the trajectory phi = omega t.  Agreement of the two, and the
flatness of the transported norm t -> |v(t)|_{H^s_x}, are the verification
artifacts.  A state is a plain array of centered x-coefficients h_j,
|j| <= n_x, and the exponents mu_j are one array of the same layout.

Along phi = omega t the frozen operator -(a3 d^3 + a2 d^2 + a1 d + a0) is
sum_l e^{i omega.l t} N_l with fixed blocks N_l.  The equation is linear, so
a whole RK4 step is one matrix, the identity plus an increment D(omega t)
conjugated by the Airy phases.  The integrator tabulates D once per call,
on the offsets whose blocks lie above the rounding floor of the FFT that
made the table (9 of 65 on the criterion-9 problem at n = 8), and freezes
it a chunk of steps at a time.  Along t = t_n0 + k dt the offset phases
factor as e^{i omega.l t_n0} e^{i omega.l k dt}, so one table of the second
factor serves every chunk, and a chunk costs one phase per offset, a row
scaling and one product.  The Airy phases are exponentials at each step's
own time t: split at t_n0, their arguments would round differently, by up
to an ulp of t times j^3, and the oracle tests resolve that.  The
coefficients are real, so D[-r, -c] = conj D[r, c], also after the Airy
conjugation: only the rows j >= 0 are frozen, and the rows j < 0 are their
mirror.  Each step is then one matrix-vector product.  The chain is frozen
with ``opalg.freeze`` at all sample times of a report, one call per factor
(the reduction's factors are multiplied frozen, never as tables), and
inverted by one batched ``np.linalg.inv``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import opalg
from . import kamreduce as km
from . import regularize
from .spectral import FourierField, Frequency, NumericalFailure, check_real, index_weights

__all__ = [
    "InstabilityError",
    "profile_norm",
    "random_phase_state",
    "integrate_linear",
    "FrozenChain",
    "psi_map",
    "stability_report",
]


class InstabilityError(NumericalFailure, RuntimeError):
    """The integrated trajectory grew beyond the runaway threshold."""


def profile_norm(h: np.ndarray, s: float):
    """H^s_x norm sqrt(sum <j>^{2s} |h_j|^2) of a centered coefficient vector,
    or of each row of a stack of them (a float, or an array of one per row)."""
    w = index_weights(0, 0, (h.shape[-1] - 1) // 2, 1.0)
    norm = np.sqrt(np.sum(w ** (2.0 * s) * np.abs(h) ** 2, axis=-1))
    return float(norm) if norm.ndim == 0 else norm


def random_phase_state(n_x: int, rng: np.random.Generator, decay: float = 2.0) -> np.ndarray:
    """Random real initial coefficients h_j, |j| <= n_x, damped like <j>^-decay."""
    amp = index_weights(0, 0, n_x, 1.0) ** (-decay)
    h = amp * (rng.standard_normal(2 * n_x + 1) + 1j * rng.standard_normal(2 * n_x + 1))
    return 0.5 * (h + np.conj(h[::-1]))


# ---------------------------------------------------------- direct scheme

# RK4 steps per chunk of frozen step matrices (one product per chunk); at
# n_x = 8 and T = 100 on the cut step table, 32 steps take 1.15-1.2x the time
# of 64, and 128 save 4-9% but raise the peak memory over the trajectory
# from 1.1 to 1.9 MB
_CHUNK = 64
RUNAWAY = 1e6
# the step table keeps the offsets whose blocks exceed STEP_FLOOR rounding
# units of its largest sample |D(phi)|: the FFT's noise reads at most 0.6 of
# them, and a block below 64 moves a step g + D g by far less than the
# rounding of that sum while |D| << 1
STEP_FLOOR = 64


def _scalar(f: FourierField, phi: np.ndarray):
    """Value at (phi, .) of an x-constant field, at one angle or a batch of them."""
    return opalg.freeze(f.c, phi)[..., f.trunc.n_x].real


def _step_table(coeffs, freq: Frequency, dt: float) -> np.ndarray:
    """Offset table of D(phi) = P(phi) - I, where P is one RK4 step of size dt
    on g = E(-t) h from phi = omega t, with E(t) = diag e^{i j^3 t} and the
    step's conjugation by E(t) left out.

    N(phi) = -(a3 d_xxx + a2 d_xx + a1 d_x + a0) = sum_l e^{i l.phi} N_l has
    |l_i| <= n_phi.  With h = dt/2 and the stage matrices A = N(phi),
    B = E(-h) N(phi + omega h) E(h) and C = E(-dt) N(phi + omega dt) E(dt),
    D = dt/6 (K1 + 2 K2 + 2 K3 + K4) for K1 = A, K2 = B (I + h K1),
    K3 = B (I + h K2) and K4 = C (I + dt K3): a trigonometric polynomial of
    degree 4 n_phi per axis, which one FFT of its samples on the
    (8 n_phi + 1)^nu grid gives exactly.  The table holds D, not P: a fixed
    near-identity matrix rounds the same way at every step, and over a long
    run that error adds up coherently.

    The table is returned on the box of the offsets whose blocks exceed
    STEP_FLOOR rounding units of the largest sample |D(phi)|, widened to its
    mirror l -> -l so that its offsets stay centered; l = 0 is always kept.
    The offsets cut hold the FFT's rounding noise, or content no step
    resolves: the criterion-9 problem keeps |l| <= 4 of |l| <= 32, and a
    coefficient field with algebraic decay keeps every offset.
    """
    n_x, n_phi, nu = coeffs[0].trunc.n_x, coeffs[0].trunc.n_phi, freq.nu
    j = np.arange(-n_x, n_x + 1).astype(float)
    inner = (slice(n_phi, 3 * n_phi + 1),) * nu
    N = -sum(opalg.from_multiplication(a).blocks[inner] * ((1j * j) ** k)[None, :]
             for a, k in zip(coeffs, (3, 2, 1, 0)))
    size = 8 * n_phi + 1
    grid = 2.0 * np.pi * np.arange(size) / size
    phi = np.stack(np.meshgrid(*(grid,) * nu, indexing="ij"), axis=-1).reshape(-1, nu)

    def stage(s):  # E(-s) N(phi + omega s) E(s) at every grid node
        ph = np.exp(1j * j ** 3 * s)
        X = opalg.freeze(N, phi + freq.omega * s)
        X *= ph[None, :] * np.conj(ph)[:, None]
        return X

    half = 0.5 * dt
    k = D = stage(0.0)
    B = stage(half)
    for X, s, w in ((B, half, 2.0), (B, half, 2.0), (stage(dt), dt, 1.0)):
        k = X @ k  # D, the first k, is read here before it is updated in place
        k *= s
        k += X
        D += w * k
    D *= dt / 6.0
    floor = STEP_FLOOR * np.finfo(float).eps * np.max(np.abs(D))
    axes = tuple(range(nu))
    D = np.fft.fftn(D.reshape((size,) * nu + D.shape[1:]), axes=axes, norm="forward")
    D = np.fft.fftshift(D, axes=axes)
    above = np.abs(D).max(axis=(-2, -1)) > floor
    above[(size // 2,) * nu] = True  # l = 0 stays, also in an all-zero table
    return D[opalg._full(opalg._support_box(above), size)]


def _chunk_freezer(table: np.ndarray, omega: np.ndarray, dt: float):
    """The step matrices E(-t) D(omega t) E(t) of a chunk of at most _CHUNK
    steps, as a function of the chunk's times t = t[0] + k dt (k = 0, 1, ...).

    The offset phases factor as e^{i omega.l t} = e^{i omega.l t[0]}
    e^{i omega.l k dt}: the second factor is one (_CHUNK x offsets) table,
    made here, so a chunk costs one phase per offset, a row scaling and one
    product over the offsets of the (cut) table.  The Airy phases E(t) are
    exponentials at the times t themselves, not split at t[0] like the
    offset phases.  Real coefficients make D[-r, -c] = conj D[r, c], and the
    Airy conjugation keeps that, so only the rows j >= 0 are frozen and
    conjugated; the rows j < 0 are their ``opalg.mirror_rows``.
    """
    nu, m = len(omega), table.shape[-1]
    offsets, n_x = table.shape[:nu], m // 2
    rows = np.ascontiguousarray(table.reshape(-1, m, m)[:, n_x:]).reshape(-1, (n_x + 1) * m)
    step_phases = opalg.offset_phases(offsets, np.multiply.outer(dt * np.arange(_CHUNK), omega))
    airy = 1j * np.arange(-n_x, n_x + 1).astype(float) ** 3

    def frozen(t: np.ndarray) -> np.ndarray:
        phases = step_phases[: len(t)] * opalg.offset_phases(offsets, t[0] * omega)
        upper = (phases @ rows).reshape(len(t), n_x + 1, m)
        ph = np.exp(airy * t[:, None])
        upper *= ph[:, None, :]
        upper *= np.conj(ph[:, n_x:])[:, :, None]
        Dn = np.empty((len(t), m, m), dtype=complex)
        Dn[:, n_x:] = upper
        return opalg.mirror_rows(Dn, lead=1)

    return frozen


def integrate_linear(coeffs, freq: Frequency, h0: np.ndarray, T: float, dt: float,
                     t0: float = 0.0):
    """Integrate d_t h = -(1 + a3) h_xxx - a2 h_xx - a1 h_x - a0 h over
    [t0, t0 + T] from the centered coefficients h0 at t0.

    The constant Airy part is removed exactly by the integrating factor
    e^{i j^3 t}; the O(epsilon) variable part is advanced by classical RK4 on
    the filtered variable g = E(-t) h, giving 4th-order accuracy without a
    stiff CFL restriction.  The equation is linear, so one RK4 step is one
    matrix: g_{n+1} = g_n + E(-t_n) D(omega t_n) E(t_n) g_n with D the
    tabulated increment of ``_step_table`` on its offsets above rounding,
    frozen a chunk of steps at a time by ``_chunk_freezer`` from one table of
    step phases and the mirror of its rows j >= 0.  The mirror needs real
    coefficients: a field with a Hermitian defect is refused with a
    ValueError, by the rule of ``spectral.check_real``.  Returns (times,
    states) with one row per step and h0 as row 0.  A state that is not
    finite, or whose H^1 norm exceeds RUNAWAY x (1 + |h0|_H1), raises
    InstabilityError with the time of the first such step.
    """
    h0 = np.asarray(h0, dtype=complex)
    if h0.ndim != 1 or h0.size % 2 == 0:
        raise ValueError("state must be a centered coefficient vector of odd length")
    check_real(coeffs)
    n_x = (h0.size - 1) // 2
    airy = 1j * np.arange(-n_x, n_x + 1).astype(float) ** 3  # h_j' = i j^3 h_j for Airy

    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        steps += 1
        dt = T / steps
    floor = RUNAWAY * (1.0 + profile_norm(h0, 1.0))
    frozen = _chunk_freezer(_step_table(coeffs, freq, dt), freq.omega, dt)

    times = np.empty(steps + 1)
    states = np.empty((steps + 1, 2 * n_x + 1), dtype=complex)
    times[0], states[0] = t0, h0

    g = h0 * np.exp(-airy * t0)
    for n0 in range(0, steps, _CHUNK):
        n = np.arange(n0, min(n0 + _CHUNK, steps))
        t = t0 + n * dt
        for i, D in enumerate(frozen(t), n0 + 1):
            g = g + D.dot(g)  # bit for bit D @ g, at about half its call overhead
            states[i] = g
        ends = slice(n0 + 1, n0 + 1 + len(n))  # views, where states[n + 1] copies
        times[ends] = t + dt
        states[ends] *= np.exp(airy * times[ends, None])
        bad = np.flatnonzero(~(profile_norm(states[ends], 1.0) <= floor))
        if bad.size:
            first = n0 + 1 + bad[0]
            what = ("state is not finite" if not np.isfinite(states[first]).all()
                    else f"|h(t)|_H1 exceeded {RUNAWAY:.1e} x initial")
            raise InstabilityError(f"{what} at t = {times[first]:.3f}")
    return times, states


# ------------------------------------------------------ frozen chain pushes


def psi_map(reg: regularize.RegularizationResult, t):
    """Reparametrized time tau = psi(t) = t + alpha(omega t); t may be an array."""
    return t + _scalar(reg.chain["alpha"], np.multiply.outer(t, reg.freq.omega))


@lru_cache(maxsize=8)
def _warp_grid(n_x: int):
    """Oversampled grid x_g, e^{i j x_g} on it, and the Fourier projection back
    to |j| <= n_x; cached per n_x, hence read-only."""
    m = max(64, 4 * (2 * n_x + 1))
    xg = 2.0 * np.pi * np.arange(m) / m
    j = np.arange(-n_x, n_x + 1)
    grid = (xg, np.exp(1j * np.outer(xg, j)), np.exp(-1j * np.outer(j, xg)) / m)
    for a in grid:
        a.setflags(write=False)
    return grid


def _warp_matrix(beta_prof: np.ndarray, n_x: int) -> np.ndarray:
    """Matrices of z -> z(x + beta(x)) on centered coefficients, one per row
    of beta_prof (oversampled collocation on the image grid followed by
    Fourier projection)."""
    xg, colloc, project = _warp_grid(n_x)
    j = np.arange(-n_x, n_x + 1)
    beta = (beta_prof @ colloc.T).real  # (k, m)
    sample = np.multiply.outer(xg + beta, 1j * j)  # (k, m, modes)
    return project @ np.exp(sample, out=sample)


@dataclass
class FrozenChain:
    """The solution-map chain evaluated along the trajectory phi = omega t.

    forward maps reduced coordinates v (at the reparametrized time psi(t)) to
    physical coordinates h(t); inverse undoes it.  At each of the times t (a
    1-D array) both are dense matrices on the centered x-coefficient vector,
    stacked along the first axis as t and tau are.
    """

    forward: np.ndarray
    inverse: np.ndarray
    t: np.ndarray
    tau: np.ndarray

    @classmethod
    def at_time(cls, reg: regularize.RegularizationResult,
                red: km.ReducibilityState, t) -> "FrozenChain":
        freq, ch, n_x = reg.freq, reg.chain, reg.trunc.n_x
        t = np.asarray(t, dtype=float)
        phi = np.multiply.outer(t, freq.omega)
        tau = psi_map(reg, t)
        theta = np.multiply.outer(tau, freq.omega)
        frz = opalg.freeze

        def mult(f, angles):
            return frz(opalg.from_multiplication(f).blocks, angles)

        # forward = warp . v . e^{i j p} . S . Phi_0 ... Phi_k, the product of
        # the frozen factors (exact, where a product of tables is clipped)
        shift = np.exp(1j * np.multiply.outer(_scalar(ch["p"], theta),
                                              np.arange(-n_x, n_x + 1)))
        forward = frz(ch["S"].blocks, theta)
        for Phi, _ in red.factors:
            forward = forward @ frz(Phi.blocks, theta)
        forward = shift[:, :, None] * forward
        warp = _warp_matrix(frz(ch["beta"].c, phi), n_x)
        if reg.mode == "hamiltonian":
            warp = mult(ch["sigma"], phi) @ warp
        if ch.get("v") is not None:
            forward = mult(ch["v"], theta) @ forward
        forward = warp @ forward
        return cls(forward=forward, inverse=np.linalg.inv(forward), t=t, tau=tau)


# --------------------------------------------------------------- reporting


def stability_report(reg: regularize.RegularizationResult,
                     red: km.ReducibilityState, freq: Frequency, h0: np.ndarray,
                     T: float, s: float, dt: float = 0.01,
                     n_samples: int = 101) -> dict:
    """Two-method comparison of the forced linear flow over [0, T].

    Integrates h(t) directly, transports it to reduced coordinates
    v(psi(t)) = chain(t)^{-1} h(t), and checks that |v|_{H^s_x} is flat while
    h stays within a bounded ratio of its initial norm.  The endpoint is also
    compared against the pushforward of the exact diagonal flow.
    """
    mu = red.eigs
    if np.max(np.abs(mu.real)) > 1e-8 * max(1.0, np.max(np.abs(mu))):
        raise ValueError(
            "stability verification needs purely imaginary eigenvalues "
            "(reversible or hamiltonian structure)"
        )

    times, states = integrate_linear(reg.coefficients, freq, h0, T, dt)
    stride = max(1, len(times) // max(1, n_samples - 1))
    picks = sorted(set(range(0, len(times), stride)) | {len(times) - 1})
    times, hs = times[picks], states[picks]  # row 0 is h0
    del states  # the full trajectory need not stay alive beside the chain batch
    chains = FrozenChain.at_time(reg, red, times)
    v0 = chains.inverse[0] @ h0
    v = (chains.inverse @ hs[:, :, None])[:, :, 0]
    flow = np.exp(-np.multiply.outer(chains.tau - chains.tau[0], mu)) * v0
    pred = (chains.forward @ flow[:, :, None])[:, :, 0]
    h0_s, v0_s = profile_norm(h0, s), profile_norm(v0, s)
    h_s, v_s = profile_norm(hs, s), profile_norm(v, s)
    disc = profile_norm(hs - pred, s) / max(profile_norm(h0, s + 1.0), 1e-300)
    rows = [{"t": float(t), "h_H1": float(h1), "h_Hs": float(a), "v_Hs": float(b),
             "discrepancy": float(d)}
            for t, h1, a, b, d in zip(times, profile_norm(hs, 1.0), h_s, v_s, disc)]

    return {
        "T": T,
        "s": s,
        "dt": dt,
        "ratio_max": float(np.max(h_s)) / max(h0_s, 1e-300),
        "v_drift": float(np.max(np.abs(v_s - v0_s))) / max(v0_s, 1e-300),
        "endpoint_discrepancy": rows[-1]["discrepancy"],
        "chain_norm_max": float(np.max(np.linalg.norm(chains.forward, 2, axis=(1, 2)))),
        "samples": rows,
    }

