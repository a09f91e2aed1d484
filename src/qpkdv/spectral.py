"""Truncated Fourier representation of real functions on T^nu x T.

A field u(phi, x) is stored through its Fourier coefficients u_{l,j} on the
rectangle |l_i| <= n_phi, |j| <= n_x, with the reality constraint
conj(u_{l,j}) = u_{-l,-j}.  The module provides the spectral calculus the
rest of the package is built on: transforms between coefficients and
equispaced grids, Sobolev norms, powers of d/dx (including the zero-average
antiderivative), inversion of omega . d/dphi, composition with torus
diffeomorphisms, and the reality check of the transforms.

Grid transforms are real FFTs on the modes j >= 0, so fields must be real; the
product grid has the least even 2-3-5-smooth number >= 4n + 2 of points per axis,
from the one table of smooth lengths that also sizes opalg's offset transforms.
A torus diffeomorphism is the transport series h o (id + d) =
sum_k s^k/k! D^k h(. + c) for the mean c of d and s = d - c.  Its k = 0 term is
the exact phase e^{i m c} on the coefficients; the K terms k >= 1 are uniform
syntheses summed in the samples of s, on a grid that grows with K from the
product grid.  At K = 0 (a displacement of size x <= 1e-17) nothing is sampled,
synthesized or analyzed, and an exactly zero displacement, the identity, is not
even planned.  One planner makes every decision of a composition of either kind.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Truncation",
    "FourierField",
    "Frequency",
    "sobolev_norm",
    "index_weights",
    "dot_l",
    "dx_pow",
    "omega_dphi",
    "omega_dphi_inv",
    "compose",
    "invert_torus_diffeo",
    "NumericalFailure",
    "DivisorUnderflowError",
    "DegenerateCoefficientError",
    "DiffeoConvergenceError",
    "LargeDisplacementError",
    "pointwise",
    "multiply",
    "x_average",
    "random_real_field",
    "check_real",
    "field_to_json",
    "field_from_json",
]


class NumericalFailure(Exception):
    """A numerical stage could not finish on this input: the one base of every
    failure a solve records, and a subcommand reports, instead of raising."""

    def describe(self) -> str:
        return f"{type(self).__name__}: {self}"


@dataclass(frozen=True)
class Truncation:
    """Rectangular Fourier truncation |l_i| <= n_phi, |j| <= n_x.

    ``grid_shape`` is the product grid, the least even 2-3-5-smooth length
    >= 4n + 2 per axis: it de-aliases products of band-limited fields, and its
    transforms have no large prime factor.  It is also the least grid a torus
    composition runs on: ``compose`` and ``invert_torus_diffeo`` grow it per
    call with the size of the displacement.
    """

    nu: int
    n_phi: int
    n_x: int

    def __post_init__(self):
        if self.nu < 1:
            raise ValueError("nu must be >= 1")
        if self.n_phi < 1 or self.n_x < 1:
            raise ValueError("n_phi and n_x must be >= 1")

    @property
    def shape(self) -> tuple[int, ...]:
        return (2 * self.n_phi + 1,) * self.nu + (2 * self.n_x + 1,)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return (_even_length(4 * self.n_phi + 2),) * self.nu + (_even_length(4 * self.n_x + 2),)

    def mode_range(self, axis: int) -> np.ndarray:
        n = self.n_phi if axis < self.nu else self.n_x
        return np.arange(-n, n + 1)

    @property
    def s0(self) -> float:
        return (self.nu + 2) / 2.0


@dataclass(frozen=True)
class FourierField:
    """Coefficient table of a real function of (phi, x).

    ``c`` is a complex array of shape ``trunc.shape``; the entry at centered
    multi-index (l, j) is u_{l,j}.  Fields are immutable; all operations
    return new instances.
    """

    trunc: Truncation
    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.c.shape != self.trunc.shape:
            raise ValueError(
                f"coefficient shape {self.c.shape} does not match truncation {self.trunc.shape}"
            )
        self.c.setflags(write=False)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zeros(trunc: Truncation) -> "FourierField":
        return FourierField(trunc, np.zeros(trunc.shape, dtype=complex))

    @staticmethod
    def constant(trunc: Truncation, value: float) -> "FourierField":
        c = np.zeros(trunc.shape, dtype=complex)
        c[tuple(n for n in _centers(trunc))] = value
        return FourierField(trunc, c)

    @staticmethod
    def from_modes(trunc: Truncation, modes: dict[tuple, complex]) -> "FourierField":
        """Build a field from {(l..., j): amplitude}; conjugates added automatically."""
        c = np.zeros(trunc.shape, dtype=complex)
        cen = _centers(trunc)
        for idx, val in modes.items():
            pos = tuple(i + n for i, n in zip(idx, cen))
            neg = tuple(-i + n for i, n in zip(idx, cen))
            c[pos] += val
            if pos != neg:
                c[neg] += np.conj(val)
        return FourierField(trunc, c)

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "FourierField") -> "FourierField":
        _check_same(self.trunc, other.trunc)
        return FourierField(self.trunc, self.c + other.c)

    def __sub__(self, other: "FourierField") -> "FourierField":
        _check_same(self.trunc, other.trunc)
        return FourierField(self.trunc, self.c - other.c)

    def __mul__(self, scalar: float) -> "FourierField":
        return FourierField(self.trunc, self.c * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "FourierField":
        return FourierField(self.trunc, -self.c)

    def shift_mean(self, value: float) -> "FourierField":
        """Add a real constant to the field."""
        c = self.c.copy()
        c[tuple(_centers(self.trunc))] += value
        return FourierField(self.trunc, c)

    @property
    def mean(self) -> float:
        """Total average over T^{nu+1} (the (0, 0) coefficient)."""
        return float(np.real(self.c[tuple(_centers(self.trunc))]))


def _centers(trunc: Truncation) -> tuple[int, ...]:
    return (trunc.n_phi,) * trunc.nu + (trunc.n_x,)


def _check_same(a: Truncation, b: Truncation) -> None:
    if a != b:
        raise ValueError(f"truncation mismatch: {a} vs {b}")


# the Diophantine witness of a Frequency: |omega_bar . l| >= 3 WITNESS_GAMMA0 /
# |l|^nu for all 0 < |l|_inf <= WITNESS_RANGE
WITNESS_GAMMA0 = 0.05
WITNESS_RANGE = 24


@dataclass(frozen=True)
class Frequency:
    """Forcing frequency omega = lambda * omega_bar with a Diophantine witness,
    checked at construction (see WITNESS_GAMMA0)."""

    omega_bar: tuple
    lam: float = 1.0

    def __post_init__(self):
        ob = np.atleast_1d(np.asarray(self.omega_bar, dtype=float))
        object.__setattr__(self, "omega_bar", tuple(ob.tolist()))
        if not (0.5 <= self.lam <= 1.5):
            raise ValueError("lambda must lie in [1/2, 3/2]")
        self._check_witness()

    @staticmethod
    def default(nu: int, lam: float = 1.0) -> "Frequency":
        """A basis of a real number field of degree nu, which is Diophantine
        with tau = nu - 1 (|q.omega_bar| >= c/|q|^(nu-1) by the norm argument):
        1, the golden mean for Q(sqrt 5), and (1, 2^(1/3) - 1, 4^(1/3) - 1)
        for Q(2^(1/3)).  All three pass the witness."""
        if nu == 1:
            ob = (1.0,)
        elif nu == 2:
            ob = (1.0, (math.sqrt(5.0) - 1.0) / 2.0)
        elif nu == 3:
            ob = (1.0, 2.0 ** (1.0 / 3.0) - 1.0, 4.0 ** (1.0 / 3.0) - 1.0)
        else:
            raise ValueError(
                f"no default frequency for nu = {nu}: the defaults are bases of real "
                "number fields of degree nu <= 3; pass omega_bar, e.g. such a basis "
                "of degree nu, and it is checked by the Diophantine witness")
        return Frequency(ob, lam=lam)

    @property
    def nu(self) -> int:
        return len(self.omega_bar)

    @property
    def omega(self) -> np.ndarray:
        return self.lam * np.asarray(self.omega_bar)

    def _check_witness(self) -> None:
        n = WITNESS_RANGE
        dots = np.abs(dot_l(self.omega_bar, n))
        bound = 3.0 * WITNESS_GAMMA0 / index_weights(self.nu, n, floor=1.0) ** self.nu
        bound[(n,) * self.nu] = 0.0  # l = 0
        gap = dots - bound
        if np.any(gap < 0):
            worst = np.unravel_index(np.argmin(gap), gap.shape)
            raise ValueError(
                f"frequency fails the Diophantine witness at "
                f"l={tuple(int(i) - n for i in worst)}: |omega_bar.l|={dots[worst]:.3e}"
            )

    def omega_dot_l(self, trunc: Truncation, double: bool = False) -> np.ndarray:
        """Array of omega . l over the (possibly doubled) l-rectangle."""
        return dot_l(self.omega, 2 * trunc.n_phi if double else trunc.n_phi)


def dot_l(w, n: int) -> np.ndarray:
    """w . l over the rectangle |l_i| <= n, one axis per component of w; cached
    per (w, n), hence read-only."""
    return _dot_l(tuple(float(wk) for wk in w), n)


@lru_cache(maxsize=32)
def _dot_l(w: tuple, n: int) -> np.ndarray:
    out = np.zeros((2 * n + 1,) * len(w))
    for wk, g in zip(w, np.ix_(*[np.arange(-n, n + 1)] * len(w))):
        out = out + wk * g
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# grid transforms


# the 2-3-5-smooth integers, ascending
_SMOOTH = tuple(sorted(2**a * 3**b * 5**c for a in range(20) for b in range(13)
                       for c in range(9)))


def _fft_length(n: int) -> int:
    """Smallest 2-3-5-smooth integer >= n."""
    return _SMOOTH[bisect.bisect_left(_SMOOTH, n)]


def _even_length(n: int) -> int:
    """Smallest even 2-3-5-smooth integer >= n: the length of every grid axis."""
    return 2 * _fft_length(-(-n // 2))


def check_real(fields) -> np.ndarray:
    """Stacked coefficient tables of a sequence of real fields of one truncation.
    A field whose Hermitian defect max|c[l, j] - conj c[-l, -j]| exceeds
    1e-10 x max(1, max|c|) is refused with a ValueError that names the defect."""
    fields = list(fields)
    for g in fields[1:]:
        _check_same(fields[0].trunc, g.trunc)
    c = np.stack([g.c for g in fields])
    flat = c.reshape(len(c), -1)  # reversed, it reverses every axis: (l, j) -> (-l, -j)
    defect = np.abs(flat - flat[:, ::-1].conj()).max(axis=1)
    if defect.max() > 1e-10 and np.any(defect > 1e-10 * np.maximum(1.0, np.abs(flat).max(axis=1))):
        raise ValueError(f"field is not real (Hermitian defect {defect.max():.2e})")
    return c


def _stacked(f) -> tuple[Truncation, np.ndarray, bool]:
    """(truncation, stacked coefficient tables, whether f is a sequence) for real field(s) of one truncation."""
    fields = [f] if isinstance(f, FourierField) else list(f)
    return fields[0].trunc, check_real(fields), not isinstance(f, FourierField)


@lru_cache(maxsize=32)
def _phi_indices(trunc: Truncation, gphi: tuple[int, ...]):
    """Index arrays of the centered phi modes in FFT layout; cached, hence read-only."""
    idx = np.ix_(*(trunc.mode_range(ax) % m for ax, m in enumerate(gphi)))
    for a in idx:
        a.setflags(write=False)
    return idx


def _phi_synth(trunc: Truncation, half: np.ndarray, gphi: tuple[int, ...], width: int = 0) -> np.ndarray:
    """Stacked tables synthesized along phi from their x coefficients j < J, half (field, l..., J):
    (field, phi grid..., max(width, J)), zero past J; irfft pads a short input slower."""
    buf = np.zeros((len(half),) + gphi + (max(width, half.shape[-1]),), dtype=complex)
    part = buf[..., : half.shape[-1]]
    part[(slice(None),) + _phi_indices(trunc, gphi)] = half
    for ax in range(1, trunc.nu + 1):
        np.fft.ifft(part, axis=ax, norm="forward", out=part)
    return buf


def synthesize(f, grid_shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Evaluate the field on an equispaced grid (real samples); a sequence of
    fields gives their samples stacked on a leading axis, by one transform."""
    trunc, c, batched = _stacked(f)
    shape = tuple(grid_shape or trunc.grid_shape)
    half = _phi_synth(trunc, c[..., trunc.n_x:], shape[:-1], shape[-1] // 2 + 1)  # irfft's full input length
    samples = np.fft.irfft(half, n=shape[-1], axis=-1, norm="forward")
    return samples if batched else samples[0]


def analyze(trunc: Truncation, samples: np.ndarray):
    """Project real grid samples onto the truncated coefficient rectangle;
    samples with a leading batch axis give a list of fields."""
    return _from_x_half(trunc, np.fft.rfft(samples, axis=-1, norm="forward")[..., : trunc.n_x + 1])


def _from_x_half(trunc: Truncation, half: np.ndarray):
    """Fields from their x coefficients j = 0..n_x on a phi grid, an array
    (batch..., phi grid..., n_x + 1); one field, or a list with a batch axis."""
    nu, n = trunc.nu, trunc.n_x
    for ax in range(-nu - 1, -1):
        half = np.fft.fft(half, axis=ax, norm="forward")
    c = np.empty(half.shape[:-nu - 1] + trunc.shape, dtype=complex)
    c[..., n:] = half[(...,) + _phi_indices(trunc, half.shape[-nu - 1:-1]) + (slice(None),)]
    # u_{-l,-j} = conj(u_{l,j})
    c[..., :n] = np.conj(np.flip(c, axis=tuple(range(-nu - 1, 0)))[..., :n])
    if half.ndim == nu + 1:
        return FourierField(trunc, c)
    return [FourierField(trunc, ci) for ci in c]


# ---------------------------------------------------------------------------
# norms and spectral calculus


@lru_cache(maxsize=32)
def index_weights(nu: int, n_l: int, n_j: int | None = None, floor: float = 0.0) -> np.ndarray:
    """max(floor, |l|_inf, |j|) over |l_i| <= n_l, i = 1..nu, and, when n_j is
    given, a trailing axis |j| <= n_j.  The one table of the <l, j> and |l|_inf
    weights; cached per arguments, hence read-only."""
    ranges = [n_l] * nu + ([] if n_j is None else [n_j])
    w = np.full([2 * n + 1 for n in ranges], float(floor))
    for g in np.ix_(*(np.abs(np.arange(-n, n + 1)) for n in ranges)):
        w = np.maximum(w, g)
    w.setflags(write=False)
    return w


def sobolev_norm(f: FourierField, s: float) -> float:
    """H^s norm: sqrt(sum <l,j>^{2s} |u_{l,j}|^2)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    w = index_weights(f.trunc.nu, f.trunc.n_phi, f.trunc.n_x, 1.0)
    return float(np.sqrt(np.sum(w ** (2.0 * s) * np.abs(f.c) ** 2)))


def dx_pow(f: FourierField, k: int) -> FourierField:
    """Multiply coefficients by (ij)^k; negative k annihilates the j = 0 modes."""
    j = f.trunc.mode_range(f.trunc.nu).astype(float)
    if k >= 0:
        mult = (1j * j) ** k
    else:
        mult = np.zeros(len(j), dtype=complex)
        nz = j != 0
        mult[nz] = (1j * j[nz]) ** k
    return FourierField(f.trunc, f.c * mult.reshape((1,) * f.trunc.nu + (-1,)))


def omega_dphi(f: FourierField, freq: Frequency) -> FourierField:
    """Apply omega . d/dphi."""
    dots = freq.omega_dot_l(f.trunc)
    return FourierField(f.trunc, f.c * (1j * dots)[..., None])


DIVISOR_FLOOR = 1e-10


class DivisorUnderflowError(NumericalFailure, ZeroDivisionError):
    """A divisor omega.l of (omega.d_phi)^-1 vanishes to rounding."""


def omega_dphi_inv(f: FourierField, freq: Frequency) -> FourierField:
    """Invert omega . d/dphi on the l != 0 modes; the l = 0 modes are zeroed.
    A divisor |omega.l| below DIVISOR_FLOOR |omega| raises DivisorUnderflowError."""
    dots = freq.omega_dot_l(f.trunc)
    divisor_floor = DIVISOR_FLOOR * float(np.linalg.norm(freq.omega))
    nz = np.ones(dots.shape, dtype=bool)
    nz[(f.trunc.n_phi,) * f.trunc.nu] = False  # the l = 0 row, by position
    small = nz & (np.abs(dots) < divisor_floor)
    if np.any(small):
        l = tuple(int(i) - f.trunc.n_phi for i in np.argwhere(small)[0])
        raise DivisorUnderflowError(
            f"divisor underflow in (omega.d_phi)^-1 at l = {l}: "
            f"|omega.l| < {divisor_floor:.2e}"
        )
    inv = np.zeros_like(dots, dtype=complex)
    inv[nz] = 1.0 / (1j * dots[nz])
    return FourierField(f.trunc, f.c * inv[..., None])


def x_average(f: FourierField) -> FourierField:
    """Field of phi only: the j = 0 column kept, all other modes zeroed."""
    c = np.zeros_like(f.c)
    c[..., f.trunc.n_x] = f.c[..., f.trunc.n_x]
    return FourierField(f.trunc, c)


# ---------------------------------------------------------------------------
# pointwise (grid) operations


def pointwise(func, *fields: FourierField) -> FourierField:
    """Apply func to grid samples of the fields and re-analyze.

    All fields must share a truncation and are synthesized by one transform.
    func receives one real array per field and must return a real array of
    the same shape.
    """
    return analyze(fields[0].trunc, func(*synthesize(fields)))


def multiply(f: FourierField, g: FourierField) -> FourierField:
    """De-aliased product of two fields (re-truncated)."""
    return pointwise(lambda a, b: a * b, f, g)


# ---------------------------------------------------------------------------
# composition with torus diffeomorphisms


class DegenerateCoefficientError(NumericalFailure, ValueError):
    """A coefficient the chain divides by degenerates, or a torus
    diffeomorphism's slope exceeds 1/2, so that it cannot be inverted."""


class DiffeoConvergenceError(NumericalFailure, RuntimeError):
    """An inverse torus diffeomorphism did not converge."""


class LargeDisplacementError(NumericalFailure, ValueError):
    """A torus diffeomorphism's displacement is too large for its transport series:
    x = max|m| max|d - mean d| > _X_MAX, where its rounding e^x eps passes 1e-12, or
    its grid holds more than GRID_BUDGET points x series tables."""


_X_MAX = math.log(1e-12 / np.finfo(float).eps)
# a torus composition refuses, before it samples, a grid of more points x series
# tables (K + 1 at order K) than this: 800 MB of real samples
GRID_BUDGET = 10**8


def _series_order(x: float) -> int:
    """The last order K of a transport series of size x: 0 at or below the series cutoff
    1e-17, where the series is its k = 0 term, else the least K >= 1 with x^K/K! <= 1e-17."""
    if x <= 1e-17:
        return 0
    order, term = 1, x
    while term > 1e-17:
        order += 1
        term *= x / order
    return order


class _Plan(NamedTuple):
    """A torus composition, decided: its grid; the samples of d on it (of alpha as (phi grid...,
    1) for the time kind), None at order 0; the series order K; phase, e^{i m c} over the
    coefficient table for the mean c of d, the exact k = 0 term; d's own x coefficients moved by
    -c, which the series of its inverse reads; tables(half), the function k -> samples of
    D^k h/k! for the x coefficients j >= 0 in half, (field, l..., J): (field, grid...) for the
    space kind, (field, phi grid..., J) for the time kind; and project, from summed tables to
    fields."""

    grid: tuple
    samples: np.ndarray | None
    order: int
    phase: np.ndarray
    own_half: np.ndarray
    tables: Callable
    project: Callable


def _check_kind(kind: str, freq: Frequency | None) -> None:
    """Refuse a kind other than 'space' and 'time', and the time kind without a Frequency."""
    if kind not in ("space", "time") or (kind == "time" and freq is None):
        raise ValueError("the time kind needs a Frequency" if kind == "time"
                         else f"unknown diffeomorphism kind {kind!r}")


def _plan(kind: str, d: FourierField, freq: Frequency | None) -> _Plan:
    """Every decision of a torus composition with displacement d, made once.  The kind is 'space',
    D = d_x of multiplier i m, m = j, or 'time', D = omega.d_phi, m = omega.l, which needs a
    Frequency and a d of phi only (x-modes within 1e-12 max|d_{l,j}|).

    The order and the grid are chosen before d is sampled.  K is the series order of
    x_bound = max|m| sum|d_{l,j}| over the non-mean modes, which bounds x = max|m| max|s|,
    s = d - mean d, on every grid (capped at _X_MAX).  At K = 0 nothing is sampled, and no check
    is lost: the slope is at most x_bound < 1/2, and x <= x_bound.  Otherwise, the series term
    s^k D^k h has bandwidth (k + 1) n along each axis that s varies on (phi and, for the space
    kind, x), so it projects onto |mode| <= n without aliasing on (k + 2) n + 1 points; each such
    axis gets the least even 2-3-5-smooth length >= (K + 1) n + 1 and >= the product grid's:
    orders k < K do not alias, and orders >= K are below the series cutoff.  A grid of more than
    GRID_BUDGET points x (K + 1) tables is refused.  Then d is sampled, its slope beta_x or
    omega.d_phi alpha must stay within 1/2, and the order is that of the sampled x, at least 1
    (the samples are paid for), refused past _X_MAX."""
    _check_kind(kind, freq)
    trunc, n = d.trunc, d.trunc.n_x
    if kind == "space":  # m = j commutes with the phi synthesis: one for all k
        m_all, modes, name, own = trunc.mode_range(trunc.nu), d.c, "beta_x", np.s_[..., n:]
        m = m_all[n:]

        def sample(gs):
            return synthesize([d, dx_pow(d, 1)], gs)

        def tables(half):
            moved = _phi_synth(trunc, half, gs[:-1])
            part = np.zeros(moved.shape[:-1] + (gs[-1] // 2 + 1,), dtype=complex)  # irfft's full input

            def table(k):
                np.multiply(moved, (1j * m) ** k / math.factorial(k), out=part[..., : len(m)])
                return np.fft.irfft(part, n=gs[-1], axis=-1, norm="forward")
            return table
        project = partial(analyze, trunc)
    else:  # the time kind, with a Frequency
        if np.max(np.abs(np.delete(d.c, n, axis=-1))) > 1e-12 * np.max(np.abs(d.c)):
            raise ValueError("time displacement must depend on phi only")
        m_all = m = freq.omega_dot_l(trunc)[..., None]
        modes, name, own = d.c[..., n], "omega.d_phi alpha", np.s_[..., n:n + 1]

        def sample(gs):  # the j = 0 column along phi only
            return _phi_synth(trunc, np.stack([d.c, omega_dphi(d, freq).c])[..., n, None], gs[:-1]).real

        def tables(half):  # one phi synthesis per k
            return lambda k: _phi_synth(trunc, half * ((1j * m) ** k / math.factorial(k)), gs[:-1])
        project = partial(_from_x_half, trunc)
    phase = np.exp(1j * m_all * d.mean)
    own_half = (d.c * phase.conj())[own][None]
    max_m, modes = float(np.max(np.abs(m))), modes.ravel()  # the mean sits at the centre
    x_bound = max_m * float(np.sum(np.abs(np.delete(modes, modes.size // 2))))
    order = _series_order(min(x_bound, _X_MAX))
    if order == 0:
        return _Plan(trunc.grid_shape, None, 0, phase, own_half, tables, project)

    def length(k: int, least: int) -> int:
        return max(least, _even_length((order + 1) * k + 1))
    *gphi, gx = trunc.grid_shape
    gs = tuple(length(trunc.n_phi, g) for g in gphi) + (length(n, gx) if kind == "space" else gx,)
    size = math.prod(gs) * (order + 1)
    if size > GRID_BUDGET:
        raise LargeDisplacementError(
            f"{kind} displacement too large for its transport series: x_bound = {x_bound:.3g} "
            f"needs the grid {gs} for {order + 1} tables, {size:.3g} points x tables "
            f"> {GRID_BUDGET:.0e}")
    samples, slope = sample(gs)
    if np.max(np.abs(slope)) > 0.5 + 1e-12:
        raise DegenerateCoefficientError(
            f"{kind} diffeomorphism not invertible: |{name}|_inf = {np.max(np.abs(slope)):.3f} > 1/2")
    x = max_m * float(np.max(np.abs(samples - d.mean)))
    if x > _X_MAX:
        raise LargeDisplacementError(f"{kind} displacement too large for its transport series: "
                                     f"x = max|m| max|d - mean d| = {x:.3g} > {_X_MAX:.2f}")
    return _Plan(gs, samples, max(1, _series_order(x)), phase, own_half, tables, project)


def _transport_sum(table, order: int, s: np.ndarray) -> np.ndarray:
    """sum_{1 <= k <= order} s^k table(k) for order >= 1, summed from k = order down in the
    samples s, so that only the running sum and one table are alive."""
    acc = table(order) * s  # a new array: a table may be kept
    for k in range(order - 1, 0, -1):
        acc += table(k)
        acc *= s
    return acc


def compose(kind: str, f, displacement: FourierField, freq: Frequency | None = None):
    """Compose a field with a torus diffeomorphism.

    kind = 'space': returns h(phi, x + beta(phi, x)) for displacement beta.
    kind = 'time':  returns h(phi + omega*alpha(phi), x) for a displacement
    alpha depending on phi only (freq required).  A sequence of fields, which
    share the displacement and the degeneracy check, gives a list.
    The mean c of the displacement d gives the k = 0 term, the exact phase e^{i m c} on the
    coefficients; the rest is the transport series sum_{k >= 1} (d - c)^k/k! D^k h(. + c) of
    D = d_x or omega.d_phi, synthesized, summed in the samples and analyzed, or nothing at
    order 0.  An exactly zero displacement is the identity: once the arguments pass their
    checks, the fields' coefficients are returned as they are, with no plan, phase or product.
    """
    trunc, c, batched = _stacked(f)
    _check_same(trunc, displacement.trunc)
    if not displacement.c.any():
        _check_kind(kind, freq)
        out = [FourierField(trunc, h) for h in c]
        return out if batched else out[0]
    plan = _plan(kind, displacement, freq)
    moved = c * plan.phase
    out = [FourierField(trunc, h) for h in moved]
    if plan.order:
        s = plan.samples - displacement.mean
        series = plan.project(_transport_sum(plan.tables(moved[..., trunc.n_x:]), plan.order, s))
        out = [h + g for h, g in zip(out, series)]
    return out if batched else out[0]


# the fixed-point iteration of invert_torus_diffeo: it stops when an iterate moves
# by less than DIFFEO_TOL, and fails after DIFFEO_MAX_ITER iterates
DIFFEO_TOL = 1e-13
DIFFEO_MAX_ITER = 100


def invert_torus_diffeo(kind: str, displacement: FourierField, freq: Frequency | None = None) -> FourierField:
    """Displacement of the inverse diffeomorphism, by fixed-point iteration.

    space: solves beta~(y) = -beta(y + beta~(y));
    time:  solves alpha~(theta) = -alpha(theta + omega*alpha~(theta)).
    The displacement's series tables are synthesized once, and each iterate is a
    polynomial in them; it takes the values of -d, so max|d - mean d| bounds it.
    At order 0 the inverse is the constant -mean d, with no iterate.
    Raises DegenerateCoefficientError if the slope of the displacement exceeds 1/2,
    and DiffeoConvergenceError if DIFFEO_MAX_ITER iterations do not reach DIFFEO_TOL.
    """
    plan = _plan(kind, displacement, freq)
    shift = -displacement.mean
    if plan.order == 0:
        return FourierField.constant(displacement.trunc, shift)
    table = plan.tables(plan.own_half)
    tables = [np.real(table(k)[0]) for k in range(plan.order + 1)]
    del table  # the moved spectrum
    cur, new = 0.0, -plan.samples  # the first iterate, from 0, is exact
    for _ in range(DIFFEO_MAX_ITER):
        delta, cur = np.max(np.abs(new - cur)), new
        if delta < DIFFEO_TOL:
            break
        new = _transport_sum(tables.__getitem__, plan.order, cur - shift)
        new += tables[0]
        np.negative(new, out=new)
    else:
        raise DiffeoConvergenceError(
            f"inverse {kind} diffeomorphism did not converge in {DIFFEO_MAX_ITER} "
            f"iterations (last delta {delta:.2e})")
    return analyze(displacement.trunc, np.broadcast_to(cur, plan.grid))


# ---------------------------------------------------------------------------
# random fields and serialization


def random_real_field(
    trunc: Truncation,
    rng: np.random.Generator,
    decay: float = 2.0,
    scale: float = 1.0,
    parity: str | None = None,
    zero_total_average: bool = False,
) -> FourierField:
    """Random real field with coefficients damped like <l,j>^{-decay}.

    parity 'X' (even) or 'Y' (odd) projects onto the corresponding class.
    """
    w = index_weights(trunc.nu, trunc.n_phi, trunc.n_x, 1.0)
    amp = scale * w ** (-decay)
    c = amp * (rng.standard_normal(trunc.shape) + 1j * rng.standard_normal(trunc.shape))
    c = 0.5 * (c + np.conj(np.flip(c)))  # enforce reality
    if parity == "X":
        c = 0.5 * (c + np.flip(c))
    elif parity == "Y":
        c = 0.5 * (c - np.flip(c))
    elif parity is not None:
        raise ValueError("parity must be 'X', 'Y' or None")
    if zero_total_average:
        c[_centers(trunc)] = 0.0
    return FourierField(trunc, c)


def field_to_json(f: FourierField) -> dict:
    """JSON dict {nu, n_phi, n_x, entries: [[l..., j, re, im]...]}.

    Only one representative per conjugate pair is stored (the index that is
    lexicographically positive, plus the self-conjugate (0, 0) mode).
    """
    t = f.trunc
    entries = []
    for idx in np.ndindex(*t.shape):
        modes = tuple(int(i - n) for i, n in zip(idx, _centers(t)))
        if modes < tuple(-m for m in modes):
            continue  # keep the lexicographically larger representative
        val = f.c[idx]
        if val == 0:
            continue
        entries.append(list(modes) + [float(val.real), float(val.imag)])
    return {"nu": t.nu, "n_phi": t.n_phi, "n_x": t.n_x, "entries": entries}


def field_from_json(data: dict | str) -> FourierField:
    if isinstance(data, str):
        data = json.loads(data)
    trunc = Truncation(data["nu"], data["n_phi"], data["n_x"])
    modes = {}
    for row in data["entries"]:
        idx = tuple(int(v) for v in row[: trunc.nu + 1])
        modes[idx] = complex(row[-2], row[-1])
    # from_modes adds the conjugate partner of every non-self-conjugate entry
    return FourierField.from_modes(trunc, modes)
