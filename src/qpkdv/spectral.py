"""Truncated Fourier representation of real functions on T^nu x T.

A field u(phi, x) is stored through its Fourier coefficients u_{l,j} on the
rectangle |l_i| <= n_phi, |j| <= n_x, with the reality constraint
conj(u_{l,j}) = u_{-l,-j}.  The module provides the spectral calculus the
rest of the package is built on: transforms between coefficients and
equispaced grids, Sobolev norms, powers of d/dx (including the zero-average
antiderivative), inversion of omega . d/dphi, composition with torus
diffeomorphisms, and parity/reality predicates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "Truncation",
    "FourierField",
    "Frequency",
    "sobolev_norm",
    "index_weights",
    "dx_pow",
    "omega_dphi",
    "omega_dphi_inv",
    "compose",
    "invert_torus_diffeo",
    "structure_check",
    "pointwise",
    "multiply",
    "phi_average",
    "x_average",
    "embed_field",
    "field_at_phi",
    "random_real_field",
    "field_to_json",
    "field_from_json",
]

#: tolerance used when asserting that synthesized samples are real
_REALITY_TOL = 1e-10


def _grid_len(n: int, oversample: int) -> int:
    """Even grid length >= oversample * (2n + 1)."""
    m = oversample * (2 * n + 1)
    return m if m % 2 == 0 else m + 1


@dataclass(frozen=True)
class Truncation:
    """Rectangular Fourier truncation |l_i| <= n_phi, |j| <= n_x.

    ``oversample`` controls the size of the grids used for products and
    compositions; 2 is enough to de-alias products of band-limited fields.
    """

    nu: int
    n_phi: int
    n_x: int
    oversample: int = 2

    def __post_init__(self):
        if self.nu < 1:
            raise ValueError("nu must be >= 1")
        if self.n_phi < 1 or self.n_x < 1:
            raise ValueError("n_phi and n_x must be >= 1")
        if self.oversample < 2:
            raise ValueError("oversample must be >= 2")

    @property
    def shape(self) -> tuple[int, ...]:
        return (2 * self.n_phi + 1,) * self.nu + (2 * self.n_x + 1,)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        gp = _grid_len(self.n_phi, self.oversample)
        gx = _grid_len(self.n_x, self.oversample)
        return (gp,) * self.nu + (gx,)

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

    def reality_defect(self) -> float:
        """sup |conj(u_{l,j}) - u_{-l,-j}| over stored indices."""
        rev = self.c[tuple(slice(None, None, -1) for _ in self.c.shape)]
        return float(np.max(np.abs(np.conj(self.c) - rev)))

    def is_real(self, tol: float = 1e-10) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.c))))
        return self.reality_defect() <= tol * scale


def _centers(trunc: Truncation) -> tuple[int, ...]:
    return (trunc.n_phi,) * trunc.nu + (trunc.n_x,)


def _check_same(a: Truncation, b: Truncation) -> None:
    if a != b:
        raise ValueError(f"truncation mismatch: {a} vs {b}")


@dataclass(frozen=True)
class Frequency:
    """Forcing frequency omega = lambda * omega_bar with a Diophantine witness.

    The witness |omega_bar . l| >= 3*gamma0 / |l|^tau0 is checked for all
    0 < |l|_inf <= check_range at construction.
    """

    omega_bar: tuple
    lam: float = 1.0
    gamma0: float = 0.05
    tau0: float | None = None
    check_range: int = 24

    def __post_init__(self):
        ob = np.atleast_1d(np.asarray(self.omega_bar, dtype=float))
        object.__setattr__(self, "omega_bar", tuple(ob.tolist()))
        if not (0.5 <= self.lam <= 1.5):
            raise ValueError("lambda must lie in [1/2, 3/2]")
        if self.tau0 is None:
            object.__setattr__(self, "tau0", float(len(self.omega_bar)))
        self._check_witness()

    @staticmethod
    def default(nu: int, lam: float = 1.0, **kw) -> "Frequency":
        if nu == 1:
            ob = (1.0,)
        elif nu == 2:
            ob = (1.0, (math.sqrt(5.0) - 1.0) / 2.0)
        else:
            # quadratic irrationals sqrt(p) for the first primes
            primes = [2, 3, 5, 7, 11, 13, 17, 19]
            ob = (1.0,) + tuple(math.sqrt(p) - int(math.sqrt(p)) for p in primes[: nu - 1])
        return Frequency(ob, lam=lam, **kw)

    @property
    def nu(self) -> int:
        return len(self.omega_bar)

    @property
    def omega(self) -> np.ndarray:
        return self.lam * np.asarray(self.omega_bar)

    def _check_witness(self) -> None:
        ob = np.asarray(self.omega_bar)
        rng = np.arange(-self.check_range, self.check_range + 1)
        grids = np.meshgrid(*([rng] * self.nu), indexing="ij")
        ls = np.stack([g.ravel() for g in grids], axis=-1)
        norms = np.max(np.abs(ls), axis=1)
        mask = norms > 0
        dots = np.abs(ls[mask] @ ob)
        bound = 3.0 * self.gamma0 / norms[mask] ** self.tau0
        if np.any(dots < bound):
            bad = ls[mask][np.argmin(dots - bound)]
            raise ValueError(
                f"frequency fails the Diophantine witness at l={tuple(bad)}: "
                f"|omega_bar.l|={np.abs(bad @ ob):.3e}"
            )

    def omega_dot_l(self, trunc: Truncation, double: bool = False) -> np.ndarray:
        """Array of omega . l over the (possibly doubled) l-rectangle."""
        n = 2 * trunc.n_phi if double else trunc.n_phi
        rng = np.arange(-n, n + 1)
        out = np.zeros((len(rng),) * self.nu)
        om = self.omega
        for ax in range(self.nu):
            shape = [1] * self.nu
            shape[ax] = len(rng)
            out = out + om[ax] * rng.reshape(shape)
        return out


# ---------------------------------------------------------------------------
# grid transforms


@lru_cache(maxsize=32)
def _embed_indices(trunc: Truncation, grid_shape: tuple[int, ...]):
    """Index arrays placing centered modes into FFT layout per axis; cached
    per truncation and grid shape, hence read-only."""
    idx = np.ix_(*(trunc.mode_range(ax) % m for ax, m in enumerate(grid_shape)))
    for a in idx:
        a.setflags(write=False)
    return idx


def synthesize(f: FourierField, grid_shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Evaluate the field on an equispaced grid (real samples)."""
    buf = np.zeros(grid_shape or f.trunc.grid_shape, dtype=complex)
    buf[_embed_indices(f.trunc, buf.shape)] = f.c
    samples = np.fft.ifftn(buf) * buf.size
    im = float(np.max(np.abs(samples.imag)))
    scale = max(1.0, float(np.max(np.abs(samples.real))))
    if im > _REALITY_TOL * scale:
        raise ValueError(f"synthesized samples are not real (imag magnitude {im:.2e})")
    return samples.real


def analyze(trunc: Truncation, samples: np.ndarray) -> FourierField:
    """Project real grid samples onto the truncated coefficient rectangle."""
    if np.iscomplexobj(samples):
        if np.max(np.abs(samples.imag)) > _REALITY_TOL * max(1.0, np.max(np.abs(samples.real))):
            raise ValueError("input samples are not real beyond round-off")
        samples = samples.real
    spec = np.fft.fftn(samples) / samples.size
    c = spec[_embed_indices(trunc, samples.shape)]
    return FourierField(trunc, np.ascontiguousarray(c))


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


def omega_dphi_inv(f: FourierField, freq: Frequency, divisor_floor: float | None = None) -> FourierField:
    """Invert omega . d/dphi on the l != 0 modes; the l = 0 modes are zeroed."""
    dots = freq.omega_dot_l(f.trunc)
    if divisor_floor is None:
        divisor_floor = 1e-10 * float(np.linalg.norm(freq.omega))
    nz = np.abs(dots) > 0
    # only the l = 0 row has dots == 0 (Diophantine witness excludes other zeros)
    small = nz & (np.abs(dots) < divisor_floor)
    if np.any(small):
        where = np.argwhere(small)[0]
        raise ZeroDivisionError(
            f"divisor underflow in (omega.d_phi)^-1 at l index {tuple(where)}: "
            f"|omega.l| < {divisor_floor:.2e}"
        )
    inv = np.zeros_like(dots, dtype=complex)
    inv[nz] = 1.0 / (1j * dots[nz])
    return FourierField(f.trunc, f.c * inv[..., None])


def phi_average(f: FourierField) -> np.ndarray:
    """x-coefficients of the phi-average (the l = 0 row)."""
    cen = _centers(f.trunc)
    return f.c[cen[: f.trunc.nu]]


def x_average(f: FourierField) -> FourierField:
    """Field of phi only: the j = 0 column kept, all other modes zeroed."""
    c = np.zeros_like(f.c)
    c[..., f.trunc.n_x] = f.c[..., f.trunc.n_x]
    return FourierField(f.trunc, c)


# ---------------------------------------------------------------------------
# pointwise (grid) operations


def pointwise(func, *fields: FourierField) -> FourierField:
    """Apply func to grid samples of the fields and re-analyze.

    All fields must share a truncation.  func receives one real array per
    field and must return a real array of the same shape.
    """
    trunc = fields[0].trunc
    for f in fields[1:]:
        _check_same(trunc, f.trunc)
    samples = [synthesize(f) for f in fields]
    return analyze(trunc, func(*samples))


def multiply(f: FourierField, g: FourierField) -> FourierField:
    """De-aliased product of two fields (re-truncated)."""
    return pointwise(lambda a, b: a * b, f, g)


# ---------------------------------------------------------------------------
# composition with torus diffeomorphisms


def _phi_hybrid(f: FourierField, gphi: tuple[int, ...]) -> np.ndarray:
    """Synthesize along the phi axes only: array (phi grid..., 2 n_x + 1)."""
    nu = f.trunc.nu
    buf = np.zeros(gphi + (f.trunc.shape[-1],), dtype=complex)
    idx = []
    for ax in range(nu):
        idx.append(f.trunc.mode_range(ax) % gphi[ax])
    idx.append(np.arange(f.trunc.shape[-1]))
    buf[np.ix_(*idx)] = f.c
    return np.fft.ifftn(buf, axes=tuple(range(nu))) * np.prod(gphi)


def _eval_x_displaced(hyb: np.ndarray, trunc: Truncation, xpts: np.ndarray) -> np.ndarray:
    """Evaluate sum_j hyb[..., j] e^{i j xpts[..., m]} at per-node abscissae."""
    n = trunc.n_x
    # e^{ijx} for j = 1..n by repeated multiplication of one exp per node;
    # the j < 0 columns are the conjugates
    phase = np.empty(xpts.shape + (2 * n + 1,), dtype=complex)
    phase[..., n] = 1.0
    e1 = np.exp(1j * xpts)
    phase[..., n + 1] = e1
    for j in range(2, n + 1):
        phase[..., n + j] = phase[..., n + j - 1] * e1
    phase[..., :n] = np.conj(phase[..., :n:-1])
    return (phase @ hyb[..., None])[..., 0]


def _fine_shape(trunc: Truncation, factor: int = 2) -> tuple[int, ...]:
    """Grid for compositions: the displaced field is not band-limited, so its
    analysis uses an extra oversampling factor to push aliasing below 1e-10."""
    gp = _grid_len(trunc.n_phi, factor * trunc.oversample)
    gx = _grid_len(trunc.n_x, factor * trunc.oversample)
    return (gp,) * trunc.nu + (gx,)


def compose(kind: str, f: FourierField, displacement: FourierField, freq: Frequency | None = None) -> FourierField:
    """Compose a field with a torus diffeomorphism.

    kind = 'space': returns h(phi, x + beta(phi, x)) for displacement beta.
    kind = 'time':  returns h(phi + omega*alpha(phi), x) for a displacement
    alpha depending on phi only (freq required).
    """
    trunc = f.trunc
    _check_same(trunc, displacement.trunc)
    gs = _fine_shape(trunc)
    gphi, gx = gs[: trunc.nu], gs[-1]
    if kind == "space":
        beta = synthesize(displacement, gs)
        bx = synthesize(dx_pow(displacement, 1), gs)
        if np.max(np.abs(bx)) > 0.5 + 1e-12:
            raise ValueError(f"space diffeomorphism degenerate: |beta_x|_inf = {np.max(np.abs(bx)):.3f} > 1/2")
        hyb = _phi_hybrid(f, gphi)
        xg = 2.0 * np.pi * np.arange(gx) / gx
        vals = _eval_x_displaced(hyb, trunc, xg + beta)
        return analyze(trunc, vals)
    if kind == "time":
        if freq is None:
            raise ValueError("time composition needs a Frequency")
        if np.max(np.abs(displacement.c[..., np.arange(2 * trunc.n_x + 1) != trunc.n_x])) > 1e-12:
            raise ValueError("time displacement must depend on phi only")
        alpha_g = synthesize(displacement, gs)[..., 0]
        da = omega_dphi(displacement, freq)
        if np.max(np.abs(synthesize(da, gs))) > 0.5 + 1e-12:
            raise ValueError("time diffeomorphism degenerate: |omega.d_phi alpha|_inf > 1/2")
        # displaced phi nodes: phi_k + omega * alpha(phi_k)
        mesh = np.meshgrid(*[2.0 * np.pi * np.arange(m) / m for m in gphi], indexing="ij")
        om = freq.omega
        disp = [mesh[ax] + om[ax] * alpha_g for ax in range(trunc.nu)]
        # direct summation over l of c[l, j] e^{i l . disp}
        phase = np.zeros(gphi + trunc.shape[: trunc.nu], dtype=complex)
        expo = np.zeros(gphi + trunc.shape[: trunc.nu])
        for ax in range(trunc.nu):
            lr = trunc.mode_range(ax).reshape((1,) * trunc.nu + (1,) * ax + (-1,) + (1,) * (trunc.nu - 1 - ax))
            expo = expo + disp[ax][(...,) + (None,) * trunc.nu] * lr
        phase = np.exp(1j * expo)
        nu = trunc.nu
        letters = "abcdefgh"[:nu]
        caps = "ijklmnop"[:nu]
        hyb = np.einsum(f"{letters}{caps},{caps}z->{letters}z", phase, f.c.reshape(trunc.shape[:nu] + (-1,)))
        # synthesize the x axis on the grid and re-analyze everything
        bufx = np.zeros(gphi + (gx,), dtype=complex)
        bufx[..., trunc.mode_range(nu) % gx] = hyb
        vals = np.fft.ifft(bufx, axis=-1) * gx
        return analyze(trunc, vals)
    raise ValueError(f"unknown composition kind {kind!r}")


def invert_torus_diffeo(
    kind: str,
    displacement: FourierField,
    freq: Frequency | None = None,
    tol: float = 1e-13,
    max_iter: int = 100,
) -> FourierField:
    """Displacement of the inverse diffeomorphism, by fixed-point iteration.

    space: solves beta~(y) = -beta(y + beta~(y));
    time:  solves alpha~(theta) = -alpha(theta + omega*alpha~(theta)).
    """
    trunc = displacement.trunc
    gs = _fine_shape(trunc)
    gphi, gx = gs[: trunc.nu], gs[-1]
    if kind == "space":
        bx = synthesize(dx_pow(displacement, 1), gs)
        if np.max(np.abs(bx)) > 0.5 + 1e-12:
            raise ValueError("space diffeomorphism not invertible: |beta_x|_inf > 1/2")
        hyb = _phi_hybrid(displacement, gphi)
        yg = 2.0 * np.pi * np.arange(gx) / gx
        bt = np.zeros(gs)
        for _ in range(max_iter):
            new = -np.real(_eval_x_displaced(hyb, trunc, yg + bt))
            delta = np.max(np.abs(new - bt))
            bt = new
            if delta < tol:
                break
        else:
            raise RuntimeError(f"inverse diffeomorphism did not converge (last delta {delta:.2e})")
        return analyze(trunc, bt)
    if kind == "time":
        if freq is None:
            raise ValueError("time inversion needs a Frequency")
        om = freq.omega
        mesh = np.meshgrid(*[2.0 * np.pi * np.arange(m) / m for m in gphi], indexing="ij")
        cphi = displacement.c[..., trunc.n_x]  # alpha depends on phi only
        lgrids = np.meshgrid(*[trunc.mode_range(ax) for ax in range(trunc.nu)], indexing="ij")

        def eval_alpha(points):  # points: list of nu arrays on the phi grid
            expo = np.zeros(gphi + cphi.shape)
            for ax in range(trunc.nu):
                expo = expo + points[ax][(...,) + (None,) * trunc.nu] * lgrids[ax]
            ph = np.exp(1j * expo)
            return np.real(np.tensordot(ph, cphi, axes=(tuple(range(-trunc.nu, 0)), tuple(range(trunc.nu)))))

        at = np.zeros(gphi)
        for _ in range(max_iter):
            pts = [mesh[ax] + om[ax] * at for ax in range(trunc.nu)]
            new = -eval_alpha(pts)
            delta = np.max(np.abs(new - at))
            at = new
            if delta < tol:
                break
        else:
            raise RuntimeError(f"inverse time diffeomorphism did not converge (last delta {delta:.2e})")
        return analyze(trunc, np.broadcast_to(at[..., None], gs).copy())
    raise ValueError(f"unknown diffeomorphism kind {kind!r}")


# ---------------------------------------------------------------------------
# structure predicates


def structure_check(f: FourierField, tol: float = 1e-12) -> dict:
    """Reality, parity class membership, and average flags.

    in_X: u(phi, x) = u(-phi, -x); in_Y: u(phi, x) = -u(-phi, -x).
    Tolerances are relative to the s0-norm of the field.
    """
    scale = max(sobolev_norm(f, f.trunc.s0), 1e-300)
    rev = f.c[tuple(slice(None, None, -1) for _ in f.c.shape)]
    cen = _centers(f.trunc)
    return {
        "is_real": f.reality_defect() <= tol * max(scale, 1.0),
        "in_X": float(np.max(np.abs(f.c - rev))) <= tol * scale,
        "in_Y": float(np.max(np.abs(f.c + rev))) <= tol * scale,
        "zero_space_average": float(np.max(np.abs(f.c[..., f.trunc.n_x]))) <= tol * scale,
        "zero_total_average": abs(f.c[cen]) <= tol * scale,
    }


def embed_field(f: FourierField, big: Truncation) -> FourierField:
    """Zero-pad a field into a larger truncation (same nu)."""
    if big.nu != f.trunc.nu or big.n_phi < f.trunc.n_phi or big.n_x < f.trunc.n_x:
        raise ValueError("target truncation must dominate the source")
    c = np.zeros(big.shape, dtype=complex)
    sl = tuple(
        slice(b - s, b + s + 1)
        for b, s in zip(_centers(big), _centers(f.trunc))
    )
    c[sl] = f.c
    return FourierField(big, c)


def field_at_phi(f: FourierField, phi: np.ndarray) -> np.ndarray:
    """Spatial coefficient vector h_j = sum_l u_{l,j} e^{i l.phi} at fixed phi."""
    from .opalg import freeze  # opalg imports this module
    return freeze(f.c, np.atleast_1d(phi))


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
    rev = c[tuple(slice(None, None, -1) for _ in c.shape)]
    c = 0.5 * (c + np.conj(rev))  # enforce reality
    if parity == "X":
        rev = c[tuple(slice(None, None, -1) for _ in c.shape)]
        c = 0.5 * (c + rev)
    elif parity == "Y":
        rev = c[tuple(slice(None, None, -1) for _ in c.shape)]
        c = 0.5 * (c - rev)
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


def field_from_json(data: dict | str, oversample: int = 2) -> FourierField:
    if isinstance(data, str):
        data = json.loads(data)
    trunc = Truncation(data["nu"], data["n_phi"], data["n_x"], oversample)
    modes = {}
    for row in data["entries"]:
        idx = tuple(int(v) for v in row[: trunc.nu + 1])
        modes[idx] = complex(row[-2], row[-1])
    # from_modes adds the conjugate partner of every non-self-conjugate entry
    return FourierField.from_modes(trunc, modes)
