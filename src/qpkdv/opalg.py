"""Block-Toeplitz operator algebra on truncated Fourier fields.

Operators that commute with time translations have matrix elements depending
on the time indices only through their difference:
A^{(l2,j2)}_{(l1,j1)} = A^{j2}_{j1}(l1 - l2).  They are stored as a table of
spatial blocks indexed by the offset l on the doubled rectangle
|l_i| <= 2 n_phi.  The module provides construction from multiplication and
Fourier-multiplier operators, application to fields, composition, s-decay
norms, time-offset smoothing, Neumann inversion, matrix exponentials,
evaluation of block tables at a batch of angles (``freeze``), and dense
materialization for oracle checks.

``compose`` is one zero-padded FFT convolution over the offset axes (each
phi-axis padded to a 2-3-5-smooth length >= 8 n_phi + 1, so the full product
is alias-free), one batched matrix product, and a clip to |l_i| <= 2 n_phi.
Offsets outside the Minkowski sum of the operands' nonzero offsets are exact
zeros, so block sparsity is exact and ``apply``/``operator_to_json`` skip
empty offsets; entries inside a block carry rounding of order eps |A| |B|, so
an entry that is zero by structure is not an exact zero.  ``dropped_mass`` is
the l2 (Parseval) norm of the summed product outside the kept rectangle.
Fourier multipliers, a single diagonal l = 0 block, are applied by
``scale_modes`` as row/column scalings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .spectral import FourierField, Frequency, Truncation, index_weights, sobolev_norm

__all__ = [
    "ToplitzOperator",
    "DiagonalOperator",
    "freeze",
    "identity",
    "from_multiplication",
    "from_multiplier",
    "from_diagonal",
    "symbol",
    "apply",
    "compose",
    "scale_modes",
    "add",
    "decay_norm",
    "smooth",
    "smooth_complement",
    "neumann_inverse",
    "matrix_exponential",
    "materialize_matrix",
    "materialize_linearized",
    "flatten_field",
    "unflatten_field",
    "operator_to_json",
]

MATERIALIZE_CAP = 20000


def _block_shape(trunc: Truncation) -> tuple[int, ...]:
    m = 2 * trunc.n_x + 1
    return (4 * trunc.n_phi + 1,) * trunc.nu + (m, m)


@dataclass(frozen=True)
class ToplitzOperator:
    """Operator A with blocks[l][j1, j2] = A^{j2}_{j1}(l), |l_i| <= 2 n_phi."""

    trunc: Truncation
    blocks: np.ndarray = field(repr=False)
    #: Frobenius mass of blocks dropped at the |l| <= 2 n_phi boundary by the
    #: producing operation (composition leakage diagnostic).
    dropped_mass: float = 0.0

    def __post_init__(self):
        if self.blocks.shape != _block_shape(self.trunc):
            raise ValueError(
                f"block table shape {self.blocks.shape} does not match {_block_shape(self.trunc)}"
            )
        self.blocks.setflags(write=False)

    # offsets are centered at index 2*n_phi per phi axis
    def block(self, l: tuple[int, ...]) -> np.ndarray:
        idx = tuple(li + 2 * self.trunc.n_phi for li in l)
        return self.blocks[idx]

    def scale(self, a: complex) -> "ToplitzOperator":
        return ToplitzOperator(self.trunc, self.blocks * a)

    def __add__(self, other: "ToplitzOperator") -> "ToplitzOperator":
        return add(self, other)

    def __sub__(self, other: "ToplitzOperator") -> "ToplitzOperator":
        return add(self, other.scale(-1.0))

    def reality_defect(self) -> float:
        """sup |conj(A^j_k(l)) - A^{-j}_{-k}(-l)| (zero for real operators)."""
        rev = self.blocks[tuple(slice(None, None, -1) for _ in self.blocks.shape)]
        return float(np.max(np.abs(np.conj(self.blocks) - rev)))

    def reversibility_defect(self) -> float:
        """sup |A^{-j}_{-k}(-l) - A^j_k(l)|; zero for operators preserving parity classes."""
        rev = self.blocks[tuple(slice(None, None, -1) for _ in self.blocks.shape)]
        return float(np.max(np.abs(rev - self.blocks)))


@dataclass(frozen=True)
class DiagonalOperator:
    """Constant-coefficient diagonal operator: mu[j + n_x] acts on the j-th mode."""

    trunc: Truncation
    mu: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.mu.shape != (2 * self.trunc.n_x + 1,):
            raise ValueError("mu must have one entry per spatial mode")
        self.mu.setflags(write=False)

    def mu_at(self, j: int) -> complex:
        return complex(self.mu[j + self.trunc.n_x])

    def conjugate_symmetry_defect(self) -> float:
        return float(np.max(np.abs(self.mu - np.conj(self.mu[::-1]))))

    def __add__(self, other: "DiagonalOperator") -> "DiagonalOperator":
        return DiagonalOperator(self.trunc, self.mu + other.mu)


def freeze(table: np.ndarray, theta) -> np.ndarray:
    """sum_l e^{i l.theta} table[l] at one angle theta (shape (nu,)) or a batch
    (shape (k, nu)), as one (angles x offsets) @ (offsets x rest) product.

    The leading nu axes of ``table`` are centered offsets, as in the block
    table of a ToplitzOperator or the coefficient table of a FourierField."""
    theta = np.asarray(theta, dtype=float)
    nu = theta.shape[-1]
    angles = theta.reshape(-1, nu)
    phases = np.ones((len(angles), 1), dtype=complex)
    for ax in range(nu):
        half = table.shape[ax] // 2
        e = np.exp(1j * np.outer(angles[:, ax], np.arange(-half, half + 1)))
        phases = (phases[:, :, None] * e[:, None, :]).reshape(len(angles), -1)
    out = phases @ table.reshape(phases.shape[1], -1)
    return out.reshape(theta.shape[:-1] + table.shape[nu:])


# ---------------------------------------------------------------------------
# constructors


def identity(trunc: Truncation) -> ToplitzOperator:
    blocks = np.zeros(_block_shape(trunc), dtype=complex)
    center = (2 * trunc.n_phi,) * trunc.nu
    blocks[center] = np.eye(2 * trunc.n_x + 1)
    return ToplitzOperator(trunc, blocks)


def from_multiplication(p: FourierField) -> ToplitzOperator:
    """Multiplication operator h -> p h as a block-Toeplitz table."""
    trunc, n_x = p.trunc, p.trunc.n_x
    off = np.subtract.outer(np.arange(2 * n_x + 1), np.arange(2 * n_x + 1))  # j1 - j2
    blocks = np.zeros(_block_shape(trunc), dtype=complex)
    # the block at offset l holds the modes p_{l, j1 - j2} of p
    inner = (slice(trunc.n_phi, 3 * trunc.n_phi + 1),) * trunc.nu
    blocks[inner] = np.where(np.abs(off) <= n_x, p.c[..., np.clip(off + n_x, 0, 2 * n_x)], 0.0)
    return ToplitzOperator(trunc, blocks)


def symbol(trunc: Truncation, m_func) -> np.ndarray:
    """The values m(j), |j| <= n_x, of the Fourier multiplier h_{l,j} -> m(j) h_{l,j}."""
    return np.array([m_func(int(j)) for j in trunc.mode_range(trunc.nu)], dtype=complex)


def from_multiplier(trunc: Truncation, m_func) -> ToplitzOperator:
    """Fourier multiplier h_{l,j} -> m(j) h_{l,j} (only the l = 0 block)."""
    blocks = np.zeros(_block_shape(trunc), dtype=complex)
    center = (2 * trunc.n_phi,) * trunc.nu
    blocks[center] = np.diag(symbol(trunc, m_func))
    return ToplitzOperator(trunc, blocks)


def from_diagonal(d: DiagonalOperator) -> ToplitzOperator:
    return from_multiplier(d.trunc, lambda j: d.mu[j + d.trunc.n_x])


def dx_inv_symbol(j: int) -> complex:
    """Symbol of the zero-average antiderivative d/dx^{-1}."""
    return 0.0 if j == 0 else 1.0 / (1j * j)


def pi0_symbol(j: int) -> float:
    """Symbol of the projector removing the x-average (j = 0 modes)."""
    return 0.0 if j == 0 else 1.0


def dx_inv_multiplier(trunc: Truncation) -> ToplitzOperator:
    """The zero-average antiderivative d/dx^{-1} as a multiplier operator."""
    return from_multiplier(trunc, dx_inv_symbol)


# ---------------------------------------------------------------------------
# action and composition


def _offset_support(A: ToplitzOperator) -> np.ndarray:
    """Boolean table of the offsets l whose block is not identically zero."""
    nu = A.trunc.nu
    return A.blocks.reshape(A.blocks.shape[:nu] + (-1,)).any(axis=-1)


def apply(A: ToplitzOperator, u: FourierField) -> FourierField:
    """(Au)_{l1,j1} = sum_{l2,j2} A^{j2}_{j1}(l1-l2) u_{l2,j2}, clipped to the rectangle."""
    trunc = A.trunc
    if trunc != u.trunc:
        raise ValueError("truncation mismatch between operator and field")
    W = 2 * trunc.n_phi + 1
    out = np.zeros(trunc.shape, dtype=complex)
    for off in np.argwhere(_offset_support(A)):
        # output index l1 = l2 + l must stay within |l1_i| <= n_phi
        l = off - 2 * trunc.n_phi
        src = tuple(slice(max(0, -li), min(W, W - li)) for li in l)
        dst = tuple(slice(sl.start + li, sl.stop + li) for sl, li in zip(src, l))
        out[dst] += u.c[src] @ A.blocks[tuple(off)].T
    return FourierField(trunc, out)


@lru_cache(maxsize=32)
def _fft_length(n: int) -> int:
    """Smallest 2-3-5-smooth integer >= n."""
    return min(k for k in (2**a * 3**b * 5**c for a in range(20) for b in range(13)
                           for c in range(9)) if k >= n)


def compose(A: ToplitzOperator, B: ToplitzOperator) -> ToplitzOperator:
    """(AB)(l) = sum_{l'} A(l') B(l - l'), offsets clipped at |l| <= 2 n_phi.

    The l2 norm of the product beyond the doubled rectangle is added to the
    operands' dropped_mass.
    """
    trunc = A.trunc
    if trunc != B.trunc:
        raise ValueError("truncation mismatch")
    nu, w = trunc.nu, 4 * trunc.n_phi + 1
    axes = tuple(range(-nu, 0))
    s = (_fft_length(2 * w - 1),) * nu
    full_l = (slice(0, 2 * w - 1),) * nu

    # the transforms run about twice as fast over contiguous trailing axes,
    # so the offset axes are moved last for them and the (m, m) axes last for
    # the batched product.  Up to m = 33 OpenBLAS runs each GEMM of the batch
    # on the calling thread, so no helper threads compete with the process
    # pool of solver.cantor_measure.
    def moved(X, src, dst):
        return np.ascontiguousarray(np.moveaxis(X, src, dst))

    def spectrum(X):
        return moved(np.fft.fftn(moved(X.blocks, (-2, -1), (0, 1)), s, axes), (0, 1), (-2, -1))

    full = np.fft.ifftn(moved(spectrum(A) @ spectrum(B), (-2, -1), (0, 1)), axes=axes)
    full = np.moveaxis(full[(...,) + full_l], (0, 1), (-2, -1))
    # the indicator convolution counts the pairs (l', l - l') of nonzero
    # blocks; a zero count marks an offset that is exactly zero
    counts = np.fft.irfftn(np.fft.rfftn(_offset_support(A), s, axes)
                           * np.fft.rfftn(_offset_support(B), s, axes), s, axes)
    full[counts[full_l] < 0.5] = 0.0
    window = (slice(w // 2, w // 2 + w),) * nu
    out = full[window].copy()
    full[window] = 0.0
    # a sum, not np.linalg.norm: BLAS dot products start helper threads
    dropped = float(np.sqrt(np.sum(np.abs(full) ** 2)))
    return ToplitzOperator(trunc, out, dropped_mass=dropped + A.dropped_mass + B.dropped_mass)


def scale_modes(A: ToplitzOperator, rows=None, cols=None) -> ToplitzOperator:
    """diag(rows) A diag(cols) for multipliers given by their ``symbol``: the
    composition with ``from_multiplier`` on either side, as a row/column scaling."""
    blocks = A.blocks
    if rows is not None:
        blocks = np.asarray(rows)[:, None] * blocks
    if cols is not None:
        blocks = blocks * np.asarray(cols)[None, :]
    return ToplitzOperator(A.trunc, blocks, A.dropped_mass)


def add(A: ToplitzOperator, B: ToplitzOperator) -> ToplitzOperator:
    if A.trunc != B.trunc:
        raise ValueError("truncation mismatch")
    return ToplitzOperator(A.trunc, A.blocks + B.blocks, A.dropped_mass + B.dropped_mass)


def omega_commutator(A: ToplitzOperator, freq) -> ToplitzOperator:
    """[omega.d_phi, A]: each block A(l) picks up the factor i omega.l."""
    dots = freq.omega_dot_l(A.trunc, double=True)
    factor = (1j * dots)[(...,) + (None, None)]
    return ToplitzOperator(A.trunc, factor * A.blocks, A.dropped_mass)


# ---------------------------------------------------------------------------
# norms and smoothing


def _offset_profile(A: ToplitzOperator) -> np.ndarray:
    """sup over diagonals: P[l..., d] = sup_{j1-j2=d} |A^{j2}_{j1}(l)|."""
    trunc = A.trunc
    m = 2 * trunc.n_x + 1
    prof = np.zeros(A.blocks.shape[: trunc.nu] + (2 * m - 1,))
    absb = np.abs(A.blocks)
    for d in range(-(m - 1), m):
        diag = np.diagonal(absb, offset=-d, axis1=-2, axis2=-1)  # j1 - j2 = d
        prof[..., d + m - 1] = diag.max(axis=-1) if diag.size else 0.0
    return prof


def decay_norm(A: ToplitzOperator, s: float) -> float:
    """|A|_s^2 = sum_{l,d} <l,d>^{2s} sup_{j1-j2=d} |A^{j2}_{j1}(l)|^2."""
    trunc = A.trunc
    w = index_weights(trunc.nu, 2 * trunc.n_phi, 2 * trunc.n_x, 1.0)
    return float(np.sqrt(np.sum(w ** (2.0 * s) * _offset_profile(A) ** 2)))


def smooth(A: ToplitzOperator, N: int) -> ToplitzOperator:
    """Keep only the blocks with time offset |l|_inf <= N."""
    if N < 0:
        raise ValueError("N must be >= 0")
    blocks = A.blocks.copy()
    blocks[index_weights(A.trunc.nu, 2 * A.trunc.n_phi) > N] = 0.0
    return ToplitzOperator(A.trunc, blocks, A.dropped_mass)


def smooth_complement(A: ToplitzOperator, N: int) -> ToplitzOperator:
    return add(A, smooth(A, N).scale(-1.0))


# ---------------------------------------------------------------------------
# inversion and exponential


def neumann_inverse(
    Psi: ToplitzOperator,
    tol: float = 1e-14,
    max_terms: int = 60,
) -> ToplitzOperator:
    """Inverse of I + Psi by the geometric series, requiring |Psi|_{s0} < 1/2."""
    s0 = Psi.trunc.s0
    norm0 = decay_norm(Psi, s0)
    if norm0 >= 0.5:
        raise ValueError(f"Neumann contraction fails: |Psi|_s0 = {norm0:.3f} >= 1/2")
    negPsi = Psi.scale(-1.0)
    out = identity(Psi.trunc)
    # the series starts at the first power, so nothing is composed with I
    for k in range(max_terms):
        term = negPsi if k == 0 else compose(term, negPsi)
        out = add(out, term)
        if decay_norm(term, s0) < tol:
            break
    else:
        raise RuntimeError("Neumann series did not converge within the term cap")
    return out


def matrix_exponential(Psi: ToplitzOperator, term_tol: float = 1e-15) -> ToplitzOperator:
    """exp(Psi) by scaling-and-squaring of the block series."""
    s0 = Psi.trunc.s0
    norm0 = decay_norm(Psi, s0)
    if norm0 > 1.0:
        raise ValueError(f"|Psi|_s0 = {norm0:.3f} > 1; refuse to exponentiate")
    k = 0
    while norm0 / (2**k) > 0.25:
        k += 1
    scaled = Psi.scale(0.5**k)
    out = identity(Psi.trunc)
    fact = 1.0
    for n in range(1, 30):
        term = scaled if n == 1 else compose(term, scaled)
        fact /= n
        out = add(out, term.scale(fact))
        if decay_norm(term, s0) * fact < term_tol:
            break
    for _ in range(k):
        out = compose(out, out)
    return out


# ---------------------------------------------------------------------------
# dense materialization (oracle support)


def flatten_field(u: FourierField) -> np.ndarray:
    return u.c.reshape(-1)


def unflatten_field(trunc: Truncation, vec: np.ndarray) -> FourierField:
    return FourierField(trunc, vec.reshape(trunc.shape).copy())


def materialize_matrix(
    op: ToplitzOperator | DiagonalOperator,
    freq: Frequency | None = None,
    include_omega_dphi: bool = False,
) -> np.ndarray:
    """Dense matrix over the flattened (l, j) index (row-major over trunc.shape)."""
    trunc = op.trunc
    dim = int(np.prod(trunc.shape))
    if dim > MATERIALIZE_CAP:
        raise ValueError(f"flattened dimension {dim} exceeds cap {MATERIALIZE_CAP}")
    M = np.zeros((dim, dim), dtype=complex)
    idx = list(np.ndindex(*trunc.shape))
    if isinstance(op, DiagonalOperator):
        for r, i in enumerate(idx):
            M[r, r] = op.mu[i[-1]]
    else:
        nu, npk = trunc.nu, trunc.n_phi
        multi = np.array(idx)  # (dim, nu + 1) raw indices
        gather = []
        for ax in range(nu):
            gather.append(multi[:, ax][:, None] - multi[:, ax][None, :] + 2 * npk)
        gather.append(np.broadcast_to(multi[:, -1][:, None], (dim, dim)))
        gather.append(np.broadcast_to(multi[:, -1][None, :], (dim, dim)))
        M = op.blocks[tuple(gather)]
    if include_omega_dphi:
        if freq is None:
            raise ValueError("include_omega_dphi requires a Frequency")
        dots = freq.omega_dot_l(trunc).reshape(-1)
        mshape = 2 * trunc.n_x + 1
        M += np.diag(np.repeat(1j * dots, mshape))
    return M


def materialize_linearized(
    a3: FourierField, a2: FourierField, a1: FourierField, a0: FourierField, freq: Frequency
) -> np.ndarray:
    """Dense matrix of omega.d_phi + (1+a3) d_xxx + a2 d_xx + a1 d_x + a0."""
    trunc = a3.trunc
    dx = 1j * trunc.mode_range(trunc.nu)
    one = FourierField.constant(trunc, 1.0)
    T = scale_modes(from_multiplication(one + a3), cols=dx**3)
    T = add(T, scale_modes(from_multiplication(a2), cols=dx**2))
    T = add(T, scale_modes(from_multiplication(a1), cols=dx))
    T = add(T, from_multiplication(a0))
    return materialize_matrix(T, freq, include_omega_dphi=True)


def operator_to_json(A: ToplitzOperator) -> dict:
    """{trunc, blocks: [[l..., re-block, im-block]...]} for nonzero offsets."""
    trunc = A.trunc
    entries = []
    for off in np.argwhere(_offset_support(A)):
        blk = A.blocks[tuple(off)]
        entries.append([[int(o) - 2 * trunc.n_phi for o in off], blk.real.tolist(), blk.imag.tolist()])
    return {
        "nu": trunc.nu,
        "n_phi": trunc.n_phi,
        "n_x": trunc.n_x,
        "blocks": entries,
    }
