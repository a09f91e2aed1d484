"""Block-Toeplitz operator algebra on truncated Fourier fields.

Operators that commute with time translations have matrix elements depending
on the time indices only through their difference:
A^{(l2,j2)}_{(l1,j1)} = A^{j2}_{j1}(l1 - l2).  They are stored as a table of
spatial blocks indexed by the offset l on the doubled rectangle
|l_i| <= 2 n_phi.  The module provides construction from multiplication and
Fourier-multiplier operators, application to fields, composition, s-decay
norms, Neumann inversion, the pair exp(+-Psi), evaluation of block tables at
a batch of angles (``freeze``), and dense materialization for the
Galerkin-Newton oracle.  A diagonal operator is its symbol, a plain array
over |j| <= n_x, applied by ``scale_modes``.  Regularization step 5 and every
KAM step are one conjugation, by the Phi of ``near_identity``, through
``conjugate``.

Every operator the pipeline builds is real: it maps real functions to real
ones, so its table has conj A^j_k(l) = A^{-j}_{-k}(-l), and half of it is
the mirror of the other half.  ``compose``, ``apply`` and ``decay_norm``
rely on that and read only the rows j >= 0 of the left operand (the
operand itself for ``decay_norm``); the rows j < 0 of a product are the
``mirror_rows`` of its rows j > 0.  Nothing checks the contract at run
time (a Hermitian-defect pass costs about what the half saves).  For tables
that are not real the result is still defined: the rows j >= 0 are the
product of A's rows j >= 0 with B (or the field), the rows j < 0 their
mirror, and the profile of ``decay_norm`` the larger of that of the rows
j >= 0 and its mirror.

Every operator carries its support box, set by the operation that builds
it: per offset axis a slice outside which its rows j >= 0 vanish (its rows
j < 0 vanish outside the mirror, so the hull of the box and its mirror, the
full box, holds every nonzero block).  ``identity`` and ``from_multiplier``
have the l = 0 block, ``from_multiplication`` the box of the field's nonzero
offsets and its mirror, ``compose`` the clipped Minkowski sum its
convolution writes, ``add`` the hull, ``scale``, ``scale_modes`` and
``commutator`` the operand's, and ``quotient`` the operand's cut to the
divisor's offsets; a table handed to the constructor is scanned once.  A
declared box may be wider than the offsets that hold nonzero entries (a
product whose blocks cancel exactly), never narrower.
``compose`` and ``apply`` read the boxes instead of scanning tables, and
``add``, ``scale_modes``, ``commutator``, ``decay_norm`` and the
``dropped_mass`` bound touch only the full boxes.  The zero operator has
the box None; every operation returns it, or its other operand, at once, so
"this operator is zero" is decided by the boxes the operations set, never
by comparing entries with 0.  The tables stay full
(4 n_phi + 1)^nu x m x m arrays; a zero one is never written.

``apply`` and ``compose`` share one offset convolution: a zero-padded FFT
over the offset axes, one batched matrix product of the rows j >= 0 of the
left operand against all of the right one, and a clip to the right
operand's rectangle (for ``apply`` the field's, an m x 1 block per l).  Only
the left operand's box, and the right operand's full box (for a field, the
box of its nonzero offsets), are transformed, and only as long as the kept
window needs (overlap-discard): on a phi-axis where the
boxes are a and b offsets wide and the product indices k0..k1 of
0..a + b - 2 are kept, the cyclic length is the 2-3-5-smooth length
(spectral's one table of them) >= max(a, b, a + b - 1 - k0, k1 + 1), so
every alias falls on a discarded index (>= 6 n_phi + 1 for two full tables,
a + b - 1 when the box sum fits the rectangle).  A zero operand or an empty
kept window runs no transform, and neither does a left operand whose rows
j >= 0 have a one-offset box l0 (the identity, or a multiplier): its
product is one batched matmul of those rows of A(l0) against the right
operand's kept window, shifted by l0.
The transforms run in place over the leading offset axes of a reused
workspace: with L^nu = _fft_length(6 n_phi + 1)^nu, the most a call needs,
two buffers of L^nu (n_x + 1) m elements for the left operand's spectrum
and the product, and one of L^nu m^2 for the right operand's (3.5 MB in
all at nu = 1, n = 16; 24 MB at nu = 2, n = 8), held for the life of the
process; a call views the head of each as its own padded shape.
Only the Minkowski sum of the operands' boxes is copied out, and it is the
product's box, so the offsets outside it are exact zeros; inside it every
entry carries rounding of order eps |A| |B|, so an offset no pair of nonzero
blocks reaches, an entry that is zero by structure, or a block whose
products cancel, is not an exact zero.
The discarded part is aliased, so ``dropped_mass`` is an upper bound on the
l2 norm of the product outside the kept rectangle: the l2 norm over those
offsets of the Frobenius bound |C(l)|_F <= sum_l' |A(l')|_F |B(l - l')|_F
over the operands' full boxes, exactly 0, with no norm taken, when the
boxes' sum fits the rectangle.
Fourier multipliers, a single diagonal l = 0 block, are applied by
``scale_modes`` as row/column scalings.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .spectral import (FourierField, Frequency, NumericalFailure, Truncation, _fft_length,
                       index_weights)

__all__ = [
    "ToplitzOperator",
    "freeze",
    "offset_phases",
    "mirror_rows",
    "identity",
    "from_multiplication",
    "from_multiplier",
    "symbol",
    "apply",
    "compose",
    "scale_modes",
    "add",
    "decay_norm",
    "commutator",
    "quotient",
    "neumann_inverse",
    "near_identity",
    "conjugate",
    "SeriesRefused",
    "SeriesCapError",
    "materialize_matrix",
    "materialize_linearized",
    "flatten_field",
]

MATERIALIZE_CAP = 20000
# the Neumann series stops at a term of |.|_s0 below NEUMANN_TOL, and fails
# after NEUMANN_MAX_TERMS terms; the exponential series stops at EXP_TERM_TOL
NEUMANN_TOL = 1e-14
NEUMANN_MAX_TERMS = 60
EXP_TERM_TOL = 1e-15


class SeriesRefused(NumericalFailure, ValueError):
    """|Psi|_s0 is too large for the Neumann or exponential series."""


class SeriesCapError(NumericalFailure, RuntimeError):
    """The Neumann series did not converge within its term cap."""


def _block_shape(trunc: Truncation) -> tuple[int, ...]:
    m = 2 * trunc.n_x + 1
    return (4 * trunc.n_phi + 1,) * trunc.nu + (m, m)


_SCAN = object()  # the default box: scan the table handed in


@dataclass(frozen=True)
class ToplitzOperator:
    """Operator A with blocks[l][j1, j2] = A^{j2}_{j1}(l), |l_i| <= 2 n_phi.

    ``box`` is the support box, one slice of offset indices per axis: the
    rows j >= 0 vanish outside it and the rows j < 0 outside its mirror, so
    that its hull with the mirror (``_full``) holds every nonzero block.
    None is the zero operator.  The operations set it; a table handed in
    without one is scanned once (``_scan_box``)."""

    trunc: Truncation
    blocks: np.ndarray = field(repr=False)
    #: bound on the Frobenius mass of blocks dropped at the |l| <= 2 n_phi
    #: boundary by the producing operations (composition leakage diagnostic).
    dropped_mass: float = 0.0
    box: tuple | None = field(default=_SCAN, repr=False)

    def __post_init__(self):
        if self.blocks.shape != _block_shape(self.trunc):
            raise ValueError(
                f"block table shape {self.blocks.shape} does not match {_block_shape(self.trunc)}"
            )
        self.blocks.setflags(write=False)
        if self.box is _SCAN:
            object.__setattr__(self, "box", _scan_box(self.blocks))

    def scale(self, a: complex) -> "ToplitzOperator":
        return _on_box(self, lambda blocks, _: blocks * a, abs(a) * self.dropped_mass)

    def __add__(self, other: "ToplitzOperator") -> "ToplitzOperator":
        return add(self, other)

    def __sub__(self, other: "ToplitzOperator") -> "ToplitzOperator":
        return add(self, other.scale(-1.0))


def offset_phases(offsets: tuple[int, ...], theta) -> np.ndarray:
    """e^{i l.theta} over the centered offsets l of a table whose leading axes
    have the shape ``offsets``, one flattened row per angle: (offsets,) at one
    angle theta (shape (nu,)), (k, offsets) for a batch (shape (k, nu))."""
    theta = np.asarray(theta, dtype=float)
    angles = theta.reshape(-1, len(offsets))
    phases = np.ones((len(angles), 1), dtype=complex)
    for ax, size in enumerate(offsets):
        half = size // 2
        e = np.exp(1j * np.outer(angles[:, ax], np.arange(-half, half + 1)))
        phases = (phases[:, :, None] * e[:, None, :]).reshape(len(angles), -1)
    return phases.reshape(theta.shape[:-1] + (-1,))


def freeze(table: np.ndarray, theta) -> np.ndarray:
    """sum_l e^{i l.theta} table[l] at one angle theta (shape (nu,)) or a batch
    (shape (k, nu)), as one (angles x offsets) @ (offsets x rest) product.

    The leading nu axes of ``table`` are centered offsets, as in the block
    table of a ToplitzOperator or the coefficient table of a FourierField."""
    theta = np.asarray(theta, dtype=float)
    nu = theta.shape[-1]
    phases = offset_phases(table.shape[:nu], theta.reshape(-1, nu))
    out = phases @ table.reshape(phases.shape[1], -1)
    return out.reshape(theta.shape[:-1] + table.shape[nu:])


# ---------------------------------------------------------------------------
# support boxes


def _support_box(support: np.ndarray) -> tuple[slice, ...] | None:
    """Per axis, the slice from the first to the last index of a True entry
    of ``support``, or None when it has none."""
    if not support.any():
        return None
    nu = support.ndim
    box = []
    for ax in range(nu):
        hit = np.flatnonzero(support.any(axis=tuple(a for a in range(nu) if a != ax)))
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


def _scan_box(blocks: np.ndarray) -> tuple[slice, ...] | None:
    """The box of a table handed in: that of the offsets l whose rows j >= 0
    are not all zero, or whose rows j < 0 at -l are not."""
    n_x = blocks.shape[-2] // 2
    rows = blocks.any(axis=-1)
    return _support_box(rows[..., n_x:].any(axis=-1) | np.flip(rows[..., :n_x].any(axis=-1)))


def _hull(p, q):
    """The smallest box holding the boxes p and q (None is empty)."""
    if p is None or q is None:
        return q if p is None else p
    return tuple(slice(min(a.start, b.start), max(a.stop, b.stop)) for a, b in zip(p, q))


def _meet(p, q):
    """The intersection of the boxes p and q, None when it is empty."""
    if p is None or q is None:
        return None
    box = tuple(slice(max(a.start, b.start), min(a.stop, b.stop)) for a, b in zip(p, q))
    return None if any(s.stop <= s.start for s in box) else box


def _mirror(box, w: int):
    """The box l -> -l of ``box`` on w offsets per axis."""
    return tuple(slice(w - s.stop, w - s.start) for s in box)


def _full(box, w: int):
    """The box of every row of a table on w offsets per axis whose rows
    j >= 0 lie in ``box``: its hull with the mirror l -> -l."""
    if box is None:
        return None
    return _hull(box, _mirror(box, w))


def _on_box(A: ToplitzOperator, values, dropped: float) -> ToplitzOperator:
    """The operator with A's box whose table is values(A's blocks on F, F)
    on the full box F and zero elsewhere; a zero A returns at once."""
    if A.box is None:
        return ToplitzOperator(A.trunc, A.blocks, dropped, None)
    full = _full(A.box, A.blocks.shape[0])
    blocks = np.zeros(A.blocks.shape, dtype=complex)
    blocks[full] = values(A.blocks[full], full)
    return ToplitzOperator(A.trunc, blocks, dropped, A.box)


# ---------------------------------------------------------------------------
# constructors


def identity(trunc: Truncation) -> ToplitzOperator:
    return from_multiplier(trunc, lambda j: 1.0)


def from_multiplication(p: FourierField) -> ToplitzOperator:
    """Multiplication operator h -> p h as a block-Toeplitz table, on the box
    of p's nonzero offsets and its mirror."""
    trunc, n_x, n_phi = p.trunc, p.trunc.n_x, p.trunc.n_phi
    blocks = np.zeros(_block_shape(trunc), dtype=complex)
    # the field's offset l sits at index l + n_phi of its table, l + 2 n_phi of blocks
    box = _full(_support_box(p.c.any(axis=-1)), 2 * n_phi + 1)
    if box is None:
        return ToplitzOperator(trunc, blocks, box=None)
    off = np.subtract.outer(np.arange(2 * n_x + 1), np.arange(2 * n_x + 1))  # j1 - j2
    # the block at offset l holds the modes p_{l, j1 - j2} of p
    inner = tuple(slice(s.start + n_phi, s.stop + n_phi) for s in box)
    modes = p.c[box][..., np.clip(off + n_x, 0, 2 * n_x)]
    blocks[inner] = np.where(np.abs(off) <= n_x, modes, 0.0)
    return ToplitzOperator(trunc, blocks, box=inner)


def symbol(trunc: Truncation, m_func) -> np.ndarray:
    """The values m(j), |j| <= n_x, of the Fourier multiplier h_{l,j} -> m(j) h_{l,j}."""
    return np.array([m_func(int(j)) for j in trunc.mode_range(trunc.nu)], dtype=complex)


def from_multiplier(trunc: Truncation, m_func) -> ToplitzOperator:
    """Fourier multiplier h_{l,j} -> m(j) h_{l,j} (only the l = 0 block)."""
    blocks = np.zeros(_block_shape(trunc), dtype=complex)
    box = (slice(2 * trunc.n_phi, 2 * trunc.n_phi + 1),) * trunc.nu
    blocks[box] = np.diag(symbol(trunc, m_func))
    return ToplitzOperator(trunc, blocks, box=box)


def dx_inv_symbol(j: int) -> complex:
    """Symbol of the zero-average antiderivative d/dx^{-1}."""
    return 0.0 if j == 0 else 1.0 / (1j * j)


def pi0_symbol(j: int) -> float:
    """Symbol of the projector removing the x-average (j = 0 modes)."""
    return 0.0 if j == 0 else 1.0


# ---------------------------------------------------------------------------
# action and composition


def _upper(table: np.ndarray) -> np.ndarray:
    """The rows j >= 0 of each block of a table."""
    return table[..., table.shape[-2] // 2:, :]


def mirror_rows(table: np.ndarray, lead: int = 0, box=None) -> np.ndarray:
    """Fill the rows j < 0 of a table of real operator blocks (the last two
    axes, 2 n_x + 1 rows) from its rows j > 0, in place, and return it:
    table[..., :n_x, :] = conj(flip(table[..., n_x + 1:, :])), the flip
    running over every axis after the first ``lead`` (the centered offsets,
    the rows and the columns), which is conj A^{-j}_{-k}(-l) = A^j_k(l).
    Given the ``box`` of offsets (lead = 0) outside which the rows j > 0
    vanish, only the rows j < 0 on its mirror are written."""
    n_x = table.shape[-2] // 2
    flip = (slice(None),) * lead + (slice(None, None, -1),) * (table.ndim - lead)
    src, dst = (Ellipsis,), (Ellipsis,)
    if box is not None:
        src, dst = box, _mirror(box, table.shape[0])
    np.conjugate(table[src + (slice(n_x + 1, None), slice(None))][flip],
                 out=table[dst + (slice(None, n_x), slice(None))])
    return table


def _kept_window(boxA, boxB, w: int, out_shape):
    """Per offset axis of the linear product of the boxes of a w-wide table
    and of an operand of the offset widths ``out_shape``: the shift from a
    product index to an output index, the product's width, and the product
    indices kept."""
    # product index k on an axis holds the offset k + a0 - w//2 + b0 - c//2,
    # which is the output index k + a0 + b0 - w//2 on the output's width c
    shift = [p.start + q.start - w // 2 for p, q in zip(boxA, boxB)]
    wide = [(p.stop - p.start) + (q.stop - q.start) - 1 for p, q in zip(boxA, boxB)]
    kept = tuple(slice(max(0, -d), max(0, min(n, c - d)))
                 for n, c, d in zip(wide, out_shape, shift))
    return shift, wide, kept


@lru_cache(maxsize=1)
def _workspace(cells: int, m: int, thread: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The spectra of the left operand's rows j >= 0 and of the right operand,
    and their product, for ``_convolve``: flat buffers of cells (n_x + 1) m,
    cells m^2 and cells (n_x + 1) m elements, held for those sizes and thread.
    A call views the head of each as its own padded shape, which is never
    larger.  A thread that convolves while another does gets buffers of its
    own; the other keeps its own until it returns.

    ``cells`` is _fft_length(6 n_phi + 1)^nu: on each axis the boxes of a
    w = 4 n_phi + 1 wide table, a0 <= a1 and b0 <= b1, give a product of
    width a1 + b1 - a0 - b0 + 1 whose kept indices start at
    k0 = max(0, 2 n_phi - a0 - b0) and stop before
    k1 = c + 2 n_phi - a0 - b0 on the output width c <= w.  With a1, b1 <= 4 n_phi,
    wide - k0 <= a1 + b1 - 2 n_phi + 1 <= 6 n_phi + 1 and k1 <= 6 n_phi + 1,
    and both box widths are at most w."""
    upper = cells * (m // 2 + 1) * m
    return tuple(np.empty(size, dtype=complex) for size in (upper, cells * m * m, upper))


def _convolve(a: np.ndarray, b: np.ndarray, boxA, boxB):
    """sum_{l'} a(l') @ b(l - l') over centered offsets, clipped to b's offset
    rectangle, for real operands: ``a`` is a full block table whose rows
    j >= 0 lie in the offsets ``boxA``, ``b`` an m x k block per offset of its
    own odd-width rectangle, nonzero only in ``boxB`` (None: a zero operand).
    The rows j >= 0 are a's rows j >= 0 times b, written on the returned box
    (None when nothing is); the rows j < 0 are their ``mirror_rows``."""
    nu, w = a.ndim - 2, a.shape[0]
    out = np.zeros(b.shape, dtype=complex)
    if boxA is None or boxB is None:
        return out, None
    shift, wide, kept = _kept_window(boxA, boxB, w, b.shape)
    if any(k.stop <= k.start for k in kept):
        return out, None
    upper = _upper(a)
    box = tuple(slice(k.start + d, k.stop + d) for k, d in zip(kept, shift))
    into = box + (slice(a.shape[-2] // 2, None),)
    if all(p.stop - p.start == 1 for p in boxA):  # one block A(l0): b's window, shifted by l0
        np.matmul(upper[boxA], b[boxB][kept], out=out[into])
        return mirror_rows(out, box=box), box
    axes = tuple(range(nu))
    # overlap-discard: a cyclic length L >= wide - k0 and >= k1 folds every
    # alias of the linear product onto a discarded index, and L >= both box
    # widths holds each box in its buffer
    s = tuple(_fft_length(max(p.stop - p.start, q.stop - q.start, n - k.start, k.stop))
              for p, q, n, k in zip(boxA, boxB, wide, kept))

    def spectrum(x, box, buf):
        buf.fill(0.0)
        buf[tuple(slice(0, sl.stop - sl.start) for sl in box)] = x[box]
        return np.fft.fftn(buf, axes=axes, out=buf)

    bufs = _workspace(_fft_length(3 * (w // 2) + 1) ** nu, a.shape[-1], threading.get_ident())
    FA, FB, P = (buf[:int(np.prod(s + shape))].reshape(s + shape) for buf, shape in
                 zip(bufs, (upper.shape[nu:], b.shape[nu:], upper.shape[nu:-1] + b.shape[-1:])))
    # Up to m = 33 OpenBLAS runs each GEMM of the batch on the calling
    # thread, so no helper threads compete with the process pool of
    # solver.cantor_measure.
    np.matmul(spectrum(upper, boxA, FA), spectrum(b, boxB, FB), out=P)
    full = np.fft.ifftn(P, axes=axes, out=P)
    out[into] = full[kept]
    return mirror_rows(out, box=box), box


def _scalar_convolution(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """The linear convolution of two nonnegative arrays over the same axes,
    as direct sums of nonnegative terms (each accurate to a few eps relative):
    one matrix product per index of fa's leading axes, with fa's last axis
    shifted along fb's."""
    a, b = fa.shape[-1], fb.shape[-1]
    shifted = np.zeros(fa.shape[:-1] + (b, a + b - 1))
    for q in range(b):
        shifted[..., q, q:q + a] = fa
    out = np.zeros(tuple(p + q - 1 for p, q in zip(fa.shape, fb.shape)))
    for i in np.ndindex(*fa.shape[:-1]):
        out[tuple(slice(j, j + n) for j, n in zip(i, fb.shape[:-1]))] += fb @ shifted[i]
    return out


def _dropped_bound(a: np.ndarray, b: np.ndarray, boxA, boxB) -> float:
    """An upper bound on the l2 norm, over the offsets outside the doubled
    rectangle, of the product of two full block tables nonzero only in the
    offsets ``boxA`` and ``boxB`` (their ``_full`` boxes; None: zero): by
    |XY|_F <= |X|_F |Y|_F its block there has
    |C(l)|_F <= sum_{l'} |a(l')|_F |b(l - l')|_F, a scalar convolution over
    the boxes, which is exactly 0 when the boxes' sum fits."""
    if boxA is None or boxB is None:
        return 0.0
    _, wide, kept = _kept_window(boxA, boxB, a.shape[0], b.shape)
    if all(k.start == 0 and k.stop == n for k, n in zip(kept, wide)):
        return 0.0
    # |x(l)|_F by einsum over the real and imaginary views: no temporary
    # the size of a table
    sq = "...ij,...ij->..."
    fa, fb = (np.sqrt(np.einsum(sq, x.real, x.real) + np.einsum(sq, x.imag, x.imag))
              for x in (a[boxA], b[boxB]))
    spill = _scalar_convolution(fa, fb)
    spill[kept] = 0.0
    # a sum, not np.linalg.norm: BLAS dot products start helper threads
    return float(np.sqrt(np.sum(spill * spill)))


def apply(A: ToplitzOperator, u: FourierField) -> FourierField:
    """(Au)_{l1,j1} = sum_{l2,j2} A^{j2}_{j1}(l1-l2) u_{l2,j2}, clipped to the rectangle."""
    if A.trunc != u.trunc:
        raise ValueError("truncation mismatch between operator and field")
    b = u.c[..., None]
    out, _ = _convolve(A.blocks, b, A.box, _support_box(u.c.any(axis=-1)))
    return FourierField(A.trunc, out[..., 0])


def compose(A: ToplitzOperator, B: ToplitzOperator) -> ToplitzOperator:
    """(AB)(l) = sum_{l'} A(l') B(l - l'), offsets clipped at |l| <= 2 n_phi.

    The product's box is the clipped Minkowski sum of A's box and B's full
    box.  A Frobenius bound on the l2 norm of the product beyond the doubled
    rectangle (``_dropped_bound``) is added to the operands' dropped_mass.
    With a zero operand the product is zero, on that operand's table.
    """
    if A.trunc != B.trunc:
        raise ValueError("truncation mismatch")
    if A.box is None or B.box is None:
        zero = A if A.box is None else B
        return ToplitzOperator(A.trunc, zero.blocks, A.dropped_mass + B.dropped_mass, None)
    w = A.blocks.shape[0]
    fullB = _full(B.box, w)
    dropped = _dropped_bound(A.blocks, B.blocks, _full(A.box, w), fullB)
    blocks, box = _convolve(A.blocks, B.blocks, A.box, fullB)
    return ToplitzOperator(A.trunc, blocks, dropped + A.dropped_mass + B.dropped_mass, box)


def scale_modes(A: ToplitzOperator, rows=None, cols=None) -> ToplitzOperator:
    """diag(rows) A diag(cols) for multipliers given by their ``symbol``: the
    composition with ``from_multiplier`` on either side, as a row/column scaling."""
    def scaled(blocks, _):
        if rows is not None:
            blocks = np.asarray(rows)[:, None] * blocks
        if cols is not None:
            blocks = blocks * np.asarray(cols)[None, :]
        return blocks
    return _on_box(A, scaled, A.dropped_mass)


def add(A: ToplitzOperator, B: ToplitzOperator) -> ToplitzOperator:
    """A + B on the hull of their boxes; with a zero operand, the other's table."""
    if A.trunc != B.trunc:
        raise ValueError("truncation mismatch")
    dropped = A.dropped_mass + B.dropped_mass
    if A.box is None or B.box is None:
        kept = A if B.box is None else B
        return ToplitzOperator(A.trunc, kept.blocks, dropped, kept.box)
    w = A.blocks.shape[0]
    fullA, fullB = _full(A.box, w), _full(B.box, w)
    blocks = np.zeros(A.blocks.shape, dtype=complex)
    blocks[fullA] = A.blocks[fullA]
    blocks[fullB] += B.blocks[fullB]
    return ToplitzOperator(A.trunc, blocks, dropped, _hull(A.box, B.box))


def commutator(A: ToplitzOperator, freq, d) -> ToplitzOperator:
    """[omega.d_phi + diag d, A]: each entry A^k_j(l) picks up i omega.l + d_j - d_k."""
    dots = freq.omega_dot_l(A.trunc, double=True)
    return _on_box(A, lambda blocks, full: (1j * dots[full][..., None, None]
                                            + (d[:, None] - d[None, :])) * blocks,
                   A.dropped_mass)


def quotient(A: ToplitzOperator, divisor: np.ndarray, keep: np.ndarray) -> ToplitzOperator:
    """The operator whose blocks are A / divisor where ``keep`` and zero
    elsewhere, for a divisor and mask given on the centered offsets
    |l_i| <= N (their leading axes, 2 N + 1 wide, N <= 2 n_phi): divided on
    A's full box cut to |l_i| <= N only, and that cut is its box."""
    w, c = A.blocks.shape[0], divisor.shape[0]
    cut = (slice((w - c) // 2, (w + c) // 2),) * A.trunc.nu
    box = _meet(A.box, cut)
    blocks = np.zeros(A.blocks.shape, dtype=complex)
    if box is not None:
        full = _full(box, w)
        at = tuple(slice(s.start - k.start, s.stop - k.start) for s, k in zip(full, cut))
        np.divide(A.blocks[full], divisor[at], out=blocks[full], where=keep[at])
    return ToplitzOperator(A.trunc, blocks, box=box)


# ---------------------------------------------------------------------------
# norms and smoothing


def _profile(blocks: np.ndarray) -> np.ndarray:
    """sup over diagonals: P[l..., d] = sup_{j1-j2=d} |A^{j2}_{j1}(l)| on a
    table of real blocks whose offsets are symmetric about their center, from
    the rows j1 >= 0: its entries at (l, d) with j1 < 0 are those at (-l, -d)
    with j1 > 0."""
    upper = _upper(blocks)
    lead, (h1, m) = upper.shape[:-2], upper.shape[-2:]
    # with the columns reversed and placed from column n_x = h1 - 1 on in rows
    # of 2m zeros, the flat buffer read in rows of 2m - 1 shifts row j1 >= 0
    # right by j1, so the entries with j1 - j2 = d line up in column d + m - 1
    buf = np.zeros(lead + (h1, 2 * m))
    np.abs(upper[..., ::-1], out=buf[..., h1 - 1:h1 - 1 + m])
    skew = buf.reshape(lead + (2 * m * h1,))[..., : h1 * (2 * m - 1)]
    half = skew.reshape(lead + (h1, 2 * m - 1)).max(axis=-2)
    return np.maximum(half, np.flip(half))


def decay_norm(A: ToplitzOperator, s: float, *more: float):
    """|A|_s^2 = sum_{l,d} <l,d>^{2s} sup_{j1-j2=d} |A^{j2}_{j1}(l)|^2; given
    further exponents, the tuple of the norms at s and at each of them, from
    one offset profile on A's full box (0 for a zero A)."""
    full = _full(A.box, A.blocks.shape[0])
    if full is None:
        norms = (0.0,) * (1 + len(more))
    else:
        trunc = A.trunc
        w = index_weights(trunc.nu, 2 * trunc.n_phi, 2 * trunc.n_x, 1.0)[full]
        profile2 = _profile(A.blocks[full]) ** 2
        norms = tuple(float(np.sqrt(np.sum(w ** (2.0 * x) * profile2))) for x in (s,) + more)
    return norms if more else norms[0]


# ---------------------------------------------------------------------------
# inversion and exponential


def neumann_inverse(Psi: ToplitzOperator) -> ToplitzOperator:
    """Inverse of I + Psi by the geometric series, requiring |Psi|_{s0} < 1/2."""
    s0 = Psi.trunc.s0
    norm0 = decay_norm(Psi, s0)
    if norm0 >= 0.5:
        raise SeriesRefused(f"Neumann contraction fails: |Psi|_s0 = {norm0:.3f} >= 1/2")
    negPsi = Psi.scale(-1.0)
    out = identity(Psi.trunc)
    # the series starts at the first power, so nothing is composed with I,
    # and the first term's norm is norm0
    for k in range(NEUMANN_MAX_TERMS):
        term = negPsi if k == 0 else compose(term, negPsi)
        out = add(out, term)
        if (norm0 if k == 0 else decay_norm(term, s0)) < NEUMANN_TOL:
            break
    else:
        raise SeriesCapError("Neumann series did not converge within the term cap")
    return out


def near_identity(Psi: ToplitzOperator, mode: str) -> tuple[ToplitzOperator, ToplitzOperator]:
    """(Phi, Phi^{-1}): I + Psi and its Neumann inverse, or in hamiltonian mode exp(+-Psi) by
    scaling and squaring.  The series of -Psi has the terms of Psi times (-1)^n, exactly, so
    one series of powers of Psi 2^-k serves both: only the two sums and the squarings are apart."""
    if mode != "hamiltonian":
        return add(identity(Psi.trunc), Psi), neumann_inverse(Psi)
    s0 = Psi.trunc.s0
    norm0 = decay_norm(Psi, s0)
    if norm0 > 1.0:
        raise SeriesRefused(f"|Psi|_s0 = {norm0:.3f} > 1; refuse to exponentiate")
    k = 0
    while norm0 / (2**k) > 0.25:
        k += 1
    scaled = Psi.scale(0.5**k)
    pos = neg = identity(Psi.trunc)
    fact = 1.0
    # a power-of-two scaling is exact, so |scaled|_s0 is norm0 2^-k
    for n in range(1, 30):
        term = scaled if n == 1 else compose(term, scaled)
        fact /= n
        pos, neg = add(pos, term.scale(fact)), add(neg, term.scale(-fact if n % 2 else fact))
        if (norm0 * 0.5**k if n == 1 else decay_norm(term, s0)) * fact < EXP_TERM_TOL:
            break
    for _ in range(k):
        pos, neg = compose(pos, pos), compose(neg, neg)
    return pos, neg


def conjugate(Phi: ToplitzOperator, Phi_inv: ToplitzOperator, freq, d, V: ToplitzOperator,
              r=None, commutes: bool = False) -> ToplitzOperator:
    """Phi^{-1}(omega.d_phi + diag d + V)Phi - (omega.d_phi + diag(d + r)) for
    symbols d, r (None: r = 0), as
    Phi^{-1}([omega.d_phi + diag d, Phi] + V Phi - Phi diag r): apart from r,
    d gives exact zeros on the identity part of Phi.  ``commutes`` states that
    Phi commutes with omega.d_phi + diag d (Phi = I, from a zero generator):
    the commutator is then the zero operator and is not formed."""
    q = compose(V, Phi)
    if not commutes:
        q = add(commutator(Phi, freq, d), q)
    if r is not None:
        q = add(q, scale_modes(Phi, cols=-r))
    return compose(Phi_inv, q)


# ---------------------------------------------------------------------------
# dense materialization (oracle support)


def flatten_field(u: FourierField) -> np.ndarray:
    return u.c.reshape(-1)


def materialize_matrix(op: ToplitzOperator, freq: Frequency | None = None) -> np.ndarray:
    """Dense matrix over the flattened (l, j) index (row-major over trunc.shape),
    plus omega.d_phi on the diagonal if a frequency is given."""
    trunc = op.trunc
    dim = int(np.prod(trunc.shape))
    if dim > MATERIALIZE_CAP:
        raise ValueError(f"flattened dimension {dim} exceeds cap {MATERIALIZE_CAP}")
    multi = np.array(list(np.ndindex(*trunc.shape)))  # (dim, nu + 1) raw indices
    gather = [multi[:, ax][:, None] - multi[:, ax][None, :] + 2 * trunc.n_phi
              for ax in range(trunc.nu)]
    gather.append(np.broadcast_to(multi[:, -1][:, None], (dim, dim)))
    gather.append(np.broadcast_to(multi[:, -1][None, :], (dim, dim)))
    M = op.blocks[tuple(gather)]
    if freq is not None:
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
    return materialize_matrix(T, freq)

