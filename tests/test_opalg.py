import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from qpkdv import opalg as op
from qpkdv.spectral import (
    FourierField,
    Frequency,
    Truncation,
    analyze,
    index_weights,
    multiply,
    random_real_field,
    sobolev_norm,
    synthesize,
)

T = Truncation(nu=1, n_phi=4, n_x=4)
RNG = np.random.default_rng(21)


def block(A, l):
    """The block of A at the time offset l (offsets are centered at 2 n_phi)."""
    return A.blocks[tuple(li + 2 * A.trunc.n_phi for li in l)]


def smooth(A, N):
    """Keep only the blocks with time offset |l|_inf <= N."""
    if N < 0:
        raise ValueError("N must be >= 0")
    blocks = A.blocks.copy()
    blocks[index_weights(A.trunc.nu, 2 * A.trunc.n_phi) > N] = 0.0
    return op.ToplitzOperator(A.trunc, blocks, A.dropped_mass)


def real(blocks):
    """The table of a real operator nearest ``blocks``: conj(A^j_k(l)) =
    A^{-j}_{-k}(-l), which is the operator algebra's contract."""
    return 0.5 * (blocks + np.conj(np.flip(blocks)))


def random_toeplitz(trunc, rng, scale=1.0, decay=2.0):
    """Random real block-Toeplitz operator with coefficient decay."""
    blocks = np.zeros(op._block_shape(trunc), dtype=complex)
    m = 2 * trunc.n_x + 1
    for off in np.ndindex(*blocks.shape[: trunc.nu]):
        l = tuple(o - 2 * trunc.n_phi for o in off)
        w = max(1, *(abs(li) for li in l))
        blk = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        jw = np.maximum.outer(np.abs(np.arange(-trunc.n_x, trunc.n_x + 1)),
                              np.abs(np.arange(-trunc.n_x, trunc.n_x + 1)))
        dw = np.maximum(w, np.abs(np.subtract.outer(np.arange(m), np.arange(m))))
        blocks[off] = scale * blk * dw ** (-decay)
    return op.ToplitzOperator(trunc, real(blocks))


# ------------------------------------------------------- multiplication ops


def test_identity_from_constant():
    one = FourierField.constant(T, 1.0)
    A = op.from_multiplication(one)
    u = random_real_field(T, RNG)
    assert np.max(np.abs(op.apply(A, u).c - u.c)) < 1e-14


def test_decay_norm_equals_sobolev_norm():
    for seed in range(5):
        p = random_real_field(T, np.random.default_rng(seed))
        A = op.from_multiplication(p)
        for s in [0.0, 1.5, 3.0]:
            assert abs(op.decay_norm(A, s) - sobolev_norm(p, s)) < 1e-12 * max(
                1.0, sobolev_norm(p, s)
            )


def test_apply_multiplication_matches_grid_product():
    p = random_real_field(T, RNG, decay=3.0)
    h = random_real_field(T, RNG, decay=3.0)
    direct = multiply(p, h)
    via_op = op.apply(op.from_multiplication(p), h)
    # operator apply clips products that leave the rectangle; compare on the
    # interior where the grid product is exactly the convolution
    assert np.max(np.abs(via_op.c - _full_convolution(p, h))) < 1e-12


def _full_convolution(p, h):
    """Dense convolution oracle restricted to the stored rectangle."""
    t = p.trunc
    out = np.zeros(t.shape, dtype=complex)
    for i1 in np.ndindex(*t.shape):
        acc = 0.0
        for i2 in np.ndindex(*t.shape):
            off = tuple(a - b + n for a, b, n in zip(i1, i2, (t.n_phi,) * t.nu + (t.n_x,)))
            if all(0 <= o < s for o, s in zip(off, t.shape)):
                acc += p.c[off] * h.c[i2]
        out[i1] = acc
    return out


def test_multiplier_reproduces_dx():
    A = op.from_multiplier(T, lambda j: (1j * j) ** 3)
    u = random_real_field(T, RNG)
    from qpkdv.spectral import dx_pow

    assert np.max(np.abs(op.apply(A, u).c - dx_pow(u, 3).c)) < 1e-13
    # decay norm of a multiplier is sup_j |m(j)| at every s
    assert abs(op.decay_norm(A, 2.5) - T.n_x**3) < 1e-12


# ------------------------------------------------------- apply / compose


def test_apply_matches_dense_oracle():
    A = random_toeplitz(T, RNG)
    u = random_real_field(T, RNG)
    M = op.materialize_matrix(A)
    direct = M @ op.flatten_field(u)
    assert np.max(np.abs(direct - op.flatten_field(op.apply(A, u)))) < 1e-13


def test_compose_identity():
    A = random_toeplitz(T, RNG)
    I = op.identity(T)
    assert np.max(np.abs(op.compose(I, A).blocks - A.blocks)) < 1e-14
    assert np.max(np.abs(op.compose(A, I).blocks - A.blocks)) < 1e-14


def test_compose_of_multiplications_is_product():
    from test_spectral import embed_field

    rng = np.random.default_rng(3)
    small = Truncation(1, 4, 4)
    half = Truncation(1, 2, 2)
    # half-band symbols: their product is exactly representable and the
    # intermediate spatial index in the composition never leaves the band
    p = embed_field(random_real_field(half, rng, decay=2.0), small)
    q = embed_field(random_real_field(half, rng, decay=2.0), small)
    pq = multiply(p, q)
    C = op.compose(op.from_multiplication(p), op.from_multiplication(q))
    D = op.from_multiplication(pq)
    m = 2 * small.n_x + 1
    inner = slice(2, m - 2)  # |j| <= n_x - 2 rows and columns
    for l in range(-small.n_phi, small.n_phi + 1):
        diff = block(C, (l,))[inner, inner] - block(D, (l,))[inner, inner]
        assert np.max(np.abs(diff)) < 1e-12


def test_compose_matches_dense_product_on_interior():
    # band-limit in l so the intermediate frequency index of the dense
    # product never leaves the stored rectangle at the central block
    A = smooth(random_toeplitz(T, RNG, decay=3.0), T.n_phi)
    B = smooth(random_toeplitz(T, RNG, decay=3.0), T.n_phi)
    C = op.compose(A, B)
    MA, MB = op.materialize_matrix(A), op.materialize_matrix(B)
    MC = op.materialize_matrix(C)
    prod = MA @ MB
    m = 2 * T.n_x + 1
    # rows/cols with l = 0 (central phi index)
    c0 = T.n_phi * m
    center = slice(c0, c0 + m)
    assert np.max(np.abs(prod[center, center] - MC[center, center])) < 1e-12


def _compose_direct(A, B):
    """Reference kernel: the unclipped product table |l_i| <= 4 n_phi summed
    by one einsum per nonzero block of A; returns its |l_i| <= 2 n_phi window
    and the l2 norm of the rest (the dropped mass)."""
    trunc = A.trunc
    nu, w = trunc.nu, 4 * trunc.n_phi + 1
    m = 2 * trunc.n_x + 1
    full = np.zeros((2 * w - 1,) * nu + (m, m), dtype=complex)
    for offA in np.ndindex(*(w,) * nu):
        blkA = A.blocks[offA]
        if blkA.any():
            # offsets add: index offA + offB of the table holds l_A + l_B
            full[tuple(slice(o, o + w) for o in offA)] += np.einsum(
                "ab,...bc->...ac", blkA, B.blocks)
    window = (slice(2 * trunc.n_phi, 2 * trunc.n_phi + w),) * nu
    kept = full[window].copy()
    full[window] = 0.0
    return kept, float(np.sqrt(np.sum(np.abs(full) ** 2)))


def _offset_support(blocks, nu):
    return blocks.reshape(blocks.shape[:nu] + (-1,)).any(axis=-1)


def _sparse_toeplitz(trunc, rng, band):
    """Random real operator with all-zero offsets, banded blocks and
    scattered zero entries, so that its products have structural zeros."""
    shape = op._block_shape(trunc)
    blocks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    blocks[rng.random(shape[: trunc.nu]) < 0.6] = 0.0
    blocks[rng.random(shape) < 0.2] = 0.0
    m = 2 * trunc.n_x + 1
    off = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    blocks[..., off > band] = 0.0
    return op.ToplitzOperator(trunc, real(blocks))


def _box(support):
    """The bounding box of the True entries of ``support``, as a boolean table."""
    box = np.zeros_like(support)
    if support.any():
        hit = np.argwhere(support)
        box[tuple(slice(lo, hi + 1) for lo, hi in zip(hit.min(0), hit.max(0)))] = True
    return box


def _box_sum(A, B):
    """The Minkowski sum of the support boxes of A and B over the unclipped
    offsets |l_i| <= 4 n_phi, and the index of the kept window |l_i| <= 2 n_phi."""
    trunc = A.trunc
    nu, w = trunc.nu, 4 * trunc.n_phi + 1
    reach = np.zeros((2 * w - 1,) * nu, dtype=bool)
    for offA in np.argwhere(_box(_offset_support(A.blocks, nu))):
        reach[tuple(slice(o, o + w) for o in offA)] |= _box(_offset_support(B.blocks, nu))
    return reach, (slice(2 * trunc.n_phi, 2 * trunc.n_phi + w),) * nu


def _reach(A, B):
    """The kept offsets in the Minkowski sum of the support boxes of A and B."""
    reach, window = _box_sum(A, B)
    return reach[window]


def _check_against_direct(A, B):
    C = op.compose(A, B)
    ref, dropped = _compose_direct(A, B)
    assert np.max(np.abs(C.blocks - ref)) <= 1e-13 * np.max(np.abs(ref))
    # FFT rounding fills every entry inside the Minkowski sum of the operands'
    # support boxes, so sparsity is compared per offset: the offsets of
    # nonzero products keep a nonzero block, and those outside that sum are
    # exact zeros.  An offset inside it that no pair of nonzero blocks
    # reaches, or whose block products cancel, keeps rounding (checked above).
    nu = A.trunc.nu
    support = _offset_support(ref, nu)
    got = _offset_support(C.blocks, nu)
    assert not (support & ~got).any()
    assert not (got & ~_reach(A, B)).any()
    # dropped_mass is a Frobenius bound: at least the direct kernel's exact
    # dropped mass, up to rounding, and exactly 0 when the support boxes'
    # sum fits the kept window
    assert dropped <= C.dropped_mass * (1.0 + 1e-12)
    reach, window = _box_sum(A, B)
    if reach.sum() == reach[window].sum():
        assert C.dropped_mass == 0.0
    return support, dropped


@pytest.mark.parametrize("trunc", [Truncation(1, 8, 8), Truncation(2, 4, 4), Truncation(3, 2, 2)])
def test_compose_matches_direct_kernel(trunc):
    rng = np.random.default_rng(11)
    A = _sparse_toeplitz(trunc, rng, band=2)
    B = _sparse_toeplitz(trunc, rng, band=3)
    support, dropped = _check_against_direct(A, B)
    assert support.any()
    assert dropped > 0
    # operands with only the center block nonzero, with no nonzero block, with
    # dense blocks on a box of offsets touching the edges (its own width per
    # axis at nu >= 2) and its mirror, and a full table against rows j >= 0
    # on a single corner |l_i| = 2 n_phi, whose kept window is one end of the
    # product when it is the left operand
    M = op.from_multiplier(trunc, lambda j: 0.0 if j == 0 else 1.0 / (1.0 + j * j))
    Z = op.ToplitzOperator(trunc, np.zeros(op._block_shape(trunc), dtype=complex))
    w = 4 * trunc.n_phi + 1
    X = _box_toeplitz(trunc, rng, (slice(0, 3), slice(w - 5, w))[: trunc.nu])
    D = random_toeplitz(trunc, rng)
    E, F = (_box_toeplitz(trunc, rng, (slice(c, c + 1),) * trunc.nu, upper=True)
            for c in (0, w - 1))
    for P, Q in [(A, M), (M, A), (M, M), (A, Z), (Z, A), (A, X), (X, A), (X, X), (X, M),
                 (D, E), (E, D), (D, F), (F, D)]:
        _check_against_direct(P, Q)
    # A's empty offsets stay empty in a product with the center block
    support, _ = _check_against_direct(A, M)
    assert support.any() and not support.all()


def _box_toeplitz(trunc, rng, box, upper=False):
    """A random real operator with dense blocks on the offset indices ``box``
    (one slice per axis) and on their mirror -box, zero elsewhere.  With
    ``upper``, the blocks on ``box`` have only their rows j > 0, so the rows
    j >= 0 that compose and apply multiply are nonzero on ``box`` alone."""
    shape = op._block_shape(trunc)
    blocks = np.zeros(shape, dtype=complex)
    sub = blocks[box].shape
    blocks[box] = rng.standard_normal(sub) + 1j * rng.standard_normal(sub)
    if upper:
        blocks[..., : trunc.n_x + 1, :] = 0.0
    return op.ToplitzOperator(trunc, real(blocks))


def _operand(trunc, kind, rng):
    """A real compose operand of the given kind: a random sparse table, dense
    blocks on a random box of offsets (its own width per axis, possibly
    touching the edge) and its mirror, rows j >= 0 on a single offset, no
    nonzero offset, or rows j >= 0 on a single offset on the edge
    |l|_inf = 2 n_phi, whose products mostly leave the kept window."""
    shape = op._block_shape(trunc)
    if kind == "sparse":
        return _sparse_toeplitz(trunc, rng, band=int(rng.integers(0, shape[-1])))
    if kind == "box":
        ends = np.sort(rng.integers(0, shape[0], size=(trunc.nu, 2)), axis=1)
        return _box_toeplitz(trunc, rng, tuple(slice(a, b + 1) for a, b in ends))
    if kind == "zero":
        return op.ToplitzOperator(trunc, np.zeros(shape, dtype=complex))
    off = rng.integers(0, shape[0], size=trunc.nu)
    if kind == "edge":
        off[rng.integers(trunc.nu)] = rng.choice([0, shape[0] - 1])
    return _box_toeplitz(trunc, rng, tuple(slice(o, o + 1) for o in off), upper=True)


KINDS = st.sampled_from(["sparse", "box", "single", "zero", "edge"])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(1, 4), st.integers(1, 4), KINDS, KINDS,
       st.integers(0, 10_000))
# FFT rounding at unreached offsets outside the rectangle, where the direct
# kernel drops exactly 0
@example(1, 1, 1, "sparse", "sparse", 8704)
def test_property_compose_matches_direct_kernel(nu, n_phi, n_x, kind_a, kind_b, seed):
    trunc = Truncation(nu, n_phi, n_x)
    rng = np.random.default_rng(seed)
    _check_against_direct(_operand(trunc, kind_a, rng), _operand(trunc, kind_b, rng))


def _covered(A):
    """Whether A's declared box holds every nonzero block: the rows j >= 0
    inside the box, the rows j < 0 inside its mirror, nothing for None."""
    n_x = A.trunc.n_x
    rows = A.blocks.any(axis=-1)
    upper, lower = rows[..., n_x:].any(axis=-1), rows[..., :n_x].any(axis=-1)
    inside = np.zeros(upper.shape, dtype=bool)
    if A.box is not None:
        inside[A.box] = True
    return not ((upper & ~inside).any() or (lower & ~np.flip(inside)).any())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(1, 4), st.integers(1, 4), KINDS, KINDS,
       st.integers(0, 10_000))
def test_property_every_operation_declares_a_box_that_covers_its_result(
        nu, n_phi, n_x, kind_a, kind_b, seed):
    # the box each operation sets, never a scan of its result, holds every
    # nonzero block; a zero operand has the box None and so has every
    # product with it
    trunc = Truncation(nu, n_phi, n_x)
    rng = np.random.default_rng(seed)
    A, B = _operand(trunc, kind_a, rng), _operand(trunc, kind_b, rng)
    freq = Frequency.default(nu, lam=1.1)
    m = 2 * n_x + 1
    d = 1j * rng.standard_normal(m)
    rows, cols = rng.standard_normal(m), rng.standard_normal(m) + 1j * rng.standard_normal(m)
    # a generator small enough for both series
    small = A.scale(0.2 / max(op.decay_norm(A, trunc.s0), 1.0))
    results = [A, B, op.compose(A, B), op.compose(B, A), op.add(A, B), A - B,
               A.scale(0.5 - 2j), op.scale_modes(A, rows=rows, cols=cols),
               op.commutator(A, freq, d), op.identity(trunc),
               op.from_multiplier(trunc, lambda j: 1j * j),
               op.from_multiplication(random_real_field(trunc, rng)),
               op.from_multiplication(FourierField.zeros(trunc))]
    for mode in ("generic", "hamiltonian"):
        Phi, Phi_inv = op.near_identity(small, mode)
        results += [Phi, Phi_inv, op.conjugate(Phi, Phi_inv, freq, d, B, d)]
    for C in results:
        assert _covered(C)
    assert (A.box is None) == (not A.blocks.any())  # a raw table is scanned
    assert op.from_multiplication(FourierField.zeros(trunc)).box is None
    if A.box is None:
        for C in results[2:4] + results[6:9]:
            assert C.box is None and not C.blocks.any()
        assert op.add(A, B).box == B.box


def test_compose_of_blocks_whose_products_cancel():
    # A is e1 e1^T on l = -2, -1 and its mirror e-1 e-1^T on l = 1, 2; B is
    # e0 e0^T on l = +-3 and a full block on l = 0.  The pairs reaching
    # l = +-4 and +-5 multiply e+-1 e+-1^T by e0 e0^T, exactly zero, so the
    # direct kernel leaves those offsets empty where the FFT leaves rounding,
    # as it does at the unreached l = 0 and +-3; offsets outside the boxes'
    # sum -5..5 stay exact zeros
    trunc = Truncation(1, 4, 1)
    rng = np.random.default_rng(0)
    blocks = np.zeros((2,) + op._block_shape(trunc), dtype=complex)
    blocks[0, 6, 2, 2], blocks[0, 7, 2, 2], blocks[1, 11, 1, 1] = 1.3 + 0.7j, -0.4 + 2j, 0.9 - 1.1j
    blocks[1, 8] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A, B = (op.ToplitzOperator(trunc, real(b)) for b in blocks)
    support, _ = _check_against_direct(A, B)
    assert np.array_equal(np.flatnonzero(support), [6, 7, 9, 10])
    assert np.array_equal(np.flatnonzero(_reach(A, B)), np.arange(3, 14))


def _spy_transforms(monkeypatch):
    """The list that each complex transform appends its name and the shape
    it transforms to, the lengths of its axes and then the block shape; a
    real transform fails."""
    lengths = []

    def spy(name):
        transform = getattr(np.fft, name)

        def run(a, *args, axes=None, **kwargs):
            lengths.append((name, tuple(a.shape[ax] for ax in axes),
                            tuple(a.shape[len(axes):])))
            return transform(a, *args, axes=axes, **kwargs)
        return run

    def refuse(*args, **kwargs):
        raise AssertionError("a real transform ran")

    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, spy(name))
    for name in ("rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    return lengths


def test_compose_transforms_only_the_support_boxes(monkeypatch):
    trunc = Truncation(1, 16, 16)
    rng = np.random.default_rng(13)
    near = (slice(28, 37),)  # |l| <= 4
    A, B = _box_toeplitz(trunc, rng, near), _box_toeplitz(trunc, rng, near)
    lengths = _spy_transforms(monkeypatch)
    _check_against_direct(A, B)
    # boxes 9 offsets wide: 17 product offsets, all kept, padded to 18; the
    # rows j >= 0 of A (17 x 33 blocks) and all of B transformed forward, and
    # the product's rows j >= 0 back
    half, full = (17, 33), (33, 33)
    assert lengths == [("fftn", (18,), half), ("fftn", (18,), full), ("ifftn", (18,), half)]
    # two full tables: 129 product offsets, of which the 65 from 32 on are
    # kept, so the aliases need a length >= 97 (padded to 100); a square
    # transforms the half and the whole
    D = random_toeplitz(trunc, rng)
    lengths.clear()
    op.compose(D, D)
    assert lengths == [("fftn", (100,), half), ("fftn", (100,), full), ("ifftn", (100,), half)]
    # at nu = 2, n_phi = 4: 33 product offsets per axis, 17 kept from 8 on
    D = random_toeplitz(Truncation(2, 4, 4), rng)
    lengths.clear()
    _check_against_direct(D, D)
    assert lengths == [("fftn", (25, 25), (5, 9)), ("fftn", (25, 25), (9, 9)),
                       ("ifftn", (25, 25), (5, 9))]
    # a zero operand (or field) transforms nothing and gives exact zeros with
    # the box None, and so do the operations on it
    A = op.ToplitzOperator(trunc, A.blocks, dropped_mass=0.25)
    Z = op.ToplitzOperator(trunc, np.zeros(op._block_shape(trunc), dtype=complex), 0.5)
    assert Z.box is None
    lengths.clear()
    for C in (op.compose(A, Z), op.compose(Z, A)):
        assert not C.blocks.any() and C.box is None
        assert C.dropped_mass == 0.75
    u = random_real_field(trunc, rng)
    assert not op.apply(Z, u).c.any() and not op.apply(A, FourierField.zeros(trunc)).c.any()
    for C in (op.neumann_inverse(Z), *op.near_identity(Z, "hamiltonian")):
        assert np.array_equal(C.blocks, op.identity(trunc).blocks)
    assert op.decay_norm(Z, trunc.s0, 2.0) == (0.0, 0.0)
    assert lengths == []


def test_one_block_operand_runs_no_transform(monkeypatch):
    # a left operand whose rows j >= 0 have one nonzero offset l0 is one
    # batched matmul of those rows of A(l0) against the right operand's kept
    # window, shifted by l0, and their mirror: the identity returns its real
    # operand bit for bit, and nothing is transformed
    trunc = Truncation(2, 3, 3)
    rng = np.random.default_rng(21)
    u, D = random_real_field(trunc, rng), random_toeplitz(trunc, rng)
    I = op.identity(trunc)
    lengths = _spy_transforms(monkeypatch)
    assert np.array_equal(op.apply(I, u).c, u.c)
    C = op.compose(I, D)
    assert np.array_equal(C.blocks, D.blocks) and C.dropped_mass == 0.0
    # rows j >= 0 on an off-centre block, against the offset-loop and
    # direct-kernel oracles
    w = 4 * trunc.n_phi + 1
    E = _box_toeplitz(trunc, rng, (slice(w - 3, w - 2), slice(1, 2)), upper=True)
    got, ref = op.apply(E, u).c, _apply_by_offsets(E, u)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    _check_against_direct(E, D)
    assert lengths == []


def test_non_real_operands_give_the_mirror_of_their_rows_j_ge_0():
    # compose and apply multiply only the rows j >= 0 of the left operand: on
    # tables that are not real, the rows j >= 0 of the result are the exact
    # product of A's rows j >= 0 with B (or u), and the rows j < 0 their mirror
    trunc = Truncation(2, 3, 3)
    rng = np.random.default_rng(23)
    shape, h = op._block_shape(trunc), trunc.n_x
    A, B = (op.ToplitzOperator(trunc, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for _ in range(2))
    u = FourierField(trunc, rng.standard_normal(trunc.shape) + 1j * rng.standard_normal(trunc.shape))
    assert min(reality_defect(A), reality_defect(B)) > 1.0
    C, (ref, _) = op.compose(A, B).blocks, _compose_direct(A, B)
    v, want = op.apply(A, u).c[..., None], _apply_by_offsets(A, u)[..., None]
    for got, ref in [(C, ref), (v, want)]:
        assert np.max(np.abs(got[..., h:, :] - ref[..., h:, :])) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(got[..., :h, :], np.conj(np.flip(got[..., h + 1:, :])))
        assert np.max(np.abs(got[..., :h, :] - ref[..., :h, :])) > 1.0


def _dropped_bound_by_all_norms(A, B):
    """Reference: the Frobenius bound of ``_dropped_bound`` from the norms of
    every block of both tables, with the boxes of their nonzero norms."""
    sq = "...ij,...ij->..."
    fa, fb = (np.sqrt(np.einsum(sq, x.real, x.real) + np.einsum(sq, x.imag, x.imag))
              for x in (A.blocks, B.blocks))
    if not (fa.any() and fb.any()):
        return 0.0
    boxA, boxB = op._support_box(fa > 0), op._support_box(fb > 0)
    _, wide, kept = op._kept_window(boxA, boxB, A.blocks.shape[0], B.blocks.shape)
    spill = op._scalar_convolution(fa[boxA], fb[boxB])
    spill[kept] = 0.0
    return float(np.sqrt(np.sum(spill * spill)))


def test_dropped_bound_reads_the_boxes_before_any_norm(monkeypatch):
    # the bound takes norms only inside the support boxes, and none when the
    # boxes' sum fits the rectangle; it equals the bound from every block's
    # norm bit for bit
    rng = np.random.default_rng(24)
    for trunc in [Truncation(1, 16, 16), Truncation(2, 4, 4)]:
        w = 4 * trunc.n_phi + 1
        wide = (slice(0, w // 3),) * trunc.nu  # and its mirror
        for A, B in [(random_toeplitz(trunc, rng), _sparse_toeplitz(trunc, rng, band=2)),
                     (_box_toeplitz(trunc, rng, wide), random_toeplitz(trunc, rng)),
                     (_operand(trunc, "edge", rng), _box_toeplitz(trunc, rng, wide))]:
            C = op.compose(A, B)
            assert C.dropped_mass > 0
            assert C.dropped_mass == _dropped_bound_by_all_norms(A, B)

    def refuse(*args, **kwargs):
        raise AssertionError("a norm was taken")

    trunc = Truncation(1, 16, 16)
    near = _box_toeplitz(trunc, rng, (slice(28, 37),))
    monkeypatch.setattr(np, "einsum", refuse)
    for A, B in [(near, near), (op.identity(trunc), random_toeplitz(trunc, rng))]:
        assert op.compose(A, B).dropped_mass == 0.0


def test_compose_allocates_no_padded_spectrum():
    trunc = Truncation(1, 16, 16)
    rng = np.random.default_rng(14)
    boxes = [(slice(28, 37),), (slice(24, 41),), (slice(16, 49),), (slice(0, 65),),
             (slice(40, 65),)]
    pairs = [(_box_toeplitz(trunc, rng, a), _box_toeplitz(trunc, rng, b))
             for a, b in zip(boxes, boxes[1:] + boxes[:1])]
    for A, B in pairs:
        op.compose(A, B)  # the workspace is made here
    # the output table, and less than one padded spectrum of two full tables
    # (100 offsets)
    table = A.blocks.nbytes
    spectrum = 100 * 33 * 33 * 16
    tracemalloc.start()
    try:
        for A, B in pairs:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            C = op.compose(A, B)
            assert tracemalloc.get_traced_memory()[1] - base < table + spectrum
            del C
    finally:
        tracemalloc.stop()


def test_series_first_term_norms_are_exact_scalings():
    # neumann_inverse and near_identity's exponential reuse |Psi|_s0 for
    # their first term, -Psi and Psi 2^-k, which is bitwise right
    for trunc in [T, Truncation(2, 3, 3)]:
        Psi = random_toeplitz(trunc, np.random.default_rng(15), scale=0.3)
        norm0 = op.decay_norm(Psi, trunc.s0)
        assert op.decay_norm(Psi.scale(-1.0), trunc.s0) == norm0
        for k in range(6):
            assert op.decay_norm(Psi.scale(0.5**k), trunc.s0) == norm0 * 0.5**k


def test_scale_carries_dropped_mass():
    rng = np.random.default_rng(16)
    A = random_toeplitz(T, rng)
    C = op.compose(A, A)
    assert C.dropped_mass > 0
    for a in (-1.0, 0.5, 2j, 0.0):
        assert C.scale(a).dropped_mass == abs(a) * C.dropped_mass
    B = op.ToplitzOperator(T, A.blocks, dropped_mass=0.25)
    assert (C - B).dropped_mass == C.dropped_mass + 0.25
    assert op.neumann_inverse(B.scale(0.01)).dropped_mass > 0


def test_compose_is_bit_identical_across_calls():
    trunc = Truncation(2, 3, 3)
    rng = np.random.default_rng(8)
    A, B = random_toeplitz(trunc, rng), random_toeplitz(trunc, rng)
    C1, C2 = op.compose(A, B), op.compose(A, B)
    assert np.array_equal(C1.blocks, C2.blocks)
    assert C1.dropped_mass == C2.dropped_mass


# ------------------------------------------------------- compose workspace

WORKSPACE_TRUNCS = [Truncation(1, 16, 16), Truncation(2, 4, 4)]


def _workspace_of(trunc):
    """The buffers the last compose at ``trunc`` used (a cache hit, not new ones)."""
    cells = op._fft_length(6 * trunc.n_phi + 1) ** trunc.nu
    misses = op._workspace.cache_info().misses
    bufs = op._workspace(cells, 2 * trunc.n_x + 1, threading.get_ident())
    assert op._workspace.cache_info().misses == misses
    return bufs


def _workspace_operands(trunc, seed):
    rng = np.random.default_rng(seed)
    return random_toeplitz(trunc, rng), _sparse_toeplitz(trunc, rng, band=2)


@pytest.mark.parametrize("trunc", WORKSPACE_TRUNCS)
def test_compose_result_does_not_share_the_workspace(trunc):
    A, B = _workspace_operands(trunc, 3)
    C = op.compose(A, B)
    assert not any(np.shares_memory(C.blocks, buf) for buf in _workspace_of(trunc))


def test_compose_result_survives_later_calls():
    A, B = _workspace_operands(WORKSPACE_TRUNCS[0], 4)
    C = op.compose(A, B)
    kept, dropped = C.blocks.copy(), C.dropped_mass
    op.compose(B, A)
    op.compose(A, A)
    op.compose(*_workspace_operands(WORKSPACE_TRUNCS[1], 4))
    assert np.array_equal(C.blocks, kept)
    assert C.dropped_mass == dropped


def test_compose_is_bit_identical_across_interleaved_truncations():
    pairs = {}
    for trunc in WORKSPACE_TRUNCS:
        D, S = _workspace_operands(trunc, 5)
        pairs[trunc] = [(D, S), (S, D), (S, S), (D, D)]
    ref = {}
    for trunc, ops in pairs.items():
        for k, (A, B) in enumerate(ops):
            op._workspace.cache_clear()
            ref[trunc, k] = op.compose(A, B)
    # each truncation replaces the other's workspace, and within one
    # truncation dense and sparse operands reuse the same buffers
    for trunc in WORKSPACE_TRUNCS + WORKSPACE_TRUNCS[:1]:
        for k, (A, B) in enumerate(pairs[trunc]):
            C = op.compose(A, B)
            assert np.array_equal(C.blocks, ref[trunc, k].blocks)
            assert C.dropped_mass == ref[trunc, k].dropped_mass


def test_compose_is_bit_identical_across_threads():
    pairs = [_workspace_operands(trunc, 7) for trunc in WORKSPACE_TRUNCS]
    fields = [random_real_field(trunc, np.random.default_rng(7)) for trunc in WORKSPACE_TRUNCS]
    ref = [op.compose(A, B) for A, B in pairs]
    # apply convolves in the same workspace
    applied = [op.apply(A, u) for (A, _), u in zip(pairs, fields)]
    bad = []

    def run(k):
        for _ in range(5):
            C = op.compose(*pairs[k % 2])
            v = op.apply(pairs[k % 2][0], fields[k % 2])
            if not (np.array_equal(C.blocks, ref[k % 2].blocks)
                    and np.array_equal(v.c, applied[k % 2].c)):
                bad.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad


def test_compose_of_an_operator_with_itself():
    A, _ = _workspace_operands(Truncation(2, 3, 3), 6)
    C, D = op.compose(A, A), op.compose(A, A.scale(1.0))
    assert np.array_equal(C.blocks, D.blocks)
    assert C.dropped_mass == D.dropped_mass


# ------------------------------------------------------- apply


def _apply_by_offsets(A, u):
    """Reference kernel: one block product per nonzero offset of A, each
    shifted onto the part of the rectangle it reaches."""
    trunc = A.trunc
    W = 2 * trunc.n_phi + 1
    out = np.zeros(trunc.shape, dtype=complex)
    for off in np.argwhere(_offset_support(A.blocks, trunc.nu)):
        # output index l1 = l2 + l must stay within |l1_i| <= n_phi
        l = off - 2 * trunc.n_phi
        src = tuple(slice(max(0, -li), min(W, W - li)) for li in l)
        dst = tuple(slice(sl.start + li, sl.stop + li) for sl, li in zip(src, l))
        out[dst] += u.c[src] @ A.blocks[tuple(off)].T
    return out


def _apply_reach(A, u):
    """The field offsets in the Minkowski sum of the support boxes of A's
    blocks and u's rows."""
    trunc = A.trunc
    nu, W = trunc.nu, 2 * trunc.n_phi + 1
    reach = np.zeros((W + 4 * trunc.n_phi,) * nu, dtype=bool)
    rows = _box(u.c.reshape((W,) * nu + (-1,)).any(axis=-1))
    for off in np.argwhere(_box(_offset_support(A.blocks, nu))):
        reach[tuple(slice(o, o + W) for o in off)] |= rows
    return reach[(slice(2 * trunc.n_phi, 2 * trunc.n_phi + W),) * nu]


def _apply_operator(trunc, kind, rng):
    w = 4 * trunc.n_phi + 1
    if kind == "random":
        return random_toeplitz(trunc, rng)
    if kind == "banded":
        return _sparse_toeplitz(trunc, rng, band=1)
    if kind == "edge box":
        # rows j >= 0 on a box touching the edges: against the field at l = 0
        # every product leaves the rectangle, which stays exact zeros
        return _box_toeplitz(trunc, rng, (slice(0, 3), slice(w - 5, w), slice(1, w))[: trunc.nu],
                             upper=True)
    if kind == "identity":
        return op.identity(trunc)
    return _operand(trunc, kind, rng)  # "single" or "zero"


def _apply_field(trunc, kind, rng):
    if kind == "random":
        return random_real_field(trunc, rng)
    c = np.zeros(trunc.shape, dtype=complex)
    m = c.shape[-1]
    if kind == "few l":
        for idx in rng.integers(0, 2 * trunc.n_phi + 1, size=(3, trunc.nu)):
            c[tuple(idx)] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    if kind == "l = 0":
        # against a full operator the product keeps only its middle half,
        # so the transform length is set by the operator's box, not the window
        c[(trunc.n_phi,) * trunc.nu] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return FourierField(trunc, real(c))


@pytest.mark.parametrize("field_kind", ["random", "few l", "l = 0", "zero"])
@pytest.mark.parametrize("kind", ["random", "banded", "edge box", "single", "identity", "zero"])
@pytest.mark.parametrize("trunc", [Truncation(1, 4, 4), Truncation(2, 3, 3), Truncation(3, 2, 2)])
def test_apply_matches_offset_loop(trunc, kind, field_kind):
    rng = np.random.default_rng(17)
    A, u = _apply_operator(trunc, kind, rng), _apply_field(trunc, field_kind, rng)
    got, ref = op.apply(A, u).c, _apply_by_offsets(A, u)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    # the offsets of nonzero products stay nonzero, and those outside the
    # Minkowski sum of the boxes of A's blocks and u's rows are exact zeros
    nu = trunc.nu
    support, reached = (x.reshape(x.shape[:nu] + (-1,)).any(axis=-1) for x in (ref, got))
    assert not (support & ~reached).any()
    assert not (reached & ~_apply_reach(A, u)).any()


def test_apply_reuses_the_workspace_and_allocates_no_padded_spectrum(monkeypatch):
    trunc = Truncation(1, 16, 16)
    rng = np.random.default_rng(18)
    A, u = random_toeplitz(trunc, rng), random_real_field(trunc, rng)
    op.compose(A, A)  # the workspace is made here
    ref = op.apply(A, u)

    def refuse(*args):
        raise AssertionError("apply composed")

    # apply is not a composition: the benchmark counts compose calls
    monkeypatch.setattr(op, "compose", refuse)
    # the output and two temporaries the size of the product's padded rows
    # (72 offsets, bounded by 100): a padded spectrum of the operator
    # (1.3 MB) breaks it
    bound = u.c.nbytes + 2 * 100 * 33 * 16
    info = op._workspace.cache_info()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        v = op.apply(A, u)
        assert tracemalloc.get_traced_memory()[1] - base < bound
    finally:
        tracemalloc.stop()
    after = op._workspace.cache_info()
    assert (after.hits, after.misses) == (info.hits + 1, info.misses)
    assert np.array_equal(v.c, ref.c)
    assert not any(np.shares_memory(v.c, buf) for buf in _workspace_of(trunc))


def test_apply_is_bit_identical_across_calls():
    trunc = Truncation(2, 3, 3)
    rng = np.random.default_rng(19)
    A, B = random_toeplitz(trunc, rng), _sparse_toeplitz(trunc, rng, band=2)
    u = random_real_field(trunc, rng)
    first = op.apply(A, u)
    op.compose(B, A)
    op.apply(B, u)
    assert np.array_equal(op.apply(A, u).c, first.c)


@pytest.mark.parametrize("m_func", [
    lambda j: 1j * j,  # d_x
    lambda j: (1j * j) ** 3,  # d_xxx
    op.pi0_symbol,
    op.dx_inv_symbol,
], ids=["dx1", "dx3", "pi0", "dx_inv"])
@pytest.mark.parametrize("trunc", [Truncation(1, 4, 4), Truncation(2, 2, 3)])
def test_scale_modes_is_multiplier_composition(trunc, m_func):
    A = random_toeplitz(trunc, np.random.default_rng(5))
    A = op.ToplitzOperator(trunc, A.blocks, dropped_mass=0.25)
    M = op.from_multiplier(trunc, m_func)
    sym = op.symbol(trunc, m_func)
    left, _ = _compose_direct(M, A)
    right, _ = _compose_direct(A, M)
    both, _ = _compose_direct(M, op.ToplitzOperator(trunc, right))
    for got, ref in [(op.scale_modes(A, rows=sym), left),
                     (op.scale_modes(A, cols=sym), right),
                     (op.scale_modes(A, rows=sym, cols=sym), both)]:
        assert np.max(np.abs(got.blocks - ref)) <= 1e-15 * np.max(np.abs(ref))
        assert got.dropped_mass == A.dropped_mass


def test_linearity_of_apply():
    A = random_toeplitz(T, RNG)
    u = random_real_field(T, RNG)
    v = random_real_field(T, RNG)
    lhs = op.apply(A, FourierField(T, 2.0 * u.c + 3.0 * v.c))
    rhs = 2.0 * op.apply(A, u) + 3.0 * op.apply(A, v)
    assert np.max(np.abs(lhs.c - rhs.c)) < 1e-12


# ------------------------------------------------------- norms / smoothing


def _profile_of_every_row(A):
    """Reference: P[l..., d] = sup_{j1-j2=d} |A^{j2}_{j1}(l)| over every row j1."""
    m = A.blocks.shape[-1]
    P = np.zeros(A.blocks.shape[:-2] + (2 * m - 1,))
    for j1, j2 in np.ndindex(m, m):
        P[..., j1 - j2 + m - 1] = np.maximum(P[..., j1 - j2 + m - 1], np.abs(A.blocks[..., j1, j2]))
    return P


@pytest.mark.parametrize("trunc", [T, Truncation(2, 3, 3), Truncation(3, 2, 2)])
def test_offset_profile_of_real_operators_reads_the_rows_j_ge_0(trunc):
    # the profile is built from the rows j >= 0 and mirrored over the offsets
    # and the diagonals: on a real table it is the profile of every row,
    # exactly, on the full box, and that of every row is zero outside it
    rng = np.random.default_rng(25)
    w = 4 * trunc.n_phi + 1
    for A in [random_toeplitz(trunc, rng), _sparse_toeplitz(trunc, rng, band=1),
              _box_toeplitz(trunc, rng, (slice(0, 2),) * trunc.nu, upper=True),
              _box_toeplitz(trunc, rng, (slice(w - 3, w),) * trunc.nu),
              op.identity(trunc), op.from_multiplication(random_real_field(trunc, rng))]:
        assert reality_defect(A) == 0.0
        full, ref = op._full(A.box, w), _profile_of_every_row(A)
        assert np.array_equal(op._profile(A.blocks[full]), ref[full])
        ref[full] = 0.0
        assert not ref.any()


def test_decay_norm_identity():
    I = op.identity(T)
    for s in [0.0, 1.0, 4.0]:
        assert abs(op.decay_norm(I, s) - 1.0) < 1e-14


def test_decay_norm_monotone_in_s():
    A = random_toeplitz(T, RNG)
    assert op.decay_norm(A, 1.0) <= op.decay_norm(A, 2.0) + 1e-12


def test_diagonal_entries_bounded_by_norm():
    A = random_toeplitz(T, RNG)
    n0 = op.decay_norm(A, 0.0)
    blk = block(A, (0,))
    assert np.max(np.abs(np.diag(blk))) <= n0 + 1e-12


def test_smoothing_projector():
    A = random_toeplitz(T, RNG)
    assert np.max(np.abs(smooth(A, 2 * T.n_phi).blocks - A.blocks)) == 0.0
    A0 = smooth(A, 0)
    for l in range(-2 * T.n_phi, 2 * T.n_phi + 1):
        if l != 0:
            assert not block(A0, (l,)).any()


def test_smoothing_tail_inequality():
    for seed in range(5):
        A = random_toeplitz(T, np.random.default_rng(seed))
        for N in [1, 2, 3]:
            for beta in [1.0, 2.0]:
                tail = A - smooth(A, N)
                lhs = op.decay_norm(tail, 1.0)
                rhs = N ** (-beta) * op.decay_norm(tail, 1.0 + beta)
                assert lhs <= rhs + 1e-12


# ------------------------------------------------------- inverse / exponential


def test_neumann_identity():
    Z = op.ToplitzOperator(T, np.zeros(op._block_shape(T), dtype=complex))
    inv = op.neumann_inverse(Z)
    assert np.max(np.abs(inv.blocks - op.identity(T).blocks)) < 1e-15


def test_neumann_inverse_residual():
    psi_field = FourierField.from_modes(T, {(0, 1): 0.05})  # 0.1 cos x
    Psi = op.from_multiplication(psi_field)
    inv = op.neumann_inverse(Psi)
    Phi = op.add(op.identity(T), Psi)
    comp = op.compose(Phi, inv)
    res = op.add(comp, op.identity(T).scale(-1.0))
    assert op.decay_norm(res, T.s0) < 1e-10


def test_neumann_against_dense_solve():
    tr = Truncation(1, 6, 6)
    rng = np.random.default_rng(4)
    # band-limit in l: offsets beyond n_phi fall outside the dense rectangle
    # and would make the two inverses differ at second order
    Psi = smooth(random_toeplitz(tr, rng, scale=0.02, decay=3.0), tr.n_phi)
    inv = op.neumann_inverse(Psi)
    Mphi = op.materialize_matrix(op.add(op.identity(tr), Psi))
    Minv_dense = np.linalg.inv(Mphi)
    Minv = op.materialize_matrix(inv)
    m = 2 * tr.n_x + 1
    c0 = tr.n_phi * m
    center = slice(c0, c0 + m)
    # boundary clipping makes the two inverses differ near the edge of the
    # rectangle; the dense solve oracle is compared on the central block
    assert np.max(np.abs(Minv[center, center] - Minv_dense[center, center])) < 1e-9


def test_contraction_guard():
    big = FourierField.from_modes(T, {(0, 1): 0.5})
    with pytest.raises(ValueError):
        op.neumann_inverse(op.from_multiplication(big))


def matrix_exponential(Psi):
    """exp(Psi) by scaling and squaring of its own series: the oracle of
    near_identity, which sums the series of Psi and -Psi from one set of powers."""
    s0 = Psi.trunc.s0
    norm0 = op.decay_norm(Psi, s0)
    k = 0
    while norm0 / (2**k) > 0.25:
        k += 1
    scaled = Psi.scale(0.5**k)
    out = op.identity(Psi.trunc)
    fact = 1.0
    for n in range(1, 30):
        term = scaled if n == 1 else op.compose(term, scaled)
        fact /= n
        out = op.add(out, term.scale(fact))
        if (norm0 * 0.5**k if n == 1 else op.decay_norm(term, s0)) * fact < op.EXP_TERM_TOL:
            break
    for _ in range(k):
        out = op.compose(out, out)
    return out


def exp_pair(Psi):
    return op.near_identity(Psi, "hamiltonian")


def test_exponential_of_zero():
    Z = op.ToplitzOperator(T, np.zeros(op._block_shape(T), dtype=complex))
    for E in exp_pair(Z):
        assert np.max(np.abs(E.blocks - op.identity(T).blocks)) < 1e-15


def test_exponential_small_series():
    Psi = random_toeplitz(T, RNG, scale=1e-4 / 60.0, decay=2.0)
    E = exp_pair(Psi)[0]
    approx = op.add(op.add(op.identity(T), Psi), op.compose(Psi, Psi).scale(0.5))
    diff = op.add(E, approx.scale(-1.0))
    n = op.decay_norm(Psi, T.s0)
    assert op.decay_norm(diff, T.s0) < 10.0 * n**3 + 1e-15


def test_exponential_inverse():
    Psi = op.from_multiplication(random_real_field(T, RNG, decay=6.0, scale=0.002))
    E, Einv = exp_pair(Psi)
    res = op.add(op.compose(E, Einv), op.identity(T).scale(-1.0))
    assert op.decay_norm(res, T.s0) < 1e-11


def test_exponential_matches_dense_expm_centrally():
    tr = Truncation(1, 3, 3)
    Psi = op.from_multiplication(
        random_real_field(tr, np.random.default_rng(9), decay=4.0, scale=0.005)
    )
    E = exp_pair(Psi)[0]
    Md = expm(op.materialize_matrix(Psi))
    Me = op.materialize_matrix(E)
    m = 2 * tr.n_x + 1
    c0 = tr.n_phi * m
    center = slice(c0, c0 + m)
    assert np.max(np.abs(Md[center, center] - Me[center, center])) < 1e-10


# ------------------------------------------------------- conjugation


@pytest.mark.parametrize("mode", ["generic", "hamiltonian"])
def test_conjugate_matches_dense_on_interior_blocks(mode):
    # Phi^{-1}(L Phi - Phi (omega.d_phi + diag(d + r))) for L = omega.d_phi +
    # diag d + V, with Psi and V on offsets |l| <= 1: the dense product of the
    # truncated matrices agrees with the operator algebra where no sum
    # reaches past the rectangle, on the rows and columns with |l| <= n_phi - 3
    trunc = Truncation(1, 6, 3)
    rng = np.random.default_rng(5)
    freq = Frequency.default(1, lam=1.1)
    Psi = smooth(random_toeplitz(trunc, rng, scale=0.02), 1)
    V = smooth(random_toeplitz(trunc, rng, scale=0.05), 1)
    j = trunc.mode_range(1)
    d = -1j * j.astype(float) ** 3
    r = real(1j * 0.01 * rng.standard_normal(len(j)))
    Phi, Phi_inv = op.near_identity(Psi, mode)
    got = op.materialize_matrix(op.conjugate(Phi, Phi_inv, freq, d, V, r))

    def with_omega(A):
        return op.materialize_matrix(A, freq)

    P, P_inv = op.materialize_matrix(Phi), op.materialize_matrix(Phi_inv)
    L = with_omega(op.add(op.from_multiplier(trunc, lambda k: d[k + 3]), V))
    D = with_omega(op.from_multiplier(trunc, lambda k: d[k + 3] + r[k + 3]))
    want = P_inv @ (L @ P - P @ D)
    inner = np.repeat(np.abs(np.arange(-6, 7)) <= 3, 7)
    block = np.ix_(inner, inner)
    assert np.max(np.abs(want[block])) > 1e-3
    assert np.max(np.abs(got[block] - want[block])) < 1e-13


def test_conjugate_by_the_identity_leaves_r_to_its_own_rounding():
    # d and r enter apart, so conjugating by I leaves -diag r with the
    # rounding of r; rows(d) I - I cols(d + r) would leave that of |d| = 64
    rng = np.random.default_rng(8)
    d = -1j * T.mode_range(1).astype(float) ** 3
    r = real(1e-3j * rng.standard_normal(len(d)))
    I = op.identity(T)
    R = op.conjugate(I, I, Frequency.default(1, lam=1.1), d, I.scale(0.0), r)
    want = op.from_multiplier(T, lambda k: -r[k + T.n_x])
    assert np.max(np.abs(R.blocks - want.blocks)) < 1e-15 * np.max(np.abs(r))


def test_conjugate_by_a_commuting_identity_forms_no_commutator():
    # [omega.d_phi + diag d, I] is exact zeros on the l = 0 block, so leaving
    # it out changes no entry; with V = 0 the box of the result is then empty
    rng = np.random.default_rng(9)
    freq = Frequency.default(1, lam=1.1)
    d = -1j * T.mode_range(1).astype(float) ** 3
    I, V = op.identity(T), smooth(random_toeplitz(T, rng, scale=0.05), 1)
    got = op.conjugate(I, I, freq, d, V, commutes=True)
    assert np.array_equal(got.blocks, op.conjugate(I, I, freq, d, V).blocks)
    zero = op.from_multiplication(FourierField.zeros(T))
    assert op.conjugate(I, I, freq, d, zero, commutes=True).box is None
    assert op.conjugate(I, I, freq, d, zero).box == (slice(2 * T.n_phi, 2 * T.n_phi + 1),)


def test_near_identity_picks_the_pair_by_mode():
    Psi = random_toeplitz(T, RNG, scale=0.01)
    Phi, Phi_inv = op.near_identity(Psi, "generic")
    assert np.array_equal(Phi.blocks, (op.identity(T) + Psi).blocks)
    assert np.array_equal(Phi_inv.blocks, op.neumann_inverse(Psi).blocks)
    E, E_inv = op.near_identity(Psi, "hamiltonian")
    assert np.array_equal(E.blocks, matrix_exponential(Psi).blocks)
    assert np.array_equal(E_inv.blocks, matrix_exponential(Psi.scale(-1.0)).blocks)


@pytest.mark.parametrize("norm, squarings", [(0.18, 0), (0.82, 2)])
def test_exponential_pair_shares_one_series(monkeypatch, norm, squarings):
    # exp(Psi) and exp(-Psi) equal their single-sign series bit for bit; the
    # powers of Psi 2^-k are composed once, and only the squarings twice
    Psi = random_toeplitz(T, np.random.default_rng(17))
    Psi = Psi.scale(norm / op.decay_norm(Psi, T.s0))
    calls = []
    monkeypatch.setattr(op, "compose", lambda *a, _f=op.compose: calls.append(1) or _f(*a))
    want = matrix_exponential(Psi)
    single = len(calls)
    want_inv = matrix_exponential(Psi.scale(-1.0))
    del calls[:]
    E, E_inv = op.near_identity(Psi, "hamiltonian")
    assert len(calls) == single + squarings
    assert np.array_equal(E.blocks, want.blocks) and np.array_equal(E_inv.blocks, want_inv.blocks)
    assert (E.dropped_mass, E_inv.dropped_mass) == (want.dropped_mass, want_inv.dropped_mass)


# ------------------------------------------------------- structure closure


def reality_defect(A):
    """sup |conj(A^j_k(l)) - A^{-j}_{-k}(-l)| (zero for real operators)."""
    return float(np.max(np.abs(np.conj(A.blocks) - np.flip(A.blocks))))


def test_reality_closed_under_algebra():
    A = random_toeplitz(T, RNG, scale=0.01)
    B = random_toeplitz(T, RNG, scale=0.01)
    assert reality_defect(A) < 1e-13
    assert reality_defect(op.compose(A, B)) < 1e-12
    assert reality_defect(op.neumann_inverse(A)) < 1e-12
    assert all(reality_defect(E) < 1e-12 for E in exp_pair(A))


def reversibility_defect(A):
    """sup |A^{-j}_{-k}(-l) - A^j_k(l)|; zero for operators preserving parity classes."""
    return float(np.max(np.abs(np.flip(A.blocks) - A.blocks)))


def test_reversibility_preserving_closed():
    # R^{-j}_{-k}(-l) = R^j_k(l) characterizes operators preserving parity
    A = random_toeplitz(T, RNG, scale=0.01)
    sym = op.ToplitzOperator(T, 0.5 * (A.blocks + np.flip(A.blocks)))
    B = op.compose(sym, sym)
    assert reversibility_defect(B) < 1e-12
    assert reversibility_defect(op.neumann_inverse(sym)) < 1e-12


# ------------------------------------------------------- materialization


def test_materialize_identity():
    I = op.identity(T)
    M = op.materialize_matrix(I)
    assert np.max(np.abs(M - np.eye(M.shape[0]))) < 1e-15


def test_materialize_small_multiplication():
    tr = Truncation(1, 1, 1)
    p = FourierField.from_modes(tr, {(0, 1): 0.5})  # cos x
    A = op.from_multiplication(p)
    # at fixed l the 3x3 spatial block has 1/2 on the j-offdiagonals
    blk = block(A, (0,))
    expected = np.array([[0, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0]])
    assert np.max(np.abs(blk - expected)) < 1e-15


def test_airy_spectrum_is_exact():
    freq = Frequency.default(1, lam=1.1)
    tr = Truncation(1, 3, 3)
    A = op.from_multiplier(tr, lambda j: (1j * j) ** 3)
    M = op.materialize_matrix(A, freq)
    eigs = np.sort_complex(np.linalg.eigvals(M))
    expected = []
    for l in range(-3, 4):
        for j in range(-3, 4):
            expected.append(1j * (freq.omega[0] * l - j**3))
    expected = np.sort_complex(np.array(expected))
    assert np.max(np.abs(eigs - expected)) < 1e-10


def operator_to_json(A):
    """{trunc, blocks: [[l..., re-block, im-block]...]} for nonzero offsets."""
    trunc = A.trunc
    entries = []
    for off in np.argwhere(_offset_support(A.blocks, trunc.nu)):
        blk = A.blocks[tuple(off)]
        entries.append([[int(o) - 2 * trunc.n_phi for o in off], blk.real.tolist(), blk.imag.tolist()])
    return {
        "nu": trunc.nu,
        "n_phi": trunc.n_phi,
        "n_x": trunc.n_x,
        "blocks": entries,
    }


def test_operator_json_dump():
    A = op.from_multiplication(FourierField.from_modes(T, {(1, 1): 0.3}))
    d = operator_to_json(A)
    assert d["n_phi"] == T.n_phi
    assert len(d["blocks"]) == 2  # offsets l = 1 and l = -1
