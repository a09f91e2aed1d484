import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from qpkdv import opalg as op
from qpkdv.spectral import (
    FourierField,
    Frequency,
    Truncation,
    analyze,
    multiply,
    random_real_field,
    sobolev_norm,
    synthesize,
)

T = Truncation(nu=1, n_phi=4, n_x=4)
RNG = np.random.default_rng(21)


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
    A = op.ToplitzOperator(trunc, blocks)
    # symmetrize to a real operator: conj(A^j_k(l)) = A^{-j}_{-k}(-l)
    rev = blocks[tuple(slice(None, None, -1) for _ in blocks.shape)]
    return op.ToplitzOperator(trunc, 0.5 * (blocks + np.conj(rev)))


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
    from qpkdv.spectral import embed_field

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
        diff = C.block((l,))[inner, inner] - D.block((l,))[inner, inner]
        assert np.max(np.abs(diff)) < 1e-12


def test_compose_matches_dense_product_on_interior():
    # band-limit in l so the intermediate frequency index of the dense
    # product never leaves the stored rectangle at the central block
    A = op.smooth(random_toeplitz(T, RNG, decay=3.0), T.n_phi)
    B = op.smooth(random_toeplitz(T, RNG, decay=3.0), T.n_phi)
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
    """Random operator with all-zero offsets, banded blocks and scattered
    zero entries, so that its products have structural zeros."""
    shape = op._block_shape(trunc)
    blocks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    blocks[rng.random(shape[: trunc.nu]) < 0.6] = 0.0
    blocks[rng.random(shape) < 0.2] = 0.0
    m = 2 * trunc.n_x + 1
    off = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    blocks[..., off > band] = 0.0
    return op.ToplitzOperator(trunc, blocks)


def _check_against_direct(A, B):
    C = op.compose(A, B)
    ref, dropped = _compose_direct(A, B)
    assert np.max(np.abs(C.blocks - ref)) <= 1e-13 * np.max(np.abs(ref))
    # FFT rounding fills entries inside a block, so sparsity is compared per
    # offset: exactly the offsets of nonzero products keep a nonzero block
    nu = A.trunc.nu
    support = _offset_support(ref, nu)
    assert np.array_equal(_offset_support(C.blocks, nu), support)
    assert abs(C.dropped_mass - dropped) <= 1e-12 * dropped
    return support, dropped


@pytest.mark.parametrize("trunc", [Truncation(1, 8, 8), Truncation(2, 4, 4)])
def test_compose_matches_direct_kernel(trunc):
    rng = np.random.default_rng(11)
    A = _sparse_toeplitz(trunc, rng, band=2)
    B = _sparse_toeplitz(trunc, rng, band=3)
    support, dropped = _check_against_direct(A, B)
    assert support.any()
    assert dropped > 0
    # operands with only the center block nonzero, and with no nonzero block
    M = op.from_multiplier(trunc, lambda j: 0.0 if j == 0 else 1.0 / (1.0 + j * j))
    Z = op.ToplitzOperator(trunc, np.zeros(op._block_shape(trunc), dtype=complex))
    for X, Y in [(A, M), (M, A), (M, M), (A, Z), (Z, A)]:
        _check_against_direct(X, Y)
    # A's empty offsets stay empty in a product with the center block
    support, _ = _check_against_direct(A, M)
    assert support.any() and not support.all()


def _operand(trunc, kind, rng):
    """A compose operand of the given kind: a random sparse table, a single
    nonzero offset, no nonzero offset, or a single offset on the edge
    |l|_inf = 2 n_phi, whose products mostly leave the kept window."""
    shape = op._block_shape(trunc)
    if kind == "sparse":
        return _sparse_toeplitz(trunc, rng, band=int(rng.integers(0, shape[-1])))
    blocks = np.zeros(shape, dtype=complex)
    if kind != "zero":
        off = rng.integers(0, shape[0], size=trunc.nu)
        if kind == "edge":
            off[rng.integers(trunc.nu)] = rng.choice([0, shape[0] - 1])
        blocks[tuple(off)] = rng.standard_normal(shape[-2:]) + 1j * rng.standard_normal(shape[-2:])
    return op.ToplitzOperator(trunc, blocks)


KINDS = st.sampled_from(["sparse", "single", "zero", "edge"])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(1, 4), st.integers(1, 4), KINDS, KINDS,
       st.integers(0, 10_000))
def test_property_compose_matches_direct_kernel(nu, n_phi, n_x, kind_a, kind_b, seed):
    trunc = Truncation(nu, n_phi, n_x)
    rng = np.random.default_rng(seed)
    _check_against_direct(_operand(trunc, kind_a, rng), _operand(trunc, kind_b, rng))


def test_compose_is_bit_identical_across_calls():
    trunc = Truncation(2, 3, 3)
    rng = np.random.default_rng(8)
    A, B = random_toeplitz(trunc, rng), random_toeplitz(trunc, rng)
    C1, C2 = op.compose(A, B), op.compose(A, B)
    assert np.array_equal(C1.blocks, C2.blocks)
    assert C1.dropped_mass == C2.dropped_mass


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
    blk = A.block((0,))
    assert np.max(np.abs(np.diag(blk))) <= n0 + 1e-12


def test_smoothing_projector():
    A = random_toeplitz(T, RNG)
    assert np.max(np.abs(op.smooth(A, 2 * T.n_phi).blocks - A.blocks)) == 0.0
    A0 = op.smooth(A, 0)
    for l in range(-2 * T.n_phi, 2 * T.n_phi + 1):
        if l != 0:
            assert not A0.block((l,)).any()


def test_smoothing_tail_inequality():
    for seed in range(5):
        A = random_toeplitz(T, np.random.default_rng(seed))
        for N in [1, 2, 3]:
            for beta in [1.0, 2.0]:
                tail = op.smooth_complement(A, N)
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
    Psi = op.smooth(random_toeplitz(tr, rng, scale=0.02, decay=3.0), tr.n_phi)
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


def test_exponential_of_zero():
    Z = op.ToplitzOperator(T, np.zeros(op._block_shape(T), dtype=complex))
    E = op.matrix_exponential(Z)
    assert np.max(np.abs(E.blocks - op.identity(T).blocks)) < 1e-15


def test_exponential_small_series():
    Psi = random_toeplitz(T, RNG, scale=1e-4 / 60.0, decay=2.0)
    E = op.matrix_exponential(Psi)
    approx = op.add(op.add(op.identity(T), Psi), op.compose(Psi, Psi).scale(0.5))
    diff = op.add(E, approx.scale(-1.0))
    n = op.decay_norm(Psi, T.s0)
    assert op.decay_norm(diff, T.s0) < 10.0 * n**3 + 1e-15


def test_exponential_inverse():
    Psi = op.from_multiplication(random_real_field(T, RNG, decay=6.0, scale=0.002))
    E = op.matrix_exponential(Psi)
    Einv = op.matrix_exponential(Psi.scale(-1.0))
    res = op.add(op.compose(E, Einv), op.identity(T).scale(-1.0))
    assert op.decay_norm(res, T.s0) < 1e-11


def test_exponential_matches_dense_expm_centrally():
    tr = Truncation(1, 3, 3)
    Psi = op.from_multiplication(
        random_real_field(tr, np.random.default_rng(9), decay=4.0, scale=0.005)
    )
    E = op.matrix_exponential(Psi)
    Md = expm(op.materialize_matrix(Psi))
    Me = op.materialize_matrix(E)
    m = 2 * tr.n_x + 1
    c0 = tr.n_phi * m
    center = slice(c0, c0 + m)
    assert np.max(np.abs(Md[center, center] - Me[center, center])) < 1e-10


# ------------------------------------------------------- structure closure


def test_reality_closed_under_algebra():
    A = random_toeplitz(T, RNG, scale=0.01)
    B = random_toeplitz(T, RNG, scale=0.01)
    assert A.reality_defect() < 1e-13
    assert op.compose(A, B).reality_defect() < 1e-12
    assert op.neumann_inverse(A).reality_defect() < 1e-12
    assert op.matrix_exponential(A).reality_defect() < 1e-12


def test_reversibility_preserving_closed():
    # R^{-j}_{-k}(-l) = R^j_k(l) characterizes operators preserving parity
    A = random_toeplitz(T, RNG, scale=0.01)
    sym = op.ToplitzOperator(
        T, 0.5 * (A.blocks + A.blocks[tuple(slice(None, None, -1) for _ in A.blocks.shape)])
    )
    B = op.compose(sym, sym)
    assert B.reversibility_defect() < 1e-12
    assert op.neumann_inverse(sym).reversibility_defect() < 1e-12


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
    blk = A.block((0,))
    expected = np.array([[0, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0]])
    assert np.max(np.abs(blk - expected)) < 1e-15


def test_airy_spectrum_is_exact():
    freq = Frequency.default(1, lam=1.1)
    tr = Truncation(1, 3, 3)
    A = op.from_multiplier(tr, lambda j: (1j * j) ** 3)
    M = op.materialize_matrix(A, freq, include_omega_dphi=True)
    eigs = np.sort_complex(np.linalg.eigvals(M))
    expected = []
    for l in range(-3, 4):
        for j in range(-3, 4):
            expected.append(1j * (freq.omega[0] * l - j**3))
    expected = np.sort_complex(np.array(expected))
    assert np.max(np.abs(eigs - expected)) < 1e-10


def test_operator_json_dump():
    A = op.from_multiplication(FourierField.from_modes(T, {(1, 1): 0.3}))
    d = op.operator_to_json(A)
    assert d["n_phi"] == T.n_phi
    assert len(d["blocks"]) == 2  # offsets l = 1 and l = -1
