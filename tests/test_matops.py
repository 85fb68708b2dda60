import numpy as np
import pytest

from corecov import matops
from corecov.errors import DefinitenessError

from conftest import rand_spd, rand_sym


def test_dims_validation():
    d = matops.Dims(3, 2, 4)
    assert d.p == 6
    with pytest.raises(ValueError):
        matops.Dims(1, 3)
    with pytest.raises(ValueError):
        matops.Dims(2, 2, 2)  # r must exceed p1/p2 + p2/p1 = 2
    with pytest.raises(ValueError):
        matops.Dims(2, 2, 5)  # r above p
    assert matops.Dims(2, 2, 3).r == 3


def test_dims_integer_sizes():
    # float sizes used to be truncated: Dims(4.7, 3.2, 3.9) was Dims(4, 3, 3)
    for bad in [(4.7, 3.2, 3.9), (4.0, 3), (4, 3, 3.0)]:
        with pytest.raises(TypeError):
            matops.Dims(*bad)
    d = matops.Dims(np.int64(4), np.int32(3), np.int64(3))
    assert d == matops.Dims(4, 3, 3) and d != matops.Dims(4, 3)
    assert repr(d) == "Dims(p1=4, p2=3, r=3)"
    assert type(d.p1) is int and type(d.r) is int


def test_vec_column_stacking():
    m = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(matops.vec(m), [1.0, 2.0, 3.0, 4.0])


def test_mat_vec_round_trip(rng):
    m = rng.standard_normal((3, 2))
    assert np.array_equal(matops.mat(matops.vec(m), 3, 2), m)
    with pytest.raises(ValueError):
        matops.mat(np.zeros(5), 2, 3)


def test_vec_kron_identity(rng):
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2))
    x = rng.standard_normal((2, 2))
    lhs = matops.vec(b @ x @ a.T)
    rhs = matops.kron(a, b) @ matops.vec(x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_kron_basics(rng):
    assert np.array_equal(matops.kron(np.eye(2), np.eye(3)), np.eye(6))
    a = rng.standard_normal((3, 3))
    np.testing.assert_allclose(matops.kron([[2.0]], a), 2.0 * a)
    b, d = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    c = rng.standard_normal((2, 2))
    np.testing.assert_allclose(
        matops.kron(b, a[:2, :2]) @ matops.kron(d, c),
        matops.kron(b @ d, a[:2, :2] @ c),
        atol=1e-12,
    )


def test_commutation_matrix(rng):
    k22 = matops.commutation_matrix(2, 2)
    np.testing.assert_array_equal(k22 @ np.array([1.0, 2, 3, 4]), [1.0, 3, 2, 4])
    np.testing.assert_array_equal(matops.commutation_matrix(1, 5), np.eye(5))
    b = rng.standard_normal((2, 3))
    np.testing.assert_allclose(
        matops.commutation_matrix(2, 3) @ matops.vec(b.T), matops.vec(b)
    )
    # orthogonality: K_{m,n} K_{n,m} = I
    np.testing.assert_allclose(
        matops.commutation_matrix(2, 3) @ matops.commutation_matrix(3, 2), np.eye(6)
    )
    # permutation structure
    assert (k22.sum(axis=0) == 1).all() and (k22.sum(axis=1) == 1).all()


def test_block_partition_round_trip(rng):
    dims = matops.Dims(3, 2)
    m = rand_sym(6, rng)
    blocks = matops.block_partition(m, dims)
    assert blocks.shape == (2, 2, 3, 3)
    np.testing.assert_array_equal(matops.assemble_blocks(blocks), m)
    # symmetric source: M_[i,j] = M_[j,i]^T
    np.testing.assert_allclose(blocks[0, 1], blocks[1, 0].T)


def test_partial_traces_identity():
    dims = matops.Dims(3, 2)
    np.testing.assert_allclose(matops.partial_trace_1(np.eye(6), dims), 2 * np.eye(3))
    np.testing.assert_allclose(matops.partial_trace_2(np.eye(6), dims), 3 * np.eye(2))


def test_partial_traces_kron(rng):
    dims = matops.Dims(2, 2)
    a = rand_spd(2, rng)
    b = rand_spd(2, rng)
    m = matops.kron(b, a)
    np.testing.assert_allclose(matops.partial_trace_1(m, dims), np.trace(b) * a)
    np.testing.assert_allclose(matops.partial_trace_2(m, dims), np.trace(a) * b)
    # brute-force block sums
    blocks = matops.block_partition(m, dims)
    np.testing.assert_allclose(
        matops.partial_trace_1(m, dims), blocks[0, 0] + blocks[1, 1]
    )
    t2 = np.array([[np.trace(blocks[i, j]) for j in range(2)] for i in range(2)])
    np.testing.assert_allclose(matops.partial_trace_2(m, dims), t2)


def test_trace_consistency(rng):
    for p1, p2 in [(2, 3), (3, 2), (4, 3)]:
        dims = matops.Dims(p1, p2)
        m = rand_sym(dims.p, rng)
        t = np.trace(m)
        assert abs(np.trace(matops.partial_trace_1(m, dims)) - t) <= 1e-12 * abs(t)
        assert abs(np.trace(matops.partial_trace_2(m, dims)) - t) <= 1e-12 * abs(t)


def test_weighted_partial_traces_reduce(rng):
    dims = matops.Dims(3, 2)
    m = rand_sym(6, rng)
    np.testing.assert_allclose(
        matops.weighted_partial_trace_1(m, np.eye(2), dims),
        matops.partial_trace_1(m, dims),
    )
    np.testing.assert_allclose(
        matops.weighted_partial_trace_2(m, np.eye(3), dims),
        matops.partial_trace_2(m, dims),
    )


def test_sym_skew_half_lower(rng):
    a = rng.standard_normal((4, 4))
    np.testing.assert_allclose(matops.sym(a) + matops.skew(a), a)
    np.testing.assert_allclose(matops.half(2 * np.eye(3)), np.eye(3))
    s = rand_sym(3, rng)
    np.testing.assert_allclose(matops.half(s) + matops.half(s).T, s)
    np.testing.assert_array_equal(matops.lower(a), np.tril(a))
    # half is linear with zero strict upper triangle
    b = rng.standard_normal((4, 4))
    np.testing.assert_allclose(
        matops.half(a + 2 * b), matops.half(a) + 2 * matops.half(b)
    )
    assert np.abs(np.triu(matops.half(s), 1)).max() == 0.0


def test_sym_and_diag_part_act_on_stacks(rng):
    stack = rng.standard_normal((5, 4, 4))
    assert np.array_equal(matops.sym(stack), [matops.sym(m) for m in stack])
    assert np.array_equal(matops.diag_part(stack), [np.diag(np.diag(m)) for m in stack])
    assert np.array_equal(matops.diag_part(stack[0]), np.diag(np.diag(stack[0])))


def test_sqrt_and_chol(rng):
    np.testing.assert_allclose(matops.sym_sqrt(np.eye(4)), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(matops.chol(np.eye(4)), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(matops.sym_sqrt(4 * np.eye(2)), 2 * np.eye(2))
    s = rand_spd(5, rng)
    l = matops.chol(s)
    assert np.abs(l @ l.T - s).max() <= 1e-10 * np.abs(s).max()
    r = matops.sym_sqrt(s)
    assert np.abs(r @ r - s).max() <= 1e-10 * np.abs(s).max()
    np.testing.assert_allclose(r, r.T)


def test_half_powers_from_one_eigendecomposition(rng, monkeypatch):
    # the definiteness test reads the eigenvalues of the one eigh
    calls = []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", eigvalsh))
    s = rand_spd(4, rng)
    root, inv_root = matops.spd_half_powers(s)
    assert calls == ["eigh"]
    np.testing.assert_allclose(root @ inv_root, np.eye(4), atol=1e-12)
    # each single power comes from one eigh too, with the same bits
    assert np.array_equal(matops.sym_sqrt(s), root)
    assert np.array_equal(matops.spd_inv_sqrt(s), inv_root)
    assert calls == ["eigh"] * 3


def test_definiteness_errors(rng):
    bad = np.diag([1.0, -0.5])
    with pytest.raises(DefinitenessError):
        matops.sym_sqrt(bad)
    with pytest.raises(DefinitenessError):
        matops.chol(bad)
    with pytest.raises(ValueError):
        matops.half(rng.standard_normal((2, 3)))
