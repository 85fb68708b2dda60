import numpy as np
import pytest

from corecov import matops
from corecov.errors import ConfigError, DefinitenessError
from corecov.kcd import SeparableCovariance, SquareRootKind

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


def test_mat_inverts_vec_on_stacks(rng):
    stack = rng.standard_normal((7, 3, 2))
    rows = matops.vec(stack)
    assert rows.shape == (7, 6)
    back = matops.mat(rows, 3, 2)
    assert back.shape == (7, 3, 2) and np.array_equal(back, stack)
    assert np.array_equal(back[4], matops.mat(rows[4], 3, 2))
    for bad in (np.zeros((7, 5)), np.zeros((6, 7)), np.float64(1.0)):
        with pytest.raises(ConfigError, match="expected length-6 vectors"):
            matops.mat(bad, 3, 2)


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


def test_kron_bytes_match_numpy(rng):
    # the broadcast product forms each entry b[i, j] * a[k, l] once, as
    # np.kron does: same bytes, signed zeros, infinities and nan included,
    # and the same shape and layout
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0])
    for k in range(400):
        shapes = [tuple(rng.integers(1, 6, size=2)) for _ in range(2)]
        b, a = (rng.standard_normal(s) for s in shapes)
        if k % 2:
            b, a = (np.where(rng.random(m.shape) < 0.4, rng.choice(specials, m.shape), m)
                    for m in (b, a))
        with np.errstate(invalid="ignore"):  # inf * 0
            expected, got = np.kron(b, a), matops.kron(b, a)
        assert got.shape == expected.shape and got.strides == expected.strides
        assert got.tobytes() == expected.tobytes()


def tr1(m, dims):
    """The partial trace tr_1: the weighted one at the identity."""
    return matops.weighted_partial_trace_1(m, np.eye(dims.p2), dims)


def tr2(m, dims):
    """The partial trace tr_2: the weighted one at the identity."""
    return matops.weighted_partial_trace_2(m, np.eye(dims.p1), dims)


def test_partial_traces_identity():
    dims = matops.Dims(3, 2)
    np.testing.assert_allclose(tr1(np.eye(6), dims), 2 * np.eye(3))
    np.testing.assert_allclose(tr2(np.eye(6), dims), 3 * np.eye(2))


def test_partial_traces_kron(rng):
    dims = matops.Dims(2, 2)
    a = rand_spd(2, rng)
    b = rand_spd(2, rng)
    m = matops.kron(b, a)
    np.testing.assert_allclose(tr1(m, dims), np.trace(b) * a)
    np.testing.assert_allclose(tr2(m, dims), np.trace(a) * b)
    # brute-force block sums over the p1 x p1 blocks M_[i,j], sliced directly
    p1 = dims.p1
    blocks = [[m[i * p1 : (i + 1) * p1, j * p1 : (j + 1) * p1] for j in range(2)]
              for i in range(2)]
    np.testing.assert_allclose(tr1(m, dims), blocks[0][0] + blocks[1][1])
    t2 = np.array([[np.trace(blocks[i][j]) for j in range(2)] for i in range(2)])
    np.testing.assert_allclose(tr2(m, dims), t2)


def test_trace_consistency(rng):
    for p1, p2 in [(2, 3), (3, 2), (4, 3)]:
        dims = matops.Dims(p1, p2)
        m = rand_sym(dims.p, rng)
        t = np.trace(m)
        assert abs(np.trace(tr1(m, dims)) - t) <= 1e-12 * abs(t)
        assert abs(np.trace(tr2(m, dims)) - t) <= 1e-12 * abs(t)


def test_weighted_partial_traces_reduce(rng):
    # at the identity: the sum of the diagonal blocks, the traces of all blocks
    dims = matops.Dims(3, 2)
    m = rand_sym(6, rng)
    blocks = [[m[3 * i : 3 * i + 3, 3 * j : 3 * j + 3] for j in range(2)]
              for i in range(2)]
    np.testing.assert_allclose(
        matops.weighted_partial_trace_1(m, np.eye(2), dims),
        blocks[0][0] + blocks[1][1],
    )
    np.testing.assert_allclose(
        matops.weighted_partial_trace_2(m, np.eye(3), dims),
        [[np.trace(blocks[i][j]) for j in range(2)] for i in range(2)],
    )


def test_sym_skew_half(rng):
    a = rng.standard_normal((4, 4))
    np.testing.assert_allclose(matops.sym(a) + matops.skew(a), a)
    np.testing.assert_allclose(matops.half(2 * np.eye(3)), np.eye(3))
    s = rand_sym(3, rng)
    np.testing.assert_allclose(matops.half(s) + matops.half(s).T, s)
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


def sqrt(s):
    """The symmetric square root, the first of spd_half_powers."""
    return matops.spd_half_powers(s)[0]


def test_sqrt_and_chol(rng):
    np.testing.assert_allclose(sqrt(np.eye(4)), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(matops.chol(np.eye(4)), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(sqrt(4 * np.eye(2)), 2 * np.eye(2))
    s = rand_spd(5, rng)
    l = matops.chol(s)
    assert np.abs(l @ l.T - s).max() <= 1e-10 * np.abs(s).max()
    r = sqrt(s)
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
    # the symmetric root of each Kronecker factor is the first half power,
    # and the inverse root alone comes from one eigh too: the same bits
    factors = SeparableCovariance(k1=s, k2=s).sqrt_factors(SquareRootKind.SYMMETRIC)
    assert all(np.array_equal(h, root) for h in factors)
    assert np.array_equal(matops.spd_inv_sqrt(s), inv_root)
    assert calls == ["eigh"] * 4


def test_definiteness_errors(rng):
    bad = np.diag([1.0, -0.5])
    with pytest.raises(DefinitenessError):
        sqrt(bad)
    with pytest.raises(DefinitenessError):
        matops.chol(bad)
    with pytest.raises(ValueError):
        matops.half(rng.standard_normal((2, 3)))


def test_nan_eigenvalue_is_not_positive():
    # eigh returns a NaN eigenvalue here, which fails every comparison
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    for f in (matops.spd_eigh, matops.spd_half_powers, matops.spd_inv_sqrt):
        with pytest.raises(DefinitenessError, match="not positive definite"):
            f(bad)


def test_partial_trace_checks_the_size():
    with pytest.raises(ValueError, match="expected size 6, got 5"):
        matops.weighted_partial_trace_1(np.eye(5), np.eye(2), matops.Dims(3, 2))


def test_check_tangent(rng):
    # sym(M) with the bits of matops.sym, behind a shape and a finiteness check
    m = rng.standard_normal((4, 4))
    assert matops.check_tangent(m, 4).tobytes() == matops.sym(m).tobytes()
    for bad, size, message in (
        (np.eye(3), 4, "expected size 4, got 3"),
        (np.ones((4, 3)), 4, "non-empty square"),
        (np.where(np.eye(4, dtype=bool), np.nan, m), 4, "non-finite"),
        (np.where(np.eye(4, dtype=bool), -np.inf, m), 4, "non-finite"),
    ):
        with pytest.raises(ConfigError, match=message):
            matops.check_tangent(bad, size)
