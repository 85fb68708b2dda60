import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from corecov import core_geometry as cg, kcd, matops
from corecov.errors import CapacityError, DefinitenessError, StructureError
from corecov.kcd import SquareRootKind

from conftest import rand_spd, rand_sym

DIMS223 = matops.Dims(2, 2, 3)
DIMS324 = matops.Dims(3, 2, 4)


def rotation_example_tuple(theta=np.pi / 4):
    """The decomposable family (I, Q + [1], Q^T + [1]) at p1 = p2 = r = 3."""
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    a2 = np.zeros((3, 3))
    a2[:2, :2] = q
    a2[2, 2] = 1.0
    a3 = a2.T.copy()
    return np.stack([np.eye(3), a2, a3])


def kron_j_reference(a, dims):
    """J(A) assembled as its formula reads, from np.kron blocks and a row
    gather for K_{q,q}."""
    t, avec, p = cg.slices(a, dims), a.reshape(-1, order="F"), dims.p
    rows = []
    for q, c, blocks in (
        (dims.p1, 2.0 / (dims.p1**2 * dims.p2),
         [np.kron(ti, np.eye(dims.p1)) for ti in t]),
        (dims.p2, 2.0 / (dims.p1 * dims.p2**2),
         [np.kron(np.eye(dims.p2), ti.T) for ti in t]),
    ):
        k = np.hstack(blocks)
        swap = np.arange(q * q).reshape(q, q).T.ravel()
        e = matops.vec(np.eye(q))
        rows.append((k + k[swap]) / p - c * np.outer(e, avec))
    return np.vstack(rows + [2.0 * avec[None, :]])


def kron_balance_reference(a, dims):
    """balance_core_factor as its formula reads: both whitenings as np.kron
    products built each pass, both Grams recomputed for the residual."""
    a = np.asarray(a, dtype=float).copy()
    p1, p2 = dims.p1, dims.p2
    for _ in range(200):
        t = matops.spd_inv_sqrt(cg.row_gram(a, dims) / p2, what="row Gram")
        a = np.kron(np.eye(p2), t) @ a
        s = matops.spd_inv_sqrt(cg.col_gram(a, dims) / p1, what="column Gram")
        a = np.kron(s, np.eye(p1)) @ a
        res_r = np.abs(cg.row_gram(a, dims) - p2 * np.eye(p1)).max()
        res = max(res_r, np.abs(cg.col_gram(a, dims) - p1 * np.eye(p2)).max())
        if res < 1e-12:
            return a
    raise StructureError(f"core-factor balancing stalled at residual {res:.3e}")


def signed_zeros(a, frac=0.2, rng=None):
    """A copy of A with a share frac of its entries set to +0.0 and -0.0."""
    rng = np.random.default_rng(0) if rng is None else rng
    a = np.array(a, dtype=float)
    hit = rng.random(a.shape) < frac
    a[hit] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[hit]
    return a


def random_tangent(a, dims, rng):
    space = cg.RankTangentSpace(a, dims)
    return space.tangent(rng.standard_normal(space.basis.shape[1]))


class TestSlices:
    def test_round_trip(self, rng):
        a = rng.standard_normal((6, 4))
        t = cg.slices(a, DIMS324)
        assert t.shape == (4, 3, 2)
        np.testing.assert_array_equal(matops.vec(t).T, a)
        np.testing.assert_array_equal(t[1], matops.mat(a[:, 1], 3, 2))


class TestJOperator:
    def test_shape_and_rank_at_random_point(self):
        for dims in (DIMS223, DIMS324, matops.Dims(3, 3, 5)):
            a = cg.random_core_factor(dims, seed=17)
            j = cg.j_operator(a, dims)
            assert j.shape == (dims.p1**2 + dims.p2**2 + 1, dims.p * dims.r)
            md = cg.manifold_dims(dims)
            assert cg.RankTangentSpace(a, dims).rank == md.j_rank
            assert dims.p * dims.r - md.j_rank == md.factor

    def test_rank_deficient_on_rotation_family(self):
        dims = matops.Dims(3, 3, 3)
        a = matops.vec(rotation_example_tuple()).T
        # the tuple satisfies both Gram constraints exactly
        cg.check_core_factor(a, dims)
        grams = cg.row_gram(a, dims), cg.col_gram(a, dims)
        assert cg.gram_residual(*grams, cg.gram_targets(dims)) <= 1e-12
        assert cg.RankTangentSpace(a, dims).rank < 11

    def test_annihilates_tangents(self, rng):
        a = cg.random_core_factor(DIMS223, seed=3)
        j = cg.j_operator(a, DIMS223)
        for _ in range(5):
            b = random_tangent(a, DIMS223, rng)
            assert np.abs(j @ b.reshape(-1, order="F")).max() < 1e-8

    def test_capacity_gate(self):
        with pytest.raises(CapacityError):
            cg.j_operator(np.zeros((64 * 64, 2)), matops.Dims(64, 64, 130))

    @pytest.mark.parametrize("shape", [(2, 2, 3), (3, 2, 4), (4, 3, 3)])
    def test_matches_central_differences(self, shape, rng):
        # J(A) vec(B) is the derivative of F(A) = (vec(tr_1(AA^T))/|A|^2,
        # vec(tr_2-dual Gram)/|A|^2, |A|^2) along B, checked against F itself
        # since the tangent bases of the other tests are built from J
        dims = matops.Dims(*shape)
        a = cg.random_core_factor(dims, seed=41)

        def f(x):
            n2 = np.sum(x * x)
            return np.concatenate([
                matops.vec(cg.row_gram(x, dims)) / n2,
                matops.vec(cg.col_gram(x, dims)) / n2,
                [n2],
            ])

        j = cg.j_operator(a, dims)
        h = 1e-6
        for _ in range(3):
            b = rng.standard_normal(a.shape)
            fd = (f(a + h * b) - f(a - h * b)) / (2.0 * h)
            jb = j @ b.reshape(-1, order="F")
            assert np.linalg.norm(jb - fd) <= 1e-7 * np.linalg.norm(jb)

    def test_assembled_from_slices_without_kron(self, monkeypatch):
        # the dense block assembly, built here from np.kron and a row gather,
        # must come out without any matops.kron call: every entry equal,
        # every nonzero bit for bit, and every zero +0.0
        dims = matops.Dims(3, 2, 4)
        a = cg.random_core_factor(dims, seed=5)
        a[0, 1] = 0.0
        expected = kron_j_reference(a, dims)

        def no_kron(*args):
            raise AssertionError("j_operator built a Kronecker product")

        monkeypatch.setattr(matops, "kron", no_kron)
        j = cg.j_operator(a, dims)
        assert np.array_equal(j, expected)
        assert j[expected != 0].tobytes() == expected[expected != 0].tobytes()
        assert not np.signbit(j[j == 0]).any()

    @pytest.mark.parametrize("shape", [(4, 3, 3), (3, 5, 4), (6, 4, 3)])
    def test_fit_path_bits_match_reference(self, shape, rng):
        # the signs of J's zeros reach neither the SVD of J(A) nor the
        # Hessian's normal term J(V)^T w, also where A has signed zeros
        dims = matops.Dims(*shape)
        a = signed_zeros(cg.random_core_factor(dims, seed=7))
        for got, want in zip(np.linalg.svd(cg.j_operator(a, dims)),
                             np.linalg.svd(kron_j_reference(a, dims))):
            assert got.tobytes() == want.tobytes()
        space = cg.RankTangentSpace(cg.random_core_factor(dims, seed=8), dims)
        w = space.normal_weights(rng.standard_normal(a.shape))
        ehess = rng.standard_normal(a.shape)
        for v in [a] + [col.reshape(a.shape, order="F") for col in space.basis.T]:
            gemv = space.basis.T @ (
                ehess.reshape(-1, order="F") - kron_j_reference(v, dims).T @ w
            )
            assert space.hess_coords(ehess, v, w).tobytes() == gemv.tobytes()

    @settings(deadline=None, max_examples=50)
    @given(p1=st.integers(2, 6), p2=st.integers(2, 6), data=st.data())
    def test_matches_reference_over_valid_shapes(self, p1, p2, data):
        r = data.draw(st.integers(int(p1 / p2 + p2 / p1) + 1, p1 * p2), label="r")
        dims = matops.Dims(p1, p2, r)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        a = signed_zeros(rng.standard_normal((dims.p, r)), rng.uniform(0.0, 0.5), rng)
        j, expected = cg.j_operator(a, dims), kron_j_reference(a, dims)
        assert np.array_equal(j, expected)
        assert j[expected != 0].tobytes() == expected[expected != 0].tobytes()
        # a (k, p, r) stack gives each factor's J with the bits of its own call
        k = data.draw(st.integers(1, 3), label="k")
        stack = signed_zeros(rng.standard_normal((k, dims.p, r)), rng.uniform(0.0, 0.5), rng)
        js = cg.j_operator(stack, dims)
        assert js.shape == (k, *j.shape)
        for ji, ai in zip(js, stack):
            assert ji.tobytes() == cg.j_operator(ai, dims).tobytes()


class TestTangentProjectFull:
    def test_identity_killed(self):
        assert np.abs(cg.tangent_project_full(np.eye(6), matops.Dims(3, 2))).max() == 0.0

    def test_fixed_point(self, rng):
        dims = matops.Dims(3, 2)
        w = cg.tangent_project_full(rand_sym(6, rng), dims)
        np.testing.assert_allclose(cg.tangent_project_full(w, dims), w, atol=1e-12)
        assert np.abs(matops.weighted_partial_trace_1(w, np.eye(2), dims)).max() < 1e-12
        assert np.abs(matops.weighted_partial_trace_2(w, np.eye(3), dims)).max() < 1e-12

    def test_idempotent_orthogonal(self, rng):
        dims = matops.Dims(3, 2)
        for _ in range(20):
            v = rand_sym(6, rng)
            g = cg.tangent_project_full(v, dims)
            w = cg.tangent_project_full(rand_sym(6, rng), dims)
            assert abs(np.sum((v - g) * w)) < 1e-10
            # self-adjoint in the Euclidean inner product
            v2 = rand_sym(6, rng)
            lhs = np.sum(cg.tangent_project_full(v, dims) * v2)
            rhs = np.sum(v * cg.tangent_project_full(v2, dims))
            assert abs(lhs - rhs) < 1e-10


class TestRgradHessFull:
    def test_tangent_gradient_unchanged(self, rng):
        dims = matops.Dims(3, 2)
        eg = cg.tangent_project_full(rand_sym(6, rng), dims)
        g = cg.tangent_project_full(eg, dims)
        np.testing.assert_allclose(g, eg, atol=1e-12)

    def test_identity_gradient_zero(self, rng):
        dims = matops.Dims(3, 2)
        g = cg.tangent_project_full(np.eye(6), dims)
        assert np.abs(g).max() == 0.0

    def test_gradient_pairing_logdet(self, rng):
        # f(C) = log det C along a straight tangent line
        dims = matops.Dims(3, 2)
        c = kcd.kcd(rand_spd(6, rng), dims, SquareRootKind.SYMMETRIC).c
        w = cg.tangent_project_full(rand_sym(6, rng), dims)
        g = cg.tangent_project_full(np.linalg.inv(c), dims)
        eps = 1e-5
        fd = (
            np.linalg.slogdet(c + eps * w)[1] - np.linalg.slogdet(c - eps * w)[1]
        ) / (2 * eps)
        assert abs(np.sum(g * w) - fd) < 1e-6


class TestTangentProjectRank:
    def test_fixed_point(self, rng):
        a = cg.random_core_factor(DIMS223, seed=5)
        v = random_tangent(a, DIMS223, rng)
        space = cg.RankTangentSpace(a, DIMS223)
        np.testing.assert_allclose(space.tangent(space.coords(v)), v, atol=1e-10)

    def test_projects_base_point(self):
        a = cg.random_core_factor(DIMS223, seed=6)
        space = cg.RankTangentSpace(a, DIMS223)
        w = space.tangent(space.coords(a))
        j = cg.j_operator(a, DIMS223)
        assert np.abs(j @ w.reshape(-1, order="F")).max() < 1e-8

    def test_idempotent(self, rng):
        a = cg.random_core_factor(DIMS223, seed=7)
        v = rng.standard_normal((4, 3))
        space = cg.RankTangentSpace(a, DIMS223)
        w = space.tangent(space.coords(v))
        np.testing.assert_allclose(space.tangent(space.coords(w)), w, atol=1e-10)


class TestRgradHessRank:
    # the Riemannian gradient is tangent(coords(egrad)) and the Hessian along
    # V is tangent(hess_coords(ehess_v, V, normal_weights(egrad)))
    def test_zero(self):
        a = cg.random_core_factor(DIMS223, seed=8)
        z = np.zeros((4, 3))
        space = cg.RankTangentSpace(a, DIMS223)
        g = space.tangent(space.coords(z))
        h = space.tangent(space.hess_coords(z, z, space.normal_weights(z)))
        assert np.abs(g).max() == 0.0 and np.abs(h).max() == 0.0

    def test_tangent_gradient_unchanged(self, rng):
        a = cg.random_core_factor(DIMS223, seed=9)
        eg = random_tangent(a, DIMS223, rng)
        space = cg.RankTangentSpace(a, DIMS223)
        np.testing.assert_allclose(space.tangent(space.coords(eg)), eg, atol=1e-10)

    def test_constant_function_hessian_vanishes(self, rng):
        # f(A) = ||A||_F^2 is constant (= p) on the manifold: grad = 0 and the
        # curvature correction must cancel the raw term 2 V exactly.
        a = cg.random_core_factor(DIMS223, seed=10)
        space = cg.RankTangentSpace(a, DIMS223)
        w = space.normal_weights(2.0 * a)
        for _ in range(5):
            v = random_tangent(a, DIMS223, rng)
            g = space.tangent(space.coords(2.0 * a))
            h = space.tangent(space.hess_coords(2.0 * v, v, w))
            assert np.abs(g).max() < 1e-10
            assert abs(np.sum(h * v)) < 1e-8 * max(1.0, np.sum(v * v))


class TestSylvester:
    def test_identity_coefficient(self, rng):
        v = rng.standard_normal((4, 4))
        np.testing.assert_allclose(cg.sylvester_solve(np.eye(4), v), v / 2.0)

    def test_zero_rhs(self, rng):
        assert np.abs(cg.sylvester_solve(rand_spd(3, rng), np.zeros((3, 3)))).max() == 0.0

    def test_residual(self, rng):
        e = rand_spd(4, rng)
        v = rng.standard_normal((4, 4))
        y = cg.sylvester_solve(e, v)
        assert np.linalg.norm(y @ e + e @ y - v) <= 1e-10 * np.linalg.norm(v)

    def test_rejects_indefinite(self):
        with pytest.raises(DefinitenessError):
            cg.sylvester_solve(np.diag([1.0, -1.0]), np.eye(2))


class TestQuotientProjections:
    def test_vertical_fixes_rotations(self, rng):
        a = cg.random_core_factor(DIMS223, seed=11)
        theta = rng.standard_normal((3, 3))
        theta = (theta - theta.T) / 2.0
        w = a @ theta
        np.testing.assert_allclose(cg.vertical_project(a, w), w, atol=1e-10)
        assert np.abs(cg.horizontal_project(a, w)).max() < 1e-10

    def test_symmetric_cross_term_has_no_vertical_part(self, rng):
        # A^T W symmetric <=> skew(A^T W) = 0 <=> P^v(W) = 0
        a = cg.random_core_factor(DIMS223, seed=12)
        s = rand_sym(3, rng)
        w = a @ np.linalg.solve(a.T @ a, s)
        assert np.abs(cg.vertical_project(a, w)).max() < 1e-10

    def test_orthogonal_split(self, rng):
        a = cg.random_core_factor(DIMS223, seed=13)
        for _ in range(10):
            w = random_tangent(a, DIMS223, rng)
            pv = cg.vertical_project(a, w)
            ph = cg.horizontal_project(a, w)
            np.testing.assert_allclose(pv + ph, w, atol=1e-12)
            assert abs(np.sum(pv * ph)) < 1e-10
            assert np.abs(a.T @ ph - (a.T @ ph).T).max() < 1e-10

    def test_invariant_gradient_is_horizontal(self, rng):
        # f(A) = tr(S A A^T) is right-rotation invariant; its Riemannian
        # gradient must have no vertical component.
        a = cg.random_core_factor(DIMS223, seed=14)
        s = rand_sym(4, rng)
        eg = 2.0 * s @ a
        space = cg.RankTangentSpace(a, DIMS223)
        g = space.tangent(space.coords(eg))
        np.testing.assert_allclose(cg.horizontal_project(a, g), g, atol=1e-8)


class TestConnectivity:
    def test_block_diagonal_pair_disconnected(self):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        e22 = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert not cg.is_connected_bipartite(np.stack([e11, e22]))

    def test_chain_connected(self):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        e22 = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert cg.is_connected_bipartite(np.stack([e11, e12, e22]))

    def test_identity_single_slice_disconnected(self):
        assert not cg.is_connected_bipartite(np.eye(2)[None])

    def test_rotation_family_disconnected(self):
        assert not cg.is_connected_bipartite(rotation_example_tuple())

    def test_matches_connected_components(self):
        # reference: scipy's components of the bipartite slice graph
        rng = np.random.default_rng(47)
        n_connected = 0
        for _ in range(3000):
            p1, p2, r = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 4)
            t = rng.standard_normal((r, p1, p2))
            t[rng.random(t.shape) > rng.uniform(0.05, 0.6)] = 0.0
            t[rng.random(t.shape) < 0.05] = 1e-13  # below the edge threshold
            adj = (np.abs(t) > 1e-12).any(axis=0)
            graph = csr_matrix(np.block([
                [np.zeros((p1, p1)), adj], [adj.T, np.zeros((p2, p2))],
            ]))
            expected = connected_components(graph, directed=False)[0] == 1
            assert cg.is_connected_bipartite(t) == expected
            n_connected += expected
        assert 300 < n_connected < 2700


class TestManifoldDims:
    def test_reference_values(self):
        md = cg.manifold_dims(DIMS223)
        assert md.factor == 7
        assert md.psd == 4
        md4 = cg.manifold_dims(matops.Dims(2, 2, 4))
        assert md4.full_rank == 10 - 3 - 3 + 1

    def test_rank_matches_tangent_dimension(self):
        a = cg.random_core_factor(DIMS223, seed=15)
        space = cg.RankTangentSpace(a, DIMS223)
        assert space.rank == 5 and space.basis.shape[1] == DIMS223.p * DIMS223.r - 5
        assert DIMS223.p * DIMS223.r - 5 == cg.manifold_dims(DIMS223).factor

    def test_requires_rank(self):
        with pytest.raises(ValueError):
            cg.manifold_dims(matops.Dims(2, 2))


class TestCheckCoreFactor:
    def test_rejects_wrong_shape(self):
        a = cg.random_core_factor(DIMS223, seed=5)
        with pytest.raises(ValueError, match=r"expected 4x3, got \(4, 2\)"):
            cg.check_core_factor(a[:, :2], DIMS223)

    def test_rejects_gram_residual(self):
        # scaling by 1 + 1e-6 moves both Grams by about 2e-6 of their targets
        a = cg.random_core_factor(DIMS223, seed=5)
        with pytest.raises(StructureError, match="core-factor residual"):
            cg.check_core_factor((1.0 + 1e-6) * a, DIMS223)

    def test_rejects_column_rank_deficiency(self):
        # splitting the last column into two halves of 1/sqrt(2) keeps A A^T,
        # so both Grams, but leaves r = 4 columns of rank 3
        a = cg.random_core_factor(DIMS223, seed=5)
        half = a[:, -1:] / np.sqrt(2.0)
        split = np.hstack([a[:, :-1], half, half])
        with pytest.raises(StructureError, match="column-rank deficient"):
            cg.check_core_factor(split, matops.Dims(2, 2, 4))


class TestBalanceCoreFactor:
    @pytest.mark.parametrize(
        "shape", [(4, 3, 3), (6, 4, 3), (5, 4, 3), (3, 5, 4), (12, 10, 6)]
    )
    def test_bits_match_kron_loop(self, shape, monkeypatch):
        def outcome(balance, a, dims):
            try:
                return balance(a, dims).tobytes()
            except StructureError as exc:  # a stall at the rounding floor
                return repr(exc)

        def no_kron(*args):
            raise AssertionError("balancing built a Kronecker product")

        monkeypatch.setattr(matops, "kron", no_kron)
        dims = matops.Dims(*shape)
        rng = np.random.default_rng(sum(shape))
        balanced = 0
        for _ in range(10):
            a = rng.standard_normal((dims.p, dims.r))
            got = outcome(cg.balance_core_factor, a, dims)
            assert got == outcome(kron_balance_reference, a, dims)
            balanced += isinstance(got, bytes)
        assert balanced >= 5

    @pytest.mark.parametrize("shape", [(4, 3, 3), (6, 4, 3), (3, 5, 4)])
    def test_meets_constraints(self, shape):
        dims = matops.Dims(*shape)
        a = np.random.default_rng(7).standard_normal((dims.p, dims.r))
        b = cg.balance_core_factor(a, dims)
        grams = cg.row_gram(b, dims), cg.col_gram(b, dims)
        assert cg.gram_residual(*grams, cg.gram_targets(dims)) <= 1e-12

    def test_stall_raises(self, monkeypatch):
        monkeypatch.setattr(cg, "_BALANCE_MAX_ITER", 1)
        a = np.random.default_rng(8).standard_normal((12, 3))
        with pytest.raises(StructureError, match="stalled"):
            cg.balance_core_factor(a, matops.Dims(4, 3, 3))

    @pytest.mark.parametrize(
        "zero, what", [(np.s_[:, 0, :], "row Gram"), (np.s_[:, :, 0], "column Gram")]
    )
    def test_singular_gram_raises(self, zero, what):
        # row (column) 0 of every slice is zero, so the row (column) Gram is
        # singular; T A_i keeps a zero column 0, so the column Gram after it is too
        dims = matops.Dims(4, 3, 3)
        t = cg.slices(np.random.default_rng(9).standard_normal((12, 3)), dims)
        t[zero] = 0.0
        with pytest.raises(DefinitenessError, match=what):
            cg.balance_core_factor(matops.vec(t).T, dims)


class TestRandomCoreFactor:
    @pytest.mark.parametrize("shape", [(3, 2, 4), (2, 2, 3)])
    def test_constraints(self, shape):
        dims = matops.Dims(*shape)
        a = cg.random_core_factor(dims, seed=23)
        assert np.abs(cg.row_gram(a, dims) - dims.p2 * np.eye(dims.p1)).max() < 1e-10
        assert np.abs(cg.col_gram(a, dims) - dims.p1 * np.eye(dims.p2)).max() < 1e-10
        assert cg.is_connected_bipartite(cg.slices(a, dims))

    def test_redraws_when_balancing_loses_definiteness(self, monkeypatch):
        calls = []
        balance = cg.balance_core_factor

        def fail_first(a, dims):
            calls.append(a)
            if len(calls) == 1:
                raise DefinitenessError("row Gram is not positive definite")
            return balance(a, dims)

        monkeypatch.setattr(cg, "balance_core_factor", fail_first)
        a = cg.random_core_factor(DIMS324, seed=99)
        assert len(calls) == 2
        assert np.abs(calls[0] - calls[1]).max() > 1e-3
        cg.check_core_factor(a, DIMS324)

    def test_deterministic(self):
        a = cg.random_core_factor(DIMS324, seed=99)
        b = cg.random_core_factor(DIMS324, seed=99)
        np.testing.assert_array_equal(a, b)
        c = cg.random_core_factor(DIMS324, seed=100)
        assert np.abs(a - c).max() > 1e-3


class TestPartialIsotropyDecompose:
    def test_round_trip(self):
        a0 = cg.random_core_factor(DIMS223, seed=31)
        lam = 0.4
        c = (1 - lam) * (a0 @ a0.T) + lam * np.eye(4)
        lam_hat, a_hat = cg.partial_isotropy_decompose(c, DIMS223)
        assert abs(lam_hat - lam) < 1e-8
        assert np.abs(a_hat @ a_hat.T - a0 @ a0.T).max() < 1e-8

    def test_recovered_factor_is_core(self):
        a0 = cg.random_core_factor(DIMS324, seed=32)
        c = 0.7 * (a0 @ a0.T) + 0.3 * np.eye(6)
        _, a_hat = cg.partial_isotropy_decompose(c, DIMS324)
        cg.check_core_factor(a_hat, DIMS324)

    def test_identity_rejected(self):
        with pytest.raises(StructureError):
            cg.partial_isotropy_decompose(np.eye(4), DIMS223)

    def test_dims_without_rank_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            cg.partial_isotropy_decompose(np.eye(4), matops.Dims(2, 2))

    def test_unequal_tail_rejected(self, rng):
        a0 = cg.random_core_factor(DIMS324, seed=33)
        c = 0.6 * (a0 @ a0.T) + 0.4 * np.eye(6)
        c = c + 0.05 * np.diag([0, 0, 0, 0, 1.0, -1.0])
        with pytest.raises(StructureError):
            cg.partial_isotropy_decompose(c, DIMS324)
