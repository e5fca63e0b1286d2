"""Tests for Vandermonde assembly and null-space extraction."""

import numpy as np
import pytest

from samplequad.basis import BasisSpec, basis_matrix
from samplequad.errors import DimensionMismatch, NullSpaceFailure
from samplequad.linalg import ExtensionFactorization, null_space, null_vector
from samplequad.tolerances import TOL_FAST


def spec_1d(size, family="monomial", lo=-1.0, hi=1.0):
    return BasisSpec(d=1, size=size, family=family, domain=((lo, hi),))


class TestBuildVandermonde:
    """V[j, k] = phi_j(nodes[k]) as `basis_matrix` builds it."""

    def test_monomial_two_nodes(self):
        V = basis_matrix(spec_1d(2), [[0.0], [1.0]])
        np.testing.assert_array_equal(V, [[1, 1], [0, 1]])

    def test_single_node_column(self):
        spec = BasisSpec(d=2, size=6, domain=((0.0, 1.0),) * 2)
        V = basis_matrix(spec, [[0.3, 0.7]])
        assert V.shape == (6, 1)
        np.testing.assert_array_equal(V[:, 0], basis_matrix(spec, [0.3, 0.7])[:, 0])

    def test_legendre_three_nodes(self):
        V = basis_matrix(spec_1d(3, "product_legendre"), [[-1.0], [0.0], [1.0]])
        np.testing.assert_allclose(
            V, [[1, 1, 1], [-1, 0, 1], [1, -0.5, 1]], atol=1e-15
        )

    def test_first_row_is_ones(self):
        rng = np.random.default_rng(0)
        spec = BasisSpec(d=3, size=12, domain=((0.0, 1.0),) * 3)
        V = basis_matrix(spec, rng.random((20, 3)))
        np.testing.assert_array_equal(V[0], np.ones(20))


class TestNullVector:
    def test_two_identical_constant_columns(self):
        c = null_vector(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(c, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-15)

    def test_hand_solved_two_by_three(self):
        # monomial basis {1, x} at nodes {0, 1, 2}: c is proportional to (1, -2, 1)
        V = basis_matrix(spec_1d(2), [[0.0], [1.0], [2.0]])
        c = null_vector(V)
        np.testing.assert_allclose(c, np.array([1.0, -2.0, 1.0]) / np.sqrt(6), atol=1e-14)

    def test_residual_contract(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(3, 12))
            nodes = np.sort(rng.uniform(-1, 1, n + 1)).reshape(-1, 1)
            V = basis_matrix(spec_1d(n, "product_legendre"), nodes)
            c = null_vector(V)
            assert np.linalg.norm(V @ c) <= 1e-10 * np.linalg.norm(V)
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)

    def test_zero_sum_when_constant_row(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            nodes = rng.uniform(0, 1, (8, 1))
            V = basis_matrix(spec_1d(7, "product_legendre", 0.0, 1.0), nodes)
            c = null_vector(V)
            assert abs(c.sum()) <= 1e-9
            assert (c > 0).any() and (c < 0).any()

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        V = rng.standard_normal((5, 6))
        c1 = null_vector(V)
        c2 = null_vector(V.copy())
        np.testing.assert_array_equal(c1, c2)

    def test_too_few_columns_rejected(self):
        rng = np.random.default_rng(4)
        V = rng.standard_normal((6, 7))
        with pytest.raises(DimensionMismatch):
            null_space(V, 2)  # a 6x7 matrix only guarantees one null vector

    def test_tolerance_violation_raises(self, monkeypatch):
        # an impossible tolerance surfaces the residual guard
        import samplequad.linalg

        monkeypatch.setattr(samplequad.linalg, "TOL_NULL", 0.0)
        rng = np.random.default_rng(40)
        V = rng.standard_normal((4, 6))
        with pytest.raises(NullSpaceFailure):
            null_space(V, 2)


class TestNullSpace:
    def test_m_one_matches_null_vector(self):
        rng = np.random.default_rng(5)
        V = rng.standard_normal((4, 5))
        np.testing.assert_array_equal(null_space(V, 1)[:, 0], null_vector(V))

    def test_all_ones_row_two_vectors(self):
        C = null_space(np.ones((1, 3)), 2)
        # orthonormal pair spanning the zero-sum plane
        np.testing.assert_allclose(C.T @ C, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(C.sum(axis=0), [0.0, 0.0], atol=1e-14)

    def test_random_wide_vandermonde(self):
        rng = np.random.default_rng(6)
        nodes = np.sort(rng.uniform(-1, 1, 7)).reshape(-1, 1)
        V = basis_matrix(spec_1d(4, "product_legendre"), nodes)
        C = null_space(V, 3)
        np.testing.assert_allclose(C.T @ C, np.eye(3), atol=1e-12)
        assert np.abs(V @ C).max() <= 1e-10 * np.linalg.norm(V)

    def test_requires_enough_columns(self):
        with pytest.raises(DimensionMismatch):
            null_space(np.ones((3, 4)), 2)


class TestExtensionFactorization:
    def test_extend_matches_from_scratch(self):
        rng = np.random.default_rng(7)
        nodes = np.sort(rng.uniform(-1, 1, 6)).reshape(-1, 1)
        spec = spec_1d(6, "product_legendre")
        V = basis_matrix(spec, nodes)
        handle = ExtensionFactorization(V)
        for _ in range(10):
            x = rng.uniform(-1, 1)
            col = basis_matrix(spec, [[x]])[:, 0]
            fast = handle.null_vector_extended(col)
            slow = null_vector(np.column_stack([V, col]))
            cosine = abs(np.dot(fast, slow)) / (np.linalg.norm(fast) * np.linalg.norm(slow))
            assert cosine >= 1 - 1e-9

    def test_repeated_extension_residuals(self):
        # d=2, basis size 10, 100 synthetic samples through one handle
        rng = np.random.default_rng(8)
        spec = BasisSpec(d=2, size=10, domain=((0.0, 1.0),) * 2)
        nodes = rng.random((10, 2))
        V = basis_matrix(spec, nodes)
        handle = ExtensionFactorization(V)
        for _ in range(100):
            col = basis_matrix(spec, rng.random((1, 2)))[:, 0]
            c = handle.null_vector_extended(col)
            ext = np.column_stack([V, col])
            assert np.linalg.norm(ext @ c) <= 1e-9 * np.linalg.norm(ext)

    def test_duplicate_column_support(self):
        V = np.eye(4)
        handle = ExtensionFactorization(V)
        c = handle.null_vector_extended(np.array([1.0, 0.0, 0.0, 0.0]))
        # null vector must live on the duplicated pair, as (z, -1)
        assert c[-1] == -1.0
        np.testing.assert_allclose(
            np.abs(c) / np.linalg.norm(c), [np.sqrt(0.5), 0, 0, 0, np.sqrt(0.5)], atol=1e-12
        )

    def test_column_replacement_tracks_matrix(self):
        rng = np.random.default_rng(9)
        V = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        handle = ExtensionFactorization(V)
        for k in (2, 4, 0):
            new = rng.standard_normal(6)
            handle.replace_column(k, new)
            V[:, k] = new
            col = rng.standard_normal(6)
            fast = handle.null_vector_extended(col)
            slow = null_vector(np.column_stack([V, col]))
            cosine = abs(np.dot(fast, slow)) / np.linalg.norm(fast)
            assert cosine >= 1 - 1e-9

    def test_exchanges_keep_the_norm_and_the_inverse(self, monkeypatch):
        refreshes = []
        refresh = ExtensionFactorization._refresh
        monkeypatch.setattr(
            ExtensionFactorization, "_refresh", lambda self: refreshes.append(1) or refresh(self)
        )
        rng = np.random.default_rng(13)
        V = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        handle = ExtensionFactorization(V)
        for step in range(40):
            k = step % 6
            new = rng.standard_normal(6) + 3 * np.eye(6)[k]
            handle.replace_column(k, new)
            V[:, k] = new
            # the squared Frobenius norm follows by the columns' norms alone
            assert handle._fnorm2 == pytest.approx(np.sum(V * V), rel=1e-12)
            np.testing.assert_allclose(handle._inv, np.linalg.inv(V), rtol=0, atol=1e-10)
        assert refreshes == [1]
        # a column almost in the span of the others gives a pivot too weak
        # to trust: the inverse and the norm are recomputed
        weak = 2.0 * V[:, 1] + 1e-10 * V[:, 4]
        handle.replace_column(4, weak)
        V[:, 4] = weak
        assert refreshes == [1, 1]
        assert handle._fnorm2 == np.sum(V * V)
        np.testing.assert_array_equal(handle._inv, np.linalg.inv(V))

    def test_refinement_and_stale_refresh_precede_the_svd(self, monkeypatch):
        # scaling the cached inverse by (1 + e) stands in for update drift:
        # the first solve then misses the acceptance by a relative e, and
        # one refinement step leaves e^2
        import samplequad.linalg as linalg

        events = []
        svd, lu, refresh = linalg.null_vector, np.linalg.solve, ExtensionFactorization._refresh
        monkeypatch.setattr(linalg, "null_vector", lambda *a: events.append("svd") or svd(*a))
        monkeypatch.setattr(np.linalg, "solve", lambda *a: events.append("lu") or lu(*a))
        monkeypatch.setattr(ExtensionFactorization, "_refresh",
                            lambda self: events.append("refresh") or refresh(self))
        rng = np.random.default_rng(12)
        V = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        cols = rng.standard_normal((6, 4))
        ext = np.column_stack([V, cols[:, 0]])
        handle = ExtensionFactorization(V)
        events.clear()
        handle._inv *= 1.0 + 1e-9
        Z, accepted = handle.solve(cols)
        assert accepted.all()
        np.testing.assert_allclose(V @ Z, cols, atol=1e-13)
        handle.null_vector_extended(cols[:, 0])
        assert events == []
        # a drift of one half survives refinement: LU serves a fresh inverse
        handle._inv *= 1.5
        c = handle.null_vector_extended(cols[:, 0])
        assert events == ["lu"] and c[-1] == -1.0
        assert np.linalg.norm(ext @ c) <= 1e-12 * np.linalg.norm(ext) * np.linalg.norm(c)
        # one that an exchange has updated is recomputed first, and then
        # serves the column without LU
        new = rng.standard_normal(6) + 3 * np.eye(6)[2]
        handle.replace_column(2, new)
        V[:, 2] = ext[:, 2] = new
        handle._inv *= 1.5
        events.clear()
        c = handle.null_vector_extended(cols[:, 0])
        assert events == ["refresh"] and c[-1] == -1.0
        assert np.linalg.norm(ext @ c) <= 1e-12 * np.linalg.norm(ext) * np.linalg.norm(c)
        # the SVD only where LU fails
        def failed_lu(*a):
            events.append("lu")
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(np.linalg, "solve", failed_lu)
        handle._inv *= 1.5
        events.clear()
        c = handle.null_vector_extended(cols[:, 0])
        assert events == ["lu", "svd"] and c[-1] < 0.0
        assert np.linalg.norm(ext @ c) <= 1e-10 * np.linalg.norm(ext)

    def test_singular_base_falls_back(self):
        V = np.ones((3, 3))  # rank one
        handle = ExtensionFactorization(V)
        c = handle.null_vector_extended(np.array([1.0, 1.0, 1.0]))
        assert c[-1] <= 0.0
        ext = np.column_stack([V, [1.0, 1.0, 1.0]])
        assert np.linalg.norm(ext @ c) <= 1e-10 * np.linalg.norm(ext)

    def test_one_column_verdicts_match_the_block_path(self):
        # degree-17 Legendre on normal samples: some solves pass the
        # fast-path test at once, some only after refinement, some fail
        from samplequad.basis import domain_from_samples

        rng = np.random.default_rng(0)
        pts = rng.standard_normal((80, 1))
        spec = BasisSpec(d=1, size=18, domain=domain_from_samples(pts))
        handle = ExtensionFactorization(basis_matrix(spec, pts[:18]))
        cols = basis_matrix(spec, pts[18:])
        first, verdicts = [], []
        for col in cols.T:
            z = handle._inv @ col
            r = handle.V @ z - col
            bound = TOL_FAST * max(np.sqrt(handle._fnorm2 + col @ col), 1.0)
            first.append(np.linalg.norm(r) / np.sqrt(z @ z + 1.0) <= bound)
            one, accepted = handle.solve(col)
            block, verdict = handle.solve(col[:, None])
            assert accepted == verdict[0]
            np.testing.assert_array_equal(one, block[:, 0])
            verdicts.append(accepted)
        first, verdicts = np.array(first), np.array(verdicts)
        assert first.any() and (~first & verdicts).any() and not verdicts.all()

    def test_solve(self):
        rng = np.random.default_rng(10)
        V = rng.standard_normal((5, 5)) + 4 * np.eye(5)
        handle = ExtensionFactorization(V)
        rhs = rng.standard_normal((5, 3))
        Z, accepted = handle.solve(rhs)
        assert accepted.all()
        np.testing.assert_allclose(V @ Z, rhs, atol=1e-10)

    def test_solve_matches_null_vector_extended(self):
        rng = np.random.default_rng(11)
        spec = BasisSpec(d=2, size=10, domain=((0.0, 1.0),) * 2)
        handle = ExtensionFactorization(basis_matrix(spec, rng.random((10, 2))))
        cols = basis_matrix(spec, rng.random((7, 2)))
        Z, accepted = handle.solve(cols)
        assert accepted.all()
        # the block of null vectors is the solutions with -1 appended
        U = handle.null_vector_extended(cols)
        np.testing.assert_array_equal(U, np.vstack([Z, -np.ones(7)]))
        for j in range(cols.shape[1]):
            u = np.append(Z[:, j], -1.0)
            c = handle.null_vector_extended(cols[:, j])
            np.testing.assert_allclose(np.abs(c), np.abs(u), atol=1e-12 * np.linalg.norm(u))

    def test_solve_rejects_inaccurate_columns(self):
        # degree-29 Legendre on normal samples: the inverse exists, but its
        # solves miss the fast-path acceptance; null_vector_extended then
        # solves each column by LU, or takes the SVD, signed to end in a
        # non-positive entry, and gives a block what it gives each column
        from samplequad.basis import domain_from_samples

        rng = np.random.default_rng(0)
        pts = rng.standard_normal((36, 1))
        spec = BasisSpec(d=1, size=30, domain=domain_from_samples(pts))
        V = basis_matrix(spec, pts[:30])
        handle = ExtensionFactorization(V)
        cols = basis_matrix(spec, pts[30:])
        _, accepted = handle.solve(cols)
        assert not accepted.any()
        U = handle.null_vector_extended(cols)
        for col, u in zip(cols.T, U.T):
            c = handle.null_vector_extended(col)
            np.testing.assert_array_equal(c, u)
            assert c[-1] <= 0.0
            ext = np.column_stack([V, col])
            assert np.linalg.norm(ext @ c) <= 1e-10 * np.linalg.norm(ext)

    def test_solve_needs_square_inverse(self):
        assert ExtensionFactorization(np.ones((3, 3))).solve(np.eye(3)) is None
        assert ExtensionFactorization(np.ones((2, 3))).solve(np.eye(2)) is None
        with pytest.raises(DimensionMismatch):
            ExtensionFactorization(np.eye(3)).solve(np.ones((2, 2)))
        with pytest.raises(DimensionMismatch):
            ExtensionFactorization(np.eye(3)).null_vector_extended(np.ones(2))

    def test_exchange_revives_singular_square_base(self):
        V = np.eye(4)
        V[:, 3] = V[:, 2]  # duplicated column: no inverse
        handle = ExtensionFactorization(V)
        assert handle.solve(np.eye(4)) is None
        handle.replace_column(3, np.array([0.0, 0.0, 0.0, 1.0]))
        Z, accepted = handle.solve(np.eye(4))
        assert accepted.all()
        np.testing.assert_allclose(Z, np.eye(4), atol=1e-15)
