"""Tests for multivariate basis construction and evaluation."""

import functools
import itertools
import math

import numpy as np
import pytest

from samplequad.basis import (
    BasisSpec,
    MultiIndex,
    basis_matrix,
    dimension_for_degree,
    domain_from_samples,
    evaluate_basis,
    generate_indices,
)
from samplequad.errors import DimensionMismatch, InvalidDomain, InvalidSpec


def grevlex_cmp(a, b):
    """Independent comparator: degree first, then last-differing exponent."""
    if sum(a) != sum(b):
        return -1 if sum(a) < sum(b) else 1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            # larger last-differing exponent sorts later
            return -1 if x < y else 1
    return 0


def oracle_indices(d, count):
    degree = 0
    out = []
    while len(out) < count:
        block = [e for e in itertools.product(range(degree + 1), repeat=d)
                 if sum(e) == degree]
        out.extend(sorted(block, key=functools.cmp_to_key(grevlex_cmp)))
        degree += 1
    return out[:count]


def legendre_oracle(n, x):
    """Three-term recurrence, written independently of the library."""
    values = [1.0, x]
    for k in range(1, n):
        values.append(((2 * k + 1) * x * values[k] - k * values[k - 1]) / (k + 1))
    return values[n]


class TestGenerateIndices:
    def test_univariate_is_degree_order(self):
        assert [m.exponents for m in generate_indices(1, 4)] == [(0,), (1,), (2,), (3,)]

    def test_first_index_is_constant(self):
        for d in (1, 2, 5):
            assert generate_indices(d, 1)[0].exponents == (0,) * d

    def test_bivariate_degree_two(self):
        got = [m.exponents for m in generate_indices(2, 6)]
        assert got == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert got == oracle_indices(2, 6)

    def test_matches_oracle_comparator(self):
        for d, count in [(2, 25), (3, 40), (5, 60)]:
            got = [m.exponents for m in generate_indices(d, count)]
            assert got == oracle_indices(d, count)

    def test_prefix_property(self):
        for n1, n2 in [(3, 10), (7, 30)]:
            small = generate_indices(3, n1)
            large = generate_indices(3, n2)
            assert large[:n1] == small

    def test_degrees_non_decreasing(self):
        degs = [m.total_degree for m in generate_indices(4, 80)]
        assert degs == sorted(degs)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidSpec):
            generate_indices(0, 3)
        with pytest.raises(InvalidSpec):
            generate_indices(2, 0)


class TestDimensionForDegree:
    def test_univariate(self):
        assert dimension_for_degree(1, 5) == 6

    def test_five_dimensional(self):
        assert dimension_for_degree(5, 2) == math.comb(7, 5) == 21

    def test_matches_grevlex_block_length(self):
        # all indices of total degree <= 2 in d=2
        assert dimension_for_degree(2, 2) == 6
        idx = generate_indices(2, 6)
        assert max(m.total_degree for m in idx) == 2

    def test_exact_for_large_input(self):
        assert dimension_for_degree(20, 30) == math.comb(50, 20)


class TestEvaluateBasis:
    def test_legendre_degree_one(self):
        spec = BasisSpec(d=1, size=2, domain=((-1.0, 1.0),))
        np.testing.assert_allclose(evaluate_basis(spec, [0.5]), [1.0, 0.5])

    def test_legendre_degree_two_recurrence(self):
        spec = BasisSpec(d=1, size=3, domain=((-1.0, 1.0),))
        got = evaluate_basis(spec, [0.5])
        assert got[2] == pytest.approx(-0.125, abs=1e-15)
        np.testing.assert_allclose(
            got, [legendre_oracle(n, 0.5) for n in range(3)], atol=1e-15
        )

    def test_monomial_products(self):
        spec = BasisSpec(d=2, size=6, family="monomial", domain=((0.0, 5.0),) * 2)
        np.testing.assert_allclose(
            evaluate_basis(spec, [2.0, 3.0]), [1, 2, 3, 4, 6, 9]
        )

    def test_constant_entry_is_one(self):
        rng = np.random.default_rng(3)
        spec = BasisSpec(d=3, size=20, domain=((0.0, 1.0),) * 3)
        for _ in range(10):
            vals = evaluate_basis(spec, rng.random(3))
            assert vals[0] == 1.0

    def test_legendre_at_mapped_endpoint_is_one(self):
        spec = BasisSpec(d=1, size=12, domain=((2.0, 7.0),))
        np.testing.assert_allclose(evaluate_basis(spec, [7.0]), np.ones(12), atol=1e-12)

    def test_domain_map_respected(self):
        spec = BasisSpec(d=1, size=3, domain=((0.0, 1.0),))
        mid = evaluate_basis(spec, [0.5])
        np.testing.assert_allclose(mid, [1.0, 0.0, -0.5], atol=1e-15)

    def test_oracle_on_random_points(self):
        rng = np.random.default_rng(11)
        spec = BasisSpec(d=2, size=15, domain=((-1.0, 1.0),) * 2)
        expo = [m.exponents for m in generate_indices(2, 15)]
        for _ in range(5):
            x = rng.uniform(-1, 1, 2)
            want = [
                legendre_oracle(e[0], x[0]) * legendre_oracle(e[1], x[1]) for e in expo
            ]
            np.testing.assert_allclose(evaluate_basis(spec, x), want, atol=1e-13)

    def test_matrix_matches_pointwise(self):
        rng = np.random.default_rng(4)
        spec = BasisSpec(d=2, size=10, domain=((0.0, 1.0),) * 2)
        pts = rng.random((7, 2))
        mat = basis_matrix(spec, pts)
        for k in range(7):
            np.testing.assert_array_equal(mat[:, k], evaluate_basis(spec, pts[k]))

    def test_dimension_mismatch(self):
        spec = BasisSpec(d=2, size=3, domain=((0.0, 1.0),) * 2)
        with pytest.raises(DimensionMismatch):
            evaluate_basis(spec, [0.5])


class TestBasisSpec:
    def test_indices_regenerated_not_stored(self):
        spec = BasisSpec(d=2, size=6, domain=((0.0, 1.0),) * 2)
        data = spec.to_json_dict()
        assert "indices" not in data
        again = BasisSpec.from_json_dict(data)
        assert again.indices == spec.indices
        assert again == spec

    def test_degenerate_domain_rejected(self):
        with pytest.raises(InvalidDomain):
            BasisSpec(d=1, size=2, domain=((1.0, 1.0),))

    def test_domain_from_samples_is_bounding_box(self):
        pts = np.array([[0.0, 2.0], [1.0, 5.0], [0.5, 3.0]])
        assert domain_from_samples(pts) == ((0.0, 1.0), (2.0, 5.0))

    def test_domain_from_constant_coordinate(self):
        pts = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(InvalidDomain):
            domain_from_samples(pts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_domain_from_non_finite_samples(self, bad):
        pts = np.array([[0.0, 1.0], [1.0, 2.0], [0.5, bad]])
        with pytest.raises(InvalidDomain, match="finite"):
            domain_from_samples(pts)

    def test_multi_index_invariants(self):
        m = MultiIndex((2, 0, 1))
        assert m.total_degree == 3
        with pytest.raises(InvalidSpec):
            MultiIndex((-1, 0))
