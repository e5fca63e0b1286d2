"""Tests for multivariate basis construction and evaluation."""

import functools
import itertools
import math

import numpy as np
import pytest

from samplequad.basis import BasisSpec, basis_matrix, domain_from_samples
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


def indices(d, count):
    """The first `count` exponent tuples of the basis order."""
    return list(BasisSpec(d, count).indices)


def evaluate_at(spec, x):
    """Every basis function at the single point `x`."""
    return basis_matrix(spec, np.reshape(x, (1, -1)))[:, 0]


def legendre_oracle(n, x):
    """Three-term recurrence, written independently of the library."""
    values = [1.0, x]
    for k in range(1, n):
        values.append(((2 * k + 1) * x * values[k] - k * values[k - 1]) / (k + 1))
    return values[n]


class TestGenerateIndices:
    """The exponent tuples of `BasisSpec.indices`, in basis order."""

    def test_univariate_is_degree_order(self):
        assert indices(1, 4) == [(0,), (1,), (2,), (3,)]

    def test_first_index_is_constant(self):
        for d in (1, 2, 5):
            assert indices(d, 1)[0] == (0,) * d

    def test_bivariate_degree_two(self):
        got = indices(2, 6)
        assert got == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert got == oracle_indices(2, 6)

    def test_matches_oracle_comparator(self):
        for d, count in [(2, 25), (3, 40), (5, 60)]:
            assert indices(d, count) == oracle_indices(d, count)

    def test_prefix_property(self):
        for n1, n2 in [(3, 10), (7, 30)]:
            assert indices(3, n2)[:n1] == indices(3, n1)

    def test_degrees_non_decreasing(self):
        degs = [sum(e) for e in indices(4, 80)]
        assert degs == sorted(degs)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidSpec):
            BasisSpec(0, 3)
        with pytest.raises(InvalidSpec):
            BasisSpec(2, 0)


def degree_count(d, q):
    """How many leading basis functions have total degree <= q."""
    degs = [sum(e) for e in indices(d, math.comb(q + d, d) + 1)]
    return degs.index(q + 1)


class TestDimensionForDegree:
    """A basis of C(q+d, d) functions holds exactly the degrees <= q."""

    def test_univariate(self):
        assert degree_count(1, 5) == 6

    def test_five_dimensional(self):
        assert degree_count(5, 2) == math.comb(7, 5) == 21

    def test_matches_grevlex_block_length(self):
        # all indices of total degree <= 2 in d=2
        assert degree_count(2, 2) == 6
        assert max(sum(e) for e in indices(2, 6)) == 2

    def test_exact_for_large_input(self):
        assert degree_count(20, 2) == math.comb(22, 20) == 231


class TestEvaluateBasis:
    """`basis_matrix` at single points."""

    def test_legendre_degree_one(self):
        spec = BasisSpec(d=1, size=2, domain=((-1.0, 1.0),))
        np.testing.assert_allclose(evaluate_at(spec, [0.5]), [1.0, 0.5])

    def test_legendre_degree_two_recurrence(self):
        spec = BasisSpec(d=1, size=3, domain=((-1.0, 1.0),))
        got = evaluate_at(spec, [0.5])
        assert got[2] == pytest.approx(-0.125, abs=1e-15)
        np.testing.assert_allclose(
            got, [legendre_oracle(n, 0.5) for n in range(3)], atol=1e-15
        )

    def test_legendre_products(self):
        # (2, 3) maps to (-0.2, 0.2) on [0, 5]^2; P_2(x) = (3x^2 - 1) / 2
        spec = BasisSpec(d=2, size=6, domain=((0.0, 5.0),) * 2)
        np.testing.assert_allclose(
            evaluate_at(spec, [2.0, 3.0]), [1, -0.2, 0.2, -0.44, -0.04, -0.44], atol=1e-15
        )

    def test_constant_entry_is_one(self):
        rng = np.random.default_rng(3)
        spec = BasisSpec(d=3, size=20, domain=((0.0, 1.0),) * 3)
        for _ in range(10):
            vals = evaluate_at(spec, rng.random(3))
            assert vals[0] == 1.0

    def test_legendre_at_mapped_endpoint_is_one(self):
        spec = BasisSpec(d=1, size=12, domain=((2.0, 7.0),))
        np.testing.assert_allclose(evaluate_at(spec, [7.0]), np.ones(12), atol=1e-12)

    def test_domain_map_respected(self):
        spec = BasisSpec(d=1, size=3, domain=((0.0, 1.0),))
        mid = evaluate_at(spec, [0.5])
        np.testing.assert_allclose(mid, [1.0, 0.0, -0.5], atol=1e-15)

    def test_oracle_on_random_points(self):
        rng = np.random.default_rng(11)
        spec = BasisSpec(d=2, size=15, domain=((-1.0, 1.0),) * 2)
        expo = indices(2, 15)
        for _ in range(5):
            x = rng.uniform(-1, 1, 2)
            want = [
                legendre_oracle(e[0], x[0]) * legendre_oracle(e[1], x[1]) for e in expo
            ]
            np.testing.assert_allclose(evaluate_at(spec, x), want, atol=1e-13)

    def test_matrix_matches_pointwise(self):
        rng = np.random.default_rng(4)
        spec = BasisSpec(d=2, size=10, domain=((0.0, 1.0),) * 2)
        pts = rng.random((7, 2))
        mat = basis_matrix(spec, pts)
        for k in range(7):
            np.testing.assert_array_equal(mat[:, k], evaluate_at(spec, pts[k]))

    def test_dimension_mismatch(self):
        spec = BasisSpec(d=2, size=3, domain=((0.0, 1.0),) * 2)
        with pytest.raises(DimensionMismatch):
            evaluate_at(spec, [0.5])


class TestBasisSpec:
    def test_indices_regenerated_not_stored(self):
        spec = BasisSpec(d=2, size=6, domain=((0.0, 1.0),) * 2)
        data = spec.to_json_dict()
        assert "indices" not in data
        again = BasisSpec.from_json_dict(data)
        assert again.indices == spec.indices
        assert again == spec

    @pytest.mark.parametrize("key, value", [
        ("d", 2.9), ("d", True), ("size", 5.5), ("size", None),
    ])
    def test_d_and_size_are_integers(self, key, value):
        # neither a truncating float nor a bool is taken as an integer
        data = BasisSpec(d=2, size=5, domain=((0.0, 1.0),) * 2).to_json_dict()
        data[key] = value
        with pytest.raises(InvalidSpec, match=f"basis '{key}' must be an integer"):
            BasisSpec.from_json_dict(data)
        with pytest.raises(InvalidSpec, match=f"basis '{key}' must be an integer"):
            BasisSpec(**{"d": 2, "size": 5, key: value})

    def test_the_family_is_written_and_required(self):
        data = BasisSpec(d=2, size=5).to_json_dict()
        assert data["family"] == "product_legendre"
        del data["family"]
        with pytest.raises(InvalidSpec, match="lacks 'family'"):
            BasisSpec.from_json_dict(data)

    @pytest.mark.parametrize("family", ["monomial", "legendre", "Product_Legendre", 5, None])
    def test_a_family_other_than_product_legendre_is_refused(self, family):
        data = BasisSpec(d=2, size=5).to_json_dict()
        data["family"] = family
        with pytest.raises(InvalidSpec, match=f"unknown basis family {family!r}"):
            BasisSpec.from_json_dict(data)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(InvalidDomain):
            BasisSpec(d=1, size=2, domain=((1.0, 1.0),))
        # an infinite end maps every finite coordinate to one point
        with pytest.raises(InvalidDomain, match="not finite"):
            BasisSpec(d=1, size=2, domain=((0.0, np.inf),))

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
