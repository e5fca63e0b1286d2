"""Property tests of the invariants every accepted input must keep.

For random (d, basis sizes, distribution, seed, extension mode) a fixed
rule and its extension must have non-negative weights, reproduce the
sample moments to 1e-8, take their nodes bit for bit from the samples
(or the base), nest, obey D <= N+M <= N+D+1 for a base of N+1 nodes and
a target basis of D+1 functions, and be deterministic.  Degenerate
inputs fail with typed errors.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from samplequad.basis import BasisSpec, domain_from_samples
from samplequad.errors import InsufficientSamples, InvalidDomain
from samplequad.nested import MODES, ExtensionRequest, extend_rule
from samplequad.rule import SampleSet, construct_fixed_rule, sample_moments
from samplequad.sampling import DistributionSpec, generate

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

KINDS = ("uniform", "normal", "beta", "rosenbrock")
# a short chain keeps the examples fast; the chain itself is tested elsewhere
MH_PARAMS = {"burn_in": 200, "thinning": 2}


def draw_samples(kind, d, seed, count):
    if kind == "rosenbrock" and d < 2:
        kind = "normal"
    params = MH_PARAMS if kind == "rosenbrock" else {}
    return generate(DistributionSpec(kind, d, seed=seed, params=params), count)


def keys(points):
    return {row.tobytes() for row in points}


def assert_valid(rule, samples, allowed_nodes):
    assert rule.weights.min() >= 0.0
    assert rule.moment_residual(sample_moments(samples, rule.spec)) <= 1e-8
    assert keys(rule.nodes) <= allowed_nodes


@st.composite
def cases(draw):
    d = draw(st.integers(1, 3))
    size = draw(st.integers(2, 10))
    mode = draw(st.sampled_from(MODES))
    target = size if mode == "continue_samples" else draw(st.integers(size, size + 8))
    return {
        "d": d,
        "size": size,
        "target": target,
        "kind": draw(st.sampled_from(KINDS)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "mode": mode,
    }


def build(case):
    """(base samples, base rule, extension samples, extension)."""
    samples = draw_samples(case["kind"], case["d"], case["seed"], 300)
    if case["mode"] == "continue_samples":
        first = SampleSet(samples.points[:150])
    else:
        first = samples
    if case["mode"] == "resampled":
        samples = draw_samples(case["kind"], case["d"], case["seed"] + 1, 300)
    spec = BasisSpec(d=case["d"], size=case["size"], domain=domain_from_samples(first.points))
    base = construct_fixed_rule(first, spec)
    req = ExtensionRequest(base, case["target"], samples, case["mode"])
    return first, base, samples, extend_rule(req)


@SETTINGS
@given(cases())
def test_fixed_rule_and_extension_keep_the_invariants(case):
    first, base, samples, out = build(case)
    assert_valid(base, first, keys(first.points))
    assert base.n_nodes <= case["size"]
    assert_valid(out, samples, keys(samples.points) | keys(base.nodes))
    assert keys(base.nodes) <= keys(out.nodes)
    n, d_plus = base.n_nodes - 1, case["target"] - 1
    assert d_plus <= out.n_nodes - 1 <= n + d_plus + 1

    again = build(case)[3]
    np.testing.assert_array_equal(again.nodes, out.nodes)
    np.testing.assert_array_equal(again.weights, out.weights)


@SETTINGS
@given(
    d=st.integers(2, 3),
    column=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_constant_coordinate_is_an_invalid_domain(d, column, seed):
    points = generate(DistributionSpec("uniform", d, seed=seed), 100).points
    points[:, column % d] = 0.25
    with pytest.raises(InvalidDomain):
        domain_from_samples(points)


@SETTINGS
@given(
    d=st.integers(1, 3),
    size_count=st.integers(3, 12).flatmap(lambda s: st.tuples(st.just(s), st.integers(2, s - 1))),
    seed=st.integers(0, 2**32 - 1),
)
def test_too_few_samples_are_insufficient(d, size_count, seed):
    size, count = size_count
    samples = generate(DistributionSpec("uniform", d, seed=seed), count)
    spec = BasisSpec(d=d, size=size, domain=domain_from_samples(samples.points))
    with pytest.raises(InsufficientSamples):
        construct_fixed_rule(samples, spec)
    # a rule on every sample cannot grow to a basis larger than the samples
    base = construct_fixed_rule(samples, replace(spec, size=count))
    with pytest.raises(InsufficientSamples):
        extend_rule(ExtensionRequest(base, size, samples, "increase_degree"))


@SETTINGS
@given(
    d=st.integers(1, 3),
    size=st.integers(2, 10),
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    copies=st.integers(2, 4),
    shuffle=st.booleans(),
)
def test_duplicated_samples_give_a_valid_rule(d, size, kind, seed, copies, shuffle):
    unique = draw_samples(kind, d, seed, 80).points
    # every sample `copies` times in a row, so that the starting rule
    # holds duplicates, or in a shuffled order
    points = np.repeat(unique, copies, axis=0)
    if shuffle:
        points = np.random.default_rng(seed).permutation(points)
    samples = SampleSet(points)
    spec = BasisSpec(d=d, size=size, domain=domain_from_samples(samples.points))
    rule = construct_fixed_rule(samples, spec)
    assert_valid(rule, samples, keys(unique))
    bigger = extend_rule(ExtensionRequest(rule, size + 3, samples, "increase_degree"))
    assert_valid(bigger, samples, keys(unique))
    assert keys(rule.nodes) <= keys(bigger.nodes)
