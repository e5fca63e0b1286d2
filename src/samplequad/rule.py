"""Quadrature-rule data model, sample moments, and the single removal.

A rule is a weighted subset of a sample stream that reproduces the raw
moments of every basis function over the full stream.

The streaming engine of `samplequad.nested` decides most single
removals itself, in `_tie_free` and `_drop_prefix`, from one solve of
the sample's column.  The helpers here serve the rest: the general
scalar step, the start-up removals and the removal walk's seed.
`removal_interval`, the one single-direction ratio scan, reads both
ends of the scalings of the null direction c and the nodes each end
zeroes; `apply_removal` forms w - alpha c with the attaining entries
exactly zero, and `dropped_mask` marks every weight that reached zero.
`choose_alpha` is the smallest-|alpha| end alone (ties to the positive
side).
`construct_fixed_rule` runs the engine without fixed nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, basis_matrix
from .errors import (
    DegenerateNullVector,
    DimensionMismatch,
    InsufficientSamples,
    InvalidSpec,
    NullSpaceFailure,
    is_number,
    require_int,
    require_keys,
)
from .linalg import any_of, largest, smallest
from .tolerances import TOL_ZERO_FACTOR

# rows of basis evaluation per block; moments are summed block by block
_BLOCK = 4096


@dataclass
class SampleSet:
    """Ordered collection of d-dimensional points.

    The ordering is significant: rule construction consumes the points
    as a stream, and different orderings give different (equally valid)
    rules.
    """

    points: np.ndarray
    provenance: dict | str = "memory"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DimensionMismatch("samples must form a non-empty (n, d) array with d >= 1")
        if not np.isfinite(pts).all():
            raise InvalidSpec("samples must be finite (found NaN or inf)")
        self.points = pts

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class MomentVector:
    """Raw moments mu_j = average of phi_j over the consumed samples."""

    values: np.ndarray
    K: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


class BlockMoments:
    """Basis blocks of a point set, summed into its moments on the way.

    Iterating yields (first row, basis block) over blocks of _BLOCK rows
    from row 0 and adds each block to a compensated (Kahan over block
    partial sums) total; `moments` is valid once iteration is complete.
    """

    def __init__(self, spec: BasisSpec, points: np.ndarray):
        if points.shape[1] != spec.d:
            raise DimensionMismatch("sample dimension does not match basis")
        self.spec = spec
        self.points = points
        self._total = np.zeros(spec.size)

    def __iter__(self):
        comp = np.zeros(self.spec.size)
        for lo in range(0, self.points.shape[0], _BLOCK):
            block = basis_matrix(self.spec, self.points[lo : lo + _BLOCK])
            s = block.sum(axis=1) - comp
            t = self._total + s
            comp = (t - self._total) - s
            self._total = t
            yield lo, block

    def moments(self) -> MomentVector:
        n = self.points.shape[0]
        return MomentVector(values=self._total / n, K=n - 1)


def sample_moments(samples: SampleSet, spec: BasisSpec) -> MomentVector:
    """Compensated (Kahan over block partial sums) raw sample moments."""
    blocks = BlockMoments(spec, samples.points)
    for _ in blocks:
        pass
    return blocks.moments()


@dataclass
class QuadratureRule:
    """Nodes, weights, and provenance of one constructed rule."""

    nodes: np.ndarray
    weights: np.ndarray
    spec: BasisSpec
    K: int
    source_indices: np.ndarray = field(default=None)
    fixed_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.ndim == 1:
            self.nodes = self.nodes.reshape(-1, 1)
        self.weights = np.asarray(self.weights, dtype=float)
        n = self.nodes.shape[0]
        if self.weights.shape[0] != n:
            raise DimensionMismatch("node and weight counts differ")
        if n and self.nodes.shape[1] != self.spec.d:
            raise DimensionMismatch(
                f"nodes have {self.nodes.shape[1]} columns, the basis has d = {self.spec.d}"
            )
        if self.source_indices is None:
            self.source_indices = np.full(n, -1, dtype=np.intp)
        else:
            self.source_indices = np.asarray(self.source_indices, dtype=np.intp)
        if self.fixed_mask is None:
            self.fixed_mask = np.zeros(n, dtype=bool)
        else:
            self.fixed_mask = np.asarray(self.fixed_mask, dtype=bool)
        for name in ("source_indices", "fixed_mask"):
            if getattr(self, name).shape != (n,):
                raise DimensionMismatch(f"{name} needs one entry per node")

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def apply(self, values) -> float:
        """Weighted sum over per-node integrand values."""
        values = np.asarray(values, dtype=float)
        if values.shape[0] != self.n_nodes:
            raise DimensionMismatch("one value per node required")
        return float(np.dot(self.weights, values))

    def integrate(self, fn) -> float:
        return self.apply(np.array([fn(x) for x in self.nodes]))

    def vandermonde(self) -> np.ndarray:
        return basis_matrix(self.spec, self.nodes)

    def moment_residual(self, moments: MomentVector | np.ndarray) -> float:
        mu = moments.values if isinstance(moments, MomentVector) else np.asarray(moments)
        return float(np.abs(self.vandermonde() @ self.weights - mu).max())

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "K": int(self.K),
            "nodes": [[float(v) for v in row] for row in self.nodes],
            "weights": [float(w) for w in self.weights],
            "source_indices": [int(i) for i in self.source_indices],
            "fixed_mask": [bool(b) for b in self.fixed_mask],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuadratureRule":
        require_keys(
            data, ("spec", "K", "nodes", "weights", "source_indices", "fixed_mask"), "rule"
        )
        # no entry is truncated or cast (a bool is no index, weight or coordinate)
        for key, what, valid in (
            # -1 marks a node without a source index; an index is an np.intp
            ("source_indices", "ints from -1 to below 2**63",
             lambda v: type(v) is int and -1 <= v < 2**63),
            ("fixed_mask", "bools", lambda v: type(v) is bool),
            ("weights", "numbers", is_number),
            # all() reaches the first row, which sets the length, before the others
            ("nodes", "lists of numbers of one length", lambda v: isinstance(v, list)
             and len(v) == len(data["nodes"][0]) and all(map(is_number, v))),
        ):
            if not (isinstance(data[key], list) and all(map(valid, data[key]))):
                raise InvalidSpec(f"rule {key!r} must be a list of {what}")
        rule = cls(
            nodes=np.asarray(data["nodes"], dtype=float),
            weights=np.asarray(data["weights"], dtype=float),
            spec=BasisSpec.from_json_dict(data["spec"]),
            K=require_int(data["K"], "rule 'K'"),
            source_indices=np.asarray(data["source_indices"], dtype=np.intp),
            fixed_mask=np.asarray(data["fixed_mask"], dtype=bool),
        )
        if not (np.isfinite(rule.weights).all() and (rule.weights >= 0.0).all()):
            raise InvalidSpec("rule 'weights' must be finite and non-negative")
        if not np.isfinite(rule.nodes).all():
            raise InvalidSpec("rule 'nodes' must be finite")
        # K + 1 samples were consumed, a different one for each node drawn
        # from the stream; the base nodes of a resampled extension have no
        # source index (-1)
        drawn = set()
        for i in rule.source_indices.tolist():
            if i in drawn:
                raise InvalidSpec(f"rule 'source_indices' repeats sample {i}")
            if i >= 0:
                drawn.add(i)
        if rule.K < max(len(drawn) - 1, 0):
            raise InvalidSpec(
                f"rule 'K' is {rule.K}, but {len(drawn)} nodes come from the stream"
            )
        return rule

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "QuadratureRule":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def removal_interval(weights: np.ndarray, c: np.ndarray):
    """(alpha_min, at_min, alpha_max, at_max): the scalings of one removal.

    alpha_max is the smallest ratio w_k / c_k over c_k > 0 and alpha_min
    the largest over c_k < 0; `at_max` and `at_min` are the ascending
    positions whose ratio equals that end exactly, the nodes each end
    zeroes.  For weights of any sign, a removal keeping all weights
    non-negative exists iff alpha_min <= alpha_max; for non-negative
    weights the interval always brackets zero.
    """
    pos = c > 0.0
    neg = c < 0.0
    if not any_of(pos) or not any_of(neg):
        raise DegenerateNullVector(
            "null vector lacks entries of both signs (zero-sum structure broken)"
        )
    ratios = np.empty(c.shape[0])
    ratios.fill(np.inf)
    np.divide(weights, c, out=ratios, where=pos)
    alpha_max = smallest(ratios)
    at_max = (ratios == alpha_max).nonzero()[0]
    ratios.fill(-np.inf)
    np.divide(weights, c, out=ratios, where=neg)
    alpha_min = largest(ratios)
    at_min = (ratios == alpha_min).nonzero()[0]
    return float(alpha_min), at_min, float(alpha_max), at_max


def apply_removal(weights: np.ndarray, c: np.ndarray, alpha: float, attained) -> np.ndarray:
    """w - alpha*c with the attaining entries zeroed exactly."""
    out = weights - alpha * c
    out[np.asarray(attained, dtype=np.intp)] = 0.0
    return out


def choose_alpha(v: np.ndarray, c: np.ndarray):
    """(alpha, attained indices) of the smallest-magnitude removal.

    Ties in magnitude go to the positive side (alpha_max).
    """
    alpha_min, at_min, alpha_max, at_max = removal_interval(v, c)
    if abs(alpha_max) <= abs(alpha_min):
        return alpha_max, at_max
    return alpha_min, at_min


def dropped_mask(w_new: np.ndarray) -> np.ndarray:
    """Weights at or below the drop threshold; raises on one below minus it."""
    tol_zero = TOL_ZERO_FACTOR * max(float(largest(w_new)), 0.0)
    low = float(smallest(w_new))
    if low < -tol_zero:
        raise NullSpaceFailure(f"removal produced weight {low:.3e} below -{tol_zero:.3e}")
    return w_new <= tol_zero


def construct_fixed_rule(samples: SampleSet, spec: BasisSpec) -> QuadratureRule:
    """Positive rule on a subset of the samples, exact on the full basis.

    Consumes the stream in order; the result has at most `spec.size`
    nodes, all drawn bit-for-bit from the samples, with non-negative
    weights summing to one.  Identical inputs give identical rules.
    """
    from .nested import run_stream  # nested builds on this module

    pts = samples.points
    if pts.shape[1] != spec.d:
        raise DimensionMismatch("sample dimension does not match basis")
    m = spec.size
    if pts.shape[0] < m:
        raise InsufficientSamples(
            f"{pts.shape[0]} samples cannot support a basis of size {m}"
        )
    start = QuadratureRule(
        nodes=pts[:m].copy(),
        weights=np.full(m, 1.0 / m),
        spec=spec,
        K=m - 1,
        source_indices=np.arange(m),
    )
    return run_stream(start, pts, np.arange(m, pts.shape[0]), 10**6)
