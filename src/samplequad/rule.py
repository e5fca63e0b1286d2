"""Quadrature-rule data model, sample moments, and the removal step.

A rule is a weighted subset of a sample stream that reproduces the raw
moments of every basis function over the full stream.  One removal
scales a null direction by the smallest-|alpha| that zeroes a node
(ties to the positive side) and drops every weight that reaches zero.
`construct_fixed_rule` runs the streaming engine of `samplequad.nested`
without fixed nodes: a fixed rule is an extension with no base.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, basis_matrix
from .errors import DimensionMismatch, InsufficientSamples, NullSpaceFailure, SingularSystem
from .removal import attained_indices, ratio_extrema
from .tolerances import TOL_SOLVE, TOL_ZERO_FACTOR

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
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise DimensionMismatch("samples must form a non-empty (n, d) array")
        self.points = pts

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def K(self) -> int:
        """Index of the last sample (count - 1)."""
        return self.points.shape[0] - 1

    def __len__(self) -> int:
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
        if self.source_indices is None:
            self.source_indices = np.full(n, -1, dtype=np.intp)
        else:
            self.source_indices = np.asarray(self.source_indices, dtype=np.intp)
        if self.fixed_mask is None:
            self.fixed_mask = np.zeros(n, dtype=bool)
        else:
            self.fixed_mask = np.asarray(self.fixed_mask, dtype=bool)

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

    def stability_gap(self) -> float:
        """|sum|w| - 1|; zero for a normalized non-negative rule."""
        return abs(float(np.abs(self.weights).sum()) - 1.0)

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
        return cls(
            nodes=np.asarray(data["nodes"], dtype=float),
            weights=np.asarray(data["weights"], dtype=float),
            spec=BasisSpec.from_json_dict(data["spec"]),
            K=int(data["K"]),
            source_indices=np.asarray(data["source_indices"], dtype=np.intp),
            fixed_mask=np.asarray(data["fixed_mask"], dtype=bool),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "QuadratureRule":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def solve_interpolatory_weights(nodes, moments, spec: BasisSpec) -> np.ndarray:
    """Weights of the square interpolatory system V w = mu.

    The weights may be negative; positivity is not this operation's
    concern.  Raises SingularSystem when the nodes are not unisolvent
    for the basis.
    """
    mu = moments.values if isinstance(moments, MomentVector) else np.asarray(moments, float)
    V = basis_matrix(spec, np.asarray(nodes, dtype=float))
    if V.shape[0] != V.shape[1]:
        raise DimensionMismatch(
            f"square system required: {V.shape[0]} basis functions, {V.shape[1]} nodes"
        )
    try:
        w = np.linalg.solve(V, mu)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    resid = np.abs(V @ w - mu).max()
    if resid > TOL_SOLVE * max(1.0, np.abs(mu).max()):
        raise SingularSystem(f"solve residual {resid:.3e} too large")
    return w


def add_sample(rule: QuadratureRule, y) -> QuadratureRule:
    """Append one sample as a node, rescaling weights to keep moments exact.

    Old weights shrink by (K+1)/(K+2) and the new node receives
    1/(K+2), which reproduces the moment update of the enlarged stream.
    """
    y = np.asarray(y, dtype=float).reshape(1, -1)
    if y.shape[1] != rule.spec.d:
        raise DimensionMismatch("sample dimension does not match rule")
    count = rule.K + 1
    scale = count / (count + 1.0)
    weights = np.concatenate([rule.weights * scale, [1.0 / (count + 1.0)]])
    return QuadratureRule(
        nodes=np.vstack([rule.nodes, y]),
        weights=weights,
        spec=rule.spec,
        K=rule.K + 1,
        source_indices=np.concatenate([rule.source_indices, [rule.K + 1]]),
        fixed_mask=np.concatenate([rule.fixed_mask, [False]]),
    )


def select_alpha(weights: np.ndarray, c: np.ndarray):
    """Both node-removal scalings for a rule with non-negative weights.

    alpha_1 zeroes the minimizing positive-direction node, alpha_2 the
    maximizing negative-direction node; either keeps all other weights
    non-negative.
    """
    weights = np.asarray(weights, dtype=float)
    c = np.asarray(c, dtype=float)
    alpha_min, k_min, alpha_max, k_max = ratio_extrema(weights, c)
    return alpha_max, k_max, alpha_min, k_min


def removal_interval(weights: np.ndarray, c: np.ndarray):
    """Feasible scaling interval for one removal, weights of any sign.

    Returns (alpha_min, k_min, alpha_max, k_max, feasible).  A removal
    keeping all weights non-negative exists iff alpha_min <= alpha_max;
    for non-negative weights the interval always brackets zero.
    """
    alpha_max, k_max, alpha_min, k_min = select_alpha(weights, c)
    return alpha_min, k_min, alpha_max, k_max, alpha_min <= alpha_max


def apply_removal(weights: np.ndarray, c: np.ndarray, alpha: float, attained) -> np.ndarray:
    """w - alpha*c with the attaining entries zeroed exactly."""
    out = weights - alpha * c
    out[np.asarray(attained, dtype=np.intp)] = 0.0
    return out


def choose_alpha(v: np.ndarray, c: np.ndarray):
    """(alpha, attained indices) of the smallest-magnitude removal.

    Ties in magnitude go to the positive side (alpha_1).
    """
    alpha1, _, alpha2, _ = select_alpha(v, c)
    if abs(alpha1) <= abs(alpha2):
        alpha, side = alpha1, +1
    else:
        alpha, side = alpha2, -1
    return alpha, attained_indices(v, c, alpha, side)


def dropped_mask(w_new: np.ndarray) -> np.ndarray:
    """Weights at or below the drop threshold; raises on one below minus it."""
    tol_zero = TOL_ZERO_FACTOR * max(float(w_new.max()), 0.0)
    if float(w_new.min()) < -tol_zero:
        raise NullSpaceFailure(
            f"removal produced weight {w_new.min():.3e} below -{tol_zero:.3e}"
        )
    return w_new <= tol_zero


def remove_one(ext_rule: QuadratureRule, c) -> QuadratureRule:
    """Delete the nodes zeroed by the smallest removal along `c`.

    Every node whose new weight falls below the drop threshold is
    removed, which covers simultaneous zeros; the survivors are
    renormalized to unit weight sum.
    """
    c = np.asarray(c, dtype=float)
    v = ext_rule.weights
    alpha, attained = choose_alpha(v, c)
    w_new = apply_removal(v, c, alpha, attained)
    keep = ~dropped_mask(w_new)
    weights = w_new[keep]
    weights /= weights.sum()
    return QuadratureRule(
        nodes=ext_rule.nodes[keep],
        weights=weights,
        spec=ext_rule.spec,
        K=ext_rule.K,
        source_indices=ext_rule.source_indices[keep],
        fixed_mask=ext_rule.fixed_mask[keep],
    )


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
    # without fixed nodes no step draws or enumerates removals
    rng = np.random.default_rng(0)
    return run_stream(start, pts, np.arange(m, pts.shape[0]), rng, 10**6)
