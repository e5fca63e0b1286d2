"""Quadrature-rule data model, sample moments, and the fixed rule.

A rule is a weighted subset of a sample stream that reproduces the raw
moments of every basis function over the full stream.  Construction is
a single pass: each incoming sample is appended with the weight update
that keeps moments exact, then a node is deleted along a null direction
of the extended Vandermonde matrix so the node count never exceeds the
basis size and all weights stay non-negative.

Most steps delete the incoming sample itself, which only reweights the
current support S.  The pass therefore runs block-speculatively: while
S is fixed, k such steps leave the weights at
(c0 w0 + z_1 + ... + z_k) / (c0 + k) with z_j = V_S^-1 phi(y_j), so a
chunk of samples is solved with one matrix product, its weight
trajectory is a prefix sum, and the ratio test runs vectorized over the
chunk.  At the first sample the scalar step might resolve otherwise
(rejected residual, near tie, swap, multi-delete) the prefix is
committed and that sample takes the scalar step.  Chunk lengths follow
the observed run lengths, and speculation backs off on streams where
runs keep failing at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, basis_matrix
from .errors import (
    DegenerateNullVector,
    DimensionMismatch,
    ExactnessViolation,
    InsufficientSamples,
    NullSpaceFailure,
)
from .linalg import ExtensionFactorization, lead_negative

TOL_MOM = 1e-8
TOL_ZERO_FACTOR = 1e-13

ALPHA_POLICIES = ("alpha1", "alpha2", "smallest_abs")

_BLOCK = 4096
# a speculated step must win its ratio test, and keep its weights above the
# drop threshold, by this relative margin; closer calls take the scalar step
_NEAR_TIE = 1e-9
_MIN_CHUNK = 16
_MAX_CHUNK = 256


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


def sample_moments(samples: SampleSet, spec: BasisSpec) -> MomentVector:
    """Compensated (Kahan over block partial sums) raw sample moments."""
    pts = samples.points
    if pts.shape[1] != spec.d:
        raise DimensionMismatch("sample dimension does not match basis")
    total = np.zeros(spec.size)
    comp = np.zeros(spec.size)
    for start in range(0, pts.shape[0], _BLOCK):
        block = basis_matrix(spec, pts[start : start + _BLOCK])
        s = block.sum(axis=1) - comp
        t = total + s
        comp = (t - total) - s
        total = t
    values = total / pts.shape[0]
    return MomentVector(values=values, K=pts.shape[0] - 1)


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
    from .errors import SingularSystem

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
    if resid > 1e-9 * max(1.0, np.abs(mu).max()):
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


def _signed_ratio_extrema(weights: np.ndarray, c: np.ndarray):
    """(alpha_min, k_min, alpha_max, k_max) of the feasibility interval."""
    pos = c > 0.0
    neg = c < 0.0
    if not pos.any() or not neg.any():
        raise DegenerateNullVector(
            "null vector lacks entries of both signs (zero-sum structure broken)"
        )
    ratios = np.full(c.shape[0], np.inf)
    ratios[pos] = weights[pos] / c[pos]
    k_max = int(np.argmin(ratios))
    alpha_max = float(ratios[k_max])
    ratios = np.full(c.shape[0], -np.inf)
    ratios[neg] = weights[neg] / c[neg]
    k_min = int(np.argmax(ratios))
    alpha_min = float(ratios[k_min])
    return alpha_min, k_min, alpha_max, k_max


def select_alpha(weights: np.ndarray, c: np.ndarray):
    """Both node-removal scalings for a rule with non-negative weights.

    alpha_1 zeroes the minimizing positive-direction node, alpha_2 the
    maximizing negative-direction node; either keeps all other weights
    non-negative.
    """
    weights = np.asarray(weights, dtype=float)
    c = np.asarray(c, dtype=float)
    alpha_min, k_min, alpha_max, k_max = _signed_ratio_extrema(weights, c)
    return alpha_max, k_max, alpha_min, k_min


def removal_interval(weights: np.ndarray, c: np.ndarray):
    """Feasible scaling interval for one removal, weights of any sign.

    Returns (alpha_min, k_min, alpha_max, k_max, feasible).  A removal
    keeping all weights non-negative exists iff alpha_min <= alpha_max;
    for non-negative weights the interval always brackets zero.
    """
    weights = np.asarray(weights, dtype=float)
    c = np.asarray(c, dtype=float)
    alpha_min, k_min, alpha_max, k_max = _signed_ratio_extrema(weights, c)
    return alpha_min, k_min, alpha_max, k_max, alpha_min <= alpha_max


def _attained_indices(weights: np.ndarray, c: np.ndarray, alpha: float, side: int):
    """All indices on the chosen sign side whose ratio equals alpha exactly."""
    mask = c > 0.0 if side > 0 else c < 0.0
    idx = np.nonzero(mask)[0]
    return idx[weights[idx] / c[idx] == alpha]


def apply_removal(weights: np.ndarray, c: np.ndarray, alpha: float, attained) -> np.ndarray:
    """w - alpha*c with the attaining entries zeroed exactly."""
    out = weights - alpha * c
    out[np.asarray(attained, dtype=np.intp)] = 0.0
    return out


def choose_alpha(v: np.ndarray, c: np.ndarray, policy: str):
    """(alpha, attained indices) under the given selection policy."""
    if policy not in ALPHA_POLICIES:
        raise ValueError(f"unknown alpha policy {policy!r}")
    alpha1, _, alpha2, _ = select_alpha(v, c)
    if policy == "alpha1":
        alpha, side = alpha1, +1
    elif policy == "alpha2":
        alpha, side = alpha2, -1
    elif abs(alpha1) <= abs(alpha2):
        alpha, side = alpha1, +1
    else:
        alpha, side = alpha2, -1
    return alpha, _attained_indices(v, c, alpha, side)


def remove_one(ext_rule: QuadratureRule, c, choice: str = "smallest_abs") -> QuadratureRule:
    """Delete the nodes zeroed by the chosen scaling of the null direction.

    Every node whose new weight falls below the drop threshold is
    removed, which covers simultaneous zeros; the survivors are
    renormalized to unit weight sum.
    """
    c = np.asarray(c, dtype=float)
    v = ext_rule.weights
    alpha, attained = choose_alpha(v, c, choice)
    w_new = apply_removal(v, c, alpha, attained)
    keep = _keep_mask(w_new)
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


def _keep_mask(w_new: np.ndarray) -> np.ndarray:
    tol_zero = TOL_ZERO_FACTOR * max(float(w_new.max()), 0.0)
    if float(w_new.min()) < -tol_zero:
        raise NullSpaceFailure(
            f"removal produced weight {w_new.min():.3e} below -{tol_zero:.3e}"
        )
    return w_new > tol_zero


class _FixedRuleEngine:
    """Single pass of the fixed-rule iteration over a sample stream."""

    def __init__(self, spec: BasisSpec, init_nodes, init_src, alpha_policy: str):
        if alpha_policy not in ALPHA_POLICIES:
            raise ValueError(f"unknown alpha policy {alpha_policy!r}")
        self.spec = spec
        self.X = np.array(init_nodes, dtype=float)
        n = self.X.shape[0]
        self.w = np.full(n, 1.0 / n)
        self.src = np.array(init_src, dtype=np.intp)
        self.consumed = n
        self.policy = alpha_policy
        self.fact = ExtensionFactorization(basis_matrix(spec, self.X))

    def feed(self, y: np.ndarray, col: np.ndarray, src_idx: int) -> None:
        m = self.spec.size
        n = self.X.shape[0]
        count = self.consumed
        self.consumed += 1
        scale = count / (count + 1.0)
        tail = 1.0 / (count + 1.0)
        if n < m:
            # below capacity: nothing can be removed, the rule just grows
            self.X = np.vstack([self.X, y])
            self.w = np.concatenate([self.w * scale, [tail]])
            self.src = np.concatenate([self.src, [src_idx]])
            self.fact.append_column(col)
            return
        v = np.concatenate([self.w * scale, [tail]])
        c = self.fact.null_vector_extended(col)
        alpha, attained = choose_alpha(v, c, self.policy)
        w_new = apply_removal(v, c, alpha, attained)
        keep = _keep_mask(w_new)
        dropped = np.nonzero(~keep)[0]
        if dropped.shape[0] == 1 and dropped[0] == n:
            # the incoming sample itself was removed
            self.w = w_new[:n]
        elif dropped.shape[0] == 1:
            # the new node takes the vacated slot
            j = int(dropped[0])
            w = w_new[:n]
            w[j] = w_new[n]
            self.w = w
            self.X[j] = y
            self.src[j] = src_idx
            self.fact.replace_column(j, col)
        else:
            keep_old = keep[:n]
            self.fact.remove_columns(np.nonzero(keep_old)[0])
            self.X = self.X[keep_old]
            self.w = w_new[:n][keep_old]
            self.src = self.src[keep_old]
            if keep[n]:
                self.X = np.vstack([self.X, y])
                self.w = np.concatenate([self.w, [w_new[n]]])
                self.src = np.concatenate([self.src, [src_idx]])
                self.fact.append_column(col)
        self.w /= self.w.sum()

    def drop_run(self, cols: np.ndarray) -> int:
        """Take the leading drop-incoming steps of a chunk of columns.

        Returns how many leading columns were consumed, each as `feed`
        would have (up to rounding in the weights): the fast-path solve
        is accepted, the incoming sample wins the ratio test strictly
        under the alpha policy, and every old weight stays above the
        drop threshold.  Returns 0 when the support is not a full square
        base with a cached inverse.
        """
        if self.X.shape[0] != self.spec.size:
            return 0
        solved = self.fact.solve_block(cols)
        if solved is None:
            return 0
        Z, ok = solved
        start = self.consumed * self.w
        # column j holds (c0 + j + 1) times the weights after step j
        S = np.cumsum(Z, axis=1)
        S += start[:, None]
        prev = np.hstack([start[:, None], S[:, :-1]])
        prev *= 1.0 - _NEAR_TIE
        if self.policy == "smallest_abs":
            # the incoming ratio must beat every old node on both sides
            reach = np.abs(Z)
        else:
            # alpha1/alpha2 consult only the side holding the incoming entry
            reach = np.maximum(-Z, 0.0)
            ok &= lead_negative(Z) == (self.policy == "alpha1")
        ok &= (reach < prev).all(axis=0)
        tol_zero = TOL_ZERO_FACTOR / (1.0 - _NEAR_TIE) * S.max(axis=0)
        ok &= (S > tol_zero).all(axis=0)
        # `feed` raises when one side of the null direction is empty
        ok &= (Z > 0.0).any(axis=0)
        run = ok.shape[0] if ok.all() else int(np.argmin(ok))
        if run:
            w = S[:, run - 1]
            self.w = w / w.sum()
            self.consumed += run
        return run


class _Speculation:
    """Chunk length and back-off of the block-speculative pass.

    Chunks stay within _MIN_CHUNK.._MAX_CHUNK columns.  A chunk consumed
    whole doubles the next one; a run that ends inside a chunk sets the
    next to twice its length.  A run that fails on its first column
    makes the pass feed the next samples one at a time, for a count
    that doubles with each consecutive such failure.
    """

    def __init__(self):
        self.chunk = _MIN_CHUNK
        self.backoff = 1
        self.wait = 0

    def observe(self, run: int, span: int) -> None:
        if run == span:
            self.chunk = min(2 * self.chunk, _MAX_CHUNK)
            self.backoff = 1
        elif run == 0:
            self.chunk = _MIN_CHUNK
            self.wait = self.backoff
            self.backoff = min(2 * self.backoff, _BLOCK)
        else:
            self.chunk = min(max(2 * run, _MIN_CHUNK), _MAX_CHUNK)
            self.backoff = 1


def _column_blocks(spec: BasisSpec, pts: np.ndarray, start: int):
    for lo in range(start, pts.shape[0], _BLOCK):
        yield lo, basis_matrix(spec, pts[lo : lo + _BLOCK])


def construct_fixed_rule(
    samples: SampleSet,
    spec: BasisSpec,
    alpha_policy: str = "smallest_abs",
    validate: bool = True,
) -> QuadratureRule:
    """Positive rule on a subset of the samples, exact on the full basis.

    Consumes the stream in order; the result has at most `spec.size`
    nodes, all drawn bit-for-bit from the samples, with non-negative
    weights summing to one.  Identical inputs give identical rules.
    """
    pts = samples.points
    if pts.shape[1] != spec.d:
        raise DimensionMismatch("sample dimension does not match basis")
    m = spec.size
    if pts.shape[0] < m:
        raise InsufficientSamples(
            f"{pts.shape[0]} samples cannot support a basis of size {m}"
        )
    engine = _FixedRuleEngine(spec, pts[:m], np.arange(m), alpha_policy)
    pace = _Speculation()
    for lo, block in _column_blocks(spec, pts, m):
        j = 0
        while j < block.shape[1]:
            if pace.wait:
                pace.wait -= 1
            else:
                span = min(pace.chunk, block.shape[1] - j)
                run = engine.drop_run(block[:, j : j + span])
                pace.observe(run, span)
                j += run
                if run == span:
                    continue
            k = lo + j
            try:
                engine.feed(pts[k], block[:, j], k)
            except (NullSpaceFailure, DegenerateNullVector) as exc:
                raise NullSpaceFailure(
                    f"construction failed at sample {k}: {exc}", sample_index=k
                ) from exc
            j += 1
    rule = QuadratureRule(
        nodes=engine.X,
        weights=engine.w,
        spec=spec,
        K=pts.shape[0] - 1,
        source_indices=engine.src,
    )
    if validate:
        resid = rule.moment_residual(sample_moments(samples, spec))
        if resid > TOL_MOM:
            raise ExactnessViolation(
                f"moment residual {resid:.3e} exceeds {TOL_MOM:.1e}"
            )
    return rule
