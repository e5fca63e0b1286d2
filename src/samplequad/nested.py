"""The streaming engine, and nested rule extension on top of it.

One engine builds every rule.  Each sample of the stream is appended
with the weight update that keeps the moments exact, then a removal
along a null direction of the extended Vandermonde restores the node
count with non-negative weights.  Fixed nodes (the nodes of the rule
being extended) are never deleted: a removal that zeroes one leaves it
in place with weight zero.  A fixed rule is a stream without them.

With a one-dimensional null space the step takes the smallest-|alpha|
removal (ties to the positive side).  Only if that zeroes a fixed node
are both removals priced: the one deleting more non-fixed nodes wins,
and a seeded draw breaks ties.  With zero-weight fixed nodes the null
space is larger, and the step enumerates all removals of that size,
choosing one that deletes the most non-fixed nodes (same tie break).
The walk over them starts at the vertex the fast-path null vector's
smallest-|alpha| removal reaches, saving the SVDs of a cold start.

Most steps delete the incoming sample, which only reweights the
support S, so the stream runs block-speculatively: k such steps leave
the weights at (c0 w0 + z_1 + ... + z_k) / (c0 + k) with
z_j = V_S^-1 phi(y_j), so a chunk of samples costs one matrix product,
a prefix sum and a vectorized ratio test.  The first sample that might
resolve otherwise takes the scalar step; chunk lengths follow the
observed run lengths, backing off where runs keep failing at once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .basis import basis_matrix
from .errors import (
    DegenerateNullVector,
    DimensionMismatch,
    ExactnessViolation,
    InsufficientSamples,
    MissingEvaluation,
    ModeMismatch,
    NullSpaceFailure,
)
from .linalg import ExtensionFactorization, null_space
from .linalg import null_vector  # noqa: F401  (perfbench's timing shims wrap it here)
from .removal import Removal, RemovalProblem, attained_indices
from .rule import _BLOCK, BlockMoments, QuadratureRule, SampleSet
from .rule import apply_removal, choose_alpha, dropped_mask, removal_interval
from .rule import sample_moments  # noqa: F401  (perfbench's timing shims wrap it here)
from .tolerances import TOL_MOM, TOL_NEAR_TIE, TOL_ZERO_FACTOR

log = logging.getLogger(__name__)

_MIN_CHUNK = 16
_MAX_CHUNK = 256

CONTINUE_SAMPLES = "continue_samples"
INCREASE_DEGREE = "increase_degree"
RESAMPLED = "resampled"
MODES = (CONTINUE_SAMPLES, INCREASE_DEGREE, RESAMPLED)


@dataclass
class ExtensionRequest:
    """What to extend, toward which basis size, and from which samples.

    The base must have nodes; `construct_fixed_rule` builds the first rule.
    """

    base: QuadratureRule
    target_basis_size: int
    sample_source: SampleSet
    mode: str
    removal_cap: int = 10**6

    def __post_init__(self):
        if self.mode not in MODES:
            raise ModeMismatch(f"unknown extension mode {self.mode!r}")
        if self.base is None or self.base.n_nodes == 0:
            raise ModeMismatch(
                "extension needs a base rule with nodes; "
                "construct_fixed_rule builds the first rule"
            )
        if self.target_basis_size < self.base.spec.size:
            raise ModeMismatch("target basis must be at least as large as the base")
        if self.sample_source.d != self.base.spec.d:
            raise DimensionMismatch("sample dimension does not match base rule")


def _check_nodes_in_stream(base: QuadratureRule, source: SampleSet, what: str):
    pts = source.points
    for node, idx in zip(base.nodes, base.source_indices):
        if idx < 0 or idx >= pts.shape[0] or not np.array_equal(pts[idx], node):
            raise ModeMismatch(
                f"{what} requires the original sample stream; node with source "
                f"index {idx} does not match"
            )


def initialize_extension(req: ExtensionRequest):
    """Working rule plus the rows of the sample source still to stream.

    Returns (rule, stream_indices): the ascending positions, inside the
    request's sample source, of the samples the extension streams past
    the working rule; they also tag node provenance.
    """
    source = req.sample_source
    spec = replace(req.base.spec, size=req.target_basis_size)
    base = req.base
    if req.mode == CONTINUE_SAMPLES:
        if req.target_basis_size != base.spec.size:
            raise ModeMismatch("continue_samples cannot change the basis size")
        _check_nodes_in_stream(base, source, CONTINUE_SAMPLES)
        if source.count <= base.K:
            raise ModeMismatch("sample source is shorter than the consumed prefix")
        work = QuadratureRule(
            nodes=base.nodes.copy(),
            weights=base.weights.copy(),
            spec=spec,
            K=base.K,
            source_indices=base.source_indices.copy(),
            fixed_mask=np.ones(base.n_nodes, dtype=bool),
        )
        return work, np.arange(base.K + 1, source.count)

    if req.mode == INCREASE_DEGREE:
        _check_nodes_in_stream(base, source, INCREASE_DEGREE)
        n = base.n_nodes
        remaining = np.ones(source.count, dtype=bool)
        remaining[base.source_indices] = False
        work = QuadratureRule(
            nodes=base.nodes.copy(),
            weights=np.full(n, 1.0 / n),
            spec=spec,
            K=n - 1,
            source_indices=base.source_indices.copy(),
            fixed_mask=np.ones(n, dtype=bool),
        )
        return work, np.nonzero(remaining)[0]

    # resampled: the stream is fresh, base nodes are generally not in it
    if source.count < 1:
        raise InsufficientSamples("resampled extension needs at least one sample")
    nodes = np.vstack([base.nodes, source.points[:1]])
    n = base.n_nodes
    work = QuadratureRule(
        nodes=nodes,
        weights=np.concatenate([np.zeros(n), [1.0]]),
        spec=spec,
        K=0,
        source_indices=np.concatenate([np.full(n, -1, dtype=np.intp), [0]]),
        fixed_mask=np.concatenate([np.ones(n, dtype=bool), [False]]),
    )
    return work, np.arange(1, source.count)


class _StreamEngine:
    """The per-sample iteration, with fixed-node bookkeeping.

    A factorization of the square Vandermonde over the positively
    weighted (support) nodes is kept across iterations; `fact_cols`
    records which node position each factorization column holds.  Most
    iterations change the support by at most a couple of nodes, which
    is handled by rank-one column exchanges instead of refactorizing.
    """

    def __init__(self, work: QuadratureRule, rng, removal_cap):
        self.spec = work.spec
        self.X = work.nodes.copy()
        self.w = work.weights.copy()
        self.src = work.source_indices.copy()
        self.fixed = work.fixed_mask.copy()
        self.consumed = work.K + 1
        self.rng = rng
        self.removal_cap = removal_cap
        self.Vall = basis_matrix(self.spec, self.X)
        self.fact = None
        self.fact_cols = None
        self._rebuild_fact()

    def rule(self) -> QuadratureRule:
        return QuadratureRule(
            nodes=self.X,
            weights=self.w,
            spec=self.spec,
            K=self.consumed - 1,
            source_indices=self.src,
            fixed_mask=self.fixed,
        )

    def _rebuild_fact(self):
        b = self.spec.size
        support = np.nonzero(self.w > 0.0)[0]
        if self.X.shape[0] < b or support.shape[0] != b:
            self.fact = None
            self.fact_cols = None
        else:
            self.fact = ExtensionFactorization(np.take(self.Vall, support, axis=1))
            self.fact_cols = support.copy()

    def _sync_fact(self, remap):
        """Follow support changes with column exchanges where possible.

        `remap` maps old node positions to new ones (-1 when deleted).
        Falls back to a full rebuild when more than a few columns moved.
        """
        if self.fact is None:
            self._rebuild_fact()
            return
        b = self.spec.size
        support_mask = self.w > 0.0
        if int(support_mask.sum()) != b:
            self._rebuild_fact()
            return
        cols = np.full(self.fact_cols.shape, -1, dtype=np.intp)
        mapped = self.fact_cols < remap.shape[0]
        cols[mapped] = remap[self.fact_cols[mapped]]
        alive = (cols >= 0) & support_mask[np.clip(cols, 0, None)]
        taken = np.zeros_like(support_mask)
        taken[cols[alive]] = True
        entrants = np.nonzero(support_mask & ~taken)[0]
        leaver_slots = np.nonzero(~alive)[0]
        if entrants.shape[0] != leaver_slots.shape[0] or entrants.shape[0] > 3:
            self._rebuild_fact()
            return
        for slot, p in zip(leaver_slots, entrants):
            self.fact.replace_column(int(slot), self.Vall[:, p])
            cols[slot] = p
        self.fact_cols = cols

    def feed(self, y, col, src_idx):
        """The scalar step: consume one sample."""
        b = self.spec.size
        n = self.X.shape[0]
        count = self.consumed
        self.consumed += 1
        scale = count / (count + 1.0)
        tail = 1.0 / (count + 1.0)
        if n + 1 <= b:
            # below capacity: the extended system has no null space
            self.w = self.w * scale
            self._append(y, col, src_idx, tail)
            if n + 2 > b:
                self._rebuild_fact()
            return
        v = np.concatenate([self.w * scale, [tail]])
        excess = n + 1 - b
        if excess == 1 and self.fact is not None:
            u, zeroed = self._single_direction(v, col)
        else:
            u, zeroed = self._multi_direction(v, col)
        self._apply(u, zeroed, y, col, src_idx)

    def drop_run(self, cols: np.ndarray) -> int:
        """Take the leading drop-incoming steps of a chunk of columns.

        Returns how many leading columns were consumed, each as `feed`
        would have (up to rounding in the weights): the fast-path solve
        is accepted, the incoming sample wins the ratio test strictly and
        no old weight nears the drop threshold, so nothing is zeroed and
        the draw is not consulted.  Returns 0 unless the support is a
        full square base with a cached inverse.
        """
        if self.fact is None or self.X.shape[0] != self.spec.size:
            return 0
        solved = self.fact.solve_block(cols)
        if solved is None:
            return 0
        Z, ok = solved
        # factorization order: row i of Z belongs to node fact_cols[i]
        start = self.consumed * self.w[self.fact_cols]
        # column j holds (c0 + j + 1) times the weights after step j
        S = np.cumsum(Z, axis=1)
        S += start[:, None]
        prev = np.hstack([start[:, None], S[:, :-1]])
        prev *= 1.0 - TOL_NEAR_TIE
        # the incoming ratio must beat every old node on both sides
        ok &= (np.abs(Z) < prev).all(axis=0)
        tol_zero = TOL_ZERO_FACTOR / (1.0 - TOL_NEAR_TIE) * S.max(axis=0)
        ok &= (S > tol_zero).all(axis=0)
        # `feed` raises when one side of the null direction is empty
        ok &= (Z > 0.0).any(axis=0)
        run = ok.shape[0] if ok.all() else int(np.argmin(ok))
        if run:
            self.w[self.fact_cols] = S[:, run - 1]
            self.w /= self.w.sum()
            self.consumed += run
        return run

    def _append(self, y, col, src_idx, weight):
        self.X = np.vstack([self.X, y])
        self.w = np.concatenate([self.w, [weight]])
        self.src = np.concatenate([self.src, [src_idx]])
        self.fixed = np.concatenate([self.fixed, [False]])
        self.Vall = np.column_stack([self.Vall, col])

    def _candidate(self, v, c, alpha, attained):
        """New weights of one removal, and the positions it zeroed."""
        u = apply_removal(v, c, alpha, attained)
        zero = dropped_mask(u)
        u[zero] = 0.0
        return u, zero.nonzero()[0].tolist()

    def _deletable(self, zeroed):
        """The zeroed positions that are not fixed nodes."""
        n = self.X.shape[0]
        return [k for k in zeroed if k == n or not self.fixed[k]]

    def _embed_at(self, c_loc, pos):
        """Scatter a support-ordered null vector into node order.

        `pos` is the node position of the extension column.
        """
        c = np.zeros(self.X.shape[0] + 1)
        c[self.fact_cols] = c_loc[:-1]
        c[pos] = c_loc[-1]
        return c

    def _pick(self, candidates, zeroed_sets):
        """The candidate whose zeroed set deletes the most non-fixed nodes.

        A seeded draw breaks ties; the generator is consulted only then.
        """
        counts = [len(self._deletable(zeroed)) for zeroed in zeroed_sets]
        best = max(counts)
        pool = [cand for cand, cnt in zip(candidates, counts) if cnt == best]
        return pool[0] if len(pool) == 1 else pool[int(self.rng.integers(len(pool)))]

    def _single_direction(self, v, col):
        n = self.X.shape[0]
        c = self._embed_at(self.fact.null_vector_extended(col), n)
        u, zeroed = self._candidate(v, c, *choose_alpha(v, c))
        if len(self._deletable(zeroed)) == len(zeroed):
            return u, zeroed
        # a fixed node was zeroed: price both removals, prefer the one
        # deleting more non-fixed nodes
        a_min, _, a_max, _, feasible = removal_interval(v, c)
        if not feasible:
            raise NullSpaceFailure("empty removal interval on non-negative weights")
        cands = [
            self._candidate(v, c, alpha, attained_indices(v, c, alpha, side))
            for alpha, side in ((a_max, +1), (a_min, -1))
        ]
        return self._pick(cands, [zeroed for _, zeroed in cands])

    def _null_basis(self, v, col, excess):
        """Null basis of [V, col] and a vertex to seed the removal walk.

        One direction per non-support column.  The last is the fast-path
        null vector, zero at every zero-weight node, so its smallest-|alpha|
        removal plus those nodes is a vertex.  No seed (None) after the SVD
        branch or when the ratio test attains more than one node.
        """
        nonsupport = np.nonzero(self.w == 0.0)[0]
        n = self.X.shape[0]
        if self.fact is None or nonsupport.shape[0] + 1 != excess:
            return null_space(np.column_stack([self.Vall, col]), excess), None
        C = np.empty((n + 1, excess))
        for t, j in enumerate(nonsupport):
            C[:, t] = self._embed_at(self.fact.null_vector_extended(self.Vall[:, j]), j)
        C[:, -1] = self._embed_at(self.fact.null_vector_extended(col), n)
        _, attained = choose_alpha(v, C[:, -1])
        if attained.shape[0] != 1:
            return C, None
        return C, Removal(tuple(sorted(nonsupport.tolist() + attained.tolist())))

    def _multi_direction(self, v, col):
        excess = self.X.shape[0] + 1 - self.spec.size
        C, seed = self._null_basis(v, col, excess)
        problem = RemovalProblem.from_parts(np.column_stack([self.Vall, col]), v, C)
        stats = {}
        removals = problem.enumerate(cap=self.removal_cap, initial=seed, stats=stats)
        if not removals:
            raise NullSpaceFailure("the removal walk found no vertex")
        if stats["capped"]:
            log.debug("removal walk capped at sample %d: %d vertices",
                      self.consumed - 1, len(removals))
        pick = self._pick(removals, [r.zero_indices for r in removals])
        _, w_q = problem.vertex_weights(pick.indices)
        tol = TOL_ZERO_FACTOR * max(float(w_q.max()), 0.0)
        zero = w_q <= tol
        w_q[zero] = 0.0
        return w_q, zero.nonzero()[0].tolist()

    def _apply(self, u, zeroed, y, col, src_idx):
        n = self.X.shape[0]
        deleted = self._deletable(zeroed)
        if not deleted:
            # only fixed nodes were zeroed: the rule physically grows
            self.w = u[:n]
            self._append(y, col, src_idx, u[n])
            self._renorm()
            self._sync_fact(np.arange(n, dtype=np.intp))
        elif deleted == [n]:
            # the incoming sample itself was removed; unless a fixed node
            # was zeroed, a full support of positive weights is unchanged
            changed = len(zeroed) > 1 or self.fact is None or n != self.spec.size
            self.w = u[:n]
            self._renorm()
            if changed:
                self._sync_fact(np.arange(n, dtype=np.intp))
        elif len(zeroed) == 1 and self.fact is not None:
            # clean swap: the new node takes the vacated slot in place
            j = deleted[0]
            w = u[:n].copy()
            w[j] = u[n]
            self.w = w
            self.X[j] = y
            self.src[j] = src_idx
            self.Vall[:, j] = col
            slot = np.nonzero(self.fact_cols == j)[0]
            if slot.shape[0] == 1:
                self.fact.replace_column(int(slot[0]), col)
            else:
                self._rebuild_fact()
            self._renorm()
        else:
            keep_old = np.ones(n, dtype=bool)
            keep_old[[k for k in deleted if k < n]] = False
            remap = np.full(n, -1, dtype=np.intp)
            remap[keep_old] = np.arange(int(keep_old.sum()), dtype=np.intp)
            self.X = self.X[keep_old]
            self.w = u[:n][keep_old]
            self.src = self.src[keep_old]
            self.fixed = self.fixed[keep_old]
            self.Vall = np.ascontiguousarray(self.Vall[:, keep_old])
            if deleted[-1] != n:
                self._append(y, col, src_idx, u[n])
            self._renorm()
            self._sync_fact(remap)

    def _renorm(self):
        total = self.w.sum()
        if total > 0.0:
            self.w /= total


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


def run_stream(work, points, stream_idx, rng, removal_cap) -> QuadratureRule:
    """Stream the rows `stream_idx` (ascending) of `points` past `work`.

    `work` is the starting rule, exact for the rows it has consumed.  The
    basis is evaluated once per row of `points`, for the stream and for
    the moments of all rows, which the result is validated against.
    """
    engine = _StreamEngine(work, rng, removal_cap)
    blocks = BlockMoments(work.spec, points)
    pace = _Speculation()
    for lo, block in blocks:
        first, last = np.searchsorted(stream_idx, (lo, lo + block.shape[1]))
        rows = stream_idx[first:last]
        cols = np.take(block, rows - lo, axis=1)
        j = 0
        while j < rows.shape[0]:
            if pace.wait:
                pace.wait -= 1
            else:
                span = min(pace.chunk, rows.shape[0] - j)
                run = engine.drop_run(cols[:, j : j + span])
                pace.observe(run, span)
                j += run
                if run == span:
                    continue
            k = int(rows[j])
            try:
                engine.feed(points[k], cols[:, j], k)
            except (NullSpaceFailure, DegenerateNullVector) as exc:
                raise NullSpaceFailure(
                    f"stream failed at sample {k}: {exc}", sample_index=k
                ) from exc
            j += 1
    rule = engine.rule()
    resid = rule.moment_residual(blocks.moments())
    if resid > TOL_MOM:
        raise ExactnessViolation(f"moment residual {resid:.3e} exceeds {TOL_MOM:.1e}")
    return rule


def extend_rule(req: ExtensionRequest, selection_seed: int = 0) -> QuadratureRule:
    """Extended rule containing the base nodes, exact on the larger basis.

    The node count N+M+1 obeys D <= N+M <= N+D+1 for target basis size
    D+1 and base node count N+1.  Fixed nodes selected by a removal stay
    with weight zero.  Deterministic for a fixed selection seed.
    """
    work, stream_idx = initialize_extension(req)
    total = work.K + 1 + stream_idx.shape[0]
    if total < req.target_basis_size:
        raise InsufficientSamples(
            f"{total} samples cannot support a basis of size {req.target_basis_size}"
        )
    # in every mode the fully consumed stream is, as a multiset, the whole
    # sample source (increase_degree re-adds the base nodes it skipped)
    rng = np.random.default_rng(selection_seed)
    out = run_stream(work, req.sample_source.points, stream_idx, rng, req.removal_cap)
    base_keys = {row.tobytes() for row in req.base.nodes}
    out_keys = {row.tobytes() for row in out.nodes}
    if not base_keys <= out_keys:
        raise ExactnessViolation("base nodes are not a subset of the extension")
    return out


def nested_error_estimate(
    rule_small: QuadratureRule, rule_large: QuadratureRule, evaluations: dict
) -> float:
    """|A_small u - A_large u| from evaluations at the large rule's nodes.

    `evaluations` maps node tuples to integrand values; since the small
    rule's nodes are a subset of the large rule's, no further model
    evaluations are needed.
    """
    large_keys = [tuple(row) for row in rule_large.nodes]
    small_keys = [tuple(row) for row in rule_small.nodes]
    if not set(small_keys) <= set(large_keys):
        raise DimensionMismatch("small rule nodes are not nested in the large rule")
    try:
        u_large = np.array([evaluations[k] for k in large_keys], dtype=float)
        u_small = np.array([evaluations[k] for k in small_keys], dtype=float)
    except KeyError as exc:
        raise MissingEvaluation(f"no evaluation for node {exc.args[0]}") from exc
    return abs(rule_small.apply(u_small) - rule_large.apply(u_large))
