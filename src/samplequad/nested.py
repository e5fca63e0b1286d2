"""The streaming engine, and nested rule extension on top of it.

One engine builds every rule.  Each sample of the stream is appended
with the weight update that keeps the moments exact, then a removal
along a null direction of the extended Vandermonde restores the node
count with non-negative weights.  Fixed nodes (the nodes of the rule
being extended) are never deleted: a removal that zeroes one leaves it
in place with weight zero.  A fixed rule is a stream without them.

Weights are sample counts: a sample enters at weight 1, and only
`rule()` divides by their sum.  Null directions are (z, -1) with
V_S z = phi(y) for the square base V_S, in node order; the SVD fallback
keeps the sample's entry negative.

With a one-dimensional null space one ratio scan gives both removals
and the nodes each zeroes; the step takes the smallest-|alpha| one (ties
to the positive side, which keeps the sample).  Only if that zeroes a
fixed node is the other built too: the one deleting more non-fixed
nodes wins, and a seeded draw breaks ties.  With zero-weight fixed
nodes the null space is larger: a direction per node outside the square
base and one for the sample.  The step enumerates all removals of that
size and takes one that deletes the most non-fixed nodes (same tie
break), with its vertex's weights: for two directions by a ring walk
round the removal polygon in weight space (see `samplequad.removal`),
else by a walk of vertex solves from the vertex the sample's
smallest-|alpha| removal reaches.  The base stays square where
steps leave some of its nodes at weight zero, a degenerate basis of the
revised simplex method (Dantzig, 1963), so it is always a vertex.

Most steps delete the incoming sample, which only reweights the
support S, so the stream runs block-speculatively: k such steps leave
the weights at W0 + z_1 + ... + z_k with z_j = V_S^-1 phi(y_j), so a
window of samples costs one matrix product, a prefix sum and a
vectorized ratio test.  Most other steps are clean swaps: one old node
is zeroed and the sample takes its place.  The block takes those too:
the inverse of V_S gets the exchange's rank-one (Sherman-Morrison)
update, the rest of the window is solved again through it, and the
prefix sum restarts from the swapped weights.  The scalar step first
solves its sample alone and takes the drop or clean swap the ratio scan
picks without a draw, also where a fixed node is zeroed first and alone
and the other side's first is not fixed.  Only the rest (a near tie,
fixed nodes on both sides, a multi-delete, a grow, a rejected solve)
pays for the ratio scan.
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
    InvalidSpec,
    MissingEvaluation,
    ModeMismatch,
    NullSpaceFailure,
    require_int,
)
from .linalg import ExtensionFactorization, all_of, any_of, largest, smallest
from .linalg import null_space, null_vector  # noqa: F401  (perfbench's timing shims wrap them)
from .removal import Removal, RemovalProblem
from .rule import _BLOCK, BlockMoments, QuadratureRule, SampleSet
from .rule import apply_removal, choose_alpha, dropped_mask, removal_interval
from .rule import sample_moments  # noqa: F401  (perfbench's timing shims wrap it here)
from .tolerances import TOL_MOM, TOL_NEAR_TIE, TOL_PIVOT, TOL_ZERO_FACTOR

log = logging.getLogger(__name__)

_MIN_WINDOW = 16
_MAX_WINDOW = 256

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
            raise ModeMismatch("extension needs a base rule with nodes; "
                               "construct_fixed_rule builds the first rule")
        if self.target_basis_size < self.base.spec.size:
            raise ModeMismatch("target basis must be at least as large as the base")
        if self.sample_source.d != self.base.spec.d:
            raise DimensionMismatch("sample dimension does not match base rule")
        self.removal_cap = require_int(self.removal_cap, "removal_cap")
        if self.removal_cap < 1:
            raise InvalidSpec(f"removal_cap must be at least 1, not {self.removal_cap}")


def _check_nodes_in_stream(base: QuadratureRule, source: SampleSet, what: str):
    pts = source.points
    for node, idx in zip(base.nodes, base.source_indices):
        if idx < 0 or idx >= pts.shape[0] or not np.array_equal(pts[idx], node):
            raise ModeMismatch(f"{what} requires the original sample stream; node with "
                               f"source index {idx} does not match")


def initialize_extension(req: ExtensionRequest):
    """Working rule plus the rows of the sample source still to stream.

    Returns (rule, stream_indices): the ascending positions, inside the
    request's sample source, of the samples the extension streams past
    the working rule; they also tag node provenance.
    """
    source = req.sample_source
    spec = replace(req.base.spec, size=req.target_basis_size)
    base = req.base
    n = base.n_nodes
    if req.mode == RESAMPLED:
        # the stream is fresh, base nodes are generally not in it
        if source.count < 1:
            raise InsufficientSamples("resampled extension needs at least one sample")
        work = QuadratureRule(
            nodes=np.vstack([base.nodes, source.points[:1]]),
            weights=np.concatenate([np.zeros(n), [1.0]]), spec=spec, K=0,
            source_indices=np.concatenate([np.full(n, -1, dtype=np.intp), [0]]),
            fixed_mask=np.concatenate([np.ones(n, dtype=bool), [False]]))
        return work, np.arange(1, source.count)

    if req.mode == CONTINUE_SAMPLES and req.target_basis_size != base.spec.size:
        raise ModeMismatch("continue_samples cannot change the basis size")
    _check_nodes_in_stream(base, source, req.mode)
    if req.mode == CONTINUE_SAMPLES:
        if source.count <= base.K:
            raise ModeMismatch("sample source is shorter than the consumed prefix")
        weights, K, rows = base.weights.copy(), base.K, np.arange(base.K + 1, source.count)
    else:
        remaining = np.ones(source.count, dtype=bool)
        remaining[base.source_indices] = False
        weights, K, rows = np.full(n, 1.0 / n), n - 1, np.nonzero(remaining)[0]
    work = QuadratureRule(nodes=base.nodes.copy(), weights=weights, spec=spec, K=K,
                          source_indices=base.source_indices.copy(),
                          fixed_mask=np.ones(n, dtype=bool))
    return work, rows


class _StreamEngine:
    """The per-sample iteration, with fixed-node bookkeeping.

    `X`, `w` (sample counts), `src`, `fixed` and `Vall` view the first n
    nodes of buffers allocated once, with room for b nodes besides the
    fixed ones (N+M <= N+D+1) and the incoming sample, at row n.  From b
    nodes on, a factorization of a square base is kept: the support, and
    zero-weight fixed nodes where it is short, node `fact_cols[i]` in
    column i.  Every step commits through `_take` or `_apply`'s one
    compaction.  `_take` writes the weights in factorization order and,
    for a clean swap, puts the sample in the deleted node's position and
    exchanges its column.  The compaction deletes the zeroed non-fixed
    nodes, the sample among them, in node order; before it, `_exchange`
    follows the removal by rank-one column exchanges, each solving its
    own entering column, or declines and the base is rebuilt.
    """

    def __init__(self, work: QuadratureRule, rng, removal_cap):
        self.spec = spec = work.spec
        n, self.consumed = work.n_nodes, work.K + 1
        cap = max(n, int(work.fixed_mask.sum()) + spec.size) + 1
        self._X, self._w, self._src, self._fixed = (
            np.resize(a, (cap,) + a.shape[1:]) for a in
            (work.nodes, work.weights * self.consumed, work.source_indices, work.fixed_mask))
        self._V = np.empty((spec.size, cap))
        self._V[:, :n] = basis_matrix(spec, work.nodes)
        self._resize(n)
        self.rng, self.removal_cap = rng, removal_cap
        self._rebuild_fact()

    def _resize(self, n):
        """Point the node arrays at the buffers' first n nodes."""
        self.n, self.Vall = n, self._V[:, :n]
        self.X, self.w, self.src, self.fixed = (
            a[:n] for a in (self._X, self._w, self._src, self._fixed))

    def rule(self) -> QuadratureRule:
        return QuadratureRule(self.X.copy(), self.w / self.w.sum(), self.spec, self.consumed - 1,
                              self.src.copy(), self.fixed.copy())

    def _rebuild_fact(self):
        """A square base of the support and zero-weight nodes; none below b nodes.

        A start with more positive weights (an increase_degree base with
        zero-weight fixed nodes; every node is fixed) is brought to a
        vertex of the base by single removals: node j's zeroes j, or a
        base node that j then replaces.
        """
        b = self.spec.size
        if self.n < b:
            self.fact = self.fact_cols = None
            return
        support = np.flatnonzero(self.w > 0.0)
        cols = support
        if support.shape[0] != b:
            cols = _raise_rank(self.Vall, np.append(support, np.flatnonzero(self.w == 0.0)), b)
        self.fact = ExtensionFactorization(np.take(self.Vall, cols, axis=1))
        self.fact_cols = cols
        for j in sorted(set(support.tolist()) - set(cols.tolist())):
            # (z, -1) in node order: node j's entry is the -1
            c = np.zeros(self.n)
            c[np.append(self.fact_cols, j)] = self.fact.null_vector_extended(self.Vall[:, j])
            alpha, attained = choose_alpha(self.w, c)
            self.w[:] = self._candidate(self.w, c, alpha, attained)[0]
            if j not in attained:
                slot = (self.fact_cols == attained[0]).argmax()
                self.fact.replace_column(slot, self.Vall[:, j])
                self.fact_cols[slot] = j

    def _exchange(self, removed, deleted, col):
        """Follow the step's removal by column exchanges.

        `removed` holds the positions the removal takes out of the base,
        the incoming sample at position n; nothing has moved yet.  Their
        slots take the positions outside the base that are not removed,
        both in ascending order.  Returns False, changing nothing,
        when a `deleted` position is not removed (a degenerate vertex) or
        more than three columns would move; the caller then rebuilds.
        """
        n = self.n
        out = np.zeros(n + 1, dtype=bool)
        out[list(removed)] = True
        leaving = out[self.fact_cols].nonzero()[0]
        if leaving.shape[0] > 3 or any(k not in removed for k in deleted):
            return False
        out[self.fact_cols] = True
        for slot, p in zip(leaving.tolist(), (~out).nonzero()[0].tolist()):
            self.fact.replace_column(slot, col if p == n else self.Vall[:, p])
            self.fact_cols[slot] = p
        return True

    def feed(self, y, col, src_idx):
        """The scalar step: consume one sample.

        With n = b nodes of positive weight, `_lean_step` first takes a
        tie-free drop or clean swap from one solve of the column; a step it
        declines goes to `_single_direction`, which solves the column again.
        """
        b, n = self.spec.size, self.n
        self.consumed += 1
        if n == b and self._lean_step(y, col, src_idx):
            return
        self._X[n], self._w[n], self._src[n], self._fixed[n] = y, 1.0, src_idx, False
        self._V[:, n] = col
        if n < b:
            # below capacity: the extended system has no null space
            self._resize(n + 1)
            self._rebuild_fact()
            return
        # with n = b nodes the extended system has a one-dimensional null space
        v = self._w[: n + 1]
        step = self._single_direction(v, col) if n == b else self._multi_direction(v, col)
        self._apply(*step, col)

    def _lean_step(self, y, col, k) -> bool:
        """Whether sample k took a `_tie_free` step, a fixed winner's other side included."""
        solved = self.fact.solve(col) if smallest(self.w) > 0.0 else None
        step = solved and solved[1] and self._tie_free(self.w[self.fact_cols], solved[0], True)
        if step:
            self._take(*step, y, k, col)
        return bool(step)

    def _take(self, W, slot=-1, y=None, k=-1, col=None):
        """Commit count weights W (factorization order); a swap puts sample k in `slot`."""
        self.w[self.fact_cols] = W
        if slot >= 0:
            j = self.fact_cols[slot]
            self.X[j], self.src[j], self.Vall[:, j] = y, k, col
            self.fact.replace_column(slot, col)

    def drop_run(self, cols: np.ndarray, rows: np.ndarray, points: np.ndarray) -> int:
        """Take the leading drop-incoming and clean-swap steps of a run.

        `cols` holds the basis columns of the samples `points[rows]`,
        solved in windows of _MIN_WINDOW.._MAX_WINDOW columns.  Returns
        how many leading samples were consumed, each as `feed` would have
        (up to rounding); `feed` solves the sample it stopped at anew.
        Every taken column passed the fast-path solve against the base it
        meets, and `_tie_free` took it without pricing a fixed winner's
        other side.  A swap's exchange solves the column itself, and the
        rest of the window is solved again through it.  The weights after
        k drops are W + z_1 + ... + z_k in counts.  Consumes nothing unless
        every node is in the base with a positive weight and the base has
        a cached inverse.
        """
        if self.n != self.spec.size or not smallest(self.w) > 0.0:
            return 0
        # factorization order: row i of Z belongs to node fact_cols[i]
        W = self.w[self.fact_cols]
        done = 0
        # a window consumed whole doubles the next; a run that ends inside
        # one sizes the next to twice its length
        window = _MIN_WINDOW
        while done < cols.shape[1]:
            solved = self.fact.solve(cols[:, done : done + window])
            if solved is None:
                break
            Z, ok = solved
            run, W = _drop_prefix(W, Z, ok)
            done += run
            if run == Z.shape[1]:
                window = min(2 * window, _MAX_WINDOW)
                continue
            window = min(max(2 * run, _MIN_WINDOW), _MAX_WINDOW)
            step = self._tie_free(W, Z[:, run], False) if ok[run] else None
            if step is None:
                break
            W, slot = step
            k = int(rows[done])
            self._take(W, slot, points[k], k, cols[:, done])
            done += 1
        if done:
            self._take(W)
            self.consumed += done
        return done

    def _tie_free(self, W, z, far_side):
        """(weights, slot) of a drop (slot -1) or clean swap taken without a draw, or None.

        From the count weights W in factorization order and z = V_S^-1 phi(y):
        the sample or a non-fixed node zeroed first by the near-tie margin
        wins.  A fixed node zeroed first and alone deletes nothing, so with
        `far_side` the other side's first wins, by the margin on its side,
        if it is the sample or a non-fixed node, as in `_single_direction`.
        """
        # `feed` raises when one side of the null direction is empty
        if not any_of(z > 0.0):
            return None
        reach = np.abs(z) / W
        slot = _first_zeroed(reach, 1.0)
        if far_side and slot is not None and slot >= 0 and self.fixed[self.fact_cols[slot]]:
            if _step_weights(W, z, slot) is None:
                return None
            # nodes of the other sign, and the sample (-1) if the fixed node's is positive
            other = (z > 0.0) != (z[slot] > 0.0)
            slot = _first_zeroed(np.where(other, reach, 0.0), float(z[slot] > 0.0))
        if slot is None or slot >= 0 and self.fixed[self.fact_cols[slot]]:
            return None
        W = _step_weights(W, z, slot)
        return None if W is None else (W, slot)

    def _candidate(self, v, c, alpha, attained):
        """New weights of one removal, the positions it zeroed, and the one it removes."""
        u = apply_removal(v, c, alpha, attained)
        zero = dropped_mask(u)
        u[zero] = 0.0
        return u, zero.nonzero()[0].tolist(), (_leaving(attained, c.shape[0] - 1),)

    def _deletable(self, zeroed):
        """The zeroed positions that are not fixed nodes."""
        n = self.n
        return [k for k in zeroed if k == n or not self.fixed[k]]

    def _pick(self, candidates, zeroed_sets):
        """The candidate whose zeroed set deletes the most non-fixed nodes.

        A seeded draw breaks ties; the generator is consulted only then.
        """
        counts = [len(self._deletable(zeroed)) for zeroed in zeroed_sets]
        best = max(counts)
        pool = [cand for cand, cnt in zip(candidates, counts) if cnt == best]
        return pool[0] if len(pool) == 1 else pool[int(self.rng.integers(len(pool)))]

    def _single_direction(self, v, col):
        """One ratio scan gives both removals; the second is built only if needed."""
        # (z, -1) in node order
        u = self.fact.null_vector_extended(col)
        c = np.empty(v.shape[0])
        c[self.fact_cols], c[-1] = u[:-1], u[-1]
        a_min, at_min, a_max, at_max = removal_interval(v, c)
        pos, neg = (a_max, at_max), (a_min, at_min)
        # the smallest |alpha| first, ties to the positive side, which
        # keeps the sample
        near, far = (neg, pos) if abs(a_max) > abs(a_min) else (pos, neg)
        first = self._candidate(v, c, *near)
        if len(self._deletable(first[1])) == len(first[1]):
            return first
        # a fixed node was zeroed: price the other removal too; the one
        # deleting more non-fixed nodes wins (positive side listed first)
        other = self._candidate(v, c, *far)
        cands = [other, first] if near is neg else [first, other]
        return self._pick(cands, [cand[1] for cand in cands])

    def _null_basis(self, col, excess):
        """Null basis of [V, col] and the nodes outside the base.

        One direction per node outside the base and the last for the
        sample, each zero at the others.  A two-node step solves its two
        columns one at a time, which skips the block solve's stacked
        checks; larger steps take one block solve.
        """
        n = self.n
        if excess == 2:
            # the one node outside the base: the base holds the rest of 0 + ... + (n-1)
            pos = [n * (n - 1) // 2 - sum(self.fact_cols.tolist()), n]
            U = np.empty((n, 2))
            U[:, 0], U[:, 1] = map(self.fact.null_vector_extended, (self.Vall[:, pos[0]], col))
        else:
            pos = sorted(set(range(n + 1)) - set(self.fact_cols.tolist()))
            U = self.fact.null_vector_extended(np.column_stack([self.Vall[:, pos[:-1]], col]))
        C = np.zeros((n + 1, excess))
        C[self.fact_cols] = U[:-1]
        C[pos, range(excess)] = U[-1]
        return C, pos[:-1]

    def _walk_seed(self, v, C, nonbase):
        """The vertex to start the removal walk from.

        The sample's direction (the null basis' last column) is zero at
        the nodes outside the base, which weigh zero, so its
        smallest-|alpha| removal plus those nodes is a vertex: its block
        is triangular, with a nonzero diagonal.
        """
        _, attained = choose_alpha(v, C[:, -1])
        return Removal(tuple(sorted(nonbase + [_leaving(attained, v.shape[0] - 1)])))

    def _multi_direction(self, v, col):
        excess = self.n + 1 - self.spec.size
        C, nonbase = self._null_basis(col, excess)
        problem = RemovalProblem.from_parts(v, C)
        stats = {}
        removals = problem.enumerate(lambda: self._walk_seed(v, C, nonbase),
                                     cap=self.removal_cap, stats=stats)
        if not removals:
            raise NullSpaceFailure("the removal walk found no vertex")
        if stats["capped"]:
            log.debug("removal walk capped at sample %d: %d vertices",
                      self.consumed - 1, len(removals))
        pick = self._pick(removals, [r.zero_indices for r in removals])
        zeroed = list(pick.zero_indices)
        u = pick.weights.copy()
        u[zeroed] = 0.0
        return u, zeroed, pick.indices

    def _apply(self, u, zeroed, removed, col):
        """Commit the general step's weights u, the sample's at position n.

        A clean swap, one non-fixed node zeroed alone, goes through `_take`:
        it happens only at n = b, where every node is in the base.  Any
        other step deletes the zeroed non-fixed nodes, the sample's deletion
        alone included, by one in-place compaction after `_exchange`.
        """
        n = self.n
        deleted = self._deletable(zeroed)
        if len(deleted) == len(zeroed) == 1 and deleted[0] < n:
            slot = int((self.fact_cols == deleted[0]).argmax())
            W = u[self.fact_cols]
            W[slot] = u[n]
            self._take(W, slot, self._X[n], self._src[n], col)
            return
        exchanged = self._exchange(removed, deleted, col)
        # the kept runs between the deleted positions (ascending) move left, in order
        ends = deleted + [n + 1]
        m = ends[0]
        self._w[:m] = u[:m]
        for lo, hi in zip(ends, ends[1:]):
            run, to = slice(lo + 1, hi), slice(m, m + hi - lo - 1)
            for a in (self._X, self._src, self._fixed):
                a[to] = a[run]
            self._V[:, to] = self._V[:, run]
            self._w[to] = u[run]
            m = to.stop
        self._resize(m)
        if exchanged:
            self.fact_cols -= np.array(deleted).searchsorted(self.fact_cols)
        else:
            self._rebuild_fact()


def _leaving(attained, sample):
    """The position a removal takes out of the base: the sample if attained, else the first."""
    return int(attained[-1] if attained[-1] == sample else attained[0])


def _raise_rank(V, candidates, b):
    """The first b candidates that raise the rank of V's columns, ascending.

    A column joins if its distance from the span of those taken is above
    TOL_PIVOT of its norm.  Where repeated samples keep the rank below b,
    the candidates passed over complete the base, which is then singular.
    """
    cols = []
    for j in candidates.tolist():
        distance = abs(np.linalg.qr(V[:, cols + [j]], mode="r")[-1, -1])
        if distance > TOL_PIVOT * np.linalg.norm(V[:, j]):
            cols.append(j)
            if len(cols) == b:
                break
    return np.sort(cols + [j for j in candidates.tolist() if j not in cols][: b - len(cols)])


def _first_zeroed(reach, sample):
    """The node zeroed first by the near-tie margin, -1 for the sample, None on a near tie.

    `reach` holds the nodes' |z_i| / W_i (0: not competing; the winner's is
    overwritten), and `sample` the sample's: 1, or 0 where it does not compete.
    """
    slot = int(reach.argmax())
    best = reach[slot]
    if best < (1.0 - TOL_NEAR_TIE) * sample:
        return -1
    reach[slot] = sample
    return slot if largest(reach) < (1.0 - TOL_NEAR_TIE) * best else None


def _step_weights(W, z, slot):
    """Count weights after the removal along (z, -1) zeroing `slot` (-1: the sample).

    A swap puts the sample in the slot; None where a weight comes within
    the near-tie margin of the drop threshold.
    """
    alpha = -1.0 if slot < 0 else W[slot] / z[slot]
    W = W - alpha * z
    if slot >= 0:
        W[slot] = 1.0 + alpha
    return W if smallest(W) > TOL_ZERO_FACTOR / (1.0 - TOL_NEAR_TIE) * largest(W) else None


def _drop_prefix(W, Z, ok):
    """(run, weights) of the leading drop-incoming steps of a solved block.

    W are the count weights before the block, and Z the block's
    solutions in the same order; `ok` marks the columns that passed the
    fast-path acceptance.
    """
    # column j holds the count weights after j steps
    S = np.empty((Z.shape[0], Z.shape[1] + 1))
    S[:, 0] = W
    S[:, 1:] = Z
    S = np.add.accumulate(S, axis=1)
    # the incoming sample must beat every old node on both sides, and
    # every weight after the step stay clear of the drop threshold
    beats = np.abs(Z) < (1.0 - TOL_NEAR_TIE) * S[:, :-1]
    S = S[:, 1:]
    beats &= S > TOL_ZERO_FACTOR / (1.0 - TOL_NEAR_TIE) * S.max(axis=0)
    drop = ok & beats.all(axis=0)
    # `feed` raises when one side of the null direction is empty
    drop &= (Z > 0.0).any(axis=0)
    run = drop.shape[0] if all_of(drop) else int(drop.argmin())
    return run, (S[:, run - 1] if run else W)


def run_stream(work, points, stream_idx, rng, removal_cap) -> QuadratureRule:
    """Stream the rows `stream_idx` (ascending) of `points` past `work`.

    `work` is the starting rule, exact for the rows it has consumed.  The
    basis is evaluated once per row of `points`, for the stream and for
    the moments of all rows, which the result is validated against.
    """
    engine = _StreamEngine(work, rng, removal_cap)
    blocks = BlockMoments(work.spec, points)
    # a block pass that consumes fewer than _MIN_WINDOW samples makes the
    # next `wait` samples take the scalar step, a count that doubles with
    # each consecutive such pass.  On nested chains a fixed node that wins
    # the ratio test tends to win again for the next samples; a short run
    # paid for a window solve, and the scalar step's one-column solves
    # cost less.
    wait, backoff = 0, 1
    for lo, block in blocks:
        first, last = np.searchsorted(stream_idx, (lo, lo + block.shape[1]))
        rows = stream_idx[first:last]
        cols = np.take(block, rows - lo, axis=1)
        j = 0
        while j < rows.shape[0]:
            if wait:
                wait -= 1
            else:
                run = engine.drop_run(cols[:, j:], rows[j:], points)
                if run >= _MIN_WINDOW:
                    backoff = 1
                else:
                    wait, backoff = backoff, min(2 * backoff, _BLOCK)
                j += run
                if j == rows.shape[0]:
                    break
            k = int(rows[j])
            try:
                engine.feed(points[k], cols[:, j], k)
            except (NullSpaceFailure, DegenerateNullVector) as exc:
                raise NullSpaceFailure(f"stream failed at sample {k}: {exc}",
                                       sample_index=k) from exc
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
        raise InsufficientSamples(f"{total} samples cannot support a basis of size "
                                  f"{req.target_basis_size}")
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
