"""The search for all M-node removals.

Removing M nodes while staying exact on a basis shrunk by M functions
and keeping weights non-negative corresponds to a vertex of the simplex
of feasible null-space coefficients: the coefficients a with
w - C a >= 0 for a null basis C.  A vertex solve is an M x M inverse of
rows of C; every vertex found keeps the weights it was found with.

For M = 2 the feasible set is a polygon with a handful of vertices, and
a ring walk goes round it in weight space (pivoting vertex enumeration
in the plane; Avis and Fukuda, 1992).  Along the line C_i a = w_i of an
edge the weights change at the rates C d_i, and one ratio scan over the
rows finds the constraint that ends it: that names the next line, and
the weights there are the vertex's.  The ring starts at a = 0 on the
line of a zero weight (every problem the streaming engine builds has
one), so it needs no seed, no SVD and no inverse.  It vouches for its
result only when it closes within `cap` vertices and every vertex
passes the checks with no weight but its own two near zero.  Otherwise
(no zero weight, a degenerate vertex, a cap below the vertex count, an
unbounded region), and for M >= 3, the walk runs.

The walk is breadth-first over exchanges: each vertex has, per removed
node, exactly one adjacent vertex reachable by exchanging that node.
It starts from a vertex the caller knows (the streaming engine's
square base gives one); a seed that fails the vertex checks finds
nothing.  It takes the vertices a wave at a time; the columns of the
inverse, mapped through C, are the exchange directions, and the
inverses, vertex weights, zero sets, exchange ratio scans and neighbour
tuples of a whole wave are stacked array operations.  A singular block
is a vertex that fails the checks, wherever it is solved.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .basis import basis_matrix  # noqa: F401  (perfbench's timing shims wrap it here)
from .errors import DimensionMismatch, NullSpaceFailure
from .linalg import largest, null_space, smallest  # noqa: F401  (timing shims wrap null_space here)
from .tolerances import TOL_VERTEX_NEG, TOL_VERTEX_RESID, TOL_ZERO_FACTOR


@dataclass(slots=True)
class Removal:
    """A set of node positions whose joint deletion keeps weights >= 0.

    `indices` is the canonical sorted M-tuple.  `zero_indices` is every
    position whose weight vanishes at the vertex, more than M at a
    degenerate vertex.  `weights`, when the removal comes from a search,
    are the weights at the vertex, exactly zero at `indices`.
    Not frozen, so that the one made per vertex found is cheap to build;
    nothing changes it afterwards.
    """

    indices: tuple[int, ...]
    zero_indices: tuple[int, ...] = ()
    weights: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.zero_indices:
            self.zero_indices = self.indices


class RemovalProblem:
    """Removal computations for one positive rule and removal size M."""

    @classmethod
    def from_parts(cls, weights: np.ndarray, null_basis: np.ndarray):
        """Build from a rule's weights and a null basis of its Vandermonde.

        The M columns of `null_basis` must span the null space; they need
        not be orthonormal.
        """
        self = cls.__new__(cls)
        self.w = np.asarray(weights, dtype=float)
        self.C = np.asarray(null_basis, dtype=float)
        self.n = self.w.shape[0]
        if self.C.ndim != 2 or self.C.shape[0] != self.n:
            raise DimensionMismatch("null basis needs one row per weight")
        self.m = self.C.shape[1]
        # the largest solve residual and the most negative weight of a
        # vertex, relative to the weights' sum (the engine's sample count)
        scale = float(self.w.sum())
        self._tol_res = TOL_VERTEX_RESID * scale
        self._tol_neg = -TOL_VERTEX_NEG * scale
        return self

    # -- vertex algebra -------------------------------------------------

    def _vertices(self, q_mat):
        """(weights, inverses, bad) of the vertices zeroing each row of q_mat.

        Row i of q_mat (k x M) names the removed nodes of vertex i.  The
        inverse B of the M x M block A = C[q, :] gives the coefficients
        alphas = B w[q]; the weights w - C alphas are set exactly zero at
        q.  `bad` marks a singular block (its inverse is zero) and a solve
        residual or most negative weight that fails the checks.
        """
        A = self.C[q_mat]
        singular = np.zeros(q_mat.shape[0], dtype=bool)
        try:
            B = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            # numpy refuses the whole stack for one singular block
            B = np.zeros_like(A)
            for i, a in enumerate(A):
                try:
                    B[i] = np.linalg.inv(a)
                except np.linalg.LinAlgError:
                    singular[i] = True
        wq = self.w[q_mat][:, :, None]
        alphas = B @ wq
        resid = np.abs(A @ alphas - wq).max(axis=(1, 2))
        W = self.w - (self.C @ alphas)[:, :, 0]
        W[np.arange(q_mat.shape[0])[:, None], q_mat] = 0.0
        bad = singular | (resid > self._tol_res) | (W.min(axis=1) < self._tol_neg)
        return W, B, bad

    def vertex_weights(self, indices) -> np.ndarray:
        """The full weight vector of the vertex zeroing `indices`."""
        W, _, bad = self._vertices(np.asarray([indices], dtype=np.intp))
        if bad[0]:
            raise NullSpaceFailure(f"removal {tuple(indices)} is no feasible vertex")
        return W[0]

    @staticmethod
    def _zero_tol(W):
        """Per vertex (row of W), the step's drop threshold: its largest weight's share."""
        return TOL_ZERO_FACTOR * np.maximum(W.max(axis=1, keepdims=True), 0.0)

    # -- operations -----------------------------------------------------

    def _neighbors(self, q_mat, W, dirs):
        """Exchange partners of a wave of vertices in one vectorized sweep.

        Vertex i removes the nodes q_mat[i] (k x M), has weights W[i]
        (k x n) and exchange directions dirs[i] (k x n x M); at the
        removed rows direction j is set exactly one at q_mat[i, j] and
        zero elsewhere.  The ratio scans run along the nodes, one row per
        vertex and direction.  Returns per vertex a list of M neighbor
        index tuples (None where the exchange is degenerate).
        """
        k, m = q_mat.shape
        eye = np.eye(m, dtype=bool)
        dirs = dirs.transpose(0, 2, 1).copy()
        dirs[np.arange(k)[:, None], :, q_mat] = eye
        pos = dirs > 0.0
        neg = dirs < 0.0
        W = W[:, None, :]
        ratios = np.empty(dirs.shape)
        ratios.fill(np.inf)
        k_max = np.divide(W, dirs, out=ratios, where=pos).argmin(axis=2)
        ratios.fill(-np.inf)
        k_min = np.divide(W, dirs, out=ratios, where=neg).argmax(axis=2)
        # the own row is on the positive side at ratio zero, so the
        # exchange is degenerate exactly when no entry is negative
        cand = np.where(k_max == q_mat, k_min, k_max)
        swapped = np.where(eye, cand[:, :, None], q_mat[:, None, :])
        swapped.sort(axis=2)
        ok = neg.any(axis=2).ravel().tolist()
        flat = [tuple(t) if o else None for t, o in zip(swapped.reshape(k * m, m).tolist(), ok)]
        return [flat[i * m:(i + 1) * m] for i in range(k)]

    def _trace(self, cap: int):
        """(removals, vertices found) of the M = 2 ring walk.

        The removals are None when the ring cannot vouch for them, and
        (None, 0) when no weight is zero, the region is unbounded, a line
        comes round twice or the cap is reached.  Line i (C_i a = w_i) is
        walked along d_i, C_i turned a quarter counter-clockwise, so the
        polygon lies on its left, and the weights W change at the rates
        g = C d_i.  The scan of W / g over g > 0 names the line j that
        ends the edge, and W - theta g are the weights of vertex (i, j).
        Setting rows i and j to zero moves every later vertex off
        w + range(C) by their slack, so the slack summed round the ring
        must stay within the residual bound `_vertices` checks.
        """
        w, n = self.w, self.n
        line = start = int(w.argmin())
        if w[start] != 0.0:
            return None, 0
        # row j of E is C_j turned a quarter clockwise: E C_i = C d_i
        E = self.C[:, ::-1] * (1.0, -1.0)
        inf = np.empty(n)
        inf.fill(np.inf)
        W, ring, found, ok, drift = w, [start], {}, True, 0.0
        for _ in range(min(cap, n)):
            g = E @ self.C[line]
            ratios = np.divide(W, g, out=inf.copy(), where=g > 0.0)
            # a line does not end itself, even where its rate rounds
            ratios[line] = np.inf
            j = int(ratios.argmin())
            if ratios[j] == np.inf:
                return None, 0
            g *= ratios[j]
            W = W - g
            drift += abs(W[line]) + abs(W[j])
            W[line] = W[j] = 0.0
            # every weight but the two removed ones stays clear of zero
            ok = ok and drift <= self._tol_res and smallest(W) >= self._tol_neg and (
                np.count_nonzero(W > TOL_ZERO_FACTOR * max(largest(W), 0.0)) == n - 2)
            found[(line, j) if line < j else (j, line)] = W
            if j == start and len(ring) > 2:
                return [Removal(q, q, found[q]) for q in sorted(found)] if ok else None, len(ring)
            # a line met twice, or two lines closing (a repeated start line
            # rounds to that): the ring is not going round a polygon
            if j in ring:
                return None, 0
            ring.append(j)
            line = j
        return None, 0

    _WAVE = 64

    def enumerate(self, seed: Removal | Callable[[], Removal], cap: int = 10**6,
                  stats: dict | None = None) -> list[Removal]:
        """The removals of the problem, sorted by indices.

        For M = 2 the ring walk answers unless it cannot vouch for its
        result.  Otherwise the walk runs from `seed`, a vertex or a
        callable (called only then) that returns one; a seed that is no
        vertex gives no removals.  The walk takes a wave of up to _WAVE
        vertices at a time, and once `cap` distinct removals have been
        seen it queues no more.  `stats`, if given, receives the vertices
        solved (`pops`) and whether the cap was hit.
        """
        found, pops, capped = None, 0, False
        if self.m == 2:
            found, pops = self._trace(cap)
        if found is None:
            results, more, capped = self._walk(seed() if callable(seed) else seed, cap)
            pops += more
            found = [results[k] for k in sorted(results)]
        if stats is not None:
            stats.update(pops=pops, capped=capped)
        return found

    def _walk(self, start: Removal, cap: int):
        """(removals by indices, pops, capped) of the walk; one vertex solve per wave."""
        queue = deque([tuple(start.indices)])
        seen = {tuple(start.indices)}
        results: dict[tuple[int, ...], Removal] = {}
        pops = 0
        capped = False
        while queue and not capped:
            wave = [queue.popleft() for _ in range(min(len(queue), self._WAVE))]
            pops += len(wave)
            q_mat = np.asarray(wave, dtype=np.intp)
            W, B, bad = self._vertices(q_mat)
            partners = self._neighbors(q_mat, W, self.C @ B)
            for q, w_q, z, neighbors, b in zip(wave, W, W <= self._zero_tol(W), partners, bad):
                if b:
                    continue
                results[q] = Removal(q, tuple(z.nonzero()[0].tolist()), w_q)
                if capped:
                    continue
                for q_hat in neighbors:
                    if q_hat is None or q_hat in seen:
                        continue
                    if len(seen) >= cap:
                        capped = True
                        break
                    seen.add(q_hat)
                    queue.append(q_hat)
        return results, pops, capped
