"""The ratio scan of one removal, and the search for all M-node removals.

`ratio_extrema` is the one single-direction ratio scan: along a null
direction c, the scalings of w - alpha c that first zero a node on
either side, and every node each zeroes.  The streaming engine's
single removals use it.

Removing M nodes while staying exact on a basis shrunk by M functions
and keeping weights non-negative corresponds to a vertex of the simplex
of feasible null-space coefficients: the coefficients a with
w - C a >= 0 for a null basis C.  A vertex solve is an M x M inverse of
rows of C, and every vertex found keeps the weights of that solve.

For M = 2 the feasible set is a polygon with a handful of vertices, and
an edge trace goes round it (pivoting vertex enumeration in the plane;
Avis and Fukuda, 1992).  Along the line C_i a = w_i of an edge, one
ratio test over the rows finds the constraint that ends it: that names
the vertex and the next edge's line.  The trace starts on the line of a
zero weight, which a = 0 lies on, or on the first one a ray out of
a = 0 meets, so it needs no seed and no SVD.  All vertices are solved in
one batch.  The trace vouches for its result only when it closes within
`cap` vertices and every vertex passes the checks with no weight but its
own two near zero.  Otherwise (a degenerate vertex, a cap below the
vertex count, an unbounded region), and for M >= 3, the walk runs.

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
from .errors import DegenerateNullVector, DimensionMismatch, NullSpaceFailure
from .linalg import null_space  # noqa: F401  (perfbench's timing shims wrap it here)
from .tolerances import TOL_VERTEX_NEG, TOL_VERTEX_RESID, TOL_ZERO_FACTOR


def ratio_extrema(weights: np.ndarray, c: np.ndarray):
    """(alpha_min, at_min, alpha_max, at_max) of the feasibility interval.

    alpha_max is the smallest ratio w_k / c_k over c_k > 0 and alpha_min
    the largest over c_k < 0; `at_max` and `at_min` are the ascending
    positions whose ratio equals that end exactly.
    """
    pos = c > 0.0
    neg = c < 0.0
    if not pos.any() or not neg.any():
        raise DegenerateNullVector(
            "null vector lacks entries of both signs (zero-sum structure broken)"
        )
    ratios = np.full(c.shape[0], np.inf)
    np.divide(weights, c, out=ratios, where=pos)
    alpha_max = ratios[ratios.argmin()]
    at_max = (ratios == alpha_max).nonzero()[0]
    ratios.fill(-np.inf)
    np.divide(weights, c, out=ratios, where=neg)
    alpha_min = ratios[ratios.argmax()]
    at_min = (ratios == alpha_min).nonzero()[0]
    return float(alpha_min), at_min, float(alpha_max), at_max


@dataclass(slots=True)
class Removal:
    """A set of node positions whose joint deletion keeps weights >= 0.

    `indices` is the canonical sorted M-tuple.  `zero_indices` is every
    position whose weight vanishes at the vertex, more than M at a
    degenerate vertex.  `weights`, when the removal comes from a vertex
    solve, are the weights at the vertex, exactly zero at `indices`.
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
        # the largest solve residual and the most negative weight of a vertex
        scale = max(1.0, float(np.abs(self.w).max()))
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
        k_max = np.divide(W, dirs, out=np.full(dirs.shape, np.inf), where=pos).argmin(axis=2)
        k_min = np.divide(W, dirs, out=np.full(dirs.shape, -np.inf), where=neg).argmax(axis=2)
        # the own row is on the positive side at ratio zero, so the
        # exchange is degenerate exactly when no entry is negative
        cand = np.where(k_max == q_mat, k_min, k_max)
        swapped = np.where(eye, cand[:, :, None], q_mat[:, None, :])
        swapped.sort(axis=2)
        ok = neg.any(axis=2).ravel().tolist()
        flat = [tuple(t) if o else None for t, o in zip(swapped.reshape(k * m, m).tolist(), ok)]
        return [flat[i * m:(i + 1) * m] for i in range(k)]

    def _trace(self, cap: int):
        """(removals, vertices solved) of the M = 2 edge trace.

        The removals are None when the trace cannot vouch for them.  Line
        i (C_i a = w_i) is walked along d_i, C_i turned a quarter
        counter-clockwise, so the polygon lies on its left.  Line j
        crosses it where d_i . a = t_j / r_j, with
        t_j = |C_i|^2 w_j - (C_i . C_j) w_i and r_j = C_j . d_i the rate
        at which constraint j tightens along d_i: an upper end of the edge
        where r_j > 0, a lower end where r_j < 0.  Only the first edge
        needs both ends; the trace closes when its lower end comes round.
        """
        C, w, n = self.C, self.w, self.n
        rows = np.concatenate((w[None], C.T))
        inf = np.full(n, np.inf)

        def crossings(i):
            # the rows (w_j, C_j) against (|C_i|^2, -w_i C_i) and (0, d_i)
            (x, y), w_i = C[i].tolist(), float(w[i])
            t, r = np.array([[x * x + y * y, -w_i * x, -w_i * y], [0.0, -y, x]]) @ rows
            # a line does not bound itself, even where the product rounds
            r[i] = 0.0
            return t, r

        def upper_end(t, r):
            return np.divide(t, r, out=inf.copy(), where=r > 0.0)

        start = int(w.argmin())
        if w[start] != 0.0:
            ray = upper_end(w, C @ C[0])
            start = int(ray.argmin())
        t, r = crossings(start)
        ahead = upper_end(t, r)
        behind = np.divide(t, r, out=-inf, where=r < 0.0)
        last, line = int(behind.argmax()), int(ahead.argmin())
        if not -np.inf < behind[last] < ahead[line] < np.inf:
            return None, 0
        # the edges' lines in counter-clockwise order; each ends where the next starts
        ring = [last, start]
        while line != last:
            # a line met twice: the trace is not going round a polygon
            if line in ring or len(ring) >= cap:
                return None, 0
            ring.append(line)
            line = int(upper_end(*crossings(line)).argmin())
        pairs = sorted([(i, j) if i < j else (j, i) for i, j in zip(ring, ring[1:] + ring[:1])])
        W, _, bad = self._vertices(np.array(pairs, dtype=np.intp))
        # every weight but the two removed ones stays clear of zero
        if bad.any() or np.count_nonzero(W > self._zero_tol(W)) != W.shape[0] * (n - 2):
            return None, len(pairs)
        return [Removal(q, q, w_q) for q, w_q in zip(pairs, W)], len(pairs)

    _WAVE = 64

    def enumerate(self, seed: Removal | Callable[[], Removal], cap: int = 10**6,
                  stats: dict | None = None) -> list[Removal]:
        """The removals of the problem, sorted by indices.

        For M = 2 the edge trace answers unless it cannot vouch for its
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
