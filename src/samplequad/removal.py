"""The ratio scan of one removal, and the walk over all M-node removals.

`ratio_extrema` is the one single-direction ratio scan: along a null
direction c, the scalings of w - alpha c that first zero a node on
either side.  The streaming engine's single removal and the walk below
both use it.

Removing M nodes while staying exact on a basis shrunk by M functions
and keeping weights non-negative corresponds to a vertex of the simplex
of feasible null-space coefficients.  Each vertex has, per removed
node, exactly one adjacent vertex reachable by exchanging that node, so
a breadth-first walk over these exchanges visits every vertex.

The caller seeds the walk with a vertex it already knows; `initial()`,
M successive single removals, is the fallback when there is no seed or
the seed fails the vertex checks.  The walk takes the vertices a wave
at a time.  Everything lives inside one null basis C: a vertex solve is
an M x M inverse of rows of C, and the inverse's columns, mapped
through C, are the exchange directions.  The inverses, vertex weights,
exchange ratio scans and neighbour tuples of a whole wave are stacked
array operations; a vertex that fails the batch checks is redone on
its own through the same exchange scan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .basis import basis_matrix
from .errors import DegenerateNullVector, DimensionMismatch, NoRemovalExists, NullSpaceFailure
from .linalg import null_space
from .tolerances import TOL_VERTEX_NEG, TOL_VERTEX_RESID, TOL_VERTEX_ZERO, TOL_ZERO_FACTOR

if TYPE_CHECKING:
    from .rule import QuadratureRule


def ratio_extrema(weights: np.ndarray, c: np.ndarray, exclude: np.ndarray | None = None):
    """(alpha_min, k_min, alpha_max, k_max) of the feasibility interval.

    Positions marked in `exclude` take no part.
    """
    pos = c > 0.0
    neg = c < 0.0
    if exclude is not None:
        pos &= ~exclude
        neg &= ~exclude
    if not pos.any() or not neg.any():
        raise DegenerateNullVector(
            "null vector lacks entries of both signs (zero-sum structure broken)"
        )
    ratios = np.divide(weights, c, out=np.full(c.shape[0], np.inf), where=pos)
    k_max = int(ratios.argmin())
    alpha_max = float(ratios[k_max])
    ratios = np.divide(weights, c, out=np.full(c.shape[0], -np.inf), where=neg)
    k_min = int(ratios.argmax())
    alpha_min = float(ratios[k_min])
    return alpha_min, k_min, alpha_max, k_max


def attained_indices(weights: np.ndarray, c: np.ndarray, alpha: float, side: int):
    """All indices on the chosen sign side whose ratio equals alpha exactly."""
    mask = c > 0.0 if side > 0 else c < 0.0
    idx = mask.nonzero()[0]
    return idx[weights[idx] / c[idx] == alpha]


@dataclass(frozen=True)
class Removal:
    """A set of node positions whose joint deletion keeps weights >= 0.

    `indices` is the canonical sorted M-tuple.  `zero_indices` is every
    position whose weight vanishes at the vertex, more than M at a
    degenerate vertex.
    """

    indices: tuple[int, ...]
    zero_indices: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.zero_indices:
            object.__setattr__(self, "zero_indices", self.indices)


class RemovalProblem:
    """Removal computations for one positive rule and removal size M."""

    def __init__(self, rule: QuadratureRule, m: int):
        n = rule.n_nodes
        if not 1 <= m < n:
            raise DimensionMismatch(f"need 1 <= M < {n}, got {m}")
        if rule.spec.size < n - m:
            raise DimensionMismatch("rule basis too small for this removal size")
        V = basis_matrix(replace(rule.spec, size=n - m), rule.nodes)
        self._init_from_parts(V, rule.weights, null_space(V, m))

    @classmethod
    def from_parts(cls, V: np.ndarray, weights: np.ndarray, null_basis: np.ndarray):
        """Build from a precomputed Vandermonde and null basis.

        `null_basis` columns must span the null space of V; they need
        not be orthonormal.
        """
        self = cls.__new__(cls)
        self._init_from_parts(V, weights, null_basis)
        return self

    def _init_from_parts(self, V, weights, null_basis):
        self.V = np.asarray(V, dtype=float)
        self.w = np.asarray(weights, dtype=float)
        self.C = np.asarray(null_basis, dtype=float)
        self.n = self.w.shape[0]
        self.m = self.C.shape[1]
        if self.C.shape[0] != self.n or self.V.shape[1] != self.n:
            raise DimensionMismatch("inconsistent removal problem shapes")
        self.wmax = max(float(np.abs(self.w).max()), 1e-300)
        self._ztol = TOL_VERTEX_ZERO * self.wmax
        # the largest solve residual and the most negative weight of a vertex
        self._tol_res = TOL_VERTEX_RESID * max(1.0, self.wmax)
        self._tol_neg = -TOL_VERTEX_NEG * max(1.0, self.wmax)
        self._eye = np.eye(self.m, dtype=bool)

    # -- vertex algebra -------------------------------------------------

    def _pop_data(self, indices):
        """(alphas, vertex weights, exchange directions) for one vertex.

        The inverse B of the M x M block C[indices, :] yields everything
        at once: alphas = B w[indices], and column i of C B is the null
        direction vanishing at every removed node except the i-th.
        """
        q = np.asarray(indices, dtype=np.intp)
        A = self.C[q, :]
        try:
            B = np.linalg.inv(A)
        except np.linalg.LinAlgError as exc:
            raise NullSpaceFailure(f"removal {tuple(indices)} has a singular block") from exc
        alphas = B @ self.w[q]
        if np.abs(A @ alphas - self.w[q]).max() > self._tol_res:
            raise NullSpaceFailure(f"removal {tuple(indices)} is not a simplex vertex")
        w_q = self.w - self.C @ alphas
        w_q[q] = 0.0
        if float(w_q.min()) < self._tol_neg:
            raise NullSpaceFailure(
                f"vertex {tuple(indices)} has negative weight {w_q.min():.3e}"
            )
        return alphas, w_q, self.C @ B

    def vertex_weights(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """(alphas, full weight vector) of the vertex zeroing `indices`."""
        alphas, w_q, _ = self._pop_data(indices)
        return alphas, w_q

    def _build(self, indices, w_q) -> Removal:
        # the removed positions are exactly zero in w_q
        zero = (np.abs(w_q) <= self._ztol).nonzero()[0].tolist()
        return Removal(indices=tuple(indices), zero_indices=tuple(zero))

    # -- operations -----------------------------------------------------

    def _neighbors(self, q_mat, W, dirs):
        """Exchange partners of a wave of vertices in one vectorized sweep.

        Vertex i removes the nodes q_mat[i] (k x M), has weights W[i]
        (k x n) and exchange directions dirs[i] (k x n x M), which this
        overwrites: at the removed rows direction j is exactly one at
        q_mat[i, j] and zero elsewhere.  Returns per vertex a list of M
        neighbor index tuples (None where the exchange is degenerate).
        """
        k, m = q_mat.shape
        dirs[np.arange(k)[:, None], q_mat, :] = self._eye
        pos = dirs > 0.0
        neg = dirs < 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = W[:, :, None] / dirs
        k_max = np.where(pos, ratios, np.inf).argmin(axis=1)
        k_min = np.where(neg, ratios, -np.inf).argmax(axis=1)
        # the own row is on the positive side at ratio zero, so the
        # exchange is degenerate exactly when no entry is negative
        cand = np.where(k_max == q_mat, k_min, k_max)
        swapped = np.where(self._eye, cand[:, :, None], q_mat[:, None, :])
        swapped.sort(axis=2)
        ok = neg.any(axis=1).ravel().tolist()
        flat = [tuple(t) if o else None for t, o in zip(swapped.reshape(k * m, m).tolist(), ok)]
        return [flat[i * m:(i + 1) * m] for i in range(k)]

    def initial(self) -> Removal:
        """A first valid removal via M successive single removals."""
        removed: list[int] = []
        w_work = self.w.copy()
        exclude = np.zeros(self.n, dtype=bool)
        while len(removed) < self.m:
            # a null direction whose weight change vanishes at `removed`
            c = self.C @ np.linalg.svd(self.C[removed, :])[2][-1] if removed else self.C[:, 0]
            a_min, k_min, a_max, k_max = ratio_extrema(w_work, c, exclude)
            if a_min > a_max:
                raise NoRemovalExists("empty removal interval from a positive rule")
            alpha, side = (a_max, +1) if abs(a_max) <= abs(a_min) else (a_min, -1)
            # excluded positions are zeroed anyway, attained or not
            attained = attained_indices(w_work, c, alpha, side)
            w_work = w_work - alpha * c
            w_work[attained] = 0.0
            w_work[exclude] = 0.0
            active = ~exclude
            tol = TOL_ZERO_FACTOR * max(float(w_work[active].max()), 0.0)
            newly = np.nonzero(active & (w_work <= tol))[0]
            if newly.size == 0:
                raise NoRemovalExists("no weight reached zero during initial removal")
            for j in newly:
                removed.append(int(j))
                exclude[j] = True
                w_work[j] = 0.0
        q = tuple(sorted(removed[: self.m]))
        _, w_q = self.vertex_weights(q)
        return self._build(q, w_q)

    def _pop_single(self, q):
        """(vertex weights, exchange partners) of one vertex, None if it fails."""
        try:
            _, w_q, dirs = self._pop_data(q)
        except NullSpaceFailure:
            return None
        return w_q, self._neighbors(np.asarray([q]), w_q[None, :], dirs[None])[0]

    _WAVE = 64

    def _process_wave(self, wave):
        """Vertex weights and exchange partners for a batch of removals.

        All per-vertex M x M inversions, weight updates, and interval
        scans run as stacked operations; vertices that fail the batch
        checks are redone individually.
        """
        k = len(wave)
        q_mat = np.asarray(wave, dtype=np.intp)
        A = self.C[q_mat]
        try:
            B = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            return [self._pop_single(q) for q in wave]
        wq_rm = self.w[q_mat][:, :, None]
        alphas = B @ wq_rm
        resid = np.abs(A @ alphas - wq_rm).max(axis=(1, 2))
        Wq = self.w - (self.C @ alphas)[:, :, 0]
        Wq[np.arange(k)[:, None], q_mat] = 0.0
        bad = ((resid > self._tol_res) | (Wq.min(axis=1) < self._tol_neg)).tolist()
        neighbors = self._neighbors(q_mat, Wq, self.C @ B)
        return [
            self._pop_single(q) if bad[i] else (Wq[i], neighbors[i])
            for i, q in enumerate(wave)
        ]

    def enumerate(self, cap: int = 10**6, initial: Removal | None = None,
                  stats: dict | None = None) -> list[Removal]:
        """The removals reachable from a start vertex, sorted.

        The caller seeds the walk with `initial`; `initial()` is the
        fallback when there is no seed or the seed fails the vertex
        checks.  Breadth-first over exchanges, a wave of up to _WAVE
        vertices at a time.  Once `cap` distinct removals have been seen
        the walk queues no more and returns the removals it found.
        `stats`, if given, receives the pops, the solves and whether the
        cap was hit.
        """
        results, pops, capped = self._walk(initial or self.initial(), cap)
        if not results and initial is not None:
            results, more, capped = self._walk(self.initial(), cap)
            pops += more
        if stats is not None:
            stats.update(pops=pops, solves=pops * (self.m + 1), capped=capped)
        return [results[k] for k in sorted(results)]

    def _walk(self, start: Removal, cap: int):
        """(removals by indices, pops, capped) of the walk from `start`."""
        queue = deque([tuple(start.indices)])
        seen = {tuple(start.indices)}
        results: dict[tuple[int, ...], Removal] = {}
        pops = 0
        capped = False
        while queue and not capped:
            wave = [queue.popleft() for _ in range(min(len(queue), self._WAVE))]
            pops += len(wave)
            for q, data in zip(wave, self._process_wave(wave)):
                if data is None:
                    continue
                w_q, neighbors = data
                results[q] = self._build(q, w_q)
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
