"""Dense Vandermonde assembly and robust null-space extraction.

The per-sample iteration repeatedly needs one null vector of a matrix
that is the current (square) Vandermonde extended by a single new
column.  `ExtensionFactorization` keeps an explicit inverse of the
square base, refreshed periodically and updated by rank-one exchanges,
so each null vector costs O(n^2) instead of a fresh O(n^3)
factorization.  Every fast-path result is residual-checked and falls
back to an SVD of the explicitly extended matrix on failure.

`ExtensionFactorization.solve_block` solves the base against a whole
block of extension columns with one matrix product, applying the same
residual acceptance to each column; the block-speculative stream uses
it to price a run of samples at once.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisSpec, basis_matrix
from .errors import DimensionMismatch, NullSpaceFailure
from .tolerances import TOL_FAST, TOL_LEAD, TOL_NULL, TOL_PIVOT

_REFRESH_EVERY = 128


def build_vandermonde(spec: BasisSpec, nodes) -> np.ndarray:
    """V[j][k] = phi_j(nodes[k]); shape (size, n_nodes)."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim == 1:
        nodes = nodes.reshape(-1, 1) if spec.d == 1 else nodes.reshape(1, -1)
    if nodes.shape[0] < 1:
        raise DimensionMismatch("need at least one node")
    return basis_matrix(spec, nodes)


def _fix_sign(c: np.ndarray) -> np.ndarray:
    """Deterministic sign: first entry above noise level is positive."""
    scale = np.abs(c).max()
    if scale == 0.0:
        return c
    nz = np.nonzero(np.abs(c) > TOL_LEAD * scale)[0]
    lead = nz[0] if nz.size else int(np.argmax(np.abs(c)))
    return -c if c[lead] < 0 else c


def _fast_accepts(resid, norm, fnorm):
    """Fast-path residual acceptance of a null vector (z, -1)/norm."""
    return resid / norm <= TOL_FAST * np.maximum(fnorm, 1.0)


def null_vector(V: np.ndarray, tol_null: float = TOL_NULL) -> np.ndarray:
    """One unit-norm null vector of a wide matrix.

    Requires cols > rows.  The result satisfies ||V c||_2 <= tol_null *
    ||V||_F; otherwise NullSpaceFailure is raised.  Deterministic: SVD
    direction of the smallest singular value, sign-fixed so the first
    non-negligible entry is positive.
    """
    return null_space(V, 1, tol_null)[:, 0]


def null_space(V: np.ndarray, m: int, tol_null: float = TOL_NULL) -> np.ndarray:
    """m orthonormal null vectors of V as columns of an (n, m) array."""
    V = np.asarray(V, dtype=float)
    rows, cols = V.shape
    if cols < rows + m:
        raise DimensionMismatch(f"need cols >= rows + {m} for {m} null vectors")
    _, _, vt = np.linalg.svd(V, full_matrices=True)
    bound = tol_null * np.linalg.norm(V)
    out = np.empty((cols, m))
    for j in range(m):
        out[:, j] = _fix_sign(vt[cols - 1 - j])
    resid = np.abs(V @ out).max(initial=0.0)
    if resid > bound:
        raise NullSpaceFailure(f"null-space residual {resid:.3e} exceeds {bound:.3e}")
    return out


class ExtensionFactorization:
    """Reusable factorization of a square base matrix.

    Supports solving for null vectors of the base extended by one
    column, plus in-place column exchange so the factorization follows
    the per-sample iteration.  A base that is not square (or is
    numerically singular) transparently degrades to the SVD path.
    """

    def __init__(self, V_base: np.ndarray, tol_null: float = TOL_NULL):
        self.V = np.array(V_base, dtype=float)
        self.tol_null = tol_null
        self._inv = None
        self._updates_since_refresh = 0
        self._fnorm2 = float(np.sum(self.V * self.V))
        self._refresh()

    @property
    def shape(self):
        return self.V.shape

    def _refresh(self):
        self._fnorm2 = float(np.sum(self.V * self.V))
        rows, cols = self.V.shape
        if rows != cols:
            self._inv = None
            return
        try:
            self._inv = np.linalg.inv(self.V)
        except np.linalg.LinAlgError:
            self._inv = None
        self._updates_since_refresh = 0

    def _extended_fnorm(self, col: np.ndarray) -> float:
        return float(np.sqrt(self._fnorm2 + np.dot(col, col)))

    def _try_fast(self, col: np.ndarray, fnorm: float):
        if self._inv is None:
            return None
        z = self._inv @ col
        resid = np.linalg.norm(self.V @ z - col)
        norm = np.sqrt(np.dot(z, z) + 1.0)
        if not _fast_accepts(resid, norm, fnorm):
            return None
        c = np.empty(z.shape[0] + 1)
        c[:-1] = z
        c[-1] = -1.0
        return _fix_sign(c / norm)

    def _refresh_if_due(self):
        if self._inv is not None and self._updates_since_refresh >= _REFRESH_EVERY:
            self._refresh()

    def null_vector_extended(self, col: np.ndarray) -> np.ndarray:
        """Unit null vector of [V_base, col], new column last.

        Fast path solves V z = col through the cached inverse and forms
        (z, -1); the residual is verified against the extended matrix
        and an SVD fallback guarantees the public contract either way.
        """
        col = np.asarray(col, dtype=float)
        if col.shape[0] != self.V.shape[0]:
            raise DimensionMismatch("extension column has wrong length")
        fnorm = self._extended_fnorm(col)
        self._refresh_if_due()
        c = self._try_fast(col, fnorm)
        if c is None and self._updates_since_refresh > 0:
            # drifted update chain: one fresh factorization retry
            self._refresh()
            c = self._try_fast(col, fnorm)
        if c is not None:
            return c
        extended = np.column_stack([self.V, col])
        return null_vector(extended, self.tol_null)

    def solve_block(self, cols: np.ndarray):
        """Fast-path solves of V z = col for every column of `cols` at once.

        Returns (Z, accepted): Z holds the solutions column by column,
        and `accepted` marks the columns whose null vector (z, -1) passes
        the residual acceptance of `null_vector_extended`'s fast path.
        Returns None when there is no cached inverse (the base is not
        square or is singular); nothing falls back to an SVD here.
        """
        cols = np.asarray(cols, dtype=float)
        if cols.ndim != 2 or cols.shape[0] != self.V.shape[0]:
            raise DimensionMismatch("extension columns have wrong length")
        self._refresh_if_due()
        if self._inv is None:
            return None
        Z = self._inv @ cols
        R = self.V @ Z
        R -= cols
        resid = np.sqrt(np.einsum("ij,ij->j", R, R))
        norm = np.sqrt(np.einsum("ij,ij->j", Z, Z) + 1.0)
        fnorm = np.sqrt(self._fnorm2 + np.einsum("ij,ij->j", cols, cols))
        return Z, _fast_accepts(resid, norm, fnorm)

    def replace_column(self, k: int, col: np.ndarray) -> None:
        """Exchange column k for `col`, updating the cached inverse.

        Rank-one (Sherman-Morrison) update; refreshed from scratch when
        the pivot is too small to trust.
        """
        col = np.asarray(col, dtype=float)
        old = self.V[:, k].copy()
        self.V[:, k] = col
        self._fnorm2 += float(np.dot(col, col) - np.dot(old, old))
        if self._inv is None:
            # a singular square base can become regular by the exchange
            if self.V.shape[0] == self.V.shape[1]:
                self._refresh()
            return
        z = self._inv @ col
        pivot = z[k]
        if abs(pivot) < TOL_PIVOT * max(np.abs(z).max(), 1.0):
            self._refresh()
            return
        # inv(V + (col - V e_k) e_k^T) via Sherman-Morrison
        adjust = (z - np.eye(1, z.shape[0], k)[0]) / pivot
        self._inv -= np.outer(adjust, self._inv[k, :])
        self._updates_since_refresh += 1

    def remove_columns(self, keep: np.ndarray) -> None:
        """Shrink the base to the kept columns; factorization is rebuilt."""
        self.V = np.ascontiguousarray(self.V[:, keep])
        self._refresh()

    def append_column(self, col: np.ndarray) -> None:
        self.V = np.column_stack([self.V, np.asarray(col, dtype=float)])
        self._refresh()
