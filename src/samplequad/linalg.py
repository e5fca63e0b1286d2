"""Null vectors of the extended Vandermonde: a cached inverse, an SVD fallback.

The per-sample iteration repeatedly needs the null directions of the
current (square) Vandermonde V extended by new columns.  The one
convention is the direction (z, -1) with V z = col: the new column's
entry is -1, and z is left as solved, not normalized or sign-fixed.
`ExtensionFactorization` keeps an explicit inverse of the square base,
updated by rank-one exchanges, so each solve costs O(n^2) instead of a
fresh O(n^3) factorization, and a block of columns costs one matrix
product.  Its upkeep follows the residuals, not a schedule: every solve
is residual-checked per column; a rejected column gets one step of
iterative refinement from the residual already computed (Skeel 1980);
only then is an inverse that exchanges have updated recomputed, and an
SVD of the explicitly extended matrix, signed to match the convention,
is the last resort.  That SVD is the only one the streaming engine
runs: it keeps a square base through degenerate steps, so a base has
no inverse only where repeated samples leave it singular.
"""

from __future__ import annotations

import numpy as np

from .basis import basis_matrix  # noqa: F401  (perfbench's timing shims wrap it here)
from .errors import DimensionMismatch, NullSpaceFailure
from .tolerances import TOL_FAST, TOL_LEAD, TOL_NULL, TOL_PIVOT


def _fix_sign(c: np.ndarray) -> np.ndarray:
    """Deterministic sign of a unit vector: first entry above noise level is positive."""
    mag = np.abs(c)
    lead = (mag > TOL_LEAD * mag.max()).argmax()
    return -c if c[lead] < 0 else c


def _sq(x: np.ndarray):
    """Squared Euclidean norm of a vector, or of each column of a matrix."""
    return x @ x if x.ndim == 1 else np.einsum("ij,ij->j", x, x)


def _fast_accepts(zz, R, fnorm):
    """Fast-path acceptance of the null vectors (z, -1)/norm, per column.

    `zz` holds the squared norms of the solutions z, R = V Z - cols
    their residuals, and `fnorm` the Frobenius norm of each extended
    matrix [V, col].
    """
    return np.sqrt(_sq(R)) / np.sqrt(zz + 1.0) <= TOL_FAST * np.maximum(fnorm, 1.0)


def null_vector(V: np.ndarray) -> np.ndarray:
    """One unit-norm null vector of a wide matrix.

    Requires cols > rows.  The result satisfies ||V c||_2 <= TOL_NULL *
    ||V||_F; otherwise NullSpaceFailure is raised.  Deterministic: SVD
    direction of the smallest singular value, sign-fixed so the first
    non-negligible entry is positive.
    """
    return null_space(V, 1)[:, 0]


def null_space(V: np.ndarray, m: int) -> np.ndarray:
    """m orthonormal null vectors of V as columns of an (n, m) array."""
    V = np.asarray(V, dtype=float)
    rows, cols = V.shape
    if cols < rows + m:
        raise DimensionMismatch(f"need cols >= rows + {m} for {m} null vectors")
    _, _, vt = np.linalg.svd(V, full_matrices=True)
    bound = TOL_NULL * np.linalg.norm(V)
    out = np.empty((cols, m))
    for j in range(m):
        out[:, j] = _fix_sign(vt[cols - 1 - j])
    resid = np.abs(V @ out).max(initial=0.0)
    if resid > bound:
        raise NullSpaceFailure(f"null-space residual {resid:.3e} exceeds {bound:.3e}")
    return out


class ExtensionFactorization:
    """Explicit inverse of a square base matrix, kept usable by residuals.

    `solve` gives the solutions z of the base against extension
    columns, `null_vector_extended` the null directions (z, -1) they
    make, and in-place column exchanges follow the per-sample
    iteration.  An exchange marks the inverse stale; a stale inverse is
    recomputed only when a solve through it fails even after
    refinement.  A singular base has no inverse and takes the SVD path.
    """

    def __init__(self, V_base: np.ndarray):
        self.V = np.array(V_base, dtype=float)
        self._refresh()

    def _refresh(self):
        self._fnorm2 = float(np.sum(self.V * self.V))
        self._inv = None
        self._stale = False
        # a singular base raises LinAlgError
        try:
            self._inv = np.linalg.inv(self.V)
        except np.linalg.LinAlgError:
            pass

    def solve(self, cols: np.ndarray):
        """(Z, accepted) for V z = col, one column or each column of `cols`.

        Solves through the cached inverse and checks every column's null
        vector (z, -1) with `_fast_accepts`; a rejected column gets one
        refinement step z -= inv (V z - col) and is checked again.
        Returns None when there is no cached inverse (the base is
        singular); nothing is recomputed or falls back to an SVD here.
        """
        if cols.shape[0] != self.V.shape[0]:
            raise DimensionMismatch("extension columns have wrong length")
        inv = self._inv
        if inv is None:
            return None
        Z = inv @ cols
        R = self.V @ Z
        R -= cols
        fnorm = np.sqrt(self._fnorm2 + _sq(cols))
        ok = _fast_accepts(_sq(Z), R, fnorm)
        if not (ok.all() if Z.ndim == 2 else ok):
            refined = Z - inv @ R
            redo = _fast_accepts(_sq(refined), self.V @ refined - cols, fnorm)
            Z = np.where(ok, Z, refined)
            ok = ok | redo
        return Z, ok

    def null_vector_extended(self, cols: np.ndarray) -> np.ndarray:
        """Null vectors (z, -1) of [V_base, col], new column last.

        One column gives one vector; a (b, k) array gives k vectors as
        columns.  `solve` serves every column; only a column it rejects
        (every column, without an inverse) takes the slow path: a solve
        through the recomputed inverse if exchanges have updated it, then
        the unit SVD vector, signed so that its last entry is <= 0, the
        direction (z, -1) up to a positive factor where that entry is
        not zero.
        """
        cols = np.asarray(cols, dtype=float)
        Z, ok = self.solve(cols) or (0.0, np.zeros(cols.shape[1:], dtype=bool))
        U = np.empty((cols.shape[0] + 1,) + cols.shape[1:])
        U[:-1] = Z
        U[-1] = -1.0
        if np.all(ok):
            return U
        # as (rows, k) views, a single column is column 0
        C, U2 = cols.reshape(cols.shape[0], -1), U.reshape(U.shape[0], -1)
        bad = np.flatnonzero(~ok)
        if self._stale:
            self._refresh()
            again = self.solve(C[:, bad])
            if again is not None:
                U2[:-1, bad] = again[0]
                bad = bad[~again[1]]
        for t in bad.tolist():
            c = null_vector(np.column_stack([self.V, C[:, t]]))
            U2[:, t] = -c if c[-1] > 0.0 else c
        return U

    def replace_column(self, k: int, col: np.ndarray) -> None:
        """Exchange column k for `col`, updating the cached inverse.

        Rank-one (Sherman-Morrison) update, which leaves the inverse
        stale; recomputed at once when the pivot is too small to trust.
        """
        col = np.asarray(col, dtype=float)
        old = self.V[:, k].copy()
        self.V[:, k] = col
        self._fnorm2 += float(col @ col - old @ old)
        if self._inv is None:
            # a singular base can become regular by the exchange
            self._refresh()
            return
        z = self._inv @ col
        pivot = z[k]
        if abs(pivot) < TOL_PIVOT * np.abs(z).max(initial=1.0):
            self._refresh()
            return
        # inv(V + (col - V e_k) e_k^T) = inv - (z - e_k) inv[k] / pivot, the
        # outer product as one BLAS product of a column and a row
        z[k] -= 1.0
        self._inv -= np.dot((z / pivot)[:, None], self._inv[k][None])
        self._stale = True

    def remove_columns(self, keep: np.ndarray) -> None:
        """Shrink the base to the kept columns; factorization is rebuilt."""
        self.V = np.ascontiguousarray(self.V[:, keep])
        self._refresh()

    def append_column(self, col: np.ndarray) -> None:
        self.V = np.column_stack([self.V, np.asarray(col, dtype=float)])
        self._refresh()
