"""Null vectors of the extended Vandermonde: a cached inverse, LU and SVD fallbacks.

The per-sample iteration needs the null directions (z, -1), V z = col,
of the square Vandermonde V extended by new columns.
`ExtensionFactorization` keeps an explicit inverse of V, updated by
rank-one exchanges, so a solve costs O(n^2) and a block of columns one
matrix product.  Every solve is residual-checked per column; a rejected
column gets one step of iterative refinement (Skeel 1980); only then is
an inverse that exchanges have updated recomputed.  A column still
rejected is solved by LU (`np.linalg.solve`, backward stable where
cond(V) is beyond what refinement through an inverse recovers), judged
by the same residual test, and an SVD of the extended matrix, signed to
match, is the last resort (the engine's only SVD).  Each exchange solves
its own entering column.

`largest`, `smallest`, `any_of` and `all_of` reduce the steps' 1-D
arrays, which are never empty (there they raise).  On b + 1 entries
`max`, `min`, `any` and `all` spend 1-2 us in `ufunc.reduce` dispatch; an
arg-reduction picks the same entry, a NaN included, for a quarter of that.
Of tied zeros it picks the first, of either sign: callers only compare.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import basis_matrix  # noqa: F401  (perfbench's timing shims wrap it here)
from .errors import DimensionMismatch, NullSpaceFailure
from .tolerances import TOL_FAST, TOL_LEAD, TOL_NULL, TOL_PIVOT


def largest(a):
    return a[a.argmax()]


def smallest(a):
    return a[a.argmin()]


# of a bool mask, the largest entry is `any` and the smallest `all`
any_of, all_of = largest, smallest


def _fix_sign(c: np.ndarray) -> np.ndarray:
    """Deterministic sign of a unit vector: first entry above noise level is positive."""
    mag = np.abs(c)
    lead = (mag > TOL_LEAD * mag.max()).argmax()
    return -c if c[lead] < 0 else c


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
    out = np.column_stack([_fix_sign(vt[cols - 1 - j]) for j in range(m)])
    resid = np.abs(V @ out).max(initial=0.0)
    if resid > bound:
        raise NullSpaceFailure(f"null-space residual {resid:.3e} exceeds {bound:.3e}")
    return out


class ExtensionFactorization:
    """Explicit inverse of a square base matrix, kept usable by residuals.

    `solve` gives the solutions z of the base against extension columns,
    and `null_vector_extended` null directions (z, -1) for any column,
    with a slow path for those `solve` rejects.  In-place column
    exchanges follow the per-sample iteration.  An exchange marks the
    inverse stale; a stale inverse is recomputed only when a solve
    through it fails even after refinement.  A singular base has no
    inverse, and no LU: it takes the SVD path.
    """

    def __init__(self, V_base: np.ndarray):
        self.V = np.array(V_base, dtype=float)
        self._refresh()

    def _refresh(self):
        self._fnorm2, self._inv, self._stale = float(np.sum(self.V * self.V)), None, False
        try:
            self._inv = np.linalg.inv(self.V)
        except np.linalg.LinAlgError:  # a singular base
            pass

    def solve(self, cols: np.ndarray):
        """(Z, accepted) for V z = col, one column or each column of `cols`.

        Solves through the cached inverse and checks each null vector
        (z, -1) by its residual; a rejected column gets one refinement
        step z -= inv (V z - col) and is checked again.  One column is
        checked on Python floats, a block by one stacked squared-norm
        reduction, with the same verdicts.  None without a cached inverse
        (a singular base).
        """
        if cols.shape[0] != self.V.shape[0]:
            raise DimensionMismatch("extension columns have wrong length")
        inv = self._inv
        if inv is None:
            return None
        if cols.ndim == 1:
            z = inv @ cols
            r, ok = self._check(z, cols)
            if not ok:
                z = z - inv @ r
                ok = self._check(z, cols)[1]
            return z, ok
        Z = inv @ cols
        R = self.V @ Z - cols
        S = np.concatenate([Z, R, cols], axis=1)
        zz, rr, cc = np.einsum("ij,ij->j", S, S).reshape(3, -1)
        bound = TOL_FAST * np.maximum(np.sqrt(self._fnorm2 + cc), 1.0)
        ok = np.sqrt(rr) / np.sqrt(zz + 1.0) <= bound
        if not all_of(ok):
            refined = Z - inv @ R
            R = self.V @ refined - cols
            zz, rr = (np.einsum("ij,ij->j", X, X) for X in (refined, R))
            redo = np.sqrt(rr) / np.sqrt(zz + 1.0) <= bound
            Z = np.where(ok, Z, refined)
            ok |= redo
        return Z, ok

    def _check(self, z, col):
        """(V z - col, whether (z, -1) passes the residual test) for one column."""
        r = self.V @ z - col
        bound = TOL_FAST * max(math.sqrt(self._fnorm2 + float(col @ col)), 1.0)
        return r, math.sqrt(float(r @ r)) / math.sqrt(float(z @ z) + 1.0) <= bound

    def null_vector_extended(self, cols: np.ndarray) -> np.ndarray:
        """Null vectors (z, -1) of [V_base, col], new column last.

        One column gives one vector; a (b, k) array gives k vectors as
        columns.  `solve` serves the columns it accepts.  A rejected one
        (every column, without an inverse) is solved through the
        recomputed inverse if exchanges have updated it, then by LU, one
        column at a time, judged by the same residual test; else it takes
        the unit SVD vector, signed so that its last entry is <= 0: the
        direction (z, -1) scaled to unit norm.
        """
        cols = np.asarray(cols, dtype=float)
        one = cols.ndim == 1
        Z, ok = self.solve(cols) or (0.0, False if one else np.zeros(cols.shape[1], dtype=bool))
        U = np.empty((cols.shape[0] + 1,) + cols.shape[1:])
        U[:-1] = Z
        U[-1] = -1.0
        if ok if one else all_of(ok):
            return U
        # as (rows, k) views, a single column is column 0
        C, U2 = cols.reshape(cols.shape[0], -1), U.reshape(U.shape[0], -1)
        bad = np.flatnonzero(np.logical_not(ok))
        if self._stale:
            self._refresh()
            again = self.solve(C[:, bad])
            if again is not None:
                U2[:-1, bad] = again[0]
                bad = bad[~again[1]]
        for t in bad.tolist():
            try:
                z = np.linalg.solve(self.V, C[:, t])
                if self._check(z, C[:, t])[1]:
                    U2[:-1, t] = z
                    continue
            except np.linalg.LinAlgError:  # a singular base
                pass
            c = null_vector(np.column_stack([self.V, C[:, t]]))
            U2[:, t] = -c if c[-1] > 0.0 else c
        return U

    def replace_column(self, k: int, col: np.ndarray) -> None:
        """Exchange column k for `col`, updating the cached inverse.

        Solves z = inv @ col against the base before the exchange, then
        a rank-one (Sherman-Morrison) update, which leaves the inverse
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
        # max(nan, 1.0) is nan, as with `initial`
        if abs(pivot) < TOL_PIVOT * max(largest(np.abs(z)), 1.0):
            self._refresh()
            return
        # inv(V + (col - V e_k) e_k^T) = inv - (z - e_k) inv[k] / pivot, the
        # outer product as one BLAS product of a column and a row
        z[k] -= 1.0
        z /= pivot
        self._inv -= np.dot(z[:, None], self._inv[k][None])
        self._stale = True

    def remove_columns(self, keep: np.ndarray) -> None:
        """Shrink the base to the kept columns; factorization is rebuilt."""
        self.V = np.ascontiguousarray(self.V[:, keep])
        self._refresh()

    def append_column(self, col: np.ndarray) -> None:
        self.V = np.column_stack([self.V, np.asarray(col, dtype=float)])
        self._refresh()
