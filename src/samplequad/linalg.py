"""Null vectors of the extended Vandermonde: a cached inverse, an SVD fallback.

The per-sample iteration repeatedly needs one null vector of a matrix
that is the current (square) Vandermonde extended by a single new
column.  `ExtensionFactorization` keeps an explicit inverse of the
square base, updated by rank-one exchanges, so each null vector costs
O(n^2) instead of a fresh O(n^3) factorization.  Its upkeep follows the
residuals, not a schedule: every fast-path solve is residual-checked,
and the squared norms that judge it also scale its null vector; a
rejected solve gets one step of iterative refinement from the residual
already computed (Skeel 1980); only then is an inverse that exchanges
have updated recomputed, and an SVD of the explicitly extended matrix
is the last resort.  That SVD is the only one the streaming engine
runs: it keeps a square base through degenerate steps, so a base has
no inverse only where repeated samples leave it singular.

`ExtensionFactorization.solve_block` solves the base against a whole
block of extension columns with one matrix product and the same
acceptance per column; the block-speculative stream uses it to price a
run of samples at once, and again through the exchanged inverse after
each swap it takes inside the run.
"""

from __future__ import annotations

import numpy as np

from .basis import basis_matrix  # noqa: F401  (perfbench's timing shims wrap it here)
from .errors import DimensionMismatch, NullSpaceFailure
from .tolerances import TOL_FAST, TOL_LEAD, TOL_NULL, TOL_PIVOT


def _fix_sign(c: np.ndarray) -> np.ndarray:
    """Deterministic sign: first entry above noise level is positive."""
    mag = np.abs(c)
    scale = mag.max()
    if scale == 0.0:
        return c
    nz = (mag > TOL_LEAD * scale).nonzero()[0]
    lead = nz[0] if nz.size else int(mag.argmax())
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

    Solves for null vectors of the base extended by one column, and
    follows the per-sample iteration by in-place column exchanges.  An
    exchange marks the inverse stale; a stale inverse is recomputed only
    when a solve through it fails even after refinement.  A singular
    base has no inverse and takes the SVD path.
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

    def _solve(self, cols: np.ndarray):
        """(Z, accepted, squared norms of Z) for V z = col, one column or many.

        Solves through the cached inverse and checks every column with
        `_fast_accepts`; a rejected column gets one refinement step
        z -= inv (V z - col) and is checked again.  The squared norms
        that judged the columns are returned for the normalization.
        None without an inverse.
        """
        inv = self._inv
        if inv is None:
            return None
        Z = inv @ cols
        R = self.V @ Z
        R -= cols
        zz = _sq(Z)
        fnorm = np.sqrt(self._fnorm2 + _sq(cols))
        ok = _fast_accepts(zz, R, fnorm)
        if not (ok.all() if Z.ndim == 2 else ok):
            refined = Z - inv @ R
            redo = _fast_accepts(_sq(refined), self.V @ refined - cols, fnorm)
            Z = np.where(ok, Z, refined)
            ok = ok | redo
            zz = _sq(Z)
        return Z, ok, zz

    def null_vector_extended(self, col: np.ndarray) -> np.ndarray:
        """Unit null vector of [V_base, col], new column last.

        Fast path solves V z = col through the cached inverse and forms
        (z, -1); a solve that fails its residual check after refinement
        is retried once on a recomputed inverse if exchanges have updated
        it, and an SVD fallback guarantees the public contract either way.
        """
        col = np.asarray(col, dtype=float)
        if col.shape[0] != self.V.shape[0]:
            raise DimensionMismatch("extension column has wrong length")
        solved = self._solve(col)
        if self._stale and not solved[1]:
            self._refresh()
            solved = self._solve(col)
        if solved is None or not solved[1]:
            return null_vector(np.column_stack([self.V, col]))
        z, _, zz = solved
        c = np.empty(z.shape[0] + 1)
        c[:-1] = z
        c[-1] = -1.0
        return _fix_sign(c / np.sqrt(zz + 1.0))

    def solve_block(self, cols: np.ndarray):
        """Fast-path solves of V z = col for every column of `cols` at once.

        Returns (Z, accepted): Z holds the solutions column by column,
        and `accepted` marks the columns whose null vector (z, -1) passes
        the residual acceptance of `null_vector_extended`'s fast path.
        Returns None when there is no cached inverse (the base is
        singular); nothing is recomputed or falls back to an SVD here.
        """
        cols = np.asarray(cols, dtype=float)
        if cols.ndim != 2 or cols.shape[0] != self.V.shape[0]:
            raise DimensionMismatch("extension columns have wrong length")
        solved = self._solve(cols)
        return None if solved is None else solved[:2]

    def null_vectors_extended(self, cols: np.ndarray) -> np.ndarray:
        """Unit null vectors of [V_base, col] for every column of `cols`.

        Column t of the result is, up to sign and rounding, what
        `null_vector_extended(cols[:, t])` returns: one block solve serves
        every column, and only a column it rejects (every column, without
        an inverse) takes `null_vector_extended` with its recomputed
        inverse and SVD.  The squared norms that accepted a column scale
        it.  `cols` is a float array of shape (b, k).
        """
        k = cols.shape[1]
        Z, ok, zz = self._solve(cols) or (np.zeros(cols.shape), np.zeros(k, dtype=bool), 0.0)
        U = np.empty((Z.shape[0] + 1, k))
        U[:-1] = Z
        U[-1] = -1.0
        U /= np.sqrt(zz + 1.0)
        for t in (~ok).nonzero()[0]:
            U[:, t] = self.null_vector_extended(cols[:, t])
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
