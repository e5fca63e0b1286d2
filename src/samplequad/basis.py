"""Multivariate polynomial bases: ordering, construction, and evaluation.

The basis is a sequence of polynomials phi_0, phi_1, ... of non-decreasing
total degree, with phi_0 the constant function.  Multi-indices are ordered
by ascending total degree; within a degree the tie-break compares exponent
vectors from the last coordinate, with the larger last-differing exponent
sorting later (a graded reverse-lexicographic order).  Each function is
a product of Legendre polynomials, each coordinate mapped affinely from
its domain box onto [-1, 1]; every basis of this space gives a rule the
same null spaces, so only the conditioning would change with another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DimensionMismatch, InvalidDomain, InvalidSpec, is_number, require_int, require_keys,
)

PRODUCT_LEGENDRE = "product_legendre"


def _compositions(total: int, parts: int):
    """All exponent tuples of `parts` entries summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _indices_cached(d: int, count: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []
    degree = 0
    while len(out) < count:
        out.extend(sorted(_compositions(degree, d), key=lambda e: e[::-1]))
        degree += 1
    return tuple(out[:count])


@dataclass(frozen=True)
class BasisSpec:
    """The first `size` product-Legendre polynomials on a domain box.

    `domain` stores one (lo, hi) pair per coordinate; each coordinate is
    mapped onto [-1, 1] before evaluation.  Indices are always
    regenerated from (d, size) on first use, never stored externally.
    """

    d: int
    size: int
    domain: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        for name in ("d", "size"):
            object.__setattr__(self, name, require_int(getattr(self, name), f"basis {name!r}"))
        if self.d < 1 or self.size < 1:
            raise InvalidSpec("need d >= 1 and size >= 1")
        domain = self.domain
        if not domain:
            domain = tuple((-1.0, 1.0) for _ in range(self.d))
            object.__setattr__(self, "domain", domain)
        if len(domain) != self.d:
            raise DimensionMismatch("domain box count must equal d")
        for lo, hi in domain:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InvalidDomain(f"basis 'domain' box [{lo}, {hi}] is not finite")
            if not lo < hi:
                raise InvalidDomain(f"degenerate domain box [{lo}, {hi}]")

    @cached_property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        """The exponent tuples in basis order, enumerated on first use."""
        return _indices_cached(self.d, self.size)

    @property
    def exponent_matrix(self) -> np.ndarray:
        """(size, d) int array of exponents, one row per basis function."""
        return np.asarray(self.indices, dtype=np.intp).reshape(self.size, self.d)

    def map_to_reference(self, points: np.ndarray) -> np.ndarray:
        """Affinely map points from the domain box onto [-1, 1]^d."""
        box = np.asarray(self.domain, dtype=float)
        lo, hi = box[:, 0], box[:, 1]
        return 2.0 * (points - lo) / (hi - lo) - 1.0

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "size": self.size,
            "family": PRODUCT_LEGENDRE,
            "domain": [[lo, hi] for lo, hi in self.domain],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BasisSpec":
        require_keys(data, ("d", "size", "family", "domain"), "basis spec")
        if data["family"] != PRODUCT_LEGENDRE:
            raise InvalidSpec(f"unknown basis family {data['family']!r}")
        domain = data["domain"]
        if not (isinstance(domain, (list, tuple)) and domain and all(
                isinstance(box, (list, tuple)) and len(box) == 2 and all(map(is_number, box))
                for box in domain)):
            raise InvalidSpec(f"basis 'domain' must be [lo, hi] pairs of numbers, got {domain!r}")
        return cls(
            d=data["d"],
            size=data["size"],
            domain=tuple((float(lo), float(hi)) for lo, hi in domain),
        )


def domain_from_samples(points: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Per-coordinate bounding box of a sample array (no expansion)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise DimensionMismatch("expected a non-empty (n, d) sample array")
    if not np.isfinite(pts).all():
        raise InvalidDomain("samples must be finite (found NaN or inf)")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    if np.any(lo >= hi):
        bad = int(np.argmax(lo >= hi))
        raise InvalidDomain(f"samples are constant in coordinate {bad}")
    return tuple((float(a), float(b)) for a, b in zip(lo, hi))


def _legendre_table(x: np.ndarray, max_degree: int) -> np.ndarray:
    """Legendre values P_0..P_max_degree at x, shape (max_degree+1, len(x)).

    Three-term recurrence (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}.
    """
    x = np.asarray(x, dtype=float)
    table = np.empty((max_degree + 1, x.shape[0]))
    table[0] = 1.0
    if max_degree >= 1:
        table[1] = x
    for n in range(1, max_degree):
        table[n + 1] = ((2 * n + 1) * x * table[n] - n * table[n - 1]) / (n + 1)
    return table


def basis_matrix(spec: BasisSpec, points: np.ndarray) -> np.ndarray:
    """Evaluate every basis function at every point.

    Returns shape (size, n_points): entry (j, k) is phi_j(points[k]).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[1] != spec.d:
        raise DimensionMismatch(
            f"points have dimension {pts.shape[1]}, basis expects {spec.d}"
        )
    expo = spec.exponent_matrix
    ref = spec.map_to_reference(pts)
    out = np.ones((spec.size, pts.shape[0]))
    for i in range(spec.d):
        max_deg = int(expo[:, i].max())
        table = _legendre_table(ref[:, i], max_deg)
        out *= table[expo[:, i], :]
    return out
