"""Conic partitions of standard-Gaussian space with exact bin probabilities.

Each bin is a cone (a union of half-lines from the origin), so
membership depends only on direction: ``classify(c * x) == classify(x)``
for every c > 0. Bin probabilities are analytical, never estimated.
Points that land exactly on a cut are assigned deterministically to the
bin on the non-strict (>=) side.

Bin indices are 0-based throughout the library; file outputs label the
columns 1..J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, check_count

# rows copied at a time where a copy of every row would take as much memory as
# the rows themselves: the orthant classify and the lockstep rounds of chains.
# At 100,000 points in 10-D, classifying 4096 rows at a time is no slower than
# one matmul, and 8 to 12 times faster than a loop over the columns
BLOCK = 4096


def blocks(size: int) -> list[slice]:
    """Slices of at most :data:`BLOCK` rows that cover ``size`` rows, in order."""
    return [slice(a, a + BLOCK) for a in range(0, size, BLOCK)]


@dataclass(frozen=True)
class Partition:
    """A map from points to bin indices with known bin probabilities."""

    kind: str
    dimension: int
    probs: np.ndarray
    classify_batch: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    @property
    def n_bins(self) -> int:
        return len(self.probs)

    def classify(self, points) -> np.ndarray:
        """Bin index of each row of an (N, n) array."""
        return self.classify_batch(np.asarray(points, dtype=float))


def make_single_bin(dimension: int) -> Partition:
    """The trivial partition: one bin covering the whole space."""
    check_count(dimension, "dimension")
    return Partition(
        "single",
        dimension,
        np.array([1.0]),
        lambda pts: np.zeros(pts.shape[0], dtype=np.int64),
    )


def make_angular_sectors_2d(cuts) -> Partition:
    """Partition the plane into angular sectors between consecutive cut angles.

    Parameters
    ----------
    cuts : sequence of float
        Strictly increasing angles in (-pi, pi], at least two. Sector j
        spans [cuts[j], cuts[j+1]); the last sector wraps from the final
        cut through +/-pi back to the first. Sector probabilities are
        angular widths over 2*pi, by rotational symmetry of the
        standard Gaussian.
    """
    cuts = np.asarray(cuts, dtype=float)
    if cuts.size < 2:
        raise ConfigurationError("angular partition needs at least 2 cut angles")
    if not np.isfinite(cuts).all():
        raise ConfigurationError("cut angles must be finite")
    if np.any(np.diff(cuts) <= 0):
        raise ConfigurationError("cut angles must be strictly increasing")
    if cuts[0] <= -math.pi or cuts[-1] > math.pi:
        raise ConfigurationError("cut angles must lie in (-pi, pi]")

    widths = np.empty(cuts.size)
    widths[:-1] = np.diff(cuts)
    widths[-1] = 2.0 * math.pi - (cuts[-1] - cuts[0])
    probs = widths / widths.sum()

    # the sector of an angle with s cuts at or below it: s - 1, or the
    # wrap-around sector for an angle below the first cut (NaN included)
    sector = np.arange(cuts.size + 1) - 1
    sector[0] = cuts.size - 1
    column = cuts[:, None]

    def _classify(pts: np.ndarray) -> np.ndarray:
        # one comparison per cut counts them, 4x faster than a binary search
        # at 10,000 points
        return sector.take(np.add.reduce(np.arctan2(pts[:, 1], pts[:, 0]) >= column, axis=0))

    return Partition("angular", 2, probs, _classify)


def make_halfspace(axis: int, dimension: int) -> Partition:
    """Two bins split by the sign of coordinate ``axis`` (1-based, as in theta_1).

    Bin 0 is the negative side, bin 1 the non-negative side (boundary
    points go to bin 1).
    """
    check_count(axis, "axis", 1, dimension)
    col = axis - 1
    return Partition(
        "halfspace",
        dimension,
        np.array([0.5, 0.5]),
        lambda pts: (pts[:, col] >= 0.0).astype(np.int64),
    )


def make_orthants(dimension: int) -> Partition:
    """All 2**n orthants by coordinate signs; boundary planes go to the >= side."""
    check_count(dimension, "dimension")
    if dimension > 30:
        raise ConfigurationError(
            f"orthant partition of dimension {dimension} would need 2**{dimension} bins"
        )
    n_bins = 2**dimension
    weights = (2 ** np.arange(dimension)).astype(np.int64)

    def _classify(pts: np.ndarray) -> np.ndarray:
        out = np.empty(pts.shape[0], np.int64)
        for b in blocks(pts.shape[0]):  # no integer copy of every point
            out[b] = (pts[b] >= 0.0).astype(np.int64) @ weights
        return out

    return Partition("orthants", dimension, np.full(n_bins, 1.0 / n_bins), _classify)


def from_spec(kind: str, dimension: int, cuts=None, axis: int | None = None) -> Partition:
    """Build a partition from its declarative description (CLI configs); a
    ``cuts`` or ``axis`` that the kind does not use is an error, not dropped."""
    for key, value, owner in (("cuts", cuts, "angular"), ("axis", axis, "halfspace")):
        if value is not None and kind != owner:
            raise ConfigurationError(f"{key!r} applies to the {owner} partition only, "
                                     f"not to {kind!r}")
    if kind == "single":
        return make_single_bin(dimension)
    if kind == "angular":
        if dimension != 2:
            raise ConfigurationError("angular partitions are two-dimensional")
        if cuts is None:
            raise ConfigurationError("angular partition requires a 'cuts' list")
        return make_angular_sectors_2d(cuts)
    if kind == "halfspace":
        if axis is None:
            raise ConfigurationError("halfspace partition requires an 'axis'")
        return make_halfspace(axis, dimension)
    if kind == "orthants":
        return make_orthants(dimension)
    raise ConfigurationError(
        f"unknown partition kind {kind!r} (known: single, angular, halfspace, orthants)"
    )
