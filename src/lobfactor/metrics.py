"""Tail realism metrics: tail point clouds, Hill indices, and optimal transport.

The quantity of interest is the shape of the upper 5% of absolute
standardized returns. Its one representation is the tail cloud: the K
log-ratios of the top order statistics over the (K+1)-th, a 1-D point
cloud built from one sort of the series. Both summaries read that cloud:
the Hill index (a scalar power-law exponent estimate) is K over the sum
of its points, and exact optimal transport with squared-distance cost
compares it against reference clouds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np


ABS_AUTOCORR_LAGS = (1, 10, 20, 30)  # the |return| autocorrelation lags every report gives


class DegenerateSeriesError(ValueError):
    """A statistic is undefined on the given series (zero variance, zero tail)."""


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray  # shape (n,)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError(f"points must be a nonempty 1-D array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("cloud coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @cached_property
    def sorted_coords(self) -> np.ndarray:
        """The coordinates in ascending order, sorted once per cloud."""
        return np.sort(self.points)

    @property
    def size(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class StylizedFactReport:
    kurtosis: float  # excess
    vol_volume_corr: float | None
    abs_autocorr: dict[int, float] = field(default_factory=dict)


def standardize(returns) -> np.ndarray:
    """Affine map to mean 0, standard deviation 1 (population normalization)."""
    x = np.asarray(returns, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-D series with at least 2 samples")
    with np.errstate(invalid="ignore", over="ignore"):  # reported just below
        std = x.std()
    if std == 0.0 or not np.isfinite(std):
        raise DegenerateSeriesError("series has zero or undefined variance")
    return (x - x.mean()) / std


def default_tail_k(n_samples: int) -> int:
    """Upper-5% tail size, never below one point."""
    return max(1, int(0.05 * n_samples))


def tail_log_ratios(abs_returns, k: int) -> np.ndarray:
    """log of the k-th largest over the (K+1)-th largest, k = 1..K (nonincreasing)."""
    x = np.asarray(abs_returns, dtype=float)
    n = x.size
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= K < N, got K={k}, N={n}")
    # the K+1 largest, in descending order; the rest need no order
    top = np.sort(np.partition(x, n - k - 1)[n - k - 1:])[::-1]
    pivot = top[k]
    if pivot <= 0.0:
        raise DegenerateSeriesError("tail pivot is zero; fewer than K+1 positive samples")
    return np.log(top[:k] / pivot)


def build_tail_cloud(abs_returns, k: int | None = None) -> PointCloud:
    x = np.asarray(abs_returns, dtype=float)
    if k is None:
        k = default_tail_k(x.size)
    return PointCloud(tail_log_ratios(x, k))


def hill_index(cloud: PointCloud) -> float:
    """K over the sum of the cloud's K tail log-ratios."""
    total = float(cloud.points.sum())
    if total == 0.0:
        raise DegenerateSeriesError("all top-K samples tied; Hill index undefined")
    return cloud.size / total


@lru_cache
def _coupling(n_a: int, n_b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The northwest-corner coupling of n_a against n_b != n_a points, as read-only
    arrays: each segment's index into the sorted a and b sides, and its length.

    Each of the n_a points carries n_b units of mass and each of the n_b
    points n_a units, so the segments lie between the merged breakpoints
    i*n_b and j*n_a on the common mass axis, left to right.
    """
    cuts = np.sort(np.concatenate((np.arange(n_a + 1) * n_b, np.arange(n_b + 1) * n_a)))
    cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
    start = cuts[:-1]
    coupling = (start // n_b, start // n_a, np.diff(cuts))
    for array in coupling:
        array.flags.writeable = False
    return coupling


def ot_distance(a: PointCloud, b: PointCloud) -> float:
    """Exact OT cost between uniform empirical measures, squared-distance ground cost.

    On the line the monotone (sorted) coupling is optimal for convex costs.
    It is the northwest-corner coupling over integer masses, so no tolerance
    is lost to fractional arithmetic; it depends only on the two sizes and
    is built once per pair of sizes. Each segment moves its length between
    the points whose mass intervals hold it, and the terms are accumulated
    left to right, the order of a march over the corner.
    """
    xa, xb = a.sorted_coords, b.sorted_coords
    n_a, n_b = xa.size, xb.size
    if n_a == n_b:
        d = xa - xb
        return float(np.dot(d, d)) / n_a
    index_a, index_b, lengths = _coupling(n_a, n_b)
    d = xa[index_a] - xb[index_b]
    # cumsum adds strictly left to right; np.sum's pairwise order would move bits
    return np.cumsum((lengths * d) * d)[-1] / (n_a * n_b)


def theoretical_hill(z0: float, z1: float, z2: float) -> float:
    """Additive two-component prediction: z0 minus each component's solo drop."""
    return z1 + z2 - z0


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    sx, sy = x.std(), y.std()
    if sx == 0.0 or sy == 0.0:
        raise DegenerateSeriesError("zero-variance input to correlation")
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def stylized_facts(returns, volumes=None,
                   lags: tuple[int, ...] = ABS_AUTOCORR_LAGS) -> StylizedFactReport:
    """Excess kurtosis, |return|-volume correlation, |return| autocorrelation."""
    r = np.asarray(returns, dtype=float)
    if r.size <= max(lags) + 1:
        raise ValueError(f"need more than {max(lags) + 1} returns, got {r.size}")
    m2 = r.var()
    if m2 == 0.0:
        raise DegenerateSeriesError("constant return series")
    kurt = float(((r - r.mean()) ** 4).mean() / m2**2 - 3.0)
    abs_r = np.abs(r)
    corr = None
    if volumes is not None:
        v = np.asarray(volumes, dtype=float)
        if v.size != r.size:
            raise ValueError(f"volumes length {v.size} does not match returns length {r.size}")
        corr = _pearson(abs_r, v)
    autocorr = {lag: _pearson(abs_r[lag:], abs_r[:-lag]) for lag in lags}
    return StylizedFactReport(kurtosis=kurt, vol_volume_corr=corr, abs_autocorr=autocorr)
