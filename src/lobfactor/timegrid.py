"""Calendar-time resampling of event-time simulation output.

A trial's trades carry step indices, not wall-clock times. To compare
against one-minute market data, each trial is laid onto a 300-minute day
by matching cumulative transaction counts: a reference path says what
fraction of the day's transactions is done by each minute, and the bar
for minute m is the mid price recorded at the step of the trade whose
index corresponds to that fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MINUTES_PER_DAY = 300


class DegenerateDayError(ValueError):
    """A reference day carries no transactions."""


class DegenerateTrialError(ValueError):
    """A trial produced no trades and cannot be resampled."""


@dataclass(frozen=True)
class TransactionPath:
    """Cumulative fraction of the day's transactions completed by each minute."""

    fractions: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.fractions) != MINUTES_PER_DAY:
            raise ValueError(f"path must have {MINUTES_PER_DAY} minutes, got {len(self.fractions)}")
        prev = 0.0
        for f in self.fractions:
            if f < prev - 1e-12 or not (0.0 <= f <= 1.0):
                raise ValueError("fractions must be nondecreasing within [0, 1]")
            prev = f
        if self.fractions[-1] != 1.0:
            raise ValueError("final fraction must be exactly 1")


@dataclass(frozen=True)
class BarSeries:
    """One synthetic trading day: 300 one-minute bar prices."""

    mid_prices: tuple[float, ...]
    day_id: str

    def __post_init__(self) -> None:
        if len(self.mid_prices) != MINUTES_PER_DAY:
            raise ValueError(f"bar series must have {MINUTES_PER_DAY} bars, got {len(self.mid_prices)}")
        if any(p <= 0 for p in self.mid_prices):
            raise ValueError("bar prices must be positive")


def scaled_path_from_counts(counts) -> TransactionPath:
    arr = np.asarray(counts, dtype=np.int64)
    if (arr < 0).any():
        raise ValueError("counts must be nonnegative")
    total = int(arr.sum())
    if total == 0:
        raise DegenerateDayError("day has zero transactions")
    cum = np.cumsum(arr)
    fractions = cum / total
    fractions[-1] = 1.0  # exact by construction; pin against float division
    return TransactionPath(tuple(float(f) for f in fractions))


def bar_indices(path: TransactionPath, t_total: int) -> list[int]:
    """Trade index targeted by each minute: round-half-up of fraction*t_total."""
    if t_total < 1:
        raise DegenerateTrialError("no trades to index")
    return [math.floor(f * t_total + 0.5) for f in path.fractions]


def assign_calendar_time(sim, path: TransactionPath, p0: float,
                         day_id: str = "day0") -> BarSeries:
    """Resample a trial onto one-minute bars along a transaction-count path.

    Minute m's bar is the mid price recorded at the step of trade number
    i_m = round(fractions[m] * t_total) (1-based trade numbering). Minutes
    before the first targeted trade take p0; repeated indices carry the
    last price forward. A trial without trades raises DegenerateTrialError.
    """
    trades = sim.trades
    prices = []
    for i in bar_indices(path, len(trades)):
        if i == 0:
            prices.append(p0)
        else:
            step = trades[i - 1].step
            prices.append(sim.mid_prices[step - 1])  # mid recorded at that step
    return BarSeries(tuple(prices), day_id=day_id)


def bar_volumes(sim, path: TransactionPath) -> tuple[int, ...]:
    """Executed shares per minute under the same trade-index assignment."""
    trades = sim.trades
    # a minute's trades end at its index, or at the furthest earlier one
    ends = np.maximum.accumulate(bar_indices(path, len(trades)))
    shares_before = np.cumsum([0] + [t.volume for t in trades])
    return tuple(np.diff(shares_before[ends], prepend=0).tolist())


def log_returns(bars: BarSeries) -> np.ndarray:
    p = np.asarray(bars.mid_prices, dtype=float)
    return np.diff(np.log(p))


def synthetic_reference_path(rng: np.random.Generator, shape: str,
                             mean_total: int) -> TransactionPath:
    """Stand-in reference path: Poisson per-minute counts under a day profile.

    "uniform" spreads intensity evenly; "ushape" concentrates it near the
    open and close via the symmetric quadratic 1 + 8(x - 1/2)^2.
    """
    x = (np.arange(MINUTES_PER_DAY) + 0.5) / MINUTES_PER_DAY
    if shape == "uniform":
        intensity = np.ones(MINUTES_PER_DAY)
    elif shape == "ushape":
        intensity = 1.0 + 8.0 * (x - 0.5) ** 2
    else:
        raise ValueError(f"unknown path shape {shape!r}")
    lam = mean_total * intensity / intensity.sum()
    while True:
        counts = rng.poisson(lam)
        if counts.sum() > 0:
            return scaled_path_from_counts(counts)
