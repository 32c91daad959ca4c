"""Calendar-time resampling of event-time simulation output.

A trial's trades carry step indices, not wall-clock times. To compare
against one-minute market data, each trial is laid onto a 300-minute day
by matching cumulative transaction counts: a reference path says what
fraction of the day's transactions is done by each minute, and the bar
for minute m is the mid price recorded at the step of the trade whose
index corresponds to that fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MINUTES_PER_DAY = 300


class DegenerateDayError(ValueError):
    """A reference day carries no transactions."""


def _minute_array(values, what: str) -> np.ndarray:
    """`values` copied into a read-only float array of one entry per minute."""
    array = np.array(values, dtype=float)
    if array.shape != (MINUTES_PER_DAY,):
        raise ValueError(f"{what} must have shape ({MINUTES_PER_DAY},), got {array.shape}")
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class TransactionPath:
    """Cumulative fraction of the day's transactions completed by each minute."""

    fractions: np.ndarray

    def __post_init__(self) -> None:
        f = _minute_array(self.fractions, "path")
        if not ((0.0 <= f) & (f <= 1.0)).all() or (f[1:] < f[:-1] - 1e-12).any():
            raise ValueError("fractions must be nondecreasing within [0, 1]")
        if f[-1] != 1.0:
            raise ValueError("final fraction must be exactly 1")
        object.__setattr__(self, "fractions", f)

    def __reduce__(self):
        # rebuild through the constructor, so a copy sent to a worker is read-only too
        return TransactionPath, (self.fractions,)


@dataclass(frozen=True, eq=False)
class BarSeries:
    """One synthetic trading day: 300 one-minute bar prices."""

    mid_prices: np.ndarray
    day_id: str

    def __post_init__(self) -> None:
        prices = _minute_array(self.mid_prices, "bar series")
        if not (prices > 0).all():
            raise ValueError("bar prices must be positive")
        object.__setattr__(self, "mid_prices", prices)


def scaled_path_from_counts(counts) -> TransactionPath:
    arr = np.asarray(counts, dtype=np.int64)
    if (arr < 0).any():
        raise ValueError("counts must be nonnegative")
    total = int(arr.sum())
    if total == 0:
        raise DegenerateDayError("day has zero transactions")
    fractions = np.cumsum(arr) / total
    fractions[-1] = 1.0  # exact by construction; pin against float division
    return TransactionPath(fractions)


def bar_indices(path: TransactionPath, t_total: int) -> np.ndarray:
    """Trade index targeted by each minute: round-half-up of fraction*t_total."""
    if t_total < 1:
        raise ValueError("no trades to index")
    return np.floor(path.fractions * t_total + 0.5).astype(np.int64)


def assign_calendar_time(sim, path: TransactionPath, p0: float,
                         day_id: str = "day0") -> BarSeries:
    """Resample a trial onto one-minute bars along a transaction-count path.

    Minute m's bar is the mid price recorded at the step of trade number
    i_m = round(fractions[m] * t_total) (1-based trade numbering). Minutes
    before the first targeted trade take p0; repeated indices carry the
    last price forward. A trial without trades raises ValueError.
    """
    trades = sim.trades
    steps = [0] + [t.step for t in trades]  # trade number 0 is the open, at step 0
    prices = [p0, *sim.mid_prices]  # entry t: the mid recorded after step t
    return BarSeries([prices[steps[i]] for i in bar_indices(path, len(trades)).tolist()],
                     day_id=day_id)


def bar_volumes(sim, path: TransactionPath) -> np.ndarray:
    """Executed shares per minute under the same trade-index assignment."""
    trades = sim.trades
    # a minute's trades end at its index, or at the furthest earlier one
    ends = np.maximum.accumulate(bar_indices(path, len(trades)))
    shares_before = np.cumsum([0] + [t.volume for t in trades])
    volumes = np.diff(shares_before[ends], prepend=0)
    volumes.flags.writeable = False
    return volumes


def log_returns(prices) -> np.ndarray:
    """The log return of each price over the one before it."""
    return np.diff(np.log(prices))


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
