"""Price-time priority limit order book with discrete ticks and order expiry.

Orders rest in FIFO queues per price level. An incoming order matches against
the opposite side while prices cross, always trading at the resting order's
limit price. Matching can be suppressed per submission (orders then rest
untouched), which is how opening/closing no-execution windows are realised.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from functools import lru_cache


class Side(Enum):
    BUY = "buy"
    SELL = "sell"

    # members are singletons, so identity hashing agrees with equality and
    # skips Enum's Python-level hash of the member name on every dict access
    __hash__ = object.__hash__


BUY, SELL = Side.BUY, Side.SELL


class DuplicateOrderError(ValueError):
    """An order_id was submitted twice to the same book."""


@lru_cache(maxsize=None)
def _tick_fraction(tick: float) -> tuple[int, int] | None:
    """The tick's shortest repr as an exact fraction (m, den), or None where
    the fast path does not hold: a subnormal tick's repr can sit far from its
    binary value, and past 1e300 the product r * tick can overflow."""
    if not 1e-300 < abs(tick) < 1e300:
        return None
    return Decimal(repr(tick)).as_integer_ratio()


def align_to_tick(price: float, tick: float) -> float:
    """Snap a raw price to the nearest multiple of the tick size.

    Ties round away from zero. The comparison happens on the decimal value
    of the float (its shortest repr), so e.g. 300.00005 with tick 1e-4 is an
    exact tie and aligns to 300.0001.
    """
    if not math.isfinite(price):
        raise ValueError(f"price must be finite, got {price!r}")
    price, tick = float(price), float(tick)
    # Fast path: q = price / tick on floats is within a few ulps of the
    # decimal ratio (about 3.3e-16 * |q|, at most 2.2e-8 below 2**26, 45
    # times inside the 1e-6 window), so any q that far from a half tick
    # rounds like the decimal ratio does, and int / int true division gives
    # the correctly rounded float of the decimal product r * tick. Near-ties,
    # ratios past 2**26 and results of zero (whose sign Decimal keeps) take
    # the Decimal path, which settles every tie.
    frac = _tick_fraction(tick)
    q = price / tick
    if frac is not None and abs(q) < 2**26:
        r = math.floor(q + 0.5)
        if r and abs(q - r) < 0.5 - 1e-6:
            return r * frac[0] / frac[1]
    dtick = Decimal(repr(tick))
    n = (Decimal(repr(price)) / dtick).to_integral_value(rounding=ROUND_HALF_UP)
    return float(n * dtick)


@dataclass(slots=True)
class Order:
    order_id: int
    agent_id: int
    side: Side
    limit_price: float  # multiple of the book's tick size
    volume: int  # remaining unfilled volume, decremented by fills
    submitted_step: int
    expiry_step: int
    # limit_price as whole ticks, the order's level key; set by Book.submit
    ticks: int = field(init=False, compare=False, repr=False)


@dataclass(slots=True)
class Trade:
    buy_order_id: int
    sell_order_id: int
    price: float  # the resting order's limit price
    volume: int
    step: int


@dataclass
class Book:
    """Two-sided book; price levels keyed by integer tick counts."""

    tick: float
    bids: dict[int, deque[Order]] = field(default_factory=dict)
    asks: dict[int, deque[Order]] = field(default_factory=dict)
    last_trade_price: float | None = None

    def __post_init__(self) -> None:
        # live levels' tick counts, ascending; exact as levels open and empty
        self._bid_levels: list[int] = []  # best bid last
        self._ask_levels: list[int] = []  # best ask first
        self._expiry_heap: list[tuple[int, int]] = []  # (expiry_step, order_id)
        self.orders: dict[int, Order] = {}  # every submitted order, by id
        # running per-side totals; volume conservation means
        # submitted == executed + expired + resting at all times
        self.submitted_volume = {BUY: 0, SELL: 0}
        self.executed_volume = {BUY: 0, SELL: 0}
        self.expired_volume = {BUY: 0, SELL: 0}

    def ticks(self, price: float) -> int:
        """A price on the tick grid as its whole number of ticks."""
        return int(round(price / self.tick))

    def best_bid(self) -> float | None:
        return self._bid_levels[-1] * self.tick if self._bid_levels else None

    def best_ask(self) -> float | None:
        return self._ask_levels[0] * self.tick if self._ask_levels else None

    def mid_price(self, fallback: float) -> float:
        """Quote midpoint; last trade price if one side is empty; else fallback."""
        bb, ba = self.best_bid(), self.best_ask()
        if bb is not None and ba is not None:
            return (bb + ba) / 2.0
        if self.last_trade_price is not None:
            return self.last_trade_price
        return fallback

    def resting_volume(self, side: Side) -> int:
        levels = self.bids if side is BUY else self.asks
        return sum(o.volume for q in levels.values() for o in q)

    def _side(self, side: Side) -> tuple[dict[int, deque[Order]], list[int]]:
        return (self.bids, self._bid_levels) if side is BUY else (self.asks, self._ask_levels)

    def _rest(self, order: Order) -> None:
        ticks = order.ticks
        levels, keys = self._side(order.side)
        queue = levels.get(ticks)
        if queue is None:
            queue = levels[ticks] = deque()
            insort(keys, ticks)
        queue.append(order)
        heapq.heappush(self._expiry_heap, (order.expiry_step, order.order_id))

    def submit(self, order: Order, execution_enabled: bool = True) -> list[Trade]:
        """Match an incoming order while prices cross, then rest any residual.

        With execution disabled the order rests untouched regardless of
        crossing. Trades execute at the resting order's price, FIFO within a
        level. Returns the trades in execution sequence.
        """
        if order.order_id in self.orders:
            raise DuplicateOrderError(f"order_id {order.order_id} already submitted")
        if order.volume < 1:
            raise ValueError(f"order volume must be >= 1, got {order.volume}")
        self.orders[order.order_id] = order
        self.submitted_volume[order.side] += order.volume
        ticks = order.ticks = self.ticks(order.limit_price)

        trades: list[Trade] = []
        if execution_enabled:
            buying = order.side is BUY
            opp_levels, keys = self._side(SELL if buying else BUY)
            best = 0 if buying else -1  # index of the best opposite level
            while order.volume > 0 and keys:
                level = keys[best]
                if (level > ticks) if buying else (level < ticks):
                    break
                queue = opp_levels[level]
                resting = queue[0]
                vol = min(order.volume, resting.volume)
                price = resting.limit_price
                buy_id, sell_id = (
                    (order.order_id, resting.order_id)
                    if buying
                    else (resting.order_id, order.order_id)
                )
                trades.append(Trade(buy_id, sell_id, price, vol, order.submitted_step))
                order.volume -= vol
                resting.volume -= vol
                self.executed_volume[BUY] += vol
                self.executed_volume[SELL] += vol
                self.last_trade_price = price
                if resting.volume == 0:
                    queue.popleft()
                    if not queue:
                        del opp_levels[level]
                        del keys[best]

        if order.volume > 0:
            self._rest(order)
        return trades

    def expire(self, step: int) -> list[tuple[Order, int]]:
        """Drop every resting order whose expiry_step is <= step.

        Returns each dropped order with the volume it still had, in
        (expiry_step, order_id) order; the order's own volume is zeroed.
        """
        dropped = []
        heap = self._expiry_heap
        while heap and heap[0][0] <= step:
            _, order_id = heapq.heappop(heap)
            order = self.orders[order_id]
            if order.volume == 0:
                continue  # fully filled while resting
            levels, keys = self._side(order.side)
            queue = levels[order.ticks]
            queue.remove(order)
            if not queue:
                del levels[order.ticks]
                del keys[bisect_left(keys, order.ticks)]
            self.expired_volume[order.side] += order.volume
            dropped.append((order, order.volume))
            order.volume = 0
        return dropped
