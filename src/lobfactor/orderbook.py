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
def _tick_fraction(tick: float) -> tuple[int, int, float]:
    """The tick's shortest repr as an exact fraction m / den, and the bound
    on |price / tick| below which the float fast path may answer.

    The bound is 0.0 where the fast path never holds: a subnormal tick's
    repr can sit far from its binary value, and past 1e290 the product
    r * tick, with |r| up to 2**52, can overflow. Elsewhere it is 2**52, or
    less for a tick with a long decimal coefficient: the Decimal path's
    product n * dtick is exact only while |n| times that coefficient stays
    below 10**28, its context's 28 digits.
    """
    if not 1e-300 < abs(tick) < 1e290:
        return 0, 1, 0.0
    dtick = Decimal(repr(tick))
    coef = int("".join(map(str, dtick.as_tuple().digits)))
    return (*dtick.as_integer_ratio(), float(min(2**52, 10**28 // coef - 1)))


def align_to_tick(price: float, tick: float) -> float:
    """Snap a raw price to the nearest multiple of the tick size.

    Ties round away from zero. The comparison happens on the decimal value
    of the float (its shortest repr), so e.g. 300.00005 with tick 1e-4 is an
    exact tie and aligns to 300.0001.
    """
    if not math.isfinite(price):
        raise ValueError(f"price must be finite, got {price!r}")
    # exact types: a float subclass such as np.float64 has another repr
    if type(price) is not float:
        price = float(price)
    if type(tick) is not float:
        tick = float(tick)
    # Fast path, equal to the Decimal path wherever it answers. Let P and T
    # be the decimal values of the reprs of price and tick, and Q = P / T.
    # Each float is the nearest double to its repr (relative error at most
    # 2**-53; a price with r != 0 is at least half a normal tick, so it is
    # normal too), and the division adds one more rounding, so
    # |q - Q| <= (3 * 2**-53 + O(2**-105)) * |Q| < 2**-51 * |q|. Accepting
    # |q - r| < 0.5 - 1e-6 - |q| * 2**-50 thus leaves |Q - r| below
    # 0.5 - 1e-6: r is Q rounded to nearest, and Q is no tie. Below 2**52
    # the Decimal path's 28-digit quotient lies within 3e-12 of Q, far
    # inside that margin, so it rounds to the same n = r; below q_max its
    # product n * dtick is exact, and int / int true division gives the
    # correctly rounded float of that exact product, as float(Decimal)
    # does. Near-ties, ratios beyond the bound and results of zero (whose
    # sign Decimal keeps) take the Decimal path, which settles every tie.
    m, den, q_max = _tick_fraction(tick)
    q = price / tick
    size = abs(q)
    if size < q_max:
        r = math.floor(q + 0.5)
        if r and abs(q - r) < 0.5 - 1e-6 - size * 2**-50:
            return r * m / den
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
        # each side's level queues and level list
        self._sides = {BUY: (self.bids, self._bid_levels), SELL: (self.asks, self._ask_levels)}
        self._expiry_heap: list[tuple[int, int]] = []  # (expiry_step, order_id)
        self.orders: dict[int, Order] = {}  # every submitted order, by id
        # running per-side totals; volume conservation means
        # submitted == executed + expired + resting at all times
        self.submitted_volume = {BUY: 0, SELL: 0}
        self.executed_volume = {BUY: 0, SELL: 0}
        self.expired_volume = {BUY: 0, SELL: 0}

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
        return sum(o.volume for q in self._sides[side][0].values() for o in q)

    def submit(self, order: Order, execution_enabled: bool = True) -> list[Trade]:
        """Match an incoming order while prices cross, then rest any residual.

        With execution disabled the order rests untouched regardless of
        crossing. Trades execute at the resting order's price, FIFO within a
        level. Returns the trades in execution sequence.
        """
        order_id, side, volume = order.order_id, order.side, order.volume
        if order_id in self.orders:
            raise DuplicateOrderError(f"order_id {order_id} already submitted")
        if volume < 1:
            raise ValueError(f"order volume must be >= 1, got {volume}")
        self.orders[order_id] = order
        self.submitted_volume[side] += volume
        # the limit as whole ticks, the order's level key
        ticks = order.ticks = round(order.limit_price / self.tick)

        trades: list[Trade] = []
        if execution_enabled:
            buying = side is BUY
            opp_levels, keys = self._sides[SELL if buying else BUY]
            best = 0 if buying else -1  # index of the best opposite level
            step = order.submitted_step
            while volume and keys:
                level = keys[best]
                if (level > ticks) if buying else (level < ticks):
                    break
                queue = opp_levels[level]
                resting = queue[0]
                price = resting.limit_price
                vol = resting.volume
                if volume < vol:
                    vol = volume
                    resting.volume -= vol
                else:
                    resting.volume = 0
                    queue.popleft()
                    if not queue:
                        del opp_levels[level]
                        del keys[best]
                buy_id, sell_id = (
                    (order_id, resting.order_id) if buying else (resting.order_id, order_id)
                )
                trades.append(Trade(buy_id, sell_id, price, vol, step))
                volume -= vol
            if trades:
                filled = order.volume - volume
                self.executed_volume[BUY] += filled
                self.executed_volume[SELL] += filled
                self.last_trade_price = price
                order.volume = volume

        if volume:
            levels, keys = self._sides[side]
            queue = levels.get(ticks)
            if queue is None:
                queue = levels[ticks] = deque()
                insort(keys, ticks)
            queue.append(order)
            heapq.heappush(self._expiry_heap, (order.expiry_step, order_id))
        return trades

    def expire(self, step: int) -> list[tuple[Order, int]] | tuple[()]:
        """Drop every resting order whose expiry_step is <= step.

        Returns each dropped order with the volume it still had, in
        (expiry_step, order_id) order; the order's own volume is zeroed.
        """
        heap = self._expiry_heap
        if not heap or heap[0][0] > step:
            return ()
        dropped = []
        while heap and heap[0][0] <= step:
            _, order_id = heapq.heappop(heap)
            order = self.orders[order_id]
            if order.volume == 0:
                continue  # fully filled while resting
            levels, keys = self._sides[order.side]
            queue = levels[order.ticks]
            queue.remove(order)
            if not queue:
                del levels[order.ticks]
                del keys[bisect_left(keys, order.ticks)]
            self.expired_volume[order.side] += order.volume
            dropped.append((order, order.volume))
            order.volume = 0
        return dropped
