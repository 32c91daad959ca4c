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
from decimal import Decimal
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
def tick_fraction(tick: float) -> tuple[int, int]:
    """The tick's shortest repr as an exact fraction (m, den)."""
    # float() first: a numpy scalar's repr names its type
    return Decimal(repr(float(tick))).as_integer_ratio()


def price_of(ticks: int, tick: float) -> float:
    """The float price of a whole number of ticks: ticks * m / den, with
    m / den the exact value of the tick's repr. Int true division rounds
    the exact quotient correctly at any size, so this is the float nearest
    to ticks times the decimal tick."""
    m, den = tick_fraction(tick)
    return ticks * m / den


def align_to_tick(price: float, tick: float) -> int:
    """The whole number of ticks nearest to price / tick; ties round up.

    Raises ValueError when price / tick is not finite.
    """
    q = price / tick
    if not math.isfinite(q):
        raise ValueError(f"price / tick must be finite, got {price!r} / {tick!r}")
    return math.floor(q + 0.5)


@dataclass(slots=True)
class Order:
    order_id: int
    agent_id: int
    side: Side
    ticks: int  # limit price in whole ticks of the book's tick size; its level key
    volume: int  # remaining unfilled volume, decremented by fills
    submitted_step: int
    expiry_step: int


@dataclass(slots=True)
class Trade:
    buy_order_id: int
    sell_order_id: int
    price: float  # the resting order's limit price, price_of(its ticks)
    volume: int
    step: int


@dataclass
class Book:
    """Two-sided book; price levels keyed by integer tick counts.

    Every price it reports, quote or trade, is price_of(level, tick).
    `next_expiry` is the least expiry step of the orders that have rested
    and not yet been expired (inf when there are none): `expire` drops
    nothing at any step before it, so a caller may skip those calls.
    """

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
        self.next_expiry: float = math.inf  # the heap's least expiry step
        self.orders: dict[int, Order] = {}  # every submitted order, by id
        # running per-side totals; volume conservation means
        # submitted == executed + expired + resting at all times
        self.submitted_volume = {BUY: 0, SELL: 0}
        self.executed_volume = {BUY: 0, SELL: 0}
        self.expired_volume = {BUY: 0, SELL: 0}
        # the tick's fraction, read once: quotes and trade prices compute
        # level * m / den inline, as price_of does, since a call per quote
        # costs about 0.3 us against 0.06 us inline, at about 3000 quote
        # reads per trial
        self._m, self._den = tick_fraction(self.tick)

    def best_bid(self) -> float | None:
        return self._bid_levels[-1] * self._m / self._den if self._bid_levels else None

    def best_ask(self) -> float | None:
        return self._ask_levels[0] * self._m / self._den if self._ask_levels else None

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
        order_id, side, volume, ticks = order.order_id, order.side, order.volume, order.ticks
        if order_id in self.orders:
            raise DuplicateOrderError(f"order_id {order_id} already submitted")
        if volume < 1:
            raise ValueError(f"order volume must be >= 1, got {volume}")
        self.orders[order_id] = order
        self.submitted_volume[side] += volume

        trades: list[Trade] = []
        if execution_enabled:
            buying = side is BUY
            opp_levels, keys = self._sides[SELL if buying else BUY]
            best = 0 if buying else -1  # index of the best opposite level
            step, m, den = order.submitted_step, self._m, self._den
            while volume and keys:
                level = keys[best]
                if (level > ticks) if buying else (level < ticks):
                    break
                queue = opp_levels[level]
                resting = queue[0]
                price = level * m / den
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
            if order.expiry_step < self.next_expiry:
                self.next_expiry = order.expiry_step
        return trades

    def expire(self, step: int) -> list[tuple[Order, int]] | tuple[()]:
        """Drop every resting order whose expiry_step is <= step.

        Returns each dropped order with the volume it still had, in
        (expiry_step, order_id) order; the order's own volume is zeroed.
        """
        if step < self.next_expiry:
            return ()
        heap = self._expiry_heap
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
        self.next_expiry = heap[0][0] if heap else math.inf
        return dropped
