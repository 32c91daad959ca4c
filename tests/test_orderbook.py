"""Order book: tick alignment, price-time priority, expiry, conservation.

The randomized stream tests check the book against a deliberately naive
reference matcher built on linear scans over a flat order list.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobfactor.orderbook import Book, DuplicateOrderError, Order, Side, align_to_tick, price_of
from oracles import price_of_exact

TICK = 0.01


class NaiveBook:
    """Flat-list reference matcher. No heaps, no level queues."""

    def __init__(self, tick):
        self.tick = tick
        self.resting = []  # orders in submission sequence
        self.trades = []
        self.executed = {Side.BUY: 0, Side.SELL: 0}
        self.expired = {Side.BUY: 0, Side.SELL: 0}
        self.submitted = {Side.BUY: 0, Side.SELL: 0}

    def submit(self, order, execution_enabled=True):
        self.submitted[order.side] += order.volume
        out = []
        if execution_enabled:
            while order.volume > 0:
                if order.side is Side.BUY:
                    cands = [o for o in self.resting if o.side is Side.SELL
                             and o.ticks <= order.ticks]
                    best = min(cands, key=lambda o: (o.ticks, self.resting.index(o))) if cands else None
                else:
                    cands = [o for o in self.resting if o.side is Side.BUY
                             and o.ticks >= order.ticks]
                    best = max(cands, key=lambda o: (o.ticks, -self.resting.index(o))) if cands else None
                if best is None:
                    break
                vol = min(order.volume, best.volume)
                buy, sell = (order, best) if order.side is Side.BUY else (best, order)
                out.append((buy.order_id, sell.order_id, price_of_exact(best.ticks, self.tick), vol))
                order.volume -= vol
                best.volume -= vol
                self.executed[Side.BUY] += vol
                self.executed[Side.SELL] += vol
                if best.volume == 0:
                    self.resting.remove(best)
        if order.volume > 0:
            self.resting.append(order)
        self.trades.extend(out)
        return out

    def expire(self, step):
        """(order_id, residual volume) of each dropped order, in submission order."""
        gone = [o for o in self.resting if o.expiry_step <= step]
        for o in gone:
            self.expired[o.side] += o.volume
            self.resting.remove(o)
        return [(o.order_id, o.volume) for o in gone]


def mk(order_id, side, price, vol, step=1, expiry=10_000):
    return Order(order_id, 0, side, align_to_tick(price, TICK), vol, step, expiry)


def resting(book, side):
    """(order_id, volume) of the side's resting orders: those with volume left."""
    return [(o.order_id, o.volume) for o in book.orders.values()
            if o.side is side and o.volume > 0]


def test_align_rounds_to_the_nearest_whole_tick_ties_up():
    # binary-exact ratios, so each case is the rule and not float noise
    cases = [(0.3, 0.25, 1), (0.375, 0.25, 2), (0.625, 0.25, 3), (-0.375, 0.25, -1),
             (-0.3, 0.25, -1), (0.1, 0.25, 0), (0.125, 0.25, 1), (299.99992, 1e-4, 2999999)]
    for price, tick, want in cases:
        got = align_to_tick(price, tick)
        assert got == want and type(got) is int, (price, tick, got)


def test_align_accepts_numpy_scalars():
    for price, tick in ((np.float64(300.0), 1e-4), (np.float64(300.0), np.float64(1e-4)),
                        (300.0, np.float64(1e-4))):
        got = align_to_tick(price, tick)
        assert got == 3_000_000 and type(got) is int


@pytest.mark.parametrize("price, tick", [
    (float("nan"), 1e-4), (float("inf"), 1e-4), (float("-inf"), 1e-4),
    (300.0, 5e-324),  # finite price, infinite ratio
    (1.7976931348623157e308, 0.5), (np.float64(1e308), np.float64(1e-4)),
])
@pytest.mark.filterwarnings("ignore:overflow encountered")  # numpy's scalar division
def test_align_non_finite_rejected(price, tick):
    with pytest.raises(ValueError):
        align_to_tick(price, tick)


@given(st.floats(min_value=1e-3, max_value=1e5))
def test_align_within_half_tick(price):
    got = price_of(align_to_tick(price, 1e-4), 1e-4)
    assert abs(got - price) <= 0.5e-4 * (1 + 1e-9)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=2**60),
       st.sampled_from((1e-4, 0.05, 0.1 + 0.2, 1e-300)))
@example(n=2**53 + 1, tick=1e-4)
@example(n=2**60, tick=0.1 + 0.2)
@example(n=28_133_232, tick=1e-4)
def test_price_of_matches_rational_oracle(n, tick):
    assert price_of(n, tick) == price_of_exact(n, tick)
    assert price_of(n, np.float64(tick)) == price_of_exact(n, tick)


def test_fifo_partial_fills():
    b = Book(tick=TICK)
    b.submit(mk(1, Side.SELL, 299.99, 2))
    b.submit(mk(2, Side.SELL, 299.99, 4))
    trades = b.submit(mk(3, Side.BUY, 299.99, 5))
    assert [(t.sell_order_id, t.volume) for t in trades] == [(1, 2), (2, 3)]
    assert all(t.price == 299.99 for t in trades)
    assert b.resting_volume(Side.SELL) == 1


def test_trade_at_resting_price():
    b = Book(tick=TICK)
    b.submit(mk(1, Side.SELL, 299.90, 3))
    trades = b.submit(mk(2, Side.BUY, 300.00, 3))
    assert len(trades) == 1 and trades[0].price == 299.90


def test_suppressed_execution_rests_crossing_orders():
    b = Book(tick=TICK)
    b.submit(mk(1, Side.SELL, 299.90, 3), execution_enabled=False)
    trades = b.submit(mk(2, Side.BUY, 300.00, 3), execution_enabled=False)
    assert trades == []
    assert b.resting_volume(Side.SELL) == 3 and b.resting_volume(Side.BUY) == 3
    assert b.best_bid() > b.best_ask()  # crossed by design while suppressed


def test_expiry_removes_stale_orders():
    b = Book(tick=TICK)
    b.submit(mk(1, Side.BUY, 299.0, 5, step=1, expiry=5))
    b.submit(mk(2, Side.BUY, 298.0, 7, step=1, expiry=9))
    assert [(o.order_id, v) for o, v in b.expire(5)] == [(1, 5)]
    assert b.expired_volume[Side.BUY] == 5
    assert b.resting_volume(Side.BUY) == 7


def test_partial_fill_then_expiry_counts_residual():
    b = Book(tick=TICK)
    b.submit(mk(1, Side.SELL, 300.0, 10, step=1, expiry=4))
    b.submit(mk(2, Side.BUY, 300.0, 4, step=2))
    assert [(o.order_id, v) for o, v in b.expire(4)] == [(1, 6)]
    assert b.executed_volume[Side.SELL] == 4
    assert b.expired_volume[Side.SELL] == 6


def test_duplicate_order_id_rejected_book_unchanged():
    b = Book(tick=TICK)
    b.submit(mk(7, Side.BUY, 299.0, 5))
    before = resting(b, Side.BUY)
    with pytest.raises(DuplicateOrderError):
        b.submit(mk(7, Side.SELL, 300.0, 1))
    assert resting(b, Side.BUY) == before == [(7, 5)]
    assert b.submitted_volume[Side.SELL] == 0


def test_mid_price_fallback_chain():
    b = Book(tick=TICK)
    assert b.mid_price(300.0) == 300.0  # empty book
    b.submit(mk(1, Side.SELL, 302.0, 1))
    b.submit(mk(2, Side.BUY, 302.0, 1))  # trades, both sides empty again
    assert b.last_trade_price == 302.0
    assert b.mid_price(300.0) == 302.0
    b.submit(mk(3, Side.BUY, 298.0, 1))
    assert b.mid_price(300.0) == 302.0  # one-sided book still uses last trade
    b.submit(mk(4, Side.SELL, 304.0, 1))
    assert b.mid_price(300.0) == pytest.approx(301.0)


action = st.tuples(
    st.sampled_from([Side.BUY, Side.SELL]),
    st.integers(min_value=-30, max_value=30),  # price offset in ticks from 100
    st.integers(min_value=1, max_value=20),  # volume
    st.integers(min_value=1, max_value=12),  # lifetime
    st.booleans(),  # execution enabled
)


def assert_quotes_match(b, ref):
    """Best quotes are the best naive resting prices in ticks, and each side's
    level list holds exactly its live levels, ascending."""
    for side, best, quote in ((Side.BUY, max, b.best_bid), (Side.SELL, min, b.best_ask)):
        levels = [o.ticks for o in ref.resting if o.side is side]
        assert quote() == (price_of_exact(best(levels), TICK) if levels else None)
    assert b._bid_levels == sorted(b.bids)
    assert b._ask_levels == sorted(b.asks)


@settings(max_examples=60, deadline=None)
@given(st.lists(action, min_size=1, max_size=40))
def test_random_streams_match_naive_oracle(stream):
    b = Book(tick=TICK)
    ref = NaiveBook(tick=TICK)
    for step, (side, off, vol, life, enabled) in enumerate(stream, start=1):
        ticks = 10_000 + off
        order = Order(step, 0, side, ticks, vol, step, step + life)
        ref_order = Order(step, 0, side, ticks, vol, step, step + life)
        trades = b.submit(order, enabled)
        ref_trades = ref.submit(ref_order, enabled)
        assert [(t.buy_order_id, t.sell_order_id, t.price, t.volume) for t in trades] == ref_trades
        # the counters written once per submit: the last trade's price and
        # the incoming order's unfilled rest
        assert b.last_trade_price == (ref.trades[-1][2] if ref.trades else None)
        assert order.volume == ref_order.volume == vol - sum(t.volume for t in trades)
        assert_quotes_match(b, ref)
        assert [(o.order_id, v) for o, v in b.expire(step)] == ref.expire(step)
        assert_quotes_match(b, ref)
        # volume conservation per side, at all times
        for s in (Side.BUY, Side.SELL):
            assert b.submitted_volume[s] == (
                b.executed_volume[s] + b.expired_volume[s] + b.resting_volume(s)
            )
            assert b.submitted_volume[s] == ref.submitted[s]
            assert b.executed_volume[s] == ref.executed[s]
            assert b.expired_volume[s] == ref.expired[s]
    final = sorted(resting(b, Side.BUY) + resting(b, Side.SELL))
    ref_final = sorted((o.order_id, o.volume) for o in ref.resting)
    assert final == ref_final


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(action, st.integers(min_value=0, max_value=4)),
                min_size=1, max_size=40))
def test_expire_is_due_only_from_next_expiry(stream):
    """A caller may skip expire before next_expiry, as the engine does:
    through submits, fills and expiries, no earlier step has an order to
    drop, and a call at or past it drops what a call on every step would."""
    b = Book(tick=TICK)
    ref = NaiveBook(tick=TICK)  # expires on every step
    step = 1
    for order_id, ((side, off, vol, life, enabled), idle) in enumerate(stream, start=1):
        b.submit(Order(order_id, 0, side, 10_000 + off, vol, step, step + life), enabled)
        ref.submit(Order(order_id, 0, side, 10_000 + off, vol, step, step + life), enabled)
        for step in range(step, step + idle + 1):
            if step < b.next_expiry:
                assert ref.expire(step) == []
            else:
                assert [(o.order_id, v) for o, v in b.expire(step)] == ref.expire(step)
            assert all(o.expiry_step >= b.next_expiry for o in ref.resting)
        step += 1
    last = step + 12  # past every expiry: lifetimes are at most 12 steps
    assert sorted((o.order_id, v) for o, v in b.expire(last)) == ref.expire(last)
    assert b.next_expiry == math.inf and not ref.resting


@settings(max_examples=60, deadline=None)
@given(st.lists(action, min_size=1, max_size=40))
def test_book_uncrossed_after_enabled_submits(stream):
    b = Book(tick=TICK)
    for step, (side, off, vol, life, _) in enumerate(stream, start=1):
        b.submit(Order(step, 0, side, 10_000 + off, vol, step, step + life),
                 execution_enabled=True)
        bb, ba = b.best_bid(), b.best_ask()
        if bb is not None and ba is not None:
            assert bb < ba
