"""Order book: tick alignment, price-time priority, expiry, conservation.

The randomized stream tests check the book against a deliberately naive
reference matcher built on linear scans over a flat order list.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobfactor.orderbook import Book, DuplicateOrderError, Order, Side, align_to_tick

TICK = 0.01


def align_oracle(price: float, tick: float) -> float:
    # rational arithmetic on the decimal value of the float
    q = Fraction(repr(price)) / Fraction(repr(tick))
    n = math.floor(q)
    rem = q - n
    if rem > Fraction(1, 2):
        n += 1
    elif rem == Fraction(1, 2):
        n = n + 1 if q > 0 else n  # away from zero
    return float(n * Fraction(repr(tick)))


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
                             and o.limit_price <= order.limit_price + 1e-12]
                    best = min(cands, key=lambda o: (o.limit_price, self.resting.index(o))) if cands else None
                else:
                    cands = [o for o in self.resting if o.side is Side.BUY
                             and o.limit_price >= order.limit_price - 1e-12]
                    best = max(cands, key=lambda o: (o.limit_price, -self.resting.index(o))) if cands else None
                if best is None:
                    break
                vol = min(order.volume, best.volume)
                buy, sell = (order, best) if order.side is Side.BUY else (best, order)
                out.append((buy.order_id, sell.order_id, best.limit_price, vol))
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
    return Order(order_id, 0, side, price, vol, step, expiry)


def resting(book, side):
    """(order_id, volume) of the side's resting orders: those with volume left."""
    return [(o.order_id, o.volume) for o in book.orders.values()
            if o.side is side and o.volume > 0]


def test_align_tie_rounds_up():
    assert align_to_tick(300.00005, 1e-4) == 300.0001


def test_align_nearest_down():
    assert align_to_tick(299.99992, 1e-4) == align_oracle(299.99992, 1e-4) == 299.9999


def test_align_accepts_numpy_scalars():
    assert align_to_tick(np.float64(300.0), 1e-4) == 300.0
    assert align_to_tick(np.float64(300.00005), np.float64(1e-4)) == 300.0001


@pytest.mark.parametrize("tick", [5e-324, 3e-320])
def test_align_subnormal_ticks_match_rational_oracle(tick):
    # a subnormal tick's repr is far from its binary value, so price / tick
    # on floats says little about the decimal ratio
    for k in (0.7, 1.5, 2.4, 123.4, -7.6, 999.5):
        price = k * tick
        assert align_to_tick(price, tick) == align_oracle(price, tick), (price, tick)


def test_align_keeps_the_sign_of_zero():
    assert math.copysign(1.0, align_to_tick(-0.3e-4, 1e-4)) == -1.0
    assert math.copysign(1.0, align_to_tick(0.3e-4, 1e-4)) == 1.0


def test_align_non_finite_rejected():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            align_to_tick(bad, 1e-4)


ALIGN_TICKS = (1e-4, 0.01, 0.05, 0.25, 1.0)


@given(st.floats(min_value=1e-3, max_value=1e5, allow_nan=False, allow_infinity=False),
       st.sampled_from(ALIGN_TICKS))
def test_align_matches_rational_oracle(price, tick):
    assert align_to_tick(price, tick) == align_oracle(price, tick)


def decimal_tie(n: int, tick: float) -> float:
    """The float whose shortest repr is exactly (n + 1/2) ticks."""
    tie = float((Fraction(n) + Fraction(1, 2)) * Fraction(repr(tick)))
    assert Fraction(repr(tie)) / Fraction(repr(tick)) == Fraction(2 * n + 1, 2)
    return tie


@pytest.mark.parametrize("tick", ALIGN_TICKS)
def test_align_edges_match_rational_oracle(tick):
    """Exact ties, ties one ulp off, ties 1e-7 tick off (inside the window
    where the float fast path defers to Decimal) and 2e-6 tick off (outside
    it), ratios on either side of 2**26 and near-ties far above it, all
    mirrored to negative prices, as floats and as numpy scalars."""
    prices = []
    for n in (0, 1, 7, 2_999_999, 3_000_000, 2**26 - 2, 2**26 - 1, 2**26, 2**26 + 1):
        tie = decimal_tie(n, tick)
        prices += [tie, math.nextafter(tie, math.inf), math.nextafter(tie, -math.inf)]
        prices += [tie + k * tick for k in (1e-7, -1e-7, 2e-6, -2e-6)]
    for q in (2**26 - 0.75, 2**26 - 0.25, 2**26 + 0.25, 2**26 + 0.75, 2**26, 2**26 - 1):
        prices += [q * tick, math.nextafter(q * tick, math.inf), math.nextafter(q * tick, 0.0)]
    # far above 2**26 the float ratio strays past the window; these need Decimal
    for e in range(27, 48):
        for off in (1e-3, 1e-4, 1e-5, 3e-6, 1e-6, -1e-6, -3e-6, -1e-5, -1e-4, -1e-3):
            q = Fraction(2**e + 12345) + Fraction(1, 2) + Fraction(off)
            prices.append(float(q * Fraction(repr(tick))))
    prices += [-p for p in prices]
    for price in prices:
        want = align_oracle(price, tick)
        assert align_to_tick(price, tick) == want, (price, tick)
        assert align_to_tick(np.float64(price), np.float64(tick)) == want, (price, tick)


@given(st.floats(min_value=1e-3, max_value=1e5))
def test_align_within_half_tick(price):
    got = align_to_tick(price, 1e-4)
    assert abs(got - price) <= 0.5e-4 * (1 + 1e-9)


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
        levels = [b.ticks(o.limit_price) for o in ref.resting if o.side is side]
        assert quote() == (best(levels) * TICK if levels else None)
    assert b._bid_levels == sorted(b.bids)
    assert b._ask_levels == sorted(b.asks)


@settings(max_examples=60, deadline=None)
@given(st.lists(action, min_size=1, max_size=40))
def test_random_streams_match_naive_oracle(stream):
    b = Book(tick=TICK)
    ref = NaiveBook(tick=TICK)
    for step, (side, off, vol, life, enabled) in enumerate(stream, start=1):
        price = align_to_tick(100 + off * TICK, TICK)
        trades = b.submit(Order(step, 0, side, price, vol, step, step + life), enabled)
        ref_trades = ref.submit(Order(step, 0, side, price, vol, step, step + life), enabled)
        assert [(t.buy_order_id, t.sell_order_id, t.price, t.volume) for t in trades] == ref_trades
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
@given(st.lists(action, min_size=1, max_size=40))
def test_book_uncrossed_after_enabled_submits(stream):
    b = Book(tick=TICK)
    for step, (side, off, vol, life, _) in enumerate(stream, start=1):
        price = align_to_tick(100 + off * TICK, TICK)
        b.submit(Order(step, 0, side, price, vol, step, step + life), execution_enabled=True)
        bb, ba = b.best_bid(), b.best_ask()
        if bb is not None and ba is not None:
            assert bb < ba
