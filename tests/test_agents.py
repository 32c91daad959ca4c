"""Agent sampling, forecast arithmetic, order sizing caps, mood dynamics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobfactor.agents import (
    Agent,
    decide_order,
    horizon,
    init_population,
    predict_return,
    sample_pareto,
)
from lobfactor.config import CashSpec, PopulationConfig
from lobfactor.orderbook import Side, align_to_tick, price_of
from oracles import predict_return_raw, update_mood


def make_agent(
    alpha_j=0.1, tau=100, cash=1e12, shares=0, optimistic=True,
    w_f=0.0, w_c=0.0, w_m=0.0, w_n=0.0, tau_f=200,
    committed_ticks=0, committed_shares=0,
):
    return Agent(0, w_f, w_c, w_m, w_n, tau, tau_f, alpha_j, cash, shares, optimistic,
                 committed_ticks, committed_shares)


# ---------------------------------------------------------------- pareto cash

def test_pareto_u_near_one_gives_scale():
    draws = sample_pareto(5000.0, 1.5, np.array([1.0 - 1e-15]))
    assert draws[0] == pytest.approx(5000.0, rel=1e-12)


def test_pareto_boundary_u_rejected():
    for u in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            sample_pareto(5000.0, 1.5, np.array([0.5, u]))


def test_pareto_sample_mean_and_ks():
    rng = np.random.default_rng(42)
    u = rng.random(100_000)
    u[u == 0.0] = 0.5
    x = sample_pareto(5000.0, 1.5, u)
    # closed-form mean beta*c_min/(beta-1) = 15000; heavy tail so loose band
    assert x.min() >= 5000.0
    # KS distance of the draws against the exact CDF
    xs = np.sort(x)
    cdf = 1.0 - (5000.0 / xs) ** 1.5
    ecdf_hi = np.arange(1, xs.size + 1) / xs.size
    ecdf_lo = np.arange(0, xs.size) / xs.size
    ks = max(np.abs(ecdf_hi - cdf).max(), np.abs(ecdf_lo - cdf).max())
    assert ks < 0.01


# ------------------------------------------------------------ derived params

@pytest.mark.parametrize("kind", ["uniform", "pareto"])
@pytest.mark.parametrize("n_agents", [1, 7, 200])
@pytest.mark.parametrize("lambda_f, lambda_c, tau_holds", [
    (10.0, 2.0, lambda tau: tau >= 1),
    (1e100, 2.0, lambda tau: tau > 2**63),  # past any int64: the horizon stays a Python int
    (10.0, 1e100, lambda tau: tau == 1),  # the floor at one step
], ids=["default", "huge-fundamental", "huge-chartist"])
def test_horizon_and_risk_aversion_scaling(kind, n_agents, lambda_f, lambda_c, tau_holds):
    """The population's horizons, risk aversions and derived forecast
    coefficients are bit-equal to their scalar rules on each agent's own
    draws, and every value is a Python scalar, never a numpy one."""
    cfg = PopulationConfig(n_agents=n_agents, lambda_f=lambda_f, lambda_c=lambda_c, alpha=0.2,
                           cash=CashSpec(kind=kind))
    agents = init_population(cfg, np.random.default_rng(7))
    assert [a.agent_id for a in agents] == list(range(n_agents))
    for a in agents:
        assert a.tau == horizon(a.w_f, a.w_c)
        assert tau_holds(a.tau)
        assert a.alpha_j.hex() == (0.2 * (1.0 + a.w_f) / (1.0 + a.w_c)).hex()
        assert a.tau_f == 200
        assert a.f_coef.hex() == (a.w_f / a.tau_f).hex()
        assert a.c_coef.hex() == (a.w_c / a.tau).hex()
        assert a.w_total.hex() == (a.w_f + a.w_c + a.w_m + a.w_n).hex()
        assert type(a.tau) is int and type(a.shares) is int
        assert type(a.cash) is float and type(a.optimistic) is bool
        assert all(type(w) is float for w in (a.w_f, a.w_c, a.w_m, a.w_n))


def test_horizon_edge_values():
    assert horizon(0.0, 0.0) == 100
    assert horizon(10.0, 0.0) == 1100
    assert horizon(0.0, 1e6) == 1  # floor at one step


def test_init_population_draw_statistics():
    cfg = PopulationConfig(n_agents=100_000, lambda_f=10.0, lambda_c=0.0)
    agents = init_population(cfg, np.random.default_rng(3))
    w_f = np.array([a.w_f for a in agents])
    assert abs(w_f.mean() - 10.0) < 0.2
    assert all(a.w_c == 0.0 for a in agents[:100])
    frac_opt = np.mean([a.optimistic for a in agents])
    assert abs(frac_opt - 0.5) < 0.01
    cash = np.array([a.cash for a in agents])
    assert cash.min() > 0.0 and cash.max() < 30_000.0
    assert abs(cash.mean() - 15_000.0) < 300.0
    shares = np.array([a.shares for a in agents])
    assert shares.min() >= 0 and shares.max() <= 50


def test_init_population_pareto_cash():
    cfg = PopulationConfig(
        n_agents=200_000, cash=CashSpec(kind="pareto", c_min=5000.0, beta=1.5)
    )
    agents = init_population(cfg, np.random.default_rng(11))
    cash = np.array([a.cash for a in agents])
    assert cash.min() >= 5000.0
    assert abs(np.median(cash) - 5000.0 * 2 ** (1 / 1.5)) < 100.0


# ------------------------------------------------------------------ forecasts

def test_fundamental_only_forecast():
    a = make_agent(w_f=1.0)
    r = predict_return(a, 270.0, 300.0, 270.0, 0.0)
    assert r == pytest.approx(math.log(300.0 / 270.0) / 200.0)
    assert r == pytest.approx(5.268e-4, rel=1e-3)


def test_mood_only_forecast_is_plus_minus_one():
    a = make_agent(w_m=2.5, optimistic=True)
    assert predict_return(a, 300.0, 300.0, 300.0, 0.0) == 1.0
    a.optimistic = False
    assert predict_return(a, 300.0, 300.0, 300.0, 0.0) == -1.0


def test_all_zero_weights_abstains():
    a = make_agent()
    assert predict_return(a, 300.0, 300.0, 300.0, 0.0) is None


@pytest.mark.parametrize("w_f, w_c, p_f, p_t, p_lag", [
    (1.0, 0.0, 5e-324, 300.0, 300.0),  # p_f / p_t underflows
    (0.0, 1.0, 300.0, 5e-324, 300.0),  # p_t / p_lag underflows
])
def test_price_ratio_underflowing_to_zero_counts_as_the_least_float(w_f, w_c, p_f, p_t, p_lag):
    a = make_agent(w_f=w_f, w_c=w_c, tau=100, tau_f=100)
    assert predict_return(a, p_t, p_f, p_lag, 0.0) == math.log(5e-324) / 100


@given(
    w_f=st.floats(0.01, 50), w_c=st.floats(0.01, 10), w_n=st.floats(0.01, 5),
    eps=st.floats(-0.05, 0.05), p_t=st.floats(100, 500), p_lag=st.floats(100, 500),
)
def test_zero_mood_weight_matches_three_term_form(w_f, w_c, w_n, eps, p_t, p_lag):
    a = make_agent(w_f=w_f, w_c=w_c, w_n=w_n, tau=horizon(w_f, w_c))
    r = predict_return(a, p_t, 300.0, p_lag, eps)
    expected = (
        w_f / 200.0 * math.log(300.0 / p_t)
        + w_c / a.tau * math.log(p_t / p_lag)
        + w_n * eps
    ) / (w_f + w_c + w_n)
    assert r == pytest.approx(expected, rel=1e-12)


weight = st.one_of(st.just(0.0), st.floats(1e-9, 100.0))


@given(
    w_f=weight, w_c=weight, w_m=weight, w_n=weight,
    tau=st.integers(1, 10_000), tau_f=st.integers(1, 1_000), optimistic=st.booleans(),
    p_t=st.floats(1e-3, 1e6), p_lag=st.floats(1e-3, 1e6), eps=st.floats(-1.0, 1.0),
)
@example(w_f=0.0, w_c=0.0, w_m=0.0, w_n=0.0, tau=100, tau_f=200, optimistic=True,
         p_t=300.0, p_lag=300.0, eps=0.0)
@example(w_f=3.7, w_c=0.0, w_m=0.0, w_n=0.0, tau=100, tau_f=200, optimistic=True,
         p_t=270.0, p_lag=300.0, eps=0.01)
@example(w_f=0.0, w_c=1.9, w_m=0.0, w_n=0.0, tau=37, tau_f=200, optimistic=True,
         p_t=310.0, p_lag=290.0, eps=0.01)
@example(w_f=0.0, w_c=0.0, w_m=2e-5, w_n=0.0, tau=100, tau_f=200, optimistic=False,
         p_t=300.0, p_lag=300.0, eps=0.01)
@example(w_f=0.0, w_c=0.0, w_m=0.0, w_n=0.7, tau=100, tau_f=200, optimistic=True,
         p_t=300.0, p_lag=300.0, eps=-0.03)
def test_forecast_is_bit_equal_to_the_raw_weight_formula(
    w_f, w_c, w_m, w_n, tau, tau_f, optimistic, p_t, p_lag, eps,
):
    a = make_agent(w_f=w_f, w_c=w_c, w_m=w_m, w_n=w_n, tau=tau, tau_f=tau_f,
                   optimistic=optimistic)
    got = predict_return(a, p_t, 300.0, p_lag, eps)
    expected = predict_return_raw(a, p_t, 300.0, p_lag, eps)
    assert repr(got) == repr(expected)  # repr tells every float bit pattern apart


# --------------------------------------------------------------- order sizing

def r_toward(p_hat, p_t=300.0, tau=100):
    """The forecast whose compounded target over tau steps is about p_hat."""
    return math.log(p_hat / p_t) / tau


def test_order_limit_compounds_the_forecast_over_the_horizon():
    a = make_agent(alpha_j=0.1, tau=100, cash=1e12)
    order = decide_order(a, 300.0, 0.001, 1, 1e-4, 50, 1e-4, 1)
    assert order.ticks == align_to_tick(300.0 * math.exp(100 * 0.001), 1e-4)
    assert price_of(order.ticks, 1e-4) == pytest.approx(300.0 * math.e**0.1, abs=1e-4)


def test_order_limit_clamps_the_exponent():
    buyer = make_agent(alpha_j=0.1, tau=10_000, cash=1e12)
    order = decide_order(buyer, 300.0, 0.5, 1, 1e-4, 50, 1e-4, 1)
    assert order.side is Side.BUY
    assert order.ticks == align_to_tick(300.0 * math.e**10, 1e-4)
    seller = make_agent(alpha_j=0.1, tau=10_000, shares=30)
    order = decide_order(seller, 300.0, -0.5, 1, 1e-4, 50, 1e-4, 1)
    assert order.side is Side.SELL
    assert order.ticks == align_to_tick(300.0 * math.e**-10, 1e-4)


def test_desired_holding_arithmetic():
    # closed form: pi* = ln(303/300) / (0.1 * 1e-4 * 300) = 3.31678
    pi = math.log(303.0 / 300.0) / (0.1 * 1e-4 * 300.0)
    assert round(pi) == 3

    buyer = make_agent(alpha_j=0.1, shares=0, cash=1e12)
    order = decide_order(buyer, 300.0, r_toward(303.0), 5, 1e-4, 10**9, 1e-4, 1)
    assert order.side is Side.BUY and order.volume == 3
    assert order.ticks == 3_030_000
    assert order.expiry_step == 5 + buyer.tau

    seller = make_agent(alpha_j=0.1, shares=17, cash=1e12)
    order = decide_order(seller, 300.0, r_toward(303.0), 5, 1e-4, 10**9, 1e-4, 1)
    assert order.side is Side.SELL and order.volume == 17 - 3


def test_buy_capped_by_uncommitted_cash():
    a = make_agent(alpha_j=0.1, cash=1000.0, committed_ticks=4_000_000)  # 400.0 at tick 1e-4
    order = decide_order(a, 300.0, r_toward(330.0), 1, 1e-4, 50, 1e-4, 1)
    assert order.side is Side.BUY
    limit = price_of(order.ticks, 1e-4)
    assert order.volume == int(600.0 / limit) == 1
    assert order.volume * limit <= 600.0


def test_sell_capped_by_uncommitted_shares():
    a = make_agent(alpha_j=0.1, cash=0.0, shares=30, committed_shares=12)
    order = decide_order(a, 300.0, r_toward(270.0), 1, 1e-4, 50, 1e-4, 1)
    assert order.side is Side.SELL and order.volume == 18


def test_volume_cap_applies():
    a = make_agent(alpha_j=0.01, cash=1e12)  # pi* ~ 318 shares, far above cap
    order = decide_order(a, 300.0, r_toward(330.0), 1, 1e-4, 50, 1e-4, 1)
    assert order.ticks == 3_300_000
    assert order.volume == 50


def test_tiny_gap_or_no_funds_abstains():
    a = make_agent(alpha_j=0.1, cash=0.0, shares=0)
    assert decide_order(a, 300.0, r_toward(330.0), 1, 1e-4, 50, 1e-4, 1) is None  # no cash
    b = make_agent(alpha_j=1e6)
    assert decide_order(b, 300.0, r_toward(300.0001), 1, 1e-4, 50, 1e-4, 1) is None  # pi* ~ 0


@settings(max_examples=200)
@given(
    cash=st.floats(0, 50_000), shares=st.integers(0, 200),
    committed_ticks=st.integers(0, 200_000_000), committed_shares=st.integers(0, 100),
    r_hat=st.floats(-0.2, 0.2), alpha_j=st.floats(0.01, 5.0),
)
def test_orders_never_overdraw(cash, shares, committed_ticks, committed_shares, r_hat, alpha_j):
    committed_ticks = min(committed_ticks, int(cash / 1e-4))
    committed_shares = min(committed_shares, shares)
    a = make_agent(
        alpha_j=alpha_j, cash=cash, shares=shares,
        committed_ticks=committed_ticks, committed_shares=committed_shares,
    )
    order = decide_order(a, 300.0, r_hat, 1, 1e-4, 50, 1e-4, 1)
    if order is None:
        return
    assert 1 <= order.volume <= 50
    if order.side is Side.BUY:
        assert order.volume * price_of(order.ticks, 1e-4) <= cash - committed_ticks * 1e-4 + 1e-9
    else:
        assert order.volume <= shares - committed_shares


@pytest.mark.parametrize("p_t, placed", [(3e-5, False), (6e-5, True)])
def test_target_below_half_a_tick_places_nothing(p_t, placed):
    """A target under half a tick aligns to 0 ticks and places nothing; one
    from half a tick up places an order at 1 tick."""
    a = make_agent(alpha_j=0.1, cash=5e3, shares=40)
    order = decide_order(a, p_t, -0.001, 3, 1e-4, 50, 1e-4, 9)
    assert (order is not None) is placed
    if placed:
        assert order.ticks == 1 and order.side is Side.SELL


@pytest.mark.parametrize("p_t, r_hat, tick", [
    (300.0, math.nan, 1e-4), (math.inf, 0.01, 1e-4), (-math.inf, 0.01, 1e-4),
    (1e308, 0.05, 1e-4),  # p_hat = 1e308 * e**5 is inf
    (1e300, 0.1, 1e4),  # the clamped target e**10 * 1e300 over a 1e4 tick: finite
])
def test_non_finite_tick_count_places_nothing(p_t, r_hat, tick):
    """A target whose tick count, p_hat / tick, is inf or nan places no
    order; the last case, a finite count, shows the agent would trade."""
    a = make_agent(alpha_j=0.1, cash=1e307, shares=10)
    placed = decide_order(a, p_t, r_hat, 1, 1e-304, 50, tick, 1)
    assert (placed is not None) is (tick == 1e4)


@pytest.mark.parametrize("p_t, r_hat, sigma_sq, side", [
    (1.7798057893024565e308, 1e-4, 1e-310, Side.BUY),
    (np.finfo(float).max, 0.0, 1e-4, Side.SELL),
])
def test_limit_price_past_the_largest_float_places_nothing(p_t, r_hat, sigma_sq, side):
    """A finite tick count whose price, ticks * tick, rounds past the largest
    float places nothing, on either side: the book could not quote it. The
    same target on a 1e4 tick, whose price stays finite, places an order."""
    def decide(tick):
        a = make_agent(alpha_j=0.1, cash=np.finfo(float).max, shares=10 if side is Side.SELL else 0)
        return decide_order(a, p_t, r_hat, 1, sigma_sq, 50, tick, 1)

    assert decide(7.0) is None
    order = decide(1e4)
    assert order.side is side and order.volume >= 1
    assert math.isfinite(price_of(order.ticks, 1e4))


@pytest.mark.parametrize("alpha_j, sigma_sq", [
    (5e-324, 1e-4),  # alpha_j * sigma_sq * p_t underflows to 0
    (1e-300, 1e-20),  # nonzero, but the desired holding passes the largest float
])
@pytest.mark.parametrize("r_hat, side, volume", [
    (0.01, Side.BUY, 50),  # capped by v_max
    (-0.01, Side.SELL, 18),  # capped by free shares
    (0.0, Side.SELL, 18),  # a zero log-ratio still wants 0 shares
])
def test_unbounded_desired_holding_is_capped(alpha_j, sigma_sq, r_hat, side, volume):
    a = make_agent(alpha_j=alpha_j, cash=1e12, shares=30, committed_shares=12)
    order = decide_order(a, 300.0, r_hat, 1, sigma_sq, 50, 1e-4, 1)
    assert (order.side, order.volume) == (side, volume)


def test_affordable_volume_past_the_largest_float_is_capped():
    # cash over a one-tick price is inf: v_max caps the order
    a = make_agent(alpha_j=0.1, cash=1.7e308)
    order = decide_order(a, 3e-4, 0.01, 1, 1e-4, 50, 1e-4, 1)
    assert (order.side, order.volume) == (Side.BUY, 50)


# ----------------------------------------------------------------------- mood

def test_mood_flip_frequency_matches_probability():
    rng = np.random.default_rng(5)
    flips = 0
    trials = 100_000
    for u in rng.random(trials):
        s = make_agent(optimistic=False)
        update_mood(s, 150, 50, 200, 0.5, float(u))
        flips += s.optimistic
    assert flips / trials == pytest.approx(0.375, abs=0.005)


def test_consensus_states_absorb():
    s = make_agent(optimistic=True)
    for u in np.linspace(0.0, 0.999, 50):
        update_mood(s, 200, 0, 200, 0.7, float(u))
        assert s.optimistic
    s = make_agent(optimistic=False)
    for u in np.linspace(0.0, 0.999, 50):
        update_mood(s, 0, 200, 200, 0.7, float(u))
        assert not s.optimistic


def test_zero_nu_freezes_moods():
    s = make_agent(optimistic=False)
    update_mood(s, 199, 1, 200, 0.0, 0.0)
    assert not s.optimistic
