"""Agent sampling, forecast arithmetic, order sizing caps, mood dynamics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobfactor.agents import (
    Agent,
    AgentParams,
    AgentState,
    CashSpec,
    PopulationConfig,
    decide_order,
    horizon,
    init_population,
    predict_return,
    sample_pareto,
)
from lobfactor.orderbook import Side, align_to_tick
from oracles import decide_order_aligned_first, predict_return_raw, update_mood


def make_agent(
    alpha_j=0.1, tau=100, cash=1e12, shares=0, optimistic=True,
    w_f=0.0, w_c=0.0, w_m=0.0, w_n=0.0, tau_f=200,
    committed_ticks=0, committed_shares=0,
):
    params = AgentParams(w_f, w_c, w_m, w_n, tau, tau_f, alpha_j)
    state = AgentState(cash, shares, optimistic, committed_ticks, committed_shares)
    return Agent(0, params, state)


# ---------------------------------------------------------------- pareto cash

def test_pareto_u_near_one_gives_scale():
    assert sample_pareto(5000.0, 1.5, 1.0 - 1e-15) == pytest.approx(5000.0, rel=1e-12)


def test_pareto_boundary_u_rejected():
    for u in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            sample_pareto(5000.0, 1.5, u)


def test_pareto_sample_mean_and_ks():
    rng = np.random.default_rng(42)
    u = rng.random(100_000)
    u[u == 0.0] = 0.5
    x = np.array([sample_pareto(5000.0, 1.5, float(ui)) for ui in u[:10_000]])
    # closed-form mean beta*c_min/(beta-1) = 15000; heavy tail so loose band
    assert x.min() >= 5000.0
    # KS distance of the full vectorized draw against the exact CDF
    x_all = 5000.0 * u ** (-1.0 / 1.5)
    xs = np.sort(x_all)
    cdf = 1.0 - (5000.0 / xs) ** 1.5
    ecdf_hi = np.arange(1, xs.size + 1) / xs.size
    ecdf_lo = np.arange(0, xs.size) / xs.size
    ks = max(np.abs(ecdf_hi - cdf).max(), np.abs(ecdf_lo - cdf).max())
    assert ks < 0.01


# ------------------------------------------------------------ derived params

@pytest.mark.parametrize("kind", ["uniform", "pareto"])
@pytest.mark.parametrize("n_agents", [1, 7, 200])
def test_horizon_and_risk_aversion_scaling(kind, n_agents):
    """The population's horizons and risk aversions are bit-equal to the
    scalar rule on each agent's own draws, and every value is a Python
    scalar, never a numpy one."""
    cfg = PopulationConfig(n_agents=n_agents, lambda_f=10.0, lambda_c=2.0, alpha=0.2,
                           cash=CashSpec(kind=kind))
    agents = init_population(cfg, np.random.default_rng(7))
    assert [a.agent_id for a in agents] == list(range(n_agents))
    for a in agents:
        p, s = a.params, a.state
        assert p.tau == horizon(p.w_f, p.w_c)
        assert p.alpha_j.hex() == (0.2 * (1.0 + p.w_f) / (1.0 + p.w_c)).hex()
        assert p.tau_f == 200
        assert type(p.tau) is int and type(s.shares) is int
        assert type(s.cash) is float and type(s.optimistic) is bool
        assert all(type(w) is float for w in (p.w_f, p.w_c, p.w_m, p.w_n))


def test_horizon_edge_values():
    assert horizon(0.0, 0.0) == 100
    assert horizon(10.0, 0.0) == 1100
    assert horizon(0.0, 1e6) == 1  # floor at one step


def test_init_population_draw_statistics():
    cfg = PopulationConfig(n_agents=100_000, lambda_f=10.0, lambda_c=0.0)
    agents = init_population(cfg, np.random.default_rng(3))
    w_f = np.array([a.params.w_f for a in agents])
    assert abs(w_f.mean() - 10.0) < 0.2
    assert all(a.params.w_c == 0.0 for a in agents[:100])
    frac_opt = np.mean([a.state.optimistic for a in agents])
    assert abs(frac_opt - 0.5) < 0.01
    cash = np.array([a.state.cash for a in agents])
    assert cash.min() > 0.0 and cash.max() < 30_000.0
    assert abs(cash.mean() - 15_000.0) < 300.0
    shares = np.array([a.state.shares for a in agents])
    assert shares.min() >= 0 and shares.max() <= 50


def test_init_population_pareto_cash():
    cfg = PopulationConfig(
        n_agents=200_000, cash=CashSpec(kind="pareto", c_min=5000.0, beta=1.5)
    )
    agents = init_population(cfg, np.random.default_rng(11))
    cash = np.array([a.state.cash for a in agents])
    assert cash.min() >= 5000.0
    assert abs(np.median(cash) - 5000.0 * 2 ** (1 / 1.5)) < 100.0


# ------------------------------------------------------------------ forecasts

def test_fundamental_only_forecast():
    a = make_agent(w_f=1.0)
    r = predict_return(a.params, a.state, 270.0, 300.0, 270.0, 0.0)
    assert r == pytest.approx(math.log(300.0 / 270.0) / 200.0)
    assert r == pytest.approx(5.268e-4, rel=1e-3)


def test_mood_only_forecast_is_plus_minus_one():
    a = make_agent(w_m=2.5, optimistic=True)
    assert predict_return(a.params, a.state, 300.0, 300.0, 300.0, 0.0) == 1.0
    a.state.optimistic = False
    assert predict_return(a.params, a.state, 300.0, 300.0, 300.0, 0.0) == -1.0


def test_all_zero_weights_abstains():
    a = make_agent()
    assert predict_return(a.params, a.state, 300.0, 300.0, 300.0, 0.0) is None


@given(
    w_f=st.floats(0.01, 50), w_c=st.floats(0.01, 10), w_n=st.floats(0.01, 5),
    eps=st.floats(-0.05, 0.05), p_t=st.floats(100, 500), p_lag=st.floats(100, 500),
)
def test_zero_mood_weight_matches_three_term_form(w_f, w_c, w_n, eps, p_t, p_lag):
    a = make_agent(w_f=w_f, w_c=w_c, w_n=w_n, tau=horizon(w_f, w_c))
    r = predict_return(a.params, a.state, p_t, 300.0, p_lag, eps)
    expected = (
        w_f / 200.0 * math.log(300.0 / p_t)
        + w_c / a.params.tau * math.log(p_t / p_lag)
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
    got = predict_return(a.params, a.state, p_t, 300.0, p_lag, eps)
    expected = predict_return_raw(a.params, a.state, p_t, 300.0, p_lag, eps)
    assert repr(got) == repr(expected)  # repr tells every float bit pattern apart


def test_agent_params_are_frozen():
    a = make_agent(w_f=1.0)
    with pytest.raises(AttributeError):
        a.params.w_f = 2.0


# --------------------------------------------------------------- order sizing

def r_toward(p_hat, p_t=300.0, tau=100):
    """The forecast whose compounded target over tau steps is about p_hat."""
    return math.log(p_hat / p_t) / tau


def test_order_limit_compounds_the_forecast_over_the_horizon():
    a = make_agent(alpha_j=0.1, tau=100, cash=1e12)
    order = decide_order(a, 300.0, 0.001, 1, 1e-4, 50, 1e-4, 1)
    assert order.limit_price == align_to_tick(300.0 * math.exp(100 * 0.001), 1e-4)
    assert order.limit_price == pytest.approx(300.0 * math.e**0.1, abs=1e-4)


def test_order_limit_clamps_the_exponent():
    buyer = make_agent(alpha_j=0.1, tau=10_000, cash=1e12)
    order = decide_order(buyer, 300.0, 0.5, 1, 1e-4, 50, 1e-4, 1)
    assert order.side is Side.BUY
    assert order.limit_price == align_to_tick(300.0 * math.e**10, 1e-4)
    seller = make_agent(alpha_j=0.1, tau=10_000, shares=30)
    order = decide_order(seller, 300.0, -0.5, 1, 1e-4, 50, 1e-4, 1)
    assert order.side is Side.SELL
    assert order.limit_price == align_to_tick(300.0 * math.e**-10, 1e-4)


def test_desired_holding_arithmetic():
    # closed form: pi* = ln(303/300) / (0.1 * 1e-4 * 300) = 3.31678
    pi = math.log(303.0 / 300.0) / (0.1 * 1e-4 * 300.0)
    assert round(pi) == 3

    buyer = make_agent(alpha_j=0.1, shares=0, cash=1e12)
    order = decide_order(buyer, 300.0, r_toward(303.0), 5, 1e-4, 10**9, 1e-4, 1)
    assert order.side is Side.BUY and order.volume == 3
    assert order.limit_price == 303.0
    assert order.expiry_step == 5 + buyer.params.tau

    seller = make_agent(alpha_j=0.1, shares=17, cash=1e12)
    order = decide_order(seller, 300.0, r_toward(303.0), 5, 1e-4, 10**9, 1e-4, 1)
    assert order.side is Side.SELL and order.volume == 17 - 3


def test_buy_capped_by_uncommitted_cash():
    a = make_agent(alpha_j=0.1, cash=1000.0, committed_ticks=4_000_000)  # 400.0 at tick 1e-4
    order = decide_order(a, 300.0, r_toward(330.0), 1, 1e-4, 50, 1e-4, 1)
    assert order.side is Side.BUY
    assert order.volume == int(600.0 / order.limit_price) == 1
    assert order.volume * order.limit_price <= 600.0


def test_sell_capped_by_uncommitted_shares():
    a = make_agent(alpha_j=0.1, cash=0.0, shares=30, committed_shares=12)
    order = decide_order(a, 300.0, r_toward(270.0), 1, 1e-4, 50, 1e-4, 1)
    assert order.side is Side.SELL and order.volume == 18


def test_volume_cap_applies():
    a = make_agent(alpha_j=0.01, cash=1e12)  # pi* ~ 318 shares, far above cap
    order = decide_order(a, 300.0, r_toward(330.0), 1, 1e-4, 50, 1e-4, 1)
    assert order.limit_price == 330.0
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
        assert order.volume * order.limit_price <= cash - committed_ticks * 1e-4 + 1e-9
    else:
        assert order.volume <= shares - committed_shares


@settings(max_examples=500, deadline=None)
@given(
    cash=st.floats(0, 1e6), cash_all_committed=st.booleans(),
    committed_ticks=st.integers(0, 10**10), shares=st.integers(0, 300),
    committed_shares=st.integers(0, 300), r_hat=st.floats(-0.3, 0.3),
    p_t=st.floats(1e-6, 1e5), tick=st.sampled_from((1e-4, 0.01, 0.25)),
    tau=st.integers(1, 1000), alpha_j=st.floats(1e-3, 5.0),
)
@example(cash=0.0, cash_all_committed=False, committed_ticks=0, shares=0,
         committed_shares=0, r_hat=0.05, p_t=300.0, tick=1e-4, tau=100, alpha_j=0.1)
@example(cash=5e3, cash_all_committed=True, committed_ticks=10**7, shares=40,
         committed_shares=40, r_hat=0.05, p_t=300.0, tick=1e-4, tau=100, alpha_j=0.1)
@example(cash=5e3, cash_all_committed=False, committed_ticks=0, shares=40,
         committed_shares=40, r_hat=-0.05, p_t=300.0, tick=1e-4, tau=100, alpha_j=0.1)
@example(cash=5e3, cash_all_committed=False, committed_ticks=0, shares=40,
         committed_shares=0, r_hat=-0.05, p_t=3e-5, tick=1e-4, tau=100, alpha_j=0.1)
@example(cash=5e3, cash_all_committed=False, committed_ticks=0, shares=0,
         committed_shares=0, r_hat=0.002, p_t=6e-5, tick=1e-4, tau=100, alpha_j=0.1)
def test_sizing_first_places_the_orders_aligning_first_does(
    cash, cash_all_committed, committed_ticks, shares, committed_shares, r_hat, p_t, tick,
    tau, alpha_j,
):
    """Zero free cash and zero free shares included; targets below one tick
    take the aligning-first order."""
    if cash_all_committed:
        cash = committed_ticks * tick
    a = make_agent(alpha_j=alpha_j, tau=tau, cash=cash, shares=shares,
                   committed_ticks=committed_ticks,
                   committed_shares=min(committed_shares, shares))
    args = (p_t, r_hat, 3, 1e-4, 50, tick, 9)
    assert decide_order(a, *args) == decide_order_aligned_first(a, *args)


@pytest.mark.parametrize("p_t, r_hat", [(300.0, math.nan), (math.inf, 0.01),
                                        (1e308, 0.05), (-math.inf, 0.01)])
def test_non_finite_target_raises(p_t, r_hat):
    a = make_agent(alpha_j=0.1, cash=1e6, shares=10)
    for decide in (decide_order, decide_order_aligned_first):
        with pytest.raises(ValueError):
            decide(a, p_t, r_hat, 1, 1e-4, 50, 1e-4, 1)


# ----------------------------------------------------------------------- mood

def test_mood_flip_frequency_matches_probability():
    rng = np.random.default_rng(5)
    flips = 0
    trials = 100_000
    for u in rng.random(trials):
        s = AgentState(0.0, 0, optimistic=False)
        update_mood(s, 150, 50, 200, 0.5, float(u))
        flips += s.optimistic
    assert flips / trials == pytest.approx(0.375, abs=0.005)


def test_consensus_states_absorb():
    s = AgentState(0.0, 0, optimistic=True)
    for u in np.linspace(0.0, 0.999, 50):
        update_mood(s, 200, 0, 200, 0.7, float(u))
        assert s.optimistic
    s = AgentState(0.0, 0, optimistic=False)
    for u in np.linspace(0.0, 0.999, 50):
        update_mood(s, 0, 200, 200, 0.7, float(u))
        assert not s.optimistic


def test_zero_nu_freezes_moods():
    s = AgentState(0.0, 0, optimistic=False)
    update_mood(s, 199, 1, 200, 0.0, 0.0)
    assert not s.optimistic
