"""Heterogeneous trading agents with weighted return forecasts.

Each agent blends four forecast components — mean reversion toward a
fundamental price, trend extrapolation over its own lookback horizon, a
market-mood bias, and idiosyncratic noise — with weights drawn once per
agent from exponential distributions. The blended log-return forecast is
compounded over the agent's horizon into a target price, and a constant
absolute risk aversion rule with Gaussian beliefs turns the target into a
desired holding, hence an order. The population's config, `PopulationConfig`
with its `CashSpec`, and the forecast clamp are defined in `lobfactor.config`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import FLOAT_MAX, RETURN_HORIZON_CLAMP, TINY, PopulationConfig
from .orderbook import BUY, SELL, Order, align_to_tick, price_of, tick_fraction

# a limit's price is below 2 * p_hat * (1 + 2**-53)**2, since its tick count
# is at most p_hat / tick + 1/2 and at least 1 (so tick <= 2 * p_hat): under
# this target it is finite, and only above it can it pass the largest float
_PRICE_CHECKED_ABOVE = FLOAT_MAX / 4


@dataclass(slots=True)
class Agent:
    agent_id: int
    w_f: float
    w_c: float
    w_m: float
    w_n: float
    tau: int  # forecast horizon and order lifetime, steps
    tau_f: int
    alpha_j: float
    cash: float
    shares: int
    optimistic: bool
    # cash (in whole ticks, so releases cancel additions exactly) and shares
    # pledged to resting orders; keeps fills from ever driving holdings
    # negative while several orders are live
    committed_ticks: int = 0
    committed_shares: int = 0
    # derived once, each the float the forecast would compute first on
    # every call: the fundamental and chartist coefficients and the weight total
    f_coef: float = field(init=False, repr=False)
    c_coef: float = field(init=False, repr=False)
    w_total: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.f_coef = self.w_f / self.tau_f
        self.c_coef = self.w_c / self.tau
        self.w_total = self.w_f + self.w_c + self.w_m + self.w_n


def sample_pareto(c_min: float, beta: float, u):
    """Inverse-CDF Pareto draws with scale c_min and shape beta, elementwise
    over an array u of uniforms in (0, 1)."""
    x = np.asarray(u, dtype=float)
    if not np.all((x > 0.0) & (x < 1.0)):
        raise ValueError(f"u must lie strictly inside (0, 1), got {u!r}")
    return c_min * x ** (-1.0 / beta)


def horizon(w_f: float, w_c: float) -> int:
    """tau = round(100 * (1 + w_f) / (1 + w_c)), never below 1. Half rounds up."""
    return max(1, int(100.0 * (1.0 + w_f) / (1.0 + w_c) + 0.5))


def init_population(config: PopulationConfig, rng: np.random.Generator) -> list[Agent]:
    """Draw a fresh population. Consumes the generator in a fixed order:
    w_f, w_c, w_m, w_n vectors, then cash, then shares, then initial moods.
    """
    n = config.n_agents
    w_f = rng.exponential(config.lambda_f, n) if config.lambda_f > 0 else np.zeros(n)
    w_c = rng.exponential(config.lambda_c, n) if config.lambda_c > 0 else np.zeros(n)
    w_m = rng.exponential(config.lambda_m, n) if config.lambda_m > 0 else np.zeros(n)
    w_n = rng.exponential(config.lambda_n, n) if config.lambda_n > 0 else np.zeros(n)

    if config.cash.kind == "uniform":
        cash = rng.uniform(0.0, config.cash.c_max, n)
    else:  # "pareto", the one other kind validate_config admits
        u = rng.random(n)
        while (zero := u == 0.0).any():  # open-interval contract
            u[zero] = rng.random(int(zero.sum()))
        cash = sample_pareto(config.cash.c_min, config.cash.beta, u)

    shares = rng.integers(0, config.w_max + 1, n)
    optimist = rng.random(n) < config.p_optimist_init

    # horizon() and the risk-aversion rule, elementwise: the same float
    # operations in the same order, so every value keeps its bits
    up, down = 1.0 + w_f, 1.0 + w_c
    tau = 100.0 * up / down + 0.5
    alpha_j = config.alpha * up / down
    taus = [max(1, int(x)) for x in tau.tolist()]  # Python ints of any size
    return [
        Agent(j, wf, wc, wm, wn, tau_j, config.tau_f, a, c, s, o)
        for j, (wf, wc, wm, wn, tau_j, a, c, s, o) in enumerate(zip(
            w_f.tolist(), w_c.tolist(), w_m.tolist(), w_n.tolist(), taus,
            alpha_j.tolist(), cash.tolist(), shares.tolist(), optimist.tolist()))
    ]


def predict_return(agent: Agent, p_t: float, p_f: float, p_lag: float,
                   eps: float) -> float | None:
    """Weighted-average one-step log-return forecast; None if all weights are zero."""
    total = agent.w_total
    if total == 0.0:
        return None
    acc = 0.0
    # a price ratio that underflows to 0 counts as the least positive float
    if agent.w_f > 0.0:
        acc += agent.f_coef * math.log(p_f / p_t or TINY)
    if agent.w_c > 0.0:
        acc += agent.c_coef * math.log(p_t / p_lag or TINY)
    if agent.w_m > 0.0:
        acc += agent.w_m * (1.0 if agent.optimistic else -1.0)
    if agent.w_n > 0.0:
        acc += agent.w_n * eps
    return acc / total


def decide_order(
    agent: Agent,
    p_t: float,
    r_hat: float,
    step: int,
    sigma_sq: float,
    v_max: int,
    tick: float,
    order_id: int,
) -> Order | None:
    """CARA/Gaussian myopic sizing: desired holding ln(p_hat/p_t) / (alpha_j sigma^2 p_t).

    The target p_hat = p_t * exp(tau * r_hat) compounds the forecast over the
    agent's horizon, with the exponent clamped to +-RETURN_HORIZON_CLAMP, and
    the order's limit is p_hat aligned to whole ticks. A limit below one tick
    places nothing, and so does a target whose tick count is not finite or a
    limit whose price, price_of(ticks, tick), passes the largest float: the
    book could not quote it. The gap between desired and current shares sets
    side and size; size is capped by v_max, by uncommitted cash at the limit
    price (no borrowing), and by uncommitted shares (no short selling). A
    desired holding too large for a float, its denominator underflowing to 0
    included, counts as unbounded toward the forecast's side. Returns None
    when the agent has nothing to do.
    """
    g = agent.tau * r_hat
    if g > RETURN_HORIZON_CLAMP:
        g = RETURN_HORIZON_CLAMP
    elif g < -RETURN_HORIZON_CLAMP:
        g = -RETURN_HORIZON_CLAMP
    p_hat = p_t * math.exp(g)
    try:
        ticks = align_to_tick(p_hat, tick)
    except ValueError:  # p_hat / tick is inf or nan
        return None
    if ticks < 1:
        return None
    if p_hat > _PRICE_CHECKED_ABOVE:
        try:
            price_of(ticks, tick)
        except OverflowError:
            return None
    log_ratio = math.log(p_hat / p_t)
    try:
        delta = round(log_ratio / (agent.alpha_j * sigma_sq * p_t)) - agent.shares
    except (ZeroDivisionError, OverflowError):
        # the denominator underflowed to 0 or the quotient passed the largest
        # float: the desired holding is unbounded on the forecast's side, so
        # only v_max, cash and free shares cap the order
        delta = math.copysign(math.inf, log_ratio) if log_ratio else -agent.shares
    if delta > 0:
        # both prices inline, as price_of computes them, from the tick's
        # exact fraction read once
        m, den = tick_fraction(tick)
        affordable = (agent.cash - agent.committed_ticks * m / den) / (ticks * m / den)
        volume = int(affordable) if affordable < v_max else v_max  # int(inf) would raise
        side = BUY
    elif delta < 0:
        volume = agent.shares - agent.committed_shares
        delta = -delta
        side = SELL
    else:
        return None
    # min(delta, v_max, volume), without the call
    if delta < volume:
        volume = delta
    if v_max < volume:
        volume = v_max
    if volume < 1:
        return None
    return Order(order_id, agent.agent_id, side, ticks, volume, step, step + agent.tau)
