"""Heterogeneous trading agents with weighted return forecasts.

Each agent blends four forecast components — mean reversion toward a
fundamental price, trend extrapolation over its own lookback horizon, a
market-mood bias, and idiosyncratic noise — with weights drawn once per
agent from exponential distributions. The blended log-return forecast is
compounded over the agent's horizon into a target price, and a constant
absolute risk aversion rule with Gaussian beliefs turns the target into a
desired holding, hence an order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .orderbook import BUY, SELL, Order, align_to_tick

RETURN_HORIZON_CLAMP = 10.0  # bound on tau * r_hat inside exp()


@dataclass
class CashSpec:
    """Initial cash endowment: "uniform" on (0, c_max) or "pareto" (c_min, beta)."""

    kind: str = "uniform"
    c_max: float = 30_000.0
    c_min: float = 5_000.0
    beta: float = 1.5


@dataclass
class PopulationConfig:
    n_agents: int = 200
    lambda_f: float = 10.0  # mean fundamental weight
    lambda_c: float = 0.0  # mean chartist weight; 0 disables the component
    lambda_m: float = 0.0  # mean mood weight; 0 disables the component
    lambda_n: float = 1.0  # mean noise weight
    sigma_n: float = 0.01  # std of the per-decision noise draw
    nu: float = 0.0  # mood contagion strength; 0 freezes moods
    alpha: float = 0.1  # base risk aversion
    cash: CashSpec = field(default_factory=CashSpec)
    w_max: int = 50  # initial shares ~ uniform integer on [0, w_max]
    tau_f: int = 200  # fundamentalist mean-reversion horizon, steps
    p_optimist_init: float = 0.5


@dataclass(frozen=True)
class AgentParams:
    w_f: float
    w_c: float
    w_m: float
    w_n: float
    tau: int  # forecast horizon and order lifetime, steps
    tau_f: int
    alpha_j: float
    # derived once, each the float the forecast would compute first on
    # every call: the fundamental and chartist coefficients and the weight total
    f_coef: float = field(init=False, repr=False)
    c_coef: float = field(init=False, repr=False)
    w_total: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "f_coef", self.w_f / self.tau_f)
        object.__setattr__(self, "c_coef", self.w_c / self.tau)
        object.__setattr__(self, "w_total", self.w_f + self.w_c + self.w_m + self.w_n)


@dataclass
class AgentState:
    cash: float
    shares: int
    optimistic: bool
    # cash (in whole ticks, so releases cancel additions exactly) and shares
    # pledged to resting orders; keeps fills from ever driving holdings
    # negative while several orders are live
    committed_ticks: int = 0
    committed_shares: int = 0


@dataclass
class Agent:
    agent_id: int
    params: AgentParams
    state: AgentState


def sample_pareto(c_min: float, beta: float, u):
    """Inverse-CDF Pareto draw(s) with scale c_min and shape beta, from u in (0, 1).

    A scalar u gives a float; an array gives elementwise draws.
    """
    x = np.asarray(u, dtype=float)
    if not np.all((x > 0.0) & (x < 1.0)):
        raise ValueError(f"u must lie strictly inside (0, 1), got {u!r}")
    draws = c_min * x ** (-1.0 / beta)
    return float(draws) if x.ndim == 0 else draws


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
    elif config.cash.kind == "pareto":
        u = rng.random(n)
        while (zero := u == 0.0).any():  # open-interval contract
            u[zero] = rng.random(int(zero.sum()))
        cash = sample_pareto(config.cash.c_min, config.cash.beta, u)
    else:
        raise ValueError(f"unknown cash kind {config.cash.kind!r}")

    shares = rng.integers(0, config.w_max + 1, n)
    optimist = rng.random(n) < config.p_optimist_init

    # horizon() and the risk-aversion rule, elementwise: the same float
    # operations in the same order, so every value keeps its bits
    up, down = 1.0 + w_f, 1.0 + w_c
    tau = 100.0 * up / down + 0.5
    alpha_j = config.alpha * up / down
    taus = [max(1, int(x)) for x in tau.tolist()]  # Python ints of any size
    return [
        Agent(j, AgentParams(w_f=wf, w_c=wc, w_m=wm, w_n=wn, tau=tau_j,
                             tau_f=config.tau_f, alpha_j=a),
              AgentState(cash=c, shares=s, optimistic=o))
        for j, (wf, wc, wm, wn, tau_j, a, c, s, o) in enumerate(zip(
            w_f.tolist(), w_c.tolist(), w_m.tolist(), w_n.tolist(), taus,
            alpha_j.tolist(), cash.tolist(), shares.tolist(), optimist.tolist()))
    ]


def predict_return(
    params: AgentParams,
    state: AgentState,
    p_t: float,
    p_f: float,
    p_lag: float,
    eps: float,
) -> float | None:
    """Weighted-average one-step log-return forecast; None if all weights are zero."""
    total = params.w_total
    if total == 0.0:
        return None
    acc = 0.0
    if params.w_f > 0.0:
        acc += params.f_coef * math.log(p_f / p_t)
    if params.w_c > 0.0:
        acc += params.c_coef * math.log(p_t / p_lag)
    if params.w_m > 0.0:
        acc += params.w_m * (1.0 if state.optimistic else -1.0)
    if params.w_n > 0.0:
        acc += params.w_n * eps
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
    the order's limit is p_hat aligned to the tick. The gap between desired and
    current shares sets side and size; size is capped by v_max, by
    uncommitted cash at the limit price (no borrowing), and by uncommitted
    shares (no short selling). Returns None when the agent has nothing to do.
    """
    params, state = agent.params, agent.state
    g = params.tau * r_hat
    if g > RETURN_HORIZON_CLAMP:
        g = RETURN_HORIZON_CLAMP
    elif g < -RETURN_HORIZON_CLAMP:
        g = -RETURN_HORIZON_CLAMP
    p_hat = p_t * math.exp(g)
    # A target of at least one tick aligns to a limit of at least one tick
    # (alignment is monotone and keeps the tick itself), so the sizing can
    # run first and the limit is aligned only for an order that can be
    # placed. Any other target goes as when the limit came first: one that
    # is not finite raises, and one that aligns below a tick places nothing.
    if not tick <= p_hat < math.inf and align_to_tick(p_hat, tick) < tick:
        return None
    pi_star = math.log(p_hat / p_t) / (params.alpha_j * sigma_sq * p_t)
    delta = round(pi_star) - state.shares
    if delta > 0:
        free_cash = state.cash - state.committed_ticks * tick
        if free_cash <= 0.0:
            return None
        limit = align_to_tick(p_hat, tick)
        volume = int(free_cash / limit)  # affordable
        side = BUY
    elif delta < 0:
        volume = state.shares - state.committed_shares
        if volume < 1:
            return None
        limit = align_to_tick(p_hat, tick)
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
    return Order(order_id, agent.agent_id, side, limit, volume, step, step + params.tau)
