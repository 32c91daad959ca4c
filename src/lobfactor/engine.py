"""Single-market simulation loop.

Each step: one uniformly chosen agent forecasts and may submit one order
(matching suppressed inside the configured no-execution windows), stale
orders expire, then, while moods are mixed (0 < optimists < n), every agent
reconsiders its mood sequentially in a fresh random order against live camp
counts. Each trial owns one master generator seeded from the config seed,
which draws the population, then all agent choices, then all noise. Only
when nu > 0, a child stream (`SeedSequence(seed).spawn(1)[0]`) draws each
mixed step's mood row as that step runs: one permutation of the agents,
then one uniform per agent. A (config, seed) pair fully pins the output.

Escrow is held in whole ticks on each agent's state. Each order pledges it
once: its whole volume at its tick count for a buy, its shares for a sell.
Each fill and each expiry then releases its share of it, so the escrow
always mirrors the resting orders.

The tick log (one row per order and per trade, with the quotes around it)
is recorded only when asked for: the `simulate` command keeps it, while the
calibration trials, which read only trades, mids and the optimist share, run
with `record_ticks=False`. Skipping it changes no other output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .agents import (
    RETURN_HORIZON_CLAMP,
    Agent,
    PopulationConfig,
    decide_order,
    init_population,
    predict_return,
)
from .orderbook import BUY, Book, Trade


# far above the 2110-step day; bounds the pre-drawn per-step arrays
MAX_T_SIM = 10**6
# 50 times the default population
MAX_AGENTS = 10**4
# the initial share draw rng.integers(0, w_max + 1) needs an int64 high
MAX_W_MAX = 2**63 - 1


class ConfigurationError(ValueError):
    """A simulation config failed validation."""


@dataclass
class SimulationConfig:
    population: PopulationConfig = field(default_factory=PopulationConfig)
    t_sim: int = 2110
    no_exec_windows: tuple = ((1, 100), (1100, 1110))
    p0: float = 300.0
    fundamental_price: float = 300.0
    tick_size: float = 1e-4
    v_max: int = 50  # per-order volume cap
    sigma_sq_order: float = 1e-4  # return-variance belief in the sizing rule
    seed: int = 0


@dataclass(slots=True)
class TickRecord:
    step: int
    event: str  # "OrderPlaced" | "TradeExecuted"
    market_price: float | None  # last trade price; the trade price on trade rows
    mid_price: float
    best_bid: float | None
    best_ask: float | None
    order_volume: int  # submitted size on order rows, 0 on trade rows
    exec_volume: int  # trade size on trade rows, 0 on order rows
    n_optimists: int


@dataclass
class SimulationOutput:
    ticks: list[TickRecord]
    trades: list[Trade]
    mid_prices: list[float]  # entry t-1 = mid after step t; p0 precedes entry 0
    optimists_rate: list[float]  # recorded after each step's mood pass


def validate_config(config: SimulationConfig) -> None:
    pop = config.population
    for part in (config, pop, pop.cash):
        for f in fields(part):
            value = getattr(part, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
    checks = [
        (config.seed >= 0, "seed must be >= 0"),
        (config.t_sim >= 1, "t_sim must be >= 1"),
        (config.t_sim <= MAX_T_SIM, f"t_sim must be <= {MAX_T_SIM}"),
        (config.p0 > 0, "p0 must be positive"),
        (config.fundamental_price > 0, "fundamental_price must be positive"),
        (config.tick_size > 0, "tick_size must be positive"),
        (config.v_max >= 1, "v_max must be >= 1"),
        (config.sigma_sq_order > 0, "sigma_sq_order must be positive"),
        (pop.n_agents >= 1, "n_agents must be >= 1"),
        (pop.n_agents <= MAX_AGENTS, f"n_agents must be <= {MAX_AGENTS}"),
        (pop.lambda_f >= 0 and pop.lambda_c >= 0 and pop.lambda_m >= 0
         and pop.lambda_n >= 0, "weight means must be >= 0"),
        (pop.sigma_n >= 0, "sigma_n must be >= 0"),
        (0.0 <= pop.nu <= 1.0, "nu must lie in [0, 1]"),
        (pop.alpha > 0, "alpha must be positive"),
        (0.0 <= pop.p_optimist_init <= 1.0, "p_optimist_init must lie in [0, 1]"),
        (pop.tau_f >= 1, "tau_f must be >= 1"),
        (pop.w_max >= 0, "w_max must be >= 0"),
        (pop.w_max <= MAX_W_MAX, f"w_max must be <= {MAX_W_MAX}"),
        (pop.cash.kind in ("uniform", "pareto"), f"unknown cash kind {pop.cash.kind!r}"),
        (pop.cash.c_max > 0 and pop.cash.c_min > 0, "cash bounds must be positive"),
        (pop.cash.beta > 0, "cash beta must be positive"),
    ]
    for ok, msg in checks:
        if not ok:
            raise ConfigurationError(msg)
    # rng.random's least nonzero draw is 2**-53 (zeros are drawn again), so the
    # largest Pareto cash is c_min * 2**(53 / beta); checked for any kind, since
    # the Pareto scenarios take c_min and beta whatever kind the config names
    if math.log(pop.cash.c_min) + 53 / pop.cash.beta * math.log(2) > math.log(np.finfo(float).max):
        raise ConfigurationError("cash c_min * 2**(53 / beta), the largest Pareto draw, "
                                 "must be finite")
    # a first order's limit lies within e**RETURN_HORIZON_CLAMP of p0; its
    # tick count, price / tick, must be a finite float
    if not math.isfinite(max(config.p0, config.fundamental_price)
                         * math.exp(RETURN_HORIZON_CLAMP) / config.tick_size):
        raise ConfigurationError(f"max(p0, fundamental_price) * e**{RETURN_HORIZON_CLAMP:g} "
                                 "/ tick_size must be finite")
    for window in config.no_exec_windows:
        if len(window) != 2 or not 1 <= window[0] <= window[1]:
            raise ConfigurationError(f"bad no-exec window {window}")


class Engine:
    """One trial's mutable state; exposed to per-step callbacks for inspection.

    A callback must leave the book as it is: a step that submits and expires
    no order keeps the mid it read last.
    """

    def __init__(self, config: SimulationConfig):
        validate_config(config)
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.agents: list[Agent] = init_population(config.population, self.rng)
        self.book = Book(tick=config.tick_size)
        self.n_opt = sum(a.state.optimistic for a in self.agents)

    def run(self, on_step: Callable | None = None, *,
            record_ticks: bool = True) -> SimulationOutput:
        cfg = self.config
        pop = cfg.population
        n = pop.n_agents
        t_sim = cfg.t_sim
        rng = self.rng

        # moods draw on their own stream, so the master stream's draws are
        # the same whether or not nu > 0
        mood_on = pop.nu > 0.0
        choices = rng.integers(0, n, t_sim).tolist()
        eps = (rng.standard_normal(t_sim) * pop.sigma_n).tolist()
        if mood_on:
            mood_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
            # flip thresholds nu * (opposite camp) / n, by optimist count
            to_pessimist = [pop.nu * (n - k) / n for k in range(n + 1)]
            to_optimist = [pop.nu * k / n for k in range(n + 1)]

        steps = np.arange(1, t_sim + 1)
        exec_ok = np.ones(t_sim, dtype=bool)
        for lo, hi in cfg.no_exec_windows:
            exec_ok &= (steps < lo) | (steps > hi)

        book = self.book
        orders = book.orders
        # bound once per run: a tracer patches these before the run starts
        submit, expire, mid_price = book.submit, book.expire, book.mid_price
        forecast, decide = predict_return, decide_order
        agents = self.agents
        states = [agent.state for agent in agents]
        p0, p_f = cfg.p0, cfg.fundamental_price
        sigma_sq, v_max, tick = cfg.sigma_sq_order, cfg.v_max, cfg.tick_size
        p_t = p0
        price_hist = [p0]
        ticks: list[TickRecord] = []
        all_trades: list[Trade] = []
        optimists_rate: list[float] = []

        for t, j, eps_t, exec_t in zip(range(1, t_sim + 1), choices, eps, exec_ok.tolist()):
            agent = agents[j]
            params, state = agent.params, agent.state
            tau = params.tau
            p_lag = price_hist[t - tau] if t > tau else p0
            r_hat = forecast(params, state, p_t, p_f, p_lag, eps_t)
            touched = False  # whether this step submits or expires an order
            if r_hat is not None:
                order = decide(agent, p_t, r_hat, t, sigma_sq, v_max, tick, len(orders) + 1)
                if order is not None:
                    touched = True
                    volume = order.volume
                    if record_ticks:
                        # p_t is the book's mid: nothing has touched it since
                        ticks.append(TickRecord(
                            t, "OrderPlaced", book.last_trade_price, p_t,
                            book.best_bid(), book.best_ask(), volume, 0, self.n_opt,
                        ))
                    trades = submit(order, exec_t)
                    if order.side is BUY:
                        state.committed_ticks += volume * order.ticks
                    else:
                        state.committed_shares += volume
                    if trades:
                        for trade in trades:
                            buy = orders[trade.buy_order_id]
                            sell = orders[trade.sell_order_id]
                            buyer, seller = states[buy.agent_id], states[sell.agent_id]
                            vol = trade.volume
                            cost = trade.price * vol
                            # the buyer's cash moves first: the float order
                            # matters when one agent is on both sides
                            buyer.cash -= cost
                            buyer.shares += vol
                            buyer.committed_ticks -= vol * buy.ticks
                            seller.cash += cost
                            seller.shares -= vol
                            seller.committed_shares -= vol
                        all_trades.extend(trades)
                        if record_ticks:
                            bb, ba = book.best_bid(), book.best_ask()
                            mid = mid_price(p0)
                            for trade in trades:
                                ticks.append(TickRecord(
                                    t, "TradeExecuted", trade.price, mid, bb, ba,
                                    0, trade.volume, self.n_opt,
                                ))

            dropped = expire(t)
            if dropped:
                touched = True
                for order, volume in dropped:
                    state = states[order.agent_id]
                    if order.side is BUY:
                        state.committed_ticks -= volume * order.ticks
                    else:
                        state.committed_shares -= volume

            if mood_on and 0 < self.n_opt < n:
                n_opt = self.n_opt
                perm = mood_rng.permutation(n).tolist()
                urow = mood_rng.random(n).tolist()
                for k in perm:
                    state = states[k]
                    if state.optimistic:
                        if urow[k] < to_pessimist[n_opt]:
                            state.optimistic = False
                            n_opt -= 1
                    elif urow[k] < to_optimist[n_opt]:
                        state.optimistic = True
                        n_opt += 1
                self.n_opt = n_opt

            if touched:  # else the book, hence its mid, is as it was
                p_t = mid_price(p0)
            price_hist.append(p_t)
            optimists_rate.append(self.n_opt / n)
            if on_step is not None:
                on_step(self, t)

        return SimulationOutput(
            ticks=ticks,
            trades=all_trades,
            mid_prices=price_hist[1:],
            optimists_rate=optimists_rate,
        )


def run(config: SimulationConfig, on_step: Callable | None = None, *,
        record_ticks: bool = True) -> SimulationOutput:
    """Run one trial. Byte-identical outputs for identical (config, seed);
    with record_ticks off the tick log stays empty and nothing else changes."""
    return Engine(config).run(on_step=on_step, record_ticks=record_ticks)
