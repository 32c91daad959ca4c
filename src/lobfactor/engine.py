"""Single-market simulation loop.

Each step: one uniformly chosen agent forecasts and may submit one order
(matching suppressed inside the configured no-execution windows), stale
orders expire, then every agent reconsiders its mood sequentially in a
fresh random order against live camp counts. Each trial owns one master
generator seeded from the config seed; all randomness is pre-drawn from it
in a fixed order (population, then agent choices, then noise, then, only
when nu > 0, mood permutations and mood uniforms), so a (config, seed) pair
fully pins the output.

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
    Agent,
    PopulationConfig,
    decide_order,
    init_population,
    predict_price,
    predict_return,
)
from .orderbook import BUY, Book, Order, Trade


# far above the 2110-step day; bounds the pre-drawn per-step arrays
MAX_T_SIM = 10**6
# 50 times the default population
MAX_AGENTS = 10**4
MAX_MOOD_CELLS = 25 * 10**6  # bounds the (t_sim, n_agents) mood pre-draw, ~24 B a cell


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
        (pop.nu == 0 or config.t_sim * pop.n_agents <= MAX_MOOD_CELLS,
         f"t_sim * n_agents must be <= {MAX_MOOD_CELLS} when nu > 0"),
        (pop.lambda_f >= 0 and pop.lambda_c >= 0 and pop.lambda_m >= 0
         and pop.lambda_n >= 0, "weight means must be >= 0"),
        (pop.sigma_n >= 0, "sigma_n must be >= 0"),
        (0.0 <= pop.nu <= 1.0, "nu must lie in [0, 1]"),
        (pop.alpha > 0, "alpha must be positive"),
        (0.0 <= pop.p_optimist_init <= 1.0, "p_optimist_init must lie in [0, 1]"),
        (pop.tau_f >= 1, "tau_f must be >= 1"),
        (pop.w_max >= 0, "w_max must be >= 0"),
        (pop.cash.kind in ("uniform", "pareto"), f"unknown cash kind {pop.cash.kind!r}"),
        (pop.cash.c_max > 0 and pop.cash.c_min > 0, "cash bounds must be positive"),
        (pop.cash.beta > 0, "cash beta must be positive"),
    ]
    for ok, msg in checks:
        if not ok:
            raise ConfigurationError(msg)
    for window in config.no_exec_windows:
        if len(window) != 2 or not 1 <= window[0] <= window[1]:
            raise ConfigurationError(f"bad no-exec window {window}")


class Engine:
    """One trial's mutable state; exposed to per-step callbacks for inspection."""

    def __init__(self, config: SimulationConfig):
        validate_config(config)
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.agents: list[Agent] = init_population(config.population, self.rng)
        self.book = Book(tick=config.tick_size)
        self.n_opt = sum(a.state.optimistic for a in self.agents)

    def _escrow(self, order: Order, volume: int) -> None:
        """Pledge (volume > 0) or release (volume < 0) the escrow of that many
        shares of an order: its owner's cash at the limit price, in whole
        ticks, for a buy; its owner's shares for a sell."""
        state = self.agents[order.agent_id].state
        if order.side is BUY:
            state.committed_ticks += volume * self.book.ticks(order.limit_price)
        else:
            state.committed_shares += volume

    def _settle(self, trade: Trade) -> None:
        buy_order = self.book.orders[trade.buy_order_id]
        sell_order = self.book.orders[trade.sell_order_id]
        buyer = self.agents[buy_order.agent_id].state
        seller = self.agents[sell_order.agent_id].state
        cost = trade.price * trade.volume
        # the buyer's cash moves first: the float order matters when one
        # agent is on both sides
        buyer.cash -= cost
        buyer.shares += trade.volume
        self._escrow(buy_order, -trade.volume)
        seller.cash += cost
        seller.shares -= trade.volume
        self._escrow(sell_order, -trade.volume)

    def run(self, on_step: Callable | None = None, *,
            record_ticks: bool = True) -> SimulationOutput:
        cfg = self.config
        pop = cfg.population
        n = pop.n_agents
        t_sim = cfg.t_sim
        rng = self.rng

        # fixed pre-draw order; the mood rows come last and are drawn only
        # when nu > 0, so skipping them leaves every earlier draw unchanged
        mood_on = pop.nu > 0.0
        choices = rng.integers(0, n, t_sim).tolist()
        eps = (rng.standard_normal(t_sim) * pop.sigma_n).tolist()
        if mood_on:
            mood_perms = rng.permuted(np.tile(np.arange(n), (t_sim, 1)), axis=1)
            mood_unifs = rng.random((t_sim, n))
            # flip thresholds nu * (opposite camp) / n, by optimist count
            to_pessimist = [pop.nu * (n - k) / n for k in range(n + 1)]
            to_optimist = [pop.nu * k / n for k in range(n + 1)]

        steps = np.arange(1, t_sim + 1)
        exec_ok = np.ones(t_sim, dtype=bool)
        for lo, hi in cfg.no_exec_windows:
            exec_ok &= (steps < lo) | (steps > hi)

        book = self.book
        agents = self.agents
        states = [agent.state for agent in agents]
        p0, p_f = cfg.p0, cfg.fundamental_price
        price_hist = [p0]
        ticks: list[TickRecord] = []
        all_trades: list[Trade] = []
        optimists_rate: list[float] = []

        for t, j, eps_t, exec_t in zip(range(1, t_sim + 1), choices, eps, exec_ok.tolist()):
            agent = agents[j]
            params = agent.params
            p_t = price_hist[-1]
            p_lag = price_hist[max(0, t - params.tau)]
            r_hat = predict_return(params, agent.state, p_t, p_f, p_lag, eps_t)
            if r_hat is not None:
                p_hat = predict_price(p_t, params.tau, r_hat)
                order = decide_order(
                    agent, p_t, p_hat, t, cfg.sigma_sq_order, cfg.v_max,
                    cfg.tick_size, len(book.orders) + 1,
                )
                if order is not None:
                    self._escrow(order, order.volume)
                    if record_ticks:
                        ticks.append(TickRecord(
                            t, "OrderPlaced", book.last_trade_price, book.mid_price(p0),
                            book.best_bid(), book.best_ask(), order.volume, 0, self.n_opt,
                        ))
                    trades = book.submit(order, execution_enabled=exec_t)
                    for trade in trades:
                        self._settle(trade)
                    all_trades.extend(trades)
                    if trades and record_ticks:
                        bb, ba = book.best_bid(), book.best_ask()
                        mid = book.mid_price(p0)
                        for trade in trades:
                            ticks.append(TickRecord(
                                t, "TradeExecuted", trade.price, mid, bb, ba,
                                0, trade.volume, self.n_opt,
                            ))

            for order, volume in book.expire(t):
                self._escrow(order, -volume)

            if mood_on and 0 < self.n_opt < n:
                n_opt = self.n_opt
                urow = mood_unifs[t - 1].tolist()
                for k in mood_perms[t - 1].tolist():
                    state = states[k]
                    if state.optimistic:
                        if urow[k] < to_pessimist[n_opt]:
                            state.optimistic = False
                            n_opt -= 1
                    elif urow[k] < to_optimist[n_opt]:
                        state.optimistic = True
                        n_opt += 1
                self.n_opt = n_opt

            price_hist.append(book.mid_price(p0))
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
