"""Single-market simulation loop.

An `Engine` checks its `SimulationConfig` with `config.validate_config`, so
a config out of bounds raises `ConfigError` before anything is drawn.

Each step: one uniformly chosen agent forecasts and may submit one order
(matching suppressed inside the configured no-execution windows), stale
orders expire, then, while moods are mixed (0 < optimists < n), every agent
reconsiders its mood sequentially in a fresh random order against live camp
counts. Each trial owns one master generator seeded from the config seed,
which draws the population, then all agent choices, then all noise. Only
when nu > 0, a child stream (`SeedSequence(seed).spawn(1)[0]`) draws each
mixed step's mood row as that step runs: one permutation of the agents,
then one uniform per agent. A (config, seed) pair fully pins the output.

Escrow is held in whole ticks on each agent's record. Each order pledges
what of it rests after its own fills: that volume at its tick count for a
buy, those shares for a sell. Each later fill and each expiry then releases
its share of it, so the escrow always mirrors the resting orders. Stale
orders are dropped only on steps at or past the book's `next_expiry`, the
first step that can have one.

`Engine.run`, and `run` over the engine's whole life, hold Python's cyclic
garbage collector paused (the caller's setting comes back on any exit). A
trial makes no reference cycles, so reference counting frees everything it
drops whether or not the collector runs, and no value the trial computes
reads the collector's state: outputs do not depend on it.

The tick log (one row per order and per trade, with the quotes around it)
is recorded only when asked for: the `simulate` command keeps it, while the
calibration trials, which read only trades, mids and the optimist share, run
with `record_ticks=False`. Skipping it changes no other output.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .agents import Agent, decide_order, init_population, predict_return
from .config import SimulationConfig, validate_config
from .orderbook import BUY, Book, Trade


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector; restore the caller's setting on
    any exit. Safe for a trial, which makes no reference cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class TickRecord(NamedTuple):
    """One tick-log row, its fields in ticks.csv's column order."""

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


class Engine:
    """One trial's mutable state; exposed to per-step callbacks for inspection.

    A callback must leave the book as it is: a step that submits and expires
    no order keeps the mid it read last. It may set `n_opt`, the optimist
    count, which the next step then reads.
    """

    def __init__(self, config: SimulationConfig):
        validate_config(config)
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.agents: list[Agent] = init_population(config.population, self.rng)
        self.book = Book(tick=config.tick_size)
        self.n_opt = sum(a.optimistic for a in self.agents)

    @_gc_paused()
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
        p0, p_f = cfg.p0, cfg.fundamental_price
        sigma_sq, v_max, tick = cfg.sigma_sq_order, cfg.v_max, cfg.tick_size
        p_t = p0
        price_hist = [p0]
        ticks: list[TickRecord] = []
        all_trades: list[Trade] = []
        optimists_rate: list[float] = []
        n_opt = self.n_opt
        rate = n_opt / n

        for t, j, eps_t, exec_t in zip(range(1, t_sim + 1), choices, eps, exec_ok.tolist()):
            agent = agents[j]
            tau = agent.tau
            p_lag = price_hist[t - tau] if t > tau else p0
            r_hat = forecast(agent, p_t, p_f, p_lag, eps_t)
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
                            book.best_bid(), book.best_ask(), volume, 0, n_opt,
                        ))
                    trades = submit(order, exec_t)
                    # what rests of the order is pledged; each trade moves
                    # the buyer's cash first, which matters to the floats
                    # when one agent is on both sides
                    if order.side is BUY:
                        agent.committed_ticks += order.volume * order.ticks
                        for trade in trades:
                            seller = agents[orders[trade.sell_order_id].agent_id]
                            vol = trade.volume
                            cost = trade.price * vol
                            agent.cash -= cost
                            seller.cash += cost
                            seller.shares -= vol
                            seller.committed_shares -= vol
                        agent.shares += volume - order.volume
                    else:
                        agent.committed_shares += order.volume
                        for trade in trades:
                            buy = orders[trade.buy_order_id]
                            buyer = agents[buy.agent_id]
                            vol = trade.volume
                            cost = trade.price * vol
                            buyer.cash -= cost
                            buyer.shares += vol
                            buyer.committed_ticks -= vol * buy.ticks
                            agent.cash += cost
                        agent.shares -= volume - order.volume
                    if trades:
                        all_trades.extend(trades)
                        if record_ticks:
                            bb, ba = book.best_bid(), book.best_ask()
                            mid = mid_price(p0)
                            for trade in trades:
                                ticks.append(TickRecord(
                                    t, "TradeExecuted", trade.price, mid, bb, ba,
                                    0, trade.volume, n_opt,
                                ))

            if t >= book.next_expiry:
                dropped = expire(t)
                if dropped:
                    touched = True
                    for order, volume in dropped:
                        agent = agents[order.agent_id]
                        if order.side is BUY:
                            agent.committed_ticks -= volume * order.ticks
                        else:
                            agent.committed_shares -= volume

            if mood_on and 0 < n_opt < n:
                perm = mood_rng.permutation(n).tolist()
                urow = mood_rng.random(n).tolist()
                for k in perm:
                    agent = agents[k]
                    if agent.optimistic:
                        if urow[k] < to_pessimist[n_opt]:
                            agent.optimistic = False
                            n_opt -= 1
                    elif urow[k] < to_optimist[n_opt]:
                        agent.optimistic = True
                        n_opt += 1
                if n_opt != self.n_opt:
                    self.n_opt = n_opt
                    rate = n_opt / n

            if touched:  # else the book, hence its mid, is as it was
                p_t = mid_price(p0)
            price_hist.append(p_t)
            optimists_rate.append(rate)
            if on_step is not None:
                on_step(self, t)
                if self.n_opt != n_opt:  # the callback set the moods' count
                    n_opt = self.n_opt
                    rate = n_opt / n

        return SimulationOutput(
            ticks=ticks,
            trades=all_trades,
            mid_prices=price_hist[1:],
            optimists_rate=optimists_rate,
        )


@_gc_paused()
def run(config: SimulationConfig, on_step: Callable | None = None, *,
        record_ticks: bool = True) -> SimulationOutput:
    """Run one trial. Byte-identical outputs for identical (config, seed);
    with record_ticks off the tick log stays empty and nothing else changes.
    The collector resumes only after the engine, with its book's orders, is
    freed, so it has only the output left to scan."""
    return Engine(config).run(on_step=on_step, record_ticks=record_ticks)
