"""Simulation loop: determinism, window gating, conservation, mood dynamics."""

import gc
import math
from dataclasses import replace

import numpy as np
import pytest

from lobfactor import engine as engine_mod
from lobfactor.agents import init_population, sample_pareto
from lobfactor.calibration import build_config, enumerate_combos
from lobfactor.cli import write_ticks_csv
from lobfactor.config import (
    MAX_AGENTS,
    MAX_T_SIM,
    MAX_W_MAX,
    CashSpec,
    ConfigError,
    ParameterGrid,
    PopulationConfig,
    SimulationConfig,
    validate_config,
)
from lobfactor.engine import Engine, run
from lobfactor.orderbook import Order, Side, align_to_tick, price_of
from oracles import daily_mood_change_rate, in_no_exec_window, update_mood


def small_config(seed: int = 0, **pop_kwargs) -> SimulationConfig:
    defaults = dict(n_agents=30)
    defaults.update(pop_kwargs)
    return SimulationConfig(
        population=PopulationConfig(**defaults),
        t_sim=250,
        no_exec_windows=((1, 20), (120, 130)),
        seed=seed,
    )


class TestValidation:
    def test_valid_default_passes(self):
        validate_config(SimulationConfig())

    def test_tiny_normal_tick_admitted(self):
        validate_config(SimulationConfig(tick_size=1e-300))

    # single-field bounds are tested row by row from the tables in test_bounds.py;
    # these rules span fields
    @pytest.mark.parametrize("patch", [
        dict(no_exec_windows=((0, 10),)),
        dict(no_exec_windows=((50, 40),)),
        dict(no_exec_windows=((1,),)),
        dict(tick_size=5e-324),  # positive, but 300 / tick_size is inf
        dict(p0=1e305),  # a limit e**10 above p0 is no finite float
    ])
    def test_bad_engine_fields_rejected(self, patch):
        with pytest.raises(ConfigError):
            validate_config(SimulationConfig(**patch))

    @pytest.mark.parametrize("patch", [
        dict(cash=CashSpec(kind="normal")),
        dict(cash=CashSpec(kind="pareto", beta=1e-5)),
        dict(cash=CashSpec(kind="uniform", beta=1e-5)),  # Pareto scenarios take it
        dict(cash=CashSpec(kind="pareto", c_min=1e300, beta=0.5)),
    ])
    def test_bad_population_fields_rejected(self, patch):
        with pytest.raises(ConfigError):
            validate_config(SimulationConfig(population=PopulationConfig(**patch)))

    def test_engine_checks_its_config_before_drawing(self):
        with pytest.raises(ConfigError, match="t_sim must lie in"):
            Engine(SimulationConfig(t_sim=0))

    def test_largest_share_and_pareto_cash_draws_admitted(self):
        # at the edge beta, c_min * 2**(53 / beta) lies just below the largest float
        edge = 53 * math.log(2) / (math.log(np.finfo(float).max) - math.log(5000.0))
        cash = CashSpec(kind="pareto", c_min=5000.0, beta=edge * (1 + 1e-12))
        population = PopulationConfig(n_agents=5, w_max=MAX_W_MAX, cash=cash)
        validate_config(SimulationConfig(population=population))
        least = np.array([2.0**-53])
        assert np.isfinite(sample_pareto(5000.0, cash.beta, least)).all()
        with np.errstate(over="ignore"):
            assert np.isinf(sample_pareto(5000.0, edge * (1 - 1e-12), least)).all()
        assert len(init_population(population, np.random.default_rng(0))) == 5

    def test_mood_config_admitted_at_max_t_sim_and_max_agents(self):
        # mood rows are drawn step by step, so moods add no size bound
        mood = PopulationConfig(n_agents=MAX_AGENTS, nu=0.5)
        validate_config(SimulationConfig(population=mood, t_sim=MAX_T_SIM))

    def test_window_containment(self):
        assert in_no_exec_window(1, ((1, 100),))
        assert in_no_exec_window(100, ((1, 100),))
        assert not in_no_exec_window(101, ((1, 100),))


class TestDeterminism:
    def test_identical_seed_identical_output(self, tmp_path):
        cfg = small_config(seed=11, lambda_c=2.0, lambda_m=1e-5, nu=0.5)
        engine1, engine2 = Engine(cfg), Engine(cfg)
        out1, out2 = engine1.run(), engine2.run()
        assert out1.trades == out2.trades
        assert out1.optimists_rate == out2.optimists_rate
        assert engine1.agents == engine2.agents
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_ticks_csv(out1.ticks, f1)
        write_ticks_csv(out2.ticks, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_different_seeds_differ(self):
        out1 = run(small_config(seed=1))
        out2 = run(small_config(seed=2))
        assert out1.ticks != out2.ticks


class TestWindowsAndTicks:
    def test_no_trades_inside_windows(self):
        cfg = small_config(seed=3)
        out = run(cfg)
        assert out.trades, "expected at least one trade in this configuration"
        for trade in out.trades:
            assert not in_no_exec_window(trade.step, cfg.no_exec_windows)
        for tick in out.ticks:
            if tick.event == "TradeExecuted":
                assert not in_no_exec_window(tick.step, cfg.no_exec_windows)

    def test_orders_still_placed_inside_windows(self):
        out = run(small_config(seed=3))
        assert any(t.event == "OrderPlaced" and t.step <= 20 for t in out.ticks)

    def test_trades_only_on_submission_steps(self):
        out = run(small_config(seed=4))
        order_steps = {t.step for t in out.ticks if t.event == "OrderPlaced"}
        for trade in out.trades:
            assert trade.step in order_steps

    def test_tick_record_counts_match_events(self):
        out = run(small_config(seed=5))
        n_trades = len([t for t in out.ticks if t.event == "TradeExecuted"])
        assert n_trades == len(out.trades)

    def test_trade_rows_carry_trade_price(self):
        out = run(small_config(seed=6))
        trade_rows = [t for t in out.ticks if t.event == "TradeExecuted"]
        assert trade_rows
        prices = [t.price for t in out.trades]
        assert [t.market_price for t in trade_rows] == prices

    def test_mid_falls_back_to_p0_before_quotes(self):
        out = run(small_config(seed=7))
        first = out.ticks[0]
        assert first.event == "OrderPlaced"
        assert first.mid_price == 300.0
        assert first.market_price is None

    @pytest.mark.parametrize("mood", [{}, {"lambda_m": 0.05, "nu": 0.3}])
    def test_mids_are_the_book_mid_after_each_step(self, mood):
        """Steps that submit and expire nothing keep the mid they had, and an
        order row carries the mid after the step before (p0 before step 1)."""
        # short horizons, so that orders expire inside the run
        cfg = small_config(seed=3, lambda_f=1.0, **mood)
        seen = []
        trial = Engine(cfg)
        out = trial.run(on_step=lambda eng, t: seen.append(eng.book.mid_price(cfg.p0)))
        assert sum(trial.book.expired_volume.values()) > 0
        assert out.mid_prices == seen
        if mood:
            assert any(0.0 < r < 1.0 for r in out.optimists_rate)
        before = [cfg.p0, *seen]
        placed = [r for r in out.ticks if r.event == "OrderPlaced"]
        assert placed and len({r.mid_price for r in placed}) > 1
        assert all(r.mid_price == before[r.step - 1] for r in placed)


class TestTickLogOff:
    """Calibration runs without the tick log; nothing else may change."""

    @pytest.mark.parametrize("seed", [1000, 1001])
    @pytest.mark.parametrize("scenario", [0, 2, 3, 7])
    def test_matches_the_logged_run(self, scenario, seed):
        combos = enumerate_combos(scenario, ParameterGrid(), CashSpec())
        combo = combos[len(combos) // 2]
        cfg = build_config(SimulationConfig(seed=seed), combo)
        logged, bare = run(cfg), run(cfg, record_ticks=False)
        assert logged.ticks and bare.ticks == []
        assert bare.trades == logged.trades
        assert bare.mid_prices == logged.mid_prices
        assert bare.optimists_rate == logged.optimists_rate


class TestCollectorPause:
    """The loop runs with the cyclic collector paused; the caller's setting
    comes back on every exit, and nothing a trial leaves needs the collector."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    ENTRIES = {"run": run, "Engine.run": lambda cfg, **kw: Engine(cfg).run(**kw)}

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_restores_the_callers_setting(self, enabled, entry):
        (gc.enable if enabled else gc.disable)()
        during = set()
        self.ENTRIES[entry](small_config(), on_step=lambda engine, t: during.add(gc.isenabled()))
        assert during == {False}
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_restores_the_callers_setting_when_a_callback_raises(self, enabled, entry):
        (gc.enable if enabled else gc.disable)()

        def fail(engine, t):
            if t == 40:
                raise RuntimeError("callback failed")

        with pytest.raises(RuntimeError, match="callback failed"):
            self.ENTRIES[entry](small_config(), on_step=fail)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("record_ticks", [True, False])
    @pytest.mark.parametrize("scenario", range(8))
    def test_trial_makes_no_reference_cycles(self, scenario, record_ticks):
        # the pause is safe because reference counting alone frees a trial:
        # with the collector off throughout, a collection after the trial
        # finds nothing unreachable
        combos = enumerate_combos(scenario, ParameterGrid(), CashSpec())
        cfg = build_config(SimulationConfig(seed=1000), combos[-1])
        gc.collect()
        gc.disable()
        out = run(cfg, record_ticks=record_ticks)
        assert out.trades
        del out
        assert gc.collect() == 0


class TestConservation:
    @pytest.mark.parametrize("trial", range(10))
    def test_invariants_hold_every_step(self, trial):
        rng = np.random.default_rng(900 + trial)
        cfg = small_config(
            seed=int(rng.integers(0, 2**31)),
            lambda_c=float(rng.choice([0.0, 2.0, 2.5])),
            lambda_m=float(rng.choice([0.0, 3e-5])),
            nu=float(rng.choice([0.0, 0.3, 0.7])),
            alpha=float(rng.choice([0.05, 0.1, 0.3])),
            cash=CashSpec(kind=str(rng.choice(["uniform", "pareto"]))),
        )
        engine = Engine(cfg)
        total_cash0 = sum(a.cash for a in engine.agents)
        total_shares0 = sum(a.shares for a in engine.agents)

        def check(eng, step):
            agents = eng.agents
            assert sum(a.cash for a in agents) == pytest.approx(total_cash0, abs=1e-6)
            assert sum(a.shares for a in agents) == total_shares0
            for a in agents:
                assert a.cash >= -1e-9
                assert a.shares >= 0
                assert 0 <= price_of(a.committed_ticks, eng.config.tick_size) <= a.cash + 1e-9
                assert 0 <= a.committed_shares <= a.shares
            # escrow mirrors the book exactly
            orders = eng.book.orders.values()
            bid_ticks = sum(o.volume * o.ticks
                            for o in orders if o.side is Side.BUY and o.volume > 0)
            ask_volume = sum(o.volume for o in orders if o.side is Side.SELL and o.volume > 0)
            assert bid_ticks == sum(a.committed_ticks for a in agents)
            assert ask_volume == sum(a.committed_shares for a in agents)

        engine.run(on_step=check)


class TestOrderPastTwoPow26Ticks:
    """1106164.5835 at tick 1e-4 is 11061645835 ticks in decimal, but its
    float ratio is 11061645834.999998: alignment must give the rounded count,
    price_of must map it back to the price, and the book keys, escrows and
    prices the order by that one count."""

    PRICE = 1106164.5835
    TICKS = 11061645835

    def test_rest_fill_in_part_then_expire(self, monkeypatch):
        cfg = SimulationConfig(population=PopulationConfig(n_agents=2), t_sim=4,
                               no_exec_windows=(), seed=0)
        assert align_to_tick(self.PRICE, cfg.tick_size) == self.TICKS
        assert price_of(self.TICKS, cfg.tick_size) == self.PRICE
        # step 1: a sell of 5 rests until step 3; step 2: a buy of 2 fills part of it
        script = {1: (Side.SELL, 5, 3), 2: (Side.BUY, 2, 10)}

        def scripted(agent, p_t, r_hat, step, sigma_sq, v_max, tick, order_id):
            if step not in script:
                return None
            side, volume, expiry = script[step]
            return Order(order_id, agent.agent_id, side, self.TICKS, volume, step, expiry)

        monkeypatch.setattr(engine_mod, "decide_order", scripted)
        engine = Engine(cfg)
        for agent in engine.agents:
            agent.cash, agent.shares = 1e8, 10
        book = engine.book
        seen = {}

        def snapshot(eng, step):
            seen[step] = (
                [(o.volume, o.ticks) for o in book.orders.values()],
                sorted(book.asks), sorted(book.bids),
                sum(a.committed_ticks for a in eng.agents),
                sum(a.committed_shares for a in eng.agents),
            )

        out = engine.run(on_step=snapshot)
        assert seen[1] == ([(5, self.TICKS)], [self.TICKS], [], 0, 5)
        assert [(t.price, t.volume) for t in out.trades] == [(self.PRICE, 2)]
        assert seen[2] == ([(3, self.TICKS), (0, self.TICKS)], [self.TICKS], [], 0, 3)
        assert seen[3] == ([(0, self.TICKS), (0, self.TICKS)], [], [], 0, 0)
        assert book.expired_volume[Side.SELL] == 3
        for side in (Side.BUY, Side.SELL):
            assert book.resting_volume(side) == 0
            assert book.submitted_volume[side] == (
                book.executed_volume[side] + book.expired_volume[side])
        assert sum(a.shares for a in engine.agents) == 20
        assert sum(a.cash for a in engine.agents) == pytest.approx(2e8)


class TestMoodDynamics:
    def test_nu_zero_rate_constant(self):
        cfg = small_config(seed=8, nu=0.0, lambda_c=0.0, lambda_m=0.0)
        out = run(cfg)
        assert len(set(out.optimists_rate)) == 1
        counts = sum(1 for a in init_population(cfg.population, np.random.default_rng(cfg.seed))
                     if a.optimistic)
        assert out.optimists_rate[0] == counts / cfg.population.n_agents

    def test_consensus_absorbs(self):
        cfg = SimulationConfig(
            population=PopulationConfig(n_agents=20, nu=0.9, lambda_m=1e-5),
            t_sim=600,
            seed=21,
        )
        out = run(cfg)
        absorbed_at = next(i for i, r in enumerate(out.optimists_rate) if r in (0.0, 1.0))
        tail = out.optimists_rate[absorbed_at:]
        assert set(tail) == {tail[0]}

    def test_inline_pass_matches_unit_rule_replay(self):
        cfg = small_config(seed=9, nu=0.5, lambda_m=2e-5, n_agents=40)
        out = run(cfg)

        # replay the documented draw order with the unit-level rule: the
        # master stream draws population, choices and noise; the spawned
        # child draws one permutation, then one uniform row, per mixed step
        pop = cfg.population
        n = pop.n_agents
        rng = np.random.default_rng(cfg.seed)
        agents = init_population(pop, rng)
        rng.integers(0, n, cfg.t_sim)  # agent choices
        rng.standard_normal(cfg.t_sim)  # noise draws
        mood_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])

        expected = []
        mixed_steps = 0
        for _ in range(cfg.t_sim):
            n_opt = sum(a.optimistic for a in agents)
            if 0 < n_opt < n:
                mixed_steps += 1
                perm = mood_rng.permutation(n)
                unifs = mood_rng.random(n)
                for k in perm:
                    update_mood(agents[k], n_opt, n - n_opt, n, pop.nu, unifs[k])
                    n_opt = sum(a.optimistic for a in agents)
            expected.append(n_opt / n)
        assert 0 < mixed_steps < cfg.t_sim  # the replay covers both branches
        assert out.optimists_rate == expected

    @pytest.mark.parametrize("n_agents", [1, 2, 30])
    @pytest.mark.parametrize("nu", [0.3, 1.0])
    def test_pass_matches_every_agent_oracle(self, nu, n_agents):
        # the reference runs the same trial with the engine's moods off and,
        # after each step, applies the unit rule to every agent of the
        # permutation, so shares, trades and ticks must all agree
        cfg = small_config(seed=11, nu=nu, lambda_m=2e-5, n_agents=n_agents)
        out = run(cfg)

        n = n_agents
        mood_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        rates = []

        def mood_pass(engine, t):
            agents = engine.agents
            n_opt = engine.n_opt
            if 0 < n_opt < n:
                perm = mood_rng.permutation(n)
                unifs = mood_rng.random(n)
                for k in perm:
                    update_mood(agents[k], n_opt, n - n_opt, n, nu, unifs[k])
                    n_opt = sum(a.optimistic for a in agents)
            engine.n_opt = n_opt
            rates.append(n_opt / n)

        moods_off = replace(cfg, population=replace(cfg.population, nu=0.0))
        expected = Engine(moods_off).run(on_step=mood_pass)
        assert out.optimists_rate == rates
        assert out.trades == expected.trades
        assert out.ticks == expected.ticks
        if n > 1:  # moods were mixed, so the pass ran
            assert any(0.0 < r < 1.0 for r in rates)
        if n == 30:  # and the moods shaped trades
            assert out.trades

    def test_rate_bounds_and_length(self):
        cfg = small_config(seed=10, nu=0.3, lambda_m=1e-5)
        out = run(cfg)
        assert len(out.optimists_rate) == cfg.t_sim
        assert all(0.0 <= r <= 1.0 for r in out.optimists_rate)


class TestDailyMoodChangeRate:
    def test_constant_series(self):
        assert daily_mood_change_rate([0.5, 0.5, 0.5]) == 0.0

    def test_max_minus_min(self):
        assert daily_mood_change_rate([0.4, 0.7, 0.5]) == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            daily_mood_change_rate([])

    @pytest.mark.xfail(
        strict=True,
        reason="all-agents-per-step conformity updates absorb to consensus well "
               "inside one 2110-step day, so the daily spread reaches ~0.6-0.7; "
               "a band near 0.24 +/- 0.07 would need far rarer mood updates than "
               "this rule produces (see README, known limitations)",
    )
    def test_reference_herd_settings_daily_band(self):
        rates = []
        for seed in range(25):
            cfg = SimulationConfig(
                population=PopulationConfig(lambda_m=5e-5, nu=0.3, alpha=0.3),
                seed=seed,
            )
            rates.append(daily_mood_change_rate(run(cfg).optimists_rate))
        assert np.mean(rates) == pytest.approx(0.24, abs=0.1)
