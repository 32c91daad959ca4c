"""Acceptance gate: one test per platform criterion, tolerances as stated.

Criterion 5 is a known red. Both wealth and chartist components steer the
same clamp-saturated forecast channel, so their joint effect on the tail
index is subadditive: the combined-scenario index lands above the additive
prediction instead of below it. The assertion states the intended property
and fails honestly; see README, known limitations.
"""

import csv
import json
import math
import time

import jsonschema
import numpy as np
import pytest

from oracles import vertex_ot
from schemas import MANIFEST_SCHEMA

from lobfactor.agents import sample_pareto
from lobfactor.calibration import Combo, evaluate_combo
from lobfactor.cli import TABLE2_COLUMNS, write_ticks_csv
from lobfactor.cli import main as cli_main
from lobfactor.config import CashSpec, ExperimentConfig, PathsSpec, SimulationConfig
from lobfactor.engine import run
from lobfactor.metrics import (
    PointCloud,
    build_tail_cloud,
    hill_index,
    ot_distance,
    stylized_facts,
    theoretical_hill,
)
from lobfactor.orderbook import Trade
from lobfactor.timegrid import (
    MINUTES_PER_DAY,
    TransactionPath,
    assign_calendar_time,
    bar_indices,
    synthetic_reference_path,
)
from lobfactor.config import PopulationConfig


@pytest.fixture(scope="module")
def reference_paths() -> list[TransactionPath]:
    """The default experiment path set: six synthetic days, alternating shapes."""
    spec = PathsSpec()
    rng = np.random.default_rng(spec.seed)
    shapes = ["uniform", "ushape"]
    return [synthetic_reference_path(rng, shapes[i % 2], spec.mean_total)
            for i in range(spec.count)]


def pooled_metrics(cash_kind: str, lambda_c: float, alpha: float, paths):
    cash = CashSpec()
    combo = Combo(cash_kind=cash_kind, c_max=cash.c_max, c_min=cash.c_min, beta=cash.beta,
                  lambda_c=lambda_c, lambda_m=0.0, nu=0.0, alpha=alpha)
    exp = ExperimentConfig(trials=20, base_seed=1000)
    return evaluate_combo(SimulationConfig(), combo, exp, refs=[], paths=paths)


def test_c1_hill_recovery_on_exact_pareto_tails():
    started = time.monotonic()
    n = 100_000
    u = (np.arange(n) + 0.5) / n  # inverse-CDF sampling on a midpoint grid
    for zeta in (2.0, 3.0, 4.0):
        draws = (1.0 - u) ** (-1.0 / zeta)
        cloud = build_tail_cloud(draws)
        hill = hill_index(cloud)
        assert cloud.size == 5000
        assert abs(hill - zeta) <= 0.15, f"zeta={zeta}: estimated {hill:.4f}"
    assert time.monotonic() - started < 5.0


def test_c2_ot_distance_is_exact():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        k, l = rng.integers(1, 7, size=2)
        a = PointCloud(rng.standard_normal(int(k)))
        b = PointCloud(rng.standard_normal(int(l)))
        oracle = vertex_ot(a.points, b.points)
        assert abs(ot_distance(a, b) - oracle) <= 1e-9
        assert ot_distance(a, a) <= 1e-12
        assert ot_distance(b, b) <= 1e-12
    # equal-size translation by a dyadic offset costs exactly c^2
    base = PointCloud(rng.integers(-50, 50, size=6).astype(float))
    shifted = PointCloud(base.points + 0.5)
    assert ot_distance(base, shifted) == 0.25
    assert time.monotonic() - started < 10.0


def test_c3_pareto_wealth_mean():
    started = time.monotonic()
    u = np.random.default_rng(31).random(1_000_000)
    draws = sample_pareto(5000.0, 1.5, u)
    assert abs(float(draws.mean()) - 15_000.0) <= 0.02 * 15_000.0
    assert time.monotonic() - started < 2.0


def test_c4_chartist_component_lowers_tail_index(reference_paths):
    started = time.monotonic()
    plain = pooled_metrics("uniform", 0.0, 0.30, reference_paths)
    chartist = pooled_metrics("uniform", 2.5, 0.25, reference_paths)
    elapsed = time.monotonic() - started
    assert plain.n_degenerate == 0 and chartist.n_degenerate == 0
    assert plain.hill - chartist.hill >= 0.3, (
        f"tail-index drop {plain.hill - chartist.hill:.4f} below 0.3 "
        f"({plain.hill:.4f} vs {chartist.hill:.4f})")
    assert elapsed < 60.0
    assert elapsed / 40.0 < 1.0  # per-trial budget


def test_c5_combined_components_beat_additive_prediction(reference_paths):
    zeta_0 = pooled_metrics("uniform", 0.0, 0.30, reference_paths).hill
    zeta_1 = pooled_metrics("pareto", 0.0, 0.30, reference_paths).hill
    zeta_2 = pooled_metrics("uniform", 2.0, 0.30, reference_paths).hill
    zeta_4 = pooled_metrics("pareto", 2.0, 0.30, reference_paths).hill
    predicted = theoretical_hill(zeta_0, zeta_1, zeta_2)
    assert zeta_4 < predicted, (
        f"combined tail index {zeta_4:.4f} is not below the additive "
        f"prediction {predicted:.4f} (components saturate instead of adding)")


def test_c6_stylized_facts_with_gaussian_control(reference_paths):
    facts = pooled_metrics("uniform", 2.5, 0.25, reference_paths).stylized
    assert facts.kurtosis > 0.0
    assert facts.abs_autocorr[1] > 0.0
    control = stylized_facts(np.random.default_rng(123).standard_normal(100_000))
    assert abs(control.kurtosis) < 0.1
    assert abs(control.abs_autocorr[1]) < 0.02


def test_c7_determinism_and_conservation(tmp_path):
    config = SimulationConfig(seed=5)
    for name in ("a.csv", "b.csv"):
        write_ticks_csv(run(config).ticks, tmp_path / name)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    for trial in range(10):
        rng = np.random.default_rng(7000 + trial)
        population = PopulationConfig(
            n_agents=30,
            lambda_c=float(rng.choice([0.0, 1.5, 2.5])),
            lambda_m=float(rng.choice([0.0, 5e-5])),
            nu=float(rng.choice([0.3, 0.7])),
            alpha=float(rng.choice([0.05, 0.1, 0.3])),
            cash=CashSpec(kind=str(rng.choice(["uniform", "pareto"]))),
        )
        trial_config = SimulationConfig(population=population, t_sim=250,
                                        no_exec_windows=((1, 20), (120, 130)),
                                        seed=int(rng.integers(0, 2**31)))
        totals = {}

        def check(engine, step):
            cash = sum(a.cash for a in engine.agents)
            shares = sum(a.shares for a in engine.agents)
            if not totals:
                totals["cash"], totals["shares"] = cash, shares
            assert abs(cash - totals["cash"]) < 1e-6
            assert shares == totals["shares"]
            for agent in engine.agents:
                assert agent.cash >= -1e-9
                escrow = agent.committed_ticks * engine.config.tick_size
                assert 0 <= escrow <= agent.cash + 1e-9
                assert 0 <= agent.committed_shares <= agent.shares

        run(trial_config, on_step=check)


def test_c8_calendar_time_resampling():
    # ten trades at steps 101..110; the mid after the k-th trade's step is 300+k
    trades = [Trade(buy_order_id=2 * k, sell_order_id=2 * k + 1, price=300.0 + k,
                    volume=k, step=100 + k) for k in range(1, 11)]
    mids = [300.0] * 110
    for k in range(1, 11):
        mids[100 + k - 1] = 300.0 + k

    class Toy:
        pass

    sim = Toy()
    sim.trades = trades
    sim.mid_prices = mids

    head = (0.0, 0.049, 0.05, 0.25, 0.55, 0.9)
    fractions = head + (1.0,) * (MINUTES_PER_DAY - len(head))
    path = TransactionPath(fractions)
    # floor(f * 10 + 0.5): 0, 0, 1, 3, 6, 9, then 10 for every padded minute
    assert bar_indices(path, 10)[:7].tolist() == [0, 0, 1, 3, 6, 9, 10]
    bars = assign_calendar_time(sim, path, p0=300.0)
    expected_head = (300.0, 300.0, 301.0, 303.0, 306.0, 309.0)
    assert tuple(bars.mid_prices[:6].tolist()) == expected_head
    assert set(bars.mid_prices[6:]) == {310.0}

    rng = np.random.default_rng(88)
    for shape in ("uniform", "ushape"):
        for t_total in (7, 100, 1234):
            sampled = synthetic_reference_path(rng, shape, PathsSpec().mean_total)
            indices = bar_indices(sampled, t_total)
            for i, f in zip(indices, sampled.fractions):
                assert abs(i / t_total - f) <= 1.0 / t_total


def test_c9_end_to_end_experiment_pipeline(tmp_path):
    started = time.monotonic()
    out = tmp_path / "exp"
    rc = cli_main(["experiment", "--scenarios", "0,2", "--trials", "20",
                   "--out", str(out)])
    elapsed = time.monotonic() - started
    assert rc == 0
    with open(out / "table2.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert tuple(rows[0]) == TABLE2_COLUMNS
    by_scenario = {row["scenario"]: row for row in rows}
    assert set(by_scenario) == {"0", "2"}
    for row in rows:
        assert float(row["hill"]) > 0
        assert int(row["n_trials"]) == 20
    manifest = json.loads((out / "manifest.json").read_text())
    jsonschema.validate(manifest, MANIFEST_SCHEMA)
    assert manifest["seed_range"] == [1000, 1019]
    assert float(by_scenario["2"]["mean_ot"]) < float(by_scenario["0"]["mean_ot"]), (
        "chartist scenario should sit closer to the reference tails")
    assert elapsed < 300.0
