"""The benchmark calls lobfactor functions by name.

perfbench/tracing.py patches module attributes such as
``lobfactor.calibration.evaluate_combo`` and ``lobfactor.cli.run``, and
perfbench/inputs.py checks the inputs it writes with the CLI's config
loaders. Renaming or deleting one of them, or a loader that rejects what the
benchmark writes, breaks benchmark runs; these tests make it break the test
suite too.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from lobfactor import calibration, cli, engine
from lobfactor.config import (ExperimentConfig, ParameterGrid, PathsSpec, PopulationConfig,
                              SimulationConfig)
from lobfactor.timegrid import synthetic_reference_path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INPUTS = load_perfbench("inputs")


def test_tracer_finds_every_name_it_wraps_and_restores_them():
    originals = (calibration.evaluate_combo, cli.run, engine.decide_order)
    tracer = load_perfbench("tracing").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert (calibration.evaluate_combo, cli.run, engine.decide_order) == originals


def test_tracer_sees_each_trial_and_conserved_volume_without_a_tick_log():
    base = SimulationConfig(population=PopulationConfig(n_agents=30), t_sim=250,
                            no_exec_windows=((1, 20), (120, 130)))
    (combo,) = calibration.enumerate_combos(0, ParameterGrid(alpha=(0.1,)), base.population.cash)
    paths = [synthetic_reference_path(np.random.default_rng(5), "uniform",
                                      PathsSpec().mean_total)]
    tracer = load_perfbench("tracing").Tracer()
    tracer.install()
    try:
        calibration.evaluate_combo(base, combo, ExperimentConfig(trials=2),
                                   refs=[], paths=paths)
    finally:
        tracer.uninstall()
    assert tracer.stats["engine.run"][0] == 2
    assert tracer.counts["ticks"] == 0
    assert tracer.counts["submitted_volume"] > 0
    assert tracer.problems == []


BOOK_AND_AGENTS = {
    "orderbook.submit", "orderbook.expire", "orderbook.mid_price", "orderbook.best_bid",
    "orderbook.best_ask", "agents.init_population", "agents.predict_return",
    "agents.decide_order", "agents.align_to_tick", "engine.run",
}
TAIL = {"metrics.standardize", "metrics.build_tail_cloud", "metrics.hill_index",
        "metrics.stylized_facts", "metrics.ot_distance"}

# the wrapped names each command calls; one that a module still imports
# but no longer calls goes missing from what the tracer sees
REACHED = {
    "experiment": BOOK_AND_AGENTS | TAIL | {
        "timegrid.assign_calendar_time", "timegrid.bar_volumes", "calibration.evaluate_combo",
        "calibration.ledger_load", "calibration.ledger_record", "calibration.sweep",
        "calibration.refs", "cli.main"},
    "simulate": BOOK_AND_AGENTS | {"timegrid.assign_calendar_time", "cli.write_ticks_csv",
                                   "cli.main"},
    "metrics": TAIL | {"cli.read_bars", "cli.main"},
}
UNCALLED = {"calibration.stylized_rerun"}  # wrapped, but nothing calls it


def test_each_command_reaches_the_wrapped_names_it_calls(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "simulation": {"t_sim": 250, "no_exec_windows": [[1, 20], [120, 130]],
                       "population": {"n_agents": 30, "alpha": 0.2}},
        "experiment": {"trials": 1, "refs": {"count": 2, "n_samples": 2000},
                       "paths": {"count": 2}, "grid": {"lambda_c": [0.0, 1.5], "alpha": [0.2]}},
    }))
    bars = str(tmp_path / "sim" / "bars.csv")
    commands = {
        "experiment": ["--config", str(config), "--scenarios", "0,1,2,4",
                       "--out", str(tmp_path / "exp")],
        "simulate": ["--config", str(config), "--out", str(tmp_path / "sim")],
        "metrics": [bars, "--refs", bars, "--out", str(tmp_path / "met")],
    }
    for command, args in commands.items():
        tracer = load_perfbench("tracing").Tracer()
        tracer.install()
        try:
            assert cli.main([command, *args]) == cli.EXIT_OK
        finally:
            tracer.uninstall()
        reached = {name for name, (calls, _, _) in tracer.stats.items() if calls}
        assert reached == REACHED[command], command
        assert tracer.problems == []
    assert set().union(*REACHED.values()) == set(tracer.stats) - UNCALLED


@pytest.mark.parametrize("workload", sorted(INPUTS.WORKLOADS))
def test_benchmark_inputs_pass_the_config_loaders(workload, tmp_path):
    shape = INPUTS.WORKLOADS[workload]
    INPUTS.validate_inputs(shape, INPUTS.write_inputs(shape, 1, tmp_path))
