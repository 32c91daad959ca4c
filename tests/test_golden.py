"""Golden digests: sha256 of command outputs, pinned across versions.

The determinism tests compare two runs of the same build, so a change that
shifts every number would still pass them. These digests pin the bytes
themselves. A change that means to alter the random stream updates the
digests here and says why.
"""

import hashlib
import json
from dataclasses import astuple

import pytest

from lobfactor.agents import CashSpec, PopulationConfig
from lobfactor.cli import EXIT_OK, config_digest, main, resolve_config
from lobfactor.engine import SimulationConfig, run

# the resolved default config: manifests of default runs stay comparable
DEFAULT_CONFIG_DIGEST = "a610a9702f42686c4e1233ff040eabe866198d3c0588b7e5b27b8f940d3879af"
PRINT_CONFIG_DIGEST = "813573029782e6e5a7bef859625d8e85de9f807bcf7ac636d4905d6914c6f859"

SMALL_SIMULATION = {
    "t_sim": 300,
    "no_exec_windows": [[1, 20], [150, 155]],
    "population": {"n_agents": 40, "alpha": 0.2},
}

# population overrides of each simulated scenario: 0 none, 2 chartist,
# 3 mood, 7 Pareto cash + chartist + mood
SCENARIO_POPULATION = {
    0: {},
    2: {"lambda_c": 2.0},
    3: {"lambda_m": 3e-5, "nu": 0.5},
    7: {"cash": {"kind": "pareto"}, "lambda_c": 2.0, "lambda_m": 3e-5, "nu": 0.5},
}

# Every digest below moved in 0.3.0, when book quotes came to be
# price_of(level, tick) like trade prices: quotes, and so mids, bars, series
# and every score built from them, moved in their last bits, while trades
# kept their steps, volumes and prices.
SIMULATE_DIGESTS = {
    0: {
        "ticks.csv": "8c52ed620d5c0dcefac0cbe530bb5a17df342b6f712c01e5bd2f3632b6ee80f8",
        "bars.csv": "cef06b269e764a7938e26993aff7f41335c812fcd5a22f2f26f092a8a0b71c74",
        "series.csv": "b72060a2177a36ed4dcf0bbac66ee7398bb35f99d5038d0691e0a78e5f6279b9",
    },
    2: {
        "ticks.csv": "ae3c0d94ed00af08d0573e6b477e2451bbb83f3f4d1247a95b1bc7cbc0350323",
        "bars.csv": "81ce9bcbf8a6459af90ef14143378cb4a70d115bf3c6a5b44fda0e8dbec43460",
        "series.csv": "048b1460afbd22efc1f83da13dfc7651032f9aeabd7389ebd1a1b451365b5a03",
    },
    3: {
        "ticks.csv": "9ce6de768f8e108103e0af4ed30534400bdf8c944455f513572741e0c046dc2a",
        "bars.csv": "4c303c9c9a77ae732e0702f1d40c18291b0ac6533c71f50ca8c2d0831d2a6a02",
        "series.csv": "43e328dbc1028e677adff83cfa14d593127ce0f1e4b405bd58864ba005971381",
    },
    7: {
        "ticks.csv": "fce604b75a51dd1f8488233ff9b9c823ef55ad875e00536d101085d19422a42d",
        "bars.csv": "002b69026825ade3a3064c31873ace1fb69e23e2a984c8325323372a0cecff67",
        "series.csv": "0c0c9728e9911d169fd18280cc8d3dc4f94b3eaa6b9a81f69426ece2d555e5fb",
    },
}

# metrics over the pooled bars.csv of the four simulate runs above, scored
# against the bars of scenarios 0 and 7
METRICS_DIGESTS = {
    "report.json": "7144161ae6b1b5e3a71a6f7b3ccf38b66090530d0c29d9f73a89ae8e3936e206",
    "tail_cloud.csv": "99bd1ad6da713dbf1af3395a2f1f43e5cf9a596041d3bf2282324ad826cd0e04",
}

# ledger.jsonl moves with the tool version too, through its run_digest field
EXPERIMENT_DIGESTS = {
    "table2.csv": "e46de78644e1cdd2f89f1d783268acc3e7641c6aff33a33ce8839c40f9a5deb6",
    "table4.csv": "00ac8773a3751a75baf0dfe5ec45c9b2f8b54a7c10306f7389547052fd5761a0",
    "fig5.csv": "0da779e71d4d90ab083c51af315d89c22f31c1d3e9586445346e14a6466f4bc8",
    "synergy.csv": "181cbec5ba23cd5785050463e0c8c31ca2512c6bad7c41de1603b7455938de75",
    "ledger.jsonl": "2eac57faf5f61a7a52516ce17132b0e196baa777ee9f4ee8e59952dbe4f1611d",
}


# sha256 of the trades, mids and optimist shares of one default-shape trial
# (2110 steps, 200 agents, seed 1000) of each scenario: the small shapes
# above stay far from the day's full length and population. Scenario 3 at
# this seed is a frozen day (one trade), so its digest pins the mood pass.
FULL_SHAPE_TRIAL_DIGESTS = {
    0: "49240f5522fa7246070f9a91d0f2c8dc0dc9a299d17a7f8fa2c059a2c705219c",
    2: "370045bd789ba62bd18d11b6d1815af0814657a79d415aa52650df0bc0e959d7",
    3: "c90407a830f0b2e96764a5e5d8e676dee6ca3b9244574ba5125e2345d45acbbf",
    7: "2ea913e6e1aa2d60f41a0c5e3c9c34a4f2cc170e3355fad18b277980b367bb42",
}


# sha256 of the tick log (each TickRecord as a tuple) of one default-shape
# trial of scenario 7 at seed 1000: the small simulate shapes above pin the
# log only at 300 steps and 40 agents
FULL_SHAPE_TICK_LOG_DIGEST = "17f208b4365e0205467ed0686e1ae1ea2b89e3c521a25e5f46e0fc44d46b9a6c"


def digests(out_dir, names) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


def write_config(path, document) -> str:
    path.write_text(json.dumps(document))
    return str(path)


@pytest.mark.parametrize("command", ["simulate", "metrics", "experiment"])
def test_default_config_matches_golden_digests(command, capsys):
    assert config_digest(resolve_config(None, None, command)) == DEFAULT_CONFIG_DIGEST
    assert main([command, "--print-config"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PRINT_CONFIG_DIGEST


def test_an_int_for_a_float_field_resolves_to_the_default_digest(tmp_path):
    config = write_config(tmp_path / "cfg.json", {"simulation": {"p0": 300}})
    assert config_digest(resolve_config(config, None, "simulate")) == DEFAULT_CONFIG_DIGEST


def simulate_scenario(scenario, tmp_path, out):
    simulation = dict(SMALL_SIMULATION)
    simulation["population"] = {**SMALL_SIMULATION["population"], **SCENARIO_POPULATION[scenario]}
    config = write_config(tmp_path / f"cfg{scenario}.json", {"simulation": simulation})
    assert main(["simulate", "--config", config, "--seed", "11", "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("scenario", sorted(SIMULATE_DIGESTS))
def test_simulate_outputs_match_golden_digests(scenario, tmp_path):
    out = tmp_path / "run"
    simulate_scenario(scenario, tmp_path, out)
    assert digests(out, SIMULATE_DIGESTS[scenario]) == SIMULATE_DIGESTS[scenario]


def test_metrics_outputs_match_golden_digests(tmp_path, monkeypatch):
    # relative file names, so per_ref_ot names no absolute path
    monkeypatch.chdir(tmp_path)
    bars = []
    for scenario in sorted(SIMULATE_DIGESTS):
        simulate_scenario(scenario, tmp_path, tmp_path / f"run{scenario}")
        bars.append(f"run{scenario}/bars.csv")
    assert main(["metrics", *bars, "--refs", bars[0], bars[-1], "--out", "met"]) == EXIT_OK
    assert digests(tmp_path / "met", METRICS_DIGESTS) == METRICS_DIGESTS


def quartet_config(tmp_path) -> str:
    return write_config(tmp_path / "cfg.json", {
        "simulation": SMALL_SIMULATION,
        "experiment": {
            "refs": {"count": 3, "n_samples": 3000},
            "paths": {"count": 3},
            "grid": {"lambda_c": [0.0, 1.5, 2.5], "alpha": [0.1, 0.2, 0.3]},
        },
    })


def test_quartet_experiment_matches_golden_digests(tmp_path):
    out = tmp_path / "exp"
    assert main(["experiment", "--config", quartet_config(tmp_path), "--scenarios", "0,1,2,4",
                 "--trials", "2", "--out", str(out)]) == EXIT_OK
    assert digests(out, EXPERIMENT_DIGESTS) == EXPERIMENT_DIGESTS


@pytest.mark.parametrize("scenario", sorted(FULL_SHAPE_TRIAL_DIGESTS))
def test_full_shape_trial_matches_golden_digest(scenario):
    population = dict(SCENARIO_POPULATION[scenario])
    if "cash" in population:
        population["cash"] = CashSpec(**population["cash"])
    config = SimulationConfig(population=PopulationConfig(**population), seed=1000)
    out = run(config, record_ticks=False)
    trial = ([astuple(trade) for trade in out.trades], out.mid_prices, out.optimists_rate)
    digest = hashlib.sha256(repr(trial).encode()).hexdigest()
    assert digest == FULL_SHAPE_TRIAL_DIGESTS[scenario]


def test_full_shape_tick_log_matches_golden_digest():
    population = dict(SCENARIO_POPULATION[7], cash=CashSpec(kind="pareto"))
    config = SimulationConfig(population=PopulationConfig(**population), seed=1000)
    out = run(config, record_ticks=True)
    log = [astuple(record) for record in out.ticks]
    assert hashlib.sha256(repr(log).encode()).hexdigest() == FULL_SHAPE_TICK_LOG_DIGEST
