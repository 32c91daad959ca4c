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

# scenarios 3 and 7 (and METRICS_DIGESTS, which pools their bars) moved
# when mood rows came to be drawn step by step on their own child stream
SIMULATE_DIGESTS = {
    0: {
        "ticks.csv": "22946a116b6dfce38f4910c17bc5929665a2c5461ef0afbfc9c05287fc346ceb",
        "bars.csv": "420699231353dc5afb89dce2f7850557ac7e31d561faafcd2c092f5cc0ea2091",
        "series.csv": "37ad8bf58a2b02c6624b74ee3ab05eb5614b4073f600ffdb935c5c03554eaaff",
    },
    2: {
        "ticks.csv": "2ac7989b09d0b2f46d4698b3fdad7403ba6bf0bcf8f131d21aa5e18ea4d036a6",
        "bars.csv": "2cd829942a6309596a4fde03101745e61f881a8155a7da203c5f98046acbc3ba",
        "series.csv": "b8989d9051afce79fd3f9ee950b00e40178489a124f31f4dc044fc12f1718b3f",
    },
    3: {
        "ticks.csv": "724119fb0ab40bce54365032459bec255c9ca2384b99b33a4ef15e69f20b6855",
        "bars.csv": "169ce287850cb3a532561130fb305ba12927ffd1c704070bf668c90c7fcbc02a",
        "series.csv": "acd508fc8cd265a0045ef56ff930c01f4c416ee9af0edadbc02c87c341078838",
    },
    7: {
        "ticks.csv": "8684e2ae326b5e3b57044841de7114823cd080d9911870223207b9856a749d93",
        "bars.csv": "12e5b9fae2203498a4f8131745a71543a7d877af2f8d2292ec6503d26df5caf3",
        "series.csv": "493a5858c673de8267e5c9ef0aee240a2978b6ae64852dfa71075574d8881411",
    },
}

# metrics over the pooled bars.csv of the four simulate runs above, scored
# against the bars of scenarios 0 and 7
METRICS_DIGESTS = {
    "report.json": "6d22a0b033a725e05dc8e7c5c3cbd19c5a635c835a3162a1ba4230d7686ee377",
    "tail_cloud.csv": "af3469d9e5fc8f7888b63033e7fd19fa2c9e36a8dad8533972253f3631c92be7",
}

# ledger.jsonl moved with the tool version (0.2.0), through its run_digest
# field alone; every other ledger field is unchanged
EXPERIMENT_DIGESTS = {
    "table2.csv": "20e207a674b26299e95181fe943971e4fb4ddffc8e9e3ba1c0de0fabc1d14b03",
    "table4.csv": "1f41faefa7520eef4d50edc4fe5e04dca1fd02aeaf23cf03483967adbf1741cf",
    "fig5.csv": "ecfd5234a5ad749ab6ab07f460d2ddbe0d279dbaeb78d6a769036547c03cac23",
    "synergy.csv": "b6ceaee14c067773d4e555585fdff771f91ca8d7f7c8d58fe75fbb84a843bcdb",
    "ledger.jsonl": "bfccfcd5bd889353c38982bc5339e14776208e7fa5ecf0a1619d2d9d0159344f",
}


# sha256 of the trades, mids and optimist shares of one default-shape trial
# (2110 steps, 200 agents, seed 1000) of each scenario: the small shapes
# above stay far from the day's full length and population. Scenario 3 at
# this seed is a frozen day (one trade), so its digest pins the mood pass.
FULL_SHAPE_TRIAL_DIGESTS = {
    0: "2979b8848e36460374c92ae7207eb51b83e1fb7dcefd9ea6cc9c1dc1d89d49b2",
    2: "83d049a9c193ac5e9a58cad7e9840232ee70c8a6949cd44cdec5e32c1bca0d46",
    3: "c8ec25a633365620d1a1318ff004254975a59f3c153c9c17ca4ddaa7c9393e87",
    7: "76e3e7efcbf599f7a04360d7a663d66c8a15d9b1c53a657d21e23faec071b29b",
}


# sha256 of the tick log (each TickRecord as a tuple) of one default-shape
# trial of scenario 7 at seed 1000: the small simulate shapes above pin the
# log only at 300 steps and 40 agents
FULL_SHAPE_TICK_LOG_DIGEST = "cef6000ec6b3bf12703356f97d5b495a9974ab49a365c07b90c6e604267ef80e"


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
