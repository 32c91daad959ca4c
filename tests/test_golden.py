"""Golden digests: sha256 of command outputs, pinned across versions.

The determinism tests compare two runs of the same build, so a change that
shifts every number would still pass them. These digests pin the bytes
themselves. A change that means to alter the random stream updates the
digests here and says why.
"""

import hashlib
import json

import pytest

from lobfactor.cli import EXIT_OK, SEED_ENV_VAR, config_digest, main, resolve_config

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
        "ticks.csv": "c5be2aff59674bd743509bd681da71db7ee861efd5852df65f79e103776fd918",
        "bars.csv": "bd80ae6d9970d038f035bc00220407bae79cd2f37b7d066d30bd2fc12bf3ef0c",
        "series.csv": "42cd8dd0aaf3a5e60013f49bb04e86843e560ae93d128b83b22d22e3cbee9826",
    },
    7: {
        "ticks.csv": "db2d7b6f9b801fd403edabb81954f29c14f8d71433f98936f65cd5774be10a4b",
        "bars.csv": "7e2c51bf0d60dd5cd85e33967802f30d99eabea6be8437e213c892c59750a1d1",
        "series.csv": "9b2f0698b1e9504f8482d2a3cba6bbd8ffc836d53a95ed962c731d59985e2ea8",
    },
}

EXPERIMENT_DIGESTS = {
    "table2.csv": "20e207a674b26299e95181fe943971e4fb4ddffc8e9e3ba1c0de0fabc1d14b03",
    "table4.csv": "1f41faefa7520eef4d50edc4fe5e04dca1fd02aeaf23cf03483967adbf1741cf",
    "fig5.csv": "ecfd5234a5ad749ab6ab07f460d2ddbe0d279dbaeb78d6a769036547c03cac23",
    "synergy.csv": "b6ceaee14c067773d4e555585fdff771f91ca8d7f7c8d58fe75fbb84a843bcdb",
    "ledger.jsonl": "ec2d28074b9b2a5a9cbcb91906ae2de1ceb7ec65d16accd5e70194ec0ffe72a6",
}


@pytest.fixture(autouse=True)
def no_ambient_seed(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


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


@pytest.mark.parametrize("scenario", sorted(SIMULATE_DIGESTS))
def test_simulate_outputs_match_golden_digests(scenario, tmp_path):
    simulation = dict(SMALL_SIMULATION)
    simulation["population"] = {**SMALL_SIMULATION["population"], **SCENARIO_POPULATION[scenario]}
    config = write_config(tmp_path / "cfg.json", {"simulation": simulation})
    out = tmp_path / "run"
    assert main(["simulate", "--config", config, "--seed", "11", "--out", str(out)]) == EXIT_OK
    assert digests(out, SIMULATE_DIGESTS[scenario]) == SIMULATE_DIGESTS[scenario]


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
