"""Workload shapes and the inputs the benchmark generates for them.

Every input is a function of the workload shape and the benchmark seed, so
the same seed always gives the same files. The program only ever sees these
files and the per-round seeds passed with ``--seed``.

Regenerate the inputs of one workload (this is also the set-up step that
``run.py`` times in a fresh interpreter):

    python3 perfbench/inputs.py --workload quartet --seed 1 --out perfbench/out/inputs
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MINUTES = 300
N_PATH_DAYS = 6
PATH_MEAN_TOTAL = 30_000

# The grid of the paper's protocol, written out so that the workloads stay
# the same if the program's built-in defaults move.
FULL_GRID = {
    "lambda_c": [0.0, 1.5, 1.75, 2.0, 2.25, 2.5],
    "lambda_m": [0.0, 1e-5, 2e-5, 3e-5, 4e-5, 5e-5],
    "nu": [0.3, 0.5, 0.7],
    "alpha": [0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
}
REFS = {"count": 18, "n_samples": 30_000, "df": 3.0}

# Component settings of the scenario configs that simulate_score runs.
SCENARIO_POPULATIONS = {
    0: {},
    2: {"lambda_c": 2.0},
    3: {"lambda_m": 3e-5, "nu": 0.5},
    7: {"lambda_c": 2.0, "lambda_m": 3e-5, "nu": 0.5, "cash": {"kind": "pareto"}},
}

WORKLOADS = {
    # the mood-off scenarios behind the synergy check and fig5, full grid
    "quartet": {
        "kind": "experiment", "scenarios": [0, 1, 2, 4], "trials": 1,
        "grid": FULL_GRID, "refs": REFS, "simulation": {},
    },
    # mood scenarios on a narrowed grid that keeps every nu value; one alpha
    # keeps it at 6 combos, so a run sees about 30 trial seeds, since the
    # mood pass cost varies several-fold from seed to seed
    "mood": {
        "kind": "experiment", "scenarios": [3, 7], "trials": 4,
        "grid": {"lambda_c": [0.0, 2.0], "lambda_m": [0.0, 3e-5],
                 "nu": [0.3, 0.5, 0.7], "alpha": [0.25]},
        "refs": REFS, "simulation": {},
    },
    # simulate commands writing every per-trial file, then one metrics command
    "simulate_score": {
        "kind": "simulate", "scenarios": [0, 2, 3, 7], "seeds_per_scenario": 3,
        "ref_files": 3, "ref_days": 4, "simulation": {},
    },
}


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def round_seed(seed: int, round_no: int, slot: int = 0) -> int:
    """Seed handed to the program for one command of one round."""
    return int(_rng(seed, 1, round_no, slot).integers(1, 2**31 - 1))


def simulate_seeds(shape: dict, seed: int, round_no: int) -> list[tuple[int, int]]:
    """(scenario, seed) of each simulate command of a round, in run order."""
    return [
        (scenario, round_seed(seed, round_no, 100 * scenario + j))
        for j in range(shape["seeds_per_scenario"])
        for scenario in shape["scenarios"]
    ]


def _path_counts(seed: int) -> np.ndarray:
    """Per-minute transaction counts of the reference days: Poisson counts
    under alternating flat and U-shaped intraday profiles."""
    rng = _rng(seed, 2)
    x = (np.arange(MINUTES) + 0.5) / MINUTES
    rows = []
    for day in range(N_PATH_DAYS):
        intensity = np.ones(MINUTES) if day % 2 == 0 else 1.0 + 8.0 * (x - 0.5) ** 2
        rows.append(rng.poisson(PATH_MEAN_TOTAL * intensity / intensity.sum()))
    return np.array(rows)


def _reference_prices(seed: int, file_no: int, days: int) -> np.ndarray:
    """Reference bar days: 300-minute walks with Student-t (df 3) log steps."""
    steps = 1e-3 * _rng(seed, 3, file_no).standard_t(3.0, size=(days, MINUTES - 1))
    start = np.full((days, 1), 0.0)
    return 300.0 * np.exp(np.cumsum(np.hstack([start, steps]), axis=1))


def _dump(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _simulation_section(shape: dict, population: dict | None = None) -> dict:
    section = dict(shape["simulation"])
    if population:
        section["population"] = population
    return section


def input_files(shape: dict, out: Path) -> dict:
    """Name of each generated input of a workload, by role."""
    files = {"paths": out / "paths.csv"}
    if shape["kind"] == "experiment":
        files["config"] = out / "config.json"
        return files
    for scenario in shape["scenarios"]:
        files[f"config_s{scenario}"] = out / f"config_s{scenario}.json"
    for i in range(shape["ref_files"]):
        files[f"ref{i}"] = out / f"ref{i}.csv"
    return files


def write_inputs(shape: dict, seed: int, out: Path) -> dict:
    """Write a workload's generated inputs into ``out``; return their paths."""
    out.mkdir(parents=True, exist_ok=True)
    files = input_files(shape, out)
    np.savetxt(files["paths"], _path_counts(seed), fmt="%d", delimiter=",")
    path_seed = int(_rng(seed, 4).integers(1, 2**31 - 1))
    if shape["kind"] == "experiment":
        refs = dict(shape["refs"], seed=int(_rng(seed, 5).integers(1, 2**31 - 1)))
        _dump(files["config"], {
            "simulation": _simulation_section(shape),
            "experiment": {"grid": shape["grid"], "refs": refs, "path_seed": path_seed},
        })
        return files
    for scenario in shape["scenarios"]:
        _dump(files[f"config_s{scenario}"], {
            "simulation": _simulation_section(shape, SCENARIO_POPULATIONS[scenario]),
            "experiment": {"path_seed": path_seed},
        })
    header = ",".join(["day_id"] + [f"m{m:03d}" for m in range(1, MINUTES + 1)])
    for i in range(shape["ref_files"]):
        prices = _reference_prices(seed, i, shape["ref_days"])
        with open(files[f"ref{i}"], "w") as fh:
            fh.write(header + "\n")
            for day, row in enumerate(prices):
                fh.write(",".join([f"ref{i}d{day}"] + [repr(float(p)) for p in row]) + "\n")
    return files


def validate_inputs(shape: dict, files: dict) -> None:
    """Resolve every generated config and paths file through the program's
    own loaders, so a set-up that the program would reject fails here."""
    from lobfactor import cli

    for key, path in files.items():
        if key.startswith("config"):
            resolved = cli.resolve_config(str(path), None, shape["kind"])
            cli.simulation_config(resolved)
            cli.parameter_grid(resolved)
            cli.load_paths(resolved, str(files["paths"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--shape", help="JSON shape replacing the named workload's")
    parser.add_argument("--probes", type=int, default=0,
                        help="then probe the host's speed this many times and print "
                             "the probe times as a JSON list")
    args = parser.parse_args(argv)
    shape = json.loads(args.shape) if args.shape else WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    files = write_inputs(shape, args.seed, Path(args.out))
    validate_inputs(shape, files)
    if args.probes:
        import hostspeed

        print(json.dumps([hostspeed.probe() for _ in range(args.probes)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
