"""Check that a change to the random stream or to the prices leaves the
per-trial statistics as they were, with moods off and on.

Usage: python scripts/stream_check.py OLD_SRC NEW_SRC

Each argument is a lobfactor checkout or its src/ directory (unpack the
parent commit with `git archive`); each runs in its own subprocess, since
both import as `lobfactor`. Seeds 2000-2049 of scenarios 0 (no component)
and 2 (chartist), which run no mood pass, and of scenarios 3 (mood) and 7
(Pareto cash, chartist, mood), all at the default shape, give per-trial
consensus step, daily optimist-rate spread, trades and Hill index (on
calendar bars along the default synthetic paths), compared by two-sample
KS. With moods off the optimist rate is constant, so its two statistics
read p = 1 there. Prints the 16 p-values as JSON with each side's count of
trials without a Hill index. A p below 0.01 is a defect to find; never
re-pick seeds to hide it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SEEDS = range(2000, 2050)
MOOD = dict(lambda_m=3e-5, nu=0.5, alpha=0.2)
SCENARIOS = {0: ({}, "uniform"), 2: ({"lambda_c": 2.0}, "uniform"),
             3: (MOOD, "uniform"), 7: ({**MOOD, "lambda_c": 2.0}, "pareto")}
STATS = ("consensus_step", "daily_spread", "trades", "hill")


def trial_stats() -> dict:
    """Per-trial statistics of each scenario under the importable lobfactor."""
    import numpy as np

    from lobfactor.agents import CashSpec, PopulationConfig
    from lobfactor.calibration import ExperimentConfig, trial_path_index
    from lobfactor.cli import load_paths, resolve_config
    from lobfactor.engine import SimulationConfig, run
    from lobfactor.metrics import build_tail_cloud, hill_index, standardize
    from lobfactor.timegrid import assign_calendar_time, log_returns

    paths = load_paths(resolve_config(None, None, "experiment"), None)
    path_seed = ExperimentConfig().path_seed
    result = {}
    for scenario, (knobs, cash) in SCENARIOS.items():
        pop = PopulationConfig(**knobs, cash=CashSpec(kind=cash))
        stats = result[f"scenario_{scenario}"] = {name: [] for name in STATS}
        for i, seed in enumerate(SEEDS):
            cfg = SimulationConfig(population=pop, seed=seed)
            out = run(cfg, record_ticks=False)
            rates = out.optimists_rate
            stats["consensus_step"].append(
                next((t for t, r in enumerate(rates, 1) if r in (0.0, 1.0)), cfg.t_sim + 1))
            stats["daily_spread"].append(max(rates) - min(rates))
            stats["trades"].append(len(out.trades))
            try:
                path = paths[trial_path_index(path_seed, i, len(paths))]
                returns = log_returns(assign_calendar_time(out, path, cfg.p0))
                stats["hill"].append(hill_index(build_tail_cloud(np.abs(standardize(returns)))))
            except ValueError:  # no trade, or a degenerate return series
                pass
    return result


def run_tree(tree: str) -> dict:
    src = Path(tree) / "src" if (Path(tree) / "src").is_dir() else Path(tree)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    proc = subprocess.run([sys.executable, __file__, "--trial-stats"], env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def main(old_tree: str, new_tree: str) -> None:
    from scipy.stats import ks_2samp

    old, new = run_tree(old_tree), run_tree(new_tree)
    report = {}
    for scenario, a in old.items():
        b = new[scenario]
        row = report[scenario] = {name: round(float(ks_2samp(a[name], b[name]).pvalue), 4)
                                  for name in STATS}
        row["trials_without_hill"] = [len(SEEDS) - len(a["hill"]), len(SEEDS) - len(b["hill"])]
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    if sys.argv[1:] == ["--trial-stats"]:
        print(json.dumps(trial_stats()))
    elif len(sys.argv) == 3:
        main(*sys.argv[1:])
    else:
        sys.exit(__doc__)
