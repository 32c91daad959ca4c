"""Time the same trials under two lobfactor checkouts, in one process.

Usage: python scripts/trial_ab.py OLD_SRC NEW_SRC [--reps N]

Each argument is a lobfactor checkout or its src/ directory (unpack the
parent commit with `git archive`). Both import as `lobfactor`, so each is
imported in turn under a purged `sys.modules` and keeps its own modules.
The fixed trial set is default-shape (2110 steps, 200 agents): the 72
combos of the mood-off scenarios 0, 1, 2 and 4 at seed 1000 (a `quartet`
round's trials), scenarios 0, 2, 3 and 7 at seeds 1000-1002 with the tick
log (the `simulate` trials), and 6 mood-only combos of scenario 3 at
seeds 1000-1002. Trial by trial, the side that runs first alternates; both
sides must give equal trades, mids, optimist shares and tick logs, and each
agent must end the trial with the same cash (bit for bit), shares, escrow
(committed ticks and shares) and mood. A trial that trades must also give
equal calendar output on the first default synthetic path: its bar log
returns and per-minute volumes, compared as plain lists outside the timed
section, so tuple and array forms compare alike. Prints, per rep and per
set, the CPU ratio OLD / NEW (above 1: NEW is faster), then each set's
median ratio over the reps, with its least and greatest; the mood set is
also split by its nu (0.3, 0.5, 0.7), since a change to the mood pass can
gain at one nu and lose at another. The cyclic garbage collector is off for
each whole rep and runs once after it, outside the timing. Trades and tick
rows compare as plain tuples, whether their record types are dataclasses or
NamedTuples. One process sees less noise than separate benchmark processes do, but
it times trials only, not a whole command.

Noise floor: with one tree on both sides (three runs of --reps 3 on a shared
2-core host), one rep's ratio read 0.97-1.04 for quartet and for all
trials, 0.94-1.03 for mood, 0.86-1.06 for simulate and 0.87-1.21 for one
nu's mood subset; each set's median over the three reps read 0.98-1.05. So a
median ratio between 0.95 and 1.05 is noise, and one rep of one nu's subset
can stray by 20% on its own.
"""

import argparse
import gc
import statistics
import sys
import time
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

# component settings of the simulate scenarios
SIMULATE_POPULATIONS = {
    0: {},
    2: {"lambda_c": 2.0},
    3: {"lambda_m": 3e-5, "nu": 0.5},
    7: {"lambda_c": 2.0, "lambda_m": 3e-5, "nu": 0.5},
}
SEEDS = (1000, 1001, 1002)


def load_side(tree: str):
    """`Engine`, the calendar output of a trial and the trial set of one
    checkout: [(set name, config, record_ticks)]."""
    src = Path(tree) / "src" if (Path(tree) / "src").is_dir() else Path(tree)
    for name in [m for m in sys.modules if m == "lobfactor" or m.startswith("lobfactor.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src.resolve()))
    try:
        from lobfactor.calibration import build_config, enumerate_combos
        from lobfactor.cli import load_paths, resolve_config
        from lobfactor.config import CashSpec, ParameterGrid, PopulationConfig, SimulationConfig
        from lobfactor.engine import Engine
        from lobfactor.timegrid import assign_calendar_time, bar_volumes
    finally:
        sys.path.pop(0)

    path = load_paths(resolve_config(None, None, "experiment"), None)[0]

    def calendar(out, p0):
        """Bar log returns and per-minute volumes on `path`, or None without trades."""
        if not out.trades:
            return None
        returns = np.diff(np.log(assign_calendar_time(out, path, p0).mid_prices))
        return returns.tolist(), np.asarray(bar_volumes(out, path)).tolist()

    base = SimulationConfig()
    trials = [
        ("quartet", replace(build_config(base, combo), seed=1000), False)
        for scenario in (0, 1, 2, 4)
        for combo in enumerate_combos(scenario, ParameterGrid(), CashSpec())
    ]
    for scenario, knobs in SIMULATE_POPULATIONS.items():
        cash = CashSpec(kind="pareto" if scenario == 7 else "uniform")
        pop = PopulationConfig(**knobs, cash=cash)
        trials += [("simulate", SimulationConfig(population=pop, seed=s), True) for s in SEEDS]
    mood_grid = ParameterGrid(lambda_m=(3e-5,), alpha=(0.1, 0.25))
    trials += [
        ("mood", replace(build_config(base, combo), seed=s), False)
        for combo in enumerate_combos(3, mood_grid, CashSpec())
        for s in SEEDS
    ]
    return Engine, calendar, trials


def end_state(agent) -> tuple:
    """What a trial leaves on one agent."""
    return (agent.cash.hex(), agent.shares, agent.committed_ticks, agent.committed_shares,
            agent.optimistic)


def as_tuple(record) -> tuple:
    """A trade or tick row as a plain tuple, whether its record type is a
    dataclass or a NamedTuple."""
    return tuple(record) if isinstance(record, tuple) else astuple(record)


def timed(engine_cls, calendar, config, record_ticks: bool):
    start = time.process_time()
    engine = engine_cls(config)
    out = engine.run(record_ticks=record_ticks)
    cpu = time.process_time() - start
    result = ([as_tuple(t) for t in out.trades], out.mid_prices, out.optimists_rate,
              [as_tuple(r) for r in out.ticks], [end_state(a) for a in engine.agents],
              calendar(out, config.p0))
    return cpu, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args()
    sides = [load_side(args.old_src), load_side(args.new_src)]
    # the sets each trial counts toward: its own, a mood trial's nu, and all
    sets = [[name, f"mood nu {config.population.nu}"] if name == "mood" else [name]
            for name, config, _ in sides[0][2]]
    names = sorted({name for trial_sets in sets for name in trial_sets}) + ["all"]
    ratios = {name: [] for name in names}
    for rep in range(1, args.reps + 1):
        cpu = {name: [0.0, 0.0] for name in names}
        gc.disable()  # no collection lands inside a timed trial; one runs after the rep
        for i, (_, _, record_ticks) in enumerate(sides[0][2]):
            order = (0, 1) if (rep + i) % 2 else (1, 0)
            results = [None, None]
            for side in order:
                engine_cls, calendar, trials = sides[side]
                seconds, results[side] = timed(engine_cls, calendar, trials[i][1], record_ticks)
                for name in sets[i] + ["all"]:
                    cpu[name][side] += seconds
            assert results[0] == results[1], f"trial {i} ({sets[i][0]}) differs"
        gc.collect()
        gc.enable()
        line = []
        for name in names:
            old, new = cpu[name]
            ratios[name].append(old / new)
            line.append(f"{name} {old * 1e3:.0f}/{new * 1e3:.0f} ms = {old / new:.3f}")
        print(f"rep {rep}: " + ", ".join(line), flush=True)
    print("median CPU ratio OLD/NEW (min-max): "
          + ", ".join(f"{name} {statistics.median(r):.3f} ({min(r):.3f}-{max(r):.3f})"
                      for name, r in ratios.items()))


if __name__ == "__main__":
    main()
