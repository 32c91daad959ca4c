"""Checks of the program's outputs, computed apart from the program.

The Hill index and the OT distance are recomputed here from their
definitions: the Hill index from the sorted top 5% of absolute standardized
returns, and the OT distance as the integral over u in [0, 1] of the squared
gap between the two empirical quantile functions. Combos are enumerated from
the scenario matrix, and the Student-t references are drawn here. The only
program code used is what produces a trial (``engine.run`` and
``assign_calendar_time``) and the config loader, so the best combo of each
scenario can be simulated again and scored from scratch.

Every check returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from lobfactor import cli
from lobfactor.engine import run
from lobfactor.timegrid import TransactionPath, assign_calendar_time

REL_TOL = 1e-9
RETURNS_PER_DAY = 299
PARETO, CHARTIST, MOOD = {1, 4, 5, 7}, {2, 4, 6, 7}, {3, 5, 6, 7}


def close(a, b) -> bool:
    return a is not None and b is not None and math.isclose(a, b, rel_tol=REL_TOL)


def tail_ratios(returns) -> np.ndarray:
    """log(x_(i) / x_(k+1)) for the k = max(1, int(0.05 n)) largest absolute
    standardized returns, x_(1) >= x_(2) >= ... the sorted sample."""
    r = np.asarray(returns, dtype=float)
    x = np.sort(np.abs((r - r.mean()) / r.std()))[::-1]
    k = max(1, int(0.05 * x.size))
    return np.log(x[:k] / x[k])


def quantile_ot(a, b) -> float:
    """Integral over (0, 1) of (F_a^-1(u) - F_b^-1(u))^2 for empirical laws.

    On the integer scale u * n_a * n_b, F_a^-1 steps at multiples of n_b and
    F_b^-1 at multiples of n_a, so the integrand is constant between
    consecutive cuts and the integral is an exact finite sum.
    """
    a, b = np.sort(a), np.sort(b)
    na, nb = a.size, b.size
    cuts = np.union1d(np.arange(na + 1) * nb, np.arange(nb + 1) * na)
    lo = cuts[:-1]
    gap = a[lo // nb] - b[lo // na]
    return float(np.sum(np.diff(cuts) * gap * gap)) / (na * nb)


def student_t_tails(refs: dict) -> list[np.ndarray]:
    """Tail ratios of the Student-t reference samples the config asks for."""
    return [
        tail_ratios(np.random.default_rng([refs["seed"], m]).standard_t(refs["df"], size=refs["n_samples"]))
        for m in range(refs["count"])
    ]


def read_bar_rows(path: Path) -> list[list[float]]:
    with open(path, newline="") as fh:
        return [[float(c) for c in row[1:]] for row in csv.reader(fh) if row and row[0] != "day_id"]


def pooled_bar_returns(files) -> np.ndarray:
    return np.concatenate([np.diff(np.log(row)) for f in files for row in read_bar_rows(f)])


def read_paths(paths_csv: Path) -> list[TransactionPath]:
    counts = np.loadtxt(paths_csv, delimiter=",", dtype=np.int64, ndmin=2)
    paths = []
    for row in counts:
        fractions = np.cumsum(row) / row.sum()
        fractions[-1] = 1.0
        paths.append(TransactionPath(tuple(float(f) for f in fractions)))
    return paths


def expected_combos(scenario: int, grid: dict) -> list[tuple]:
    """(cash kind, lambda_c, lambda_m, nu, alpha) of each combo of a scenario:
    a component that is on searches the nonzero grid values, one that is off
    is pinned to zero, and nu is searched only with mood on."""
    cash = "pareto" if scenario in PARETO else "uniform"
    lcs = [v for v in grid["lambda_c"] if v > 0] if scenario in CHARTIST else [0.0]
    lms = [v for v in grid["lambda_m"] if v > 0] if scenario in MOOD else [0.0]
    nus = grid["nu"] if scenario in MOOD else [0.0]
    return [(cash, lc, lm, nu, a) for lc in lcs for lm in lms for nu in nus for a in grid["alpha"]]


def combo_tuple(combo: dict) -> tuple:
    return (combo["cash_kind"], combo["lambda_c"], combo["lambda_m"], combo["nu"], combo["alpha"])


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_columns(path: Path) -> dict[str, tuple[str, ...]]:
    """Each column of a CSV file by its header name, as strings; faster than
    ``read_csv`` on the long per-step files."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        columns = list(zip(*rows)) or [()] * len(header)
    return dict(zip(header, columns))


def rescore_best(config_path: Path, paths: list[TransactionPath], row: dict,
                 base_seed: int, tails: list[np.ndarray]) -> tuple[float, float, int]:
    """Simulate a table2 combo again and score it: (hill, mean OT, degenerate trials)."""
    resolved = cli.resolve_config(str(config_path), None, "experiment")
    base = cli.simulation_config(resolved)
    path_seed = int(resolved["experiment"]["path_seed"])
    population = replace(
        base.population, cash=replace(base.population.cash, kind=row["cash_kind"]),
        lambda_c=float(row["lambda_c"]), lambda_m=float(row["lambda_m"]),
        nu=float(row["nu"]), alpha=float(row["alpha"]),
    )
    parts, degenerate = [], 0
    for i in range(int(row["n_trials"])):
        config = replace(base, population=population, seed=base_seed + i)
        sim = run(config)
        if not sim.trades:
            degenerate += 1
            continue
        path = paths[int(np.random.default_rng([path_seed, i]).integers(0, len(paths)))]
        bars = assign_calendar_time(sim, path, config.p0)
        parts.append(np.diff(np.log(bars.mid_prices)))
    ratios = tail_ratios(np.concatenate(parts))
    mean_ot = float(np.mean([quantile_ot(ratios, t) for t in tails]))
    return ratios.size / float(ratios.sum()), mean_ot, degenerate


def check_experiment(out: Path, config_path: Path, paths_csv: Path, scenarios: list[int],
                     trials: int, base_seed: int, tails: list[np.ndarray]) -> list[str]:
    """Ledger, table2, synergy and fig5 of one ``experiment`` command."""
    problems = []
    grid = json.loads(config_path.read_text())["experiment"]["grid"]
    ledger = [json.loads(line) for line in (out / "ledger.jsonl").read_text().splitlines()
              if line.strip()]
    expected = {(s, c) for s in scenarios for c in expected_combos(s, grid)}
    seen = {(r["scenario"], combo_tuple(r["combo"])) for r in ledger}
    if len(ledger) != len(expected) or seen != expected:
        problems.append(f"ledger: {len(ledger)} lines over {len(seen)} combos, "
                        f"the grid enumerates {len(expected)}")
    if any(r["n_trials"] != trials or r["base_seed"] != base_seed for r in ledger):
        problems.append("ledger: a line has the wrong n_trials or base_seed")

    paths = read_paths(paths_csv)
    table2 = read_csv(out / "table2.csv")
    if [int(row["scenario"]) for row in table2] != list(scenarios):
        problems.append("table2: rows do not follow the requested scenarios")
    hills = {}
    for row in table2:
        s = int(row["scenario"])
        stable = [r["mean_ot"] for r in ledger if r["scenario"] == s and not r["unstable"]]
        if not stable or not close(float(row["mean_ot"]), min(stable)):
            problems.append(f"table2 scenario {s}: mean_ot is not the least stable ledger mean_ot")
        n_trials, n_degenerate = int(row["n_trials"]), int(row["n_degenerate"])
        if int(row["n_pooled"]) != RETURNS_PER_DAY * (n_trials - n_degenerate):
            problems.append(f"table2 scenario {s}: n_pooled {row['n_pooled']} is not "
                            f"{RETURNS_PER_DAY} x {n_trials - n_degenerate}")
        h, mean_ot, degenerate = rescore_best(config_path, paths, row, base_seed, tails)
        if not close(float(row["hill"]), h) or degenerate != n_degenerate:
            problems.append(f"table2 scenario {s}: hill {row['hill']}, recomputed {h!r}")
        if not close(float(row["mean_ot"]), mean_ot):
            problems.append(f"table2 scenario {s}: mean_ot {row['mean_ot']}, recomputed {mean_ot!r}")
        hills[s] = float(row["hill"])

    if {0, 1, 2, 4} <= set(scenarios):
        problems += _check_synergy(out, hills)
        problems += _check_fig5(out, grid, ledger)
    return problems


def _check_synergy(out: Path, hills: dict) -> list[str]:
    (row,) = read_csv(out / "synergy.csv")
    theoretical = hills[1] + hills[2] - hills[0]
    observed = float(row["observed_hill_4"])
    if not (close(observed, hills[4]) and close(float(row["theoretical_hill_4"]), theoretical)
            and row["observed_lower"] == str(observed < theoretical)):
        return [f"synergy: {row} does not hold h4 and h1 + h2 - h0 = {theoretical!r}"]
    return []


def _check_fig5(out: Path, grid: dict, ledger: list[dict]) -> list[str]:
    """Each hill_mean is the mean over alpha of the matching ledger Hill values."""
    hill_of = {(r["scenario"], combo_tuple(r["combo"])): r["hill"] for r in ledger}
    problems = []
    rows = {(float(r["lambda_c"]), r["series"]): r for r in read_csv(out / "fig5.csv")}
    lcs = [v for v in grid["lambda_c"] if v > 0]
    if len(rows) != 3 * len(lcs):
        problems.append(f"fig5: {len(rows)} rows, expected {3 * len(lcs)}")
    for lc in lcs:
        per_alpha = {}
        for a in grid["alpha"]:
            per_alpha[a] = (hill_of.get((0, ("uniform", 0.0, 0.0, 0.0, a))),
                            hill_of.get((1, ("pareto", 0.0, 0.0, 0.0, a))),
                            hill_of.get((2, ("uniform", lc, 0.0, 0.0, a))),
                            hill_of.get((4, ("pareto", lc, 0.0, 0.0, a))))
        series = {
            "sim2": [h[2] for h in per_alpha.values() if h[2] is not None],
            "sim4": [h[3] for h in per_alpha.values() if h[3] is not None],
            "theoretical": [h[1] + h[2] - h[0] for h in per_alpha.values() if None not in h[:3]],
        }
        for name, values in series.items():
            row = rows.get((lc, name))
            want = float(np.mean(values)) if values else None
            got = float(row["hill_mean"]) if row and row["hill_mean"] else None
            if row is None or int(row["n_points"]) != len(values) or not (
                    close(got, want) or got is want is None):
                problems.append(f"fig5 lambda_c={lc} {name}: hill_mean {got!r}, "
                                f"ledger mean {want!r} over {len(values)} points")
    return problems


def check_simulation(out: Path, config_path: Path) -> list[str]:
    """ticks.csv, series.csv and bars.csv of one ``simulate`` command."""
    problems = []
    config = cli.simulation_config(cli.resolve_config(str(config_path), None, "simulate"))
    ticks = read_columns(out / "ticks.csv")
    traded = [i for i, event in enumerate(ticks["event"]) if event == "TradeExecuted"]
    prices = [ticks["market_price"][i] for i in traded]
    off_grid = [p for p in prices
                if abs(float(p) / config.tick_size - round(float(p) / config.tick_size)) > 1e-6]
    if off_grid:
        problems.append(f"ticks: {len(off_grid)} trade prices are not whole ticks, e.g. {off_grid[0]}")
    oversize = [v for v in (ticks["exec_volume"][i] for i in traded)
                if not 1 <= int(v) <= config.v_max]
    if oversize:
        problems.append(f"ticks: {len(oversize)} trade volumes outside 1..{config.v_max}, "
                        f"e.g. {oversize[0]}")

    series = read_columns(out / "series.csv")
    mids = [config.p0] + [float(m) for m in series["mid_price"]]
    rates = [float(r) for r in series["optimists_rate"]]
    if len(rates) != config.t_sim:
        problems.append(f"series: {len(rates)} rows for {config.t_sim} steps")
    for step, logged in enumerate(series["log_return"], start=1):
        want = math.log(mids[step] / mids[step - 1])
        if not math.isclose(float(logged), want, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"series: step {step} log_return {logged}, recomputed {want!r}")
            break
    if any(not 0.0 <= v <= 1.0 for v in rates):
        problems.append("series: optimists_rate outside [0, 1]")
    if config.population.nu == 0.0 and len(set(rates)) > 1:
        problems.append("series: optimists_rate moves although nu = 0")

    bars = read_bar_rows(out / "bars.csv")
    if len(bars) != 1 or len(bars[0]) != 300:
        problems.append(f"bars: {[len(b) for b in bars]} prices per row, expected one row of 300")
    known = set(mids)
    if any(p not in known for row in bars for p in row):
        problems.append("bars: a bar price is not among the series mid prices")
    return problems


def check_metrics_report(out: Path, bar_files: list[str], ref_files: list[str]) -> list[str]:
    """report.json of a ``metrics`` command against Hill and OT computed here."""
    report = json.loads((out / "report.json").read_text())
    ratios = tail_ratios(pooled_bar_returns(bar_files))
    problems = []
    h = ratios.size / float(ratios.sum())
    if not close(report["hill"], h):
        problems.append(f"report: hill {report['hill']!r}, recomputed {h!r}")
    per_ref = report["per_ref_ot"]
    if [p["ref"] for p in per_ref] != list(ref_files):
        problems.append("report: per_ref_ot does not list the reference files in order")
    for entry, ref in zip(per_ref, ref_files):
        want = quantile_ot(ratios, tail_ratios(pooled_bar_returns([ref])))
        if not close(entry["ot"], want):
            problems.append(f"report: OT to {ref} {entry['ot']!r}, recomputed {want!r}")
    return problems


def check_same_bytes(a: Path, b: Path, names=("ticks.csv", "bars.csv", "series.csv", "manifest.json")) -> list[str]:
    return [f"rerun: {name} differs" for name in names
            if (a / name).read_bytes() != (b / name).read_bytes()]
