"""Scenario matrix, grid search, and the chartist-intensity sweep.

Eight scenarios toggle three candidate components (Pareto cash, chartist
weight, mood weight). For each scenario the searchable parameters are the
grid dimensions whose component flag is on, plus risk aversion; the rest
are pinned to their off values. A combo's quality is the mean OT distance
of its pooled tail cloud to the reference clouds; calibration is argmin.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from .agents import CashSpec
from .engine import SimulationConfig, run
from .metrics import (
    DegenerateSeriesError,
    PointCloud,
    StylizedFactReport,
    build_tail_cloud,
    hill_index,
    ot_distance,
    standardize,
    stylized_facts,
    theoretical_hill,
)
from .timegrid import TransactionPath, assign_calendar_time, bar_volumes, log_returns

# Component membership per scenario (columns of the scenario matrix)
_PARETO_SCENARIOS = frozenset({1, 4, 5, 7})
_CHARTIST_SCENARIOS = frozenset({2, 4, 6, 7})
_MOOD_SCENARIOS = frozenset({3, 5, 6, 7})


class CalibrationError(RuntimeError):
    """No usable combo survived evaluation."""


class LedgerError(ValueError):
    """A combo ledger line other than the last cannot be read."""


@dataclass(frozen=True)
class ScenarioSpec:
    scenario_no: int
    pareto_cash: bool
    chartist: bool
    mood: bool

    @classmethod
    def from_number(cls, scenario_no: int) -> "ScenarioSpec":
        if not 0 <= scenario_no <= 7:
            raise ValueError(f"scenario_no must be 0..7, got {scenario_no}")
        return cls(
            scenario_no=scenario_no,
            pareto_cash=scenario_no in _PARETO_SCENARIOS,
            chartist=scenario_no in _CHARTIST_SCENARIOS,
            mood=scenario_no in _MOOD_SCENARIOS,
        )


@dataclass(frozen=True)
class ParameterGrid:
    cash_options: tuple[CashSpec, ...] = (CashSpec(kind="uniform"), CashSpec(kind="pareto"))
    lambda_c: tuple[float, ...] = (0.0, 1.5, 1.75, 2.0, 2.25, 2.5)
    lambda_m: tuple[float, ...] = (0.0, 1e-5, 2e-5, 3e-5, 4e-5, 5e-5)
    nu: tuple[float, ...] = (0.3, 0.5, 0.7)
    alpha: tuple[float, ...] = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)


@dataclass(frozen=True)
class Combo:
    """One grid point: the population-level knobs a scenario may search."""

    cash: CashSpec
    lambda_c: float
    lambda_m: float
    nu: float
    alpha: float

    def key(self) -> dict:
        return {
            "cash_kind": self.cash.kind,
            "c_max": self.cash.c_max,
            "c_min": self.cash.c_min,
            "beta": self.cash.beta,
            "lambda_c": self.lambda_c,
            "lambda_m": self.lambda_m,
            "nu": self.nu,
            "alpha": self.alpha,
        }

    @classmethod
    def from_key(cls, key: dict) -> "Combo":
        """The combo whose `key()` is `key`."""
        cash = CashSpec(kind=key["cash_kind"], c_max=key["c_max"], c_min=key["c_min"],
                        beta=key["beta"])
        return cls(cash=cash, lambda_c=key["lambda_c"], lambda_m=key["lambda_m"],
                   nu=key["nu"], alpha=key["alpha"])

    def digest(self) -> str:
        blob = json.dumps(self.key(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class ComboMetrics:
    combo: Combo
    hill: float | None
    k_used: int
    mean_ot: float | None
    ot_std: float | None
    n_trials: int
    n_degenerate: int
    n_pooled: int
    unstable: bool
    stylized: StylizedFactReport | None = None  # None when unstable or undefined


@dataclass
class CalibrationResult:
    best: ComboMetrics
    per_combo: list[ComboMetrics]


def enumerate_combos(scenario: ScenarioSpec, grid: ParameterGrid) -> list[Combo]:
    """Cartesian product over searched dimensions; off components pinned.

    Zero entries in the lambda grids encode "component off", so an on flag
    enumerates only the nonzero values and an off flag pins zero. With the
    mood component off, nu is pinned to zero too, since no mood update can
    matter.
    """
    cash_opts = [c for c in grid.cash_options if c.kind == "pareto"] if scenario.pareto_cash \
        else [c for c in grid.cash_options if c.kind == "uniform"]
    lc_opts = [v for v in grid.lambda_c if v > 0] if scenario.chartist else [0.0]
    if scenario.mood:
        lm_opts = [v for v in grid.lambda_m if v > 0]
        nu_opts = list(grid.nu)
    else:
        lm_opts = [0.0]
        nu_opts = [0.0]
    return [
        Combo(cash=c, lambda_c=lc, lambda_m=lm, nu=nu, alpha=a)
        for c, lc, lm, nu, a in product(cash_opts, lc_opts, lm_opts, nu_opts, grid.alpha)
    ]


def build_config(base: SimulationConfig, combo: Combo) -> SimulationConfig:
    population = replace(
        base.population,
        cash=combo.cash,
        lambda_c=combo.lambda_c,
        lambda_m=combo.lambda_m,
        nu=combo.nu,
        alpha=combo.alpha,
    )
    return replace(base, population=population)


def trial_path_index(path_seed: int, trial_index: int, n_paths: int) -> int:
    """Per-trial reference-path choice on its own stream: stable under added trials."""
    return int(np.random.default_rng([path_seed, trial_index]).integers(0, n_paths))


def trial_series(
    config: SimulationConfig,
    n_trials: int,
    base_seed: int,
    paths: list[TransactionPath],
    path_seed: int = 7701,
) -> tuple[list[np.ndarray], list[np.ndarray], int]:
    """Bar returns and per-minute volumes of each shared-seed trial that
    traded, and the number of trials with zero executed trades.

    Per-minute volumes align with the return of the interval they close.
    """
    returns_parts = []
    volume_parts = []
    n_degenerate = 0
    for i in range(n_trials):
        cfg = replace(config, seed=base_seed + i)
        out = run(cfg)
        if not out.trades:
            n_degenerate += 1
            continue
        path = paths[trial_path_index(path_seed, i, len(paths))]
        bars = assign_calendar_time(out, path, cfg.p0, day_id=f"seed{cfg.seed}")
        returns_parts.append(log_returns(bars))
        volume_parts.append(np.asarray(bar_volumes(out, path)[1:], dtype=float))
    return returns_parts, volume_parts, n_degenerate


def evaluate_combo(
    base: SimulationConfig,
    combo: Combo,
    n_trials: int,
    base_seed: int,
    refs: list[PointCloud],
    paths: list[TransactionPath],
    path_seed: int = 7701,
) -> ComboMetrics:
    """Run shared-seed trials of one combo over `base` and score the pooled tail.

    Trials with zero executed trades are dropped and counted; a combo is
    unstable when they exceed half of n_trials or the pooled series is
    degenerate, and carries no metrics in that case. A stable combo also
    carries the stylized facts of its pooled returns and volumes, or None
    where they are undefined.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    returns_parts, volume_parts, n_degenerate = trial_series(
        build_config(base, combo), n_trials, base_seed, paths, path_seed)
    if n_degenerate == n_trials:
        raise CalibrationError(f"all {n_trials} trials degenerate for combo {combo.key()}")

    def unusable() -> ComboMetrics:
        return ComboMetrics(combo=combo, hill=None, k_used=0, mean_ot=None, ot_std=None,
                            n_trials=n_trials, n_degenerate=n_degenerate, n_pooled=0,
                            unstable=True)

    if n_degenerate > n_trials // 2:
        return unusable()
    pooled = np.concatenate(returns_parts)
    try:
        abs_std = np.abs(standardize(pooled))
        stats = hill_index(abs_std)
        cloud = build_tail_cloud(abs_std)
    except DegenerateSeriesError:
        return unusable()
    try:
        stylized = stylized_facts(pooled, volumes=np.concatenate(volume_parts))
    except DegenerateSeriesError:
        stylized = None
    ot_values = [ot_distance(cloud, ref) for ref in refs]
    return ComboMetrics(
        combo=combo,
        hill=stats.hill,
        k_used=stats.k_used,
        mean_ot=float(np.mean(ot_values)) if ot_values else None,
        ot_std=float(np.std(ot_values)) if ot_values else None,
        n_trials=n_trials,
        n_degenerate=n_degenerate,
        n_pooled=pooled.size,
        unstable=False,
        stylized=stylized,
    )


def _evaluate_task(args) -> ComboMetrics:
    return evaluate_combo(*args)


class ComboLedger:
    """Append-only JSONL record of finished combos, keyed for safe resume.

    A line counts as done only if it carries this ledger's run digest (the
    CLI's digest of the resolved config and input files) and every
    `ComboMetrics` field, so a line written before a field existed is
    evaluated again.
    On open, every other line is dropped and the file rewritten to hold only
    the done lines. A run killed mid-append leaves a cut-off last line: it is
    dropped too, with a warning, so its combo is evaluated again; that
    includes a line cut just before its newline.
    """

    def __init__(self, path: str | Path | None, run_digest: str = ""):
        self.path = Path(path) if path else None
        self.run_digest = run_digest
        self._done: dict[tuple, dict] = {}
        if self.path and self.path.exists():
            lines = self.path.read_bytes().splitlines(keepends=True)
            kept = []
            for line_no, line in enumerate(lines, start=1):
                try:
                    rec = json.loads(line) if line.strip() else {}
                except ValueError:
                    rec = None
                # a line that is no JSON object is unreadable; a last line
                # without its newline is an unfinished append
                if not isinstance(rec, dict) or not line.endswith(b"\n"):
                    if line_no < len(lines):
                        raise LedgerError(f"{self.path}: line {line_no} is not a ledger record")
                    print(f"warning: {self.path}: dropped cut-off line {line_no}; "
                          "its combo will be evaluated again", file=sys.stderr)
                    break
                if (rec.get("run_digest") == run_digest
                        and all(f.name in rec for f in fields(ComboMetrics))):
                    self._done[self._key(rec)] = rec
                    kept.append(line)
            if len(kept) < len(lines):
                tmp = self.path.with_name(self.path.name + ".tmp")
                tmp.write_bytes(b"".join(kept))
                os.replace(tmp, self.path)

    @staticmethod
    def _key(rec: dict) -> tuple:
        return (rec["scenario"], rec["combo_digest"], rec["base_seed"], rec["n_trials"])

    def lookup(self, scenario_no: int, combo: Combo, base_seed: int, n_trials: int) -> dict | None:
        return self._done.get((scenario_no, combo.digest(), base_seed, n_trials))

    def record(self, scenario_no: int, base_seed: int, metrics: ComboMetrics) -> None:
        """One line: the resume key, the run digest, and every `ComboMetrics`
        field, with the combo flattened by `Combo.key()`."""
        rec = {
            "scenario": scenario_no,
            "combo_digest": metrics.combo.digest(),
            "base_seed": base_seed,
            "run_digest": self.run_digest,
            **asdict(metrics),
            "combo": metrics.combo.key(),
        }
        self._done[self._key(rec)] = rec
        if self.path:
            with open(self.path, "a") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def to_metrics(self, rec: dict) -> ComboMetrics:
        values = {f.name: rec[f.name] for f in fields(ComboMetrics)}
        values["combo"] = Combo.from_key(rec["combo"])
        facts = rec["stylized"]
        if facts is not None:
            # JSON object keys are strings; the lags are ints
            values["stylized"] = StylizedFactReport(**dict(facts, abs_autocorr={
                int(lag): v for lag, v in facts["abs_autocorr"].items()}))
        return ComboMetrics(**values)


def calibrate(
    scenario: ScenarioSpec,
    grid: ParameterGrid,
    n_trials: int,
    refs: list[PointCloud],
    paths: list[TransactionPath],
    base: SimulationConfig | None = None,
    base_seed: int = 1000,
    path_seed: int = 7701,
    ledger: ComboLedger | None = None,
    workers: int = 1,
) -> CalibrationResult:
    """Evaluate every combo of a scenario and pick the minimum mean OT.

    Ties break toward the Hill index nearest 3, then toward the earlier
    combo in enumeration (lexicographic grid order). Unstable combos stay
    in the table but never win.
    """
    base = base or SimulationConfig()
    combos = enumerate_combos(scenario, grid)
    ledger = ledger or ComboLedger(None)
    results: list[ComboMetrics | None] = [None] * len(combos)
    pending = []
    for idx, combo in enumerate(combos):
        rec = ledger.lookup(scenario.scenario_no, combo, base_seed, n_trials)
        if rec is not None:
            results[idx] = ledger.to_metrics(rec)
        else:
            pending.append((idx, combo))
    tasks = [(base, combo, n_trials, base_seed, refs, paths, path_seed) for _, combo in pending]
    # each result is recorded as it arrives, in enumeration order, so an
    # interrupted run keeps every combo finished before the interruption
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1 and tasks
          else nullcontext()) as pool:
        fresh = pool.map(_evaluate_task, tasks) if pool else map(_evaluate_task, tasks)
        for (idx, _), metrics in zip(pending, fresh):
            results[idx] = metrics
            ledger.record(scenario.scenario_no, base_seed, metrics)
    usable = [(i, m) for i, m in enumerate(results) if not m.unstable]
    if not usable:
        raise CalibrationError(f"scenario {scenario.scenario_no}: every combo unstable")
    best_idx, best = min(usable, key=lambda im: (im[1].mean_ot, abs(im[1].hill - 3.0), im[0]))
    return CalibrationResult(best=best, per_combo=results)


def make_student_t_refs(
    m_refs: int = 18,
    n_samples: int = 30_000,
    df: float = 3.0,
    refs_seed: int = 777,
) -> list[PointCloud]:
    """Synthetic stand-ins for real tail clouds: Student-t return samples."""
    refs = []
    for m in range(m_refs):
        rng = np.random.default_rng([refs_seed, m])
        returns = rng.standard_t(df, size=n_samples)
        refs.append(build_tail_cloud(np.abs(standardize(returns)), source_id=f"t{df:g}-{m}"))
    return refs


# uncalled: perfbench/tracing.py wraps it by name, so it goes when the benchmark drops it
def scenario_stylized_facts(result: CalibrationResult) -> StylizedFactReport | None:
    """Stylized facts at a scenario's best combo, from its calibration pass."""
    return result.best.stylized


def sweep_lambda_c(grid: ParameterGrid, per_combo: list[ComboMetrics]) -> list[dict]:
    """Hill index versus chartist intensity for the chartist scenarios.

    Aggregates the per-combo results of calibrating scenarios 0, 1, 2 and 4
    and simulates nothing. For each nonzero lambda_c: Hill per alpha for
    scenario 2 (uniform cash) and scenario 4 (Pareto cash), plus the
    additive prediction built per alpha from scenarios 0, 1, 2; each series
    reported as mean and std across the alpha grid. Unstable combos drop out
    of the aggregation.
    """
    uniform = next(c for c in grid.cash_options if c.kind == "uniform")
    pareto = next(c for c in grid.cash_options if c.kind == "pareto")
    hill_of = {m.combo.digest(): m.hill for m in per_combo}  # None when unstable

    def hills(cash: CashSpec, lambda_c: float) -> dict[float, float | None]:
        return {
            a: hill_of[Combo(cash=cash, lambda_c=lambda_c, lambda_m=0.0, nu=0.0, alpha=a).digest()]
            for a in grid.alpha
        }

    z0 = hills(uniform, 0.0)
    z1 = hills(pareto, 0.0)
    rows = []
    for lc in [v for v in grid.lambda_c if v > 0]:
        z2 = hills(uniform, lc)
        z4 = hills(pareto, lc)
        theo = [
            theoretical_hill(z0[a], z1[a], z2[a])
            for a in grid.alpha
            if None not in (z0[a], z1[a], z2[a])
        ]
        for series, values in (
            ("sim2", [v for v in z2.values() if v is not None]),
            ("sim4", [v for v in z4.values() if v is not None]),
            ("theoretical", theo),
        ):
            rows.append({
                "lambda_c": lc,
                "series": series,
                "hill_mean": float(np.mean(values)) if values else None,
                "hill_std": float(np.std(values)) if values else None,
                "n_points": len(values),
            })
    return rows
