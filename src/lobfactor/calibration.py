"""Scenario matrix, combo scoring, and grid search with a resumable ledger.

Eight scenarios toggle three candidate components (Pareto cash, chartist
weight, mood weight). For each scenario the searchable parameters are the
grid dimensions whose component flag is on, plus risk aversion; the rest
are pinned to their off values. A combo's quality is the mean OT distance
of its pooled tail cloud to the reference clouds; calibration is argmin.
A combo whose trials mostly fail to trade is recorded as unstable, and
`CalibrationError` is raised only when a scenario has no stable combo. The
experiment's config, `ExperimentConfig` with its grid, refs and paths, is
defined in `lobfactor.config`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace
from itertools import product, repeat
from pathlib import Path

import numpy as np

from .config import CashSpec, ExperimentConfig, ParameterGrid, RefsSpec, SimulationConfig
from .engine import run
from .metrics import (
    ABS_AUTOCORR_LAGS,
    DegenerateSeriesError,
    PointCloud,
    StylizedFactReport,
    build_tail_cloud,
    hill_index,
    ot_distance,
    standardize,
    stylized_facts,
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
class Combo:
    """One grid point: the population-level knobs a scenario may search, and
    the `combo` object of a ledger line."""

    cash_kind: str
    c_max: float
    c_min: float
    beta: float
    lambda_c: float
    lambda_m: float
    nu: float
    alpha: float

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
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


def enumerate_combos(scenario: int, grid: ParameterGrid, cash: CashSpec) -> list[Combo]:
    """Cartesian product over searched dimensions; off components pinned.

    Every combo takes `cash` with the scenario's cash kind. Zero entries in
    the lambda grids encode "component off", so an on flag enumerates only
    the nonzero values and an off flag pins zero. With the mood component
    off, nu is pinned to zero too, since no mood update can matter.
    """
    if not 0 <= scenario <= 7:
        raise ValueError(f"scenario must be 0..7, got {scenario}")
    kind = "pareto" if scenario in _PARETO_SCENARIOS else "uniform"
    lc_opts = [v for v in grid.lambda_c if v > 0] if scenario in _CHARTIST_SCENARIOS else [0.0]
    if scenario in _MOOD_SCENARIOS:
        lm_opts = [v for v in grid.lambda_m if v > 0]
        nu_opts = list(grid.nu)
    else:
        lm_opts = [0.0]
        nu_opts = [0.0]
    return [
        Combo(kind, cash.c_max, cash.c_min, cash.beta, lc, lm, nu, a)
        for lc, lm, nu, a in product(lc_opts, lm_opts, nu_opts, grid.alpha)
    ]


def build_config(base: SimulationConfig, combo: Combo) -> SimulationConfig:
    population = replace(
        base.population,
        cash=CashSpec(combo.cash_kind, combo.c_max, combo.c_min, combo.beta),
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
    config: SimulationConfig, exp: ExperimentConfig, paths: list[TransactionPath]
) -> tuple[list[np.ndarray], list[np.ndarray], int]:
    """Bar returns and per-minute volumes of each of the experiment's
    shared-seed trials that traded, and the number of trials with zero
    executed trades.

    Per-minute volumes align with the return of the interval they close.
    """
    returns_parts = []
    volume_parts = []
    n_degenerate = 0
    for i in range(exp.trials):
        cfg = replace(config, seed=exp.base_seed + i)
        out = run(cfg, record_ticks=False)
        if not out.trades:
            n_degenerate += 1
            continue
        path = paths[trial_path_index(exp.path_seed, i, len(paths))]
        bars = assign_calendar_time(out, path, cfg.p0, day_id=f"seed{cfg.seed}")
        returns_parts.append(log_returns(bars))
        volume_parts.append(bar_volumes(out, path)[1:])
    return returns_parts, volume_parts, n_degenerate


def evaluate_combo(
    base: SimulationConfig,
    combo: Combo,
    exp: ExperimentConfig,
    refs: list[PointCloud],
    paths: list[TransactionPath],
) -> ComboMetrics:
    """Run the experiment's shared-seed trials of one combo over `base` and
    score the pooled tail.

    Trials with zero executed trades are dropped and counted; a combo is
    unstable when they exceed half of n_trials or the pooled series is
    degenerate, and carries no metrics in that case. A stable combo also
    carries the stylized facts of its pooled returns and volumes, or None
    where they are undefined.
    """
    n_trials = exp.trials
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    returns_parts, volume_parts, n_degenerate = trial_series(build_config(base, combo), exp, paths)

    def unusable() -> ComboMetrics:
        return ComboMetrics(combo=combo, hill=None, k_used=0, mean_ot=None, ot_std=None,
                            n_trials=n_trials, n_degenerate=n_degenerate, n_pooled=0,
                            unstable=True)

    if n_degenerate > n_trials // 2:
        return unusable()
    pooled = np.concatenate(returns_parts)
    try:
        cloud = build_tail_cloud(np.abs(standardize(pooled)))
        hill = hill_index(cloud)
    except DegenerateSeriesError:
        return unusable()
    try:
        stylized = stylized_facts(pooled, volumes=np.concatenate(volume_parts))
    except DegenerateSeriesError:
        stylized = None
    ot_values = [ot_distance(cloud, ref) for ref in refs]
    return ComboMetrics(
        combo=combo,
        hill=hill,
        k_used=cloud.size,
        mean_ot=float(np.mean(ot_values)) if ot_values else None,
        ot_std=float(np.std(ot_values)) if ot_values else None,
        n_trials=n_trials,
        n_degenerate=n_degenerate,
        n_pooled=pooled.size,
        unstable=False,
        stylized=stylized,
    )


class ComboLedger:
    """Append-only JSONL record of finished combos, keyed for safe resume.

    `record` writes each line: the resume key (scenario, combo digest, base
    seed, run digest) and `asdict` of its `ComboMetrics`. On open, a line
    counts as done only if it carries this ledger's run digest (the CLI's
    digest of the resolved config and input files) and `_rebuild` rebuilds
    its `ComboMetrics`, which `lookup` then returns. Every other line, such
    as one written before a field existed, is dropped from the rewritten
    file and its combo evaluated again. So is a run's cut-off last line,
    with a warning; that includes a line cut just before its newline. A line
    before the last that is no JSON object raises `LedgerError`.
    """

    def __init__(self, path: str | Path | None, run_digest: str = ""):
        self.path = Path(path) if path else None
        self.run_digest = run_digest
        self._done: dict[tuple, ComboMetrics] = {}
        if self.path and self.path.exists():
            lines = self.path.read_bytes().splitlines(keepends=True)
            kept = []
            for line_no, line in enumerate(lines, start=1):
                try:
                    rec = json.loads(line) if line.strip() else {}
                except (ValueError, RecursionError):
                    rec = None
                # a line that is no JSON object is unreadable; a last line
                # without its newline is an unfinished append
                if not isinstance(rec, dict) or not line.endswith(b"\n"):
                    if line_no < len(lines):
                        raise LedgerError(f"{self.path}: line {line_no} is not a ledger record")
                    print(f"warning: {self.path}: dropped cut-off line {line_no}; "
                          "its combo will be evaluated again", file=sys.stderr)
                    break
                metrics = _rebuild(rec) if rec.get("run_digest") == run_digest else None
                if metrics is not None:
                    self._done[rec["scenario"], rec["combo_digest"], rec["base_seed"],
                               metrics.n_trials] = metrics
                    kept.append(line)
            if len(kept) < len(lines):
                tmp = self.path.with_name(self.path.name + ".tmp")
                tmp.write_bytes(b"".join(kept))
                os.replace(tmp, self.path)

    def lookup(self, scenario_no: int, combo: Combo, base_seed: int,
               n_trials: int) -> ComboMetrics | None:
        return self._done.get((scenario_no, combo.digest(), base_seed, n_trials))

    def record(self, scenario_no: int, base_seed: int, metrics: ComboMetrics) -> None:
        """One line: the resume key and every `ComboMetrics` field."""
        digest = metrics.combo.digest()
        self._done[scenario_no, digest, base_seed, metrics.n_trials] = metrics
        if self.path:
            rec = {"scenario": scenario_no, "combo_digest": digest, "base_seed": base_seed,
                   "run_digest": self.run_digest, **asdict(metrics)}
            with open(self.path, "a") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _rebuild(rec: dict) -> ComboMetrics | None:
    """The `ComboMetrics` of a ledger record, or None unless every field is
    there with its type (counts ints, scores floats, or None on an unstable
    line, `unstable` a bool, stylized facts floats or None, one per lag of
    `ABS_AUTOCORR_LAGS`) and the combo has the stored digest."""
    try:
        values = {f.name: rec[f.name] for f in fields(ComboMetrics)}
        values["combo"] = Combo(**values["combo"])
        facts = values["stylized"]
        if facts is not None:
            # JSON object keys are strings; the lags are ints
            values["stylized"] = StylizedFactReport(**dict(facts, abs_autocorr={
                int(lag): v for lag, v in facts["abs_autocorr"].items()}))
        m = ComboMetrics(**values)
        counts = (rec["scenario"], rec["base_seed"], m.k_used, m.n_trials, m.n_degenerate,
                  m.n_pooled)
        digest_ok = m.combo.digest() == rec["combo_digest"]
    except (KeyError, TypeError, ValueError, AttributeError, RecursionError):
        return None
    facts = m.stylized
    fact_values = () if facts is None else (facts.kurtosis, facts.vol_volume_corr,
                                            *facts.abs_autocorr.values())
    typed = (all(type(n) is int for n in counts)
             and type(m.unstable) is bool
             and all(type(v) is float or (v is None and m.unstable)
                     for v in (m.hill, m.mean_ot, m.ot_std))
             and all(type(v) is float or v is None for v in fact_values)
             and (facts is None or facts.abs_autocorr.keys() == set(ABS_AUTOCORR_LAGS)))
    return m if digest_ok and typed else None


def calibrate(
    scenario: int,
    exp: ExperimentConfig,
    base: SimulationConfig,
    refs: list[PointCloud],
    paths: list[TransactionPath],
    ledger: ComboLedger | None = None,
    workers: int = 1,
) -> CalibrationResult:
    """Evaluate every combo of a scenario over `base` and pick the minimum
    mean OT.

    Ties break toward the Hill index nearest 3, then toward the earlier
    combo in enumeration (lexicographic grid order). Unstable combos stay
    in the table but never win.
    """
    combos = enumerate_combos(scenario, exp.grid, base.population.cash)
    ledger = ledger or ComboLedger(None)
    results: list[ComboMetrics | None] = [None] * len(combos)
    pending = []
    for idx, combo in enumerate(combos):
        results[idx] = ledger.lookup(scenario, combo, exp.base_seed, exp.trials)
        if results[idx] is None:
            pending.append(idx)
    # the pool starts every worker at once, so it gets no more than can run
    workers = min(workers, len(pending), os.cpu_count() or 1)
    # each result is recorded as it arrives, in enumeration order, so an
    # interrupted run keeps every combo finished before the interruption
    if workers > 1:
        # imported here: it loads multiprocessing, which no serial run needs
        from concurrent.futures import ProcessPoolExecutor
    args = (repeat(base), [combos[idx] for idx in pending], repeat(exp), repeat(refs),
            repeat(paths))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        fresh = pool.map(evaluate_combo, *args) if pool else map(evaluate_combo, *args)
        for idx, metrics in zip(pending, fresh):
            results[idx] = metrics
            ledger.record(scenario, exp.base_seed, metrics)
    usable = [(i, m) for i, m in enumerate(results) if not m.unstable]
    if not usable:
        raise CalibrationError(f"scenario {scenario}: every combo unstable")
    best_idx, best = min(usable, key=lambda im: (im[1].mean_ot, abs(im[1].hill - 3.0), im[0]))
    return CalibrationResult(best=best, per_combo=results)


def make_student_t_refs(spec: RefsSpec) -> list[PointCloud]:
    """Synthetic stand-ins for real tail clouds: Student-t return samples."""
    refs = []
    for m in range(spec.count):
        rng = np.random.default_rng([spec.seed, m])
        returns = rng.standard_t(spec.df, size=spec.n_samples)
        refs.append(build_tail_cloud(np.abs(standardize(returns))))
    return refs


# uncalled: perfbench/tracing.py wraps it by name, so it goes when the benchmark drops it
def scenario_stylized_facts(result: CalibrationResult) -> StylizedFactReport | None:
    """Stylized facts at a scenario's best combo, from its calibration pass."""
    return result.best.stylized
