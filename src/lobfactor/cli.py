"""Command-line entry point: simulate one trial, score bar files, run experiments.

All behavior is driven by a single JSON config resolved against built-in
defaults; `--print-config` dumps the resolved document whose sha256 digest
goes into every run manifest. Exit codes: 0 success, 2 config error, 3 data
error, 4 runtime degeneracy.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    CalibrationError,
    ComboLedger,
    LedgerError,
    ParameterGrid,
    ScenarioSpec,
    calibrate,
    enumerate_combos,
    make_student_t_refs,
    sweep_lambda_c,
    trial_path_index,
)
from .engine import ConfigurationError, SimulationConfig, TickRecord, run, validate_config
from .metrics import (
    DegenerateSeriesError,
    build_tail_cloud,
    hill_index,
    ot_distance,
    standardize,
    stylized_facts,
    theoretical_hill,
)
from .timegrid import (
    MINUTES_PER_DAY,
    BarSeries,
    TransactionPath,
    assign_calendar_time,
    read_count_paths_csv,
    synthetic_reference_path,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DEGENERATE = 4

SEED_ENV_VAR = "LOBFACTOR_SEED"


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


def _json(value):
    """A dataclass default as a JSON value: tuples become lists."""
    return json.loads(json.dumps(value))


DEFAULT_CONFIG: dict = {
    "simulation": _json(asdict(SimulationConfig())),
    "experiment": {
        "trials": 20,
        "base_seed": 1000,
        "path_seed": 7701,
        "grid": _json({k: v for k, v in asdict(ParameterGrid()).items() if k != "cash_options"}),
        "refs": {"count": 18, "n_samples": 30_000, "df": 3.0, "seed": 777},
        "paths": {"count": 6, "seed": 4242, "mean_total": 30_000},
    },
}


def _merge(defaults: dict, override: dict, prefix: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        path = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config field: {path}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config field {path} must be an object")
            out[key] = _merge(defaults[key], value, prefix=f"{path}.")
        else:
            if value is None:
                raise ConfigError(f"config field {path} is missing a value")
            out[key] = value
    return out


def resolve_config(config_path: str | None, seed_flag: int | None, command: str) -> dict:
    """Defaults <- config file <- LOBFACTOR_SEED <- --seed, narrowing wins."""
    override: dict = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {config_path}")
        try:
            override = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(override, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
    resolved = _merge(DEFAULT_CONFIG, override)
    seed = None
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")
    if seed_flag is not None:
        seed = seed_flag
    if seed is not None:
        if command == "experiment":
            resolved["experiment"]["base_seed"] = seed
        else:
            resolved["simulation"]["seed"] = seed
    return resolved


def config_digest(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_digest(resolved: dict, refs_files: list[str] | None, paths_file: str | None) -> str:
    """sha256 of the resolved config's digest and the bytes of each input
    file: what a ledger line must match to be reused on resume."""
    def file_digest(file: str) -> str:
        return hashlib.sha256(Path(file).read_bytes()).hexdigest()

    inputs = {"config": config_digest(resolved),
              "refs": [file_digest(file) for file in refs_files or []],
              "paths": file_digest(paths_file) if paths_file else None}
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def _build(cls, section: dict, path: str, **given):
    """A `cls` from a resolved config section, each value converted to the
    type of the field's default; fields in `given` are passed as they are."""
    default = cls()
    values = {f.name: _convert(getattr(default, f.name), section[f.name], f"{path}.{f.name}")
              for f in fields(cls) if f.name not in given}
    return cls(**values, **given)


def _convert(default, value, path: str):
    """`value` as the type of `default`: dataclasses field by field, tuples
    element by element."""
    if is_dataclass(default):
        return _build(type(default), value, path)
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"config field {path} must be a list, got {value!r}")
        return tuple(_convert(default[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    try:
        converted = type(default)(value)
        if isinstance(value, float) and converted != value:
            raise ValueError  # a fraction cut off, a number made text, or NaN
        return converted
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config field {path} must be of type {type(default).__name__}, "
                          f"got {value!r}") from None


def _validated(config: SimulationConfig, path: str) -> SimulationConfig:
    try:
        validate_config(config)
    except ConfigurationError as exc:
        raise ConfigError(f"invalid {path}: {exc}") from None
    return config


def simulation_config(resolved: dict) -> SimulationConfig:
    return _validated(_build(SimulationConfig, resolved["simulation"], "simulation"),
                      "simulation config")


def parameter_grid(resolved: dict) -> ParameterGrid:
    """The search grid; cash options share the simulation's cash bounds, and
    every axis value must make a valid simulation config."""
    base = simulation_config(resolved)
    cash = base.population.cash
    grid = _build(ParameterGrid, resolved["experiment"]["grid"], "experiment.grid",
                  cash_options=(replace(cash, kind="uniform"), replace(cash, kind="pareto")))
    for axis in resolved["experiment"]["grid"]:
        for value in getattr(grid, axis):
            population = replace(base.population, **{axis: value})
            _validated(replace(base, population=population), f"experiment.grid.{axis}")
    return grid


def _whole(section: dict, key: str, path: str, minimum: int = 0) -> int:
    """section[key] as an integer no less than `minimum`."""
    value = _convert(0, section[key], f"{path}.{key}")
    if value < minimum:
        raise ConfigError(f"config field {path}.{key} must be >= {minimum}, got {value}")
    return value


def load_paths(resolved: dict, paths_file: str | None) -> list[TransactionPath]:
    """Reference transaction paths: a counts CSV, or seeded synthetic days."""
    if paths_file is not None:
        try:
            return read_count_paths_csv(paths_file)
        except (ValueError, OSError) as exc:
            raise DataError(f"paths file {paths_file}: {exc}") from exc
    spec = resolved["experiment"]["paths"]
    count = _whole(spec, "count", "experiment.paths", minimum=1)
    try:
        mean_total = float(spec["mean_total"])
        if not mean_total >= 1:  # a day must be able to hold a transaction
            raise ValueError(f"mean_total must be >= 1, got {spec['mean_total']!r}")
        rng = np.random.default_rng(int(spec["seed"]))
        shapes = ["uniform", "ushape"]
        return [synthetic_reference_path(rng, shape=shapes[i % 2], mean_total=mean_total)
                for i in range(count)]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid experiment.paths: {exc}") from None


def read_bar_price_rows(file) -> list[np.ndarray]:
    """Lenient bar reader: day_id plus two or more prices per row.

    Accepts short toy files alongside full 300-minute days; malformed cells
    are reported with their row and column.
    """
    rows = []
    try:
        fh = open(file, newline="")
    except OSError as exc:
        raise DataError(f"bars file {file}: {exc}") from exc
    with fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if row_no == 1 and row[0] == "day_id":
                continue
            if len(row) < 3:
                raise DataError(f"{file}: row {row_no} has {len(row)} columns, "
                                "need day_id plus at least 2 prices")
            prices = np.empty(len(row) - 1)
            for col, cell in enumerate(row[1:], start=2):
                try:
                    prices[col - 2] = float(cell)
                except ValueError:
                    raise DataError(f"{file}: row {row_no}, column {col}: "
                                    f"non-numeric price {cell!r}") from None
                if prices[col - 2] <= 0:
                    raise DataError(f"{file}: row {row_no}, column {col}: "
                                    f"non-positive price {cell}")
            rows.append(prices)
    if not rows:
        raise DataError(f"{file}: no data rows")
    return rows


def pooled_bar_returns(files: list[str]) -> np.ndarray:
    parts = []
    for file in files:
        for prices in read_bar_price_rows(file):
            parts.append(np.diff(np.log(prices)))
    return np.concatenate(parts)


def load_refs(resolved: dict, refs_files: list[str] | None):
    """Reference tail clouds: pooled returns of each bars CSV, or Student-t draws."""
    if refs_files:
        clouds = []
        for file in refs_files:
            pooled = pooled_bar_returns([file])
            try:
                clouds.append(build_tail_cloud(np.abs(standardize(pooled)), source_id=str(file)))
            except DegenerateSeriesError as exc:
                raise DataError(f"refs file {file}: {exc}") from exc
        return clouds
    spec = resolved["experiment"]["refs"]
    count = _whole(spec, "count", "experiment.refs", minimum=1)
    try:
        return make_student_t_refs(m_refs=count, n_samples=int(spec["n_samples"]),
                                   df=float(spec["df"]), refs_seed=int(spec["seed"]))
    except (TypeError, ValueError, OverflowError) as exc:  # DegenerateSeriesError included
        raise ConfigError(f"invalid experiment.refs: {exc}") from None


def write_manifest(out_dir: Path, command: str, resolved: dict,
                   seed_range: tuple[int, int] | None, output_paths: list[str]) -> Path:
    """out_dir/manifest.json: the command, the resolved config's digest, the
    seeds run and the output file names."""
    target = out_dir / "manifest.json"
    payload = {
        "command": command,
        "config_digest": config_digest(resolved),
        "seed_range": list(seed_range) if seed_range else None,
        "output_paths": sorted(output_paths),
        "tool_version": __version__,
    }
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["command", "config_digest", "seed_range", "output_paths", "tool_version"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string", "enum": ["simulate", "metrics", "experiment"]},
        "config_digest": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "seed_range": {
            "oneOf": [
                {"type": "null"},
                {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
            ]
        },
        "output_paths": {"type": "array", "items": {"type": "string"}},
        "tool_version": {"type": "string"},
    },
}

METRICS_REPORT_SCHEMA = {
    "type": "object",
    "required": ["n_returns", "hill", "k_used", "mean_ot", "ot_std", "per_ref_ot",
                 "kurtosis", "vol_volume_corr", "abs_autocorr"],
    "additionalProperties": False,
    "properties": {
        "n_returns": {"type": "integer", "minimum": 1},
        "hill": {"type": "number", "exclusiveMinimum": 0},
        "k_used": {"type": "integer", "minimum": 1},
        "mean_ot": {"oneOf": [{"type": "number", "minimum": 0}, {"type": "null"}]},
        "ot_std": {"oneOf": [{"type": "number", "minimum": 0}, {"type": "null"}]},
        "per_ref_ot": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["ref", "ot"],
                "additionalProperties": False,
                "properties": {"ref": {"type": "string"}, "ot": {"type": "number"}},
            },
        },
        "kurtosis": {"type": "number"},
        "vol_volume_corr": {"oneOf": [{"type": "number"}, {"type": "null"}]},
        "abs_autocorr": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
    },
}

TABLE2_COLUMNS = ("scenario", "cash_kind", "lambda_c", "lambda_m", "nu", "alpha",
                  "hill", "k_used", "mean_ot", "ot_std", "n_trials", "n_degenerate",
                  "n_pooled")
TABLE4_COLUMNS = ("scenario", "kurtosis", "vol_volume_corr",
                  "abs_autocorr_1", "abs_autocorr_10", "abs_autocorr_20", "abs_autocorr_30")
SYNERGY_COLUMNS = ("observed_hill_4", "theoretical_hill_4", "observed_lower")
FIG5_COLUMNS = ("lambda_c", "series", "hill_mean", "hill_std", "n_points")
SERIES_COLUMNS = ("step", "mid_price", "log_return", "optimists_rate")
TICKS_CSV_COLUMNS = ("step", "event", "market_price", "mid_price", "best_bid", "best_ask",
                     "order_volume", "exec_volume", "n_optimists")
BARS_CSV_HEADER = ("day_id",) + tuple(f"m{m:03d}" for m in range(1, MINUTES_PER_DAY + 1))


def _write_csv(path, columns: tuple[str, ...], rows) -> None:
    """One header row, then the rows; csv writes None as an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _fmt(value) -> object:
    """A float (numpy scalars included) as its shortest round-trip text;
    anything else as it is."""
    return repr(float(value)) if isinstance(value, float) else value


def write_ticks_csv(ticks: list[TickRecord], path) -> None:
    """Stable column order and shortest round-trip floats, so equal runs
    serialize to identical bytes."""
    _write_csv(path, TICKS_CSV_COLUMNS, (
        (r.step, r.event, _fmt(r.market_price), _fmt(r.mid_price), _fmt(r.best_bid),
         _fmt(r.best_ask), r.order_volume, r.exec_volume, r.n_optimists)
        for r in ticks))


def write_bars_csv(bars_list: list[BarSeries], path) -> None:
    _write_csv(path, BARS_CSV_HEADER,
               ((bars.day_id, *map(_fmt, bars.mid_prices)) for bars in bars_list))


def cmd_simulate(args) -> int:
    resolved = resolve_config(args.config, args.seed, "simulate")
    if args.print_config:
        print(json.dumps(resolved, indent=2, sort_keys=True))
        return EXIT_OK
    config = simulation_config(resolved)
    paths = load_paths(resolved, args.paths)
    path_seed = _whole(resolved["experiment"], "path_seed", "experiment")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    output = run(config)
    path = paths[trial_path_index(path_seed, 0, len(paths))]

    ticks_path = out_dir / "ticks.csv"
    write_ticks_csv(output.ticks, ticks_path)
    bars_path = out_dir / "bars.csv"
    if output.trades:
        bars = assign_calendar_time(output, path, config.p0, day_id=f"seed{config.seed}")
        write_bars_csv([bars], bars_path)
    else:
        write_bars_csv([], bars_path)
        print("warning: no trades executed; bars.csv has no data rows", file=sys.stderr)
    series_path = out_dir / "series.csv"
    mids = [config.p0, *output.mid_prices]
    rows = [
        (step, _fmt(mids[step]), _fmt(math.log(mids[step] / mids[step - 1])),
         _fmt(output.optimists_rate[step - 1]))
        for step in range(1, config.t_sim + 1)
    ]
    _write_csv(series_path, SERIES_COLUMNS, rows)

    manifest_path = write_manifest(out_dir, "simulate", resolved, (config.seed, config.seed),
                                   [p.name for p in (ticks_path, bars_path, series_path)])
    print(f"simulate: {len(output.trades)} trades over {config.t_sim} steps -> {out_dir}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    resolved = resolve_config(args.config, args.seed, "metrics")
    if args.print_config:
        print(json.dumps(resolved, indent=2, sort_keys=True))
        return EXIT_OK
    if not args.bars:
        raise ConfigError("metrics requires at least one bars CSV")
    pooled = pooled_bar_returns(args.bars)
    lags = tuple(lag for lag in (1, 10, 20, 30) if pooled.size > lag + 1)
    if not lags:
        raise DataError(f"too few returns for metrics: {pooled.size}")
    refs = load_refs(resolved, args.refs) if args.refs else []
    try:
        abs_std = np.abs(standardize(pooled))
        stats = hill_index(abs_std)
        cloud = build_tail_cloud(abs_std)
        facts = stylized_facts(pooled, lags=lags)
    except DegenerateSeriesError as exc:
        raise DataError(f"degenerate pooled returns: {exc}") from exc
    per_ref = [(ref.source_id or f"ref{i}", ot_distance(cloud, ref))
               for i, ref in enumerate(refs)]
    report = {
        "n_returns": int(pooled.size),
        "hill": stats.hill,
        "k_used": stats.k_used,
        "mean_ot": float(np.mean([ot for _, ot in per_ref])) if per_ref else None,
        "ot_std": float(np.std([ot for _, ot in per_ref])) if per_ref else None,
        "per_ref_ot": [{"ref": name, "ot": ot} for name, ot in per_ref],
        "kurtosis": facts.kurtosis,
        "vol_volume_corr": None,  # bar files carry no volumes
        "abs_autocorr": {str(lag): val for lag, val in facts.abs_autocorr.items()},
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    cloud_path = out_dir / "tail_cloud.csv"
    _write_csv(cloud_path, ("tail_log_ratio",),
               [(_fmt(float(v)),) for v in cloud.points[:, 0]])
    write_manifest(out_dir, "metrics", resolved, None, [report_path.name, cloud_path.name])
    print(f"metrics: hill={stats.hill:.4f} k={stats.k_used} n={pooled.size} -> {report_path}")
    return EXIT_OK


def parse_scenarios(raw: str) -> tuple[int, ...]:
    if raw.strip().lower() == "all":
        return tuple(range(8))
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            n = int(part)
        except ValueError:
            raise ConfigError(f"invalid scenario {part!r}: must be 0..7 or 'all'")
        if not 0 <= n <= 7:
            raise ConfigError(f"invalid scenario {n}: must be 0..7 or 'all'")
        out.append(n)
    if not out:
        raise ConfigError("no scenarios requested")
    return tuple(dict.fromkeys(out))  # dedupe, keep order


def cmd_experiment(args) -> int:
    resolved = resolve_config(args.config, args.seed, "experiment")
    if args.trials is not None:
        resolved["experiment"]["trials"] = args.trials
    if args.print_config:
        print(json.dumps(resolved, indent=2, sort_keys=True))
        return EXIT_OK
    scenarios = parse_scenarios(args.scenarios)
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    exp = resolved["experiment"]
    trials = _whole(exp, "trials", "experiment", minimum=1)
    base_seed = _whole(exp, "base_seed", "experiment")
    path_seed = _whole(exp, "path_seed", "experiment")
    base = simulation_config(resolved)
    grid = parameter_grid(resolved)
    for n in scenarios:
        if not enumerate_combos(ScenarioSpec.from_number(n), grid):
            raise ConfigError(f"the grid holds no combo for scenario {n}")
    paths = load_paths(resolved, args.paths)
    refs = load_refs(resolved, args.refs)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger_path = out_dir / "ledger.jsonl"
    if ledger_path.exists() and not args.resume:
        ledger_path.unlink()
    try:
        ledger = ComboLedger(ledger_path, run_digest(resolved, args.refs, args.paths))
    except LedgerError as exc:
        raise DataError(str(exc)) from exc

    results = {
        n: calibrate(ScenarioSpec.from_number(n), grid, trials, refs, paths, base=base,
                     base_seed=base_seed, path_seed=path_seed, ledger=ledger,
                     workers=args.workers)
        for n in scenarios
    }

    table2, table4 = [], []
    for n in scenarios:
        best = results[n].best
        c, facts = best.combo, best.stylized  # facts are None where undefined
        table2.append((n, c.cash.kind, _fmt(c.lambda_c), _fmt(c.lambda_m), _fmt(c.nu),
                       _fmt(c.alpha), _fmt(best.hill), best.k_used, _fmt(best.mean_ot),
                       _fmt(best.ot_std), best.n_trials, best.n_degenerate, best.n_pooled))
        cells = (None,) * 6 if facts is None else (
            facts.kurtosis, facts.vol_volume_corr,
            *(facts.abs_autocorr.get(lag) for lag in (1, 10, 20, 30)))
        table4.append((n, *map(_fmt, cells)))
        print(f"scenario {n}: hill={best.hill:.4f} mean_ot={best.mean_ot:.6f} "
              f"combo={c.key()}")
    _write_csv(out_dir / "table2.csv", TABLE2_COLUMNS, table2)
    _write_csv(out_dir / "table4.csv", TABLE4_COLUMNS, table4)
    outputs = [ledger_path.name, "table2.csv", "table4.csv"]

    if {0, 1, 2, 4} <= set(scenarios):
        # does the combined scenario 4 sit below the additive prediction?
        hills = {n: results[n].best.hill for n in (0, 1, 2, 4)}
        theoretical = theoretical_hill(hills[0], hills[1], hills[2])
        _write_csv(out_dir / "synergy.csv", SYNERGY_COLUMNS,
                   [(_fmt(hills[4]), _fmt(theoretical), hills[4] < theoretical)])
        sweep = sweep_lambda_c(grid, [m for n in (0, 1, 2, 4) for m in results[n].per_combo])
        _write_csv(out_dir / "fig5.csv", FIG5_COLUMNS,
                   [(_fmt(r["lambda_c"]), r["series"], _fmt(r["hill_mean"]),
                     _fmt(r["hill_std"]), r["n_points"]) for r in sweep])
        outputs += ["synergy.csv", "fig5.csv"]

    write_manifest(out_dir, "experiment", resolved, (base_seed, base_seed + trials - 1), outputs)
    print(f"experiment: {len(scenarios)} scenarios x {trials} trials -> {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file merged over defaults")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--print-config", action="store_true",
                        help="print the resolved config and exit")

    parser = argparse.ArgumentParser(prog="lobfactor",
                                     description="order-book market simulator and tail metrics")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run one trial; write ticks, bars, and per-step series")
    p_sim.add_argument("--paths", help="per-minute transaction-count CSV for bar resampling")
    p_sim.set_defaults(func=cmd_simulate)

    p_met = sub.add_parser("metrics", parents=[common],
                           help="score bars CSVs: Hill, tail cloud, OT, stylized facts")
    p_met.add_argument("bars", nargs="*", help="bars CSV files to pool")
    p_met.add_argument("--refs", nargs="*", help="reference bars CSVs for OT")
    p_met.set_defaults(func=cmd_metrics)

    p_exp = sub.add_parser("experiment", parents=[common],
                           help="calibrate scenarios and emit result tables")
    p_exp.add_argument("--scenarios", default="all", help="comma list of 0..7, or 'all'")
    p_exp.add_argument("--trials", type=int, help="trials per combo")
    p_exp.add_argument("--refs", nargs="*", help="reference bars CSVs (default: Student-t)")
    p_exp.add_argument("--paths", help="per-minute transaction-count CSV")
    p_exp.add_argument("--workers", type=int, default=1, help="parallel combo evaluations")
    p_exp.add_argument("--resume", action="store_true",
                       help="reuse the output directory's combo ledger")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CalibrationError as exc:
        print(f"degenerate run: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
