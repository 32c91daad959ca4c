"""Command-line entry point: simulate one trial, score bar files, run experiments.

All behavior is driven by a single JSON config resolved against built-in
defaults; `--print-config` dumps the resolved document whose sha256 digest
goes into every run manifest. Exit codes: 0 success, 2 config error, 3 data
error, 4 a requested scenario with no stable combo.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from itertools import islice
from pathlib import Path
from types import NoneType

import numpy as np

from . import __version__
from .calibration import (CalibrationError, ComboLedger, LedgerError, calibrate,
                          enumerate_combos, make_student_t_refs, trial_path_index)
# perfbench and scripts read resolve_config and parameter_grid from this module
from .config import (MAX_COUNT, ConfigError, RefsSpec, config_digest, experiment_config,
                     parameter_grid, read_input, resolve_config, run_digest, simulation_config)
from .engine import TickRecord, run
from .metrics import (ABS_AUTOCORR_LAGS, DegenerateSeriesError, build_tail_cloud, hill_index,
                      ot_distance, standardize, stylized_facts)
from .tables import (FIG5_COLUMNS, QUARTET, SYNERGY_COLUMNS, TABLE2_COLUMNS, TABLE4_COLUMNS,
                     sweep_lambda_c, synergy_rows, table2_rows, table4_rows)
from .timegrid import (MINUTES_PER_DAY, BarSeries, DegenerateDayError, TransactionPath,
                       assign_calendar_time, log_returns, scaled_path_from_counts,
                       synthetic_reference_path)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DEGENERATE = 4


class DataError(ValueError):
    pass


def load_paths(resolved: dict, paths_file: str | None) -> list[TransactionPath]:
    """Reference transaction paths: a counts CSV, or seeded synthetic days."""
    if paths_file is not None:
        rows = read_number_rows(paths_file, "paths", "count", MINUTES_PER_DAY)
        try:
            return [scaled_path_from_counts(counts) for counts in rows]
        except DegenerateDayError as exc:
            raise DataError(f"paths file {paths_file}: {exc}") from None
    spec = experiment_config(resolved).paths
    rng = np.random.default_rng(spec.seed)
    shapes = ("uniform", "ushape")
    return [synthetic_reference_path(rng, shapes[i % 2], spec.mean_total)
            for i in range(spec.count)]


# per kind of cell: its dtype, its open bounds, and those bounds in words
_CELLS = {"number": (float, -math.inf, math.inf, "finite"),
          "price": (float, 0, math.inf, "positive and finite"),
          "count": (np.int64, -1, MAX_COUNT + 1, f"an integer in [0, {MAX_COUNT}]")}


def _parse(noun: str, cells: list[str]) -> np.ndarray | None:
    """The cells as one array, or None if one is not a `noun` in bounds."""
    dtype, low, high, _ = _CELLS[noun]
    try:
        values = np.array(cells, dtype=dtype)
        return values if ((values > low) & (values < high)).all() else None
    except (ValueError, OverflowError):
        return None


def read_number_rows(file, what: str, noun: str, width: int | None) -> list[np.ndarray]:
    """Each data row of a CSV input file as one array of `noun` cells.

    Blank rows are skipped, and so is a first row with no finite number after
    its first cell: a header. A row is a day label and two or more numbers
    (`width` None), or `width` numbers after an optional day label."""
    rows = []
    text = read_input(file, what, DataError)
    for row_no, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if not row or (row_no == 1 and len(row) > 1 and all(
                # a cell that starts with a letter is never a finite number
                cell.lstrip()[:1].isalpha() or _parse("number", [cell]) is None
                for cell in row[1:])):
            continue
        first = 1 if width is None or len(row) == width + 1 else 0
        if (len(row) < 3) if width is None else (len(row) - first != width):
            raise DataError(f"{what} file {file}: row {row_no} has {len(row)} columns, need "
                            f"{'a day label and 2 or more' if width is None else width} {noun}s")
        values = _parse(noun, row[first:])
        if values is None:  # name the first bad cell
            col = next(col for col in range(first, len(row)) if _parse(noun, [row[col]]) is None)
            raise DataError(f"{what} file {file}: row {row_no}, column {col + 1}: "
                            f"{noun} {row[col]!r} is not {_CELLS[noun][3]}")
        rows.append(values)
    if not rows:
        raise DataError(f"{what} file {file}: no data rows")
    return rows


def read_bar_price_rows(file, what: str = "bars") -> list[np.ndarray]:
    """A bars CSV: day label and two or more prices, so toy files read too."""
    return read_number_rows(file, what, "price", None)


def pooled_bar_returns(files: list[str], what: str = "bars") -> np.ndarray:
    return np.concatenate([log_returns(prices) for file in files
                           for prices in read_bar_price_rows(file, what)])


def ref_cloud(file):
    """A refs file's tail cloud, over the returns of all its days."""
    pooled = pooled_bar_returns([file], "refs")
    try:
        return build_tail_cloud(np.abs(standardize(pooled)))
    except ValueError as exc:  # too few returns, or degenerate ones
        raise DataError(f"refs file {file}: {exc}") from exc


def load_refs(spec: RefsSpec, refs_files: list[str] | None) -> list:
    """Reference tail clouds: one per refs file, or Student-t draws."""
    if refs_files:
        return [ref_cloud(file) for file in refs_files]
    try:
        return make_student_t_refs(spec)
    except ValueError as exc:  # degenerate draws, such as the infinite ones of a tiny df
        raise ConfigError(f"invalid experiment.refs: {exc}") from None


def make_out_dir(out: str) -> Path:
    """The output directory, made if missing; a config error if it cannot be."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: {exc.strerror or exc}") from None
    return Path(out)


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


SERIES_COLUMNS = ("step", "mid_price", "log_return", "optimists_rate")
TICKS_CSV_COLUMNS = TickRecord._fields
BARS_CSV_HEADER = ("day_id",) + tuple(f"m{m:03d}" for m in range(1, MINUTES_PER_DAY + 1))


_BLOCK_ROWS = 256  # rows formatted per write, so a file's text never sits whole in memory


def _cell_text(cell) -> str:
    return "" if cell is None else str(cell)


def _column_texts(column: tuple):
    """The text of each cell of one block's column. A column whose cells are
    all floats, all ints or all strings (None aside) makes each distinct
    cell's text once, since equal cells of one such type print alike; the
    one exception, 0.0 and -0.0, is formatted cell by cell. Other columns,
    where 1, 1.0 and True would be one key, are formatted cell by cell."""
    kinds = set(map(type, column))
    kinds.discard(NoneType)
    if len(kinds) != 1 or not kinds <= {float, int, str}:
        return map(_cell_text, column)
    memo = {cell: _cell_text(cell) for cell in set(column)}
    if float in kinds and 0.0 in column:
        return [memo[cell] if cell else _cell_text(cell) for cell in column]
    return map(memo.__getitem__, column)


def _write_csv(path, columns: tuple[str, ...], rows) -> None:
    """One header row, then the rows, in the bytes csv.writer writes: each
    cell as str(cell), None as an empty cell, `,` between cells and `\r\n`
    after each row. For a float (numpy scalars included) str is its shortest
    round-trip text. Rows are formatted and written a block at a time, each
    distinct cell's text made once per column of a block. No cell may need
    quoting (a `,`, a quote or a line break), and the rows of a block must
    be of one width."""
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        while block := list(islice(rows, _BLOCK_ROWS)):
            lines = map(",".join, zip(*map(_column_texts, zip(*block, strict=True))))
            fh.write("\r\n".join(lines) + "\r\n")


def write_ticks_csv(ticks: list[TickRecord], path) -> None:
    """Stable column order and shortest round-trip floats, so equal runs
    serialize to identical bytes."""
    _write_csv(path, TICKS_CSV_COLUMNS, ticks)


def write_bars_csv(bars_list: list[BarSeries], path) -> None:
    _write_csv(path, BARS_CSV_HEADER,
               ((bars.day_id, *bars.mid_prices.tolist()) for bars in bars_list))


def cmd_simulate(args, resolved: dict) -> int:
    config = simulation_config(resolved)
    exp = experiment_config(resolved)
    paths = load_paths(resolved, args.paths)
    out_dir = make_out_dir(args.out)
    output = run(config)
    path = paths[trial_path_index(exp.path_seed, 0, len(paths))]

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
    rows = [(step, mids[step], math.log(mids[step] / mids[step - 1]),
             output.optimists_rate[step - 1]) for step in range(1, config.t_sim + 1)]
    _write_csv(series_path, SERIES_COLUMNS, rows)

    manifest_path = write_manifest(out_dir, "simulate", resolved, (config.seed, config.seed),
                                   [p.name for p in (ticks_path, bars_path, series_path)])
    print(f"simulate: {len(output.trades)} trades over {config.t_sim} steps -> {out_dir}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def cmd_metrics(args, resolved: dict) -> int:
    if not args.bars:
        raise ConfigError("metrics requires at least one bars CSV")
    pooled = pooled_bar_returns(args.bars)
    lags = tuple(lag for lag in ABS_AUTOCORR_LAGS if pooled.size > lag + 1)
    if not lags:
        raise DataError(f"too few returns for metrics: {pooled.size}")
    refs = [ref_cloud(file) for file in args.refs or []]
    try:
        cloud = build_tail_cloud(np.abs(standardize(pooled)))
        hill = hill_index(cloud)
        facts = stylized_facts(pooled, lags=lags)
    except DegenerateSeriesError as exc:
        raise DataError(f"degenerate pooled returns: {exc}") from exc
    ots = [ot_distance(cloud, ref) for ref in refs]
    report = {
        "n_returns": int(pooled.size),
        "hill": hill,
        "k_used": cloud.size,
        "mean_ot": float(np.mean(ots)) if ots else None,
        "ot_std": float(np.std(ots)) if ots else None,
        "per_ref_ot": [{"ref": file, "ot": ot} for file, ot in zip(args.refs or [], ots)],
        "kurtosis": facts.kurtosis,
        "vol_volume_corr": None,  # bar files carry no volumes
        "abs_autocorr": {str(lag): val for lag, val in facts.abs_autocorr.items()},
    }
    out_dir = make_out_dir(args.out)
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    cloud_path = out_dir / "tail_cloud.csv"
    _write_csv(cloud_path, ("tail_log_ratio",), [(v,) for v in cloud.points.tolist()])
    write_manifest(out_dir, "metrics", resolved, None, [report_path.name, cloud_path.name])
    print(f"metrics: hill={hill:.4f} k={cloud.size} n={pooled.size} -> {report_path}")
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


def cmd_experiment(args, resolved: dict) -> int:
    scenarios = parse_scenarios(args.scenarios)
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    base = simulation_config(resolved)
    exp = experiment_config(resolved)
    for n in scenarios:
        if not enumerate_combos(n, exp.grid, base.population.cash):
            raise ConfigError(f"the grid holds no combo for scenario {n}")
    paths = load_paths(resolved, args.paths)
    refs = load_refs(exp.refs, args.refs)

    out_dir = make_out_dir(args.out)
    ledger_path = out_dir / "ledger.jsonl"
    digest = run_digest(resolved, args.refs, args.paths)
    try:
        if ledger_path.exists() and not args.resume:
            ledger_path.unlink()
        ledger = ComboLedger(ledger_path, digest)
    except LedgerError as exc:
        raise DataError(str(exc)) from exc
    except OSError as exc:
        raise DataError(f"ledger {ledger_path}: {exc.strerror or exc}") from None

    results = {}
    for n in scenarios:
        results[n] = calibrate(n, exp, base, refs, paths, ledger=ledger, workers=args.workers)
        best = results[n].best
        print(f"scenario {n}: hill={best.hill:.4f} mean_ot={best.mean_ot:.6f} "
              f"combo={asdict(best.combo)}", flush=True)
    tables = {"table2.csv": (TABLE2_COLUMNS, table2_rows(results)),
              "table4.csv": (TABLE4_COLUMNS, table4_rows(results))}
    if set(QUARTET) <= results.keys():
        tables["synergy.csv"] = (SYNERGY_COLUMNS, synergy_rows(results))
        tables["fig5.csv"] = (FIG5_COLUMNS, sweep_lambda_c(exp.grid, results))
    for name, (columns, rows) in tables.items():
        _write_csv(out_dir / name, columns, rows)

    write_manifest(out_dir, "experiment", resolved,
                   (exp.base_seed, exp.base_seed + exp.trials - 1), [ledger_path.name, *tables])
    print(f"experiment: {len(scenarios)} scenarios x {exp.trials} trials -> {out_dir}")
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
    args = build_parser().parse_args(argv)
    try:
        resolved = resolve_config(args.config, args.seed, args.command,
                                  getattr(args, "trials", None))
        if args.print_config:
            print(json.dumps(resolved, indent=2, sort_keys=True))
            return EXIT_OK
        return args.func(args, resolved)
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
