"""CLI behavior: config resolution, subcommands, exit codes, artifacts."""

import ast
import copy
import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from schemas import MANIFEST_SCHEMA, METRICS_REPORT_SCHEMA

import lobfactor
import lobfactor.calibration as calibration_mod
import lobfactor.cli as cli_mod
import lobfactor.config as config_mod
from lobfactor.calibration import ComboMetrics
from lobfactor.cli import (
    BARS_CSV_HEADER,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DEGENERATE,
    EXIT_OK,
    TABLE2_COLUMNS,
    ConfigError,
    config_digest,
    experiment_config,
    main,
    parse_scenarios,
    read_bar_price_rows,
    resolve_config,
    run_digest,
    simulation_config,
)
from lobfactor.config import ExperimentConfig, SimulationConfig, validate_config
from lobfactor.metrics import DegenerateSeriesError, StylizedFactReport
from lobfactor.orderbook import price_of
from lobfactor.timegrid import MINUTES_PER_DAY

DEFAULTS = resolve_config(None, None, "simulate")  # the default document


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def sim_config(tmp_path) -> str:
    return write_json(tmp_path / "cfg.json", {
        "simulation": {
            "t_sim": 250,
            "no_exec_windows": [[1, 20], [120, 130]],
            "population": {"n_agents": 30, "alpha": 0.3},
        },
        "experiment": {
            "trials": 2,
            "refs": {"count": 2, "n_samples": 2000},
            "paths": {"count": 3},
            "grid": {
                "lambda_c": [0.0, 2.5],
                "lambda_m": [0.0, 5e-5],
                "nu": [0.3],
                "alpha": [0.1, 0.3],
            },
        },
    })


class TestConfigResolution:
    def test_defaults_carry_published_constants(self):
        resolved = resolve_config(None, None, "simulate")
        sim = resolved["simulation"]
        assert sim["population"]["n_agents"] == 200
        assert sim["t_sim"] == 2110
        assert sim["p0"] == 300.0
        assert sim["tick_size"] == 1e-4

    def test_print_config_round_trips(self, capsys):
        assert main(["simulate", "--print-config"]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert printed == resolve_config(None, None, "simulate")

    def test_file_overrides_merge_over_defaults(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"simulation": {"seed": 9}})
        resolved = resolve_config(path, None, "simulate")
        assert resolved["simulation"]["seed"] == 9
        assert resolved["simulation"]["t_sim"] == DEFAULTS["simulation"]["t_sim"]

    def test_unknown_field_diagnostic_names_field(self, tmp_path, capsys):
        path = write_json(tmp_path / "c.json", {"simulation": {"populaton": {}}})
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "simulation.populaton" in capsys.readouterr().err

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert main(["simulate", "--config", missing, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "absent.json" in capsys.readouterr().err

    def test_null_value_is_named(self, tmp_path, capsys):
        path = write_json(tmp_path / "c.json", {"simulation": {"seed": None}})
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "simulation.seed" in capsys.readouterr().err

    def test_seed_flag_beats_config_seed(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"simulation": {"seed": 3}})
        assert resolve_config(path, 7, "simulate")["simulation"]["seed"] == 7

    def test_experiment_seed_lands_on_base_seed(self):
        resolved = resolve_config(None, 7, "experiment")
        assert resolved["experiment"]["base_seed"] == 7
        assert resolved["simulation"]["seed"] == DEFAULTS["simulation"]["seed"]

    def test_digest_is_stable_and_sensitive(self):
        a = resolve_config(None, None, "simulate")
        b = resolve_config(None, None, "simulate")
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(resolve_config(None, 1, "simulate"))


def _replaceable_nodes(doc, path=()):
    """Paths of every value in a config document that is not a section."""
    if not isinstance(doc, (dict, list)):
        return [path]
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    nodes = [path] if isinstance(doc, list) else []
    return nodes + [p for key, value in items for p in _replaceable_nodes(value, (*path, key))]


BUILT_NODES = _replaceable_nodes(DEFAULTS)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=2),
    max_leaves=6,
)


class TestBuildConfig:
    @settings(max_examples=300, deadline=None)
    @given(mutations=st.lists(st.tuples(st.sampled_from(BUILT_NODES), JSON_VALUES),
                              min_size=1, max_size=3))
    def test_mutated_default_builds_or_raises_config_error(self, mutations, tmp_path_factory):
        doc = copy.deepcopy(DEFAULTS)
        for path, value in sorted(mutations, key=lambda m: -len(m[0])):  # children first
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        for build in (simulation_config, experiment_config):
            try:
                build(doc)
            except ConfigError:
                pass
        # a document resolves only if the engine takes every config it names
        target = tmp_path_factory.getbasetemp() / "mutated.json"
        try:
            resolved = resolve_config(write_json(target, doc), None, "experiment")
        except ConfigError:
            return
        validate_config(simulation_config(resolved))
        assert experiment_config(resolved).trials >= 1

    def test_defaults_round_trip_to_the_dataclasses(self):
        resolved = resolve_config(None, None, "experiment")
        assert simulation_config(resolved) == SimulationConfig()
        assert experiment_config(resolved) == ExperimentConfig()

    @pytest.mark.parametrize("document, extra", [
        ('{"simulation": {"population": {"n_agents": 0}}}', []),
        ('{"simulation": {"no_exec_windows": [[1]]}}', []),
        ('{"simulation": {"population": {"cash": {"kind": "lognormal"}}}}', []),
        ('{"simulation": {"p0": 1e309}}', []),
        ('{"simulation": {"fundamental_price": 1e309}}', []),
        ('{"simulation": {"tick_size": 1e309}}', []),
        # positive, but a price's tick count, 300 / 5e-324, is inf
        ('{"simulation": {"tick_size": 5e-324}}', []),
        ('{"simulation": {"sigma_sq_order": 1e309}}', []),
        ('{"simulation": {"t_sim": "long"}}', []),
        ('{"simulation": {"population": {"n_agents": 30.5}}}', []),
        ('{"experiment": {"grid": {"alpha": 0.1}}}', []),
        ('{"experiment": {"grid": {"alpha": []}}}', []),
        ('{"experiment": {"grid": {"alpha": [-0.1]}}}', []),
        ('{"experiment": {"refs": {"count": 0}}}', []),
        ('{"experiment": {"refs": {"df": 0}}}', []),
        ('{"experiment": {"paths": {"count": 0}}}', []),
        ('{"experiment": {"paths": {"mean_total": 0}}}', []),
        ('{"experiment": {"base_seed": -1}}', []),
        ("{}", ["--workers", "0"]),
        ('{"experiment": {"refs": {"n_samples": 2000.5}}}', []),
        ('{"experiment": {"paths": {"mean_total": 2.5}}}', []),
        ('{"experiment": {"paths": {"seed": 1.5}}}', []),
        ('{"experiment": {"trials": true}}', []),
        ('{"simulation": {"t_sim": "300"}}', []),
        ('{"simulation": {"population": {"alpha": true}}}', []),
        ('{"simulation": {"population": {"cash": {"kind": 5}}}}', []),
        ('{"experiment": {"paths": {"mean_total": 10000000000000000000}}}', []),
        ('{"experiment": {"refs": {"n_samples": 10000000000000}}}', []),
        ('{"experiment": {"refs": {"count": 100000000}}}', []),
        # Pareto scenarios run with the config's c_min and beta whatever its kind
        ('{"simulation": {"population": {"cash": {"beta": 1e-5}}}}', []),
        # positive and finite, but every draw is infinite: found only when drawn
        ('{"experiment": {"refs": {"df": 1e-300, "count": 2, "n_samples": 1000}}}', []),
        # an infinite horizon, or a warning on an overflowing draw, before these caps
        ('{"simulation": {"population": {"lambda_f": 1e306}}}', []),
        ('{"simulation": {"population": {"sigma_n": 1e308}}}', []),
        ('{"simulation": {"population": {"alpha": 1e308}}}', []),
    ])
    # a numpy warning on stderr would make the error more than one line
    @pytest.mark.filterwarnings("error")
    def test_bad_config_exits_before_writing(self, document, extra, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(document)
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(config), "--scenarios", "0",
                     "--trials", "1", "--out", str(out), *extra]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", [{"grid": {"alpha": [-0.1]}}, {"path_seed": 1.5},
                                            {"paths": {"count": 10**8}}])
    def test_simulate_checks_the_experiment_section(self, experiment, tmp_path, capsys):
        config = write_json(tmp_path / "cfg.json", {"experiment": experiment})
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("simulation, field", [
        ({"t_sim": 1e300}, "t_sim"),
        ({"population": {"n_agents": 10**12}}, "n_agents"),
        ({"population": {"w_max": 10**20}}, "w_max"),
        ({"population": {"cash": {"kind": "pareto", "beta": 1e-5}}}, "beta"),
    ])
    def test_huge_size_exits_before_any_draw(self, simulation, field, tmp_path, capsys,
                                             monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial started")

        monkeypatch.setattr(cli_mod, "run", no_trial)
        config = write_json(tmp_path / "cfg.json", {"simulation": simulation})
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert field in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_prices_near_the_largest_float_end_in_exit_0(self, seed, tmp_path):
        """The config passes every check, but prices drift near 1e308: some
        targets e**10 above the mid are inf. Such an agent places nothing,
        and the run ends like any other."""
        config = write_json(tmp_path / "cfg.json", {"simulation": {
            "p0": 1e300, "fundamental_price": 1e300, "tick_size": 1e4,
            "sigma_sq_order": 1e-304,
            "population": {"lambda_c": 2.5, "sigma_n": 1.0, "cash": {"c_max": 1e307}}}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--seed", str(seed),
                     "--out", str(out)]) == EXIT_OK
        assert (out / "manifest.json").is_file()

    def test_run_digest_covers_config_and_input_files(self, tmp_path, monkeypatch):
        resolved = resolve_config(None, None, "experiment")
        data = tmp_path / "input.csv"
        data.write_text("1\n")
        first = run_digest(resolved, None, str(data))
        assert run_digest(resolved, None, str(data)) == first
        assert run_digest(resolved, [str(data)], None) != first  # same bytes, other role
        assert run_digest(resolve_config(None, 5, "experiment"), None, str(data)) != first
        with monkeypatch.context() as patch:
            patch.setattr(config_mod, "__version__", "0.0.0")  # another program
            assert run_digest(resolved, None, str(data)) != first
        with monkeypatch.context() as patch:
            patch.setattr(np, "__version__", "1.0.0")  # another Generator stream
            assert run_digest(resolved, None, str(data)) != first
        data.write_text("2\n")
        assert run_digest(resolved, None, str(data)) != first


# the largest beta whose Pareto cash overflows at the default c_min
PARETO_EDGE_BETA = 53 * math.log(2) / (math.log(np.finfo(float).max) - math.log(5000.0))
# (field path, value at its bound, value one step past it) of a bound that spans
# fields; test_bounds.py tests the single-field rows from their tables
BOUND_EDGES = [
    (("simulation", "population", "cash", "beta"),
     PARETO_EDGE_BETA * (1 + 1e-12), PARETO_EDGE_BETA * (1 - 1e-12)),
]


def nested(path: tuple[str, ...], value) -> dict:
    """A config document giving only `value` at `path`."""
    for key in reversed(path):
        value = {key: value}
    return value


class TestConfigCheck:
    """resolve_config checks the whole document once, so every command and
    --print-config turns an invalid value into exit 2 before reading or
    writing anything. No trial, reference or path may be drawn."""

    @pytest.fixture(autouse=True)
    def no_draw(self, monkeypatch):
        for name in ("run", "make_student_t_refs", "synthetic_reference_path"):
            monkeypatch.setattr(cli_mod, name, None)
        monkeypatch.setattr(calibration_mod, "evaluate_combo", None)

    def exits_on_config(self, argv, tmp_path, capsys) -> str:
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "", captured.out
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert not out.exists()
        return captured.err

    @pytest.mark.parametrize("command", [
        ["simulate"], ["metrics", "BARS"], ["experiment", "--scenarios", "0"],
        ["simulate", "--print-config"], ["metrics", "--print-config"],
        ["experiment", "--print-config"]])
    def test_every_command_rejects_an_invalid_document(self, command, tmp_path, capsys):
        config = write_json(tmp_path / "bad.json", {
            "simulation": {"p0": -5, "population": {"n_agents": 0}},
            "experiment": {"trials": 0}})
        bars = toy_bars(tmp_path / "toy.csv", [100, 105, 95, 120, 100])
        argv = [bars if arg == "BARS" else arg for arg in command]
        self.exits_on_config([*argv, "--config", config], tmp_path, capsys)

    def test_trials_flag_is_checked_with_the_document(self, tmp_path, capsys):
        err = self.exits_on_config(["experiment", "--trials", "0", "--print-config"],
                                   tmp_path, capsys)
        assert "experiment.trials" in err

    @pytest.mark.parametrize("path, edge, past", BOUND_EDGES)
    def test_bound_rejects_one_step_past_its_edge(self, path, edge, past, tmp_path, capsys):
        config = write_json(tmp_path / "cfg.json", nested(path, past))
        assert path[-1] in self.exits_on_config(
            ["experiment", "--config", config, "--print-config"], tmp_path, capsys)

    @pytest.mark.parametrize("path, edge, past", BOUND_EDGES)
    def test_bound_admits_its_edge(self, path, edge, past, tmp_path, capsys):
        config = write_json(tmp_path / "cfg.json", nested(path, edge))
        assert main(["experiment", "--config", config, "--print-config"]) == EXIT_OK
        resolved = json.loads(capsys.readouterr().out)
        node = resolved
        for key in path:
            node = node[key]
        assert node == edge


class TestParseScenarios:
    def test_all_expands(self):
        assert parse_scenarios("all") == tuple(range(8))

    def test_comma_list_dedupes_in_order(self):
        assert parse_scenarios("2, 0,2") == (2, 0)

    @pytest.mark.parametrize("raw", ["9", "x", "", "0,,"])
    def test_invalid_rejected(self, raw):
        if raw == "0,,":
            assert parse_scenarios(raw) == (0,)
        else:
            with pytest.raises(ConfigError):
                parse_scenarios(raw)


class TestSimulate:
    def test_repeat_invocation_identical_bytes(self, sim_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", "--config", sim_config, "--seed", "7",
                         "--out", str(out)]) == EXIT_OK
        assert (a / "ticks.csv").read_bytes() == (b / "ticks.csv").read_bytes()
        assert (a / "bars.csv").read_bytes() == (b / "bars.csv").read_bytes()
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()

    def test_manifest_validates_and_points_at_outputs(self, sim_config, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--config", sim_config, "--seed", "7",
                     "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        jsonschema.validate(manifest, MANIFEST_SCHEMA)
        assert manifest["command"] == "simulate"
        assert manifest["seed_range"] == [7, 7]
        assert manifest["output_paths"] == ["bars.csv", "series.csv", "ticks.csv"]
        for name in manifest["output_paths"]:
            assert (out / name).exists()
        assert manifest["config_digest"] == config_digest(
            resolve_config(sim_config, 7, "simulate"))

    def test_series_has_one_row_per_step(self, sim_config, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--config", sim_config, "--seed", "7", "--out", str(out)])
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == "step,mid_price,log_return,optimists_rate"
        assert len(lines) == 1 + 250
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) > 0
        assert 0.0 <= float(first[3]) <= 1.0

    def test_bars_round_trip_through_strict_reader(self, sim_config, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--config", sim_config, "--seed", "7", "--out", str(out)])
        with open(out / "bars.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert tuple(header) == BARS_CSV_HEADER
        assert [row[0] for row in rows] == ["seed7"]
        prices = read_bar_price_rows(out / "bars.csv")
        assert [p.size for p in prices] == [MINUTES_PER_DAY]

    def test_default_run_prices_are_whole_ticks(self, tmp_path):
        """In a default-shape tick log, every quote and trade price is
        price_of a whole tick count, and every mid is the quote midpoint, or
        the last trade price (p0 before any trade) where a side is empty."""
        out = tmp_path / "run"
        assert main(["simulate", "--seed", "5", "--out", str(out)]) == EXIT_OK
        config = SimulationConfig()
        tick = config.tick_size
        with open(out / "ticks.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # a trade row's mid is read after all of its step's trades
        last_trade_of_step = {row["step"]: float(row["market_price"])
                              for row in rows if row["event"] == "TradeExecuted"}
        assert len(rows) > 1000 and last_trade_of_step
        for row in rows:
            prices = {k: float(row[k]) for k in ("best_bid", "best_ask", "market_price") if row[k]}
            for x in prices.values():
                assert x == price_of(round(x / tick), tick), row
            if "best_bid" in prices and "best_ask" in prices:
                want = (prices["best_bid"] + prices["best_ask"]) / 2.0
            elif row["event"] == "TradeExecuted":
                want = last_trade_of_step[row["step"]]
            else:
                want = prices.get("market_price", config.p0)
            assert float(row["mid_price"]) == want, row

    def test_tiny_normal_tick_runs(self, sim_config, tmp_path):
        document = json.loads(Path(sim_config).read_text())
        document["simulation"]["tick_size"] = 1e-300
        config = write_json(tmp_path / "tiny.json", document)
        out = tmp_path / "run"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_OK
        assert "TradeExecuted" in (out / "ticks.csv").read_text()

    def test_subnormal_risk_aversion_runs(self, sim_config, tmp_path):
        # every sizing denominator alpha_j * sigma_sq * p_t underflows to 0
        document = json.loads(Path(sim_config).read_text())
        document["simulation"]["population"]["alpha"] = 5e-324
        config = write_json(tmp_path / "tiny.json", document)
        out = tmp_path / "run"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_OK
        assert "TradeExecuted" in (out / "ticks.csv").read_text()

    def test_seed_flag_changes_output(self, sim_config, tmp_path):
        out_a = tmp_path / "a"
        main(["simulate", "--config", sim_config, "--out", str(out_a)])
        out_b = tmp_path / "b"
        main(["simulate", "--config", sim_config, "--seed", "99", "--out", str(out_b)])
        manifest = json.loads((out_b / "manifest.json").read_text())
        assert manifest["seed_range"] == [99, 99]
        assert (out_a / "ticks.csv").read_bytes() != (out_b / "ticks.csv").read_bytes()


def csv_writer_bytes(columns, rows) -> bytes:
    """The reference: what csv.writer writes for the header and the rows."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(columns)
    writer.writerows(rows)
    return fh.getvalue().encode()


ODD_CELLS = [None, math.nan, math.inf, -math.inf, np.float64(0.1), np.float64(-0.0),
             10**30, "pareto", -7, 2.5e-300, 0.1 + 0.2, True]
_mixed = np.random.default_rng(5)
BLOCK = cli_mod._BLOCK_ROWS


class TestWriteCsv:
    """_write_csv writes exactly csv.writer's bytes, over several row blocks."""

    @pytest.mark.parametrize("rows", [
        pytest.param([(z, 1.5, None if i % 7 == 0 else -z, np.float64(z))
                      for i, z in enumerate([0.0, -0.0, -0.0, 0.0, 2.0] * 300)], id="signed-zeros"),
        # one block of ints, one of floats, one of bools, then mixed blocks
        pytest.param([(1, 0)] * BLOCK + [(1.0, 0.0)] * BLOCK + [(True, False)] * BLOCK
                     + [(1.0, -0.0), (1, 0.0), (True, 0)] * 200, id="int-float-bool"),
        # one type per column, None aside, and no zero: each cell from the memo
        pytest.param([(None if i % 4 == 0 else 100.0 + i % 7, "buy" if i % 2 else None,
                       i if i % 5 else None) for i in range(600)], id="one-type-with-none"),
        pytest.param([(cell, i, ODD_CELLS[i % 5]) for i, cell in enumerate(ODD_CELLS * 60)],
                     id="odd-cells"),
        pytest.param([tuple(_mixed.choice(ODD_CELLS + [0.0, -0.0, 1, 1.0]) for _ in range(6))
                      for _ in range(1100)], id="random-mix"),
        pytest.param([("seed7", *np.linspace(299.0, 301.0, 300).tolist())], id="one-wide-row"),
        pytest.param([], id="no-rows"),
    ])
    @pytest.mark.parametrize("as_generator", [False, True])
    def test_same_bytes_as_csv_writer(self, rows, as_generator, tmp_path):
        columns = tuple(f"c{i}" for i in range(len(rows[0]) if rows else 3))
        path = tmp_path / "out.csv"
        cli_mod._write_csv(path, columns, (row for row in rows) if as_generator else rows)
        assert path.read_bytes() == csv_writer_bytes(columns, rows)

    def test_zero_trade_bars_file_is_a_header(self, tmp_path):
        path = tmp_path / "bars.csv"
        cli_mod.write_bars_csv([], path)
        assert path.read_bytes() == csv_writer_bytes(BARS_CSV_HEADER, [])


def toy_bars(path, prices) -> str:
    header = "day_id," + ",".join(f"m{i:03d}" for i in range(1, len(prices) + 1))
    row = "toy," + ",".join(str(p) for p in prices)
    path.write_text(header + "\n" + row + "\n")
    return str(path)


class TestMetrics:
    def test_file_against_itself_gives_zero_ot(self, sim_config, tmp_path):
        run_dir = tmp_path / "run"
        main(["simulate", "--config", sim_config, "--seed", "7", "--out", str(run_dir)])
        bars = str(run_dir / "bars.csv")
        out = tmp_path / "met"
        assert main(["metrics", bars, "--refs", bars, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["mean_ot"] == 0.0
        assert report["per_ref_ot"][0]["ref"] == bars

    def test_tail_cloud_rows_keep_the_nonincreasing_ratio_order(self, sim_config, tmp_path):
        run_dir = tmp_path / "run"
        main(["simulate", "--config", sim_config, "--seed", "7", "--out", str(run_dir)])
        ref = toy_bars(tmp_path / "toy.csv", [100, 105, 95, 120, 100, 90, 110])
        out = tmp_path / "met"
        assert main(["metrics", str(run_dir / "bars.csv"), "--refs", ref,
                     "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        with open(out / "tail_cloud.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tail_log_ratio"]
        values = [float(row[0]) for row in rows[1:]]
        assert len(values) == report["k_used"] > 2
        assert values == sorted(values, reverse=True) and values[0] > values[-1]

    def test_toy_five_bars_match_hand_hill(self, tmp_path):
        # closed price path: mean log-return is exactly 0, so the K=1 Hill
        # index reduces to 1 / log(largest |return| / second largest)
        bars = toy_bars(tmp_path / "toy.csv", [100, 105, 95, 120, 100])
        out = tmp_path / "met"
        assert main(["metrics", bars, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        expected = 1.0 / math.log(math.log(120 / 95) / math.log(120 / 100))
        assert report["k_used"] == 1
        assert report["n_returns"] == 4
        assert report["hill"] == pytest.approx(expected, abs=1e-12)

    def test_report_validates_against_schema(self, sim_config, tmp_path):
        jsonschema.Draft202012Validator.check_schema(METRICS_REPORT_SCHEMA)
        run_dir = tmp_path / "run"
        main(["simulate", "--config", sim_config, "--seed", "7", "--out", str(run_dir)])
        bars = str(run_dir / "bars.csv")
        out = tmp_path / "met"
        main(["metrics", bars, "--refs", bars, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        jsonschema.validate(report, METRICS_REPORT_SCHEMA)
        manifest = json.loads((out / "manifest.json").read_text())
        jsonschema.validate(manifest, MANIFEST_SCHEMA)

    def test_pools_across_files(self, tmp_path):
        a = toy_bars(tmp_path / "a.csv", [100, 105, 95, 120, 100])
        b = toy_bars(tmp_path / "b.csv", [50, 51, 49, 60, 50])
        out = tmp_path / "met"
        assert main(["metrics", a, b, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["n_returns"] == 8

    @pytest.mark.parametrize("cell", ["oops", "nan", "inf"])
    @pytest.mark.parametrize("role", ["bars", "refs"])
    def test_malformed_cell_names_row_and_column(self, cell, role, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("day_id,m001,m002,m003\n" f"toy,100,{cell},101\n")
        good = toy_bars(tmp_path / "toy.csv", [100, 105, 95, 120, 100])
        files = [str(path)] if role == "bars" else [good, "--refs", str(path)]
        out = tmp_path / "o"
        assert main(["metrics", *files, "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert "row 2" in err and "column 3" in err
        assert not out.exists()

    def test_short_row_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("toy,100\n")
        assert main(["metrics", str(path), "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert "row 1" in capsys.readouterr().err

    def test_nonpositive_price_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("toy,100,-3,101\n")
        assert main(["metrics", str(path), "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert "column 3" in capsys.readouterr().err

    def test_no_bars_is_config_error(self, tmp_path):
        assert main(["metrics", "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_constant_prices_are_degenerate_data(self, tmp_path):
        bars = toy_bars(tmp_path / "flat.csv", [100] * 40)
        assert main(["metrics", bars, "--out", str(tmp_path / "o")]) == EXIT_DATA

    @pytest.mark.parametrize("command", ["metrics", "experiment"])
    def test_refs_file_of_one_return_is_data_error(self, command, sim_config, tmp_path, capsys):
        ref = tmp_path / "short.csv"
        ref.write_text("d,300,301\n")
        out = tmp_path / "out"
        first = ([toy_bars(tmp_path / "toy.csv", [100, 105, 95, 120, 100])] if command == "metrics"
                 else ["--config", sim_config, "--scenarios", "0"])
        assert main([command, *first, "--refs", str(ref), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert not out.exists()


def count_row(*cells) -> str:
    """One paths-CSV day: the given leading cells, then counts of 1."""
    return ",".join([*map(str, cells), *["1"] * (MINUTES_PER_DAY - len(cells))]) + "\n"


# input role -> (the commands that read it, the exit code of a bad file)
INPUT_ROLES = {"config": (("simulate", "metrics", "experiment"), EXIT_CONFIG),
               "bars": (("metrics",), EXIT_DATA),
               "refs": (("metrics", "experiment"), EXIT_DATA),
               "paths": (("simulate", "experiment"), EXIT_DATA)}
BAD_BARS = {"non_utf8": b"day_id,m001,m002\nd\xff,100,101\n", "bad_first_cell": b"toy,100,x,101\n"}
# fault -> the bad file's bytes by role (None: no such file; "dir": a directory)
INPUT_FAULTS = {
    "missing": None,
    "directory": "dir",
    "non_utf8": {"config": b'{"simulation": {"seed": 1}} \xff\n', "bars": BAD_BARS["non_utf8"],
                 "refs": BAD_BARS["non_utf8"], "paths": count_row().encode() + b"\xff\n"},
    "bad_first_cell": {"bars": BAD_BARS["bad_first_cell"], "refs": BAD_BARS["bad_first_cell"],
                       "paths": count_row(1.5).encode()},
    "not_json": {"config": b'{"simulation": \n'},
    "too_deeply_nested": {"config": b"[" * 10**5 + b"]" * 10**5},
    "not_an_object": {"config": b"[1]\n"},
    "count_above_bound": {"paths": count_row(1, 1, 1, 1, 10**12 + 1).encode()},
    "count_overflows_int64": {"paths": count_row(1, 1, 1, 1, 10**19).encode()},
}
# where each cell fault sits: row 1, this column
FAULT_COLUMNS = {"bad_first_cell": {"bars": 3, "refs": 3, "paths": 1},
                 "count_above_bound": {"paths": 5}, "count_overflows_int64": {"paths": 5}}


def good_inputs(command: str, sim_config: str, tmp_path) -> list[str]:
    """Arguments that carry a command past every read of its inputs."""
    return {"simulate": ["--config", sim_config],
            "metrics": [toy_bars(tmp_path / "toy.csv", [100, 105, 95, 120, 100])],
            "experiment": ["--config", sim_config, "--scenarios", "0"]}[command]


class TestBadInputs:
    """Each input role against each fault: its exit code, one stderr line
    naming the file once (and a bad cell's row and column), and no output
    directory. No trial may start."""

    @pytest.fixture(autouse=True)
    def no_trial(self, monkeypatch):
        monkeypatch.setattr(cli_mod, "run", None)
        monkeypatch.setattr(calibration_mod, "evaluate_combo", None)

    @pytest.mark.parametrize("role, command, fault", [
        (role, command, fault)
        for role, (commands, _) in INPUT_ROLES.items() for command in commands
        for fault, content in INPUT_FAULTS.items()
        if not isinstance(content, dict) or role in content])
    def test_fault_exits_with_one_line_and_no_output(self, role, command, fault, sim_config,
                                                     tmp_path, capsys):
        content = INPUT_FAULTS[fault]
        bad = tmp_path / "bad_input"
        if content == "dir":
            bad.mkdir()
        elif content is not None:
            bad.write_bytes(content[role])
        args = good_inputs(command, sim_config, tmp_path)
        if role == "config":
            args = [arg for arg in args if arg not in ("--config", sim_config)]
        args = [str(bad)] if role == "bars" else [*args, f"--{role}", str(bad)]
        out = tmp_path / "out"
        expected = INPUT_ROLES[role][1]
        assert main([command, *args, "--out", str(out)]) == expected
        err = capsys.readouterr().err
        prefix = "config error" if expected == EXIT_CONFIG else "data error"
        assert err.startswith(f"{prefix}: {role} file {bad}: ") and err.count("\n") == 1, err
        assert err.count(str(bad)) == 1, err
        if fault in FAULT_COLUMNS:
            assert f": row 1, column {FAULT_COLUMNS[fault][role]}: " in err, err
        assert not out.exists()

    def test_header_rule_and_day_labels_in_a_paths_file(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text(count_row(5, 0, 2) + count_row(1))
        header = ",".join(["day"] + [f"m{m:03d}" for m in range(1, MINUTES_PER_DAY + 1)])
        labelled = tmp_path / "labelled.csv"
        labelled.write_text(f"{header}\n\nd1," + count_row(5, 0, 2) + "d2," + count_row(1))

        def fractions(file):
            return [p.fractions.tolist() for p in cli_mod.load_paths(DEFAULTS, str(file))]

        assert fractions(labelled) == fractions(plain)

    def test_zero_day_in_a_paths_file_is_data_error(self, tmp_path):
        zero = tmp_path / "zero.csv"
        zero.write_text(count_row() + ",".join(["0"] * MINUTES_PER_DAY) + "\n")
        with pytest.raises(cli_mod.DataError, match="zero transactions"):
            cli_mod.load_paths(DEFAULTS, str(zero))

    @pytest.mark.parametrize("command", ["simulate", "metrics", "experiment"])
    @pytest.mark.parametrize("kind", ["existing_file", "under_a_file"])
    def test_unusable_out_is_config_error(self, command, kind, sim_config, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("taken\n")
        out = afile if kind == "existing_file" else afile / "sub"
        args = good_inputs(command, sim_config, tmp_path)
        assert main([command, *args, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {out}: ") and err.count("\n") == 1, err
        assert afile.read_text() == "taken\n"


class TestExperiment:
    def test_two_scenarios_two_rows(self, sim_config, tmp_path):
        out = tmp_path / "exp"
        assert main(["experiment", "--config", sim_config, "--scenarios", "0,2",
                     "--out", str(out)]) == EXIT_OK
        lines = (out / "table2.csv").read_text().splitlines()
        assert lines[0] == ",".join(TABLE2_COLUMNS)
        assert len(lines) == 3
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "2"]
        assert (out / "table4.csv").exists()
        assert (out / "ledger.jsonl").exists()
        assert not (out / "synergy.csv").exists()
        assert not (out / "fig5.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        jsonschema.validate(manifest, MANIFEST_SCHEMA)
        assert manifest["seed_range"] == [1000, 1001]

    def test_interrupted_run_resumes_to_identical_table(self, sim_config, tmp_path):
        full = tmp_path / "full"
        main(["experiment", "--config", sim_config, "--scenarios", "0,2",
              "--out", str(full)])
        # partial pass over scenario 0 only, then resume the pair
        part = tmp_path / "part"
        main(["experiment", "--config", sim_config, "--scenarios", "0",
              "--out", str(part)])
        assert main(["experiment", "--config", sim_config, "--scenarios", "0,2",
                     "--out", str(part), "--resume"]) == EXIT_OK
        assert (part / "table2.csv").read_bytes() == (full / "table2.csv").read_bytes()
        assert (part / "table4.csv").read_bytes() == (full / "table4.csv").read_bytes()

    def test_resume_skips_finished_combos(self, sim_config, tmp_path, monkeypatch):
        out = tmp_path / "exp"
        assert main(["experiment", "--config", sim_config, "--scenarios", "0,1,2,4",
                     "--out", str(out)]) == EXIT_OK
        names = ("table2.csv", "table4.csv", "fig5.csv", "synergy.csv")
        first = {name: (out / name).read_bytes() for name in names}

        def guarded(config):
            raise AssertionError("trial simulated on resume of a finished run")

        monkeypatch.setattr(calibration_mod, "run", guarded)
        assert main(["experiment", "--config", sim_config, "--scenarios", "0,1,2,4",
                     "--out", str(out), "--resume"]) == EXIT_OK
        assert {name: (out / name).read_bytes() for name in names} == first

    def test_resume_under_changed_config_simulates_again(self, sim_config, tmp_path):
        out = tmp_path / "exp"
        assert main(["experiment", "--config", sim_config, "--scenarios", "0",
                     "--out", str(out)]) == EXIT_OK
        old = (out / "table2.csv").read_bytes()
        with open(sim_config) as fh:
            document = json.load(fh)
        document["simulation"]["t_sim"] = 350
        changed = write_json(tmp_path / "changed.json", document)
        assert main(["experiment", "--config", changed, "--scenarios", "0",
                     "--out", str(out), "--resume"]) == EXIT_OK
        fresh = tmp_path / "fresh"
        assert main(["experiment", "--config", changed, "--scenarios", "0",
                     "--out", str(fresh)]) == EXIT_OK
        assert (out / "table2.csv").read_bytes() == (fresh / "table2.csv").read_bytes() != old
        # the other config's lines are gone from the resumed ledger
        assert (out / "ledger.jsonl").read_bytes() == (fresh / "ledger.jsonl").read_bytes()

    def test_resume_drops_cut_off_ledger_line(self, sim_config, tmp_path, capsys):
        out = tmp_path / "exp"
        main(["experiment", "--config", sim_config, "--scenarios", "0", "--out", str(out)])
        first = (out / "table2.csv").read_bytes()
        ledger = out / "ledger.jsonl"
        lines = ledger.read_text().splitlines()
        ledger.write_bytes(ledger.read_bytes()[:-30])
        capsys.readouterr()
        assert main(["experiment", "--config", sim_config, "--scenarios", "0",
                     "--out", str(out), "--resume"]) == EXIT_OK
        assert "cut-off line" in capsys.readouterr().err
        assert (out / "table2.csv").read_bytes() == first
        assert ledger.read_text().splitlines() == lines

    def test_resume_drops_an_append_cut_before_its_newline(self, sim_config, tmp_path,
                                                           capsys):
        # three combos, so the resume appends more than one line after the cut one
        with open(sim_config) as fh:
            document = json.load(fh)
        document["experiment"]["grid"]["alpha"] = [0.1, 0.2, 0.3]
        config = write_json(tmp_path / "three.json", document)
        fresh = tmp_path / "fresh"
        assert main(["experiment", "--config", config, "--scenarios", "0",
                     "--out", str(fresh)]) == EXIT_OK
        whole = (fresh / "ledger.jsonl").read_bytes()
        out = tmp_path / "exp"
        out.mkdir()
        (out / "ledger.jsonl").write_bytes(whole[:whole.index(b"\n")])
        capsys.readouterr()
        for _ in range(2):
            assert main(["experiment", "--config", config, "--scenarios", "0",
                         "--out", str(out), "--resume"]) == EXIT_OK
        assert "cut-off line 1" in capsys.readouterr().err
        assert (out / "ledger.jsonl").read_bytes() == whole

    @pytest.mark.parametrize("edit", [
        lambda record: record.pop("k_used"),  # a line written before the field existed
        lambda record: record.update(combo={"cash_kind": "uniform"}),
        lambda record: record.update(stylized={"kurtosis": 1.0}),
        lambda record: record.pop("combo_digest"),
        lambda record: record.update(mean_ot=str(record["mean_ot"])),
        lambda record: record.update(hill=None),  # on a stable line
        lambda record: record["stylized"].update(kurtosis=str(record["stylized"]["kurtosis"])),
        lambda record: record["stylized"]["abs_autocorr"].pop("1"),
        lambda record: record["combo"].update(alpha=json.loads("[" * 500 + "0.1" + "]" * 500)),
        # no grid value, under the digest of alpha 0.1
        lambda record: record["combo"].update(alpha=0.9),
    ], ids=["no_k_used", "combo_without_amounts", "stylized_without_lags", "no_combo_digest",
            "mean_ot_a_string", "hill_null", "kurtosis_a_string", "no_lag_1",
            "alpha_nested_500_deep", "combo_not_its_digest"])
    def test_resume_evaluates_a_line_missing_a_field_again(self, edit, sim_config, tmp_path,
                                                           monkeypatch):
        out = tmp_path / "exp"
        args = ["experiment", "--config", sim_config, "--scenarios", "0", "--out", str(out)]
        assert main(args) == EXIT_OK
        first = (out / "table2.csv").read_bytes()
        ledger = out / "ledger.jsonl"
        lines = ledger.read_text().splitlines()
        record = json.loads(lines[0])
        assert record["combo"]["alpha"] == 0.1
        edit(record)
        ledger.write_text("\n".join([json.dumps(record, sort_keys=True), *lines[1:]]) + "\n")
        evaluated = []
        real_evaluate = calibration_mod.evaluate_combo

        def counted(base, combo, *rest):
            evaluated.append(combo.alpha)
            return real_evaluate(base, combo, *rest)

        monkeypatch.setattr(calibration_mod, "evaluate_combo", counted)
        assert main([*args, "--resume"]) == EXIT_OK
        assert evaluated == [0.1]
        assert (out / "table2.csv").read_bytes() == first
        assert sorted(ledger.read_text().splitlines()) == sorted(lines)

    def test_each_scenario_line_is_printed_when_its_calibration_ends(
            self, sim_config, tmp_path, monkeypatch, capsys):
        printed_before = []
        real_calibrate = cli_mod.calibrate

        def spy(n, *args, **kwargs):
            printed_before.append(capsys.readouterr().out)
            return real_calibrate(n, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "calibrate", spy)
        assert main(["experiment", "--config", sim_config, "--scenarios", "0,1",
                     "--out", str(tmp_path / "exp")]) == EXIT_OK
        assert printed_before[0] == ""
        assert printed_before[1].startswith("scenario 0: hill=")
        assert printed_before[1].count("\n") == 1
        assert capsys.readouterr().out.startswith("scenario 1: hill=")

    @pytest.mark.parametrize("extra", [[], ["--resume"]])
    def test_ledger_that_is_a_directory_is_data_error(self, extra, sim_config, tmp_path,
                                                      capsys, monkeypatch):
        def no_trial(config):
            raise AssertionError("a trial started")

        monkeypatch.setattr(calibration_mod, "run", no_trial)
        out = tmp_path / "exp"
        (out / "ledger.jsonl").mkdir(parents=True)
        assert main(["experiment", "--config", sim_config, "--scenarios", "0",
                     "--out", str(out), *extra]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert err.count("ledger.jsonl") == 1, err

    def test_unreadable_ledger_line_is_data_error(self, sim_config, tmp_path, capsys):
        out = tmp_path / "exp"
        main(["experiment", "--config", sim_config, "--scenarios", "0", "--out", str(out)])
        ledger = out / "ledger.jsonl"
        ledger.write_text("{not json\n" + ledger.read_text())
        assert main(["experiment", "--config", sim_config, "--scenarios", "0",
                     "--out", str(out), "--resume"]) == EXIT_DATA
        assert "line 1" in capsys.readouterr().err

    def test_undefined_stylized_facts_leave_blank_cells(self, sim_config, tmp_path,
                                                        monkeypatch):
        def degenerate(returns, volumes=None):
            raise DegenerateSeriesError("zero-variance input to correlation")

        monkeypatch.setattr(calibration_mod, "stylized_facts", degenerate)
        out = tmp_path / "exp"
        for extra in ([], ["--resume"]):
            assert main(["experiment", "--config", sim_config, "--scenarios", "0",
                         "--out", str(out), *extra]) == EXIT_OK
            assert (out / "table4.csv").read_text().splitlines()[1] == "0,,,,,,"

    def test_fresh_run_discards_stale_ledger(self, sim_config, tmp_path):
        out = tmp_path / "exp"
        main(["experiment", "--config", sim_config, "--scenarios", "0", "--out", str(out)])
        n_first = len((out / "ledger.jsonl").read_text().splitlines())
        main(["experiment", "--config", sim_config, "--scenarios", "0", "--out", str(out)])
        assert len((out / "ledger.jsonl").read_text().splitlines()) == n_first

    def test_quartet_emits_synergy_and_sweep(self, sim_config, tmp_path):
        out = tmp_path / "exp"
        assert main(["experiment", "--config", sim_config, "--scenarios", "0,1,2,4",
                     "--out", str(out)]) == EXIT_OK
        synergy = (out / "synergy.csv").read_text().splitlines()
        assert synergy[0] == "observed_hill_4,theoretical_hill_4,observed_lower"
        assert len(synergy) == 2
        fig5 = (out / "fig5.csv").read_text().splitlines()
        assert fig5[0] == "lambda_c,series,hill_mean,hill_std,n_points"
        assert len(fig5) == 1 + 3  # one nonzero lambda_c, three series
        assert {line.split(",")[1] for line in fig5[1:]} == {"sim2", "sim4", "theoretical"}

    def test_two_workers_write_the_same_bytes_as_one(self, sim_config, tmp_path):
        names = ("table2.csv", "table4.csv", "fig5.csv", "synergy.csv", "ledger.jsonl")
        written = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            assert main(["experiment", "--config", sim_config, "--scenarios", "0,1,2,4",
                         "--workers", workers, "--out", str(out)]) == EXIT_OK
            written.append({name: (out / name).read_bytes() for name in names})
        assert written[0] == written[1]

    def test_two_workers_resume_a_cut_ledger_to_the_same_bytes(self, sim_config, tmp_path):
        names = ("table2.csv", "table4.csv", "fig5.csv", "synergy.csv", "ledger.jsonl")
        args = ["experiment", "--config", sim_config, "--scenarios", "0,1,2,4"]
        whole = tmp_path / "whole"
        assert main([*args, "--workers", "1", "--out", str(whole)]) == EXIT_OK
        lines = (whole / "ledger.jsonl").read_bytes().splitlines(keepends=True)
        assert len(lines) == 8
        cut = tmp_path / "cut"
        cut.mkdir()
        (cut / "ledger.jsonl").write_bytes(b"".join(lines[:3]))  # killed after 3 of 8 combos
        assert main([*args, "--workers", "2", "--resume", "--out", str(cut)]) == EXIT_OK
        assert ({name: (cut / name).read_bytes() for name in names}
                == {name: (whole / name).read_bytes() for name in names})

    def test_invalid_scenarios_exit_config(self, sim_config, tmp_path, capsys):
        assert main(["experiment", "--config", sim_config, "--scenarios", "9",
                     "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        assert "scenario" in capsys.readouterr().err

    def test_all_trials_degenerate_exit(self, tmp_path):
        cfg = write_json(tmp_path / "deg.json", {
            "simulation": {"t_sim": 50, "no_exec_windows": [[1, 50]],
                           "population": {"n_agents": 10}},
            "experiment": {"trials": 2, "refs": {"count": 1, "n_samples": 2000},
                           "paths": {"count": 2},
                           "grid": {"lambda_c": [0.0], "lambda_m": [0.0],
                                    "nu": [0.3], "alpha": [0.1]}},
        })
        assert main(["experiment", "--config", cfg, "--scenarios", "0",
                     "--out", str(tmp_path / "x")]) == EXIT_DEGENERATE

    def test_a_combo_without_trades_is_unstable_and_a_resume_evaluates_nothing(
            self, tmp_path, monkeypatch):
        """At alpha 1e90 no trial trades: that combo is recorded unstable, not
        fatal, and a resume of the finished run finds both combos done."""
        cfg = write_json(tmp_path / "cfg.json", {
            "simulation": {"t_sim": 300, "population": {"n_agents": 20}},
            "experiment": {"trials": 2, "grid": {"alpha": [0.1, 1e90]}},
        })
        out = tmp_path / "exp"
        args = ["experiment", "--config", cfg, "--scenarios", "0", "--out", str(out)]
        assert main(args) == EXIT_OK
        records = [json.loads(line) for line in (out / "ledger.jsonl").read_text().splitlines()]
        assert [(rec["combo"]["alpha"], rec["unstable"], rec["n_degenerate"])
                for rec in records] == [(0.1, False, 0), (1e90, True, 2)]
        names = ("table2.csv", "table4.csv", "ledger.jsonl")
        first = {name: (out / name).read_bytes() for name in names}

        def guarded(*args):
            raise AssertionError("combo evaluated on resume of a finished run")

        monkeypatch.setattr(calibration_mod, "evaluate_combo", guarded)
        assert main([*args, "--resume"]) == EXIT_OK
        assert {name: (out / name).read_bytes() for name in names} == first

    def test_trials_flag_overrides_config(self, sim_config, tmp_path):
        out = tmp_path / "exp"
        assert main(["experiment", "--config", sim_config, "--scenarios", "0",
                     "--trials", "3", "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed_range"] == [1000, 1002]
        row = (out / "table2.csv").read_text().splitlines()[1].split(",")
        assert row[TABLE2_COLUMNS.index("n_trials")] == "3"

    def test_counts_csv_feeds_paths(self, sim_config, tmp_path):
        counts = tmp_path / "counts.csv"
        rows = []
        rng = np.random.default_rng(3)
        for _ in range(2):
            rows.append(",".join(str(int(v)) for v in rng.poisson(100, MINUTES_PER_DAY)))
        counts.write_text("\n".join(rows) + "\n")
        out = tmp_path / "exp"
        assert main(["experiment", "--config", sim_config, "--scenarios", "0",
                     "--paths", str(counts), "--out", str(out)]) == EXIT_OK


class TestExperimentTables:
    """table2, table4, synergy and fig5 built from each scenario's
    calibration, with combo scoring faked: mean OT is alpha, so the first
    alpha wins."""

    @staticmethod
    def run_experiment(tmp_path, monkeypatch, scenarios: str, hill_of) -> Path:
        def fake_evaluate(base, combo, exp, refs, paths):
            facts = StylizedFactReport(kurtosis=hill_of(combo), vol_volume_corr=combo.alpha,
                                       abs_autocorr={1: 0.2, 10: 0.1})
            return ComboMetrics(combo=combo, hill=hill_of(combo), k_used=10,
                                mean_ot=combo.alpha, ot_std=0.0, n_trials=exp.trials,
                                n_degenerate=0, n_pooled=100, unstable=False, stylized=facts)

        monkeypatch.setattr(calibration_mod, "evaluate_combo", fake_evaluate)
        config = write_json(tmp_path / "cfg.json", {"experiment": {
            "refs": {"count": 1, "n_samples": 2000},
            "paths": {"count": 1},
            "grid": {"lambda_c": [0.0, 2.5], "lambda_m": [0.0], "nu": [0.0],
                     "alpha": [0.1, 0.2]},
        }})
        out = tmp_path / "exp"
        assert main(["experiment", "--config", config, "--scenarios", scenarios,
                     "--out", str(out)]) == EXIT_OK
        return out

    @staticmethod
    def rows(path) -> list[list[str]]:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))[1:]

    def test_synergy_block_present_when_quartet_requested(self, tmp_path, monkeypatch):
        hills = {(False, 0.0): 4.0, (True, 0.0): 3.8, (False, 2.5): 3.1, (True, 2.5): 2.8}
        out = self.run_experiment(tmp_path, monkeypatch, "0,1,2,4",
                                  lambda c: hills[(c.cash_kind == "pareto", c.lambda_c)])
        ((observed, theoretical, lower),) = self.rows(out / "synergy.csv")
        assert float(observed) == 2.8
        assert float(theoretical) == pytest.approx(3.8 + 3.1 - 4.0)
        assert lower == "True"
        assert [row[0] for row in self.rows(out / "table4.csv")] == ["0", "1", "2", "4"]
        # scenario 2's best combo is lambda_c 2.5 at alpha 0.1, and its facts fill the row
        table2 = {row[0]: dict(zip(TABLE2_COLUMNS, row)) for row in self.rows(out / "table2.csv")}
        assert (table2["2"]["lambda_c"], table2["2"]["alpha"]) == ("2.5", "0.1")
        table4 = {row[0]: row for row in self.rows(out / "table4.csv")}
        assert table4["2"] == ["2", "3.1", "0.1", "0.2", "0.1", "", ""]
        manifest = json.loads((out / "manifest.json").read_text())
        assert {"synergy.csv", "fig5.csv"} <= set(manifest["output_paths"])

    def test_no_synergy_without_quartet(self, tmp_path, monkeypatch):
        out = self.run_experiment(tmp_path, monkeypatch, "0,2", lambda c: 3.0)
        assert not (out / "synergy.csv").exists()
        assert not (out / "fig5.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["output_paths"] == ["ledger.jsonl", "table2.csv", "table4.csv"]


class TestConsoleScript:
    ROOT = Path(__file__).resolve().parents[1]

    def python(self, *args: str) -> subprocess.CompletedProcess:
        """A fresh interpreter that imports lobfactor from this checkout."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.ROOT / "src"), env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)

    def test_version_runs(self):
        pyproject = tomllib.loads((self.ROOT / "pyproject.toml").read_text())
        assert pyproject["project"]["scripts"]["lobfactor"] == "lobfactor.cli:main"
        assert pyproject["project"]["version"] == lobfactor.__version__
        proc = self.python("-m", "lobfactor.cli", "--version")
        assert proc.returncode == 0
        assert "lobfactor" in proc.stdout

    def test_import_loads_no_process_pool(self):
        """Only a run with more than one worker needs multiprocessing."""
        proc = self.python("-c", "import sys, lobfactor.cli; print(sorted(m for m in sys.modules "
                           "if m in ('multiprocessing', 'concurrent.futures.process')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def lobfactor_names_read(source: str) -> set[tuple[str, str]]:
    """(module, name) of each `from lobfactor.<module> import name` and
    `from lobfactor import name`, and of each `<module>.name` read where
    `<module>` was imported with `from lobfactor import <module>`."""
    tree = ast.parse(source)
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lobfactor"):
            names.update((node.module, alias.name) for alias in node.names)
            if node.module == "lobfactor":
                modules.update({alias.asname or alias.name: f"lobfactor.{alias.name}"
                                for alias in node.names})
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return names


def test_benchmark_and_scripts_read_only_names_the_cli_has():
    """Every lobfactor name that perfbench/ and scripts/ import or read off a
    lobfactor module resolves. The benchmark's checks run only in benchmark
    runs and no test imports the scripts, so a name moved or lost would show
    nowhere else."""
    root = Path(__file__).resolve().parents[1]
    names = set().union(*(lobfactor_names_read(file.read_text())
                          for folder in ("perfbench", "scripts")
                          for file in sorted((root / folder).glob("*.py"))))
    assert {("lobfactor.cli", name) for name in ("resolve_config", "simulation_config",
                                                 "parameter_grid", "load_paths", "main")} <= names
    assert sorted(f"{module}.{name}" for module, name in names
                  if not hasattr(importlib.import_module(module), name)) == []
