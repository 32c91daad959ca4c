"""The bounds tables: every row's edges, checked by check_bounds and through
`experiment --print-config`, the fields the rows cover, the one module that
owns them, and a fuzz of the `simulate` front door drawn from the rows.

SIMULATION_BOUNDS and EXPERIMENT_BOUNDS each hold one row (field path,
least, greatest) per number of their config section, and check_bounds is the
one checker of both. The cases here are generated from the rows, so a row
added to a table is tested without a new case.
"""

import ast
import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from collections import Counter
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lobfactor.calibration as calibration_mod
import lobfactor.cli as cli_mod
import lobfactor.config as config_mod
from lobfactor.cli import EXIT_CONFIG, EXIT_OK, main
from lobfactor.config import (
    EXPERIMENT_BOUNDS,
    FLOAT_MAX,
    MAX_SCALE,
    SIMULATION_BOUNDS,
    TINY,
    ConfigError,
    ExperimentConfig,
    SimulationConfig,
    check_bounds,
)

# (section, default config of that section, table, row)
ROWS = [(section, default, table, row) for section, default, table in (
    ("simulation", SimulationConfig(), SIMULATION_BOUNDS),
    ("experiment", ExperimentConfig(), EXPERIMENT_BOUNDS)) for row in table]


def replaced(config, path: str, value):
    """`config` with the field at the dotted `path` set to `value`."""
    head, _, rest = path.partition(".")
    return replace(config, **{head: replaced(getattr(config, head), rest, value) if rest
                              else value})


def set_path(document: dict, path: str, value) -> dict:
    """`document` with `value` at the dotted `path`, sections made as needed."""
    *keys, name = path.split(".")
    node = document
    for key in keys:
        node = node.setdefault(key, {})
    node[name] = value
    return document


def step(edge, direction: float):
    """The value next to `edge` toward `direction`: the next float, or the next int."""
    if isinstance(edge, float):
        return math.nextafter(edge, direction)
    return edge + (1 if direction > 0 else -1)


def edges(row) -> list:
    _, least, greatest, _ = row
    return [edge for edge in (least, greatest) if math.isfinite(edge)]


def outside(row) -> list:
    """One step past each finite edge, then the infinities and NaN for a float row."""
    _, least, greatest, _ = row
    values = [step(least, -math.inf)]
    if math.isfinite(greatest):
        values.append(step(greatest, math.inf))
    if isinstance(least, float):
        values += [v for v in (math.inf, -math.inf) if v not in values] + [math.nan]
    return values


EDGE_CASES = [(*case, edge) for case in ROWS for edge in edges(case[3])]
OUTSIDE_CASES = [(*case, value) for case in ROWS for value in outside(case[3])]


def case_id(case) -> str:
    return f"{case[0]}.{case[3][0]}={case[4]!r}"


@pytest.mark.parametrize("case", EDGE_CASES, ids=case_id)
def test_row_admits_its_edge(case):
    _, default, table, (path, *_), edge = case
    check_bounds(replaced(default, path, edge), table)


@pytest.mark.parametrize("case", OUTSIDE_CASES, ids=case_id)
def test_row_rejects_what_lies_outside_it(case):
    _, default, table, (path, least, greatest, _), value = case
    with pytest.raises(ConfigError) as exc:
        check_bounds(replaced(default, path, value), table)
    assert str(exc.value) == f"{path} must lie in [{least}, {greatest}], got {value}"


# edges the row admits but a rule that spans fields rejects at the defaults
CROSS_FIELD_EDGES = {
    ("p0", FLOAT_MAX), ("fundamental_price", FLOAT_MAX),  # the first order's tick count
    ("tick_size", TINY),
    ("population.cash.c_min", FLOAT_MAX), ("population.cash.beta", TINY),  # largest Pareto draw
}


@pytest.fixture
def no_draw(monkeypatch):
    """The config check comes first: no trial, reference or path may be drawn."""
    for name in ("run", "make_student_t_refs", "synthetic_reference_path"):
        monkeypatch.setattr(cli_mod, name, None)
    monkeypatch.setattr(calibration_mod, "evaluate_combo", None)


def print_config(section: str, path: str, value, tmp_path, capsys) -> tuple[int, str, str]:
    """`experiment --print-config` on a document giving only `value` at `path`:
    its exit code, stdout and stderr; an output directory is an error."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(set_path({}, f"{section}.{path}", value)))
    code = main(["experiment", "--config", str(config), "--print-config",
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert not (tmp_path / "out").exists()
    return code, captured.out, captured.err


@pytest.mark.usefixtures("no_draw")
@pytest.mark.parametrize("case", EDGE_CASES, ids=case_id)
def test_front_door_admits_and_echoes_each_edge(case, tmp_path, capsys):
    """Each edge converts and round-trips through the document unchanged,
    unless a rule that spans fields rejects it, in words other than the row's."""
    section, _, _, (path, *_), edge = case
    code, out, err = print_config(section, path, edge, tmp_path, capsys)
    if (path, edge) in CROSS_FIELD_EDGES:
        assert code == EXIT_CONFIG and out == "", out
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert "must lie in" not in err, err
        return
    assert code == EXIT_OK, err
    node = json.loads(out)[section]
    for key in path.split("."):
        node = node[key]
    assert node == edge and type(node) is type(edge)


@pytest.mark.usefixtures("no_draw")
@pytest.mark.parametrize("case", OUTSIDE_CASES, ids=case_id)
def test_front_door_rejects_what_lies_outside_each_row(case, tmp_path, capsys):
    """One step past an edge, an infinity or NaN: exit 2, one line naming the
    field, nothing written."""
    section, _, _, (path, *_), value = case
    code, out, err = print_config(section, path, value, tmp_path, capsys)
    assert code == EXIT_CONFIG and out == "", out
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert path in err, err


def number_fields(config, prefix: str = "") -> list[str]:
    """Dotted paths of every int and float field under a section's dataclass."""
    paths = []
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            paths += number_fields(value, f"{prefix}{f.name}.")
        elif type(value) in (int, float):
            paths.append(prefix + f.name)
    return paths


@pytest.mark.parametrize("default, table", [(SimulationConfig(), SIMULATION_BOUNDS),
                                            (ExperimentConfig(), EXPERIMENT_BOUNDS)])
def test_every_number_field_has_exactly_one_row(default, table):
    # the grid's tuples are checked as simulation values, a field at a time
    rows = Counter(path for path, *_ in table)
    assert rows == Counter(number_fields(default))


def config_types(config) -> set[type]:
    """The type of a section's dataclass and of every dataclass under it."""
    types = {type(config)}
    for f in fields(config):
        if is_dataclass(value := getattr(config, f.name)):
            types |= config_types(value)
    return types


def test_config_owns_the_schema_and_imports_only_the_version():
    """Every config type, bounds table and cap is defined in lobfactor.config,
    which imports no other lobfactor module, so it sits at the bottom of the
    import graph."""
    types = config_types(SimulationConfig()) | config_types(ExperimentConfig())
    assert len(types) == 7 and {t.__module__ for t in types} == {"lobfactor.config"}
    package = Path(config_mod.__file__).parent
    tree = ast.parse((package / "config.py").read_text())
    assert [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.level or node.module.startswith("lobfactor"))] == [
        "from . import __version__"]
    for module in sorted(package.glob("*.py")):
        if module.name != "config.py":
            defined = {target.id for node in ast.parse(module.read_text()).body
                       if isinstance(node, ast.Assign) for target in node.targets
                       if isinstance(target, ast.Name)}
            assert not {name for name in defined
                        if name.startswith("MAX_") or name.endswith("_BOUNDS")}, module.name


def simulate(document: dict, out_parent: Path) -> tuple[int, str, list]:
    """Run `simulate` on a document; its exit code, stderr and warnings."""
    config = out_parent / "cfg.json"
    config.write_text(json.dumps(document))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(["simulate", "--config", str(config), "--out", str(out_parent / "out")])
    return code, err.getvalue(), caught


def small(values: dict) -> dict:
    """A simulate document of 300 steps and 20 agents, a one-value grid, and
    `values` at their dotted paths under `simulation`."""
    document = {"t_sim": 300, "population": {"n_agents": 20}}
    for path, value in values.items():
        set_path(document, path, value)
    return {"simulation": document,
            "experiment": {"grid": {"lambda_c": [0.0], "lambda_m": [0.0], "nu": [0.3],
                                    "alpha": [0.1]}}}


CAPS = {path: greatest for path, _, greatest, _ in SIMULATION_BOUNDS}
CAPPED_ROWS = ["population.lambda_f", "population.lambda_c", "population.lambda_m",
               "population.lambda_n", "population.sigma_n", "population.alpha",
               "population.tau_f"]


@pytest.mark.parametrize("path", CAPPED_ROWS)
def test_capped_row_runs_at_its_cap_and_rejects_one_step_past(path, tmp_path):
    """The caps on weight means, noise, risk aversion and tau_f: at the cap a
    run ends in 0 with no warning; one step past, in 2 with no output."""
    cap = CAPS[path]
    assert cap in (MAX_SCALE, int(FLOAT_MAX))
    for seed in (1, 2):
        run_dir = tmp_path / f"seed{seed}"
        run_dir.mkdir()
        code, err, caught = simulate(small({path: cap, "seed": seed}), run_dir)
        assert code == EXIT_OK, err
        assert "Warning" not in err and not caught, (err, caught)
    code, err, _ = simulate(small({path: step(cap, math.inf)}), tmp_path)
    assert code == EXIT_CONFIG and err.count("\n") == 1 and path in err, err
    assert not (tmp_path / "out").exists()


# the fuzz keeps each trial small: t_sim and n_agents draw up to these
FUZZ_GREATEST = {"t_sim": 300, "population.n_agents": 20}


def values_of(row) -> st.SearchStrategy:
    """Values a row admits, and a few it does not: its edges, one step inside
    and outside each, subnormals for a float row, and huge ints."""
    path, least, greatest, _ = row
    greatest = FUZZ_GREATEST.get(path, greatest)
    values = [least, step(least, math.inf), step(least, -math.inf)]
    if math.isfinite(greatest):
        values += [greatest, step(greatest, -math.inf)]
        if path not in FUZZ_GREATEST:
            values.append(step(greatest, math.inf))
    else:  # an int row with no cap
        values += [2**64, 10**30]
    if isinstance(least, float):
        values += [5e-324, 2.0**-1060, sys.float_info.min / 3]
    return st.sampled_from(values)


@st.composite
def simulation_documents(draw) -> dict:
    rows = draw(st.lists(st.sampled_from(SIMULATION_BOUNDS), min_size=1, max_size=6,
                         unique_by=lambda row: row[0]))
    simulation = {row[0]: draw(values_of(row)) for row in rows}
    if draw(st.booleans()):
        simulation["population.cash.kind"] = "pareto"
    return small(simulation)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(document=simulation_documents())
def test_simulate_front_door_ends_in_a_documented_exit_code(document):
    """Whatever the rows draw ends in 0, 2, 3 or 4: no traceback, no warning,
    and a config error leaves no output directory."""
    with tempfile.TemporaryDirectory() as scratch:
        code, err, caught = simulate(document, Path(scratch))
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err and "Warning" not in err and not caught, (err, caught)
        if code == EXIT_CONFIG:
            assert err.startswith("config error: ") and err.count("\n") == 1, err
            assert not (Path(scratch) / "out").exists()
