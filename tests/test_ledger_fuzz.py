"""A fuzz of the combo ledger, the input that `experiment --resume` reads
back from its output directory.

One line of a real two-combo ledger is mutated: a key dropped at any depth,
a value replaced by one of another type, a value nested in lists or objects
(once, twice, 500 times or 10**5 times), or the line cut and a stray byte
appended. Whatever the line holds, the resume ends in 0 or 3 with no
traceback and no warning. A data error is one line on stderr; on 0 the
ledger holds one line per combo and table2 is a fresh run's.
"""

import contextlib
import io
import json
import tempfile
import warnings
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobfactor.cli import EXIT_DATA, EXIT_OK, main

# two combos of scenario 0 (alpha 0.2 and 0.3), a short day and a small population
CONFIG = {"simulation": {"t_sim": 300, "no_exec_windows": [[1, 20], [150, 155]],
                         "population": {"n_agents": 40, "alpha": 0.2}},
          "experiment": {"trials": 2, "refs": {"count": 2, "n_samples": 2000},
                         "paths": {"count": 2},
                         "grid": {"lambda_c": [0.0, 1.5], "alpha": [0.2, 0.3]}}}
OTHER_TYPES = ("0.07", 7, 0.5, True, None, [], {})
NEST_DEPTHS = (1, 2, 500, 10**5)
PLACEHOLDER = "nested value"


def run(argv: list[str]) -> tuple[int, str]:
    """The command's exit code and stderr; no warning may be raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    text = err.getvalue()
    assert "Traceback" not in text and "Warning" not in text and not caught, (text, caught)
    return code, text


@pytest.fixture(scope="module")
def fresh(tmp_path_factory) -> tuple[str, bytes, bytes]:
    """The config file, and the ledger and table2 of a fresh run."""
    root = tmp_path_factory.mktemp("fresh")
    config = root / "cfg.json"
    config.write_text(json.dumps(CONFIG))
    out = root / "out"
    assert run(["experiment", "--config", str(config), "--scenarios", "0",
                "--out", str(out)])[0] == EXIT_OK
    ledger = (out / "ledger.jsonl").read_bytes()
    assert ledger.count(b"\n") == 2
    return str(config), ledger, (out / "table2.csv").read_bytes()


def key_paths(obj: dict, parents: tuple = ()) -> list[tuple]:
    """The path of every key of a JSON object, nested ones included."""
    paths = []
    for key, value in obj.items():
        paths.append((*parents, key))
        if isinstance(value, dict):
            paths += key_paths(value, (*parents, key))
    return paths


def mutated_line(data, line: bytes) -> bytes:
    """`line` with one mutation drawn from `data`."""
    kind = data.draw(st.sampled_from(("drop", "retype", "nest", "break")))
    if kind == "break":
        cut = data.draw(st.integers(0, len(line) - 1))
        return line[:cut] + data.draw(st.sampled_from((b"", b"}", b"[", b"\xff"))) + b"\n"
    record = json.loads(line)
    *parents, key = data.draw(st.sampled_from(key_paths(record)))
    node = reduce(getitem, parents, record)
    if kind == "drop":
        del node[key]
        return (json.dumps(record, sort_keys=True) + "\n").encode()
    if kind == "retype":
        node[key] = data.draw(st.sampled_from(
            [v for v in OTHER_TYPES if type(v) is not type(node[key])]))
        return (json.dumps(record, sort_keys=True) + "\n").encode()
    # nested as text: json.dumps refuses a value nested 10**5 deep
    depth = data.draw(st.sampled_from(NEST_DEPTHS))
    opener, closer = data.draw(st.sampled_from((("[", "]"), ('{"v": ', "}"))))
    value, node[key] = json.dumps(node[key]), PLACEHOLDER
    text = json.dumps(record, sort_keys=True).replace(
        json.dumps(PLACEHOLDER), opener * depth + value + closer * depth, 1)
    return (text + "\n").encode()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_ledger_line_resumes_to_a_documented_exit_code(fresh, data):
    config, ledger, table2 = fresh
    lines = ledger.splitlines(keepends=True)
    at = data.draw(st.integers(0, len(lines) - 1))
    lines[at] = mutated_line(data, lines[at])
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch)
        (out / "ledger.jsonl").write_bytes(b"".join(lines))
        code, err = run(["experiment", "--config", config, "--scenarios", "0",
                         "--out", str(out), "--resume"])
        assert code in (EXIT_OK, EXIT_DATA), err
        if code == EXIT_DATA:
            assert err.startswith("data error: ") and err.count("\n") == 1, err
            return
        assert (out / "ledger.jsonl").read_bytes().count(b"\n") == 2
        assert (out / "table2.csv").read_bytes() == table2
