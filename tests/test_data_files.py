"""A fuzz of the data-file front door: generated bars, refs and paths files
through `metrics`, `metrics --refs`, `simulate --paths` and `experiment --refs`.

Each file is drawn as rows of a day label and cells: headers, blank rows and
ragged widths; the cells 0, negatives, 5e-324, 1e308, nan, inf, 1e999, empty
cells and a quoted "1,2"; counts at and one past 10**12; and bytes that are
not UTF-8. Whatever a file holds, a run ends in 0, 2, 3 or 4 with no
traceback and no warning, and a config or data error is one line on stderr
and leaves no output directory.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lobfactor.cli import EXIT_CONFIG, EXIT_DATA, main
from lobfactor.config import MAX_COUNT
from lobfactor.timegrid import MINUTES_PER_DAY

BAD_CELLS = ("0", "-1", "-300.5", "5e-324", "1e308", "nan", "inf", "-inf", "1e999", "",
             '"1,2"', str(MAX_COUNT), str(MAX_COUNT + 1), "m001")
LABELS = (None, "day0", "", "1e999", '"a,b"')
WIDTHS = (0, 1, 2, 3, 40, MINUTES_PER_DAY - 1, MINUTES_PER_DAY, MINUTES_PER_DAY + 1)
HEADER = ",".join(["day_id"] + [f"m{m:03d}" for m in range(1, MINUTES_PER_DAY + 1)])
# one combo, a short day and a small population, so each run is a few milliseconds
CONFIG = {"simulation": {"t_sim": 300, "population": {"n_agents": 20}},
          "experiment": {"trials": 2, "grid": {"lambda_c": [0.0], "lambda_m": [0.0],
                                               "nu": [0.3], "alpha": [0.1]}}}


@st.composite
def data_files(draw, counts: bool) -> bytes:
    """A CSV of price rows (`counts` False) or per-minute count rows: mostly
    well-formed cells, a few bad ones, and perhaps a byte that is not UTF-8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    lines = [HEADER] if draw(st.booleans()) else []
    for day in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            lines.append("")
        # a well-formed width as often as all the others together
        width = draw(st.sampled_from((MINUTES_PER_DAY if counts else 40,) * len(WIDTHS)
                                     + WIDTHS))
        if counts:
            cells = [str(c) for c in rng.poisson(50, width)]
        else:
            cells = [repr(p) for p in (300 * np.exp(np.cumsum(
                0.01 * rng.standard_t(3, width)))).tolist()]
        for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
            if cells:
                cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(BAD_CELLS))
        label = draw(st.sampled_from(LABELS))
        lines.append(",".join(cells if label is None else [label, *cells]))
    blob = ("\n".join(lines) + "\n").encode()
    if draw(st.sampled_from((False, False, False, True))):
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + b"\xff\xfe" + blob[at:]
    return blob


def run(argv: list[str], out: Path) -> None:
    """Run the command; check its exit code, stderr and warnings."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(out)])
    text = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, text)
    assert "Traceback" not in text and "Warning" not in text and not caught, (argv, text, caught)
    if code in (EXIT_CONFIG, EXIT_DATA):
        assert text.startswith(("config error: ", "data error: ")), (argv, text)
        assert text.count("\n") == 1, (argv, text)
        assert not out.exists(), argv


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(bars=data_files(counts=False), refs=data_files(counts=False),
       paths=data_files(counts=True))
def test_data_files_end_in_a_documented_exit_code(bars, refs, paths):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        for name, blob in (("bars.csv", bars), ("refs.csv", refs), ("paths.csv", paths)):
            (root / name).write_bytes(blob)
        config = root / "cfg.json"
        config.write_text(json.dumps(CONFIG))
        bars_file, refs_file = str(root / "bars.csv"), str(root / "refs.csv")
        run(["metrics", bars_file], root / "metrics")
        run(["metrics", bars_file, "--refs", refs_file], root / "metrics_refs")
        run(["simulate", "--config", str(config), "--paths", str(root / "paths.csv")],
            root / "simulate")
        run(["experiment", "--config", str(config), "--scenarios", "0", "--refs", refs_file],
            root / "experiment")
