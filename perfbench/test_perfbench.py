"""Tests of the benchmark itself: every workload runs clean at a tiny shape,
and each checker rejects a deliberately corrupted output.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

SEED = 3
TINY_SIMULATION = {"t_sim": 600, "no_exec_windows": [[1, 50]]}
TINY_REFS = {"count": 3, "n_samples": 3000, "df": 3.0}
TINY = {
    "quartet": dict(inputs.WORKLOADS["quartet"], refs=TINY_REFS, simulation=TINY_SIMULATION,
                    grid={"lambda_c": [0.0, 2.0], "lambda_m": [0.0], "nu": [0.5],
                          "alpha": [0.1, 0.3]}),
    "mood": dict(inputs.WORKLOADS["mood"], trials=2, refs=TINY_REFS, simulation=TINY_SIMULATION,
                 grid={"lambda_c": [0.0, 2.0], "lambda_m": [0.0, 3e-5], "nu": [0.3, 0.7],
                       "alpha": [0.2]}),
    "simulate_score": dict(inputs.WORKLOADS["simulate_score"], seeds_per_scenario=1,
                           simulation=TINY_SIMULATION),
}
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean(name, trace, tmp_path):
    result = run.run_workload(name, TINY[name], SEED, seconds=0, trace=trace,
                              work=tmp_path, setup_samples=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in listed
    }


def _one_round(name: str, work: Path) -> tuple[object, list[run.Op]]:
    shape = TINY[name]
    files = inputs.write_inputs(shape, SEED, work / "inputs")
    kind = run.ExperimentWorkload if shape["kind"] == "experiment" else run.SimulateScoreWorkload
    workload = kind(shape, SEED, files)
    ops = workload.run_round(0, work / "r0")
    assert all(op.rc == 0 for op in ops)
    return workload, ops


@pytest.fixture(scope="module")
def quartet(tmp_path_factory):
    return _one_round("quartet", tmp_path_factory.mktemp("quartet"))


@pytest.fixture(scope="module")
def simulate_score(tmp_path_factory):
    return _one_round("simulate_score", tmp_path_factory.mktemp("simulate_score"))


def _problems(workload, ops: list[run.Op]) -> list[str]:
    fresh = [run.Op(op.kind, op.out, op.rc, dict(op.meta)) for op in ops]
    workload.check(fresh)
    return [p for op in fresh for p in op.problems]


def _corrupted_copy(op: run.Op, tmp_path: Path) -> run.Op:
    out = tmp_path / "corrupted"
    shutil.copytree(op.out, out)
    return run.Op(op.kind, out, op.rc, dict(op.meta))


def _edit_csv(path: Path, row_no: int, column: str, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row_no][column] = edit(rows[row_no][column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _nudge(cell: str) -> str:
    return repr(float(cell) * (1 + 1e-6))


def test_clean_outputs_pass(quartet, simulate_score):
    assert _problems(*quartet) == []
    assert _problems(*simulate_score) == []


def test_perturbed_table2_hill_fails(quartet, tmp_path):
    workload, (op,) = quartet
    bad = _corrupted_copy(op, tmp_path)
    _edit_csv(bad.out / "table2.csv", 1, "hill", _nudge)
    problems = _problems(workload, [bad])
    assert any(p.startswith("table2 scenario 1: hill") for p in problems), problems


def test_perturbed_fig5_mean_fails(quartet, tmp_path):
    workload, (op,) = quartet
    bad = _corrupted_copy(op, tmp_path)
    _edit_csv(bad.out / "fig5.csv", 2, "hill_mean", _nudge)
    problems = _problems(workload, [bad])
    assert any(p.startswith("fig5 lambda_c=2.0 theoretical") for p in problems), problems


def test_dropped_ledger_line_fails(quartet, tmp_path):
    workload, (op,) = quartet
    bad = _corrupted_copy(op, tmp_path)
    ledger = bad.out / "ledger.jsonl"
    ledger.write_text("".join(ledger.read_text().splitlines(keepends=True)[:-1]))
    problems = _problems(workload, [bad])
    assert any(p.startswith("ledger:") for p in problems), problems


def test_edited_bar_price_fails(simulate_score, tmp_path):
    workload, ops = simulate_score
    bad = _corrupted_copy(ops[0], tmp_path)
    _edit_csv(bad.out / "bars.csv", 0, "m150", _nudge)
    problems = _problems(workload, [bad])
    assert "bars: a bar price is not among the series mid prices" in problems, problems


def test_missing_output_is_a_problem_not_a_crash(quartet, tmp_path):
    workload, (op,) = quartet
    bad = _corrupted_copy(op, tmp_path)
    (bad.out / "fig5.csv").unlink()
    problems = _problems(workload, [bad])
    assert len(problems) == 1 and "unreadable output" in problems[0], problems


def test_host_speed_is_sampled_while_entered():
    host = hostspeed.Sampler()
    with host:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert host.mark() >= 2 and 0 < host.busy_s(0) < 0.35
    ref = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.speed([ref, ref]) == 1.0
    assert hostspeed.speed([2 * ref, 4 * ref]) == pytest.approx(0.375)
