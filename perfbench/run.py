"""Benchmark of the lobfactor calibration pipeline.

    python3 perfbench/run.py --workload quartet --seed 1 --seconds 45 --trace 0

Runs one workload in this process, from the root of a source checkout with
no install step: ``src`` goes on the import path and ``lobfactor.cli.main``
is called in-process, serially (``--workers 1``). Set-up writes the inputs
generated from ``--seed``; the timed part then runs whole rounds of the
workload's commands, each round with its own program seeds, and stops before
a round that would end past ``--seconds``; after it, every output is checked
against computations made apart from the program. The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
operations, and the end-to-end metrics (``--trace 0``), whose times are
converted to the reference host (``hostspeed``), or the per-layer metrics of
a traced run (``--trace 1``). A command that exits non-zero, or an output
check that does not hold, is a failed operation, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 4  # set-ups timed before the timed part, and again after it
SETUP_PROBES = 8  # host probes each set-up runs after its work, where it ran


class SetupError(RuntimeError):
    """The workload's inputs could not be made."""


@dataclass
class Op:
    """One CLI command of a round and what its checks found."""

    kind: str
    out: Path
    rc: int
    meta: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.problems)


def call_cli(argv: list[str]) -> int:
    """Run ``lobfactor.cli.main`` with its output captured; return its exit code."""
    from lobfactor import cli

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = 1
    if rc != 0:
        print(f"lobfactor {' '.join(argv)} exited {rc}:\n{sink.getvalue()}", file=sys.stderr)
    return rc


def checked(check, *args) -> list[str]:
    """Problems a check finds, or the reason the output could not be read."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{check.__name__}: unreadable output: {exc!r}"]


class ExperimentWorkload:
    """One ``experiment`` command per round, on the full or a narrowed grid."""

    def __init__(self, shape: dict, seed: int, files: dict):
        import checks

        self.shape, self.seed, self.files = shape, seed, files
        grid = json.loads(files["config"].read_text())["experiment"]["grid"]
        combos = sum(len(checks.expected_combos(s, grid)) for s in shape["scenarios"])
        self.required_trials = combos * shape["trials"]

    def run_round(self, round_no: int, out: Path) -> list[Op]:
        base_seed = inputs.round_seed(self.seed, round_no)
        rc = call_cli([
            "experiment", "--config", str(self.files["config"]),
            "--paths", str(self.files["paths"]),
            "--scenarios", ",".join(map(str, self.shape["scenarios"])),
            "--trials", str(self.shape["trials"]), "--workers", "1",
            "--seed", str(base_seed), "--out", str(out),
        ])
        return [Op("experiment", out, rc, {"base_seed": base_seed})]

    def check(self, ops: list[Op]) -> None:
        import checks

        refs = json.loads(self.files["config"].read_text())["experiment"]["refs"]
        tails = checks.student_t_tails(refs)
        for op in ops:
            if op.rc == 0:
                op.problems += checked(
                    checks.check_experiment, op.out, self.files["config"], self.files["paths"],
                    self.shape["scenarios"], self.shape["trials"], op.meta["base_seed"], tails)


class SimulateScoreWorkload:
    """Per round: ``simulate`` over a seed list, one ``metrics`` command over
    the written bars, and a rerun of the first seed."""

    def __init__(self, shape: dict, seed: int, files: dict):
        self.shape, self.seed, self.files = shape, seed, files
        self.refs = [str(files[f"ref{i}"]) for i in range(shape["ref_files"])]
        self.required_trials = len(inputs.simulate_seeds(shape, seed, 0)) + 1

    def _simulate(self, scenario: int, seed: int, out: Path) -> Op:
        config = self.files[f"config_s{scenario}"]
        rc = call_cli(["simulate", "--config", str(config), "--paths", str(self.files["paths"]),
                       "--seed", str(seed), "--out", str(out)])
        return Op("simulate", out, rc, {"config": config})

    def run_round(self, round_no: int, out: Path) -> list[Op]:
        ops = [self._simulate(scenario, seed, out / f"s{scenario}-{seed}")
               for scenario, seed in inputs.simulate_seeds(self.shape, self.seed, round_no)]
        bars = [str(op.out / "bars.csv") for op in ops]
        rc = call_cli(["metrics", *bars, "--refs", *self.refs, "--out", str(out / "metrics")])
        ops.append(Op("metrics", out / "metrics", rc, {"bars": bars}))
        scenario, seed = inputs.simulate_seeds(self.shape, self.seed, round_no)[0]
        rerun = self._simulate(scenario, seed, out / "rerun")
        rerun.meta["original"] = ops[0].out
        return ops + [rerun]

    def check(self, ops: list[Op]) -> None:
        import checks

        for op in ops:
            if op.rc != 0:
                continue
            if op.kind == "metrics":
                op.problems += checked(checks.check_metrics_report, op.out, op.meta["bars"], self.refs)
            else:
                op.problems += checked(checks.check_simulation, op.out, op.meta["config"])
            if "original" in op.meta:
                op.problems += checked(checks.check_same_bytes, op.meta["original"], op.out)


def time_setup(name: str, shape: dict, seed: int, out: Path) -> tuple[float, float]:
    """Make the inputs into ``out`` in a fresh interpreter that imports the
    program, writes and validates every generated file, then probes the
    host's speed; return its wall time less the probes, as measured and on
    the reference host."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", name, "--seed", str(seed),
             "--out", str(out), "--shape", json.dumps(shape), "--probes", str(SETUP_PROBES)],
            capture_output=True, text=True, timeout=120,
        )
    except subprocess.TimeoutExpired as exc:
        raise SetupError(f"input generation did not end within {exc.timeout} s") from exc
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SetupError(f"input generation exited {proc.returncode}:\n{proc.stderr}")
    probes = json.loads(proc.stdout.splitlines()[-1])
    wall -= sum(probes)
    return wall, wall * hostspeed.speed(probes)


def same_files(a: Path, b: Path) -> bool:
    diff = filecmp.dircmp(a, b)
    return not (diff.left_only or diff.right_only
                or filecmp.cmpfiles(a, b, diff.common_files, shallow=False)[1])


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_workload(name: str, shape: dict, seed: int, seconds: float, trace: bool,
                 work: Path, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Set up, run whole rounds for ``seconds``, check every output; return the result.

    Set-up is timed ``setup_samples`` times before the timed part and as many
    times after it, so its median spans the run as the other metrics do.
    Untraced, every time is taken to the reference host (``hostspeed``),
    round by round and set-up by set-up; the times as measured go to
    standard error.
    """
    setups = [time_setup(name, shape, seed, work / f"inputs{i}") for i in range(setup_samples)]
    files = inputs.input_files(shape, work / "inputs0")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from tracing import Tracer

    kind = ExperimentWorkload if shape["kind"] == "experiment" else SimulateScoreWorkload
    workload = kind(shape, seed, files)
    tracer = Tracer() if trace else None
    host = hostspeed.Sampler()
    ops: list[Op] = []
    plain_s, plain_cpu, speeds, traced_s, traced_bytes = [], [], [], [], 0
    rounds = 0
    t0 = time.perf_counter()
    while True:
        # the traced run leaves the probes out, so they stay out of every span
        with host if tracer is None else contextlib.nullcontext():
            mark, start, cpu0 = host.mark(), time.perf_counter(), time.process_time()
            ops += workload.run_round(rounds, work / f"r{rounds}")
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
        plain_s.append(wall - host.busy_s(mark))
        plain_cpu.append(cpu - host.busy_s(mark))
        speeds.append(host.speed(mark))
        if tracer is not None:
            # the same round again, traced, for the per-layer split and overhead
            tracer.install()
            try:
                start = time.perf_counter()
                traced_ops = workload.run_round(rounds, work / f"r{rounds}t")
                traced_s.append(time.perf_counter() - start)
            finally:
                tracer.uninstall()
            traced_ops[0].problems += tracer.problems
            tracer.problems = []
            traced_bytes += tree_bytes(work / f"r{rounds}t")
            ops += traced_ops
        rounds += 1
        # stop before a round that, at the mean round time so far, would end
        # past the requested run length, so a run never outlasts it by a round
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / rounds > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [time_setup(name, shape, seed, work / f"inputs{i}")
               for i in range(setup_samples, 2 * setup_samples)]
    if not same_files(work / "inputs0", work / f"inputs{2 * setup_samples - 1}"):
        raise SetupError("two set-ups from the same seed wrote different inputs")

    workload.check(ops)
    failed = [op for op in ops if op.failed]
    for op in failed:
        print(f"{op.kind} {op.out}: exit {op.rc}; " + "; ".join(op.problems), file=sys.stderr)
    trials = rounds * workload.required_trials
    if tracer is None:
        print(f"perfbench: as measured: {trials / sum(plain_s):.4f} trials/s, "
              f"{sum(plain_cpu) * 1e3 / trials:.2f} ms CPU per trial, set-up "
              f"{statistics.median(w for w, _ in setups):.4f} s; host speed "
              f"{min(speeds):.3f} to {max(speeds):.3f} over {rounds} rounds", file=sys.stderr)
        metrics = {
            "trials_per_s": (trials / sum(w * v for w, v in zip(plain_s, speeds)), "trials/s"),
            "cpu_ms_per_trial": (sum(c * v for c, v in zip(plain_cpu, speeds)) * 1e3 / trials, "ms"),
            "setup_s": (statistics.median(ref for _, ref in setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.layer_metrics(rounds, workload.required_trials, traced_bytes)
        metrics["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(plain_s), "s")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{name}-s{seed}.json",
                     {"workload": name, "seed": seed, "rounds": rounds})
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lobfactor" / "cli.py").is_file():
        print(f"perfbench: no lobfactor sources at {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    try:
        result = run_workload(args.workload, inputs.WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace), work)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
