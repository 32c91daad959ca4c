"""The benchmark calls lobfactor functions by name.

perfbench/tracing.py patches module attributes such as
``lobfactor.calibration.evaluate_combo`` and ``lobfactor.cli.run``, and
perfbench/inputs.py checks the inputs it writes with the CLI's config
loaders. Renaming or deleting one of them, or a loader that rejects what the
benchmark writes, breaks benchmark runs; these tests make it break the test
suite too.
"""

import importlib.util
from pathlib import Path

import pytest

from lobfactor import calibration, cli, engine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INPUTS = load_perfbench("inputs")


def test_tracer_finds_every_name_it_wraps_and_restores_them():
    originals = (calibration.evaluate_combo, cli.run, engine.decide_order)
    tracer = load_perfbench("tracing").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert (calibration.evaluate_combo, cli.run, engine.decide_order) == originals


@pytest.mark.parametrize("workload", sorted(INPUTS.WORKLOADS))
def test_benchmark_inputs_pass_the_config_loaders(workload, tmp_path):
    shape = INPUTS.WORKLOADS[workload]
    INPUTS.validate_inputs(shape, INPUTS.write_inputs(shape, 1, tmp_path))
