"""The benchmark's tracer wraps lobfactor functions by name.

perfbench/tracing.py patches module attributes such as
``lobfactor.calibration.evaluate_combo`` and ``lobfactor.cli.run``. Renaming
or deleting one of them breaks traced benchmark runs; this test makes it
break the test suite too.
"""

import importlib.util
from pathlib import Path

from lobfactor import calibration, cli, engine


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_name_it_wraps_and_restores_them():
    originals = (calibration.evaluate_combo, cli.run, engine.decide_order)
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert (calibration.evaluate_combo, cli.run, engine.decide_order) == originals
