"""The config document: defaults, resolution, bounds and digests.

One JSON document has a `simulation` and an `experiment` section, each
built over the typed config's defaults. `resolve_config` checks the whole
document once, so any value out of bounds raises `ConfigError` before a
command reads or writes anything; its sha256 digest goes into every run
manifest, and `run_digest` keys each ledger line for resume.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import ExperimentConfig, ParameterGrid
from .engine import (FLOAT_MAX, TINY, ConfigurationError, SimulationConfig, bounds_table,
                     check_bounds, validate_config)


class ConfigError(ValueError):
    pass


def _json(value):
    """A dataclass default as a JSON value: tuples become lists."""
    return json.loads(json.dumps(value))


@dataclass(frozen=True)
class _Document:
    """A whole config document: one section per typed config."""

    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)


DEFAULT_CONFIG: dict = _json(asdict(_Document()))


def read_input(file, what: str, error: type[ValueError]) -> str:
    """An input file's text; one not readable as UTF-8 raises `error` naming it once."""
    try:
        return Path(file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # an OSError's text names the file again
        raise error(f"{what} file {file}: {getattr(exc, 'strerror', None) or exc}") from None


def resolve_config(config_path: str | None, seed_flag: int | None, command: str,
                   trials_flag: int | None = None) -> dict:
    """Defaults <- config file <- --seed and --trials, written back from the typed
    configs so equal configs digest alike; any value out of bounds raises ConfigError."""
    override: dict = {}
    if config_path is not None:
        try:
            override = json.loads(read_input(config_path, "config", ConfigError))
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise ConfigError(f"config file {config_path}: not valid JSON: {exc}") from None
        if not isinstance(override, dict):
            raise ConfigError(f"config file {config_path}: not a JSON object")
    doc = _build(_Document, override, "")
    seed = ("experiment", "base_seed") if command == "experiment" else ("simulation", "seed")
    for (section, name), flag in ((seed, seed_flag), (("experiment", "trials"), trials_flag)):
        if flag is not None:
            doc = replace(doc, **{section: replace(getattr(doc, section), **{name: flag})})
    _check(doc)
    return _json(asdict(doc))


def config_digest(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_digest(resolved: dict, refs_files: list[str] | None, paths_file: str | None) -> str:
    """sha256 of the resolved config's digest, the bytes of each input file,
    the tool version and numpy's: what a ledger line must match to be reused
    on resume. The version bumps whenever a change alters an output byte, and
    numpy may change a Generator's stream between releases (NEP 19), so a
    resume never mixes lines of two programs or two random streams."""
    def file_digest(file: str) -> str:
        return hashlib.sha256(Path(file).read_bytes()).hexdigest()

    inputs = {"config": config_digest(resolved),
              "refs": [file_digest(file) for file in refs_files or []],
              "paths": file_digest(paths_file) if paths_file else None,
              "version": __version__, "numpy": np.__version__}
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def _build(cls, section, path: str):
    """A `cls` from a partial config section over its defaults, each given
    value checked against the type of its field's default."""
    if not isinstance(section, dict):
        raise ConfigError(f"config field {path} must be an object")
    default, names = cls(), {f.name for f in fields(cls)}
    values = {}
    for key, value in section.items():
        field_path = f"{path}.{key}" if path else key
        if key not in names:
            raise ConfigError(f"unknown config field: {field_path}")
        values[key] = _convert(getattr(default, key), value, field_path)
    return replace(default, **values)


def _convert(default, value, path: str):
    """`value` as the type of `default`: dataclasses field by field, tuples
    element by element, an int where a float is due, and an integral float
    where an int is; a bool or a string only where the default is one."""
    if value is None:
        raise ConfigError(f"config field {path} is missing a value")
    if is_dataclass(default):
        return _build(type(default), value, path)
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"config field {path} must be a list, got {value!r}")
        return tuple(_convert(default[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    kind = type(default)
    try:
        if kind in (bool, str) or isinstance(value, (bool, str)):
            if type(value) is not kind:
                raise TypeError
            return value
        converted = kind(value)
        if isinstance(value, float) and converted != value:
            raise ValueError  # a fraction cut off, or NaN
        return converted
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config field {path} must be of type {kind.__name__}, "
                          f"got {value!r}") from None


MAX_COUNT = 10**12  # a path day's mean count, and each paths-file count: no int64 wrap
EXPERIMENT_BOUNDS = bounds_table(  # (field, least, greatest) of each experiment number
    ("trials", 1, math.inf), ("base_seed", 0, math.inf), ("path_seed", 0, math.inf),
    ("refs.seed", 0, math.inf), ("paths.seed", 0, math.inf),
    ("refs.count", 1, 10**3),  # each is an OT against every combo's pool: 55x the default 18
    ("refs.n_samples", 2, 10**7),  # standardizing needs 2; 10**7 draws are 80 MB per reference
    ("refs.df", TINY, FLOAT_MAX),  # numpy's Student-t needs a finite df > 0
    ("paths.count", 1, 10**4),  # a path is 300 boxed floats, 10 kB: 10**4 paths are 100 MB
    ("paths.mean_total", 1, MAX_COUNT),  # a path day must be able to hold a transaction
)


def _check(doc: _Document) -> None:
    """Raise a ConfigError naming a value of `doc` out of bounds, grid axis values included."""
    sim = doc.simulation
    configs = [("invalid simulation config: ", sim)] + [
        (f"invalid experiment.grid.{axis.name}: ",
         replace(sim, population=replace(sim.population, **{axis.name: value})))
        for axis in fields(ParameterGrid) for value in getattr(doc.experiment.grid, axis.name)]
    try:
        for prefix, config in configs:
            validate_config(config)
        prefix = "config field experiment."
        check_bounds(doc.experiment, EXPERIMENT_BOUNDS)
    except ConfigurationError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


# the section readers: plain builds of a document that resolve_config checked
def simulation_config(resolved: dict) -> SimulationConfig:
    return _build(SimulationConfig, resolved["simulation"], "simulation")


def experiment_config(resolved: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, resolved["experiment"], "experiment")


def parameter_grid(resolved: dict) -> ParameterGrid:
    """The experiment's search grid; perfbench/inputs.py reads it."""
    return experiment_config(resolved).grid
