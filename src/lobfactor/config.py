"""The config schema and document: types, caps, bounds, resolution and digests.

Each section of the one JSON document is a typed config: `simulation` a
`SimulationConfig` (its population a `PopulationConfig`, whose endowment is
a `CashSpec`), `experiment` an `ExperimentConfig` (its `ParameterGrid`,
`RefsSpec` and `PathsSpec`). Each number of a section has one row (field
path, least, greatest) in its bounds table, `SIMULATION_BOUNDS` or
`EXPERIMENT_BOUNDS`, and `check_bounds` is the one checker of both;
`validate_config` adds the rules that span simulation fields. Every check
raises `ConfigError`. `resolve_config` builds the document over the typed
defaults and checks it once, so any value out of bounds raises before a
command reads or writes anything; its sha256 digest goes into every run
manifest, and `run_digest` keys each ledger line for resume. This module
imports no other lobfactor module but the version.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__

RETURN_HORIZON_CLAMP = 10.0  # bound on tau * r_hat inside exp()
TINY, FLOAT_MAX = math.ulp(0.0), sys.float_info.max  # the least and greatest positive floats
# far above the 2110-step day; bounds the pre-drawn per-step arrays
MAX_T_SIM = 10**6
# 50 times the default population
MAX_AGENTS = 10**4
# the initial share draw rng.integers(0, w_max + 1) needs an int64 high
MAX_W_MAX = 2**63 - 1
# weight means, noise scale and risk aversion: numpy's exponential draws stay below
# about 45 and its normal ones below about 14, so every product of them stays finite
MAX_SCALE = 1e100
MAX_COUNT = 10**12  # a path day's mean count, and each paths-file count: no int64 wrap


@dataclass
class CashSpec:
    """Initial cash endowment: "uniform" on (0, c_max) or "pareto" (c_min, beta)."""

    kind: str = "uniform"
    c_max: float = 30_000.0
    c_min: float = 5_000.0
    beta: float = 1.5


@dataclass
class PopulationConfig:
    n_agents: int = 200
    lambda_f: float = 10.0  # mean fundamental weight
    lambda_c: float = 0.0  # mean chartist weight; 0 disables the component
    lambda_m: float = 0.0  # mean mood weight; 0 disables the component
    lambda_n: float = 1.0  # mean noise weight
    sigma_n: float = 0.01  # std of the per-decision noise draw
    nu: float = 0.0  # mood contagion strength; 0 freezes moods
    alpha: float = 0.1  # base risk aversion
    cash: CashSpec = field(default_factory=CashSpec)
    w_max: int = 50  # initial shares ~ uniform integer on [0, w_max]
    tau_f: int = 200  # fundamentalist mean-reversion horizon, steps
    p_optimist_init: float = 0.5


@dataclass
class SimulationConfig:
    population: PopulationConfig = field(default_factory=PopulationConfig)
    t_sim: int = 2110
    no_exec_windows: tuple = ((1, 100), (1100, 1110))
    p0: float = 300.0
    fundamental_price: float = 300.0
    tick_size: float = 1e-4
    v_max: int = 50  # per-order volume cap
    sigma_sq_order: float = 1e-4  # return-variance belief in the sizing rule
    seed: int = 0


@dataclass(frozen=True)
class ParameterGrid:
    lambda_c: tuple[float, ...] = (0.0, 1.5, 1.75, 2.0, 2.25, 2.5)
    lambda_m: tuple[float, ...] = (0.0, 1e-5, 2e-5, 3e-5, 4e-5, 5e-5)
    nu: tuple[float, ...] = (0.3, 0.5, 0.7)
    alpha: tuple[float, ...] = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)


@dataclass(frozen=True)
class RefsSpec:
    """Student-t stand-ins for the reference tail clouds."""

    count: int = 18
    n_samples: int = 30_000
    df: float = 3.0
    seed: int = 777


@dataclass(frozen=True)
class PathsSpec:
    """Seeded synthetic reference transaction paths."""

    count: int = 6
    seed: int = 4242
    mean_total: int = 30_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Trials per combo, their seeds, the search grid and the references."""

    trials: int = 20
    base_seed: int = 1000  # trial i of a combo runs with seed base_seed + i
    path_seed: int = 7701  # stream of each trial's reference path choice
    grid: ParameterGrid = field(default_factory=ParameterGrid)
    refs: RefsSpec = field(default_factory=RefsSpec)
    paths: PathsSpec = field(default_factory=PathsSpec)


class ConfigError(ValueError):
    """A config document, or a config built in code, failed a check."""


def bounds_table(*rows: tuple) -> tuple:
    """Rows (field path, least, greatest), each given its getter once."""
    return tuple((path, least, greatest, attrgetter(path)) for path, least, greatest in rows)


def check_bounds(config, bounds: tuple) -> None:
    """Raise a ConfigError naming the first field outside its row's closed range."""
    for path, least, greatest, get in bounds:
        value = get(config)
        if not least <= value <= greatest:
            raise ConfigError(f"{path} must lie in [{least}, {greatest}], got {value}")


# each float row's greatest is finite, so no row admits NaN or an infinity
SIMULATION_BOUNDS = bounds_table(
    ("seed", 0, math.inf), ("t_sim", 1, MAX_T_SIM), ("v_max", 1, math.inf),
    ("p0", TINY, FLOAT_MAX), ("fundamental_price", TINY, FLOAT_MAX),
    ("tick_size", TINY, FLOAT_MAX), ("sigma_sq_order", TINY, FLOAT_MAX),
    ("population.n_agents", 1, MAX_AGENTS), ("population.w_max", 0, MAX_W_MAX),
    ("population.tau_f", 1, int(FLOAT_MAX)),  # w_f / tau_f converts tau_f to a float
    ("population.lambda_f", 0.0, MAX_SCALE), ("population.lambda_c", 0.0, MAX_SCALE),
    ("population.lambda_m", 0.0, MAX_SCALE), ("population.lambda_n", 0.0, MAX_SCALE),
    ("population.sigma_n", 0.0, MAX_SCALE), ("population.alpha", TINY, MAX_SCALE),
    ("population.nu", 0.0, 1.0), ("population.p_optimist_init", 0.0, 1.0),
    ("population.cash.c_max", TINY, FLOAT_MAX), ("population.cash.c_min", TINY, FLOAT_MAX),
    ("population.cash.beta", TINY, FLOAT_MAX),
)
EXPERIMENT_BOUNDS = bounds_table(  # (field, least, greatest) of each experiment number
    ("trials", 1, math.inf), ("base_seed", 0, math.inf), ("path_seed", 0, math.inf),
    ("refs.seed", 0, math.inf), ("paths.seed", 0, math.inf),
    ("refs.count", 1, 10**3),  # each is an OT against every combo's pool: 55x the default 18
    ("refs.n_samples", 2, 10**7),  # standardizing needs 2; 10**7 draws are 80 MB per reference
    ("refs.df", TINY, FLOAT_MAX),  # numpy's Student-t needs a finite df > 0
    ("paths.count", 1, 10**4),  # a path is 300 boxed floats, 10 kB: 10**4 paths are 100 MB
    ("paths.mean_total", 1, MAX_COUNT),  # a path day must be able to hold a transaction
)


def validate_config(config: SimulationConfig) -> None:
    """Check each field against SIMULATION_BOUNDS, then the rules that span fields."""
    check_bounds(config, SIMULATION_BOUNDS)
    cash = config.population.cash
    if cash.kind not in ("uniform", "pareto"):
        raise ConfigError(f"unknown cash kind {cash.kind!r}")
    # rng.random's least nonzero draw is 2**-53 (zeros are drawn again), so the
    # largest Pareto cash is c_min * 2**(53 / beta); checked for any kind, since
    # the Pareto scenarios take c_min and beta whatever kind the config names
    if math.log(cash.c_min) + 53 / cash.beta * math.log(2) > math.log(FLOAT_MAX):
        raise ConfigError("cash c_min * 2**(53 / beta), the largest Pareto draw, must be finite")
    # a first order's limit lies within e**RETURN_HORIZON_CLAMP of p0; its
    # tick count, price / tick, must be a finite float
    if not math.isfinite(max(config.p0, config.fundamental_price)
                         * math.exp(RETURN_HORIZON_CLAMP) / config.tick_size):
        raise ConfigError(f"max(p0, fundamental_price) * e**{RETURN_HORIZON_CLAMP:g} "
                          "/ tick_size must be finite")
    for window in config.no_exec_windows:
        if len(window) != 2 or not 1 <= window[0] <= window[1]:
            raise ConfigError(f"bad no-exec window {window}")


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
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


# the section readers: plain builds of a document that resolve_config checked
def simulation_config(resolved: dict) -> SimulationConfig:
    return _build(SimulationConfig, resolved["simulation"], "simulation")


def experiment_config(resolved: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, resolved["experiment"], "experiment")


def parameter_grid(resolved: dict) -> ParameterGrid:
    """The experiment's search grid; perfbench/inputs.py reads it."""
    return experiment_config(resolved).grid
