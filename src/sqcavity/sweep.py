"""Declarative parameter sweeps: build, solve, extract, and write CSV files.

Config files are flat `key = value` text, where a `#` at the start of a
line or after whitespace starts a comment; command-line flags override
file values. Output is CSV with a `#`-prefixed header that echoes the
fully resolved configuration, so every file is self-describing and two
runs with the same config are bit-identical.
"""

from __future__ import annotations

import errno
import logging
import math
import operator
import os
import re
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._blas import thread_budget
from .errors import (
    ConfigError,
    CutoffTooSmallError,
    InvalidDimensionError,
    SimulationError,
)
from .liouvillian import (
    SqueezedBath,
    SystemParams,
    build_bogoliubov_liouvillian,
    build_liouvillian,
)
from .observables import (
    WignerGrid,
    atom_excited_population,
    mean_photon_number,
    pair_amplitude,
    partial_trace_atom,
    photon_distribution,
    purity,
    wigner,
)
from .operators import FieldSpace, Space, SpaceDims
from .solvers import steady_state, suggest_fock_cutoff, truncation_guard

BOGOLIUBOV_TOL = 1e-4
FLOAT_FMT = "%.12e"

log = logging.getLogger(__name__)


def default_r_grid() -> list[float]:
    """r in {0, 0.05, ..., 1.5}: the visible range of the reference sweeps."""
    return [round(0.05 * k, 10) for k in range(31)]


@dataclass(frozen=True)
class SweepConfig:
    """One sweep. The fields are the config keys: config files, flags,
    `validate` and the output header take each key's name and type from
    its field here."""

    mode: str = "moments_sweep"
    r_values: tuple[float, ...] | None = None  # None: the mode's default
    phi: float = 0.0
    g0: float = 15.0
    gamma: float = 1.0
    kappa: float = 1.0
    delta_a: float = 0.0
    delta_c: float = 0.0
    atom_present: bool = True
    fock_cutoff: int = 60
    guard: int | None = None
    epsilon: float = 1e-8
    wigner_extent: float = 5.0
    wigner_points: int = 101
    output_path: str | None = None

    def validate(self) -> "SweepConfig":
        """This config with every field in its declared type and the mode's
        default r values filled in; ConfigError for anything invalid."""
        config = replace(self, **{f.name: coerce_field(f.name, getattr(self, f.name))
                                  for f in fields(self)})
        if config.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; valid modes: {', '.join(MODES)}")
        mode = MODES[config.mode]
        if config.r_values is None:
            config = replace(config, r_values=mode.default_r)
        if not config.r_values:
            raise ConfigError("r_values must be non-empty")
        for r in config.r_values:
            config.model(r)
        if not 0 < config.epsilon < math.inf:
            raise ConfigError(f"epsilon must be finite and > 0, got {config.epsilon}")
        config.effective_guard()  # ConfigError unless 0 < guard < fock_cutoff
        if config.wigner_points < 2 or not 0 < config.wigner_extent < math.inf:
            raise ConfigError("wigner grid must have a finite extent > 0 and at least 2 points")
        if mode.file_name:
            names = [mode.file_name(config, r) for r in config.r_values]
            clash = [r for r, name in zip(config.r_values, names) if names.count(name) > 1]
            if clash:
                raise ConfigError(f"r values {', '.join(map(repr, clash))} share file names; "
                                  f"{config.mode} needs them distinct to 6 significant digits")
        return config

    def model(self, r: float) -> tuple[SystemParams, SqueezedBath, Space]:
        """The configured model at squeezing strength r; without the atom the
        space is the field's alone. The model classes check their own
        parameters; their errors surface as ConfigError."""
        try:
            params = SystemParams(delta_A=self.delta_a, delta_C=self.delta_c, g0=self.g0,
                                  gamma=self.gamma, kappa=self.kappa)
            space = (SpaceDims if self.atom_present else FieldSpace)(self.fock_cutoff)
            return params, SqueezedBath(r=r, phi=self.phi), space
        except (ValueError, InvalidDimensionError) as exc:
            raise ConfigError(str(exc)) from exc

    def resolved(self) -> dict:
        """All settings with defaults expanded, for the output header echo,
        each written as `load_config` reads it back."""
        effective = {"guard": self.effective_guard(), "output_path": self.effective_output_path()}
        return {f.name: _echo(effective.get(f.name, getattr(self, f.name))) for f in fields(self)}

    def effective_guard(self) -> int:
        try:
            return truncation_guard(self.fock_cutoff, self.guard)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def effective_output_path(self) -> Path:
        default = f"{self.mode}_out" if MODES[self.mode].file_name else f"{self.mode}.csv"
        return Path(self.output_path or default)


def _echo(value) -> str:
    # str and repr agree for Python floats and ints
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value).lower() if isinstance(value, bool) else str(value)


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _boolean(value) -> bool:
    flag = _BOOLEANS.get(value.strip().lower()) if isinstance(value, str) else value
    if flag not in (True, False):
        raise ValueError(f"invalid boolean value {value!r}")
    return bool(flag)


# annotation text of a field's declared type -> conversion of a value, or a string, to it
_CONVERSIONS = {
    "str": str, "float": float, "bool": _boolean,
    "int": lambda v: int(v) if isinstance(v, str) else operator.index(v),
    "tuple[float, ...]": lambda v: tuple(map(float, v.replace(",", " ").split()
                                              if isinstance(v, str) else v)),
}
_FIELD_TYPES = {f.name: f.type for f in fields(SweepConfig)}


def coerce_field(key: str, value, context: str | None = None):
    """`value` as the declared type of the SweepConfig field `key`; a string
    is parsed as a config file or a flag gives it. A value that does not
    convert is a ConfigError `<context>: <reason>`, by default
    `bad value for <key>: <reason>`."""
    declared = _FIELD_TYPES[key]
    if value is None and declared.endswith(" | None"):
        return None
    try:
        return _CONVERSIONS[declared.removesuffix(" | None")](value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{context or f'bad value for {key}'}: {exc}") from exc


def load_config(path) -> SweepConfig:
    """Parse a flat key = value config file."""
    values, lines = {}, {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # `#` starts a comment at the line's start or after whitespace only
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is given twice, on lines "
                              f"{lines[key]} and {lineno}")
        lines[key] = lineno
        values[key] = coerce_field(key, value, f"{path}:{lineno}: bad value for {key}")
    return SweepConfig(**values).validate()


def _worker_count(n_points: int) -> int:
    """SIM_THREADS, 1 if unset, capped at the number of points; ConfigError
    unless it is an integer of at least 1."""
    raw = os.environ.get("SIM_THREADS", "1")
    try:
        workers = int(raw)
        if workers < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"SIM_THREADS must be an integer >= 1, got {raw!r}") from None
    return min(workers, n_points)


def _map_points(config: SweepConfig, fn):
    """Evaluate fn over the sweep points r of config and return the results
    in input order. Points are solved from the largest r down: the photon
    tail grows with r, so a cutoff too small fails on the first solve. Any
    failure aborts the whole sweep before anything is written; its message
    names the failing r, and a truncation error suggests the cutoff
    `suggest_fock_cutoff` gives for the largest r, which covers the sweep.
    The points run inside `thread_budget`, so each worker runs its BLAS
    calls on its own thread."""
    points = list(config.r_values)
    covering_cutoff = suggest_fock_cutoff(max(points), config.epsilon)

    def at_point(r):
        try:
            return fn(r)
        except SimulationError as exc:
            if isinstance(exc, CutoffTooSmallError) and covering_cutoff > config.fock_cutoff:
                exc.suggested_cutoff = covering_cutoff
            if exc.args:
                exc.args = (f"at r = {r!r}: {exc.args[0]}", *exc.args[1:])
            raise

    order = sorted(range(len(points)), key=points.__getitem__, reverse=True)
    workers = _worker_count(len(points))
    with thread_budget() as pinned:
        log.debug("sweep of %d points, %d worker threads; %s", len(points), workers,
                  "BLAS threads: numpy 1, scipy 1" if pinned
                  else "BLAS thread control unavailable")
        if workers == 1:
            results = [at_point(points[k]) for k in order]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(at_point, [points[k] for k in order]))
    solved = dict(zip(order, results))
    return [solved[k] for k in range(len(points))]


def solve_point(config: SweepConfig, r: float, build=None):
    """Steady state of the generator build(*config.model(r)), by default
    `build_liouvillian` as named at the call, with one DEBUG record of what
    was solved, how well, and the seconds of the build, of each stage of
    `StateDiagnostics.seconds` and of all."""
    start = time.perf_counter()
    L = (build or build_liouvillian)(*config.model(r))
    build_seconds = time.perf_counter() - start
    rho = steady_state(L, guard=config.guard, epsilon=config.epsilon)
    diag = rho.diagnostics
    log.debug("solved r = %r: cutoff %d, guard %d, %d LU unknowns, residual %.3e, "
              "min eigenvalue %.3e, tail mass %.3e, LU fill %d, build %.3f s, %s of %.3f s",
              r, config.fock_cutoff, diag.guard, diag.lu_unknowns, diag.residual,
              diag.min_eigenvalue, diag.tail_mass, diag.lu_fill, build_seconds,
              ", ".join(f"{stage} {seconds:.3f} s" for stage, seconds in diag.seconds.items()),
              time.perf_counter() - start)
    return rho


def _moments_row(config: SweepConfig, r: float) -> dict:
    rho = solve_point(config, r)
    dist = photon_distribution(rho, guard=config.guard)
    aa = pair_amplitude(rho)
    return {
        "r": r,
        "mean_n": mean_photon_number(rho),
        "P0": float(dist.probabilities[0]),
        "P1": float(dist.probabilities[1]),
        "abs_aa": abs(aa),
        "arg_aa": float(np.angle(aa)),
        "rho_ee": atom_excited_population(rho) if config.atom_present else 0.0,
        "purity": purity(rho),
        "tail_mass": dist.tail_mass,
    }


MOMENTS_COLUMNS = ("r", "mean_n", "P0", "P1", "abs_aa", "arg_aa", "rho_ee", "purity", "tail_mass")


def run_moments_sweep(config: SweepConfig) -> list[dict]:
    rows = _map_points(config, partial(_moments_row, config))
    path = config.effective_output_path()
    _write_csv(path, config, MOMENTS_COLUMNS, [[row[c] for c in MOMENTS_COLUMNS] for row in rows])
    return rows


def _distribution_file(config: SweepConfig, r: float) -> str:
    return f"distribution_r{r:g}.csv"


def _wigner_file(config: SweepConfig, r: float) -> str:
    tag = f"g0{config.g0:g}" if config.atom_present else "empty"
    return f"wigner_r{r:g}_{tag}.csv"


def run_distribution(config: SweepConfig) -> dict[float, dict]:
    """One {n, P(n)} file per r, reported up to the guard band."""

    def point(r):
        rho = solve_point(config, r)
        dist = photon_distribution(rho, guard=config.guard)
        return {"probabilities": dist.probabilities[: config.fock_cutoff - rho.diagnostics.guard],
                "tail_mass": dist.tail_mass}

    data = dict(zip(config.r_values, _map_points(config, point)))
    for r, res in data.items():
        rows = [[n, p] for n, p in enumerate(res["probabilities"])]
        extra = [f"# r = {r!r}", f"# tail_mass = {FLOAT_FMT % res['tail_mass']}"]
        _write_csv(config.effective_output_path() / _distribution_file(config, r), config,
                   ("n", "P_n"), rows, extra)
    return data


def run_wigner(config: SweepConfig) -> dict[float, WignerGrid]:
    """Wigner grid file per r; first row and column carry the axes."""
    axis = np.linspace(-config.wigner_extent, config.wigner_extent, config.wigner_points)

    def point(r):
        rho = solve_point(config, r)
        field = partial_trace_atom(rho) if config.atom_present else rho
        start = time.perf_counter()
        grid = wigner(field, axis, axis, guard=config.guard, epsilon=config.epsilon)
        log.debug("wigner r = %r: %d x %d grid, %.3f s", r, *grid.values.shape,
                  time.perf_counter() - start)
        return grid

    data = dict(zip(config.r_values, _map_points(config, point)))
    for r, grid in data.items():
        extra = [f"# r = {r!r}",
                 "# first row: p axis; first column: q axis; values[i,j] = W(q_i, p_j)"]
        p_row = ["0.0"] + [FLOAT_FMT % p for p in grid.p_axis]
        rows = [[q, *values] for q, values in zip(grid.q_axis, grid.values)]
        _write_csv(config.effective_output_path() / _wigner_file(config, r), config, p_row,
                   rows, extra)
    return data


def run_bogoliubov_check(config: SweepConfig) -> list[dict]:
    """Solve the squeezed and lab frames at each r and compare observables.
    The squeezed frame goes first: its builder refuses a model outside its
    domain (phi, delta_a or delta_c not 0) before anything is factorized."""

    def point(r):
        rho_bog = solve_point(config, r, build_bogoliubov_liouvillian)
        rho_lab = solve_point(config, r)
        mean_lab = mean_photon_number(rho_lab)
        mean_bog = mean_photon_number(rho_bog)
        disc = abs(mean_lab - mean_bog)
        if config.atom_present:
            disc = max(disc, abs(atom_excited_population(rho_lab)
                                 - atom_excited_population(rho_bog)))
        return {"r": r, "mean_n_lab": mean_lab, "mean_n_bog": mean_bog,
                "discrepancy": disc, "passed": disc < BOGOLIUBOV_TOL}

    rows = _map_points(config, point)
    columns = ("r", "mean_n_lab", "mean_n_bog", "discrepancy", "passed")
    _write_csv(config.effective_output_path(), config, columns,
               [[row[c] for c in columns] for row in rows])
    return rows


class Mode(NamedTuple):
    """What a mode runs, its r values when none are given and, for a mode
    that writes one file per r into a directory, the name of that file."""

    run: Callable[[SweepConfig], object]
    default_r: tuple[float, ...]
    file_name: Callable[[SweepConfig, float], str] | None = None


# distribution plots use a few illustrative strengths; sweeps cover the
# full grid
MODES = {
    "moments_sweep": Mode(run_moments_sweep, tuple(default_r_grid())),
    "distribution": Mode(run_distribution, (0.25, 0.5, 1.0), _distribution_file),
    "wigner": Mode(run_wigner, tuple(default_r_grid()), _wigner_file),
    "bogoliubov_check": Mode(run_bogoliubov_check, tuple(default_r_grid())),
}


def run(config: SweepConfig):
    config = config.validate()
    mode = MODES[config.mode]
    out = config.effective_output_path()  # per-r files share a parent: one stands for all
    _check_writable(out / mode.file_name(config, config.r_values[0]) if mode.file_name else out)
    return mode.run(config)


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FMT % value


def _write_csv(path: Path, config: SweepConfig, columns, rows, extra_header=()):
    lines = ["# sqcavity sweep output",
             *(f"# {key} = {value}" for key, value in config.resolved().items()),
             *extra_header, ",".join(columns)]
    lines += (",".join(map(_format_cell, row)) for row in rows)
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def _check_writable(path: Path):
    """ConfigError unless path is no directory and its nearest existing
    ancestor is a directory that may be written to. Nothing is created."""
    ancestor = next(parent for parent in path.parents if parent.exists())
    code = (errno.EISDIR if path.is_dir() else errno.ENOTDIR if not ancestor.is_dir()
            else None if os.access(ancestor, os.W_OK | os.X_OK) else errno.EACCES)
    if code is not None:
        raise ConfigError(f"cannot write output {path}: {os.strerror(code)}")


def _atomic_write(path: Path, text: str):
    """Write via a temp file of its own in the same directory, so failed or
    concurrent sweeps never leave partial or interleaved output. A path
    that cannot be written is a ConfigError."""
    # a unique name, opened like any new file so the output keeps the
    # umask-given permissions (tempfile.mkstemp would make it 0600)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("x") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        # the OS reason alone: the error may name the temporary file
        raise ConfigError(f"cannot write output {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp.exists():  # False also where the parent is not a directory
            tmp.unlink()
