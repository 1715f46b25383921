"""Declarative parameter sweeps: build, solve, extract, and write CSV files.

Config files are flat `key = value` text with `#` comments; command-line
flags override file values. Output is CSV with a `#`-prefixed header that
echoes the fully resolved configuration, so every file is self-describing
and two runs with the same config are bit-identical.
"""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from ._blas import thread_budget
from .errors import (
    ConfigError,
    CutoffTooSmallError,
    InvalidDimensionError,
    SimulationError,
    UnsupportedFrameError,
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

MODES = ("moments_sweep", "distribution", "wigner", "bogoliubov_check")
BOGOLIUBOV_TOL = 1e-4
FLOAT_FMT = "%.12e"

log = logging.getLogger(__name__)


def default_r_grid() -> list[float]:
    """r in {0, 0.05, ..., 1.5}: the visible range of the reference sweeps."""
    return [round(0.05 * k, 10) for k in range(31)]


@dataclass(frozen=True)
class SweepConfig:
    mode: str = "moments_sweep"
    r_values: tuple[float, ...] | None = None  # None: mode-dependent default
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
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; valid modes: {', '.join(MODES)}")
        config = self
        if config.r_values is None:
            # distribution plots use a few illustrative strengths; sweeps
            # cover the full grid
            values = (0.25, 0.5, 1.0) if config.mode == "distribution" else tuple(default_r_grid())
            config = replace(config, r_values=values)
        if not config.r_values:
            raise ConfigError("r_values must be non-empty")
        for r in config.r_values:
            config.model(r)
        if not 0 < config.epsilon < math.inf:
            raise ConfigError(f"epsilon must be finite and > 0, got {config.epsilon}")
        config.effective_guard()  # ConfigError unless 0 < guard < fock_cutoff
        if config.wigner_points < 2 or not 0 < config.wigner_extent < math.inf:
            raise ConfigError("wigner grid must have a finite extent > 0 and at least 2 points")
        return config

    def model(self, r: float) -> tuple[SystemParams, SqueezedBath, Space]:
        """The configured model at squeezing strength r. The model classes
        check their own parameters; their errors surface as ConfigError."""
        try:
            params = SystemParams(
                delta_A=self.delta_a,
                delta_C=self.delta_c,
                g0=self.g0,
                gamma=self.gamma,
                kappa=self.kappa,
                atom_present=self.atom_present,
            )
            if not self.atom_present:
                # g0 and gamma are checked above even though the empty
                # cavity drops them
                params = replace(params, g0=0.0, gamma=0.0)
            space = (SpaceDims if self.atom_present else FieldSpace)(self.fock_cutoff)
            return params, SqueezedBath(r=r, phi=self.phi), space
        except (ValueError, InvalidDimensionError) as exc:
            raise ConfigError(str(exc)) from exc

    def resolved(self) -> dict:
        """All settings with defaults expanded, for the output header echo."""
        return {
            "mode": self.mode,
            "r_values": ",".join(repr(r) for r in self.r_values),
            "phi": repr(self.phi),
            "g0": repr(self.g0),
            "gamma": repr(self.gamma),
            "kappa": repr(self.kappa),
            "delta_a": repr(self.delta_a),
            "delta_c": repr(self.delta_c),
            "atom_present": str(self.atom_present).lower(),
            "fock_cutoff": str(self.fock_cutoff),
            "guard": str(self.effective_guard()),
            "epsilon": repr(self.epsilon),
            "wigner_extent": repr(self.wigner_extent),
            "wigner_points": str(self.wigner_points),
            "output_path": str(self.effective_output_path()),
        }

    def effective_guard(self) -> int:
        try:
            return truncation_guard(self.fock_cutoff, self.guard)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def effective_output_path(self) -> Path:
        if self.output_path:
            return Path(self.output_path)
        if self.mode in ("distribution", "wigner"):
            return Path(f"{self.mode}_out")
        return Path(f"{self.mode}.csv")


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

_PARSERS = {
    "mode": str,
    "r_values": lambda s: tuple(float(x) for x in s.replace(",", " ").split()),
    "phi": float,
    "g0": float,
    "gamma": float,
    "kappa": float,
    "delta_a": float,
    "delta_c": float,
    "atom_present": lambda s: _parse_bool(s),
    "fock_cutoff": int,
    "guard": int,
    "epsilon": float,
    "wigner_extent": float,
    "wigner_points": int,
    "output_path": str,
}


def _parse_bool(s: str) -> bool:
    try:
        return _BOOL_VALUES[s.strip().lower()]
    except KeyError:
        raise ConfigError(f"invalid boolean value {s!r}") from None


def load_config(path) -> SweepConfig:
    """Parse a flat key = value config file."""
    fields = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            fields[key] = _PARSERS[key](value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return SweepConfig(**fields).validate()


def _worker_count(n_points: int) -> int:
    raw = os.environ.get("SIM_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"SIM_THREADS must be an integer, got {raw!r}") from None
    return max(1, min(workers, n_points))


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


def solve_point(config: SweepConfig, r: float):
    """Steady state of the configured model at one squeezing strength."""
    return _solve(config, r, build_liouvillian, *config.model(r))


def _solve(config: SweepConfig, r: float, build, *model):
    """Steady state of the generator build(*model), with one DEBUG record
    of what was solved, how well, and in how many seconds, in all and in
    the LU."""
    start = time.perf_counter()
    rho = steady_state(build(*model), guard=config.guard, epsilon=config.epsilon)
    diag = rho.diagnostics
    log.debug("solved r = %r: cutoff %d, guard %d, %d LU unknowns, residual %.3e, "
              "min eigenvalue %.3e, tail mass %.3e, LU fill %d, LU %.3f s of %.3f s", r,
              config.fock_cutoff, config.effective_guard(), diag.lu_unknowns, diag.residual,
              diag.min_eigenvalue, diag.tail_mass, diag.lu_fill, diag.lu_seconds,
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


def run_distribution(config: SweepConfig) -> dict[float, dict]:
    """One {n, P(n)} file per r, reported up to the guard band."""
    guard = config.effective_guard()

    def point(r):
        rho = solve_point(config, r)
        dist = photon_distribution(rho, guard=config.guard)
        return {"probabilities": dist.probabilities[: config.fock_cutoff - guard],
                "tail_mass": dist.tail_mass}

    results = _map_points(config, point)
    out_dir = config.effective_output_path()
    out_dir.mkdir(parents=True, exist_ok=True)
    data = {}
    for r, res in zip(config.r_values, results):
        rows = [[n, p] for n, p in enumerate(res["probabilities"])]
        extra = [f"# r = {r!r}", f"# tail_mass = {FLOAT_FMT % res['tail_mass']}"]
        _write_csv(out_dir / f"distribution_r{r:g}.csv", config, ("n", "P_n"), rows, extra)
        data[r] = res
    return data


def run_wigner(config: SweepConfig) -> dict[float, WignerGrid]:
    """Wigner grid file per r; first row and column carry the axes."""
    axis = np.linspace(-config.wigner_extent, config.wigner_extent, config.wigner_points)

    def point(r):
        rho = solve_point(config, r)
        field = partial_trace_atom(rho) if config.atom_present else rho
        return wigner(field, axis, axis, guard=config.guard, epsilon=config.epsilon)

    results = _map_points(config, point)
    out_dir = config.effective_output_path()
    out_dir.mkdir(parents=True, exist_ok=True)
    data = {}
    for r, grid in zip(config.r_values, results):
        tag = f"g0{config.g0:g}" if config.atom_present else "empty"
        extra = [f"# r = {r!r}",
                 "# first row: p axis; first column: q axis; values[i,j] = W(q_i, p_j)"]
        p_row = ["0.0"] + [FLOAT_FMT % p for p in grid.p_axis]
        rows = [[q, *values] for q, values in zip(grid.q_axis, grid.values)]
        _write_csv(out_dir / f"wigner_r{r:g}_{tag}.csv", config, p_row, rows, extra)
        data[r] = grid
    return data


def run_bogoliubov_check(config: SweepConfig) -> list[dict]:
    """Solve the lab and squeezed frames at each r and compare observables."""
    if config.phi != 0.0 or config.delta_a != 0.0 or config.delta_c != 0.0:
        raise UnsupportedFrameError(
            "bogoliubov_check requires phi = delta_a = delta_c = 0"
        )

    def point(r):
        params, bath, space = config.model(r)
        rho_lab = _solve(config, r, build_liouvillian, params, bath, space)
        rho_bog = _solve(config, r, build_bogoliubov_liouvillian, params, r, space)
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
    csv_rows = [[row["r"], row["mean_n_lab"], row["mean_n_bog"], row["discrepancy"],
                 int(row["passed"])] for row in rows]
    _write_csv(config.effective_output_path(), config, columns, csv_rows)
    return rows


def run(config: SweepConfig):
    config = config.validate()
    dispatch = {
        "moments_sweep": run_moments_sweep,
        "distribution": run_distribution,
        "wigner": run_wigner,
        "bogoliubov_check": run_bogoliubov_check,
    }
    return dispatch[config.mode](config)


def _header_lines(config: SweepConfig):
    yield "# sqcavity sweep output"
    for key, value in config.resolved().items():
        yield f"# {key} = {value}"


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FMT % value


def _write_csv(path: Path, config: SweepConfig, columns, rows, extra_header=None):
    lines = list(_header_lines(config))
    if extra_header:
        lines.extend(extra_header)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def _atomic_write(path: Path, text: str):
    """Write via a temp file of its own in the same directory, so failed or
    concurrent sweeps never leave partial or interleaved output."""
    path.parent.mkdir(parents=True, exist_ok=True)
    # a unique name, opened like any new file so the output keeps the
    # umask-given permissions (tempfile.mkstemp would make it 0600)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with tmp.open("x") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
