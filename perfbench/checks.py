"""Correctness checks on the files a workload writes, against closed forms.

The oracles here are written from the physics alone (numpy and `math`), so
they stay independent of the sqcavity code they check. Every check returns a
list of failure messages; an empty list means the output passed.

The empty cavity relaxes to the squeezed vacuum of its bath, so its outputs
have closed forms: ⟨a†a⟩ = sinh²r, |⟨aa⟩| = cosh r sinh r, the photon
distribution of a squeezed vacuum (odd terms zero), and a Gaussian Wigner
function with quadrature variances e^{+2r}/2 (q) and e^{-2r}/2 (p) at
squeezing phase 0. With the atom there is no closed form; P(1) > 0 is the
atom's signature and the tail mass must stay below epsilon.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

MOMENT_TOL = 1e-7  # absolute, on moments of order one
PN_TOL = 1e-8  # absolute, on each photon-number population
WIGNER_TOL = 1e-6  # absolute, on W (whose peak is 1/pi)
GRID_TOL = 1e-3  # relative, on the grid integral and quadrature variances


def squeezed_photon_numbers(r: float, nmax: int) -> np.ndarray:
    """P(n) of a squeezed vacuum: P(2m) = tanh(r)^{2m} (2m)! / (cosh r (m!)^2 4^m)."""
    p = np.zeros(nmax)
    p[0] = 1.0 / math.cosh(r)
    t2 = math.tanh(r) ** 2
    for m in range(1, (nmax - 1) // 2 + 1):
        p[2 * m] = p[2 * m - 2] * t2 * (2 * m - 1) / (2 * m)
    return p


def read_output(path: Path):
    """Split a sweep output into its `# key = value` header and data lines."""
    header, data = {}, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                header[key.strip()] = value.strip()
        else:
            data.append(line)
    return header, data


def _header_failures(header: dict, config: dict, path) -> list[str]:
    expected = {
        "mode": config["mode"],
        "atom_present": str(config["atom_present"]).lower(),
        "fock_cutoff": str(config["fock_cutoff"]),
        "r_values": ",".join(repr(r) for r in config["r_values"]),
    }
    return [f"{path}: header {key} = {header.get(key)!r}, expected {value!r}"
            for key, value in expected.items() if header.get(key) != value]


def check_moments(path: Path, config: dict) -> list[str]:
    """Rows of a `moments_sweep` CSV, one per r in input order."""
    header, data = read_output(path)
    failures = _header_failures(header, config, path)
    columns = data[0].split(",")
    table = np.array([[float(x) for x in line.split(",")] for line in data[1:]]).reshape(
        -1, len(columns))
    col = {name: table[:, i] for i, name in enumerate(columns)}
    r = np.array(config["r_values"])
    if table.shape[0] != r.size or not np.allclose(col["r"], r, rtol=1e-11, atol=0):
        return failures + [f"{path}: r column does not match the configured r values"]

    def require(ok, what):
        bad = np.flatnonzero(~np.asarray(ok))
        if bad.size:
            failures.append(f"{path}: {what} fails at r = {r[bad[0]]!r} ({bad.size} row(s))")

    require(col["tail_mass"] < config["epsilon"], "tail_mass < epsilon")
    for name in ("P0", "P1", "rho_ee", "purity"):
        require((col[name] >= -PN_TOL) & (col[name] <= 1 + PN_TOL), f"0 <= {name} <= 1")
    if config["atom_present"]:
        require(col["P1"] > 0, "P1 > 0 (atom signature)")
    else:
        require(np.abs(col["mean_n"] - np.sinh(r) ** 2) <= MOMENT_TOL, "mean_n = sinh^2 r")
        require(np.abs(col["abs_aa"] - np.cosh(r) * np.sinh(r)) <= MOMENT_TOL,
                "abs_aa = cosh r sinh r")
        require(np.abs(col["P0"] - 1 / np.cosh(r)) <= PN_TOL, "P0 = 1/cosh r")
        require(np.abs(col["P1"]) <= PN_TOL, "P1 = 0")
        require(col["rho_ee"] == 0, "rho_ee = 0")
    return failures


def _truncated_gaussian(var: float, extent: float):
    """Mass and variance of N(0, var) restricted to [-extent, extent]."""
    sigma = math.sqrt(var)
    c = extent / sigma
    mass = math.erf(c / math.sqrt(2))
    density = math.exp(-c * c / 2) / math.sqrt(2 * math.pi)
    return mass, var * (1 - 2 * c * density / mass)


def check_wigner_grid(path: Path, config: dict, r: float) -> list[str]:
    """One `wigner` grid file of the empty cavity at squeezing r."""
    header, data = read_output(path)
    failures = _header_failures(header, config, path)
    rows = np.array([[float(x) for x in line.split(",")] for line in data])
    q, p, w = rows[1:, 0], rows[0, 1:], rows[1:, 1:]
    axis = np.linspace(-config["wigner_extent"], config["wigner_extent"],
                       config["wigner_points"])
    if w.shape != (axis.size, axis.size) or not (np.allclose(q, axis) and np.allclose(p, axis)):
        return failures + [f"{path}: grid axes do not match the configured grid"]
    var_q, var_p = math.exp(2 * r) / 2, math.exp(-2 * r) / 2
    exact = np.exp(-q[:, None] ** 2 / (2 * var_q) - p[None, :] ** 2 / (2 * var_p)) / math.pi
    err = float(np.abs(w - exact).max())
    if err > WIGNER_TOL:
        failures.append(f"{path}: max |W - W_exact| = {err:.3e} > {WIGNER_TOL:.0e}")
    # The trapezoid rule is exact to ~1e-6 for a Gaussian whose width is at
    # least 0.8 grid steps; a coarser grid does not resolve the state and
    # only the pointwise comparison above applies.
    if axis[1] - axis[0] > 1.25 * math.sqrt(var_p):
        return failures
    mass_q, trunc_q = _truncated_gaussian(var_q, config["wigner_extent"])
    mass_p, trunc_p = _truncated_gaussian(var_p, config["wigner_extent"])
    integral = float(np.trapezoid(np.trapezoid(w, p, axis=1), q))
    if abs(integral - mass_q * mass_p) > GRID_TOL:
        failures.append(f"{path}: Wigner integral {integral:.6f}, "
                        f"expected {mass_q * mass_p:.6f} on the grid")
    for name, weight, expected in (("q", q[:, None] ** 2, trunc_q),
                                   ("p", p[None, :] ** 2, trunc_p)):
        var = float(np.trapezoid(np.trapezoid(w * weight, p, axis=1), q)) / integral
        if abs(var - expected) > GRID_TOL * expected:
            failures.append(f"{path}: var_{name} = {var:.6e}, expected {expected:.6e}")
    return failures


def wigner_paths(out_dir: Path, config: dict) -> dict[float, Path]:
    """The grid file the empty-cavity `wigner` mode writes for each r."""
    return {r: Path(out_dir) / f"wigner_r{r:g}_empty.csv" for r in config["r_values"]}


def check_output(out: Path, config: dict) -> list[str]:
    """Check a workload's output: a moments CSV, or a directory of Wigner grids."""
    if config["mode"] == "moments_sweep":
        return check_moments(out, config)
    failures = []
    for r, path in wigner_paths(out, config).items():
        if path.is_file():
            failures.extend(check_wigner_grid(path, config, r))
        else:
            failures.append(f"{path}: missing")
    return failures
