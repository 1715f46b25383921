"""Steady-state solver, RK4 time evolution, and truncation adequacy checks."""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ._blas import thread_budget
from .errors import (
    CorruptedStateError,
    CutoffTooSmallError,
    DivergenceError,
    NonUniqueSteadyStateError,
    SolverError,
    StepTooLargeError,
)
from .liouvillian import Superoperator, unvec, vec
from .operators import FieldSpace, Space, SpaceDims

DEFAULT_EPSILON = 1e-8
TRACE_TOL = 1e-10
HERM_TOL = 1e-10
MIN_EIG_TOL = -1e-8
RESIDUAL_TOL = 1e-8
# RK4 is stable on the left half-disc of this radius (a scan of its
# stability polynomial gives about 2.6)
RK4_RADIUS = 2.5


def truncation_guard(fock_cutoff: int, guard: int | None = None,
                     epsilon: float = DEFAULT_EPSILON) -> int:
    """The guard band of the truncation check at this cutoff: `guard`, or
    max(4, fock_cutoff // 5) when it is None. ValueError unless
    0 < guard < fock_cutoff and epsilon > 0."""
    source = "guard"
    if guard is None:
        source, guard = "default guard max(4, cutoff // 5)", max(4, fock_cutoff // 5)
    if not 0 < guard < fock_cutoff:
        raise ValueError(f"{source} = {guard} must satisfy 0 < guard < fock_cutoff = "
                         f"{fock_cutoff}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return guard


@dataclass(frozen=True)
class StateDiagnostics:
    """Checks of one state, measured on it before it was returned.

    `trace_error` is |tr rho - 1| of the raw input. For a state from
    `steady_state` it is round-off by construction, because the trace row
    of the solved system fixes tr rho = 1; there `residual`,
    max |L vec(rho)| against the full generator, is the figure of the
    solve's quality, `tail_mass` the value `check_truncation` measured on
    the solution, `lu_unknowns` is the size of the factorized block,
    `lu_fill` the number of entries SuperLU stores for its L and U factors
    and `lu_seconds` the time spent in `spsolve`.
    """

    trace_error: float
    hermiticity_error: float
    min_eigenvalue: float
    tail_mass: float | None = None  # set by steady_state
    residual: float | None = None  # set by steady_state
    lu_unknowns: int | None = None  # set by steady_state
    lu_fill: int | None = None  # set by steady_state
    lu_seconds: float | None = None  # set by steady_state


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix with its space tag and solve diagnostics."""

    space: Space
    matrix: np.ndarray = field(repr=False)
    diagnostics: StateDiagnostics = StateDiagnostics(0.0, 0.0, 0.0)

    @property
    def fock_cutoff(self) -> int:
        return self.space.fock_cutoff


def photon_populations(rho: DensityMatrix) -> np.ndarray:
    """Photon-number populations P(n), tracing over the atom if present."""
    diag = rho.matrix.diagonal().real
    if isinstance(rho.space, SpaceDims):
        return diag.reshape(2, rho.space.fock_cutoff).sum(axis=0)
    return diag


def check_truncation(rho: DensityMatrix, guard: int | None = None,
                     epsilon: float = DEFAULT_EPSILON) -> float:
    """Tail mass of rho: the population of its top `guard` Fock levels.

    Raise CutoffTooSmallError, suggesting 1.5 times the cutoff rounded up
    to a multiple of 10, unless the tail mass is below epsilon;
    epsilon = math.inf only measures it. The guard and epsilon are checked
    by `truncation_guard`.
    """
    n = rho.fock_cutoff
    guard = truncation_guard(n, guard, epsilon)
    tail = float(photon_populations(rho)[n - guard:].sum())
    if not tail < epsilon:
        raise CutoffTooSmallError(
            f"tail mass {tail:.3e} over the top {guard} Fock levels exceeds {epsilon:.0e} "
            f"at cutoff {n}",
            suggested_cutoff=int(math.ceil(n * 1.5 / 10.0) * 10),
            tail_mass=tail,
        )
    return tail


def make_density_matrix(space: Space, raw: np.ndarray) -> DensityMatrix:
    """Hermitize, renormalize, and validate a raw solver output.

    Negative eigenvalues below the tolerance abort the run: they signal a
    cutoff or solver failure that must not leak into results.
    """
    raw = np.asarray(raw, dtype=complex)
    herm_err = float(np.abs(raw - raw.conj().T).max())
    m = 0.5 * (raw + raw.conj().T)
    tr = m.trace()
    if abs(tr) < 1e-300:
        raise CorruptedStateError("state has zero trace")
    trace_err = float(abs(tr - 1.0))
    m = m / tr.real
    eigs = np.linalg.eigvalsh(m)
    min_eig = float(eigs[0])
    if min_eig < MIN_EIG_TOL:
        raise CorruptedStateError(
            f"minimum eigenvalue {min_eig:.3e} below tolerance {MIN_EIG_TOL:.0e}"
        )
    return DensityMatrix(space, m, StateDiagnostics(trace_err, herm_err, min_eig))


def suggest_fock_cutoff(r: float, epsilon: float = DEFAULT_EPSILON) -> int:
    """Conservative cutoff estimate from the squeezed-vacuum photon tail,
    a fifth of it left to the guard band, in [40, 400].

    The empty-cavity distribution P(2m) ∝ tanh(r)^{2m} C(2m, m) / 4^m upper
    bounds the atom-present one, so a cutoff adequate for the bare squeezed
    state is adequate for the full model at the same r.
    """
    guard_frac, n_min, n_max = 0.2, 40, 400
    if r <= 0:
        return n_min
    t2 = math.tanh(r) ** 2
    if t2 >= 1.0:  # r above about 19.1, where tanh²r rounds to 1
        return n_max
    p = 1.0 / math.cosh(r)
    target = epsilon / 10.0
    n_star = 2
    for m in range(1, n_max):
        p *= t2 * (2 * m - 1) / (2 * m)
        # remaining tail bounded by geometric series with ratio tanh²r
        if p / (1.0 - t2) < target:
            n_star = 2 * m
            break
    else:
        n_star = 2 * n_max
    n = int(math.ceil(n_star / (1.0 - guard_frac)))
    n = int(math.ceil(n / 10.0) * 10)
    return max(n_min, min(n, n_max))


def _excitations(space: Space) -> np.ndarray:
    """Excitation number of each basis state: a†a, plus sigma_ee on the
    composite space."""
    if isinstance(space, SpaceDims):
        n = np.arange(space.dim)
        return n // space.fock_cutoff + n % space.fock_cutoff
    if isinstance(space, FieldSpace):
        return np.arange(space.dim)
    raise SolverError(
        f"steady_state needs a generator on a field or composite space, got {space}; "
        "build it with build_liouvillian or build_bogoliubov_liouvillian"
    )


_ND_LEAF = 16


def _bisect(k: np.ndarray, s: np.ndarray, idx: np.ndarray):
    """Split the unknowns idx of the (k, s) grid at the midpoint line of its
    longer side into (lower half, upper half, separator line)."""
    c = k[idx] if np.ptp(k[idx]) >= np.ptp(s[idx]) else s[idx]
    mid = (c.min() + c.max()) // 2
    return idx[c < mid], idx[c > mid], idx[c == mid]


def _nested_dissection(k: np.ndarray, s: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Nested-dissection order of the unknowns idx on a grid where every
    coupling moves at most 1 in k and 1 in s: each half is numbered before
    the line that separates it from the other, down to _ND_LEAF unknowns
    (George, SIAM J. Numer. Anal. 10, 345 (1973))."""
    if idx.size <= _ND_LEAF:
        return idx
    low, high, separator = _bisect(k, s, idx)
    return np.concatenate([_nested_dissection(k, s, low), _nested_dissection(k, s, high),
                           separator])


def _sector_order(n: np.ndarray, even: np.ndarray) -> np.ndarray:
    """The vec indices `even` of the equal-parity sector, for excitation
    numbers n of the basis states, in the order they are factorized:
    nested dissection, with rho_00 (even[0]) last.

    Every term of the generator moves an entry rho_(N_i, N_j) by at most 2
    in N_i and in N_j, keeping their parity, so on this sector
    k = (N_i - N_j)/2 and s = (N_i + N_j)/2 move by at most 1: the block is
    a 2-D grid problem.
    """
    n_i, n_j = n[even % n.size], n[even // n.size]
    k, s = (n_i - n_j) // 2, (n_i + n_j) // 2
    return even[np.append(_nested_dissection(k, s, np.arange(1, even.size)), 0)]


@functools.lru_cache(maxsize=4)
def _space_order(space: Space) -> np.ndarray:
    """`_sector_order` of the equal-parity sector of space, computed once
    per space for the sweep points that share it; read-only."""
    n = _excitations(space)
    even = np.flatnonzero(((n[:, None] + n[None, :]) % 2 == 0).reshape(-1, order="F"))
    order = _sector_order(n, even)
    order.flags.writeable = False
    return order


def spsolve(system: sp.csc_matrix, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve system @ x = rhs by a sparse LU in the given order of the
    unknowns; return x and the number of entries stored for L and U."""
    lu = splu(system, permc_spec="NATURAL", diag_pivot_thresh=0.1,
              options=dict(SymmetricMode=True))
    return lu.solve(rhs), int(lu.nnz)


def steady_state(L: Superoperator, guard: int | None = None,
                 epsilon: float = DEFAULT_EPSILON) -> DensityMatrix:
    """Solve L vec(rho) = 0 with the unit-trace constraint.

    Every jump operator flips the excitation parity P = (-1)^(a†a + sigma_ee)
    and H conserves it, so L has no entries between the sector where ket
    and bra have equal parity and the one where they differ (a weak
    symmetry, Buca & Prosen, New J. Phys. 14, 073007 (2012)), and the
    steady state lives in the equal-parity sector. Only that block of L,
    d²/2 unknowns, is factorized, in nested-dissection order with rho_00
    last: its rho_00 row is replaced by the trace row and the right-hand
    side by the last unit vector, keeping the system square. The solution
    is scattered into a full rho whose cross-sector entries are exactly
    zero. Its tail over the top `guard` Fock levels must stay below epsilon
    (`check_truncation`, math.inf turns that check off); it is then
    hermitized, renormalized and validated (`make_density_matrix`), and the
    residual of the full generator must stay below RESIDUAL_TOL, otherwise
    the kernel is considered degenerate. An invalid guard or epsilon is
    refused before anything is factorized.

    L itself must be finite and trace-preserving: max |vec(I)^T L| at most
    TRACE_TOL or, for large entries, whose round-off the trace row sums,
    1e-14 max|L|.
    """
    scale = float(np.abs(L.matrix.data).max(initial=0.0))
    if not (math.isfinite(scale) and L.trace_residual() <= max(TRACE_TOL, 1e-14 * scale)):
        raise SolverError("generator is not trace-preserving or not finite; refusing to solve")
    order = _space_order(L.space)
    guard = truncation_guard(L.space.fock_cutoff, guard, epsilon)
    d = L.dim
    m = order.size
    pos = np.full(d * d, -1)
    pos[order] = np.arange(m)
    row = np.repeat(pos, np.diff(L.matrix.indptr))
    col = pos[L.matrix.indices]
    if np.any((row < 0) != (col < 0)):
        raise SolverError(
            "generator couples the two excitation-parity sectors (a coherent drive or a "
            "parity-breaking jump operator); this solver needs a generator that commutes "
            "with rho -> P rho P, P = (-1)^(a†a + sigma_ee)"
        )
    # the block without rho_00's row, which is last, and the trace row in its place
    keep = (row >= 0) & (row < m - 1)
    system = sp.csc_matrix(
        (np.concatenate([L.matrix.data[keep], np.ones(d)]),
         (np.concatenate([row[keep], np.full(d, m - 1)]),
          np.concatenate([col[keep], pos[:: d + 1]]))),
        shape=(m, m))
    rhs = np.zeros(m, dtype=complex)
    rhs[-1] = 1.0
    # numpy's and scipy's OpenBLAS pools on one thread each: a second thread
    # does not speed up this LU, and idle pool threads spin on the cores
    # that other solving threads and processes need. Inside a sweep, which
    # holds the budget already, this changes nothing.
    with thread_budget():
        start = time.perf_counter()
        try:
            sol, fill = spsolve(system, rhs)
        except Exception as exc:  # pragma: no cover - solver backend failure
            raise NonUniqueSteadyStateError(f"sparse LU solve failed: {exc}") from exc
        lu_seconds = time.perf_counter() - start
        if not np.all(np.isfinite(sol)):
            raise NonUniqueSteadyStateError("sparse LU solve returned non-finite entries")
        full = np.zeros(d * d, dtype=complex)
        full[order] = sol
        raw = unvec(full, d)
        # the tail first: a cutoff far too small also leaves a state that is
        # not positive, and the cutoff is what the error must name
        tail = check_truncation(DensityMatrix(L.space, raw), guard, epsilon)
        rho = make_density_matrix(L.space, raw)
        residual = float(np.abs(L.matrix @ vec(rho.matrix)).max())
    if residual > RESIDUAL_TOL:
        raise NonUniqueSteadyStateError(
            f"steady-state residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}; "
            "the kernel may be degenerate"
        )
    return replace(rho, diagnostics=replace(rho.diagnostics, tail_mass=tail, residual=residual,
                                            lu_unknowns=m, lu_fill=fill,
                                            lu_seconds=lu_seconds))


def evolve(L: Superoperator, rho0: DensityMatrix, t_end: float, dt: float,
           sample_times=None):
    """Integrate dvec(rho)/dt = L vec(rho) with classical RK4.

    Samples are snapped to the underlying step grid; each sampled state is
    hermitized and validated. dt and the grid's step must not exceed
    RK4_RADIUS / ||L||_inf, where RK4 is stable: the eigenvalues of a
    generator lie in the left half of the disc of radius ||L||_inf, its
    largest absolute row sum (Gershgorin). A longer step is refused at once.

    Returns a list of (t, DensityMatrix) pairs.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    n_steps = max(1, int(round(t_end / dt)))
    h = t_end / n_steps
    norm = float(abs(L.matrix).sum(axis=1).max())
    if max(dt, h) * norm > RK4_RADIUS:
        raise StepTooLargeError(
            f"dt = {dt:g} (grid step {h:g}) exceeds the stability guard "
            f"{RK4_RADIUS:g} / ||L||_inf = {RK4_RADIUS / norm:g}"
        )
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 11)
    sample_steps = sorted({min(n_steps, max(0, int(round(t / h)))) for t in sample_times})

    mat = L.matrix
    v = vec(rho0.matrix).astype(complex)
    out = []

    def record(step, state):
        if not np.all(np.isfinite(state)):
            raise DivergenceError(f"non-finite state at t = {step * h:g}")
        rho = unvec(state, L.dim)
        drift = abs(rho.trace() - 1.0)
        if drift > 1e-8:
            raise DivergenceError(
                f"trace drift {drift:.3e} exceeds 1e-8 at t = {step * h:g}"
            )
        out.append((step * h, make_density_matrix(L.space, rho)))

    targets = iter(sample_steps)
    next_target = next(targets, None)
    if next_target == 0:
        record(0, v)
        next_target = next(targets, None)
    for step in range(1, n_steps + 1):
        k1 = mat @ v
        k2 = mat @ (v + 0.5 * h * k1)
        k3 = mat @ (v + 0.5 * h * k2)
        k4 = mat @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step == next_target:
            record(step, v)
            next_target = next(targets, None)
    return out
