"""Steady-state solver, RK4 time evolution, and truncation adequacy checks."""

from __future__ import annotations

import math
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ._blas import thread_budget
from ._cache import shared_cache
from .errors import (
    CorruptedStateError,
    CutoffTooSmallError,
    DivergenceError,
    NonUniqueSteadyStateError,
    SolverError,
    StepTooLargeError,
)
from .liouvillian import Superoperator, _kron_factors, _read_only, unvec, vec
from .operators import Space, SpaceDims

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
    max(4, fock_cutoff // 5) when it is None. ValueError unless guard is
    an integer with 0 < guard < fock_cutoff and epsilon > 0."""
    source = "guard"
    if guard is None:
        source, guard = "default guard max(4, cutoff // 5)", max(4, fock_cutoff // 5)
    try:
        guard = operator.index(guard)
    except TypeError:
        raise ValueError(f"guard = {guard!r} must be an integer") from None
    if not 0 < guard < fock_cutoff:
        raise ValueError(f"{source} = {guard} must satisfy 0 < guard < fock_cutoff = "
                         f"{fock_cutoff}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return guard


@dataclass(frozen=True)
class StateDiagnostics:
    """Checks of one state, measured on it before it was returned; for a
    state from `steady_state`, which sets the fields from `tail_mass` on,
    the one record of its solve.

    `trace_error` is |tr rho - 1| of the raw input. For a state from
    `steady_state` it is round-off by construction, because the trace row
    of the solved system fixes tr rho = 1; there `residual`, max |L(rho)|
    against the full generator, is the figure of the solve's quality,
    `tail_mass` the value `check_truncation` measured on the solution over
    the top `guard` Fock levels, `lu_unknowns` the number of real unknowns
    of the folded system, `lu_fill` the number of entries the LU that ran
    stored (`spsolve`): SuperLU's nnz(L + U), or the X of the fronts with
    children, Σ p (q + 1) over them,
    `lu_path` that LU, "multifrontal", "SuperLU" or "SuperLU after ..."
    naming why the multifrontal LU was given up, `lu_threads` the threads
    it ran on, and `seconds` the seconds of each stage, in order: "block"
    forming the system and the fronts from the generator's plan, "LU" in
    `spsolve`, "unfold" scattering the solution into rho, "tail" in
    `check_truncation`, "validate" in `make_density_matrix` and
    "residual" taking the residual.
    """

    trace_error: float
    hermiticity_error: float
    min_eigenvalue: float
    tail_mass: float | None = None
    residual: float | None = None
    guard: int | None = None
    lu_unknowns: int | None = None
    lu_fill: int | None = None
    lu_path: str | None = None
    lu_threads: int | None = None
    seconds: dict[str, float] = field(default_factory=dict)


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

    Non-finite entries, a Hermiticity error max |raw - raw†| above
    HERM_TOL |Re tr raw| and negative eigenvalues below the tolerance abort
    the run: they signal a cutoff or solver failure that must not leak into
    results. The eigenvalues are taken of the two excitation-parity blocks
    when no entry between them is nonzero, as in every steady state.
    """
    raw = np.asarray(raw, dtype=complex)
    if raw.shape != (space.dim, space.dim):
        raise CorruptedStateError(f"state shape {raw.shape} on a space of dimension {space.dim}")
    herm_err = float(np.abs(raw - raw.conj().T).max())
    # any non-finite entry leaves a non-finite difference at its place
    if not math.isfinite(herm_err):
        raise CorruptedStateError("state has non-finite entries")
    m = 0.5 * (raw + raw.conj().T)
    tr = m.trace()
    if abs(tr) < 1e-300:
        raise CorruptedStateError("state has zero trace")
    if herm_err > HERM_TOL * abs(tr):
        raise CorruptedStateError(f"hermiticity error {herm_err:.3e} exceeds {HERM_TOL:.0e} |tr|")
    trace_err = float(abs(tr - 1.0))
    m = m / tr.real
    # m is Hermitian: its parity blocks are apart where this one is zero
    even, odd = (np.flatnonzero(_excitations(space) % 2 == k) for k in (0, 1))
    blocks = [m] if np.any(m[np.ix_(even, odd)]) else [m[np.ix_(k, k)] for k in (even, odd)]
    min_eig = min(float(np.linalg.eigvalsh(block)[0]) for block in blocks)
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
    state is adequate for the full model at the same r. ValueError unless
    r is finite and >= 0 and epsilon > 0.
    """
    if not (0 <= r < math.inf and epsilon > 0):
        raise ValueError(f"need 0 <= r < inf and epsilon > 0, got r = {r}, epsilon = {epsilon}")
    guard_frac, n_min, n_max = 0.2, 40, 400
    if r == 0:
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
    n = np.arange(space.dim)
    if isinstance(space, SpaceDims):
        return n // space.fock_cutoff + n % space.fock_cutoff
    return n


_ND_LEAF = 16


def _dissect(k: np.ndarray, s: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nested dissection of the points (k, s) of a grid where every
    coupling moves at most 1 in k and 1 in s, point q standing for
    weight[q] > 0 unknowns (George, SIAM J. Numer. Anal. 10, 345 (1973)).

    A part of more than _ND_LEAF unknowns is split at the midpoint line of
    its longer side, k on a tie: the points below it are numbered first,
    then those above it, then the line itself; a smaller part is a leaf.
    All the parts of one level are split at once. Returns, for each point,
    the number of the first unknown of its leaf or line, and the tree of
    the leaves and lines, one row each in the order of their unknowns
    (children before parents), with the columns of `_TREE`: the first
    unknown of its part, the part a line splits or the leaf itself, its
    own first unknown and the one after its last, and its parent's row
    (-1 for the root).
    """
    first = np.empty(k.size, dtype=np.intp)
    # the points of the parts of a level, part by part, where each part
    # begins among them, the number of each part's first unknown and the
    # node each part's leaf or line hangs from
    points, begin, base = np.arange(k.size), np.zeros(1, np.intp), np.zeros(1, np.intp)
    parent, nodes = np.full(1, -1), []
    while points.size:
        part = np.repeat(np.arange(begin.size), np.diff(begin, append=points.size))
        w, kk, ss = weight[points], k[points], s[points]
        size = np.add.reduceat(w, begin)
        leaf = (size <= _ND_LEAF)[part]
        first[points[leaf]] = base[part[leaf]]
        k_min, k_max = np.minimum.reduceat(kk, begin), np.maximum.reduceat(kk, begin)
        s_min, s_max = np.minimum.reduceat(ss, begin), np.maximum.reduceat(ss, begin)
        along_k = k_max - k_min >= s_max - s_min
        side = np.where(along_k[part], kk, ss) - (np.where(along_k, k_min + k_max,
                                                           s_min + s_max) // 2)[part]
        side[leaf] = 0
        low, high = side < 0, side > 0
        n_low, n_high = np.add.reduceat(w * low, begin), np.add.reduceat(w * high, begin)
        line = (side == 0) & ~leaf
        first[points[line]] = (base + n_low + n_high)[part[line]]
        ids = sum(level.shape[1] for level in nodes) + np.arange(begin.size)
        nodes.append(np.stack([base, base + n_low + n_high, base + size, parent,
                               np.full(begin.size, -len(nodes))]))
        # the halves, the lower one first, are the parts of the next level
        half = (2 * part + high)[low | high]
        by_half = np.argsort(half, kind="stable")
        points, half = points[low | high][by_half], half[by_half]
        begin = np.flatnonzero(np.diff(half, prepend=-1))
        base = np.stack([base, base + n_low], axis=1).ravel()[half[begin]]
        parent = ids[half[begin] // 2]
    # a child ends before its parent, or with it where the parent is an
    # empty line: in order of end, deeper levels first
    tree = np.concatenate(nodes, axis=1) if nodes else np.empty((5, 0), dtype=np.intp)
    order = np.lexsort((tree[-1], tree[_TREE.index("end")]))
    tree = tree[:-1, order].T.copy()
    renumber = np.empty(order.size + 1, dtype=np.intp)
    renumber[order], renumber[-1] = np.arange(order.size), -1
    tree[:, _TREE.index("parent")] = renumber[tree[:, _TREE.index("parent")]]
    return first, tree


# the columns of a nested-dissection tree (`_dissect`)
_TREE = ("base", "first", "end", "parent")


def _sector_order(n: np.ndarray, even: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vec indices `even` of the equal-parity sector, for excitation
    numbers n of the basis states, in the order they are factorized:
    nested dissection, with rho_00 (even[0]) last; and the dissection's
    tree (`_dissect`), its unknowns numbered in that order.

    Every term of the generator moves an entry rho_(N_i, N_j) by at most 2
    in N_i and in N_j, keeping their parity, so on this sector
    k = (N_i - N_j)/2 and s = (N_i + N_j)/2 move by at most 1: the block is
    a 2-D grid problem. The unknowns of one grid point share their leaf or
    line, so the points are dissected (`_dissect`) and each leaf and line
    keeps its unknowns in vec order.
    """
    n_i, n_j = n[even[1:] % n.size], n[even[1:] // n.size]
    k, s = (n_i - n_j) // 2, (n_i + n_j) // 2
    width, k_min = s.max(initial=0) + 1, k.min(initial=0)
    cell = (k - k_min) * width + s
    weight = np.bincount(cell)
    grid = np.flatnonzero(weight)
    first, tree = _dissect(grid // width + k_min, grid % width, weight[grid])
    order = np.argsort(first[np.searchsorted(grid, cell)], kind="stable")
    return even[np.append(order + 1, 0)], tree


class _SectorMaps(NamedTuple):
    """The equal-parity sector of one space and its fold by Hermiticity,
    by vec index v = i + d j; read-only.

    `u` is u_i = (-1)^(sigma_ee of basis state i), so sigma(v) = u_i u_j;
    `rank` numbers the basis states by (N mod 2, N, -i) and `end` is, for
    each state, the rank that follows the last state of its parity. The
    sector is every v whose N_i and N_j share their parity, and of each
    pair {v, t(v)} in it, t(v) = j + d i, the representative is the one
    with rank[i] >= rank[j] (N_i > N_j, or N_i = N_j and i <= j: the
    k >= 0 half of the grid). `folded` lists the representatives in the
    order they are factorized, and `place` gives, for each v, the place in
    `folded` of its representative, v or t(v) (-1 outside the sector).
    `tree` is the nested-dissection tree of `folded` (`_sector_order`),
    from which `_fronts` groups the unknowns into fronts.
    """

    u: np.ndarray
    rank: np.ndarray
    end: np.ndarray
    folded: np.ndarray
    place: np.ndarray
    tree: np.ndarray


@shared_cache(maxsize=4)
def _sector_maps(space: Space) -> _SectorMaps:
    """The `_SectorMaps` of space, computed once per space for the sweep
    points that share it."""
    n = _excitations(space)
    d = n.size
    rank = np.empty(d, dtype=np.intp)
    rank[np.lexsort((-np.arange(d), n, n % 2))] = np.arange(d)
    end = np.where(n % 2 == 0, np.count_nonzero(n % 2 == 0), d)
    # by vec index v = i + d j, as the rows j and columns i of a d×d grid
    even = np.flatnonzero((n[None, :] + n[:, None]) % 2 == 0)
    folded, tree = _sector_order(n, even[rank[even % d] >= rank[even // d]])
    place = np.full(d * d, -1, dtype=np.int32)
    place[folded] = np.arange(folded.size)
    # of v and t(v) one is the representative, whose place both take
    place = np.maximum(place, place.reshape(d, d).T.ravel())
    # the atom is the outer factor, so its excited half is every index from
    # fock_cutoff on; a field space has none
    u = np.where(np.arange(d) < space.fock_cutoff, 1.0, -1.0)
    return _read_only(_SectorMaps(u=u, rank=rank, end=end, folded=folded, place=place,
                                  tree=tree))


_COUPLED = ("generator couples the two excitation-parity sectors (a coherent drive or a "
            "parity-breaking jump operator); this solver needs a generator that commutes "
            "with rho -> P rho P, P = (-1)^(a†a + sigma_ee)")


@shared_cache(maxsize=4)
def _plan_symmetries(plan) -> tuple[bool, bool]:
    """Whether a plan's generator keeps the two parity sectors apart, and
    whether it commutes with rho -> U rho* U†, U = (-1)^sigma_ee, at real
    weights; both tested exactly on its factors.

    Parity: H and every product B_j A_j conserve N mod 2, and A_j and B_j
    change it alike. Phase symmetry: -iH and the products are real between
    states of equal u and imaginary between states of different u, and so
    are A_j and B_j, or i A_j and i B_j (sigma_ge is real between different
    u). A product of such entries has the same structure in IEEE
    arithmetic too (a finite x times 0 is ±0), so then is every entry of
    every Kronecker product and of K, and the parts of the state and of
    the equations that `_fold` then leaves out are exactly zero.
    """
    n, u = _excitations(plan.space), _sector_maps(plan.space).u
    k_terms = [(plan.row, plan.col, x) for x in (-1j * plan.h, *plan.products)]
    jumps = [[(m.row, m.col, m.data) for m in map(sp.coo_matrix, pair)] for pair in plan.jumps]

    def shifts(row, col, x):
        return set((np.unique(n[row[x != 0]] - n[col[x != 0]]) % 2).tolist())

    def structured(row, col, x):
        return not np.any(np.where(u[row] == u[col], x.imag, x.real))

    def structured_alike(A, B):
        return any(structured(*A[:2], c * A[2]) and structured(*B[:2], c * B[2])
                   for c in (1, 1j))

    parity = (all(shifts(*term) <= {0} for term in k_terms)
              and all(len(shifts(*A) | shifts(*B)) <= 1 for A, B in jumps))
    phase = (all(structured(*term) for term in k_terms)
             and all(structured_alike(A, B) for A, B in jumps))
    return parity, phase


class _Fold(NamedTuple):
    """The real system of a planned generator folded by Hermiticity, with
    or without the phase symmetry; read-only.

    (indices, indptr) is the system's CSC pattern, the trace row last, and
    `terms` the linear map from (Re x, Im x) to its values, x being K's
    values, conj(K)'s values, every jump's weight and 1 (the trace row's):
    each term is one entry, at (its place in the pattern, its part of x),
    holding its coefficient, and the terms of one place are stored in the
    order they are summed. The solution y unfolds into the real view of
    vec(rho): its places `rho_places` take the entries `solution_places`
    of (y, -y).
    """

    indices: np.ndarray
    indptr: np.ndarray
    terms: sp.coo_array
    rho_places: np.ndarray
    solution_places: np.ndarray


def _runs(left, right, maps: _SectorMaps):
    """The entries of left ⊗ right in the rows of the representatives
    other than rho_00, found without forming the product.

    Entry (li, ri) lies in row i + d j, i = right.row[ri], j = left.row[li],
    so the representatives of left row j are the right rows ranked from
    rank[j] up to end[j], rho_00's row (i = j = 0) left out. Returns the
    right entries in the order of their rows' ranks and, for each left
    entry, where its run of them starts and how long it is.
    """
    row_rank = maps.rank[right.row]
    by_rank = np.argsort(row_rank, kind="stable")
    ranks = row_rank[by_rank]
    start = np.searchsorted(ranks, maps.rank[left.row] + (left.row == 0))
    return by_rank, start, np.searchsorted(ranks, maps.end[left.row]) - start


def _blocks(by_rank: np.ndarray, start: np.ndarray, length: np.ndarray, block: int):
    """The entries (li, ri) of these runs, li ascending, in blocks of about
    `block` entries that end with a left entry's run."""
    stop = np.cumsum(length)
    cuts = np.searchsorted(stop, np.arange(block, stop[-1] if stop.size else 0, block),
                           side="right")
    for a, b in zip([0, *cuts], [*cuts, length.size]):
        li = np.repeat(np.arange(a, b), length[a:b])
        if li.size:
            # the k-th entry of a run is the (start + k)-th right entry
            offset = start[a:b] - (np.cumsum(length[a:b]) - length[a:b])
            yield li, by_rank[np.arange(li.size) + np.repeat(offset, length[a:b])]


def _product_terms(left, right, li, ri, source, n_x: int, maps: _SectorMaps, parts: list,
                   width: int):
    """The terms of the entries (li, ri) of left ⊗ right whose x is
    `source`, a term at (equation, unknown) keyed by
    unknown << width | equation. `parts` holds (slots, part) of the first
    and the second part that the fold keeps of each representative. Yields
    (second, keys, coefficients, sources) for each part of the row and
    each part of the column: their first terms, then their second
    terms."""
    d = maps.u.size
    # every row here is a representative's
    rows = maps.place[left.row[li] * d + right.row[ri]]
    cols = maps.place[left.col[li] * d + right.col[ri]]
    representative = maps.rank[right.col[ri]] >= maps.rank[left.col[li]]
    q = left.data[li] * right.data[ri]
    for row_slots, row_part in parts:
        for col_slots, col_part in parts:
            equation, unknown = row_slots[rows], col_slots[cols]
            t = np.flatnonzero((equation >= 0) & (unknown >= 0))
            if t.size < equation.size:
                equation, unknown = equation[t], unknown[t]
            else:
                t = slice(None)
            p, p_col, qt = row_part[rows[t]], col_part[cols[t]], q[t]
            # w = z q, z = (-i)^p (i s)^p_col: q, or -i q where p != p_col,
            # times s or -s where p_col = 1
            g = np.where(p_col, np.where(p == representative[t], 1.0, -1.0), 1.0)
            same = p == p_col
            re = g * np.where(same, qt.real, qt.imag)
            im = g * np.where(same, qt.imag, -qt.real)
            key = unknown.astype(np.int64) << width
            key |= equation
            imag = (re == 0) & (im != 0)
            yield False, key, np.where(imag, -im, re), source[t] + n_x * imag
            both = np.flatnonzero((re != 0) & (im != 0))
            yield True, key[both], -im[both], source[t][both] + n_x


class _Terms:
    """The terms of a fold in the order they are summed, each as
    (key, coefficient, source), the key of a term at (equation, unknown)
    being unknown << width | equation, `width` the bits of an equation's
    number; room for `bound` of them is taken at once. Each key is kept
    shifted by the bits of `bound`, with the term's number below it, so
    that one in-place sort numbers the system's CSC pattern."""

    def __init__(self, bound: int, size: int):
        self.size, self.count = size, 0
        self.width, self.bits = (size - 1).bit_length(), bound.bit_length()
        if 2 * self.width + self.bits > 63:
            raise SolverError(f"the folded system of {size} unknowns and up to {bound} terms "
                              "is too large to number in 64 bits")
        # the terms are found, and their keys read once sorted, a chunk at a time
        self.chunk = max(bound // 16, 1024)
        self.keys = np.empty(bound, dtype=np.int64)
        self.coefficients = np.empty(bound)
        self.sources = np.empty(bound, dtype=np.int32)

    def add(self, keys, coefficients, sources):
        places = slice(self.count, self.count + keys.size)
        np.left_shift(keys, self.bits, out=self.keys[places])
        self.keys[places] |= np.arange(places.start, places.stop)
        self.coefficients[places], self.sources[places] = coefficients, sources
        self.count = places.stop

    def pattern(self, columns: int):
        """(indices, indptr, terms) of the terms added, whose (Re x, Im x)
        has `columns` entries: the CSC pattern of their places and the
        `_Fold.terms` that maps (Re x, Im x) to the values."""
        keys, self.keys = self.keys, None
        for array in (keys, self.coefficients, self.sources):
            array.resize(self.count, refcheck=False)
        keys.sort()
        positions = np.empty(keys.size, dtype=np.int32)
        count, previous = 0, -1
        for begin in range(0, keys.size, self.chunk):
            part = keys[begin:begin + self.chunk]
            number = part & ((1 << self.bits) - 1)
            part >>= self.bits
            new = np.empty(part.size, dtype=bool)
            new[0] = part[0] != previous
            np.not_equal(part[1:], part[:-1], out=new[1:])
            previous = part[-1]
            positions[number] = np.cumsum(new, dtype=np.int32) + (count - 1)
            # the distinct keys gather at the front, behind the ones read
            distinct = part[new]
            keys[count:count + distinct.size] = distinct
            count += distinct.size
        keys = keys[:count]
        indices = np.bitwise_and(keys, (1 << self.width) - 1, out=np.empty(count, dtype=np.int32),
                                 casting="unsafe")
        indptr = np.searchsorted(keys, np.arange(self.size + 1) << self.width).astype(np.int32)
        return indices, indptr, sp.coo_array((self.coefficients, (positions, self.sources)),
                                             shape=(count, columns))


def _pure(matrix) -> bool:
    """Whether every entry of matrix has a zero real or imaginary part."""
    return not np.any((matrix.data.real != 0) & (matrix.data.imag != 0))


def _slots(maps: _SectorMaps, phase: bool) -> np.ndarray:
    """slots[p, q]: the place among the unknowns, and among the equations,
    of part p of the q-th representative, -1 where it is left out. Both
    parts are numbered together in the order of `folded`, but for a
    diagonal entry's imaginary part and, with the phase symmetry, the
    imaginary part where sigma = +1 and the real part where sigma = -1."""
    i, j = maps.folded % maps.u.size, maps.folded // maps.u.size
    present = np.ones((maps.folded.size, 2), dtype=bool)
    present[i == j, 1] = False
    if phase:
        present &= (maps.u[i] == maps.u[j])[:, None] == [True, False]
    place = np.cumsum(present).reshape(present.shape) - 1
    return np.ascontiguousarray(np.where(present, place, -1).T, dtype=np.int32)


def _fold_terms(plan, maps: _SectorMaps, slots: np.ndarray):
    """(indices, indptr, terms) of the fold with these slots of a plan,
    every jump's terms included, in the order `_fold` gives
    (`_Terms.pattern`)."""
    space, d, size = plan.space, plan.space.dim, int(slots[0, -1]) + 1
    # the first part kept of each representative and the second, if both
    # are: one part each with the phase symmetry, the real one first
    # without it
    imaginary = slots[0] < 0
    parts = [(np.where(imaginary, slots[1], slots[0]), imaginary),
             (np.where(imaginary, -1, slots[1]), np.ones_like(imaginary))]
    parts = [(kept, part) for kept, part in parts if np.any(kept >= 0)]
    n_k = plan.row.size
    unit = sp.coo_matrix((np.ones(n_k, dtype=complex), (plan.row, plan.col)), shape=(d, d))
    factors = _kron_factors(space, unit, [(1.0, A, B) for A, B in plan.jumps])
    n_x = 2 * n_k + len(factors) - 1
    runs = [_runs(left, right, maps) for left, right, _ in factors]
    # a first term for each kept part of the row and of the column of an
    # entry, a second one as well where a factor has an entry with two
    # nonzero parts, and the trace row's
    bound = d + sum(int(length.sum()) * len(parts) ** 2 * (1 if _pure(left) and _pure(right)
                                                           else 2)
                    for (left, right, _), (_, _, length) in zip(factors, runs))
    terms = _Terms(bound, size)
    for number, ((left, right, _), run) in enumerate(zip(factors, runs)):
        seconds = []
        for li, ri in _blocks(*run, terms.chunk):
            source = (ri if number == 0 else n_k + li if number == 1
                      else np.full(li.size, 2 * n_k + number - 2))
            for second, *found in _product_terms(left, right, li, ri, source, n_x, maps, parts,
                                                 terms.width):
                if second:
                    seconds.append(found)
                else:
                    terms.add(*found)
        for found in seconds:
            terms.add(*found)
    # the trace row, sum_i Re rho_ii = 1, in rho_00's place
    terms.add(slots[0, maps.place[np.arange(d) * (d + 1)]].astype(np.int64) << terms.width
              | size - 1, 1.0, n_x - 1)
    return terms.pattern(2 * n_x)


@shared_cache(maxsize=4)
def _fold(plan, phase: bool) -> _Fold:
    """The `_Fold` of a plan, with the phase symmetry's parts left out if
    `phase`. Every jump is folded, whatever its weight at a point: a zero
    weight is a value of x, so each model, r = 0 and gamma = 0 included,
    has one fold per phase symmetry.

    The unknowns are y = (Re, Im) of each representative, so
    rho_col = y_0 + i s y_1 with s = 1 for a representative and -1 for its
    partner. An entry c of left ⊗ right at (row, col) of L, in a
    representative's row other than rho_00's, whose place the trace row
    takes, adds part p of c, Re (-i)^p c, to equation part p of its row on
    unknown part 0 of col's representative, and part p of i s c on unknown
    part 1. With K's values as 1 in the factors, c is their product q
    times x, K's value, conj(K)'s or the weight, and each such part is
    Re w x = Re w Re x - Im w Im x for w = z q and a unit z: a first term
    for the nonzero part of w, the real one where both are zero, and a
    second for the imaginary part where both are nonzero.

    Only the entries in kept rows are formed (`_runs`), a block at a time
    (`_blocks`, `_product_terms`). The mat-vec of `terms` sums the terms of
    one place in their stored order, so they are stored in the order of
    the products' entries: product by product, each product's first terms
    before its second ones, in the order of its left factor's entries
    (`_fold_terms`). Two entries of one left entry never share a place, so
    the right entries of its run may come in any order.
    """
    maps, d = _sector_maps(plan.space), plan.space.dim
    slots = _slots(maps, phase)
    size = int(slots[0, -1]) + 1
    indices, indptr, terms = _fold_terms(plan, maps, slots)
    # rho_v = y_0 + i s y_1 of v's representative, s = -1 for a partner
    even = np.flatnonzero(maps.place >= 0)
    part, entry = np.nonzero(np.take(slots, maps.place[even], axis=1) >= 0)
    v = even[entry]
    partner = (part == 1) & (maps.rank[v % d] < maps.rank[v // d])
    fold = _Fold(indices=indices, indptr=indptr, terms=terms, rho_places=2 * v + part,
                 solution_places=slots[part, maps.place[v]] + size * partner)
    _read_only((indices, indptr, terms.data, *terms.coords, *fold[3:]))
    return fold


def _fold_phase(L: Superoperator) -> bool:
    """Whether L's fold leaves out the phase symmetry's parts: when its
    plan has the symmetry and its weights are real. SolverError when the
    plan couples the parity sectors."""
    parity, phase = _plan_symmetries(L.plan)
    if not parity:
        raise SolverError(_COUPLED)
    return phase and all(np.imag(w) == 0 for w in L.weights)


def _block(L: Superoperator) -> tuple[_Fold, sp.csc_matrix]:
    """The fold of L (`_fold_phase`) and its real system, formed from L's
    plan, K and weights: the system's values are the product of the fold's
    terms with (Re x, Im x), x = (K, conj(K), every weight, 1), and its
    pattern is the fold's read-only `indices` and `indptr` themselves, not
    copied."""
    k = L.k
    fold = _fold(L.plan, _fold_phase(L))
    x = np.concatenate([k, k.conj(), L.weights, [1.0]])
    size = fold.indptr.size - 1
    return fold, sp.csc_matrix((fold.terms @ np.concatenate([x.real, x.imag]),
                                fold.indices, fold.indptr), shape=(size, size))


class _Fronts(NamedTuple):
    """The fronts of the multifrontal LU of one fold (`_fronts`), in the
    order they are factorized, children before parents; read-only.

    Front f eliminates its pivots, the unknowns [first[f], end[f]); its
    other rows and columns, the unknowns of later fronts that eliminating
    them couples, are rows[row_ptr[f]:row_ptr[f + 1]], ascending. Its
    dense n × (n + 1) array, n = p + q, holds the pivots first, then those
    rows, and the right-hand side in its last column, in Fortran order.
    The system's values entries[entry_ptr[f]:entry_ptr[f + 1]] go to the
    flat places `places` of front f. Front f's update, its rows and columns
    after the pivots, goes to its parent: the rows and columns to the
    parent's `into` (aligned with `rows`), the right-hand side to the
    parent's last column. children[child_ptr[g]:child_ptr[g + 1]] are the
    fronts whose updates g takes, in the order they are added; a front
    without children, a leaf of the tree, holds the system's values alone
    in its pivot block, so the LU keeps no X for it (`_multifrontal`).
    `halves`, when the last front has two children or more, splits the
    fronts before it into its first child's subtree and the others', which
    can be factorized apart. `entries`, `places`, `rows` and `into` are
    int32, as the fold's `indptr` is; `_fronts` refuses larger fronts.
    """

    first: np.ndarray
    end: np.ndarray
    rows: np.ndarray
    row_ptr: np.ndarray
    entries: np.ndarray
    places: np.ndarray
    entry_ptr: np.ndarray
    into: np.ndarray
    children: np.ndarray
    child_ptr: np.ndarray
    halves: tuple | None


# a subtree of the dissection of at most this many unknowns is one front
_FRONT_LEAF = 128
# SuperLU is as fast or faster on folds of fewer unknowns than this, and
# on folds whose fronts average fewer flops than _FRONT_FLOPS (the empty
# cavity's at phi = 0, at every cutoff up to 300), where each front's
# fixed cost outweighs its dense arithmetic
_MULTIFRONTAL_MIN = 5000
_FRONT_FLOPS = 1e6
# a multifrontal solution whose backward error exceeds this is solved
# again by SuperLU; both read 1e-21 to 2e-18 on the folds measured
_BACKWARD_ERROR = 1e-14


@shared_cache(maxsize=4)
def _fronts(plan, phase: bool) -> _Fronts | None:
    """The `_Fronts` of the fold `_fold(plan, phase)` on its
    nested-dissection tree; None where the tree does not fit the fold's
    pattern or SuperLU is the faster LU.

    A subtree of the dissection of at most _FRONT_LEAF unknowns is one
    front, and every node of a larger subtree is a front of its own;
    rho_00 joins the last front. An entry of the system goes to the front
    of its row or its column, whichever comes first. A front's rows are
    the far ends of its own entries and its children's rows, those beyond
    its pivots: the symbolic pass of the multifrontal LU along the tree
    (Liu, SIAM Rev. 34, 82 (1992)). Each child's rows must then lie among
    its parent's pivots and rows, that is, none before the parent's first
    pivot; a tree where one does not is refused.
    """
    maps, fold = _sector_maps(plan.space), _fold(plan, phase)
    m, tree = fold.indptr.size - 1, maps.tree
    if m < _MULTIFRONTAL_MIN:
        return None
    # the first unknown of each representative
    count = np.count_nonzero(_slots(maps, phase) >= 0, axis=0)
    start = np.concatenate([[0], np.cumsum(count)])
    base, first, end = (start[tree[:, _TREE.index(c)]] for c in ("base", "first", "end"))
    parent = tree[:, _TREE.index("parent")]
    small = end - base <= _FRONT_LEAF
    keep = np.flatnonzero(~small | (parent < 0) | ~small[parent])
    number = np.full(tree.shape[0] + 1, -1)
    number[keep] = np.arange(keep.size)
    first, end, parent = np.where(small, base, first)[keep], end[keep], number[parent[keep]]
    end[-1] = m
    n_fronts = keep.size
    if np.any(end <= first):  # an empty line
        return None
    # each entry goes to the front of its row or its column, whichever
    # comes first; a stable sort of 16-bit keys is a radix sort
    column = np.repeat(np.arange(m), np.diff(fold.indptr))
    entry_front = np.repeat(np.arange(n_fronts), end - first)[np.minimum(fold.indices, column)]
    entries = np.argsort(entry_front.astype(np.uint16) if n_fronts <= 1 << 16 else entry_front,
                         kind="stable").astype(np.int32)
    entry_ptr = np.searchsorted(entry_front[entries], np.arange(n_fronts + 1))
    children = np.argsort(parent[:-1], kind="stable")
    child_ptr = np.searchsorted(parent[:-1][children], np.arange(n_fronts + 1))
    entry_rows, entry_cols = fold.indices[entries], column[entries]
    far = np.maximum(entry_rows, entry_cols)
    # the place of each unknown among the rows of one front at a time, and
    # the rows of that front, marked while they are gathered
    place, local, seen = np.empty(m, dtype=np.intp), np.arange(m), np.zeros(m, dtype=bool)
    places, rows, into = np.empty(entries.size, dtype=np.int32), [], [local[:0]] * n_fronts
    for f, (a, b, e0, e1, c0, c1) in enumerate(zip(*(
            bound.tolist() for bound in (first, end, entry_ptr[:-1], entry_ptr[1:],
                                         child_ptr[:-1], child_ptr[1:])))):
        below = children[c0:c1].tolist()
        coupled = np.concatenate([far[e0:e1], *(rows[child] for child in below)])
        seen[coupled[coupled >= b]] = True
        rows.append(np.flatnonzero(seen[b:]) + b)
        seen[rows[f]] = False
        n = b - a + rows[f].size
        place[a:b], place[rows[f]] = local[:b - a], local[b - a:n]
        places[e0:e1] = place[entry_rows[e0:e1]] + place[entry_cols[e0:e1]] * n
        for child in below:
            into[child] = place[rows[child]]
    p, q = end - first, np.array([front_rows.size for front_rows in rows])
    row_ptr = np.concatenate([[0], np.cumsum(q)])
    rows = np.concatenate(rows, dtype=np.int32)
    # a child's first row before its parent's first pivot is a row that
    # the parent does not hold; the places of a front must fit in int32
    handing = np.flatnonzero(q)
    if (np.any(rows[row_ptr[handing]] < first[parent[handing]])
            or np.max((p + q) * (p + q + 1)) >= 1 << 31):
        return None
    if np.sum(p * (2 / 3 * p * p + 2 * q * (p + q))) < _FRONT_FLOPS * n_fronts:
        return None
    top = children[child_ptr[-2]:]
    fronts = _Fronts(first=first, end=end, rows=rows, row_ptr=row_ptr, entries=entries,
                     places=places, entry_ptr=entry_ptr, into=np.concatenate(into, dtype=np.int32),
                     children=children, child_ptr=child_ptr,
                     halves=(range(top[0] + 1), range(top[0] + 1, n_fronts - 1))
                     if top.size >= 2 else None)
    _read_only(fronts[:-1])
    return fronts


class _SingularFront(Exception):
    """A front's pivot block is singular."""


def _factor_fronts(fronts: _Fronts, data: np.ndarray, rhs: np.ndarray, solved: list,
                   updates: list, span: range):
    """Eliminate the fronts of `span`, in order, carrying the right-hand
    side: each front's array is assembled from its entries of the system's
    `data`, gathered front by front, the right-hand side's pivot rows and
    its children's updates; X = F11^-1 [F12 | b], by an LU with partial
    pivoting among the pivot rows, goes to `solved` where the front has
    children and is dropped at a leaf of the tree, and the transposed
    update ([F22 | b] - F21 X)^T, (q + 1) × q, formed in the array of its
    product X^T F21^T, to `updates`. The fronts are assembled one after
    another in one workspace, the size of the largest, like the frontal
    stack of multifrontal codes, so that its pages are faulted in once per
    call, not once per front.
    The updates are added through flat indices, in order, which numpy adds
    without the interpreter lock, unlike its 2-D fancy and small slice adds."""
    sizes = (fronts.end - fronts.first + np.diff(fronts.row_ptr))[span.start:span.stop]
    workspace = np.empty(int(np.max(sizes * (sizes + 1), initial=0)))
    for f in span:
        first, end = int(fronts.first[f]), int(fronts.end[f])
        p = end - first
        n = p + int(fronts.row_ptr[f + 1] - fronts.row_ptr[f])
        flat = workspace[:n * (n + 1)]
        flat.fill(0.0)
        front = flat.reshape((n, n + 1), order="F")
        a, b = fronts.entry_ptr[f], fronts.entry_ptr[f + 1]
        flat[fronts.places[a:b]] = data[fronts.entries[a:b]]
        front[:p, n] = rhs[first:end]
        for child in fronts.children[fronts.child_ptr[f]:fronts.child_ptr[f + 1]].tolist():
            update, updates[child] = updates[child], None
            into = fronts.into[fronts.row_ptr[child]:fronts.row_ptr[child + 1]].astype(np.intp)
            flat[np.add.outer(np.append(into, n) * n, into)] += update
        try:
            x = np.linalg.solve(front[:p, :p], front[:p, p:])
        except np.linalg.LinAlgError:
            raise _SingularFront(f) from None
        if n > p:
            update = x.T @ front[p:, :p].T
            updates[f] = np.subtract(front[p:, p:].T, update, out=update)
        solved[f] = x if fronts.child_ptr[f + 1] > fronts.child_ptr[f] else None


def _solve_leaves(fronts: _Fronts, system: sp.csc_matrix, residual: np.ndarray, x: np.ndarray,
                  leaves: np.ndarray):
    """Solve the pivot blocks of these fronts without children against
    `residual`, b - F12 x at their pivots, into x. A leaf's F11 is
    system[a:b, a:b] for its pivots [a, b): the rows of the fronts before
    it lie in their ancestors. Blocks of one pivot count are stacked, in
    chunks no larger than the largest front's workspace, each assembled by
    one scatter of its columns' entries; none is padded, so each meets the
    same LAPACK call in any stack."""
    indptr, indices = system.indptr, system.indices
    sizes = fronts.end - fronts.first + np.diff(fronts.row_ptr)
    workspace = np.empty(int(np.max(sizes * (sizes + 1))))
    pivots = fronts.end[leaves] - fronts.first[leaves]
    for p in np.unique(pivots).tolist():
        group, step = leaves[pivots == p], max(workspace.size // (p * p), 1)
        for stack in (group[k:k + step] for k in range(0, group.size, step)):
            # row i of the stack's t-th column, of a leaf from a on, goes to
            # place t p + i - a of its blocks, transposed
            first = np.repeat(fronts.first[stack], p)
            columns = first + np.tile(np.arange(p), stack.size)
            count = indptr[columns + 1] - indptr[columns]
            at = np.arange(count.sum()) + np.repeat(indptr[columns] - np.cumsum(count) + count,
                                                    count)
            rows = indices[at]
            block = rows < np.repeat(first + p, count)
            place = rows + np.repeat(np.arange(columns.size) * p - first, count)
            blocks = workspace[:columns.size * p].reshape(stack.size, p, p)
            blocks.fill(0.0)
            blocks.reshape(-1)[place[block]] = system.data[at[block]]
            columns = columns.reshape(stack.size, p)
            x[columns] = np.linalg.solve(blocks.transpose(0, 2, 1),
                                         residual[columns][:, :, None])[:, :, 0]


def _at_once(run, first, second):
    """run(first) on this thread while a second thread runs run(second)."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        other = pool.submit(run, second)
        try:
            run(first)
        finally:
            other.result()


def _multifrontal(system: sp.csc_matrix, rhs: np.ndarray, fronts: _Fronts,
                  threads: int) -> tuple[np.ndarray, list]:
    """Solve system @ x = rhs by the multifrontal LU of `fronts` (Duff &
    Reid, ACM TOMS 9, 302 (1983); Liu, SIAM Rev. 34, 82 (1992)) with the
    right-hand side carried along, the two halves of the tree on two
    threads if `threads` > 1; return x and the X (p × (q + 1),
    `_factor_fronts`) of each front with children, in order.
    Each front's update is added to its parent in the fixed order of
    `children`, so nothing depends on the threads; each front gathers its
    own values. The back-substitution solves those fronts top-down, then
    each half's leaves, whose rows all belong to them (`_solve_leaves`).
    _SingularFront where a pivot block is singular."""
    n_fronts = fronts.first.size
    solved, updates = [None] * n_fronts, [None] * n_fronts
    factor = partial(_factor_fronts, fronts, system.data, rhs, solved, updates)
    two = threads > 1 and fronts.halves is not None
    if two:
        _at_once(factor, *fronts.halves)
        factor(range(n_fronts - 1, n_fronts))
    else:
        factor(range(n_fronts))
    x = np.zeros(rhs.size)
    for f in reversed(range(n_fronts)):
        if solved[f] is not None:
            rows = fronts.rows[fronts.row_ptr[f]:fronts.row_ptr[f + 1]]
            x[fronts.first[f]:fronts.end[f]] = solved[f][:, -1] - solved[f][:, :-1] @ x[rows]
    # x is 0 at the leaves' pivots, so this is b - F12 x at each of them
    leaf = partial(_solve_leaves, fronts, system, rhs - system @ x, x)
    leaves = np.flatnonzero(np.diff(fronts.child_ptr) == 0)
    if two:
        _at_once(leaf, *np.split(leaves, [np.searchsorted(leaves, fronts.halves[1].start)]))
    else:
        leaf(leaves)
    return x, [block for block in solved if block is not None]


class LUSolve(NamedTuple):
    """One solve of `spsolve`: the solution, the number of entries stored
    for it, the path that ran and the threads it ran on."""

    x: np.ndarray
    fill: int
    path: str
    threads: int


def _backward_error(system: sp.csc_matrix, x: np.ndarray, rhs: np.ndarray) -> float:
    """max|rhs - system x| / (||system||_inf max|x| + max|rhs|)."""
    norm = np.bincount(system.indices, np.abs(system.data), minlength=x.size).max(initial=0.0)
    residual = np.abs(system @ x - rhs).max(initial=0.0)
    return float(residual / (norm * np.abs(x).max(initial=0.0) + np.abs(rhs).max(initial=0.0)))


def spsolve(system: sp.csc_matrix, rhs: np.ndarray, fronts: _Fronts | None = None,
            threads: int = 1) -> LUSolve:
    """Solve system @ x = rhs by a sparse LU in the given order of the
    unknowns.

    With `fronts` the multifrontal LU runs (`_multifrontal`), on `threads`
    threads, at most 2; it stores the X of each front with children,
    Σ p (q + 1) entries over them, and solves the leaves' pivot blocks
    again in the back-substitution. It
    falls back to SuperLU where a pivot block is singular or the solution's
    backward error exceeds _BACKWARD_ERROR, and the path says why. Without
    fronts SuperLU runs, on one thread, and stores nnz(L + U) entries.
    """
    path = "SuperLU"
    if fronts is not None:
        threads = min(threads, 2) if fronts.halves else 1
        try:
            x, kept = _multifrontal(system, rhs, fronts, threads)
        except _SingularFront as exc:
            path = f"SuperLU after a singular pivot block in front {exc.args[0]}"
        else:
            error = _backward_error(system, x, rhs)
            if error <= _BACKWARD_ERROR:
                return LUSolve(x, sum(block.size for block in kept), "multifrontal", threads)
            path = f"SuperLU after a multifrontal backward error of {error:.1e}"
    lu = splu(system, permc_spec="NATURAL", diag_pivot_thresh=0.1,
              options=dict(SymmetricMode=True))
    return LUSolve(lu.solve(rhs), int(lu.nnz), path, 1)


def steady_state(L: Superoperator, guard: int | None = None,
                 epsilon: float = DEFAULT_EPSILON) -> DensityMatrix:
    """Solve L vec(rho) = 0 with the unit-trace constraint.

    Every jump operator flips the excitation parity P = (-1)^(a†a + sigma_ee)
    and H conserves it, so L has no entries between the sector where ket
    and bra have equal parity and the one where they differ (a weak
    symmetry, Buca & Prosen, New J. Phys. 14, 073007 (2012)), and the
    steady state lives in the equal-parity sector. Only that sector is
    solved. L maps rho† to (L rho)†, so the steady state is Hermitian: the
    sector is folded onto one entry of each pair {rho_ij, rho_ji}, and the
    real and imaginary parts of those entries, a diagonal entry's real
    part only, are the unknowns of one real system of about d²/2 unknowns,
    in nested-dissection order with rho_00 last. Its rho_00 row is replaced
    by the trace row and the right-hand side by the last unit vector,
    keeping the system square. It is solved by the multifrontal LU on the
    dissection's tree (`_fronts`, `spsolve`), or by SuperLU on small folds
    and where a front fails.

    At phi = 0 and zero detunings the model has one more symmetry: L
    commutes with rho -> U rho* U†, U = (-1)^sigma_ee, so every rho_ij is
    real where ket and bra have the same atom state and imaginary where
    they differ. When a generator has it, which is tested exactly on its
    plan's factors and its weights (`_plan_symmetries`), the parts it makes
    zero are left out too: about d²/4 unknowns. Either way the system is
    formed from the plan (`_fold`, `_block`), never from L's matrix.

    The solution is scattered into a full rho whose cross-sector entries
    are exactly zero. Its tail over the top `guard` Fock levels must stay
    below epsilon (`check_truncation`, math.inf turns that check off); it
    is then hermitized, renormalized and validated (`make_density_matrix`),
    and the residual max |L(rho)| of the full generator (`L.act`) must stay
    below RESIDUAL_TOL or, for large entries, 1e-14 max|K|, otherwise the
    kernel is considered degenerate. An invalid guard or epsilon is refused
    before anything is factorized.

    L itself must be finite and trace-preserving: max |vec(I)^T L| at most
    TRACE_TOL or, for large entries, whose round-off the trace row sums,
    1e-14 max|K|.
    """
    scale = float(np.abs(L.k).max(initial=0.0))
    if not (math.isfinite(scale) and L.trace_residual() <= max(TRACE_TOL, 1e-14 * scale)):
        raise SolverError("generator is not trace-preserving or not finite; refusing to solve")
    guard = truncation_guard(L.space.fock_cutoff, guard, epsilon)
    d = L.dim
    clock, seconds = [time.perf_counter()], {}

    def lap(stage: str | None = None):
        """The seconds since the last lap are `stage`'s, if one is named."""
        clock.append(time.perf_counter())
        if stage:
            seconds[stage] = clock[-1] - clock[-2]

    fold, system = _block(L)
    fronts = _fronts(L.plan, _fold_phase(L))
    lap("block")
    m = system.shape[0]
    rhs = np.zeros(m)
    rhs[-1] = 1.0
    # numpy's and scipy's OpenBLAS pools on one thread each, so that idle
    # pool threads do not spin on the cores other solving threads need;
    # the multifrontal LU gets the threads that the sweep leaves each
    # point, its two halves on two Python threads whose LAPACK calls run
    # without the interpreter lock. Inside a sweep, which holds the budget
    # already, the sweep's share holds.
    with thread_budget() as threads:
        lap()
        try:
            sol, fill, path, threads = spsolve(system, rhs, fronts, threads)
        except Exception as exc:  # pragma: no cover - solver backend failure
            raise NonUniqueSteadyStateError(f"sparse LU solve failed: {exc}") from exc
        lap("LU")
        if not np.all(np.isfinite(sol)):
            raise NonUniqueSteadyStateError("sparse LU solve returned non-finite entries")
        # a part left out stays +0.0
        full = np.zeros(d * d, dtype=complex)
        full.view(float)[fold.rho_places] = np.concatenate([sol, -sol])[fold.solution_places]
        raw = unvec(full, d)
        lap("unfold")
        # the tail first: a cutoff far too small also leaves a state that is
        # not positive, and the cutoff is what the error must name
        tail = check_truncation(DensityMatrix(L.space, raw), guard, epsilon)
        lap("tail")
        rho = make_density_matrix(L.space, raw)
        lap("validate")
        residual = float(np.abs(L.act(rho.matrix)).max())
        lap("residual")
    bound = max(RESIDUAL_TOL, 1e-14 * scale)
    if residual > bound:
        raise NonUniqueSteadyStateError(
            f"steady-state residual {residual:.3e} exceeds {bound:.0e}; the kernel may be "
            "degenerate; the fold assumes that L maps rho† to (L rho)†")
    return replace(rho, diagnostics=replace(
        rho.diagnostics, tail_mass=tail, residual=residual, guard=guard, lu_unknowns=m,
        lu_fill=fill, lu_path=path, lu_threads=threads, seconds=seconds))


def evolve(L: Superoperator, rho0: DensityMatrix, t_end: float, dt: float,
           sample_times=None):
    """Integrate dvec(rho)/dt = L vec(rho) with classical RK4.

    Samples are snapped to the underlying step grid; each sampled state is
    hermitized and validated. dt and the grid's step must not exceed
    RK4_RADIUS / ||L||_inf, where RK4 is stable: the eigenvalues of a
    generator lie in the left half of the disc of radius ||L||_inf, its
    largest absolute row sum (Gershgorin). A longer step is refused at once,
    as is a sample time that is not finite or lies outside [0, t_end].

    Returns a list of (t, DensityMatrix) pairs.
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 11)
    for t in sample_times:
        if not (math.isfinite(t) and 0 <= t <= t_end):
            raise ValueError(f"sample time {t} must be finite and in [0, t_end = {t_end}]")
    n_steps = max(1, int(round(t_end / dt)))
    h = t_end / n_steps
    norm = float(abs(L.matrix).sum(axis=1).max())
    if max(dt, h) * norm > RK4_RADIUS:
        raise StepTooLargeError(
            f"dt = {dt:g} (grid step {h:g}) exceeds the stability guard "
            f"{RK4_RADIUS:g} / ||L||_inf = {RK4_RADIUS / norm:g}"
        )
    sample_steps = sorted({int(round(t / h)) for t in sample_times})

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
