import dataclasses
import json
import math
import re
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

from sqcavity import (
    CorruptedStateError,
    CutoffTooSmallError,
    FieldSpace,
    NonUniqueSteadyStateError,
    SolverError,
    SpaceDims,
    SqueezedBath,
    StepTooLargeError,
    Superoperator,
    SystemParams,
    annihilation,
    build_bogoliubov_liouvillian,
    build_liouvillian,
    check_truncation,
    evolve,
    make_density_matrix,
    mean_photon_number,
    photon_distribution,
    solvers,
    steady_state,
    suggest_fock_cutoff,
    truncation_guard,
    unvec,
    vec,
)
from sqcavity import liouvillian
from sqcavity._cache import shared_cache
from sqcavity.operators import embed_field
from sqcavity.solvers import MIN_EIG_TOL, RESIDUAL_TOL
from conftest import excitation_numbers, parity_mismatch, squeezed_photon_numbers


def empty_cavity_liouvillian(r, cutoff, kappa=1.0):
    params = SystemParams(kappa=kappa)
    return build_liouvillian(params, SqueezedBath(r=r), FieldSpace(cutoff))


def fock_state(space, n):
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[n, n] = 1.0
    return make_density_matrix(space, m)


def planned(space, h, operators=(), weights=()):
    """The generator with Hamiltonian h and jumps (A_j, B_j) at these
    weights, as the one point of a plan of its own."""
    return liouvillian._at(liouvillian._make_plan(space, h, operators), weights)


def zero_generator(space):
    """The generator under which every state is steady."""
    return planned(space, sp.csr_matrix((space.dim, space.dim), dtype=complex))


def matrix_trace_residual(L):
    """max |vec(I)^T L| taken on L's matrix."""
    return float(np.abs(vec(np.eye(L.dim)) @ L.matrix).max())


def with_trace_defect(L, defect):
    """L's point with K_00 raised by defect / 2, so that K + K† and the
    trace row of L gain `defect` at (0, 0)."""
    k = L.k.copy()
    k[(L.plan.row == 0) & (L.plan.col == 0)] += defect / 2
    return Superoperator(L.plan, k, L.weights)


class TestSteadyState:
    def test_dark_bath_gives_vacuum(self):
        rho = steady_state(empty_cavity_liouvillian(0.0, 10))
        assert abs(rho.matrix[0, 0].real - 1.0) < 1e-12

    def test_squeezed_mean_photon_number(self):
        rho = steady_state(empty_cavity_liouvillian(1.0, 90), guard=10)
        assert abs(mean_photon_number(rho) - np.sinh(1.0) ** 2) < 1e-6

    def test_two_photon_probability(self):
        expected_p2 = squeezed_photon_numbers(1.0, 4)[2]
        assert abs(expected_p2 - 0.187944) < 1e-6  # sanity on the oracle itself
        rho = steady_state(empty_cavity_liouvillian(1.0, 90), guard=10)
        from sqcavity import photon_distribution

        assert abs(photon_distribution(rho).probabilities[2] - expected_p2) < 1e-6

    def test_residual_bound_scales_with_the_generator(self):
        # every rate times s, as in s⁻¹, leaves the state alone, but its
        # residual grows with max|K|: 1.9e-8 at s = 1e7, above RESIDUAL_TOL;
        # the bound is 1e-14 max|K| there, as for the trace check
        states = []
        for s in (1.0, 1e4, 1e7, 1e9):
            L = build_liouvillian(SystemParams(g0=15.0 * s, gamma=s, kappa=s), SqueezedBath(0.5),
                                  SpaceDims(40))
            rho = steady_state(L)
            assert rho.diagnostics.residual <= max(RESIDUAL_TOL, 1e-14 * np.abs(L.k).max())
            states.append(rho.matrix)
        assert np.abs(np.array(states) - states[0]).max() <= 1e-10

    def test_residual_invariant(self):
        L = build_liouvillian(
            SystemParams(g0=15.0, gamma=1.0), SqueezedBath(0.5), SpaceDims(40)
        )
        rho = steady_state(L)
        assert np.abs(L.matrix @ vec(rho.matrix)).max() < 1e-8

    def test_rejects_non_trace_preserving_generator(self):
        # K = I/2: rho -> K rho + rho K† is the identity
        bad = planned(FieldSpace(3), 0.5j * sp.identity(3, dtype=complex, format="csr"))
        assert (bad.matrix != sp.identity(9)).nnz == 0
        with pytest.raises(SolverError):
            steady_state(bad)

    def test_trace_check_scales_with_the_generator(self, monkeypatch):
        # at r = 6 the entries reach 4.6e6 and the trace row's round-off on
        # the matrix, 4.7e-10, exceeds TRACE_TOL; the d×d sum of the plan
        # cancels here, and a defect of 1e-15 max|K|, above TRACE_TOL too,
        # is accepted
        L = empty_cavity_liouvillian(6.0, 30)
        scale = np.abs(L.k).max()
        assert matrix_trace_residual(L) > solvers.TRACE_TOL >= L.trace_residual()
        rounded = with_trace_defect(L, 1e-15 * scale)
        assert rounded.trace_residual() > solvers.TRACE_TOL
        for generator in (L, rounded):
            with pytest.raises(CutoffTooSmallError):
                steady_state(generator)
        # a trace defect of 1e-12 max|K| is refused
        monkeypatch.setattr(solvers, "spsolve", lambda *args: pytest.fail("factorized"))
        with pytest.raises(SolverError, match="not trace-preserving"):
            steady_state(with_trace_defect(L, 1e-12 * scale))

    @pytest.mark.parametrize("guard", [0, -1])
    def test_guard_below_one_refused(self, guard):
        # without a guard this state fails the tail check with a tail of 9.5e-3
        L = empty_cavity_liouvillian(1.2, 20)
        with pytest.raises(CutoffTooSmallError):
            steady_state(L)
        with pytest.raises(ValueError, match="0 < guard < fock_cutoff"):
            steady_state(L, guard=guard)

    @pytest.mark.parametrize("guard, epsilon", [(0, 1e-8), (-1, 1e-8), (20, 1e-8),
                                                (None, math.nan), (None, 0.0)])
    def test_invalid_guard_or_epsilon_refused_before_the_lu(self, guard, epsilon, monkeypatch):
        L = empty_cavity_liouvillian(0.3, 20)
        monkeypatch.setattr(solvers, "spsolve", lambda *args: pytest.fail("factorized"))
        with pytest.raises(ValueError, match="must (satisfy 0 < guard <|be > 0)"):
            steady_state(L, guard=guard, epsilon=epsilon)

    def test_tail_mass_is_the_one_truncation_check(self):
        rho = steady_state(empty_cavity_liouvillian(0.8, 60), guard=10)
        tail = check_truncation(rho, guard=10)
        assert 0 < tail < 1e-8
        assert photon_distribution(rho, guard=10).tail_mass == tail
        # steady_state measures the solved state before it is renormalized
        assert rho.diagnostics.tail_mass == pytest.approx(tail, rel=1e-12)

    def test_truncation_checked_before_positivity(self, monkeypatch):
        # at r = 20 (max|L| = 6.7e18) the cutoff-30 solution is not positive,
        # and the error must still be the truncation error, which names the
        # cutoff
        raw_states = []
        check = solvers.check_truncation

        def recording_check(rho, *args):
            raw_states.append(rho.matrix)
            return check(rho, *args)

        monkeypatch.setattr(solvers, "check_truncation", recording_check)
        with pytest.raises(CutoffTooSmallError) as info:
            steady_state(empty_cavity_liouvillian(20.0, 30))
        raw, = raw_states
        assert np.linalg.eigvalsh(0.5 * (raw + raw.conj().T))[0] < MIN_EIG_TOL
        assert info.value.tail_mass > solvers.DEFAULT_EPSILON

    def test_cutoff_too_small_raises_with_suggestion(self):
        with pytest.raises(CutoffTooSmallError) as info:
            steady_state(empty_cavity_liouvillian(1.0, 40), guard=8)
        assert info.value.suggested_cutoff > 40
        assert str(info.value).endswith(f"retry with cutoff >= {info.value.suggested_cutoff}")
        assert info.value.tail_mass > 1e-8

    def test_diagnostics_recorded(self):
        rho = steady_state(empty_cavity_liouvillian(0.3, 30))
        d = rho.diagnostics
        assert abs(rho.matrix.trace() - 1.0) < 1e-10
        assert np.abs(rho.matrix - rho.matrix.conj().T).max() < 1e-10
        assert d.min_eigenvalue > -1e-8
        assert d.tail_mass < 1e-8

    @pytest.mark.parametrize("guard", [None, np.int64(8)])
    def test_diagnostics_are_one_record_of_the_solve(self, guard):
        # the seconds of each stage, in the order they run; the guard the
        # tail was measured over, a Python int; the whole record as JSON
        d = steady_state(empty_cavity_liouvillian(0.3, 30), guard=guard).diagnostics
        assert list(d.seconds) == ["block", "LU", "unfold", "tail", "validate", "residual"]
        assert all(seconds >= 0 for seconds in d.seconds.values())
        assert d.guard == truncation_guard(30, guard)
        assert type(d.guard) is int
        record = json.loads(json.dumps(dataclasses.asdict(d)))
        assert record["seconds"] == d.seconds
        assert record["guard"] == d.guard
        assert record["lu_unknowns"] == d.lu_unknowns

    @pytest.mark.parametrize("guard", [2.5, 3.0, "4", np.float64(5.0)])
    def test_non_integer_guard_refused_before_the_lu(self, guard, monkeypatch):
        # an integral float too: a guard counts Fock levels
        message = re.escape(f"guard = {guard!r} must be an integer")
        with pytest.raises(ValueError, match=message):
            truncation_guard(20, guard)
        monkeypatch.setattr(solvers, "spsolve", lambda *args: pytest.fail("factorized"))
        with pytest.raises(ValueError, match=message):
            steady_state(empty_cavity_liouvillian(0.3, 20), guard=guard)


def full_system_state(L):
    """The plain solve: the whole d²×d² generator with its first row
    replaced by the trace row, normalized but not otherwise processed."""
    d = L.dim
    system = sp.lil_matrix(L.matrix)
    system[0, :] = np.eye(d).reshape(1, -1, order="F")
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    rho = unvec(spsolve(system.tocsc(), rhs), d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / rho.trace().real


def complex_block_state(L):
    """The state from the complex parity block of L's matrix, never
    folded, hermitized and normalized (`colamd_block_solve`): the reference
    for the fold."""
    return colamd_block_solve(L)[0]


def record_spsolve(monkeypatch):
    """Replace solvers.spsolve by a spy; returns the list of (system, fill)
    of each factorization."""
    systems = []
    real = solvers.spsolve

    def recording_spsolve(system, *args):
        solve = real(system, *args)
        systems.append((system, solve.fill))
        return solve

    monkeypatch.setattr(solvers, "spsolve", recording_spsolve)
    return systems


ATOM = SystemParams(g0=15.0, gamma=1.0)

SECTOR_CASES = {
    "atom": lambda: build_liouvillian(ATOM, SqueezedBath(0.6), SpaceDims(24)),
    "atom_odd_cutoff": lambda: build_liouvillian(ATOM, SqueezedBath(0.7), SpaceDims(23)),
    "empty": lambda: empty_cavity_liouvillian(0.8, 40),
    "empty_odd_cutoff": lambda: empty_cavity_liouvillian(0.5, 31),
    "phase": lambda: build_liouvillian(ATOM, SqueezedBath(0.5, phi=1.1), SpaceDims(24)),
    "detuned": lambda: build_liouvillian(
        SystemParams(delta_A=1.5, delta_C=-0.7, g0=15.0, gamma=1.0), SqueezedBath(0.4),
        SpaceDims(24)),
    "bogoliubov_atom": lambda: build_bogoliubov_liouvillian(ATOM, SqueezedBath(0.5), SpaceDims(24)),
    "bogoliubov_empty": lambda: build_bogoliubov_liouvillian(
        SystemParams(), SqueezedBath(0.8), FieldSpace(40)),
}

def with_complex_jumps(L, angle=0.3):
    """L's model with each jump (A, B) as (A D, D* B), D = diag(e^{i angle j}):
    a generator that keeps its trace and maps rho† to (L rho)†, whose
    jumps' Kronecker products have entries with nonzero real and
    imaginary parts, which meet the imaginary part of a complex weight."""
    phases, plan = np.exp(1j * angle * np.arange(L.dim)), L.plan
    D, D_conj = sp.diags(phases), sp.diags(phases.conj())
    return planned(L.space, plan.operator(plan.h),
                   [((A @ D).tocsr(), (D_conj @ B).tocsr()) for A, B in plan.jumps], L.weights)


# generators without the phase symmetry, all on SpaceDims(24)
PHASE_BROKEN_CASES = {
    "phi": lambda: build_liouvillian(ATOM, SqueezedBath(0.5, phi=1.1), SpaceDims(24)),
    "phi_pi": lambda: build_liouvillian(ATOM, SqueezedBath(0.5, phi=math.pi), SpaceDims(24)),
    "delta_A": lambda: build_liouvillian(SystemParams(delta_A=0.5, g0=15.0, gamma=1.0),
                                         SqueezedBath(0.5), SpaceDims(24)),
    "delta_C": lambda: build_liouvillian(SystemParams(delta_C=-0.7, g0=15.0, gamma=1.0),
                                         SqueezedBath(0.5), SpaceDims(24)),
    "complex_jumps": lambda: with_complex_jumps(
        build_liouvillian(ATOM, SqueezedBath(0.5, phi=1.1), SpaceDims(24))),
}


def driven_model(space):
    """A planned model on space, and the drive eps (a + a†) at eps = 0.5."""
    a = embed_field(space, annihilation)
    return (build_liouvillian(SystemParams(g0=2.0, gamma=1.0), SqueezedBath(0.3), space),
            sp.csr_matrix(0.5 * (a + a.dag()).matrix))


class TestSectorSolve:
    """steady_state factorizes only the equal-parity block of L; each case
    is checked against the plain solve of the whole system."""

    @pytest.mark.parametrize("case", sorted(SECTOR_CASES))
    def test_matches_full_system_solve(self, case):
        L = SECTOR_CASES[case]()
        rho = steady_state(L, epsilon=math.inf)
        assert np.abs(rho.matrix - full_system_state(L)).max() <= 1e-12

    @pytest.mark.parametrize("case", sorted(set(SECTOR_CASES) - {"phase", "detuned"}))
    def test_real_fold_matches_the_complex_block(self, case):
        L = SECTOR_CASES[case]()
        rho = steady_state(L, epsilon=math.inf)
        even = np.count_nonzero(~parity_mismatch(L.space))
        assert rho.diagnostics.lu_unknowns == (even + L.dim) // 2
        assert np.abs(rho.matrix - complex_block_state(L)).max() <= 1e-12

    @pytest.mark.parametrize("case", sorted(SECTOR_CASES))
    def test_cross_sector_entries_are_exactly_zero(self, case):
        L = SECTOR_CASES[case]()
        rho = steady_state(L, epsilon=math.inf)
        assert np.all(rho.matrix[parity_mismatch(L.space)] == 0)

    @pytest.mark.parametrize("case", ["atom", "empty"])
    def test_lu_receives_half_the_unknowns(self, case, monkeypatch):
        # at phi = 0 without detunings the parity block of d²/2 unknowns is
        # folded by Hermiticity onto half of them, d of which are diagonal
        L = SECTOR_CASES[case]()
        systems = record_spsolve(monkeypatch)
        rho = steady_state(L, epsilon=math.inf)
        folded = (L.dim**2 // 2 + L.dim) // 2
        assert [(s.shape, s.dtype) for s, _ in systems] == [((folded, folded), np.float64)]
        assert [fill for _, fill in systems] == [rho.diagnostics.lu_fill]
        assert rho.diagnostics.lu_fill > folded
        assert rho.diagnostics.lu_unknowns == folded
        assert 0 < rho.diagnostics.seconds["block"]
        # the real system comes from the plan: L's matrix is never formed
        assert "matrix" not in vars(L)

    @pytest.mark.parametrize("case", sorted(PHASE_BROKEN_CASES))
    def test_hermitian_fold_without_the_phase_symmetry(self, case, monkeypatch):
        # the real and imaginary parts of one entry of each pair, the
        # diagonal's real part only: as many real unknowns as the sector
        # has entries; exp(i pi) has an imaginary part of 1.2e-16, so
        # phi = pi lacks the symmetry too
        L = PHASE_BROKEN_CASES[case]()
        systems = record_spsolve(monkeypatch)
        rho = steady_state(L, epsilon=math.inf)
        half = L.dim**2 // 2
        assert [(s.shape, s.dtype) for s, _ in systems] == [((half, half), np.float64)]
        assert rho.diagnostics.lu_unknowns == half
        # the system comes from the plan: L's matrix is never formed
        assert "matrix" not in vars(L)
        assert np.abs(rho.matrix - complex_block_state(L)).max() <= 1e-12

    def test_fold_without_hermiticity_preservation_is_caught(self):
        # one more jump, 1e-3 |0><0| rho |0><2|, puts rho_00 into the row of
        # rho_02, which the fold drops for that of rho_20; its product
        # |0><2|0><0| is zero, so L keeps its trace, its parity and the
        # phase symmetry, and the real block is solved from the plan and
        # gives the state of the unbroken L, but L no longer maps rho† to
        # (L rho)†, and the residual against the full model shows it
        L = empty_cavity_liouvillian(0.3, 12)
        plan, d = L.plan, L.dim
        A = sp.csr_matrix(([1.0 + 0j], ([0], [0])), shape=(d, d))
        B = sp.csr_matrix(([1.0 + 0j], ([0], [2])), shape=(d, d))
        broken = planned(L.space, plan.operator(plan.h), [*plan.jumps, (A, B)],
                         (*L.weights, 1e-3))
        folded = (L.dim**2 // 2 + L.dim) // 2
        assert steady_state(L, epsilon=math.inf).diagnostics.lu_unknowns == folded
        with pytest.raises(NonUniqueSteadyStateError, match="assumes that L maps rho†"):
            steady_state(broken, epsilon=math.inf)

    @pytest.mark.parametrize("space", [SpaceDims(6), FieldSpace(8)])
    def test_coherent_drive_in_the_plan_refused_before_factorizing(self, space, monkeypatch):
        # -i[eps (a + a†), .] mixes the parity sectors, and the plan's
        # Hamiltonian shows the drive: its factors are tested
        L, drive = driven_model(space)
        driven = planned(space, L.plan.operator(L.plan.h) + drive, L.plan.jumps, L.weights)
        monkeypatch.setattr(solvers, "spsolve", lambda *args: pytest.fail("factorized"))
        with pytest.raises(SolverError, match="parity"):
            steady_state(driven)

    def test_nan_generator_refused_before_factorizing(self, monkeypatch):
        L = SECTOR_CASES["atom"]()
        k = L.k.copy()
        k[k.size // 2] = np.nan
        monkeypatch.setattr(solvers, "spsolve", lambda *args: pytest.fail("factorized"))
        with pytest.raises(SolverError, match="not finite"):
            steady_state(Superoperator(L.plan, k, L.weights))

    def test_residual_recorded(self):
        # taken in Lindblad form on the d×d state, it agrees with the full
        # matrix's to round-off
        L = SECTOR_CASES["atom"]()
        rho = steady_state(L)
        residual = np.abs(L.matrix @ vec(rho.matrix)).max()
        assert abs(rho.diagnostics.residual - residual) <= 1e-14
        assert residual <= RESIDUAL_TOL


def fold_maps(space):
    """(sign, even, fold_row, fold_col) of space's fold by vec index
    v = i + d j, derived from the excitation numbers N and the atom states
    of the basis, with the order of `_sector_maps(space).folded`:
    sigma(v) = u_i u_j, the sector `even` where N_i and N_j share their
    parity, the place in `folded` of each representative (N_i > N_j, or
    N_i = N_j and i <= j; -1 for any other v) and that of v's
    representative, v or t(v) = j + d i (-1 outside the sector)."""
    d, n, folded = space.dim, excitation_numbers(space), solvers._sector_maps(space).folded
    i, j = np.arange(d * d) % d, np.arange(d * d) // d
    # the atom is the outer factor: its excited half is every index from
    # fock_cutoff on, and a field space has none
    sign = np.where((i < space.fock_cutoff) == (j < space.fock_cutoff), 1.0, -1.0)
    even = np.flatnonzero((n[i] - n[j]) % 2 == 0)
    representative = (n[i] > n[j]) | ((n[i] == n[j]) & (i <= j))
    assert np.array_equal(np.sort(folded), even[representative[even]])
    fold_row = np.full(d * d, -1)
    fold_row[folded] = np.arange(folded.size)
    return sign, even, fold_row, np.maximum(fold_row, fold_row[j + d * i])


def matrix_scan_fold(L):
    """The real folded system of a phase-symmetric L formed from L's
    matrix, as before the plan did it, or None when L's entries lack the
    phase symmetry: every entry of L between vec indices of equal sigma
    must be real and every other one imaginary. Entry L_ab of a
    representative's row other than rho_00's goes to
    (fold_row[a], fold_col[b]) as Re L_ab, or sigma(b) Im L_ab, times 1
    for a representative b and sigma(b) for a partner; the trace row takes
    rho_00's place."""
    matrix, d = L.matrix, L.dim
    sign, even, fold_row, fold_col = fold_maps(L.space)
    counts = np.diff(matrix.indptr)
    col_sign = sign[matrix.indices]
    same = np.repeat(sign, counts) == col_sign
    if np.any(np.where(same, matrix.data.imag, matrix.data.real)):
        return None
    partner_sign = np.where(fold_row[matrix.indices] >= 0, 1.0, col_sign)
    values = np.where(same, matrix.data.real, col_sign * matrix.data.imag) * partner_sign
    m = np.count_nonzero(fold_row >= 0)
    row, col = np.repeat(fold_row, counts), fold_col[matrix.indices]
    keep = (row >= 0) & (row < m - 1)
    return sp.csc_matrix((np.concatenate([values[keep], np.ones(d)]),
                          (np.concatenate([row[keep], np.full(d, m - 1)]),
                           np.concatenate([col[keep], fold_col[:: d + 1]]))),
                         shape=(m, m))


def matrix_scan_hermitian_fold(L):
    """The real system of L folded by Hermiticity alone, formed from L's
    matrix. Its unknowns are (Re, Im) of each representative in the order
    of `folded`, Re only for a diagonal one, and so are its equations:
    with rho_b = y_0 + i s y_1 of b's representative (s = 1 for a
    representative, -1 for a partner), entry L_ab of a representative's
    row other than rho_00's goes, as part p of L_ab, to equation part p of
    a on y_0, and as part p of i s L_ab on y_1; the trace row takes
    rho_00's place."""
    matrix, d = L.matrix.tocoo(), L.dim
    _, _, fold_row, fold_col = fold_maps(L.space)
    reps = solvers._sector_maps(L.space).folded
    parts = np.ones((reps.size, 2), dtype=bool)
    parts[reps % d == reps // d, 1] = False
    place = np.where(parts, np.cumsum(parts).reshape(parts.shape) - 1, -1)
    size = parts.sum()
    a, b = fold_row[matrix.row], fold_col[matrix.col]
    keep = (a >= 0) & (a < reps.size - 1)
    a, b, c = a[keep], b[keep], matrix.data[keep]
    s = np.where(fold_row[matrix.col[keep]] >= 0, 1.0, -1.0)
    rows, cols, values = [np.full(d, size - 1)], [place[fold_col[:: d + 1], 0]], [np.ones(d)]
    for p in (0, 1):
        for p_col, unit in ((0, 1.0), (1, 1j * s)):
            kept = (place[a, p] >= 0) & (place[b, p_col] >= 0)
            rows.append(place[a[kept], p])
            cols.append(place[b[kept], p_col])
            value = (unit * c)[kept]
            values.append(value.imag if p else value.real)
    return sp.csc_matrix((np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(size, size))


def trace_broken(L):
    """L's planned model with iH shifted by 0.3 on the diagonal, so that
    K + K† = 0.6 I: a generator with a trace defect of 0.6."""
    shifted = L.plan.operator(L.plan.h) + 0.3j * sp.identity(L.dim, format="csr")
    return planned(L.space, shifted, L.plan.jumps, L.weights)


def reference_fold(plan, used, phase):
    """The `_Fold` of a plan's jumps marked in `used` formed the plain way:
    every entry of every Kronecker product is formed and placed, those
    outside the representatives' rows other than rho_00's are dropped, and
    one np.unique over the terms' keys numbers the pattern; its x holds
    the weights of the used jumps alone. The reference for
    `solvers._fold`, which forms only the entries in kept rows of every
    jump; its docstring states the terms."""
    space, d = plan.space, plan.space.dim
    folded = solvers._sector_maps(space).folded
    sign, even, fold_row, fold_col = fold_maps(space)
    present = np.ones((folded.size, 2), dtype=bool)
    present[folded % d == folded // d, 1] = False
    if phase:
        present &= (sign[folded, None] > 0) == [True, False]
    place = np.cumsum(present).reshape(present.shape) - 1
    slots = np.ascontiguousarray(np.where(present, place, -1).T, dtype=np.int32)
    last = folded.size - 1
    size = int(slots[0, last]) + 1
    n_k = plan.row.size
    unit = sp.coo_matrix((np.ones(n_k, dtype=complex), (plan.row, plan.col)), shape=(d, d))
    factors = liouvillian._kron_factors(space, unit, [(1.0, A, B) for (A, B), is_used
                                                      in zip(plan.jumps, used) if is_used])
    n_x = 2 * n_k + len(factors) - 1
    keys, coefficients, sources = [], [], []
    for number, (left, right, _) in enumerate(factors):
        rows = fold_row[(left.row[:, None] * d + right.row).ravel()]
        kept = np.flatnonzero((rows >= 0) & (rows < last))
        li, ri = np.divmod(kept, right.row.size)
        col = left.col[li] * d + right.col[ri]
        equations, unknowns = (np.take(slots, places, axis=1)
                               for places in (rows[kept], fold_col[col]))
        q = left.data[li] * right.data[ri]
        source = (ri if number == 0 else n_k + li if number == 1
                  else np.full(kept.size, 2 * n_k + number - 2))
        s = np.where(fold_row[col] >= 0, 1.0, -1.0)
        for p, p_col, z in ((0, 0, 1.0), (1, 0, -1j), (0, 1, 1j * s), (1, 1, s)):
            t = np.flatnonzero((equations[p] >= 0) & (unknowns[p_col] >= 0))
            key = unknowns[p_col, t].astype(np.int64) * size + equations[p, t]
            zq = q[t] * (z[t] if p_col else z)
            imag = (zq.real == 0) & (zq.imag != 0)
            both = np.flatnonzero((zq.real != 0) & (zq.imag != 0))
            keys += [key, key[both]]
            coefficients += [np.where(imag, -zq.imag, zq.real), -zq.imag[both]]
            sources += [(source[t] + n_x * imag).astype(np.int32),
                        (source[t][both] + n_x).astype(np.int32)]
    keys.append(slots[0, fold_col[np.arange(d) * (d + 1)]].astype(np.int64) * size
                + size - 1)
    coefficients.append(np.ones(d))
    sources.append(np.full(d, n_x - 1, dtype=np.int32))
    keys, positions = np.unique(np.concatenate(keys), return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(size + 1) * size)
    part, entry = np.nonzero(np.take(slots, fold_col[even], axis=1) >= 0)
    partner = (part == 1) & (fold_row[even[entry]] < 0)
    terms = sp.coo_array((np.concatenate(coefficients),
                          (positions.astype(np.int32), np.concatenate(sources))),
                         shape=(keys.size, 2 * n_x))
    return solvers._Fold(
        indices=(keys % size).astype(np.int32), indptr=indptr.astype(np.int32), terms=terms,
        rho_places=2 * even[entry] + part,
        solution_places=slots[part, fold_col[even[entry]]] + size * partner)


def every_jump_reference_fold(plan, phase):
    """`reference_fold` of every jump of the plan, as `solvers._fold` is
    called."""
    return reference_fold(plan, (True,) * len(plan.jumps), phase)


def assert_reference_system(L):
    """`_block` forms L's system, byte for byte, and its unfolding maps as
    `reference_fold` of every jump does."""
    fold, system = solvers._block(L)
    with mock.patch.object(solvers, "_fold", every_jump_reference_fold):
        reference, expected = solvers._block(L)
    for name in ("data", "indices", "indptr"):
        mine, theirs = getattr(system, name), getattr(expected, name)
        assert mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()
    for name in ("rho_places", "solution_places"):
        assert np.array_equal(getattr(fold, name), getattr(reference, name))


def unpaired_jumps(space, seed=1):
    """A planned generator whose two jumps (A_j, B_j) are independent random
    combinations of a, a† and a cubic term, at complex weights. It keeps
    the parity sectors apart but does not map rho† to (L rho)†, so entries
    of one product that share a place in the fold take different values,
    and their terms have two nonzero parts: the order in which the fold
    sums them shows in its system."""
    rng = np.random.default_rng(seed)
    a = sp.csr_matrix(embed_field(space, annihilation).matrix)
    ad = a.conj().T.tocsr()
    c, e = rng.normal(size=(2, 2, 3)) + 1j * rng.normal(size=(2, 2, 3))
    jumps = [((x[0] * a + x[1] * ad + x[2] * (ad @ ad @ a)).tocsr(),
              (y[0] * a + y[1] * ad + y[2] * (a @ a @ ad)).tocsr()) for x, y in zip(c, e)]
    return planned(space, (ad @ a).astype(complex), jumps, (0.7 + 0.3j, 1.9 - 0.4j))


def fold_arrays(fold):
    """The arrays a `_Fold` keeps."""
    return (fold.indices, fold.indptr, fold.terms.data, *fold.terms.coords, fold.rho_places,
            fold.solution_places)


class TestColdFold:
    """The fold forms only the rows it keeps and numbers its pattern with
    one in-place sort; its system must be the reference fold's, byte for
    byte, whether it is formed cold or from the cache."""

    @pytest.mark.parametrize("case", sorted({**SECTOR_CASES, **PHASE_BROKEN_CASES}))
    def test_system_is_the_reference_folds(self, case):
        assert_reference_system({**SECTOR_CASES, **PHASE_BROKEN_CASES}[case]())

    @pytest.mark.parametrize("case", sorted(SECTOR_CASES))
    def test_hermitian_system_is_the_reference_folds(self, case, monkeypatch):
        # the phase-symmetric cases on the fold by Hermiticity alone
        monkeypatch.setattr(solvers, "_plan_symmetries", lambda plan: (True, False))
        assert_reference_system(SECTOR_CASES[case]())

    @pytest.mark.parametrize("space", [SpaceDims(2), FieldSpace(2), SpaceDims(3)], ids=repr)
    def test_smallest_spaces_take_the_reference_system(self, space):
        assert_reference_system(build_liouvillian(ATOM, SqueezedBath(0.4), space))
        assert_reference_system(build_liouvillian(ATOM, SqueezedBath(0.4, phi=0.5), space))

    @pytest.mark.parametrize("space", [FieldSpace(30), SpaceDims(8)], ids=repr)
    @pytest.mark.parametrize("one_entry_blocks", [False, True])
    def test_unpaired_jumps_take_the_reference_system(self, space, one_entry_blocks,
                                                      monkeypatch):
        # blocks of one left entry each part the entries that share a place,
        # so the second terms of a product must wait for all its first terms
        if one_entry_blocks:
            blocks = solvers._blocks
            monkeypatch.setattr(solvers, "_blocks", lambda *run: blocks(*run[:3], 1))
        assert_reference_system(unpaired_jumps(space))

    def test_generator_without_entries_takes_the_trace_row_alone(self):
        assert solvers._block(zero_generator(FieldSpace(3)))[0].terms.nnz == 3
        assert_reference_system(zero_generator(FieldSpace(3)))

    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_cold_and_warm_block_form_one_system(self, phi):
        # two points of one plan share their fold: the second point's
        # system from the cached fold is the one formed cold
        first, second = (build_liouvillian(ATOM, SqueezedBath(r, phi=phi), SpaceDims(30))
                         for r in (0.4, 0.9))
        solvers._fold.cache_clear()
        cold = solvers._block(second)[1]
        solvers._fold.cache_clear()
        solvers._block(first)
        warm = solvers._block(second)[1]
        assert solvers._fold.cache_info().hits == 1
        for name in ("data", "indices", "indptr"):
            assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes()

    def test_cold_fold_peak_stays_near_the_fold_it_keeps(self):
        # a block of the products' entries at a time, and the pattern
        # numbered in place: about 1.4 times the fold's bytes at cutoff
        # 60, where forming every product entry took 3.6 times
        L = build_liouvillian(ATOM, SqueezedBath(0.6), SpaceDims(60))
        solvers._sector_maps(L.space)
        tracemalloc.start()
        try:
            fold = solvers._fold.__wrapped__(L.plan, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * sum(array.nbytes for array in fold_arrays(fold))

    def test_too_many_terms_to_number_are_refused_before_allocating(self):
        # 2 * 12 bits of places and 41 bits of term numbers exceed 63
        with pytest.raises(SolverError, match="too large"):
            solvers._Terms(2**40, 2**12)


def zero_weight_reference_system(L):
    """The system of L's jumps of nonzero weight alone, its values summed
    from `reference_fold`'s terms one by one, and that fold."""
    used = tuple(bool(w != 0) for w in L.weights)
    phase = solvers._plan_symmetries(L.plan)[1] and all(np.imag(w) == 0 for w in L.weights)
    fold = reference_fold(L.plan, used, phase)
    x = np.concatenate([L.k, L.k.conj(), [w for w, u in zip(L.weights, used) if u], [1.0]])
    terms, x = fold.terms, np.concatenate([x.real, x.imag])
    values = np.bincount(terms.row, terms.data * x[terms.col], minlength=fold.indices.size)
    size = fold.indptr.size - 1
    return fold, sp.csc_matrix((values, fold.indices, fold.indptr), shape=(size, size))


def csc_keys(system):
    """col * n + row of each stored entry of an n×n CSC matrix."""
    n = system.shape[0]
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(system.indptr)) * n + system.indices


ZERO_WEIGHT_CASES = {
    "atom_r0": lambda: build_liouvillian(ATOM, SqueezedBath(0.0), SpaceDims(24)),
    "atom_phi_r0": lambda: build_liouvillian(ATOM, SqueezedBath(0.0, phi=0.7), SpaceDims(24)),
    "atom_gamma0": lambda: build_liouvillian(SystemParams(g0=15.0), SqueezedBath(0.5),
                                             SpaceDims(24)),
    "detuned_r0": lambda: build_liouvillian(SystemParams(delta_A=0.5, g0=15.0, gamma=1.0),
                                            SqueezedBath(0.0), SpaceDims(24)),
    "empty_r0": lambda: empty_cavity_liouvillian(0.0, 40),
}


class TestOneFoldPerModel:
    """A fold depends on its plan and phase symmetry alone: a jump of zero
    weight is folded too, its weight a value of the point, and each
    point's values are one sparse product of the fold's terms."""

    def test_unsqueezed_and_squeezed_points_share_one_fold(self):
        solvers._fold.cache_clear()
        for r in (0.0, 0.4):
            solvers._block(build_liouvillian(ATOM, SqueezedBath(r), SpaceDims(30)))
        assert solvers._fold.cache_info().misses == 1

    @pytest.mark.parametrize("case", sorted(ZERO_WEIGHT_CASES))
    def test_zero_weight_system_is_that_of_the_nonzero_jumps_and_zeros(self, case):
        # every entry of the fold of the jumps of nonzero weight, bit for
        # bit, and the entries only the others reach hold zeros
        L = ZERO_WEIGHT_CASES[case]()
        assert not all(L.weights)
        reference, expected = zero_weight_reference_system(L)
        fold, system = solvers._block(L)
        assert system.shape == expected.shape
        keys, expected_keys = csc_keys(system), csc_keys(expected)
        place = np.searchsorted(keys, expected_keys)
        assert np.array_equal(keys[place], expected_keys)
        assert system.data[place].tobytes() == expected.data.tobytes()
        assert system.nnz > expected.nnz
        assert np.all(np.delete(system.data, place) == 0)
        for name in ("rho_places", "solution_places"):
            assert np.array_equal(getattr(fold, name), getattr(reference, name))

    def test_warm_block_peak_is_the_system_it_returns(self):
        # one product of the terms with the point's x: no temporary as
        # long as the terms
        L = build_liouvillian(ATOM, SqueezedBath(0.6), SpaceDims(60))
        solvers._block(L)
        tracemalloc.start()
        try:
            system = solvers._block(L)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * sum(getattr(system, name).nbytes
                                 for name in ("data", "indices", "indptr"))

    def test_cached_fold_is_read_only(self):
        fold = solvers._block(SECTOR_CASES["phase"]())[0]
        assert isinstance(fold.terms, sp.coo_array)
        for array in (fold.terms.data, fold.terms.row, fold.terms.col, *fold_arrays(fold)):
            with pytest.raises(ValueError):
                array[0] = array[1]

    @pytest.mark.parametrize("case", ["atom", "phase"])
    def test_system_shares_the_folds_read_only_pattern(self, case):
        L = SECTOR_CASES[case]()
        fold, system = solvers._block(L)
        for name in ("indices", "indptr"):
            array = getattr(system, name)
            assert np.shares_memory(array, getattr(fold, name))
            assert not array.flags.writeable
        # the LU takes the shared pattern as it is
        steady_state(L, epsilon=math.inf)
        assert not (fold.indices.flags.writeable or fold.indptr.flags.writeable)

    def test_two_threads_asking_at_once_get_one_fold(self, monkeypatch):
        # both threads ask before the fold is cached, and forming it takes
        # long enough that they overlap: the second waits for the first's
        L = SECTOR_CASES["atom"]()
        solvers._block(L)
        solvers._fold.cache_clear()
        formed, fold_terms = [], solvers._fold_terms

        def slow_fold_terms(*args):
            formed.append(1)
            time.sleep(0.2)
            return fold_terms(*args)

        monkeypatch.setattr(solvers, "_fold_terms", slow_fold_terms)
        barrier = threading.Barrier(2)

        def fold(_):
            barrier.wait(timeout=30)
            return solvers._block(L)[0]

        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = pool.map(fold, range(2), timeout=60)
        assert first is second
        assert len(formed) == 1
        assert solvers._fold.cache_info().misses == 1
        assert solvers._fold.cache_info().hits == 1

    @pytest.mark.parametrize("space", [SpaceDims(20), FieldSpace(20), SpaceDims(3)], ids=repr)
    def test_sector_maps_keep_one_map_over_liouville_space(self, space):
        maps = solvers._sector_maps(space)
        assert [name for name, array in zip(maps._fields, maps)
                if array.size == space.dim**2] == ["place"]


class TestSharedCache:
    def test_keeps_the_most_recent_keys_as_lru_cache_does(self):
        calls = []

        @shared_cache(maxsize=2)
        def square(x):
            calls.append(x)
            return x * x

        assert [square(x) for x in (1, 2, 1, 3, 1, 2)] == [1, 4, 1, 9, 1, 4]
        # 3 evicts 2, the least recently used, and 2 evicts 3
        assert calls == [1, 2, 3, 2]
        assert square.cache_info() == (2, 4, 2, 2)
        assert square.__wrapped__(5) == 25
        square.cache_clear()
        assert square.cache_info() == (0, 0, 2, 0)

    def test_many_threads_compute_each_key_once(self):
        # more threads than cores, switching often, on few keys: every key
        # is computed by one caller, and every call is counted once
        calls = []

        @shared_cache(maxsize=4)
        def slow_square(x):
            calls.append(x)
            time.sleep(0.01)
            return x * x

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(slow_square, n % 3) for n in range(64)]
                results = [future.result(timeout=30) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [(n % 3) ** 2 for n in range(64)]
        assert sorted(calls) == [0, 1, 2]
        info = slow_square.cache_info()
        assert (info.hits, info.misses, info.currsize) == (61, 3, 3)

    def test_an_error_is_not_kept(self):
        calls = []

        @shared_cache(maxsize=2)
        def fails_once(x):
            calls.append(x)
            if len(calls) == 1:
                raise ValueError("first call")
            return x

        with pytest.raises(ValueError, match="first call"):
            fails_once(7)
        assert fails_once(7) == 7
        assert calls == [7, 7]
        assert fails_once.cache_info().currsize == 1


class TestPlanPath:
    """A generator from the builders is solved from its plan; each figure
    taken from the plan is checked against the same figure taken from L's
    matrix."""

    @pytest.mark.parametrize("case", sorted(SECTOR_CASES))
    def test_fold_matches_the_matrix_scan_fold(self, case):
        L = SECTOR_CASES[case]()
        _, system = solvers._block(L)
        reference = matrix_scan_fold(L)
        assert (reference is None) == (case in ("phase", "detuned"))
        if reference is not None:
            assert system.shape == reference.shape
            assert abs(system - reference).max() <= 1e-14 * abs(reference).max()

    @pytest.mark.parametrize("case", sorted({**SECTOR_CASES, **PHASE_BROKEN_CASES}))
    def test_fold_matches_the_matrix_scan_hermitian_fold(self, case, monkeypatch):
        # a phase-symmetric generator whose symmetry is hidden takes the
        # Hermitian fold too
        L = {**SECTOR_CASES, **PHASE_BROKEN_CASES}[case]()
        monkeypatch.setattr(solvers, "_plan_symmetries", lambda plan: (True, False))
        _, system = solvers._block(L)
        reference = matrix_scan_hermitian_fold(L)
        assert system.dtype == np.float64
        even = np.count_nonzero(~parity_mismatch(L.space))
        assert system.shape == reference.shape == (even, even)
        assert abs(system - reference).max() <= 1e-14 * abs(reference).max()

    @pytest.mark.parametrize("case", sorted({**SECTOR_CASES, **PHASE_BROKEN_CASES}))
    def test_symmetry_of_the_factors_matches_that_of_the_entries(self, case):
        L = {**SECTOR_CASES, **PHASE_BROKEN_CASES}[case]()
        parity, phase = solvers._plan_symmetries(L.plan)
        real_weights = all(np.imag(w) == 0 for w in L.weights)
        assert parity
        assert (phase and real_weights) == (matrix_scan_fold(L) is not None)
        assert (matrix_scan_fold(L) is None) == (
            case in ("phase", "detuned", *PHASE_BROKEN_CASES))

    @pytest.mark.parametrize("case", sorted({**SECTOR_CASES, **PHASE_BROKEN_CASES}))
    def test_lindblad_form_matches_the_matrix(self, case, rng):
        L = {**SECTOR_CASES, **PHASE_BROKEN_CASES}[case]()
        scale = np.abs(L.matrix.data).max()
        rho = steady_state(L, epsilon=math.inf).matrix
        x = rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape)
        for state in (rho, x):
            assert np.abs(L.act(state) - unvec(L.matrix @ vec(state), L.dim)).max() <= (
                1e-14 * scale * np.abs(state).max())
        assert L.trace_residual() <= 1e-14 * scale
        assert matrix_trace_residual(L) <= 1e-14 * scale
        broken = trace_broken(L)
        assert broken.trace_residual() == pytest.approx(0.6, abs=1e-14 * scale)
        assert matrix_trace_residual(broken) == pytest.approx(0.6, abs=1e-14 * scale)


def coo_operator(plan, values):
    """The d×d matrix with these values on the plan's pattern, by scipy's
    COO sort on every call, as `_Plan.operator` formed it before the plan
    cached its CSR layout."""
    d = plan.space.dim
    return sp.csr_matrix((values, (plan.row, plan.col)), shape=(d, d))


def reference_trace_residual(L):
    """max |vec(I)^T L| as the sparse sum K + K† + sum_j w_j B_j A_j on the
    d×d space: the formula of `Superoperator.trace_residual` before it read
    the plan's cached layout."""
    K = coo_operator(L.plan, L.k)
    jumps = sum((w * p for w, p in zip(L.weights, L.plan.products) if w != 0),
                np.zeros_like(L.k))
    return float(np.abs((K + K.conj().T + coo_operator(L.plan, jumps)).data).max(initial=0.0))


def reference_act(L, rho):
    """L(rho) in the Lindblad form with K from `coo_operator` and each B_jᵀ
    the transposed view of B_j: `Superoperator.act` before the plan cached
    its layout and its transposed jump factors."""
    K = coo_operator(L.plan, L.k)
    out = K @ rho + (K.conj() @ rho.T).T
    for w, (A, B) in zip(L.weights, L.plan.jumps):
        if w != 0:
            out += w * (A @ (B.T @ rho.T).T)
    return out


def one_sided_generator(seed=3):
    """A point of a test-built plan on FieldSpace(6) whose pattern is
    one-sided: a random upper-triangular h and the one jump (a†, a†), whose
    product a†a† lies two below the diagonal, so most entries have no
    transpose in the pattern; the entries are stored in a shuffled order,
    not by (row, col)."""
    rng, space = np.random.default_rng(seed), FieldSpace(6)
    h = sp.csr_matrix(np.triu(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))))
    ad = sp.csr_matrix(annihilation(6).matrix).conj().T.tocsr()
    product = ad @ ad
    pattern = sp.coo_matrix(abs(h) + abs(product))
    shuffle = rng.permutation(pattern.nnz)
    row, col = pattern.row[shuffle], pattern.col[shuffle]
    plan = liouvillian._Plan(space, row, col, h.toarray()[row, col],
                             (product.toarray()[row, col],), ((ad, ad),))
    return liouvillian._at(plan, (0.7 - 0.2j,))


LAYOUT_CASES = {**SECTOR_CASES, **PHASE_BROKEN_CASES, "one_sided": one_sided_generator,
                "zero": lambda: zero_generator(FieldSpace(3))}


class TestCachedLayout:
    """Each plan lays its pattern out in CSR form once (`_Plan.layout`); the
    operator, the trace check and the action read it, bitwise as the COO
    path they replace did (`coo_operator`, `reference_trace_residual`,
    `reference_act`), for any plan: the builders', a trace-broken one, a
    test-built one with a one-sided pattern in shuffled order and the empty
    pattern of the zero generator."""

    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_checks_are_bitwise_those_of_the_coo_path(self, case, rng):
        L = LAYOUT_CASES[case]()
        x = rng.normal(size=(L.dim, L.dim)) + 1j * rng.normal(size=(L.dim, L.dim))
        for M in (L, trace_broken(L)):
            K, reference = M.plan.operator(M.k), coo_operator(M.plan, M.k)
            for got, want in ((K.indices, reference.indices), (K.indptr, reference.indptr),
                              (K.data, reference.data)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert M.trace_residual() == reference_trace_residual(M)
            assert M.act(x).tobytes() == reference_act(M, x).tobytes()

    def test_one_sided_pattern_has_absent_transposes(self):
        L = one_sided_generator()
        transpose = L.plan.layout[3]
        assert 0 < np.count_nonzero(transpose < 0) < transpose.size
        present = transpose >= 0
        assert np.array_equal(L.plan.row[transpose[present]], L.plan.col[present])
        assert np.array_equal(L.plan.col[transpose[present]], L.plan.row[present])
        # K† adds |K| at an entry absent from the pattern: the residual
        # reaches max |k| there
        assert L.trace_residual() >= np.abs(L.k[transpose < 0]).max()

    def test_layout_is_laid_out_once_and_read_only(self):
        L = SECTOR_CASES["atom"]()
        layout = L.plan.layout
        assert layout is L.plan.layout
        arrays = [*layout[:4], *(x for m in layout[4] for x in (m.data, m.indices, m.indptr))]
        assert not any(array.flags.writeable for array in arrays)
        # every matrix the plan forms shares its read-only index arrays
        K = L.plan.operator(L.k)
        assert np.shares_memory(K.indices, layout[1]) and np.shares_memory(K.indptr, layout[2])
        assert not (K.indices.flags.writeable or K.indptr.flags.writeable)


def colamd_block_solve(L):
    """The parity block solved as before nested dissection: even sector in
    vec order, trace row in place of rho_00's row, COLAMD column order.
    Returns the normalized rho and SuperLU's fill."""
    d = L.dim
    even = np.flatnonzero(~parity_mismatch(L.space).reshape(-1, order="F"))
    block = L.matrix[even][:, even].tolil()
    block[0, :] = np.isin(even, np.arange(d) * (d + 1)).astype(float)
    rhs = np.zeros(even.size, dtype=complex)
    rhs[0] = 1.0
    lu = splu(block.tocsc(), permc_spec="COLAMD")
    full = np.zeros(d * d, dtype=complex)
    full[even] = lu.solve(rhs)
    rho = unvec(full, d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / rho.trace().real, lu.nnz


def grid_coordinates(space):
    """Excitation numbers of the basis states, the even-sector vec indices,
    and their (k, s) = ((N_i - N_j)/2, (N_i + N_j)/2)."""
    n = excitation_numbers(space)
    even = np.flatnonzero(~parity_mismatch(space).reshape(-1, order="F"))
    n_i, n_j = n[even % space.dim], n[even // space.dim]
    return n, even, (n_i - n_j) // 2, (n_i + n_j) // 2


def folded_coordinates(space):
    """As grid_coordinates, with the representatives of the fold in vec
    order (k > 0, or k = 0 and i <= j) in place of s."""
    n, even, k, _ = grid_coordinates(space)
    i, j = even % space.dim, even // space.dim
    return n, even, k, even[(k > 0) | ((k == 0) & (i <= j))]


def bisect(k, s, idx):
    """Split the unknowns idx of the (k, s) grid at the midpoint line of its
    longer side into (lower half, upper half, separator line)."""
    c = k[idx] if np.ptp(k[idx]) >= np.ptp(s[idx]) else s[idx]
    mid = (c.min() + c.max()) // 2
    return idx[c < mid], idx[c > mid], idx[c == mid]


def recursive_dissection(k, s, idx, split=bisect):
    """The nested-dissection order of the unknowns idx, one part at a time:
    each half is numbered before the line that separates it from the
    other, down to _ND_LEAF unknowns. The plain reference for
    `_sector_order`, which splits all the parts of one level at once.
    `split` bisects a part."""
    if idx.size <= solvers._ND_LEAF:
        return idx
    low, high, separator = split(k, s, idx)
    return np.concatenate([recursive_dissection(k, s, low, split),
                           recursive_dissection(k, s, high, split), separator])


def assert_separators_separate(k, s, row, col):
    """Dissect the unknowns 1.. of a grid block with couplings (row, col)
    as `recursive_dissection` does, asserting that every split is proper
    and that no coupling crosses a separator; returns the order, unknown 0
    last."""
    splits = []

    def proper_bisect(k, s, idx):
        low, high, separator = bisect(k, s, idx)
        assert low.size and high.size and separator.size
        splits.append((low, high))
        return low, high, separator

    order = np.append(recursive_dissection(k, s, np.arange(1, k.size), proper_bisect), 0)
    assert len(splits) >= 3
    for low, high in splits:
        side = np.zeros(k.size, dtype=int)
        side[low], side[high] = 1, 2
        assert not np.any(side[row] * side[col] == 2)
    return order


class TestNestedDissectionOrder:
    """The even block is factorized in nested-dissection order on its
    (k, s) grid; each separator must cut every coupling between its two
    halves, or the order would not bound the fill."""

    @pytest.mark.parametrize("case", sorted(SECTOR_CASES))
    def test_order_is_a_permutation_with_rho_00_last(self, case):
        space = SECTOR_CASES[case]().space
        n, even, _, _ = grid_coordinates(space)
        order = solvers._sector_order(n, even)[0]
        assert np.array_equal(np.sort(order), even)
        assert order[-1] == 0

    @pytest.mark.parametrize("case", sorted(SECTOR_CASES))
    def test_every_separator_separates(self, case):
        L = SECTOR_CASES[case]()
        n, even, k, s = grid_coordinates(L.space)
        block = L.matrix[even][:, even].tocoo()
        order = assert_separators_separate(k, s, block.row, block.col)
        assert np.array_equal(even[order], solvers._sector_order(n, even)[0])

    @pytest.mark.parametrize("case", ["atom", "atom_odd_cutoff", "empty", "empty_odd_cutoff",
                                      "bogoliubov_atom"])
    def test_every_folded_separator_separates(self, case):
        # a column t(b) folded onto b moves k from -1 to 1 at the same s,
        # so the folded block is still a grid problem on the k >= 0 half
        L = SECTOR_CASES[case]()
        n, even, k, reps = folded_coordinates(L.space)
        maps = solvers._sector_maps(L.space)
        _, _, fold_row, fold_col = fold_maps(L.space)
        coo = L.matrix.tocoo()
        row, col = fold_row[coo.row], fold_col[coo.col]
        in_vec_order = np.searchsorted(reps, maps.folded)  # place in folded -> in reps
        kept = row >= 0
        rep = np.isin(even, reps)
        s = (n[reps % L.dim] + n[reps // L.dim]) // 2
        order = assert_separators_separate(k[rep], s, in_vec_order[row[kept]],
                                           in_vec_order[col[kept]])
        assert np.array_equal(reps[order], maps.folded)

    @pytest.mark.parametrize("space", [FieldSpace(90), FieldSpace(240), SpaceDims(60),
                                       SpaceDims(61), SpaceDims(150), SpaceDims(240)],
                             ids=repr)
    def test_every_split_is_proper_at_the_production_leaf(self, space):
        n, even, k, s = grid_coordinates(space)

        def proper_bisect(k, s, idx):
            low, high, separator = bisect(k, s, idx)
            assert low.size and high.size and separator.size
            return low, high, separator

        order = recursive_dissection(k, s, np.arange(1, even.size), proper_bisect)
        # the solver splits all the parts of one level at once, and the
        # unknowns of one grid point together, into the same order
        assert np.array_equal(even[np.append(order, 0)], solvers._sector_order(n, even)[0])
        folded = folded_coordinates(space)[3]
        n_i, n_j = n[folded % space.dim], n[folded // space.dim]
        order = recursive_dissection((n_i - n_j) // 2, (n_i + n_j) // 2,
                                     np.arange(1, folded.size))
        assert np.array_equal(folded[np.append(order, 0)], solvers._sector_order(n, folded)[0])

    def test_cached_order_is_read_only_and_reused(self):
        space = SpaceDims(30)
        maps = solvers._sector_maps(space)
        n, even, _, folded = folded_coordinates(space)
        assert np.array_equal(np.flatnonzero(maps.place >= 0), even)
        assert np.array_equal(maps.folded, solvers._sector_order(n, folded)[0])
        assert solvers._sector_maps(SpaceDims(30)) is maps
        for array in maps:
            with pytest.raises(ValueError):
                array[0] = array[1]

    def test_field_and_composite_spaces_get_their_own_orders(self):
        for space in (FieldSpace(20), SpaceDims(20), FieldSpace(20)):
            n, even, _, folded = folded_coordinates(space)
            maps = solvers._sector_maps(space)
            assert np.array_equal(np.flatnonzero(maps.place >= 0), even)
            assert np.array_equal(maps.folded, solvers._sector_order(n, folded)[0])

    @pytest.mark.parametrize("case", ["atom", "atom_odd_cutoff", "empty_odd_cutoff"])
    def test_fold_maps_pair_each_entry_with_its_transpose(self, case):
        space = SECTOR_CASES[case]().space
        d = space.dim
        n, even, _, folded = folded_coordinates(space)
        maps = solvers._sector_maps(space)
        assert np.array_equal(np.sort(maps.folded), folded)
        assert maps.folded[-1] == 0
        i, j = even % d, even // d
        transposed = j + d * i
        representative = np.isin(even, folded)
        # each pair {v, t(v)} has one representative, which both map to,
        # and whose ket is ranked no lower than its bra
        assert np.array_equal(maps.place[even], maps.place[transposed])
        assert np.array_equal(maps.folded[maps.place[even]],
                              np.where(representative, even, transposed))
        assert np.array_equal(maps.rank[i] >= maps.rank[j], representative)
        atom_i, atom_j = i >= space.fock_cutoff, j >= space.fock_cutoff
        assert np.array_equal(maps.u[i] * maps.u[j], np.where(atom_i == atom_j, 1.0, -1.0))
        assert np.all(maps.place[np.setdiff1d(np.arange(d * d), even)] == -1)
        # states ranked by (N mod 2, N, -i), each parity's end the rank after its last
        assert np.array_equal(np.argsort(maps.rank), np.lexsort((-np.arange(d), n, n % 2)))
        assert np.array_equal(maps.end, [maps.rank[n % 2 == p].max() + 1 for p in n % 2])

    def test_cold_and_warm_cache_give_identical_states(self):
        # with the phase symmetry and without it: one fold each
        for case in ("atom", "phase"):
            L = SECTOR_CASES[case]()
            for cache in (solvers._sector_maps, solvers._plan_symmetries, solvers._fold):
                cache.cache_clear()
            cold = steady_state(L, epsilon=math.inf)
            warm = steady_state(L, epsilon=math.inf)
            assert solvers._sector_maps.cache_info().hits >= 1
            assert solvers._fold.cache_info().hits >= 1
            assert solvers._fold.cache_info().currsize == 1
            assert cold.diagnostics.lu_unknowns == warm.diagnostics.lu_unknowns
            assert cold.matrix.tobytes() == warm.matrix.tobytes()

    def test_matches_colamd_at_cutoff_60(self):
        L = build_liouvillian(ATOM, SqueezedBath(0.8), SpaceDims(60))
        rho = steady_state(L, epsilon=math.inf)
        expected, colamd_fill = colamd_block_solve(L)
        assert np.abs(rho.matrix - expected).max() <= 1e-12
        assert rho.diagnostics.lu_fill < colamd_fill


@pytest.fixture
def every_fold_multifrontal(monkeypatch):
    """Let `_fronts` take folds of any size and front flops, below the
    multifrontal LU's crossover too."""
    monkeypatch.setattr(solvers, "_MULTIFRONTAL_MIN", 0)
    monkeypatch.setattr(solvers, "_FRONT_FLOPS", 0.0)


def system_and_fronts(L):
    """L's folded system, its trace right-hand side and its fronts, the
    fronts computed afresh."""
    system = solvers._block(L)[1]
    rhs = np.zeros(system.shape[0])
    rhs[-1] = 1.0
    return system, rhs, solvers._fronts.__wrapped__(L.plan, solvers._fold_phase(L))


def front_parents(fronts):
    """The front each front's update goes to, -1 for the last."""
    parent = np.full(fronts.first.size, -1)
    for g in range(fronts.first.size):
        parent[fronts.children[fronts.child_ptr[g]:fronts.child_ptr[g + 1]]] = g
    return parent


def naive_front_rows(system, fronts):
    """The rows of each front found by eliminating its pivots from the
    graph of system + system^T, with the rows of the fronts eliminated
    before it that go to it (those whose first row is its pivot): the
    plain symbolic pass on the elimination tree, which the fronts' rows
    must cover."""
    pattern = (abs(system) + abs(system).T).tocsr()
    front_of = np.repeat(np.arange(fronts.first.size), fronts.end - fronts.first)
    passed = [set() for _ in range(fronts.first.size)]
    rows = []
    for f, (first, end) in enumerate(zip(fronts.first.tolist(), fronts.end.tolist())):
        found = set(pattern.indices[pattern.indptr[first]:pattern.indptr[end]].tolist())
        found = {x for x in found | passed[f] if x >= end}
        assert all(x >= first for x in passed[f])
        rows.append(found)
        if found:
            passed[front_of[min(found)]] |= found
    return rows


def tree_front_rows(system, fronts):
    """The rows of each front found from the pattern of system + system^T,
    stored zeros included: the unknowns beyond its pivots that its pivots
    couple, and those its children in the fronts' tree hand it."""
    ones = sp.csc_matrix((np.ones(system.nnz), system.indices, system.indptr),
                         shape=system.shape)
    pattern = (ones + ones.T).tocsc()
    parent = front_parents(fronts)
    passed = [set() for _ in range(fronts.first.size)]
    rows = []
    for f, (first, end) in enumerate(zip(fronts.first.tolist(), fronts.end.tolist())):
        found = set(pattern.indices[pattern.indptr[first]:pattern.indptr[end]].tolist())
        rows.append({x for x in found | passed[f] if x >= end})
        if parent[f] >= 0:
            passed[parent[f]] |= rows[f]
    return rows


MULTIFRONTAL_CASES = {
    "atom_r0": lambda: build_liouvillian(ATOM, SqueezedBath(0.0), SpaceDims(30)),
    "atom_r0.02": lambda: build_liouvillian(ATOM, SqueezedBath(0.02), SpaceDims(30)),
    "atom_r0.1_c12": lambda: build_liouvillian(ATOM, SqueezedBath(0.1), SpaceDims(12)),
    "atom_r0.1_c60": lambda: build_liouvillian(ATOM, SqueezedBath(0.1), SpaceDims(60)),
    "atom_r1.2": lambda: build_liouvillian(ATOM, SqueezedBath(1.2), SpaceDims(60)),
    "empty": lambda: empty_cavity_liouvillian(0.8, 40),
    "empty_r0.02": lambda: empty_cavity_liouvillian(0.02, 31),
    "phase": lambda: build_liouvillian(ATOM, SqueezedBath(0.5, phi=0.7), SpaceDims(30)),
    "detuned": lambda: build_liouvillian(
        SystemParams(delta_A=1.5, delta_C=-0.7, g0=15.0, gamma=1.0), SqueezedBath(0.4),
        SpaceDims(30)),
    "bogoliubov_atom": lambda: build_bogoliubov_liouvillian(ATOM, SqueezedBath(0.5), SpaceDims(24)),
}


class TestMultifrontal:
    """The multifrontal LU on the nested-dissection tree: the same solution
    as SuperLU, fronts that hold every row their elimination couples, no
    dependence on the threads, and SuperLU where a front fails."""

    @pytest.mark.parametrize("case", sorted(MULTIFRONTAL_CASES))
    def test_agrees_with_superlu(self, case, every_fold_multifrontal):
        # at r <= 0.1 SuperLU swaps rows inside the first leaf; the fronts
        # pivot inside each front
        system, rhs, fronts = system_and_fronts(MULTIFRONTAL_CASES[case]())
        assert fronts is not None
        reference = solvers.spsolve(system, rhs)
        for threads in (1, 2):
            solve = solvers.spsolve(system, rhs, fronts, threads)
            assert solve.path == "multifrontal"
            assert np.abs(solve.x - reference.x).max() <= 1e-13 * np.abs(reference.x).max()

    @pytest.mark.parametrize("r", [0.02, 1.2])
    def test_agrees_with_superlu_at_cutoff_150(self, r):
        L = build_liouvillian(ATOM, SqueezedBath(r), SpaceDims(150))
        system, rhs, fronts = system_and_fronts(L)
        reference, solve = solvers.spsolve(system, rhs), solvers.spsolve(system, rhs, fronts, 2)
        assert (solve.path, solve.threads) == ("multifrontal", 2)
        assert np.abs(solve.x - reference.x).max() <= 1e-13 * np.abs(reference.x).max()
        # each front with children keeps X = F11^-1 [F12 | b] alone; the
        # leaves keep nothing
        p, q = fronts.end - fronts.first, np.diff(fronts.row_ptr)
        kept = np.diff(fronts.child_ptr) > 0
        assert solve.fill == int(np.sum((p * (q + 1))[kept])) < reference.fill

    @pytest.mark.parametrize("case", sorted(MULTIFRONTAL_CASES))
    def test_front_rows_cover_the_elimination_and_lie_in_ancestors(self, case,
                                                                  every_fold_multifrontal):
        system, _, fronts = system_and_fronts(MULTIFRONTAL_CASES[case]())
        parent = front_parents(fronts)
        assert np.array_equal(fronts.first[1:], fronts.end[:-1])
        assert fronts.end[-1] == system.shape[0] and fronts.first[0] == 0
        exact = tree_front_rows(system, fronts)
        for f, naive in enumerate(naive_front_rows(system, fronts)):
            rows = fronts.rows[fronts.row_ptr[f]:fronts.row_ptr[f + 1]]
            assert np.all(np.diff(rows) > 0)
            assert set(rows.tolist()) == exact[f]
            assert naive <= set(rows.tolist())
            ancestors, g = [], parent[f]
            while g >= 0:
                ancestors.append(np.arange(fronts.first[g], fronts.end[g]))
                g = parent[g]
            assert np.isin(rows, np.concatenate([[], *ancestors])).all()

    def test_tree_that_misses_a_childs_rows_takes_superlu(self, every_fold_multifrontal,
                                                          monkeypatch):
        # a node re-hung from the root, past its old parent, whose pivots
        # its first row lies in
        L = MULTIFRONTAL_CASES["atom_r1.2"]()
        maps, phase = solvers._sector_maps(L.space), solvers._fold_phase(L)
        assert solvers._fronts.__wrapped__(L.plan, phase) is not None
        tree, column = maps.tree.copy(), solvers._TREE.index("parent")
        parent, root = tree[:, column], tree.shape[0] - 1
        node = np.flatnonzero((parent >= 0) & (parent[parent] == root))[0]
        tree[node, column] = root
        monkeypatch.setattr(solvers, "_sector_maps", lambda space: maps._replace(tree=tree))
        assert solvers._fronts.__wrapped__(L.plan, phase) is None
        solvers._fronts.cache_clear()
        try:
            assert steady_state(L, epsilon=math.inf).diagnostics.lu_path == "SuperLU"
        finally:
            solvers._fronts.cache_clear()

    def test_one_and_two_threads_give_identical_factors(self, every_fold_multifrontal):
        system, rhs, fronts = system_and_fronts(MULTIFRONTAL_CASES["atom_r1.2"]())
        assert fronts.halves is not None
        one, factors_one = solvers._multifrontal(system, rhs, fronts, 1)
        two, factors_two = solvers._multifrontal(system, rhs, fronts, 2)
        assert one.tobytes() == two.tobytes()
        # the X of the fronts with children alone, in order
        kept = np.flatnonzero(np.diff(fronts.child_ptr) > 0)
        assert len(factors_one) == len(factors_two) == kept.size < fronts.first.size
        p, q = fronts.end - fronts.first, np.diff(fronts.row_ptr)
        for f, a, b in zip(kept, factors_one, factors_two):
            assert a.shape == b.shape == (p[f], q[f] + 1)
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("build", [
        lambda: build_liouvillian(ATOM, SqueezedBath(1.2), SpaceDims(100)),
        lambda: build_liouvillian(ATOM, SqueezedBath(0.5, phi=0.7), SpaceDims(60)),
    ], ids=["atom_c100", "phase_c60"])
    def test_leaves_solved_again_match_a_back_substitution_that_keeps_every_x(self, build):
        # the leaves' X formed here from the system alone, their fronts
        # having no children, and every front's X used top-down
        system, rhs, fronts = system_and_fronts(build())
        n_fronts = fronts.first.size
        x, kept = solvers._multifrontal(system, rhs, fronts, 2)
        every, updates = [None] * n_fronts, [None] * n_fronts
        solvers._factor_fronts(fronts, system.data, rhs, every, updates, range(n_fronts))
        with_children = np.flatnonzero(np.diff(fronts.child_ptr) > 0)
        assert [a.tobytes() for a in kept] == [every[f].tobytes() for f in with_children]
        leaves = np.flatnonzero(np.diff(fronts.child_ptr) == 0)
        assert leaves.size > 0 and all(every[f] is None for f in leaves)
        for f in leaves.tolist():
            a, b = fronts.first[f], fronts.end[f]
            p, n = b - a, b - a + fronts.row_ptr[f + 1] - fronts.row_ptr[f]
            front = np.zeros(n * (n + 1))
            e0, e1 = fronts.entry_ptr[f], fronts.entry_ptr[f + 1]
            front[fronts.places[e0:e1]] = system.data[fronts.entries[e0:e1]]
            front = front.reshape((n, n + 1), order="F")
            front[:p, n] = rhs[a:b]
            every[f] = np.linalg.solve(front[:p, :p], front[:p, p:])
        expected = np.empty(rhs.size)
        for f in reversed(range(n_fronts)):
            rows = fronts.rows[fronts.row_ptr[f]:fronts.row_ptr[f + 1]]
            x_f = every[f]
            expected[fronts.first[f]:fronts.end[f]] = x_f[:, -1] - x_f[:, :-1] @ expected[rows]
        assert np.abs(x - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_singular_front_takes_superlu(self, every_fold_multifrontal):
        # the first pivot row of the first front keeps its entries in that
        # front's other rows alone: the pivot block is singular, the system
        # is not
        system, rhs, fronts = system_and_fronts(MULTIFRONTAL_CASES["atom_r1.2"]())
        system = system.copy()
        column = np.repeat(np.arange(system.shape[0]), np.diff(system.indptr))
        pivot, other = (column < fronts.end[0]), np.isin(column, fronts.rows[:fronts.row_ptr[1]])
        row = np.intersect1d(system.indices[pivot], system.indices[other])
        row = row[row < fronts.end[0]][0]
        system.data[(system.indices == row) & pivot] = 0.0
        solve = solvers.spsolve(system, rhs, fronts, 2)
        assert solve.path == "SuperLU after a singular pivot block in front 0"
        assert solve.threads == 1
        assert solve.x.tobytes() == solvers.spsolve(system, rhs).x.tobytes()

    def test_steady_state_records_the_fallback(self, every_fold_multifrontal, monkeypatch):
        L = MULTIFRONTAL_CASES["atom_r1.2"]()
        solvers._fronts.cache_clear()
        multifrontal = steady_state(L, epsilon=math.inf)
        assert multifrontal.diagnostics.lu_path == "multifrontal"
        monkeypatch.setattr(solvers, "_BACKWARD_ERROR", 0.0)
        fallback = steady_state(L, epsilon=math.inf)
        assert fallback.diagnostics.lu_path.startswith(
            "SuperLU after a multifrontal backward error of ")
        assert fallback.diagnostics.lu_threads == 1
        assert np.abs(fallback.matrix - multifrontal.matrix).max() <= 1e-13
        solvers._fronts.cache_clear()

    def test_lu_memory_stays_within_its_factors_and_one_front(self):
        # one thread at cutoff 100 (10 100 unknowns): beside the X of the
        # fronts with children the LU holds the largest front's workspace
        # and a few of the largest updates, no X of a leaf, no copy of the
        # system's values and no second temporary per update
        L = build_liouvillian(ATOM, SqueezedBath(1.2), SpaceDims(100))
        system, rhs, fronts = system_and_fronts(L)
        p, q = fronts.end - fronts.first, np.diff(fronts.row_ptr)
        kept = np.diff(fronts.child_ptr) > 0
        bound = 8 * (np.sum((p * (q + 1))[kept]) + np.max((p + q) * (p + q + 1))
                     + 3 * np.max(q * (q + 1)))
        tracemalloc.start()
        try:
            solve = solvers.spsolve(system, rhs, fronts, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solve.path == "multifrontal"
        assert peak < bound

    def test_small_folds_take_superlu(self):
        # below _MULTIFRONTAL_MIN unknowns, and the empty cavity's fold at
        # phi = 0, whose fronts average too few flops
        solvers._fronts.cache_clear()
        for L in (build_liouvillian(ATOM, SqueezedBath(0.6), SpaceDims(60)),
                  empty_cavity_liouvillian(0.8, 160)):
            rho = steady_state(L, epsilon=math.inf)
            assert (rho.diagnostics.lu_path, rho.diagnostics.lu_threads) == ("SuperLU", 1)
        L = build_liouvillian(ATOM, SqueezedBath(0.6), SpaceDims(80))
        assert steady_state(L, epsilon=math.inf).diagnostics.lu_path == "multifrontal"
        solvers._fronts.cache_clear()


# the folds SuperLU factorizes first: below _MULTIFRONTAL_MIN unknowns,
# or, for the empty cavity at phi = 0, with fronts too light
SUPERLU_FIRST_CASES = {
    "atom_c30": lambda: build_liouvillian(ATOM, SqueezedBath(0.5), SpaceDims(30)),
    "atom_c60": lambda: build_liouvillian(ATOM, SqueezedBath(0.6), SpaceDims(60)),
    "empty_c90": lambda: empty_cavity_liouvillian(0.5, 90),
    "empty_c150": lambda: empty_cavity_liouvillian(1.0, 150),
    "detuned_c40": lambda: build_liouvillian(SystemParams(delta_A=0.5, g0=15.0, gamma=1.0),
                                             SqueezedBath(0.4), SpaceDims(40)),
    "empty_c90_phi": lambda: build_liouvillian(SystemParams(), SqueezedBath(0.5, phi=0.7),
                                               FieldSpace(90)),
}


class TestSuperLUSettings:
    """SuperLU runs with one constant supernode relaxation and panel size,
    sized to the dissection order, and solves as it does at scipy's
    defaults. No pair with relax > panel_size is ever run: SuperLU has
    corrupted its heap on such pairs."""

    def test_relax_is_at_most_the_panel_size(self):
        assert 1 <= solvers._SUPERLU_RELAX <= solvers._SUPERLU_PANEL

    @pytest.mark.parametrize("case", sorted(SUPERLU_FIRST_CASES))
    def test_agrees_with_superlu_at_scipys_defaults(self, case):
        system, rhs, fronts = system_and_fronts(SUPERLU_FIRST_CASES[case]())
        assert fronts is None
        solve = solvers.spsolve(system, rhs)
        default = splu(system, permc_spec="NATURAL", diag_pivot_thresh=0.1,
                       options=dict(SymmetricMode=True))
        reference = default.solve(rhs)
        assert (solve.path, solve.threads) == ("SuperLU", 1)
        assert np.abs(solve.x - reference).max() <= 1e-13 * np.abs(reference).max()
        assert solve.fill <= default.nnz


def out_of_memory(*args, **kwargs):
    """A stand-in for a stage that runs out of memory; nothing is allocated."""
    raise MemoryError("Unable to allocate 1.00 TiB for an array with shape (137438953472,)")


class TestOutOfMemory:
    """A MemoryError while a point is solved, in forming the fold and its
    fronts or in the LU, is a SolverError that names the stage and the
    fold's unknowns and says what to change; the stages raise it by
    monkeypatching alone."""

    @pytest.mark.parametrize("phi", [0.0, 0.7])
    @pytest.mark.parametrize("target, stage", [("_block", "block"), ("spsolve", "LU")])
    def test_names_the_stage_and_the_unknowns(self, target, stage, phi, monkeypatch):
        L = build_liouvillian(ATOM, SqueezedBath(0.5, phi), SpaceDims(12))
        unknowns = solvers._block(L)[1].shape[0]
        assert unknowns == (156 if phi == 0 else 288)
        monkeypatch.setattr(solvers, target, out_of_memory)
        with pytest.raises(SolverError) as info:
            steady_state(L)
        assert not isinstance(info.value, NonUniqueSteadyStateError)
        assert str(info.value) == (
            f"out of memory in stage {stage!r} of a fold of {unknowns} unknowns; lower the "
            "cutoff, or set SIM_THREADS=1 to solve one point at a time")
        assert isinstance(info.value.__context__, MemoryError)

    def test_fronts_running_out_of_memory_name_the_block(self, monkeypatch):
        monkeypatch.setattr(solvers, "_fronts", out_of_memory)
        with pytest.raises(SolverError, match="^out of memory in stage 'block' of a fold of 2070 "):
            steady_state(empty_cavity_liouvillian(0.5, 90))


class TestTruncationCheck:
    def test_vacuum_tail_is_zero(self):
        rho = fock_state(FieldSpace(12), 0)
        assert check_truncation(rho, guard=4) == 0.0

    def test_leaky_cutoff_flagged(self):
        # cutoff 40 at r=1 leaks ~3e-5 into the top 8 levels
        rho = steady_state(empty_cavity_liouvillian(1.0, 40), epsilon=math.inf)
        expected_tail = squeezed_photon_numbers(1.0, 60)[32:40].sum()
        with pytest.raises(CutoffTooSmallError) as info:
            check_truncation(rho, guard=8)
        assert info.value.tail_mass == pytest.approx(expected_tail, rel=0.1)
        assert info.value.suggested_cutoff == 60
        assert check_truncation(rho, guard=8, epsilon=math.inf) == info.value.tail_mass

    def test_generous_cutoff_adequate(self):
        rho = steady_state(empty_cavity_liouvillian(1.0, 90), epsilon=math.inf)
        assert check_truncation(rho, guard=10) < 1e-8

    @pytest.mark.parametrize("guard", [6, 0, -1])
    def test_guard_must_be_smaller_than_cutoff(self, guard):
        rho = fock_state(FieldSpace(6), 0)
        with pytest.raises(ValueError, match="0 < guard < fock_cutoff"):
            check_truncation(rho, guard=guard)


class TestSuggestedCutoff:
    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 1.5])
    def test_suggestion_is_adequate_by_oracle(self, r):
        n = suggest_fock_cutoff(r)
        pn = squeezed_photon_numbers(r, 4 * n)
        guard = max(4, n // 5)
        assert pn[n - guard:].sum() < 1e-8

    def test_monotone_in_r(self):
        # on to r = 30, past r ~ 19.1, where tanh²r rounds to 1.0
        cuts = [suggest_fock_cutoff(r) for r in (0.1, 0.5, 0.9, 1.3, *np.linspace(1.5, 30, 571))]
        assert cuts == sorted(cuts)
        assert suggest_fock_cutoff(20.0) == 400

    @pytest.mark.parametrize("r, epsilon", [(math.nan, 1e-8), (-1.0, 1e-8), (math.inf, 1e-8),
                                            (0.5, 0.0), (0.5, -1.0), (0.5, math.nan)])
    def test_invalid_r_or_epsilon_refused(self, r, epsilon):
        with pytest.raises(ValueError, match=re.escape(f"got r = {r}, epsilon = {epsilon}")):
            suggest_fock_cutoff(r, epsilon)


def never_integrated(L):
    """L with a matrix that fails the test when it is applied to a state."""

    class Unused(type(L.matrix)):
        def __matmul__(self, other):
            pytest.fail("integrated")

    unused = Superoperator(L.plan, L.k, L.weights)
    object.__setattr__(unused, "matrix", Unused(L.matrix))
    return unused


class TestEvolve:
    def test_frozen_dynamics(self):
        space = FieldSpace(4)
        zero = zero_generator(space)
        rho0 = fock_state(space, 2)
        traj = evolve(zero, rho0, 1.0, 0.05)
        for _, rho in traj:
            assert np.abs(rho.matrix - rho0.matrix).max() < 1e-14

    def test_analytic_single_mode_decay(self):
        L = empty_cavity_liouvillian(0.0, 6)
        rho0 = fock_state(FieldSpace(6), 1)
        traj = evolve(L, rho0, 2.0, 1e-3, sample_times=[0.5, 1.0, 2.0])
        for t, rho in traj:
            assert abs(mean_photon_number(rho) - np.exp(-2 * t)) < 1e-6

    def test_fourth_order_step_convergence(self):
        L = empty_cavity_liouvillian(0.0, 6)
        rho0 = fock_state(FieldSpace(6), 1)
        errors = []
        for dt in (0.04, 0.02):
            (_, rho), = evolve(L, rho0, 2.0, dt, sample_times=[2.0])
            errors.append(abs(mean_photon_number(rho) - np.exp(-4.0)))
        ratio = errors[0] / errors[1]
        assert 14 <= ratio <= 18

    def test_step_guard(self):
        L = empty_cavity_liouvillian(0.0, 6)  # ||L||_inf = 18: the bound is 2.5 / 18 = 0.139
        rho0 = fock_state(FieldSpace(6), 1)
        with pytest.raises(StepTooLargeError):
            evolve(L, rho0, 1.0, 0.15)
        evolve(L, rho0, 1.0, 0.125)

    def test_unstable_step_refused_before_integrating(self):
        # ||L||_inf = 408, so dt ||L||_inf = 7.5: RK4 diverges at this step
        unused = never_integrated(empty_cavity_liouvillian(0.5, 40))
        with pytest.raises(StepTooLargeError, match="stability guard"):
            evolve(unused, fock_state(FieldSpace(40), 0), 1.0, 0.0184)

    @pytest.mark.parametrize("name, value, message", [
        ("t_end", -1.0, "t_end must be finite and > 0, got -1.0"),
        ("t_end", 0.0, "t_end must be finite and > 0, got 0.0"),
        ("t_end", math.nan, "t_end must be finite and > 0, got nan"),
        ("t_end", math.inf, "t_end must be finite and > 0, got inf"),
        ("dt", math.nan, "dt must be finite and > 0, got nan"),
        ("dt", math.inf, "dt must be finite and > 0, got inf"),
        ("dt", 0.0, "dt must be finite and > 0, got 0.0"),
        ("dt", -0.01, "dt must be finite and > 0, got -0.01"),
        ("sample_times", [math.nan], "sample time nan must be finite and in [0, t_end = 2.0]"),
        ("sample_times", [5.0], "sample time 5.0 must be finite and in [0, t_end = 2.0]"),
        ("sample_times", [-1.0], "sample time -1.0 must be finite and in [0, t_end = 2.0]"),
        ("sample_times", [1.0, math.inf], "sample time inf must be finite and in [0, t_end = 2.0]")])
    def test_times_refused_before_integrating(self, name, value, message):
        times = {"t_end": 2.0, "dt": 0.01, name: value}
        unused = never_integrated(empty_cavity_liouvillian(0.0, 6))
        with pytest.raises(ValueError, match=re.escape(message)):
            evolve(unused, fock_state(FieldSpace(6), 1), **times)

    def test_relaxes_to_steady_state(self):
        params = SystemParams(g0=15.0, gamma=1.0)
        L = build_liouvillian(params, SqueezedBath(0.5), SpaceDims(30))
        rho_ss = steady_state(L)
        rho0 = fock_state(SpaceDims(30), 0)  # |g,0><g,0|
        # ||L||_inf = 460: any dt below 2.5 / 460 = 0.0054 is stable
        (_, rho), = evolve(L, rho0, 20.0, 1 / 300, sample_times=[20.0])
        diff = rho.matrix - rho_ss.matrix
        trace_norm = np.abs(np.linalg.eigvalsh(diff)).sum()
        assert trace_norm < 1e-6


class TestStateValidation:
    def test_negative_eigenvalue_aborts(self):
        m = np.diag([1.1, -0.1]).astype(complex)
        with pytest.raises(CorruptedStateError):
            make_density_matrix(FieldSpace(2), m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.inf)])
    def test_non_finite_entry_aborts(self, bad):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = bad
        with pytest.raises(CorruptedStateError, match="non-finite"):
            make_density_matrix(FieldSpace(2), m)

    def test_state_of_another_dimension_aborts(self):
        with pytest.raises(CorruptedStateError, match=r"shape \(3, 3\) on a space of dimension 2"):
            make_density_matrix(FieldSpace(2), np.eye(3) / 3)

    def test_non_hermitian_state_aborts(self):
        # hermitized, this would be diag(0.5, 0.5) + 0.5 sigma_x, a valid
        # state, with a Hermiticity error of 1
        with pytest.raises(CorruptedStateError, match=r"hermiticity error 1\.000e\+00"):
            make_density_matrix(FieldSpace(2), [[0.5, 1], [0, 0.5]])

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_round_off_asymmetry_passes(self, scale):
        # the bound is HERM_TOL |tr|: a state of trace 1e4 may be 1e4 times
        # as far from Hermitian, 1e-8 here, above HERM_TOL
        m = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        m[0, 1] += 1e-12
        rho = make_density_matrix(FieldSpace(2), scale * m)
        assert rho.diagnostics.hermiticity_error == pytest.approx(scale * 1e-12)
        assert np.allclose(rho.matrix, [[0.5, 0.1], [0.1, 0.5]])

    def test_small_negative_eigenvalue_recorded_not_clipped(self):
        eps = 5e-10
        m = np.diag([1.0 + eps, -eps]).astype(complex)
        rho = make_density_matrix(FieldSpace(2), m)
        assert rho.diagnostics.min_eigenvalue == pytest.approx(-eps, rel=1e-3)
        assert rho.matrix[1, 1].real == pytest.approx(-eps, rel=1e-3)

    @pytest.mark.parametrize("build", [
        lambda: build_liouvillian(ATOM, SqueezedBath(0.8), SpaceDims(60)),
        lambda: empty_cavity_liouvillian(1.0, 90)], ids=["atom_c60", "empty_c90"])
    def test_min_eigenvalue_from_the_parity_blocks(self, build, monkeypatch):
        rho = steady_state(build(), epsilon=math.inf)
        d, eigvalsh = rho.space.dim, np.linalg.eigvalsh
        full = eigvalsh(rho.matrix)[0]
        shapes = []
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: shapes.append(m.shape) or eigvalsh(m))
        checked = make_density_matrix(rho.space, rho.matrix)
        assert shapes == [(d // 2, d // 2)] * 2
        assert abs(checked.diagnostics.min_eigenvalue - full) <= 1e-14
        # one coherence between basis states 0 (even) and 1 (odd), small
        # enough to leave the state positive where state 1 is empty
        mixed = rho.matrix.copy()
        mixed[0, 1] = mixed[1, 0] = 1e-9
        shapes.clear()
        checked = make_density_matrix(rho.space, mixed)
        assert shapes == [(d, d)]
        assert abs(checked.diagnostics.min_eigenvalue - eigvalsh(mixed)[0]) <= 1e-14
