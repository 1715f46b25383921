import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

from sqcavity import (
    AtomSpace,
    CorruptedStateError,
    CutoffTooSmallError,
    FieldSpace,
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
    unvec,
    vec,
)
from sqcavity.liouvillian import _lindblad
from sqcavity.operators import embed_field
from sqcavity.solvers import RESIDUAL_TOL
from conftest import excitation_numbers, parity_mismatch, squeezed_photon_numbers


def empty_cavity_liouvillian(r, cutoff, kappa=1.0):
    params = SystemParams(kappa=kappa)
    return build_liouvillian(params, SqueezedBath(r=r), FieldSpace(cutoff))


def fock_state(space, n):
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[n, n] = 1.0
    return make_density_matrix(space, m)


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

    def test_residual_invariant(self):
        L = build_liouvillian(
            SystemParams(g0=15.0, gamma=1.0), SqueezedBath(0.5), SpaceDims(40)
        )
        rho = steady_state(L)
        assert np.abs(L.matrix @ vec(rho.matrix)).max() < 1e-8

    def test_rejects_non_trace_preserving_generator(self):
        bad = Superoperator(FieldSpace(3), sp.identity(9, format="csr") * 1.0)
        with pytest.raises(SolverError):
            steady_state(bad)

    def test_trace_check_scales_with_the_generator(self, monkeypatch):
        # at r = 6 the entries reach 4.6e6 and the trace row's round-off,
        # 4.7e-10, exceeds TRACE_TOL: the generator is still accepted
        L = empty_cavity_liouvillian(6.0, 30)
        assert L.trace_residual() > solvers.TRACE_TOL
        with pytest.raises(CutoffTooSmallError):
            steady_state(L)
        # a trace defect of 1e-12 of the largest entry is refused
        matrix = L.matrix.copy()
        matrix[0, 0] += 1e-12 * np.abs(matrix.data).max()
        monkeypatch.setattr(solvers, "spsolve", lambda *args: pytest.fail("factorized"))
        with pytest.raises(SolverError, match="not trace-preserving"):
            steady_state(Superoperator(L.space, matrix))

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

    def test_truncation_checked_before_positivity(self):
        # at r = 20 the cutoff-30 solution has a minimum eigenvalue of about
        # -1, but its top 6 levels hold most of the population
        with pytest.raises(CutoffTooSmallError) as info:
            steady_state(empty_cavity_liouvillian(20.0, 30))
        assert info.value.tail_mass > 0.5

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


class TestSectorSolve:
    """steady_state factorizes only the equal-parity block of L; each case
    is checked against the plain solve of the whole system."""

    @pytest.mark.parametrize("case", sorted(SECTOR_CASES))
    def test_matches_full_system_solve(self, case):
        L = SECTOR_CASES[case]()
        rho = steady_state(L, epsilon=math.inf)
        assert np.abs(rho.matrix - full_system_state(L)).max() <= 1e-12

    @pytest.mark.parametrize("case", sorted(SECTOR_CASES))
    def test_cross_sector_entries_are_exactly_zero(self, case):
        L = SECTOR_CASES[case]()
        rho = steady_state(L, epsilon=math.inf)
        assert np.all(rho.matrix[parity_mismatch(L.space)] == 0)

    @pytest.mark.parametrize("case", ["atom", "empty"])
    def test_lu_receives_half_the_unknowns(self, case, monkeypatch):
        L = SECTOR_CASES[case]()
        shapes, fills = [], []
        real = solvers.spsolve

        def recording_spsolve(system, rhs):
            shapes.append(system.shape)
            sol, fill = real(system, rhs)
            fills.append(fill)
            return sol, fill

        monkeypatch.setattr(solvers, "spsolve", recording_spsolve)
        rho = steady_state(L, epsilon=math.inf)
        assert shapes == [(L.dim**2 // 2, L.dim**2 // 2)]
        assert fills == [rho.diagnostics.lu_fill]
        assert rho.diagnostics.lu_fill > L.dim**2 // 2

    @pytest.mark.parametrize("space", [SpaceDims(6), FieldSpace(8)])
    def test_coherent_drive_refused_before_factorizing(self, space, monkeypatch):
        # -i[eps (a + a†), .] mixes the parity sectors
        params = SystemParams(g0=2.0, gamma=1.0)
        L = build_liouvillian(params, SqueezedBath(0.3), space)
        a = embed_field(space, annihilation)
        driven = Superoperator(space, L.matrix + _lindblad(space, -0.5j * (a + a.dag()).matrix))
        monkeypatch.setattr(solvers, "spsolve", lambda *args: pytest.fail("factorized"))
        with pytest.raises(SolverError, match="parity"):
            steady_state(driven)

    def test_nan_generator_refused_before_factorizing(self, monkeypatch):
        L = SECTOR_CASES["atom"]()
        matrix = L.matrix.copy()
        matrix.data[matrix.nnz // 2] = np.nan
        monkeypatch.setattr(solvers, "spsolve", lambda *args: pytest.fail("factorized"))
        with pytest.raises(SolverError, match="not finite"):
            steady_state(Superoperator(L.space, matrix))

    def test_generator_without_field_space_refused(self):
        with pytest.raises(SolverError, match="field or composite space"):
            steady_state(Superoperator(AtomSpace(), sp.csr_matrix((4, 4))))

    def test_residual_recorded(self):
        L = SECTOR_CASES["atom"]()
        rho = steady_state(L)
        residual = np.abs(L.matrix @ vec(rho.matrix)).max()
        assert rho.diagnostics.residual == residual
        assert residual <= RESIDUAL_TOL


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


class TestNestedDissectionOrder:
    """The even block is factorized in nested-dissection order on its
    (k, s) grid; each separator must cut every coupling between its two
    halves, or the order would not bound the fill."""

    @pytest.mark.parametrize("case", sorted(SECTOR_CASES))
    def test_order_is_a_permutation_with_rho_00_last(self, case):
        space = SECTOR_CASES[case]().space
        n, even, _, _ = grid_coordinates(space)
        order = solvers._sector_order(n, even)
        assert np.array_equal(np.sort(order), even)
        assert order[-1] == 0

    @pytest.mark.parametrize("case", sorted(SECTOR_CASES))
    def test_every_separator_separates(self, case):
        L = SECTOR_CASES[case]()
        n, even, k, s = grid_coordinates(L.space)
        block = L.matrix[even][:, even].tocoo()
        splits = []

        def dissect(idx):
            if idx.size <= solvers._ND_LEAF:
                return idx
            low, high, separator = solvers._bisect(k, s, idx)
            assert low.size and high.size and separator.size
            splits.append((low, high))
            return np.concatenate([dissect(low), dissect(high), separator])

        order = even[np.append(dissect(np.arange(1, even.size)), 0)]
        assert np.array_equal(order, solvers._sector_order(n, even))
        assert len(splits) >= 3
        for low, high in splits:
            side = np.zeros(even.size, dtype=int)
            side[low], side[high] = 1, 2
            assert not np.any(side[block.row] * side[block.col] == 2)

    @pytest.mark.parametrize("space", [FieldSpace(90), FieldSpace(240), SpaceDims(60),
                                       SpaceDims(61), SpaceDims(150), SpaceDims(240)],
                             ids=repr)
    def test_every_split_is_proper_at_the_production_leaf(self, space):
        _, even, k, s = grid_coordinates(space)

        def dissect(idx):
            if idx.size <= solvers._ND_LEAF:
                return
            low, high, separator = solvers._bisect(k, s, idx)
            assert low.size and high.size and separator.size
            dissect(low)
            dissect(high)

        dissect(np.arange(1, even.size))

    def test_cached_order_is_read_only_and_reused(self):
        space = SpaceDims(30)
        order = solvers._space_order(space)
        n, even, _, _ = grid_coordinates(space)
        assert np.array_equal(order, solvers._sector_order(n, even))
        assert solvers._space_order(SpaceDims(30)) is order
        with pytest.raises(ValueError):
            order[0] = order[1]

    def test_field_and_composite_spaces_get_their_own_orders(self):
        for space in (FieldSpace(20), SpaceDims(20), FieldSpace(20)):
            n, even, _, _ = grid_coordinates(space)
            assert np.array_equal(solvers._space_order(space), solvers._sector_order(n, even))

    def test_cold_and_warm_cache_give_identical_states(self):
        L = SECTOR_CASES["atom"]()
        solvers._space_order.cache_clear()
        cold = steady_state(L, epsilon=math.inf)
        warm = steady_state(L, epsilon=math.inf)
        assert solvers._space_order.cache_info().hits >= 1
        assert cold.matrix.tobytes() == warm.matrix.tobytes()

    def test_matches_colamd_at_cutoff_60(self):
        L = build_liouvillian(ATOM, SqueezedBath(0.8), SpaceDims(60))
        rho = steady_state(L, epsilon=math.inf)
        expected, colamd_fill = colamd_block_solve(L)
        assert np.abs(rho.matrix - expected).max() <= 1e-12
        assert rho.diagnostics.lu_fill < colamd_fill


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


class TestEvolve:
    def test_frozen_dynamics(self):
        space = FieldSpace(4)
        zero = Superoperator(space, sp.csr_matrix((16, 16)))
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
        L = empty_cavity_liouvillian(0.5, 40)

        class Unused(type(L.matrix)):
            def __matmul__(self, other):
                pytest.fail("integrated")

        unused = Superoperator(L.space, L.matrix)
        object.__setattr__(unused, "matrix", Unused(L.matrix))
        with pytest.raises(StepTooLargeError, match="stability guard"):
            evolve(unused, fock_state(FieldSpace(40), 0), 1.0, 0.0184)

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

    def test_small_negative_eigenvalue_recorded_not_clipped(self):
        eps = 5e-10
        m = np.diag([1.0 + eps, -eps]).astype(complex)
        rho = make_density_matrix(FieldSpace(2), m)
        assert rho.diagnostics.min_eigenvalue == pytest.approx(-eps, rel=1e-3)
        assert rho.matrix[1, 1].real == pytest.approx(-eps, rel=1e-3)
