import math
from functools import cache

import numpy as np
import pytest
from scipy.special import eval_laguerre

from sqcavity import observables
from sqcavity import (
    CorruptedStateError,
    CutoffTooSmallError,
    DensityMatrix,
    FieldSpace,
    InvalidDimensionError,
    Operator,
    SpaceDims,
    SqueezedBath,
    SystemParams,
    WignerGrid,
    annihilation,
    atom_excited_population,
    atom_sigma,
    build_liouvillian,
    expectation,
    lift,
    make_density_matrix,
    mean_photon_number,
    number_operator,
    pair_amplitude,
    partial_trace_atom,
    photon_distribution,
    purity,
    quadrature_moments,
    steady_state,
    wigner,
    wigner_integral,
)
from sqcavity.operators import embed_field
from conftest import squeezed_photon_numbers


def empty_steady(r, cutoff, guard=None):
    params = SystemParams()
    L = build_liouvillian(params, SqueezedBath(r=r), FieldSpace(cutoff))
    return steady_state(L, guard=guard)


def fock_state(space, n):
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[n, n] = 1.0
    return make_density_matrix(space, m)


def coherent_state(beta, cutoff):
    n = np.arange(cutoff)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    amps = np.exp(-abs(beta) ** 2 / 2 - log_fact / 2) * beta ** n
    return make_density_matrix(FieldSpace(cutoff), np.outer(amps, amps.conj()))


class TestExpectation:
    def test_identity_gives_trace(self):
        rho = empty_steady(0.4, 30)
        identity = Operator(FieldSpace(30), np.eye(30))
        assert expectation(rho, identity) == pytest.approx(1.0, abs=1e-12)

    def test_excited_projector(self):
        dims = SpaceDims(3)
        rho = fock_state(dims, 3)  # |e,0>
        assert expectation(rho, lift(atom_sigma("e", "e"), "atom", dims)) == pytest.approx(1.0)

    def test_vacuum_photon_number(self):
        rho = fock_state(FieldSpace(5), 0)
        assert expectation(rho, number_operator(5)) == 0

    def test_space_mismatch_rejected(self):
        rho = fock_state(FieldSpace(5), 0)
        with pytest.raises(InvalidDimensionError):
            expectation(rho, number_operator(6))


class TestMoments:
    def test_vacuum_mean(self):
        assert mean_photon_number(fock_state(FieldSpace(8), 0)) == 0

    def test_empty_cavity_mean(self):
        rho = empty_steady(0.5, 40)
        assert abs(mean_photon_number(rho) - np.sinh(0.5) ** 2) < 1e-6

    def test_vacuum_pair_amplitude(self):
        assert pair_amplitude(fock_state(FieldSpace(8), 0)) == 0

    def test_empty_cavity_pair_amplitude(self):
        rho = empty_steady(0.5, 40)
        aa = pair_amplitude(rho)
        assert abs(abs(aa) - np.cosh(0.5) * np.sinh(0.5)) < 1e-6
        assert abs(np.angle(aa)) < 1e-8  # phase 0 bath

    @pytest.mark.parametrize("build", [
        lambda: build_liouvillian(SystemParams(g0=15.0, gamma=1.0), SqueezedBath(0.8),
                                  SpaceDims(60)),
        lambda: build_liouvillian(SystemParams(), SqueezedBath(0.8), FieldSpace(90)),
        lambda: build_liouvillian(SystemParams(g0=15.0, gamma=1.0),
                                  SqueezedBath(0.5, phi=0.7), SpaceDims(30)),
    ], ids=["atom_c60", "empty_c90", "phase"])
    def test_moments_read_from_the_entries_match_the_operators(self, build):
        rho = steady_state(build())
        n_op = embed_field(rho.space, number_operator)
        aa = embed_field(rho.space, lambda n: annihilation(n) @ annihilation(n))
        expected_n, expected_aa = expectation(rho, n_op), expectation(rho, aa)
        assert abs(mean_photon_number(rho) - expected_n.real) <= 1e-14 * abs(expected_n)
        assert abs(pair_amplitude(rho) - expected_aa) <= 1e-14 * abs(expected_aa)
        if isinstance(rho.space, SpaceDims):
            expected_ee = expectation(rho, lift(atom_sigma("e", "e"), "atom", rho.space))
            assert abs(atom_excited_population(rho) - expected_ee.real) <= 1e-14 * abs(expected_ee)

    def test_corrupted_state_detected(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        rho = make_density_matrix(FieldSpace(4), m)
        # bypass validation to inject a non-hermitian perturbation
        rho.matrix[0, 1] += 1e-5j
        rho.matrix[1, 1] += 1e-5j
        with pytest.raises(CorruptedStateError):
            mean_photon_number(rho)


class TestPhotonDistribution:
    def test_matches_closed_form(self):
        rho = empty_steady(1.0, 90, guard=10)
        dist = photon_distribution(rho, guard=10)
        expected = squeezed_photon_numbers(1.0, 90)
        assert np.abs(dist.probabilities[:80] - expected[:80]).max() < 1e-6
        assert dist.probabilities[1::2].max() < 1e-10
        assert abs(dist.probabilities[0] - 1 / np.cosh(1.0)) < 1e-6

    def test_atom_populates_single_photon(self):
        L = build_liouvillian(
            SystemParams(g0=15.0, gamma=1.0), SqueezedBath(0.5), SpaceDims(50)
        )
        dist = photon_distribution(steady_state(L))
        assert dist.probabilities[1] > 1e-3

    def test_normalization_with_tail(self):
        rho = empty_steady(0.8, 60)
        dist = photon_distribution(rho, guard=10)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-8)
        assert dist.probabilities[:50].sum() + dist.tail_mass == pytest.approx(1.0, abs=1e-8)


class TestAtomPopulation:
    def test_excited_state(self):
        assert atom_excited_population(fock_state(SpaceDims(4), 4)) == pytest.approx(1.0)

    def test_no_drive_no_excitation(self):
        L = build_liouvillian(SystemParams(g0=15.0, gamma=1.0), SqueezedBath(0.0), SpaceDims(10))
        assert atom_excited_population(steady_state(L)) < 1e-10

    def test_field_state_rejected(self):
        with pytest.raises(InvalidDimensionError):
            atom_excited_population(fock_state(FieldSpace(4), 0))


class TestPartialTrace:
    def test_product_state(self, rng):
        n = 6
        atom = np.array([[0.3, 0.1j], [-0.1j, 0.7]], dtype=complex)
        field_raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        field = field_raw @ field_raw.conj().T
        field /= field.trace()
        dims = SpaceDims(n)
        rho = make_density_matrix(dims, np.kron(atom, field))
        reduced = partial_trace_atom(rho)
        assert np.abs(reduced.matrix - field).max() < 1e-12
        assert abs(reduced.matrix.trace() - 1.0) < 1e-12

    def test_mean_photon_number_consistent(self):
        L = build_liouvillian(SystemParams(g0=5.0, gamma=1.0), SqueezedBath(0.4), SpaceDims(40))
        rho = steady_state(L)
        assert mean_photon_number(partial_trace_atom(rho)) == pytest.approx(
            mean_photon_number(rho), abs=1e-12
        )


class TestPurity:
    def test_pure_state(self):
        assert purity(fock_state(FieldSpace(7), 3)) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        d = 5
        rho = make_density_matrix(FieldSpace(d), np.eye(d, dtype=complex) / d)
        assert purity(rho) == pytest.approx(1 / d)

    def test_empty_cavity_steady_state_is_pure(self):
        # pure squeezing saturates |M|^2 = N(N+1), so the bath has a pure fixed point
        assert purity(empty_steady(0.5, 40)) == pytest.approx(1.0, abs=1e-6)


class TestWigner:
    def test_vacuum_gaussian(self):
        rho = fock_state(FieldSpace(10), 0)
        axis = np.linspace(-3.0, 3.0, 41)
        grid = wigner(rho, axis, axis)
        expected = np.exp(-(axis[:, None] ** 2 + axis[None, :] ** 2)) / np.pi
        assert np.abs(grid.values - expected).max() < 1e-6
        assert grid.values[20, 20] == pytest.approx(1 / np.pi, abs=1e-8)

    def test_single_photon_negativity(self):
        rho = fock_state(FieldSpace(10), 1)
        grid = wigner(rho, [0.0], [0.0])
        assert grid.values[0, 0] == pytest.approx(-1 / np.pi, abs=1e-8)

    def test_squeezed_variances(self):
        r = 0.5
        rho = empty_steady(r, 40)
        axis = np.linspace(-5.0, 5.0, 81)
        grid = wigner(rho, axis, axis)
        assert wigner_integral(grid) == pytest.approx(1.0, abs=1e-3)
        _, _, var_q, var_p = quadrature_moments(grid)
        assert var_q == pytest.approx(np.exp(2 * r) / 2, abs=1e-3)
        assert var_p == pytest.approx(np.exp(-2 * r) / 2, abs=1e-3)

    @pytest.mark.parametrize("q_axis, p_axis", [([0.0], [0.0]), ([0.0], [-1.0, 0.0, 1.0]),
                                                ([-1.0, 1.0], [2.0])])
    def test_moments_of_a_grid_without_area_rejected(self, q_axis, p_axis):
        grid = wigner(fock_state(FieldSpace(10), 0), q_axis, p_axis)
        shape = f"{len(q_axis)} x {len(p_axis)}"
        with pytest.raises(ValueError, match=f"the {shape} Wigner grid integrates to 0.0, "):
            quadrature_moments(grid)

    def test_moments_of_a_grid_with_infinite_integral_rejected(self):
        grid = wigner(fock_state(FieldSpace(10), 0), [0.0, 1.0], [0.0, 1.0])
        grid = WignerGrid(grid.q_axis, grid.p_axis, np.full((2, 2), np.inf))
        with pytest.raises(ValueError, match="integrates to inf"):
            quadrature_moments(grid)

    def test_descending_axes_give_the_same_moments(self):
        rho = empty_steady(0.5, 40)
        axis = np.linspace(-5.0, 5.0, 81)
        ascending = wigner(rho, axis, axis)
        for q_axis, p_axis, sign in ((axis[::-1], axis, -1), (axis, axis[::-1], -1),
                                     (axis[::-1], axis[::-1], 1)):
            grid = wigner(rho, q_axis, p_axis)
            # each descending axis flips the integral's sign
            assert wigner_integral(grid) == pytest.approx(sign * wigner_integral(ascending),
                                                          rel=1e-12)
            np.testing.assert_allclose(quadrature_moments(grid), quadrature_moments(ascending),
                                       rtol=1e-10, atol=1e-12)

    def test_second_moments_recover_mean_photon_number(self):
        rho = empty_steady(0.4, 40)
        axis = np.linspace(-5.0, 5.0, 81)
        _, _, var_q, var_p = quadrature_moments(wigner(rho, axis, axis))
        assert (var_q + var_p - 1) / 2 == pytest.approx(mean_photon_number(rho), abs=1e-3)

    @pytest.mark.parametrize("n", [10, 40])
    def test_fock_state_closed_form(self, n):
        axis = np.linspace(-5.0, 5.0, 41)
        grid = wigner(fock_state(FieldSpace(60), n), axis, axis)
        rr = axis[:, None] ** 2 + axis[None, :] ** 2  # 2|alpha|^2
        expected = (-1) ** n * np.exp(-rr) * eval_laguerre(n, 2 * rr) / np.pi
        assert np.abs(grid.values - expected).max() < 1e-10

    def test_coherent_state_closed_form(self):
        # a complex amplitude pins the conjugation and the (q, p) orientation
        beta = 1.2 + 0.7j
        rho = coherent_state(beta, 60)
        q = np.linspace(-5.0, 5.0, 41)
        p = np.linspace(-5.0, 5.0, 37)
        grid = wigner(rho, q, p)
        q0, p0 = np.sqrt(2) * beta.real, np.sqrt(2) * beta.imag
        expected = np.exp(-((q[:, None] - q0) ** 2 + (p[None, :] - p0) ** 2)) / np.pi
        assert np.abs(grid.values - expected).max() < 1e-10

    def test_non_hermitian_state_rejected(self):
        m = np.zeros((10, 10), dtype=complex)
        m[0, 0] = m[1, 1] = 0.5
        m[0, 1] = 0.1j  # with rho_10 = 0
        with pytest.raises(CorruptedStateError):
            wigner(DensityMatrix(FieldSpace(10), m), [0.0, 0.5], [0.0, 0.5])

    def test_leaky_state_rejected(self):
        rho = steady_state(
            build_liouvillian(SystemParams(), SqueezedBath(1.0), FieldSpace(20)),
            epsilon=math.inf,
        )
        with pytest.raises(CutoffTooSmallError) as info:
            wigner(rho, [0.0], [0.0])
        assert str(info.value).endswith("retry with cutoff >= 30")

    def test_composite_state_rejected(self):
        with pytest.raises(InvalidDimensionError):
            wigner(fock_state(SpaceDims(4), 0), [0.0], [0.0])

    @pytest.mark.parametrize("q_axis, p_axis", [
        ([[0.0, 1.0]], [0.0]),
        ([0.0], np.zeros((2, 2))),
        (0.5, [0.0]),
    ])
    def test_axis_not_one_dimensional_rejected(self, q_axis, p_axis):
        bad = "q_axis" if np.ndim(q_axis) != 1 else "p_axis"
        with pytest.raises(ValueError, match=f"^{bad} must be one-dimensional"):
            wigner(fock_state(FieldSpace(10), 0), q_axis, p_axis)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_axis_not_finite_rejected(self, bad):
        rho = fock_state(FieldSpace(10), 0)
        with pytest.raises(ValueError, match=f"^q_axis must be finite, got {bad}$"):
            wigner(rho, [0.0, bad], [0.0])
        with pytest.raises(ValueError, match=f"^p_axis must be finite, got {bad}$"):
            wigner(rho, [0.0], [bad, 1.0])


def complex_laguerre_series(coeffs, k, x):
    """sum_m coeffs[m] l_m^(k)(x) for complex coeffs by Clenshaw's
    recurrence in complex arithmetic, dividing by s_m: the plain kernel
    whose real and imaginary parts the library's real sums must give bit
    for bit."""
    b1 = b2 = 0.0
    s_next = 1.0
    for m in range(coeffs.size - 1, -1, -1):
        s = np.sqrt((m + 1.0) * (m + k + 1.0))
        b1, b2 = coeffs[m] + (x - (2 * m + 1 + k)) * (b1 / s) - (s / s_next) * b2, b1
        s_next = s
    return b1


def reference_wigner(rho_field, q_axis, p_axis):
    """The plain full-grid sum in complex arithmetic: every diagonal's
    Laguerre series is summed over every grid point, zero diagonals
    included."""
    rho = rho_field.matrix
    q_axis = np.asarray(q_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    two_alpha = np.sqrt(2.0) * (q_axis[:, None] + 1j * p_axis[None, :])
    x = np.abs(two_alpha) ** 2
    series = np.zeros_like(two_alpha)
    for k in range(rho_field.fock_cutoff - 1, -1, -1):
        diagonal = np.diagonal(rho, k) * (2.0 if k else 1.0)
        series = (series * (two_alpha / np.sqrt(k + 1.0))
                  + complex_laguerre_series(diagonal, k, x))
    return np.exp(-x / 2) * series.real / np.pi


def imaginary_state(cutoff):
    """sqrt(p) (1 + i e B) sqrt(p) for populations p and a real
    antisymmetric B with |e B| < 1: a state whose every diagonal but the
    main one is purely imaginary."""
    p = np.exp(-np.arange(cutoff) / 1.5)
    p /= p.sum()
    b = np.sign(np.subtract.outer(np.arange(cutoff), np.arange(cutoff)))
    h = np.sqrt(p)
    return make_density_matrix(FieldSpace(cutoff), np.diag(p) + 1j * (
        0.9 * np.outer(h, h) * b / np.linalg.norm(b, 2)))


@cache
def wigner_state(name):
    if name == "coherent":  # every diagonal nonzero
        return coherent_state(1.2 + 0.7j, 60)
    if name == "coherent_imaginary":  # real even diagonals, imaginary odd ones
        return coherent_state(0.9j, 40)
    if name == "fock40":
        return fock_state(FieldSpace(60), 40)
    if name == "empty":
        return empty_steady(0.7, 90)
    if name == "imaginary":
        return imaginary_state(40)
    phi = 0.7 if name == "atom_phase" else 0.0
    L = build_liouvillian(SystemParams(g0=15.0, gamma=1.0), SqueezedBath(0.8, phi=phi),
                          SpaceDims(60))
    return partial_trace_atom(steady_state(L))


GRID = np.linspace(-5.0, 5.0, 101)
AXES = {
    "default": (GRID, GRID),
    "asymmetric": (np.linspace(-4.0, 3.0, 23), np.linspace(-2.5, 5.0, 17)),
    "one_point": ([0.7], [-1.3]),
    "repeated": ([0.0, 1.0, 1.0, -1.0, 0.5, 0.5, 0.0], [0.5, -0.5, 0.5, 0.0]),
}


class TestWignerDistinctRadii:
    """The grid from distinct radii, each diagonal's real and imaginary
    parts summed apart in real arithmetic and zero parts skipped, against
    the plain full-grid sum in complex arithmetic it replaces: equal bits,
    signs of zeros included."""

    @pytest.mark.parametrize("axes", AXES)
    @pytest.mark.parametrize("state", ["coherent", "coherent_imaginary", "fock40", "empty",
                                       "atom", "atom_phase", "imaginary"])
    def test_matches_full_grid_sum(self, state, axes):
        rho = wigner_state(state)
        q_axis, p_axis = AXES[axes]
        values = wigner(rho, q_axis, p_axis).values
        expected = reference_wigner(rho, q_axis, p_axis)
        assert np.array_equal(values, expected)
        assert np.array_equal(np.signbit(values), np.signbit(expected))

    def spy(self, monkeypatch):
        calls = []
        laguerre_series = observables._laguerre_series

        def recorded(coeffs, k, x):
            calls.append((k, x.size, coeffs.copy()))
            return laguerre_series(coeffs, k, x)

        monkeypatch.setattr(observables, "_laguerre_series", recorded)
        return calls

    @staticmethod
    def distinct_radii(q_axis, p_axis):
        two_alpha = np.sqrt(2.0) * (np.asarray(q_axis)[:, None] + 1j * np.asarray(p_axis)[None, :])
        return np.unique(np.abs(two_alpha) ** 2).size

    @staticmethod
    def parts(rho, k):
        """The real and imaginary parts of diagonal k as the sum takes them."""
        diagonal = np.diagonal(rho.matrix, k) * (2.0 if k else 1.0)
        return diagonal.real, diagonal.imag

    @pytest.mark.parametrize("axes", AXES)
    def test_sums_once_per_distinct_radius(self, monkeypatch, axes):
        # the coherent state's main diagonal is real, every other one has
        # two nonzero parts: one sum per part, the real one first
        rho = wigner_state("coherent")
        q_axis, p_axis = AXES[axes]
        calls = self.spy(monkeypatch)
        wigner(rho, q_axis, p_axis)
        assert [k for k, _, _ in calls] == [*np.repeat(range(59, 0, -1), 2), 0]
        expected = [part for k in range(59, 0, -1) for part in self.parts(rho, k)]
        for (_, _, coeffs), part in zip(calls, [*expected, self.parts(rho, 0)[0]]):
            assert np.array_equal(coeffs, part)
        assert {size for _, size, _ in calls} == {self.distinct_radii(q_axis, p_axis)}

    @pytest.mark.parametrize("state", ["empty", "atom"])
    def test_steady_state_sums_only_even_diagonals(self, monkeypatch, state):
        # at phi = 0 the steady state is real: one sum per even diagonal
        rho = wigner_state(state)
        calls = self.spy(monkeypatch)
        wigner(rho, GRID, GRID)
        assert [k for k, _, _ in calls] == list(range(rho.fock_cutoff - 2, -1, -2))
        for k, _, coeffs in calls:
            assert np.array_equal(coeffs, self.parts(rho, k)[0])
        assert {size for _, size, _ in calls} == {self.distinct_radii(GRID, GRID)}
        assert self.distinct_radii(GRID, GRID) < GRID.size ** 2

    def test_imaginary_diagonals_sum_their_imaginary_parts_alone(self, monkeypatch):
        rho = wigner_state("imaginary")
        calls = self.spy(monkeypatch)
        wigner(rho, GRID, GRID)
        assert [k for k, _, _ in calls] == list(range(39, -1, -1))
        for k, _, coeffs in calls:
            real, imaginary = self.parts(rho, k)
            assert not (imaginary if k == 0 else real).any()
            assert np.array_equal(coeffs, real if k == 0 else imaginary)
