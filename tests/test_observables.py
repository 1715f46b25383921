import math

import numpy as np
import pytest
from scipy.special import eval_laguerre

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
from conftest import squeezed_photon_numbers


def empty_steady(r, cutoff, guard=None):
    params = SystemParams()
    L = build_liouvillian(params, SqueezedBath(r=r), FieldSpace(cutoff))
    return steady_state(L, guard=guard)


def fock_state(space, n):
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[n, n] = 1.0
    return make_density_matrix(space, m)


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
        n = np.arange(60)
        log_fact = np.cumsum(np.log(np.maximum(n, 1)))
        amps = np.exp(-abs(beta) ** 2 / 2 - log_fact / 2) * beta ** n
        rho = make_density_matrix(FieldSpace(60), np.outer(amps, amps.conj()))
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
