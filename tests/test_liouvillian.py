import numpy as np
import pytest
import scipy.sparse as sp

from sqcavity import (
    FieldSpace,
    SpaceDims,
    SqueezedBath,
    Superoperator,
    SystemParams,
    UnsupportedFrameError,
    annihilation,
    atom_dissipator,
    atom_sigma,
    build_bogoliubov_liouvillian,
    build_hamiltonian,
    build_liouvillian,
    cavity_squeezed_dissipator,
    lift,
    steady_state,
    unvec,
    vec,
)
from sqcavity import liouvillian
from sqcavity.liouvillian import hamiltonian_superoperator, trace_row
from sqcavity.operators import embed_field
from conftest import squeezed_state_vector
from test_solvers import ATOM, SECTOR_CASES


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return m + m.conj().T


class TestSqueezedBath:
    def test_vacuum_limit(self):
        bath = SqueezedBath(r=0.0, phi=1.3)
        assert bath.n_th == 0.0
        assert bath.m_corr == 0.0

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 1.5])
    def test_minimal_uncertainty_saturation(self, r):
        bath = SqueezedBath(r=r, phi=0.7)
        n = bath.n_th
        assert abs(abs(bath.m_corr) ** 2 - n * (n + 1)) < 1e-12 * (1 + n) ** 2

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            SqueezedBath(r=-0.2)


class TestHamiltonian:
    def test_all_zero_params(self):
        h = build_hamiltonian(SystemParams(), SpaceDims(4))
        assert np.all(h.matrix == 0)

    def test_single_excitation_coupling(self):
        # resonant g0=1, N_max=2: |g,1> at index 1 couples to |e,0> at index 2
        h = build_hamiltonian(SystemParams(g0=1.0), SpaceDims(2)).matrix
        expected = np.zeros((4, 4))
        expected[2, 1] = expected[1, 2] = 1.0
        assert np.allclose(h, expected)

    def test_vacuum_rabi_splitting(self):
        g0 = 7.3
        h = build_hamiltonian(SystemParams(g0=g0), SpaceDims(2)).matrix
        block = h[1:3, 1:3]
        assert np.allclose(np.sort(np.linalg.eigvalsh(block)), [-g0, g0])

    def test_hermitian(self):
        h = build_hamiltonian(
            SystemParams(delta_A=0.4, delta_C=-1.1, g0=3.0), SpaceDims(6)
        ).matrix
        assert np.abs(h - h.conj().T).max() == 0

    def test_empty_cavity_field_only(self):
        params = SystemParams(delta_C=2.5, atom_present=False)
        h = build_hamiltonian(params, FieldSpace(4))
        assert np.allclose(h.matrix, 2.5 * np.diag([0, 1, 2, 3]))


class TestAtomDissipator:
    def test_zero_gamma(self):
        assert atom_dissipator(0.0, SpaceDims(3)).matrix.count_nonzero() == 0

    def test_population_transfer_rates(self):
        dims = SpaceDims(2)
        L = atom_dissipator(0.7, dims)
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0  # |e,0><e,0|
        drho = unvec(L.matrix @ vec(rho), 4)
        assert abs(drho[2, 2] - (-2 * 0.7)) < 1e-14
        assert abs(drho[0, 0] - (+2 * 0.7)) < 1e-14

    def test_trace_preserving(self):
        L = atom_dissipator(1.3, SpaceDims(5))
        assert L.trace_residual() < 1e-12


class TestCavityDissipator:
    def test_vacuum_bath_is_standard_decay(self, rng):
        space = FieldSpace(6)
        L = cavity_squeezed_dissipator(1.0, SqueezedBath(0.0), space)
        a = np.diag(np.sqrt(np.arange(1, 6)), k=1).astype(complex)
        rho = random_hermitian(rng, 6)
        expected = 2 * a @ rho @ a.conj().T - a.conj().T @ a @ rho - rho @ a.conj().T @ a
        assert np.abs(unvec(L.matrix @ vec(rho), 6) - expected).max() < 1e-12

    def test_energy_decay_rate_convention(self):
        # single photon decays at 2*kappa in photon number
        kappa = 1.7
        L = cavity_squeezed_dissipator(kappa, SqueezedBath(0.0), FieldSpace(4))
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        drho = unvec(L.matrix @ vec(rho), 4)
        n_op = np.diag([0.0, 1.0, 2.0, 3.0])
        assert abs(np.trace(n_op @ drho) - (-2 * kappa)) < 1e-12

    def test_squeezed_steady_moments(self):
        # empty-cavity steady state carries the bath's photon number and
        # two-photon correlation
        from sqcavity import mean_photon_number, pair_amplitude

        L = cavity_squeezed_dissipator(1.0, SqueezedBath(1.0), FieldSpace(90))
        rho = steady_state(L, guard=10, epsilon=1e-8)
        assert abs(mean_photon_number(rho) - np.sinh(1.0) ** 2) < 1e-6
        L2 = cavity_squeezed_dissipator(1.0, SqueezedBath(0.5), FieldSpace(50))
        rho2 = steady_state(L2)
        assert abs(abs(pair_amplitude(rho2)) - np.cosh(0.5) * np.sinh(0.5)) < 1e-6


def eq_rhs_oracle(h, s_ge, a, gamma, kappa, n_th, m_corr, rho):
    """Term-by-term master-equation right-hand side with plain products."""
    ad = a.conj().T
    s_eg = s_ge.conj().T
    out = -1j * (h @ rho - rho @ h)
    out += gamma * (2 * s_ge @ rho @ s_eg - s_eg @ s_ge @ rho - rho @ s_eg @ s_ge)
    out += -kappa * (1 + n_th) * (ad @ a @ rho - 2 * a @ rho @ ad + rho @ ad @ a)
    out += -kappa * n_th * (a @ ad @ rho - 2 * ad @ rho @ a + rho @ a @ ad)
    out += kappa * m_corr * (ad @ ad @ rho - 2 * ad @ rho @ ad + rho @ ad @ ad)
    out += np.conj(kappa * m_corr) * (a @ a @ rho - 2 * a @ rho @ a + rho @ a @ a)
    return out


class TestFullLiouvillian:
    def test_vacuum_kernel_without_drive(self):
        params = SystemParams(atom_present=False)
        L = build_liouvillian(params, SqueezedBath(0.0), FieldSpace(8))
        rho = steady_state(L)
        assert rho.matrix[0, 0].real > 1 - 1e-10

    def test_matches_term_by_term_oracle(self, rng):
        n = 3
        dims = SpaceDims(n)
        params = SystemParams(delta_A=0.8, delta_C=-0.3, g0=2.0, gamma=0.6)
        bath = SqueezedBath(r=0.9, phi=0.4)
        L = build_liouvillian(params, bath, dims)

        ident = np.eye(2)
        a_f = np.diag(np.sqrt(np.arange(1, n)), k=1).astype(complex)
        a = np.kron(ident, a_f)
        s_ge = np.kron(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(n))
        s_ee = np.kron(np.diag([0.0, 1.0]), np.eye(n))
        h = (
            params.delta_A * s_ee
            + params.delta_C * a.conj().T @ a
            + params.g0 * (s_ge.conj().T @ a + a.conj().T @ s_ge)
        )
        for _ in range(20):
            rho = random_hermitian(rng, 2 * n)
            lhs = unvec(L.matrix @ vec(rho), 2 * n)
            rhs = eq_rhs_oracle(h, s_ge, a, params.gamma, params.kappa,
                                bath.n_th, bath.m_corr, rho)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_trace_row_vanishes(self):
        L = build_liouvillian(
            SystemParams(g0=15.0, gamma=1.0), SqueezedBath(1.0), SpaceDims(12)
        )
        assert L.trace_residual() < 1e-12

    def test_preserves_hermiticity(self, rng):
        L = build_liouvillian(
            SystemParams(g0=4.0, gamma=0.5, delta_A=1.0), SqueezedBath(0.7, 0.2), SpaceDims(5)
        )
        for _ in range(10):
            rho = random_hermitian(rng, 10)
            out = unvec(L.matrix @ vec(rho), 10)
            assert np.abs(out - out.conj().T).max() < 1e-12

    def test_additivity_of_parts(self):
        params = SystemParams(g0=3.0, gamma=0.8, delta_A=0.5, delta_C=-0.5)
        bath = SqueezedBath(0.6, 1.1)
        dims = SpaceDims(6)
        total = build_liouvillian(params, bath, dims)
        parts = (
            hamiltonian_superoperator(build_hamiltonian(params, dims)).matrix
            + atom_dissipator(params.gamma, dims).matrix
            + cavity_squeezed_dissipator(params.kappa, bath, dims).matrix
        )
        assert (total.matrix - parts).nnz == 0

    def test_left_null_vector_is_trace(self):
        L = build_liouvillian(SystemParams(g0=2.0, gamma=0.3), SqueezedBath(0.4), SpaceDims(4))
        assert np.abs(trace_row(8) @ L.matrix).max() < 1e-12


class TestBogoliubovFrame:
    def test_r_zero_matches_lab_frame(self):
        params = SystemParams(g0=5.0, gamma=1.0)
        dims = SpaceDims(10)
        lab = build_liouvillian(params, SqueezedBath(0.0), dims)
        bog = build_bogoliubov_liouvillian(params, 0.0, dims)
        assert np.abs((lab.matrix - bog.matrix)).max() < 1e-14

    def test_detuned_frame_rejected(self):
        with pytest.raises(UnsupportedFrameError):
            build_bogoliubov_liouvillian(SystemParams(delta_A=0.1, g0=1.0), 0.5, SpaceDims(4))

    def test_decoupled_kernel_is_squeezed_frame_vacuum(self):
        r = 0.5
        params = SystemParams(atom_present=False)
        L = build_bogoliubov_liouvillian(params, r, FieldSpace(40))
        rho = steady_state(L)
        psi = squeezed_state_vector(r, 40)
        fidelity = (psi.conj() @ rho.matrix @ psi).real
        assert fidelity > 1 - 1e-8


# The term builders as they were before the one-pass assembly: every term
# a separate left, right or sandwich Kronecker product, summed pairwise.

def spre(op):
    return sp.kron(sp.identity(op.shape[0], format="csr"), sp.csr_matrix(op), format="csr")


def spost(op):
    return sp.kron(sp.csr_matrix(op.T), sp.identity(op.shape[0], format="csr"), format="csr")


def sandwich(left, right):
    return sp.kron(sp.csr_matrix(right.T), sp.csr_matrix(left), format="csr")


def reference_hamiltonian_superoperator(h):
    return Superoperator(h.space.dim, -1j * (spre(h.matrix) - spost(h.matrix)), h.space)


def reference_atom_dissipator(gamma, dims):
    s_ge = lift(atom_sigma("g", "e"), "atom", dims).matrix
    s_ee = lift(atom_sigma("e", "e"), "atom", dims).matrix
    m = gamma * (2.0 * sandwich(s_ge, s_ge.conj().T) - spre(s_ee) - spost(s_ee))
    return Superoperator(dims.dim, m, dims, rate_scale=gamma)


def reference_cavity_dissipator(kappa, c, n_th, m_corr):
    a = c.matrix
    ad = a.conj().T
    m = -kappa * (1.0 + n_th) * (spre(ad @ a) - 2.0 * sandwich(a, ad) + spost(ad @ a))
    m = m - kappa * n_th * (spre(a @ ad) - 2.0 * sandwich(ad, a) + spost(a @ ad))
    m = m + kappa * m_corr * (spre(ad @ ad) - 2.0 * sandwich(ad, ad) + spost(ad @ ad))
    m = m + kappa * np.conj(m_corr) * (spre(a @ a) - 2.0 * sandwich(a, a) + spost(a @ a))
    return Superoperator(c.space.dim, m, c.space)


def use_reference_terms(monkeypatch):
    """Make the package's builders assemble from the reference terms."""
    monkeypatch.setattr(liouvillian, "hamiltonian_superoperator",
                        reference_hamiltonian_superoperator)
    monkeypatch.setattr(liouvillian, "atom_dissipator", reference_atom_dissipator)
    monkeypatch.setattr(liouvillian, "_cavity_dissipator", reference_cavity_dissipator)


def assert_same_generator(fast, reference):
    """Same stored pattern, no explicit zeros, values equal to round-off."""
    fast, reference = fast.matrix, reference.matrix
    assert fast.nnz == reference.nnz == reference.count_nonzero()
    assert np.array_equal(fast.indptr, reference.indptr)
    assert np.array_equal(fast.indices, reference.indices)
    assert np.all(np.abs(fast.data - reference.data) <= 1e-13 * np.abs(reference.data))


R_ZERO_CASES = {
    "atom": (ATOM, SpaceDims(24)),
    "empty": (SystemParams(atom_present=False), FieldSpace(40)),
}


class TestOnePassAssembly:
    """Each term is summed once from its Kronecker products; the generators
    must keep the pattern and values of the term-by-term construction."""

    @pytest.mark.parametrize("case", sorted(SECTOR_CASES))
    def test_sector_cases_match_reference(self, case, monkeypatch):
        fast = SECTOR_CASES[case]()
        use_reference_terms(monkeypatch)
        assert_same_generator(fast, SECTOR_CASES[case]())

    @pytest.mark.parametrize("case", sorted(R_ZERO_CASES))
    def test_vacuum_bath_keeps_the_sparser_pattern(self, case, monkeypatch):
        params, space = R_ZERO_CASES[case]
        fast = build_liouvillian(params, SqueezedBath(0.0), space)
        fast_cavity = cavity_squeezed_dissipator(params.kappa, SqueezedBath(0.0), space)
        squeezed = build_liouvillian(params, SqueezedBath(0.5), space)
        assert fast.matrix.nnz < squeezed.matrix.nnz
        use_reference_terms(monkeypatch)
        assert_same_generator(fast, build_liouvillian(params, SqueezedBath(0.0), space))
        a = embed_field(space, annihilation)
        assert_same_generator(fast_cavity, reference_cavity_dissipator(params.kappa, a, 0.0, 0.0))

    def test_zero_weight_jumps_are_skipped(self, monkeypatch):
        products = []
        kron = sp.kron
        monkeypatch.setattr(sp, "kron", lambda *args, **kw: products.append(1) or kron(*args, **kw))
        # I ⊗ K and conj(K) ⊗ I, then one product per jump of nonzero weight
        cavity_squeezed_dissipator(1.0, SqueezedBath(0.0), FieldSpace(8))
        assert len(products) == 2 + 1
        cavity_squeezed_dissipator(1.0, SqueezedBath(0.5), FieldSpace(8))
        assert len(products) == 3 + 2 + 4

    def test_single_terms_match_reference(self):
        dims = SpaceDims(12)
        h = build_hamiltonian(SystemParams(delta_A=1.5, delta_C=-0.7, g0=15.0), dims)
        assert_same_generator(hamiltonian_superoperator(h), reference_hamiltonian_superoperator(h))
        assert_same_generator(atom_dissipator(0.8, dims), reference_atom_dissipator(0.8, dims))
        a = embed_field(dims, annihilation)
        bath = SqueezedBath(0.6, 1.1)
        assert_same_generator(cavity_squeezed_dissipator(1.0, bath, dims),
                              reference_cavity_dissipator(1.0, a, bath.n_th, bath.m_corr))
