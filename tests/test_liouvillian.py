import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from sqcavity import (
    AtomSpace,
    FieldSpace,
    InvalidDimensionError,
    SpaceDims,
    SqueezedBath,
    SystemParams,
    UnsupportedFrameError,
    annihilation,
    atom_sigma,
    bogoliubov_b,
    build_bogoliubov_liouvillian,
    build_liouvillian,
    lift,
    steady_state,
    unvec,
    vec,
)
from sqcavity import liouvillian
from sqcavity.operators import embed_field
from conftest import squeezed_state_vector
import test_solvers
from test_solvers import ATOM, PHASE_BROKEN_CASES, SECTOR_CASES, matrix_trace_residual


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

    @pytest.mark.parametrize("r", [356.0, 711.0, 1e300])
    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_overflowing_bath_rejected(self, r, phi):
        # sinh²r overflows above r of about 355, sinh r itself above 710;
        # the strength is refused without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"squeezing strength r = {r} over")):
                SqueezedBath(r=r, phi=phi)
            assert np.isfinite(SqueezedBath(r=355.0, phi=phi).n_th)

    @pytest.mark.parametrize("space", [FieldSpace(20), SpaceDims(20)], ids=repr)
    def test_bath_that_overflows_the_generator_builds_without_a_warning(self, space):
        # at r = 355 the bath is finite but w_j B_j A_j is not: K is built
        # non-finite and silently, for steady_state to refuse
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L = build_liouvillian(SystemParams(g0=1.0, gamma=1.0), SqueezedBath(r=355.0), space)
        assert not np.all(np.isfinite(L.k))


def hamiltonian(params, space):
    a = sp.csr_matrix(embed_field(space, annihilation).matrix)
    return liouvillian._hamiltonian(params, space, a).toarray()


class TestHamiltonian:
    def test_all_zero_params(self):
        h = hamiltonian(SystemParams(), SpaceDims(4))
        assert np.all(h == 0)

    def test_single_excitation_coupling(self):
        # resonant g0=1, N_max=2: |g,1> at index 1 couples to |e,0> at index 2
        h = hamiltonian(SystemParams(g0=1.0), SpaceDims(2))
        expected = np.zeros((4, 4))
        expected[2, 1] = expected[1, 2] = 1.0
        assert np.allclose(h, expected)

    def test_vacuum_rabi_splitting(self):
        g0 = 7.3
        h = hamiltonian(SystemParams(g0=g0), SpaceDims(2))
        block = h[1:3, 1:3]
        assert np.allclose(np.sort(np.linalg.eigvalsh(block)), [-g0, g0])

    def test_hermitian(self):
        h = hamiltonian(SystemParams(delta_A=0.4, delta_C=-1.1, g0=3.0), SpaceDims(6))
        assert np.abs(h - h.conj().T).max() == 0

    def test_empty_cavity_field_only(self):
        params = SystemParams(delta_C=2.5)
        h = hamiltonian(params, FieldSpace(4))
        assert np.allclose(h, 2.5 * np.diag([0, 1, 2, 3]))


def atom_only(gamma, dims):
    """The whole generator at g0 = 0 and r = 0: on |e,0><e,0| the vacuum
    cavity and the zero Hamiltonian act as nothing, so only the atom's
    decay is left."""
    return build_liouvillian(SystemParams(gamma=gamma), SqueezedBath(0.0), dims)


def cavity_only(kappa, bath, space):
    """The whole generator of the empty cavity at zero detuning: its
    squeezed-bath damping alone."""
    return build_liouvillian(SystemParams(kappa=kappa), bath, space)


class TestAtomDissipator:
    def test_zero_gamma(self):
        # at gamma = 0 the atom adds nothing to the cavity's damping; at
        # gamma > 0 it does
        dims = SpaceDims(3)
        cavity = cavity_only(1.0, SqueezedBath(0.0), dims).matrix
        assert (atom_only(0.0, dims).matrix - cavity).count_nonzero() == 0
        assert (atom_only(0.7, dims).matrix - cavity).count_nonzero() > 0

    def test_population_transfer_rates(self):
        dims = SpaceDims(2)
        L = atom_only(0.7, dims)
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0  # |e,0><e,0|
        drho = unvec(L.matrix @ vec(rho), 4)
        assert abs(drho[2, 2] - (-2 * 0.7)) < 1e-14
        assert abs(drho[0, 0] - (+2 * 0.7)) < 1e-14

    def test_trace_preserving(self):
        L = atom_only(1.3, SpaceDims(5))
        assert L.trace_residual() < 1e-12


class TestCavityDissipator:
    def test_vacuum_bath_is_standard_decay(self, rng):
        space = FieldSpace(6)
        L = cavity_only(1.0, SqueezedBath(0.0), space)
        a = np.diag(np.sqrt(np.arange(1, 6)), k=1).astype(complex)
        rho = random_hermitian(rng, 6)
        expected = 2 * a @ rho @ a.conj().T - a.conj().T @ a @ rho - rho @ a.conj().T @ a
        assert np.abs(unvec(L.matrix @ vec(rho), 6) - expected).max() < 1e-12

    def test_energy_decay_rate_convention(self):
        # single photon decays at 2*kappa in photon number
        kappa = 1.7
        L = cavity_only(kappa, SqueezedBath(0.0), FieldSpace(4))
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        drho = unvec(L.matrix @ vec(rho), 4)
        n_op = np.diag([0.0, 1.0, 2.0, 3.0])
        assert abs(np.trace(n_op @ drho) - (-2 * kappa)) < 1e-12

    def test_squeezed_steady_moments(self):
        # empty-cavity steady state carries the bath's photon number and
        # two-photon correlation
        from sqcavity import mean_photon_number, pair_amplitude

        L = cavity_only(1.0, SqueezedBath(1.0), FieldSpace(90))
        rho = steady_state(L, guard=10, epsilon=1e-8)
        assert abs(mean_photon_number(rho) - np.sinh(1.0) ** 2) < 1e-6
        L2 = cavity_only(1.0, SqueezedBath(0.5), FieldSpace(50))
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
        params = SystemParams()
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

    def test_left_null_vector_is_trace(self):
        L = build_liouvillian(SystemParams(g0=2.0, gamma=0.3), SqueezedBath(0.4), SpaceDims(4))
        assert matrix_trace_residual(L) < 1e-12

    @pytest.mark.parametrize("build", [build_liouvillian, build_bogoliubov_liouvillian])
    def test_atom_space_refused(self, build):
        # no plan, and so no generator, exists on the atom's space alone
        with pytest.raises(InvalidDimensionError, match="expected a field or composite space"):
            build(SystemParams(), SqueezedBath(0.4), AtomSpace())


class TestBogoliubovFrame:
    def test_r_zero_matches_lab_frame(self):
        params = SystemParams(g0=5.0, gamma=1.0)
        dims = SpaceDims(10)
        lab = build_liouvillian(params, SqueezedBath(0.0), dims)
        bog = build_bogoliubov_liouvillian(params, SqueezedBath(0.0), dims)
        assert np.abs((lab.matrix - bog.matrix)).max() < 1e-14

    def test_detuned_frame_rejected(self):
        with pytest.raises(UnsupportedFrameError):
            build_bogoliubov_liouvillian(SystemParams(delta_A=0.1, g0=1.0), SqueezedBath(0.5),
                                         SpaceDims(4))

    def test_decoupled_kernel_is_squeezed_frame_vacuum(self):
        r = 0.5
        params = SystemParams()
        L = build_bogoliubov_liouvillian(params, SqueezedBath(r), FieldSpace(40))
        rho = steady_state(L)
        psi = squeezed_state_vector(r, 40)
        fidelity = (psi.conj() @ rho.matrix @ psi).real
        assert fidelity > 1 - 1e-8


# The generator as it was built before the one-pass assembly: a dense
# Hamiltonian, and every term a separate left, right or sandwich Kronecker
# product, summed pairwise.

def spre(op):
    return sp.kron(sp.identity(op.shape[0], format="csr"), sp.csr_matrix(op), format="csr")


def spost(op):
    return sp.kron(sp.csr_matrix(op.T), sp.identity(op.shape[0], format="csr"), format="csr")


def sandwich(left, right):
    return sp.kron(sp.csr_matrix(right.T), sp.csr_matrix(left), format="csr")


def reference_hamiltonian(params, x):
    h = params.delta_C * (x.dag() @ x)
    if isinstance(x.space, SpaceDims):
        s_ee = lift(atom_sigma("e", "e"), "atom", x.space)
        s_eg = lift(atom_sigma("e", "g"), "atom", x.space)
        coupling = s_eg @ x
        h = h + params.delta_A * s_ee + params.g0 * (coupling + coupling.dag())
    return h.matrix


def reference_atom_damping(gamma, dims):
    s_ge = lift(atom_sigma("g", "e"), "atom", dims).matrix
    s_ee = lift(atom_sigma("e", "e"), "atom", dims).matrix
    return gamma * (2.0 * sandwich(s_ge, s_ge.conj().T) - spre(s_ee) - spost(s_ee))


def reference_cavity_damping(kappa, c, n_th, m_corr):
    a = c.matrix
    ad = a.conj().T
    m = -kappa * (1.0 + n_th) * (spre(ad @ a) - 2.0 * sandwich(a, ad) + spost(ad @ a))
    m = m - kappa * n_th * (spre(a @ ad) - 2.0 * sandwich(ad, a) + spost(a @ ad))
    m = m + kappa * m_corr * (spre(ad @ ad) - 2.0 * sandwich(ad, ad) + spost(ad @ ad))
    m = m + kappa * np.conj(m_corr) * (spre(a @ a) - 2.0 * sandwich(a, a) + spost(a @ a))
    return m


def reference_assemble(params, x, c, n_th, m_corr):
    h = reference_hamiltonian(params, x)
    m = -1j * (spre(h) - spost(h)) + reference_cavity_damping(params.kappa, c, n_th, m_corr)
    if isinstance(x.space, SpaceDims):
        m = m + reference_atom_damping(params.gamma, x.space)
    return m


def lab_reference(params, bath, space):
    a = embed_field(space, annihilation)
    return reference_assemble(params, a, a, bath.n_th, bath.m_corr)


def use_reference_terms(monkeypatch):
    """Make both builders, as this module and `test_solvers`' cases call
    them, assemble from the reference terms in place of their plans, which
    then must not be touched, so that no case can compare the fast path
    with itself."""
    for module in (sys.modules[__name__], test_solvers):
        monkeypatch.setattr(module, "build_liouvillian", lab_reference)
        monkeypatch.setattr(module, "build_bogoliubov_liouvillian",
                            partial(squeezed_frame, reference_assemble))
    for name in ("_plan", "_make_plan"):
        monkeypatch.setattr(liouvillian, name, lambda *args: pytest.fail("a plan was used"))


def kron_sum(space, K, jumps):
    """The one-pass sum of the Kronecker products of
    rho -> K rho + rho K† + sum_j w_j A_j rho B_j over jumps (w_j, A_j, B_j),
    each product's entries (row, col) and values found by index arithmetic
    on its factors' entries, in the order of its left factor's, then of its
    right factor's, and its values scaled by the weight."""
    d = space.dim
    factors = liouvillian._kron_factors(space, K, jumps)
    row, col, values = zip(*[((left.row[:, None] * d + right.row).ravel(),
                              (left.col[:, None] * d + right.col).ravel(),
                              w * (left.data[:, None] * right.data).ravel())
                             for left, right, w in factors])
    m = sp.csr_matrix((np.concatenate(values), (np.concatenate(row), np.concatenate(col))),
                      shape=(d * d, d * d))
    m.eliminate_zeros()
    return m


def one_pass_assembly(params, x, c, n_th, m_corr):
    """The generator summed once from all its Kronecker products, as both
    frames were assembled before the plan: x is the field operator in H, c
    the cavity's jump operator into a bath with (N, M). The reference the
    planned matrix must equal under ==: the same pattern and values, though
    a zero real or imaginary part may differ in sign."""
    operators = liouvillian._jump_operators(c.space, sp.csr_matrix(c.matrix))
    weights = liouvillian._weights(params, n_th, m_corr)
    K = liouvillian._no_jump_part(
        liouvillian._hamiltonian(params, x.space, sp.csr_matrix(x.matrix)), weights,
        [B @ A for A, B in operators])
    return kron_sum(x.space, K, [(w, A, B) for w, (A, B) in zip(weights, operators)])


def one_pass(params, bath, space):
    a = embed_field(space, annihilation)
    return one_pass_assembly(params, a, a, bath.n_th, bath.m_corr)


def squeezed_frame(assemble, params, bath, space):
    """The squeezed-frame generator by `assemble`: the field in H is
    cosh(r) b + sinh(r) b†, and the cavity decays through b into the
    vacuum."""
    b = embed_field(space, partial(bogoliubov_b, bath.r))
    return assemble(params, np.cosh(bath.r) * b + np.sinh(bath.r) * b.dag(), b, 0.0, 0.0)


def assert_same_generator(fast, reference):
    """fast's matrix has reference's stored pattern, no explicit zeros, and
    values equal to round-off."""
    fast = fast.matrix
    assert fast.nnz == reference.nnz == reference.count_nonzero()
    assert np.array_equal(fast.indptr, reference.indptr)
    assert np.array_equal(fast.indices, reference.indices)
    assert np.all(np.abs(fast.data - reference.data) <= 1e-13 * np.abs(reference.data))


R_ZERO_CASES = {
    "atom": (ATOM, SpaceDims(24)),
    "empty": (SystemParams(), FieldSpace(40)),
}


class TestOnePassAssembly:
    """The generator, summed from its Kronecker products, must keep the
    pattern and values of the term-by-term construction."""

    @pytest.mark.parametrize("case", sorted(SECTOR_CASES))
    def test_sector_cases_match_reference(self, case, monkeypatch):
        fast = SECTOR_CASES[case]()
        use_reference_terms(monkeypatch)
        assert_same_generator(fast, SECTOR_CASES[case]())

    @pytest.mark.parametrize("case", sorted(R_ZERO_CASES))
    def test_vacuum_bath_keeps_the_sparser_pattern(self, case, monkeypatch):
        params, space = R_ZERO_CASES[case]
        fast = build_liouvillian(params, SqueezedBath(0.0), space)
        fast_cavity = cavity_only(params.kappa, SqueezedBath(0.0), space)
        squeezed = build_liouvillian(params, SqueezedBath(0.5), space)
        assert fast.matrix.nnz < squeezed.matrix.nnz
        use_reference_terms(monkeypatch)
        assert_same_generator(fast, build_liouvillian(params, SqueezedBath(0.0), space))
        assert_same_generator(fast_cavity, cavity_only(params.kappa, SqueezedBath(0.0), space))

    def test_zero_weight_jumps_are_skipped(self, monkeypatch):
        products = product_spy(monkeypatch)
        # I ⊗ K and conj(K) ⊗ I, then one product per jump of nonzero weight
        one_pass(SystemParams(), SqueezedBath(0.0), FieldSpace(8))
        assert len(products) == 2 + 1
        one_pass(SystemParams(), SqueezedBath(0.5), FieldSpace(8))
        assert len(products) == 3 + 2 + 4
        one_pass(ATOM, SqueezedBath(0.5), SpaceDims(8))
        assert len(products) == 9 + 2 + 5
        # a planned matrix is the same one-pass sum; the squeezed frame's
        # bath is the vacuum, so the cavity's decay and the atom's are left
        build_bogoliubov_liouvillian(ATOM, SqueezedBath(0.5), SpaceDims(8)).matrix
        assert len(products) == 16 + 2 + 2

    def test_all_terms_at_once_match_reference(self, monkeypatch):
        params = SystemParams(delta_A=1.5, delta_C=-0.7, g0=15.0, gamma=0.8)
        bath, dims = SqueezedBath(0.6, 1.1), SpaceDims(12)
        fast = build_liouvillian(params, bath, dims)
        use_reference_terms(monkeypatch)
        assert_same_generator(fast, build_liouvillian(params, bath, dims))


def spy(monkeypatch, name):
    """A list that grows by one on each call of liouvillian.<name>."""
    calls = []
    real = getattr(liouvillian, name)
    monkeypatch.setattr(liouvillian, name, lambda *args: calls.append(1) or real(*args))
    return calls


def product_spy(monkeypatch):
    """A list that grows by one for each Kronecker product whose factors
    liouvillian._kron_factors returns: one product is formed per factor
    pair, by the matrix and by `kron_sum` alike."""
    products = []
    real = liouvillian._kron_factors

    def counting(*args):
        factors = real(*args)
        products.extend([1] * len(factors))
        return factors

    monkeypatch.setattr(liouvillian, "_kron_factors", counting)
    return products


def assert_identical(fast, reference):
    """fast's matrix has reference's dtype and pattern and equal values
    under ==; a zero real or imaginary part may differ in sign, so the
    bytes of the values may not match."""
    fast = fast.matrix
    assert fast.dtype == reference.dtype
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(fast, name), getattr(reference, name))


def dense_plan(params, space, c, x=None):
    """The plan of the model whose cavity decays through c and whose H
    holds the field operator x (c where None), its operators lifted and
    its values read through dense d×d arrays."""
    x = c if x is None else x
    xs, a = sp.csr_matrix(x.matrix), sp.csr_matrix(c.matrix)
    h = params.delta_C * (xs.conj().T @ xs)
    operators = [(a, a.conj().T.tocsr()), (a.conj().T.tocsr(), a),
                 (a.conj().T.tocsr(), a.conj().T.tocsr()), (a, a)]
    if isinstance(space, SpaceDims):
        s_ee, s_eg, s_ge = (sp.csr_matrix(lift(atom_sigma(*levels), "atom", space).matrix)
                            for levels in ("ee", "eg", "ge"))
        coupling = s_eg @ xs
        h = h + params.delta_A * s_ee + params.g0 * (coupling + coupling.conj().T)
        operators.append((s_ge, s_ge.conj().T.tocsr()))
    products = [B @ A for A, B in operators]
    K = sp.coo_matrix(abs(h) + sum(abs(p) for p in products))
    return liouvillian._Plan(space, K.row, K.col, h.toarray()[K.row, K.col],
                             tuple(p.toarray()[K.row, K.col] for p in products),
                             tuple((A.tocsr(), B.tocsr()) for A, B in operators))


def plan_arrays(plan):
    return [plan.row, plan.col, plan.h, *plan.products,
            *(x for pair in plan.jumps for m in pair for x in (m.data, m.indices, m.indptr))]


class TestPlannedGenerator:
    """Both frames' generators are put together from a plan, the lab
    frame's cached per (params, space): the same matrix as the one-pass
    assembly, equal under == (the sign of a zero part aside), and a matrix
    of its own on every call."""

    @pytest.mark.parametrize("case", sorted(SECTOR_CASES))
    def test_sector_cases_match_one_pass(self, case, monkeypatch):
        # the first call makes the plan, the second reuses it
        liouvillian._plan.cache_clear()
        cold, warm = SECTOR_CASES[case](), SECTOR_CASES[case]()
        monkeypatch.setattr(test_solvers, "build_liouvillian", one_pass)
        monkeypatch.setattr(test_solvers, "build_bogoliubov_liouvillian",
                            partial(squeezed_frame, one_pass_assembly))
        for name in ("_plan", "_make_plan"):
            monkeypatch.setattr(liouvillian, name, lambda *args: pytest.fail("a plan was used"))
        reference = SECTOR_CASES[case]()
        assert_identical(cold, reference)
        assert_identical(warm, reference)

    @pytest.mark.parametrize("case", sorted({**SECTOR_CASES, **PHASE_BROKEN_CASES}))
    def test_matrix_matches_the_index_arithmetic(self, case):
        # sp.kron forms each product with the entries and values, in the
        # order, of the index arithmetic on its factors; the squeezed
        # frame's cases are among SECTOR_CASES
        L = {**SECTOR_CASES, **PHASE_BROKEN_CASES}[case]()
        reference = kron_sum(L.space, L.plan.operator(L.k), [
            (w, A, B) for w, (A, B) in zip(L.weights, L.plan.jumps)])
        # byte for byte, so that the sign of a zero part counts too
        for name in ("indptr", "indices", "data"):
            mine, theirs = getattr(L.matrix, name), getattr(reference, name)
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()

    def test_generator_without_entries_keeps_a_complex_matrix(self):
        # sp.kron returns a float product where a factor has no entries
        m = test_solvers.zero_generator(FieldSpace(3)).matrix
        assert m.dtype == complex
        assert m.nnz == 0

    def test_plan_is_made_once_per_model_and_space(self, monkeypatch):
        plans, products = spy(monkeypatch, "_make_plan"), product_spy(monkeypatch)
        liouvillian._plan.cache_clear()
        build_liouvillian(ATOM, SqueezedBath(0.5), SpaceDims(8))
        assert len(plans) == 1
        assert len(products) == 0
        # no product is formed before the matrix is read; then I ⊗ K,
        # conj(K) ⊗ I and one per jump of nonzero weight, at r = 0 the
        # cavity's decay and the atom's
        build_liouvillian(ATOM, SqueezedBath(0.0), SpaceDims(8)).matrix
        build_liouvillian(ATOM, SqueezedBath(0.9, phi=0.4), SpaceDims(8)).matrix
        assert len(plans) == 1
        assert len(products) == (2 + 2) + (2 + 5)
        build_liouvillian(ATOM, SqueezedBath(0.5), SpaceDims(9))
        build_liouvillian(SystemParams(g0=14.0, gamma=1.0), SqueezedBath(0.5), SpaceDims(8))
        assert len(plans) == 3

    @pytest.mark.parametrize("r", [0.0, 0.7])
    def test_each_call_returns_a_matrix_of_its_own(self, r):
        params, bath, space = ATOM, SqueezedBath(r, phi=0.3), SpaceDims(6)
        first = build_liouvillian(params, bath, space)
        expected = first.matrix.copy()
        second = build_liouvillian(params, bath, space)
        assert second is not first
        for name in ("data", "indices", "indptr"):
            assert not np.shares_memory(getattr(first.matrix, name),
                                        getattr(second.matrix, name))
        first.matrix.data[:] = 7.0
        first.matrix.indices[:] = 0
        first.matrix.indptr[:] = 0
        second.matrix.data[:] = 7.0
        assert_identical(build_liouvillian(params, bath, space), expected)

    def test_threads_sharing_one_plan_get_the_one_pass_generator(self):
        # more threads than cores, switching often, all starting on an
        # empty cache: each matrix must be its point's one-pass generator
        params, space = SystemParams(delta_C=0.3, g0=4.0, gamma=0.5), SpaceDims(7)
        baths = [SqueezedBath(0.05 * k, phi=0.1 * k) for k in range(24)]
        liouvillian._plan.cache_clear()

        def formed(bath):
            L = build_liouvillian(params, bath, space)
            L.matrix
            return L

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(formed, bath) for bath in baths]
                built = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for bath, L in zip(baths, built):
            assert_identical(L, one_pass(params, bath, space))

    @pytest.mark.parametrize("params, space", [
        (ATOM, SpaceDims(2)), (ATOM, SpaceDims(40)), (SystemParams(), FieldSpace(2)),
        (SystemParams(), FieldSpace(40)),
        (SystemParams(delta_A=1.5, delta_C=-0.7, g0=15.0, gamma=0.8), SpaceDims(12)),
        (SystemParams(delta_C=0.3, kappa=2.0), FieldSpace(12))])
    def test_plan_matches_the_dense_lift(self, params, space):
        # the plan's operators are embedded and lifted sparse; byte for
        # byte they are those made through dense d×d arrays, in both frames
        planned = [liouvillian._plan.__wrapped__(params, space)]
        dense = [dense_plan(params, space, embed_field(space, annihilation))]
        if params.delta_A == params.delta_C == 0:
            planned.append(build_bogoliubov_liouvillian(params, SqueezedBath(0.5), space).plan)
            b = embed_field(space, partial(bogoliubov_b, 0.5))
            dense.append(dense_plan(params, space, b, np.cosh(0.5) * b + np.sinh(0.5) * b.dag()))
        for mine, theirs in zip(planned, dense, strict=True):
            for a, b in zip(plan_arrays(mine), plan_arrays(theirs), strict=True):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()

    def test_plan_is_read_only(self):
        plan = liouvillian._plan(ATOM, SpaceDims(6))
        assert not any(array.flags.writeable for array in plan_arrays(plan))
