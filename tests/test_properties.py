"""Property tests of both generator builders on small random models.

Every generator must be trace-preserving and Hermiticity-preserving, and
must have no entries between the two excitation-parity sectors: each jump
operator flips P = (-1)^(a†a + sigma_ee) and H conserves it, so rho -> P rho P
commutes with L.

The lab-frame generator, put together from its plan cached per model and
space, must equal the one-pass assembly's under ==, the sign of a zero
part aside.

The steady state must be phase covariant: H, the atomic damping and the
cavity loss commute with the rotation U = exp(i theta (a†a + sigma_ee) / 2),
which takes the bath's e^{i phi} to e^{i (phi + theta)}. So shifting phi by
theta takes rho to U rho U† (and not to U† rho U), leaves every
phase-insensitive observable unchanged and turns <aa> by e^{i theta}.

The same parity makes the steady state's Wigner function even,
W(q, p) = W(-q, -p), and at phi = 0 the steady state is real, so W is even
in p as well.

At phi = 0 without detunings both frames' generators have the phase
symmetry the real solve folds by: with sigma(v) = u_i u_j on vec index
v = i + d j, u_i = (-1)^(sigma_ee of state i), D L D = conj(L) for
D = diag(sigma), and S L S = L for (S x)_v = sigma(v) x_t(v), t(v) = j + d i;
both hold exactly on the entries as stored.
"""

import math

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sqcavity import (
    FieldSpace,
    SpaceDims,
    SqueezedBath,
    SystemParams,
    atom_excited_population,
    build_bogoliubov_liouvillian,
    build_liouvillian,
    mean_photon_number,
    pair_amplitude,
    partial_trace_atom,
    photon_distribution,
    purity,
    steady_state,
    wigner,
)
from conftest import excitation_numbers, parity_mismatch
from test_liouvillian import assert_identical, assert_same_generator, one_pass
from test_solvers import assert_reference_system, complex_block_state

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)

cutoffs = st.integers(min_value=2, max_value=6)
strengths = st.floats(min_value=0.0, max_value=1.5)
rates = st.floats(min_value=0.0, max_value=20.0)
detunings = st.floats(min_value=-5.0, max_value=5.0)
phases = st.floats(min_value=-np.pi, max_value=np.pi)
kappas = st.floats(min_value=0.1, max_value=5.0)


def model_space(atom_present, cutoff):
    return SpaceDims(cutoff) if atom_present else FieldSpace(cutoff)


def assert_generator_properties(L):
    m = L.matrix.toarray()
    scale = 1.0 + np.abs(m).max()
    d = L.dim
    # trace preservation: vec(I)^T L = 0
    assert L.trace_residual() < 1e-12 * scale
    # Hermiticity preservation: L(rho†) = L(rho)†, i.e. the entry at
    # ((i,j),(k,l)) is the conjugate of the one at ((j,i),(l,k))
    idx = np.arange(d * d)
    swap = (idx // d) + d * (idx % d)
    assert np.abs(m[np.ix_(swap, swap)].conj() - m).max() < 1e-12 * scale
    # parity sectors: vec index i + d*j is entry (i, j) of rho
    sector = parity_mismatch(L.space).reshape(-1, order="F")
    coo = L.matrix.tocoo()
    assert np.all(sector[coo.row] == sector[coo.col])


@PROPERTY_SETTINGS
@given(cutoff=cutoffs, atom_present=st.booleans(), r=strengths, phi=phases, g0=rates,
       gamma=rates, kappa=kappas, delta_a=detunings, delta_c=detunings)
def test_lab_frame_generator(cutoff, atom_present, r, phi, g0, gamma, kappa, delta_a, delta_c):
    params = SystemParams(delta_A=delta_a, delta_C=delta_c, g0=g0, gamma=gamma, kappa=kappa)
    L = build_liouvillian(params, SqueezedBath(r=r, phi=phi), model_space(atom_present, cutoff))
    assert_generator_properties(L)


@PROPERTY_SETTINGS
@given(cutoff=st.integers(min_value=2, max_value=10), atom_present=st.booleans(),
       r=st.just(0.0) | strengths, phi=phases, g0=rates, gamma=rates, kappa=kappas,
       delta_a=detunings, delta_c=detunings)
def test_lab_frame_generator_matches_one_pass(cutoff, atom_present, r, phi, g0, gamma, kappa,
                                              delta_a, delta_c):
    params = SystemParams(delta_A=delta_a, delta_C=delta_c, g0=g0, gamma=gamma, kappa=kappa)
    bath, space = SqueezedBath(r=r, phi=phi), model_space(atom_present, cutoff)
    planned = build_liouvillian(params, bath, space)
    reference = one_pass(params, bath, space)
    assert_same_generator(planned, reference)
    assert_identical(planned, reference)


@PROPERTY_SETTINGS
@given(cutoff=cutoffs, atom_present=st.booleans(), r=strengths, g0=rates, gamma=rates,
       kappa=kappas)
def test_squeezed_frame_generator(cutoff, atom_present, r, g0, gamma, kappa):
    params = SystemParams(g0=g0, gamma=gamma, kappa=kappa)
    L = build_bogoliubov_liouvillian(params, SqueezedBath(r), model_space(atom_present, cutoff))
    assert_generator_properties(L)


@PROPERTY_SETTINGS
@given(cutoff=st.integers(min_value=2, max_value=8), atom_present=st.booleans(),
       r=st.floats(min_value=0.1, max_value=1.0), phi=phases, theta=phases, g0=rates,
       gamma=st.floats(min_value=0.1, max_value=20.0), kappa=kappas, delta_a=detunings,
       delta_c=detunings)
def test_steady_state_phase_covariance(cutoff, atom_present, r, phi, theta, g0, gamma, kappa,
                                       delta_a, delta_c):
    params = SystemParams(delta_A=delta_a, delta_C=delta_c, g0=g0, gamma=gamma, kappa=kappa)
    space = model_space(atom_present, cutoff)
    # the rotation is exact at any cutoff, so the truncation is not checked:
    # it would refuse most of these small models
    rho, rotated = (steady_state(build_liouvillian(params, SqueezedBath(r=r, phi=p), space),
                                 guard=1, epsilon=math.inf) for p in (phi, phi + theta))
    np.testing.assert_allclose(photon_distribution(rotated, guard=1).probabilities,
                               photon_distribution(rho, guard=1).probabilities,
                               rtol=0, atol=1e-10)
    assert abs(mean_photon_number(rotated) - mean_photon_number(rho)) < 1e-10
    assert abs(purity(rotated) - purity(rho)) < 1e-10
    if atom_present:
        assert abs(atom_excited_population(rotated) - atom_excited_population(rho)) < 1e-10
    aa, aa_rotated = pair_amplitude(rho), pair_amplitude(rotated)
    assert abs(abs(aa_rotated) - abs(aa)) < 1e-10
    assert abs(aa_rotated - np.exp(1j * theta) * aa) < 1e-10


@PROPERTY_SETTINGS
@given(cutoff=st.integers(min_value=2, max_value=10), atom_present=st.booleans(),
       r=st.floats(min_value=0.0, max_value=1.0), g0=rates,
       half_axis=st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=1, max_size=6))
def test_steady_state_wigner_symmetries(cutoff, atom_present, r, g0, half_axis):
    params = SystemParams(g0=g0, gamma=1.0)
    space = model_space(atom_present, cutoff)
    # the symmetries hold at any cutoff, so the truncation is not checked
    rho = steady_state(build_liouvillian(params, SqueezedBath(r=r), space),
                       guard=1, epsilon=math.inf)
    field = partial_trace_atom(rho) if atom_present else rho
    a = np.sort(half_axis)
    axis = np.concatenate((-a[::-1], a))
    w = wigner(field, axis, axis, guard=1, epsilon=math.inf).values
    np.testing.assert_allclose(w[::-1, ::-1], w, rtol=0, atol=1e-13)
    np.testing.assert_allclose(w[:, ::-1], w, rtol=0, atol=1e-13)


def phase_signs(space):
    """sigma(v) = u_i u_j of each vec index v = i + d j, and t(v) = j + d i."""
    d = space.dim
    excited = np.arange(d) >= space.fock_cutoff if isinstance(space, SpaceDims) else np.zeros(d)
    u = np.where(excited, -1.0, 1.0)
    v = np.arange(d * d)
    return u[v % d] * u[v // d], v // d + d * (v % d)


@PROPERTY_SETTINGS
@given(cutoff=st.integers(min_value=2, max_value=10), atom_present=st.booleans(),
       bogoliubov=st.booleans(), r=st.just(0.0) | strengths, g0=rates,
       gamma=st.floats(min_value=0.1, max_value=20.0), kappa=kappas)
def test_phase_symmetric_generator_takes_the_real_fold(cutoff, atom_present, bogoliubov, r, g0,
                                                       gamma, kappa):
    params = SystemParams(g0=g0, gamma=gamma, kappa=kappa)
    build = build_bogoliubov_liouvillian if bogoliubov else build_liouvillian
    L = build(params, SqueezedBath(r=r), model_space(atom_present, cutoff))
    sign, transposed = phase_signs(L.space)
    m = L.matrix.tocsr()
    D = sp.diags(sign).tocsr()
    assert (D @ m @ D != m.conj()).nnz == 0
    S = sp.csr_matrix((sign, (np.arange(sign.size), transposed)), shape=m.shape)
    assert (S @ m @ S != m).nnz == 0
    # the system formed from the rows the fold keeps, byte for byte the one
    # formed from every product entry
    assert_reference_system(L)
    # the real fold against the complex block of the same L; the symmetries
    # hold at any cutoff, so the truncation is not checked
    folded = steady_state(L, guard=1, epsilon=math.inf)
    even = int(np.count_nonzero(~parity_mismatch(L.space)))
    assert folded.diagnostics.lu_unknowns == (even + L.dim) // 2
    np.testing.assert_allclose(folded.matrix, complex_block_state(L), rtol=0, atol=1e-12)


def gauge(space, angle):
    """The diagonal of exp(i angle N_exc / 2), N_exc = a†a + sigma_ee."""
    return np.exp(0.5j * angle * excitation_numbers(space))


@PROPERTY_SETTINGS
@given(cutoff=st.integers(min_value=3, max_value=10), atom_present=st.booleans(),
       r=st.floats(min_value=0.2, max_value=1.0), phi=st.floats(min_value=0.3, max_value=2.8),
       g0=rates, gamma=st.floats(min_value=0.1, max_value=20.0), kappa=kappas,
       delta_a=st.just(0.0) | detunings, delta_c=st.just(0.0) | detunings)
def test_squeezing_phase_is_a_gauge(cutoff, atom_present, r, phi, g0, gamma, kappa, delta_a,
                                    delta_c):
    # H conserves N_exc and exp(i theta N_exc) turns the bath's M terms by
    # e^{2i theta}, so rho(phi) = U rho(0) U†, U = exp(i phi N_exc / 2);
    # the opposite sign turns the coherences between states two
    # excitations apart the wrong way (from cutoff 3 on the field has
    # such states; r and phi keep the miss above 6e-4 in 600 examples)
    params = SystemParams(delta_A=delta_a, delta_C=delta_c, g0=g0, gamma=gamma, kappa=kappa)
    space = model_space(atom_present, cutoff)
    # the gauge is exact at any cutoff, so the truncation is not checked
    states = [steady_state(build_liouvillian(params, SqueezedBath(r=r, phi=p), space),
                           guard=1, epsilon=math.inf) for p in (0.0, phi)]
    rho, rotated = (state.matrix for state in states)
    # phi = 0 without a detuning takes the phase-symmetric fold, every
    # phi != 0 the Hermitian one (a field space has no delta_A)
    even = int(np.count_nonzero(~parity_mismatch(space)))
    symmetric = delta_c == 0 and (delta_a == 0 or not atom_present)
    assert [state.diagnostics.lu_unknowns for state in states] == [
        (even + space.dim) // 2 if symmetric else even, even]

    def turned(angle):
        u = gauge(space, angle)
        return u[:, None] * rho * u.conj()[None, :]

    assert np.abs(rotated - turned(phi)).max() < 1e-10
    assert np.abs(rotated - turned(-phi)).max() > 1e-6
