"""Property tests of both generator builders on small random models.

Every generator must be trace-preserving and Hermiticity-preserving, and
must have no entries between the two excitation-parity sectors: each jump
operator flips P = (-1)^(a†a + sigma_ee) and H conserves it, so rho -> P rho P
commutes with L.

The steady state must be phase covariant: H, the atomic damping and the
cavity loss commute with the rotation U = exp(-i theta (a†a + sigma_ee) / 2),
which takes the bath's e^{i phi} to e^{i (phi + theta)}. So shifting phi by
theta rotates rho by U, leaves every phase-insensitive observable unchanged
and turns <aa> by e^{i theta}.
"""

import math

import numpy as np
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
    photon_distribution,
    purity,
    steady_state,
)
from conftest import parity_mismatch

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
