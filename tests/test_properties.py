"""Property tests of both generator builders on small random models.

Every generator must be trace-preserving and Hermiticity-preserving, and
must have no entries between the two excitation-parity sectors: each jump
operator flips P = (-1)^(a†a + sigma_ee) and H conserves it, so rho -> P rho P
commutes with L.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sqcavity import (
    FieldSpace,
    SpaceDims,
    SqueezedBath,
    SystemParams,
    build_bogoliubov_liouvillian,
    build_liouvillian,
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
    params = SystemParams(delta_A=delta_a, delta_C=delta_c, g0=g0 if atom_present else 0.0,
                          gamma=gamma if atom_present else 0.0, kappa=kappa,
                          atom_present=atom_present)
    L = build_liouvillian(params, SqueezedBath(r=r, phi=phi), model_space(atom_present, cutoff))
    assert_generator_properties(L)


@PROPERTY_SETTINGS
@given(cutoff=cutoffs, atom_present=st.booleans(), r=strengths, g0=rates, gamma=rates,
       kappa=kappas)
def test_squeezed_frame_generator(cutoff, atom_present, r, g0, gamma, kappa):
    params = SystemParams(g0=g0 if atom_present else 0.0, gamma=gamma if atom_present else 0.0,
                          kappa=kappa, atom_present=atom_present)
    L = build_bogoliubov_liouvillian(params, r, model_space(atom_present, cutoff))
    assert_generator_properties(L)
