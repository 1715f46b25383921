"""Shared independent oracles for the test suite.

These helpers are deliberately built from closed-form expressions and
plain numpy only, so they stay independent of the code paths they check.
"""

import numpy as np
import pytest

from sqcavity import SpaceDims


def squeezed_photon_numbers(r: float, nmax: int) -> np.ndarray:
    """Exact photon distribution of a squeezed vacuum with strength r.

    P(2m) = tanh(r)^{2m} / cosh(r) * (2m)! / ((m!)^2 2^{2m}), odd terms
    vanish. Evaluated by the stable ratio recursion
    P(2m+2) = P(2m) tanh^2(r) (2m+1)/(2m+2).
    """
    p = np.zeros(nmax)
    p[0] = 1.0 / np.cosh(r)
    t2 = np.tanh(r) ** 2
    for m in range(1, (nmax - 1) // 2 + 1):
        p[2 * m] = p[2 * m - 2] * t2 * (2 * m - 1) / (2 * m)
    return p


def squeezed_state_vector(r: float, dim: int) -> np.ndarray:
    """Squeezed-vacuum amplitudes at phase 0 (all coefficients positive)."""
    psi = np.zeros(dim, dtype=complex)
    amps = np.sqrt(squeezed_photon_numbers(r, dim))
    psi[: dim] = amps
    return psi / np.linalg.norm(psi)


def excitation_numbers(space) -> np.ndarray:
    """a†a (+ sigma_ee on the atom ⊗ field space, whose flat index is
    alpha * fock_cutoff + n) of each basis state."""
    n = np.arange(space.dim)
    if isinstance(space, SpaceDims):
        n = n // space.fock_cutoff + n % space.fock_cutoff
    return n


def parity_mismatch(space) -> np.ndarray:
    """Boolean d×d mask, True where ket |i> and bra <j| have different
    excitation parity."""
    n = excitation_numbers(space)
    return (n[:, None] - n[None, :]) % 2 == 1


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
