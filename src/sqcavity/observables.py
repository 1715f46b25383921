"""Observables extracted from a density matrix: moments, photon statistics,
atomic population, purity, and the Wigner function.

Quadrature convention: alpha = (q + i p) / sqrt(2), Wigner normalized so
that the grid integral over dq dp is 1 and the vacuum has variance 1/2 in
each quadrature. Squeezing then reads directly as variances e^{±2r}/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptedStateError, InvalidDimensionError
from .operators import (
    FieldSpace,
    Operator,
    SpaceDims,
    annihilation,
    atom_sigma,
    embed_field,
    lift,
    number_operator,
)
from .solvers import (
    DEFAULT_EPSILON,
    DensityMatrix,
    check_truncation,
    make_density_matrix,
    photon_populations,
)

IMAG_TOL = 1e-8


@dataclass(frozen=True)
class PhotonDistribution:
    probabilities: np.ndarray = field(repr=False)
    tail_mass: float = 0.0


@dataclass(frozen=True)
class WignerGrid:
    q_axis: np.ndarray = field(repr=False)
    p_axis: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)


def expectation(rho: DensityMatrix, op: Operator) -> complex:
    """Tr(rho op)."""
    if rho.space != op.space:
        raise InvalidDimensionError(
            f"state space {rho.space} does not match operator space {op.space}"
        )
    return complex(np.einsum("ij,ji->", rho.matrix, op.matrix))


def _real_expectation(rho: DensityMatrix, op: Operator, what: str) -> float:
    value = expectation(rho, op)
    if abs(value.imag) > IMAG_TOL:
        raise CorruptedStateError(
            f"{what} has imaginary part {value.imag:.3e}; state is corrupted"
        )
    return float(value.real)


def mean_photon_number(rho: DensityMatrix) -> float:
    """<a†a>, valid on composite and field-only states."""
    n_op = embed_field(rho.space, number_operator)
    return _real_expectation(rho, n_op, "mean photon number")


def pair_amplitude(rho: DensityMatrix) -> complex:
    """<aa>; its magnitude is the phase-sensitive two-photon moment."""
    return expectation(rho, embed_field(rho.space, lambda n: annihilation(n) @ annihilation(n)))


def atom_excited_population(rho: DensityMatrix) -> float:
    """Excited-state population rho_ee of the atom."""
    if not isinstance(rho.space, SpaceDims):
        raise InvalidDimensionError("atom population requires a composite state")
    s_ee = lift(atom_sigma("e", "e"), "atom", rho.space)
    return _real_expectation(rho, s_ee, "excited-state population")


def photon_distribution(rho: DensityMatrix, guard: int | None = None) -> PhotonDistribution:
    """Diagonal of the field-reduced state, with the guard-band mass."""
    probs = photon_populations(rho)
    if probs.min() < -1e-8:
        raise CorruptedStateError(
            f"photon population P({int(probs.argmin())}) = {probs.min():.3e} is negative"
        )
    return PhotonDistribution(probabilities=probs, tail_mass=check_truncation(rho, guard, np.inf))


def partial_trace_atom(rho: DensityMatrix) -> DensityMatrix:
    """Trace out the atom: sum of the two atom-diagonal blocks."""
    if not isinstance(rho.space, SpaceDims):
        raise InvalidDimensionError("partial trace requires a composite state")
    n = rho.space.fock_cutoff
    blocks = rho.matrix.reshape(2, n, 2, n)
    reduced = blocks[0, :, 0, :] + blocks[1, :, 1, :]
    return make_density_matrix(FieldSpace(n), reduced)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho²)."""
    return float(np.einsum("ij,ji->", rho.matrix, rho.matrix).real)


def _laguerre_series(coeffs: np.ndarray, k: int, x: np.ndarray) -> np.ndarray:
    """sum_m coeffs[m] l_m(x), real coeffs, by Clenshaw's backward recurrence,
    where l_m = (-1)^m sqrt(k! m! / (m+k)!) L_m^(k)(x) are the normalized
    generalized Laguerre terms: l_0 = 1 and, with s_m = sqrt((m+1)(m+k+1)),
    s_m l_{m+1} = (x - 2m - 1 - k) l_m - s_{m-1} l_{m-1}.

    Each step divides by s_m as a product with 1 / s_m, which is how numpy
    divides a complex array by a real: the sums of a complex series' real
    and imaginary parts are then the parts of its complex recurrence, equal
    to the bit up to the sign of an exact zero."""
    b1, b2, step = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    s_next = 1.0
    for m in range(coeffs.size - 1, -1, -1):
        s = math.sqrt((m + 1.0) * (m + k + 1.0))
        # coeffs[m] + (x - 2m - 1 - k) b1 / s - (s / s_next) b2, in place
        np.multiply(b1, 1.0 / s, out=step)
        step *= x - (2 * m + 1 + k)
        step += coeffs[m]
        b2 *= s / s_next
        step -= b2
        b1, b2, step = step, b1, b2
        s_next = s
    return b1


def _grid_axis(values, name: str) -> np.ndarray:
    axis = np.asarray(values, dtype=float)
    if axis.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {axis.shape}")
    if not np.isfinite(axis).all():
        raise ValueError(f"{name} must be finite, got {axis[~np.isfinite(axis)][0]}")
    return axis


def wigner(rho_field: DensityMatrix, q_axis, p_axis, guard: int | None = None,
           epsilon: float = DEFAULT_EPSILON) -> WignerGrid:
    """Wigner function from its Fock-basis series, over the whole grid at once.

    values[i, j] = W(q_axis[i], p_axis[j]). With alpha = (q + i p)/sqrt(2)
    and x = 4|alpha|^2 (Cahill & Glauber, Phys. Rev. 177, 1882 (1969)),

        pi W = e^{-x/2} Re sum_k c_k (2 alpha)^k / sqrt(k!) sum_m rho_{m,m+k} l_m^(k)(x),

    c_0 = 1, c_k = 2 otherwise. Each diagonal k is summed by Clenshaw's
    recurrence and the diagonals are combined by Horner's rule in 2 alpha,
    the iterative method of QuTiP's `wigner` (Johansson, Nation & Nori,
    Comput. Phys. Commun. 184, 1234 (2013)). The Laguerre sums depend on
    the grid only through x, so each runs once per distinct x and is
    scattered back. Each diagonal is summed in real arithmetic, once for
    its real part and once for its imaginary part, each added to the same
    part of the Horner sum; a part that is exactly zero adds nothing and is
    not summed. All this leaves every value as the complex full-grid sum
    gives it, to the bit. The state
    must pass the truncation check over `guard` levels first: the Wigner
    function at large |alpha| is meaningless once population has leaked
    into the guard band. ValueError for an axis that is not a
    one-dimensional array of finite values.
    """
    if not isinstance(rho_field.space, FieldSpace):
        raise InvalidDimensionError("wigner expects a field-only state; trace out the atom first")
    q_axis = _grid_axis(q_axis, "q_axis")
    p_axis = _grid_axis(p_axis, "p_axis")
    rho = rho_field.matrix
    herm_err = float(np.abs(rho - rho.conj().T).max())
    if herm_err > IMAG_TOL:
        raise CorruptedStateError(f"state is not Hermitian: max |rho - rho†| = {herm_err:.3e}")
    check_truncation(rho_field, guard, epsilon)
    two_alpha = np.sqrt(2.0) * (q_axis[:, None] + 1j * p_axis[None, :])
    x = np.abs(two_alpha) ** 2
    radii, at = np.unique(x.ravel(), return_inverse=True)
    at = at.reshape(x.shape)
    series = np.zeros_like(two_alpha)
    for k in range(rho_field.fock_cutoff - 1, -1, -1):
        # not in place: numpy may round an in-place complex product
        # differently (seen on a one-point grid)
        series = series * (two_alpha / np.sqrt(k + 1.0))
        diagonal = np.diagonal(rho, k) * (2.0 if k else 1.0)
        for part, coeffs in ((series.real, diagonal.real), (series.imag, diagonal.imag)):
            if coeffs.any():
                part += _laguerre_series(coeffs, k, radii)[at]
    values = np.exp(-x / 2) * series.real / np.pi
    return WignerGrid(q_axis=q_axis, p_axis=p_axis, values=values)


def wigner_integral(grid: WignerGrid) -> float:
    """Trapezoidal integral of W over the grid, signed by the axes: each
    descending axis flips its sign, and a grid of one point along an axis
    integrates to 0."""
    return float(np.trapezoid(np.trapezoid(grid.values, grid.p_axis, axis=1), grid.q_axis))


def quadrature_moments(grid: WignerGrid):
    """Means and variances (q, p) of the Wigner quasi-distribution. Each is
    a ratio of two grid integrals, so a descending axis, which flips both
    signs, gives the same moments; a grid whose integral is 0 or not finite
    has none (ValueError)."""
    w = grid.values
    q, p = grid.q_axis, grid.p_axis
    norm = wigner_integral(grid)
    if norm == 0 or not np.isfinite(norm):
        raise ValueError(f"the {w.shape[0]} x {w.shape[1]} Wigner grid integrates to {norm}, "
                         "so its moments are undefined (an axis of one point integrates to 0)")

    def integrate(f):
        return float(np.trapezoid(np.trapezoid(f, p, axis=1), q)) / norm

    mean_q = integrate(w * q[:, None])
    mean_p = integrate(w * p[None, :])
    var_q = integrate(w * (q[:, None] - mean_q) ** 2)
    var_p = integrate(w * (p[None, :] - mean_p) ** 2)
    return (mean_q, mean_p, var_q, var_p)
