"""The model's generator, assembled in one Lindblad-form pass.

The model is a two-level atom coupled to a single lossy cavity mode that
is driven by a broadband squeezed vacuum. In the rotating frame of the
squeeze central frequency

    H = delta_A sigma_ee + delta_C a†a + g0 (sigma_eg a + sigma_ge a†),

and the state evolves as drho/dt = -i[H, rho] + L_atom(rho) + L_cav(rho)
with

    L_atom = gamma (2 sigma_ge rho sigma_eg - sigma_ee rho - rho sigma_ee)
    L_cav  = -kappa (1+N)(a†a rho - 2 a rho a† + rho a†a)
             -kappa N    (a a† rho - 2 a† rho a + rho a a†)
             +kappa M    (a†a† rho - 2 a† rho a† + rho a†a†)
             +kappa M*   (a a rho - 2 a rho a + rho a a)

where N = sinh²(r) and M = cosh(r) sinh(r) e^{i phi} characterise the
squeezed bath. All three terms are one sum

    rho -> K rho + rho K† + sum_j w_j A_j rho B_j,  K = -iH - ½ sum_j w_j B_j A_j

over the jumps (w_j, A_j, B_j) = (2 kappa (1+N), a, a†), (2 kappa N, a†, a),
(-2 kappa M, a†, a†), (-2 kappa M*, a, a) and (2 gamma, sigma_ge, sigma_eg)
(Lindblad, Commun. Math. Phys. 48, 119 (1976)), built once per generator.
Superoperators act on column-stacked density matrices: vec stacks
columns, so A rho B maps to (B^T ⊗ A) vec(rho). With these forms kappa and
gamma are amplitude rates: photon energy decays at 2 kappa and the
excited-state population at 2 gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp

from .errors import InvalidDimensionError, UnsupportedFrameError
from .operators import (
    Operator,
    Space,
    SpaceDims,
    annihilation,
    atom_sigma,
    bogoliubov_b,
    embed_field,
    lift,
)


@dataclass(frozen=True)
class SystemParams:
    """Model parameters, all in units of kappa.

    delta_A and delta_C are the atom and cavity detunings from the squeeze
    central frequency. The space says whether the atom is there: on a
    field-only space (the empty cavity) delta_A, g0 and gamma are ignored.
    """

    delta_A: float = 0.0
    delta_C: float = 0.0
    g0: float = 0.0
    gamma: float = 0.0
    kappa: float = 1.0

    def __post_init__(self):
        for name in ("delta_A", "delta_C", "g0", "gamma", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if self.gamma < 0 or self.g0 < 0:
            raise ValueError("gamma and g0 must be >= 0")


@dataclass(frozen=True)
class SqueezedBath:
    """Broadband squeezed vacuum with strength r and phase phi."""

    r: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.phi)):
            raise ValueError(f"r and phi must be finite, got r = {self.r}, phi = {self.phi}")
        if self.r < 0:
            raise ValueError(f"squeezing strength must be >= 0, got {self.r}")

    @property
    def n_th(self) -> float:
        """Effective thermal occupation sinh²(r)."""
        return float(np.sinh(self.r) ** 2)

    @property
    def m_corr(self) -> complex:
        """Two-photon correlation cosh(r) sinh(r) e^{i phi}."""
        return complex(np.cosh(self.r) * np.sinh(self.r) * np.exp(1j * self.phi))


@dataclass(frozen=True)
class Superoperator:
    """Sparse d²×d² generator on a space of dimension d, acting on vec(rho)."""

    space: Space
    matrix: sp.csr_matrix = field(repr=False)

    def __post_init__(self):
        m = self.matrix.tocsr()
        if m.shape != (self.dim**2, self.dim**2):
            raise InvalidDimensionError(
                f"superoperator matrix shape {m.shape} does not match its space {self.space}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.space.dim

    def trace_residual(self) -> float:
        """max |vec(I)^T L|; zero for any trace-preserving generator."""
        return float(np.abs(trace_row(self.dim) @ self.matrix).max())


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape((dim, dim), order="F")


def trace_row(dim: int) -> np.ndarray:
    """Row vector vec(I)^T: left null vector of any trace-preserving generator."""
    row = np.zeros(dim * dim)
    row[:: dim + 1] = 1.0
    return row


def _lindblad(space: Space, K, jumps=()) -> sp.csr_matrix:
    """Superoperator of rho -> K rho + rho K† + sum_j w_j A_j rho B_j for the
    jumps (w_j, A_j, B_j), summed once from the Kronecker products I ⊗ K,
    conj(K) ⊗ I and B_jᵀ ⊗ A_j. Jumps of zero weight are skipped and exact
    zeros dropped, so the pattern holds only the couplings present."""
    d = space.dim
    eye = sp.identity(d, dtype=complex, format="coo")
    K = sp.coo_matrix(K)
    terms = [sp.kron(eye, K, format="coo"), sp.kron(K.conj(), eye, format="coo")]
    terms += [w * sp.kron(sp.coo_matrix(B).T, A, format="coo") for w, A, B in jumps if w != 0]
    m = sp.csr_matrix((np.concatenate([t.data for t in terms]),
                       (np.concatenate([t.row for t in terms]),
                        np.concatenate([t.col for t in terms]))), shape=(d * d, d * d))
    m.eliminate_zeros()
    return m


def _hamiltonian(params: SystemParams, x: Operator) -> sp.csr_matrix:
    """delta_C x†x, plus delta_A sigma_ee + g0 (sigma_eg x + h.c.) on the
    composite space, on x's space as a sparse matrix."""
    xs = sp.csr_matrix(x.matrix)
    h = params.delta_C * (xs.conj().T @ xs)
    if isinstance(x.space, SpaceDims):
        s_ee = sp.csr_matrix(lift(atom_sigma("e", "e"), "atom", x.space).matrix)
        s_eg = sp.csr_matrix(lift(atom_sigma("e", "g"), "atom", x.space).matrix)
        coupling = s_eg @ xs
        h = h + params.delta_A * s_ee + params.g0 * (coupling + coupling.conj().T)
    return h


def _assemble(params: SystemParams, x: Operator, c: Operator, n_th: float,
              m_corr: complex) -> Superoperator:
    """The whole generator in one Lindblad form, rho -> K rho + rho K† +
    sum_j w_j A_j rho B_j with K = -iH - ½ sum_j w_j B_j A_j: x is the field
    operator in H, c the cavity's jump operator into a bath with (N, M), and
    the atom, on the composite space, decays through sigma_ge."""
    h = _hamiltonian(params, x)
    kappa = params.kappa
    a = sp.csr_matrix(c.matrix)
    ad = a.conj().T.tocsr()
    jumps = [(2.0 * kappa * (1.0 + n_th), a, ad), (2.0 * kappa * n_th, ad, a),
             (-2.0 * kappa * m_corr, ad, ad), (-2.0 * kappa * np.conj(m_corr), a, a)]
    if isinstance(x.space, SpaceDims):
        s_ge = sp.csr_matrix(lift(atom_sigma("g", "e"), "atom", x.space).matrix)
        jumps.append((2.0 * params.gamma, s_ge, s_ge.conj().T.tocsr()))
    K = -1j * h - 0.5 * sum(w * (B @ A) for w, A, B in jumps)
    return Superoperator(x.space, _lindblad(x.space, K, jumps))


def build_liouvillian(params: SystemParams, bath: SqueezedBath, space: Space) -> Superoperator:
    """Full generator: coherent part, cavity damping into the bath and, on
    the composite space, the atom's damping."""
    a = embed_field(space, annihilation)
    return _assemble(params, a, a, bath.n_th, bath.m_corr)


def build_bogoliubov_liouvillian(params: SystemParams, bath: SqueezedBath,
                                 space: Space) -> Superoperator:
    """Generator rewritten in the squeezed-frame mode b = cosh(r) a - sinh(r) a†.

    Valid only at zero detunings and zero phase (else UnsupportedFrameError).
    The cavity sees an ordinary vacuum bath in b, the atom couples through
    g0 sigma_eg (cosh(r) b + sinh(r) b†) + h.c., and the atomic dissipator
    is kept unchanged since the frame change acts on the field alone.
    """
    if bath.phi != 0.0 or params.delta_A != 0.0 or params.delta_C != 0.0:
        raise UnsupportedFrameError(
            "the squeezed-frame generator is only defined at phi = delta_A = delta_C = 0, "
            f"got phi = {bath.phi}, delta_A = {params.delta_A}, delta_C = {params.delta_C}"
        )
    ch, sh = float(np.cosh(bath.r)), float(np.sinh(bath.r))
    b = embed_field(space, partial(bogoliubov_b, bath.r))
    return _assemble(params, ch * b + sh * b.dag(), b, 0.0, 0.0)
