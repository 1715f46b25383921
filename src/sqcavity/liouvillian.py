"""Hamiltonian, dissipators, and Liouvillian assembly.

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
squeezed bath. Superoperators act on column-stacked density matrices:
vec stacks columns, so A rho B maps to (B^T ⊗ A) vec(rho). With these
forms kappa and gamma are amplitude rates: photon energy decays at
2 kappa and the excited-state population at 2 gamma.
"""

from __future__ import annotations

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
    central frequency. atom_present=False drops the atomic terms entirely
    (empty-cavity model); the builders then also accept a field-only space.
    """

    delta_A: float = 0.0
    delta_C: float = 0.0
    g0: float = 0.0
    gamma: float = 0.0
    kappa: float = 1.0
    atom_present: bool = True

    def __post_init__(self):
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
    """Sparse d²×d² generator acting on column-stacked density matrices."""

    dim: int
    matrix: sp.csr_matrix = field(repr=False)
    space: Space | None = None
    rate_scale: float | None = None

    def __post_init__(self):
        m = self.matrix.tocsr()
        if m.shape != (self.dim**2, self.dim**2):
            raise InvalidDimensionError(
                f"superoperator matrix shape {m.shape} does not match dim {self.dim}"
            )
        object.__setattr__(self, "matrix", m)

    def trace_residual(self) -> float:
        """max |vec(I)^T L|; zero for any trace-preserving generator."""
        return float(np.abs(trace_row(self.dim) @ self.matrix).max())

    def __add__(self, other: "Superoperator") -> "Superoperator":
        if self.dim != other.dim:
            raise InvalidDimensionError("adding superoperators of different dimension")
        scale = max(
            (s for s in (self.rate_scale, other.rate_scale) if s is not None),
            default=None,
        )
        return Superoperator(self.dim, self.matrix + other.matrix, self.space or other.space, scale)


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


def _rate_scale(params: SystemParams, n_th: float, m_abs: float) -> float:
    return max(
        abs(params.delta_A),
        abs(params.delta_C),
        params.g0,
        params.gamma,
        params.kappa * (1.0 + 2.0 * n_th + 2.0 * m_abs),
    )


def _hamiltonian(params: SystemParams, x: Operator) -> Operator:
    """delta_C x†x (+ delta_A sigma_ee + g0 (sigma_eg x + h.c.)) on x's space."""
    h = params.delta_C * (x.dag() @ x)
    if params.atom_present:
        if not isinstance(x.space, SpaceDims):
            raise InvalidDimensionError("field-only space requires atom_present=False")
        s_ee = lift(atom_sigma("e", "e"), "atom", x.space)
        s_eg = lift(atom_sigma("e", "g"), "atom", x.space)
        coupling = s_eg @ x
        h = h + params.delta_A * s_ee + params.g0 * (coupling + coupling.dag())
    return h


def build_hamiltonian(params: SystemParams, space: Space) -> Operator:
    """Rotating-frame Hamiltonian on a composite or (atom-free) field space."""
    return _hamiltonian(params, embed_field(space, annihilation))


def atom_dissipator(gamma: float, dims: SpaceDims) -> Superoperator:
    """Spontaneous-emission term gamma (2 s_ge rho s_eg - s_ee rho - rho s_ee)."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    s_ge = lift(atom_sigma("g", "e"), "atom", dims).matrix
    s_ee = lift(atom_sigma("e", "e"), "atom", dims).matrix
    m = _lindblad(dims, -gamma * s_ee, [(2.0 * gamma, s_ge, s_ge.conj().T)])
    return Superoperator(dims.dim, m, dims, rate_scale=gamma)


def _cavity_dissipator(kappa: float, c: Operator, n_th: float, m_corr: complex) -> Superoperator:
    """Cavity damping through the jump operator c into a bath with (N, M)."""
    a = sp.csr_matrix(c.matrix)
    ad = a.conj().T.tocsr()
    jumps = [(2.0 * kappa * (1.0 + n_th), a, ad), (2.0 * kappa * n_th, ad, a),
             (-2.0 * kappa * m_corr, ad, ad), (-2.0 * kappa * np.conj(m_corr), a, a)]
    m = _lindblad(c.space, -0.5 * sum(w * (B @ A) for w, A, B in jumps), jumps)
    rate = kappa * (1.0 + 2.0 * n_th + 2.0 * abs(m_corr))
    return Superoperator(c.space.dim, m, c.space, rate_scale=rate)


def cavity_squeezed_dissipator(kappa: float, bath: SqueezedBath, space: Space) -> Superoperator:
    """Cavity damping into the broadband squeezed bath (all four lines)."""
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    return _cavity_dissipator(kappa, embed_field(space, annihilation), bath.n_th, bath.m_corr)


def hamiltonian_superoperator(h: Operator) -> Superoperator:
    """Coherent part -i[H, .] of a Hermitian H as a superoperator."""
    return Superoperator(h.space.dim, _lindblad(h.space, -1j * h.matrix), h.space)


def _assemble(params: SystemParams, x: Operator, c: Operator, n_th: float, m_corr: complex,
              rate_scale: float) -> Superoperator:
    """-i[H, .] with x the field operator in H, plus the cavity dissipator
    with jump c and bath (N, M), plus the atomic dissipator."""
    total = hamiltonian_superoperator(_hamiltonian(params, x))
    total = total + _cavity_dissipator(params.kappa, c, n_th, m_corr)
    if params.atom_present:
        total = total + atom_dissipator(params.gamma, x.space)
    return Superoperator(total.dim, total.matrix, x.space, rate_scale=rate_scale)


def build_liouvillian(params: SystemParams, bath: SqueezedBath, space: Space) -> Superoperator:
    """Full generator: coherent part plus atomic and cavity dissipators."""
    a = embed_field(space, annihilation)
    n_th, m_corr = bath.n_th, bath.m_corr
    return _assemble(params, a, a, n_th, m_corr, _rate_scale(params, n_th, abs(m_corr)))


def build_bogoliubov_liouvillian(params: SystemParams, r: float, space: Space) -> Superoperator:
    """Generator rewritten in the squeezed-frame mode b = cosh(r) a - sinh(r) a†.

    Valid only at zero detunings and zero squeezing phase. The cavity sees
    an ordinary vacuum bath in b, the atom couples through
    g0 sigma_eg (cosh(r) b + sinh(r) b†) + h.c., and the atomic dissipator
    is kept unchanged since the frame change acts on the field alone.
    """
    if params.delta_A != 0.0 or params.delta_C != 0.0:
        raise UnsupportedFrameError(
            "the squeezed-frame generator is only defined at delta_A = delta_C = 0"
        )
    ch, sh = float(np.cosh(r)), float(np.sinh(r))
    b = embed_field(space, partial(bogoliubov_b, r))
    return _assemble(params, ch * b + sh * b.dag(), b, 0.0, 0.0,
                     _rate_scale(params, sh * sh, ch * sh))
