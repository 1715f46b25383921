"""The model's generator, in one Lindblad form.

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
(Lindblad, Commun. Math. Phys. 48, 119 (1976)). Superoperators act on
column-stacked density matrices: vec stacks columns, so A rho B maps to
(B^T ⊗ A) vec(rho). With these forms kappa and gamma are amplitude rates:
photon energy decays at 2 kappa and the excited-state population at
2 gamma.

The generator is linear in K and in the weights w_j, and in the lab frame
these are affine in the bath, L = L_0 + N L_N + M L_M + M* L_M̄: H, the
jump operators, the products B_j A_j and K's pattern do not depend on
(N, M). Both builders go through one plan of these (`_Plan`):
`build_liouvillian` keeps it per (params, space) in a small cache, and
`build_bogoliubov_liouvillian`, whose b = cosh(r) a - sinh(r) a† moves
with r, makes one per call. A generator, `Superoperator(plan, k, weights)`,
is then its plan with the point's K and weights, and it is made no other
way. `steady_state` forms the system it solves from the plan,
and the d²×d² matrix is formed only when it is asked for (`evolve` asks),
as the one-pass sum of all `sp.kron` products; no pattern of it is cached.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from ._cache import shared_cache
from .errors import UnsupportedFrameError
from .operators import (
    Space,
    SpaceDims,
    annihilation,
    atom_sigma,
    bogoliubov_b,
    embed_field,
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
        with np.errstate(over="ignore", invalid="ignore"):
            bath = (self.n_th, self.m_corr)
        if not all(map(cmath.isfinite, bath)):  # r above about 355
            raise ValueError(f"squeezing strength r = {self.r} overflows the bath: "
                             "N = sinh²r or M = cosh r sinh r e^{i phi} is not finite")

    @property
    def n_th(self) -> float:
        """Effective thermal occupation sinh²(r)."""
        return float(np.sinh(self.r) ** 2)

    @property
    def m_corr(self) -> complex:
        """Two-photon correlation cosh(r) sinh(r) e^{i phi}."""
        return complex(np.cosh(self.r) * np.sinh(self.r) * np.exp(1j * self.phi))


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape((dim, dim), order="F")


def _kron_factors(space: Space, K, jumps) -> list:
    """The factors (left, right, weight) of the Kronecker products I ⊗ K,
    conj(K) ⊗ I and w_j B_jᵀ ⊗ A_j of rho -> K rho + rho K† +
    sum_j w_j A_j rho B_j, in COO form; jumps of zero weight are skipped."""
    eye = sp.identity(space.dim, dtype=complex, format="coo")
    K = sp.coo_matrix(K)
    return [(eye, K, 1.0), (K.conj(), eye, 1.0)] + [
        (sp.coo_matrix(B).T, sp.coo_matrix(A), w) for w, A, B in jumps if w != 0]


def _field(space: Space, field_op) -> sp.csr_matrix:
    """`embed_field(space, field_op)`, sparse, formed without a d×d array."""
    if isinstance(space, SpaceDims):
        field = sp.csr_matrix(field_op(space.fock_cutoff).matrix)
        return sp.kron(sp.identity(2), field, format="csr")
    return sp.csr_matrix(embed_field(space, field_op).matrix)


def _hamiltonian(params: SystemParams, space: Space, x: sp.csr_matrix) -> sp.csr_matrix:
    """delta_C x†x, plus delta_A sigma_ee + g0 (sigma_eg x + h.c.) on the
    composite space, for the sparse field operator x on this space."""
    h = params.delta_C * (x.conj().T @ x)
    if isinstance(space, SpaceDims):
        eye = sp.identity(space.fock_cutoff)
        s_ee, s_eg = (sp.kron(atom_sigma("e", j).matrix, eye, format="csr") for j in "eg")
        coupling = s_eg @ x
        h = h + params.delta_A * s_ee + params.g0 * (coupling + coupling.conj().T)
    return h


def _jump_operators(space: Space, a: sp.csr_matrix) -> list:
    """(A, B) of each jump: the cavity's into the bath through the sparse
    field operator a, then, on the composite space, the atom's through sigma_ge."""
    ad = a.conj().T.tocsr()
    operators = [(a, ad), (ad, a), (ad, ad), (a, a)]
    if isinstance(space, SpaceDims):
        s_ge = sp.kron(atom_sigma("g", "e").matrix, sp.identity(space.fock_cutoff), format="csr")
        operators.append((s_ge, s_ge.conj().T.tocsr()))
    return operators


def _weights(params: SystemParams, n_th: float, m_corr: complex) -> tuple:
    """The jump weights, in the order of _jump_operators, for a bath with
    (N, M) = (n_th, m_corr); the atom's comes last."""
    kappa = params.kappa
    return (2.0 * kappa * (1.0 + n_th), 2.0 * kappa * n_th, -2.0 * kappa * m_corr,
            -2.0 * kappa * np.conj(m_corr), 2.0 * params.gamma)


def _no_jump_part(h, weights, products):
    """K = -iH - ½ sum_j w_j B_j A_j over the jumps of nonzero weight, from H
    and the products B_j A_j: sparse matrices, or their values on one
    pattern, which gives the same values. A bath strong enough to overflow
    K leaves it non-finite without a warning: `steady_state` refuses it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return -1j * h + -0.5 * sum(w * p for w, p in zip(weights, products) if w != 0)


def _read_only(arrays):
    """Mark each of these arrays read-only; returns them."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


@dataclass(frozen=True, eq=False)
class _Plan:
    """The bath-free part of one model's generator: the pattern (row, col)
    K has at any jump weights, H and the products B_j A_j as values on it,
    and the jump operators (A_j, B_j) as sparse matrices. Compared and
    hashed by identity, so what is derived from a plan is cached per plan.
    Read-only."""

    space: Space
    row: np.ndarray
    col: np.ndarray
    h: np.ndarray
    products: tuple
    jumps: tuple

    def operator(self, values) -> sp.csr_matrix:
        """The d×d matrix with these values on the plan's pattern."""
        d = self.space.dim
        return sp.csr_matrix((values, (self.row, self.col)), shape=(d, d))


def _make_plan(space: Space, h, operators) -> _Plan:
    """The plan of the generator with Hamiltonian h and jumps (A_j, B_j)."""
    products = [B @ A for A, B in operators]
    # K's pattern at any weights: every jump's at a nonzero one
    K = sp.coo_matrix(abs(h) + sum(abs(p) for p in products))

    def on_pattern(m):
        # m's entries at K's (scipy reads an empty pattern as a sparse matrix);
        # adding 0.0 turns a -0.0 part into +0.0, as a dense copy would
        values = sp.csr_matrix(m)[K.row, K.col] if K.nnz else np.zeros(0, m.dtype)
        return np.asarray(values).ravel() + 0.0

    plan = _Plan(space, K.row, K.col, on_pattern(h), tuple(map(on_pattern, products)),
                 tuple((A.tocsr(), B.tocsr()) for A, B in operators))
    _read_only((plan.row, plan.col, plan.h, *plan.products,
                *(x for pair in plan.jumps for m in pair for x in (m.data, m.indices, m.indptr))))
    return plan


@shared_cache(maxsize=2)
def _plan(params: SystemParams, space: Space) -> _Plan:
    """The lab-frame generator's plan; the two most recent are kept."""
    a = _field(space, annihilation)
    return _make_plan(space, _hamiltonian(params, space, a), _jump_operators(space, a))


def _at(plan: _Plan, weights) -> Superoperator:
    """The generator of the planned model at these jump weights."""
    weights = tuple(weights[:len(plan.jumps)])
    return Superoperator(plan, _no_jump_part(plan.h, weights, plan.products), weights)


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Sparse d²×d² generator on a space of dimension d, acting on vec(rho).

    One point of a planned model: the model's `_Plan`, K's values `k` on
    the plan's pattern and the weights of the plan's jumps, as the builders
    make it. It forms its matrix on first access as the one-pass sum of its
    Kronecker products, each by `sp.kron` and scaled by its weight, with no
    pattern cached; its trace check and its action on a state need no
    matrix, and `steady_state` solves it from the plan.
    """

    plan: _Plan
    k: np.ndarray
    weights: tuple

    @property
    def space(self) -> Space:
        return self.plan.space

    @property
    def dim(self) -> int:
        return self.space.dim

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The one-pass sum of the weighted Kronecker products, exact zeros dropped."""
        factors = _kron_factors(self.space, self.plan.operator(self.k),
                                [(w, A, B) for w, (A, B) in zip(self.weights, self.plan.jumps)])
        products = [(sp.kron(left, right, format="coo"), w) for left, right, w in factors]
        rows, cols, values = zip(*[(p.row, p.col, w * p.data) for p, w in products])
        m = sp.csr_matrix((np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(self.dim**2, self.dim**2), dtype=complex)
        m.eliminate_zeros()
        return m

    def trace_residual(self) -> float:
        """max |vec(I)^T L|; zero for any trace-preserving generator. Entry
        (k, l) of vec(I)^T L is entry (l, k) of K + K† + sum_j w_j B_j A_j,
        which is summed on the d×d space."""
        K = self.plan.operator(self.k)
        jumps = sum((w * p for w, p in zip(self.weights, self.plan.products) if w != 0),
                    np.zeros_like(self.k))
        return float(np.abs((K + K.conj().T + self.plan.operator(jumps)).data).max(initial=0.0))

    def act(self, rho: np.ndarray) -> np.ndarray:
        """L(rho) for a d×d rho, in the Lindblad form
        K rho + rho K† + sum_j w_j A_j rho B_j with sparse factors, which
        needs no d²×d² matrix."""
        K = self.plan.operator(self.k)
        out = K @ rho + (K.conj() @ rho.T).T  # rho K† = (conj(K) rho^T)^T
        for w, (A, B) in zip(self.weights, self.plan.jumps):
            if w != 0:
                out += w * (A @ (B.T @ rho.T).T)
        return out


def build_liouvillian(params: SystemParams, bath: SqueezedBath, space: Space) -> Superoperator:
    """Full generator: coherent part, cavity damping into the bath and, on
    the composite space, the atom's damping. H and the jump operators are
    planned once per (params, space); each call forms K and the jump
    weights of its bath."""
    return _at(_plan(params, space), _weights(params, bath.n_th, bath.m_corr))


def build_bogoliubov_liouvillian(params: SystemParams, bath: SqueezedBath,
                                 space: Space) -> Superoperator:
    """Generator rewritten in the squeezed-frame mode b = cosh(r) a - sinh(r) a†.

    Valid only at zero detunings and zero phase (else UnsupportedFrameError).
    The cavity sees an ordinary vacuum bath in b, the atom couples through
    g0 sigma_eg (cosh(r) b + sinh(r) b†) + h.c., and the atomic dissipator
    is kept unchanged since the frame change acts on the field alone. Its
    plan moves with r, so it is made for each call and not kept.
    """
    if bath.phi != 0.0 or params.delta_A != 0.0 or params.delta_C != 0.0:
        raise UnsupportedFrameError(
            "the squeezed-frame generator is only defined at phi = delta_A = delta_C = 0, "
            f"got phi = {bath.phi}, delta_A = {params.delta_A}, delta_C = {params.delta_C}"
        )
    ch, sh = float(np.cosh(bath.r)), float(np.sinh(bath.r))
    b = _field(space, partial(bogoliubov_b, bath.r))
    plan = _make_plan(space, _hamiltonian(params, space, ch * b + sh * b.conj().T),
                      _jump_operators(space, b))
    return _at(plan, _weights(params, 0.0, 0.0))
