"""Operator algebra on a truncated Fock space and the atom-field composite.

All matrices are dense complex numpy arrays. The composite ordering is
fixed repo-wide: the atom index is the slow (outer) index and the field
index the fast (inner) one, so the basis state |alpha> ⊗ |n> sits at flat
index alpha * fock_cutoff + n. The atomic basis order is (g, e), i.e.
index 0 is the ground state.

All rates and frequencies elsewhere in the package are expressed in units
of the cavity damping rate kappa (hbar = 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDimensionError, InvalidLabelError

ATOM_LEVELS = {"g": 0, "e": 1}


@dataclass(frozen=True)
class AtomSpace:
    """Two-level atom alone."""

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class _Truncated:
    """A space holding the cavity mode truncated to |0> .. |fock_cutoff-1>."""

    fock_cutoff: int

    def __post_init__(self):
        if self.fock_cutoff < 2:
            raise InvalidDimensionError(
                f"fock_cutoff must be >= 2, got {self.fock_cutoff}"
            )


@dataclass(frozen=True)
class FieldSpace(_Truncated):
    """Single cavity mode truncated to Fock states |0> .. |fock_cutoff-1>."""

    @property
    def dim(self) -> int:
        return self.fock_cutoff


@dataclass(frozen=True)
class SpaceDims(_Truncated):
    """Composite two-level atom ⊗ field space."""

    @property
    def dim(self) -> int:
        return 2 * self.fock_cutoff


Space = AtomSpace | FieldSpace | SpaceDims


@dataclass(frozen=True)
class Operator:
    """Dense operator tagged with the space it acts on.

    Instances are immutable and safe to share; the wrapped array must not
    be mutated after construction.
    """

    space: Space
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidDimensionError(f"operator matrix must be square, got {m.shape}")
        if m.shape[0] != self.space.dim:
            raise InvalidDimensionError(
                f"matrix dimension {m.shape[0]} does not match space dimension {self.space.dim}"
            )
        object.__setattr__(self, "matrix", m)

    def dag(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def _check_space(self, other: "Operator"):
        if self.space != other.space:
            raise InvalidDimensionError(
                f"mixing operators on different spaces: {self.space} vs {other.space}"
            )

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix @ other.matrix)

    def __add__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__


def annihilation(fock_cutoff: int) -> Operator:
    """Photon annihilation operator a with <n-1|a|n> = sqrt(n)."""
    space = FieldSpace(fock_cutoff)
    m = np.diag(np.sqrt(np.arange(1, fock_cutoff, dtype=float)), k=1).astype(complex)
    return Operator(space, m)


def number_operator(fock_cutoff: int) -> Operator:
    a = annihilation(fock_cutoff)
    return a.dag() @ a


def atom_sigma(i: str, j: str) -> Operator:
    """Atomic transition operator |i><j| with i, j in {'g', 'e'}."""
    try:
        row, col = ATOM_LEVELS[i], ATOM_LEVELS[j]
    except KeyError as exc:
        raise InvalidLabelError(f"unknown atomic level {exc.args[0]!r}; use 'g' or 'e'") from None
    m = np.zeros((2, 2), dtype=complex)
    m[row, col] = 1.0
    return Operator(AtomSpace(), m)


def lift(op: Operator, subsystem: str, dims: SpaceDims) -> Operator:
    """Embed a single-subsystem operator into the composite space.

    The Kronecker ordering is atom ⊗ field, matching the fixed basis
    convention of this package.
    """
    if subsystem == "atom":
        if not isinstance(op.space, AtomSpace):
            raise InvalidDimensionError("subsystem 'atom' requires an atom-space operator")
        m = np.kron(op.matrix, np.eye(dims.fock_cutoff, dtype=complex))
    elif subsystem == "field":
        if not isinstance(op.space, FieldSpace):
            raise InvalidDimensionError("subsystem 'field' requires a field-space operator")
        if op.space.fock_cutoff != dims.fock_cutoff:
            raise InvalidDimensionError(
                f"field operator cutoff {op.space.fock_cutoff} does not match dims "
                f"cutoff {dims.fock_cutoff}"
            )
        m = np.kron(np.eye(2, dtype=complex), op.matrix)
    else:
        raise InvalidLabelError(f"unknown subsystem {subsystem!r}; use 'atom' or 'field'")
    return Operator(dims, m)


def embed_field(space: Space, field_op) -> Operator:
    """`field_op(fock_cutoff)` embedded in a field or composite space."""
    if isinstance(space, SpaceDims):
        return lift(field_op(space.fock_cutoff), "field", space)
    if isinstance(space, FieldSpace):
        return field_op(space.fock_cutoff)
    raise InvalidDimensionError(f"expected a field or composite space, got {space}")


def bogoliubov_b(r: float, fock_cutoff: int) -> Operator:
    """Squeezed-frame mode b = cosh(r) a - sinh(r) a† (phase 0)."""
    if r < 0:
        raise ValueError(f"squeezing strength must be >= 0, got {r}")
    a = annihilation(fock_cutoff)
    return np.cosh(r) * a - np.sinh(r) * a.dag()
