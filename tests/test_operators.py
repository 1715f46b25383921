import math
import sys

import numpy as np
import pytest

from sqcavity import (
    FieldSpace,
    InvalidDimensionError,
    InvalidLabelError,
    SpaceDims,
    annihilation,
    atom_sigma,
    bogoliubov_b,
    lift,
    number_operator,
)
from conftest import squeezed_state_vector


class TestAnnihilation:
    def test_cutoff_two(self):
        assert np.array_equal(annihilation(2).matrix, [[0, 1], [0, 0]])

    def test_ladder_entries(self):
        a = annihilation(4).matrix
        expected = np.zeros((4, 4))
        expected[0, 1], expected[1, 2], expected[2, 3] = 1, np.sqrt(2), np.sqrt(3)
        assert np.allclose(a, expected)

    def test_number_operator(self):
        assert np.allclose(number_operator(3).matrix, np.diag([0, 1, 2]))

    def test_matrix_elements_exact(self):
        n = 12
        a = annihilation(n).matrix
        for row in range(n):
            for col in range(n):
                expected = np.sqrt(col) if row == col - 1 else 0.0
                assert a[row, col] == expected

    def test_cutoff_below_two_rejected(self):
        with pytest.raises(InvalidDimensionError):
            annihilation(1)

    def test_commutator_truncation_artifact(self):
        n = 7
        a = annihilation(n)
        comm = (a @ a.dag() - a.dag() @ a).matrix
        expected = np.eye(n)
        expected[-1, -1] = 1 - n
        assert np.abs(comm - expected).max() < 1e-12


class TestAtomSigma:
    def test_eg_matrix(self):
        assert np.array_equal(atom_sigma("e", "g").matrix, [[0, 0], [1, 0]])

    def test_projector_algebra(self):
        prod = atom_sigma("e", "g") @ atom_sigma("g", "e")
        assert np.array_equal(prod.matrix, atom_sigma("e", "e").matrix)

    def test_completeness(self):
        total = atom_sigma("e", "e") + atom_sigma("g", "g")
        assert np.array_equal(total.matrix, np.eye(2))

    def test_unknown_label(self):
        with pytest.raises(InvalidLabelError):
            atom_sigma("e", "x")


class TestLift:
    def test_atom_projector_ordering(self):
        dims = SpaceDims(3)
        lifted = lift(atom_sigma("e", "e"), "atom", dims)
        assert np.allclose(lifted.matrix, np.diag([0, 0, 0, 1, 1, 1]))

    def test_field_number_ordering(self):
        dims = SpaceDims(3)
        lifted = lift(number_operator(3), "field", dims)
        assert np.allclose(lifted.matrix, np.diag([0, 1, 2, 0, 1, 2]))

    def test_cutoff_mismatch_rejected(self):
        with pytest.raises(InvalidDimensionError):
            lift(annihilation(5), "field", SpaceDims(4))

    def test_wrong_subsystem_rejected(self):
        with pytest.raises(InvalidDimensionError):
            lift(annihilation(4), "atom", SpaceDims(4))

    def test_lift_is_product_homomorphism(self):
        dims = SpaceDims(5)
        a = annihilation(5)
        lhs = lift(a @ a.dag(), "field", dims).matrix
        rhs = (lift(a, "field", dims) @ lift(a.dag(), "field", dims)).matrix
        assert np.array_equal(lhs, rhs)

    def test_atom_and_field_lifts_commute(self):
        dims = SpaceDims(4)
        x = lift(atom_sigma("e", "g"), "atom", dims)
        y = lift(annihilation(4), "field", dims)
        assert np.array_equal((x @ y).matrix, (y @ x).matrix)


class TestBogoliubov:
    def test_zero_squeezing_is_annihilation(self):
        assert np.allclose(bogoliubov_b(0.0, 10).matrix, annihilation(10).matrix)

    def test_canonical_commutator_on_interior(self):
        n, guard = 30, 4
        b = bogoliubov_b(0.8, n)
        comm = (b @ b.dag() - b.dag() @ b).matrix
        interior = comm[: n - guard, : n - guard]
        assert np.abs(interior - np.eye(n - guard)).max() < 1e-10

    def test_annihilates_squeezed_vacuum(self):
        r, n = 0.5, 40
        psi = squeezed_state_vector(r, n)
        assert np.linalg.norm(bogoliubov_b(r, n).matrix @ psi) < 1e-6

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            bogoliubov_b(-0.1, 10)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_r_rejected(self, r):
        # cosh and sinh of these would fill b with NaN
        with pytest.raises(ValueError, match=f"finite and >= 0, got {r}"):
            bogoliubov_b(r, 10)

    @pytest.mark.parametrize("cutoff", [2, 10])
    def test_r_whose_b_overflows_rejected(self, cutoff):
        # b's largest entry is cosh(r) sqrt(cutoff - 1); from r = 800 on
        # cosh itself overflows, and b would be NaN where a has no entry
        limit = math.acosh(sys.float_info.max / math.sqrt(cutoff - 1))
        below = bogoliubov_b(limit - 0.01, cutoff).matrix
        assert np.all(np.isfinite(below))
        assert np.abs(below).max() > 1e307
        for r in (limit + 0.01, 800.0):
            with pytest.raises(ValueError, match=f"r must be at most {limit:.2f}"):
                bogoliubov_b(r, cutoff)
