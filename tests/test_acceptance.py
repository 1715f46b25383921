"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Steady-state sweeps reuse a session cache; per-point Fock cutoffs follow
the squeezed-vacuum tail estimate with the default guard band, with and
without the atom. Every accepted state's diagnostics are collected and
re-checked at the end.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from sqcavity import (
    FieldSpace,
    SpaceDims,
    SqueezedBath,
    SystemParams,
    atom_excited_population,
    build_bogoliubov_liouvillian,
    build_liouvillian,
    evolve,
    expectation,
    lift,
    make_density_matrix,
    mean_photon_number,
    pair_amplitude,
    partial_trace_atom,
    photon_distribution,
    purity,
    quadrature_moments,
    steady_state,
    suggest_fock_cutoff,
    unvec,
    vec,
    wigner,
    wigner_integral,
)
from sqcavity.operators import bogoliubov_b
from sqcavity.sweep import default_r_grid
from conftest import squeezed_photon_numbers

GAMMA = 1.0


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {description}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {description}: PASS")


@pytest.fixture(scope="module")
def store():
    return {"points": {}, "diags": []}


def solve_point(store, atom, g0, r, phi=0.0):
    """Steady-state observables at one parameter point, cached per session."""
    key = (atom, g0, r, phi)
    if key in store["points"]:
        return store["points"][key]
    cutoff = suggest_fock_cutoff(r)
    if atom:
        space = SpaceDims(cutoff)
        params = SystemParams(g0=g0, gamma=GAMMA)
    else:
        space = FieldSpace(cutoff)
        params = SystemParams(atom_present=False)
    L = build_liouvillian(params, SqueezedBath(r=r, phi=phi), space)
    rho = steady_state(L)
    dist = photon_distribution(rho)
    aa = pair_amplitude(rho)
    point = {
        "cutoff": cutoff,
        "guard": max(4, cutoff // 5),  # the default guard band
        "mean_n": mean_photon_number(rho),
        "P": dist.probabilities,
        "abs_aa": abs(aa),
        "arg_aa": float(np.angle(aa)),
        "rho_ee": atom_excited_population(rho) if atom else 0.0,
        "purity": purity(rho),
    }
    store["points"][key] = point
    store["diags"].append({
        "key": key,
        "trace_dev": abs(rho.matrix.trace() - 1.0),
        "herm_dev": float(np.abs(rho.matrix - rho.matrix.conj().T).max()),
        "min_eig": rho.diagnostics.min_eigenvalue,
        "tail_mass": dist.tail_mass,
    })
    return point


def grid_from(lo):
    return [r for r in default_r_grid() if r >= lo - 1e-12]


def test_criterion_01_empty_cavity_closed_form(store):
    with criterion(1, "empty-cavity closed-form photon statistics"):
        for r in (0.25, 0.5, 1.0, 1.5):
            point = solve_point(store, atom=False, g0=0.0, r=r)
            assert abs(point["mean_n"] - np.sinh(r) ** 2) < 1e-6
            n_report = point["cutoff"] - point["guard"]
            expected = squeezed_photon_numbers(r, point["cutoff"])
            err = np.abs(point["P"][:n_report] - expected[:n_report]).max()
            assert err < 1e-6
            assert point["P"][1:n_report:2].max() < 1e-10


def test_criterion_02_brute_force_generator_equivalence(rng):
    with criterion(2, "generator matches term-by-term master equation"):
        n = 3
        dims = SpaceDims(n)
        params = SystemParams(delta_A=0.3, delta_C=-0.2, g0=15.0, gamma=1.0)
        bath = SqueezedBath(r=0.5, phi=0.7)
        L = build_liouvillian(params, bath, dims)

        # independent dense construction with plain kron/products
        a = np.kron(np.eye(2), np.diag(np.sqrt(np.arange(1, n)), k=1)).astype(complex)
        ad = a.conj().T
        s_ge = np.kron(np.array([[0, 1], [0, 0]]), np.eye(n)).astype(complex)
        s_eg = s_ge.conj().T
        s_ee = np.kron(np.diag([0.0, 1.0]), np.eye(n)).astype(complex)
        h = (params.delta_A * s_ee + params.delta_C * ad @ a
             + params.g0 * (s_eg @ a + ad @ s_ge))
        kap, nb, mb = params.kappa, bath.n_th, bath.m_corr
        for _ in range(100):
            x = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
            rho = x + x.conj().T
            rhs = -1j * (h @ rho - rho @ h)
            rhs += params.gamma * (2 * s_ge @ rho @ s_eg - s_eg @ s_ge @ rho
                                   - rho @ s_eg @ s_ge)
            rhs += -kap * (1 + nb) * (ad @ a @ rho - 2 * a @ rho @ ad + rho @ ad @ a)
            rhs += -kap * nb * (a @ ad @ rho - 2 * ad @ rho @ a + rho @ a @ ad)
            rhs += kap * mb * (ad @ ad @ rho - 2 * ad @ rho @ ad + rho @ ad @ ad)
            rhs += kap * np.conj(mb) * (a @ a @ rho - 2 * a @ rho @ a + rho @ a @ a)
            lhs = unvec(L.matrix @ vec(rho), 2 * n)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_criterion_03_single_photon_sensing_contrast(store):
    with criterion(3, "P(1) contrast between atom and empty cavity"):
        for r in grid_from(0.25):
            with_atom = solve_point(store, atom=True, g0=15.0, r=r)
            empty = solve_point(store, atom=False, g0=0.0, r=r)
            assert with_atom["P"][1] > 1e-3
            assert empty["P"][1] < 1e-10


def test_criterion_04_pair_amplitude_suppression(store):
    with criterion(4, "|<aa>| strictly ordered: strong < weak < empty"):
        for r in grid_from(0.1):
            strong = solve_point(store, atom=True, g0=15.0, r=r)["abs_aa"]
            weak = solve_point(store, atom=True, g0=5.0, r=r)["abs_aa"]
            empty = solve_point(store, atom=False, g0=0.0, r=r)["abs_aa"]
            assert strong < weak < empty


def test_criterion_05_excited_population_growth(store):
    with criterion(5, "rho_ee strictly increasing in r on [0, 1]"):
        rs = [round(0.05 * k, 10) for k in range(21)]
        for g0 in (5.0, 15.0):
            values = [solve_point(store, atom=True, g0=g0, r=r)["rho_ee"] for r in rs]
            assert all(b > a for a, b in zip(values, values[1:]))


def test_criterion_06_bogoliubov_cross_check():
    with criterion(6, "lab and squeezed-frame steady states agree"):
        cutoff = 60
        space = SpaceDims(cutoff)
        for g0 in (5.0, 15.0):
            params = SystemParams(g0=g0, gamma=GAMMA)
            for r in (0.25, 0.5):
                rho_lab = steady_state(build_liouvillian(params, SqueezedBath(r), space))
                rho_bog = steady_state(build_bogoliubov_liouvillian(params, r, space))
                b = bogoliubov_b(r, cutoff)
                a_from_b = np.cosh(r) * b + np.sinh(r) * b.dag()
                n_op = lift(a_from_b.dag() @ a_from_b, "field", space)
                mean_bog = expectation(rho_bog, n_op).real
                assert abs(mean_photon_number(rho_lab) - mean_bog) < 1e-4
                assert abs(atom_excited_population(rho_lab)
                           - atom_excited_population(rho_bog)) < 1e-4


def test_criterion_07_phase_covariance(store):
    with criterion(7, "observables independent of squeezing phase"):
        r = 0.5
        base = solve_point(store, atom=True, g0=15.0, r=r, phi=0.0)
        for phi in (np.pi / 4, np.pi):
            shifted = solve_point(store, atom=True, g0=15.0, r=r, phi=phi)
            assert abs(shifted["mean_n"] - base["mean_n"]) < 1e-8
            assert abs(shifted["rho_ee"] - base["rho_ee"]) < 1e-8
            assert abs(shifted["abs_aa"] - base["abs_aa"]) < 1e-8
            assert np.abs(shifted["P"] - base["P"]).max() < 1e-8
            arg_shift = shifted["arg_aa"] - base["arg_aa"]
            wrapped = (arg_shift - phi + np.pi) % (2 * np.pi) - np.pi
            assert abs(wrapped) < 1e-8


def test_criterion_08_wigner_function_validity():
    with criterion(8, "Wigner: vacuum value, squeezing ratio, atom rounding"):
        axis = np.linspace(-5.0, 5.0, 101)

        vac = steady_state(build_liouvillian(
            SystemParams(atom_present=False), SqueezedBath(0.0), FieldSpace(20)))
        grid_vac = wigner(vac, axis, axis)
        assert abs(grid_vac.values[50, 50] - 1 / np.pi) < 1e-6
        assert abs(wigner_integral(grid_vac) - 1.0) < 1e-3

        r = 0.5
        empty = steady_state(build_liouvillian(
            SystemParams(atom_present=False), SqueezedBath(r), FieldSpace(60)))
        grid_empty = wigner(empty, axis, axis)
        assert abs(wigner_integral(grid_empty) - 1.0) < 1e-3
        _, _, var_q, var_p = quadrature_moments(grid_empty)
        ratio_empty = var_q / var_p
        assert abs(ratio_empty - np.exp(4 * r)) < 0.02 * np.exp(4 * r)

        L = build_liouvillian(SystemParams(g0=15.0, gamma=GAMMA), SqueezedBath(r),
                              SpaceDims(60))
        field = partial_trace_atom(steady_state(L))
        grid_atom = wigner(field, axis, axis)
        assert abs(wigner_integral(grid_atom) - 1.0) < 1e-3
        _, _, var_q, var_p = quadrature_moments(grid_atom)
        ratio_atom = max(var_q, var_p) / min(var_q, var_p)
        assert abs(ratio_atom - 1.0) < abs(ratio_empty - 1.0)


def test_criterion_09_rk4_dynamics_sanity():
    with criterion(9, "RK4 decay accuracy and 4th-order convergence"):
        L = build_liouvillian(SystemParams(atom_present=False), SqueezedBath(0.0),
                              FieldSpace(6))
        m0 = np.zeros((6, 6), dtype=complex)
        m0[1, 1] = 1.0
        rho0 = make_density_matrix(FieldSpace(6), m0)

        (_, rho), = evolve(L, rho0, 2.0, 1e-3, sample_times=[2.0])
        assert abs(mean_photon_number(rho) - np.exp(-4.0)) < 1e-6

        errors = []
        for dt in (0.04, 0.02):
            (_, rho), = evolve(L, rho0, 2.0, dt, sample_times=[2.0])
            errors.append(abs(mean_photon_number(rho) - np.exp(-4.0)))
        assert 14 <= errors[0] / errors[1] <= 18


def test_criterion_10_state_validity_everywhere(store):
    with criterion(10, "diagnostics valid on every accepted run"):
        diags = store["diags"]
        assert len(diags) > 60  # the sweeps above really ran
        for d in diags:
            assert d["trace_dev"] < 1e-10, d["key"]
            assert d["herm_dev"] < 1e-10, d["key"]
            assert d["min_eig"] > -1e-8, d["key"]
            assert d["tail_mass"] < 1e-8, d["key"]
