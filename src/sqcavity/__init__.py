"""sqcavity: a two-level atom in a lossy cavity driven by broadband squeezed
vacuum — Lindblad steady states, time evolution, and field observables."""

from .errors import (
    ConfigError,
    CorruptedStateError,
    CutoffTooSmallError,
    DivergenceError,
    InvalidDimensionError,
    InvalidLabelError,
    NonUniqueSteadyStateError,
    SimulationError,
    SolverError,
    StepTooLargeError,
    UnsupportedFrameError,
)
from .liouvillian import (
    SqueezedBath,
    Superoperator,
    SystemParams,
    build_bogoliubov_liouvillian,
    build_liouvillian,
    unvec,
    vec,
)
from .observables import (
    PhotonDistribution,
    WignerGrid,
    atom_excited_population,
    expectation,
    mean_photon_number,
    pair_amplitude,
    partial_trace_atom,
    photon_distribution,
    purity,
    quadrature_moments,
    wigner,
    wigner_integral,
)
from .operators import (
    AtomSpace,
    FieldSpace,
    Operator,
    SpaceDims,
    annihilation,
    atom_sigma,
    bogoliubov_b,
    lift,
    number_operator,
)
from .solvers import (
    DensityMatrix,
    StateDiagnostics,
    check_truncation,
    evolve,
    make_density_matrix,
    photon_populations,
    steady_state,
    suggest_fock_cutoff,
    truncation_guard,
)
from .sweep import (
    SweepConfig,
    default_r_grid,
    load_config,
    run,
    run_bogoliubov_check,
    run_distribution,
    run_moments_sweep,
    run_wigner,
    solve_point,
)

__version__ = "0.1.0"
