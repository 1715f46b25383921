"""Exception hierarchy shared by all sqcavity modules."""


class SimulationError(Exception):
    """Base class for all sqcavity errors."""


class InvalidDimensionError(SimulationError):
    """Operator or state dimensions are inconsistent or below the minimum."""


class InvalidLabelError(SimulationError):
    """Unknown atomic level label (valid labels are 'g' and 'e')."""


class UnsupportedFrameError(SimulationError):
    """Bogoliubov-frame builder called outside its validity domain
    (zero detunings, zero squeezing phase)."""


class CorruptedStateError(SimulationError):
    """A density matrix failed validation (trace, hermiticity, positivity,
    or an observable acquired a non-negligible imaginary part)."""


class SolverError(SimulationError):
    """Base class for solver failures."""


class NonUniqueSteadyStateError(SolverError):
    """The linear solve for the steady state failed or left a large
    residual, signalling a degenerate kernel."""


class CutoffTooSmallError(SolverError):
    """Photon-number population leaked into the truncation guard band.

    The message ends with the suggested cutoff whenever one is set, so a
    sweep that knows r can replace the suggestion after the fact."""

    def __init__(self, message, suggested_cutoff=None, tail_mass=None):
        super().__init__(message)
        self.suggested_cutoff = suggested_cutoff
        self.tail_mass = tail_mass

    def __str__(self):
        text = super().__str__()
        if self.suggested_cutoff is not None:
            text += f"; retry with cutoff >= {self.suggested_cutoff}"
        return text


class StepTooLargeError(SolverError):
    """Requested integrator step violates the stability guard."""


class DivergenceError(SolverError):
    """Time integration produced NaN/overflow or broke trace conservation."""


class ConfigError(SimulationError):
    """Malformed sweep configuration file or command-line arguments."""
