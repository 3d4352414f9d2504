"""Exception hierarchy shared by all stabmor modules."""


class StabmorError(Exception):
    """Base class for all library errors."""


class SingularMatrix(StabmorError):
    """Matrix is singular to working precision."""


class SingularE(SingularMatrix):
    """The mass matrix cannot be factorized."""


class SingularReducedMass(SingularE):
    """Reduced mass matrix is singular; the stabilized path avoids this."""


class SymmetryViolation(StabmorError):
    """Input expected to be symmetric is not, beyond tolerance."""


class ConvergenceFailure(StabmorError):
    """An iterative solver did not reach its tolerance."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class DenseCapExceeded(StabmorError):
    """Dense O(n^3) operation requested above the configured size cap."""


class PoleHit(StabmorError):
    """Transfer function evaluated at (or numerically near) a pole."""


class RankDeficient(StabmorError):
    """Requested rank exceeds the numerical rank of the data."""


class AlreadyDissipative(StabmorError):
    """The symmetric part is negative definite; no transformation needed."""

    def __init__(self, message, mu_max):
        super().__init__(message)
        self.mu_max = mu_max


class ShiftFailure(StabmorError):
    """An ADI shift coincides with a system eigenvalue."""


class UnstablePencil(StabmorError):
    """(E, A) has an eigenvalue with non-negative real part."""


class NotIdentityMass(StabmorError):
    """Operation restricted to systems with identity mass matrix."""


class EquilibriumResidualTooLarge(StabmorError):
    """Claimed equilibrium does not satisfy f(x*) ~ 0."""


class UnstableOperand(StabmorError):
    """Frequency-domain norm requested for an unstable system."""


class StepSizeUnderflow(StabmorError):
    """Adaptive integrator step size fell below the representable minimum."""


class FactorizationFailure(StabmorError):
    """A linear solve inside an integrator step failed."""


class GridMismatch(StabmorError):
    """Trajectories live on different time grids and interpolation is off."""


class ResampleExhausted(StabmorError):
    """Random generator could not meet its constraint within the retry budget."""


class Breakdown(StabmorError):
    """Krylov recurrence produced a dependent vector and cannot continue."""
