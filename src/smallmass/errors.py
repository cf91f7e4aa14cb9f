"""Exception types shared across the package.

The CLI maps these onto exit codes: ValidationError (and its subclasses)
-> 2, every other SmallMassError (BlowUpError, ...) -> 3. Exceptions
outside this hierarchy are bugs and escape as a traceback.
"""


class SmallMassError(Exception):
    """Base class for all package errors."""


class ValidationError(SmallMassError):
    """Bad input: config, precondition, or model-contract violation."""


class StabilityError(ValidationError):
    """Symmetric part of a friction matrix is not positive definite.

    Raised where the Lyapunov integral would diverge or an exponential
    step would grow.
    """


class StiffnessError(ValidationError):
    """Explicit step size violates the stability guard; carries the admissible dt."""

    def __init__(self, message, admissible_dt=None):
        super().__init__(message)
        self.admissible_dt = admissible_dt


class CFLError(StiffnessError):
    """CFL violation in the finite-volume solver."""


class ConditionError(ValidationError):
    """Matrix too ill-conditioned to invert; carries the condition estimate."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class BlowUpError(SmallMassError):
    """Non-finite state detected during time integration; carries the time."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t
