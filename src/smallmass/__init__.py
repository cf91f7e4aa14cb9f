"""Simulation and verification lab for the small-mass limit of
McKean-Vlasov dynamics with state-dependent friction."""

__version__ = "0.1.0"

from .ensemble import NoiseStream, OverdampedEnsemble, UnderdampedEnsemble
from .errors import (
    BlowUpError,
    CFLError,
    SmallMassError,
    StabilityError,
    StiffnessError,
    ValidationError,
)
from .model import ModelSpec, audit_assumptions, get_preset
from .overdamped import limit_coefficients, simulate_limit
from .smallmat import solve_lyapunov
from .underdamped import UDStepperConfig, simulate_underdamped

__all__ = [
    "__version__",
    "NoiseStream",
    "OverdampedEnsemble",
    "UnderdampedEnsemble",
    "SmallMassError",
    "ValidationError",
    "StabilityError",
    "StiffnessError",
    "CFLError",
    "BlowUpError",
    "ModelSpec",
    "audit_assumptions",
    "get_preset",
    "limit_coefficients",
    "simulate_limit",
    "solve_lyapunov",
    "UDStepperConfig",
    "simulate_underdamped",
]
