"""Exception hierarchy for the paleomag engine."""


class PaleomagError(Exception):
    """Base class for all engine errors."""


class ConfigError(PaleomagError):
    """Invalid grid, material, or scenario configuration."""


class ScenarioError(PaleomagError):
    """Load sampling or scenario execution failure (e.g. dt underflow)."""


class ConstitutiveError(PaleomagError):
    """Ill-posed constitutive evaluation (e.g. non-coercive dissipation potential)."""


class NumericalError(PaleomagError):
    """Linear/nonlinear solver failure with no recovery."""


class ThermodynamicError(PaleomagError):
    """A thermodynamic invariant (w >= 0, theta >= 0) was violated."""


class AuditError(PaleomagError):
    """An energy-balance or entropy audit bound was violated."""


__all__ = [
    "PaleomagError",
    "ConfigError",
    "ScenarioError",
    "ConstitutiveError",
    "NumericalError",
    "ThermodynamicError",
    "AuditError",
]
