"""Exception hierarchy shared by all equichar modules."""


class EquicharError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(EquicharError):
    """Operands live over different coframe dimensions or matrix sizes."""


class ConvergenceRadiusError(EquicharError):
    """Degree-0 spectral radius exceeds the convergence radius of a germ.

    Carries the offending spectral radius so callers can diagnose how far
    outside the disk the input sits.
    """

    def __init__(self, spectral_radius: float, radius: float, name: str = ""):
        self.spectral_radius = spectral_radius
        self.radius = radius
        msg = f"spectral radius {spectral_radius:.6g} >= convergence radius {radius:.6g}"
        if name:
            msg += f" of germ '{name}'"
        super().__init__(msg)


class ProfileError(EquicharError):
    """Invalid SKR profile data (e.g. Q <= 0 on the requested range)."""


class ConfigError(EquicharError):
    """Malformed or inconsistent run configuration."""
