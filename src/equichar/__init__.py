"""equichar: equivariant characteristic forms, transgressions and eta invariants
for four-dimensional SKR geometries."""

from .errors import (
    ConfigError,
    ConvergenceRadiusError,
    DimensionMismatchError,
    EquicharError,
    ProfileError,
)
from .exterior import degree_component, exp_form, wedge
from .matforms import (
    AnalyticGerm,
    apply_germ,
    hirzebruch_l_inner_germ,
    hirzebruch_l_log_germ,
    mat_mul,
    star_second,
    trace,
)
from .charforms import (
    ConnectionFamily,
    equivariant_curvature,
    l_form,
    transgression,
    transgression_degree3,
    transgression_degree3_alt,
)
from .skr import SKRProfile

__version__ = "0.1.0"
