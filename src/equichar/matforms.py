"""Matrix-valued exterior forms and the analytic functional calculus on them.

A square matrix of forms, which curvature and connection data live in, is a
plain float array of shape ``(..., size, size, 2^n)``: entry (i, j) holds the
2^n coefficients of one form over an n-dimensional coframe, and any leading
axes make a stack of matrices.  Provides products, traces, power-series
application of analytic germs to such matrices, the non-commutative
second-derivative pairing and the characteristic polynomial.  A product with
a degree-0 factor (a rotation generator) takes a fast numeric path in
:func:`mat_mul`, which every germ series here runs through.
:func:`l_log_at_angle` evaluates the L-log germ on rotation angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConvergenceRadiusError, DimensionMismatchError
from .exterior import ExteriorForm, _degree_masks, _dimension_of, wedge_coeffs

__all__ = [
    "AnalyticGerm",
    "mat_mul",
    "trace",
    "identity",
    "apply_germ",
    "star_second",
    "char_poly",
    "spectral_radius_degree0",
    "hirzebruch_l_inner_germ",
    "hirzebruch_l_log_germ",
    "l_log_at_angle",
    "DEFAULT_SERIES_ORDER",
]

# The series order of the generic routes.  The direct route reads the germ's
# Taylor coefficients up to index order + 1, and the truncation tolerance of
# `check` sums those past the order; at 16 that sum still holds the 13 even
# coefficients 18..42 of the 44 precomputed ones.
DEFAULT_SERIES_ORDER = 16

# number of Taylor coefficients precomputed for the standard germs
_GERM_COEFFS = 44


# --------------------------------------------------------------------------- power series helpers

def _series_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Coefficients of num/den as formal power series; den[0] must be nonzero."""
    n = len(num)
    out = np.zeros(n)
    out[0] = num[0] / den[0]
    for k in range(1, n):
        acc = num[k]
        for j in range(1, k + 1):
            acc -= den[j] * out[k - j] if j < len(den) else 0.0
        out[k] = acc / den[0]
    return out


def _series_log(series: np.ndarray) -> np.ndarray:
    """Coefficients of log(series); series[0] must be positive."""
    n = len(series)
    out = np.zeros(n)
    out[0] = math.log(series[0])
    for k in range(1, n):
        acc = k * series[k]
        for j in range(1, k):
            acc -= j * out[j] * series[k - j]
        out[k] = acc / (k * series[0])
    return out


def _horner(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# --------------------------------------------------------------------------- analytic germs

@dataclass(frozen=True)
class AnalyticGerm:
    """Even or general analytic germ at 0, given by its Taylor coefficients.

    taylor[k] holds f^(k)(0)/k! as a Python float; ``radius`` is the radius of
    convergence that :func:`apply_germ` checks.  The L-log germ's values on
    rotation angles come from :func:`l_log_at_angle`.
    """

    taylor: tuple
    even: bool
    radius: float
    name: str = ""

    def __post_init__(self):
        if self.even and any(c != 0.0 for c in self.taylor[1::2]):
            raise ValueError("even germ must have vanishing odd Taylor coefficients")

    def coeff(self, k: int) -> float:
        return self.taylor[k] if k < len(self.taylor) else 0.0

    def derivative(self) -> "AnalyticGerm":
        """Germ of f', by coefficient shift."""
        shifted = tuple((k + 1) * c for k, c in enumerate(self.taylor[1:]))
        return AnalyticGerm(
            taylor=shifted,
            even=False,
            radius=self.radius,
            name=self.name + "'",
        )

    def second_derivative_at_zero(self) -> float:
        return 2.0 * self.coeff(2)


def _even_series(half_coeffs: np.ndarray) -> np.ndarray:
    """Interleave coefficients in x^2 into a series in x (odd slots zero)."""
    out = np.zeros(2 * len(half_coeffs))
    out[::2] = half_coeffs
    return out


def _cosh_half_even(n: int) -> np.ndarray:
    # cosh(x/2) = sum (x/2)^{2k} / (2k)!   -- coefficients in x^2
    return np.array([0.25**k / math.factorial(2 * k) for k in range(n)])


def _sinhc_half_even(n: int) -> np.ndarray:
    # sinh(x/2)/(x/2) = sum (x/2)^{2k} / (2k+1)!   -- coefficients in x^2
    return np.array([0.25**k / math.factorial(2 * k + 1) for k in range(n)])


def _l_inner_series(n_coeffs: int) -> np.ndarray:
    # (x/2)/tanh(x/2) = cosh(x/2) / (sinh(x/2)/(x/2)),  coefficients in x^2
    half = (n_coeffs + 1) // 2 + 1
    return _series_div(_cosh_half_even(half), _sinhc_half_even(half))


# Fbar(x) = F(ix) = x/(2 tan(x/2)) for F = (x/2)/tanh(x/2): the coefficients of
# Fbar in x^2 are those of F with alternating signs; Fbar' is x times a series
# in x^2, and Fbar'' a series in x^2.
_BAR = tuple((-1.0) ** k * c for k, c in enumerate(_l_inner_series(_GERM_COEFFS).tolist()))
_BAR_D1 = tuple(2 * k * c for k, c in enumerate(_BAR) if k)
_BAR_D2 = tuple(2 * k * (2 * k - 1) * c for k, c in enumerate(_BAR) if k)
# for x^2 < 1/4 the terms past the 13th lie below 2^-90 of the sum: no bit moves
_SMALL = (_BAR[:13], _BAR_D1[:13], _BAR_D2[:13])


def l_log_at_angle(x: float) -> tuple:
    """(g(ix), g'(ix)/i, g''(ix)) for the L-log germ g = log((x/2)/tanh(x/2))/2
    at a rotation angle x: three real numbers, g'(ix)/i being the one whose
    products reproduce those of the purely imaginary g'(ix).

    From Fbar(x) = x/(2 tan(x/2)) and its two x-derivatives: g(ix) =
    log(Fbar)/2, g'(ix)/i = -Fbar'/(2 Fbar) and g''(ix) = -(Fbar'' Fbar -
    Fbar'^2)/(2 Fbar^2).  Fbar is summed from its series for |x| < 0.5, where
    the trigonometric closed forms lose digits to cancellation.  Raises
    ConvergenceRadiusError for |x| >= pi, the germ's radius, past which Fbar
    turns negative.
    """
    if abs(x) >= math.pi:
        raise ConvergenceRadiusError(abs(x), math.pi, "l_log")
    if abs(x) < 0.5:
        xx = x * x
        f, f1, f2 = _horner(_SMALL[0], xx), x * _horner(_SMALL[1], xx), _horner(_SMALL[2], xx)
    else:
        tan, s = math.tan(0.5 * x), math.sin(0.5 * x)
        f = 0.5 * x / tan
        f1 = 0.5 / tan - 0.25 * x / (s * s)
        f2 = (-0.5 + 0.25 * x * (1.0 / tan)) / (s * s)
    return 0.5 * math.log(f), -0.5 * f1 / f, -0.5 * (f2 * f - f1 * f1) / (f * f)


# The germ factories are cached: an AnalyticGerm is frozen with a tuple of
# coefficients, so every caller can share the one object.
@lru_cache(maxsize=None)
def hirzebruch_l_inner_germ() -> AnalyticGerm:
    """Germ of (x/2)/tanh(x/2); restricted to the imaginary axis it is x/(2 tan(x/2))."""
    return AnalyticGerm(
        taylor=tuple(_even_series(_l_inner_series(_GERM_COEFFS))[:_GERM_COEFFS].tolist()),
        even=True,
        radius=2.0 * math.pi,
        name="l_inner",
    )


@lru_cache(maxsize=None)
def hirzebruch_l_log_germ() -> AnalyticGerm:
    """Germ of log((x/2)/tanh(x/2))/2; the exp-of-trace kernel of the L-form."""
    inner = _l_inner_series(_GERM_COEFFS)
    return AnalyticGerm(
        taylor=tuple(_even_series(0.5 * _series_log(inner))[:_GERM_COEFFS].tolist()),
        even=True,
        radius=math.pi,
        name="l_log",
    )


# --------------------------------------------------------------------------- matrices of forms

# The functions below take matrices of forms as arrays of shape
# (..., size, size, 2^n) and broadcast over the leading axes, so one call
# covers a whole stack of matrices (one per quadrature node, say) and gives
# each matrix the bits it gets alone; a stack takes a fast path only when
# every matrix in it does.  The matrix size is independent of the coframe
# dimension: boundary data is 4x4 over a 3-dimensional coframe.

def identity(size: int, dimension: int) -> np.ndarray:
    """The unit matrix of forms."""
    unit = np.zeros((size, size, 1 << dimension))
    unit[:, :, 0] = np.eye(size)
    return unit


def _is_degree0(m: np.ndarray) -> bool:
    return not np.any(m[..., 1:])


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with entries combined by wedge: (AB)_ik = sum_j A_ij ^ B_jk."""
    if a.shape[-3:] != b.shape[-3:]:
        raise DimensionMismatchError(f"matrix shapes differ: {a.shape[-3:]} vs {b.shape[-3:]}")
    # fast paths when one factor is purely scalar (degree 0)
    if _is_degree0(a):
        return np.einsum("...ij,...jkc->...ikc", a[..., 0], b)
    if _is_degree0(b):
        return np.einsum("...ijc,...jk->...ikc", a, b[..., 0])
    # (AB)_ik = sum_j A_ij ^ B_jk, the products added in order of j, then of
    # the wedge table
    size = a.shape[-2]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for j in range(size):
        wedge_coeffs(a[..., :, j, None, :], b[..., None, j, :, :], out)
    return out


def trace(a: np.ndarray) -> np.ndarray:
    """Sum of diagonal entries: the coefficients (..., 2^n) of one form per matrix."""
    return np.einsum("...iic->...c", a)


def spectral_radius_degree0(mat: np.ndarray):
    """Spectral norm of a small numeric matrix, or of each matrix in a stack
    (..., n, n): the spectral radius of a normal matrix, such as the rotation
    generators arising here, and an upper bound on it for any other."""
    return np.linalg.norm(mat, 2, axis=(-2, -1))


def _check_radius(germ: AnalyticGerm, m0: np.ndarray) -> None:
    """Raise for the first matrix of the stack m0 outside the germ's disk."""
    rho = np.ravel(spectral_radius_degree0(m0))
    bad = np.flatnonzero(rho >= germ.radius)
    if bad.size:
        raise ConvergenceRadiusError(float(rho[bad[0]]), germ.radius, germ.name)


def apply_germ(germ: AnalyticGerm, m: np.ndarray, order: int = DEFAULT_SERIES_ORDER) -> np.ndarray:
    """sum_{k<=order} c_k M^k with geometric degree > n discarded automatically.

    Raises ConvergenceRadiusError when the degree-0 part of M has spectral
    radius outside the germ's disk of convergence.  Terms past ``order`` are
    dropped without an estimate; on the boundary term they show as the
    discrepancy between the direct route and the closed one, which has no
    truncation.
    """
    _check_radius(germ, m[..., 0])
    unit = identity(m.shape[-2], _dimension_of(m))
    acc = np.broadcast_to(unit * germ.coeff(0), m.shape)
    power = unit
    for k in range(1, order + 1):
        power = mat_mul(power, m)
        c = germ.coeff(k)
        if c != 0.0:
            acc = acc + power * c
    return acc


def star_second(
    germ: AnalyticGerm, a: np.ndarray, b: np.ndarray, order: int = DEFAULT_SERIES_ORDER
) -> np.ndarray:
    """Non-commutative second derivative sum_n f^(n+1)(0)/n! * sum_q a^q b a^(n-1-q).

    ``a`` must be purely degree 0; ``b`` may carry forms of any degree.  For an
    even germ the result is insensitive to the sign of ``a``.
    """
    if not _is_degree0(a):
        raise ValueError("star_second requires a purely degree-0 first argument")
    _check_radius(germ, a[..., 0])
    a0 = a[..., 0]
    # h_n = sum_q a^q b a^(n-1-q) by the recurrence h_n = a h_(n-1) + b a^(n-1)
    h_n = b
    a_pow = np.eye(a.shape[-2])  # a^(n-1)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for n in range(1, order + 1):
        if n > 1:
            a_pow = a_pow @ a0
            h_n = np.einsum("...ij,...jkc->...ikc", a0, h_n) + np.einsum(
                "...ijc,...jk->...ikc", b, a_pow
            )
        c = germ.coeff(n + 1) * (n + 1)  # f^(n+1)(0)/n!
        if c != 0.0:
            out += c * h_n
    return out


def char_poly(m: np.ndarray) -> list:
    """Characteristic polynomial coefficients [1, c_1, .., c_size] of one
    matrix whose entries all have even exterior degree (so they commute), with
    det(lambda I - M) = sum_k c_k lambda^(size - k), as exterior forms.

    Faddeev-LeVerrier recursion; valid over any commutative coefficient ring.
    """
    dim, size = _dimension_of(m), m.shape[-2]
    if np.any(m[..., _degree_masks(dim) % 2 == 1]):
        raise ValueError("char_poly needs entries of even exterior degree")
    coeffs = [ExteriorForm.scalar(dim, 1.0)]
    aux, diagonal = identity(size, dim), np.arange(size)
    for k in range(1, size + 1):
        aux = mat_mul(m, aux)
        c_k = trace(aux) * (-1.0 / k)
        coeffs.append(ExteriorForm(dim, c_k))
        aux[diagonal, diagonal] += c_k
    return coeffs
