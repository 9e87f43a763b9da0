"""Matrix-valued exterior forms and the analytic functional calculus on them.

Provides the square matrices of forms that curvature and connection data live
in, power-series application of analytic germs to such matrices, the
non-commutative second-derivative pairing, and exp-of-trace characteristic
form evaluation.  A product with a degree-0 factor (a rotation generator)
takes a fast numeric path in :func:`mat_mul`, which every series here runs
through.  :func:`l_log_at_angle` evaluates the L-log germ on rotation angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceRadiusError, DimensionMismatchError
from .exterior import ExteriorForm, _dimension_of, exp_form, wedge_coeffs

__all__ = [
    "AnalyticGerm",
    "FormMatrix",
    "mat_mul",
    "trace",
    "identity",
    "apply_germ",
    "star_second",
    "exp_trace_germ",
    "char_poly",
    "spectral_radius_degree0",
    "hirzebruch_l_inner_germ",
    "hirzebruch_l_log_germ",
    "l_log_at_angle",
    "DEFAULT_SERIES_ORDER",
]

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
# coefficients, so every caller can share the one object per coefficient count.
@lru_cache(maxsize=None)
def hirzebruch_l_inner_germ(n_coeffs: int = _GERM_COEFFS) -> AnalyticGerm:
    """Germ of (x/2)/tanh(x/2); restricted to the imaginary axis it is x/(2 tan(x/2))."""
    return AnalyticGerm(
        taylor=tuple(_even_series(_l_inner_series(n_coeffs))[:n_coeffs].tolist()),
        even=True,
        radius=2.0 * math.pi,
        name="l_inner",
    )


@lru_cache(maxsize=None)
def hirzebruch_l_log_germ(n_coeffs: int = _GERM_COEFFS) -> AnalyticGerm:
    """Germ of log((x/2)/tanh(x/2))/2; the exp-of-trace kernel of the L-form."""
    inner = _l_inner_series(n_coeffs)
    return AnalyticGerm(
        taylor=tuple(_even_series(0.5 * _series_log(inner))[:n_coeffs].tolist()),
        even=True,
        radius=math.pi,
        name="l_log",
    )


# --------------------------------------------------------------------------- matrices of forms

class FormMatrix:
    """Square matrix of exterior forms over one common coframe dimension.

    The matrix size (rows) is independent of the coframe dimension: boundary
    data is 4x4 over a 3-dimensional coframe.  Stored as an immutable
    ``(size, size, 2**dim)`` array.
    """

    __slots__ = ("size", "dimension", "data")

    def __init__(self, size: int, dimension: int, data: Optional[np.ndarray] = None):
        dim_size = 1 << dimension
        if data is None:
            data = np.zeros((size, size, dim_size))
        else:
            data = np.asarray(data, dtype=np.float64)
            if data.shape != (size, size, dim_size):
                raise ValueError(f"expected shape {(size, size, dim_size)}, got {data.shape}")
            data = data.copy()
        data.setflags(write=False)
        self.size = size
        self.dimension = dimension
        self.data = data

    @classmethod
    def from_scalar_matrix(cls, mat: np.ndarray, dimension: int) -> "FormMatrix":
        mat = np.asarray(mat, dtype=np.float64)
        size = mat.shape[0]
        data = np.zeros((size, size, 1 << dimension))
        data[:, :, 0] = mat
        return cls(size, dimension, data)

    def entry(self, i: int, j: int) -> ExteriorForm:
        return ExteriorForm(self.dimension, self.data[i, j])

    def degree0(self) -> np.ndarray:
        """The degree-0 (scalar) part as a plain numeric matrix."""
        return self.data[:, :, 0].copy()

    def is_degree0(self) -> bool:
        return _is_degree0(self.data)

    def is_antisymmetric(self, tol: float = 0.0) -> bool:
        return bool(np.max(np.abs(self.data + self.data.transpose(1, 0, 2))) <= tol)

    def degrees_present(self) -> set:
        from .exterior import _degree_masks  # local import to keep the public surface tidy

        deg = _degree_masks(self.dimension)
        present = set()
        nz = np.any(self.data != 0.0, axis=(0, 1))
        for mask, flag in enumerate(nz):
            if flag:
                present.add(int(deg[mask]))
        return present

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data)))

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        self._check(other)
        return FormMatrix(self.size, self.dimension, self.data + other.data)

    def __sub__(self, other: "FormMatrix") -> "FormMatrix":
        self._check(other)
        return FormMatrix(self.size, self.dimension, self.data - other.data)

    def __neg__(self) -> "FormMatrix":
        return FormMatrix(self.size, self.dimension, -self.data)

    def __mul__(self, scalar: float) -> "FormMatrix":
        return FormMatrix(self.size, self.dimension, self.data * float(scalar))

    __rmul__ = __mul__

    def _check(self, other: "FormMatrix") -> None:
        if self.size != other.size:
            raise DimensionMismatchError(f"matrix sizes differ: {self.size} vs {other.size}")
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"coframe dimensions differ: {self.dimension} vs {other.dimension}"
            )

    def __repr__(self) -> str:
        return f"FormMatrix(size={self.size}, coframe_dim={self.dimension})"


def identity(size: int, dimension: int) -> FormMatrix:
    return FormMatrix.from_scalar_matrix(np.eye(size), dimension)


# The kernels below act on data arrays of shape (..., size, size, 2^n) and
# broadcast over the leading axes, so one call covers a whole stack of
# matrices (one per quadrature node, say).  The per-matrix functions call the
# same kernels; a stack takes a fast path only when every matrix in it does.

def _is_degree0(data: np.ndarray) -> bool:
    return not np.any(data[..., 1:])


def mat_mul_data(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel of :func:`mat_mul`."""
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


def trace_data(a: np.ndarray) -> np.ndarray:
    """Kernel of :func:`trace`."""
    return np.einsum("...iic->...c", a)


def mat_mul(a: FormMatrix, b: FormMatrix) -> FormMatrix:
    """Matrix product with entries combined by wedge: (AB)_ik = sum_j A_ij ^ B_jk."""
    a._check(b)
    return FormMatrix(a.size, a.dimension, mat_mul_data(a.data, b.data))


def trace(a: FormMatrix) -> ExteriorForm:
    """Sum of diagonal entries."""
    return ExteriorForm(a.dimension, trace_data(a.data))


def spectral_radius_degree0(mat: np.ndarray):
    """Spectral radius of a small numeric matrix, or of each matrix in a
    stack (..., n, n); a float for one matrix, an array for a stack.

    Antisymmetric 2x2/3x3/4x4 matrices (the rotation generators arising here)
    are handled by closed formulas; anything else falls back to the Frobenius
    norm, a safe upper bound.
    """
    mat = np.asarray(mat, dtype=np.float64)
    shape, n = mat.shape[:-2], mat.shape[-1]
    mat = mat.reshape(-1, n, n)
    mat_t = mat.transpose(0, 2, 1)
    # np.allclose(M, -M^T, atol=1e-14 (1 + max |M|)) per matrix, written out
    atol = 1e-14 * (1.0 + np.max(np.abs(mat), axis=(1, 2)))
    anti = np.all(np.abs(mat + mat_t) <= atol[:, None, None] + 1e-5 * np.abs(mat_t), axis=(1, 2))
    if n == 2:
        rho = np.abs(mat[:, 0, 1])
    elif n == 3:
        rho = np.sqrt(mat[:, 0, 1] ** 2 + mat[:, 0, 2] ** 2 + mat[:, 1, 2] ** 2)
    elif n == 4:
        p = np.sum(mat * mat, axis=(1, 2)) / 2.0  # lam1^2 + lam2^2
        pf = mat[:, 0, 1] * mat[:, 2, 3] - mat[:, 0, 2] * mat[:, 1, 3] + mat[:, 0, 3] * mat[:, 1, 2]
        q = pf * pf  # lam1^2 * lam2^2
        disc = np.maximum(p * p - 4.0 * q, 0.0)
        rho = np.sqrt((p + np.sqrt(disc)) / 2.0)
    else:
        rho, anti = np.zeros(len(mat)), np.zeros(len(mat), dtype=bool)
    for i in np.flatnonzero(~anti):
        rho[i] = np.linalg.norm(mat[i], "fro")
    return float(rho[0]) if not shape else rho.reshape(shape)


def _check_radius(germ: AnalyticGerm, m0: np.ndarray) -> None:
    """Raise for the first matrix of the stack m0 outside the germ's disk."""
    rho = np.ravel(spectral_radius_degree0(m0))
    bad = np.flatnonzero(rho >= germ.radius)
    if bad.size:
        raise ConvergenceRadiusError(float(rho[bad[0]]), germ.radius, germ.name)


def apply_germ_data(
    germ: AnalyticGerm, m: np.ndarray, order: int = DEFAULT_SERIES_ORDER
) -> np.ndarray:
    """Kernel of :func:`apply_germ`."""
    _check_radius(germ, m[..., 0])
    unit = identity(m.shape[-2], _dimension_of(m)).data
    acc = np.broadcast_to(unit * germ.coeff(0), m.shape)
    power = unit
    for k in range(1, order + 1):
        power = mat_mul_data(power, m)
        c = germ.coeff(k)
        if c != 0.0:
            acc = acc + power * c
    return acc


def apply_germ(germ: AnalyticGerm, m: FormMatrix, order: int = DEFAULT_SERIES_ORDER) -> FormMatrix:
    """sum_{k<=order} c_k M^k with geometric degree > n discarded automatically.

    Raises ConvergenceRadiusError when the degree-0 part of M has spectral
    radius outside the germ's disk of convergence.  Terms past ``order`` are
    dropped without an estimate; on the boundary term they show as the
    discrepancy between the direct route and the closed one, which has no
    truncation.
    """
    return FormMatrix(m.size, m.dimension, apply_germ_data(germ, m.data, order))


def star_second_data(
    germ: AnalyticGerm, a: np.ndarray, b: np.ndarray, order: int = DEFAULT_SERIES_ORDER
) -> np.ndarray:
    """Kernel of :func:`star_second`."""
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


def star_second(
    germ: AnalyticGerm,
    a: FormMatrix,
    b: FormMatrix,
    order: int = DEFAULT_SERIES_ORDER,
) -> FormMatrix:
    """Non-commutative second derivative sum_n f^(n+1)(0)/n! * sum_q a^q b a^(n-1-q).

    ``a`` must be purely degree 0; ``b`` may carry forms of any degree.  For an
    even germ the result is insensitive to the sign of ``a``.
    """
    a._check(b)
    return FormMatrix(b.size, b.dimension, star_second_data(germ, a.data, b.data, order))


def exp_trace_germ(
    germ: AnalyticGerm, m: FormMatrix, order: int = DEFAULT_SERIES_ORDER
) -> ExteriorForm:
    """exp(Tr[f(M)]): the det^(1/2)-style characteristic form built from f.

    The outer exponential is expanded exactly up to the coframe dimension.
    """
    return exp_form(trace(apply_germ(germ, m, order)))


def char_poly(m: FormMatrix) -> list:
    """Characteristic polynomial coefficients [1, c_1, .., c_size] of a matrix
    whose entries all have even exterior degree (so they commute), with
    det(lambda I - M) = sum_k c_k lambda^(size - k).

    Faddeev-LeVerrier recursion; valid over any commutative coefficient ring.
    """
    from .exterior import _degree_masks

    deg = _degree_masks(m.dimension)
    odd = [mask for mask in range(1 << m.dimension) if deg[mask] % 2]
    if np.any(m.data[:, :, odd]):
        raise ValueError("char_poly needs entries of even exterior degree")
    coeffs = [ExteriorForm.scalar(m.dimension, 1.0)]
    aux = identity(m.size, m.dimension)
    for k in range(1, m.size + 1):
        aux = mat_mul(m, aux)
        c_k = trace(aux) * (-1.0 / k)
        coeffs.append(c_k)
        data = aux.data.copy()
        for i in range(m.size):
            data[i, i] += c_k.coeffs
        aux = FormMatrix(m.size, m.dimension, data)
    return coeffs
