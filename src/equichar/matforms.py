"""Matrix-valued exterior forms and the analytic functional calculus on them.

A square matrix of forms, which curvature and connection data live in, is a
plain float array of shape ``(..., size, size, 2^n)``: entry (i, j) holds the
2^n coefficients of one form over an n-dimensional coframe, and any leading
axes make a stack of matrices.  Provides products, traces, the characteristic
polynomial, and germs applied on the spectrum: for M = M0 + N, i M0 = U
diag(w) U^H with M0 real antisymmetric of degree 0, and Nt = U^H N U, f(M) is
U [sum over index walks i0 -> .. -> ik of f[lambda_i0, .., lambda_ik] Nt_(i0 i1)
^ .. ^ Nt_(ik-1 ik)] U^H at lambda = -i w, a finite sum of divided
differences.  :func:`l_log_at_angle` evaluates the L-log germ on rotation
angles for the closed formulas of :mod:`equichar.skr`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Sequence

import numpy as np

from .errors import ConvergenceRadiusError, DimensionMismatchError
from .exterior import ExteriorForm, _degree_masks, _dimension_of, _wedge_sign, wedge_coeffs

__all__ = [
    "AnalyticGerm",
    "mat_mul",
    "trace",
    "identity",
    "apply_germ",
    "star_second",
    "char_poly",
    "hirzebruch_l_inner_germ",
    "hirzebruch_l_log_germ",
    "l_log_at_angle",
]

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


def _horner(coeffs: Sequence[float], x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# --------------------------------------------------------------------------- analytic germs

@dataclass(frozen=True)
class AnalyticGerm:
    """Even or general analytic germ at 0: Taylor coefficients and closed forms.

    taylor[k] holds f^(k)(0)/k! as a Python float; ``radius`` is the radius of
    convergence, which :func:`apply_germ` checks against the spectrum;
    ``closed`` holds complex functions for f, f', .. as far as they are known.
    """

    taylor: tuple
    even: bool
    radius: float
    name: str = ""
    closed: tuple = ()

    def __post_init__(self):
        if self.even and any(c != 0.0 for c in self.taylor[1::2]):
            raise ValueError("even germ must have vanishing odd Taylor coefficients")

    def coeff(self, k: int) -> float:
        return self.taylor[k] if k < len(self.taylor) else 0.0

    def derivative(self) -> "AnalyticGerm":
        """Germ of f', by coefficient shift and the next closed form."""
        shifted = tuple((k + 1) * c for k, c in enumerate(self.taylor[1:]))
        return AnalyticGerm(
            taylor=shifted,
            even=False,
            radius=self.radius,
            name=self.name + "'",
            closed=self.closed[1:],
        )

    def second_derivative_at_zero(self) -> float:
        return 2.0 * self.coeff(2)


def _germ_values(germ: AnalyticGerm, z: np.ndarray) -> np.ndarray:
    """f at complex points inside the germ's disk: its Taylor series below
    |z| = 1, where the closed forms cancel, and its closed form above."""
    out, near = np.empty_like(z), np.abs(z) < 1.0
    zn, even, odd = z[near], germ.taylor[::2], germ.taylor[1::2]
    zz = zn * zn
    out[near] = (_horner(even, zz) if any(even) else 0.0) + (
        zn * _horner(odd, zz) if any(odd) else 0.0
    )
    if not near.all():
        if not germ.closed:
            raise ValueError(f"germ '{germ.name}' has no closed form for |z| >= 1")
        out[~near] = germ.closed[0](z[~near])
    return out


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
        closed=(
            lambda z: 0.5 * z / np.tanh(0.5 * z),
            lambda z: 0.5 / np.tanh(0.5 * z) - 0.25 * z / np.sinh(0.5 * z) ** 2,
        ),
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
        # closed forms of g, g' = (1/z - 1/sinh z)/2 and g'' .. g'''', which
        # cancel near 0; the derivatives serve divided differences at a repeated index
        closed=(
            lambda z: 0.5 * np.log(0.5 * z / np.tanh(0.5 * z)),
            lambda z: 0.5 * (1.0 / z - 1.0 / np.sinh(z)),
            lambda z: 0.5 * (np.cosh(z) / np.sinh(z) ** 2 - 1.0 / (z * z)),
            lambda z: 0.5 * (2.0 / z**3 - (np.cosh(z) ** 2 + 1.0) / np.sinh(z) ** 3),
            lambda z: 0.5 * (np.cosh(z) * (np.cosh(z) ** 2 + 5.0) / np.sinh(z) ** 4 - 6.0 / z**4),
        ),
    )


# --------------------------------------------------------------------------- divided differences

# Ends of a tuple closer than _CLUSTER times their distance r to the germ's
# singularities make a cluster, whose divided difference is (1/2 pi i) \oint
# f(z) / prod_j (z - lambda_j) dz on the circle of radius 0.3 r about their
# midpoint: the trapezoidal rule on 32 points errs by about 0.3^32 < 2e-17.
# Apart, the quotient of the ends loses at most 1 / _CLUSTER to cancellation.
_CLUSTER = 0.1
_CONTOUR = np.array([0.3 * cmath.exp(2j * math.pi * p / 32) for p in range(32)])


@lru_cache(maxsize=None)
def _sorted_tuples(n: int, length: int) -> tuple:
    """The sorted index tuples of ``length`` entries below n as rows, the rows of their tails
    and heads one entry shorter, and the row of each index tuple sorted, in C order."""
    rows = list(combinations_with_replacement(range(n), length))
    shorter = {t: i for i, t in enumerate(combinations_with_replacement(range(n), length - 1))}
    where = {t: i for i, t in enumerate(rows)}
    position = [where[tuple(sorted(t))] for t in product(range(n), repeat=length)]
    tails, heads = [shorter[t[1:]] for t in rows], [shorter[t[:-1]] for t in rows]
    return np.array(rows), np.array(tails), np.array(heads), np.array(position)


def _divided_differences(germ: AnalyticGerm, w: np.ndarray, top: int) -> list:
    """[D_0, .., D_top], D_k[..., i0, .., ik] = f[lambda_i0, .., lambda_ik] for
    lambda = -i w and w ascending along its last axis, as eigh returns it: a
    tuple sorted by index is then sorted by value and its ends span it, so
    only sorted tuples are computed."""
    lam = -1j * w
    if not top:
        return [_germ_values(germ, lam)]
    # where f', .., f^(top) have closed forms, (i, .., i) takes f^(k)(lambda_i)/k!,
    # at half the cost of a circle about each index; one circle serves each
    # other pair of ends i <= j that lie close together
    diagonal, derivative = len(germ.closed) > top, germ
    n, lo, hi = w.shape[-1], w[..., :, None], w[..., None, :]
    close = hi - lo < _CLUSTER * (germ.radius - np.maximum(np.abs(lo), np.abs(hi)))
    close &= np.arange(n)[:, None] < np.arange(n) + (not diagonal)
    mid = 0.5 * (lo + hi)[close]
    ring = (germ.radius - np.abs(mid))[:, None] * _CONTOUR
    z = ring - 1j * mid[:, None]
    # f on each circle less its mean, f at the centre, which no quotient sees
    samples = _germ_values(germ, z)
    samples -= samples.mean(axis=-1, keepdims=True)
    samples *= ring
    ends = np.cumsum(close).reshape(close.shape) - 1  # the circle of each close pair
    level = _germ_values(germ, lam)
    dds = [level]
    for k in range(1, top + 1):
        rows, tails, heads, position = _sorted_tuples(n, k + 1)
        derivative = derivative.derivative()
        first, last = rows[:, 0], rows[:, -1]
        same, near = first == last, close[..., first, last]
        step = np.where(near | same, 1.0, lam[..., last] - lam[..., first])
        level = np.where(near | same, 0.0, (level[..., tails] - level[..., heads]) / step)
        if diagonal:
            level[..., same] = _germ_values(derivative, lam) / math.factorial(k)
        cluster = np.nonzero(near)
        for s in range(0, cluster[0].size, 128):  # in slices, to bound the (rows, 32) arrays
            *at, t = i = tuple(a[s : s + 128] for a in cluster)
            c = ends[tuple(at) + (first[t], last[t])]
            zc, quotient = z[c], samples[c]
            for j in range(k + 1):
                quotient /= zc - lam[tuple(at) + (rows[t, j],)][:, None]
            level[i] = quotient.mean(axis=-1)
        dds.append(level[..., position].reshape(w.shape + (n,) * k))
    return dds


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


def _spectrum(germ: AnalyticGerm, m0: np.ndarray) -> tuple:
    """(w, U, U^H) with i m0 = U diag(w) U^H, w ascending, for a real antisymmetric
    m0 or a stack of them; raises for the first matrix whose spectral radius
    max |w| reaches the germ's radius of convergence."""
    if np.any(m0 + m0.swapaxes(-2, -1)):
        raise ValueError("germs act on matrices with an antisymmetric degree-0 part")
    w, u = np.linalg.eigh(1j * m0)
    rho = np.ravel(np.max(np.abs(w), axis=-1))
    bad = np.flatnonzero(rho >= germ.radius)
    if bad.size:
        raise ConvergenceRadiusError(float(rho[bad[0]]), germ.radius, germ.name)
    return w, u, u.conj().swapaxes(-1, -2)


def _product(a: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a m b for numeric matrices a, b and a matrix of forms m."""
    return np.einsum("...kl,...ikc->...ilc", b, np.einsum("...ij,...jkc->...ikc", a, m))


@lru_cache(maxsize=None)
def _walks(dimension: int, masks: tuple) -> tuple:
    """(keep, walks): per length k = 1, 2, .. the ordered k-tuples of disjoint
    masks drawn from ``masks``, as rows of positions in it, and a sign table
    with s in the column of e^m1 ^ .. ^ e^mk = s e^(m1 | .. | mk), the columns
    being ``keep``: 0 and every such union."""
    levels, level = [], [((), 0, 1.0)]
    while level:
        level = [
            (seq + (p,), union | m, sign * _wedge_sign(union, m))
            for seq, union, sign in level
            for p, m in enumerate(masks)
            if not union & m
        ]
        levels += [level] if level else []
    keep = sorted({0}.union(*({union for _, union, _ in lv} for lv in levels)))
    walks = []
    for lv in levels:
        signs = np.zeros((len(lv), len(keep)), dtype=complex)
        for row, (_, union, sign) in enumerate(lv):
            signs[row, keep.index(union)] = sign
        walks.append((np.array([seq for seq, _, _ in lv]), signs))
    return np.array(keep), tuple(walks)


def _walk_sum(dd: np.ndarray, nt: np.ndarray, seqs: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The sum over walks i0 -> .. -> ik of dd[i0, .., ik] Nt_(i0 i1) ^ .. ^
    Nt_(ik-1 ik), the entries' coefficients taken along the rows of ``seqs``."""
    k = seqs.shape[1]
    idx = "abcdefgh"[: k + 1]
    terms = ",".join(f"...{idx[j]}{idx[j + 1]}t" for j in range(k))
    factors = [nt[..., seqs[:, j]] for j in range(k)]
    paths = np.einsum(f"...{idx},{terms}->...{idx[0]}{idx[k]}t", dd, *factors)
    return np.einsum("...ijt,tc->...ijc", paths, signs)


def apply_germ(germ: AnalyticGerm, m: np.ndarray) -> np.ndarray:
    """f(M) by the spectral path sum of the module docstring, exact up to
    rounding.  The degree-0 part of M must be antisymmetric; raises
    ConvergenceRadiusError where its spectral radius reaches the germ's radius.
    """
    w, u, uh = _spectrum(germ, m[..., 0])
    present = (np.flatnonzero(np.any(m[..., 1:], axis=tuple(range(m.ndim - 1)))) + 1).tolist()
    keep, walks = _walks(_dimension_of(m), tuple(present))
    dds, size = _divided_differences(germ, w, len(walks)), m.shape[-2]
    out = np.zeros(w.shape[:-1] + (size, size, len(keep)), dtype=complex)
    out[..., range(size), range(size), 0] = dds[0]
    nt = _product(uh, m[..., present], u)
    for dd, (seqs, signs) in zip(dds[1:], walks):
        out += _walk_sum(dd, nt, seqs, signs)
    result = np.zeros(w.shape[:-1] + m.shape[-3:])
    result[..., keep] = _product(u, out, uh).real
    return result


def star_second(germ: AnalyticGerm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Non-commutative second derivative sum_n f^(n+1)(0)/n! * sum_q a^q b a^(n-1-q),
    the derivative of f' at a along b: U (f'[lambda_i, lambda_j] Bt_ij) U^H.

    ``a`` must be purely degree 0 and antisymmetric; ``b`` may carry forms of
    any degree.  For an even germ the result does not depend on the sign of
    ``a``; its first nonzero entry fixes the sign, so both give the same bits.
    """
    if not _is_degree0(a):
        raise ValueError("star_second requires a purely degree-0 first argument")
    a0 = a[..., 0]
    if germ.even:
        flat = a0.reshape(a0.shape[:-2] + (-1,))
        first = np.take_along_axis(flat, np.argmax(flat != 0.0, axis=-1)[..., None], -1)
        a0 = np.where(first[..., None] < 0.0, -a0, a0)
    w, u, uh = _spectrum(germ, a0)
    d1 = _divided_differences(germ.derivative(), w, 1)[1]
    return _product(u, d1[..., None] * _product(uh, b, u), uh).real


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
