"""Equivariant characteristic forms and transgressions over generic curvature data.

Everything here is generic over a linear path of connections
nabla^t = nabla^0 + t Theta, presented as matrices of forms, the
``(..., size, size, 2^n)`` arrays of :mod:`equichar.matforms`: the
endomorphism-valued difference form Theta, the coefficients of nabla^t X
(linear in t) and those of the curvature R^t (quadratic in t).  The
L-form broadcasts over a stack of curvature matrices.  Germs act on the
spectrum (:mod:`equichar.matforms`), so the L-form and both degree-3 routes
are exact up to rounding; the direct route takes its second-order term from
``star_second``, the alternate one from the path sum of f'(Theta + NX).
The SKR geometry of :mod:`equichar.skr` feeds its boundary data through
these entry points; the tests also run them on randomized families.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError
from .exterior import (
    ExteriorForm,
    _degree_masks,
    _dimension_of,
    degree_component_coeffs,
    exp_coeffs,
    wedge_coeffs,
)
from .matforms import (
    AnalyticGerm,
    _is_degree0,
    apply_germ,
    hirzebruch_l_log_germ,
    mat_mul,
    star_second,
    trace,
)

__all__ = [
    "gauss_legendre",
    "QuadratureSpec",
    "ConnectionFamily",
    "equivariant_curvature",
    "l_form",
    "transgression",
    "transgression_degree3",
    "transgression_degree3_alt",
]


@lru_cache(maxsize=128)
def gauss_legendre(n: int, a: float, b: float):
    """n-point Gauss-Legendre nodes (ascending) and weights on [a, b]; every
    caller shares the cached arrays, so they are read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    xs, ws = 0.5 * (b - a) * nodes + 0.5 * (a + b), 0.5 * (b - a) * weights
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre rule on [0, 1]; integrands in t are analytic, so the
    rule converges spectrally and 32 nodes are far more than enough."""

    nodes: int = 32

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError("quadrature needs at least 2 nodes")

    def rule(self):
        return gauss_legendre(self.nodes, 0.0, 1.0)

    def weighted_sum(self, terms: np.ndarray) -> ExteriorForm:
        """sum_i w_i terms[i] for a stack of form coefficients, one row per node,
        accumulated left-to-right over ascending nodes."""
        _, ws = self.rule()
        acc = terms[0] * ws[0]
        for term, w in zip(terms[1:], ws[1:]):
            acc = acc + term * w
        return ExteriorForm(_dimension_of(terms), acc)


@dataclass(frozen=True)
class ConnectionFamily:
    """The linear path of connections nabla^t = nabla^0 + t Theta, t in [0, 1],
    as the coefficients of the matrices of forms the transgression integrand
    needs, each an array of the shape of theta.

    theta:     the difference of the endpoint connections (antisymmetric
               matrix of 1-forms).
    nabla_x:   (n0, n1), nabla^t X = n0 + t n1 for the Killing field X
               (antisymmetric degree-0 matrices).
    curvature: (r0, r1, r2), R^t = r0 + t r1 + t^2 r2 (antisymmetric matrices
               of pure 2-forms; r2 = Theta ^ Theta on a genuine path).

    A sum of such terms keeps every property checked on the coefficients, so
    the check holds exactly at every t.
    """

    theta: np.ndarray
    nabla_x: tuple[np.ndarray, np.ndarray]
    curvature: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        if not _is_antisymmetric(self.theta):
            raise ValueError("theta must be antisymmetric")
        n0, n1 = self.nabla_x
        r0, r1, r2 = self.curvature
        for m in (n0, n1, r0, r1, r2):
            if m.shape != self.theta.shape:
                raise ValueError("family coefficients must have the dimensions of theta")
            if not _is_antisymmetric(m):
                raise ValueError("family coefficients must be antisymmetric")
        if not (_is_degree0(n0) and _is_degree0(n1)):
            raise ValueError("nabla_x coefficients must be degree 0")
        off_degree2 = _degree_masks(_dimension_of(self.theta)) != 2
        if any(np.any(m[..., off_degree2]) for m in (r0, r1, r2)):
            raise ValueError("curvature coefficients must be pure degree 2")

    def at(self, t):
        """nabla^t X and R^t at t, a number or a vector of nodes; a vector
        adds a leading node axis."""
        t = np.asarray(t, dtype=np.float64)[..., None, None, None]
        n0, n1 = self.nabla_x
        r0, r1, r2 = self.curvature
        return n0 + n1 * t, r0 + r1 * t + r2 * (t * t)


def _is_antisymmetric(m: np.ndarray) -> bool:
    return not np.any(m + m.swapaxes(-3, -2))


def equivariant_curvature(curv: np.ndarray, nabla_x: np.ndarray) -> np.ndarray:
    """Equivariant curvature matrix: curvature minus the Killing-derivative term."""
    if curv.shape[-3:] != nabla_x.shape[-3:]:
        raise DimensionMismatchError(
            f"matrix shapes differ: {curv.shape[-3:]} vs {nabla_x.shape[-3:]}"
        )
    if not _is_degree0(nabla_x):
        raise ValueError("nabla_x must be purely degree 0")
    return curv - nabla_x


def l_form(rg: np.ndarray) -> np.ndarray:
    """Hirzebruch L-form of an (equivariant) curvature matrix, or of each
    matrix in a stack: the coefficients (..., 2^n) of one form per matrix.

    det^(1/2) of (x/2)/tanh(x/2) evaluated on the matrix, realized as
    exp(Tr[f(.)]) for f the half-log germ, which acts on the spectrum; the
    outer exponential is expanded exactly up to the coframe dimension.
    """
    return exp_coeffs(trace(apply_germ(hirzebruch_l_log_germ(), rg)))


def _even_guard(germ: AnalyticGerm) -> None:
    if not germ.even:
        raise ValueError("this transgression formula requires an even germ")


def transgression(
    germ: AnalyticGerm, fam: ConnectionFamily, quad: QuadratureSpec = QuadratureSpec()
) -> ExteriorForm:
    """Transgression of exp(Tr[f(.)]) along the family, all geometric degrees.

    integrand(t) = exp(Tr[f(Rg_t)]) * Tr[Theta f'(Rg_t)]
    with Rg_t the equivariant curvature of the family at t, evaluated node
    by node: the reference the batched degree-3 routes are tested against.
    """
    d_germ = germ.derivative()
    terms = []
    for t in quad.rule()[0]:
        nx, rt = fam.at(float(t))
        rg = equivariant_curvature(rt, nx)
        weight = exp_coeffs(trace(apply_germ(germ, rg)))
        tr = trace(mat_mul(fam.theta, apply_germ(d_germ, rg)))
        terms.append(wedge_coeffs(weight, tr))
    return quad.weighted_sum(np.stack(terms))


def transgression_degree3(
    germ: AnalyticGerm,
    fam: ConnectionFamily,
    quad: QuadratureSpec = QuadratureSpec(),
) -> ExteriorForm:
    """Degree-3 component of the transgression, as the reduced integrand

    exp(Tr[f(NX)]) * ( Tr[Theta f'(NX)] * Tr[f'(NX) R] + Tr[(f2(NX)*Theta) R] )

    where NX = nabla^t X, R = R^t and f2(a)*b is the non-commutative second
    derivative.  Valid for even germs only.  All nodes go through each step
    in one batch.
    """
    _even_guard(germ)
    nx, rt = fam.at(quad.rule()[0])
    theta = fam.theta
    f_nx = apply_germ(germ.derivative(), nx)
    weight = exp_coeffs(trace(apply_germ(germ, nx)))
    t1 = trace(mat_mul(theta, f_nx))
    t2 = trace(mat_mul(f_nx, rt))
    t3 = trace(mat_mul(star_second(germ, nx, theta), rt))
    terms = wedge_coeffs(weight, wedge_coeffs(t1, t2) + t3)
    return quad.weighted_sum(degree_component_coeffs(terms, 3))


def transgression_degree3_alt(
    germ: AnalyticGerm,
    fam: ConnectionFamily,
    quad: QuadratureSpec = QuadratureSpec(),
) -> ExteriorForm:
    """Equivalent form of :func:`transgression_degree3`:

    degree-3 part of
    exp(Tr[f(NX)]) * (1 + Tr[Theta f'(NX)]) * Tr[f'(Theta + NX) R].
    """
    _even_guard(germ)
    d_germ = germ.derivative()
    nx, rt = fam.at(quad.rule()[0])
    theta = fam.theta
    weight = exp_coeffs(trace(apply_germ(germ, nx)))
    one_plus = ExteriorForm.scalar(_dimension_of(theta), 1.0).coeffs + trace(
        mat_mul(theta, apply_germ(d_germ, nx))
    )
    shifted = trace(mat_mul(apply_germ(d_germ, theta + nx), rt))
    terms = wedge_coeffs(weight, wedge_coeffs(one_plus, shifted))
    return quad.weighted_sum(degree_component_coeffs(terms, 3))
