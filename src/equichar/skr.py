"""Four-dimensional SKR (special Kahler-Ricci potential) geometry.

An SKR metric on a disc bundle over a Riemann surface is determined, on the
regular set of its Killing potential tau, by a single profile function: phi of
tau together with the constant c_bar in the irreducible case, or a positive
Q of tau in the reducible (local product) case, held as one piecewise
polynomial (:class:`ProfileFunction`) and validated exactly.  This module
derives the associated eigenfunctions phi, psi and Q, the curvature
components in the adapted orthonormal frame, the exact degree-4 coefficient
of the equivariant Hirzebruch L-form in closed form, the boundary data at
{tau = 0}, and the e^123 coefficient of the boundary pull-back of the
degree-3 transgression of the L-form, by the closed series formula, summed
exactly through the divided difference of the bulk, and by the
generic-machinery route through :mod:`equichar.charforms`, both over
t in [0, 1] by the ``nodes``-point Gauss-Legendre rule (32 by default).
Both the bulk and the boundary quantities are returned as floats, and no
exterior form is built for the bulk.

Frame conventions: e_1 is a normalized horizontal lift, e_2 = J e_1,
e_3 = u/sqrt(Q) for the Killing field u, and e_4 = -v/sqrt(Q) for the
gradient v = Q d/dtau of tau, which points outward at the boundary: e_4 points into M.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .charforms import ConnectionFamily, gauss_legendre, transgression_degree3, weighted_sum
from .errors import EquicharError, ProfileError
from .exterior import mask_of_indices
from .matforms import (
    _BAR,
    _horner,
    hirzebruch_l_log_germ,
    l_log_at_angle,
    mat_mul,
)

__all__ = [
    "ProfileFunction",
    "SKRProfile",
    "DerivedFunctions",
    "CurvatureComponents",
    "BoundaryData",
    "derived_functions",
    "curvature_components",
    "curvature_matrix",
    "nabla_x_matrix",
    "equivariant_curvature_matrix",
    "l4_closed",
    "l4_coefficient",
    "volume_weight",
    "boundary_data",
    "boundary_family",
    "transgression_pullback_closed",
    "transgression_pullback_direct",
    "closed_transgression_integrand",
    "ClosedPullback",
]


@dataclass(frozen=True)
class ProfileFunction:
    """A piecewise polynomial with its first two derivatives, held as data.

    Piece i starts at ``knots[i]`` and ends at the next knot; the first and
    the last piece extend over the rest of the line.  ``tables[i]`` holds the
    Horner tables of f, f' and f'' in tau - knots[i], lowest coefficient
    first.  A polynomial is one piece at knot 0.
    """

    knots: tuple
    tables: tuple

    @classmethod
    def piecewise(cls, coeffs, knots=(0.0,)) -> "ProfileFunction":
        """The function with ``coeffs[i]`` (lowest first) on the piece at ``knots[i]``."""
        tables = []
        for row in coeffs:
            if not len(row):
                raise ProfileError("a profile polynomial needs at least one coefficient")
            poly = np.polynomial.Polynomial(tuple(float(c) for c in row))
            tables.append(tuple(tuple(float(c) for c in poly.deriv(m).coef) for m in (0, 1, 2)))
        return cls(tuple(float(k) for k in knots), tuple(tables))

    def at(self, tau: float) -> tuple:
        """(f, f', f'') at tau."""
        knots = self.knots
        i = bisect_right(knots, tau, 1) - 1
        x = float(tau) - knots[i]
        f, f_d, f_dd = self.tables[i]
        return _horner(f, x), _horner(f_d, x), _horner(f_dd, x)

    def zeros(self, lo: float, hi: float) -> list:
        """The points of [lo, hi] where f vanishes: on each piece, the real roots
        of f(radius y), radius = max |tau - knot|, after dropping leading terms
        below rounding, and complex pairs where f is zero to rounding (a split
        double root); a root within 1e-12 (hi - lo) of the piece counts."""
        eps, slack, found = np.finfo(float).eps, 1e-12 * (hi - lo), []
        breaks = (-math.inf,) + self.knots[1:] + (math.inf,)  # piece i is breaks[i : i + 2]
        for i, (knot, (f, _, _)) in enumerate(zip(self.knots, self.tables)):
            a, b = max(lo, breaks[i]) - knot, min(hi, breaks[i + 1]) - knot
            if a > b:
                continue
            radius = max(-a, b)
            scaled = [c * radius**k for k, c in enumerate(f)]
            while len(scaled) > 1 and abs(scaled[-1]) <= eps * sum(map(abs, scaled[:-1])):
                scaled.pop()
            if not any(scaled):
                found.append(b + knot)
            for r in np.polynomial.polynomial.polyroots(scaled):
                y, size = float(r.real), _horner([abs(c) for c in scaled], abs(r.real))
                real = r.imag == 0.0 or abs(_horner(scaled, y)) <= 2 * len(scaled) * eps * size
                if real and a - slack <= radius * y <= b + slack:
                    found.append(min(max(radius * y + knot, lo), hi))
        return sorted(found)


@dataclass(frozen=True)
class SKRProfile:
    """Profile data of a fibered SKR metric on a disc bundle.

    ``fn`` is the one profile function: phi in irreducible mode, where
    c_bar lies outside [tau_min, 0] and Q = 2(tau - c_bar) phi and
    psi = Q'/2 are derived; Q in reducible mode, where phi vanishes
    identically.  Construction runs the exact check of ``validate``.

    ``base_curv`` is the base-surface curvature constant entering the
    horizontal curvature component linearly; ``base_area`` and
    ``fiber_period`` are the topology constants of the volume reduction
    (the circle orbit is assigned parameter length 2 pi by default).
    """

    mode: str
    fn: ProfileFunction
    c_bar: float = -1.0
    base_curv: float = 0.0
    tau_min: float = -0.5
    base_area: float = 1.0
    fiber_period: float = 2.0 * math.pi

    def __post_init__(self):
        if self.mode not in ("irreducible", "reducible"):
            raise ProfileError(f"unknown mode {self.mode!r}")
        if not self.tau_min < 0.0:
            raise ProfileError("tau_min must be negative (the boundary sits at tau = 0)")
        if self.mode == "irreducible" and self.tau_min <= self.c_bar <= 0.0:
            raise ProfileError("c_bar must lie outside [tau_min, 0]")
        self.validate()

    def validate(self) -> None:
        """Check that Q > 0 on (tau_min, 0]: phi (Q, reducible) has no zero there, one
        at tau_min (up to rounding) being a degenerate inner end, and Q(0) > 0."""
        name = "phi" if self.mode == "irreducible" else "Q"
        for tau in self.fn.zeros(self.tau_min, 0.0):
            if tau > self.tau_min * (1.0 - 1e-12):
                raise ProfileError(f"{name} vanishes at tau = {tau:.6g}")
        derived_functions(self, 0.0)  # raises on Q(0) <= 0

    @classmethod
    def irreducible_polynomial(cls, phi_coeffs, c_bar, **kw) -> "SKRProfile":
        """Irreducible profile with phi a polynomial (coefficients lowest first)."""
        return cls("irreducible", ProfileFunction.piecewise([phi_coeffs]), float(c_bar), **kw)

    @classmethod
    def reducible_polynomial(cls, q_coeffs, **kw) -> "SKRProfile":
        """Reducible profile with Q a positive polynomial (coefficients lowest first)."""
        kw.setdefault("c_bar", 1.0)
        return cls("reducible", ProfileFunction.piecewise([q_coeffs]), **kw)


class DerivedFunctions(NamedTuple):
    phi: float
    psi: float
    q: float
    phi_d: float
    psi_d: float


def derived_functions(p: SKRProfile, tau: float) -> DerivedFunctions:
    """phi, psi, Q and derivatives at tau.

    Irreducible: Q = 2(tau - c_bar) phi, psi = phi + (tau - c_bar) phi',
    psi' = 2 phi' + (tau - c_bar) phi''.  Reducible: phi = 0, Q = fn,
    psi = Q'/2, psi' = Q''/2.
    """
    f, f_d, f_dd = p.fn.at(tau)
    if p.mode == "irreducible":
        shift = tau - p.c_bar
        phi, psi, q, phi_d = f, f + shift * f_d, 2.0 * shift * f, f_d
        psi_d = 2.0 * f_d + shift * f_dd
    else:
        phi, psi, q, phi_d, psi_d = 0.0, 0.5 * f_d, f, 0.0, 0.5 * f_dd
    if not q > 0.0:
        raise ProfileError(f"Q(tau) = {q:.6g} <= 0 at tau = {tau:.6g}")
    return DerivedFunctions(phi, psi, q, phi_d, psi_d)


class CurvatureComponents(NamedTuple):
    """Curvature entries in the adapted frame: horizontal plane (b), the
    mixed Kahler component (c), the vertical plane (d) and the off-block
    coefficient r = c/2 in the irreducible case."""

    b: float
    c: float
    d: float
    r: float


def curvature_components(p: SKRProfile, d: DerivedFunctions) -> CurvatureComponents:
    """Adapted-frame curvature from the profile values ``d`` at one tau."""
    if p.mode == "irreducible":
        b = -abs(d.phi / d.q) * p.base_curv - 4.0 * d.phi**2 / d.q
        c = -d.phi_d
        r = -0.5 * d.phi_d
    else:
        b = -p.base_curv
        c = 0.0
        r = 0.0
    return CurvatureComponents(b, c, -d.psi_d, r)


def curvature_matrix(cc: CurvatureComponents) -> np.ndarray:
    """The adapted-frame curvature matrix of forms over the 4-dimensional coframe.

    Row/column pattern: the (1,2) entry is b e^12 + c e^34, the (3,4) entry
    c e^12 + d e^34, and the four mixed entries are r(e^13 + e^24) and
    +-r(e^14 - e^23); antisymmetric completion.
    """
    b, c, d, r = cc
    return _antisymmetric(4, [
        (1, 2, (1, 2), b), (1, 2, (3, 4), c),
        (3, 4, (1, 2), c), (3, 4, (3, 4), d),
        (1, 3, (1, 3), r), (1, 3, (2, 4), r),
        (1, 4, (1, 4), r), (1, 4, (2, 3), -r),
        (2, 3, (1, 4), -r), (2, 3, (2, 3), r),
        (2, 4, (1, 3), r), (2, 4, (2, 4), r),
    ])


def nabla_x_matrix(phi: float, psi: float, dimension: int = 4) -> np.ndarray:
    """Degree-0 matrix of forms of the Killing field's covariant derivative:
    phi on the horizontal rotation block, psi on the vertical one."""
    return _antisymmetric(dimension, [(1, 2, (), phi), (3, 4, (), psi)])


def _antisymmetric(dimension: int, entries) -> np.ndarray:
    """The 4x4 matrix of forms over a coframe of ``dimension`` vectors with
    value e^I at (i, j), 1-based, for each (i, j, I, value) of ``entries``,
    minus its transpose."""
    data = np.zeros((4, 4, 1 << dimension))
    for i, j, indices, value in entries:
        data[i - 1, j - 1, mask_of_indices(indices, dimension)] = value
    return data - data.transpose(1, 0, 2)


def equivariant_curvature_matrix(p: SKRProfile, tau: float) -> np.ndarray:
    """Equivariant curvature in the adapted frame.

    The circle action is generated by the Killing field u itself; with the
    flow convention fixed by the closed L-form below, its moment
    endomorphism adds (rather than subtracts) the nabla-u rotation block, so
    the (1,2) entry reads phi + b e^12 + c e^34.
    """
    d = derived_functions(p, tau)
    cc = curvature_components(p, d)
    return curvature_matrix(cc) + nabla_x_matrix(d.phi, d.psi, dimension=4)


# for |phi - psi| <= _CROSSING (|phi| + |psi|) the quotient for lambda'[phi, psi] loses digits
_CROSSING = 0.025


def l4_closed(phi: float, psi: float, cc: CurvatureComponents) -> float:
    """Degree-4 coefficient of the equivariant L-form at one tau.

    The even forms here lie in span{1, e^12, e^34, e^1234} and commute.
    det(lam - R_X) = lam^4 + A lam^2 + Pf^2 with A = phi^2 + psi^2
    + 2(phi b + psi c) e^12 + 2(phi c + psi d) e^34 + 2(bc + cd - 4r^2) e^1234
    and Pf = phi psi + (phi c + psi b) e^12 + (phi d + psi c) e^34
    + (bd + c^2 + 4r^2) e^1234, whose angle forms (x1^2 + x2^2 = A, x1 x2 = Pf)
    are x1 = phi + b e^12 + c e^34 - n e^1234 and x2 = psi + c e^12 + d e^34
    + n e^1234, n = 4r^2/(phi - psi).  So L = Lbar(x1) Lbar(x2), with
    Lbar(x) = x/(2 tan(x/2)) = exp(lambda(x)), has the e^1234 coefficient
    Lbar(phi) Lbar(psi) [-4r^2 lambda'[phi, psi] + lambda''(phi) bc + lambda''(psi) cd
    + (lambda'(phi) b + lambda'(psi) c)(lambda'(phi) c + lambda'(psi) d)], where the
    divided difference lambda'[phi, psi] is lambda''(phi) at the crossing
    phi = psi (constant phi, the flat product).  0.0 + turns -0.0 into +0.0.
    """
    b, c, d, r = cc
    # lambda(x) = 2 g(ix) for the L-log germ g: lambda' = -2 s and lambda'' = -2 t
    g1, s1, t1 = l_log_at_angle(phi)
    g2, s2, t2 = l_log_at_angle(psi)
    d1, d2 = -2.0 * s1, -2.0 * s2
    divided = _divided_difference(phi, psi, d1, d2, g1)
    log4 = (d1 * b + d2 * c) * (d1 * c + d2 * d) - 2.0 * (t1 * b * c + t2 * c * d)
    return 0.0 + math.exp(2.0 * (g1 + g2)) * (log4 - 4.0 * r * r * divided)


def _divided_difference(phi: float, psi: float, d1: float, d2: float, g1: float) -> float:
    """lambda'[phi, psi] from lambda'(phi) = d1, lambda'(psi) = d2 and
    g1 = lambda(phi)/2: their quotient of differences outside the crossing
    band, the series of :func:`_lambda_divided_difference` inside it."""
    if abs(phi - psi) > _CROSSING * (abs(phi) + abs(psi)):
        return (d1 - d2) / (phi - psi)
    return _lambda_divided_difference(phi, psi, d2, math.exp(2.0 * g1))


def _lambda_divided_difference(phi: float, psi: float, d1_psi: float, lbar_phi: float) -> float:
    """lambda'[phi, psi] = (Lbar'[phi, psi] - lambda'(psi) Lbar[phi, psi]) / Lbar(phi),
    which never divides by phi - psi: for Lbar = sum_k c_k x^(2k),
    Lbar[phi, psi] = sum_k c_k h_(2k-1) and Lbar'[phi, psi] = sum_k 2k c_k h_(2k-2),
    with h_n = sum_j phi^j psi^(n - j) = phi h_(n-1) + psi^n.  The terms fall
    off like (max(|phi|, |psi|) / 2 pi)^(2k); the sum stops once they no
    longer change it."""
    h, psi_n, lbar_dd, lbar_d1_dd = 1.0, 1.0, 0.0, 0.0  # h_0 and psi^0
    for k, c_k in enumerate(_BAR[1:], 1):
        term = 2 * k * c_k * h
        lbar_d1_dd += term
        h, psi_n = phi * h + psi_n * psi, psi_n * psi * psi  # h_(2k-1), psi^(2k)
        lbar_dd += c_k * h
        h = phi * h + psi_n
        if abs(term) <= 1e-17 * abs(lbar_d1_dd):
            break
    return (lbar_d1_dd - d1_psi * lbar_dd) / lbar_phi


def l4_coefficient(p: SKRProfile, tau: float) -> float:
    """Degree-4 coefficient of the closed-form equivariant L-form at tau."""
    d = derived_functions(p, tau)
    return l4_closed(d.phi, d.psi, curvature_components(p, d))


def volume_weight(p: SKRProfile, tau: float) -> float:
    """Radial density of the volume form: 2|tau - c_bar| (irreducible) or 1."""
    if p.mode == "irreducible":
        return 2.0 * abs(tau - p.c_bar)
    return 1.0


# --------------------------------------------------------------------------- boundary data

@dataclass(frozen=True)
class BoundaryData:
    """Everything pulled back to the boundary {tau = 0}.

    theta is the second-fundamental-form difference matrix with 1-form
    entries k e^1, k e^2, l e^3 in the last column (k = phi0/sqrt(Q0),
    l = psi0/sqrt(Q0)); a1/a2/a3 are the pieces of the pulled-back curvature
    of the connection family, i* R^t = a1 + t a2 + t^2 a3.  All four are
    4x4 matrices of forms over the 3-dimensional boundary coframe.
    """

    phi0: float
    psi0: float
    q0: float
    k: float
    l: float
    r_1234: float
    r_2314: float
    r0_1212: float
    r0_2323: float
    theta: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray


def boundary_data(p: SKRProfile) -> BoundaryData:
    d = derived_functions(p, 0.0)
    cc = curvature_components(p, d)
    sqrt_q0 = math.sqrt(d.q)
    k = d.phi / sqrt_q0
    l = d.psi / sqrt_q0

    if p.mode == "irreducible":
        r0_1212 = 2.0 * abs(p.c_bar) * p.base_curv + 3.0 * d.q / (4.0 * p.c_bar**2)
        r0_2323 = -d.q / (4.0 * p.c_bar**2)
    else:
        # flat disc bundle: the boundary is an honest product of base and
        # circle, so the horizontal block agrees with the bulk one and the
        # mixed planes are flat (neither value enters any computed quantity)
        r0_1212 = -p.base_curv
        r0_2323 = 0.0

    theta = _antisymmetric(3, [(1, 4, (1,), k), (2, 4, (2,), k), (3, 4, (3,), l)])
    # equal 13/23 sectional blocks
    a1 = _antisymmetric(
        3, [(1, 2, (1, 2), r0_1212), (1, 3, (1, 3), r0_2323), (2, 3, (2, 3), r0_2323)]
    )
    a2 = _antisymmetric(3, [(1, 4, (2, 3), -cc.r), (2, 4, (1, 3), cc.r), (3, 4, (1, 2), cc.c)])

    a3 = mat_mul(theta, theta)
    if not (np.isfinite(a1).all() and np.isfinite(a3).all()):
        raise EquicharError("non-finite boundary curvature (a float overflow)")

    return BoundaryData(
        phi0=d.phi,
        psi0=d.psi,
        q0=d.q,
        k=k,
        l=l,
        r_1234=cc.c,
        r_2314=-cc.r,
        r0_1212=r0_1212,
        r0_2323=r0_2323,
        theta=theta,
        a1=a1,
        a2=a2,
        a3=a3,
    )


def boundary_family(bd: BoundaryData) -> ConnectionFamily:
    """The boundary connection family feeding the generic transgression:
    nabla^t X is phi0 on the horizontal block and t psi0 on the vertical one,
    and R^t = a1 + t a2 + t^2 a3."""
    return ConnectionFamily(
        theta=bd.theta,
        nabla_x=(nabla_x_matrix(bd.phi0, 0.0, 3), nabla_x_matrix(0.0, bd.psi0, 3)),
        curvature=(bd.a1, bd.a2, bd.a3),
    )


# --------------------------------------------------------------------------- transgression

def closed_transgression_integrand(bd: BoundaryData, t: float) -> float:
    """Coefficient of e^123 in the closed-series transgression integrand at t.

    Its series sum_m a_m h_m(phi^2, w^2), a_m = (-1)^m (2m + 2) f_(2m+2) for
    the Taylor coefficients f_j of the L-log germ g and w = t psi, is summed
    in closed form.  With s(x) = g'(ix)/i = sum_m a_m x^(2m+1), the divided
    differences D+- = s[phi, +-w] = -lambda'[phi, +-w]/2 give
    sum_m a_m h_m = (D+ + D-)/2 and phi w sum_m a_m h_(m-1) = (D+ - D-)/2;
    s(-w) = -s(w) needs no further evaluation.
    """
    phi = bd.phi0
    w = t * bd.psi0
    g_phi, s_phi, _ = l_log_at_angle(phi)
    g_w, s_w, f2_w = l_log_at_angle(w)
    weight = math.exp(2.0 * (g_phi + g_w))

    # product of the two single-trace terms; products of f'(i.) values are
    # real and carry one overall minus sign
    term1 = 4.0 * bd.l * (
        -(t * t * bd.k * bd.k - bd.r0_1212) * s_phi * s_w + t * bd.r_1234 * s_w * s_w
    )

    # D+- from lambda' = -2 s; odd = 2 phi w sum_m a_m h_(m-1), even = 2 sum_m a_m h_m
    d_plus = -0.5 * _divided_difference(phi, w, -2.0 * s_phi, -2.0 * s_w, g_phi)
    d_minus = -0.5 * _divided_difference(phi, -w, -2.0 * s_phi, 2.0 * s_w, g_phi)
    odd, even = d_plus - d_minus, d_plus + d_minus
    term2 = 2.0 * bd.k * ((bd.r0_2323 - t * t * bd.k * bd.l) * odd - t * bd.r_2314 * even)

    term3 = -2.0 * t * bd.l * bd.r_1234 * f2_w
    return weight * (term1 + term2 + term3)


class ClosedPullback(NamedTuple):
    """The closed route's pull-back, the coefficient of e^123, together with
    the integrand values at the ascending quadrature nodes that it sums."""

    value: float
    integrand: list


def transgression_pullback_closed(bd: BoundaryData, nodes: int = 32) -> ClosedPullback:
    """Closed-series route to the e^123 coefficient of the boundary pull-back
    of the degree-3 transgression of the equivariant L-form, by the
    ``nodes``-point Gauss-Legendre rule on [0, 1]."""
    xs, ws = gauss_legendre(nodes, 0.0, 1.0)
    integrand = [closed_transgression_integrand(bd, float(x)) for x in xs]
    return ClosedPullback(weighted_sum(ws, integrand), integrand)


def transgression_pullback_direct(bd: BoundaryData, nodes: int = 32) -> float:
    """Generic-machinery route: the e^123 coefficient of the boundary family
    pushed through the degree-3 transgression integrand, germs on the
    spectrum, by the same ``nodes``-point rule as the closed route."""
    form = transgression_degree3(hirzebruch_l_log_germ(), boundary_family(bd), nodes)
    return float(form[mask_of_indices((1, 2, 3), 3)])
