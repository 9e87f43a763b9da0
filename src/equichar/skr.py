"""Four-dimensional SKR (special Kahler-Ricci potential) geometry.

An SKR metric on a disc bundle over a Riemann surface is determined, on the
regular set of its Killing potential tau, by a single profile function: phi of
tau together with the constant c_bar in the irreducible case, or a positive
Q of tau in the reducible (local product) case, held as one piecewise
polynomial (:class:`ProfileFunction`) and validated exactly.  This module
derives the associated eigenfunctions phi, psi and Q, the curvature
components in the adapted orthonormal frame, closed-form expressions for the
equivariant Hirzebruch L-form, the boundary data at {tau = 0}, and the closed
series formula for the pull-back of the degree-3 transgression of the
L-form, alongside the generic-machinery route through
:mod:`equichar.charforms`.

Frame conventions: e_1 is a normalized horizontal lift, e_2 = J e_1,
e_3 = u/sqrt(Q) for the Killing field u, and e_4 = -v/sqrt(Q) for the
gradient v of tau, which is outward pointing at the boundary.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .charforms import ConnectionFamily, QuadratureSpec, transgression_degree3
from .errors import ConvergenceRadiusError, EquicharError, ProfileError, SingularInputError
from .exterior import ExteriorForm, mask_of_indices
from .matforms import (
    _GERM_COEFFS,
    DEFAULT_SERIES_ORDER,
    AnalyticGerm,
    FormMatrix,
    _horner,
    hirzebruch_l_log_germ,
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
    "eigenvalue_square",
    "sqrt_a_coeffs",
    "l_form_from_sqrt",
    "l_form_closed",
    "l4_coefficient",
    "volume_weight",
    "boundary_data",
    "boundary_family",
    "transgression_pullback_closed",
    "transgression_pullback_direct",
    "closed_transgression_integrand",
    "ClosedPullback",
    "MAX_SERIES_ORDER",
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
        i = bisect_right(knots, tau, 1) - 1 if len(knots) > 1 else 0
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
    label: str = ""

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


@dataclass(frozen=True)
class CurvatureComponents:
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
    return CurvatureComponents(b=b, c=c, d=-d.psi_d, r=r)


def curvature_matrix(cc: CurvatureComponents) -> FormMatrix:
    """The adapted-frame curvature matrix over the 4-dimensional coframe.

    Row/column pattern: the (1,2) entry is b e^12 + c e^34, the (3,4) entry
    c e^12 + d e^34, and the four mixed entries are r(e^13 + e^24) and
    +-r(e^14 - e^23); antisymmetric completion.
    """
    dim = 4
    data = np.zeros((4, 4, 1 << dim))

    def put(i, j, pairs):
        for indices, value in pairs:
            mask = mask_of_indices(indices, dim)
            data[i - 1, j - 1, mask] += value
            data[j - 1, i - 1, mask] -= value

    put(1, 2, [((1, 2), cc.b), ((3, 4), cc.c)])
    put(3, 4, [((1, 2), cc.c), ((3, 4), cc.d)])
    put(1, 3, [((1, 3), cc.r), ((2, 4), cc.r)])
    put(1, 4, [((1, 4), cc.r), ((2, 3), -cc.r)])
    put(2, 3, [((1, 4), -cc.r), ((2, 3), cc.r)])
    put(2, 4, [((1, 3), cc.r), ((2, 4), cc.r)])
    return FormMatrix(4, dim, data)


def nabla_x_matrix(phi: float, psi: float, dimension: int = 4) -> FormMatrix:
    """Degree-0 matrix of the Killing field's covariant derivative:
    phi on the horizontal rotation block, psi on the vertical one."""
    mat = np.zeros((4, 4))
    mat[0, 1], mat[1, 0] = phi, -phi
    mat[2, 3], mat[3, 2] = psi, -psi
    return FormMatrix.from_scalar_matrix(mat, dimension)


def equivariant_curvature_matrix(p: SKRProfile, tau: float) -> FormMatrix:
    """Equivariant curvature in the adapted frame.

    The circle action is generated by the Killing field u itself; with the
    flow convention fixed by the closed eigenvalue formulas below, its moment
    endomorphism adds (rather than subtracts) the nabla-u rotation block, so
    the (1,2) entry reads phi + b e^12 + c e^34.
    """
    d = derived_functions(p, tau)
    cc = curvature_components(p, d)
    return curvature_matrix(cc) + nabla_x_matrix(d.phi, d.psi, dimension=4)


def eigenvalue_square(phi: float, psi: float, cc: CurvatureComponents) -> ExteriorForm:
    """The even form A with spec(R_g) = {0, 0, +-i sqrt(A)}:

    A = phi^2 + psi^2 + 2(phi b + psi c) e^12 + 2(phi c + psi d) e^34
        + 2(bc + cd - 4r^2) e^1234.
    """
    return ExteriorForm(
        4,
        {
            (): phi * phi + psi * psi,
            (1, 2): 2.0 * (phi * cc.b + psi * cc.c),
            (3, 4): 2.0 * (phi * cc.c + psi * cc.d),
            (1, 2, 3, 4): 2.0 * (cc.b * cc.c + cc.c * cc.d - 4.0 * cc.r**2),
        },
    )


class SqrtACoeffs(NamedTuple):
    alpha: float
    beta: float
    gamma: float
    delta: float


def sqrt_a_coeffs(phi: float, psi: float, cc: CurvatureComponents) -> SqrtACoeffs:
    """Coefficients of sqrt(A) = alpha + beta e^12 + gamma e^34 + delta e^1234.

    Solves the square identity coefficient by coefficient.  At phi = psi = 0,
    A = 2(bc + cd - 4r^2) e^1234: its root is 0 when A = 0 (a flat product),
    and a nonzero nilpotent A has none (use the generic germ route near
    that limit instead).
    """
    norm2 = phi * phi + psi * psi
    if norm2 == 0.0:
        if cc.b * cc.c + cc.c * cc.d - 4.0 * cc.r**2 == 0.0:
            return SqrtACoeffs(0.0, 0.0, 0.0, 0.0)
        raise SingularInputError("sqrt_a_coeffs undefined at phi = psi = 0")
    alpha = math.sqrt(norm2)
    beta = (cc.b * phi + cc.c * psi) / alpha
    gamma = (cc.c * phi + cc.d * psi) / alpha
    delta = (
        (cc.c * cc.d - 4.0 * cc.r**2) * phi * phi
        + (cc.b * cc.c - 4.0 * cc.r**2) * psi * psi
        - phi * psi * (cc.b * cc.d + cc.c * cc.c)
    ) / alpha**3
    return SqrtACoeffs(alpha, beta, gamma, delta)


def _check_angle(germ: AnalyticGerm, x: float) -> None:
    """Rotation angles at or past the germ's radius leave the domain of its
    imaginary-axis evaluators (the L-function turns negative past pi)."""
    if abs(x) >= germ.radius:
        raise ConvergenceRadiusError(abs(x), germ.radius, germ.name)


def _lbar_triple(germ: AnalyticGerm, x: float):
    """(Lbar, Lbar', Lbar'') at x for Lbar(y) = exp(2 f(iy)), the restriction of
    the inner L-function to rotation angles."""
    near = abs((x + math.pi) % (2.0 * math.pi) - math.pi)  # distance to 2 pi Z
    if abs(x) > math.pi and near < 1e-8:  # the nonzero multiples only
        raise SingularInputError(f"L-function pole at rotation angle {x:.6g}")
    _check_angle(germ, x)
    value = math.exp(2.0 * germ.eval_i(x))
    d1 = germ.eval_i_d1(x)
    d2 = germ.eval_i_d2(x)
    return value, -2.0 * d1 * value, (4.0 * d1 * d1 - 2.0 * d2) * value


def l_form_from_sqrt(sq: SqrtACoeffs) -> ExteriorForm:
    """Equivariant L-form from the coefficients of sqrt(A):

    Lbar(alpha) + Lbar'(alpha)(beta e^12 + gamma e^34 + delta e^1234)
    + Lbar''(alpha) beta gamma e^1234.
    """
    f0, f1, f2 = _lbar_triple(hirzebruch_l_log_germ(), sq.alpha)
    return ExteriorForm(
        4,
        {
            (): f0,
            (1, 2): f1 * sq.beta,
            (3, 4): f1 * sq.gamma,
            (1, 2, 3, 4): f1 * sq.delta + f2 * sq.beta * sq.gamma,
        },
    )


def l_form_closed(p: SKRProfile, tau: float) -> ExteriorForm:
    """Closed-form equivariant L-form at tau via the eigenvalue route."""
    d = derived_functions(p, tau)
    return l_form_from_sqrt(sqrt_a_coeffs(d.phi, d.psi, curvature_components(p, d)))


def l4_coefficient(p: SKRProfile, tau: float) -> float:
    """Degree-4 coefficient of the closed-form equivariant L-form."""
    return l_form_closed(p, tau).coefficient((1, 2, 3, 4))


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
    of the connection family, i* R^t = a1 + t a2 + t^2 a3.
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
    theta: FormMatrix
    a1: FormMatrix
    a2: FormMatrix
    a3: FormMatrix


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

    dim = 3
    theta = np.zeros((4, 4, 1 << dim))
    theta[0, 3, mask_of_indices((1,), dim)] = k
    theta[1, 3, mask_of_indices((2,), dim)] = k
    theta[2, 3, mask_of_indices((3,), dim)] = l
    theta -= theta.transpose(1, 0, 2)
    theta_m = FormMatrix(4, dim, theta)

    a1 = np.zeros((4, 4, 1 << dim))
    a1[0, 1, mask_of_indices((1, 2), dim)] = r0_1212
    a1[0, 2, mask_of_indices((1, 3), dim)] = r0_2323  # equal 13/23 sectional blocks
    a1[1, 2, mask_of_indices((2, 3), dim)] = r0_2323
    a1 -= a1.transpose(1, 0, 2)

    a2 = np.zeros((4, 4, 1 << dim))
    a2[0, 3, mask_of_indices((2, 3), dim)] = -cc.r
    a2[1, 3, mask_of_indices((1, 3), dim)] = cc.r
    a2[2, 3, mask_of_indices((1, 2), dim)] = cc.c
    a2 -= a2.transpose(1, 0, 2)

    a3_m = mat_mul(theta_m, theta_m)
    if not (np.isfinite(a1).all() and np.isfinite(a3_m.data).all()):
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
        theta=theta_m,
        a1=FormMatrix(4, dim, a1),
        a2=FormMatrix(4, dim, a2),
        a3=a3_m,
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

def closed_transgression_integrand(
    bd: BoundaryData,
    t: float,
    order: int = DEFAULT_SERIES_ORDER,
    nabla_scale: float = 1.0,
) -> float:
    """Coefficient of e^123 in the closed-series transgression integrand at t.

    The series pairs a_m = (-1)^m (2m + 2) f_(2m+2), m = 0..order, for the
    Taylor coefficients f_j of the L-log germ, with the sums of
    phi^k (t psi)^(2m - k) over odd and over even k: 2 phi t psi h_(m-1) and
    2 h_m for the complete homogeneous sums h_m = u h_(m-1) + v^m
    (h_(-1) = 0) of u = phi^2 and v = (t psi)^2, summed in one pass over m.

    ``nabla_scale`` rescales the Killing-derivative arguments only (the
    second-fundamental-form data k, l and the curvature inputs stay fixed);
    the scale-to-zero limit recovers f''(0) Tr[Theta R^t].
    """
    g = hirzebruch_l_log_germ()
    phi = nabla_scale * bd.phi0
    tpsi = t * nabla_scale * bd.psi0
    _check_angle(g, max(abs(phi), abs(tpsi)))
    weight = math.exp(2.0 * (g.eval_i(phi) + g.eval_i(tpsi)))
    f1_phi = g.eval_i_d1(phi)
    f1_tpsi = g.eval_i_d1(tpsi)
    f2_tpsi = g.eval_i_d2(tpsi)

    # product of the two single-trace terms; products of f'(i.) values are
    # real and carry one overall minus sign
    term1 = 4.0 * bd.l * (
        -(t * t * bd.k * bd.k - bd.r0_1212) * f1_phi * f1_tpsi
        + t * bd.r_1234 * f1_tpsi * f1_tpsi
    )

    u, v = phi * phi, tpsi * tpsi
    h_prev, h, v_m = 0.0, 1.0, 1.0  # h_(m-1), h_m and v^m at m = 0
    odd = even = 0.0  # the sums of a_m h_(m-1) and of a_m h_m
    for m, coeff in enumerate(g.taylor[2 : 2 * order + 3 : 2]):
        a_m = (-1) ** m * (2 * m + 2) * coeff
        odd += a_m * h_prev
        even += a_m * h
        v_m *= v
        h_prev, h = h, u * h + v_m
    series = 2.0 * ((bd.r0_2323 - t * t * bd.k * bd.l) * phi * tpsi * odd - t * bd.r_2314 * even)
    term2 = 2.0 * bd.k * series

    term3 = -2.0 * t * bd.l * bd.r_1234 * f2_tpsi
    return weight * (term1 + term2 + term3)


# closed_transgression_tail reads Taylor coefficients up to index 2 order + 10
MAX_SERIES_ORDER = (_GERM_COEFFS - 11) // 2


def closed_transgression_tail(bd: BoundaryData, order: int) -> float:
    """Coarse bound on the dropped series tail of the closed integrand."""
    g = hirzebruch_l_log_germ()
    rho = max(abs(bd.phi0), abs(bd.psi0))
    scale = abs(bd.r0_2323) + abs(bd.phi0 * bd.psi0 / bd.q0) + abs(bd.r_2314)
    tail = 0.0
    for m in range(order + 1, order + 5):
        a_m = abs((2 * m + 2) * g.coeff(2 * m + 2))
        tail += a_m * 2.0 * (2 * m + 1) * rho ** (2 * m) * scale
    return 2.0 * abs(bd.k) * tail


class ClosedPullback(ExteriorForm):
    """The closed route's pull-back, a multiple of e^123, together with the
    integrand values at the ascending quadrature nodes that it sums."""

    __slots__ = ("integrand",)

    def __init__(self, coefficient: float, integrand: list):
        super().__init__(3, {(1, 2, 3): coefficient})
        self.integrand = integrand


def transgression_pullback_closed(
    bd: BoundaryData,
    order: int = DEFAULT_SERIES_ORDER,
    quad: QuadratureSpec = QuadratureSpec(),
) -> ClosedPullback:
    """Closed-series route to the boundary pull-back of the degree-3
    transgression of the equivariant L-form; a multiple of e^123."""
    xs, ws = quad.rule()
    integrand = [closed_transgression_integrand(bd, float(x), order) for x in xs]
    acc = 0.0
    for w, val in zip(ws, integrand):
        acc += float(w) * val
    return ClosedPullback(acc, integrand)


def transgression_pullback_direct(
    bd: BoundaryData,
    order: int = DEFAULT_SERIES_ORDER,
    quad: QuadratureSpec = QuadratureSpec(),
) -> ExteriorForm:
    """Generic-machinery route: the boundary family pushed through the
    degree-3 transgression integrand."""
    return transgression_degree3(hirzebruch_l_log_germ(), boundary_family(bd), quad, order)
