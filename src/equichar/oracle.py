"""Finite-difference differential geometry on an explicit SKR coordinate chart.

This is the independent validation engine: it never touches the closed
curvature formulas of :mod:`equichar.skr`.  It builds the metric tensor of a
flat-base chart realizing the SKR classification, differentiates it with
central differences, and produces Christoffel symbols, frame curvature
components, connection 1-forms and Kahler defects that the test suite
compares against the closed expressions.

A chart point is a (tau, s, x, y) vector.  Every chart quantity here takes
one point or an array of shape (..., 4) and returns its value at each point,
with one profile evaluation per distinct tau; a central difference samples
its whole stencil in one call.  A curvature evaluation makes five metric
calls however many points it covers, and the oracle suite, which evaluates
each quantity at all its points in one call, makes ten.

Chart: coordinates (tau, s, x, y) with fiber angle s, flat base h = dx^2+dy^2
(so the base curvature constant is 0 here) and connection potential
theta = a(ds + 2 sigma x dy) with sigma the constant sign of tau - c_bar on
the chart; closedness of the Kahler form dtau ^ theta/a + 2|tau - c_bar|
dx ^ dy forces exactly this twist, one sign per branch of c_bar.  The
reducible case is the flat bundle theta = a ds.  The frame is e_1 ~ d/dx,
e_2 = J e_1, e_3 = u/sqrt(Q), e_4 = -v/sqrt(Q) with v the gradient of tau and
u its rotation by J.

Curvature sign convention: components are reported as
R_{ijkl} = -<[nabla_i, nabla_j] e_k - nabla_{[e_i,e_j]} e_k, e_l>,
matching the closed-formula convention of the skr module (vertical block
component R_3434 equals -psi').
"""

from __future__ import annotations

import math

import numpy as np

from .charforms import gauss_legendre
from .skr import SKRProfile, derived_functions

__all__ = [
    "frame_at",
    "christoffel_fd",
    "riemann_coord_fd",
    "riemann_frame_fd",
    "connection_oneform_fd",
    "kahler_defect_fd",
    "pregeodesic_defect_fd",
    "volume_integral_chart",
    "DEFAULT_FD_STEP",
]

DEFAULT_FD_STEP = 1e-4


SHIFTS = np.stack([np.eye(4), -np.eye(4)], axis=1)  # SHIFTS[m] = (e_m, -e_m)


def _q(p: SKRProfile, tau: np.ndarray) -> np.ndarray:
    """Q at every entry of ``tau``, with one profile evaluation per distinct tau."""
    distinct, where = np.unique(tau, return_inverse=True)
    return np.array([derived_functions(p, t).q for t in distinct])[where].reshape(tau.shape)


def _metric_matrix(p: SKRProfile, pt) -> np.ndarray:
    """Chart metric: (1/Q) dtau^2 + Q (ds + 2 sigma x dy)^2 + 2|tau - c_bar| (dx^2 + dy^2),
    with the conformal factor replaced by 1 and no x-twist in the reducible case;
    g[..., i, j] at the points pt[..., :]."""
    pt = np.asarray(pt, dtype=float)
    tau, x = pt[..., 0], pt[..., 2]
    q = _q(p, tau)
    g = np.zeros(tau.shape + (4, 4))
    g[..., 0, 0] = 1.0 / q
    g[..., 1, 1] = q
    if p.mode == "irreducible":
        two_t = 2.0 * abs(tau - p.c_bar)
        twist = 2.0 * _branch_sign(p) * x
        g[..., 1, 3] = g[..., 3, 1] = q * twist
        g[..., 2, 2] = two_t
        g[..., 3, 3] = q * twist * twist + two_t
    else:
        g[..., 2, 2] = 1.0
        g[..., 3, 3] = 1.0
    return g


def _branch_sign(p: SKRProfile) -> float:
    """Constant sign of tau - c_bar on the chart (c_bar avoids [tau_min, 0])."""
    return 1.0 if p.c_bar < p.tau_min else -1.0


def frame_at(p: SKRProfile, pt) -> np.ndarray:
    """Rows e[..., i, :] are the adapted orthonormal frame vectors in chart
    components at the points pt[..., :]."""
    pt = np.asarray(pt, dtype=float)
    tau, x = pt[..., 0], pt[..., 2]
    sq = np.sqrt(_q(p, tau))
    e = np.zeros(tau.shape + (4, 4))
    if p.mode == "irreducible":
        root = np.sqrt(2.0 * abs(tau - p.c_bar))
        e[..., 0, 2] = 1.0 / root
        e[..., 1, 1] = -2.0 * _branch_sign(p) * x / root  # horizontal lift of d/dy kills theta
        e[..., 1, 3] = 1.0 / root
    else:
        e[..., 0, 2] = 1.0
        e[..., 1, 3] = 1.0
    e[..., 2, 1] = 1.0 / sq          # e_3 = u / sqrt(Q), u = d/ds
    e[..., 3, 0] = -sq               # e_4 = -v / sqrt(Q), v = Q d/dtau
    return e


def _central_diff(fn, pts, h_step: float) -> np.ndarray:
    """Central differences of an array-valued fn of points, stacked over the
    chart axis: result[..., m, :] = d_m fn at pts[..., :].  fn is called once,
    on the (..., 4, 2, 4) array of the shifted points pts +- h e_m."""
    pts = np.asarray(pts, dtype=float)
    plus, minus = np.moveaxis(fn(pts[..., None, None, :] + h_step * SHIFTS), pts.ndim, 0)
    return (plus - minus) / (2.0 * h_step)


def christoffel_fd(p: SKRProfile, pt, h_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Gamma[..., k, i, j] = Gamma^k_ij at the points pt[..., :], by central
    differences of the metric."""
    g_inv = np.linalg.inv(_metric_matrix(p, pt))
    dg = _central_diff(lambda q: _metric_matrix(p, q), pt, h_step)  # dg[..., m, i, j] = d_m g_ij
    # Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)
    return 0.5 * np.einsum(
        "...kl,...ijl->...kij", g_inv, dg + dg.swapaxes(-3, -2) - np.moveaxis(dg, -3, -1)
    )


def riemann_coord_fd(p: SKRProfile, pt, h_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Covariant coordinate curvature R[..., mu, nu, rho, sigma] = <R(d_mu, d_nu) d_rho, d_sigma>
    in the commutator-first convention [nabla_mu, nabla_nu] - nabla_[.,.]."""
    gamma = christoffel_fd(p, pt, h_step)
    # dgamma[..., m, k, i, j] = d_m Gamma^k_ij
    dgamma = _central_diff(lambda q: christoffel_fd(p, q, h_step), pt, h_step)
    # R^sigma_{rho mu nu} = d_mu Gamma^sigma_{nu rho} - d_nu Gamma^sigma_{mu rho}
    #                     + Gamma^sigma_{mu lam} Gamma^lam_{nu rho} - (mu <-> nu)
    # d_term[..., sig, rho, mu, nu] = d_mu Gamma^sig_{nu rho}
    d_term = np.moveaxis(dgamma, (-3, -1, -4, -2), (-4, -3, -2, -1))
    g_term = np.einsum("...sml,...lnr->...srmn", gamma, gamma)
    r_up = d_term - d_term.swapaxes(-2, -1) + g_term - g_term.swapaxes(-2, -1)
    g = _metric_matrix(p, pt)
    return np.einsum("...srmn,...st->...mnrt", r_up, g)


def riemann_frame_fd(p: SKRProfile, pt, h_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Frame curvature components R[..., i, j, k, l] for the adapted frame, in
    the sign convention of the closed formulas (see module docstring)."""
    r_cov = riemann_coord_fd(p, pt, h_step)
    e = frame_at(p, pt)
    # one coordinate index at a time into the frame: t -> l, r -> k, n -> j, m -> i
    r = np.einsum("...lt,...mnrt->...mnrl", e, r_cov)
    r = np.einsum("...kr,...mnrl->...mnkl", e, r)
    r = np.einsum("...jn,...mnkl->...mjkl", e, r)
    return -np.einsum("...im,...mjkl->...ijkl", e, r)


def connection_oneform_fd(p: SKRProfile, pt, h_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """nu[..., i, j, k] = g(nabla_{e_k} e_i, e_j), the frame connection 1-form."""
    gamma = christoffel_fd(p, pt, h_step)
    g = _metric_matrix(p, pt)
    e = frame_at(p, pt)
    de = _central_diff(lambda q: frame_at(p, q), pt, h_step)  # de[..., m, i, a] = d_m (e_i)^a
    # nabla_{e_k} e_i = e_k^m ( d_m e_i^a + Gamma^a_{m b} e_i^b )
    cov = np.einsum("...km,...mia->...kia", e, de) + np.einsum(
        "...km,...amb,...ib->...kia", e, gamma, e
    )
    return np.einsum("...kia,...jb,...ab->...ijk", cov, e, g)


def _complex_structure(p: SKRProfile, pt) -> np.ndarray:
    """J as a coordinate (1,1)-tensor at the points pt[..., :], assembled from
    the frame pattern J e_1 = e_2, J e_2 = -e_1, J e_3 = e_4, J e_4 = -e_3."""
    e = frame_at(p, pt)
    coframe = np.linalg.inv(e)  # coframe[..., mu, i] = (e^i)_mu, rows of e are frame vectors
    j = np.zeros(e.shape)
    for a, b, sign in ((1, 0, 1.0), (0, 1, -1.0), (3, 2, 1.0), (2, 3, -1.0)):
        j += sign * (e[..., a, :, None] * coframe[..., None, :, b])  # sign * e_a (x) e^b
    return j  # j[..., alpha, beta] = J^alpha_beta


def kahler_defect_fd(p: SKRProfile, pt, h_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """max |nabla J| component at each point; vanishes for a Kahler metric."""
    gamma = christoffel_fd(p, pt, h_step)
    dj = _central_diff(lambda q: _complex_structure(p, q), pt, h_step)
    j = _complex_structure(p, pt)
    grad = (
        dj
        + np.einsum("...aml,...lb->...mab", gamma, j)
        - np.einsum("...lmb,...al->...mab", gamma, j)
    )
    return np.max(np.abs(grad), axis=(-3, -2, -1))


def pregeodesic_defect_fd(p: SKRProfile, pt, h_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Size of the component of nabla_v v orthogonal to v, normalized by |v|^2,
    at each point; zero when the gradient flow lines are pre-geodesics."""
    pt = np.asarray(pt, dtype=float)
    q = _q(p, pt[..., 0])
    # v = Q d/dtau; nabla_v v = Q dQ/dtau d_tau + Q^2 Gamma^l_00 d_l, and the
    # d_tau part is the one along v
    ortho = (q * q)[..., None] * christoffel_fd(p, pt, h_step)[..., :, 0, 0]
    ortho[..., 0] = 0.0
    g = _metric_matrix(p, pt)
    return np.sqrt((ortho[..., None, :] @ g @ ortho[..., :, None])[..., 0, 0]) / q


def volume_integral_chart(p: SKRProfile, integrand) -> float:
    """Direct 4-dimensional Gauss-Legendre quadrature of integrand(tau) over the
    chart, with the volume density taken from the determinant of the chart
    metric numerically.

    The chart covers the full fiber circle and a base rectangle of the
    profile's base_area; used to pin the reduced 1-dimensional convention.
    """
    side = math.sqrt(p.base_area)
    spans = ((24, p.tau_min, 0.0), (6, 0.0, p.fiber_period), (6, 0.0, side), (6, 0.0, side))
    rules = [gauss_legendre(*span) for span in spans]
    grid = np.stack(np.meshgrid(*(x for x, _ in rules), indexing="ij"), axis=-1)
    weight = np.einsum("i,j,k,l->ijkl", *(w for _, w in rules))
    f_val = np.array([integrand(float(tau)) for tau in rules[0][0]])
    dens = np.sqrt(np.linalg.det(_metric_matrix(p, grid)))
    return float(np.sum(weight * f_val[:, None, None, None] * dens))
