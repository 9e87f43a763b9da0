import math

import mpmath as mp
import numpy as np
import pytest

from conftest import make_irreducible, make_reducible
from equichar import skr
from equichar.charforms import QuadratureSpec, l_form, transgression_degree3
from equichar.errors import ConvergenceRadiusError, ProfileError, SingularInputError
from equichar.exterior import ExteriorForm, degree_component, wedge
from equichar.matforms import char_poly, hirzebruch_l_log_germ, mat_mul, trace
from equichar.skr import SKRProfile

QUAD = QuadratureSpec(32)
GERM = hirzebruch_l_log_germ()


# ----------------------------------------------------------------- derived functions

def test_derived_functions_worked(worked_profile):
    d = skr.derived_functions(worked_profile, 0.0)
    assert d.phi == pytest.approx(0.5, abs=1e-15)
    assert d.psi == pytest.approx(0.75, abs=1e-15)
    assert d.q == pytest.approx(1.0, abs=1e-15)
    assert d.phi_d == pytest.approx(0.25, abs=1e-15)
    assert d.psi_d == pytest.approx(0.5, abs=1e-15)


def test_derived_functions_constant_phi():
    p = SKRProfile.irreducible_polynomial([0.5], c_bar=-1.0, tau_min=-0.5)
    d = skr.derived_functions(p, 0.0)
    assert d.psi == pytest.approx(0.5, abs=1e-15)
    assert d.q == pytest.approx(1.0, abs=1e-15)
    assert d.phi_d == 0.0 and d.psi_d == 0.0


def test_polynomial_profiles_match_numpy_polynomial():
    """The Horner evaluators do the arithmetic of numpy's Polynomial exactly."""
    coeffs = [0.7, -0.3, 0.45, 0.2, -0.05]
    poly = np.polynomial.Polynomial(coeffs)
    irred = SKRProfile.irreducible_polynomial(coeffs, c_bar=-2.0, tau_min=-0.4)
    red = SKRProfile.reducible_polynomial(coeffs, tau_min=-0.4)
    for tau in np.linspace(-0.4, 0.0, 17):
        tau = float(tau)
        want = [float(poly.deriv(m)(tau)) for m in (0, 1, 2)]
        assert list(irred.fn.at(tau)) == want
        assert list(red.fn.at(tau)) == want


def test_derived_functions_reducible():
    p = SKRProfile.reducible_polynomial([1.0, 2.0], tau_min=-0.4)
    d = skr.derived_functions(p, 0.0)
    assert (d.phi, d.psi, d.q, d.phi_d, d.psi_d) == (0.0, 1.0, 1.0, 0.0, 0.0)


def test_profile_relations_along_tau(rng):
    """Q = 2(tau - c_bar) phi, Q' = 2 psi (finite difference), and
    Q phi' = 2 (psi - phi) phi, sampled on 100 points per profile."""
    for _ in range(5):
        p = make_irreducible(rng)
        taus = np.linspace(p.tau_min * 0.99, -1e-4, 100)
        h = 1e-5  # balances FD truncation (~h^2) against roundoff (~eps/h)
        for t in taus:
            d = skr.derived_functions(p, float(t))
            assert abs(d.q - 2.0 * (t - p.c_bar) * d.phi) < 1e-12
            dq = (skr.derived_functions(p, float(t + h)).q - skr.derived_functions(p, float(t - h)).q) / (2 * h)
            assert abs(dq - 2.0 * d.psi) < 1e-10 * max(1.0, abs(d.psi))
            assert abs(d.q * d.phi_d - 2.0 * (d.psi - d.phi) * d.phi) < 1e-10


def test_invalid_profiles_raise():
    with pytest.raises(ProfileError):
        SKRProfile.irreducible_polynomial([0.5], c_bar=-0.2, tau_min=-0.5)  # c_bar inside range
    with pytest.raises(ProfileError):
        SKRProfile.reducible_polynomial([-1.0], tau_min=-0.5)  # Q < 0
    with pytest.raises(ProfileError):
        SKRProfile.irreducible_polynomial([0.1, 1.0], c_bar=-2.0, tau_min=-0.5)  # phi crosses 0
    # phi < 0 only on (-0.106, -0.104), between any 50 equal samples of [-0.5, 0]
    with pytest.raises(ProfileError, match="phi vanishes at tau = -0.106"):
        SKRProfile.irreducible_polynomial([0.105**2 - 1e-6, 0.21, 1.0], c_bar=-1.0, tau_min=-0.5)
    # (tau + 0.105)^2 touches 0 without changing sign
    with pytest.raises(ProfileError, match="phi vanishes at tau = -0.105"):
        SKRProfile.irreducible_polynomial([0.105**2, 0.21, 1.0], c_bar=-1.0, tau_min=-0.5)


@pytest.mark.parametrize("coeffs", [[0.5, 1.0], [0.2, 0.6, 0.4]])
def test_zero_of_phi_at_tau_min_is_accepted(coeffs):
    """phi = tau + 0.5 and 0.4 (tau + 0.5)(tau + 1) vanish at tau_min = -0.5
    only: a degenerate inner end, not a zero on (tau_min, 0]."""
    p = SKRProfile.irreducible_polynomial(coeffs, c_bar=-1.0, tau_min=-0.5)
    assert p.fn.zeros(p.tau_min, 0.0) == [-0.5]


def test_profiles_compare_by_their_function():
    a = SKRProfile.irreducible_polynomial([0.5, 0.25], -1.0)
    assert a != SKRProfile.irreducible_polynomial([0.7, 0.1], -1.0)
    assert a == SKRProfile.irreducible_polynomial([0.5, 0.25], -1.0)
    assert hash(a) == hash(SKRProfile.irreducible_polynomial([0.5, 0.25], -1.0))


# ----------------------------------------------------------------- curvature

def test_curvature_components_worked(worked_profile):
    cc = skr.curvature_components(worked_profile, skr.derived_functions(worked_profile, 0.0))
    assert cc.b == pytest.approx(-2.0, abs=1e-15)
    assert cc.c == pytest.approx(-0.25, abs=1e-15)
    assert cc.d == pytest.approx(-0.5, abs=1e-15)
    assert cc.r == pytest.approx(-0.125, abs=1e-15)


def test_curvature_components_reducible():
    p = SKRProfile.reducible_polynomial([1.0], base_curv=1.0, tau_min=-0.4)
    cc = skr.curvature_components(p, skr.derived_functions(p, -0.1))
    assert (cc.b, cc.c, cc.d, cc.r) == (-1.0, 0.0, 0.0, 0.0)


def test_half_relation_r_equals_c_over_2(rng):
    for _ in range(10):
        p = make_irreducible(rng)
        for t in np.linspace(p.tau_min * 0.9, 0.0, 7):
            cc = skr.curvature_components(p, skr.derived_functions(p, float(t)))
            assert cc.r == pytest.approx(0.5 * cc.c, abs=1e-15)


def test_curvature_matrix_zero():
    assert skr.curvature_matrix(skr.CurvatureComponents(0, 0, 0, 0)).max_abs() == 0.0


def test_curvature_matrix_worked_entries(worked_profile):
    cc = skr.curvature_components(worked_profile, skr.derived_functions(worked_profile, 0.0))
    r = skr.curvature_matrix(cc)
    assert r.entry(0, 1).coefficient((3, 4)) == pytest.approx(-0.25)  # R_1234 = -phi'
    assert r.entry(1, 2).coefficient((1, 4)) == pytest.approx(0.125)  # R_2314 = phi'/2
    assert r.is_antisymmetric()


def test_curvature_matrix_sparsity(rng):
    """Every entry lies in span{e12, e34, e13 + e24, e14 - e23}."""
    for _ in range(5):
        p = make_irreducible(rng)
        d = skr.derived_functions(p, p.tau_min * 0.5)
        r = skr.curvature_matrix(skr.curvature_components(p, d))
        for i in range(4):
            for j in range(4):
                entry = r.entry(i, j)
                for idx in ((), (1,), (2,), (3,), (4,), (1, 2, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
                    assert entry.coefficient(idx) == 0.0
                assert entry.coefficient((1, 3)) == entry.coefficient((2, 4))
                assert entry.coefficient((1, 4)) == -entry.coefficient((2, 3))


def test_nabla_x_matrix_layout():
    assert skr.nabla_x_matrix(0.0, 0.0).max_abs() == 0.0
    n = skr.nabla_x_matrix(0.5, 0.75)
    block = n.degree0()
    assert block[0, 1] == 0.5 and block[1, 0] == -0.5
    assert block[2, 3] == 0.75 and block[3, 2] == -0.75
    sq = mat_mul(n, n).degree0()
    assert np.allclose(sq, -np.diag([0.25, 0.25, 0.5625, 0.5625]))


# ----------------------------------------------------------------- sqrt(A) and eigenstructure

def test_sqrt_a_worked_values(worked_profile):
    d = skr.derived_functions(worked_profile, 0.0)
    cc = skr.curvature_components(worked_profile, d)
    sq = skr.sqrt_a_coeffs(d.phi, d.psi, cc)
    root13 = math.sqrt(13.0)
    assert sq.alpha == pytest.approx(root13 / 4.0, abs=1e-15)
    assert sq.beta == pytest.approx(-19.0 / (4.0 * root13), abs=1e-14)
    assert sq.gamma == pytest.approx(-2.0 / root13, abs=1e-14)
    assert sq.delta == pytest.approx(-35.0 / (52.0 * root13), abs=1e-14)


def test_sqrt_a_square_identity(rng):
    for _ in range(10):
        p = make_irreducible(rng)
        for t in np.linspace(p.tau_min * 0.9, 0.0, 5):
            d = skr.derived_functions(p, float(t))
            cc = skr.curvature_components(p, d)
            sq = skr.sqrt_a_coeffs(d.phi, d.psi, cc)
            root = ExteriorForm(
                4, {(): sq.alpha, (1, 2): sq.beta, (3, 4): sq.gamma, (1, 2, 3, 4): sq.delta}
            )
            a_form = skr.eigenvalue_square(d.phi, d.psi, cc)
            assert (wedge(root, root) - a_form).max_abs() < 1e-13


def test_sqrt_a_reducible_vanishing():
    p = SKRProfile.reducible_polynomial([1.0, 0.5, -0.3], tau_min=-0.4)
    d = skr.derived_functions(p, -0.1)
    cc = skr.curvature_components(p, d)
    sq = skr.sqrt_a_coeffs(d.phi, d.psi, cc)
    assert sq.beta == 0.0 and sq.delta == 0.0


def test_sqrt_a_singular_input():
    """At phi = psi = 0, A = 2(bc + cd - 4r^2) e^1234: a nonzero nilpotent A
    has no square root, and A = 0 (a flat product) has the root 0."""
    with pytest.raises(SingularInputError):
        skr.sqrt_a_coeffs(0.0, 0.0, skr.CurvatureComponents(1, 1, 0, 0))
    assert skr.sqrt_a_coeffs(0.0, 0.0, skr.CurvatureComponents(1, 0, 0, 0)) == (0.0,) * 4


def _pfaffian(m):
    return (
        wedge(m.entry(0, 1), m.entry(2, 3))
        - wedge(m.entry(0, 2), m.entry(1, 3))
        + wedge(m.entry(0, 3), m.entry(1, 2))
    )


def test_char_poly_exact_identity_full_scale(rng):
    """Exact structure at any Killing scale: det(lam - R_g) =
    lam^4 + A lam^2 + Pf(R_g)^2 with A the coefficient-squares form."""
    for _ in range(5):
        p = make_irreducible(rng)
        t = float(p.tau_min * 0.4)
        d = skr.derived_functions(p, t)
        cc = skr.curvature_components(p, d)
        rg = skr.equivariant_curvature_matrix(p, t)
        coeffs = char_poly(rg)
        a_form = skr.eigenvalue_square(d.phi, d.psi, cc)
        pf = _pfaffian(rg)
        assert coeffs[1].max_abs() < 1e-13
        assert (coeffs[2] - a_form).max_abs() < 1e-12
        assert coeffs[3].max_abs() < 1e-13
        assert (coeffs[4] - wedge(pf, pf)).max_abs() < 1e-13


def test_char_poly_reduced_form_small_killing(rng):
    """In the infinitesimal-Killing regime (and exactly in the reducible
    case) the Pfaffian square is negligible and the characteristic
    polynomial collapses to lam^4 + A lam^2."""
    for _ in range(5):
        p = make_irreducible(rng, scale=1e-5, base_curv=0.0)
        t = float(p.tau_min * 0.4)
        d = skr.derived_functions(p, t)
        cc = skr.curvature_components(p, d)
        coeffs = char_poly(skr.equivariant_curvature_matrix(p, t))
        a_form = skr.eigenvalue_square(d.phi, d.psi, cc)
        assert coeffs[1].max_abs() < 1e-13
        assert (coeffs[2] - a_form).max_abs() < 1e-12
        assert coeffs[3].max_abs() < 1e-13
        assert coeffs[4].max_abs() < 1e-12
    for _ in range(3):
        p = make_reducible(rng)
        t = float(p.tau_min * 0.4)
        d = skr.derived_functions(p, t)
        cc = skr.curvature_components(p, d)
        coeffs = char_poly(skr.equivariant_curvature_matrix(p, t))
        assert (coeffs[2] - skr.eigenvalue_square(d.phi, d.psi, cc)).max_abs() < 1e-13
        assert coeffs[4].max_abs() == 0.0


# ----------------------------------------------------------------- closed L-form

def test_l_form_closed_reducible_degree4_vanishes(rng):
    for _ in range(10):
        p = make_reducible(rng)
        for t in np.linspace(p.tau_min * 0.95, -1e-3, 9):
            assert skr.l4_coefficient(p, float(t)) == 0.0


def test_l_form_closed_pole_guard(worked_profile):
    d = skr.derived_functions(worked_profile, 0.0)
    cc = skr.curvature_components(worked_profile, d)
    with pytest.raises(SingularInputError):
        skr._lbar_triple(GERM, 2.0 * math.pi)
    for x in (5e-10, -5e-10, 0.0):  # 0 is the multiple of 2 pi where Lbar is regular
        assert skr._lbar_triple(GERM, x)[0] == pytest.approx(1.0, abs=1e-15)


def test_closed_route_rejects_angles_past_germ_radius():
    """Past the radius pi of the L-log germ, Lbar(y) = y / (2 tan(y/2)) turns
    negative; both closed formulas raise like the direct route instead of
    taking the log of a negative number."""
    p = SKRProfile.irreducible_polynomial([3.5, 0.0], c_bar=-1.0, tau_min=-0.5)
    with pytest.raises(ConvergenceRadiusError):
        skr.l4_coefficient(p, -0.25)
    bd = skr.boundary_data(p)
    with pytest.raises(ConvergenceRadiusError):
        skr.closed_transgression_integrand(bd, 0.5)
    with pytest.raises(ConvergenceRadiusError):
        skr.transgression_pullback_direct(bd, 16, QUAD)


def test_l_form_double_route_small_killing(rng):
    """Closed eigenvalue route vs generic determinant route, in the regime
    where the eigenvalue reduction is valid (Killing data ~ 1e-7): the
    degree-4 coefficients agree to 1e-10 relative."""
    count = 0
    while count < 20:
        p = make_irreducible(rng, scale=2e-7)
        for t in np.linspace(p.tau_min * 0.85, -1e-3, 5):
            closed = skr.l_form_closed(p, float(t)).coefficient((1, 2, 3, 4))
            generic = l_form(skr.equivariant_curvature_matrix(p, float(t))).coefficient(
                (1, 2, 3, 4)
            )
            rel = abs(closed - generic) / max(abs(closed), abs(generic))
            assert rel < 1e-10
            count += 1


def test_l_form_double_route_quartic_convergence(worked_profile):
    """At finite Killing data the two routes differ by the quartic-order
    terms the eigenvalue reduction drops; the deviation must shrink at
    measured order >= 2.9 in the profile scale and stay below alpha^4."""
    scales = (1e-1, 1e-2, 1e-3)
    tau = -0.2
    errs = []
    for s in scales:
        p = SKRProfile.irreducible_polynomial(
            [0.5 * s, 0.25 * s], c_bar=-1.0, base_curv=2.0, tau_min=-0.5
        )
        closed = skr.l_form_closed(p, tau).coefficient((1, 2, 3, 4))
        generic = l_form(skr.equivariant_curvature_matrix(p, tau)).coefficient((1, 2, 3, 4))
        errs.append(abs(closed - generic))
    slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
    assert slope >= 2.9
    # full-scale worked profile: the deviation is real but dominated by alpha^4
    d = skr.derived_functions(worked_profile, tau)
    alpha = math.hypot(d.phi, d.psi)
    closed = skr.l_form_closed(worked_profile, tau).coefficient((1, 2, 3, 4))
    generic = l_form(skr.equivariant_curvature_matrix(worked_profile, tau)).coefficient(
        (1, 2, 3, 4)
    )
    assert 1e-4 < abs(closed - generic) < alpha**4


def test_l_form_closed_degree0_and_2(worked_profile):
    """Structure of the closed form: Lbar(alpha) at degree 0 and
    Lbar'(alpha) (beta e12 + gamma e34) at degree 2."""
    tau = -0.3
    d = skr.derived_functions(worked_profile, tau)
    cc = skr.curvature_components(worked_profile, d)
    sq = skr.sqrt_a_coeffs(d.phi, d.psi, cc)
    lf = skr.l_form_closed(worked_profile, tau)
    f0, f1, f2 = skr._lbar_triple(GERM, sq.alpha)
    assert lf.coefficient(()) == pytest.approx(f0, rel=1e-14)
    assert lf.coefficient((1, 2)) == pytest.approx(f1 * sq.beta, rel=1e-13)
    assert lf.coefficient((3, 4)) == pytest.approx(f1 * sq.gamma, rel=1e-13)
    assert lf.coefficient((1, 2, 3, 4)) == pytest.approx(
        f1 * sq.delta + f2 * sq.beta * sq.gamma, rel=1e-13
    )


# ----------------------------------------------------------------- boundary data

def test_boundary_data_worked(worked_profile):
    bd = skr.boundary_data(worked_profile)
    assert bd.r0_1212 == pytest.approx(19.0 / 4.0, abs=1e-14)
    assert bd.r0_2323 == pytest.approx(-0.25, abs=1e-15)
    assert bd.r_1234 == pytest.approx(-0.25, abs=1e-15)
    assert bd.r_2314 == pytest.approx(0.125, abs=1e-15)
    assert bd.k == pytest.approx(0.5, abs=1e-15)
    assert bd.l == pytest.approx(0.75, abs=1e-15)


def test_boundary_theta_sparsity(worked_profile):
    bd = skr.boundary_data(worked_profile)
    th = bd.theta
    assert th.is_antisymmetric()
    assert th.entry(0, 3).coefficient((1,)) == bd.k
    assert th.entry(1, 3).coefficient((2,)) == bd.k
    assert th.entry(2, 3).coefficient((3,)) == bd.l
    for i in range(3):
        for j in range(3):
            assert th.entry(i, j).max_abs() == 0.0


def test_boundary_nabla_tx(worked_profile):
    bd = skr.boundary_data(worked_profile)
    fam = skr.boundary_family(bd)
    for t in (0.0, 0.4, 1.0):
        block = fam.at(t)[0][:, :, 0]
        assert block[0, 1] == bd.phi0
        assert block[2, 3] == t * bd.psi0
    assert fam.at(0.0)[0][2, 3, 0] == 0.0


def test_boundary_curvature_pieces(worked_profile):
    bd = skr.boundary_data(worked_profile)
    assert bd.a1.entry(0, 1).coefficient((1, 2)) == bd.r0_1212
    assert bd.a1.entry(0, 2).coefficient((1, 3)) == bd.r0_2323
    assert bd.a1.entry(1, 2).coefficient((2, 3)) == bd.r0_2323
    for i in range(4):
        assert bd.a1.entry(i, 3).max_abs() == 0.0
    assert bd.a2.entry(0, 3).coefficient((2, 3)) == pytest.approx(0.125)  # -r
    assert bd.a2.entry(1, 3).coefficient((1, 3)) == pytest.approx(-0.125)  # r
    assert bd.a2.entry(2, 3).coefficient((1, 2)) == pytest.approx(-0.25)  # c
    a3 = bd.a3
    assert (a3 - mat_mul(bd.theta, bd.theta)).max_abs() == 0.0
    assert bd.a3.degrees_present() <= {2}


def test_boundary_reducible_structure(rng):
    p = make_reducible(rng)
    bd = skr.boundary_data(p)
    assert bd.k == 0.0
    assert bd.a2.max_abs() == 0.0
    assert bd.a3.max_abs() == 0.0
    # theta reduces to the single vertical slot l e3
    assert bd.theta.entry(2, 3).coefficient((3,)) == bd.l
    assert bd.theta.entry(0, 3).max_abs() == 0.0
    assert bd.theta.entry(1, 3).max_abs() == 0.0


# ----------------------------------------------------------------- transgression routes

def test_transgression_worked_profile(worked_profile):
    bd = skr.boundary_data(worked_profile)
    closed = skr.transgression_pullback_closed(bd, 16, QUAD)
    direct = skr.transgression_pullback_direct(bd, 16, QUAD)
    c3 = closed.coefficient((1, 2, 3))
    d3 = direct.coefficient((1, 2, 3))
    assert abs(c3 - d3) / max(abs(c3), abs(d3)) < 1e-8
    # pure e123 multiples
    assert (closed - degree_component(closed, 3)).max_abs() == 0.0
    assert (direct - degree_component(direct, 3)).max_abs() < 1e-15


def test_transgression_sweep_closed_vs_direct(rng):
    for _ in range(8):
        p = make_irreducible(rng)
        bd = skr.boundary_data(p)
        c3 = skr.transgression_pullback_closed(bd, 16, QUAD).coefficient((1, 2, 3))
        d3 = skr.transgression_pullback_direct(bd, 16, QUAD).coefficient((1, 2, 3))
        assert abs(c3 - d3) / max(abs(c3), abs(d3), 1e-12) < 1e-8


def test_transgression_reducible_vanishes(rng):
    for _ in range(6):
        p = make_reducible(rng)
        bd = skr.boundary_data(p)
        c3 = skr.transgression_pullback_closed(bd, 16, QUAD).coefficient((1, 2, 3))
        d3 = skr.transgression_pullback_direct(bd, 16, QUAD).coefficient((1, 2, 3))
        assert abs(c3) < 1e-10
        assert abs(d3) < 1e-10


def test_transgression_zero_theta_forced(worked_profile):
    """Forcing k = l = 0 kills the transgression entirely."""
    from dataclasses import replace

    from equichar.matforms import FormMatrix

    fam = replace(skr.boundary_family(skr.boundary_data(worked_profile)), theta=FormMatrix(4, 3))
    assert transgression_degree3(GERM, fam, QUAD).max_abs() == 0.0


def test_closed_integrand_killing_scale_limit(worked_profile):
    """Scaling only the Killing-derivative arguments to zero, the closed
    integrand converges to f''(0) Tr[Theta R^t] with the curvature and
    second-fundamental-form data held fixed."""
    bd = skr.boundary_data(worked_profile)
    curv = lambda t: bd.a1 + bd.a2 * t + bd.a3 * (t * t)

    def reference(t):
        tr = degree_component(trace(mat_mul(bd.theta, curv(t))), 3)
        return GERM.second_derivative_at_zero() * tr.coefficient((1, 2, 3))

    errs = []
    scales = (1e-1, 1e-2, 1e-3)
    for s in scales:
        worst = 0.0
        for t in (0.25, 0.7, 1.0):
            got = skr.closed_transgression_integrand(bd, t, 16, nabla_scale=s)
            worst = max(worst, abs(got - reference(t)))
        errs.append(worst)
    slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
    assert slope >= 1.9


def _mp_closed_integrand(bd, t, order):
    """The closed integrand at 40 digits, summing the series as the double
    sum over k of phi^k (t psi)^(2m - k) by parity; the germ values and
    coefficients are the float ones.  Returns the value and the summed
    absolute size of its terms."""
    with mp.workdps(40):
        k, l, r1234, r2314 = (mp.mpf(x) for x in (bd.k, bd.l, bd.r_1234, bd.r_2314))
        t, phi = mp.mpf(t), mp.mpf(bd.phi0)
        tpsi = t * mp.mpf(bd.psi0)
        f1_phi, f1_tpsi = GERM.eval_i_d1(bd.phi0), GERM.eval_i_d1(float(tpsi))
        weight = mp.exp(2 * (mp.mpf(GERM.eval_i(bd.phi0)) + GERM.eval_i(float(tpsi))))
        terms = [
            -4 * l * (t * t * k * k - bd.r0_1212) * f1_phi * f1_tpsi,
            4 * l * t * r1234 * f1_tpsi * f1_tpsi,
            -2 * t * l * r1234 * GERM.eval_i_d2(float(tpsi)),
        ]
        phi_pow = [phi**j for j in range(2 * order + 1)]
        tpsi_pow = [tpsi**j for j in range(2 * order + 1)]
        for m in range(order + 1):
            a_m = 2 * k * (-1) ** m * (2 * m + 2) * mp.mpf(GERM.coeff(2 * m + 2))
            for kk in range(2 * m + 1):
                pair = phi_pow[kk] * tpsi_pow[2 * m - kk] + tpsi_pow[kk] * phi_pow[2 * m - kk]
                factor = bd.r0_2323 - t * t * k * l if kk % 2 else -t * r2314
                terms.append(a_m * factor * pair)
        return weight * mp.fsum(terms), weight * mp.fsum(abs(x) for x in terms)


@pytest.mark.parametrize(
    "phi_coeffs,c_bar,base_curv",
    [([0.5, 0.25], -1.0, 2.0), ([-0.4, 0.3], 1.0, 0.0), ([1.5, 0.25], -1.0, 0.0)],
    ids=["worked", "negative-phi", "large-angle"],
)
def test_closed_integrand_matches_double_sum(phi_coeffs, c_bar, base_curv):
    """The O(order) recurrence sums the series of the double sum it replaced,
    within 1e-15 of the size of the integrand's terms."""
    p = SKRProfile.irreducible_polynomial(phi_coeffs, c_bar, base_curv=base_curv, tau_min=-0.5)
    bd = skr.boundary_data(p)
    for order in (4, 16):
        for nodes in (32, 64):
            for t in QuadratureSpec(nodes).rule()[0]:
                want, size = _mp_closed_integrand(bd, float(t), order)
                got = skr.closed_transgression_integrand(bd, float(t), order)
                assert abs(got - want) <= 1e-15 * size


def test_closed_tail_bound_small(worked_profile):
    bd = skr.boundary_data(worked_profile)
    assert skr.closed_transgression_tail(bd, 16) < 1e-10
    assert skr.closed_transgression_tail(bd, 24) < 1e-14


def test_volume_weight(worked_profile):
    assert skr.volume_weight(worked_profile, -0.25) == pytest.approx(1.5)
    p = SKRProfile.reducible_polynomial([1.0], tau_min=-0.4)
    assert skr.volume_weight(p, -0.2) == 1.0
