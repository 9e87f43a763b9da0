import math
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from conftest import char_poly_forms, even_form, make_irreducible, make_reducible, max_abs
from equichar import skr
from equichar.app import build_profile, load_config
from equichar.charforms import gauss_legendre, l_form, transgression_degree3
from equichar.errors import ConvergenceRadiusError, ProfileError
from equichar.exterior import _degree_masks, degree_component, mask_of_indices, wedge
from equichar.matforms import char_poly, hirzebruch_l_log_germ, l_log_at_angle, mat_mul, trace
from equichar.skr import SKRProfile


def is_antisymmetric(m):
    return not np.any(m + m.transpose(1, 0, 2))

EXAMPLES = Path(__file__).resolve().parents[1] / "scripts"
NODES = 32
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
    assert max_abs(skr.curvature_matrix(skr.CurvatureComponents(0, 0, 0, 0))) == 0.0


def test_curvature_matrix_worked_entries(worked_profile):
    cc = skr.curvature_components(worked_profile, skr.derived_functions(worked_profile, 0.0))
    r = skr.curvature_matrix(cc)
    assert r[0, 1, mask_of_indices((3, 4), 4)] == pytest.approx(-0.25)  # R_1234 = -phi'
    assert r[1, 2, mask_of_indices((1, 4), 4)] == pytest.approx(0.125)  # R_2314 = phi'/2
    assert is_antisymmetric(r)


def test_curvature_matrix_sparsity(rng):
    """Every entry lies in span{e12, e34, e13 + e24, e14 - e23}."""
    for _ in range(5):
        p = make_irreducible(rng)
        d = skr.derived_functions(p, p.tau_min * 0.5)
        r = skr.curvature_matrix(skr.curvature_components(p, d))
        for i in range(4):
            for j in range(4):
                entry = lambda idx: r[i, j, mask_of_indices(idx, 4)]
                for idx in ((), (1,), (2,), (3,), (4,), (1, 2, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
                    assert entry(idx) == 0.0
                assert entry((1, 3)) == entry((2, 4))
                assert entry((1, 4)) == -entry((2, 3))


def test_nabla_x_matrix_layout():
    assert max_abs(skr.nabla_x_matrix(0.0, 0.0)) == 0.0
    n = skr.nabla_x_matrix(0.5, 0.75)
    block = n[:, :, 0]
    assert block[0, 1] == 0.5 and block[1, 0] == -0.5
    assert block[2, 3] == 0.75 and block[3, 2] == -0.75
    sq = mat_mul(n, n)[:, :, 0]
    assert np.allclose(sq, -np.diag([0.25, 0.25, 0.5625, 0.5625]))


# ----------------------------------------------------------------- characteristic polynomial

def _pfaffian(m):
    return wedge(m[0, 1], m[2, 3]) - wedge(m[0, 2], m[1, 3]) + wedge(m[0, 3], m[1, 2])


def test_char_poly_exact_identity_full_scale(rng):
    """Exact structure at any Killing scale: det(lam - R_g) =
    lam^4 + A lam^2 + Pf(R_g)^2, with A and Pf as l4_closed states them."""
    for _ in range(5):
        p = make_irreducible(rng)
        t = float(p.tau_min * 0.4)
        d = skr.derived_functions(p, t)
        a_form, pf_form = char_poly_forms(d.phi, d.psi, skr.curvature_components(p, d))
        rg = skr.equivariant_curvature_matrix(p, t)
        coeffs = char_poly(rg)
        pf = _pfaffian(rg)
        assert max_abs(coeffs[1]) < 1e-13
        assert max_abs(coeffs[2] - a_form) < 1e-12
        assert max_abs(coeffs[3]) < 1e-13
        assert max_abs(pf - pf_form) < 1e-13
        assert max_abs(coeffs[4] - wedge(pf, pf)) < 1e-13


def test_char_poly_reducible_has_no_pfaffian_square(rng):
    """A reducible R_X has phi = 0 and c = r = 0, so Pf^2 vanishes exactly."""
    for _ in range(3):
        p = make_reducible(rng)
        t = float(p.tau_min * 0.4)
        d = skr.derived_functions(p, t)
        coeffs = char_poly(skr.equivariant_curvature_matrix(p, t))
        a_form, _ = char_poly_forms(d.phi, d.psi, skr.curvature_components(p, d))
        assert max_abs(coeffs[2] - a_form) < 1e-13
        assert max_abs(coeffs[4]) == 0.0


def test_angle_forms_solve_the_char_poly(rng):
    """The angle forms of l4_closed's docstring have x1^2 + x2^2 = A and
    x1 x2 = Pf, the identities the closed L4 rests on."""
    for _ in range(10):
        p = make_irreducible(rng)
        for t in np.linspace(p.tau_min * 0.9, 0.0, 4):
            d = skr.derived_functions(p, float(t))
            b, c, dd, r = cc = skr.curvature_components(p, d)
            if d.phi == d.psi:
                continue
            n3 = 4.0 * r * r / (d.phi - d.psi)
            x1, x2 = even_form(d.phi, b, c, -n3), even_form(d.psi, c, dd, n3)
            a_form, pf_form = char_poly_forms(d.phi, d.psi, cc)
            assert max_abs(wedge(x1, x1) + wedge(x2, x2) - a_form) < 1e-13
            assert max_abs(wedge(x1, x2) - pf_form) < 1e-13


# ----------------------------------------------------------------- closed L-form

E1234 = mask_of_indices((1, 2, 3, 4), 4)


def _generic_l4(p, tau):
    return l_form(skr.equivariant_curvature_matrix(p, tau))[E1234]


def test_l4_worked_value(worked_profile):
    """The exact closed L4 of the worked profile."""
    assert skr.l4_coefficient(worked_profile, -0.495) == pytest.approx(
        -0.14432311293079, abs=1e-13
    )


def test_l_form_closed_reducible_degree4_vanishes(rng):
    for _ in range(10):
        p = make_reducible(rng)
        for t in np.linspace(p.tau_min * 0.95, -1e-3, 9):
            l4 = skr.l4_coefficient(p, float(t))
            assert l4 == 0.0 and math.copysign(1.0, l4) == 1.0


def test_l_form_closed_pole_guard():
    """Both branches reject rotation angles at or past pi, the radius of the
    L-log germ, and the angle 0, where Lbar is regular, passes."""
    cc = skr.CurvatureComponents(1.0, 0.5, -0.5, 0.25)
    for phi, psi in ((2.0 * math.pi, 0.1), (0.1, -math.pi), (3.2, 3.2)):
        with pytest.raises(ConvergenceRadiusError):
            skr.l4_closed(phi, psi, cc)
    for phi, psi in ((5e-10, 0.3), (-5e-10, 5e-10), (0.0, 0.0)):
        assert math.isfinite(skr.l4_closed(phi, psi, cc))


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
        skr.transgression_pullback_direct(bd, NODES)


def test_l_form_double_route_small_killing(rng):
    """Closed route vs generic determinant route at Killing data ~ 1e-7: the
    degree-4 coefficients agree to 1e-10 relative."""
    count = 0
    while count < 20:
        p = make_irreducible(rng, scale=2e-7)
        for t in np.linspace(p.tau_min * 0.85, -1e-3, 5):
            closed = skr.l4_coefficient(p, float(t))
            generic = l_form(skr.equivariant_curvature_matrix(p, float(t)))[E1234]
            rel = abs(closed - generic) / max(abs(closed), abs(generic))
            assert rel < 1e-10
            count += 1


def test_l_form_closed_matches_generic_up_to_wide_angles(rng):
    """At full scale, with rotation angles up to 1.35, the closed L4 equals the
    generic L-form to 1e-10 relative.  The sqrt(A) route this
    replaced was off by 0.13 relative on the worked profile."""
    draws = 0
    while draws < 12:
        p = make_irreducible(rng, scale=1.35 / 0.8)
        t = float(p.tau_min * rng.uniform(0.05, 0.95))
        d = skr.derived_functions(p, t)
        if max(abs(d.phi), abs(d.psi)) < 1.0:
            continue
        closed, generic = skr.l4_coefficient(p, t), _generic_l4(p, t)
        assert abs(closed - generic) <= 1e-10 * abs(generic)
        draws += 1


# the crossings: phi = psi everywhere (constant phi), psi = -phi at tau = -0.25
# (phi = 0.1 - 0.8 tau, c_bar = -1), a flat product and a reducible psi = 5e-10
CROSSINGS = [
    (SKRProfile.irreducible_polynomial([0.5, 0.0], c_bar=-1.0, base_curv=1.0), -0.25),
    (SKRProfile.irreducible_polynomial([0.1, -0.8], c_bar=-1.0, base_curv=1.0), -0.25),
    (SKRProfile.reducible_polynomial([1.0], base_curv=0.5), -0.25),
    (SKRProfile.reducible_polynomial([1.0, 1e-9], base_curv=0.5), -0.25),
]


@pytest.mark.parametrize("p,tau", CROSSINGS)
def test_l_form_closed_at_crossings(p, tau):
    d = skr.derived_functions(p, tau)
    assert d.phi == d.psi or d.phi == -d.psi or abs(d.psi) < 1e-9
    assert abs(skr.l4_coefficient(p, tau) - _generic_l4(p, tau)) <= 1e-12


def test_divided_difference_series_matches_the_quotient():
    """Away from the crossing, the series of the crossing branch and the
    quotient of differences give the same lambda'[phi, psi]."""
    for phi, psi in ((0.4, 0.6), (-1.2, -0.9), (2.0, 2.6), (0.05, 0.3)):
        g1, s1, _ = l_log_at_angle(phi)
        _, s2, _ = l_log_at_angle(psi)
        series = skr._lambda_divided_difference(phi, psi, -2.0 * s2, math.exp(2.0 * g1))
        assert series == pytest.approx(-2.0 * (s1 - s2) / (phi - psi), rel=1e-13, abs=1e-15)


def test_l_form_closed_branches_agree_at_the_band_edge(monkeypatch, worked_profile):
    """Just inside the crossing band, the quotient of differences, forced by
    closing the band, still agrees with the series branch to 1e-12: in the
    bulk L4 and in the transgression integrand of the worked profile, where
    t psi0 crosses phi0 at t = 2/3."""
    cc = skr.CurvatureComponents(-2.5, -0.3, -0.6, -0.15)
    pairs = [(phi, phi * (1.0 - gap)) for phi in (0.3, -0.9, 1.3) for gap in (0.048, 0.03)]
    bd = skr.boundary_data(worked_profile)
    ts = [bd.phi0 * ratio / bd.psi0 for ratio in (1.0 - 0.048, 1.0 - 0.03, 1.0 + 0.03, 1.0 + 0.05)]
    for t in ts:
        w = t * bd.psi0
        assert 0.0 < abs(bd.phi0 - w) <= skr._CROSSING * (abs(bd.phi0) + abs(w))

    def values():
        l4 = [skr.l4_closed(phi, psi, cc) for phi, psi in pairs]
        return l4 + [skr.closed_transgression_integrand(bd, t) for t in ts]

    inside = values()
    monkeypatch.setattr(skr, "_CROSSING", 0.0)
    for got, value in zip(values(), inside):
        assert got == pytest.approx(value, rel=1e-12)


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
    assert is_antisymmetric(th)
    assert th[0, 3, mask_of_indices((1,), 3)] == bd.k
    assert th[1, 3, mask_of_indices((2,), 3)] == bd.k
    assert th[2, 3, mask_of_indices((3,), 3)] == bd.l
    for i in range(3):
        for j in range(3):
            assert max_abs(th[i, j]) == 0.0


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
    e12, e13, e23 = (mask_of_indices(idx, 3) for idx in ((1, 2), (1, 3), (2, 3)))
    assert bd.a1[0, 1, e12] == bd.r0_1212
    assert bd.a1[0, 2, e13] == bd.r0_2323
    assert bd.a1[1, 2, e23] == bd.r0_2323
    for i in range(4):
        assert max_abs(bd.a1[i, 3]) == 0.0
    assert bd.a2[0, 3, e23] == pytest.approx(0.125)  # -r
    assert bd.a2[1, 3, e13] == pytest.approx(-0.125)  # r
    assert bd.a2[2, 3, e12] == pytest.approx(-0.25)  # c
    a3 = bd.a3
    assert max_abs(a3 - mat_mul(bd.theta, bd.theta)) == 0.0
    assert not np.any(bd.a3[..., _degree_masks(3) != 2])


def test_boundary_reducible_structure(rng):
    p = make_reducible(rng)
    bd = skr.boundary_data(p)
    assert bd.k == 0.0
    assert max_abs(bd.a2) == 0.0
    assert max_abs(bd.a3) == 0.0
    # theta reduces to the single vertical slot l e3
    assert bd.theta[2, 3, mask_of_indices((3,), 3)] == bd.l
    assert max_abs(bd.theta[0, 3]) == 0.0
    assert max_abs(bd.theta[1, 3]) == 0.0


@pytest.mark.parametrize(
    "example",
    [
        pytest.param(
            "example_irreducible.json",
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 1(a): a1 breaks Gauss-Codazzi; a1_12 must be b(0) + k^2 "
                "and a1_13 = a1_23 = r(0) + k l",
            ),
        ),
        "example_reducible.json",
    ],
)
def test_boundary_curvature_at_t1_is_the_pulled_back_curvature(example):
    """Gauss-Codazzi: at t = 1 the family's curvature a1 + a2 + a3 is the
    adapted-frame curvature at tau = 0 restricted to the boundary coframe
    e^1, e^2, e^3, whose forms are the first 8 coefficients."""
    p = build_profile(load_config(EXAMPLES / example))
    bd = skr.boundary_data(p)
    pulled_back = skr.curvature_matrix(
        skr.curvature_components(p, skr.derived_functions(p, 0.0))
    )[..., :8]
    assert max_abs(bd.a1 + bd.a2 + bd.a3 - pulled_back) <= 1e-14


# ----------------------------------------------------------------- transgression routes

def test_transgression_worked_profile(worked_profile):
    bd = skr.boundary_data(worked_profile)
    c3 = skr.transgression_pullback_closed(bd, NODES).value
    d3 = skr.transgression_pullback_direct(bd, NODES)
    assert abs(c3 - d3) / max(abs(c3), abs(d3)) < 1e-8


def test_transgression_sweep_closed_vs_direct(rng):
    for _ in range(8):
        p = make_irreducible(rng)
        bd = skr.boundary_data(p)
        c3 = skr.transgression_pullback_closed(bd, NODES).value
        d3 = skr.transgression_pullback_direct(bd, NODES)
        assert abs(c3 - d3) / max(abs(c3), abs(d3), 1e-12) < 1e-8


def test_transgression_reducible_vanishes(rng):
    for _ in range(6):
        p = make_reducible(rng)
        bd = skr.boundary_data(p)
        c3 = skr.transgression_pullback_closed(bd, NODES).value
        d3 = skr.transgression_pullback_direct(bd, NODES)
        assert abs(c3) < 1e-10
        assert abs(d3) < 1e-10


def test_transgression_zero_theta_forced(worked_profile):
    """Forcing k = l = 0 kills the transgression entirely."""
    fam = replace(skr.boundary_family(skr.boundary_data(worked_profile)), theta=np.zeros((4, 4, 8)))
    assert max_abs(transgression_degree3(GERM, fam, NODES)) == 0.0


def test_closed_integrand_killing_scale_limit(worked_profile):
    """Scaling only the Killing-derivative data phi0, psi0 to zero, the closed
    integrand converges to f''(0) Tr[Theta R^t] with the curvature and
    second-fundamental-form data held fixed."""
    bd = skr.boundary_data(worked_profile)
    curv = lambda t: bd.a1 + bd.a2 * t + bd.a3 * (t * t)

    def reference(t):
        tr = degree_component(trace(mat_mul(bd.theta, curv(t))), 3)
        return GERM.second_derivative_at_zero() * tr[mask_of_indices((1, 2, 3), 3)]

    errs = []
    scales = (1e-1, 1e-2, 1e-3)
    for s in scales:
        worst = 0.0
        for t in (0.25, 0.7, 1.0):
            scaled = replace(bd, phi0=s * bd.phi0, psi0=s * bd.psi0)
            got = skr.closed_transgression_integrand(scaled, t)
            worst = max(worst, abs(got - reference(t)))
        errs.append(worst)
    slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
    assert slope >= 1.9


def _mp_closed_integrand(bd, t):
    """The closed integrand at 50 digits with its series summed exactly: the
    L-function values come from Fbar(x) = x/(2 tan(x/2)), s = -Fbar'/(2 Fbar),
    and sum_m a_m h_m, phi w sum_m a_m h_(m-1) are the half sum and half
    difference of D+- = s[phi, +-w], w = t psi.  Returns the value and the
    summed absolute size of its terms."""
    with mp.workdps(50):

        def fbar(x):
            tan, sin2 = mp.tan(x / 2), mp.sin(x / 2) ** 2
            f1 = 1 / (2 * tan) - x / (4 * sin2)
            return x / (2 * tan), f1, (x / (4 * tan) - mp.mpf(1) / 2) / sin2

        def s(x):
            f, f1, _ = fbar(x)
            return -f1 / (2 * f)

        def divided(x, y):
            return mp.diff(s, x) if x == y else (s(x) - s(y)) / (x - y)

        k, l, r1212, r2323, r1234, r2314 = (
            mp.mpf(x) for x in (bd.k, bd.l, bd.r0_1212, bd.r0_2323, bd.r_1234, bd.r_2314)
        )
        t, phi = mp.mpf(t), mp.mpf(bd.phi0)
        w = t * mp.mpf(bd.psi0)
        (f_phi, _, _), (f_w, f1_w, f2_w) = fbar(phi), fbar(w)
        d_plus, d_minus = divided(phi, w), divided(phi, -w)
        terms = [
            -4 * l * (t * t * k * k - r1212) * s(phi) * s(w),
            4 * l * t * r1234 * s(w) ** 2,
            2 * t * l * r1234 * (f2_w * f_w - f1_w**2) / (2 * f_w**2),
            2 * k * (r2323 - t * t * k * l) * (d_plus - d_minus),
            -2 * k * t * r2314 * (d_plus + d_minus),
        ]
        weight = f_phi * f_w
        return weight * mp.fsum(terms), abs(weight) * mp.fsum(abs(x) for x in terms)


@pytest.mark.parametrize(
    "phi_coeffs,c_bar,base_curv",
    [
        ([0.5, 0.25], -1.0, 2.0),
        ([-0.4, 0.3], 1.0, 0.0),
        ([1.5, 0.25], -1.0, 0.0),
        ([0.5, 1.0], -1.0, 0.0),
    ],
    ids=["worked", "negative-phi", "large-angle", "degenerate-end"],
)
def test_closed_integrand_matches_exact_series(phi_coeffs, c_bar, base_curv):
    """The closed integrand equals its untruncated series, summed exactly at
    50 digits, within 1e-13 of the size of its terms; an order-16 truncation
    was off by 1e-8 of that size on the large-angle profile (psi0 = 1.75)."""
    p = SKRProfile.irreducible_polynomial(phi_coeffs, c_bar, base_curv=base_curv, tau_min=-0.5)
    bd = skr.boundary_data(p)
    for nodes in (32, 64):
        for t in gauss_legendre(nodes, 0.0, 1.0)[0]:
            want, size = _mp_closed_integrand(bd, float(t))
            got = skr.closed_transgression_integrand(bd, float(t))
            assert abs(got - want) <= 1e-13 * size


@pytest.mark.parametrize("tau", [-2.0, 0.3, 1.5])
def test_single_knot_profile_is_one_polynomial(tau):
    """One knot is one piece over the whole line: below, at and above it."""
    coeffs = (0.5, -0.25, 0.75, 0.125)
    f = skr.ProfileFunction.piecewise([coeffs], knots=(0.3,))
    poly = np.polynomial.Polynomial(coeffs)
    want = [poly.deriv(m)(tau - 0.3) for m in (0, 1, 2)]
    assert f.at(tau) == pytest.approx(want, rel=1e-15, abs=1e-15)


def test_volume_weight(worked_profile):
    assert skr.volume_weight(worked_profile, -0.25) == pytest.approx(1.5)
    p = SKRProfile.reducible_polynomial([1.0], tau_min=-0.4)
    assert skr.volume_weight(p, -0.2) == 1.0
