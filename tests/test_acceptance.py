"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest -s` to see the lines)."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    basis,
    char_poly_forms,
    integrate_per_node,
    make_irreducible,
    make_reducible,
    max_abs,
)
from equichar import oracle, skr
from equichar.app import RunConfig, eta_invariant
from equichar.charforms import (
    ConnectionFamily,
    equivariant_curvature,
    l_form,
    transgression,
    transgression_degree3,
    transgression_degree3_alt,
)
from equichar.exterior import _degree_masks, degree_component, exp_form, mask_of_indices, wedge
from equichar.matforms import (
    apply_germ,
    char_poly,
    hirzebruch_l_log_germ,
    mat_mul,
    star_second,
    trace,
)
from equichar.skr import SKRProfile

NODES = 32
GERM = hirzebruch_l_log_germ()


def report(number, name, passed, detail, elapsed, limit):
    status = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"[acceptance] {number:02d} {name}: {status} ({detail}) [{elapsed:.2f}s < {limit:.0f}s]")
    assert passed, f"criterion {number} ({name}): {detail}"
    assert elapsed < limit, f"criterion {number} exceeded runtime limit"


def test_criterion_01_reducible_vanishing():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_l4, worst_tl3 = 0.0, 0.0
    eta_exact = True
    for i in range(20):
        p = make_reducible(rng)
        for tau in np.linspace(p.tau_min * 0.95, -1e-3, 8):
            worst_l4 = max(worst_l4, abs(skr.l4_coefficient(p, float(tau))))
        bd = skr.boundary_data(p)
        closed = skr.transgression_pullback_closed(bd, NODES).value
        direct = skr.transgression_pullback_direct(bd, NODES)
        worst_tl3 = max(worst_tl3, abs(closed), abs(direct))
        sig = int(rng.integers(-3, 4))
        rep = eta_invariant(RunConfig(profile=p, signature=sig))
        eta_exact = eta_exact and (rep.eta["value"] == -float(sig))
    elapsed = time.perf_counter() - t0
    ok = worst_l4 < 1e-12 and worst_tl3 < 1e-10 and eta_exact
    report(
        1,
        "reducible-vanishing",
        ok,
        f"|L4|<={worst_l4:.2e}, |TL3|<={worst_tl3:.2e}, eta==-sign exact={eta_exact}",
        elapsed,
        5.0,
    )


def test_criterion_02_closed_vs_direct_transgression():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(20):
        p = make_irreducible(rng)
        bd = skr.boundary_data(p)
        closed = skr.transgression_pullback_closed(bd, NODES).value
        direct = skr.transgression_pullback_direct(bd, NODES)
        worst = max(worst, abs(closed - direct) / max(abs(closed), abs(direct)))
    elapsed = time.perf_counter() - t0
    report(2, "transgression-closed-vs-direct", worst <= 1e-8, f"rel<={worst:.2e}", elapsed, 10.0)


def _generic_l4(p, tau):
    """The degree-4 coefficient of the generic L-form, whose germ is evaluated
    on the spectrum of the curvature matrix, exactly up to rounding."""
    return l_form(skr.equivariant_curvature_matrix(p, tau))[mask_of_indices((1, 2, 3, 4), 4)]


def test_criterion_03_l_form_double_route():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst, samples = 0.0, 0
    while samples < 100:
        # full scale: the closed L4 and the generic determinant route are
        # both exact, so they must match to rounding
        p = make_irreducible(rng)
        tau = float(p.tau_min * rng.uniform(0.02, 0.98))
        closed, generic = skr.l4_coefficient(p, tau), _generic_l4(p, tau)
        worst = max(worst, abs(closed - generic) / max(abs(closed), abs(generic)))
        samples += 1
    elapsed = time.perf_counter() - t0
    report(
        3,
        "l-form-double-route",
        worst <= 1e-10,
        f"rel<={worst:.2e} over {samples} samples",
        elapsed,
        5.0,
    )


def test_criterion_04_eigenvalue_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for i in range(10):
        p = make_irreducible(rng) if i % 2 else make_reducible(rng)
        tau = float(p.tau_min * 0.4)
        d = skr.derived_functions(p, tau)
        a_form, pf_form = char_poly_forms(d.phi, d.psi, skr.curvature_components(p, d))
        coeffs = char_poly(skr.equivariant_curvature_matrix(p, tau))
        worst = max(
            worst,
            max_abs(coeffs[1]),
            max_abs(coeffs[2] - a_form),
            max_abs(coeffs[3]),
            max_abs(coeffs[4] - wedge(pf_form, pf_form)),
        )
    elapsed = time.perf_counter() - t0
    report(
        4,
        "eigenvalue-structure",
        worst <= 1e-12,
        f"char-poly deviation from lam^4 + A lam^2 + Pf^2 <= {worst:.2e}",
        elapsed,
        5.0,
    )


def test_criterion_05_l_form_crossings():
    """At the crossing phi = psi (constant phi), at psi = -phi (phi =
    0.1 - 0.8 tau at tau = -0.25), at the flat product and at a reducible
    psi = 5e-10, the closed L4 equals the generic one to 1e-12."""
    t0 = time.perf_counter()
    cases = [
        (SKRProfile.irreducible_polynomial([0.5, 0.0], c_bar=-1.0, base_curv=1.0), -0.25),
        (SKRProfile.irreducible_polynomial([1.2, 0.0], c_bar=-1.0, base_curv=-0.5), -0.1),
        (SKRProfile.irreducible_polynomial([0.1, -0.8], c_bar=-1.0, base_curv=1.0), -0.25),
        (SKRProfile.reducible_polynomial([1.0], base_curv=0.5), -0.25),
        (SKRProfile.reducible_polynomial([1.0, 1e-9], base_curv=0.5), -0.25),
    ]
    worst = max(abs(skr.l4_coefficient(p, tau) - _generic_l4(p, tau)) for p, tau in cases)
    elapsed = time.perf_counter() - t0
    report(5, "l-form-crossings", worst <= 1e-12, f"max dev {worst:.2e}", elapsed, 5.0)


def test_criterion_06_oracle_curvature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst_rel, worst_vanish = 0.0, 0.0
    for _ in range(5):
        p = make_irreducible(rng, base_curv=0.0)
        span = -p.tau_min
        for _ in range(10):
            pt = (
                float(p.tau_min + span * rng.uniform(0.25, 0.95)),
                float(rng.uniform(0, 1)),
                float(rng.uniform(-0.4, 0.4)),
                float(rng.uniform(-0.4, 0.4)),
            )
            cc = skr.curvature_components(p, skr.derived_functions(p, pt[0]))
            r = oracle.riemann_frame_fd(p, pt)
            for got, want in (
                (r[0, 1, 0, 1], cc.b),
                (r[0, 1, 2, 3], cc.c),
                (r[2, 3, 2, 3], cc.d),
                (r[0, 2, 0, 2], cc.r),
                (r[0, 2, 1, 3], cc.r),
                (r[1, 2, 0, 3], -cc.r),
            ):
                worst_rel = max(worst_rel, abs(got - want) / max(abs(want), 1e-2))
            for idx in ((2, 3, 2, 0), (2, 3, 3, 1), (0, 2, 2, 3), (1, 3, 2, 3)):
                worst_vanish = max(worst_vanish, abs(r[idx]))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-5 and worst_vanish <= 1e-6
    report(
        6,
        "oracle-curvature",
        ok,
        f"rel<={worst_rel:.2e}, three-index<={worst_vanish:.2e}",
        elapsed,
        30.0,
    )


def _random_family(rng, dim):
    deg = _degree_masks(dim)

    def rand_antisym(degree, scale):
        data = np.zeros((4, 4, 1 << dim))
        for i in range(4):
            for j in range(i + 1, 4):
                vec = np.where(deg == degree, rng.uniform(-scale, scale, 1 << dim), 0.0)
                data[i, j], data[j, i] = vec, -vec
        return data

    theta = rand_antisym(1, 0.4)
    n0, n1 = rand_antisym(0, 0.3), rand_antisym(0, 0.3)
    a1, a2, a3 = (rand_antisym(2, 0.4) for _ in range(3))
    return ConnectionFamily(theta=theta, nabla_x=(n0, n1 - n0), curvature=(a1, a2, a3))


def test_criterion_07_transgression_equivalences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst = 0.0
    d_germ = GERM.derivative()
    for dim in (3, 4):
        for _ in range(4):
            fam = _random_family(rng, dim)
            t3 = transgression_degree3(GERM, fam, NODES)
            alt = transgression_degree3_alt(GERM, fam, NODES)
            full = degree_component(transgression(GERM, fam, NODES), 3)
            scale = max(max_abs(t3), 1e-6)
            worst = max(worst, max_abs(t3 - alt) / scale, max_abs(t3 - full) / scale)
            # factorization and expansion identities at one interior time
            nx, rt = fam.at(0.43)
            lhs = exp_form(trace(apply_germ(GERM, equivariant_curvature(rt, nx))))
            rhs = wedge(
                exp_form(trace(apply_germ(GERM, nx))),
                basis(dim) - trace(mat_mul(apply_germ(d_germ, nx), rt)),
            )
            for k in range(min(dim, 3) + 1):
                worst = max(worst, max_abs(degree_component(lhs - rhs, k)))
            lhs_m = apply_germ(d_germ, equivariant_curvature(rt, nx))
            rhs_m = star_second(GERM, nx, rt) - apply_germ(d_germ, nx)
            for i in range(4):
                for j in range(4):
                    diff = lhs_m[i, j] - rhs_m[i, j]
                    for k in range(min(dim, 3) + 1):
                        worst = max(worst, max_abs(degree_component(diff, k)))
    elapsed = time.perf_counter() - t0
    report(7, "transgression-equivalences", worst <= 1e-10, f"max dev {worst:.2e}", elapsed, 10.0)


def test_criterion_08_x_to_zero_limit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    fam = _random_family(rng, 3)
    ref = integrate_per_node(
        NODES, lambda t: degree_component(trace(mat_mul(fam.theta, fam.at(t)[1])), 3)
    ) * GERM.second_derivative_at_zero()
    scales = (1e-1, 1e-2, 1e-3)
    errs = []
    for s in scales:
        fam_s = replace(fam, nabla_x=tuple(m * s for m in fam.nabla_x))
        errs.append(max_abs(transgression_degree3(GERM, fam_s, NODES) - ref))
    slope = float(np.polyfit(np.log(scales), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    report(8, "x-to-zero-limit", slope >= 1.9, f"measured order {slope:.3f}", elapsed, 5.0)


def test_criterion_09_germ_coefficients():
    t0 = time.perf_counter()
    from equichar.matforms import hirzebruch_l_inner_germ

    inner = hirzebruch_l_inner_germ()
    log_half = GERM
    devs = [
        abs(inner.taylor[0] - 1.0),
        abs(inner.taylor[2] - 1.0 / 12.0),
        abs(inner.taylor[4] + 1.0 / 720.0),
        abs(inner.taylor[6] - 1.0 / 30240.0),
        abs(log_half.second_derivative_at_zero() - 1.0 / 12.0),
    ]
    # independent series oracle: high-precision Taylor via mpmath
    import mpmath as mp

    mp.mp.dps = 40
    ref = mp.taylor(lambda z: z / (2 * mp.tanh(z / 2)) if z != 0 else mp.mpf(1), 0, 8)
    for k in range(8):
        devs.append(abs(inner.taylor[k] - float(ref[k])))
    worst = max(devs)
    elapsed = time.perf_counter() - t0
    report(9, "germ-coefficients", worst <= 1e-15, f"max dev {worst:.2e}", elapsed, 5.0)


def test_criterion_10_volume_reduction():
    t0 = time.perf_counter()
    p = SKRProfile.irreducible_polynomial(
        [0.5, 0.25], c_bar=-1.0, base_curv=2.0, tau_min=-0.5
    )
    fn = lambda tau: math.cos(2.0 * tau) + tau * tau + 1.5
    direct = oracle.volume_integral_chart(p, fn)
    xs, ws = np.polynomial.legendre.leggauss(48)
    xs = 0.5 * (xs + 1.0) * (-p.tau_min) + p.tau_min
    ws = 0.5 * ws * (-p.tau_min)
    reduced = p.fiber_period * p.base_area * sum(
        w * fn(float(t)) * skr.volume_weight(p, float(t)) for t, w in zip(xs, ws)
    )
    rel = abs(direct - reduced) / abs(reduced)
    elapsed = time.perf_counter() - t0
    report(10, "volume-reduction", rel <= 1e-4, f"rel {rel:.2e}", elapsed, 5.0)
