import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import basis, integrate_per_node, max_abs
from equichar import app, skr
from equichar.app import build_profile, load_config
from equichar.errors import ConvergenceRadiusError
from equichar.exterior import _degree_masks, degree_component, exp_form, mask_of_indices, wedge
from equichar.charforms import (
    ConnectionFamily,
    equivariant_curvature,
    gauss_legendre,
    l_form,
    transgression,
    transgression_degree3,
    transgression_degree3_alt,
    weighted_sum,
)
from equichar.matforms import (
    apply_germ,
    hirzebruch_l_log_germ,
    l_log_at_angle,
    mat_mul,
    star_second,
    trace,
)

EXAMPLES = Path(__file__).resolve().parents[1] / "scripts"
NODES = 32
GERM = hirzebruch_l_log_germ()


def rand_antisym(size, dim, degree, scale, rng):
    deg = _degree_masks(dim)
    data = np.zeros((size, size, 1 << dim))
    for i in range(size):
        for j in range(i + 1, size):
            vec = np.where(deg == degree, rng.uniform(-scale, scale, 1 << dim), 0.0)
            data[i, j], data[j, i] = vec, -vec
    return data


def random_family(rng, dim=3):
    theta = rand_antisym(4, dim, 1, 0.4, rng)
    n0 = rand_antisym(4, dim, 0, 0.3, rng)
    n1 = rand_antisym(4, dim, 0, 0.3, rng)
    a1 = rand_antisym(4, dim, 2, 0.4, rng)
    a2 = rand_antisym(4, dim, 2, 0.4, rng)
    a3 = rand_antisym(4, dim, 2, 0.4, rng)
    return ConnectionFamily(theta=theta, nabla_x=(n0, n1 - n0), curvature=(a1, a2, a3))


# ----------------------------------------------------------------- equivariant curvature

def test_equivariant_curvature_zero():
    assert max_abs(equivariant_curvature(np.zeros((4, 4, 16)), np.zeros((4, 4, 16)))) == 0.0


def test_equivariant_curvature_skr_display(worked_profile):
    """The adapted-frame equivariant matrix has block entries
    phi + b e12 + c e34 and psi + c e12 + d e34 with the r-blocks unchanged.
    The Killing field's moment enters with the opposite sign of its
    flow generator, hence the minus-signed second argument here."""
    d = skr.derived_functions(worked_profile, 0.0)
    cc = skr.curvature_components(worked_profile, d)
    rg = equivariant_curvature(
        skr.curvature_matrix(cc), skr.nabla_x_matrix(-d.phi, -d.psi)
    )
    assert max_abs(rg - skr.equivariant_curvature_matrix(worked_profile, 0.0)) == 0.0
    e12, e34 = mask_of_indices((1, 2), 4), mask_of_indices((3, 4), 4)
    assert rg[0, 1, 0] == d.phi
    assert rg[0, 1, e12] == cc.b
    assert rg[0, 1, e34] == cc.c
    assert rg[2, 3, 0] == d.psi
    assert rg[2, 3, e12] == cc.c
    assert rg[2, 3, e34] == cc.d
    assert rg[0, 2, mask_of_indices((1, 3), 4)] == cc.r
    assert rg[0, 3, mask_of_indices((2, 3), 4)] == -cc.r


def test_equivariant_curvature_size_mismatch():
    from equichar.errors import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        equivariant_curvature(np.zeros((4, 4, 16)), np.zeros((3, 3, 16)))
    with pytest.raises(DimensionMismatchError):
        equivariant_curvature(np.zeros((4, 4, 16)), np.zeros((4, 4, 8)))


def test_equivariant_curvature_reducible_blocks():
    p = skr.SKRProfile.reducible_polynomial([1.0, 0.4, -0.2], base_curv=0.7, tau_min=-0.4)
    rg = skr.equivariant_curvature_matrix(p, -0.1)
    # off-diagonal 2x2 blocks vanish: c = r = 0 and phi = 0
    for i in (0, 1):
        for j in (2, 3):
            assert max_abs(rg[i, j]) == 0.0


# ----------------------------------------------------------------- characteristic forms

def test_l_form_at_zero():
    out = l_form(np.zeros((4, 4, 16)))
    assert out[0] == 1.0
    assert max_abs(out - basis(4)) == 0.0


def test_l_form_degree0_is_product_of_angles(worked_profile):
    d = skr.derived_functions(worked_profile, -0.2)
    rg = skr.equivariant_curvature_matrix(worked_profile, -0.2)
    got = l_form(rg)[0]
    want = math.exp(2.0 * (l_log_at_angle(d.phi)[0] + l_log_at_angle(d.psi)[0]))
    assert abs(got - want) < 1e-12


def test_l_form_classical_degree4(rng):
    """X = 0: degree-4 coefficient equals the quadratic Taylor term of the
    half-log germ paired with Tr[R ^ R] (independent expansion oracle)."""
    r = rand_antisym(4, 4, 2, 0.7, rng)
    got = l_form(r)[mask_of_indices((1, 2, 3, 4), 4)]
    tr_rr = np.zeros(16)
    for i in range(4):
        for j in range(4):
            tr_rr = tr_rr + wedge(r[i, j], r[j, i])
    want = GERM.coeff(2) * tr_rr[mask_of_indices((1, 2, 3, 4), 4)]
    assert abs(got - want) < 1e-14


# ----------------------------------------------------------------- transgression

def test_transgression_zero_theta(rng):
    fam = random_family(rng)
    fam0 = replace(fam, theta=np.zeros((4, 4, 8)))
    assert max_abs(transgression(GERM, fam0, NODES)) == 0.0
    assert max_abs(transgression_degree3(GERM, fam0, NODES)) == 0.0


def test_transgression_constant_family_quadrature_exactness(rng):
    theta = rand_antisym(4, 3, 1, 0.4, rng)
    nx = rand_antisym(4, 3, 0, 0.3, rng)
    rt = rand_antisym(4, 3, 2, 0.4, rng)
    zero = np.zeros((4, 4, 8))
    fam = ConnectionFamily(theta=theta, nabla_x=(nx, zero), curvature=(rt, zero, zero))
    rg = equivariant_curvature(rt, nx)
    integrand = wedge(
        exp_form(trace(apply_germ(GERM, rg))),
        trace(mat_mul(theta, apply_germ(GERM.derivative(), rg))),
    )
    got = transgression(GERM, fam, NODES)
    assert max_abs(got - integrand) < 1e-14


def test_transgression_degree3_matches_full_on_boundary_family(worked_profile):
    fam = skr.boundary_family(skr.boundary_data(worked_profile))
    full3 = degree_component(transgression(GERM, fam, NODES), 3)
    red = transgression_degree3(GERM, fam, NODES)
    assert max_abs(full3 - red) < 1e-10


def test_transgression_degree3_x_zero_family(rng):
    """With no Killing term the integrand collapses to f''(0) Tr[Theta R^t]."""
    theta = rand_antisym(4, 3, 1, 0.4, rng)
    a1 = rand_antisym(4, 3, 2, 0.4, rng)
    a2 = rand_antisym(4, 3, 2, 0.4, rng)
    curv = lambda t: a1 + a2 * t
    zero = np.zeros((4, 4, 8))
    fam = ConnectionFamily(theta=theta, nabla_x=(zero, zero), curvature=(a1, a2, zero))
    got = transgression_degree3(GERM, fam, NODES)
    want = integrate_per_node(
        NODES, lambda t: degree_component(trace(mat_mul(theta, curv(t))), 3)
    ) * GERM.second_derivative_at_zero()
    assert max_abs(got - want) < 1e-15


def test_transgression_degree3_requires_even_germ(rng):
    fam = random_family(rng)
    with pytest.raises(ValueError):
        transgression_degree3(GERM.derivative(), fam, NODES)


def test_quadrature_node_validation():
    with pytest.raises(ValueError):
        gauss_legendre(1, 0.0, 1.0)


def test_gauss_legendre_unit_interval_mapping():
    """On [0, 1] the shared rule is bit-equal to (x + 1)/2, w/2, and the
    cached arrays cannot be altered by a caller."""
    for n in range(2, 257):
        x, w = np.polynomial.legendre.leggauss(n)
        xs, ws = gauss_legendre(n, 0.0, 1.0)
        assert np.array_equal(xs, 0.5 * (x + 1.0)) and np.array_equal(ws, 0.5 * w)
    with pytest.raises(ValueError):
        xs[0] = 0.0


@pytest.mark.parametrize("nodes", [2, 32, 64])
def test_weighted_sum_of_floats_is_the_running_sum(rng, nodes):
    """On floats, weighted_sum is bit-equal to the loop acc += float(w) * v
    from 0.0 that the closed route and the check's integrand size used, and
    returns a Python float."""
    _, ws = gauss_legendre(nodes, 0.0, 1.0)
    p = build_profile(load_config(EXAMPLES / "example_irreducible.json"))
    scaled = rng.standard_normal(nodes) * 10.0 ** rng.uniform(-20.0, 20.0, nodes)
    for values in (
        skr.transgression_pullback_closed(skr.boundary_data(p), nodes).integrand,
        scaled.tolist(),
        [-0.0] * nodes,
    ):
        acc = 0.0
        for w, v in zip(ws, values):
            acc += float(w) * v
        got = weighted_sum(ws, values)
        assert type(got) is float and got.hex() == acc.hex()


@pytest.mark.parametrize("dim", [3, 4])
def test_route_agreement_randomized(dim):
    """Main equivalences: reduced formula == aesthetic variant == degree-3
    part of the full transgression, on randomized admissible families."""
    rng = np.random.default_rng(101 + dim)
    for _ in range(5):
        fam = random_family(rng, dim)
        t3 = transgression_degree3(GERM, fam, NODES)
        alt = transgression_degree3_alt(GERM, fam, NODES)
        full = degree_component(transgression(GERM, fam, NODES), 3)
        scale = max(max_abs(t3), 1e-6)
        assert max_abs(t3 - alt) / scale < 1e-10
        assert max_abs(t3 - full) / scale < 1e-10


@pytest.mark.parametrize("dim", [3, 4])
def test_factorization_identity_randomized(dim):
    """exp Tr f(R - NX) == exp Tr f(NX) (1 - Tr[f'(NX) R]) through degree 3."""
    rng = np.random.default_rng(211 + dim)
    d_germ = GERM.derivative()
    for _ in range(5):
        fam = random_family(rng, dim)
        for t in (0.0, 0.37, 1.0):
            nx, rt = fam.at(t)
            lhs = exp_form(trace(apply_germ(GERM, equivariant_curvature(rt, nx))))
            rhs = wedge(
                exp_form(trace(apply_germ(GERM, nx))),
                basis(dim) - trace(mat_mul(apply_germ(d_germ, nx), rt)),
            )
            for k in range(min(dim, 3) + 1):
                assert max_abs(degree_component(lhs, k) - degree_component(rhs, k)) < 1e-10


@pytest.mark.parametrize("dim", [3, 4])
def test_expansion_identity_randomized(dim):
    """f'(R - NX) == -f'(NX) + star(f, NX, R) entry-wise through degree 3."""
    rng = np.random.default_rng(307 + dim)
    d_germ = GERM.derivative()
    for _ in range(5):
        fam = random_family(rng, dim)
        nx, rt = fam.at(0.61)
        lhs = apply_germ(d_germ, equivariant_curvature(rt, nx))
        rhs = star_second(GERM, nx, rt) - apply_germ(d_germ, nx)
        for i in range(4):
            for j in range(4):
                diff = lhs[i, j] - rhs[i, j]
                for k in range(min(dim, 3) + 1):
                    assert max_abs(degree_component(diff, k)) < 1e-10


def test_x_to_zero_limit_order(rng):
    """Scaling the Killing block by s, the reduced transgression converges to
    f''(0) * int Tr[Theta R^t] dt at measured order >= 1.9."""
    fam = random_family(rng)
    ref = integrate_per_node(
        NODES, lambda t: degree_component(trace(mat_mul(fam.theta, fam.at(t)[1])), 3)
    ) * GERM.second_derivative_at_zero()
    scales = (1e-1, 1e-2, 1e-3)
    errs = []
    for s in scales:
        fam_s = replace(fam, nabla_x=tuple(m * s for m in fam.nabla_x))
        errs.append(max_abs(transgression_degree3(GERM, fam_s, NODES) - ref))
    slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
    assert slope >= 1.9


# ----------------------------------------------------------------- node batching

def _direct_per_node(germ, fam, nodes):
    """The direct route with one integrand evaluation per node."""
    d_germ = germ.derivative()

    def integrand(t):
        nx, rt = fam.at(t)
        f_nx = apply_germ(d_germ, nx)
        weight = exp_form(trace(apply_germ(germ, nx)))
        t1 = trace(mat_mul(fam.theta, f_nx))
        t2 = trace(mat_mul(f_nx, rt))
        t3 = trace(mat_mul(star_second(germ, nx, fam.theta), rt))
        return degree_component(wedge(weight, wedge(t1, t2) + t3), 3)

    return integrate_per_node(nodes, integrand)


def _alt_per_node(germ, fam, nodes):
    """The alternate route with one integrand evaluation per node."""
    d_germ = germ.derivative()

    def integrand(t):
        nx, rt = fam.at(t)
        weight = exp_form(trace(apply_germ(germ, nx)))
        one_plus = trace(mat_mul(fam.theta, apply_germ(d_germ, nx)))
        one_plus[0] += 1.0
        shifted = trace(mat_mul(apply_germ(d_germ, fam.theta + nx), rt))
        return degree_component(wedge(weight, wedge(one_plus, shifted)), 3)

    return integrate_per_node(nodes, integrand)


ROUTES = [(transgression_degree3, _direct_per_node), (transgression_degree3_alt, _alt_per_node)]


@pytest.mark.parametrize("nodes", [32, 64])
@pytest.mark.parametrize("route,per_node", ROUTES)
@pytest.mark.parametrize("example", ["example_irreducible.json", "example_reducible.json"])
def test_batched_routes_bit_equal_per_node_on_examples(example, route, per_node, nodes):
    p = build_profile(load_config(EXAMPLES / example))
    fam = skr.boundary_family(skr.boundary_data(p))
    assert np.array_equal(route(GERM, fam, nodes), per_node(GERM, fam, nodes))


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("route,per_node", ROUTES)
def test_batched_routes_match_per_node_randomized(route, per_node, dim):
    rng = np.random.default_rng(409 + dim)
    for _ in range(5):
        fam = random_family(rng, dim)
        want = per_node(GERM, fam, NODES)
        got = route(GERM, fam, NODES)
        assert max_abs(got - want) <= 1e-14 * max_abs(want)


@pytest.mark.parametrize("route", [transgression_degree3, transgression_degree3_alt])
def test_batched_routes_reject_late_nodes_past_germ_radius(route):
    """psi0 = 4.5 on the boundary, so only nodes with t > pi/4.5 leave the
    germ's disk; the error names the first of them, as a node-by-node pass would."""
    p = skr.SKRProfile.irreducible_polynomial([0.5, 4.0], c_bar=-1.0, tau_min=-0.1)
    fam = skr.boundary_family(skr.boundary_data(p))
    xs, _ = gauss_legendre(NODES, 0.0, 1.0)
    first_bad = xs[xs > math.pi / 4.5][0]
    with pytest.raises(ConvergenceRadiusError) as err:
        route(GERM, fam, NODES)
    assert err.value.spectral_radius == pytest.approx(4.5 * first_bad, rel=1e-14)


def _example_curvature_stack(example):
    """The equivariant curvature matrices at the three taus that check's
    lform-closed-vs-generic compares, stacked."""
    p = build_profile(load_config(EXAMPLES / example))
    picks = app._lform_taus(p, 100)[::40]
    return np.stack([skr.equivariant_curvature_matrix(p, t) for t in picks])


def _random_stack(shape, seed):
    return np.random.default_rng(seed).uniform(-0.3, 0.3, shape)


STACKS = {
    "irreducible-example": lambda: _example_curvature_stack("example_irreducible.json"),
    "reducible-example": lambda: _example_curvature_stack("example_reducible.json"),
    "random-dim4": lambda: _random_stack((5, 4, 4, 16), 503),
    "random-dim3": lambda: _random_stack((5, 4, 4, 8), 509),
}


@pytest.mark.parametrize("which", list(STACKS))
def test_stacked_functions_bit_equal_per_matrix(which):
    """On a stack of matrices of forms every function gives each matrix the
    bits it gets alone; star_second's first argument is the stack's degree-0
    part, and mat_mul pairs the stack with itself reversed and with that part.
    The germs take the stack with its degree-0 part made antisymmetric, their
    domain (the curvature stacks already are); the products and the trace
    take the stack as drawn."""
    stack = STACKS[which]()
    degree0 = np.zeros_like(stack)
    degree0[..., 0] = stack[..., 0]
    germ_stack = stack.copy()
    germ_stack[..., 0] = 0.5 * (stack[..., 0] - stack[..., 0].swapaxes(-2, -1))
    germ_degree0 = np.zeros_like(stack)
    germ_degree0[..., 0] = germ_stack[..., 0]
    per_matrix = lambda fn, *stacks: np.stack([fn(*ms) for ms in zip(*stacks)])
    assert stack.shape[0] >= 3
    assert np.array_equal(l_form(germ_stack), per_matrix(l_form, germ_stack))
    apply = lambda m: apply_germ(GERM, m)
    assert np.array_equal(apply(germ_stack), per_matrix(apply, germ_stack))
    star = lambda a, b: star_second(GERM, a, b)
    assert np.array_equal(star(germ_degree0, stack), per_matrix(star, germ_degree0, stack))
    assert np.array_equal(mat_mul(stack, stack[::-1]), per_matrix(mat_mul, stack, stack[::-1]))
    assert np.array_equal(mat_mul(degree0, stack), per_matrix(mat_mul, degree0, stack))
    traced = trace(stack)
    assert np.array_equal(traced, per_matrix(trace, stack))
    # the curvature stacks are antisymmetric and trace to zero; the random ones do not
    assert np.any(traced != 0.0) == which.startswith("random")


# ----------------------------------------------------------------- family validation

def test_family_at_nodes_bit_equal_per_node(rng):
    fam = random_family(rng)
    xs, _ = gauss_legendre(NODES, 0.0, 1.0)
    nx, rt = fam.at(xs)
    for i, x in enumerate(xs):
        nx_i, rt_i = fam.at(float(x))
        assert np.array_equal(nx[i], nx_i) and np.array_equal(rt[i], rt_i)


def _invalid_coefficients(fam, which, rng):
    """(nabla_x, curvature) of ``fam`` with one coefficient made invalid."""
    n0, n1 = fam.nabla_x
    r0, r1, r2 = fam.curvature
    f = rand_antisym(4, 3, 1, 0.4, rng)
    return {
        # pure degree 2 at t = 0 and t = 1 only: R^t carries t (1 - t) F between
        "curvature-forms-between-endpoints": (fam.nabla_x, (r0, f, -f)),
        "n1-with-a-one-form": ((n0, n1 + f), fam.curvature),
        "non-antisymmetric": (fam.nabla_x, (r0, np.abs(r1), r2)),
        "coframe-dimension": (fam.nabla_x, (r0, r1, rand_antisym(4, 4, 2, 0.4, rng))),
        "matrix-size": ((n0, np.zeros((3, 3, 8))), fam.curvature),
    }[which]


@pytest.mark.parametrize(
    "which",
    [
        "curvature-forms-between-endpoints",
        "n1-with-a-one-form",
        "non-antisymmetric",
        "coframe-dimension",
        "matrix-size",
    ],
)
def test_family_rejects_invalid_coefficients(rng, which):
    fam = random_family(rng)
    nabla_x, curvature = _invalid_coefficients(fam, which, rng)
    with pytest.raises(ValueError):
        replace(fam, nabla_x=nabla_x, curvature=curvature)
