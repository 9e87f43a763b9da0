import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis, max_abs
from equichar import skr
from equichar.charforms import l_form
from equichar.errors import ConvergenceRadiusError
from equichar.exterior import _degree_masks, degree_component, wedge
from equichar.matforms import (
    apply_germ,
    char_poly,
    hirzebruch_l_inner_germ,
    hirzebruch_l_log_germ,
    identity,
    l_log_at_angle,
    mat_mul,
    star_second,
    trace,
)


def scalar_matrix(mat, dimension):
    """The matrix of forms with the numeric matrix ``mat`` as its degree-0 part."""
    data = np.zeros(mat.shape + (1 << dimension,))
    data[..., 0] = mat
    return data


def rotation_block(x, psi=0.0, dimension=4):
    mat = np.zeros((4, 4))
    mat[0, 1], mat[1, 0] = x, -x
    mat[2, 3], mat[3, 2] = psi, -psi
    return scalar_matrix(mat, dimension)


# ----------------------------------------------------------------- mat_mul / trace

def test_mat_mul_identity():
    rng = np.random.default_rng(3)
    m = rng.uniform(-1, 1, (4, 4, 16))
    assert max_abs(mat_mul(identity(4, 4), m) - m) == 0.0
    assert max_abs(mat_mul(m, identity(4, 4)) - m) == 0.0


def test_theta_square_pattern(worked_profile):
    """Theta^2 has the displayed sparsity: wedge products of the column
    1-forms in the upper-left 3x3 block, empty last row and column."""
    bd = skr.boundary_data(worked_profile)
    sq = mat_mul(bd.theta, bd.theta)
    p = basis(3, 1) * bd.k
    q = basis(3, 2) * bd.k
    r = basis(3, 3) * bd.l
    assert max_abs(sq[0, 1] + wedge(p, q)) < 1e-15
    assert max_abs(sq[0, 2] + wedge(p, r)) < 1e-15
    assert max_abs(sq[1, 2] + wedge(q, r)) < 1e-15
    for i in range(4):
        assert max_abs(sq[i, 3]) == 0.0
        assert max_abs(sq[3, i]) == 0.0
        assert max_abs(sq[i, i]) < 1e-15


def test_mat_mul_degree_additivity():
    rng = np.random.default_rng(5)
    deg = _degree_masks(4)

    def degree2(seed):
        data = np.zeros((4, 4, 16))
        gen = np.random.default_rng(seed)
        for i in range(4):
            for j in range(4):
                data[i, j] = np.where(deg == 2, gen.uniform(-1, 1, 16), 0.0)
        return data

    prod = mat_mul(degree2(1), degree2(2))
    assert not np.any(prod[..., deg != 4])


@pytest.mark.parametrize("dim", [3, 4])
def test_mat_mul_equals_dense_structure_tensor_einsum(dim):
    """The general product adds its terms in the order of the dense einsum
    over the wedge structure tensor, j outermost, so the bits agree; a stack
    of matrices gives each matrix's own bits."""
    from equichar.exterior import _wedge_table

    ii, jj, kk, ss = _wedge_table(dim)
    tensor = np.zeros((1 << dim,) * 3)
    tensor[ii, jj, kk] = ss
    rng = np.random.default_rng(41 + dim)
    a = rng.standard_normal((5, 4, 4, 1 << dim)) * 10.0 ** rng.integers(-6, 6, (5, 4, 4, 1 << dim))
    b = rng.standard_normal((5, 4, 4, 1 << dim)) * 10.0 ** rng.integers(-6, 6, (5, 4, 4, 1 << dim))
    want = np.einsum("nija,njkb,abc->nikc", a, b, tensor)
    assert np.array_equal(mat_mul(a, b), want)
    for n in range(5):
        assert np.array_equal(mat_mul(a[n], b[n]), want[n])


def test_trace_antisymmetric_vanishes(worked_profile):
    cc = skr.curvature_components(worked_profile, skr.derived_functions(worked_profile, 0.0))
    assert max_abs(trace(skr.curvature_matrix(cc))) == 0.0


def test_trace_identity():
    assert trace(identity(4, 4))[0] == 4.0


def test_trace_product_explicit_sum(worked_profile):
    """trace(Theta R^1) cross-checked against a hand-rolled entry-wise sum."""
    bd = skr.boundary_data(worked_profile)
    r1 = bd.a1 + bd.a2 + bd.a3
    got = trace(mat_mul(bd.theta, r1))
    acc = np.zeros(8)
    for i in range(4):
        for j in range(4):
            acc = acc + wedge(bd.theta[i, j], r1[j, i])
    assert max_abs(got - acc) < 1e-15


# ----------------------------------------------------------------- apply_germ

def test_apply_germ_zero_matrix():
    g = hirzebruch_l_inner_germ()
    out = apply_germ(g, np.zeros((4, 4, 16)))
    assert max_abs(out - identity(4, 4)) == 0.0


def test_apply_germ_rotation_block_matches_scalar():
    """On a rotation generator of angle x the even germ acts as the scalar
    value of the germ at the imaginary eigenvalue: block f(ix) * I."""
    g = hirzebruch_l_inner_germ()
    for x in (0.2, 0.5, 0.9):
        out = apply_germ(g, rotation_block(x))
        val = math.exp(2.0 * l_log_at_angle(x)[0])  # x / (2 tan(x/2))
        block = out[:, :, 0]
        assert abs(block[0, 0] - val) < 1e-12
        assert abs(block[1, 1] - val) < 1e-12
        assert abs(block[0, 1]) < 1e-12
        assert abs(block[2, 2] - 1.0) < 1e-12


def test_apply_germ_trace_degree0():
    g = hirzebruch_l_log_germ()
    for x, psi in ((0.3, 0.6), (0.7, 0.1)):
        tr = trace(apply_germ(g, rotation_block(x, psi)))
        want = 2.0 * (l_log_at_angle(x)[0] + l_log_at_angle(psi)[0])
        assert abs(tr[0] - want) < 1e-10


def mat_mul_series(germ, m, size, dimension, order):
    """sum_k c_k M^k with the powers built by mat_mul: the power series."""
    acc = identity(size, dimension) * germ.coeff(0)
    power = identity(size, dimension)
    for k in range(1, order + 1):
        power = mat_mul(power, m)
        acc = acc + power * germ.coeff(k)
    return acc


def rand_antisym_forms(rng, size, dimension, scale):
    """An antisymmetric matrix of forms with every coefficient drawn."""
    m = rng.uniform(-scale, scale, (size, size, 1 << dimension))
    return m - m.swapaxes(0, 1)


@pytest.mark.parametrize("germ", [hirzebruch_l_log_germ(), hirzebruch_l_inner_germ().derivative()])
@pytest.mark.parametrize("size,dimension", [(4, 4), (4, 3), (3, 2)])
def test_apply_germ_degree0_matches_power_series(germ, size, dimension):
    """On a numeric antisymmetric matrix, the spectral value is the germ's
    power series, summed to order 40 where its tail lies below rounding, to
    1e-15 of the unit; a degree-0 part that is not antisymmetric is rejected."""
    rng = np.random.default_rng(29 + size + dimension)
    for antisymmetric in (True, False):
        mat = rng.uniform(-0.3, 0.3, (size, size))
        if not antisymmetric:
            with pytest.raises(ValueError):
                apply_germ(germ, scalar_matrix(mat, dimension))
            continue
        m = scalar_matrix(mat - mat.T, dimension)
        got = apply_germ(germ, m)
        want = mat_mul_series(germ, m, size, dimension, 40)
        assert got.shape == (size, size, 1 << dimension)
        assert not np.any(got[..., 1:])
        assert max_abs(got - want) <= 1e-15 * max(1.0, max_abs(want))


@pytest.mark.parametrize("germ", [hirzebruch_l_log_germ(), hirzebruch_l_log_germ().derivative()])
@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_apply_germ_with_forms_matches_power_series(germ, dimension):
    """Forms of every degree, so paths of every length up to the coframe
    dimension enter the spectral sum, with the wedge signs of their entries."""
    rng = np.random.default_rng(53 + dimension)
    for _ in range(3):
        m = rand_antisym_forms(rng, 4, dimension, 0.25)
        want = mat_mul_series(germ, m, 4, dimension, 40)
        assert max_abs(apply_germ(germ, m) - want) <= 1e-14 * max_abs(want)


@pytest.mark.parametrize("factory", [hirzebruch_l_inner_germ, hirzebruch_l_log_germ])
def test_germ_factories_return_one_shared_object(factory):
    assert factory() is factory()


def test_apply_germ_radius_violation():
    g = hirzebruch_l_log_germ()  # radius pi
    with pytest.raises(ConvergenceRadiusError) as err:
        apply_germ(g, rotation_block(3.5))
    assert err.value.spectral_radius == pytest.approx(3.5)


def test_apply_germ_radius_names_the_first_matrix_past_it():
    """The radius check reads the spectrum of each matrix of a stack: the
    largest |eigenvalue| of the first one at or past pi is reported."""
    g = hirzebruch_l_log_germ()
    stack = np.stack([rotation_block(x, 0.5) for x in (1.0, 3.2, 0.4, 3.6)])
    with pytest.raises(ConvergenceRadiusError) as err:
        apply_germ(g, stack)
    assert err.value.spectral_radius == pytest.approx(3.2, rel=1e-15)
    assert err.value.radius == math.pi


# ----------------------------------------------------------------- star_second

def test_star_second_at_zero():
    """Only the n = 1 word survives at a = 0, leaving f''(0) b."""
    g = hirzebruch_l_log_germ()
    rng = np.random.default_rng(11)
    b = rng.uniform(-1, 1, (4, 4, 16))
    out = star_second(g, np.zeros((4, 4, 16)), b)
    want = b * g.second_derivative_at_zero()
    assert max_abs(out - want) < 1e-16


def test_star_second_commuting_arguments():
    """For commuting arguments the pairing is the ordinary second derivative:
    star(f, a, b) = f''(a) b.  On the rotation generator a = x J and b = y J,
    f''(a) is g''(ix) on the rotated plane, as the closed evaluator gives it."""
    g = hirzebruch_l_log_germ()
    x, y = 0.4, 0.7
    out = star_second(g, rotation_block(x), rotation_block(y))
    f_dd = l_log_at_angle(x)[2]
    assert abs(out[0, 1, 0] - f_dd * y) < 1e-15
    assert abs(out[1, 0, 0] + f_dd * y) < 1e-15
    assert max_abs(out[2:, 2:]) == 0.0


def test_star_second_even_sign_flip_bit_for_bit(worked_profile):
    g = hirzebruch_l_log_germ()
    bd = skr.boundary_data(worked_profile)
    a = skr.nabla_x_matrix(bd.phi0, 0.7 * bd.psi0, 3)
    out_pos = star_second(g, a, bd.theta)
    out_neg = star_second(g, a * (-1.0), bd.theta)
    assert np.array_equal(out_pos, out_neg)


@settings(max_examples=25, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2))
def test_star_second_linear_in_b(c1, c2):
    g = hirzebruch_l_log_germ()
    rng = np.random.default_rng(17)
    a = rotation_block(0.3, 0.5)
    b1 = rng.uniform(-1, 1, (4, 4, 16))
    b2 = rng.uniform(-1, 1, (4, 4, 16))
    lhs = star_second(g, a, b1 * c1 + b2 * c2)
    rhs = star_second(g, a, b1) * c1 + star_second(g, a, b2) * c2
    assert max_abs(lhs - rhs) < 1e-12


def star_second_double_sum(germ, a0, b_data, order):
    """sum_n f^(n+1)(0)/n! sum_q a^q b a^(n-1-q), every word formed afresh."""
    out = np.zeros_like(b_data)
    for n in range(1, order + 1):
        c = (n + 1) * germ.coeff(n + 1)
        for q in range(n):
            left = np.linalg.matrix_power(a0, q)
            right = np.linalg.matrix_power(a0, n - 1 - q)
            out += c * np.einsum("ij,jkc,kl->ilc", left, b_data, right)
    return out


@pytest.mark.parametrize("germ", [hirzebruch_l_log_germ(), hirzebruch_l_log_germ().derivative()])
def test_star_second_matches_double_sum(germ):
    """Odd and even germs, so words of every length n enter; b carries
    degree-1 and degree-2 entries over a 4-dimensional coframe.  The double
    sum stops at order 42, where its tail lies below rounding."""
    rng = np.random.default_rng(41)
    a0 = rng.uniform(-0.5, 0.5, (4, 4))
    a0 = a0 - a0.T
    a = scalar_matrix(a0, 4)
    b_data = np.zeros((4, 4, 16))
    for mask in (1, 2, 4, 8, 3, 5, 6, 9, 10, 12):  # degree 1, then degree 2
        b_data[:, :, mask] = rng.uniform(-1, 1, (4, 4))
    got = star_second(germ, a, b_data)
    want = star_second_double_sum(germ, a0, b_data, 42)
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_star_second_requires_degree0():
    g = hirzebruch_l_log_germ()
    bad = np.random.default_rng(0).uniform(-1, 1, (4, 4, 16))
    with pytest.raises(ValueError):
        star_second(g, bad, bad)


def test_trace_cyclic_with_degree0_factor(rng):
    """trace(P A B) = trace(A B P) exactly when P is purely degree 0."""
    p = scalar_matrix(rng.uniform(-1, 1, (4, 4)), 4)
    a = rng.uniform(-1, 1, (4, 4, 16))
    b = rng.uniform(-1, 1, (4, 4, 16))
    lhs = trace(mat_mul(p, mat_mul(a, b)))
    rhs = trace(mat_mul(mat_mul(a, b), p))
    assert max_abs(lhs - rhs) < 1e-14


def test_mat_mul_size_mismatch():
    from equichar.errors import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        mat_mul(np.zeros((4, 4, 16)), np.zeros((3, 3, 16)))
    with pytest.raises(DimensionMismatchError):
        mat_mul(np.zeros((4, 4, 16)), np.zeros((4, 4, 8)))


# ----------------------------------------------------------------- exp of trace: the L-form

def test_l_form_exp_trace_zero():
    assert l_form(np.zeros((4, 4, 16)))[0] == 1.0


def test_l_form_exp_trace_pure_degree2_parity():
    rng = np.random.default_rng(23)
    deg = _degree_masks(4)
    data = np.zeros((4, 4, 16))
    for i in range(4):
        for j in range(i + 1, 4):
            vec = np.where(deg == 2, rng.uniform(-0.5, 0.5, 16), 0.0)
            data[i, j], data[j, i] = vec, -vec
    out = l_form(data)
    assert not np.any(degree_component(out, 1))
    assert not np.any(degree_component(out, 3))
    assert out[0] == 1.0


# ----------------------------------------------------------------- spectrum

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_radius_check_reads_the_largest_eigenvalue(n):
    """Past the radius, the error carries max |eigenvalue| of the antisymmetric
    degree-0 part, to rounding, for apply_germ and star_second alike."""
    rng = np.random.default_rng(31 + n)
    g = hirzebruch_l_log_germ()
    for _ in range(10):
        raw = rng.uniform(-2, 2, (n, n))
        anti = raw - raw.T
        want = float(np.max(np.abs(np.linalg.eigvals(anti))))
        anti *= 3.5 / want
        for call in (lambda m: apply_germ(g, m), lambda m: star_second(g, m, m)):
            with pytest.raises(ConvergenceRadiusError) as err:
                call(scalar_matrix(anti, 2))
            assert err.value.spectral_radius == pytest.approx(3.5, rel=1e-14)


def test_germs_reject_a_degree0_part_that_is_not_antisymmetric():
    g = hirzebruch_l_log_germ()
    m = rotation_block(0.3, 0.2)
    m[0, 0, 0] = 1e-12
    with pytest.raises(ValueError):
        apply_germ(g, m)
    with pytest.raises(ValueError):
        star_second(g, m, rotation_block(0.1))


# ----------------------------------------------------------------- char poly

def test_char_poly_scalar_matrix():
    mat = np.array([[0.0, 2.0], [-2.0, 0.0]])
    m = scalar_matrix(np.kron(np.eye(2), mat), 4)
    coeffs = char_poly(m)
    # (lambda^2 + 4)^2 = lambda^4 + 8 lambda^2 + 16, one form per row
    assert coeffs.shape == (5, 16)
    assert np.array_equal(coeffs[0], basis(4))
    assert max_abs(coeffs[1]) < 1e-13
    assert abs(coeffs[2][0] - 8.0) < 1e-12
    assert max_abs(coeffs[3]) < 1e-13
    assert abs(coeffs[4][0] - 16.0) < 1e-12


def test_char_poly_rejects_odd_entries(worked_profile):
    bd = skr.boundary_data(worked_profile)
    with pytest.raises(ValueError):
        char_poly(bd.theta)
