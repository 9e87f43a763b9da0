import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_abs
from equichar import skr
from equichar.charforms import l_form
from equichar.errors import ConvergenceRadiusError
from equichar.exterior import ExteriorForm, _degree_masks, degree_component, wedge
from equichar.matforms import (
    apply_germ,
    char_poly,
    hirzebruch_l_inner_germ,
    hirzebruch_l_log_germ,
    identity,
    l_log_at_angle,
    mat_mul,
    spectral_radius_degree0,
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
    p = ExteriorForm.basis(3, (1,)) * bd.k
    q = ExteriorForm.basis(3, (2,)) * bd.k
    r = ExteriorForm.basis(3, (3,)) * bd.l
    assert max_abs(sq[0, 1] + wedge(p, q).coeffs) < 1e-15
    assert max_abs(sq[0, 2] + wedge(p, r).coeffs) < 1e-15
    assert max_abs(sq[1, 2] + wedge(q, r).coeffs) < 1e-15
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
    acc = ExteriorForm.zero(3)
    for i in range(4):
        for j in range(4):
            acc = acc + wedge(ExteriorForm(3, bd.theta[i, j]), ExteriorForm(3, r1[j, i]))
    assert max_abs(got - acc.coeffs) < 1e-15


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
    """sum_k c_k M^k with the powers built by mat_mul: the generic route."""
    acc = identity(size, dimension) * germ.coeff(0)
    power = identity(size, dimension)
    for k in range(1, order + 1):
        power = mat_mul(power, m)
        acc = acc + power * germ.coeff(k)
    return acc


@pytest.mark.parametrize("germ", [hirzebruch_l_log_germ(), hirzebruch_l_inner_germ().derivative()])
@pytest.mark.parametrize("size,dimension", [(4, 4), (4, 3), (3, 2)])
def test_apply_germ_degree0_matches_mat_mul_series(germ, size, dimension):
    rng = np.random.default_rng(29 + size + dimension)
    for antisymmetric in (True, False):
        mat = rng.uniform(-0.3, 0.3, (size, size))
        if antisymmetric:
            mat = mat - mat.T
        m = scalar_matrix(mat, dimension)
        for order in (1, 2, 7, 16, 30):
            got = apply_germ(germ, m, order)
            want = mat_mul_series(germ, m, size, dimension, order)
            assert got.shape == (size, size, 1 << dimension)
            assert not np.any(got[..., 1:])
            # same products summed in the same order: equal to the last bit
            assert np.array_equal(got, want)


@pytest.mark.parametrize("factory", [hirzebruch_l_inner_germ, hirzebruch_l_log_germ])
def test_germ_factories_return_one_shared_object(factory):
    assert factory() is factory()


def test_apply_germ_radius_violation():
    g = hirzebruch_l_log_germ()  # radius pi
    with pytest.raises(ConvergenceRadiusError) as err:
        apply_germ(g, rotation_block(3.5))
    assert err.value.spectral_radius == pytest.approx(3.5)


def test_tail_estimate_reported_threshold():
    g = hirzebruch_l_log_germ()
    rho = spectral_radius_degree0(rotation_block(0.6, 0.5)[:, :, 0])
    assert rho == pytest.approx(0.6)
    # the two coefficients past order 16; even germs skip every other one
    assert sum(abs(g.coeff(k)) * rho**k for k in (17, 18)) < 1e-12


# ----------------------------------------------------------------- star_second

def test_star_second_at_zero():
    """Only the n = 1 word survives at a = 0, leaving f''(0) b."""
    g = hirzebruch_l_log_germ()
    rng = np.random.default_rng(11)
    b = rng.uniform(-1, 1, (4, 4, 16))
    out = star_second(g, np.zeros((4, 4, 16)), b)
    want = b * g.second_derivative_at_zero()
    assert max_abs(out - want) < 1e-16


def test_star_second_commuting_scalars():
    """For commuting scalar arguments the pairing is the ordinary second
    derivative: star(f, a, b) = f''(a) b, checked against a series oracle."""
    g = hirzebruch_l_log_germ()
    a_val, b_val = 0.4, 0.7
    a = scalar_matrix(a_val * np.eye(4), 4)
    b = scalar_matrix(b_val * np.eye(4), 4)
    out = star_second(g, a, b, order=30)
    # independent oracle: truncated series for f'' at a_val
    f_dd = sum(
        k * (k - 1) * g.coeff(k) * a_val ** (k - 2) for k in range(2, 32)
    )
    assert abs(out[0, 0, 0] - f_dd * b_val) < 1e-13


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
    degree-1 and degree-2 entries over a 4-dimensional coframe."""
    rng = np.random.default_rng(41)
    a0 = rng.uniform(-0.5, 0.5, (4, 4))
    a0 = a0 - a0.T
    a = scalar_matrix(a0, 4)
    b_data = np.zeros((4, 4, 16))
    for mask in (1, 2, 4, 8, 3, 5, 6, 9, 10, 12):  # degree 1, then degree 2
        b_data[:, :, mask] = rng.uniform(-1, 1, (4, 4))
    for order in range(1, 31):
        got = star_second(germ, a, b_data, order)
        want = star_second_double_sum(germ, a0, b_data, order)
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want))), order


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
    out = ExteriorForm(4, l_form(data))
    assert degree_component(out, 1).is_zero()
    assert degree_component(out, 3).is_zero()
    assert out.coefficient(()) == 1.0


# ----------------------------------------------------------------- spectral radius

def test_spectral_radius_against_eigvals():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        for _ in range(20):
            raw = rng.uniform(-2, 2, (n, n))
            anti = raw - raw.T
            want = float(np.max(np.abs(np.linalg.eigvals(anti))))
            assert spectral_radius_degree0(anti) == pytest.approx(want, abs=1e-10)


def test_spectral_radius_stack_equals_per_matrix():
    """A stack gives each matrix's own result, bit for bit, on the draws of
    the test above; a non-antisymmetric matrix in the stack takes its spectral
    norm, which bounds its eigenvalues."""
    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        draws = [rng.uniform(-2, 2, (n, n)) for _ in range(20)]
        stack = np.stack([raw - raw.T for raw in draws])
        got = spectral_radius_degree0(stack)
        assert got.shape == (20,)
        assert all(rho == spectral_radius_degree0(mat) for mat, rho in zip(stack, got))
        assert np.array_equal(spectral_radius_degree0(stack.reshape(4, 5, n, n)), got.reshape(4, 5))
        stack[7] = draws[7]
        mixed = spectral_radius_degree0(stack)
        assert mixed[7] == float(np.linalg.norm(draws[7], 2))
        assert mixed[7] >= float(np.max(np.abs(np.linalg.eigvals(draws[7])))) - 1e-12
        assert np.array_equal(np.delete(mixed, 7), np.delete(got, 7))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_spectral_radius_general_is_upper_bound(n):
    rng = np.random.default_rng(37 + n)
    for _ in range(20):
        m = rng.uniform(-1, 1, (n, n))
        assert spectral_radius_degree0(m) >= float(np.max(np.abs(np.linalg.eigvals(m)))) - 1e-12


# ----------------------------------------------------------------- char poly

def test_char_poly_scalar_matrix():
    mat = np.array([[0.0, 2.0], [-2.0, 0.0]])
    m = scalar_matrix(np.kron(np.eye(2), mat), 4)
    coeffs = char_poly(m)
    # (lambda^2 + 4)^2 = lambda^4 + 8 lambda^2 + 16
    assert coeffs[1].max_abs() < 1e-13
    assert abs(coeffs[2].coefficient(()) - 8.0) < 1e-12
    assert coeffs[3].max_abs() < 1e-13
    assert abs(coeffs[4].coefficient(()) - 16.0) < 1e-12


def test_char_poly_rejects_odd_entries(worked_profile):
    bd = skr.boundary_data(worked_profile)
    with pytest.raises(ValueError):
        char_poly(bd.theta)
