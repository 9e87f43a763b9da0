import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichar.errors import DimensionMismatchError
from equichar.exterior import (
    ExteriorForm,
    degree_component,
    degree_component_coeffs,
    exp_coeffs,
    exp_form,
    wedge,
    wedge_coeffs,
)


def e(dim, *indices):
    return ExteriorForm.basis(dim, indices)


# ----------------------------------------------------------------- basic examples

def test_wedge_basis_product():
    assert wedge(e(4, 1), e(4, 2)) == e(4, 1, 2)


def test_wedge_nilpotency():
    assert wedge(e(4, 1, 2), e(4, 1, 2)).is_zero()


def test_wedge_mixed_degree():
    a = e(4, 1) + e(4, 2, 3)
    assert wedge(a, e(4, 1)) == e(4, 1, 2, 3)


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        wedge(e(3, 1), e(4, 1))


def test_degree_component_selects():
    a = ExteriorForm.scalar(4, 1.0) + e(4, 1, 2) + e(4, 1, 2, 3, 4)
    assert degree_component(a, 2) == e(4, 1, 2)
    assert degree_component(e(4, 1), 0).is_zero()


def test_degree_component_top():
    a = 2.0 * ExteriorForm.scalar(4, 1.0) + 3.0 * e(4, 1, 2) + 5.0 * e(4, 3, 4) + 7.0 * e(4, 1, 2, 3, 4)
    assert degree_component(a, 4) == 7.0 * e(4, 1, 2, 3, 4)


def test_multi_index_validation():
    with pytest.raises(ValueError):
        ExteriorForm.basis(3, (1, 4))


def test_coefficients_round_trip():
    a = ExteriorForm(4, {(1, 3): 2.5, (): -1.0})
    assert a.coefficient((1, 3)) == 2.5
    assert a.coefficient(()) == -1.0
    assert ExteriorForm(4, a.coefficients) == a


# ----------------------------------------------------------------- property tests

def forms(dim, max_coeff=8):
    dim_size = 1 << dim
    return st.builds(
        lambda cs: ExteriorForm(dim, np.asarray(cs, dtype=float)),
        st.lists(
            st.integers(min_value=-max_coeff, max_value=max_coeff),
            min_size=dim_size,
            max_size=dim_size,
        ),
    )


def homogeneous(dim, degree):
    return forms(dim).map(lambda a: degree_component(a, degree))


@settings(max_examples=150)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_graded_anticommutativity(p, q, data):
    a = data.draw(homogeneous(4, p))
    b = data.draw(homogeneous(4, q))
    lhs = wedge(a, b)
    rhs = wedge(b, a) * ((-1.0) ** (p * q))
    assert lhs == rhs


@settings(max_examples=150)
@given(forms(4), forms(4), forms(4))
def test_associativity_bit_for_bit(a, b, c):
    # integer coefficients keep every product exact in double precision
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@settings(max_examples=100)
@given(st.data())
def test_truncation_soundness(data):
    factors = [
        data.draw(homogeneous(4, data.draw(st.integers(2, 4)))) for _ in range(3)
    ]
    out = wedge(wedge(factors[0], factors[1]), factors[2])
    assert out.is_zero()


@settings(max_examples=150)
@given(st.integers(1, 4), st.data())
def test_degree_decomposition_is_partition(dim, data):
    a = data.draw(forms(dim))
    total = sum((degree_component(a, k) for k in range(dim + 1)), ExteriorForm.zero(dim))
    assert total == a


# ----------------------------------------------------------------- exp helper

def test_exp_form_scalar():
    w = ExteriorForm.scalar(4, 0.3)
    assert abs(exp_form(w).coefficient(()) - np.exp(0.3)) < 1e-15


def test_exp_form_nilpotent():
    w = 2.0 * e(4, 1, 2)
    out = exp_form(w)
    assert out.coefficient(()) == 1.0
    assert out.coefficient((1, 2)) == 2.0
    assert out.coefficient((1, 2, 3, 4)) == 0.0


def test_exp_form_mixed():
    w = ExteriorForm(4, {(1, 2): 1.0, (3, 4): 2.0})
    out = exp_form(w)
    # cross term e12 ^ e34 / 1 appears with coefficient 1*2
    assert abs(out.coefficient((1, 2, 3, 4)) - 2.0) < 1e-15


@settings(max_examples=60)
@given(st.data())
def test_exp_form_additive_on_even_forms(data):
    # even forms commute, so exp(a + b) = exp(a) ^ exp(b)
    a = data.draw(homogeneous(4, 0)) + 0.125 * data.draw(homogeneous(4, 2))
    b = data.draw(homogeneous(4, 0)) + 0.125 * data.draw(homogeneous(4, 4))
    lhs = exp_form(a + b)
    rhs = wedge(exp_form(a), exp_form(b))
    assert (lhs - rhs).max_abs() < 1e-9 * max(1.0, lhs.max_abs())


# ----------------------------------------------------------------- stacked kernels

@pytest.mark.parametrize("dim", [3, 4])
def test_stacked_kernels_bit_equal_per_form(dim):
    """A stack of forms gives each form's own bits.  Rows 0 and 3 have no
    w_+, so their exponential series stops early while the others run on."""
    rng = np.random.default_rng(17 + dim)
    a = rng.uniform(-2, 2, (6, 1 << dim))
    b = rng.uniform(-2, 2, (6, 1 << dim))
    a[[0, 3], 1:] = 0.0
    wedged = wedge_coeffs(a, b)
    exps = exp_coeffs(a)
    for k in range(dim + 1):
        parts = degree_component_coeffs(a, k)
        for row, form in zip(parts, a):
            assert np.array_equal(row, degree_component(ExteriorForm(dim, form), k).coeffs)
    for i in range(6):
        fa, fb = ExteriorForm(dim, a[i]), ExteriorForm(dim, b[i])
        assert np.array_equal(wedged[i], wedge(fa, fb).coeffs)
        assert np.array_equal(exps[i], exp_form(fa).coeffs)


def test_wedge_coeffs_adds_into_out():
    a, b = e(3, 1).coeffs, e(3, 2).coeffs
    out = e(3, 1, 2).coeffs * 0.5
    assert wedge_coeffs(a, b, out) is out
    assert ExteriorForm(3, out) == 1.5 * e(3, 1, 2)
