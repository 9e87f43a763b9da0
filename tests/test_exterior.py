import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis as e
from conftest import max_abs
from equichar.errors import DimensionMismatchError
from equichar.exterior import degree_component, exp_form, mask_of_indices, wedge

# ----------------------------------------------------------------- basic examples


def test_wedge_basis_product():
    assert np.array_equal(wedge(e(4, 1), e(4, 2)), e(4, 1, 2))


def test_wedge_nilpotency():
    assert not np.any(wedge(e(4, 1, 2), e(4, 1, 2)))


def test_wedge_mixed_degree():
    a = e(4, 1) + e(4, 2, 3)
    assert np.array_equal(wedge(a, e(4, 1)), e(4, 1, 2, 3))


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        wedge(e(3, 1), e(4, 1))
    with pytest.raises(DimensionMismatchError):
        wedge(np.zeros((5, 16)), np.zeros((5, 8)))


def test_degree_component_selects():
    a = e(4) + e(4, 1, 2) + e(4, 1, 2, 3, 4)
    assert np.array_equal(degree_component(a, 2), e(4, 1, 2))
    assert not np.any(degree_component(e(4, 1), 0))


def test_degree_component_top():
    a = 2.0 * e(4) + 3.0 * e(4, 1, 2) + 5.0 * e(4, 3, 4) + 7.0 * e(4, 1, 2, 3, 4)
    assert np.array_equal(degree_component(a, 4), 7.0 * e(4, 1, 2, 3, 4))


def test_multi_index_validation():
    for indices, dim in (((1, 4), 3), ((2, 1), 4), ((1, 1), 4), ((0, 2), 4)):
        with pytest.raises(ValueError):
            mask_of_indices(indices, dim)


def test_coefficients_round_trip():
    """Coefficient slot m holds e^I for I the set bits of m, one-based: the
    multi-index of every slot maps back to it, and e^123 sits in slot 7."""
    for dim in (1, 2, 3, 4):
        for m in range(1 << dim):
            indices = tuple(i + 1 for i in range(dim) if m >> i & 1)
            assert mask_of_indices(indices, dim) == m
    assert mask_of_indices((1, 2, 3), 3) == 7
    assert mask_of_indices((), 4) == 0


# ----------------------------------------------------------------- property tests

def forms(dim, max_coeff=8):
    dim_size = 1 << dim
    return st.builds(
        lambda cs: np.asarray(cs, dtype=float),
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
    assert np.array_equal(lhs, rhs)


@settings(max_examples=150)
@given(forms(4), forms(4), forms(4))
def test_associativity_bit_for_bit(a, b, c):
    # integer coefficients keep every product exact in double precision
    assert np.array_equal(wedge(wedge(a, b), c), wedge(a, wedge(b, c)))


@settings(max_examples=100)
@given(st.data())
def test_truncation_soundness(data):
    factors = [
        data.draw(homogeneous(4, data.draw(st.integers(2, 4)))) for _ in range(3)
    ]
    out = wedge(wedge(factors[0], factors[1]), factors[2])
    assert not np.any(out)


@settings(max_examples=150)
@given(st.integers(1, 4), st.data())
def test_degree_decomposition_is_partition(dim, data):
    a = data.draw(forms(dim))
    total = sum((degree_component(a, k) for k in range(dim + 1)), np.zeros(1 << dim))
    assert np.array_equal(total, a)


# ----------------------------------------------------------------- exp helper

def test_exp_form_scalar():
    w = 0.3 * e(4)
    assert abs(exp_form(w)[0] - np.exp(0.3)) < 1e-15


def test_exp_form_nilpotent():
    w = 2.0 * e(4, 1, 2)
    out = exp_form(w)
    assert out[0] == 1.0
    assert out[mask_of_indices((1, 2), 4)] == 2.0
    assert out[mask_of_indices((1, 2, 3, 4), 4)] == 0.0


def test_exp_form_mixed():
    w = e(4, 1, 2) + 2.0 * e(4, 3, 4)
    out = exp_form(w)
    # cross term e12 ^ e34 / 1 appears with coefficient 1*2
    assert abs(out[mask_of_indices((1, 2, 3, 4), 4)] - 2.0) < 1e-15


@settings(max_examples=60)
@given(st.data())
def test_exp_form_additive_on_even_forms(data):
    # even forms commute, so exp(a + b) = exp(a) ^ exp(b)
    a = data.draw(homogeneous(4, 0)) + 0.125 * data.draw(homogeneous(4, 2))
    b = data.draw(homogeneous(4, 0)) + 0.125 * data.draw(homogeneous(4, 4))
    lhs = exp_form(a + b)
    rhs = wedge(exp_form(a), exp_form(b))
    assert max_abs(lhs - rhs) < 1e-9 * max(1.0, max_abs(lhs))


# ----------------------------------------------------------------- stacks of forms

@pytest.mark.parametrize("dim", [3, 4])
def test_stacked_kernels_bit_equal_per_form(dim):
    """A stack of forms gives each form's own bits.  Rows 0 and 3 have no
    w_+, so their exponential series stops early while the others run on."""
    rng = np.random.default_rng(17 + dim)
    a = rng.uniform(-2, 2, (6, 1 << dim))
    b = rng.uniform(-2, 2, (6, 1 << dim))
    a[[0, 3], 1:] = 0.0
    wedged = wedge(a, b)
    exps = exp_form(a)
    for k in range(dim + 1):
        parts = degree_component(a, k)
        for row, form in zip(parts, a):
            assert np.array_equal(row, degree_component(form, k))
    for i in range(6):
        assert np.array_equal(wedged[i], wedge(a[i], b[i]))
        assert np.array_equal(exps[i], exp_form(a[i]))


def test_wedge_adds_into_out():
    out = 0.5 * e(3, 1, 2)
    assert wedge(e(3, 1), e(3, 2), out) is out
    assert np.array_equal(out, 1.5 * e(3, 1, 2))
