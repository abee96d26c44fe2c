"""Laurent polynomial ring operations."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sliceobs.laurent import LaurentPolynomial, one, t, zero


def lp(coeffs, min_exp=0):
    """Build from ascending coefficients starting at t^min_exp."""
    return LaurentPolynomial({min_exp + i: c for i, c in enumerate(coeffs)})


small_polys = st.builds(
    lp,
    st.lists(st.integers(min_value=-9, max_value=9), max_size=6),
    st.integers(min_value=-4, max_value=4),
)


def test_zero_coefficients_are_dropped():
    p = LaurentPolynomial({3: 0, 1: 2, 0: 0})
    assert p.items() == [(1, 2)]
    assert lp([]) == zero()
    assert not zero()


def test_construction_helpers():
    assert t() == LaurentPolynomial({1: 1})
    assert t(-2, 5) == LaurentPolynomial({-2: 5})
    assert one() == LaurentPolynomial({0: 1})
    assert LaurentPolynomial.constant(0) == zero()


def test_immutability():
    p = t()
    with pytest.raises(AttributeError):
        p._coeffs = {}


def test_degree_and_exponent_range():
    p = lp([3, 0, -1], min_exp=-1)  # 3t^-1 - t
    assert p.min_exp == -1
    assert p.max_exp == 1


def test_arithmetic_small_cases():
    p = t() + 1
    assert p * p == t(2) + 2 * t() + 1
    assert (p - p).is_zero
    assert (t() - 1) * (t() + 1) == t(2) - 1
    assert 2 - t() == lp([2, -1])
    assert Fraction(1, 2) * lp([2, 4]) == lp([1, 2])
    with pytest.raises(TypeError):
        t() * "x"


def test_call_evaluates():
    p = lp([1, 2, 1])  # (t+1)^2
    assert p(3) == 16
    assert p(Fraction(1, 2)) == Fraction(9, 4)
    q = t(-1)
    assert q(2) == Fraction(1, 2)


def test_involution_swaps_exponents():
    p = lp([1, 2, 3], min_exp=-1)
    q = p.involution()
    assert q.items() == [(-1, 3), (0, 2), (1, 1)]
    assert q.involution() == p


def test_normal_forms():
    p = lp([2, 0, -4], min_exp=-2)
    assert p.aligned() == lp([2, 0, -4])
    assert p.shift(7).aligned() == p.aligned()
    assert zero().aligned() == zero()


@given(small_polys, small_polys)
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@given(small_polys, small_polys, small_polys)
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(small_polys)
def test_involution_is_involutive(p):
    assert p.involution().involution() == p


@given(small_polys, small_polys)
def test_involution_is_multiplicative(p, q):
    assert (p * q).involution() == p.involution() * q.involution()
