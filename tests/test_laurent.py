"""Laurent polynomial ring operations over Z."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from laurent_oracle import max_exp
from sliceobs.laurent import LaurentPolynomial

T = LaurentPolynomial({1: 1})


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
    assert lp([]) == LaurentPolynomial()
    assert not LaurentPolynomial()


def test_construction_helpers():
    assert LaurentPolynomial.constant(-5) == LaurentPolynomial({0: -5})
    assert LaurentPolynomial.constant(0) == LaurentPolynomial()
    assert LaurentPolynomial.constant(0).items() == []


@pytest.mark.parametrize("c", [3, 0, -7])
def test_a_constant_hashes_as_its_scalar(c):
    # equal values must hash alike: a set or dict key treats the
    # constant polynomial and its scalar as one
    p = LaurentPolynomial.constant(c)
    assert p == c and hash(p) == hash(c)
    assert len({p, c}) == 1
    assert {c: "x"}[p] == "x"


@given(small_polys)
def test_equal_polynomials_hash_alike(p):
    q = LaurentPolynomial(dict(p.items()))
    assert p == q and hash(p) == hash(q)


def test_immutability():
    p = T
    with pytest.raises(AttributeError):
        p._coeffs = {}


def test_degree_and_exponent_range():
    p = lp([3, 0, -1], min_exp=-1)  # 3t^-1 - t
    assert p.min_exp == -1
    assert max_exp(p) == 1


def test_arithmetic_small_cases():
    p = T + 1
    assert p * p == lp([1, 2, 1])
    assert not p - p
    assert (T - 1) * (T + 1) == lp([-1, 0, 1])
    assert -T + 2 == lp([2, -1])
    assert 2 * lp([1, 2]) == lp([1, 2]).scale(2) == lp([2, 4])
    with pytest.raises(TypeError):
        T * "x"


@pytest.mark.parametrize("c", [1.5, 2.0, Fraction(1, 2), Fraction(4, 1),
                               "1", None])
def test_a_coefficient_that_is_not_an_int_is_refused(c):
    with pytest.raises(ValueError, match="integer"):
        LaurentPolynomial({0: 1, 1: c})
    with pytest.raises(ValueError, match="integer"):
        LaurentPolynomial.constant(c)


@pytest.mark.parametrize("coeffs, bad", [
    ({1.9: 1}, "1.9"), ({"2": 3}, "'2'"), ({0.5: 1, 0: 2}, "0.5"),
    ({True: 1}, "True")])
def test_an_exponent_that_is_not_an_int_is_refused(coeffs, bad):
    # int() would make 1.9 and True the exponent 1, '2' the exponent 2,
    # and let t^0.5 overwrite t^0
    with pytest.raises(ValueError, match=(
            f"^an exponent must be an integer, not {re.escape(bad)}$")):
        LaurentPolynomial(coeffs)


@pytest.mark.parametrize("coeffs, bad", [
    ({0: True}, "True"), ({1: False}, "False"), ({0: 1, 2: True}, "True")])
def test_a_bool_coefficient_is_refused(coeffs, bad):
    # a bool is an int to isinstance: True was stored and printed as
    # True, and False was dropped as a zero
    with pytest.raises(ValueError, match=(
            f"^a coefficient must be an integer, not {bad}$")):
        LaurentPolynomial(coeffs)
    # equality with a bool still answers, as with the int it equals
    assert LaurentPolynomial({0: 1}) == True
    assert LaurentPolynomial() == False
    assert lp([0, 1]) != True


@pytest.mark.parametrize("c", [1.5, 2.0, Fraction(1, 2)])
def test_a_scalar_that_is_not_an_int_is_refused(c):
    p = lp([1, 2])
    for op in (lambda: p * c, lambda: c * p, lambda: p + c, lambda: c + p,
               lambda: p - c):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError, match="integer"):
        p.scale(c)
    assert p != c


def test_no_helper_beyond_what_the_program_uses():
    # evaluation and the largest exponent live with the oracle
    assert not callable(T)
    for name in ("max_exp", "is_zero", "__rsub__"):
        assert not hasattr(LaurentPolynomial, name)
    with pytest.raises(TypeError):
        1 - T


def test_involution_swaps_exponents():
    p = lp([1, 2, 3], min_exp=-1)
    q = p.involution()
    assert q.items() == [(-1, 3), (0, 2), (1, 1)]
    assert q.involution() == p


def test_normal_forms():
    p = lp([2, 0, -4], min_exp=-2)
    assert p.aligned() == lp([2, 0, -4])
    assert p.shift(7).aligned() == p.aligned()
    assert LaurentPolynomial().aligned() == LaurentPolynomial()


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
