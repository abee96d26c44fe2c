"""Exact determinants, Smith normal forms, and the involution.

The band kernel `det_band` is checked against cofactor expansion; the
Bareiss elimination of `tests/bareiss_oracle.py`, an oracle for it and
for the Laurent determinants, is checked here too."""

import random
import re
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from bareiss_oracle import _bareiss, _newton_interpolate, det_bareiss
from laurent_oracle import (band_rows, dense_rows, det_cofactor,
                            det_laurent, evaluate, minor)
from seifert_oracle import seifert_matrix
from sliceobs.laurent import LaurentPolynomial
from sliceobs.linalg import (Matrix, det_band, det_gf, involution,
                             smith_normal_form)
from sliceobs.seifert import alexander_polynomial


def t(e=1, c=1):
    """c t^e."""
    return LaurentPolynomial({e: c})


int_matrix = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9),
                 min_size=n, max_size=n),
        min_size=n, max_size=n))


def test_matrix_basics():
    m = Matrix([[1, 2], [3, 4]])
    assert m.nrows == 2 and m.ncols == 2
    assert m.transpose() == Matrix([[1, 3], [2, 4]])
    assert m - m == Matrix([[0, 0], [0, 0]])
    assert m * Matrix.identity(2) == m
    assert m * m == Matrix([[7, 10], [15, 22]])
    assert m != Matrix([[1, 2]]) and m != Matrix([[1, 3], [2, 4]])
    with pytest.raises(ValueError, match="shape"):
        m * Matrix([[1, 2]])
    assert minor(m, 0, 1) == Matrix([[3]])
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(AttributeError):
        m.rows = ()


@pytest.mark.parametrize("other", [
    [[1]], [[1, 2]], [[1], [2]], [[1, 2, 3], [4, 5, 6]], []],
    ids=["1x1", "1x2", "2x1", "2x3", "empty"])
def test_difference_of_mismatched_shapes_is_refused(other):
    # zipping rows and entries would truncate these to the common shape
    m = Matrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="^shape mismatch$"):
        m - Matrix(other)
    with pytest.raises(ValueError, match="^shape mismatch$"):
        Matrix(other) - m


def test_matrix_has_no_sum_negation_or_scalar_product():
    m = Matrix([[1, 2], [3, 4]])
    for op in (lambda: m + m, lambda: -m, lambda: 2 * m, lambda: m * 2,
               lambda: m * [[1, 0], [0, 1]]):
        with pytest.raises(TypeError):
            op()


def test_matrix_product_of_laurent_entries():
    m = Matrix([[t(), 1], [0, t(-1)]])
    assert m * m == Matrix([[t(2), t() + t(-1)], [0, t(-2)]])
    assert m * Matrix.identity(2) == m


def test_involution_dispatch():
    assert involution(5) == 5
    p = t(2, 3) + 1
    assert involution(p) == t(-2, 3) + 1
    m = Matrix([[t(), 1], [0, t(-1)]])
    mi = involution(m)
    assert mi == Matrix([[t(-1), 0], [1, t()]])
    for bad in ("nope", Fraction(2, 3)):
        with pytest.raises(TypeError):
            involution(bad)


@given(int_matrix)
def test_bareiss_matches_cofactor(rows):
    assert det_bareiss(rows) == det_cofactor(rows)


@given(int_matrix, st.sampled_from([5, 23, 97]))
def test_det_gf_matches_integer_det(rows, s):
    assert det_gf(rows, s) == det_cofactor(rows) % s


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 10),
       st.sampled_from([3, 23, 2 ** 31 - 1]), st.data())
def test_det_gf_over_points_matches_each_matrix(k, npts, s, data):
    # matrices side by side, entry (i, j) of matrix p at column
    # j * npts + p; some have a zero leading pivot, so the pivot is
    # swapped at those points only, and some are singular, so a point
    # runs out of pivots while the others go on
    entry = st.sampled_from([0, 1, s - 1]) | st.integers(0, s - 1)
    square = st.lists(st.lists(entry, min_size=k, max_size=k),
                      min_size=k, max_size=k)
    mats = []
    for _ in range(npts):
        m = data.draw(square)
        kind = data.draw(st.sampled_from(["any", "zero pivot", "singular"]))
        if kind == "zero pivot":
            m[0][0] = 0
        elif kind == "singular":
            m[-1] = [0] * k if k == 1 else [2 * x for x in m[0]]
        mats.append(m)
    rows = [[mats[p][i][j] for j in range(k) for p in range(npts)]
            for i in range(k)]
    assert det_gf(rows, s, npts) == [det_cofactor(m) % s for m in mats]


@st.composite
def band_pencil(draw):
    """Band rows of square matrices X and Y of side 0..9, mostly zero,
    with some diagonal entries of the pencil X - t Y zeroed, so that
    leading blocks are often singular; Y is zero in about half the
    draws, for an integer X.  The entries outside the matrix are drawn
    too: `det_band` must not read them."""
    n = draw(st.integers(min_value=0, max_value=9))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5))
    linear = draw(st.booleans())

    def band(drawn):
        return [[draw(entry) if drawn else 0 for _ in range(5)]
                for _ in range(n)]
    x, y = band(True), band(linear)
    for i in draw(st.sets(st.integers(min_value=0, max_value=n))):
        if i < n:
            x[i][2] = y[i][2] = 0
    return x, y


def as_polynomial(coeffs):
    return LaurentPolynomial(dict(enumerate(coeffs)))


# the leading 2-block [[1, 2], [2, 4]] is singular
SINGULAR_BAND = [[1, 2, 0, 0],
                 [2, 4, 1, 0],
                 [0, 3, 1, 1],
                 [0, 0, 1, 2]]


@given(band_pencil())
@example((band_rows(SINGULAR_BAND), band_rows([[0] * 4 for _ in range(4)])))
@example((band_rows(SINGULAR_BAND),
          band_rows([r[::-1] for r in SINGULAR_BAND[::-1]])))
@example((band_rows([[0, 1], [1, 0]]), band_rows([[1, 0], [0, 1]])))
@settings(max_examples=120, deadline=None)
def test_det_band_matches_cofactor(case):
    # det M and each minor of M = X - t Y bordered by one of the last
    # two rows and one of the last two columns, M expanded from the band
    # rows by `dense_rows`
    x, y = case
    n = len(x)
    dx, dy = dense_rows(x), dense_rows(y)
    m = [[LaurentPolynomial({0: dx[i][j], 1: -dy[i][j]})
          for j in range(n)] for i in range(n)]
    det, block = det_band(x, y)
    assert as_polynomial(det) == det_cofactor(m)
    if n < 2:
        assert block is None
        return
    lead = list(range(n - 2))
    for a in range(2):
        for b in range(2):
            minor_ab = [[m[i][j] for j in lead + [n - 2 + b]]
                        for i in lead + [n - 2 + a]]
            assert as_polynomial(block[a][b]) == det_cofactor(minor_ab)


def reduce_mod(coeffs, modulus):
    """The coefficients of coeffs modulo a monic polynomial of degree e,
    by long division, padded to e."""
    e = len(modulus) - 1
    p = list(coeffs) + [0] * e
    for k in range(len(p) - 1, e - 1, -1):
        lead = p[k]
        for i, m in enumerate(modulus):
            p[k - e + i] -= lead * m
    return p[:e]


@given(band_pencil(), st.sampled_from([(1, 1, 1), (-1, 1), (2, 0, -1, 1),
                                       (-1, 0, 0, 1)]))
@settings(max_examples=80, deadline=None)
def test_det_band_folds_the_modulus(case, modulus):
    # the values taken modulo t^2 + t + 1, t - 1, t^3 - 1 (the modulus
    # of `blanchfield.linking_form`, with zero middle coefficients) or
    # another monic polynomial are those over Z[t], reduced
    x, y = case
    det, block = det_band(x, y)
    det_m, block_m = det_band(x, y, modulus)
    assert det_m == reduce_mod(det, modulus)
    if block is not None:
        assert [[reduce_mod(v, modulus) for v in row] for row in block] \
            == [list(row) for row in block_m]


def test_band_rows_round_trip():
    assert band_rows(SINGULAR_BAND) == [(0, 0, 1, 2, 0), (0, 2, 4, 1, 0),
                                        (0, 3, 1, 1, 0), (0, 1, 2, 0, 0)]
    assert dense_rows(band_rows(SINGULAR_BAND)) == SINGULAR_BAND
    with pytest.raises(ValueError, match="row 0 has a nonzero outside"):
        band_rows([[1, 0, 0, 1]] + [[0] * 4] * 3)


def test_det_band_needs_square():
    # a square pencil of side N comes as N band rows of X and of Y,
    # each with the 5 entries of the columns i - 2 .. i + 2
    with pytest.raises(ValueError, match="rows of 5, as many of Y as of X"):
        det_band([[1, 2], [3, 4]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="rows of 5, as many of Y as of X"):
        det_band([(0, 0, 1, 0, 0)] * 2, [(0, 0, 1, 0, 0)])
    with pytest.raises(ValueError, match="rows of 5, as many of Y as of X"):
        det_band([(0, 0, 1, 0, 0)] * 2,
                 [(0, 0, 1, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(ValueError, match="rows of 5, as many of Y as of X"):
        det_band([(0, 0, 1, 0, 0, 0)], [(0, 0, 1, 0, 0)])


def test_det_gf_needs_square():
    with pytest.raises(ValueError):
        det_gf([[1, 2, 3], [4, 5, 6]], 7)
    with pytest.raises(ValueError):
        det_gf([[1, 2, 3, 4], [5, 6, 7]], 7, 2)


@pytest.mark.parametrize("s", [0, 1, -7, 7.0, None],
                         ids=["0", "1", "-7", "7.0", "None"])
def test_det_gf_refuses_a_modulus_that_is_no_int_above_one(s):
    # 0 would divide by zero, -7 would give a value outside [0, s),
    # and 7.0 would reach pow
    with pytest.raises(ValueError, match=re.escape(f"not s={s!r}")):
        det_gf([[1, 2], [3, 4]], s)


@pytest.mark.parametrize("entry", [1.5, "a"], ids=["1.5", "'a'"])
def test_det_gf_refuses_an_entry_that_is_no_int(entry):
    # 1.5 came back as a float "determinant", and "a" % 7 raised TypeError
    with pytest.raises(ValueError, match=re.escape(
            f"det_gf needs rows of integers, not the entry {entry!r}")):
        det_gf([[entry]], 7)


def test_det_bareiss_needs_square():
    with pytest.raises(ValueError):
        det_bareiss([[1, 2, 3], [4, 5, 6]])


def test_det_bareiss_is_integer_only():
    with pytest.raises(TypeError):
        det_bareiss([[Fraction(1, 2), 0], [0, 2]])
    with pytest.raises(TypeError):
        det_bareiss([[t(), 1], [1, 1]])


def check_partial_bareiss(rows, k):
    """Sylvester's identity: after k steps the trailing entries are the
    leading k-block bordered by one more row and column, up to the swap
    sign; None exactly when the leading k-block is singular."""
    n = len(rows)
    a = [list(r) for r in rows]
    sign = _bareiss(a, k)
    lead = det_cofactor([r[:k] for r in rows[:k]])
    if sign is None:
        assert lead == 0
        return
    assert lead != 0 and a[k - 1][k - 1] == sign * lead
    for i in range(k, n):
        for j in range(k, n):
            bordered = [r[:k] + [r[j]] for r in rows[:k] + [rows[i]]]
            assert a[i][j] == sign * det_cofactor(bordered)


@given(int_matrix.filter(lambda rows: len(rows) >= 2), st.data())
def test_partial_bareiss_leaves_bordered_minors(rows, data):
    k = data.draw(st.integers(min_value=1, max_value=len(rows) - 1))
    check_partial_bareiss(rows, k)


@st.composite
def banded_matrix(draw):
    """A square int matrix, zero outside a band of random widths below
    and above the diagonal and mostly zero inside it, so that rows are
    skipped for several steps, pivots vanish and leading blocks are
    singular; optionally with a zero leading pivot."""
    n = draw(st.integers(min_value=2, max_value=7))
    below = draw(st.integers(min_value=0, max_value=n - 1))
    above = draw(st.integers(min_value=0, max_value=n - 1))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5))
    rows = [[draw(entry) if -below <= j - i <= above else 0
             for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        rows[0][0] = 0
    return rows


@st.composite
def banded_partial(draw):
    rows = draw(banded_matrix())
    return rows, draw(st.integers(min_value=1, max_value=len(rows) - 1))


# a zero leading pivot that only the last row can fix
SWAP_LAST = [[0, 2, 0, 0],
             [0, 1, 3, 0],
             [0, 0, 1, 4],
             [5, 0, 0, 1]]
# the last two rows have leading zeros for three and four steps
LATE_ROWS = [[2, 1, 0, 0, 0, 0],
             [1, 3, 1, 0, 0, 0],
             [0, 1, 2, 1, 0, 0],
             [0, 0, 0, 3, 1, 0],
             [0, 0, 0, 1, 0, 2],
             [0, 0, 0, 0, 1, 1]]
# the leading 2-block is singular, and no swap can fix the second pivot
SINGULAR_LEAD = [[1, 2, 0],
                 [2, 4, 1],
                 [0, 3, 1]]


@given(banded_matrix())
@example(SWAP_LAST)
@example(LATE_ROWS)
@example(SINGULAR_LEAD)
@settings(max_examples=200)
def test_bareiss_on_banded_matrices(rows):
    assert det_bareiss(rows) == det_cofactor(rows)


@given(banded_partial())
@example((SWAP_LAST, 3))
@example((LATE_ROWS, 2))
@example((LATE_ROWS, 4))
@example((SINGULAR_LEAD, 2))
@settings(max_examples=200)
def test_partial_bareiss_on_banded_matrices(case):
    check_partial_bareiss(*case)


@st.composite
def lower_banded_partial(draw):
    """A square int matrix of lower bandwidth 0..4 (no nonzero below
    that many subdiagonals, any upper part), with some diagonal entries
    zeroed so that pivots must be swapped in from within the band, and
    a number of steps that may stop short and leave border rows."""
    n = draw(st.integers(min_value=1, max_value=7))
    width = draw(st.integers(min_value=0, max_value=4))
    entry = st.sampled_from((0, 0, 1, -1, 2, -3, 4))
    rows = [[draw(entry) if j - i >= -width else 0 for j in range(n)]
            for i in range(n)]
    for i in draw(st.sets(st.integers(min_value=0, max_value=n - 1))):
        rows[i][i] = 0
    return rows, draw(st.integers(min_value=1, max_value=n))


# lower bandwidth 2: the first two pivots vanish, and each swap comes
# from the last row of the band, rows 2 and then 3
SWAP_IN_BAND = [[0, 0, 2, 1],
                [0, 0, 3, 0],
                [5, 0, 0, 0],
                [0, 2, 0, 0]]


@given(lower_banded_partial())
@example((SWAP_IN_BAND, 4))
@example((SWAP_IN_BAND, 2))
@example(([[0, 1], [0, 3]], 2))
@settings(max_examples=300)
def test_bareiss_within_the_lower_bandwidth(case):
    rows, k = case
    if k == len(rows):
        assert det_bareiss(rows) == det_cofactor(rows)
    else:
        check_partial_bareiss(rows, k)


def test_banded_examples_take_the_paths_they_name():
    a = [list(r) for r in SWAP_LAST]
    assert _bareiss(a, 4) == -1  # one swap, row 3 into place
    a = [list(r) for r in SWAP_IN_BAND]
    assert _bareiss(a, 4) == 1  # two swaps
    assert det_cofactor(SWAP_IN_BAND) == a[3][3] == -30
    a = [list(r) for r in SINGULAR_LEAD]
    assert _bareiss(a, 2) is None
    assert det_cofactor([r[:2] for r in SINGULAR_LEAD[:2]]) == 0


def test_interpolant_must_be_integral():
    assert _newton_interpolate([0, 1, -1], [1, 2, 2]) == t(2) + 1
    with pytest.raises(ArithmeticError):
        _newton_interpolate([0, 2], [0, 1])


def test_det_bareiss_zero_matrix():
    assert det_bareiss([[0, 0], [0, 0]]) == 0
    assert det_bareiss([]) == 1


def test_det_laurent_small():
    m = Matrix([[t() - 1, 1], [0, t() + 1]])
    assert det_laurent(m) == t(2) - 1
    burau = Matrix([[-t(), 1], [t(-1), 0]])
    d = det_laurent(burau)
    assert d == LaurentPolynomial({-1: -1})


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
                 min_size=n, max_size=n),
        min_size=n, max_size=n)))
def test_det_laurent_matches_bareiss(entries):
    rows = [[LaurentPolynomial({e: c}) for c, e in r] for r in entries]
    assert det_laurent(rows) == det_cofactor(rows)


def test_smith_normal_form_known():
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) \
        == [2, 2, 156]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


def test_smith_invariants_divide():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-10, 11) for _ in range(n)] for _ in range(n)]
        inv = smith_normal_form(rows)
        for a, b in zip(inv, inv[1:]):
            if b == 0:
                continue
            assert a != 0 and b % a == 0


def test_smith_normal_form_is_integer_only():
    with pytest.raises(TypeError):
        smith_normal_form([[Fraction(1, 2), 0], [0, 2]])
    with pytest.raises(TypeError):
        smith_normal_form([[t(), 1], [1, 1]])


def check_determinantal_divisors(rows):
    # d_1 ... d_k is the gcd of all k x k minors (0 past the rank),
    # computed by cofactor expansion, which shares nothing with the
    # elimination
    m, k = len(rows), len(rows[0])
    inv = smith_normal_form(rows)
    assert len(inv) == min(m, k)
    for size in range(1, min(m, k) + 1):
        divisor = 0
        for ri in combinations(range(m), size):
            for ci in combinations(range(k), size):
                sub = [[rows[i][j] for j in ci] for i in ri]
                divisor = gcd(divisor, det_cofactor(sub))
        assert prod(inv[:size]) == divisor


def test_snf_matches_determinantal_divisors():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randrange(1, 5)
        k = rng.randrange(1, 5)
        check_determinantal_divisors(
            [[rng.randrange(-9, 10) for _ in range(k)] for _ in range(m)])


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda k: st.lists(
        st.lists(st.sampled_from((0, 1, -1, 1, -1, 2, -2, 3, 6)),
                 min_size=k, max_size=k),
        min_size=1, max_size=5)))
@settings(max_examples=150)
def test_snf_with_unit_pivots_matches_determinantal_divisors(rows):
    # rich in +-1, so most pivots are units found early in the scan
    check_determinantal_divisors(rows)


def test_the_oracle_evaluates_through_items():
    # src has no evaluation; the oracle sums each entry's terms itself,
    # and its determinant still matches the band kernel's
    p = LaurentPolynomial({0: 1, 1: 2, 2: 1})
    assert evaluate(p, 3) == 16 and evaluate(p, -1) == 0
    assert evaluate(LaurentPolynomial(), 5) == 0
    with pytest.raises(ValueError):
        evaluate(t(-1), 2)
    assert not callable(p)
    for n in (2, 5, 7):
        a = seifert_matrix(n)
        pencil = [[t(1, x) - y for x, y in zip(row, col)]
                  for row, col in zip(a.rows, zip(*a.rows))]
        assert det_laurent(pencil) == alexander_polynomial(n)


def test_det_laurent_with_int_entries_mixed():
    m = [[2, t()], [t(-1), 1]]
    assert det_laurent(m) == 1
