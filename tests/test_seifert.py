"""Seifert matrices for the braid-closure family and the polynomials
derived from them.  The dense block form of A lives in
`tests/seifert_oracle.py`; the program writes A only as band rows."""

import random
import tracemalloc

import pytest

import bareiss_oracle
from bareiss_oracle import alexander_by_interpolation, det_bareiss
from blanchfield_oracle import seifert_inverse
from laurent_oracle import (band_rows, dense_rows, det_laurent, evaluate,
                            max_exp)
from seifert_oracle import band_matrix, seifert_matrix
from sliceobs import blanchfield, seifert
from sliceobs.blanchfield import cover_homology_snf, linking_form
from sliceobs.ffpoly import is_prime, mul
from sliceobs.laurent import LaurentPolynomial
from sliceobs.linalg import Matrix, det_band
from sliceobs.report import obstruct
from sliceobs.seifert import (
    MAX_N,
    alexander_polynomial,
    apply_monodromy,
    band_order,
    band_pencil,
    p_n,
    paired_product,
)

t = LaurentPolynomial({1: 1})


def same_up_to_units(p, q):
    """p = +-t^k q, compared the way acceptance criterion 5 does."""
    a, b = p.aligned(), q.aligned()
    return a == b or a == -b


class TestBandMatrix:
    def test_smallest(self):
        assert band_matrix(2).rows == ((1,),)

    def test_shape_and_entries(self):
        b = band_matrix(5)
        assert b.nrows == b.ncols == 4
        for i in range(4):
            for j in range(4):
                expected = 1 if i == j else (-1 if j == i + 1 else 0)
                assert b[i][j] == expected

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            band_matrix(1)

    def test_unimodular(self):
        assert det_bareiss(band_matrix(9)) == 1


class TestSeifertMatrix:
    def test_block_shape(self):
        a = seifert_matrix(3)
        assert a.nrows == 4
        b = band_matrix(3)
        for i in range(2):
            for j in range(2):
                assert a[i][j] == -b[j][i]
                assert a[i][j + 2] == 0
                assert a[i + 2][j] == b[i][j]
                assert a[i + 2][j + 2] == b[i][j]

    @pytest.mark.parametrize("n", (2, 5, 12, 29))
    def test_matches_blocks_of_band_matrix(self, n):
        # the blocks assembled from B by transposing and negating
        # Matrix objects, the way the rows used to be built
        b = band_matrix(n)
        neg_bt = b.transpose().map(lambda x: -x)
        zeros = (0,) * (n - 1)
        expected = Matrix([tuple(neg_bt[i]) + zeros for i in range(n - 1)]
                          + [tuple(b[i]) + tuple(b[i])
                             for i in range(n - 1)])
        assert seifert_matrix(n) == expected

    def test_genus(self):
        # a genus n-1 surface: the matrix has side 2(n-1)
        a = seifert_matrix(7)
        assert a.nrows == a.ncols == 2 * 6

    @pytest.mark.parametrize("n", (2, 4, 5, 7, 8, 10, 11))
    def test_intersection_form_unimodular_for_knots(self, n):
        a = seifert_matrix(n)
        assert det_bareiss(a - a.transpose()) == 1

    @pytest.mark.parametrize("n", (3, 6, 9))
    def test_intersection_form_degenerate_for_links(self, n):
        a = seifert_matrix(n)
        assert det_bareiss(a - a.transpose()) == 0


class TestInverse:
    @pytest.mark.parametrize("n", (2, 3, 5, 12, 29))
    def test_apply_matches_dense_inverse(self, n):
        # the closed form of h = A^-1 A^T against the oracle's dense
        # A^-1 times A^T, on random columns
        a = seifert_matrix(n)
        size = a.nrows
        rng = random.Random(n)
        x = [[rng.randrange(-9, 10) for _ in range(size)]
             for _ in range(size + 1)]
        assert Matrix([apply_monodromy(n, col) for col in x]).transpose() \
            == seifert_inverse(n) * a.transpose() * Matrix(x).transpose()

    def test_apply_needs_all_rows(self):
        # a column with one row short
        with pytest.raises(ValueError, match="needs 8 entries"):
            apply_monodromy(5, [1] * 7)


# everything that builds a table of side 2(n-1)
SIZED = {
    "apply_monodromy": lambda n: apply_monodromy(n, []),
    "band_order": band_order,
    "band_pencil": band_pencil,
    "alexander_polynomial": alexander_polynomial,
    "cover_homology_snf": lambda n: cover_homology_snf(n, 3),
    "linking_form": linking_form,
    "obstruct": obstruct,
}


class TestSizeCeiling:
    @pytest.mark.parametrize("name", SIZED)
    @pytest.mark.parametrize("n", (MAX_N + 1, MAX_N + 3, 100003))
    def test_fires_before_allocation(self, name, n):
        # MAX_N + 3 = 503 is a prime 5 mod 6, a valid obstruct input but
        # for its size; 100003 would need 4e10 entries
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                SIZED[name](n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value).startswith(
            f"n={n} is above the ceiling n <= {MAX_N}")
        assert peak < 2 ** 20

    def test_ceiling_itself_is_accepted(self):
        a, at = band_pencil(MAX_N)
        assert len(a) == len(at) == 2 * (MAX_N - 1)


class TestAlexanderPolynomial:
    def test_figure_eight(self):
        # n = 2 closes to the figure-eight knot
        delta = alexander_polynomial(2)
        target = t * t - 3 * t + 1
        assert same_up_to_units(delta, target)

    def test_determinant_values(self):
        # |Delta(-1)| is the double-branched-cover homology order
        assert abs(evaluate(alexander_polynomial(2), -1)) == 5
        assert abs(evaluate(alexander_polynomial(4), -1)) == 45

    @pytest.mark.parametrize("n", (2, 4, 5, 7))
    def test_degree_and_normalization(self, n):
        delta = alexander_polynomial(n)
        span = max_exp(delta) - delta.min_exp
        assert span == 2 * (n - 1)
        assert abs(evaluate(delta, 1)) == 1

    @pytest.mark.parametrize("n", range(2, 42))
    def test_matches_laurent_determinant(self, n):
        # the oracle builds tA - A^T as a Laurent matrix and bounds its
        # degree row by row.  Up to n = 17 it takes the natural basis
        # order; beyond, the band order, which permutes rows and columns
        # alike and so keeps the determinant, spares it a dense
        # elimination at each of its 2n - 1 points
        a = seifert_matrix(n)
        order = range(a.nrows) if n <= 17 else band_order(n)
        rows = [[LaurentPolynomial({1: a[i][j], 0: -a[j][i]})
                 for j in order] for i in order]
        assert alexander_polynomial(n) == det_laurent(rows)

    @pytest.mark.parametrize("n", range(2, 30))
    def test_matches_bareiss_interpolation(self, n):
        # the route this replaced: Bareiss eliminations at n integer
        # points, then the palindromic half interpolated
        assert alexander_polynomial(n) == alexander_by_interpolation(n)

    @pytest.mark.parametrize("n", (2, 5, 11, 29))
    def test_one_kernel_pass_per_call(self, n, monkeypatch):
        # Delta is one pass over Z[t]; the linking form takes one,
        # modulo t^3 - 1
        moduli = []

        def counted(x, y, modulus=None):
            moduli.append(modulus)
            return det_band(x, y, modulus)

        monkeypatch.setattr(seifert, "det_band", counted)
        monkeypatch.setattr(blanchfield, "det_band", counted)
        alexander_polynomial(n)
        assert moduli == [None]
        moduli.clear()
        if n == 2:
            # the pass runs; H_1 of the cover is then not (Z/2)^4
            with pytest.raises(ValueError, match="not dividing n=2"):
                linking_form(n)
        else:
            linking_form(n)
        assert moduli == [(-1, 0, 0, 1)]

    @pytest.mark.parametrize("point, error, message", (
        (0, 1, "interpolant not integral"),
        (1, 720, "palindromic half is not integral"),
    ))
    def test_a_wrong_determinant_is_caught(self, point, error, message,
                                           monkeypatch):
        # the interpolation oracle checks itself: one determinant of
        # n = 5 off by 1 leaves no integral G at the scaled nodes; off by
        # 720 at x = -1, G is integral but its coefficients do not
        # divide by the powers of L
        calls = []
        bareiss = bareiss_oracle._bareiss

        def wrong(rows, steps):
            sign = bareiss(rows, steps)
            if len(calls) == point:
                rows[-1][-1] += error
            calls.append(steps)
            return sign

        monkeypatch.setattr(bareiss_oracle, "_bareiss", wrong)
        with pytest.raises(ArithmeticError, match=message):
            alexander_by_interpolation(5)

    @pytest.mark.parametrize("n", [*range(2, 61), pytest.param(
        497, marks=pytest.mark.scale)])
    def test_band_pencil_is_the_dense_pencil(self, n):
        # the band rows written from the closed form of A, densified, are
        # the oracle's block A and A^T in band order, and are the band
        # rows of those: the only description of A in src, which the
        # linking form, Delta and the cover's check A h = A^T all read
        a = seifert_matrix(n).rows
        order = band_order(n)
        dense = ([[a[i][j] for j in order] for i in order],
                 [[a[j][i] for j in order] for i in order])
        x, y = band_pencil(n)
        assert (dense_rows(x), dense_rows(y)) == dense
        assert (x, y) == tuple(map(band_rows, dense))

    @pytest.mark.parametrize("n", (2, 4, 5, 7))
    def test_palindromic(self, n):
        delta = alexander_polynomial(n)
        assert same_up_to_units(delta, delta.involution())


def assert_root_of_unity_product(p, n):
    """p is prod over k = 1 .. (n-1)//2 of t^2 + (xi^k + xi^-k - 1) t + 1
    mod s, with xi an n-th root of unity in Z/s for three primes
    s = 1 mod n."""
    m = (n - 1) // 2
    assert p.min_exp == 0 and max_exp(p) == 2 * m
    dense = [dict(p.items()).get(e, 0) for e in range(2 * m + 1)]
    primes = [s for s in range(n + 1, 100 * n, n) if is_prime(s)][:3]
    assert len(primes) == 3
    for s in primes:
        theta = next(x for x in (pow(a, (s - 1) // n, s)
                                 for a in range(2, s))
                     if all(pow(x, k, s) != 1 for k in range(1, n)))
        acc = [1]
        for k in range(1, m + 1):
            mid = (pow(theta, k, s) + pow(theta, -k, s) - 1) % s
            acc = mul(acc, [1, mid, 1], s)
        assert acc == [c % s for c in dense]


class TestSquareRoot:
    def test_rejects_even_or_tiny(self):
        with pytest.raises(ValueError):
            p_n(4)
        with pytest.raises(ValueError):
            p_n(1)

    def test_refuses_a_string(self):
        # "5" was compared with 3 before n was checked: a TypeError
        with pytest.raises(ValueError,
                           match="^need an integer n >= 2, not '5'$"):
            p_n("5")

    @pytest.mark.parametrize("n", (MAX_N + 1, MAX_N + 3, 100003))
    def test_refuses_n_above_the_ceiling(self, n):
        # the recurrence costs more than n^2, so a large n would hang
        with pytest.raises(ValueError) as err:
            p_n(n)
        with pytest.raises(ValueError) as same:
            alexander_polynomial(n)
        assert str(err.value) == str(same.value)
        assert str(err.value).startswith(
            f"n={n} is above the ceiling n <= {MAX_N}")

    def test_ceiling_itself_is_accepted(self):
        assert max_exp(p_n(MAX_N - 1)) == MAX_N - 2

    @pytest.mark.parametrize("n", (5, 7, 11))
    def test_monic_symmetric_of_degree_n_minus_one(self, n):
        p = p_n(n)
        assert p.min_exp == 0
        assert max_exp(p) == n - 1
        assert dict(p.items())[n - 1] == 1
        assert same_up_to_units(p, p.involution())

    @pytest.mark.parametrize("n", (5, 7))
    def test_square_is_alexander_polynomial(self, n):
        p = p_n(n)
        assert same_up_to_units(p * p, alexander_polynomial(n))

    @pytest.mark.parametrize("n", (3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    def test_matches_root_of_unity_product_mod_s(self, n):
        # the paper's definition, prod_k t^2 + (xi^k + xi^-k - 1) t + 1,
        # with xi an n-th root of unity in Z/s for primes s = 1 mod n
        assert_root_of_unity_product(p_n(n), n)

    @pytest.mark.parametrize("n", (4, 8, 10, 14, 16, 20, 22, 32))
    def test_paired_product_at_even_n(self, n):
        # the same product over k = 1 .. (n-2)/2, the pairs xi^k, xi^-k
        # other than xi^(n/2) = -1
        assert_root_of_unity_product(paired_product(n), n)

    def test_paired_product_is_one_at_two(self):
        assert paired_product(2) == LaurentPolynomial.constant(1)

    def test_value_at_one(self):
        for n in (5, 7, 11):
            assert abs(evaluate(p_n(n), 1)) == 1
