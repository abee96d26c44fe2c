"""Blanchfield pairing, branched cover homology, and the linking form.

The Blanchfield polynomials live in `tests/blanchfield_oracle.py`; they
are checked here against five Laurent determinants and in turn check the
program's linking form, and their cofactors, folded modulo t^3 - 1, its
one pass of `linalg.det_band` modulo t^3 - 1.  The block-circulant cover
presentation there, and the monodromy from the dense A^-1 there, check
the program's cover homology."""

import dataclasses
import re
import tracemalloc
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from bareiss_oracle import det_bareiss
from blanchfield_oracle import (
    BlanchfieldEntries,
    _annihilator_pair,
    _cyclic,
    _cyclic_mul,
    _pairing_cofactors,
    blanchfield_entries,
    block_circulant_homology,
    dense_monodromy_homology,
    laurent_linking_form,
    seifert_inverse,
)
from laurent_oracle import band_rows, det_laurent, minor
from fresh_python import run_python
from metabolizer_oracle import fraction_value
from seifert_oracle import seifert_matrix
from sliceobs import blanchfield
from sliceobs.blanchfield import (
    BASIS,
    LinkingForm,
    MAX_COVER_SIDE,
    _cyclic_product,
    cover_homology_snf,
    linking_form,
    linking_template,
    r_matrix,
    symmetry_action,
    t_matrix,
)
from sliceobs.laurent import LaurentPolynomial
from sliceobs.linalg import Matrix, det_band, smith_normal_form
from sliceobs.seifert import (alexander_polynomial, apply_monodromy,
                              band_order, band_pencil, paired_product)


def five_determinant_cofactors(a, pos):
    """Independent route: det(A - t A^T) and the adjugate entries
    adj[p_i][p_j] = (-1)^(p_i + p_j) det(minor(p_j, p_i)), one
    det_laurent call each."""
    size = a.nrows
    m = Matrix([[LaurentPolynomial({0: a[i][j], 1: -a[j][i]}
                                   if a[i][j] or a[j][i] else {})
                 for j in range(size)] for i in range(size)])
    adj = tuple(tuple((-1) ** (pi + pj) * det_laurent(minor(m, pj, pi))
                      for pj in pos) for pi in pos)
    return det_laurent(m), adj


def five_determinant_entries(n):
    den, adj = five_determinant_cofactors(seifert_matrix(n),
                                          (n - 2, 2 * n - 3))
    tm1 = LaurentPolynomial({1: 1, 0: -1})
    return BlanchfieldEntries(
        n, den, tuple(tuple(tm1 * c for c in row) for row in adj))


# rows and columns 1, 3 form the leading block once pos = (2, 0) is moved
# last; it is [[0, 1], [-x, 0]], singular at x = 0 and nowhere else
SINGULAR_AT_ZERO = Matrix([[1, 2, 0, -1],
                           [0, 0, 3, 1],
                           [2, -1, 1, 0],
                           [1, 0, -2, 0]])


# A - t A^T is a band, and its leading 2-block singular at a primitive
# cube root of unity w
SINGULAR_AT_OMEGA = [[-1, -2, 1, 0],
                     [1, -1, 0, 1],
                     [1, 2, -1, 1],
                     [0, 1, -2, 2]]

T3_MINUS_1 = (-1, 0, 0, 1)


def cofactors_mod_t3_minus_1(a, at):
    """det M and the adjugate block of M at its last two indices, for
    M = A - t A^T given by the band rows a of A and at of A^T, from the
    program's one `det_band` pass modulo t^3 - 1, as coefficient lists:
    the bordered minors B give the adjugate [[B11, -B01], [-B10, B00]]."""
    det, ((b00, b01), (b10, b11)) = det_band(a, at, T3_MINUS_1)
    return det, [[b11, [-x for x in b01]], [[-x for x in b10], b00]]


def folded(det, adj):
    """The oracle's det M and adjugate block, Laurent polynomials, with
    their exponents folded modulo 3."""
    return _cyclic(det, 3), [[_cyclic(x, 3) for x in row] for row in adj]


class TestBlanchfieldEntries:
    def test_denominator_is_alexander_polynomial(self):
        for n in (5, 7):
            ent = blanchfield_entries(n)
            assert ent.denominator == alexander_polynomial(n)

    def test_entry_shares_denominator(self):
        ent = blanchfield_entries(5)
        num, den = ent.entry(0, 1)
        assert den is ent.denominator
        assert num == ent.numerators[0][1]

    @pytest.mark.parametrize("n", [5, 7, 11, 17])
    def test_matches_five_determinant_route(self, n):
        assert blanchfield_entries(n) == five_determinant_entries(n)

    def test_point_with_singular_leading_block_is_skipped(self):
        a, pos = SINGULAR_AT_ZERO, (2, 0)
        lead = [[a[i][j] for j in (1, 3)] for i in (1, 3)]
        assert det_bareiss(lead) == 0
        den, adj = _pairing_cofactors(a, pos)
        assert den
        assert (den, adj) == five_determinant_cofactors(a, pos)

    def test_identically_singular_leading_block_is_refused(self):
        a = Matrix([[0, 0, 1, 0],
                    [0, 0, 0, 1],
                    [1, 0, 1, 0],
                    [0, 1, 0, 1]])
        with pytest.raises(ArithmeticError):
            _pairing_cofactors(a, (2, 3))

    @pytest.mark.parametrize("n", range(2, 18))
    def test_pairing_at_omega_matches_the_cofactors(self, n):
        # the program's one pass modulo t^3 - 1, which fixes the values
        # at w, against the Blanchfield cofactors of the oracle,
        # interpolated over Z[t], folded modulo t^3 - 1
        want = _pairing_cofactors(seifert_matrix(n), (n - 2, 2 * n - 3))
        assert cofactors_mod_t3_minus_1(*band_pencil(n)) == folded(*want)

    def test_singular_leading_block_at_omega(self):
        # the leading 2-block [[-1, -2], [1, -1]] of A - t A^T has
        # determinant 3 (1 + t + t^2), singular at w and nowhere else;
        # the pass has no pivot to lose there
        a = Matrix(SINGULAR_AT_OMEGA)
        assert [det_bareiss([[a[i][j] - x * a[j][i] for j in (0, 1)]
                             for i in (0, 1)])
                for x in (0, 1, 2)] == [3, 9, 21]
        got = cofactors_mod_t3_minus_1(band_rows(a.rows),
                                       band_rows(a.transpose().rows))
        want = folded(*_pairing_cofactors(a, (2, 3)))
        assert got == want
        assert got[0] == [22, 22, 37]  # -15 - 15 w at w, 81 at 1

    def test_hermitian_symmetry(self):
        # c_ij(t^-1) den(t) == c_ji(t) den(t^-1)
        ent = blanchfield_entries(7)
        den = ent.denominator
        for i in range(2):
            for j in range(2):
                lhs = ent.numerators[i][j].involution() * den
                rhs = ent.numerators[j][i] * den.involution()
                assert lhs == rhs


def refuses_the_link(n):
    """At 3 | n the closure is a 3-component link, and every cover the
    parity tests take is refused as such; the oracles would call the
    covers infinite (coker(A - A^T) adds Z^2 to h^q - I)."""
    for q in range(1, 8):
        with pytest.raises(ValueError, match=f"^the closure for n={n} is "
                                             f"a 3-component link"):
            cover_homology_snf(n, q)


# for n <= 40 coprime to 3, the only cyclotomic factors Phi_d, 1 < d < 200,
# of the Alexander polynomial are Phi_6 and Phi_10, at even n; so a
# cover is refused for q < 200 exactly when 6 or 10 divides q and Phi_6
# or Phi_10 divides Delta
CYCLOTOMIC_HITS = {4: (6,), 8: (6,), 10: (10,), 16: (6,), 20: (6, 10),
                   28: (6,), 32: (6,), 40: (6, 10)}


def refused_covers(ns, qs):
    """The knots n in ns and degrees q in qs whose q-fold cover
    `cover_homology_snf` refuses as infinite."""
    refused = []
    for n in (n for n in ns if n % 3):
        for q in qs:
            try:
                cover_homology_snf(n, q)
            except ValueError as exc:
                assert str(exc) == f"H_1 of the {q}-fold branched cover " \
                                   f"is infinite for n={n}"
                refused.append((n, q))
    return refused


def expected_refusals(ns, qs):
    """The pairs of `refused_covers` that `CYCLOTOMIC_HITS` predicts."""
    return [(n, q) for n in ns if n % 3 for q in qs
            if any(q % d == 0 for d in CYCLOTOMIC_HITS.get(n, ()))]


def refused_before_allocation(n, q):
    """The q-fold cover for n is refused by the side ceiling, with under
    64 KiB allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"N q <= {MAX_COVER_SIDE}"):
            cover_homology_snf(n, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


class TestCoverHomology:
    def test_figure_eight_double_cover(self):
        h = cover_homology_snf(2, 2)
        assert h.torsion == (5,)
        assert h.order == 5

    @pytest.mark.parametrize("n", [5, 7, 11])
    def test_triple_cover_is_four_copies(self, n):
        h = cover_homology_snf(n, 3)
        assert h.torsion == (n, n, n, n)
        assert h.order == n ** 4

    def test_triple_cover_multiple_of_three(self):
        # gcd(n, 3) > 1 breaks the (Z/n)^4 pattern but stays finite
        h = cover_homology_snf(4, 3)
        assert h.torsion == (2, 2, 8, 8)

    def test_double_covers_are_determinant_squares(self):
        assert cover_homology_snf(5, 2).torsion == (11, 11)
        assert cover_homology_snf(7, 2).torsion == (29, 29)

    def test_invariant_divisibility(self):
        for n, q in ((5, 3), (7, 3), (4, 3), (7, 2)):
            inv = cover_homology_snf(n, q).invariants
            for a, b in zip(inv, inv[1:]):
                assert b % a == 0

    @pytest.mark.parametrize("n", range(2, 18))
    def test_matches_block_circulant_presentation(self, n):
        # the same tuple, or the same "infinite" ValueError text
        if n % 3 == 0:
            refuses_the_link(n)
            return
        for q in range(1, 8):
            try:
                want = block_circulant_homology(n, q)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    cover_homology_snf(n, q)
                assert str(got.value) == str(exc)
                continue
            assert cover_homology_snf(n, q) == want

    @pytest.mark.parametrize("n", range(2, 42))
    def test_matches_dense_inverse(self, n):
        # the monodromy from the dense A^-1 of the oracle, by a Matrix
        # product; the same tuple or the same ValueError text
        if n % 3 == 0:
            refuses_the_link(n)
            return
        for q, want in dense_monodromy_homology(n, range(1, 8)).items():
            if isinstance(want, str):
                with pytest.raises(ValueError) as got:
                    cover_homology_snf(n, q)
                assert str(got.value) == want
            else:
                assert cover_homology_snf(n, q) == want

    @pytest.mark.parametrize("n", [5, 7, 11, 13])
    def test_matches_dense_inverse_on_both_sides_of_the_switch(self, n):
        # odd n take the Smith form modulo g_q = 1 + t + ... + t^(q-1)
        # for q < n and modulo p_n from q = n on
        for q, want in dense_monodromy_homology(n, range(1, n + 3)).items():
            assert cover_homology_snf(n, q) == want

    @pytest.mark.parametrize("n, q", [(4, 6), (8, 6), (10, 10)])
    def test_even_n_infinite_cover_matches_dense_inverse(self, n, q):
        with pytest.raises(ValueError) as got:
            cover_homology_snf(n, q)
        assert str(got.value) == dense_monodromy_homology(n, [q])[q]

    def test_infinite_cover_is_refused_before_any_power_of_h(
            self, monkeypatch):
        # Phi_6 divides f_0 = (t^2 - 3t + 1) p at n = 8, and 6 | 1428;
        # once the certificate is taken, the cover is refused by Smith
        # forms of side min(deg f, q - 1) for f = f_0, p, with no power
        # of h and no Alexander polynomial
        cover_homology_snf(8, 1)
        sides = []

        def no_power(n, x):
            raise AssertionError("took a power of h")

        def recorded(rows):
            sides.append(len(rows))
            return smith_normal_form(rows)

        monkeypatch.setattr(blanchfield, "apply_monodromy", no_power)
        monkeypatch.setattr(blanchfield, "smith_normal_form", recorded)
        with pytest.raises(ValueError, match="1428-fold branched cover is "
                                             "infinite for n=8"):
            cover_homology_snf(8, 1428)
        assert sides == [8, 6]
        assert not hasattr(blanchfield, "alexander_polynomial")

    def test_cyclotomic_factors_refuse_small_covers(self):
        # q <= 20 meets Phi_6 and Phi_10 and their multiples 12, 18, 20;
        # n <= 20 has both parities, 3 | n, odd n on both sides of the
        # q switch, and the hits of each factor and of both (n = 20).
        # The scale tests take n <= 40 with q up to 60 or 200
        assert refused_covers(range(2, 21), range(2, 21)) == \
            expected_refusals(range(2, 21), range(2, 21))

    @pytest.mark.parametrize("q", [0, -2])
    def test_cover_degree_must_be_positive(self, q):
        with pytest.raises(ValueError, match="at least 1"):
            cover_homology_snf(11, q)

    @pytest.mark.parametrize("q", [1001, 10 ** 9])
    def test_cover_degree_ceiling(self, q):
        # at n = 11, N = 20, the side ceiling admits q <= 1000; a larger
        # q is refused before anything is allocated
        refused_before_allocation(11, q)

    def test_cover_degree_at_the_ceiling(self):
        # at n = 4, N = 6, the largest q the side ceiling admits is 3333
        q = MAX_COVER_SIDE // 6
        assert q == 3333
        assert cover_homology_snf(4, q).order > 1
        refused_before_allocation(4, q + 1)

    @pytest.mark.parametrize("n, q", [(497, 1000), (497, 21), (101, 101),
                                      (53, 193), (12, 1000), (2, 10001),
                                      (11, 1001)])
    def test_cover_side_ceiling(self, n, q):
        # n <= MAX_N and q alone pass these, and (497, 1000) would run
        # for hours; the side N q of the cover is refused before
        # allocation, while (11, 1000), (2, 10000) and every n <= 41
        # with q <= 7 stay inside
        refused_before_allocation(n, q)

    @pytest.mark.parametrize("q", [1, 2, 3, 1000, 1001, 10000])
    def test_figure_eight_cover_orders_are_lucas_numbers(self, q):
        # n = 2 is the figure-eight knot, whose q-fold branched cover
        # has order L_2q - 2, L the Lucas numbers 2, 1, 3, 4, 7, ...;
        # q = 10000 is the side ceiling at N = 2
        lucas = [2, 1]
        while len(lucas) <= 2 * q:
            lucas.append(lucas[-1] + lucas[-2])
        assert cover_homology_snf(2, q).order == lucas[2 * q] - 2

    @pytest.mark.parametrize("n", range(2, 12))
    def test_closed_form_inverse(self, n):
        # the closed form of h = A^-1 A^T, applied to each unit vector,
        # gives the columns of the oracle's dense h, and each row of h has
        # at most 5 nonzeros, each at most 2 in absolute value
        a = seifert_matrix(n)
        assert a * seifert_inverse(n) == Matrix.identity(a.nrows)
        cols = [apply_monodromy(n, list(e)) for e in Matrix.identity(a.nrows)]
        assert Matrix(cols).transpose() == seifert_inverse(n) * a.transpose()
        for row in zip(*cols):
            nonzeros = [x for x in row if x]
            assert len(nonzeros) <= 5
            assert max(map(abs, nonzeros)) <= 2

    def test_wrong_closed_form_is_caught(self, monkeypatch):
        # a monodromy off in one entry fails the check A h = A^T before
        # any Smith step
        def perturbed(n, x):
            out = apply_monodromy(n, x)
            out[0] += 1
            return out

        def no_smith(rows):
            raise AssertionError("reached the Smith form")

        monkeypatch.setattr(blanchfield, "apply_monodromy", perturbed)
        monkeypatch.setattr(blanchfield, "smith_normal_form", no_smith)
        with pytest.raises(ArithmeticError, match="is not A\\^T"):
            cover_homology_snf(5, 3)

    @pytest.mark.parametrize("n", [4, 5])
    def test_far_entry_is_caught(self, n, monkeypatch):
        # h with its entry in column 0, last row one off, far from the
        # band of A in `band_order`, fails A h = A^T on either route
        # before any Smith step
        def perturbed(n, x):
            out = apply_monodromy(n, x)
            if x == [1] + [0] * (len(x) - 1):
                out[-1] += 1
            return out

        monkeypatch.setattr(blanchfield, "apply_monodromy", perturbed)
        monkeypatch.setattr(blanchfield, "smith_normal_form", no_smith)
        with pytest.raises(ArithmeticError, match="is not A\\^T"):
            cover_homology_snf(n, 3)

    @pytest.mark.parametrize("p, k", [(0, 2), (3, 3), (6, 1), (7, 0)])
    def test_wrong_band_row_is_caught(self, p, k, monkeypatch):
        # the check reads A off the band rows the linking form reads, so
        # a band row of A one entry off fails it before any Smith step
        def perturbed(n):
            a, at = band_pencil(n)
            row = list(a[p])
            row[k] += 1
            return a[:p] + [tuple(row)] + a[p + 1:], at

        def no_smith(rows):
            raise AssertionError("reached the Smith form")

        monkeypatch.setattr(blanchfield, "band_pencil", perturbed)
        monkeypatch.setattr(blanchfield, "smith_normal_form", no_smith)
        with pytest.raises(ArithmeticError, match="is not A\\^T"):
            cover_homology_snf(5, 3)

    @pytest.mark.parametrize("n", [4, 5])
    def test_singular_seifert_matrix_is_caught(self, n, monkeypatch):
        # 2A and 2A^T still satisfy (2A) h = (2A)^T, but 2A is not
        # unimodular, so the block moves to h^q - I fail; caught before
        # any Smith step on either route
        def doubled(n):
            return tuple([tuple(2 * x for x in row) for row in rows]
                         for rows in band_pencil(n))

        monkeypatch.setattr(blanchfield, "band_pencil", doubled)
        monkeypatch.setattr(blanchfield, "smith_normal_form", no_smith)
        with pytest.raises(ArithmeticError, match="not unimodular"):
            cover_homology_snf(n, 3)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_band_order_puts_every_nonzero_near_the_diagonal(self, n):
        a = seifert_matrix(n)
        order = band_order(n)
        assert sorted(order) == list(range(a.nrows))
        assert order[-2:] == [n - 2, 2 * n - 3]
        for u, i in enumerate(order):
            for v, j in enumerate(order):
                if a[i][j] or a[j][i]:
                    assert abs(u - v) <= 2



def no_smith(rows):
    raise AssertionError("reached the Smith form")


def seed_flipped(monkeypatch, n):
    """Hand the certificate for n the true columns of h, but apply h
    conjugated by the sign change D of e_1 in Horner's rule: then
    p(D h D) (e_0 + e_1) = D p(h) (e_0 - e_1), so the certificate checks
    the seed e_0 - e_1 in place of e_0 + e_1, while D e_0 = e_0 keeps
    the check of f_0."""
    h = blanchfield._checked_monodromy(n)

    def conjugated(n, x):
        out = apply_monodromy(n, [-u if i == 1 else u
                                  for i, u in enumerate(x)])
        out[1] = -out[1]
        return out

    monkeypatch.setattr(blanchfield, "_checked_monodromy", lambda n: h)
    monkeypatch.setattr(blanchfield, "apply_monodromy", conjugated)


class TestAlexanderModule:
    """The cover homology is read off Z[t]/(f_0, t^q - 1) and
    Z[t]/(p, t^q - 1), after the certificate of
    `blanchfield._alexander_module` that Z^N with t acting by h is
    Z[t]/f_0 on e_0 plus Z[t]/p on e_0 + e_1, with f_0 = p for odd n and
    f_0 = (t^2 - 3t + 1) p for even n; each of its checks is
    load-bearing, for both parities."""

    @pytest.mark.parametrize("k, delta, message", [
        (0, 1, "not monic"), (2, 1, "not monic"), (4, 1, "not monic"),
        (1, 2, "does not kill"), (2, 2, "does not kill"),
        (3, 2, "does not kill")])
    def test_wrong_p_n_is_caught(self, k, delta, message, monkeypatch):
        # p_5 = 1 - 3t + 3t^2 - 3t^3 + t^4 with one coefficient off: by 1
        # it loses a unit value at 0 or 1, or its leading 1; by 2 inside
        # it keeps them, and p_n(h) no longer kills e_0 and e_1
        def perturbed(n):
            return paired_product(n) + LaurentPolynomial({k: delta})

        monkeypatch.setattr(blanchfield, "paired_product", perturbed)
        monkeypatch.setattr(blanchfield, "smith_normal_form", no_smith)
        with pytest.raises(ArithmeticError, match=message):
            cover_homology_snf(5, 3)

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("factor, message", [
        ((2, -3, 1), "not monic"), ((0, -3, 1), "not monic"),
        ((1, -4, 1), "not monic"), ((1, -2, 1), "not monic"),
        ((1, -3, 2), "not monic"), ((1, -3, 0), "not monic"),
        ((1, -1, 1), "f_0\\(h\\) does not kill e_0")])
    def test_wrong_middle_factor_is_caught(self, n, factor, message,
                                           monkeypatch):
        # t^2 - 3t + 1 with one coefficient off by 1 loses a unit value
        # at 0 or 1, or its leading 1; t^2 - t + 1, off by 2 in the
        # middle, keeps them, and f_0(h) no longer kills e_0
        monkeypatch.setattr(blanchfield, "_MIDDLE_FACTOR", factor)
        monkeypatch.setattr(blanchfield, "smith_normal_form", no_smith)
        with pytest.raises(ArithmeticError, match=message):
            cover_homology_snf(n, 3)

    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_seed_e0_minus_e1_is_caught(self, n, monkeypatch):
        # for odd n, p(h) = 0 kills e_0 - e_1 too, and at n = 2 the
        # summand of p = 1 drops out; from n = 4 on, p(h) kills e_0 + e_1
        # and not e_0 - e_1
        seed_flipped(monkeypatch, n)
        monkeypatch.setattr(blanchfield, "smith_normal_form", no_smith)
        with pytest.raises(ArithmeticError,
                           match="p\\(h\\) does not kill e_0 \\+ e_1"):
            cover_homology_snf(n, 3)

    @pytest.mark.parametrize("n", [4, 5])
    def test_wrong_degree_is_caught(self, n, monkeypatch):
        # times t^2 - t + 1, f_0 and p stay monic with unit values at 0
        # and 1, but their degrees add up past N
        def perturbed(n):
            return paired_product(n) * LaurentPolynomial({0: 1, 1: -1, 2: 1})

        monkeypatch.setattr(blanchfield, "paired_product", perturbed)
        monkeypatch.setattr(blanchfield, "smith_normal_form", no_smith)
        with pytest.raises(ArithmeticError, match="deg f_0 \\+ deg p"):
            cover_homology_snf(n, 3)

    @pytest.mark.parametrize("n", [2, 4, 5, 8])
    def test_negative_exponent_is_caught(self, n, monkeypatch):
        monkeypatch.setattr(blanchfield, "paired_product",
                            lambda n: paired_product(n).shift(-1))
        monkeypatch.setattr(blanchfield, "smith_normal_form", no_smith)
        with pytest.raises(ArithmeticError, match="not monic"):
            cover_homology_snf(n, 3)

    @pytest.mark.parametrize("n", [n for n in range(2, 101) if n % 3])
    def test_product_is_the_alexander_polynomial(self, n):
        # the certified f_0 p is det(tA - A^T) on the band rows, up to
        # the sign det A = (-1)^(n-1)
        f0, p = blanchfield._alexander_module(n)
        product = LaurentPolynomial(dict(enumerate(f0))) * \
            LaurentPolynomial(dict(enumerate(p)))
        assert product.scale((-1) ** (n - 1)) == alexander_polynomial(n)

    def test_figure_eight_is_generated_by_e0(self):
        # at n = 2, p = 1, so Z[t]/p = 0 drops out and Z^2 is
        # Z[t]/(t^2 - 3t + 1) on e_0 alone
        assert blanchfield._alexander_module(2) == ((1, -3, 1), (1,))
        assert blanchfield._generates(blanchfield._checked_monodromy(2),
                                      (0,))

    @pytest.mark.parametrize("j", [1, 4, 5])
    def test_column_change_breaks_generation(self, j, monkeypatch):
        # doubling column j of h, past the check A h = A^T, makes det h
        # even, so nothing generates Z^N over Z[h, h^-1]; p_n still
        # kills e_0 and e_1, since that check applies h through
        # `apply_monodromy`
        h = blanchfield._checked_monodromy(5)

        def doubled(n):
            return [[2 * x for x in col] if c == j else col
                    for c, col in enumerate(h)]

        monkeypatch.setattr(blanchfield, "_checked_monodromy", doubled)
        monkeypatch.setattr(blanchfield, "smith_normal_form", no_smith)
        with pytest.raises(ArithmeticError, match="generate"):
            cover_homology_snf(5, 3)

    @pytest.mark.parametrize("n, j", [(2, 0), (4, 1), (4, 3), (8, 7)])
    def test_column_change_breaks_generation_at_even_n(self, n, j,
                                                       monkeypatch):
        # the same at even n, where f_0(h) kills e_0 and p(h) kills
        # e_0 + e_1 on the true h, and at n = 2 from e_0 alone
        h = blanchfield._checked_monodromy(n)
        monkeypatch.setattr(blanchfield, "_checked_monodromy", lambda n: [
            [2 * x for x in col] if c == j else col
            for c, col in enumerate(h)])
        monkeypatch.setattr(blanchfield, "smith_normal_form", no_smith)
        with pytest.raises(ArithmeticError, match="generate"):
            cover_homology_snf(n, 3)

    # the twins of test_wrong_p_n_is_caught, of
    # test_column_change_breaks_generation, of
    # TestCoverHomology.test_far_entry_is_caught and of
    # test_wrong_middle_factor_is_caught, which run with the scale
    # checks, as -O cannot change what the package does
    @pytest.mark.scale
    @pytest.mark.parametrize("patch, message", [
        ("blanchfield.paired_product = "
         "lambda n: paired_product(n) + LaurentPolynomial({2: 2})",
         "f_0\\(h\\) does not kill"),
        ("h = blanchfield._checked_monodromy(5)\n"
         "blanchfield._checked_monodromy = lambda n: "
         "[[2 * x for x in col] if c == 1 else col "
         "for c, col in enumerate(h)]",
         "not found to generate"),
        ("apply = blanchfield.apply_monodromy\n"
         "def far(n, x):\n"
         "    out = apply(n, x)\n"
         "    out[-1] += x == [1] + [0] * (len(x) - 1)\n"
         "    return out\n"
         "blanchfield.apply_monodromy = far",
         "is not A\\^T"),
        ("n = 8\n"
         "blanchfield._MIDDLE_FACTOR = (1, -1, 1)",
         "f_0\\(h\\) does not kill")])
    def test_certificate_survives_optimize(self, patch, message):
        code = ("from sliceobs import blanchfield\n"
                "from sliceobs.laurent import LaurentPolynomial\n"
                "from sliceobs.seifert import paired_product\n"
                "def no_smith(rows):\n"
                "    raise RuntimeError('reached the Smith form')\n"
                "blanchfield.smith_normal_form = no_smith\n"
                "n = 5\n"
                f"{patch}\n"
                "blanchfield.cover_homology_snf(n, 3)\n")
        proc = run_python(["-O", "-c", code], 60)
        assert proc.returncode == 1
        assert re.search(f"ArithmeticError: .*{message}", proc.stderr)

    def test_certificate_is_taken_once_per_n(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return paired_product(n)

        monkeypatch.setattr(blanchfield, "paired_product", counted)
        for q in (1, 2, 3, 5):
            cover_homology_snf(7, q)
        cover_homology_snf(11, 2)
        for q in (1, 2, 3, 5):
            cover_homology_snf(8, q)
        assert calls == [7, 11, 8]

    def test_odd_n_take_a_smith_form_of_side_min_n_q_minus_1(
            self, monkeypatch):
        # after the certificate's 2N steps of h (one from each unit
        # vector, deg f_0 of Horner's rule on e_0 and deg p on e_0 + e_1),
        # a cover of any q takes no step of h, no Alexander polynomial,
        # and for odd n one Smith form, of side min(n - 1, q - 1); for
        # even n two, of sides min(n, q - 1) and min(n - 2, q - 1)
        steps, sides = [], []

        def counted(n, x):
            steps.append(n)
            return apply_monodromy(n, x)

        def recorded(rows):
            sides.append((len(rows), len(rows[0])))
            return smith_normal_form(rows)

        monkeypatch.setattr(blanchfield, "apply_monodromy", counted)
        monkeypatch.setattr(blanchfield, "smith_normal_form", recorded)
        assert not hasattr(blanchfield, "alexander_polynomial")
        cover_homology_snf(7, 2)
        assert len(steps) == 24
        for q in (5, 7, 40):
            assert cover_homology_snf(7, q).order > 1
        assert len(steps) == 24
        assert sides == [(1, 1), (4, 4), (6, 6), (6, 6)]
        del sides[:]
        cover_homology_snf(8, 2)
        assert len(steps) == 24 + 28
        for q in (5, 7, 8, 40):
            assert cover_homology_snf(8, q).order > 1
        assert len(steps) == 24 + 28
        assert [side for side, _ in sides] == [1, 1, 4, 4, 6, 6, 7, 6, 8, 6]

    @pytest.mark.parametrize("n", [2, 4, 8, 10, 14, 16])
    def test_even_n_have_no_such_module(self, n):
        # the vectors h^i e_0, i < n, are independent, so no polynomial
        # of degree n - 1 kills e_0: for even n, Z^N is no (Z[t]/f)^2
        # with f of degree n - 1, but Z[t]/f_0 on e_0, deg f_0 = n, plus
        # Z[t]/p on e_0 + e_1 (`_alexander_module`)
        x = [int(i == 0) for i in range(2 * (n - 1))]
        krylov = []
        for _ in range(n):
            krylov.append(x)
            x = apply_monodromy(n, x)
        assert all(smith_normal_form(krylov))

    @pytest.mark.parametrize("n", [5, 7, 11, 13])
    def test_one_vector_is_not_found_to_generate(self, n):
        # for odd n, Z^N is (Z[t]/p_n)^2, which no single vector
        # generates; the propagation finds e_0 and e_1 together, and
        # neither alone
        h = blanchfield._checked_monodromy(n)
        assert blanchfield._generates(h, (0, 1))
        assert not blanchfield._generates(h, (0,))
        assert not blanchfield._generates(h, (1,))


def chain_by_primes(entries):
    """Oracle for `blanchfield._divisor_chain`: the invariant factors of
    the sum of the Z/d, from the exponents of each prime taken apart,
    the largest exponents going to the last factors; 0 stands for Z and
    comes last, and ones are left out."""
    zeros = [d for d in entries if d == 0]
    powers = {}
    for d in entries:
        prime = 2
        while d > 1:
            k = 0
            while d % prime == 0:
                d //= prime
                k += 1
            if k:
                powers.setdefault(prime, []).append(k)
            prime += 1
    length = max(map(len, powers.values()), default=0)
    chain = [1] * length
    for prime, exps in powers.items():
        for i, k in enumerate(sorted(exps), start=length - len(exps)):
            chain[i] *= prime ** k
    return chain + zeros


class TestDivisorChain:
    def test_coprime_pair(self):
        assert blanchfield._divisor_chain([2, 3]) == [1, 6]

    def test_ones_are_left_out(self):
        assert blanchfield._divisor_chain([1, 4, 1, 6, 1]) == [2, 12]

    @given(st.lists(st.integers(0, 500), max_size=8))
    def test_matches_the_primes_apart(self, entries):
        got = blanchfield._divisor_chain(entries)
        assert all(b % a == 0 for a, b in zip(got, got[1:]) if a)
        assert [d for d in got if d != 1] == chain_by_primes(entries)

    @given(st.lists(st.integers(1, 60), max_size=6))
    def test_two_equal_chains_give_each_entry_twice(self, entries):
        chain = chain_by_primes(entries)
        assert blanchfield._divisor_chain(chain + chain) == \
            sorted(2 * chain)


@pytest.mark.scale
class TestCoverHomologyAtScale:
    @pytest.mark.parametrize("n", [43, 47, 49, 53])
    def test_matches_dense_inverse(self, n):
        for q, want in dense_monodromy_homology(n, range(1, 8)).items():
            assert cover_homology_snf(n, q) == want

    @pytest.mark.parametrize("ns, qs", [(range(2, 21), range(2, 200)),
                                        (range(21, 41), range(2, 61))],
                             ids=["n<=20-q<200", "n<=40-q<=60"])
    def test_cyclotomic_factors_up_to_200(self, ns, qs):
        # every q < 200 for n <= 20, about 40 s in one process; for
        # 20 < n <= 40 the Smith forms of side up to 40 take seconds
        # each at q near 200 (about 15 min for all of them on 2 cores),
        # so those n stop at q = 60
        assert refused_covers(ns, qs) == expected_refusals(ns, qs)

    @pytest.mark.parametrize("n", [40, 44, 46, 50, 52])
    def test_even_n_match_dense_inverse(self, n):
        for q, want in dense_monodromy_homology(n, range(1, 8)).items():
            if isinstance(want, str):
                with pytest.raises(ValueError) as got:
                    cover_homology_snf(n, q)
                assert str(got.value) == want
            else:
                assert cover_homology_snf(n, q) == want

    @pytest.mark.parametrize("n, q", [(101, 30), (11, 1000)])
    def test_matches_dense_inverse_at_large_side(self, n, q):
        assert cover_homology_snf(n, q) == \
            dense_monodromy_homology(n, [q])[q]

    def test_101_99_completes(self):
        # the 2(n-1)-square h^99 - I ran past 25 minutes; the orders of
        # the covers for q = 3, 11 and 33, which 99 is a multiple of,
        # divide its order, and its invariants come in pairs
        inv = cover_homology_snf(101, 99).invariants
        assert len(inv) == 200 * 99
        assert all(b % a == 0 for a, b in zip(inv, inv[1:]))
        assert inv[::2] == inv[1::2]
        order = prod(inv)
        for q in (3, 11, 33):
            assert order % cover_homology_snf(101, q).order == 0


# det_band replaced by `patched`, in the source text that a fresh
# `python -O` runs too, and the refusal of linking_form(5) that follows:
# det M = 1 + t + t^2 vanishes at w, so D = 0; one bordered minor moved
# by 1 breaks the hermitian symmetry of the pairing entries
LINKING_REFUSALS = [
    ("real = blanchfield.det_band\n"
     "def patched(a, at, modulus):\n"
     "    return [1, 1, 1], real(a, at, modulus)[1]",
     (ValueError, "3-fold branched cover has infinite homology")),
    ("real = blanchfield.det_band\n"
     "def patched(a, at, modulus):\n"
     "    det, ((b00, b01), low) = real(a, at, modulus)\n"
     "    return det, ((b00, [b01[0] + 1, *b01[1:]]), low)",
     (ArithmeticError, "pairing entries are not hermitian")),
]


class TestLinkingForm:
    @pytest.mark.parametrize("n", [5, 7, 11])
    def test_matches_template_up_to_sign(self, n):
        form = linking_form(n)
        assert form.template_sign in (1, -1)
        plus = linking_template(n)
        if form.template_sign == 1:
            assert form.scaled == plus
        else:
            assert form.scaled == tuple(
                tuple(-x % n for x in row) for row in plus)

    def test_template_closed_form(self):
        n, k = 11, 5
        tpl = linking_template(n)
        base = ((-1, -k, -k, k),
                (-k, -1, 0, -k),
                (-k, 0, 1, k),
                (k, -k, k, 1))
        for i in range(4):
            for j in range(4):
                assert tpl[i][j] == base[i][j] % n

    def test_self_linking_of_second_generator(self):
        for n in (5, 7, 11):
            form = linking_form(n)
            b = (0, 0, 1, 0)
            assert form.value(b, b) in (Fraction(1, n), Fraction(n - 1, n))

    def test_values_have_denominator_dividing_n(self):
        form = linking_form(7)
        for row in form.matrix:
            for x in row:
                assert 7 % x.denominator == 0

    @pytest.mark.parametrize("n", [5, 7, 11])
    def test_scaled_is_n_times_the_matrix(self, n):
        form = linking_form(n)
        assert form.scaled == tuple(
            tuple(int(x * n) for x in row) for row in form.matrix)

    @given(st.lists(st.integers(min_value=-40, max_value=40),
                    min_size=4, max_size=4).map(tuple),
           st.lists(st.integers(min_value=-40, max_value=40),
                    min_size=4, max_size=4).map(tuple))
    @settings(max_examples=40, deadline=None)
    def test_value_matches_fraction_sum(self, u, v):
        assert _FORM7.value(u, v) == fraction_value(_FORM7, u, v)

    @pytest.mark.parametrize("entry", [Fraction(1, 3), 5, -1, 2.0, True],
                             ids=["fraction", "n", "negative", "float",
                                  "bool"])
    def test_rejects_an_entry_that_is_no_residue_mod_n(self, entry):
        mat = [[0] * 4 for _ in range(4)]
        mat[2][2] = entry
        with pytest.raises(ValueError, match="4 x 4 of ints in"):
            LinkingForm(5, tuple(map(tuple, mat)))

    @pytest.mark.parametrize("rows", [((0,) * 4,) * 3, ((0,) * 3,) * 4],
                             ids=["three rows", "three columns"])
    def test_rejects_a_matrix_that_is_not_four_by_four(self, rows):
        with pytest.raises(ValueError, match="4 x 4 of ints in"):
            LinkingForm(5, rows)

    @pytest.mark.parametrize("n", [5, 11, 17])
    def test_template_sign_is_read_off_scaled(self, n):
        # the sign has no field of its own, so it cannot disagree with
        # the form: it flips for the negated form, is 0 off the template,
        # and a copy with a new matrix gets the new matrix's sign
        plus = linking_template(n)
        minus = tuple(tuple(-x % n for x in row) for row in plus)
        assert LinkingForm(n, plus).template_sign == 1
        assert LinkingForm(n, minus).template_sign == -1
        off = (((plus[0][0] + 1) % n, *plus[0][1:]), *plus[1:])
        assert LinkingForm(n, off).template_sign == 0
        form = linking_form(n)
        flipped = dataclasses.replace(
            form, scaled=minus if form.scaled == plus else plus)
        assert flipped.template_sign == -form.template_sign
        with pytest.raises(TypeError):
            LinkingForm(n, plus, -1)

    def test_list_rows_are_kept_as_tuple_rows(self):
        plus = linking_template(11)
        form = LinkingForm(11, [list(row) for row in plus])
        assert form.scaled == plus
        assert form == LinkingForm(11, plus)
        assert form.template_sign == 1

    def test_value_is_symmetric_and_bilinear(self):
        form = linking_form(5)
        u, v, w = (1, 2, 0, 3), (0, 1, 4, 1), (2, 0, 1, 0)
        assert form.value(u, v) == form.value(v, u)
        uw = tuple(a + b for a, b in zip(u, w))
        assert form.value(uw, v) == (form.value(u, v) + form.value(w, v)) % 1

    @given(st.lists(st.integers(min_value=-6, max_value=6),
                    min_size=4, max_size=4).map(tuple),
           st.lists(st.integers(min_value=-6, max_value=6),
                    min_size=4, max_size=4).map(tuple))
    @settings(max_examples=30, deadline=None)
    def test_scaling_by_n_kills_every_value(self, u, v):
        form = _FORM7
        nu = tuple(7 * x for x in u)
        assert form.value(nu, v) == 0

    def test_basis_has_four_elements(self):
        assert len(BASIS) == 4
        assert BASIS[0] == (0, 0)

    @pytest.mark.parametrize("n", [5, 7, 11])
    def test_annihilator_inverts_delta(self, n):
        delta = blanchfield_entries(n).denominator
        for q in (2, 3, 4, 5):
            r, c = _annihilator_pair(delta, q)
            assert c > 0
            assert _cyclic_mul(_cyclic(delta, q), r, q) == [c] + [0] * (q - 1)

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_cover_with_infinite_homology_is_refused(self, n):
        # closures with n divisible by 3 are 3-component links, refused
        # as such before any determinant is taken
        with pytest.raises(ValueError,
                           match=f"^the closure for n={n} is a "
                                 f"3-component link, not a knot$"):
            linking_form(n)

    @pytest.mark.parametrize("patch, error", LINKING_REFUSALS,
                             ids=["D = 0", "not hermitian"])
    def test_refusal_of_what_the_band_pass_gives(self, patch, error,
                                                 monkeypatch):
        namespace = {"blanchfield": blanchfield}
        exec(patch, namespace)
        monkeypatch.setattr(blanchfield, "det_band", namespace["patched"])
        with pytest.raises(error[0], match=error[1]):
            linking_form(5)

    # the twin of test_refusal_of_what_the_band_pass_gives, which runs
    # with the scale checks, as -O cannot change what the package does
    @pytest.mark.scale
    @pytest.mark.parametrize("patch, error", LINKING_REFUSALS,
                             ids=["D = 0", "not hermitian"])
    def test_refusal_survives_optimize(self, patch, error):
        code = ("from sliceobs import blanchfield\n"
                f"{patch}\n"
                "blanchfield.det_band = patched\n"
                "blanchfield.linking_form(5)\n")
        proc = run_python(["-O", "-c", code], 60)
        assert proc.returncode == 1
        assert re.search(f"{error[0].__name__}: .*{error[1]}", proc.stderr)

    @pytest.mark.parametrize("n", [4, 5, 11, 101])
    def test_one_band_pass_modulo_t3_minus_1(self, n, monkeypatch):
        # the even n = 4 is refused after the pass, by its denominator
        moduli = []
        real = blanchfield.det_band

        def counted(a, at, modulus):
            moduli.append(modulus)
            return real(a, at, modulus)

        monkeypatch.setattr(blanchfield, "det_band", counted)
        try:
            linking_form(n)
        except ValueError as exc:
            assert n % 2 == 0 and "denominator not dividing" in str(exc)
        assert moduli == [T3_MINUS_1]

    @pytest.mark.parametrize("n", range(2, 24))
    def test_matches_laurent_route(self, n):
        try:
            want = laurent_linking_form(n)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                linking_form(n)
            return
        assert linking_form(n) == want


triples = st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 3)


class TestCirculantAdjugate:
    @given(triples)
    def test_product_with_the_adjugate_is_a_constant(self, x):
        # linking_form divides by det M = x through
        # co = (c0^2 - c1 c2, c2^2 - c0 c1, c1^2 - c0 c2) and never checks
        # that x co is the integer D = c0^3 + c1^3 + c2^3 - 3 c0 c1 c2
        c0, c1, c2 = x
        co = (c0 * c0 - c1 * c2, c2 * c2 - c0 * c1, c1 * c1 - c0 * c2)
        d = c0 ** 3 + c1 ** 3 + c2 ** 3 - 3 * c0 * c1 * c2
        assert _cyclic_mul(x, co, 3) == [d, 0, 0]
        assert _cyclic_product(x, co) == (d, 0, 0)

    @given(triples, triples)
    def test_triple_product_is_the_cyclic_product(self, x, y):
        assert list(_cyclic_product(x, y)) == _cyclic_mul(x, y, 3)


# one shared instance for the property tests
_FORM7 = linking_form(7)


class TestSymmetryAction:
    def test_deck_transformation_has_order_three(self):
        t = t_matrix()
        assert t * t * t == Matrix.identity(4)
        assert t != Matrix.identity(4)

    def test_deck_satisfies_cyclotomic_relation(self):
        # t^2 + t + 1 = 0 on the cover homology
        t = t_matrix()
        assert t * t == t.map(lambda x: -x) - Matrix.identity(4)

    def test_symmetry_commutes_with_deck(self):
        assert t_matrix() * r_matrix() == r_matrix() * t_matrix()

    @pytest.mark.parametrize("n", [5, 7, 11])
    def test_symmetry_has_order_n(self, n):
        r = r_matrix()
        power = Matrix.identity(4)
        seen_identity_early = False
        for k in range(1, n + 1):
            power = power * r
            if k < n and power.map(lambda x: x % n) == \
                    Matrix.identity(4).map(lambda x: x % n):
                seen_identity_early = True
        assert power.map(lambda x: x % n) == \
            Matrix.identity(4).map(lambda x: x % n)
        assert not seen_identity_early

    @pytest.mark.parametrize("n", [5, 7, 11])
    def test_symmetry_preserves_linking_form(self, n):
        form = linking_form(n)
        act = symmetry_action(n, form)
        r = act.r
        cols = [[r[i][j] for i in range(4)] for j in range(4)]
        for i in range(4):
            for j in range(4):
                assert form.value(cols[i], cols[j]) == form.matrix[i][j]

    def test_deck_preserves_linking_form(self):
        form = _FORM7
        t = t_matrix()
        cols = [[t[i][j] for i in range(4)] for j in range(4)]
        for i in range(4):
            for j in range(4):
                assert form.value(cols[i], cols[j]) == form.matrix[i][j]

    @pytest.mark.parametrize("n", [0, -3])
    def test_refuses_n_below_two(self, n):
        # n = 0 ended in a ZeroDivisionError, n = -3 gave an action
        with pytest.raises(ValueError, match="need an integer n >= 2"):
            symmetry_action(n)

    def test_refuses_a_form_of_another_n(self):
        # an "n = 5" action used to be checked against the n = 11 form
        with pytest.raises(ValueError, match="n=11, not for n=5"):
            symmetry_action(5, linking_form(11))

    def test_action_bundles_the_pair(self):
        act = symmetry_action(5)
        assert act.n == 5
        assert act.t == t_matrix()
        assert act.r == r_matrix()
