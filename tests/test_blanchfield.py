"""Blanchfield pairing, branched cover homology, and the linking form.

The Blanchfield polynomials live in `tests/blanchfield_oracle.py`; they
are checked here against five Laurent determinants and in turn check the
program's linking form, and their cofactors, taken at w, its one pass
over Z[w] (`_pairing_at_omega`).  The block-circulant cover presentation
there, and the monodromy from the dense A^-1 there, check the program's
cover homology."""

import tracemalloc
from fractions import Fraction

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
from metabolizer_oracle import fraction_value
from sliceobs import blanchfield
from sliceobs.blanchfield import (
    BASIS,
    LinkingForm,
    MAX_COVER_SIDE,
    MAX_Q,
    _Eisenstein,
    _pairing_at_omega,
    cover_homology_snf,
    linking_form,
    linking_template,
    r_matrix,
    symmetry_action,
    t_matrix,
)
from sliceobs.laurent import LaurentPolynomial
from sliceobs.linalg import Matrix
from sliceobs.seifert import (alexander_polynomial, apply_monodromy,
                              band_order, band_pencil, seifert_matrix)


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


# A - t A^T is a band, and its leading 2-block singular at t = w
SINGULAR_AT_OMEGA = [[-1, -2, 1, 0],
                     [1, -1, 0, 1],
                     [1, 2, -1, 1],
                     [0, 1, -2, 2]]


def at_omega(x):
    """The coordinates (a, b) of an Eisenstein integer a + b w."""
    return x.a, x.b


def eisenstein_at(poly):
    """(a, b) with poly(w) = a + b w, for w^2 = -1 - w."""
    a = b = 0
    for e, c in poly.items():
        a, b = (a + c, b) if e % 3 == 0 else \
            (a, b + c) if e % 3 == 1 else (a - c, b - c)
    return a, b


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
        # the program's one pass over Z[w] against the Blanchfield
        # cofactors of the oracle, interpolated over Z[t], taken at w
        det, adj = _pairing_at_omega(*band_pencil(n))
        want_det, want_adj = _pairing_cofactors(seifert_matrix(n),
                                                (n - 2, 2 * n - 3))
        assert at_omega(det) == eisenstein_at(want_det)
        assert [[at_omega(x) for x in row] for row in adj] \
            == [[eisenstein_at(x) for x in row] for row in want_adj]

    def test_singular_leading_block_at_omega(self):
        # the leading 2-block [[-1, -2], [1, -1]] of A - t A^T has
        # determinant 3 (1 + t + t^2), singular at w and nowhere else;
        # the pass has no pivot to lose there
        a = Matrix(SINGULAR_AT_OMEGA)
        assert [det_bareiss([[a[i][j] - x * a[j][i] for j in (0, 1)]
                             for i in (0, 1)])
                for x in (0, 1, 2)] == [3, 9, 21]
        det, adj = _pairing_at_omega(band_rows(a.rows),
                                     band_rows(a.transpose().rows))
        want_det, want_adj = _pairing_cofactors(a, (2, 3))
        assert at_omega(det) == eisenstein_at(want_det) == (-15, -15)
        assert [[at_omega(x) for x in row] for row in adj] \
            == [[eisenstein_at(x) for x in row] for row in want_adj]

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

    @pytest.mark.parametrize("q", [0, -2])
    def test_cover_degree_must_be_positive(self, q):
        with pytest.raises(ValueError, match="at least 1"):
            cover_homology_snf(11, q)

    @pytest.mark.parametrize("q", [MAX_Q + 1, 10 ** 9])
    def test_cover_degree_ceiling(self, q):
        # refused before anything is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"q <= {MAX_Q}"):
                cover_homology_snf(11, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_cover_degree_at_the_ceiling(self):
        assert cover_homology_snf(2, MAX_Q).order > 1

    @pytest.mark.parametrize("n, q", [(497, 1000), (497, 21), (101, 101),
                                      (53, 193), (12, MAX_Q)])
    def test_cover_side_ceiling(self, n, q):
        # each bound alone passes these, and (497, 1000) would run for
        # hours; the side N q of the cover is refused before allocation,
        # while (11, MAX_Q) and every n <= 41 with q <= 7 stay inside
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"N q <= {MAX_COVER_SIDE}"):
                cover_homology_snf(n, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    @pytest.mark.parametrize("n", range(2, 12))
    def test_closed_form_inverse(self, n):
        # the closed form of h = A^-1 A^T, applied to I, is the oracle's
        # dense h, and each of its rows has at most 5 nonzeros, each at
        # most 2 in absolute value
        a = seifert_matrix(n)
        assert a * seifert_inverse(n) == Matrix.identity(a.nrows)
        h = apply_monodromy(n, [list(r) for r in Matrix.identity(a.nrows)])
        assert Matrix(h) == seifert_inverse(n) * a.transpose()
        for row in h:
            nonzeros = [x for x in row if x]
            assert len(nonzeros) <= 5
            assert max(map(abs, nonzeros)) <= 2

    def test_wrong_closed_form_is_caught(self, monkeypatch):
        # a monodromy off in one entry fails the check A h = A^T before
        # any Smith step
        def perturbed(n, x):
            out = apply_monodromy(n, x)
            out[0][0] += 1
            return out

        def no_smith(rows):
            raise AssertionError("reached the Smith form")

        monkeypatch.setattr(blanchfield, "apply_monodromy", perturbed)
        monkeypatch.setattr(blanchfield, "smith_normal_form", no_smith)
        with pytest.raises(ArithmeticError, match="is not A\\^T"):
            cover_homology_snf(5, 3)

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


class TestLinkingForm:
    @pytest.mark.parametrize("n", [5, 7, 11])
    def test_matches_template_up_to_sign(self, n):
        form = linking_form(n)
        assert form.template_sign in (1, -1)
        plus = linking_template(n)
        if form.template_sign == 1:
            assert form.matrix == plus
        else:
            assert form.matrix == tuple(
                tuple((-x) % 1 for x in row) for row in plus)

    def test_template_closed_form(self):
        n, k = 11, 5
        tpl = linking_template(n)
        base = ((-1, -k, -k, k),
                (-k, -1, 0, -k),
                (-k, 0, 1, k),
                (k, -k, k, 1))
        for i in range(4):
            for j in range(4):
                assert tpl[i][j] == Fraction(base[i][j], n) % 1

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

    def test_rejects_value_outside_one_over_n(self):
        mat = [[Fraction(0)] * 4 for _ in range(4)]
        mat[2][2] = Fraction(1, 3)
        with pytest.raises(ValueError, match="not dividing n=5"):
            LinkingForm(5, tuple(map(tuple, mat)), 0)

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

    @pytest.mark.parametrize("n", range(2, 24))
    def test_matches_laurent_route(self, n):
        try:
            want = laurent_linking_form(n)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                linking_form(n)
            return
        got = linking_form(n)
        assert (got.matrix, got.template_sign) == \
            (want.matrix, want.template_sign)


eisenstein = st.builds(_Eisenstein, st.integers(-10 ** 6, 10 ** 6),
                       st.integers(-10 ** 6, 10 ** 6))


class TestEisenstein:
    @given(eisenstein, eisenstein)
    def test_product_is_companion_action(self, x, y):
        # multiplication by c + d w on the coordinates (a, b) is
        # c I + d W, W = [[0, -1], [1, -1]] the companion matrix of
        # t^2 + t + 1
        c, d = y.a, y.b
        p = x * y
        assert (p.a, p.b) == (c * x.a - d * x.b, d * x.a + c * x.b - d * x.b)


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
        z = t * t + t + Matrix.identity(4)
        assert z == Matrix.identity(4).map(lambda x: 0)

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

    def test_action_bundles_the_pair(self):
        act = symmetry_action(5)
        assert act.n == 5
        assert act.t == t_matrix()
        assert act.r == r_matrix()
