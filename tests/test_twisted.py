"""Fox calculus, the metabelian representation, and twisted polynomials."""

import pytest
from hypothesis import given, settings, strategies as st

from sliceobs.blanchfield import t_matrix
from sliceobs.braids import family_braid, wirtinger_of_closure
from sliceobs.metabolizers import Character, base_characters
from sliceobs.twisted import (
    TwistedRep,
    fox_block,
    fox_matrix,
    period_shift,
    propagate,
    seed_tuples,
    twisted_polynomial,
)


def family_presentation(n):
    return wirtinger_of_closure(family_braid(n))


PRES5 = family_presentation(5)
PLUS5, MINUS5 = base_characters(5)


class TestSeedsAndPropagation:
    def test_seed_slots(self):
        chi = Character(5, (2, 3, 1, 4), "+")
        seeds = seed_tuples(chi)
        assert seeds[1] == (0, 0, 0)
        assert seeds[4] == ((-2 - 3) % 5, 2, 3)
        assert seeds[3] == (4, (-1 - 4) % 5, 1)

    def test_seed_triples_sum_to_zero(self):
        chi = Character(7, (3, 6, 2, 5), "-")
        for e in seed_tuples(chi).values():
            assert sum(e) % 7 == 0

    def test_propagate_covers_every_generator(self):
        e = propagate(PRES5, seed_tuples(PLUS5), 5)
        assert set(e) == set(range(1, PRES5.num_generators + 1))

    def test_relator_identity_on_all_relators(self):
        # e_c = e_b + shift(e_a) - shift(e_b) at every crossing
        def shift(v):
            return (v[1], v[2], v[0])

        e = propagate(PRES5, seed_tuples(MINUS5), 5)
        for a, b, c in PRES5.relators:
            sa, sb = shift(e[a]), shift(e[b])
            want = tuple((e[b][i] + sa[i] - sb[i]) % 5 for i in range(3))
            assert e[c] == want

    def test_underdetermined_seeds_rejected(self):
        with pytest.raises(ValueError):
            propagate(PRES5, {1: (0, 0, 0)}, 5)

    @given(st.tuples(*[st.integers(min_value=0, max_value=10)] * 4))
    @settings(max_examples=25, deadline=None)
    def test_every_character_propagates(self, row):
        pres = family_presentation(11)
        e = propagate(pres, seed_tuples(Character(11, row, "+")), 11)
        assert all(sum(v) % 11 == 0 for v in e.values())


class TestRepresentation:
    def test_build_realizes_root_of_unity(self):
        rep = TwistedRep.build(PRES5, PLUS5, 11, 4)
        assert rep.s == 11 and pow(rep.theta, 5, 11) == 1
        assert rep.d(1) == (1, 1, 1)
        for g in range(1, PRES5.num_generators + 1):
            assert all(pow(x, 5, 11) == 1 for x in rep.d(g))

    def test_build_rejects_a_bad_witness(self):
        with pytest.raises(ValueError):
            TwistedRep.build(PRES5, PLUS5, 21, 4)
        with pytest.raises(ValueError):
            TwistedRep.build(PRES5, PLUS5, 11, 2)

    def test_fox_block_outside_relator_is_zero(self):
        rep = TwistedRep.build(PRES5, PLUS5, 11, 4)
        rel = PRES5.relators[0]
        g = next(x for x in range(1, PRES5.num_generators + 1)
                 if x not in rel)
        konst, tmat = fox_block(rel, g, rep)
        assert all(x == 0 for row in konst for x in row)
        assert all(x == 0 for row in tmat for x in row)

    def test_fox_matrix_shape_and_sparsity(self):
        rep = TwistedRep.build(PRES5, PLUS5, 11, 4)
        fbm = fox_matrix(PRES5, rep)
        m = PRES5.num_generators - 1
        assert fbm.size == 3 * m
        # t appears only in the top-right slot of each block
        for r, c, _ in fbm.t_positions:
            assert r % 3 == 0 and c % 3 == 2

    def test_determinant_vanishes_at_one(self):
        # (t-1)^2 divides the twisted determinant
        rep = TwistedRep.build(PRES5, MINUS5, 11, 4)
        fbm = fox_matrix(PRES5, rep)
        assert fbm.det_at(1) == 0

    def test_bareiss_route_matches_interpolation(self):
        import sliceobs.ffpoly as ffpoly

        rep = TwistedRep.build(PRES5, PLUS5, 11, 4)
        fbm = fox_matrix(PRES5, rep)
        raw = fbm.raw_det_bareiss()
        xs = list(range(PRES5.num_generators))
        ys = [fbm.det_at(x) for x in xs]
        assert ffpoly.interpolate(xs, ys, 11) == raw


class TestTwistedPolynomial:
    @pytest.mark.parametrize("n,s,theta", [(5, 11, 4), (7, 29, 16)])
    def test_degree_hits_target(self, n, s, theta):
        pres = family_presentation(n)
        for chi in base_characters(n):
            tp = twisted_polynomial(pres, chi, s, theta)
            assert tp.degree == 2 * (n - 2)

    def test_normalization_is_monic_with_unit_tail(self):
        tp = twisted_polynomial(PRES5, PLUS5, 11, 4)
        assert tp.coeffs[-1] == 1
        assert tp.coeffs[0] != 0

    def test_deletion_independence(self):
        base = twisted_polynomial(PRES5, PLUS5, 11, 4)
        for dr, dg in ((3, 4), (7, 2), (10, 9)):
            other = twisted_polynomial(PRES5, PLUS5, 11, 4,
                                       drop_relator=dr, drop_generator=dg)
            assert other.coeffs == base.coeffs

    def test_deck_rotation_invariance(self):
        t = t_matrix()
        row = tuple(sum(PLUS5.row[i] * t[i][k] for i in range(4)) % 5
                    for k in range(4))
        rotated = Character(5, row, "+")
        a = twisted_polynomial(PRES5, PLUS5, 11, 4)
        b = twisted_polynomial(PRES5, rotated, 11, 4)
        assert a.coeffs == b.coeffs

    def test_raw_degree_bound(self):
        tp = twisted_polynomial(PRES5, MINUS5, 11, 4)
        assert tp.raw_degree <= 2 * 5
        assert tp.degree <= tp.raw_degree - 2


class TestPeriodShift:
    def test_full_turn_is_identity(self):
        chi = PLUS5
        rows = {chi.row}
        for _ in range(5):
            chi = period_shift(PRES5, chi)
            rows.add(chi.row)
        assert chi.row == PLUS5.row
        assert len(rows) == 5

    def test_sign_tag_rides_along(self):
        assert period_shift(PRES5, MINUS5).sign == "-"
        assert period_shift(PRES5, PLUS5).sign == "+"

    def test_orbit_characters_share_polynomial(self):
        chi = MINUS5
        base = twisted_polynomial(PRES5, chi, 11, 4)
        for _ in range(5):
            chi = period_shift(PRES5, chi)
            tp = twisted_polynomial(PRES5, chi, 11, 4)
            assert tp.coeffs == base.coeffs

    def test_shift_moves_base_characters(self):
        assert period_shift(PRES5, PLUS5).row != PLUS5.row
        assert period_shift(PRES5, MINUS5).row != MINUS5.row
