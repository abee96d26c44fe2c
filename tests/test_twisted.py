"""Fox calculus, the metabelian representation, and twisted polynomials."""

import re

import pytest
from hypothesis import given, settings, strategies as st

import period_oracle
from fox_oracle import (diagonal, fox_block, fox_matrix, interpolate,
                        poly_matrix_det)
from fresh_python import run_python
from sliceobs import ffpoly, twisted
from sliceobs.blanchfield import period_matrix, t_matrix
from sliceobs.braids import (BraidWord, WirtingerPresentation, family_braid,
                             wirtinger_of_closure)
from sliceobs.metabolizers import Character, base_characters
from sliceobs.report import DEFAULT_WITNESS
from sliceobs.twisted import (
    TwistedRep,
    _at_roots,
    _slot_reducer,
    period_shift,
    propagate,
    seed_tuples,
    twisted_determinant,
    twisted_polynomial,
)


def family_presentation(n):
    return wirtinger_of_closure(family_braid(n))


def all_characters(n):
    """The fixed character and the n characters of the period orbit."""
    plus, minus = base_characters(n)
    chars = [minus, plus]
    for _ in range(n - 1):
        chars.append(period_shift(chars[-1]))
    return chars


def oracle_raw(pres, rep, drop_relator=1, drop_generator=1):
    """The raw determinant by the dense Fox matrix and interpolation."""
    return fox_matrix(pres, rep, drop_relator,
                      drop_generator).raw_det_interpolated()


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

    def test_inconsistent_seeds_rejected(self):
        seeds = {g: (1, 4, 0) if g == 1 else (0, 0, 0)
                 for g in range(1, PRES5.num_generators + 1)}
        with pytest.raises(ArithmeticError):
            propagate(PRES5, seeds, 5)

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
        assert diagonal(rep, 1) == (1, 1, 1)
        for g in range(1, PRES5.num_generators + 1):
            assert all(pow(x, 5, 11) == 1 for x in diagonal(rep, g))

    def test_build_rejects_a_bad_witness(self):
        with pytest.raises(ValueError):
            TwistedRep.build(PRES5, PLUS5, 21, 4)
        with pytest.raises(ValueError):
            TwistedRep.build(PRES5, PLUS5, 11, 2)
        # 7 has order 3 mod 19, although 7^9 = 1
        with pytest.raises(ValueError):
            TwistedRep.build(PRES5, Character(9, (0, 0, 0, 0), "+"), 19, 7)

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
        raw = twisted_determinant(PRES5, rep)
        # the value and the derivative at t = 1 are coefficient sums
        assert sum(raw) % 11 == 0
        assert sum(i * c for i, c in enumerate(raw)) % 11 == 0

    def test_bareiss_route_matches_interpolation(self):
        rep = TwistedRep.build(PRES5, PLUS5, 11, 4)
        fbm = fox_matrix(PRES5, rep)
        raw = fbm.raw_det_bareiss()
        xs = list(range(PRES5.num_generators))
        ys = [fbm.det_at(x) for x in xs]
        assert interpolate(xs, ys, 11) == raw
        assert twisted_determinant(PRES5, rep) == raw


def test_poly_matrix_det_matches_expansion():
    s = 23
    m = [[[1, 1], [2]], [[0, 1], [1, 0, 1]]]
    # det = (t+1)(t^2+1) - 2t
    want = ffpoly.sub(ffpoly.mul([1, 1], [1, 0, 1], s),
                      ffpoly.mul([2], [0, 1], s), s)
    assert poly_matrix_det(m, s) == want
    assert poly_matrix_det([], s) == [1]
    assert poly_matrix_det([[[], []], [[], []]], s) == []


class TestBlockEliminationOracle:
    """The crossing-order elimination against the dense Fox matrix: the
    raw determinant must agree coefficient for coefficient, sign
    included."""

    # s = 2n + 1 is the tight case: the 2n nodes (-theta)^k are every
    # nonzero element of the field; s = 2^64 + 745 gives the widest
    # slots.  At (11, 2^31 - 1) the route is that of (11, 23) and the
    # slot width that of (5, 2147483171), so it runs with the scale
    # checks
    @pytest.mark.parametrize("n,s", [
        (5, 11), (5, 2147483171), (11, 23),
        pytest.param(11, 2147483647, marks=pytest.mark.scale),
        (5, 2 ** 64 + 745)])
    def test_every_character(self, n, s):
        pres = family_presentation(n)
        theta = ffpoly.primitive_root_of_unity(s, n)
        for chi in all_characters(n):
            rep = TwistedRep.build(pres, chi, s, theta)
            assert twisted_determinant(pres, rep) == oracle_raw(pres, rep)

    # n = 23 repeats the elimination of n = 17 on a longer presentation
    @pytest.mark.parametrize(
        "n", [17, pytest.param(23, marks=pytest.mark.scale)])
    def test_table_characters(self, n):
        pres = family_presentation(n)
        for chi in base_characters(n):
            s, theta = DEFAULT_WITNESS[(n, chi.sign)]
            rep = TwistedRep.build(pres, chi, s, theta)
            raw = twisted_determinant(pres, rep)
            assert raw == oracle_raw(pres, rep)
            assert twisted_polynomial(pres, chi, s, theta).raw_degree == (
                len(raw) - 1)

    @given(st.sampled_from([(5, 11, 4), (7, 29, 16)]),
           st.tuples(*[st.integers(min_value=0, max_value=6)] * 4))
    @settings(max_examples=30, deadline=None)
    def test_random_seed_rows(self, witness, row):
        n, s, theta = witness
        pres = family_presentation(n)
        rep = TwistedRep.build(pres, Character(n, row, "+"), s, theta)
        assert twisted_determinant(pres, rep) == oracle_raw(pres, rep)

    # the longest windows the oracle reaches in seconds, at the widest
    # slots of a 31-bit field; the dense oracle takes about 1.5 s a
    # character here, so it runs with the scale checks
    @pytest.mark.scale
    def test_long_windows_in_a_large_field(self):
        n, s = 29, 2147482481
        pres = family_presentation(n)
        theta = ffpoly.primitive_root_of_unity(s, n)
        # both base characters and three pullbacks
        for chi in all_characters(n)[:5]:
            rep = TwistedRep.build(pres, chi, s, theta)
            assert twisted_determinant(pres, rep) == oracle_raw(pres, rep)

    def test_other_braid_closures(self):
        # knots that are not in the family: a kink, four strands, and
        # diagonal data that need not come from a representation
        for braid in (BraidWord(2, (1, 1, 1)),
                      BraidWord(3, (1, 2, 1, 2, 1, -2, -2, 1)),
                      BraidWord(4, (1, 2, 3, -1, 2, -3, 2)),
                      BraidWord(4, (-1, -2, -2, -1, -1, 3, -2, 3, -3))):
            pres = wirtinger_of_closure(braid)
            m = pres.num_generators
            exps = tuple(((g, 2 * g, 3) if g % 2 else (0, 1, 4))
                         for g in range(1, m + 1))
            rep = TwistedRep(5, 31, 2, exps)
            for dr, dg in ((1, 1), (m, 2), (2, m)):
                assert (twisted_determinant(pres, rep, dr, dg)
                        == oracle_raw(pres, rep, dr, dg))


# (n, s, theta) with theta of order n mod s, so -theta has order 2n
TRANSFORM_WITNESSES = [(5, 11, 4), (11, 23, 2), (29, 59, 4),
                       (5, 2147483171,
                        ffpoly.primitive_root_of_unity(2147483171, 5))]


@given(st.sampled_from(TRANSFORM_WITNESSES), st.data())
@settings(max_examples=60, deadline=None)
def test_the_transform_read_backwards_inverts_itself(witness, data):
    # the coefficients come back from the values by the same sum: at
    # -e mod 2n it holds 2n times the coefficient of t^e, and nothing
    # else; powers of theta, of order n only, would fold e onto e + n
    n, s, theta = witness
    size = 2 * n
    table = [pow(-theta % s, k, s) for k in range(size)]
    seq = data.draw(st.lists(st.integers(0, s - 1), max_size=size))
    back = _at_roots(_at_roots(seq, table), table)
    padded = seq + [0] * (size - len(seq))
    for e in range(size):
        assert (back[-e % size] - size * padded[e]) % s == 0


@given(st.sampled_from([(5, 11), (11, 23), (17, 103), (17, 2147483249)]),
       st.data())
@settings(max_examples=60, deadline=None)
def test_the_halved_transform_is_the_direct_sum(witness, data):
    # only the first n nodes are summed: the value at k + n is A_k - B_k,
    # padded by 2 s^2 per odd e in every slot, and no slot of a packed
    # sequence borrows from the next, even with every slot at 2s - 1
    n, s = witness
    size = 2 * n
    omega = -ffpoly.primitive_root_of_unity(s, n) % s
    table = [pow(omega, k, s) for k in range(size)]
    slots, span = data.draw(st.integers(1, 6)), data.draw(st.integers(1, size))
    top = 2 * s - 1
    slot = (st.just(top) if data.draw(st.booleans())
            else st.one_of(st.sampled_from([0, 1, top]), st.integers(0, top)))
    coeffs = [data.draw(st.lists(slot, min_size=slots, max_size=slots))
              for _ in range(span)]
    w, _ = _slot_reducer(s, span * slots)
    ones = ((1 << slots * w) - 1) // ((1 << w) - 1)
    values = _at_roots([sum(c << j * w for j, c in enumerate(row))
                        for row in coeffs],
                       table, 2 * s * s * (span // 2) * ones)
    assert len(values) == size
    for k, value in enumerate(values):
        assert 0 <= value and value >> slots * w == 0
        for j in range(slots):
            got = value >> j * w & (1 << w) - 1
            direct = sum(row[j] * table[k * e % size]
                         for e, row in enumerate(coeffs))
            assert got < 2 * span * s * s and (got - direct) % s == 0


@given(st.sampled_from([3, 23, 2 ** 31 - 1, 10 ** 23 + 117]), st.data())
@settings(max_examples=80, deadline=None)
def test_slot_reduction_keeps_every_slot_apart(s, data):
    top = 8 * s ** 3 - 1
    count = data.draw(st.integers(1, 12))
    slot = st.one_of(st.sampled_from([0, s, 2 * s, top]),
                     st.integers(0, top))
    rows = [data.draw(st.lists(slot, min_size=count, max_size=count))
            for _ in range(3)]
    w, reduce = _slot_reducer(s, count)
    out = reduce(*(sum(v << j * w for j, v in enumerate(row))
                   for row in rows))
    for row, packed in zip(rows, out):
        assert packed >> count * w == 0
        for j, v in enumerate(row):
            r = packed >> j * w & (1 << w) - 1
            assert 0 <= r < 2 * s and (v - r) % s == 0


@pytest.mark.parametrize("n,s", [(5, 11), (11, 23), (17, 103)])
def test_one_reduction_per_kept_relator(monkeypatch, n, s):
    # the elimination runs once, on the coefficients: each kept relator
    # is one slotwise reduction of its three rows, whatever the number
    # of points (2n here, one more than the kept relators)
    calls = []
    slot_reducer = twisted._slot_reducer

    def counting(s, slots):
        w, reduce = slot_reducer(s, slots)

        def counted(*rows):
            calls.append(len(rows))
            return reduce(*rows)

        return w, counted

    monkeypatch.setattr(twisted, "_slot_reducer", counting)
    pres = family_presentation(n)
    kept = len(pres.relators) - 1
    theta = ffpoly.primitive_root_of_unity(s, n)
    for chi in base_characters(n):
        calls.clear()
        twisted_determinant(pres, TwistedRep.build(pres, chi, s, theta))
        assert calls == [3] * kept


# the plan's degree window (bottom, span) narrowed by one degree, to
# leave out the lowest degree the tracked rows reach, or the highest
NARROWED = {"below": "plan[:5] + (plan[5] - 1, plan[6] - 1)",
            "above": "plan[:6] + (plan[6] - 1,)"}
WINDOW_MESSAGES = {
    "below": "dividing by t drops a nonzero coefficient below",
    "above": "multiplying by t pushes a coefficient past the top"}
NARROWED_RUN = (
    "from sliceobs import twisted\n"
    "from sliceobs.braids import family_braid, wirtinger_of_closure\n"
    "from sliceobs.metabolizers import base_characters\n"
    "plan_of = twisted._elimination_plan\n"
    "twisted._elimination_plan = lambda *args: (\n"
    "    lambda plan: {narrowed})(plan_of(*args))\n"
    "pres = wirtinger_of_closure(family_braid(5))\n"
    "rep = twisted.TwistedRep.build(pres, base_characters(5)[0], 11, 4)\n"
    "twisted.twisted_determinant(pres, rep)\n")


class TestDegreeWindow:
    @pytest.mark.parametrize("side", sorted(NARROWED))
    def test_a_shift_out_of_the_window_is_refused(self, monkeypatch, side):
        # the tracked window is tight at both edges for both base
        # characters: one degree less at either end is refused
        plan_of = twisted._elimination_plan
        narrow = eval(f"lambda plan: {NARROWED[side]}")
        monkeypatch.setattr(twisted, "_elimination_plan",
                            lambda *args: narrow(plan_of(*args)))
        for n, s, theta in ((5, 11, 4), (11, 23, 2)):
            pres = family_presentation(n)
            for chi in base_characters(n):
                rep = TwistedRep.build(pres, chi, s, theta)
                with pytest.raises(ArithmeticError,
                                   match=WINDOW_MESSAGES[side]):
                    twisted_determinant(pres, rep)

    # the twin of test_a_shift_out_of_the_window_is_refused, which runs
    # with the scale checks, as -O cannot change what the package does
    @pytest.mark.scale
    @pytest.mark.parametrize("side", sorted(NARROWED))
    def test_check_survives_optimize(self, side):
        code = NARROWED_RUN.format(narrowed=NARROWED[side])
        proc = run_python(["-O", "-c", code], 60)
        assert proc.returncode == 1
        assert "ArithmeticError: " + WINDOW_MESSAGES[side] in proc.stderr

    def test_plan_is_taken_once_per_presentation_and_deletion(self):
        # an equal presentation, built again, finds the same plan
        plan = twisted._elimination_plan(family_presentation(11), 1, 2)
        assert twisted._elimination_plan(family_presentation(11), 1, 2) is plan
        assert all(isinstance(part, tuple) for part in plan[:3])

    @pytest.mark.parametrize("n", [11, 17, 29])
    def test_the_window_is_a_third_of_the_relators(self, n):
        # at deletion (1, 1) the rows reach t^-(n + 1)/3 .. t^(n + 1)/3,
        # a span of (2n + 5)/3 for 2n - 1 kept relators, n - 1 of them
        # pivots on c
        plan = twisted._elimination_plan(family_presentation(n), 1, 1)
        assert plan[4:] == (n - 1, (n + 1) // 3, (2 * n + 5) // 3)


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
        # every deleted row and column: the raw determinant matches the
        # dense oracle, and the normalized polynomial does not change
        base = twisted_polynomial(PRES5, PLUS5, 11, 4)
        rep = TwistedRep.build(PRES5, PLUS5, 11, 4)
        m = PRES5.num_generators
        for dr in range(1, m + 1):
            for dg in range(1, m + 1):
                raw = twisted_determinant(PRES5, rep, dr, dg)
                assert raw == oracle_raw(PRES5, rep, dr, dg)
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


class TestBadInput:
    def test_field_with_too_few_points(self):
        # 14 generators need 14 points; the 10th roots of unity are 10
        pres = family_presentation(7)
        chi = Character(5, (0, 0, 0, 0), "+")
        with pytest.raises(ValueError, match="nonzero points"):
            twisted_polynomial(pres, chi, 11, 4)

    # the nodes are the 2n = 10 powers of -theta: a knot of 10 arcs (the
    # torus knot T(3, 5), not in the family) is the most they serve, and
    # one of 11 arcs (the torus knot T(2, 11)) needs one point more
    @pytest.mark.parametrize("braid, fits", [
        (BraidWord(3, (1, 2) * 5), True), (BraidWord(2, (1,) * 11), False)],
        ids=["2n arcs", "2n + 1 arcs"])
    def test_arcs_at_the_edge_of_the_roots_of_unity(self, braid, fits):
        pres = wirtinger_of_closure(braid)
        assert pres.num_generators == 10 + (not fits)
        exps = tuple((g % 5, 2 * g % 5, 3) for g in range(1, 12))
        rep = TwistedRep(5, 31, 2, exps[:pres.num_generators])
        if fits:
            assert twisted_determinant(pres, rep) == oracle_raw(pres, rep)
        else:
            with pytest.raises(ValueError, match=(
                    "give 10 nonzero points; the degree-10 determinant "
                    "needs 11$")):
                twisted_determinant(pres, rep)

    @pytest.mark.parametrize("theta", [2, 10, 0])
    def test_theta_of_another_order_is_refused(self, theta):
        # -2 = 9 has order 5 mod 11, so its powers give five points, not
        # ten; -10 = 1 gives one, and 0 is no root of unity at all
        rep = TwistedRep(5, 11, theta, ((0, 0, 0),) * 10)
        with pytest.raises(ValueError, match=re.escape(
                f"-theta={-theta % 11} does not have order 10 mod s=11: "
                f"theta={theta} must have order 5")):
            twisted_determinant(PRES5, rep)

    def test_representation_above_the_ceiling(self):
        # the zero character of n = 503 propagates on the 10 arcs of
        # n = 5; its 1006 points are refused before any table is built
        theta = ffpoly.primitive_root_of_unity(3019, 503)
        with pytest.raises(ValueError, match=(
                "^n=503 is above the ceiling n <= 500: the determinant "
                "would take 1006 points$")):
            twisted_polynomial(PRES5, Character(503, (0, 0, 0, 0), "+"),
                               3019, theta)

    @pytest.mark.parametrize("dr,dg", [(0, 1), (1, 11), (11, 3)])
    def test_deletion_out_of_range(self, dr, dg):
        with pytest.raises(ValueError):
            twisted_polynomial(PRES5, PLUS5, 11, 4, drop_relator=dr,
                               drop_generator=dg)

    @pytest.mark.parametrize("drop", [
        {"drop_relator": 2.5}, {"drop_relator": 1.0},
        {"drop_generator": True}, {"drop_generator": "1"}],
        ids=["relator 2.5", "relator 1.0", "generator True", "generator '1'"])
    def test_deletion_must_be_an_integer(self, drop, monkeypatch):
        # 2.5 ended in det_gf's "non-square matrix", and 1.0 or True was
        # read as 1; each is refused by name before the plan is built
        def no_plan(*args):
            pytest.fail("the elimination plan was built")

        monkeypatch.setattr(twisted, "_elimination_plan", no_plan)
        [(name, value)] = drop.items()
        rep = TwistedRep.build(PRES5, PLUS5, 11, 4)
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be an integer, not {value!r}")):
            twisted_determinant(PRES5, rep, **drop)

    @pytest.mark.parametrize("pres_n, rep_n, s, theta", [
        (5, 11, 23, 2), (11, 5, 11, 4)], ids=["fewer arcs", "more arcs"])
    def test_representation_of_another_presentation(self, pres_n, rep_n, s,
                                                    theta):
        # a representation carries one exponent triple per generator of
        # the presentation it was built on; on another presentation it
        # is refused by both counts before any point is evaluated, and
        # not by the field size or with a determinant of the wrong knot
        rep_pres = family_presentation(rep_n)
        rep = TwistedRep.build(rep_pres, base_characters(rep_n)[0], s, theta)
        pres = family_presentation(pres_n)
        with pytest.raises(ValueError, match=(
                f"exponent triples for {rep_pres.num_generators} "
                f"generators, the presentation {pres.num_generators}$")):
            twisted_determinant(pres, rep)

    def test_presentation_must_be_square(self):
        pres = WirtingerPresentation(4, ((1, 2, 3), (2, 3, 4), (3, 4, 1)))
        rep = TwistedRep(5, 11, 4, ((0, 0, 0),) * 4)
        with pytest.raises(ValueError):
            twisted_determinant(pres, rep)

    def test_unread_generator_is_a_zero_column(self):
        pres = WirtingerPresentation(
            4, ((1, 2, 3), (2, 3, 1), (3, 1, 2), (1, 3, 2)))
        rep = TwistedRep(5, 11, 4, ((0, 0, 0),) * 4)
        assert twisted_determinant(pres, rep) == []

    def test_trivial_character_is_not_divisible(self):
        # the zero character gives a determinant without the (t-1)^2
        with pytest.raises(ArithmeticError, match=r"\(t-1\)\^2"):
            twisted_polynomial(PRES5, Character(5, (0, 0, 0, 0), "+"), 11, 4)

    # the twin of test_trivial_character_is_not_divisible, which runs
    # with the scale checks, as -O cannot change what the package does
    @pytest.mark.scale
    def test_check_survives_optimize(self):
        code = ("from sliceobs.braids import family_braid, "
                "wirtinger_of_closure\n"
                "from sliceobs.metabolizers import Character\n"
                "from sliceobs.twisted import twisted_polynomial\n"
                "twisted_polynomial(wirtinger_of_closure(family_braid(5)), "
                "Character(5, (0, 0, 0, 0), '+'), 11, 4)\n")
        proc = run_python(["-O", "-c", code], 60)
        assert proc.returncode == 1
        assert "ArithmeticError" in proc.stderr


class TestPeriodShift:
    def test_full_turn_is_identity(self):
        chi = PLUS5
        rows = {chi.row}
        for _ in range(5):
            chi = period_shift(chi)
            rows.add(chi.row)
        assert chi.row == PLUS5.row
        assert len(rows) == 5

    def test_sign_tag_rides_along(self):
        assert period_shift(MINUS5).sign == "-"
        assert period_shift(PLUS5).sign == "+"

    def test_a_row_of_three_or_a_bad_sign_never_reaches_the_shift(self):
        # a row of 3 used to come out of period_shift as a row of 4, and
        # a sign "x" reached twisted_polynomial
        with pytest.raises(ValueError, match="row of four integers"):
            period_shift(Character(11, (1, 2, 3), "+"))
        with pytest.raises(ValueError, match="the sign '\\+' or '-'"):
            twisted_polynomial(PRES5, Character(5, (2, 3, 1, 4), "x"), 11, 4)

    def test_orbit_characters_share_polynomial(self):
        chi = MINUS5
        base = twisted_polynomial(PRES5, chi, 11, 4)
        for _ in range(5):
            chi = period_shift(chi)
            tp = twisted_polynomial(PRES5, chi, 11, 4)
            assert tp.coeffs == base.coeffs

    def test_shift_moves_base_characters(self):
        assert period_shift(PLUS5).row != PLUS5.row
        assert period_shift(MINUS5).row != MINUS5.row

    def test_corrupt_transport_is_refused(self, monkeypatch):
        # swapping the images of arcs 5 and 6 leaves the seed slots 1, 3
        # and 4 alone, so only the relator check can see it
        permutation = period_oracle.period_permutation

        def swapped(pres):
            pi = dict(permutation(pres))
            pi[5], pi[6] = pi[6], pi[5]
            return pi

        monkeypatch.setattr(period_oracle, "period_permutation", swapped)
        for chi in (PLUS5, MINUS5):
            with pytest.raises(ArithmeticError):
                period_oracle.transport(PRES5, chi)

    def test_presentation_without_period_rejected(self):
        pres = wirtinger_of_closure(
            BraidWord(3, (1, 2, 1, 2, 1, -2, -2, 1)))
        with pytest.raises(ValueError, match="period symmetry"):
            period_oracle.transport(pres, Character(5, (1, 2, 3, 4), "+"))

    @pytest.mark.parametrize("n", [n for n in range(5, 102, 2) if n % 3]
                             + [491, 497])
    def test_shift_is_the_diagram_transport(self, n):
        # P is one matrix for every knot; the transport along the diagram,
        # with its relator and re-seed checks, gives each unit row's image
        pres = family_presentation(n)
        for k in range(4):
            unit = tuple(int(i == k) for i in range(4))
            for sign in "+-":
                chi = Character(n, unit, sign)
                assert period_shift(chi) == period_oracle.transport(pres, chi)

    def test_period_matrix_commutes_with_deck(self):
        p, t = period_matrix(), t_matrix()
        assert p * t == t * p
