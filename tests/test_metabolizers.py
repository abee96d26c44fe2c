"""Metabolizer enumeration and the vanishing characters.

The object census (every line row-reduced, transformed and paired in
Fractions, as a subgroup class of its own) and the walk of r along the
orbit live in `tests/metabolizer_oracle.py` and check the program's
census from the conic, its line-map steps, its orbits and its orbit
index here.  The checks at n = 101 and 491 are marked `scale` and run
with `pytest -m scale`."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import metabolizer_oracle
from metabolizer_oracle import (Subgroup, census, invariant_submodules,
                                is_invariant, orbit_characters)
from sliceobs import blanchfield, metabolizers, report
from sliceobs.blanchfield import (linking_form, r_matrix, symmetry_action,
                                  t_matrix)
from sliceobs.linalg import Matrix
from sliceobs.metabolizers import (
    Character,
    Submodule,
    base_characters,
    character_for,
    enumerate_metabolizers,
    fixed_metabolizer,
    is_metabolizer,
    line_submodule,
    orbit_base_metabolizer,
    orbit_decomposition,
    prime_line_submodule,
)


class TestSubmodule:
    def test_canonical_form_identifies_span(self):
        a = Subgroup.spanned_by(5, ((1, 0, 2, 3), (0, 1, 4, 2)))
        b = Subgroup.spanned_by(5, ((2, 0, 4, 6), (1, 1, 6, 5)))
        assert a == b
        assert a.rank == 2

    def test_zero_generators_are_dropped(self):
        sub = Subgroup.spanned_by(7, ((0, 0, 0, 0), (1, 2, 3, 4)))
        assert sub.rank == 1

    @pytest.mark.parametrize("n0, n1, bad", [
        (1.5, 1, "n0 must be an integer, not 1.5"),
        (1, "2", "n1 must be an integer, not '2'")])
    def test_line_coordinates_must_be_ints(self, n0, n1, bad):
        # (5, 1.5, 1) came back as a Submodule with float rows
        with pytest.raises(ValueError, match=f"^{bad}$"):
            line_submodule(5, n0, n1)

    def test_deck_invariance_of_lines(self):
        tmat = t_matrix()
        for p in (line_submodule(5, 1, 1), prime_line_submodule(5)):
            assert is_invariant(Subgroup(5, p.canonical), tmat)
        # a non-line subgroup is generally not invariant
        sub = Subgroup.spanned_by(5, ((1, 0, 0, 0), (0, 0, 1, 0)))
        assert not is_invariant(sub, tmat)

    @given(st.integers(min_value=0, max_value=10),
           st.integers(min_value=0, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_every_line_is_deck_invariant(self, n0, n1):
        line = line_submodule(11, n0, n1)
        assert is_invariant(Subgroup(11, line.canonical), t_matrix())

    @given(st.sampled_from([5, 11, 17]),
           st.integers(min_value=-40, max_value=40),
           st.integers(min_value=-40, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_line_rows_are_affine_in_n0_n1(self, n, n0, n1):
        # the census checks deck invariance on three lines and R b only;
        # that covers every line because the rows are affine mod n
        rows = [metabolizers._line_rows(n, *p)
                for p in ((0, 0), (1, 0), (0, 1))]
        want = tuple(tuple((z + n0 * (x - z) + n1 * (y - z)) % n
                           for x, y, z in zip(gx, gy, gz))
                     for gz, gx, gy in zip(*rows))
        assert metabolizers._line_rows(n, n0, n1) == want

    @given(st.integers(min_value=-30, max_value=30),
           st.integers(min_value=-30, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_line_rows_are_the_reduced_echelon_form(self, n0, n1):
        # the census skips row reduction: its generators must already be
        # the canonical form the oracle reaches by reducing them
        gens = ((1, 0, n0, n1), (0, 1, -n1, n0 - n1))
        assert line_submodule(11, n0, n1).canonical == \
            Subgroup.spanned_by(11, gens).canonical


class TestInvariantSubmodules:
    def test_count_is_projective_line(self):
        assert len(invariant_submodules(5)) == 26
        assert len(invariant_submodules(11)) == 122

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            invariant_submodules(7)  # 7 = 1 mod 6
        with pytest.raises(ValueError):
            invariant_submodules(35)  # not prime

    def test_all_distinct_and_rank_two(self):
        mods = invariant_submodules(5)
        assert len(set(mods)) == len(mods)
        assert all(p.rank == 2 for p in mods)


class TestMetabolizers:
    @pytest.mark.parametrize("n", [5, 11])
    def test_exactly_n_plus_one(self, n):
        mets = enumerate_metabolizers(n, _FORMS[n])
        assert len(mets) == n + 1
        assert len(set(mets)) == n + 1

    def test_all_self_annihilating(self):
        form = linking_form(5)
        for p in enumerate_metabolizers(5, form):
            for u in p.canonical:
                for v in p.canonical:
                    assert form.value(u, v) == 0

    def test_fixed_and_orbit_base_are_metabolizers(self):
        form = linking_form(11)
        assert is_metabolizer(fixed_metabolizer(11), form)
        assert is_metabolizer(orbit_base_metabolizer(11), form)

    def test_leftover_line_is_rejected(self):
        # R b is deck invariant and half order but self-links by 1/n
        form = linking_form(11)
        pp = prime_line_submodule(11)
        sub = Subgroup(11, pp.canonical)
        assert sub.rank == 2 and is_invariant(sub, t_matrix())
        assert not is_metabolizer(pp, form)
        b = (0, 0, 1, 0)
        assert form.value(b, b) in (Fraction(1, 11), Fraction(10, 11))
        assert form.value(b, b) != 0

    @pytest.mark.parametrize("n", [5, 11])
    def test_orbit_sizes_are_one_and_n(self, n):
        mets = enumerate_metabolizers(n, _FORMS[n])
        orbits = orbit_decomposition(mets, n)
        assert [len(o) for o in orbits] == [1, n]

    def test_fixed_point_is_the_diagonal_line(self):
        mets = enumerate_metabolizers(11, _FORMS[11])
        orbits = orbit_decomposition(mets, 11)
        assert orbits[0] == [fixed_metabolizer(11)]
        assert fixed_metabolizer(11) == line_submodule(11, 1, 1)

    def test_orbit_contains_base(self):
        mets = enumerate_metabolizers(5, _FORMS[5])
        orbits = orbit_decomposition(mets, 5)
        assert orbit_base_metabolizer(5) in orbits[1]

    def test_orbit_decomposition_refuses_metabolizers_of_another_n(self):
        # these used to come back as the orbits for n = 11
        mets = enumerate_metabolizers(11, _FORMS[11])
        with pytest.raises(ValueError,
                           match="^a metabolizer is for n=11, not for n=17$"):
            orbit_decomposition(mets, 17)

    def test_symmetry_permutes_metabolizers(self):
        # r fixes P(inf) and moves P(m) to P(m - 2): by the row reduction
        # of the oracle, and by the line-map check of the program
        n, r = 5, r_matrix()
        mets = enumerate_metabolizers(n, _FORMS[n])
        images = [Subgroup(n, p.canonical).transformed(r).canonical
                  for p in mets]
        assert sorted(images) == sorted(p.canonical for p in mets)
        for p, image in zip(mets, images):
            assert metabolizers._maps_into(r.rows, p.canonical, image, n)
            m = metabolizers._slope(p)
            shifted = None if m is None else (m - 2) % n
            assert metabolizers._slope(Submodule(n, image)) == shifted

    @pytest.mark.parametrize("n", [5, 11, 17, 23, 29])
    def test_census_matches_object_census(self, n):
        form = linking_form(n)
        assert [p.canonical for p in enumerate_metabolizers(n, form)] == \
            census(n, form)

    @pytest.mark.parametrize("n", [5, 11])
    def test_is_metabolizer_matches_oracle_on_every_line(self, n):
        form = _FORMS[n]
        for p in [*(line_submodule(n, x, y) for x in range(n)
                    for y in range(n)), prime_line_submodule(n)]:
            assert is_metabolizer(p, form) == metabolizer_oracle.is_metabolizer(
                Subgroup(n, p.canonical), form)

    def test_census_builds_a_submodule_only_per_hit(self, monkeypatch):
        # the object census builds all n^2 + 1 lines; the integer census
        # builds one Submodule per metabolizer
        n = 29
        form = linking_form(n)
        built = []
        for cls in (Submodule, Subgroup):
            init = cls.__init__

            def counting_init(self, *args, init=init, **kwargs):
                built.append(1)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        enumerate_metabolizers(n, form)
        assert len(built) <= 2 * (n + 1)
        built.clear()
        census(n, form)
        assert len(built) > n * n

    @pytest.mark.parametrize("n", [5, 11, 17])
    def test_deck_invariance_is_checked_on_four_lines(self, monkeypatch, n):
        # invariance of all n^2 + 1 lines follows from four checks
        calls = []
        check = metabolizers._maps_into

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(metabolizers, "_maps_into", counted)
        assert len(enumerate_metabolizers(n, linking_form(n))) == n + 1
        assert len(calls) <= 4

    @pytest.mark.parametrize("line, rows", [
        # each wrong deck matrix fails on this one of the four checked
        # lines alone at n = 5
        ("Rb", ((-1, -1, -1, 1), (-1, -1, 0, 1), (0, 0, -2, 0),
                (0, 0, -1, 0))),
        ("0-0", ((-1, -1, 0, 0), (-1, -1, 0, 0), (1, -1, -2, 0),
                 (0, -1, -1, 0))),
        ("1-0", ((0, 0, 0, 0), (1, -1, 0, 0), (0, 0, 0, -1),
                 (0, 0, 0, -1))),
        ("0-1", ((1, -1, 0, 0), (1, -1, 0, 0), (0, 0, 1, -1),
                 (0, 0, 1, -1))),
    ], ids=["Rb", "0-0", "1-0", "0-1"])
    def test_wrong_deck_matrix_stops_the_census(self, monkeypatch, line,
                                                rows):
        n = 5
        checked = {"Rb": metabolizers._PRIME_LINE,
                   "0-0": metabolizers._line_rows(n, 0, 0),
                   "1-0": metabolizers._line_rows(n, 1, 0),
                   "0-1": metabolizers._line_rows(n, 0, 1)}
        failing = [name for name, line in checked.items()
                   if not metabolizers._maps_into(rows, line, line, n)]
        assert failing == [line]
        monkeypatch.setattr(metabolizers, "t_matrix", lambda: Matrix(rows))
        with pytest.raises(ArithmeticError, match="not deck invariant"):
            enumerate_metabolizers(n, _FORMS[n])

    def test_rejects_form_of_another_n(self):
        form = linking_form(17)
        with pytest.raises(ValueError, match="n=17, not for n=11"):
            enumerate_metabolizers(11, form)
        with pytest.raises(ValueError, match="n=17, not for n=11"):
            is_metabolizer(line_submodule(11, 1, 1), form)
        with pytest.raises(ValueError, match="n=17, not for n=11"):
            character_for(line_submodule(11, 1, 1), form)
        with pytest.raises(ValueError, match="n=17, not for n=11"):
            character_for(orbit_base_metabolizer(11), form)

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError, match="prime n = 5 mod 6"):
            enumerate_metabolizers(7, linking_form(7))
        with pytest.raises(ValueError, match="prime n = 5 mod 6"):
            enumerate_metabolizers(35, linking_form(35))


    def test_rejects_composite_n(self):
        # R = (Z/n)[t]/(t^2 + t + 1) is no field for a composite n; a row
        # reduction that inverts pivots by Fermat spanned 2 e1 mod 35 as
        # ((9, 0, 0, 0),)
        form = linking_form(35)
        for build in (lambda: line_submodule(35, 1, 1),
                      lambda: is_metabolizer(line_submodule(35, 1, 1), form),
                      lambda: character_for(line_submodule(35, 1, 1), form)):
            with pytest.raises(ValueError, match="needs a prime n, not n=35"):
                build()

    def test_rejects_a_float_n(self):
        # 11.0 equals a prime = 5 mod 6, but a line on its float rows is
    # no line over Z/n
        for build in (lambda: metabolizers.check_class(11.0),
                      lambda: line_submodule(11.0, 1, 1)):
            with pytest.raises(ValueError,
                               match="integers only, not 11.0"):
                build()


_FORMS = {n: linking_form(n) for n in (5, 11)}


def every_line(n):
    """All n^2 + 1 R-lines, R b last."""
    return [*(line_submodule(n, x, y) for x in range(n) for y in range(n)),
            prime_line_submodule(n)]


def with_entry(m, i, j, x):
    """The matrix m with entry (i, j) replaced by x."""
    rows = [list(r) for r in m.rows]
    rows[i][j] = x
    return Matrix(rows)


class TestMoebius:
    """r acts on the conic's parameter by the Moebius map m -> m - 2,
    fixing m = inf, and t keeps every line; the program checks each
    such step on the rows alone, by `_maps_into`."""

    @pytest.mark.parametrize("n", [5, 11, 17, pytest.param(
        101, marks=pytest.mark.scale)])
    @pytest.mark.parametrize("name", ["t", "r"])
    def test_steps_match_the_row_reduction(self, n, name):
        # g maps each line into its row-reduced image, and into no other
        # line: the next one in the listing
        g = {"t": t_matrix(), "r": r_matrix()}[name]
        lines = every_line(n)
        images = [Subgroup(n, p.canonical).transformed(g).canonical
                  for p in lines]
        rows = [p.canonical for p in lines]
        for p, image in zip(rows, images):
            assert metabolizers._maps_into(g.rows, p, image, n)
            other = rows[(rows.index(image) + 1) % len(rows)]
            assert not metabolizers._maps_into(g.rows, p, other, n)

    @pytest.mark.parametrize("i, j", [(0, 2), (1, 1), (3, 0)])
    def test_a_map_that_does_not_commute_with_t_is_refused(self, monkeypatch,
                                                           i, j):
        # the orbit check refuses it before the square-zero check could
        g = with_entry(r_matrix(), i, j, r_matrix()[i][j] + 1)
        assert g * t_matrix() != t_matrix() * g
        mets = enumerate_metabolizers(11, _FORMS[11])
        monkeypatch.setattr(metabolizers, "_nilpotent_part", None)
        monkeypatch.setattr(metabolizers, "r_matrix", lambda: g)
        with pytest.raises(ArithmeticError,
                           match="symmetry must permute the metabolizers"):
            orbit_decomposition(mets, 11)

    @pytest.mark.parametrize("rows", [
        ((1, 0, 0, 0), (0, 0, 1, 0)),
        ((1, 0, 2, 3),),
        (),
        ((1, 0, 2, 3), (0, 1, 2, 2)),
        ((1, 0, 7, 3), (0, 1, 3, 4)),
        ((0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)),
        ((1, 0, 2, 3, 0), (0, 1, 2, 4, 0)),
    ], ids=["non-line", "one-row", "zero", "wrong-t-row", "unreduced",
            "three-rows", "five-columns"])
    def test_rows_that_are_not_a_line_are_refused(self, rows):
        with pytest.raises(ValueError, match="are not the rows of an R-line"):
            Submodule(5, rows)


class TestUnipotentSymmetry:
    @pytest.mark.parametrize("i", range(4))
    @pytest.mark.parametrize("j", range(4))
    def test_a_changed_r_entry_is_refused(self, monkeypatch, i, j):
        bad = with_entry(r_matrix(), i, j, r_matrix()[i][j] + 1)
        u = bad - Matrix.identity(4)
        assert u * u != u.map(lambda x: 0)
        monkeypatch.setattr(blanchfield, "r_matrix", lambda: bad)
        monkeypatch.setattr(metabolizers, "r_matrix", lambda: bad)
        with pytest.raises(ArithmeticError):
            symmetry_action(11, _FORMS[11])
        with pytest.raises(ArithmeticError, match="must square to 0"):
            character_for(orbit_base_metabolizer(11), _FORMS[11])

    def test_an_r_that_commutes_with_t_is_still_checked(self, monkeypatch):
        # r + I commutes with t, so only the square-zero check sees it
        bad = r_matrix() - Matrix.identity(4).map(lambda x: -x)
        monkeypatch.setattr(blanchfield, "r_matrix", lambda: bad)
        with pytest.raises(ArithmeticError, match="must square to 0"):
            symmetry_action(11)

# the admissible n of tier-1, then those of `pytest -m scale`
CONIC_N = [5, 11, 17, *(pytest.param(n, marks=pytest.mark.scale)
                        for n in (101, 491))]


def conic_zeros(n):
    """The zeros of n0^2 - n0 n1 + n1^2 + n0 - n1 - 1 on (Z/n)^2, by
    trying every point."""
    return [(x, y) for x in range(n) for y in range(n)
            if (x * x - x * y + y * y + x - y - 1) % n == 0]


def with_scaled(form, change):
    """A copy of the form whose integer matrix n lambda has the entries
    of `change`, a map (i, j) -> value."""
    scaled = [list(r) for r in form.scaled]
    for (i, j), x in change.items():
        scaled[i][j] = x
    return dataclasses.replace(form, scaled=tuple(map(tuple, scaled)))


class TestConic:
    @pytest.mark.parametrize("n", CONIC_N)
    def test_points_are_the_zeros_of_the_conic(self, n):
        zeros = conic_zeros(n)
        assert len(zeros) == n + 1
        assert metabolizers._conic_points(n) == zeros
        mets = enumerate_metabolizers(n, linking_form(n))
        assert [p.canonical[0][2:] for p in mets] == zeros

    @pytest.mark.parametrize("wrong", [
        lambda x, y: x * x - x * y + y * y + x - y - 2,
        lambda x, y: x * x - x * y + y * y + x - y,
        lambda x, y: x * x + x * y + y * y + x - y - 1,
        lambda x, y: x * x - x * y + y * y - x + y - 1,
    ], ids=["constant -2", "constant 0", "n0 n1 term", "linear terms"])
    def test_a_wrong_conic_stops_the_census(self, monkeypatch, wrong):
        monkeypatch.setattr(metabolizers, "_conic", wrong)
        with pytest.raises(ArithmeticError,
                           match="isotropic lines are not the conic"):
            enumerate_metabolizers(11, _FORMS[11])

    @pytest.mark.parametrize("change", [
        lambda pts: [(0, 0)] + pts[1:],
        lambda pts: pts[1:],
    ], ids=["off the conic", "one missing"])
    def test_a_wrong_listing_stops_the_census(self, monkeypatch, change):
        points = metabolizers._conic_points
        monkeypatch.setattr(metabolizers, "_conic_points",
                            lambda n: change(points(n)))
        with pytest.raises(ArithmeticError, match="not the n \\+ 1 = 12"):
            enumerate_metabolizers(11, _FORMS[11])

    @pytest.mark.parametrize("i", range(4))
    @pytest.mark.parametrize("j", range(4))
    def test_a_changed_form_entry_stops_the_census(self, i, j):
        # every pairing is then off the conic by a quadratic that is no
        # multiple of it, which the six lines see
        form = _FORMS[11]
        bad = with_scaled(form, {(i, j): (form.scaled[i][j] + 1) % 11})
        with pytest.raises(ArithmeticError,
                           match="isotropic lines are not the conic"):
            enumerate_metabolizers(11, bad)

    def test_an_isotropic_leftover_line_stops_the_census(self):
        bad = with_scaled(_FORMS[11], {(i, j): 0 for i in (2, 3)
                                       for j in (2, 3)})
        with pytest.raises(ArithmeticError, match="leftover line R b"):
            enumerate_metabolizers(11, bad)

    @pytest.mark.parametrize("n", CONIC_N)
    def test_character_for_matches_the_r_walk(self, n):
        form = linking_form(n)
        walk = orbit_characters(n)
        mets = enumerate_metabolizers(n, form)
        fixed = fixed_metabolizer(n)
        assert set(walk) == {p.canonical for p in mets} - {fixed.canonical}
        for p in mets:
            want = base_characters(n)[1] if p == fixed else \
                Character(n, walk[p.canonical], "+")
            assert character_for(p, form) == want


def r_walk(n, rows):
    """The r-orbit of the line with these rows, by the oracle's row
    reduction: the rows of r^j of it for j = 0, 1, ... until it
    returns."""
    walk = [Subgroup(n, rows)]
    while (q := walk[-1].transformed(r_matrix())) != walk[0]:
        walk.append(q)
    return [q.canonical for q in walk]


class TestOrbits:
    @pytest.mark.parametrize("n", CONIC_N)
    def test_orbits_match_the_oracle_walk(self, n):
        mets = enumerate_metabolizers(n, linking_form(n))
        fixed, orbit = orbit_decomposition(mets, n)
        assert [p.canonical for p in fixed] == r_walk(n, fixed[0].canonical)
        start = next(p for p in mets if p not in fixed)
        assert [p.canonical for p in orbit] == r_walk(n, start.canonical)
        # the members are the given submodules, none built anew
        assert all(any(p is q for q in mets) for p in fixed + orbit)

    def test_the_fixed_point_alone_is_one_orbit(self):
        fixed = fixed_metabolizer(11)
        orbits = orbit_decomposition([fixed], 11)
        assert orbits == [[fixed]] and orbits[0][0] is fixed
        assert orbit_decomposition([], 11) == []

    def test_repeated_metabolizers_count_once(self):
        mets = enumerate_metabolizers(11, _FORMS[11])
        orbits = orbit_decomposition(mets + mets, 11)
        assert orbits == orbit_decomposition(mets, 11)
        assert [len(o) for o in orbits] == [1, 11]

    @pytest.mark.parametrize("change", [
        lambda mets: mets[:-1],
        lambda mets: mets[1:],
        lambda mets: mets + [prime_line_submodule(11)],
        lambda mets: [prime_line_submodule(11)] + mets,
        lambda mets: mets + [line_submodule(11, 0, 0)],
        lambda mets: [line_submodule(11, 0, 0)] + mets,
    ], ids=["last-missing", "first-missing", "Rb-after", "Rb-before",
            "off-conic-after", "off-conic-before"])
    def test_lines_that_are_not_whole_orbits_are_refused(self, change):
        mets = enumerate_metabolizers(11, _FORMS[11])
        with pytest.raises(ArithmeticError,
                           match="^symmetry must permute the metabolizers$"):
            orbit_decomposition(change(mets), 11)

    def test_an_orbit_of_lines_off_the_conic_is_refused(self):
        # the 11 lines r^j of the line through a: a whole r-orbit, which
        # a walk of r alone would return as one orbit, but no metabolizers
        n = 11
        walk = r_walk(n, line_submodule(n, 0, 0).canonical)
        assert len(walk) == n
        lines = [Submodule(n, rows) for rows in walk]
        assert not any(is_metabolizer(p, _FORMS[n]) for p in lines)
        with pytest.raises(ArithmeticError,
                           match="^symmetry must permute the metabolizers$"):
            orbit_decomposition(lines, n)

    def test_the_inverse_symmetry_is_refused(self, monkeypatch):
        # r^-1 = 2I - r passes every check of r alone but moves P(m) to
        # P(m + 2), which would list the orbit reversed
        n = 11
        inverse = Matrix.identity(4).map(lambda x: 2 * x) - r_matrix()
        assert inverse * r_matrix() == Matrix.identity(4)
        monkeypatch.setattr(blanchfield, "r_matrix", lambda: inverse)
        monkeypatch.setattr(metabolizers, "r_matrix", lambda: inverse)
        action = symmetry_action(n, _FORMS[n])
        assert action.r == inverse
        with pytest.raises(ArithmeticError,
                           match="^symmetry must permute the metabolizers$"):
            report.census.__wrapped__(n)

    @pytest.mark.parametrize("n", [7, 13])
    def test_an_n_outside_the_classification_is_refused(self, n):
        # the conic's parametrisation needs n = 5 mod 6: at n = 7 or 13
        # some m^2 - m + 1 vanishes mod n
        with pytest.raises(ValueError, match="prime n = 5 mod 6"):
            orbit_decomposition([line_submodule(n, n - 1, n - 1)], n)

    def test_a_map_that_keeps_no_line_is_refused(self, monkeypatch):
        # the zero map sends every line into every other; r - I = -I
        # then does not square to 0
        zero = Matrix(((0,) * 4,) * 4)
        monkeypatch.setattr(metabolizers, "r_matrix", lambda: zero)
        with pytest.raises(ArithmeticError, match="must square to 0"):
            orbit_decomposition(enumerate_metabolizers(11, _FORMS[11]), 11)


class TestCharacters:
    def test_value_and_vanishing(self):
        chi = Character(5, (1, 0, 0, 4), "-")
        assert chi.value((1, 0, 0, 1)) == 0
        assert chi.value((1, 0, 0, 0)) == 1
        assert chi.vanishes_on(fixed_metabolizer(5))

    @pytest.mark.parametrize("row, sign", [
        ((1, 2, 3), "+"),
        ((1, 2, 3, 4, 5), "-"),
        ([1, 2, 3, 4], "+"),
        ((1, 2, 3, 4.0), "+"),
        ((1, 2, 3, 4), "x"),
        ((1, 2, 3, 4), "+-"),
        ((1, 2, 3, 4), None),
    ], ids=["three", "five", "list", "float", "sign-x", "sign-both",
            "sign-none"])
    def test_a_bad_row_or_sign_is_refused(self, row, sign):
        with pytest.raises(ValueError, match="a character needs a row of "
                                             "four integers"):
            Character(11, row, sign)

    def test_base_character_rows(self):
        plus, minus = base_characters(11)
        assert plus.row == (10, 0, 0, 10) and plus.sign == "+"
        assert minus.row == (1, 0, 0, 10) and minus.sign == "-"
        assert plus.vanishes_on(orbit_base_metabolizer(11))
        assert minus.vanishes_on(fixed_metabolizer(11))

    def test_character_for_fixed_point(self):
        chi = character_for(fixed_metabolizer(11), _FORMS[11])
        assert chi.sign == "-"
        assert chi.row == (1, 0, 0, 10)

    @pytest.mark.parametrize("n", [5, 11])
    def test_character_for_every_metabolizer(self, n):
        form = linking_form(n)
        for p in enumerate_metabolizers(n, form):
            chi = character_for(p, form)
            assert chi.vanishes_on(p)
            assert any(chi.row)
            expect = "-" if p == fixed_metabolizer(n) else "+"
            assert chi.sign == expect

    def test_character_for_rejects_non_metabolizer(self):
        with pytest.raises(ValueError):
            character_for(line_submodule(11, 0, 0), _FORMS[11])

    def test_orbit_characters_are_distinct(self):
        mets = enumerate_metabolizers(5, _FORMS[5])
        rows = {character_for(p, _FORMS[5]).row for p in mets}
        assert len(rows) == len(mets)
