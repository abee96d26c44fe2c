"""Metabolizer enumeration and the vanishing characters.

The object census (every line row-reduced, transformed and paired in
Fractions) and the walk of r along the orbit live in
`tests/metabolizer_oracle.py` and check the program's census from the
conic and its orbit index here.  The checks at n = 101 and 491 are
marked `scale` and run with `pytest -m scale`."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import metabolizer_oracle
from metabolizer_oracle import (census, invariant_submodules, is_invariant,
                                orbit_characters)
from sliceobs import metabolizers
from sliceobs.blanchfield import linking_form, r_matrix, t_matrix
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
        a = Submodule.spanned_by(5, ((1, 0, 2, 3), (0, 1, 4, 2)))
        b = Submodule.spanned_by(5, ((2, 0, 4, 6), (1, 1, 6, 5)))
        assert a == b
        assert a.rank == 2

    def test_zero_generators_are_dropped(self):
        sub = Submodule.spanned_by(7, ((0, 0, 0, 0), (1, 2, 3, 4)))
        assert sub.rank == 1

    def test_transformed_by_identity(self):
        sub = line_submodule(11, 4, 9)
        ident = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert sub.transformed(ident) == sub

    def test_deck_invariance_of_lines(self):
        tmat = t_matrix()
        assert is_invariant(line_submodule(5, 1, 1), tmat)
        assert is_invariant(prime_line_submodule(5), tmat)
        # a non-line subgroup is generally not invariant
        sub = Submodule.spanned_by(5, ((1, 0, 0, 0), (0, 0, 1, 0)))
        assert not is_invariant(sub, tmat)

    @given(st.integers(min_value=0, max_value=10),
           st.integers(min_value=0, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_every_line_is_deck_invariant(self, n0, n1):
        assert is_invariant(line_submodule(11, n0, n1), t_matrix())

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
        assert line_submodule(11, n0, n1) == Submodule.spanned_by(11, gens)


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
        assert pp.rank == 2 and is_invariant(pp, t_matrix())
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

    def test_symmetry_permutes_metabolizers(self):
        r = r_matrix()
        mets = set(enumerate_metabolizers(5, _FORMS[5]))
        assert {p.transformed(r) for p in mets} == mets

    @pytest.mark.parametrize("n", [5, 11, 17, 23, 29])
    def test_census_matches_object_census(self, n):
        form = linking_form(n)
        assert enumerate_metabolizers(n, form) == census(n, form)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([5, 11]), st.data())
    def test_is_metabolizer_matches_oracle_on_any_subgroup(self, n, data):
        # arbitrary generator pairs reach every pivot pattern, not only
        # the lines of the census
        vec = st.lists(st.integers(0, n - 1), min_size=4, max_size=4)
        sub = Submodule.spanned_by(n, (data.draw(vec), data.draw(vec)))
        form = _FORMS[n]
        assert is_metabolizer(sub, form) == \
            metabolizer_oracle.is_metabolizer(sub, form)

    def test_census_builds_a_submodule_only_per_hit(self, monkeypatch):
        # the object census builds all n^2 + 1 lines; the integer census
        # builds one Submodule per metabolizer
        n = 29
        form = linking_form(n)
        built = []
        init = Submodule.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Submodule, "__init__", counting_init)
        enumerate_metabolizers(n, form)
        assert len(built) <= 2 * (n + 1)
        built.clear()
        census(n, form)
        assert len(built) > n * n

    @pytest.mark.parametrize("n", [5, 11, 17])
    def test_deck_invariance_is_checked_on_four_lines(self, monkeypatch, n):
        # invariance of all n^2 + 1 lines follows from four checks
        calls = []
        check = metabolizers._deck_invariant

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(metabolizers, "_deck_invariant", counted)
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
        failing = [name for name, (g0, g1) in checked.items()
                   if not metabolizers._deck_invariant(g0, g1, n, rows)]
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
        # the row reduction inverts pivots by Fermat, which is no inverse
        # mod 35: the span of 2 e1 came out as ((9, 0, 0, 0),)
        form = linking_form(35)
        for build in (lambda: Submodule.spanned_by(35, ((2, 0, 0, 0),)),
                      lambda: line_submodule(35, 1, 1),
                      lambda: is_metabolizer(line_submodule(35, 1, 1), form),
                      lambda: character_for(line_submodule(35, 1, 1), form)):
            with pytest.raises(ValueError, match="needs a prime n, not n=35"):
                build()


_FORMS = {n: linking_form(n) for n in (5, 11)}

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
    bad = dataclasses.replace(form)
    scaled = [list(r) for r in form.scaled]
    for (i, j), x in change.items():
        scaled[i][j] = x
    object.__setattr__(bad, "scaled", tuple(map(tuple, scaled)))
    return bad


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
        assert set(walk) == set(mets) - {fixed}
        for p in mets:
            want = base_characters(n)[1] if p == fixed else \
                Character(n, walk[p], "+")
            assert character_for(p, form) == want


class TestCharacters:
    def test_value_and_vanishing(self):
        chi = Character(5, (1, 0, 0, 4), "-")
        assert chi.value((1, 0, 0, 1)) == 0
        assert chi.value((1, 0, 0, 0)) == 1
        assert chi.vanishes_on(fixed_metabolizer(5))

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
