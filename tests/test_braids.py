"""Braid words, closures, and Wirtinger presentations."""

import pytest
from hypothesis import given, strategies as st

from sliceobs.braids import (
    BraidWord,
    WirtingerPresentation,
    family_braid,
    wirtinger_of_closure,
)
from sliceobs.linalg import Matrix, smith_normal_form


class TestBraidWord:
    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            BraidWord(3, (3,))
        with pytest.raises(ValueError):
            BraidWord(3, (0,))
        with pytest.raises(ValueError):
            BraidWord(1, ())

    def test_permutation_single_crossing(self):
        # sigma_1 swaps strands 1 and 2
        assert BraidWord(3, (1,)).permutation() == (2, 1, 3)
        assert BraidWord(3, (-2,)).permutation() == (1, 3, 2)

    def test_permutation_inverse_pair(self):
        assert BraidWord(3, (1, -1)).permutation() == (1, 2, 3)

    def test_trefoil_closure_is_knot(self):
        assert BraidWord(2, (1, 1, 1)).is_knot_closure

    def test_identity_closure_components(self):
        assert BraidWord(3, ()).closure_components == 3


class TestFamilyBraid:
    def test_word(self):
        assert family_braid(4).letters == (1, -2) * 4
        assert family_braid(4).strands == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            family_braid(0)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_knot_exactly_when_coprime_to_three(self, n):
        assert family_braid(n).is_knot_closure == (n % 3 != 0)


class TestWirtinger:
    def test_rejects_links(self):
        with pytest.raises(ValueError):
            wirtinger_of_closure(family_braid(3))

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            wirtinger_of_closure(BraidWord(2, ()))

    def test_trefoil(self):
        pres = wirtinger_of_closure(BraidWord(2, (1, 1, 1)))
        assert pres.num_generators == 3
        assert len(pres.relators) == 3

    def test_generator_per_crossing(self):
        for n in (1, 2, 4, 5, 7):
            pres = wirtinger_of_closure(family_braid(n))
            assert pres.num_generators == 2 * n
            assert len(pres.relators) == 2 * n

    def test_relator_generators_in_range(self):
        pres = wirtinger_of_closure(family_braid(5))
        for a, b, c in pres.relators:
            assert 1 <= a <= pres.num_generators
            assert 1 <= b <= pres.num_generators
            assert 1 <= c <= pres.num_generators

    def test_out_of_range_relator_rejected(self):
        with pytest.raises(ValueError):
            WirtingerPresentation(2, ((1, 2, 3),))

    @pytest.mark.parametrize("n", (1, 2, 4, 5, 7, 8))
    def test_abelianization_is_infinite_cyclic(self, n):
        # relator (a, b, c) abelianizes to a - c = 0; H_1 of a knot
        # complement is Z, so the relator matrix has all invariant
        # factors 1 and a single zero
        pres = wirtinger_of_closure(family_braid(n))
        g = pres.num_generators
        rows = []
        for a, b, c in pres.relators:
            row = [0] * g
            row[a - 1] += 1
            row[c - 1] -= 1
            rows.append(tuple(row))
        inv = smith_normal_form(Matrix(rows))
        assert [d for d in inv if d not in (0, 1)] == []
        assert list(inv).count(0) == 1

    @pytest.mark.parametrize("n", (2, 4, 5))
    def test_conjugation_structure(self, n):
        # every arc is conjugate to every other: the relation a ~ c for
        # relators (a, b, c) has a single equivalence class on a knot
        pres = wirtinger_of_closure(family_braid(n))
        parent = list(range(pres.num_generators + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, _, c in pres.relators:
            parent[find(a)] = find(c)
        classes = {find(i) for i in range(1, pres.num_generators + 1)}
        assert len(classes) == 1


@given(st.integers(2, 5),
       st.lists(st.integers(-4, 4).filter(lambda x: x != 0), max_size=12))
def test_components_match_permutation_cycles(strands, letters):
    letters = [x for x in letters if abs(x) < strands]
    b = BraidWord(strands, tuple(letters))
    perm = b.permutation()
    seen = set()
    cycles = 0
    for s in range(1, strands + 1):
        if s in seen:
            continue
        cycles += 1
        while s not in seen:
            seen.add(s)
            s = perm[s - 1]
    assert b.closure_components == cycles


@given(st.lists(st.sampled_from((1, -1, 2, -2)), min_size=1, max_size=10))
def test_wirtinger_closure_counts(letters):
    b = BraidWord(3, tuple(letters))
    if not b.is_knot_closure:
        return
    pres = wirtinger_of_closure(b)
    assert pres.num_generators == len(letters)
    assert len(pres.relators) == pres.num_generators
