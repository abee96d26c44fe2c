"""Obstruction reports and the reference table verification."""

import dataclasses
import json
import re

import pytest

from fresh_python import run_python
from sliceobs import report, twisted
from sliceobs.blanchfield import cover_homology_snf, linking_form
from sliceobs.ffpoly import (degree_sequence, factor, is_irreducible,
                             is_prime, monic, primitive_root_of_unity)
from sliceobs.report import (
    DEFAULT_WITNESS,
    REFERENCE_FACTORS,
    census,
    obstruct,
    verify_table,
)
from sliceobs.seifert import alexander_polynomial
from sliceobs.twisted import twisted_polynomial


class TestWitnesses:
    def test_defaults_cover_the_table(self):
        assert set(DEFAULT_WITNESS) == {
            (n, sign) for n in (11, 17, 23) for sign in "+-"}

    def test_theta_without_s_is_refused(self):
        # a theta alone used to be replaced by the default witness
        with pytest.raises(ValueError, match="theta needs an explicit s"):
            obstruct(11, theta=5)

    def test_default_witnesses_are_valid(self):
        for (n, _), (s, theta) in DEFAULT_WITNESS.items():
            assert (s - 1) % n == 0
            assert pow(theta, n, s) == 1 and theta % s != 1

    @pytest.mark.parametrize("n", (11, 17, 23))
    def test_inverse_theta_gives_the_reciprocal_polynomial(self, n):
        # at theta^-1 the twisted polynomial of each table character is
        # the reciprocal t^deg f(1/t), made monic, of the one at theta,
        # so both have one degree sequence: a witness search needs only
        # one of theta, theta^-1
        c = census(n)
        for chi in (c.plus, c.minus):
            s, theta = DEFAULT_WITNESS[(n, chi.sign)]
            f = list(twisted_polynomial(c.presentation, chi, s,
                                        theta).coeffs)
            g = list(twisted_polynomial(c.presentation, chi, s,
                                        pow(theta, -1, s)).coeffs)
            assert g == monic(f[::-1], s)
            assert (degree_sequence(factor(g, s))
                    == degree_sequence(factor(f, s)))


def assert_factored(fact, p, s):
    """fact multiplies back to p, and each of its factors is
    irreducible."""
    assert fact.product() == p
    assert all(is_irreducible(list(g), s) for g, _ in fact.factors)


class TestChiMinusIsSelfReciprocal:
    # factor takes chi- through its trace polynomial because its
    # polynomial reads the same both ways; chi+'s does not, so it takes
    # the direct route

    @pytest.mark.parametrize("n", (5, 11, 17))
    def test_at_every_theta_of_the_first_two_primes(self, n):
        c = census(n)
        primes = [s for s in range(n + 1, 100 * n, n) if is_prime(s)][:2]
        for s in primes:
            for theta in range(2, s):
                if pow(theta, n, s) != 1:
                    continue
                minus, plus = (
                    list(twisted_polynomial(c.presentation, chi, s,
                                            theta).coeffs)
                    for chi in (c.minus, c.plus))
                assert minus == minus[::-1]
                assert plus != plus[::-1]
                assert_factored(factor(minus, s), minus, s)

    @pytest.mark.scale
    def test_n101_s607_theta64_factors_are_irreducible(self):
        c = census(101)
        p = list(twisted_polynomial(c.presentation, c.minus, 607, 64).coeffs)
        assert_factored(factor(p, 607), p, 607)

    @pytest.mark.scale
    def test_n491_s983_factors_are_irreducible(self):
        # the oracle's direct powers are far too slow at degree 978, so
        # the factors are checked one by one
        c = census(491)
        s = 983
        theta = primitive_root_of_unity(s, 491)
        p = list(twisted_polynomial(c.presentation, c.minus, s,
                                    theta).coeffs)
        assert_factored(factor(p, s), p, s)


class TestReferenceTable:
    def test_factors_are_monic(self):
        for fact in REFERENCE_FACTORS.values():
            for f in fact:
                assert f[-1] == 1 and f[0] != 0

    def test_degrees_sum_to_target(self):
        for (n, _), fact in REFERENCE_FACTORS.items():
            assert sum(len(f) - 1 for f in fact) == 2 * (n - 2)

    def test_degree_sequences(self):
        seqs = {key: tuple(sorted(len(f) - 1 for f in fact))
                for key, fact in REFERENCE_FACTORS.items()}
        assert seqs[(11, "+")] == (2, 2, 3, 3, 8)
        assert seqs[(11, "-")] == (4, 14)
        assert seqs[(17, "+")] == (2, 3, 9, 16)
        assert seqs[(17, "-")] == (2, 28)
        assert seqs[(23, "+")] == (1, 1, 11, 29)
        assert seqs[(23, "-")] == (1, 1, 2, 12, 12, 14)


class TestObstruct:
    def test_smallest_table_knot(self):
        reports = obstruct(11)
        assert [r.sign for r in reports] == ["+", "-"]
        plus, minus = reports
        assert plus.degree_sequence == (2, 2, 3, 3, 8)
        assert minus.degree_sequence == (4, 14)
        for r in reports:
            assert r.total_degree == r.target_degree == 18
            assert r.degree_check and r.norm_obstructed
            assert r.metabolizer_count == 12
            assert r.orbit_sizes == (1, 11)
            assert r.verdict == "not slice"
            assert r.characters_checked == 2
            assert r.q == 3
            assert (r.s, r.theta) == DEFAULT_WITNESS[(11, r.sign)]
            assert r.polynomial[-1] == 1

    def test_factors_match_reference(self):
        for r in obstruct(11):
            assert r.factors == REFERENCE_FACTORS[(11, r.sign)]

    def test_exhaustive_walks_every_character(self):
        reports = obstruct(11, exhaustive=True)
        for r in reports:
            assert r.characters_checked == 12
            assert r.verdict == "not slice"

    def test_exhaustive_factors_only_the_two_representatives(
            self, monkeypatch):
        # the transported characters are compared by coefficients; chi+
        # and chi- are each factored once, both by factor
        calls = counting(monkeypatch, "factor")
        reports = obstruct(11, exhaustive=True)
        assert len(calls) == 2
        assert all(r.verdict == "not slice" for r in reports)

    def test_exhaustive_propagates_once_per_character(self, monkeypatch):
        # 12 representations; a shift is a constant matrix on the row and
        # propagates nothing
        calls = []
        propagate = twisted.propagate

        def counting_propagate(*args):
            calls.append(args)
            return propagate(*args)

        monkeypatch.setattr(twisted, "propagate", counting_propagate)
        obstruct(11, exhaustive=True)
        assert len(calls) == 12

    def test_exhaustive_catches_a_changed_transport(self, monkeypatch):
        calls = []

        def perturbed(*args):
            tp = twisted_polynomial(*args)
            calls.append(tp)
            if len(calls) != 12:
                return tp
            coeffs = ((tp.coeffs[0] + 1) % tp.s,) + tp.coeffs[1:]
            return dataclasses.replace(tp, coeffs=coeffs)

        monkeypatch.setattr(report, "twisted_polynomial", perturbed)
        reports = obstruct(11, exhaustive=True)
        assert len(calls) == 12
        for r in reports:
            assert r.characters_checked == 12
            assert r.verdict == "inconclusive"

    def test_small_knot_needs_explicit_witness(self):
        with pytest.raises(ValueError):
            obstruct(5)

    def test_alternate_witness_keeps_degree_count(self):
        for r in obstruct(11, s=67):
            assert r.degree_check
            assert r.total_degree == 18

    def test_unobstructed_witness_reports_inconclusive(self):
        # at n = 5 the orbit character factors as (1, 1, 2, 2), whose
        # norms admit a half sum, so the obstruction honestly fails
        reports = obstruct(5, s=11)
        plus = next(r for r in reports if r.sign == "+")
        minus = next(r for r in reports if r.sign == "-")
        assert plus.degree_check and minus.degree_check
        assert not plus.norm_obstructed
        assert minus.norm_obstructed
        assert all(r.verdict == "inconclusive" for r in reports)


class TestBadInputBeforeAnyStage:
    @pytest.mark.parametrize("n,s,theta,message", [
        (499, None, None, "classification needs a prime n = 5 mod 6"),
        (491, 7, None, "no 491-th roots of unity mod 7"),
        (491, 983, 1, "1 does not have order 491 mod 983"),
        (29, None, None, "no default witness for n=29"),
        (11, 24, None, "s=24 is not prime"),
        (11, 23, -2, r"^-2 \(21 mod 23\) does not have order 11 mod 23$"),
        (11, 23, 25, r"^theta=25 is outside \[0, 23\); its residue mod 23 "
                     r"is 2$"),
        (11, 23, -21, r"^theta=-21 is outside \[0, 23\); its residue mod "
                      r"23 is 2$"),
    ], ids=["n-499", "s-7", "theta-1", "no-witness", "s-24",
            "theta-out-of-range", "theta-25", "theta-minus-21"])
    def test_refused_before_the_linking_form(self, monkeypatch, n, s,
                                             theta, message):
        def linking_form(n):
            pytest.fail(f"linking_form({n}) ran before the refusal")

        monkeypatch.setattr(report, "linking_form", linking_form)
        with pytest.raises(ValueError, match=message):
            obstruct(n, s=s, theta=theta)

    @pytest.mark.parametrize("call, message", [
        (lambda: obstruct(11.0), "need an integer n >= 2, not 11.0"),
        (lambda: obstruct("11"), "need an integer n >= 2, not '11'"),
        (lambda: obstruct(11, s=23.0), "s must be an integer, not 23.0"),
        (lambda: obstruct(11, s=23, theta=2.0),
         "theta must be an integer, not 2.0"),
        (lambda: primitive_root_of_unity(23, 11.0),
         "d must be an integer, not 11.0"),
        (lambda: cover_homology_snf(11, 3.0),
         "the cover degree q must be an integer at least 1, got 3.0"),
        (lambda: cover_homology_snf(11.0, 3), "need an integer n >= 2, not 11.0"),
        (lambda: linking_form(11.0), "need an integer n >= 2, not 11.0"),
        (lambda: alexander_polynomial(11.0), "need an integer n >= 2, not 11.0"),
    ], ids=["obstruct-n", "obstruct-str-n", "obstruct-s", "obstruct-theta",
            "root-d", "snf-q", "snf-n", "linking-n", "alexander-n"])
    def test_a_non_integer_is_refused_by_name(self, monkeypatch, call,
                                              message):
        # each used to end in a TypeError from deep inside the computation
        def refuse(n):
            pytest.fail(f"obstruct built linking_form({n}) before refusing")

        monkeypatch.setattr(report, "linking_form", refuse)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: cover_homology_snf(11, True),
         "the cover degree q must be an integer at least 1, got True"),
        (lambda: cover_homology_snf(11, False),
         "the cover degree q must be an integer at least 1, got False"),
        (lambda: obstruct(11, exhaustive="no"),
         "exhaustive must be a bool, not 'no'"),
        (lambda: obstruct(11, exhaustive=1),
         "exhaustive must be a bool, not 1"),
        (lambda: obstruct(11, exhaustive=None),
         "exhaustive must be a bool, not None"),
    ], ids=["snf-q-true", "snf-q-false", "exhaustive-no", "exhaustive-1",
            "exhaustive-none"])
    def test_a_bool_number_or_a_non_bool_flag_is_refused(
            self, monkeypatch, call, message):
        # cover_homology_snf(11, True) returned a report with q=True, and
        # obstruct(11, exhaustive="no") ran the exhaustive path
        def refuse(*args):
            pytest.fail("a stage ran before the refusal")

        monkeypatch.setattr(report, "linking_form", refuse)
        monkeypatch.setattr(report, "census", refuse)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.fixture
def empty_census():
    """An empty census cache, emptied again afterwards so that nothing a
    test patched in stays cached for the next."""
    census.cache_clear()
    yield census
    census.cache_clear()


def counting(monkeypatch, name):
    """Replace report.<name> by a wrapper that records its calls."""
    calls = []
    fn = getattr(report, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(report, name, counted)
    return calls


class TestCensus:
    def test_three_witnesses_build_the_form_and_the_census_once(
            self, monkeypatch, empty_census):
        forms = counting(monkeypatch, "linking_form")
        lines = counting(monkeypatch, "enumerate_metabolizers")
        for s in (None, 67, 89):
            reports = obstruct(11, s=s)
            assert [r.metabolizer_count for r in reports] == [12, 12]
        assert len(forms) == len(lines) == 1
        assert census.cache_info().currsize == 1

    def test_stages_are_shared_and_immutable(self, empty_census):
        c = census(11)
        assert census(11) is c
        assert type(c.metabolizers) is tuple and len(c.metabolizers) == 12
        assert type(c.orbits) is tuple
        assert all(type(o) is tuple for o in c.orbits)
        assert c.orbit_sizes == (1, 11)
        assert (c.plus.sign, c.minus.sign) == ("+", "-")
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.form = None

    @pytest.mark.parametrize("call", [
        lambda: obstruct(499),
        lambda: obstruct(491, s=7),
        lambda: obstruct(11, s=24),
        lambda: obstruct(11, s=23, theta=1),
        lambda: obstruct(29),
        lambda: census(497),
        lambda: census(503),
        lambda: census(7),
    ], ids=["n-499", "s-7", "s-24", "theta-1", "no-witness", "census-497",
            "census-503", "census-7"])
    def test_refusal_leaves_the_cache_as_it_was(self, empty_census, call):
        with pytest.raises(ValueError):
            call()
        assert census.cache_info().currsize == 0

    def test_failed_build_is_retried(self, monkeypatch, empty_census):
        enumerate_metabolizers = report.enumerate_metabolizers
        calls = []

        def fails_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise ArithmeticError("injected")
            return enumerate_metabolizers(*args)

        monkeypatch.setattr(report, "enumerate_metabolizers", fails_once)
        with pytest.raises(ArithmeticError, match="injected"):
            obstruct(11)
        assert census.cache_info().currsize == 0
        assert [r.verdict for r in obstruct(11)] == ["not slice"] * 2
        assert len(calls) == 2
        assert census.cache_info().currsize == 1

    @pytest.mark.parametrize("regroup, message", [
        (lambda fixed, orbit: [[fixed] + orbit],
         "^metabolizer orbits must be sizes 1, n$"),
        (lambda fixed, orbit: [orbit[:1], [fixed] + orbit[1:]],
         "^the fixed metabolizer must be its own orbit$"),
    ], ids=["one-orbit-of-n-plus-1", "a-lone-line-not-fixed"])
    def test_a_wrong_orbit_decomposition_is_caught(
            self, monkeypatch, empty_census, regroup, message):
        # the same n + 1 lines, grouped as one orbit, or with a line of
        # the period orbit alone and the fixed one in the orbit of n
        orbit_decomposition = report.orbit_decomposition

        def regrouped(mets, n):
            (fixed,), orbit = orbit_decomposition(mets, n)
            return regroup(fixed, orbit)

        monkeypatch.setattr(report, "orbit_decomposition", regrouped)
        with pytest.raises(ArithmeticError, match=message):
            census(11)
        assert census.cache_info().currsize == 0

    def test_an_earlier_witness_leaves_the_reports_unchanged(self):
        # each run in a fresh interpreter, whose cache starts empty
        code = ("import json, sys\n"
                "from sliceobs.report import obstruct\n"
                "for s in map(json.loads, sys.argv[1:]):\n"
                "    rows = [r.to_dict() for r in obstruct(11, s=s)]\n"
                "print(json.dumps(rows))\n")
        outs = []
        for args in (["67", "null"], ["null"]):
            proc = run_python(["-c", code, *args], 120)
            assert proc.returncode == 0, proc.stderr
            outs.append(json.loads(proc.stdout))
        assert outs[0] == outs[1]
        assert [r["s"] for r in outs[0]] == [23, 23]


class TestVerifyTable:
    def test_selected_row(self):
        rows = verify_table([11])
        assert len(rows) == 2
        for row in rows:
            assert row["ok"]
            assert row["got"] == row["expected"]

    def test_refuses_a_bare_n(self, monkeypatch):
        # verify_table(11) ended in "'int' object is not iterable"
        monkeypatch.setattr(report, "obstruct", lambda n: pytest.fail(
            "a row was recomputed"))
        with pytest.raises(ValueError,
                           match="^ns must be a collection of n, not 11$"):
            verify_table(11)

    def test_row_fields(self):
        row = verify_table([11])[0]
        assert row["n"] == 11 and row["sign"] == "+"
        assert (row["s"], row["theta"]) == (23, 2)
        assert row["degree_sequence"] == (2, 2, 3, 3, 8)
