"""Prime-field polynomial arithmetic, factorization, and the norm
obstruction."""

import itertools
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ffpoly_oracle
import sliceobs
from fox_oracle import interpolate
from fresh_python import run_python
from sliceobs import ffpoly
from sliceobs.ffpoly import (FactorizationResult, degree_sequence,
                             derivative, factor, is_irreducible, is_prime,
                             monic, mul, norm_obstructed, poly_divmod,
                             poly_gcd, primitive_root_of_unity, sub, trim)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == trial_division_is_prime(n)
               for n in range(10 ** 5))


@pytest.mark.parametrize("n", [
    561,                   # Carmichael
    3215031751,            # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,   # strong pseudoprime to the bases 2 .. 23
    ffpoly._MR_BOUND,      # strong pseudoprime to the bases 2 .. 41
    ffpoly._MR_BOUND - 2,
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    if n >= ffpoly._MR_BOUND:
        with pytest.raises(ValueError, match=str(ffpoly._MR_BOUND)):
            is_prime(n)
    else:
        assert not is_prime(n)


@pytest.mark.parametrize("n", [7.0, 7919.0, "7", Fraction(7)],
                         ids=["7.0", "7919.0", "str", "Fraction"])
def test_is_prime_refuses_a_non_int(n):
    # a float equal to a prime is no int: 7.0 would pass the trial
    # division by 7, and 7919.0 would reach pow
    with pytest.raises(ValueError,
                       match=re.escape(f"integers only, not {n!r}")):
        is_prime(n)


def test_is_prime_takes_a_bool_as_an_int():
    assert not is_prime(True) and not is_prime(False)


@pytest.mark.parametrize("call", [factor, is_irreducible,
                                  sliceobs.is_irreducible])
def test_a_float_modulus_is_refused_by_name(call):
    # the modulus reaches is_prime, which names what it refuses
    with pytest.raises(ValueError, match="not 7.0"):
        call([1, 0, 1], 7.0)


def test_is_prime_on_a_twenty_digit_witness():
    # 10^19 + 3027 is prime and 1 mod 11, so it can serve as s for n = 11
    s = 10 ** 19 + 3027
    start = time.perf_counter()
    assert is_prime(s)
    assert pow(primitive_root_of_unity(s, 11), 11, s) == 1
    assert not is_prime(s * 100003)  # no factor below 10^5
    assert time.perf_counter() - start < 0.5


def test_trim_reduces_and_strips():
    assert trim([5, 7, 0], 5) == [0, 2]
    assert trim([0, 0, 0]) == []
    assert trim([1, 0, 3]) == [1, 0, 3]


def test_basic_ring_ops():
    s = 7
    a = [1, 2, 3]
    b = [6, 5]
    assert sub(a, b, s) == [2, 4, 3]
    assert sub(sub(a, b, s), sub([], b, s), s) == a
    assert mul([1, 1], [6, 1], s) == [6, 0, 1]
    assert mul(a, [], s) == []


def test_mul_packed_agrees_with_schoolbook():
    s = 23
    a = list(range(1, 40))
    b = list(range(3, 30))
    direct = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            direct[i + j] += ca * cb
    assert mul(a, b, s) == trim(direct, s)


def test_poly_divmod_roundtrip():
    s = 11
    a = [3, 1, 4, 1, 5, 9]
    b = [2, 7, 1]
    q, r = poly_divmod(a, b, s)
    assert sub(a, mul(q, b, s), s) == r
    assert len(r) < len(b)
    with pytest.raises(ZeroDivisionError):
        poly_divmod(a, [], s)


def test_poly_gcd_of_products():
    s = 13
    f = mul([1, 1], [2, 0, 1], s)
    g = mul([1, 1], [5, 1], s)
    assert poly_gcd(f, g, s) == [1, 1]
    assert poly_gcd(f, [], s) == monic(f, s)


def power_mod(base, e, modulus, s):
    """base^e modulo the polynomial modulus, e >= 0, the way `factor`
    takes its powers: by `_power` through the `_reducer` of the
    monic modulus, with base and 1 reduced by it first."""
    f = monic(modulus, s)
    one, base = poly_divmod([1], f, s)[1], poly_divmod(base, f, s)[1]
    return ffpoly._power(one, base, e, ffpoly._reducer(f, s))


def test_pow_mod_fermat():
    # t^s = t mod (t^s - t) factors; check small case by brute force
    s = 5
    modulus = [3, 1, 1]
    got = power_mod([0, 1], 25, modulus, s)
    brute = [0, 1]
    for _ in range(24):
        brute = poly_divmod(mul(brute, [0, 1], s), modulus, s)[1]
    assert got == brute


PRIMES = (2, 3, 5, 59, 65537, 2 ** 31 - 1)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 45), st.data())
def test_pow_mod_matches_schoolbook_oracle(s, d, data):
    # degrees from 0 (a constant modulus) to well past the sizes where
    # packing pays; the modulus need not be monic, and the base may be
    # longer than it
    coeff = st.integers(0, s - 1)
    modulus = (data.draw(st.lists(coeff, min_size=d, max_size=d))
               + [data.draw(st.integers(1, s - 1))])
    base = data.draw(st.lists(coeff, max_size=2 * d + 3))
    e = data.draw(st.one_of(st.integers(0, 3), st.integers(0, 10 ** 6),
                            st.integers(0, 2 ** 80)))
    assert power_mod(base, e, modulus, s) == \
        ffpoly_oracle.pow_mod(base, e, modulus, s)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_poly_gcd_matches_divmod_oracle(s, data):
    # unreduced entries and trailing zeros on the way in; half the time a
    # common factor, so that most of those gcds are not 1
    coeff = st.integers(-2 * s, 2 * s)
    a, b, g = (data.draw(st.lists(coeff, max_size=14)) for _ in range(3))
    if data.draw(st.booleans()):
        a, b = mul(a, g, s), mul(b, g, s)
    assert poly_gcd(a, b, s) == ffpoly_oracle.poly_gcd(a, b, s)


def test_pow_mod_edge_cases():
    s = 7
    assert power_mod([3, 1], 0, [1, 2, 3], s) == [1]
    assert power_mod([3, 1], 0, [4], s) == []
    assert power_mod([3, 1], 5, [4], s) == []
    assert power_mod([], 5, [1, 2, 3], s) == []
    assert power_mod([2], 3, [1, 1], s) == [1]


def value_at(poly, x, s):
    """poly(x) mod s, term by term, independently of Horner's rule."""
    return sum(c * pow(x, i, s) for i, c in enumerate(poly)) % s


# Newton interpolation at any distinct nodes lives with the dense Fox
# oracle in tests/fox_oracle.py, which takes its determinants through it


def test_evaluate_and_interpolate():
    s = 23
    poly = [5, 0, 3, 1]
    xs = [0, 1, 2, 3]
    ys = [value_at(poly, x, s) for x in xs]
    assert interpolate(xs, ys, s) == poly


def test_interpolate_rejects_bad_points():
    with pytest.raises(ValueError, match="distinct"):
        interpolate([1, 24], [0, 0], 23)
    with pytest.raises(ValueError, match="one value per point"):
        interpolate([1, 2], [0], 23)


@pytest.mark.parametrize("xs, ys, message", [
    ([1, 2], [1.5, 2], "value must be an integer, not 1.5"),
    ([1, 2.0], [1, 2], "point must be an integer, not 2.0"),
    ([1, "2"], [1, 2], "point must be an integer, not '2'")])
def test_interpolate_refuses_a_non_integer(xs, ys, message):
    # 1.5 came back as the "polynomial" [1.0, 0.5]
    with pytest.raises(ValueError, match=f"^an interpolation {message}$"):
        interpolate(xs, ys, 7)


@settings(max_examples=60)
@given(st.lists(st.integers(0, 22), min_size=1, max_size=8),
       st.integers(0, 22))
def test_interpolation_recovers_random_polys(coeffs, shift):
    s = 23
    poly = trim(coeffs, s)
    xs = [(shift + i) % s for i in range(len(coeffs) + 1)]
    ys = [value_at(poly, x, s) for x in xs]
    assert interpolate(xs, ys, s) == poly


@settings(max_examples=60)
@given(st.lists(st.integers(0, 22), min_size=1, max_size=8),
       st.randoms(use_true_random=False))
def test_interpolation_at_scattered_nodes(coeffs, rng):
    # unequal node gaps, so each distinct difference has its own inverse
    s = 23
    poly = trim(coeffs, s)
    xs = rng.sample(range(-40, 40), len(coeffs) + 1)
    if len({x % s for x in xs}) < len(xs):
        xs = rng.sample(range(s), len(xs))
    ys = [value_at(poly, x, s) for x in xs]
    assert interpolate(xs, ys, s) == poly


def test_derivative():
    assert derivative([4, 3, 2, 1], 7) == [3, 4, 3]
    assert derivative([9], 7) == []


def test_factor_known_splitting():
    s = 23
    # t^2 + 13t + 1 = (t + 17)(t + 19) mod 23
    res = factor([1, 13, 1], s)
    assert res.unit == 1
    assert res.factors == (((17, 1), 1), ((19, 1), 1))
    # t^2 + 13t + 10 is irreducible mod 23
    res2 = factor([10, 13, 1], s)
    assert res2.factors == (((10, 13, 1), 1),)


def test_factor_with_multiplicity_and_unit():
    s = 11
    f = mul(mul([1, 1], [1, 1], s), [3, 1], s)
    f = ffpoly.scalar_mul(7, f, s)
    res = factor(f, s)
    assert res.unit == 7
    assert res.factors == (((1, 1), 2), ((3, 1), 1))
    assert res.product() == f
    assert res.expanded() == [[1, 1], [1, 1], [3, 1]]


def test_factor_frobenius_power():
    s = 5
    # (t + 1)^5 = t^5 + 1 mod 5
    f = [1] + [0] * 4 + [1]
    res = factor(f, s)
    assert res.factors == (((1, 1), 5),)


def test_factor_multiplicity_divisible_by_s_beside_other_factors():
    # the s-th power left after the squarefree loop had its multiplicity
    # scaled by s twice, so these raised "does not multiply back"
    assert factor([0, 0, 0, 1, 1], 3).factors == (((0, 1), 3), ((1, 1), 1))
    f = mul([0, 0, 0, 0, 0, 1], mul([1, 1], [1, 1], 5), 5)  # t^5 (t+1)^2
    assert factor(f, 5).factors == (((0, 1), 5), ((1, 1), 2))


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor([], 7)


def test_factor_refuses_a_modulus_that_is_no_int():
    # "7" was compared with 2 before the primality test, a TypeError;
    # is_prime now refuses it first, by name
    with pytest.raises(ValueError, match="integers only, not '7'$"):
        factor([1, 1], "7")


@pytest.mark.parametrize("s", (4, 9, 15))
def test_factor_rejects_non_prime_modulus(s):
    with pytest.raises(ValueError, match=(
            f"^factor needs an odd prime modulus, not s={s}$")):
        factor([1, 1, 1], s)


# the twin of test_factor_rejects_non_prime_modulus, which runs with the
# scale checks, as -O cannot change what the package does
@pytest.mark.scale
@pytest.mark.parametrize("s", (4, 9, 15))
def test_factor_rejects_non_prime_modulus_under_optimize(s):
    # as an assert this check vanished under -O: s = 15 returned a factor
    # that does not multiply back, s = 9 divided by zero, s = 4 hung
    code = f"from sliceobs.ffpoly import factor\nfactor([1, 1, 1], {s})\n"
    proc = run_python(["-O", "-c", code], 60)
    assert proc.returncode != 0
    assert "ValueError" in proc.stderr


def test_factor_is_deterministic():
    s = 47
    f = [7, 0, 0, 5, 1, 0, 3, 1]
    assert factor(f, s) == factor(f, s)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 10), min_size=2, max_size=10))
def test_factor_product_roundtrip(coeffs):
    s = 11
    f = trim(coeffs, s)
    if not f:
        return
    res = factor(f, s)
    assert isinstance(res, FactorizationResult)
    assert res.product() == f
    for poly, _ in res.factors:
        assert is_irreducible(list(poly), s)
        assert poly[-1] == 1


def test_factor_bounds_cantor_zassenhaus_retries():
    # with the power (s - 1)/2 of each equal-degree draw stubbed to 1,
    # and every other power (the x^s of each Frobenius map) left as it
    # is, the gcd of power - 1 with (t^2 + 1)(t^2 + 4) mod 1000003 is
    # the whole product, so no draw splits it; the retries used to run
    # in a `while True`, so factor hung
    s = 1000003
    assert is_irreducible([1, 0, 1], s) and is_irreducible([4, 0, 1], s)
    code = ("from sliceobs import ffpoly\n"
            "power = ffpoly._power\n"
            "ffpoly._power = lambda r, b, e, mulmod: (\n"
            f"    [1] if e == {(s - 1) // 2} else power(r, b, e, mulmod))\n"
            f"ffpoly.factor([4, 0, 5, 0, 1], {s})\n")
    proc = run_python(["-c", code], 60)
    assert proc.returncode != 0
    assert "ArithmeticError" in proc.stderr
    assert "no split" in proc.stderr


# -- self-reciprocal polynomials through their trace polynomial ---------------


def lifted(g, s):
    """t^e g(t + 1/t) for g of degree e, expanded term by term as the sum
    of g_j t^(e-j) (t^2 + 1)^j."""
    e = len(g) - 1
    out = []
    for j, c in enumerate(g):
        term = [0] * (e - j) + [c]
        for _ in range(j):
            term = mul(term, [1, 0, 1], s)
        out = [(x + y) % s for x, y in
               itertools.zip_longest(out, term, fillvalue=0)]
    return trim(out)


@pytest.mark.parametrize("s", (3, 7, 23))
def test_trace_polynomial_inverts_the_lift(s):
    rng = random.Random(s)
    for e in range(8):
        g = [rng.randrange(s) for _ in range(e)] + [rng.randrange(1, s)]
        assert ffpoly._lift(g, s) == lifted(g, s)
        assert ffpoly._trace_polynomial(lifted(g, s), s) == g


def factor_by_route(monkeypatch, p, s):
    """factor(p, s), checked against the oracle, and the degrees of the
    polynomials that `factor` passed to `_trace_polynomial`: one per
    level of the trace route, none on the other route."""
    traced = []
    real_trace = ffpoly._trace_polynomial

    def counting_trace(p, s):
        traced.append(len(p) - 1)
        return real_trace(p, s)

    monkeypatch.setattr(ffpoly, "_trace_polynomial", counting_trace)
    got = factor(p, s)
    assert got == ffpoly_oracle.factor(p, s)
    return got, traced


@pytest.mark.parametrize("s", (7, 23))
def test_each_quadratic_lift_matches_factor(s, monkeypatch):
    # t^2 - c t + 1 = t (t + 1/t - c): (t -+ 1)^2 at c = +-2, irreducible
    # when c^2 - 4 is not a square mod s, a reciprocal pair when it is;
    # both cases occur at each s, each through the trace route once
    multiplicities = set()
    for c in range(s):
        p = [1, -c % s, 1]
        got, traced = factor_by_route(monkeypatch, p, s)
        assert traced == [2]
        multiplicities.add(tuple(m for _, m in got.factors))
    assert multiplicities == {(1,), (2,), (1, 1)}


@pytest.mark.parametrize("s", (3, 7, 23))
def test_constants_and_linear_palindromes_take_the_direct_route(s,
                                                                monkeypatch):
    # a constant reads the same both ways, and so does c (t + 1); the
    # trace polynomial of a constant is itself, so only degree >= 2
    # takes the trace route
    for c in range(1, s):
        for p in ([c], [c, c]):
            got, traced = factor_by_route(monkeypatch, p, s)
            assert traced == [] and got.unit == c


@pytest.mark.parametrize("s", (3, 7, 23))
def test_powers_of_t_minus_one_and_t_plus_one(s, monkeypatch):
    # (t - 1)^j (t + 1)^k reads the same both ways exactly when j is
    # even; of degree >= 2 it then takes the trace route, which takes
    # t + 1 out once for an odd k and lifts z -+ 2 to (t -+ 1)^2
    for j in range(5):
        for k in range(5):
            p = [1]
            for root in [1] * j + [s - 1] * k:
                p = mul(p, [-root % s, 1], s)
            got, traced = factor_by_route(monkeypatch, p, s)
            assert got.factors == tuple(
                (g, m) for g, m in (((1, 1), k), ((s - 1, 1), j)) if m)
            # (t + 1)^4 at s = 3 has the trace polynomial
            # (z + 2)^2 = z^2 + z + 1, which takes the route again
            assert bool(traced) == (j % 2 == 0 and j + k >= 2)


@pytest.mark.parametrize("s", (5, 7, 23))
def test_a_palindrome_that_is_not_monic(s, monkeypatch):
    # a unit c times h(t) t^deg h(1/t): the trace route keeps c as the
    # unit and returns monic factors
    rng = random.Random(s)
    for c in range(2, s):
        h = [1] + [rng.randrange(s) for _ in range(3)] + [1]
        p = ffpoly.scalar_mul(c, mul(h, h[::-1], s), s)
        got, traced = factor_by_route(monkeypatch, p, s)
        assert got.unit == c and traced[0] == 8
        assert all(g[-1] == 1 for g, _ in got.factors)


def test_a_palindrome_whose_trace_polynomial_reads_the_same_both_ways(
        monkeypatch):
    # q(z) = z^4 + 3 z^3 + 5 z^2 + 3 z + 1 reads the same both ways, so
    # factor(q) takes the trace route again: p = t^4 q(t + 1/t) of degree
    # 8, then q of degree 4, whose trace polynomial z^2 + 3 z + 3 does not
    s = 23
    q = [1, 3, 5, 3, 1]
    p = lifted(q, s)
    assert p == p[::-1] and ffpoly._trace_polynomial(p, s) == q
    assert ffpoly._trace_polynomial(q, s) == [3, 3, 1]
    _, traced = factor_by_route(monkeypatch, p, s)
    assert traced == [8, 4]


@pytest.mark.parametrize("p", ([1, 2], [1, 1, 2], [0, 1, 0], [1, 0, 6]))
def test_what_does_not_read_the_same_both_ways_skips_the_trace_route(
        p, monkeypatch):
    _, traced = factor_by_route(monkeypatch, p, 7)
    assert traced == []


def test_a_product_of_irreducible_lifts_and_pairs_matches_factor():
    # at s = 7, g = z^2 + 1 has g(2) g(-2) = 25 = 4, a square, so its
    # lift is a pair; g = z^2 + z + 3 has 9 * 5 = 3, not a square, so its
    # lift is irreducible
    s = 7
    pair, single = lifted([1, 0, 1], s), lifted([3, 1, 1], s)
    p = mul(mul(mul(pair, pair, s), single, s), [1, 1], s)
    got = factor(p, s)
    assert got == ffpoly_oracle.factor(p, s)
    assert degree_sequence(got) == [1, 2, 2, 2, 2, 4]


def reciprocal_products(s, data):
    """A unit times lifts t^e g(t + 1/t) of random g, (t -+ 1)^2, t + 1
    and products h(t) t^deg h(1/t), each to a multiplicity, of degree at
    most 30."""
    p = [data.draw(st.integers(1, s - 1))]
    for _ in range(data.draw(st.integers(0, 5))):
        kind = data.draw(st.sampled_from(("lift", "pair", "(t-1)^2",
                                          "t+1")))
        if kind == "lift":
            e = data.draw(st.integers(1, 4))
            g = data.draw(st.lists(st.integers(0, s - 1), min_size=e,
                                   max_size=e)) + [1]
            piece = lifted(g, s)
        elif kind == "pair":
            h = data.draw(st.lists(st.integers(0, s - 1), min_size=1,
                                   max_size=4)) + [1]
            h[0] = h[0] or 1
            piece = mul(h, h[::-1], s)
        else:
            piece = {"(t-1)^2": [1, s - 2, 1], "t+1": [1, 1]}[kind]
        for _ in range(data.draw(st.integers(1, 3))):
            if len(p) + len(piece) - 2 > 30:
                break
            p = mul(p, piece, s)
    return p


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((3, 5, 7, 11, 23, 103)), st.data())
def test_self_reciprocal_products_match_the_oracle(s, data):
    p = reciprocal_products(s, data)
    assert p == p[::-1]
    assert factor(p, s) == ffpoly_oracle.factor(p, s)


def test_is_irreducible_cases():
    assert is_irreducible([1, 1], 7)
    assert not is_irreducible([1], 7)
    assert not is_irreducible([1, 0, 1], 5)   # (t+2)(t+3) mod 5
    assert is_irreducible([1, 1, 1], 5)
    assert not is_irreducible(mul([1, 1, 1], [1, 1, 1], 5), 5)


def test_is_irreducible_stops_distinct_degree_below_twice_d(monkeypatch):
    # an irreducible quintic needs the probes d = 1, 2 only: with no
    # factor of degree <= 2, a remainder of degree 5 < 2 * 3 is
    # irreducible, so a third t^(s^3) is wasted work; each probe is one
    # application of the Frobenius map, whose rows need one x^s, taken
    # by `_power` with the exponent s
    s = 23
    f = [3, 1, 0, 0, 0, 1]  # t^5 + t + 3
    applied, powers = [], []
    real_frobenius, real_power = ffpoly._frobenius, ffpoly._power

    def counting_frobenius(modulus, s, mulmod):
        frobenius = real_frobenius(modulus, s, mulmod)

        def apply(h):
            applied.append(len(modulus) - 1)
            return frobenius(h)
        return apply

    def counting_power(result, base, e, mulmod):
        if e == s:
            powers.append(e)
        return real_power(result, base, e, mulmod)

    monkeypatch.setattr(ffpoly, "_frobenius", counting_frobenius)
    monkeypatch.setattr(ffpoly, "_power", counting_power)
    assert is_irreducible(f, s)
    assert (applied, powers) == ([5, 5], [s])
    applied.clear()
    powers.clear()
    assert factor(f, s).factors == ((tuple(f), 1),)
    assert (applied, powers) == ([5, 5], [s])


def test_one_barrett_reducer_per_modulus_however_many_draws(monkeypatch):
    # (t^2 + 1)(t^2 + 4)(t + 3) mod 1000003: the map of the quintic and
    # the split of the two quadratics each build one reducer and take
    # every power through it, the x^s and those of all the draws.
    # Without t + 3 the quartic is the map's modulus as well as the
    # split's, and each builds its own: two builds
    s = 1000003
    quartic = mul([1, 0, 1], [4, 0, 1], s)
    quintic = mul(quartic, [3, 1], s)
    builds, draws = [], []
    real_reducer, real_power = ffpoly._reducer, ffpoly._power

    def counting_reducer(modulus, s):
        builds.append(tuple(modulus))
        return real_reducer(modulus, s)

    def counting_power(result, base, e, mulmod):
        if e == (s - 1) // 2:
            draws.append(e)
        return real_power(result, base, e, mulmod)

    monkeypatch.setattr(ffpoly, "_reducer", counting_reducer)
    monkeypatch.setattr(ffpoly, "_power", counting_power)
    assert degree_sequence(factor(quintic, s)) == [1, 2, 2]
    assert len(draws) >= 2
    assert builds == [tuple(quintic), tuple(quartic)]
    builds.clear()
    draws.clear()
    assert degree_sequence(factor(quartic, s)) == [2, 2]
    assert len(draws) >= 1
    assert builds == [tuple(quartic), tuple(quartic)]


@pytest.mark.parametrize("d", (2, 3, 5))
def test_equal_degree_split_divides_only_by_the_factors_it_finds(
        d, monkeypatch):
    # four distinct degree-d irreducibles mod 1000003: each split, and
    # each part it recurses into, takes its Frobenius images from the
    # map of the product it splits, so no image needs a reduction, and
    # poly_divmod only divides that product by a factor found, exactly:
    # three splits, three divisions
    s = 1000003
    rng = random.Random(d)
    irreducibles = []
    while len(irreducibles) < 4:
        g = _irreducible(d, s, rng)
        if g not in irreducibles:
            irreducibles.append(g)
    f = [1]
    for g in irreducibles:
        f = mul(f, g, s)
    want = ffpoly_oracle.factor(f, s)
    splitting, divisions = [], []
    real_split, real_divmod = ffpoly._equal_degree_split, poly_divmod

    def tracked_split(f, *args):
        splitting.append(f)
        try:
            return real_split(f, *args)
        finally:
            splitting.pop()

    def counting_divmod(a, b, s):
        q, r = real_divmod(a, b, s)
        if splitting:
            divisions.append((a == splitting[-1], r, 1 < len(b) < len(a)))
        return q, r

    monkeypatch.setattr(ffpoly, "_equal_degree_split", tracked_split)
    monkeypatch.setattr(ffpoly, "poly_divmod", counting_divmod)
    assert factor(f, s) == want
    assert len(divisions) == 3
    assert all(division == (True, [], True) for division in divisions)


ORACLE_PRIMES = (3, 5, 23, 1000003, 2 ** 31 - 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_PRIMES), st.data())
def test_factor_matches_oracle_route(s, data):
    # the oracle raises h^s and u^((s^d - 1)/2) by pow_mod; the program
    # takes both through the Frobenius map, and must factor alike
    coeff = st.integers(0, s - 1)
    f = (data.draw(st.lists(coeff, max_size=12))
         + [data.draw(st.integers(1, s - 1))])
    assert factor(f, s) == ffpoly_oracle.factor(f, s)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORACLE_PRIMES), st.integers(2, 4), st.integers(2, 6),
       st.integers(1, 10 ** 6), st.integers(0, 2 ** 32))
def test_factor_matches_oracle_route_on_equal_degree_products(s, d, k, unit,
                                                             seed):
    # distinct irreducibles of one degree d >= 2, at least two of them,
    # so Cantor-Zassenhaus splits by the norm, and recurses from three on
    k = min(k, 12 // d)
    rng = random.Random(seed)
    irreducibles = []
    for _ in range(500):
        g = [rng.randrange(s) for _ in range(d)] + [1]
        if (g not in irreducibles and ffpoly_oracle.factor(g, s).factors
                == ((tuple(g), 1),)):
            irreducibles.append(g)
            if len(irreducibles) == k:
                break
    assert len(irreducibles) >= 2
    f = [unit % s or 1]
    for g in irreducibles:
        f = mul(f, g, s)
    want = ffpoly_oracle.factor(f, s)
    assert degree_sequence(want) == [d] * len(irreducibles)
    assert factor(f, s) == want


def test_frobenius_map_at_the_carry_edge():
    # every coefficient of h and of the modulus at s - 1, at word size s:
    # an image coefficient sums 30 products below s^2 before it is
    # reduced, which the `_limb` bound of the packed rows must hold
    s = 2 ** 31 - 1
    f = [s - 1] * 30 + [1]
    h = [s - 1] * 30
    frobenius = ffpoly._frobenius(f, s, ffpoly._reducer(f, s))
    assert frobenius(h) == ffpoly_oracle.pow_mod(h, s, f, s)


# a 24-digit prime, below the bound of `is_prime`
BIG_PRIME = 10 ** 23 + 117


@pytest.mark.parametrize("s", (3, 23, 59, 2 ** 31 - 1, BIG_PRIME))
@pytest.mark.parametrize("d", (1, 2, 3, 17, 54, 60))
def test_barrett_reducer_matches_schoolbook_division(d, s):
    # random reduced operands, the square of one list (x is y), operands
    # too short to need a reduction, zero operands, and operands with
    # every coefficient at s - 1 against a modulus that has them too,
    # where the packed limbs come nearest their bound
    assert is_prime(s) and s < ffpoly._MR_BOUND
    rng = random.Random(d * s)
    worst = [s - 1] * d + [1]
    for f in ([rng.randrange(s) for _ in range(d)] + [1], worst):
        mulmod = ffpoly._reducer(f, s)

        def check(x, y):
            assert mulmod(x, y) == poly_divmod(mul(x, y, s), f, s)[1]

        full = trim([rng.randrange(s) for _ in range(d)])
        check(full, trim([rng.randrange(s) for _ in range(d)]))
        check(full, full)
        check(worst[:d], worst[:d])
        check(trim([rng.randrange(1, s)]), full)
        check(full, trim([rng.randrange(s), rng.randrange(1, s)][:d]))
        check([], full)
        check(full, [])
        check([], [])


def _irreducible(d, s, rng):
    """A random monic irreducible of degree d over Z/s: the first draw
    that `is_irreducible` accepts, certified by the oracle's
    distinct-degree stage."""
    g = [1]
    while not is_irreducible(g, s):
        g = [rng.randrange(s) for _ in range(d)] + [1]
    assert ffpoly_oracle._distinct_degree(g, s) == [(g, d)]
    return g


BLOCK_EDGE_DEGREES = (
    (1, 2, 8, 9, 16, 17),  # on both sides of the first two block edges
    (8, 8, 9, 9),          # each edge degree twice, split by the norm
    (16, 17),              # the second block refines two steps apart
    (2, 3, 11),            # the stopping rule, mid-block, block spent
    (1, 1, 1, 1, 5),       # the stopping rule, mid-block, quintic left
)


# each degree set reaches its branch at s = 23; at s = 2^31 - 1 those of
# total degree above 30 only repeat it with wider coefficients, at about
# 0.5 to 1 s each, so they run with the scale checks
@pytest.mark.parametrize("degrees, s", [
    pytest.param(degrees, s, id=f"degrees{i}-{s}", marks=(
        pytest.mark.scale if s > 23 and sum(degrees) > 30 else ()))
    for i, degrees in enumerate(BLOCK_EDGE_DEGREES)
    for s in (23, 2 ** 31 - 1)])
def test_factor_matches_oracle_across_block_edges(s, degrees):
    # blocks of `_BLOCK` = 8 steps end at d = 8, 16, 24, ..., each
    # clamped to deg rest / 2.  (2, 3, 11) has the block 1-8, yields the
    # quadratic and the cubic, and rest, of degree 11 < 2 * 6, stops the
    # loop at d = 6.  (1, 1, 1, 1, 5) has the block 1-4, yields the
    # linear factors at d = 1, and rest, the quintic, is still in the
    # block's gcd when 5 < 2 * 3 stops the loop at d = 3
    rng = random.Random(sum(degrees) * s)
    factors = []
    for d in degrees:
        g = _irreducible(d, s, rng)
        while g in factors:
            g = _irreducible(d, s, rng)
        factors.append(g)
    f = [rng.randrange(1, s)]
    for g in factors:
        f = mul(f, g, s)
    got = factor(f, s)
    assert got == ffpoly_oracle.factor(f, s)
    assert degree_sequence(got) == sorted(degrees)


def test_one_unpack_per_reduced_product(monkeypatch):
    # each product packs its operands (one of them when x is y), unpacks
    # its count - d high limbs, and unpacks the d-limb remainder once:
    # no quotient is formed, and the row sum stays packed
    s, d = 59, 30
    rng = random.Random(7)
    f = [rng.randrange(s) for _ in range(d)] + [1]
    x = [rng.randrange(s) for _ in range(d - 1)] + [1]
    y = [rng.randrange(s) for _ in range(d - 1)] + [2]
    mulmod = ffpoly._reducer(f, s)
    packs, unpacks = [], []
    real_pack, real_unpack = ffpoly._pack, ffpoly._unpack

    def counting_pack(*args):
        packs.append(len(args[0]))
        return real_pack(*args)

    def counting_unpack(*args):
        unpacks.append(args[2])
        return real_unpack(*args)

    monkeypatch.setattr(ffpoly, "_pack", counting_pack)
    monkeypatch.setattr(ffpoly, "_unpack", counting_unpack)
    assert mulmod(x, y) == poly_divmod(mul(x, y, s), f, s)[1]
    assert (packs, unpacks) == ([d, d], [d - 1, d])
    packs.clear()
    unpacks.clear()
    assert mulmod(x, x) == poly_divmod(mul(x, x, s), f, s)[1]
    assert (packs, unpacks) == ([d], [d - 1, d])
    packs.clear()
    unpacks.clear()
    # a product of degree below d needs no reduction: one unpack
    assert mulmod(x[:10], y[:12]) == mul(x[:10], y[:12], s)
    assert (packs, unpacks) == ([10, 12], [21])


@pytest.mark.parametrize("s, d", ((3, 3), (5, 2)))
def test_reducer_on_every_product_modulo_every_monic_modulus(s, d):
    # every pair of reduced operands against every monic modulus: some
    # remainder limb needs all the bits of (2d - 1)(s - 1)^2, the bound
    # the reducer's limb is sized for, so a limb one bit short fails
    reduced = [trim(list(c)) for c in itertools.product(range(s), repeat=d)]
    for low in itertools.product(range(s), repeat=d):
        f = list(low) + [1]
        mulmod = ffpoly._reducer(f, s)
        for x in reduced:
            for y in reduced:
                assert mulmod(x, y) == poly_divmod(mul(x, y, s), f, s)[1]


def _leaf_pack(a, limb):
    packed = 0
    for c in reversed(a):
        packed = (packed << limb) | c
    return packed


def _leaf_unpack(packed, limb, count, s):
    out = []
    for _ in range(count):
        out.append((packed & ((1 << limb) - 1)) % s)
        packed >>= limb
    return out


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((1, 31, 32, 33, 63, 64, 65, 1000)),
       st.integers(1, 140), st.integers(0, 2 ** 32), st.booleans())
def test_pack_and_unpack_by_halves_match_the_leaf_loop(count, limb, seed,
                                                       prefix):
    # counts on both sides of the leaf (32 limbs) and of its double, and
    # one long enough to halve five times; a quarter of the entries at
    # 2^limb - 1, so a limb one bit short or a split off by one limb
    # shows; the unpack reads all the limbs, or a prefix, reduced mod a
    # small s or mod one above every entry
    top = (1 << limb) - 1
    rng = random.Random(seed)
    a = [rng.choice((top, rng.randrange(top + 1))) if rng.randrange(2)
         else rng.randrange(top + 1) for _ in range(count)]
    packed = ffpoly._pack(a, limb)
    assert packed == _leaf_pack(a, limb)
    first = count // 2 + 1 if prefix else count
    for s in (3, top + 1):
        assert (ffpoly._unpack(packed, limb, first, s)
                == _leaf_unpack(packed, limb, first, s))
    assert ffpoly._unpack(packed, limb, count, top + 1) == a


def test_factor_matches_oracle_above_the_leaf():
    # a degree-86 product at s = 607: its products and Frobenius images
    # pack and unpack more limbs than the leaf, so they go by halves
    s = 607
    degrees = (1,) * 6 + (2,) * 4 + (3,) * 3 + (5, 7, 11, 17, 23)
    rng = random.Random(607)
    factors = []
    for d in degrees:
        g = _irreducible(d, s, rng)
        while g in factors:
            g = _irreducible(d, s, rng)
        factors.append(g)
    f = [5]
    for g in factors:
        f = mul(f, g, s)
    assert len(f) - 1 > 2 * ffpoly._LEAF
    got = factor(f, s)
    assert got == ffpoly_oracle.factor(f, s)
    assert degree_sequence(got) == sorted(degrees)


def test_one_gcd_per_block_of_the_distinct_degree_loop(monkeypatch):
    # an irreducible of degree 40 takes the steps d = 1 .. 20, in the
    # blocks 1-8, 9-16 and 17-20 (clamped to 40 / 2); no block gcd is
    # nontrivial, so nothing is refined: three gcds for twenty images
    s = 23
    f = _irreducible(40, s, random.Random(40))
    gcds = []
    real_gcd = ffpoly.poly_gcd

    def counting_gcd(a, b, s):
        gcds.append(len(b) - 1)
        return real_gcd(a, b, s)

    monkeypatch.setattr(ffpoly, "poly_gcd", counting_gcd)
    assert list(ffpoly._distinct_degree(f, s)) == [(f, 40)]
    assert gcds == [40, 40, 40]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((3, 5, 7, 23)), st.data())
def test_is_irreducible_agrees_with_factor(s, data):
    f = trim(data.draw(st.lists(st.integers(0, s - 1), max_size=12))
             + [data.draw(st.integers(1, s - 1))], s)
    assert is_irreducible(f, s) == (degree_sequence(factor(f, s))
                                    == [len(f) - 1])


@pytest.mark.parametrize("s", (1, 4, 9, 15))
def test_is_irreducible_rejects_non_prime_modulus(s):
    # these used to answer: s = 4 gave True for t^2 + 1, s = 1 and 9 False
    with pytest.raises(ValueError, match="prime modulus"):
        is_irreducible([1, 0, 1], s)


@pytest.mark.parametrize("call, bad", [
    (lambda: factor([1.5, 1], 5), "1.5"),
    (lambda: factor([1, 2.0, 1], 7), "2.0"),
    (lambda: factor([1, Fraction(1, 2)], 5), "Fraction(1, 2)"),
    # reads the same both ways, so it is refused before the route choice
    (lambda: factor([2.0, 3, 2], 7), "2.0"),
    (lambda: is_irreducible([1.5, 1], 5), "1.5"),
    (lambda: is_irreducible([1, 0, 1.0], 7), "1.0"),
], ids=["factor-1.5", "factor-2.0", "factor-fraction", "reciprocal-2.0",
        "irreducible-1.5", "irreducible-1.0"])
def test_a_coefficient_that_is_not_an_int_is_refused(call, bad):
    # factor used to return a float factor, and is_irreducible to end in
    # a TypeError from pow inside poly_gcd
    with pytest.raises(ValueError, match=re.escape(
            f"a coefficient must be an integer, not {bad}")):
        call()


def test_degree_sequence():
    res = factor([1, 0, 0, 0, 0, 0, 1], 23)  # t^6 + 1
    degs = degree_sequence(res)
    assert sum(degs) == 6
    assert degs == sorted(degs)
    pairs = FactorizationResult(23, 1, (((0, 1), 2), ((1, 2, 1), 1)))
    assert degree_sequence(pairs) == [1, 1, 2]


def test_primitive_root_of_unity():
    theta = primitive_root_of_unity(23, 11)
    assert pow(theta, 11, 23) == 1 and theta != 1
    assert primitive_root_of_unity(23, 11, 2) == 2
    with pytest.raises(ValueError):
        primitive_root_of_unity(23, 11, 5)
    with pytest.raises(ValueError):
        primitive_root_of_unity(23, 7)
    with pytest.raises(ValueError):
        primitive_root_of_unity(111, 11)


def test_norm_obstruction_oracles():
    # no sub-multiset of (2,2,3,3,8) sums to 9
    assert norm_obstructed([2, 2, 3, 3, 8])
    assert norm_obstructed([4, 14])
    # 1 + 1 + 7 = 9 reaches half of 18
    assert not norm_obstructed([1, 1, 1, 1, 7, 7])
    assert not norm_obstructed([9, 9])
    assert norm_obstructed([1, 4, 13])


def test_norm_obstruction_rejects_inconsistent_totals():
    # a norm f(t) f(1/t) has even degree, so an odd total rules it out;
    # there is no `half` to pass, so none can contradict the degrees
    assert norm_obstructed([1, 2]) is True
    assert norm_obstructed([3]) is True
    with pytest.raises(TypeError):
        norm_obstructed([2, 2], half=5)


@pytest.mark.parametrize("degrees, bad", [
    ([1.5], "1.5"), ([2, 2.0], "2.0"), ([-1, 3], "-1"), ([True, 1], "True")])
def test_norm_obstruction_refuses_a_bad_degree(degrees, bad):
    # [1.5] read as "obstructed", and [-1, 3] ended in "negative shift
    # count"
    with pytest.raises(ValueError,
                       match=f"^a degree must be an integer at least 0, "
                             f"not {bad}$"):
        norm_obstructed(degrees)


@pytest.mark.parametrize("call, answer", (
    pytest.param("norm_obstructed([1, 2])", "True",
                 id="norm_obstructed([1, 2])"),
    pytest.param("norm_obstructed([2, 2], half=5)", "TypeError",
                 id="norm_obstructed([2, 2], half=5)")))
def test_norm_obstruction_rejects_under_optimize(call, answer):
    # as asserts these checks vanished under -O: half=5 read as
    # "obstructed", and the odd total as "not obstructed"
    code = f"from sliceobs.ffpoly import norm_obstructed\nprint({call})\n"
    proc = run_python(["-O", "-c", code], 60)
    if answer == "TypeError":
        assert proc.returncode != 0
        assert "TypeError" in proc.stderr
    else:
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [answer]


@given(st.lists(st.integers(1, 12), min_size=1, max_size=10))
def test_norm_obstruction_matches_brute_force(degs):
    total = sum(degs)
    if total % 2:
        return
    half = total // 2
    reachable = {0}
    for d in degs:
        reachable |= {r + d for r in reachable}
    assert norm_obstructed(degs) == (half not in reachable)
