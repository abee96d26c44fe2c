"""End-to-end sliceness obstruction reports for the braid-closure
family, plus the reference tables they are checked against.

For each n the two character classes (the fixed metabolizer and the
orbit representative) get a twisted polynomial over Z/s; the report
records its factorization by `ffpoly.factor` (chi-'s polynomial reads
the same both ways, so `factor` takes it through its trace polynomial),
the degree count against 2(n-2), and the subset-sum norm obstruction.
The reference factor tables below pin the expected output for
n = 11, 17, 23 at the default (s, theta) witnesses.

Only the twisted polynomial and its factorization depend on the witness
(s, theta).  Everything before them, the presentation, the linking
form, the metabolizers, their orbits and the two characters, is the
`Census` of n, built by `census(n)` once per n in each process and
shared by every later call with the same n.
"""

from dataclasses import dataclass, fields
from functools import lru_cache

from .braids import WirtingerPresentation, family_braid, wirtinger_of_closure
from .ffpoly import (degree_sequence, factor, norm_obstructed,
                     primitive_root_of_unity)
from .metabolizers import (Character, character_for, check_class,
                           enumerate_metabolizers, fixed_metabolizer,
                           orbit_base_metabolizer, orbit_decomposition)
from .blanchfield import LinkingForm, linking_form
from .seifert import check_n
from .twisted import period_shift, twisted_polynomial

__all__ = [
    "Census",
    "ObstructionReport",
    "DEFAULT_WITNESS",
    "REFERENCE_FACTORS",
    "census",
    "obstruct",
    "verify_table",
]

# default (s, theta) witness per (n, character sign)
DEFAULT_WITNESS = {
    (11, "+"): (23, 2),
    (11, "-"): (23, 2),
    (17, "+"): (103, 8),
    (17, "-"): (103, 9),
    (23, "+"): (47, 4),
    (23, "-"): (47, 2),
}

# expected monic irreducible factors (ascending coefficients mod s) of the
# normalized twisted polynomial at the default witnesses
REFERENCE_FACTORS = {
    (11, "-"): (
        (1, 17, 4, 17, 1),
        (1, 7, 5, 7, 7, 22, 22, 7, 22, 22, 7, 7, 5, 7, 1),
    ),
    (11, "+"): (
        # the quadratic is t^2 + 13t + 10; with constant term 1 instead it
        # would split as (t + 17)(t + 19) mod 23 and break the degree count
        (10, 13, 1),
        (11, 3, 1),
        (3, 0, 14, 1),
        (22, 22, 22, 1),
        (20, 1, 16, 3, 3, 14, 4, 22, 1),
    ),
    (17, "+"): (
        (5, 98, 1),
        (93, 36, 12, 1),
        (94, 19, 48, 63, 20, 61, 32, 94, 33, 1),
        (19, 8, 95, 11, 67, 64, 99, 67, 35, 34, 86, 85, 31, 92, 26, 74, 1),
    ),
    (17, "-"): (
        (1, 13, 1),
        (1, 61, 97, 22, 25, 27, 73, 47, 79, 31, 99, 36, 54, 40, 40, 40,
         54, 36, 99, 31, 79, 47, 73, 27, 25, 22, 97, 61, 1),
    ),
    (23, "+"): (
        (21, 1),
        (29, 1),
        (9, 44, 34, 5, 43, 34, 42, 1, 5, 43, 37, 1),
        (13, 40, 1, 10, 21, 40, 10, 46, 41, 12, 9, 34, 25, 18, 25, 21, 6,
         34, 1, 17, 18, 41, 40, 27, 46, 38, 19, 9, 25, 1),
    ),
    (23, "-"): (
        (46, 1),
        (46, 1),
        (1, 1, 1),
        (23, 28, 44, 25, 16, 40, 25, 25, 38, 19, 27, 3, 1),
        (45, 41, 40, 9, 18, 44, 44, 14, 15, 44, 6, 38, 1),
        (1, 2, 2, 43, 42, 36, 30, 33, 30, 36, 42, 43, 2, 2, 1),
    ),
}

TABLE_N = (11, 17, 23)


@dataclass(frozen=True)
class ObstructionReport:
    """Everything the obstruction computation produced for one character
    class of one knot in the family."""
    n: int
    sign: str
    s: int
    theta: int
    q: int
    polynomial: tuple
    factors: tuple
    degree_sequence: tuple
    total_degree: int
    target_degree: int
    degree_check: bool
    norm_obstructed: bool
    metabolizer_count: int
    orbit_sizes: tuple
    characters_checked: int
    verdict: str

    def to_dict(self):
        """The fields in order, tuples as (nested) lists, as JSON has them."""
        return {f.name: _as_lists(getattr(self, f.name)) for f in fields(self)}


def _as_lists(x):
    return [_as_lists(y) for y in x] if isinstance(x, tuple) else x


def _witness(n, sign, s, theta):
    if s is None:
        if theta is not None:
            raise ValueError("theta needs an explicit s")
        if (n, sign) in DEFAULT_WITNESS:
            s, theta = DEFAULT_WITNESS[(n, sign)]
        else:
            raise ValueError(
                f"no default witness for n={n}; pass s (and optionally "
                f"theta) explicitly")
    return s, primitive_root_of_unity(s, n, theta)


@dataclass(frozen=True)
class Census:
    """The witness-independent stages of the n-th knot: its Wirtinger
    presentation, the linking form of the 3-fold cover, the n + 1
    metabolizers and their orbits (tuples, smallest orbit first), the
    orbit sizes, and the characters chi+ (orbit representative) and
    chi- (fixed metabolizer)."""
    n: int
    presentation: WirtingerPresentation
    form: LinkingForm
    metabolizers: tuple
    orbits: tuple
    orbit_sizes: tuple
    plus: Character
    minus: Character


@lru_cache(maxsize=None)
def census(n):
    """The `Census` of the n-th knot, built once per n in this process.

    Every check of the stages runs on the first build; a build that
    raises is not cached, so a refused n never enters the cache and a
    failed build is retried on the next call.  Only the prime n = 5
    mod 6 up to `seifert.MAX_N` can enter it.
    """
    check_n(n)
    check_class(n)
    pres = wirtinger_of_closure(family_braid(n))
    form = linking_form(n)
    mets = tuple(enumerate_metabolizers(n, form))
    orbits = tuple(tuple(o) for o in orbit_decomposition(mets, n))
    orbit_sizes = tuple(sorted(len(o) for o in orbits))
    if orbit_sizes != (1, n):
        raise ArithmeticError("metabolizer orbits must be sizes 1, n")
    if orbits[0][0] != fixed_metabolizer(n):
        raise ArithmeticError("the fixed metabolizer must be its own orbit")
    plus = character_for(orbit_base_metabolizer(n), form)
    minus = character_for(fixed_metabolizer(n), form)
    return Census(n, pres, form, mets, orbits, orbit_sizes, plus, minus)


def obstruct(n, s=None, theta=None, exhaustive=False):
    """Obstruction reports for both character classes of the n-th knot.

    Returns a list of two ObstructionReports (signs + and -).  The
    verdict is shared: "not slice" only when every checked character has
    the right degree count and an obstructed norm.  With exhaustive=True
    the orbit representative chi+ is also pulled back through the n - 1
    further period shifts of the diagram (n + 1 polynomials in total),
    and each pullback must reproduce the representative's polynomial
    exactly.  The pullbacks are not matched to the orbit metabolizers:
    they need not be the characters `character_for` gives them.

    Both characters are factored by `factor`.  chi-'s polynomial reads
    the same both ways, so `factor` takes it through its trace
    polynomial, of half the degree; chi+'s does not, and takes the
    squarefree, distinct-degree and equal-degree stages.

    A bad n or witness is refused before the linking form is built.
    The presentation, the form, the metabolizers and the characters
    come from `census(n)`, so a second witness for the same n computes
    only its twisted polynomials and their factorizations.  exhaustive
    must be a bool.
    """
    if not isinstance(exhaustive, bool):
        raise ValueError(f"exhaustive must be a bool, not {exhaustive!r}")
    check_n(n)
    # refuse a bad n or witness before the expensive stages
    check_class(n)
    witnesses = {sign: _witness(n, sign, s, theta) for sign in "+-"}
    c = census(n)
    target = 2 * (n - 2)
    found = {}  # sign: the polynomial, its factors, their degrees, norm
    for chi in (c.plus, c.minus):
        tp = twisted_polynomial(c.presentation, chi, *witnesses[chi.sign])
        fact = factor(list(tp.coeffs), tp.s)
        degs = tuple(degree_sequence(fact))
        found[chi.sign] = tp, fact, degs, norm_obstructed(degs)
    all_pass = all(sum(degs) == target and obstructed
                   for _, _, degs, obstructed in found.values())
    checked = len(found)

    if exhaustive:
        # both polynomials are monic, so their factor lists (and with them
        # both checks) agree exactly when their coefficients do
        plus = found["+"][0]
        chi = c.plus
        for _ in range(n - 1):
            chi = period_shift(chi)
            tp = twisted_polynomial(c.presentation, chi, plus.s, plus.theta)
            all_pass = all_pass and tp.coeffs == plus.coeffs
            checked += 1

    verdict = "not slice" if all_pass else "inconclusive"
    return [ObstructionReport(
        n=n, sign=sign, s=tp.s, theta=tp.theta, q=3,
        polynomial=tp.coeffs,
        factors=tuple(tuple(f) for f in fact.expanded()),
        degree_sequence=degs,
        total_degree=sum(degs),
        target_degree=target,
        degree_check=sum(degs) == target,
        norm_obstructed=obstructed,
        metabolizer_count=len(c.metabolizers),
        orbit_sizes=c.orbit_sizes,
        characters_checked=checked,
        verdict=verdict,
    ) for sign, (tp, fact, degs, obstructed) in found.items()]


def verify_table(ns=None):
    """Recompute every reference row through `obstruct` and compare
    factor lists verbatim.

    Returns a list of dicts with keys n, sign, ok, expected, got.  An n
    outside TABLE_N has no reference row and raises ValueError.
    """
    try:
        ns = TABLE_N if ns is None else tuple(ns)
    except TypeError:
        raise ValueError(f"ns must be a collection of n, not {ns!r}") from None
    untabled = [n for n in ns if n not in TABLE_N]
    if untabled:
        rows = ", ".join(map(str, TABLE_N))
        raise ValueError(
            f"no reference row for n={untabled[0]!r}: the table has the rows "
            f"n = {rows} (use obstruct with an explicit s for other n)")
    results = []
    for n in ns:
        reports = obstruct(n)
        for rep in reports:
            expected = REFERENCE_FACTORS[(n, rep.sign)]
            ok = (rep.factors == expected
                  and rep.degree_check
                  and rep.norm_obstructed
                  and rep.verdict == "not slice")
            results.append({
                "n": n,
                "sign": rep.sign,
                "s": rep.s,
                "theta": rep.theta,
                "ok": ok,
                "expected": expected,
                "got": rep.factors,
                "degree_sequence": rep.degree_sequence,
            })
    return results
