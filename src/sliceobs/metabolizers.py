"""Metabolizers of the linking form on the 3-fold branched cover and the
characters that vanish on them.

With n = 5 mod 6 prime, t^2 + t + 1 stays irreducible mod n, so homology
is a 2-dimensional vector space over the field R = GF(n^2) =
(Z/n)[t]/(t^2 + t + 1), and the deck-invariant submodules of half order
are exactly the n^2 + 1 R-lines, the points of the projective line
P^1(R): the line through a + z b for each z = n0 + n1 t in R, and R b.
A `Submodule` holds only such a line.  A line is a metabolizer when the
linking form vanishes on it; there are n + 1 of those, falling into one
fixed point and one size-n orbit under the order-n symmetry.

Every line but R b is spanned by g0 = a + (n0 + n1 t) b and g1 = t g0,
whose coordinate rows (1, 0, n0, n1) and (0, 1, -n1, n0 - n1) are
already in reduced echelon form and affine in (n0, n1).  R b is deck
invariant exactly when t keeps span(b, tb); then the a-coordinates
c0, c1 of t g do not depend on (n0, n1), so t g = c0 g0 + c1 g1 is
affine in (n0, n1) mod n and holds on every line once it holds at
(0, 0), (1, 0) and (0, 1): deck invariance is checked on those four
lines only.

The form vanishes on a line when the four pairings g_i^T (n lambda) g_j,
n lambda the integer matrix `LinkingForm.scaled`, are 0 mod n.  Each
pairing is a quadratic in (n0, n1), and each is c_ij times the conic
n0^2 - n0 n1 + n1^2 + n0 - n1 - 1, some c_ij nonzero.  A quadratic is
fixed mod an odd n by its values on the six lines (0, 0), (1, 0),
(2, 0), (0, 1), (0, 2) and (1, 1), so the census checks that identity
there, from the form, and then lists the zeros of the conic instead of
testing lines: (1, 1), and for each slope m the second point
(1 - 2k, 1 - 2mk), k = 1/(m^2 - m + 1), where the line through (1, 1)
of slope m meets the conic (m^2 - m + 1 has no root, as -3 is no
square mod n).  Write P(m) for that point and P(inf) for (1, 1).  R b,
not of that form, must be rejected by its pairings.

The order-n symmetry r fixes P(inf) and moves P(m) to P(m - 2), so the
orbit member r^j(P_+), with P_+ = a - (1 + t) b = P(1), is P(1 - 2j):
`character_for` reads j = (1 - m)/2 off the slope, and
`orbit_decomposition` lists the orbit as P(m0 - 2j) and checks each
step on the rows alone, that r maps the generators of P(m) into the
line P(m - 2), by the same test that shows t keeps a line.  Nothing
here row-reduces or moves a line by a general map; the row reduction
of a subgroup and the walk of r along the orbit live in
`tests/metabolizer_oracle.py`, which checks these steps against them.
As (r - I)^2 = 0, r^k is I + k (r - I), and no power of r is ever
multiplied out.
"""

from dataclasses import dataclass
from operator import mul

# linking_form is unused here; perfbench's tracer test still reaches it
# as sliceobs.metabolizers.linking_form
from .blanchfield import (_same_n, linking_form,  # noqa: F401
                          _nilpotent_part, r_matrix, t_matrix)
from .ffpoly import is_prime

__all__ = [
    "Submodule",
    "Character",
    "check_class",
    "is_metabolizer",
    "enumerate_metabolizers",
    "orbit_decomposition",
    "character_for",
    "base_characters",
]


@dataclass(frozen=True)
class Submodule:
    """An R-line of (Z/n)^4 on the basis (a, ta, b, tb), identified by
    its reduced echelon rows: `_line_rows(n, n0, n1)` for the line
    through a + (n0 + n1 t) b, or `_PRIME_LINE` for R b; any other rows
    raise ValueError.  n must be prime."""
    n: int
    canonical: tuple

    def __post_init__(self):
        if not is_prime(self.n):
            raise ValueError(f"a submodule needs a prime n, not n={self.n}")
        head = self.canonical[0][2:] if self.canonical else ()
        if self.canonical != _PRIME_LINE and (
                len(head) != 2 or self.canonical != _line_rows(self.n, *head)):
            raise ValueError(f"{self.canonical} are not the rows of an "
                             f"R-line mod n={self.n}")


def _line_rows(n, n0, n1):
    """The generators a + (n0 + n1 t) b and t times it, which are already
    in reduced echelon form."""
    n0, n1 = n0 % n, n1 % n
    return ((1, 0, n0, n1), (0, 1, -n1 % n, (n0 - n1) % n))


def line_submodule(n, n0, n1):
    """The R-line through a + (n0 + n1 t) b; n0 and n1 must be ints."""
    for name, x in (("n0", n0), ("n1", n1)):
        if not isinstance(x, int):
            raise ValueError(f"{name} must be an integer, not {x!r}")
    return Submodule(n, _line_rows(n, n0, n1))


_PRIME_LINE = ((0, 0, 1, 0), (0, 0, 0, 1))


def prime_line_submodule(n):
    """The leftover line R b, the one not of the form above."""
    return Submodule(n, _PRIME_LINE)


def check_class(n):
    """ValueError unless n is a prime = 5 mod 6, the indices the
    classification of metabolizers covers."""
    if not is_prime(n) or n % 6 != 5:
        raise ValueError("classification needs a prime n = 5 mod 6")


def _maps_into(g, src, dst, n):
    """True if the integer matrix g (its rows, acting on column
    coordinates) maps the rows of src into the span over Z/n (n prime)
    of the two reduced echelon rows d0, d1 of dst: g u must equal the
    combination of d0 and d1 read off at their pivot columns.  With
    g = t and src = dst that is deck invariance; on a line's generators
    (pivots 0 and 1) it is t g0 = g1 and t g1 = -g0 - g1 mod n."""
    d0, d1 = dst
    p0, p1 = (next(i for i, x in enumerate(d) if x) for d in dst)
    for u in src:
        gu = [sum(map(mul, row, u)) % n for row in g]
        if gu != [(gu[p0] * x + gu[p1] * y) % n for x, y in zip(d0, d1)]:
            return False
    return True


def _isotropic(g0, g1, form):
    """The four pairings of g0 and g1 vanish: each is 0 mod n as the
    integer u^T (n lambda) v."""
    return not (form.pair(g0, g0) or form.pair(g0, g1)
                or form.pair(g1, g0) or form.pair(g1, g1))


def is_metabolizer(sub, form):
    """Deck invariant and self-annihilating under the form; the same test
    the census runs on each line."""
    _same_n(sub.n, form)
    return (_maps_into(t_matrix().rows, sub.canonical, sub.canonical, sub.n)
            and _isotropic(*sub.canonical, form))


# Six lines a + (n0 + n1 t) b on which a quadratic in (n0, n1) is fixed
# mod an odd n: its values on the first three fix it along n1 = 0, with
# (0, 0) on the next two along n0 = 0, and (1, 1) the n0 n1 term.
_SIX = ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1))


def _conic(n0, n1):
    """The conic whose zeros mod n are the metabolizers
    a + (n0 + n1 t) b."""
    return n0 * n0 - n0 * n1 + n1 * n1 + n0 - n1 - 1


def _check_conic(n, form):
    """ArithmeticError unless each of the four pairings g_i^T (n lambda)
    g_j on the line through a + (n0 + n1 t) b is c_ij times `_conic`
    mod n, for constants c_ij not all 0: then a line is isotropic
    exactly at a zero of the conic.  Both sides are quadratics in
    (n0, n1), compared on the six lines `_SIX` against the conic's
    value on the first, (0, 0), where it must not vanish."""
    rows = [_line_rows(n, *p) for p in _SIX]
    conic = [_conic(*p) % n for p in _SIX]
    pairings = [[form.pair(g[i], g[j]) for g in rows]
                for i in (0, 1) for j in (0, 1)]
    if not conic[0] or not any(map(any, pairings)) or any(
            (v * conic[0] - vals[0] * q) % n
            for vals in pairings for v, q in zip(vals, conic)):
        raise ArithmeticError("the isotropic lines are not the conic's zeros")


def _point(m, n):
    """P(m), the zero of `_conic` mod n on the line of slope m through
    (1, 1): (1 - 2k, 1 - 2mk) with k = 1/(m^2 - m + 1), and (1, 1)
    itself for m = None, the vertical tangent there."""
    if m is None:
        return (1, 1)
    k = pow(m * m - m + 1, -1, n)
    return ((1 - 2 * k) % n, (1 - 2 * m * k) % n)


def _slope(sub):
    """The m with P(m) the point (n0, n1) of the line, (n1 - 1)/(n0 - 1)
    mod n or None for (1, 1), the only zero of the conic with n0 = 1;
    ValueError for R b or a line off the conic."""
    n0, n1 = sub.canonical[0][2:]
    if sub.canonical == _PRIME_LINE or _conic(n0, n1) % sub.n:
        raise ValueError("submodule is not a metabolizer on the conic")
    return None if n0 == 1 else (n1 - 1) * pow(n0 - 1, -1, sub.n) % sub.n


def _conic_points(n):
    """The zeros (n0, n1) of `_conic` mod n, sorted: P(m) for m = None
    and each m in Z/n."""
    return sorted({_point(m, n) for m in (None, *range(n))})


def enumerate_metabolizers(n, form):
    """The metabolizers among the n^2 + 1 deck-invariant lines, in the
    order (n0, n1) in (Z/n)^2, n0 major; the leftover line R b is never
    one.

    The lines are deck invariant by the four-line check above, which
    raises ArithmeticError on a failure, and so is an isotropic R b, a
    form that is not a multiple of the conic on the six lines, or a
    listing that is not n + 1 distinct zeros of the conic.
    """
    check_class(n)
    _same_n(n, form)
    tm = t_matrix().rows
    for rows in (_PRIME_LINE, _line_rows(n, 0, 0), _line_rows(n, 1, 0),
                 _line_rows(n, 0, 1)):
        if not _maps_into(tm, rows, rows, n):
            raise ArithmeticError("a listed submodule is not deck invariant")
    if _isotropic(*_PRIME_LINE, form):
        raise ArithmeticError("the leftover line R b must not be isotropic")
    _check_conic(n, form)
    points = _conic_points(n)
    if len(points) != n + 1 or any(_conic(*p) % n for p in points):
        raise ArithmeticError(f"not the n + 1 = {n + 1} zeros of the conic")
    return [line_submodule(n, *p) for p in points]


_NOT_PERMUTED = "symmetry must permute the metabolizers"


def orbit_decomposition(mets, n):
    """Orbits of the metabolizer set under the order-n symmetry r; returns
    a list of orbits, each a list of the given submodules, largest last:
    the fixed point P(inf) and the orbit P(m0 - 2j), j < n, of the slope
    m0 of the first other line.  Each step is checked on the rows, that
    r maps P(m) into P(m - 2) and P(inf) into itself, and the orbits
    must be exactly the given lines: ArithmeticError otherwise, as when
    r does not permute the metabolizers, or r - I does not square to 0
    (`blanchfield._nilpotent_part`).  An n outside `check_class`, or a
    metabolizer of another n, raises ValueError."""
    check_class(n)
    for p in mets:
        _same_n(n, p, "a metabolizer")
    by_rows = {p.canonical: p for p in mets}
    fixed = _line_rows(n, *_point(None, n))
    orbits = [[fixed]] if fixed in by_rows else []
    start = next((p for p in mets if p.canonical != fixed), None)
    if start is not None:
        try:
            m0 = _slope(start)
        except ValueError:
            raise ArithmeticError(_NOT_PERMUTED) from None
        orbits.append([_line_rows(n, *_point(m0 - 2 * j, n))
                       for j in range(n)])
    r = r_matrix()
    if {rows for o in orbits for rows in o} != by_rows.keys() or not all(
            _maps_into(r.rows, src, dst, n)
            for o in orbits for src, dst in zip(o, o[1:] + o[:1])):
        raise ArithmeticError(_NOT_PERMUTED)
    _nilpotent_part(r)  # so r is invertible, and onto each image line
    return [[by_rows[rows] for rows in o] for o in orbits]


@dataclass(frozen=True)
class Character:
    """A homomorphism H_1 -> Z/n given by a coefficient row on
    (a, ta, b, tb), tagged with its sign class.  The row must be a tuple
    of four ints and the sign "+" or "-", else ValueError; n is checked
    where a representation is built."""
    n: int
    row: tuple
    sign: str

    def __post_init__(self):
        row, sign = self.row, self.sign
        if not (isinstance(row, tuple) and len(row) == 4
                and all(isinstance(x, int) for x in row)
                and sign in ("+", "-")):
            raise ValueError(f"a character needs a row of four integers and "
                             f"the sign '+' or '-', not {row!r}, {sign!r}")

    def value(self, v):
        return sum(c * x for c, x in zip(self.row, v)) % self.n

    def vanishes_on(self, sub):
        return all(self.value(g) == 0 for g in sub.canonical)


def base_characters(n):
    """The two seed characters: chi_+ = (-1,0,0,-1) vanishing on the base
    orbit metabolizer, chi_- = (1,0,0,-1) vanishing on the fixed one."""
    plus = Character(n, ((n - 1), 0, 0, (n - 1)), "+")
    minus = Character(n, (1, 0, 0, (n - 1)), "-")
    return plus, minus


def fixed_metabolizer(n):
    return line_submodule(n, 1, 1)


def orbit_base_metabolizer(n):
    return line_submodule(n, n - 1, n - 1)


def character_for(sub, form):
    """A character of order n vanishing on the given metabolizer of the
    linking form: the fixed point gets chi_-, the orbit member r^j(P_+)
    gets chi_+ r^(n-j), with j = (1 - m)/2 for the slope
    m = (n1 - 1)/(n0 - 1) of its point (n0, n1) on the conic.  Either
    must vanish on it, and it must pass `is_metabolizer`.

    r^(n-j) is I + (n - j)(r - I), no power of r: it holds once
    `blanchfield._nilpotent_part` has checked (r - I)^2 = 0 over Z, and
    that check raises ArithmeticError otherwise.
    """
    n = sub.n
    _same_n(n, form)
    plus, chi = base_characters(n)
    m = _slope(sub)
    if m is not None:
        j = (1 - m) * pow(2, -1, n) % n
        # chi_+ r^(n-j) = chi_+ + (n - j) chi_+ (r - I)
        u = _nilpotent_part(r_matrix())
        chi = Character(n, tuple(
            (x + (n - j) * sum(map(mul, plus.row, col))) % n
            for x, col in zip(plus.row, zip(*u.rows))), "+")
    if not chi.vanishes_on(sub):
        raise ArithmeticError("the character must vanish on the metabolizer")
    if not is_metabolizer(sub, form):
        raise ArithmeticError("submodule is not a metabolizer of the form")
    return chi
