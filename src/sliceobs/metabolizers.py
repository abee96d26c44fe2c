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

A map g that commutes with t, as t and r do, is R-linear:
g(a) = alpha_a a + gamma_a b and g(b) = alpha_b a + gamma_b b with
alpha, gamma in R.  So it moves the line of z to the line of
(gamma_a + z gamma_b)/(alpha_a + z alpha_b), or to R b where the
denominator is 0, and R b to the line of gamma_b/alpha_b: one Moebius
step on P^1(R), computed in the Eisenstein integers of
`blanchfield._Eisenstein` mod n.  Nothing here row-reduces; the general
row reduction of a subgroup lives in `tests/metabolizer_oracle.py`,
which checks these steps against it.

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
square mod n).  R b, not of that form, must be rejected by its
pairings.  The order-n symmetry r moves the metabolizer of slope m to
the one of slope m - 2, so the orbit member r^j(P_+), with
P_+ = a - (1 + t) b of slope 1, has slope 1 - 2j: `character_for`
reads j = (1 - m)/2 off the slope.  As (r - I)^2 = 0, r^k is
I + k (r - I), and no power of r is ever multiplied out.
"""

from dataclasses import dataclass
from operator import mul

# linking_form is unused here; perfbench's tracer test still reaches it
# as sliceobs.metabolizers.linking_form
from .blanchfield import (_Eisenstein, _same_n, linking_form,  # noqa: F401
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

    def transformed(self, g):
        """Image under an integer matrix g acting on column coordinates,
        by one Moebius step on the line's parameter (module docstring).
        ValueError unless g commutes with t mod n and the image is one of
        the lines above."""
        n = self.n
        # g(a) = alpha_a a + gamma_a b and g(b) = alpha_b a + gamma_b b
        # are columns 0 and 2; g commutes with t exactly when columns 1
        # and 3, g(ta) and g(tb), are t times them
        alpha, gamma = ([_Eisenstein(g[i][j], g[i + 1][j]) for j in range(4)]
                        for i in (0, 2))
        if any((x * _OMEGA - tx) % n
               for c in (alpha, gamma) for x, tx in (c[:2], c[2:])):
            raise ValueError(f"the map does not commute with t mod n={n}")
        if self.canonical == _PRIME_LINE:
            den, num = alpha[2], gamma[2]
        else:
            z = _Eisenstein(*self.canonical[0][2:])
            den, num = alpha[0] + z * alpha[2], gamma[0] + z * gamma[2]
        norm = den.norm() % n
        if norm:
            z = num * den.conjugate() * _Eisenstein(pow(norm, -1, n))
            return line_submodule(n, z.a, z.b)
        if not den % n and num.norm() % n:
            return prime_line_submodule(n)
        raise ValueError(f"the image is not an R-line mod n={n}")


def _line_rows(n, n0, n1):
    """The generators a + (n0 + n1 t) b and t times it, which are already
    in reduced echelon form."""
    n0 %= n
    n1 %= n
    return ((1, 0, n0, n1), (0, 1, -n1 % n, (n0 - n1) % n))


def line_submodule(n, n0, n1):
    """The R-line through a + (n0 + n1 t) b."""
    return Submodule(n, _line_rows(n, n0, n1))


_PRIME_LINE = ((0, 0, 1, 0), (0, 0, 0, 1))

_OMEGA = _Eisenstein(0, 1)  # t, acting on R = (Z/n)[t]/(t^2 + t + 1)


def prime_line_submodule(n):
    """The leftover line R b, the one not of the form above."""
    return Submodule(n, _PRIME_LINE)


def check_class(n):
    """ValueError unless n is a prime = 5 mod 6, the indices the
    classification of metabolizers covers."""
    if not is_prime(n) or n % 6 != 5:
        raise ValueError("classification needs a prime n = 5 mod 6")


def _deck_invariant(g0, g1, n, tm):
    """True if the span of the reduced echelon rows g0, g1 over Z/n (n
    prime) contains t g0 and t g1: t g must equal the combination of g0
    and g1 read off at their pivot columns.  On a line's generators
    (pivots 0 and 1) that is t g0 = g1 and t g1 = -g0 - g1 mod n."""
    p0 = next(i for i, x in enumerate(g0) if x)
    p1 = next(i for i, x in enumerate(g1) if x)
    for g in (g0, g1):
        tg = [sum(map(mul, row, g)) % n for row in tm]
        c0, c1 = tg[p0], tg[p1]
        if tg != [(c0 * x + c1 * y) % n for x, y in zip(g0, g1)]:
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
    return (_deck_invariant(*sub.canonical, sub.n, t_matrix().rows)
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


def _conic_points(n):
    """The zeros (n0, n1) of `_conic` mod n, sorted: (1, 1) and, for each
    slope m, (1 - 2k, 1 - 2mk) with k = 1/(m^2 - m + 1)."""
    ks = [pow(m * m - m + 1, -1, n) for m in range(n)]
    return sorted({(1, 1), *(((1 - 2 * k) % n, (1 - 2 * m * k) % n)
                             for m, k in enumerate(ks))})


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
    for g0, g1 in (_PRIME_LINE, _line_rows(n, 0, 0), _line_rows(n, 1, 0),
                   _line_rows(n, 0, 1)):
        if not _deck_invariant(g0, g1, n, tm):
            raise ArithmeticError("a listed submodule is not deck invariant")
    if _isotropic(*_PRIME_LINE, form):
        raise ArithmeticError("the leftover line R b must not be isotropic")
    _check_conic(n, form)
    points = _conic_points(n)
    if len(points) != n + 1 or any(_conic(*p) % n for p in points):
        raise ArithmeticError(f"not the n + 1 = {n + 1} zeros of the conic")
    return [line_submodule(n, *p) for p in points]


def orbit_decomposition(mets, n):
    """Orbits of the metabolizer set under the order-n symmetry; returns
    a list of orbits, each a list of submodules, largest last.  The walk
    moves each line by Moebius steps of r, and it is the check that r
    permutes the metabolizers: ArithmeticError if a step leaves them.
    A metabolizer of another n raises ValueError."""
    for p in mets:
        _same_n(n, p, "a metabolizer")
    r = r_matrix()
    remaining = set(mets)
    orbits = []
    for p in mets:
        if p not in remaining:
            continue
        orbit = [p]
        remaining.discard(p)
        while (q := orbit[-1].transformed(r)) != p:
            if q not in remaining:
                raise ArithmeticError(
                    "symmetry must permute the metabolizers")
            orbit.append(q)
            remaining.discard(q)
        orbits.append(orbit)
    orbits.sort(key=len)
    return orbits


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
    if sub != fixed_metabolizer(n):
        n0, n1 = sub.canonical[0][2:]
        if sub.canonical == _PRIME_LINE or _conic(n0, n1) % n:
            raise ValueError("submodule is not a metabolizer in the orbit")
        # the orbit index j = (1 - m)/2 of the slope m = (n1 - 1)/(n0 - 1)
        j = (1 - (n1 - 1) * pow(n0 - 1, -1, n)) * pow(2, -1, n) % n
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
