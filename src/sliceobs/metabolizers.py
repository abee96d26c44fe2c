"""Metabolizers of the linking form on the 3-fold branched cover and the
characters that vanish on them.

With n = 5 mod 6 prime, t^2 + t + 1 stays irreducible mod n, so homology
is a 2-dimensional vector space over the field R = GF(n^2) and the
deck-invariant submodules of half order are exactly the n^2 + 1
R-lines.  A line is a metabolizer when the linking form vanishes on it;
there are n + 1 of those, falling into one fixed point and one size-n
orbit under the order-n symmetry.

The census runs on integers only.  Every line but R b is spanned by
g0 = a + (n0 + n1 t) b and g1 = t g0, whose coordinate rows
(1, 0, n0, n1) and (0, 1, -n1, n0 - n1) are already in reduced echelon
form and affine in (n0, n1).  R b is deck invariant exactly when t keeps
span(b, tb); then the a-coordinates c0, c1 of t g do not depend on
(n0, n1), so t g = c0 g0 + c1 g1 is affine in (n0, n1) mod n and holds
on every line once it holds at (0, 0), (1, 0) and (0, 1): deck
invariance is checked on those four lines only.  The form vanishes on a
line when the four pairings g_i^T (n lambda) g_j, n lambda the integer
matrix `LinkingForm.scaled`, are 0 mod n; a `Submodule` is built only
for the n + 1 lines that pass.
"""

from dataclasses import dataclass
from itertools import chain
from operator import mul

# linking_form is unused here; perfbench's tracer test still reaches it
# as sliceobs.metabolizers.linking_form
from .blanchfield import linking_form, r_matrix, t_matrix  # noqa: F401
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


def _rref_mod(gens, n):
    """Reduced row echelon form of the generator matrix over Z/n (n
    prime); canonical for the spanned submodule."""
    rows = [[x % n for x in g] for g in gens]
    lead = 0
    for r in range(len(rows)):
        while lead < 4:
            piv = next((i for i in range(r, len(rows)) if rows[i][lead]), None)
            if piv is not None:
                break
            lead += 1
        if lead == 4:
            break
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][lead], n - 2, n)
        rows[r] = [x * inv % n for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][lead]:
                f = rows[i][lead]
                rows[i] = [(x - f * y) % n for x, y in zip(rows[i], rows[r])]
        lead += 1
    rows = [r for r in rows if any(r)]
    return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class Submodule:
    """A subgroup of (Z/n)^4 given by generators on the basis
    (a, ta, b, tb), identified by its reduced echelon form.  n must be
    prime: the row reduction inverts pivots by Fermat."""
    n: int
    canonical: tuple

    def __post_init__(self):
        if not is_prime(self.n):
            raise ValueError(f"a submodule needs a prime n, not n={self.n}")

    @staticmethod
    def spanned_by(n, gens):
        return Submodule(n, _rref_mod(gens, n))

    @property
    def rank(self):
        return len(self.canonical)

    def transformed(self, g):
        """Image under an integer matrix acting on column coordinates."""
        gens = [tuple(sum(g[i][j] * row[j] for j in range(4)) % self.n
                      for i in range(4)) for row in self.canonical]
        return Submodule.spanned_by(self.n, gens)


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


def prime_line_submodule(n):
    """The leftover line R b, the one not of the form above."""
    return Submodule(n, _PRIME_LINE)


def check_class(n):
    """ValueError unless n is a prime = 5 mod 6, the indices the
    classification of metabolizers covers."""
    if not is_prime(n) or n % 6 != 5:
        raise ValueError("classification needs a prime n = 5 mod 6")


def _same_n(n, form):
    if form.n != n:
        raise ValueError(
            f"the linking form is for n={form.n}, not for n={n}")


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
    """Half order, deck invariant, and self-annihilating under the form;
    the same test the census runs on each line."""
    _same_n(sub.n, form)
    if sub.rank != 2:
        return False
    g0, g1 = sub.canonical
    return (_deck_invariant(g0, g1, sub.n, t_matrix().rows)
            and _isotropic(g0, g1, form))


def enumerate_metabolizers(n, form):
    """The metabolizers among the n^2 + 1 deck-invariant lines, in the
    order (n0, n1) in (Z/n)^2, n0 major, then the leftover line R b.

    The lines are distinct, as g0 = (1, 0, n0, n1) carries (n0, n1), and
    deck invariant by the four-line check above, which raises
    ArithmeticError on a failure.  A Submodule is built only for a line
    whose four integer pairings g_i^T (n lambda) g_j are 0 mod n.
    """
    check_class(n)
    _same_n(n, form)
    tm = t_matrix().rows
    for g0, g1 in (_PRIME_LINE, _line_rows(n, 0, 0), _line_rows(n, 1, 0),
                   _line_rows(n, 0, 1)):
        if not _deck_invariant(g0, g1, n, tm):
            raise ArithmeticError("a listed submodule is not deck invariant")
    lines = chain((_line_rows(n, n0, n1)
                   for n0 in range(n) for n1 in range(n)), (_PRIME_LINE,))
    mets = [Submodule(n, (g0, g1)) for g0, g1 in lines
            if _isotropic(g0, g1, form)]
    if len(mets) != n + 1:
        raise ArithmeticError(
            f"expected exactly n + 1 = {n + 1} metabolizers, found "
            f"{len(mets)}")
    return mets


def orbit_decomposition(mets, n):
    """Orbits of the metabolizer set under the order-n symmetry; returns
    a list of orbits, each a list of submodules, largest last."""
    r = r_matrix()
    remaining = set(mets)
    orbits = []
    for p in mets:
        if p not in remaining:
            continue
        orbit = [p]
        remaining.discard(p)
        q = p.transformed(r)
        while q != p:
            if q not in remaining:
                raise ArithmeticError(
                    "symmetry must permute the metabolizers")
            orbit.append(q)
            remaining.discard(q)
            q = q.transformed(r)
        orbits.append(orbit)
    orbits.sort(key=len)
    return orbits


@dataclass(frozen=True)
class Character:
    """A homomorphism H_1 -> Z/n given by a coefficient row on
    (a, ta, b, tb), tagged with its sign class."""
    n: int
    row: tuple
    sign: str

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
    gets chi_+ r^(n-j).
    """
    n = sub.n
    _same_n(n, form)
    plus, minus = base_characters(n)
    if sub == fixed_metabolizer(n):
        if not minus.vanishes_on(sub):
            raise ArithmeticError("chi_- must vanish on the fixed metabolizer")
        return minus
    r = r_matrix()
    p = orbit_base_metabolizer(n)
    j = 0
    q = p
    while q != sub:
        q = q.transformed(r)
        j += 1
        if j > n:
            raise ValueError("submodule is not a metabolizer in the orbit")
    # chi = chi_+ composed with r^(n-j): row vector times matrix power
    row = list(plus.row)
    for _ in range((n - j) % n):
        row = [sum(row[i] * r[i][k] for i in range(4)) % n for k in range(4)]
    chi = Character(n, tuple(row), "+")
    if not chi.vanishes_on(sub):
        raise ArithmeticError("constructed character must vanish")
    if not is_metabolizer(sub, form):
        raise ArithmeticError("submodule is not a metabolizer of the form")
    return chi
