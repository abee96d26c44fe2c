"""Metabolizers of the linking form on the 3-fold branched cover and the
characters that vanish on them.

With n = 5 mod 6 prime, t^2 + t + 1 stays irreducible mod n, so homology
is a 2-dimensional vector space over the field R = GF(n^2) and the
deck-invariant submodules of half order are exactly the n^2 + 1
R-lines.  A line is a metabolizer when the linking form vanishes on it;
there are n + 1 of those, falling into one fixed point and one size-n
orbit under the order-n symmetry.
"""

from dataclasses import dataclass

from .blanchfield import linking_form, r_matrix, t_matrix
from .ffpoly import is_prime

__all__ = [
    "Submodule",
    "Character",
    "invariant_submodules",
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
    (a, ta, b, tb), identified by its reduced echelon form."""
    n: int
    canonical: tuple

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

    def is_invariant(self, g):
        return self.transformed(g) == self


def line_submodule(n, n0, n1):
    """The R-line through a + (n0 + n1 t) b."""
    return Submodule.spanned_by(
        n, ((1, 0, n0, n1), (0, 1, -n1 % n, (n0 - n1) % n)))


def prime_line_submodule(n):
    """The leftover line R b, the one not of the form above."""
    return Submodule.spanned_by(n, ((0, 0, 1, 0), (0, 0, 0, 1)))


def invariant_submodules(n):
    """All n^2 + 1 deck-invariant half-order subgroups."""
    if not is_prime(n) or n % 6 != 5:
        raise ValueError("classification needs a prime n = 5 mod 6")
    mods = [line_submodule(n, n0, n1)
            for n0 in range(n) for n1 in range(n)]
    mods.append(prime_line_submodule(n))
    if len(set(mods)) != n * n + 1:
        raise ArithmeticError("invariant submodules are not distinct")
    tmat = t_matrix()
    if not all(p.is_invariant(tmat) for p in mods):
        raise ArithmeticError("a listed submodule is not deck invariant")
    return mods


def is_metabolizer(sub, form):
    """Half order, deck invariant, and self-annihilating under the form."""
    if sub.rank != 2 or not sub.is_invariant(t_matrix()):
        return False
    return all(form.value(u, v) == 0
               for u in sub.canonical for v in sub.canonical)


def enumerate_metabolizers(n, form=None):
    if form is None:
        form = linking_form(n)
    mets = [p for p in invariant_submodules(n) if is_metabolizer(p, form)]
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


def character_for(sub, form=None):
    """A character of order n vanishing on the given metabolizer: the
    fixed point gets chi_-, the orbit member r^j(P_+) gets chi_+ r^(n-j).
    """
    n = sub.n
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
    if form is not None and not is_metabolizer(sub, form):
        raise ArithmeticError("submodule is not a metabolizer of the form")
    return chi
