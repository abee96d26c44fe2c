"""The object census of the metabolizers, kept as the independent oracle
for `sliceobs.metabolizers.enumerate_metabolizers` and for the line-map
steps of `orbit_decomposition`.

`Subgroup` is any subgroup of (Z/n)^4, identified by the reduced row
echelon form of its generators over Z/n; its image under a matrix is
the row reduction of the images of those rows.  Every deck-invariant
line is built as a `Subgroup` by row reduction of its generators,
tested for invariance by transforming it with the deck matrix and
comparing reduced echelon forms, and tested for isotropy by summing
Fractions over the rational matrix of the form.  The program holds only
R-lines, lists the orbit by the slope shift m -> m - 2 on the conic and
pairs through the integer matrix n lambda; this route shares none of
that code and compares with it by the canonical rows alone.

`orbit_characters` walks the order-n symmetry r along the orbit of
metabolizers, multiplying out the powers of r, the oracle for the orbit
index that `sliceobs.metabolizers.character_for` reads off the slope
and for its closed form of r^(n-j).
"""

from dataclasses import dataclass
from fractions import Fraction

from sliceobs.blanchfield import r_matrix, t_matrix
from sliceobs.ffpoly import is_prime
from sliceobs.metabolizers import base_characters, orbit_base_metabolizer


def rref_mod(gens, n):
    """Reduced row echelon form of the generator matrix over Z/n (n
    prime); canonical for the spanned subgroup."""
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
class Subgroup:
    """A subgroup of (Z/n)^4 given by generators on the basis
    (a, ta, b, tb), identified by its reduced echelon form.  n must be
    prime: the row reduction inverts pivots by Fermat."""
    n: int
    canonical: tuple

    def __post_init__(self):
        if not is_prime(self.n):
            raise ValueError(f"a subgroup needs a prime n, not n={self.n}")

    @staticmethod
    def spanned_by(n, gens):
        return Subgroup(n, rref_mod(gens, n))

    @property
    def rank(self):
        return len(self.canonical)

    def transformed(self, g):
        """Image under an integer matrix acting on column coordinates."""
        gens = [tuple(sum(g[i][j] * row[j] for j in range(4)) % self.n
                      for i in range(4)) for row in self.canonical]
        return Subgroup.spanned_by(self.n, gens)


def is_invariant(sub, g):
    """True if the integer matrix g maps the subgroup onto itself."""
    return sub.transformed(g) == sub


def fraction_value(form, u, v):
    """The pairing of integer coordinate vectors, summed in Fractions
    over the rational matrix of the form, in [0, 1)."""
    total = Fraction(0)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                total += x * y * form.matrix[i][j]
    return total % 1


def invariant_submodules(n):
    """All n^2 + 1 deck-invariant half-order subgroups, each row-reduced
    from its generators a + (n0 + n1 t) b, t times it (or b, t b), in
    the order (n0, n1) in (Z/n)^2, n0 major, then R b."""
    if not is_prime(n) or n % 6 != 5:
        raise ValueError("classification needs a prime n = 5 mod 6")
    mods = [Subgroup.spanned_by(
                n, ((1, 0, n0, n1), (0, 1, -n1 % n, (n0 - n1) % n)))
            for n0 in range(n) for n1 in range(n)]
    mods.append(Subgroup.spanned_by(n, ((0, 0, 1, 0), (0, 0, 0, 1))))
    if len(set(mods)) != n * n + 1:
        raise ArithmeticError("invariant submodules are not distinct")
    tmat = t_matrix()
    if not all(is_invariant(p, tmat) for p in mods):
        raise ArithmeticError("a listed submodule is not deck invariant")
    return mods


def is_metabolizer(sub, form):
    """Half order, deck invariant, and self-annihilating under the form."""
    if sub.rank != 2 or not is_invariant(sub, t_matrix()):
        return False
    return all(fraction_value(form, u, v) == 0
               for u in sub.canonical for v in sub.canonical)


def census(n, form):
    """The canonical rows of the metabolizers among
    `invariant_submodules(n)`, in its order."""
    return [p.canonical for p in invariant_submodules(n)
            if is_metabolizer(p, form)]


def orbit_characters(n):
    """The orbit member r^j(P_+) of the metabolizers, for j = 0 .. n-1,
    each found by walking r from P_+ = `orbit_base_metabolizer(n)` and
    keyed by its canonical rows, mapped to the row of chi_+ r^(n-j)."""
    r = r_matrix()
    rows = [base_characters(n)[0].row]
    for _ in range(n - 1):
        rows.append(tuple(sum(rows[-1][i] * r[i][k] for i in range(4)) % n
                          for k in range(4)))
    base = q = Subgroup(n, orbit_base_metabolizer(n).canonical)
    walk = {}
    for j in range(n):
        walk[q.canonical] = rows[-j]
        q = q.transformed(r)
    if q != base or len(walk) != n:
        raise ArithmeticError("r must move P_+ around an orbit of size n")
    return walk
