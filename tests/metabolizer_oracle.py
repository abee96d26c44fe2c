"""The object census of the metabolizers, kept as the independent oracle
for `sliceobs.metabolizers.enumerate_metabolizers`.

Every deck-invariant line is built as a `Submodule` by row reduction of
its generators, tested for invariance by transforming it with the deck
matrix and comparing reduced echelon forms, and tested for isotropy by
summing Fractions over the rational matrix of the form.  The program
tests each line on its generators with integer congruences and pairs
through the integer matrix n lambda; this route shares only the
`Submodule` class (its row reduction) with it.
"""

from fractions import Fraction

from sliceobs.blanchfield import t_matrix
from sliceobs.ffpoly import is_prime
from sliceobs.metabolizers import Submodule


def is_invariant(sub, g):
    """True if the integer matrix g maps the submodule onto itself."""
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
    from its generators a + (n0 + n1 t) b, t times it (or b, t b)."""
    if not is_prime(n) or n % 6 != 5:
        raise ValueError("classification needs a prime n = 5 mod 6")
    mods = [Submodule.spanned_by(
                n, ((1, 0, n0, n1), (0, 1, -n1 % n, (n0 - n1) % n)))
            for n0 in range(n) for n1 in range(n)]
    mods.append(Submodule.spanned_by(n, ((0, 0, 1, 0), (0, 0, 0, 1))))
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
    """The metabolizers among `invariant_submodules(n)`, in its order."""
    return [p for p in invariant_submodules(n) if is_metabolizer(p, form)]
