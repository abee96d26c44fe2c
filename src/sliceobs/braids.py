"""Braid words and Wirtinger presentations of their closures.

The family of interest is the closure of (sigma_1 sigma_2^-1)^n in the
3-strand braid group; it is a knot exactly when gcd(n, 3) = 1.  Arcs of
the closure diagram are numbered by a sweep down the braid, one fresh
arc per crossing, then identified around the closure and relabeled
1..(number of crossings).
"""

from dataclasses import dataclass

__all__ = [
    "BraidWord",
    "WirtingerPresentation",
    "family_braid",
    "wirtinger_of_closure",
]


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on `strands` strands; letters are nonzero
    ints i / -i for the i-th elementary crossing and its inverse."""
    strands: int
    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.strands < 2:
            raise ValueError("need at least 2 strands")
        for x in self.letters:
            if not isinstance(x, int) or x == 0 or abs(x) >= self.strands:
                raise ValueError(f"bad letter {x} for {self.strands} strands")

    def permutation(self):
        """Where each top strand position ends at the bottom, as a tuple
        perm with perm[i-1] = final position of the strand starting at i."""
        pos = list(range(self.strands))  # pos[j] = strand currently at j
        for x in self.letters:
            i = abs(x) - 1
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        out = [0] * self.strands
        for j, strand in enumerate(pos):
            out[strand] = j + 1
        return tuple(out)

    @property
    def closure_components(self):
        perm = self.permutation()
        seen = set()
        count = 0
        for start in range(1, self.strands + 1):
            if start in seen:
                continue
            count += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = perm[j - 1]
        return count

    @property
    def is_knot_closure(self):
        return self.closure_components == 1


def family_braid(n):
    """(sigma_1 sigma_2^-1)^n on three strands."""
    if n < 1:
        raise ValueError("n must be positive")
    return BraidWord(3, (1, -2) * n)


@dataclass(frozen=True)
class WirtingerPresentation:
    """Generators 1..num_generators (one per arc) and one relator per
    crossing.  A relator (a, b, c) asserts g_a = g_b g_c g_b^-1."""
    num_generators: int
    relators: tuple

    def __post_init__(self):
        object.__setattr__(self, "relators",
                          tuple(tuple(r) for r in self.relators))
        for a, b, c in self.relators:
            for g in (a, b, c):
                if not 1 <= g <= self.num_generators:
                    raise ValueError(f"generator {g} out of range")


def wirtinger_of_closure(braid):
    """Wirtinger presentation of the closure of a braid whose closure is
    a knot.

    At a positive crossing sigma_i, the strand at position i crosses over;
    the new arc w at position i satisfies w = o u o^-1 where o is the old
    overarc and u the old arc at position i+1, giving relator (w, o, u).
    At sigma_i^-1 the strand at position i+1 crosses over and the new arc
    w at position i+1 satisfies u = o w o^-1 for the old arc u at position
    i, giving relator (u, o, w).
    """
    if not braid.is_knot_closure:
        raise ValueError("closure is a link, not a knot")
    if not braid.letters:
        raise ValueError("closure of the empty word is the unknot; "
                         "no crossings to present")
    k = braid.strands
    current = list(range(1, k + 1))
    fresh = k
    relators = []
    for x in braid.letters:
        i = abs(x) - 1
        fresh += 1
        w = fresh
        if x > 0:
            o, u = current[i], current[i + 1]
            relators.append((w, o, u))
            current[i], current[i + 1] = w, o
        else:
            u, o = current[i], current[i + 1]
            relators.append((u, o, w))
            current[i], current[i + 1] = o, w
    # close up: the arc leaving position j is the arc entering position j
    parent = list(range(fresh + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for j in range(k):
        ra, rb = find(j + 1), find(current[j])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    classes = sorted({find(a) for a in range(1, fresh + 1)})
    if len(classes) != len(braid.letters):
        raise ArithmeticError("one generator per crossing")
    relabel = {root: i + 1 for i, root in enumerate(classes)}
    relators = tuple((relabel[find(a)], relabel[find(b)], relabel[find(c)])
                     for a, b, c in relators)
    return WirtingerPresentation(len(classes), relators)
