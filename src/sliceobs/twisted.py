"""Twisted Alexander polynomials of the braid-closure family for the
metabelian representations attached to metabolizer characters.

Each Wirtinger generator g maps to C * diag(d_1, d_2, d_3) where C is
the 3x3 cyclic companion block carrying the variable t and the d_i are
powers theta^(e_i) of a fixed n-th root of unity theta mod s.  The
exponent triples e(g) are forced by the relators: conjugation acts by a
cyclic shift, so e_c = e_b + shift(e_a) - shift(e_b) at each crossing,
and three seed triples determine every generator.  The polynomial is
det of the Fox matrix with one relator row and one generator column
removed, interpolated from prime-field evaluations, then divided by
(t - 1)^2 exactly.
"""

from dataclasses import dataclass

from . import ffpoly
from .ffpoly import is_prime
from .linalg import det_gf

__all__ = [
    "TwistedRep",
    "FoxBlockMatrix",
    "seed_tuples",
    "propagate",
    "period_shift",
    "fox_block",
    "fox_matrix",
    "twisted_polynomial",
    "TwistedPolynomial",
]


def _shift_left(e):
    return (e[1], e[2], e[0])


def _shift_right(e):
    return (e[2], e[0], e[1])


def seed_tuples(chi):
    """Exponent triples of generators 1, 3, 4 for the character chi on
    the basis (a, ta, b, tb)."""
    n = chi.n
    ca, cta, cb, ctb = chi.row
    e1 = (0, 0, 0)
    e4 = ((-ca - cta) % n, ca % n, cta % n)
    e3 = (ctb % n, (-cb - ctb) % n, cb % n)
    return {1: e1, 3: e3, 4: e4}


def propagate(pres, seeds, n):
    """Exponent triples for every generator, forced by the relators.

    A relator (a, b, c) demands e_c = e_b + shift(e_a) - shift(e_b)
    componentwise mod n, where shift is the left cyclic rotation; the
    inverse solve for e_a uses the right rotation.  All relators are
    re-checked once everything is assigned.
    """
    e = {g: tuple(x % n for x in v) for g, v in seeds.items()}
    pending = True
    while pending:
        pending = False
        progress = False
        for a, b, c in pres.relators:
            known = (a in e, b in e, c in e)
            if all(known):
                continue
            if known == (True, True, False):
                sa, sb = _shift_left(e[a]), _shift_left(e[b])
                e[c] = tuple((e[b][i] + sa[i] - sb[i]) % n for i in range(3))
            elif known == (False, True, True):
                d = _shift_right(tuple(
                    (e[c][i] - e[b][i]) % n for i in range(3)))
                e[a] = tuple((d[i] + e[b][i]) % n for i in range(3))
            elif known == (True, False, True):
                raise ValueError("cannot solve a crossing for the overarc")
            else:
                pending = True
                continue
            progress = True
        if pending and not progress:
            raise ValueError("seeds do not determine all generators")
    assert len(e) == pres.num_generators
    for a, b, c in pres.relators:
        sa, sb = _shift_left(e[a]), _shift_left(e[b])
        want = tuple((e[b][i] + sa[i] - sb[i]) % n for i in range(3))
        assert e[c] == want, "relator fails on propagated exponents"
    return e


def _period_permutation(pres):
    """The arc permutation induced by rotating the closure diagram one
    period (two crossings).  Relators are in crossing order, so relator i
    must map onto relator i+2 slot by slot; any clash means the
    presentation has no such symmetry."""
    rels = pres.relators
    k = len(rels)
    pi = {}
    for i, r in enumerate(rels):
        target = rels[(i + 2) % k]
        for x, y in zip(r, target):
            if pi.setdefault(x, y) != y:
                raise ValueError("presentation has no period symmetry")
    assert len(pi) == pres.num_generators
    assert len(set(pi.values())) == len(pi), "period map must be a bijection"
    return pi


def period_shift(pres, chi):
    """The character whose representation is the pullback of chi's under
    one period of the closure diagram.

    The diagram is carried to itself by rotating one period; the induced
    arc permutation sends the pulled-back exponent assignment to
    e'(g) = e(pi(g)).  A uniform conjugation (the only gauge freedom)
    renormalizes e'(1) to zero and the new character is read off the seed
    slots.  Pulling back along a self-homeomorphism leaves the twisted
    polynomial unchanged, so iterating this walks the orbit characters
    without changing the factor tables.
    """
    n = chi.n
    m = pres.num_generators
    pi = _period_permutation(pres)
    e = propagate(pres, seed_tuples(chi), n)
    shifted = {g: e[pi[g]] for g in range(1, m + 1)}
    delta = tuple(-x % n for x in shifted[1])
    assert sum(delta) % n == 0, "gauge offsets must sum to zero"
    fixed = {g: tuple((v[i] + delta[i]) % n for i in range(3))
             for g, v in shifted.items()}
    assert fixed[1] == (0, 0, 0)
    ca, cta = fixed[4][1], fixed[4][2]
    cb, ctb = fixed[3][2], fixed[3][0]
    assert fixed[4][0] == (-ca - cta) % n
    assert fixed[3][1] == (-cb - ctb) % n
    out = chi.__class__(n, (ca, cta, cb, ctb), chi.sign)
    assert propagate(pres, seed_tuples(out), n) == fixed, \
        "transported assignment must re-seed exactly"
    return out


@dataclass(frozen=True)
class TwistedRep:
    """The representation data: exponent triples per generator, realized
    mod s by the order-n element theta."""
    n: int
    s: int
    theta: int
    exponents: tuple  # exponents[g-1] is the triple of generator g

    @staticmethod
    def build(pres, chi, s, theta):
        n = chi.n
        if not is_prime(s):
            raise ValueError(f"s={s} is not prime")
        if pow(theta, n, s) != 1 or theta % s == 1:
            raise ValueError(f"theta={theta} does not have order {n} mod {s}")
        e = propagate(pres, seed_tuples(chi), n)
        exps = tuple(e[g] for g in range(1, pres.num_generators + 1))
        return TwistedRep(n, s, theta, exps)

    def d(self, g):
        """diag entries (d_1, d_2, d_3) of generator g, mod s."""
        e = self.exponents[g - 1]
        return tuple(pow(self.theta, x, self.s) for x in e)


@dataclass(frozen=True)
class FoxBlockMatrix:
    """The Fox matrix konst + t * (sparse t entries) over Z/s, with one
    relator row and one generator column removed."""
    s: int
    size: int
    konst: tuple
    t_positions: tuple  # (row, col, coeff) of the t entries

    def at(self, x):
        """Dense integer matrix konst + x * tmat mod s."""
        rows = [list(r) for r in self.konst]
        for i, j, c in self.t_positions:
            rows[i][j] = (rows[i][j] + x * c) % self.s
        return rows

    def det_at(self, x):
        return det_gf(self.at(x), self.s)

    def poly_rows(self):
        """Entries as dense polynomials over Z/s, for the direct
        elimination route."""
        rows = [[[x] if x else [] for x in r] for r in self.konst]
        for i, j, c in self.t_positions:
            ent = rows[i][j]
            while len(ent) < 2:
                ent.append(0)
            ent[1] = (ent[1] + c) % self.s
            rows[i][j] = ffpoly.trim(ent)
        return rows

    def raw_det_bareiss(self):
        return ffpoly.poly_matrix_det(self.poly_rows(), self.s)


def fox_block(relator, g, rep):
    """3x3 block (konst, tmat) of the Fox derivative of the relator
    (a, b, c) ~ g_a g_b g_c^-1 g_b^-1 with respect to generator g, under
    the representation.  Occurrences sum."""
    a, b, c = relator
    s = rep.s
    konst = [[0] * 3 for _ in range(3)]
    tmat = [[0] * 3 for _ in range(3)]
    if g == a:
        for k in range(3):
            konst[k][k] += 1
    if g == b:
        d1, d2, d3 = rep.d(a)
        konst[1][0] += d1
        konst[2][1] += d2
        tmat[0][2] += d3
        for k in range(3):
            konst[k][k] -= 1
    if g == c:
        d1, d2, d3 = rep.d(b)
        konst[1][0] -= d1
        konst[2][1] -= d2
        tmat[0][2] -= d3
    konst = [[x % s for x in row] for row in konst]
    tmat = [[x % s for x in row] for row in tmat]
    return konst, tmat


def fox_matrix(pres, rep, drop_relator=1, drop_generator=1):
    """Assemble the deleted Fox matrix. Relators and generators are
    numbered from 1; the dropped relator row and generator column give a
    square matrix of side 3 * (num_generators - 1)."""
    gens = [g for g in range(1, pres.num_generators + 1)
            if g != drop_generator]
    col_of = {g: i for i, g in enumerate(gens)}
    kept = [r for i, r in enumerate(pres.relators, start=1)
            if i != drop_relator]
    assert len(kept) == len(gens), "square after one deletion each"
    size = 3 * len(gens)
    konst = [[0] * size for _ in range(size)]
    t_positions = []
    s = rep.s
    for ri, rel in enumerate(kept):
        for g in set(rel):
            if g == drop_generator:
                continue
            kb, tb = fox_block(rel, g, rep)
            r0, c0 = 3 * ri, 3 * col_of[g]
            for i in range(3):
                for j in range(3):
                    if kb[i][j]:
                        konst[r0 + i][c0 + j] = (
                            konst[r0 + i][c0 + j] + kb[i][j]) % s
                    if tb[i][j]:
                        assert i == 0 and j == 2, "t only in the corner"
                        t_positions.append((r0, c0 + 2, tb[i][j]))
    # the t entries live in rows 0 mod 3, so deg det <= number of relators
    assert all(r % 3 == 0 and c % 3 == 2 for r, c, _ in t_positions)
    return FoxBlockMatrix(s, size, tuple(tuple(r) for r in konst),
                          tuple(t_positions))


@dataclass(frozen=True)
class TwistedPolynomial:
    """Normalized twisted polynomial mod s: ascending coefficients after
    exact division by (t-1)^2, stripped of powers of t and made monic."""
    n: int
    s: int
    theta: int
    coeffs: tuple
    raw_degree: int

    @property
    def degree(self):
        return len(self.coeffs) - 1


def twisted_polynomial(pres, chi, s, theta, drop_relator=1,
                       drop_generator=1):
    """The (t-1)^2-normalized twisted polynomial for the character chi,
    over Z/s with theta realizing the n-th root of unity."""
    rep = TwistedRep.build(pres, chi, s, theta)
    fbm = fox_matrix(pres, rep, drop_relator, drop_generator)
    m = pres.num_generators - 1
    points_needed = m + 1
    assert points_needed <= s, "field too small to interpolate"
    xs = list(range(points_needed))
    ys = [fbm.det_at(x) for x in xs]
    raw = ffpoly.interpolate(xs, ys, s)
    assert len(raw) - 1 <= m, "degree bound violated"
    assert raw, "twisted determinant vanished identically"
    body = raw
    for _ in range(2):
        body, rem = ffpoly.poly_divmod(body, [s - 1, 1], s)
        assert rem == [], "determinant must be divisible by (t-1)^2"
    lead = 0
    while body[lead] == 0:
        lead += 1
    body = body[lead:]
    body = ffpoly.monic(body, s)
    return TwistedPolynomial(chi.n, s, theta, tuple(body), len(raw) - 1)
