"""The Q/Z linking form on H_1 of the 3-fold branched cover of the
braid-closure family, read off the Blanchfield pairing; the homology of
the q-fold covers; and the order-n symmetry acting on everything.

The pairing on the infinite cyclic cover is carried by the two
generators sitting at rows n-1 and 2(n-1) of the Seifert presentation;
only the four pairing values between them are ever needed.  On the
3-fold cover they are taken in Z[t]/(t^3 - 1), as integer coefficient
triples.  `linking_form` gets det M and the adjugate block of
M = A - t A^T from one pass of `linalg.det_band` modulo t^3 - 1, in the
banded order of `seifert.band_order`, divides by det M through its
circulant adjugate, whose product with det M is an integer D (D = 0
refuses the cover as infinite), and reads each value as a t^0
coefficient on the basis (a, ta, b, tb).
`cover_homology_snf` takes the q-fold cover, for a presentation of
side N q up to `MAX_COVER_SIDE`, as the cokernel of t^q - 1 on Z^N
with t acting by the monodromy h = A^-1 A^T, to which the
block-circulant presentation of the cover reduces by unimodular block
moves.  One route serves every n.  The knot is n-periodic, so its
Alexander polynomial is a product of n - 1 quadratics, at the n-th
roots of unity xi^k, k = 1 .. n-1 (Murasugi, "On periodic knots",
1971); with p the product of the pairs at k and n - k
(`seifert.paired_product`), it is f_0 p, where f_0 = p for odd n and
f_0 = (t^2 - 3t + 1) p for even n, the factor at k = n/2.  Z^N is
Z[t]/f_0 on e_0 plus Z[t]/p on e_0 + e_1 (Rolfsen, *Knots and Links*,
ch. 8), by a certificate taken once per n and cached that checks
f_0(h) e_0 = p(h) (e_0 + e_1) = 0 and that e_0, e_1 generate.  So the
cover is Z[t]/(f_0, t^q - 1) plus Z[t]/(p, t^q - 1), Smith forms of
side at most min(n, q - 1), merged into one divisor chain.  The
certificate applies h only through its closed form
(`seifert.apply_monodromy`, O(N) per column, never a dense product),
and checks h against A h = A^T on the band rows of A and A^T that the
linking form reads (`seifert.band_pencil`), so both rest on one
description of the Seifert matrix.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul

from .braids import family_braid
from .linalg import Matrix, det_band, smith_normal_form
from .seifert import (apply_monodromy, band_order, band_pencil, check_n,
                      paired_product)

__all__ = [
    "CoverHomology",
    "LinkingForm",
    "MAX_COVER_SIDE",
    "SymmetryAction",
    "cover_homology_snf",
    "linking_form",
    "linking_template",
    "symmetry_action",
]

# H_1 of the 3-fold cover is generated by a, ta, b, tb with t^2 = -1 - t;
# basis elements are (deck power j, generator index e)
BASIS = ((0, 0), (1, 0), (0, 1), (1, 1))


# -- branched cover homology ----------------------------------------------------


# The largest side N q of the cover's presentation accepted, N = 2(n-1)
# the side of A; it admits q = 1000 at n = 11 and q = 10000 at n = 2.
# Every n pays a certificate of O(N^2) once, then one or two Smith forms
# of side e = min(deg f, q-1), f = f_0 or p of degree at most n, whose
# entries have O(q) digits when f is the modulus and are f folded
# modulo t^q - 1, O(n) digits, otherwise.  So N q bounds e times the
# digits of the entries, up to a constant, but not the cost of the
# Smith form: O(e^3) operations on numbers that can grow as it runs.
# Measured in process, each n cold (Python 3.11, 2 cores): for odd n,
# (11, 1000) takes 0.08 s, (5, 2500) 0.03 s, (101, 30) 0.13 s,
# (53, 192) 2.7-3.1 s, (497, 3) 0.5-0.6 s and (101, 99) 15-17 s, where
# h^99 - I ran past 25 min; for even n, (2, 10000) takes 0.12 s,
# (10, 1111) 0.1-0.17 s, (4, 3333) 0.02 s, (100, 29) 0.2 s and
# (500, 3) 0.36 s, and the refusals of (8, 1428) and (40, 30) 0.07 s.
# So bounds on n and q apiece would admit (500, 1000), two Smith forms
# of side about 500 on entries of about 400 digits.
MAX_COVER_SIDE = 20000


@dataclass(frozen=True)
class CoverHomology:
    """Invariant factors of H_1 of the q-fold branched cover."""
    n: int
    q: int
    invariants: tuple

    @property
    def torsion(self):
        return tuple(d for d in self.invariants if d > 1)

    @property
    def order(self):
        return prod(self.torsion)


def _check_knot(n):
    """ValueError if the n-th closure is a link, as it is for 3 | n."""
    braid = family_braid(n)
    if not braid.is_knot_closure:
        raise ValueError(f"the closure for n={n} is a "
                         f"{braid.closure_components}-component link, "
                         f"not a knot")


def _checked_monodromy(n):
    """The monodromy h = A^-1 A^T as its columns h e_j, each one step
    of `seifert.apply_monodromy`, once A (h e_j) = A^T e_j for every j
    on the band rows of `seifert.band_pencil`, and det A = +-1 by one
    pass of `linalg.det_band` modulo t; ArithmeticError otherwise.  So
    A and h are unimodular, as the block moves of `cover_homology_snf`
    need.  Band row p = where[i] of A^T holds column i = order[p] of A
    at the rows order[p - 2 .. p + 2] (`seifert.band_order`), zero
    outside A, where the padded order points at a spare last entry; so
    A (h e_j) adds it h_ij times for each nonzero h_ij, and A^T e_j is
    row j of A, band row where[j] of A."""
    a, at = band_pencil(n)
    order = band_order(n)
    size = len(a)
    padded = [-1, -1, *order, -1, -1]
    where = sorted(range(size), key=order.__getitem__)
    h = []
    for j in range(size):
        col = apply_monodromy(n, [0] * j + [1] + [0] * (size - 1 - j))
        got, want = [0] * (size + 1), [0] * (size + 1)
        for r, x in zip(padded[where[j]:where[j] + 5], a[where[j]]):
            want[r] = x
        for i in [i for i, x in enumerate(col) if x]:
            for r, x in zip(padded[where[i]:where[i] + 5], at[where[i]]):
                got[r] += col[i] * x
        if got != want:
            raise ArithmeticError("A times the monodromy h is not A^T")
        h.append(col)
    if abs(det_band(a, at, (0, 1))[0][0]) != 1:
        raise ArithmeticError("the Seifert matrix A is not unimodular")
    return h


def _generates(h, seeds):
    """True if the unit vectors e_i, i in seeds, are found to generate
    Z^N as a module over Z[h, h^-1], for h given by its N columns.

    A unit vector e_i is known once it lies in the submodule M they
    generate.  Column j of h is h e_j, a sum of the h[j][i] e_i.  If e_j
    is known and every row of column j but one is, the coefficient of
    that one a unit, then it lies in M too (forward); if every row of
    column j is known, then h e_j and so e_j = h^-1 h e_j lie in M
    (backward).  A worklist runs both to a fixpoint, touching each
    nonzero of h a bounded number of times.  False means only that the
    two rules stop short of Z^N."""
    size = len(h)
    nonzero = [[i for i, x in enumerate(col) if x] for col in h]
    unknown = [len(rows) for rows in nonzero]
    holding = [[] for _ in range(size)]  # the columns nonzero in row i
    for j, rows in enumerate(nonzero):
        for i in rows:
            holding[i].append(j)
    known = [False] * size
    todo = list(seeds)
    while todo:
        i = todo.pop()
        if known[i]:
            continue
        known[i] = True
        for j in holding[i]:
            unknown[j] -= 1
        for j in (i, *holding[i]):
            if not known[j] and not unknown[j]:
                todo.append(j)
            elif known[j] and unknown[j] == 1:
                todo += [u for u in nonzero[j]
                         if not known[u] and h[j][u] in (1, -1)]
    return all(known)


# t^2 - 3t + 1, lowest first: the quadratic factor of the Alexander
# polynomial at xi^(n/2) = -1, for even n
_MIDDLE_FACTOR = (1, -3, 1)


@lru_cache(maxsize=None)
def _alexander_module(n):
    """The coefficients, lowest first, of p = `seifert.paired_product`
    and of f_0 = p for odd n, f_0 = (t^2 - 3t + 1) p for even n, as
    (f_0, p), for n with a knot (3 does not divide n), once this
    certificate holds that Z^N, N = 2(n-1), with t acting by the
    monodromy h is Z[t]/f_0 on e_0 plus Z[t]/p on e_0 + e_1;
    ArithmeticError otherwise.

    - f_0 and p are monic, with unit values at 0 and 1, and
      deg f_0 + deg p = N.
    - h satisfies A h = A^T, and det A = +-1 (`_checked_monodromy`),
      so h is unimodular.
    - f_0(h) e_0 = 0 and p(h) (e_0 + e_1) = 0, by Horner's rule through
      `seifert.apply_monodromy`.
    - e_0 and e_1 generate Z^N over Z[h, h^-1] (`_generates`); e_0 alone
      when p = 1, at n = 2, where Z[t]/p = 0 drops out.

    Then (f, g) -> f(h) e_0 + g(h) (e_0 + e_1) is well defined on
    Z[t]/f_0 + Z[t]/p.  Its image is a Z[h]-submodule holding e_0 and
    e_1, and closed under h^-1 since t is a unit modulo f_0 and p, so it
    is all of Z^N: a map onto Z^N from a free Z-module of the same rank
    N, and so an isomorphism.  With f_0(1) and p(1) units, t - 1 is a
    unit modulo both too, so the cokernel of t^q - 1 is that of
    1 + t + ... + t^(q-1), the usual presentation of the branched cover.
    The certificate is taken once per n and cached."""
    coeffs = dict(paired_product(n).items())
    p = tuple(coeffs.get(k, 0) for k in range(max(coeffs) + 1))
    u, v, w = _MIDDLE_FACTOR
    f0 = p if n % 2 else tuple(u * a + v * b + w * c for a, b, c in
                               zip((*p, 0, 0), (0, *p, 0), (0, 0, *p)))
    size = 2 * (n - 1)
    if min(coeffs) or any(f[-1] != 1 or abs(f[0]) != 1 or abs(sum(f)) != 1
                          for f in (f0, p)):
        raise ArithmeticError(
            "f_0 and p are not monic with unit values at 0 and 1")
    if len(f0) + len(p) - 2 != size:
        raise ArithmeticError(f"deg f_0 + deg p is not N = {size}")
    h = _checked_monodromy(n)
    # p = 1 only at n = 2, where its summand is 0 and e_0 generates
    summands = ((f0, (0,), "f_0(h) does not kill e_0"),
                (p, (0, 1), "p(h) does not kill e_0 + e_1"))[:1 + (len(p) > 1)]
    for f, seeds, failure in summands:
        value = [int(k in seeds) for k in range(size)]  # f[-1] = 1
        for c in reversed(f[:-1]):
            value = apply_monodromy(n, value)
            for i in seeds:
                value[i] += c
        if any(value):
            raise ArithmeticError(failure)
    if not _generates(h, summands[-1][1]):
        raise ArithmeticError(
            "e_0 and e_1 are not found to generate Z^N over Z[h, h^-1]")
    return f0, p


def _quotient_invariants(f, q):
    """Invariant factors of Z[t]/(f, t^q - 1), for f the coefficients,
    lowest first, of a monic polynomial of degree d with f(1) = +-1,
    less the d - e ones that would pad them to d entries.  As t - 1 is a
    unit modulo f, that is Z[t]/(f, g) for the monic
    g = 1 + t + ... + t^(q-1), the cokernel of multiplication by one of
    f, g on Z[t] modulo the other, `mod`, the one of the lower degree
    e = min(d, q - 1): the Smith form of the e-square matrix whose
    row j is t^j times the other mod `mod`."""
    other, mod = (f, [1] * q) if q < len(f) else ([1] * q, f)
    low, rows = mod[:-1], [_monic_mod(other, mod)]
    while len(rows) < len(low):  # row j + 1 is t times row j
        v = rows[-1]
        rows.append([u - v[-1] * w for u, w in zip([0, *v[:-1]], low)])
    return smith_normal_form(rows[:len(low)])


def _monic_mod(f, g):
    """The remainder, d = deg g entries, of f by the monic g, lowest
    first."""
    d = len(g) - 1
    f = list(f) + [0] * (d - len(f))
    for i in reversed(range(len(f) - d)):
        c = f[i + d]
        f[i:i + d + 1] = [u - c * w for u, w in zip(f[i:i + d + 1], g)]
    return f[:d]


def _divisor_chain(entries):
    """The invariant factors, each dividing the next, of the direct sum
    of the cyclic groups Z/d for d in entries, 0 standing for Z, leaving
    out the ones.  Replacing a pair (a, b) by (gcd, lcm) keeps the group,
    and a sweep that does so for each entry i with every later one
    leaves at i the gcd of all that remain, a divisor of each of them."""
    chain = [d for d in entries if d != 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            a, b = chain[i], chain[j]
            chain[i], chain[j] = gcd(a, b), lcm(a, b)
    return chain


def cover_homology_snf(n, q):
    """Invariant factors of H_1 of the q-fold branched cover, for
    q >= 1 with N q <= MAX_COVER_SIDE.

    The cover is presented by t A - A^T with t the q-cyclic shift: a
    block-circulant matrix with -A^T on the diagonal and A on the cyclic
    subdiagonal.  Unimodular block moves reduce it to the monodromy
    h = A^-1 A^T.  Multiplying every block row by A^-1 (A is
    unimodular) leaves -h on the diagonal and I on the cyclic
    subdiagonal; adding block column c times h to column c + 1, for
    c = 0, ..., q-2, clears the diagonal and leaves I - h^q in the
    corner of the first block row, whose other blocks the identity
    blocks below then clear.  So the Smith form is (q-1) N ones, N the
    side of A, followed by the invariants of the cokernel of t^q - 1 on
    Z^N with t acting by h.

    By the per-n certificate of `_alexander_module`, Z^N is
    Z[t]/f_0 + Z[t]/p as a module over Z[t], so that cokernel is
    Z[t]/(f_0, t^q - 1) + Z[t]/(p, t^q - 1), each the Smith form of a
    matrix of side min(deg f, q - 1) (`_quotient_invariants`), taken
    once when f_0 = p, for odd n.  The two are merged into one divisor chain
    (`_divisor_chain`) and padded with ones to N entries.  A zero
    invariant means an infinite cover, refused by ValueError.

    The bound on n (`seifert.check_n`) and the one on N q, which
    MAX_COVER_SIDE gives the cost of, are checked before anything is
    allocated.  Then a link (3 | n) is refused.
    """
    if not isinstance(q, int) or isinstance(q, bool) or q < 1:
        raise ValueError(
            f"the cover degree q must be an integer at least 1, got {q!r}")
    size = 2 * check_n(n)
    if size * q > MAX_COVER_SIDE:
        raise ValueError(
            f"the {q}-fold cover for n={n} is presented on N q = "
            f"{size * q} generators, above the ceiling N q <= "
            f"{MAX_COVER_SIDE}")
    _check_knot(n)
    f0, p = _alexander_module(n)
    inv = _quotient_invariants(f0, q)
    inv = _divisor_chain(
        inv + (inv if f0 == p else _quotient_invariants(p, q)))
    if not all(inv):
        raise ValueError(
            f"H_1 of the {q}-fold branched cover is infinite for n={n}")
    return CoverHomology(n, q, (1,) * (q * size - len(inv)) + tuple(inv))


# -- the Q/Z linking form -------------------------------------------------------


def _cyclic_product(f, g):
    """The product f g modulo t^3 - 1 of two coefficient triples, lowest
    first."""
    return tuple(sum(f[i] * g[k - i] for i in range(3)) for k in range(3))


@dataclass(frozen=True)
class LinkingForm:
    """The Q/Z linking form on H_1 of the 3-fold branched cover, on the
    basis (a, ta, b, tb).

    Every value lies in (1/n)Z/Z, so the form is stored once, as the
    integer matrix `scaled` = n lambda mod n, a 4 x 4 of ints in [0, n)
    (ValueError otherwise), kept as tuple rows; `matrix` gives the values
    as Fractions in [0, 1), and `template_sign` compares it with the
    closed form."""
    n: int
    scaled: tuple

    def __post_init__(self):
        n, rows = self.n, self.scaled
        if not (len(rows) == 4 and all(len(row) == 4 for row in rows) and all(
                type(x) is int and 0 <= x < n for row in rows for x in row)):
            raise ValueError(f"a linking form mod n={n} needs a 4 x 4 of "
                             f"ints in [0, {n}), not {rows!r}")
        object.__setattr__(self, "scaled", tuple(map(tuple, rows)))

    @property
    def template_sign(self):
        """+1 or -1 when `scaled` is `linking_template(n)` or its
        negative mod n, else 0."""
        plus = linking_template(self.n)
        minus = tuple(tuple(-x % self.n for x in row) for row in plus)
        return {minus: -1, plus: 1}.get(self.scaled, 0)

    @property
    def matrix(self):
        """The values lambda, Fractions in [0, 1)."""
        return tuple(tuple(Fraction(x, self.n) for x in row)
                     for row in self.scaled)

    def pair(self, u, v):
        """n times the pairing of integer coordinate vectors u, v: the
        integer u^T (n lambda) v mod n, in [0, n)."""
        return sum(x * sum(map(mul, row, v))
                   for x, row in zip(u, self.scaled) if x) % self.n

    def value(self, u, v):
        """Pairing of integer coordinate vectors on the basis, the
        Fraction pair(u, v) / n."""
        return Fraction(self.pair(u, v), self.n)


def linking_form(n):
    """The linking form of the 3-fold branched cover on (a, ta, b, tb).

    With M = A - t A^T, Delta = det M and p = (n-2, 2n-3), the pairing
    of t^a e_u and t^b e_v is the t^0 coefficient of t^(b-a) G_vu in
    Q[t]/(t^3 - 1), where G = (t - 1) M^-1 [p, p].  That needs a knot
    (3 | n gives a link, refused after the ceiling on n).  One pass of
    `linalg.det_band` modulo t^3 - 1 gives Delta = c0 + c1 t + c2 t^2
    and the adjugate block adj of M at p.  The circulant adjugate
    co = (c0^2 - c1 c2) + (c2^2 - c0 c1) t + (c1^2 - c0 c2) t^2 has
    Delta co = D, the integer c0^3 + c1^3 + c2^3 - 3 c0 c1 c2 =
    Delta(1) N(Delta(w)), w a primitive cube root of unity; D = 0 means
    the cover has infinite homology, refused by ValueError.  Otherwise
    G_vu = (t - 1) co adj_vu / D, its integer triple checked hermitian,
    G_ij[k] = G_ji[-k mod 3], and the form keeps n times each value,
    the quotient of n G_vu[(a - b) mod 3] by D mod n; a nonzero
    remainder, a denominator not dividing n, raises ValueError.
    """
    a, at = band_pencil(n)  # in band order, which ends with p
    _check_knot(n)
    # the minors B bordered by the last two rows and columns give the
    # adjugate block at p, [[B11, -B01], [-B10, B00]]
    (c0, c1, c2), ((b00, b01), (b10, b11)) = det_band(a, at, (-1, 0, 0, 1))
    den = c0 ** 3 + c1 ** 3 + c2 ** 3 - 3 * c0 * c1 * c2
    if not den:
        raise ValueError(
            "the Alexander polynomial shares a root of unity with t^3-1, "
            "so the 3-fold branched cover has infinite homology")
    co = (c0 * c0 - c1 * c2, c2 * c2 - c0 * c1, c1 * c1 - c0 * c2)
    plus, minus = (_cyclic_product(s, co) for s in ((-1, 1, 0), (1, -1, 0)))
    g = ((_cyclic_product(plus, b11), _cyclic_product(minus, b01)),
         (_cyclic_product(minus, b10), _cyclic_product(plus, b00)))
    if any(g[i][j][k] != g[j][i][-k] for i in range(2) for j in range(2)
           for k in range(3)):
        raise ArithmeticError("pairing entries are not hermitian")

    def scaled(ju, eu, jv, ev):
        x = g[ev][eu][(ju - jv) % 3]
        value, rem = divmod(n * x, den)
        if rem:
            raise ValueError(
                f"linking value {Fraction(x, den) % 1} has a "
                f"denominator not dividing n={n}: H_1 of the 3-fold cover "
                f"is not (Z/n)^4 on the basis (a, ta, b, tb)")
        return value % n

    mat = tuple(tuple(scaled(*u, *v) for v in BASIS) for u in BASIS)
    if mat != tuple(zip(*mat)):
        raise ArithmeticError("linking form must be symmetric")
    form = LinkingForm(n, mat)
    if not _transforms_to(form, t_matrix()):
        raise ArithmeticError(
            "deck transformation must preserve the linking form")
    return form


def linking_template(n):
    """Closed form of the 3-fold linking matrix, k = (n-1)/2, as the
    integers n lambda mod n of `LinkingForm.scaled`."""
    k = (n - 1) // 2
    base = ((-1, -k, -k, k),
            (-k, -1, 0, -k),
            (-k, 0, 1, k),
            (k, -k, k, 1))
    return tuple(tuple(x % n for x in row) for row in base)


def _transforms_to(form, g):
    """True if the integer matrix g (acting on column coordinates) is an
    isometry: form(gu, gv) = form(u, v) for basis u, v, compared as the
    integers n times those values mod n."""
    cols = list(zip(*g))
    return all(form.pair(u, v) == x
               for u, row in zip(cols, form.scaled) for v, x in zip(cols, row))


def _same_n(n, obj, what="the linking form"):
    if obj.n != n:
        raise ValueError(f"{what} is for n={obj.n}, not for n={n}")


# -- the order-n symmetry -------------------------------------------------------


def t_matrix():
    """Deck transformation on (a, ta, b, tb); t^2 = -1 - t."""
    return Matrix(((0, -1, 0, 0),
                   (1, -1, 0, 0),
                   (0, 0, 0, -1),
                   (0, 0, 1, -1)))


def r_matrix():
    """The order-n symmetry on (a, ta, b, tb), from r(a) = -t^-1 a - b and
    r(b) = t^-1 a + (1 - t) b with t^-1 = t^2 = -1 - t."""
    return Matrix(((1, -1, -1, 1),
                   (1, 0, -1, 0),
                   (-1, 0, 1, 1),
                   (0, -1, -1, 2)))


def period_matrix():
    """The period shift of `twisted.period_shift` on character rows over
    (a, ta, b, tb): a row c goes to c P mod n, so row k of P is the image
    of the k-th unit row.  Unlike t and r it acts on rows, from the
    right.  P commutes with t, but mod 11 it is no r^k t^j and no
    transpose of one; how it relates to r is open."""
    return Matrix(((1, -1, 0, 1),
                   (1, 0, -1, 1),
                   (0, -1, 1, 1),
                   (1, -1, -1, 2)))


@dataclass(frozen=True)
class SymmetryAction:
    """The commuting pair (deck transformation t, periodic symmetry r)
    acting on H_1 of the 3-fold cover mod n."""
    n: int
    t: Matrix
    r: Matrix


def _nilpotent_part(r):
    """r - I, after checking that it squares to 0 over Z and that its
    entries have gcd 1; ArithmeticError otherwise.  Then
    r^k = I + k (r - I) for every k, so r^n = I + n (r - I) = I mod n,
    and r^k = I mod n only for n | k: r has order exactly n mod n."""
    u = r - Matrix.identity(4)
    if u * u != u.map(lambda x: 0) or gcd(*sum(u.rows, ())) != 1:
        raise ArithmeticError("r - I must square to 0, with entries of gcd 1")
    return u


def symmetry_action(n, form=None):
    """The commuting pair (t, r) on H_1 of the 3-fold cover mod n, for n
    as `seifert.check_n` takes it and, if given, the linking form of
    that n.

    It checks t r = r t and t^3 = I, and that r preserves the form.  That
    r has order n mod n needs no power of r: `_nilpotent_part` checks
    (r - I)^2 = 0 over Z, so r^n = I + n (r - I), and raises
    ArithmeticError if that fails."""
    check_n(n)
    if form is not None:
        _same_n(n, form)
    t = t_matrix()
    r = r_matrix()
    if t * r != r * t:
        raise ArithmeticError("symmetry must commute with the deck action")
    if t * t * t != Matrix.identity(4):
        raise ArithmeticError("deck transformation has order 3")
    _nilpotent_part(r)
    if form is not None and not _transforms_to(form, r):
        raise ValueError(f"symmetry does not preserve the linking form "
                         f"for n={n}")
    return SymmetryAction(n, t, r)
