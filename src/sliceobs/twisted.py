"""Twisted Alexander polynomials of the braid-closure family for the
metabelian representations attached to metabolizer characters.

Each Wirtinger generator g maps to C * diag(d_1, d_2, d_3) where C is
the 3x3 cyclic companion block carrying the variable t and the d_i are
powers theta^(e_i) of a fixed n-th root of unity theta mod s.  The
exponent triples e(g) are forced by the relators: conjugation acts by a
cyclic shift, so e_c = e_b + shift(e_a) - shift(e_b) at each crossing,
and the three seed triples of arcs 1, 3 and 4 determine every
generator in one pass over the relators in crossing order, and one
relator check confirms the assignment.  `period_shift` pulls a
character back one period of the diagram by the constant matrix
`blanchfield.period_matrix`, with no propagation.  The witness
(s, theta) is validated by `ffpoly.primitive_root_of_unity`.
The polynomial is det of the Fox matrix with one relator row and one
generator column removed (Wada's deleted Fox determinant), divided
once by (t - 1)^2, exactly.

The determinant is never assembled densely.  The relators, taken in
crossing order, eliminate the arc each crossing creates by block
forward substitution; the arcs read before they are created (the
initial arcs) and the dropped relator's arc are left as a border of at
most four arcs.  The elimination runs once, on Laurent polynomials in
t: a row of an arc's block is one integer that holds the coefficients
of its border columns in fixed-width slots, degree after degree, so
multiplying by t shifts the row up one degree and dividing by t shifts
it down, and every other factor of a relator's step is a scalar.  The
slots cover only the degrees the rows can reach, a window that the plan
tracks row by row through the steps (about 2n/3 degrees for the family,
of 2n - 1 kept relators).  A step is then three integer expressions,
whose slots are all reduced at once by Barrett's method
(`_slot_reducer`) into [0, 2s), with no carry from one slot into the
next.  Only the Schur complement in the border
(at most 12 x 12) goes to points, and they are the 2n-th roots of
unity omega^k = (-theta)^k, which the field of the witness already
holds, in one table of the powers of omega.  The diagonals are read
from it too, since theta = omega^(n + 1) gives
theta^e = omega^((n + 1) e).  Each point is one sum of its packed
coefficients times powers of omega from the table, taken at the first
n points only: as omega^n = -1, the sums over the even and the odd
degrees give the values at omega^k and at omega^(k + n).  One Gaussian
elimination over all the points together (`det_gf` with `points`)
takes its determinants, and the same sum over those, read backwards and
scaled by 1/2n, gives the coefficients (the discrete Fourier transform
is its own inverse up to a reversal).  The power of t and the sign come
from the plan.  The dense route lives on in the tests as the oracle.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from . import ffpoly
from .blanchfield import period_matrix
from .linalg import det_gf
from .seifert import MAX_N

__all__ = [
    "TwistedRep",
    "seed_tuples",
    "propagate",
    "period_shift",
    "twisted_determinant",
    "twisted_polynomial",
    "TwistedPolynomial",
]


def _crossing(ea, eb, n):
    """The triple e_c that a crossing (a, b, c) forces:
    e_b + shift(e_a) - shift(e_b) mod n, shift the left cyclic rotation."""
    return tuple((eb[i] + ea[(i + 1) % 3] - eb[(i + 1) % 3]) % n
                 for i in range(3))


def seed_tuples(chi):
    """Exponent triples of generators 1, 3, 4 for the character chi on
    the basis (a, ta, b, tb)."""
    n = chi.n
    ca, cta, cb, ctb = chi.row
    e1 = (0, 0, 0)
    e4 = ((-ca - cta) % n, ca % n, cta % n)
    e3 = (ctb % n, (-cb - ctb) % n, cb % n)
    return {1: e1, 3: e3, 4: e4}


def _check_relators(pres, e, n):
    """ArithmeticError unless every relator holds on the assignment e."""
    for a, b, c in pres.relators:
        if e[c] != _crossing(e[a], e[b], n):
            raise ArithmeticError(
                f"relator {(a, b, c)} fails on the exponent triples")


def propagate(pres, seeds, n):
    """Exponent triples for every generator, forced by the relators.

    A relator (a, b, c) demands e_c = e_b + shift(e_a) - shift(e_b)
    componentwise mod n, where shift is the left cyclic rotation; the
    inverse solve for e_a uses the right rotation.  The relators are
    solved in one pass, in their order: each must have at most one
    unknown arc, other than its overarc b, when it is reached, which
    holds for the seeds 1, 3, 4 of the closure presentation.  Every
    relator is checked once everything is assigned.
    """
    e = {g: tuple(x % n for x in v) for g, v in seeds.items()}
    for a, b, c in pres.relators:
        known = (a in e, b in e, c in e)
        if known == (True, True, False):
            e[c] = _crossing(e[a], e[b], n)
        elif known == (False, True, True):
            # e_a = shift^-1(e_c - e_b) + e_b
            ec, eb = e[c], e[b]
            e[a] = tuple((ec[i - 1] - eb[i - 1] + eb[i]) % n
                         for i in range(3))
        elif known == (True, False, True):
            raise ValueError("cannot solve a crossing for the overarc")
        elif not all(known):
            raise ValueError("seeds do not determine all generators")
    if len(e) != pres.num_generators:
        raise ValueError("seeds do not determine all generators")
    _check_relators(pres, e, n)
    return e


def period_shift(chi):
    """The character whose representation is the pullback of chi's under
    one period of the closure diagram: the row chi.row P mod n, P the
    constant `blanchfield.period_matrix`, with chi's sign.

    Rotating the closure diagram one period (two crossings) carries arcs
    1, 3 and 4, the seeds, to arcs 4, 5 and 6, and the pulled-back
    assignment, renormalized by the uniform conjugation that makes arc 1
    zero, is seeded by their triples.  Relators 2 and 3, (1, 3, 5) and
    (6, 4, 3), give e(5) and e(6) from the seeds by integer linear
    formulas in which n does not occur, the same for every knot in the
    family, so the new row is a fixed integer matrix times the old one.
    The transport along the diagram, which checks every relator, lives
    with the tests and certifies P.  Pulling back along a
    self-homeomorphism leaves the twisted polynomial unchanged, so n - 1
    shifts pull chi back through every period of the diagram with the
    same polynomial.  Whether the pulled-back characters are the ones
    that vanish on the orbit metabolizers of the linking form is not
    checked here.
    """
    n = chi.n
    p = period_matrix().rows
    row = tuple(sum(c * pk[j] for c, pk in zip(chi.row, p)) % n
                for j in range(4))
    return chi.__class__(n, row, chi.sign)


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
        """The representation of chi at the witness (s, theta), which
        `ffpoly.primitive_root_of_unity` validates: s prime and theta of
        order exactly n mod s.  theta is stored as given."""
        n = chi.n
        ffpoly.primitive_root_of_unity(s, n, theta)
        e = propagate(pres, seed_tuples(chi), n)
        exps = tuple(e[g] for g in range(1, pres.num_generators + 1))
        return TwistedRep(n, s, theta, exps)


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


def _slot_reducer(s, slots):
    """The slot width w and reduce(v0, v1, v2) for `slots` residues mod s
    packed w bits apart in one int: reduce takes every slot of each of
    its three ints (the rows of a block) from below 8 s^3
    into [0, 2s), congruent mod s, by Barrett's method on all the slots
    of an int at once.

    With k = bits(8 s^3) and mu = floor(2^k / s), a slot v_j < 2^k has
    v_j mu < 2^(k + bits(mu)) = 2^(w - 1), so the one product v mu keeps
    its slots apart, and shifted right by k and masked to the low w - k
    bits of each slot it holds q_j = floor(v_j mu / 2^k).  Since
    mu > 2^k / s - 1, q_j > v_j / s - v_j / 2^k - 1 > v_j / s - 2, and
    q_j <= v_j / s, so q_j is floor(v_j / s) or one less: v_j - q_j s is
    in [0, 2s), and subtracting q s borrows from no slot.
    """
    k = (8 * s ** 3).bit_length()
    mu = (1 << k) // s
    w = k + mu.bit_length() + 1
    # low in every slot: low times the base-2^w repunit 1 + 2^w + ...
    low = (1 << (w - k)) - 1
    mask = low * (((1 << slots * w) - 1) // ((1 << w) - 1))

    def reduce(v0, v1, v2):
        return (v0 - ((v0 * mu >> k) & mask) * s,
                v1 - ((v1 * mu >> k) & mask) * s,
                v2 - ((v2 * mu >> k) & mask) * s)

    return w, reduce


def _hull(*ranges):
    """The least degree range (lo, hi) that holds each of the given ones,
    None standing for the empty range, as for a zero row."""
    ranges = [r for r in ranges if r]
    if not ranges:
        return None
    return min(lo for lo, _ in ranges), max(hi for _, hi in ranges)


def _shifted(r, k):
    """The degree range r of a row multiplied by t^k."""
    return r and (r[0] + k, r[1] + k)


@lru_cache(maxsize=None)
def _elimination_plan(pres, drop_relator, drop_generator):
    """The kept relators, the pivot arc of each or None, the border arcs,
    the sign of the reordering they make, the power of t in the
    determinant of the pivot blocks, and the degree window
    (bottom, span) of the elimination, all as tuples or ints; taken once
    per presentation and deletion.

    Relators are taken in crossing order.  A relator (a, b, c) may pivot
    on a (block I) or on c (block -Phi(b)) when that arc occurs once in
    it and no earlier relator has read it; a crossing's new arc has the
    larger label of the two, since an initial arc is numbered before
    every arc a crossing creates.  Every other arc a relator reads that
    is neither dropped nor pivoted earlier becomes a border arc, and so
    does a kept arc that no kept relator reads (a zero column).  Since a
    pivot arc is never read before its relator, the pivot blocks are
    block lower triangular for any presentation; the choice of pivots
    only sets the size of the border.

    The rows are reordered to the pivoting relators, then the others;
    the columns to the pivot arcs, then the border.  The sign is that of
    both reorderings: -1 to the number of their inversions, counted
    once with the plan.  Each pivot on c is a block -Phi(b) with one t,
    so the power of t in the determinant of the pivot blocks is the
    number of pivots on c.

    The window is the hull [lo, hi] of the degrees in t that any row of
    the elimination can hold, tracked row by row through the steps that
    `twisted_determinant` takes: the border arcs' rows sit at degree 0
    and the dropped arc's are zero; a pivot on a gives row 0 in
    t (q2 u r2) u r0, row 1 in q0 u r0 u r1 and row 2 in q1 u r1 u r2,
    with p, r and q the rows of arcs a, b and c; a pivot on c gives
    p1 u r0 u r1, p2 u r1 u r2 and (p0 u r0) / t u r2; a residual gives
    p0 u r0 u t (r2 u q2), p1 u r1 u r0 u q0 and p2 u r2 u r1 u q1.  It
    is returned as bottom = -lo, the degree that slot 0 holds below t^0,
    and span = hi - lo + 1 <= m + 1, as each of the m kept relators
    moves one bound by at most one degree.  For the family at deletion
    (1, 1) the span is (2n + 5) / 3.
    """
    kept = tuple(r for i, r in enumerate(pres.relators, start=1)
                 if i != drop_relator)
    seen = {drop_generator}
    pivots, border = [], []
    for a, b, c in kept:
        fresh = [g for g, rest in ((a, (b, c)), (c, (a, b)))
                 if g not in seen and g not in rest]
        pivot = max(fresh, default=None)
        for g in (a, b, c):
            if g not in seen and g != pivot:
                seen.add(g)
                border.append(g)
        if pivot is not None:
            seen.add(pivot)
        pivots.append(pivot)
    border.extend(g for g in range(1, pres.num_generators + 1)
                  if g not in seen)
    pivoting = [i for i, p in enumerate(pivots) if p is not None]
    rows = pivoting + [i for i, p in enumerate(pivots) if p is None]
    cols = [pivots[i] for i in pivoting] + border
    sign = (-1) ** sum(x > y for order in (rows, cols)
                       for i, x in enumerate(order) for y in order[i + 1:])
    offset = sum(p == rel[2] for rel, p in zip(kept, pivots))
    # the degree range of each row of each arc; an arc not yet held is
    # a border arc, at degree 0
    held = {drop_generator: (None,) * 3}
    ranges = [(0, 0)]
    for (a, b, c), pivot in zip(kept, pivots):
        (p0, p1, p2), (r0, r1, r2), (q0, q1, q2) = (
            held.get(g, ((0, 0),) * 3) for g in (a, b, c))
        if pivot == a:
            out = (_hull(_shifted(_hull(q2, r2), 1), r0),
                   _hull(q0, r0, r1), _hull(q1, r1, r2))
        elif pivot == c:
            out = (_hull(p1, r0, r1), _hull(p2, r1, r2),
                   _hull(_shifted(_hull(p0, r0), -1), r2))
        else:
            out = (_hull(p0, r0, _shifted(_hull(r2, q2), 1)),
                   _hull(p1, r1, r0, q0), _hull(p2, r2, r1, q1))
        if pivot is not None:
            held[pivot] = out
        ranges += out
    lo, hi = _hull(*ranges)
    return (kept, tuple(pivots), tuple(border), sign, offset, -lo,
            hi - lo + 1)


def _at_roots(seq, table, pad=0):
    """The sums of seq[e] omega^(k e) over e, for k = 0 .. N - 1, where
    table[j] = omega^j and omega has even order N = len(table): the
    values at the nodes omega^k of the polynomial with coefficients seq.
    As omega^(N/2) = -1, the value at k + N/2 is A_k - B_k and the one at
    k is A_k + B_k, with A_k and B_k the sums over the even and the odd e,
    so only the first N/2 nodes are summed; pad is added to each A_k - B_k
    (for packed seq, a multiple of s in every slot, at least any slot of
    B_k, so that no slot goes negative).  Read backwards it is its own
    inverse up to N: the transform X of the values y_k of a polynomial of
    degree below N has N c_e at X[-e mod N], since sum_k omega^(k (j + e))
    is N when j = -e mod N and 0 otherwise."""
    size = len(table)
    even, odd = seq[::2], seq[1::2]
    plus, minus = [], []
    for k in range(size // 2):
        step = 2 * k or size
        a = sum(map(mul, even, [table[j % size]
                                for j in range(0, step * len(even), step)]))
        b = sum(map(mul, odd, [table[j % size]
                               for j in range(k, k + step * len(odd), step)]))
        plus.append(a + b)
        minus.append(a + pad - b)
    return plus + minus


def twisted_determinant(pres, rep, drop_relator=1, drop_generator=1):
    """The raw twisted determinant: ascending coefficients mod s of det of
    the Fox matrix of the Wirtinger presentation under rep, with one
    relator row and one generator column removed.

    Relator (a, b, c) has Fox blocks I on a, Phi(a) - I on b and
    -Phi(b) on c, with Phi(g) = C * diag(d(g)).  Taken in crossing
    order, the kept relators eliminate their new arcs by block forward
    substitution (`_elimination_plan`): each eliminated arc is a
    3 x 3|border| matrix T over Z/s[t, 1/t] in the border arcs,
    T = Phi(b) T_c - v for a pivot on a and T = Phi(b)^-1 (T_a + v) for
    a pivot on c, where v = (Phi(a) - I) T_b.  The relators with no
    pivot then give the Schur complement S = T_a + v - Phi(b) T_c in the
    border arcs, at most 12 x 12 for a 3-braid, and
        det = sign * prod det(pivot block) * det S,
    with det(-Phi(b)) = -t d_1 d_2 d_3, so the pivot blocks give
    t^offset, offset the plan's number of pivots on c, and the plan's
    sign of the reordering of relators and arcs.  The dropped arc enters
    every relator that reads it as zero.

    The elimination runs once, on the coefficients.  A row of T is one
    int in which the coefficient of t^e in column j sits in slot
    (e + bottom) cols + j, slots `_slot_reducer`'s width w apart, with
    cols = 3|border| and the plan's degree window (bottom, span), the
    hull of the degrees its rows can reach, tracked row by row.  t
    occurs only in row 0 of Phi(g), and 1/t only in row 2 of
    Phi(b)^-1, so multiplying by t shifts a row up by cols w bits,
    dividing by t shifts it down, and every other factor of a step (an
    entry of d(a) or d(b), or an inverse) is a scalar; a negative term
    -c r enters as (s - c) r.  A shift that would push a nonzero slot
    out of the window raises ArithmeticError, which the tracked window
    rules out, so the check certifies the plan on every call.  Each slot
    enters a step in [0, 2s) and each factor is below s, so no slot of a
    step's expression reaches 8 s^3 (the largest, a pivot on c's
    inv (p + d r + (s - 1) r'), is below 4 s^3 + 2 s^2), and one
    slotwise Barrett reduction brings every slot back into [0, 2s) with
    no carry between slots.  v is never formed: its row is folded into
    the row of T or S that reads it, so a relator costs three
    expressions and one reduction, whatever the number of points.
    d(g) is read once per generator per call from the table of powers of
    omega below, as theta^e = omega^((n + 1) e).

    Only S goes to the points, which are the N = 2n powers of
    omega = -theta: for odd n and theta of order n, omega has order
    exactly 2n, and the powers are taken once into a table, which is
    checked to close up at omega^N = 1 with N distinct entries (n is
    held to `seifert.MAX_N`, as N points cost whatever m is).  Its
    coefficients of t^(e - bottom), of every entry, are packed into one
    int per e, and its value at omega^k is the sum over e of
    omega^(k e) times that int (`_at_roots`).  Since omega^n = -1, only
    the n nodes k < n are summed, as A_k over the even e and B_k over
    the odd e, and the value at k + n is A_k + Z - B_k, with Z = 2 s^2 per
    odd e in every slot: a multiple of s above any slot of B_k, so no
    slot goes negative or borrows from the next.  Each slot of a chunk
    is below 2s and each power below s, so every slot of a value stays
    below A + Z - B < 2 span s^2 < 2^w, since span <= m + 1 <= N < s:
    m + 1 <= N is checked, and N divides s - 1.  The values are unpacked
    into `det_gf`'s batched layout, which reduces them mod s, for one
    elimination over all the points.  Each of the r rows of S is packed
    as t^bottom times itself, and the pivot blocks give t^offset, so
    the determinant is t^T, T = offset - bottom r, times the polynomial
    of degree below N with those determinants as its values at the
    nodes.
    The same sum over the values (`_at_roots` again) holds N times that
    polynomial's coefficient of t^j at -j mod N, so the coefficient of
    t^e of the determinant is read at T - e mod N, times 1/N.

    t occurs in one row per kept relator, so the determinant has degree
    at most m (the number of kept relators) < N, and its values at the N
    roots of unity fix it; the transform read back cannot return more,
    so the bound is not checked separately.  No extra point could check it
    for the family: m + 1 = 2n = N, and the nodes are all of the 2n-th
    roots of unity (at s = 2n + 1, as n = 11 at s = 23 and n = 23 at
    s = 47, every nonzero residue).  0 is never a node, where Phi(b) is
    singular.
    """
    s = rep.s
    m = pres.num_generators - 1
    if len(pres.relators) != pres.num_generators:
        raise ValueError("presentation must have one relator per generator")
    if len(rep.exponents) != pres.num_generators:
        raise ValueError(
            f"the representation has exponent triples for "
            f"{len(rep.exponents)} generators, the presentation "
            f"{pres.num_generators}")
    for name, k in (("drop_relator", drop_relator),
                    ("drop_generator", drop_generator)):
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"{name} must be an integer, not {k!r}")
    if not (1 <= drop_relator <= m + 1 and 1 <= drop_generator <= m + 1):
        raise ValueError("dropped relator and generator must exist")
    size = 2 * rep.n
    if rep.n > MAX_N:
        raise ValueError(f"n={rep.n} is above the ceiling n <= {MAX_N}: "
                         f"the determinant would take {size} points")
    if m + 1 > size:
        raise ValueError(f"the roots of unity +-theta^k give {size} nonzero "
                         f"points; the degree-{m} determinant needs {m + 1}")
    omega = -rep.theta % s
    table = [pow(omega, k, s) for k in range(size)]
    if pow(omega, size, s) != 1 or len(set(table)) != size:
        raise ValueError(f"-theta={omega} does not have order {size} mod "
                         f"s={s}: theta={rep.theta} must have order {rep.n}")
    # d(g) = theta^e(g), and theta = -omega = omega^(n + 1) as omega^n = -1
    d = [None] + [tuple(table[(rep.n + 1) * x % size] for x in e)
                  for e in rep.exponents]
    kept, pivots, border, sign, offset, bottom, span = _elimination_plan(
        pres, drop_relator, drop_generator)
    cols = 3 * len(border)
    w, reduce = _slot_reducer(s, span * cols)
    step = cols * w  # one degree of a row
    low, top = (1 << step) - 1, (span - 1) * step

    def times_t(v):
        if v >> top:
            raise ArithmeticError("multiplying by t pushes a coefficient "
                                  "past the top of the degree window")
        return v << step

    def over_t(v):
        if v & low:
            raise ArithmeticError("dividing by t drops a nonzero "
                                  "coefficient below the degree window")
        return v >> step

    # the packed rows of each live arc; the dropped arc's are zero
    value = {g: tuple(1 << (bottom * cols + 3 * k + i) * w for i in range(3))
             for k, g in enumerate(border)}
    value[drop_generator] = (0, 0, 0)
    last_read = {g: i for i, rel in enumerate(kept) for g in rel}
    s1 = s - 1
    const = 1  # det of the pivot blocks is sign * const * t^offset
    rows = []  # the rows of S

    for i, ((a, b, c), pivot) in enumerate(zip(kept, pivots)):
        (da0, da1, da2), (db0, db1, db2) = d[a], d[b]
        # (p0, p1, p2), (r0, r1, r2) and (q0, q1, q2) are the rows of
        # T_a, T_b and T_c; each row below folds in its row of
        # v = (Phi(a) - I) T_b: (t da2 r2 - r0, da0 r0 - r1,
        # da1 r1 - r2), with -r entering as (s - 1) r
        r0, r1, r2 = value[b]
        if pivot == a:
            # T_a = Phi(b) T_c - v
            q0, q1, q2 = value[c]
            na0, na1, na2 = s - da0, s - da1, s - da2
            value[a] = reduce(times_t(db2 * q2 + na2 * r2) + r0,
                              db0 * q0 + na0 * r0 + r1,
                              db1 * q1 + na1 * r1 + r2)
        elif pivot == c:
            # T_c = Phi(b)^-1 (T_a + v): rows 1 and 2 of T_a + v divided
            # by db0 and db1, then row 0 divided by t db2, which takes
            # the t out of v's row 0
            p0, p1, p2 = value[a]
            inv0, inv1, inv2 = (pow(e, -1, s) for e in (db0, db1, db2))
            e2, ni2 = da2 * inv2 % s, s - inv2
            value[c] = reduce(inv0 * (p1 + da0 * r0 + s1 * r1),
                              inv1 * (p2 + da1 * r1 + s1 * r2),
                              over_t(inv2 * p0 + ni2 * r0) + e2 * r2)
            const = -const * db0 * db1 * db2 % s
        else:
            # the residual T_a + v - Phi(b) T_c
            (p0, p1, p2), (q0, q1, q2) = value[a], value[c]
            nb0, nb1, nb2 = s - db0, s - db1, s - db2
            rows += reduce(p0 + s1 * r0 + times_t(da2 * r2 + nb2 * q2),
                           p1 + s1 * r1 + da0 * r0 + nb0 * q0,
                           p2 + s1 * r2 + da1 * r1 + nb1 * q1)
        for g in (a, b, c):
            if last_read[g] == i:
                value.pop(g, None)

    # the coefficients of t^(e - bottom) of S, row after row, in one int
    # per e; the value of S at omega^k is their sum weighted by omega^ke,
    # padded by 2 s^2 in every slot for each odd e
    chunks = [sum((row >> e * step & low) << i * step
                  for i, row in enumerate(rows)) for e in range(span)]
    ones = ((1 << len(rows) * step) - 1) // ((1 << w) - 1)
    values = _at_roots(chunks, table, 2 * s * s * (span // 2) * ones)
    # entry (i, j) of S at omega^k is slot i cols + j of its value;
    # det_gf reduces it mod s
    slot = (1 << w) - 1
    dets = det_gf([[v >> j * w & slot for j in range(i * cols, (i + 1) * cols)
                    for v in values] for i in range(len(rows))], s, size)
    # the determinant is t^power times the polynomial with the values
    # dets; the transform of dets holds size times its t^e at -e
    power = offset - bottom * len(rows)
    at = _at_roots(dets, table)
    scale = sign * const * pow(size, -1, s)
    return ffpoly.trim([at[(power - e) % size] * scale % s
                        for e in range(size)])


def twisted_polynomial(pres, chi, s, theta, drop_relator=1,
                       drop_generator=1):
    """The (t-1)^2-normalized twisted polynomial for the character chi,
    over Z/s with theta realizing the n-th root of unity."""
    rep = TwistedRep.build(pres, chi, s, theta)
    raw = twisted_determinant(pres, rep, drop_relator, drop_generator)
    if not raw:
        raise ArithmeticError("twisted determinant vanished identically")
    body, rem = ffpoly.poly_divmod(raw, [1, s - 2, 1], s)
    if rem:
        raise ArithmeticError(
            "twisted determinant is not divisible by (t-1)^2")
    lead = 0
    while body[lead] == 0:
        lead += 1
    body = body[lead:]
    body = ffpoly.monic(body, s)
    return TwistedPolynomial(chi.n, s, theta, tuple(body), len(raw) - 1)
