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

The determinant is never assembled densely.  At all the points
x = 1..m+1 at once, the relators, taken in crossing order, eliminate
the arc each crossing creates by block forward substitution; the arcs
read before they are created (the initial arcs) and the dropped
relator's arc are left as a border of at most four arcs.  A relator's
step is fused: each row of the arc it creates, or of its residual, is
one pass over the points and border columns with one reduction mod s
per entry.  The Schur complement in the border (at most 12 x 12) is
then reduced by one Gaussian elimination over all the points together
(`det_gf` with `points`).  That is O(n) block work per point instead of
a dense 3(2n-1)-square determinant; the values are then interpolated.
The dense route lives on in the tests as the oracle.
"""

from dataclasses import dataclass

from . import ffpoly
from .blanchfield import period_matrix
from .linalg import det_gf

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

    def d(self, g):
        """diag entries (d_1, d_2, d_3) of generator g, mod s."""
        e = self.exponents[g - 1]
        return tuple(pow(self.theta, x, self.s) for x in e)


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


def _parity(order):
    """+1 or -1: the sign of the permutation that sorts order."""
    inversions = sum(x > y for i, x in enumerate(order) for y in order[i + 1:])
    return -1 if inversions % 2 else 1


def _elimination_plan(pres, drop_relator, drop_generator):
    """The pivot arc of each kept relator, or None, and the border arcs.

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
    """
    kept = [r for i, r in enumerate(pres.relators, start=1)
            if i != drop_relator]
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
    return kept, pivots, border


def twisted_determinant(pres, rep, drop_relator=1, drop_generator=1):
    """The raw twisted determinant: ascending coefficients mod s of det of
    the Fox matrix of the Wirtinger presentation under rep, with one
    relator row and one generator column removed.

    Relator (a, b, c) has Fox blocks I on a, Phi(a) - I on b and
    -Phi(b) on c, with Phi(g) = C * diag(d(g)) at t = x.  Taken in
    crossing order, the kept relators eliminate their new arcs by block
    forward substitution (`_elimination_plan`): each eliminated arc is a
    3 x 3|border| matrix T in the border arcs, T = Phi(b) T_c - v for a
    pivot on a and T = Phi(b)^-1 (T_a + v) for a pivot on c, where
    v = (Phi(a) - I) T_b.  The relators with no pivot then give the
    Schur complement S = T_a + v - Phi(b) T_c in the border arcs, at most
    12 x 12 for a 3-braid, and
        det = sign * prod det(pivot block) * det S,
    with det(-Phi(b)) = -x d_1 d_2 d_3 and the sign of the reordering of
    relators and arcs.  The values are computed side by side: each block
    entry is a list over the points, and a row of T is its 3|border|
    entries laid end to end.  v is never formed: its row is folded into
    the row of T or S that reads it, so a relator costs three passes,
    one per row, each reducing once mod s.  The row of x (and of 1/x)
    across all entries is built once per call.  S is then already laid
    out for `det_gf`'s batched form, one elimination for all the
    points.

    t occurs in one row per kept relator, so the determinant has degree
    at most m (the number of kept relators) and its values at
    x = 1..m+1 fix it; interpolation through those points cannot return
    more, so the bound is not checked separately.  No extra point could
    check it at the reference witnesses: m + 1 = 2n, so n = 11 at s = 23
    and n = 23 at s = 47 already use every nonzero residue, and x = 0 is
    avoided because Phi(b) is singular there.
    """
    s = rep.s
    m = pres.num_generators - 1
    if len(pres.relators) != pres.num_generators:
        raise ValueError("presentation must have one relator per generator")
    if not (1 <= drop_relator <= m + 1 and 1 <= drop_generator <= m + 1):
        raise ValueError("dropped relator and generator must exist")
    if s - 1 < m + 1:
        raise ValueError(f"s={s} has {s - 1} nonzero points; the "
                         f"degree-{m} determinant needs {m + 1}")
    kept, pivots, border = _elimination_plan(pres, drop_relator,
                                             drop_generator)
    xs = list(range(1, m + 2))
    npts, cols = len(xs), 3 * len(border)
    width = cols * npts
    zero = [[0] * width] * 3
    value = {}
    for k, g in enumerate(border):
        rows = [[0] * width for _ in range(3)]
        for i in range(3):
            rows[i][(3 * k + i) * npts:(3 * k + i + 1) * npts] = [1] * npts
        value[g] = rows
    last_read = {g: i for i, rel in enumerate(kept) for g in rel}
    # x and 1/x at the entry of every border column of a row
    x_row = xs * cols
    inv_x_row = [pow(x, -1, s) for x in xs] * cols

    # det of the pivot blocks: sign * const * x^x_power
    const, x_power = 1, 0
    residuals = []

    def arc(g):
        return zero if g == drop_generator else value[g]

    for i, ((a, b, c), pivot) in enumerate(zip(kept, pivots)):
        (da0, da1, da2), (db0, db1, db2) = rep.d(a), rep.d(b)
        tb0, tb1, tb2 = arc(b)
        # each row below folds in its row of v = (Phi(a) - I) T_b:
        # (x da2 tb2 - tb0, da0 tb0 - tb1, da1 tb1 - tb2)
        if pivot == a:
            # T_a = Phi(b) T_c - v
            tc0, tc1, tc2 = arc(c)
            value[a] = [
                [(x * (db2 * q - da2 * r) + u) % s
                 for x, q, r, u in zip(x_row, tc2, tb2, tb0)],
                [(db0 * q - da0 * r + u) % s
                 for q, r, u in zip(tc0, tb0, tb1)],
                [(db1 * q - da1 * r + u) % s
                 for q, r, u in zip(tc1, tb1, tb2)]]
        elif pivot == c:
            # T_c = Phi(b)^-1 (T_a + v): rows 1 and 2 of T_a + v divided
            # by db0 and db1, then row 0 divided by x db2, which takes
            # the x out of v's row 0
            ta0, ta1, ta2 = arc(a)
            inv0, inv1, inv2 = (pow(d, -1, s) for d in (db0, db1, db2))
            e2 = da2 * inv2
            value[c] = [
                [inv0 * (p + da0 * q - r) % s
                 for p, q, r in zip(ta1, tb0, tb1)],
                [inv1 * (p + da1 * q - r) % s
                 for p, q, r in zip(ta2, tb1, tb2)],
                [(inv2 * w * (p - r) + e2 * q) % s
                 for w, p, r, q in zip(inv_x_row, ta0, tb0, tb2)]]
            const = -const * db0 * db1 * db2 % s
            x_power += 1
        else:
            # the residual T_a + v - Phi(b) T_c
            (ta0, ta1, ta2), (tc0, tc1, tc2) = arc(a), arc(c)
            residuals.append((i, [
                [(p - u + x * (da2 * q - db2 * r)) % s
                 for p, u, x, q, r in zip(ta0, tb0, x_row, tb2, tc2)],
                [(p - u + da0 * q - db0 * r) % s
                 for p, u, q, r in zip(ta1, tb1, tb0, tc0)],
                [(p - u + da1 * q - db1 * r) % s
                 for p, u, q, r in zip(ta2, tb2, tb1, tc1)]]))
        for g in (a, b, c):
            if last_read[g] == i:
                value.pop(g, None)

    rows = [row for _, res in residuals for row in res]
    sign = (_parity([i for i, p in enumerate(pivots) if p is not None]
                    + [i for i, _ in residuals])
            * _parity([p for p in pivots if p is not None] + border))
    dets = det_gf(rows, s, npts)
    ys = [sign * const * pow(x, x_power, s) * d % s
          for x, d in zip(xs, dets)]
    return ffpoly.interpolate(xs, ys, s)


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
