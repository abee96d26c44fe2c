"""The Blanchfield pairing of the braid-closure family, its reduction to
the rational-cyclic linking form of a branched cover, and the order-n
symmetry acting on everything.

The pairing on the infinite cyclic cover is carried by the two
generators sitting at rows n-1 and 2(n-1) of the Seifert presentation;
only the four pairing values between them are ever needed.  Reducing
modulo t^q - 1 turns those values into the Q/Z linking form on the
first homology of the q-fold branched cover, evaluated on the basis
(a, ta, b, tb) when q = 3.
"""

from dataclasses import dataclass
from fractions import Fraction

from .laurent import LaurentPolynomial
from .linalg import (Matrix, _bareiss, _eval_points, _newton_interpolate,
                     det_bareiss, smith_normal_form)
from .seifert import seifert_matrix

__all__ = [
    "BlanchfieldEntries",
    "CoverHomology",
    "LinkingForm",
    "SymmetryAction",
    "blanchfield_entries",
    "cover_homology_snf",
    "linking_form",
    "linking_template",
    "symmetry_action",
]

# H_1 of the 3-fold cover is generated by a, ta, b, tb with t^2 = -1 - t;
# basis elements are (deck power j, generator index e)
BASIS = ((0, 0), (1, 0), (0, 1), (1, 1))


@dataclass(frozen=True)
class BlanchfieldEntries:
    """The four pairing values c_ij = (t-1) (A - t A^T)^-1 [p_i, p_j] at
    the generator rows p_1 = n-1, p_2 = 2(n-1), stored as exact fractions
    numerators[i][j] / denominator."""
    n: int
    denominator: LaurentPolynomial
    numerators: tuple

    def entry(self, i, j):
        return self.numerators[i][j], self.denominator


def _pairing_cofactors(a, pos):
    """Determinant and adjugate block of M(t) = A - t A^T for a square
    integer Matrix A: returns (det M, adj) with adj[i][j] the Laurent
    polynomial adj(M)[pos[i]][pos[j]], so that M^-1 [pos[i], pos[j]] is
    adj[i][j] / det M.  pos holds two distinct indices.

    One elimination per evaluation point replaces five determinants.
    At an integer x, M(x) is formed with the rows and columns pos moved
    last (the same permutation on both sides, which leaves the
    determinant and the adjugate entries unchanged), and `_bareiss` runs
    its first N-2 steps on it, N the side.  By Sylvester's identity the
    trailing 2x2 block B then holds the minors of the leading
    (N-2)-square block L bordered by one of the last two rows and one of
    the last two columns, each times the sign s of the row swaps, and
    the last pivot is s det L.  The adjugate block of M at the moved
    positions equals the adjugate of the bordered-minor block, so it is
    s adj(B) = s [[B11, -B01], [-B10, B00]], and one more elimination
    step on B gives det M = s (B00 B11 - B01 B10) / (s det L), an exact
    division.

    A point where L(x) is singular leaves no pivot to divide by; it is
    skipped and the next point is taken.  det L has degree at most N-2,
    so more skips than that mean L is singular identically and this
    route cannot work.  The N+1 surviving value sequences (det M has
    degree at most N, the adjugate entries at most N-1) are
    interpolated exactly.
    """
    size = a.nrows
    k = size - 2
    order = [i for i in range(size) if i not in pos] + list(pos)
    pairs = [[(a[i][j], a[j][i]) for j in order] for i in order]
    pts = []
    vals = ([], [], [], [], [])  # det M, adj00, adj01, adj10, adj11
    skipped = 0
    points = _eval_points()
    while len(pts) < size + 1:
        x = next(points)
        m = [[u - x * v for u, v in row] for row in pairs]
        sign = _bareiss(m, k)
        if sign is None:
            skipped += 1
            if skipped > k:
                raise ArithmeticError(
                    "leading block of A - t A^T is singular identically")
            continue
        (b00, b01), (b10, b11) = m[k][k:], m[k + 1][k:]
        last = m[k - 1][k - 1] if k else 1
        q, r = divmod(sign * (b00 * b11 - b01 * b10), last)
        if r:
            raise ArithmeticError("Bareiss division was not exact")
        pts.append(x)
        for seq, v in zip(vals, (q, sign * b11, -sign * b01, -sign * b10,
                                 sign * b00)):
            seq.append(v)
    den, c00, c01, c10, c11 = (_newton_interpolate(pts, v) for v in vals)
    return den, ((c00, c01), (c10, c11))


def blanchfield_entries(n):
    """The pairing values c_ij = (t-1) (A - t A^T)^-1 [p_i, p_j] at the
    0-based rows p_0 = n-2, p_1 = 2n-3, from one elimination per
    evaluation point: by Sylvester's identity the bordered minors left
    after N-2 Bareiss steps give the adjugate entries, with the sign of
    the row swaps, and points where the leading block is singular are
    skipped (see `_pairing_cofactors`).  The result is checked to be
    hermitian: c_ij(t^-1) den(t) = c_ji(t) den(t^-1)."""
    den, adj = _pairing_cofactors(seifert_matrix(n).matrix,
                                  (n - 2, 2 * n - 3))
    if not den:
        raise ValueError(f"A - t A^T is singular for n={n}")
    tm1 = LaurentPolynomial({1: 1, 0: -1})
    nums = tuple(tuple(tm1 * c for c in row) for row in adj)
    for i in range(2):
        for j in range(2):
            lhs = nums[i][j].involution() * den
            rhs = nums[j][i] * den.involution()
            if lhs != rhs:
                raise ArithmeticError("pairing entries are not hermitian")
    return BlanchfieldEntries(n, den, nums)


# -- branched cover homology ----------------------------------------------------


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
        total = 1
        for d in self.torsion:
            total *= d
        return total


def cover_homology_snf(n, q):
    """Smith form of the presentation t A - A^T with t replaced by the
    companion matrix of t^q - 1."""
    a = seifert_matrix(n).matrix
    size = a.nrows
    rows = []
    for i in range(size):
        for r in range(q):
            row = []
            for j in range(size):
                tij, cij = a[i][j], a[j][i]
                for col in range(q):
                    v = tij if r == (col + 1) % q else 0
                    if r == col:
                        v -= cij
                    row.append(v)
            rows.append(row)
    inv = smith_normal_form(rows)
    if not all(inv):
        raise ValueError(
            f"H_1 of the {q}-fold branched cover is infinite for n={n}")
    return CoverHomology(n, q, tuple(inv))


# -- the Q/Z linking form -------------------------------------------------------


def _cyclic(poly, q):
    """Coefficients of poly mod t^q - 1, as a length-q list."""
    out = [0] * q
    for e, c in poly.items():
        out[e % q] += c
    return out


def _cyclic_mul(a, b, q):
    out = [0] * q
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % q] += x * y
    return out


def _annihilator_pair(delta, q):
    """r (length-q int list) and c > 0 with delta * r = c modulo t^q - 1.

    Multiplication by delta on Z[t]/(t^q - 1) is the circulant C with
    C[i][j] = d[(i - j) mod q], d the coefficients of delta mod t^q - 1.
    det C vanishes exactly when delta shares a root with t^q - 1.
    Otherwise C adj(C) = det C, so the first column of adj(C),
    r_j = (-1)^j det(C without row 0 and column j), gives delta * r =
    det C.  r / c is the inverse of delta in Q[t]/(t^q - 1), which is
    unique, so any such pair gives the same linking values.
    """
    d = _cyclic(delta, q)
    circ = [[d[(i - j) % q] for j in range(q)] for i in range(q)]
    det = det_bareiss(circ)
    if not det:
        raise ValueError(
            f"the Alexander polynomial shares a root of unity with t^{q}-1, "
            f"so the {q}-fold branched cover has infinite homology")
    rc = [(-1) ** j * det_bareiss([row[:j] + row[j + 1:]
                                   for row in circ[1:]])
          for j in range(q)]
    if det < 0:
        rc = [-x for x in rc]
    c = abs(det)
    check = _cyclic_mul(d, rc, q)
    if check != [c] + [0] * (q - 1):
        raise ArithmeticError("annihilator does not invert delta")
    return rc, c


@dataclass(frozen=True)
class LinkingForm:
    """The Q/Z linking form on H_1 of the q-fold branched cover, on the
    basis (a, ta, b, tb); values are Fractions in [0, 1)."""
    n: int
    q: int
    matrix: tuple
    template_sign: int  # +1/-1 when the closed form matched, else 0

    def value(self, u, v):
        """Pairing of integer coordinate vectors on the basis."""
        total = Fraction(0)
        for i, x in enumerate(u):
            if x:
                for j, y in enumerate(v):
                    total += x * y * self.matrix[i][j]
        return total % 1


def linking_form(n, q=3):
    ent = blanchfield_entries(n)
    rc, c = _annihilator_pair(ent.denominator, q)
    num_cyc = [[_cyclic(ent.numerators[i][j], q) for j in range(2)]
               for i in range(2)]

    def lam(u, v):
        ju, eu = u
        jv, ev = v
        p = num_cyc[ev][eu]
        p = [p[(m + ju) % q] for m in range(q)]
        beta = _cyclic_mul(p, rc, q)
        return Fraction(beta[(q - jv) % q], c) % 1

    mat = tuple(tuple(lam(u, v) for v in BASIS) for u in BASIS)
    for i in range(4):
        for j in range(4):
            if mat[i][j] != mat[j][i]:
                raise ArithmeticError("linking form must be symmetric")
            if n % mat[i][j].denominator:
                raise ValueError(
                    f"linking value {mat[i][j]} has a denominator not "
                    f"dividing n={n}: H_1 of the {q}-fold cover is not "
                    f"(Z/n)^4 on the basis (a, ta, b, tb)")
    sign = 0
    if q == 3:
        plus = linking_template(n)
        if mat == plus:
            sign = 1
        elif mat == tuple(tuple((-x) % 1 for x in row) for row in plus):
            sign = -1
    form = LinkingForm(n, q, mat, sign)
    if q == 3:
        if not _transforms_to(form, t_matrix(), form.n):
            raise ArithmeticError(
                "deck transformation must preserve the linking form")
    return form


def linking_template(n):
    """Closed form of the 3-fold linking matrix, k = (n-1)/2."""
    k = (n - 1) // 2
    base = ((-1, -k, -k, k),
            (-k, -1, 0, -k),
            (-k, 0, 1, k),
            (k, -k, k, 1))
    return tuple(tuple(Fraction(x, n) % 1 for x in row) for row in base)


def _transforms_to(form, g, n):
    """True if the integer matrix g (acting on column coordinates) is an
    isometry: form(gu, gv) = form(u, v) for basis u, v."""
    cols = [[g[i][j] for i in range(4)] for j in range(4)]
    for i in range(4):
        for j in range(4):
            if form.value(cols[i], cols[j]) != form.matrix[i][j]:
                return False
    return True


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


@dataclass(frozen=True)
class SymmetryAction:
    """The commuting pair (deck transformation t, periodic symmetry r)
    acting on H_1 of the 3-fold cover mod n."""
    n: int
    t: Matrix
    r: Matrix


def symmetry_action(n, form=None):
    t = t_matrix()
    r = r_matrix()
    if t * r != r * t:
        raise ArithmeticError("symmetry must commute with the deck action")
    if t * t * t != Matrix.identity(4):
        raise ArithmeticError("deck transformation has order 3")
    power = Matrix.identity(4)
    for _ in range(n):
        power = power * r
    if power.map(lambda x: x % n) != Matrix.identity(4).map(lambda x: x % n):
        raise ValueError(f"symmetry does not have order n={n} on the cover")
    if form is not None and not _transforms_to(form, r, n):
        raise ValueError(f"symmetry does not preserve the linking form "
                         f"for n={n}")
    return SymmetryAction(n, t, r)
