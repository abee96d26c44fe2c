"""The Blanchfield polynomials and the linking form read from them, kept
as the independent oracle for `sliceobs.blanchfield.linking_form`; and
the block-circulant presentation of the branched covers, the oracle for
`sliceobs.blanchfield.cover_homology_snf`.

The four pairing values c_ij(t) = (t-1) (A - t A^T)^-1 [p_i, p_j] are
interpolated as Laurent polynomials from one integer Bareiss pass per
evaluation point, the Alexander polynomial is inverted modulo t^3 - 1
with a circulant adjugate, and the linking values are products of
cyclic polynomials.  The program works in the same ring Z[t]/(t^3 - 1),
but takes det M and the adjugate block there by one division-free pass
over the pencil modulo t^3 - 1 (`linalg.det_band`) and inverts det M by
the closed form of the 3 x 3 circulant adjugate.  This route builds the
whole polynomials first, by the eliminations of `bareiss_oracle`, folds
them modulo t^3 - 1 only then, and takes the circulant adjugate by
cofactor determinants (`_annihilator_pair`): it shares the ring with the
program, but no determinant or adjugate code.

The program takes the q-fold cover from the monodromy A^-1 A^T, for
odd n through the Alexander module (Z[t]/p_n)^2; the oracle runs the
Smith form on the whole q N-square presentation, and shares only the
Smith form with it.  The program applies the monodromy
from its closed form; `seifert_inverse` writes A^-1 out as a dense
Matrix, and `dense_monodromy_homology` forms the monodromy from it as a
dense Matrix product.
"""

from dataclasses import dataclass
from fractions import Fraction

from bareiss_oracle import _bareiss, _newton_interpolate, det_bareiss
from laurent_oracle import eval_points
from seifert_oracle import seifert_matrix
from sliceobs.blanchfield import BASIS, CoverHomology, LinkingForm
from sliceobs.laurent import LaurentPolynomial
from sliceobs.linalg import Matrix, smith_normal_form


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

    At each integer x, M(x) is formed with the rows and columns pos
    moved last and `_bareiss` runs its first N-2 steps on it; the
    trailing 2x2 block B and the last pivot give the adjugate block
    s adj(B) and det M = s det(B) / (s det L) by Sylvester's identity,
    s the swap sign and L the leading (N-2)-square block (the program
    reads the same block B off its transfer recurrence, in
    `sliceobs.blanchfield.linking_form`).

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
    points = eval_points()
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
    0-based rows p_0 = n-2, p_1 = 2n-3 (see `_pairing_cofactors`),
    checked to be hermitian: c_ij(t^-1) den(t) = c_ji(t) den(t^-1)."""
    den, adj = _pairing_cofactors(seifert_matrix(n),
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


def laurent_linking_form(n):
    """The linking form on (a, ta, b, tb) from the Blanchfield
    polynomials: the value on (t^ju e_u, t^jv e_v) is the t^0
    coefficient of t^(jv-ju) c_vu / Delta modulo t^3 - 1.  Raises the
    same ValueErrors as `sliceobs.blanchfield.linking_form`."""
    q = 3
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
    for row in mat:
        for x in row:
            if n % x.denominator:
                raise ValueError(
                    f"linking value {x} has a denominator not dividing "
                    f"n={n}")
    return LinkingForm(n, tuple(tuple(int(x * n) for x in row)
                                for row in mat))


def block_circulant_homology(n, q):
    """Smith form of the presentation t A - A^T with t replaced by the
    companion matrix of t^q - 1.  Raises the same ValueError as
    `sliceobs.blanchfield.cover_homology_snf` for an infinite group."""
    a = seifert_matrix(n)
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


def seifert_inverse(n):
    """A^-1 = [[-B^-T, 0], [B^-T, B^-1]] for the Seifert matrix A of
    `seifert_matrix(n)`, with B^-1 the upper triangular all-ones matrix
    (B U = I, since row i of B U is U[i] - U[i+1]), as a dense integer
    Matrix: A is unimodular for every n."""
    if n < 2:
        raise ValueError("need n >= 2")
    m = n - 1
    upper = [[1 if j >= i else 0 for j in range(m)] for i in range(m)]
    lower = [list(col) for col in zip(*upper)]
    zeros = [0] * m
    return Matrix([[-x for x in lower[i]] + zeros for i in range(m)]
                  + [lower[i] + upper[i] for i in range(m)])


def dense_monodromy_homology(n, qs):
    """{q: CoverHomology or the "infinite" ValueError text} for each q in
    qs, from h^q - I, with h = A^-1 A^T the Matrix product of the dense
    `seifert_inverse` and A^T, and its powers taken in turn up to
    max(qs)."""
    a = seifert_matrix(n)
    size = a.nrows
    h = seifert_inverse(n) * a.transpose()
    terms = [[(k, c) for k, c in enumerate(row) if c] for row in h.rows]
    power = Matrix.identity(size).rows
    out = {}
    for q in range(1, max(qs) + 1):
        # h times power, one row of power per nonzero of h
        power = [[sum(c * power[k][j] for k, c in row) for j in range(size)]
                 for row in terms]
        if q not in qs:
            continue
        inv = smith_normal_form([[x - (i == j) for j, x in enumerate(row)]
                                 for i, row in enumerate(power)])
        out[q] = (CoverHomology(n, q, (1,) * ((q - 1) * size) + tuple(inv))
                  if all(inv) else
                  f"H_1 of the {q}-fold branched cover is infinite for n={n}")
    return out
