"""Seifert data for the braid-closure family and the invariants that
fall out of it: the Alexander polynomial det(tA - A^T) and its
distinguished square root.

For the n-th member, applying Seifert's algorithm to the closure of
(sigma_1 sigma_2^-1)^n yields a genus n-1 surface whose Seifert matrix
has the block shape A = [[-B^T, 0], [B, B]] for the (n-1)-square band
matrix B with 1 on the diagonal and -1 on the first superdiagonal.

Two facts about that shape carry the computations.  B is unitriangular,
so det A = +-1 and the monodromy h = A^-1 A^T has a closed form: with
U = B^-1 the upper and L = B^-T the lower triangular all-ones matrix,
A^-1 = [[-L, 0], [L, U]], and L B and U B^T telescope, so each row of h
has at most 5 nonzeros, each at most 2 in absolute value.  So h X is
never formed as a product: each row of the answer subtracts two rows,
of X or of the answer's top half, from a third (`apply_monodromy`),
O(N) work per row.  And with the rows and columns taken in the
interleaved order (0, n-1, 1, n, ..., n-2, 2n-3) (`band_order`), every
nonzero of the pencil A - t A^T lies within distance 2 of the diagonal
(`band_pencil`), so `linalg.det_band` takes its determinant, and the
minors the linking form needs, in one pass of at most 12 moves per
row.  `band_pencil` writes those band rows, 5 entries each, straight
from the closed form of A; it does not start from `band_matrix`.

Every N-square table here and downstream (cover homology,
`report.obstruct`) starts from `band_matrix` or `apply_monodromy`, and
the band rows of the linking form and of the Alexander polynomial from
`band_pencil`.  All three begin with the one size check `check_n`
against `MAX_N`, so it fires before anything is allocated;
`report.obstruct` runs it before it builds the presentation.
"""

from .laurent import LaurentPolynomial
from .linalg import Matrix, det_band

__all__ = ["MAX_N", "check_n", "band_matrix",
           "seifert_matrix", "apply_monodromy", "band_order", "band_pencil",
           "alexander_polynomial", "p_n"]

# The largest family index accepted, so that no input asks for more
# than a few dense tables of side N = 2(n-1) <= 998, 1e6 entries each
# (cover homology builds them; the linking form and the Alexander
# polynomial take band rows of 5 entries).  Measured near it (Python
# 3.11, 2 cores): `linking_form(497)` takes 0.03 s and
# `alexander_polynomial(497)` 0.4-0.6 s, `cover_homology_snf(497, 3)`
# 20 s, growing about as n^3, and `report.obstruct(491, s=983)` 34 s
# at 48 MiB peak RSS.
MAX_N = 500


def check_n(n):
    """n - 1, the genus and the side of B, once n is in 2 .. MAX_N;
    ValueError otherwise."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n > MAX_N:
        raise ValueError(
            f"n={n} is above the ceiling n <= {MAX_N}: the Seifert "
            f"matrix would have side {2 * (n - 1)}")
    return n - 1


def band_matrix(n):
    """The (n-1)-square matrix with 1 on the diagonal, -1 above it."""
    m = check_n(n)
    return Matrix(tuple(
        tuple(1 if i == j else (-1 if j == i + 1 else 0) for j in range(m))
        for i in range(m)))


def seifert_matrix(n):
    """The Seifert matrix A = [[-B^T, 0], [B, B]] of the n-th closure, on
    its genus n-1 surface, for B = `band_matrix(n)`, row by row: the top
    rows are the columns of B negated, then n - 1 zeros."""
    b = band_matrix(n).rows
    zeros = [0] * (n - 1)
    return Matrix([[-x for x in col] + zeros for col in zip(*b)]
                  + [row + row for row in b])


def apply_monodromy(n, x):
    """h X, as new lists, for the monodromy h = A^-1 A^T of the Seifert
    matrix A of `seifert_matrix(n)` and X its 2(n-1) rows (lists of
    ints, all of one length).

    With m = n - 1, X split into its top rows X_t[0 .. m-1] and bottom
    rows X_b[0 .. m-1], and X_t[m] = X_b[-1] = 0:
      (h X)_t[i] = X_t[0] - X_t[i+1] - X_b[i]
      (h X)_b[i] = X_b[m-1] - X_b[i-1] - (h X)_t[i],
    since h = [[L B, -I], [-L B, I + U B^T]] for A^-1 = [[-L, 0], [L, U]]
    and A^T = [[-B, B^T], [0, B^T]], and the sums telescope: row i of
    L B X_t is X_t[0] - X_t[i+1], and of U B^T X_b, X_b[m-1] - X_b[i-1].
    """
    m = check_n(n)
    if len(x) != 2 * m:
        raise ValueError(f"h X needs {2 * m} rows of X for n={n}, "
                         f"got {len(x)}")
    zero = [0] * len(x[0])
    top = [[u - v - w for u, v, w in zip(x[0], nxt, bot)]
           for nxt, bot in zip([*x[1:m], zero], x[m:])]
    return top + [[u - v - w for u, v, w in zip(x[-1], prev, t)]
                  for prev, t in zip([zero, *x[m:-1]], top)]


def band_order(n):
    """The interleaved basis order (0, n-1, 1, n, ..., n-2, 2n-3) of the
    Seifert matrix: in it every nonzero of xA - A^T lies within distance
    2 of the diagonal, and it ends with the generator rows
    (n-2, 2n-3)."""
    m = n - 1
    return [i + half for i in range(m) for half in (0, m)]


def band_pencil(n):
    """The band rows of A and of A^T for the Seifert matrix A, with rows
    and columns both taken in `band_order(n)`, in the format of
    `linalg.det_band`: the pencil X - t Y with X = A, Y = A^T there is
    A - t A^T in an order that keeps every nonzero within distance 2 of
    the diagonal.

    Row p lists the columns p - 2 .. p + 2.  Row 2i is top row i of A,
    that of -B^T: -1 at top column i and 1 at top column i - 1 (for
    i > 0).  Row 2i + 1 is bottom row i, that of B in both halves: 1 at
    column i and -1 at column i + 1 of each half (none past the last
    row).  Entry k of row p of A^T is A[p - 2 + k][p], entry 4 - k of
    band row p - 2 + k of A.
    """
    size = 2 * check_n(n)
    a = [(int(p > 0), 0, -1, 0, 0) if p % 2 == 0
         else (0, 1, 1, -1, -1) if p < size - 1 else (0, 1, 1, 0, 0)
         for p in range(size)]
    return a, [tuple(a[p - 2 + k][4 - k] if 0 <= p - 2 + k < size else 0
                     for k in range(5)) for p in range(size)]


def alexander_polynomial(n):
    """det(tA - A^T) for the Seifert matrix A, an integer Laurent
    polynomial (monic of degree 2n-2 for odd n coprime to 3).

    The side N = 2(n-1) of A is even, so det(tA - A^T) = det(A^T - tA),
    the determinant of the pencil X - t Y with X = A^T and Y = A; in
    `band_order` it is a band, and `linalg.det_band` takes it in one
    pass over Z[t]."""
    a, at = band_pencil(n)
    det, _ = det_band(at, a)
    return LaurentPolynomial(dict(enumerate(det)))


def p_n(n):
    """The distinguished square root of the Alexander polynomial:
    prod over k = 1 .. m of t^2 + (xi^k - 1 + xi^-k) t + 1, with
    m = (n-1)/2 and xi a primitive n-th root of unity.  Integer
    coefficients.

    With z = 1 - t - t^-1 each factor is t (xi^k + xi^-k - z), and for
    z = w + w^-1 the product of z - xi^k - xi^-k over k = 1 .. m is
    sum_{j=-m}^{m} w^j = S_m(z), where S_0 = 1, S_1 = 1 + z and
    S_{j+1} = z S_j - S_{j-1}.  So p_n = (-t)^m S_m(z), computed by that
    recurrence in integer Laurent arithmetic.  n is held to `check_n`'s
    ceiling, like every invariant here.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("defined for odd n >= 3")
    check_n(n)
    m = (n - 1) // 2
    z = LaurentPolynomial({-1: -1, 0: 1, 1: -1})
    prev, cur = LaurentPolynomial.constant(1), z + 1
    for _ in range(m - 1):
        prev, cur = cur, z * cur - prev
    return cur.shift(m).scale((-1) ** m)
