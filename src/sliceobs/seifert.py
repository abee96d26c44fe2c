"""Seifert data for the braid-closure family and the invariants that
fall out of it: the Alexander polynomial det(tA - A^T) and the product
of its quadratic factors paired by the order-n symmetry, which for odd
n is its distinguished square root p_n.

For the n-th member, applying Seifert's algorithm to the closure of
(sigma_1 sigma_2^-1)^n yields a genus n-1 surface whose Seifert matrix
has the block shape A = [[-B^T, 0], [B, B]] for the (n-1)-square band
matrix B with 1 on the diagonal and -1 on the first superdiagonal.

Two facts about that shape carry the computations.  B is unitriangular,
so det A = +-1 and the monodromy h = A^-1 A^T has a closed form: with
U = B^-1 the upper and L = B^-T the lower triangular all-ones matrix,
A^-1 = [[-L, 0], [L, U]], and L B and U B^T telescope, so each row of h
has at most 5 nonzeros, each at most 2 in absolute value.  So h is
never formed as a product: h x, for one column x, takes each entry as
an entry of x, or of the answer's top half, less two others
(`apply_monodromy`), O(N) work per column.  And with the rows and
columns taken in the interleaved order (0, n-1, 1, n, ..., n-2, 2n-3)
(`band_order`), every nonzero of the pencil A - t A^T lies within
distance 2 of the diagonal (`band_pencil`), so `linalg.det_band` takes
its determinant, and the minors the linking form needs, in one pass of
at most 12 moves per row.  `band_pencil` writes those band rows, 5
entries each, straight from the closed form of A, and is the only place
A is written down: A is never formed as a dense table.

The band rows feed the linking form and the Alexander polynomial, and
the cover homology's check A h = A^T (`blanchfield.cover_homology_snf`)
on h e_j = `apply_monodromy` of each unit vector e_j; for every n the
cover homology is read off Z[t]/f_0 and Z[t]/p, p the
`paired_product` and f_0 = p for odd n, (t^2 - 3t + 1) p for even n,
after checking by Horner's rule through `apply_monodromy` that f_0(h)
kills e_0 and p(h) kills e_0 + e_1.  `apply_monodromy`, `band_order` and
`band_pencil` begin with the one size check `check_n` against `MAX_N`,
so it fires before anything is allocated; `report.obstruct` runs it
before it builds the presentation.
"""

from .laurent import LaurentPolynomial
from .linalg import det_band

__all__ = ["MAX_N", "check_n", "apply_monodromy", "band_order",
           "band_pencil", "alexander_polynomial", "paired_product", "p_n"]

# The largest family index accepted, so that no input asks for more
# than a few dense tables of side N = 2(n-1) <= 998, 1e6 entries each
# (cover homology builds them; the linking form and the Alexander
# polynomial take band rows of 5 entries).  Measured near it (Python
# 3.11, 2 cores): `linking_form(497)` takes 0.03 s and
# `alexander_polynomial(497)` 0.4-0.6 s, `cover_homology_snf(497, 3)`
# 0.5-0.6 s and `cover_homology_snf(500, 3)` 0.36 s, and
# `report.obstruct(491, s=983)` 34 s at 48 MiB peak RSS.
MAX_N = 500


def check_n(n):
    """n - 1, the genus of the Seifert surface and half the side of A,
    once n is an int in 2 .. MAX_N; ValueError otherwise."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need an integer n >= 2, not {n!r}")
    if n > MAX_N:
        raise ValueError(
            f"n={n} is above the ceiling n <= {MAX_N}: the Seifert "
            f"matrix would have side {2 * (n - 1)}")
    return n - 1


def apply_monodromy(n, x):
    """h x, as a new list, for the monodromy h = A^-1 A^T of the Seifert
    matrix A = [[-B^T, 0], [B, B]] and x a column of 2(n-1) ints.

    With m = n - 1, x split into its top half x_t[0 .. m-1] and bottom
    half x_b[0 .. m-1], and x_t[m] = x_b[-1] = 0:
      (h x)_t[i] = x_t[0] - x_t[i+1] - x_b[i]
      (h x)_b[i] = x_b[m-1] - x_b[i-1] - (h x)_t[i],
    since h = [[L B, -I], [-L B, I + U B^T]] for A^-1 = [[-L, 0], [L, U]]
    and A^T = [[-B, B^T], [0, B^T]], and the sums telescope: entry i of
    L B x_t is x_t[0] - x_t[i+1], and of U B^T x_b, x_b[m-1] - x_b[i-1].
    """
    m = check_n(n)
    if len(x) != 2 * m:
        raise ValueError(f"h x needs {2 * m} entries of x for n={n}, "
                         f"got {len(x)}")
    top = [x[0] - u - v for u, v in zip([*x[1:m], 0], x[m:])]
    return top + [x[-1] - u - v for u, v in zip([0, *x[m:-1]], top)]


def band_order(n):
    """The interleaved basis order (0, n-1, 1, n, ..., n-2, 2n-3) of the
    Seifert matrix: in it every nonzero of xA - A^T lies within distance
    2 of the diagonal, and it ends with the generator rows
    (n-2, 2n-3)."""
    m = check_n(n)
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


def paired_product(n):
    """The product of the quadratic factors of the Alexander polynomial
    paired by xi^k and xi^-k: prod over k = 1 .. m of
    t^2 + (xi^k - 1 + xi^-k) t + 1, with m = floor((n-1)/2) and xi a
    primitive n-th root of unity, an integer polynomial, 1 at n = 2.

    With z = 1 - t - t^-1 each factor is t (xi^k + xi^-k - z), and for
    z = w + w^-1 the product of z - xi^k - xi^-k over k = 1 .. m is
    S_m(z), where S_-1 = -(n mod 2), S_0 = 1 and S_{j+1} = z S_j - S_{j-1}:
    sum_{j=-m}^{m} w^j for odd n, (w^(m+1) - w^-(m+1)) / (w - w^-1) for
    even n.  So the product is (-t)^m S_m(z), computed by that recurrence
    in integer Laurent arithmetic.  n is held to `check_n`'s ceiling,
    like every invariant here.
    """
    m = check_n(n) // 2
    z = LaurentPolynomial({-1: -1, 0: 1, 1: -1})
    one = LaurentPolynomial.constant(1)
    prev, cur = one.scale(-(n % 2)), one
    for _ in range(m):
        prev, cur = cur, z * cur - prev
    return cur.shift(m).scale((-1) ** m)


def p_n(n):
    """The distinguished square root of the Alexander polynomial for odd
    n, the `paired_product` of its n - 1 quadratic factors."""
    if check_n(n) % 2:
        raise ValueError("defined for odd n >= 3")
    return paired_product(n)
