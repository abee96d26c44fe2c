"""Seifert data for the braid-closure family and the invariants that
fall out of it: the Alexander polynomial det(tA - A^T) and its
distinguished square root.

For the n-th member, applying Seifert's algorithm to the closure of
(sigma_1 sigma_2^-1)^n yields a genus n-1 surface whose Seifert matrix
has the block shape A = [[-B^T, 0], [B, B]] for the (n-1)-square band
matrix B with 1 on the diagonal and -1 on the first superdiagonal.

Two facts about that shape carry the computations.  B is unitriangular,
so det A = +-1 and A^-1 = [[-L, 0], [L, U]] in closed form, with
U = B^-1 the upper and L = B^-T the lower triangular all-ones matrix.
So A^-1 X is never formed as a product: the top block rows of the
answer are the prefix sums of X's top block rows, negated, and the
bottom block rows add to those prefix sums the suffix sums of X's
bottom block rows (`apply_inverse`), O(N) work per row of X.  And with
the rows and columns taken in the interleaved order (0, n-1, 1, n,
..., n-2, 2n-3) (`band_order`), every nonzero of xA - A^T lies within
distance 2 of the diagonal, which `linalg._bareiss` turns into O(1)
work per elimination step.

Every N-square table here and downstream (the linking form, cover
homology, `report.obstruct`) starts from `band_matrix` or
`apply_inverse`, and both begin with the one size check `check_n`
against `MAX_N`, so it fires before anything is allocated;
`report.obstruct` runs it before it builds the presentation.
"""

from itertools import count, islice
from math import lcm
from operator import add

from .laurent import LaurentPolynomial
from .linalg import Matrix, _bareiss, _newton_interpolate

__all__ = ["MAX_N", "check_n", "band_matrix",
           "seifert_matrix", "apply_inverse", "band_order",
           "alexander_polynomial", "p_n"]

# The largest family index accepted, so that no input asks for more
# than a few dense tables of side N = 2(n-1) <= 998, 1e6 entries each.
# Measured near it (Python 3.11, 2 cores): `linking_form(497)` takes
# 1.5 s, `cover_homology_snf(497, 3)` 23 s, `report.obstruct(491,
# s=983)` 182 s at 121 MiB peak RSS, and `alexander_polynomial(497)`
# 322 s; the last two grow about as n^3.
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


def apply_inverse(n, x):
    """A^-1 X, as new lists, for the Seifert matrix A of
    `seifert_matrix(n)` and X its 2(n-1) rows (lists of ints, all of
    one length).

    A^-1 = [[-L, 0], [L, U]] with L and U the lower and upper triangular
    all-ones matrices (B U = I, since row i of B U is U[i] - U[i+1], and
    L = U^T).  Row i of L X_top is the sum of the top rows 0 .. i of X,
    and row i of U X_bottom the sum of the bottom rows i .. n-2, so the
    answer is the running prefix sums of the top half, negated, over
    those prefix sums plus the running suffix sums of the bottom half.
    """
    m = check_n(n)
    if len(x) != 2 * m:
        raise ValueError(f"A^-1 X needs {2 * m} rows of X for n={n}, "
                         f"got {len(x)}")
    prefix = []
    acc = [0] * len(x[0])
    for row in x[:m]:
        acc = list(map(add, acc, row))
        prefix.append(acc)
    bottom = []
    acc = [0] * len(acc)
    for row, pre in zip(reversed(x[m:]), reversed(prefix)):
        acc = list(map(add, acc, row))
        bottom.append(list(map(add, pre, acc)))
    bottom.reverse()
    return [[-v for v in row] for row in prefix] + bottom


def band_order(n):
    """The interleaved basis order (0, n-1, 1, n, ..., n-2, 2n-3) of the
    Seifert matrix: in it every nonzero of xA - A^T lies within distance
    2 of the diagonal, and it ends with the generator rows
    (n-2, 2n-3)."""
    m = n - 1
    return [i + half for i in range(m) for half in (0, m)]


def _band_shape(size):
    """The lower bandwidth and the row ends (one past the last nonzero)
    that `linalg._bareiss` takes for a side-`size` matrix whose nonzeros
    lie where those of xA - A^T do in `band_order`: within distance 2
    of the diagonal."""
    return 2, [min(i + 3, size) for i in range(size)]


def alexander_polynomial(n):
    """det(tA - A^T) for the Seifert matrix A, an integer Laurent
    polynomial (monic of degree 2n-2 for odd n coprime to 3).

    The determinant Delta has degree at most the side N = 2(n-1) of A,
    and it is palindromic: N is even, so t^N Delta(1/t) = Delta(t).  So
    Delta(t) = t^h g(t + 1/t), h = N/2, for an integer polynomial g of
    degree h, and its h + 1 = n values g(x + 1/x) = Delta(x) / x^h at
    x = 1, -1, 2, -2, ... fix it; the nodes x + 1/x are distinct for
    these x (0 is left out, it would need a division by 0^h).

    Each integer determinant det(xA - A^T) comes from `_bareiss` on the
    band: the nonzeros of xA - A^T in `band_order` are listed once, as
    (column, coefficient of x, constant), and each point fills fresh
    zero rows from that list.  With L the lcm of the points, the nodes
    L (x + 1/x) are integers and G(y) = L^h g(y / L) takes there the
    integer values (L / x)^h Delta(x), so G is interpolated at integer
    nodes, where every divided difference of an integer polynomial is
    an integer.  (Interpolating g at the rational nodes x + 1/x instead
    mixes the denominators x^h of all points and, near n = 200, costs
    more than the eliminations.)  g_k = G_k / L^(h-k) must divide
    exactly, and g is expanded back to Delta."""
    a = seifert_matrix(n).rows
    if not all(isinstance(x, int) for row in a for x in row):
        raise TypeError("the Seifert matrix must have integer entries")
    order = band_order(n)
    size = len(order)
    half = size // 2
    band = [[(v, a[i][j], -a[j][i]) for v, j in enumerate(order)
             if a[i][j] or a[j][i]] for i in order]
    pts = list(islice((k * s for k in count(1) for s in (1, -1)), half + 1))
    scale = lcm(*pts)
    shape = _band_shape(size)
    nodes, vals = [], []
    for x in pts:
        rows = []
        for entries in band:
            row = [0] * size
            for v, c, d in entries:
                row[v] = x * c + d
            rows.append(row)
        sign = _bareiss(rows, size, *shape)
        det = 0 if sign is None else sign * rows[-1][-1]
        nodes.append(scale * x + scale // x)
        vals.append((scale // x) ** half * det)
    big = dict(_newton_interpolate(nodes, vals).items())
    u = LaurentPolynomial({-1: 1, 1: 1})
    delta = LaurentPolynomial()
    for k in range(half, -1, -1):
        g_k, r = divmod(big.get(k, 0), scale ** (half - k))
        if r:
            raise ArithmeticError("the palindromic half is not integral")
        delta = delta * u + g_k
    return delta.shift(half)


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
