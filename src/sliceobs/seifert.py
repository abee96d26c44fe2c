"""Seifert data for the braid-closure family and the invariants that
fall out of it: the Alexander polynomial det(tA - A^T) and its
distinguished square root.

For the n-th member, applying Seifert's algorithm to the closure of
(sigma_1 sigma_2^-1)^n yields a genus n-1 surface whose Seifert matrix
has the block shape [[-B^T, 0], [B, B]] for the (n-1)-square band
matrix B with 1 on the diagonal and -1 on the first superdiagonal.
"""

from dataclasses import dataclass
from itertools import islice

from .laurent import LaurentPolynomial
from .linalg import Matrix, _eval_points, _newton_interpolate, det_bareiss

__all__ = ["SeifertData", "band_matrix", "seifert_matrix",
           "alexander_polynomial", "p_n"]


def band_matrix(n):
    """The (n-1)-square matrix with 1 on the diagonal, -1 above it."""
    if n < 2:
        raise ValueError("need n >= 2")
    m = n - 1
    return Matrix(tuple(
        tuple(1 if i == j else (-1 if j == i + 1 else 0) for j in range(m))
        for i in range(m)))


@dataclass(frozen=True)
class SeifertData:
    """A Seifert matrix for the n-th closure, on a genus n-1 surface."""
    n: int
    matrix: Matrix

    @property
    def genus(self):
        return self.n - 1


def seifert_matrix(n):
    b = band_matrix(n)
    bt = b.transpose()
    m = n - 1
    z = [[0] * m for _ in range(m)]
    rows = []
    for i in range(m):
        rows.append(tuple((-bt)[i]) + tuple(z[i]))
    for i in range(m):
        rows.append(tuple(b[i]) + tuple(b[i]))
    return SeifertData(n, Matrix(rows))


def alexander_polynomial(n):
    """det(tA - A^T) for the Seifert matrix A, an integer Laurent
    polynomial (monic of degree 2n-2 for odd n coprime to 3).

    The determinant has degree at most the side N = 2(n-1) of A, so it
    is interpolated from the integer determinants det(xA - A^T) at N + 1
    points."""
    a = seifert_matrix(n).matrix
    size = a.nrows
    pts = list(islice(_eval_points(), size + 1))
    vals = [det_bareiss([[x * a[i][j] - a[j][i] for j in range(size)]
                         for i in range(size)]) for x in pts]
    return _newton_interpolate(pts, vals)


def p_n(n):
    """The distinguished square root of the Alexander polynomial:
    prod over k = 1 .. m of t^2 + (xi^k - 1 + xi^-k) t + 1, with
    m = (n-1)/2 and xi a primitive n-th root of unity.  Integer
    coefficients.

    With z = 1 - t - t^-1 each factor is t (xi^k + xi^-k - z), and for
    z = w + w^-1 the product of z - xi^k - xi^-k over k = 1 .. m is
    sum_{j=-m}^{m} w^j = S_m(z), where S_0 = 1, S_1 = 1 + z and
    S_{j+1} = z S_j - S_{j-1}.  So p_n = (-t)^m S_m(z), computed by that
    recurrence in integer Laurent arithmetic.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("defined for odd n >= 3")
    m = (n - 1) // 2
    z = LaurentPolynomial({-1: -1, 0: 1, 1: -1})
    prev, cur = LaurentPolynomial.constant(1), z + 1
    for _ in range(m - 1):
        prev, cur = cur, z * cur - prev
    return cur.shift(m).scale((-1) ** m)
