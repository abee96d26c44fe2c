"""Seifert data for the braid-closure family and the invariants that
fall out of it: the Alexander polynomial det(tA - A^T) and its
distinguished square root.

For the n-th member, applying Seifert's algorithm to the closure of
(sigma_1 sigma_2^-1)^n yields a genus n-1 surface whose Seifert matrix
has the block shape A = [[-B^T, 0], [B, B]] for the (n-1)-square band
matrix B with 1 on the diagonal and -1 on the first superdiagonal.

Two facts about that shape carry the computations.  B is unitriangular,
so det A = +-1 and A^-1 = [[-B^-T, 0], [B^-T, B^-1]] in closed form,
B^-1 the upper triangular all-ones matrix (`seifert_inverse`).  And
with the rows and columns taken in the interleaved order (0, n-1, 1, n,
..., n-2, 2n-3) (`band_order`), every nonzero of xA - A^T lies within
distance 2 of the diagonal, which `linalg._bareiss` turns into O(1)
work per elimination step.
"""

from dataclasses import dataclass
from itertools import islice

from .laurent import LaurentPolynomial
from .linalg import Matrix, _eval_points, _newton_interpolate, det_bareiss

__all__ = ["SeifertData", "band_matrix", "seifert_matrix",
           "seifert_inverse", "band_order", "alexander_polynomial", "p_n"]


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
    """A = [[-B^T, 0], [B, B]] for B = `band_matrix(n)`, row by row: the
    top rows are the columns of B negated, then n - 1 zeros."""
    b = band_matrix(n).rows
    zeros = [0] * (n - 1)
    return SeifertData(n, Matrix([[-x for x in col] + zeros
                                  for col in zip(*b)]
                                 + [row + row for row in b]))


def seifert_inverse(n):
    """A^-1 = [[-B^-T, 0], [B^-T, B^-1]] for the Seifert matrix A of
    `seifert_matrix(n)`, with B^-1 the upper triangular all-ones matrix
    (B U = I, since row i of B U is U[i] - U[i+1]).  An integer Matrix:
    A is unimodular for every n."""
    if n < 2:
        raise ValueError("need n >= 2")
    m = n - 1
    upper = [[1 if j >= i else 0 for j in range(m)] for i in range(m)]
    lower = [list(col) for col in zip(*upper)]
    zeros = [0] * m
    return Matrix([[-x for x in lower[i]] + zeros for i in range(m)]
                  + [lower[i] + upper[i] for i in range(m)])


def band_order(n):
    """The interleaved basis order (0, n-1, 1, n, ..., n-2, 2n-3) of the
    Seifert matrix: in it every nonzero of xA - A^T lies within distance
    2 of the diagonal, and it ends with the generator rows
    (n-2, 2n-3)."""
    m = n - 1
    return [i + half for i in range(m) for half in (0, m)]


def alexander_polynomial(n):
    """det(tA - A^T) for the Seifert matrix A, an integer Laurent
    polynomial (monic of degree 2n-2 for odd n coprime to 3).

    The determinant has degree at most the side N = 2(n-1) of A, so it
    is interpolated from the integer determinants det(xA - A^T) at N + 1
    points, each taken on the band in `band_order`."""
    a = seifert_matrix(n).matrix
    order = band_order(n)
    pts = list(islice(_eval_points(), len(order) + 1))
    vals = [det_bareiss([[x * a[i][j] - a[j][i] for j in order]
                         for i in order]) for x in pts]
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
