"""The Seifert matrix of the braid-closure family as a dense block
Matrix, kept as the independent description of the band rows that
`sliceobs.seifert.band_pencil` writes from its closed form.

For the n-th member, Seifert's algorithm on the closure of
(sigma_1 sigma_2^-1)^n gives a genus n-1 surface whose Seifert matrix
has the block shape A = [[-B^T, 0], [B, B]] for the (n-1)-square band
matrix B with 1 on the diagonal and -1 on the first superdiagonal.  The
program never writes A out: the linking form, the Alexander polynomial
and the cover's check A h = A^T read its band rows in
`seifert.band_order`.  Here A is assembled from B block by block.
"""

from sliceobs.linalg import Matrix


def band_matrix(n):
    """The (n-1)-square matrix B with 1 on the diagonal, -1 above it."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need an integer n >= 2, not {n!r}")
    m = n - 1
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
