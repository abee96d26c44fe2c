"""Determinants of Laurent polynomial matrices, kept as the independent
oracle for `sliceobs.seifert.alexander_polynomial` and for the
Blanchfield cofactors of `tests/blanchfield_oracle.py`.

`det_laurent` takes any square matrix of integer Laurent polynomials:
it factors the least power of t out of each row, bounds the degree of
what is left row by row, and interpolates integer determinants at that
many points of `eval_points` (`bareiss_oracle`).  The program takes
det(tA - A^T) for the Seifert matrix A in one division-free pass over
Z[t] on its band (`linalg.det_band`); the general route here buys a
check that builds its matrices a different way and uses no band.

`det_cofactor` expands small determinants by cofactors, the check for
the band kernel and for the Bareiss elimination of `bareiss_oracle`.
`band_rows` and `dense_rows` convert a square matrix to the band rows
the kernel takes and back.
"""

from itertools import count, islice

from bareiss_oracle import _newton_interpolate, det_bareiss
from sliceobs.laurent import LaurentPolynomial, one, zero
from sliceobs.linalg import Matrix


def eval_points():
    """The integers 0, 1, -1, 2, -2, ... without end."""
    yield 0
    for k in count(1):
        yield k
        yield -k


def det_cofactor(rows):
    """Determinant of a square list of rows by cofactor expansion along
    the first row, skipping its zeros; shares no code with the
    elimination."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if not rows[0][j]:
            continue
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(sub)
        total = total - term if j % 2 else total + term
    return total


def band_rows(rows):
    """The band rows of a square matrix, as `linalg.det_band` takes
    them: row i the entries of the columns i - 2 .. i + 2, 0 outside the
    matrix.  A nonzero farther from the diagonal raises ValueError."""
    size = len(rows)
    for i, r in enumerate(rows):
        if any(x for j, x in enumerate(r) if abs(i - j) > 2):
            raise ValueError(f"row {i} has a nonzero outside the band")
    return [tuple(r[j] if 0 <= j < size else 0 for j in range(i - 2, i + 3))
            for i, r in enumerate(rows)]


def dense_rows(band):
    """The square matrix of the band rows, as lists; the entries of a
    band row outside the matrix are dropped."""
    size = len(band)
    out = [[0] * size for _ in band]
    for i, r in enumerate(band):
        for j, x in enumerate(r, i - 2):
            if 0 <= j < size:
                out[i][j] = x
    return out


def minor(m, i, j):
    """The Matrix m with row i and column j removed."""
    return Matrix(tuple(tuple(x for cj, x in enumerate(r) if cj != j)
                        for ri, r in enumerate(m.rows) if ri != i))


def det_laurent(m):
    """Determinant of a matrix of Laurent polynomials with integer
    coefficients, by evaluation at integer points and Newton interpolation.

    Row-wise powers of t are factored out first so every evaluation is a
    plain integer determinant (`det_bareiss`), then the interpolated
    coefficients are checked to be integers.
    """
    rows = m.rows if isinstance(m, Matrix) else m
    rows = [[x if isinstance(x, LaurentPolynomial)
             else LaurentPolynomial.constant(x) for x in r] for r in rows]
    n = len(rows)
    if n == 0:
        return one()
    total_shift = 0
    degree_bound = 0
    shifted = []
    for r in rows:
        exps = [x.min_exp for x in r if not x.is_zero]
        if not exps:
            return zero()
        lo = min(exps)
        total_shift += lo
        r = [x.shift(-lo) for x in r]
        degree_bound += max(x.max_exp for x in r if not x.is_zero)
        shifted.append(r)
    pts = list(islice(eval_points(), degree_bound + 1))
    vals = [det_bareiss([[x(p) for x in r] for r in shifted]) for p in pts]
    poly = _newton_interpolate(pts, vals)
    return poly.shift(total_shift)
