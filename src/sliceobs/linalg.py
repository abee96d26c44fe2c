"""Exact linear algebra: integer determinants and Smith forms, prime-field
determinants, and the involution.

Everything here is deliberately dependency-free.  All determinant
work over Z or over the Eisenstein integers Z[w] goes through one
kernel, `_bareiss`: fraction-free elimination, in place, with every
division checked to be exact.  It takes the lower bandwidth w of its
input and the end of each row from the caller (`seifert.band_order`
fixes them for the Seifert matrices; `det_bareiss` measures them) and
visits only the w rows below each pivot; it skips the
rows that are zero in the pivot column and scales them once, lazily,
when they are next read; and it stops each row update at the last
nonzero.  So on a band of width w a step costs O(w^2) arithmetic
instead of O(N^2) (see `seifert.band_order`).  It gives `det_bareiss`
for integer matrices, and a polynomial determinant is put back
together from such values at integer nodes by `_newton_interpolate`
(`seifert.alexander_polynomial` takes the palindromic half of one, at
the scaled nodes L (x + 1/x)).
Its partial form, stopped before the last rows, also yields bordered
minors (see `blanchfield._pairing_at_omega`).  Determinants over a
prime field use plain Gaussian elimination (`det_gf`), which also takes
many matrices of one side laid out side by side, entry by entry, and
eliminates them together: one list operation per row and step serves
every matrix, and a pivot is swapped only at the matrices where it
vanishes (`twisted` reduces its Schur complements this way, at all the
evaluation points at once).  `smith_normal_form` is an integer-only
elimination.
"""

from fractions import Fraction

from .laurent import LaurentPolynomial

__all__ = [
    "Matrix",
    "involution",
    "det_bareiss",
    "det_gf",
    "smith_normal_form",
]


class Matrix:
    """Immutable matrix with arbitrary exact entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n):
        return Matrix(tuple(tuple(int(i == j) for j in range(n))
                            for i in range(n)))

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(a == b for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = ",\n        ".join(repr(list(r)) for r in self.rows)
        return f"Matrix([{body}])"

    def transpose(self):
        return Matrix(tuple(zip(*self.rows))) if self.rows else self

    def map(self, fn):
        return Matrix(tuple(tuple(fn(x) for x in r) for r in self.rows))

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(tuple(tuple(a + b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(tuple(tuple(a - b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self):
        return self.map(lambda x: -x)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            cols = other.transpose().rows
            return Matrix(tuple(
                tuple(_dot(row, col) for col in cols) for row in self.rows))
        return Matrix(tuple(tuple(x * other for x in r) for r in self.rows))

    def __rmul__(self, other):
        return Matrix(tuple(tuple(other * x for x in r) for r in self.rows))


def _dot(row, col):
    total = None
    for a, b in zip(row, col):
        prod = a * b
        total = prod if total is None else total + prod
    return 0 if total is None else total


def involution(obj):
    """The standard involution: t -> t^-1 on Laurent polynomials, the
    identity on ints and Fractions, and on matrices the transpose with
    the involution applied to each entry.
    """
    if isinstance(obj, Matrix):
        return obj.transpose().map(involution)
    if isinstance(obj, LaurentPolynomial):
        return obj.involution()
    if isinstance(obj, (int, Fraction)):
        return obj
    raise TypeError(f"no involution for {type(obj).__name__}")


# -- determinants -------------------------------------------------------------


def _bareiss(a, steps, width, ends):
    """Run the first `steps` steps of fraction-free (Bareiss) elimination
    on the rows a, in place.  The entries are ints, or any ring elements
    with `*`, `-`, truth value and a `divmod` whose remainder is zero
    exactly when the division is exact (`blanchfield._Eisenstein`).

    After step k, every entry a[i][j] with i, j > k is the minor of the
    leading (k+1)-square block bordered by row i and column j, times the
    sign of the row swaps made so far (Sylvester's identity); that is
    what makes each division exact.  Pivots are swapped in only from the
    first `steps` rows, so the rows from `steps` on stay the border rows.
    Returns the swap sign, or None when a pivot vanishes and no swap can
    fix it, which happens exactly when the leading steps-square block is
    singular.  Raises ArithmeticError if a division is not exact.

    The work follows the zeros of a banded matrix, described by the
    caller: `width`, the lower bandwidth w (the largest i - (first
    nonzero column of row i)), and `ends`, one past the rightmost
    nonzero column of each row; upper bounds on both are safe, and
    `_band` measures them for any matrix.  Step k looks at rows
    k+1 .. k+w only, for the swap and for the update: no row has a
    nonzero left of column i - w, and eliminating or swapping within
    those rows keeps it so, so every row further down is zero in the
    pivot column.  A row whose entry in
    the pivot column is 0 is skipped: step k would only multiply it by
    piv_k / piv_(k-1), and those factors telescope, so the row is brought
    current later by one checked exact scaling, piv_e / piv_d over the
    steps d..e-1 it missed.  Scaling keeps zeros zero, so a stale row
    answers the zero tests (is it skipped, can it be swapped in); it is
    brought current before its values are read: as the pivot, as an
    updated row, or as a border row when the elimination stops.  An
    update runs only up to the rightmost nonzero of the two rows.  Every
    entry, and every swap, is the one of the full elimination, since
    Sylvester's identity fixes both.
    """
    size = len(a)
    done = [0] * size  # steps applied to each row so far
    ends = list(ends)  # kept current through swaps and updates
    piv = [1]  # piv[d]: the divisor of step d, the pivot of step d - 1

    def current(i, e):
        # scale row i from done[i] steps to e steps
        d = done[i]
        if d != e:
            f, g = piv[e], piv[d]
            row = a[i]
            for j in range(e, ends[i]):
                q, r = divmod(row[j] * f, g)
                if r:
                    raise ArithmeticError("Bareiss division was not exact")
                row[j] = q
            done[i] = e

    sign = 1
    for k in range(steps):
        last = k + width + 1  # one past the last row that can be nonzero
        if not a[k][k]:
            swap = next((i for i in range(k + 1, min(last, steps))
                         if a[i][k]), None)
            if swap is None:
                return None
            for per_row in (a, done, ends):
                per_row[k], per_row[swap] = per_row[swap], per_row[k]
            sign = -sign
        current(k, k)
        row_k = a[k]
        pivot = row_k[k]
        prev = piv[k]
        end_k = ends[k]
        for i in range(k + 1, min(last, size)):
            row_i = a[i]
            if not row_i[k]:
                continue
            current(i, k)
            aik = row_i[k]
            end = max(end_k, ends[i])
            for j in range(k + 1, end):
                q, r = divmod(row_i[j] * pivot - aik * row_k[j], prev)
                if r:
                    raise ArithmeticError("Bareiss division was not exact")
                row_i[j] = q
            row_i[k] = 0
            ends[i] = end
            done[i] = k + 1
        piv.append(pivot)
    for i in range(steps, size):
        current(i, steps)
    return sign


def _band(a):
    """The lower bandwidth of the rows a and one past the rightmost
    nonzero of each row, measured, for `_bareiss` on a matrix whose band
    its caller does not know."""
    width = 0
    ends = [0] * len(a)
    for i, row in enumerate(a):
        nonzero = list(map(bool, row))
        if True in nonzero:
            width = max(width, i - nonzero.index(True))
            ends[i] = len(row) - nonzero[::-1].index(True)
    return width, ends


def det_bareiss(m):
    """Determinant of a square integer matrix, given by its rows (a
    Matrix iterates over its rows), by fraction-free elimination."""
    a = [list(r) for r in m]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of non-square matrix")
    if not all(isinstance(x, int) for r in a for x in r):
        raise TypeError("det_bareiss takes integer entries")
    if n == 0:
        return 1
    sign = _bareiss(a, n, *_band(a))
    return 0 if sign is None else sign * a[n - 1][n - 1]


def det_gf(rows, s, points=None):
    """Determinant of an integer matrix modulo the prime s, by Gaussian
    elimination.  Takes the rows (a Matrix iterates over its rows);
    returns an int in [0, s).

    With `points`, the rows hold that many k-square matrices side by
    side, entry (i, j) of matrix p at rows[i][j * points + p], and the
    list of their determinants is returned.  One elimination runs over
    all of them: a step is one list operation per row across every
    point, and the pivot is swapped by rows at a point only where it
    vanishes there.  A point with no pivot left keeps a zero pivot,
    whose zero inverse leaves its rows as they are, and its determinant
    is 0.  The one-matrix call is the case of one point.
    """
    npts = 1 if points is None else points
    a = [[x % s for x in r] for r in rows]
    k = len(a)
    if any(len(r) != k * npts for r in a):
        raise ValueError("determinant of non-square matrix")
    det = [1] * npts
    for c in range(k):
        # a[c:] now hold only the columns c.. of each row
        row_c = a[c]
        for p in range(npts):
            if row_c[p]:
                continue
            swap = next((i for i in range(c + 1, k) if a[i][p]), None)
            if swap is not None:
                row_i = a[swap]
                for j in range(p, len(row_c), npts):
                    row_c[j], row_i[j] = row_i[j], row_c[j]
                det[p] = s - det[p]
        pivot = row_c[:npts]
        det = [d * x % s for d, x in zip(det, pivot)]
        inv = [pow(x, -1, s) if x else 0 for x in pivot]
        # the pivot row past its pivot, divided by the pivot
        scaled = [y * w % s for y, w in zip(row_c[npts:],
                                             inv * (k - c - 1))]
        for i in range(c + 1, k):
            row_i = a[i]
            f = row_i[:npts]
            a[i] = ([(x - g * y) % s for x, g, y in zip(
                row_i[npts:], f * (k - c - 1), scaled)]
                if any(f) else row_i[npts:])
    return det if points is not None else det[0]


def _newton_interpolate(pts, vals):
    """The unique integer polynomial of degree < len(pts) through the
    given integer values at the given distinct integer nodes.  Raises
    ArithmeticError if the interpolant is not integral.

    Newton's divided differences stay in the integers: those of an
    integer polynomial at integer nodes are integers, and integer
    divided differences at integer nodes give an integer polynomial, so
    the interpolant is integral exactly when every division is exact.
    The Newton form is expanded by Horner's rule.
    """
    coef = list(vals)
    n = len(pts)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i], r = divmod(coef[i] - coef[i - 1], pts[i] - pts[i - j])
            if r:
                raise ArithmeticError("interpolant not integral")
    poly = []
    for i in range(n - 1, -1, -1):
        # poly = poly * (t - pts[i]) + coef[i]
        poly = [a - pts[i] * b for a, b in zip([0] + poly, poly + [0])]
        poly[0] += coef[i]
    return LaurentPolynomial(dict(enumerate(poly)))


# -- Smith normal form --------------------------------------------------------


def _nearest_quotient(a, b):
    """The q that leaves the remainder a - q*b of least absolute value."""
    q, r = divmod(a, b)
    return q + 1 if 2 * abs(r) > abs(b) else q


def _smallest_entry(a, k):
    """(i, j) of the first nonzero entry of least absolute value in the
    block of the rows a from (k, k) on, or None if it is all zero.  The
    scan stops at the first unit."""
    best = None
    for i in range(k, len(a)):
        for j, x in enumerate(a[i][k:], k):
            if x and (best is None or abs(x) < best[0]):
                best = (abs(x), i, j)
                if best[0] == 1:
                    return i, j
    return best and best[1:]


def smith_normal_form(m):
    """Invariant factors d_1 | d_2 | ... (nonnegative ints, zeros last) of
    an integer matrix.

    At each step the smallest nonzero entry of the trailing block is
    moved to the pivot, its row and column are reduced by nearest-remainder
    division until they are clear, and a row holding an entry the pivot
    does not divide is added to the pivot row to shrink it further.  The
    search stops at the first entry of absolute value 1, which no entry
    beats, and a unit pivot divides everything, so the divisibility sweep
    is skipped for it: neither shortcut changes a single step.
    """
    a = [list(r) for r in m]
    if not all(isinstance(x, int) for r in a for x in r):
        raise TypeError("integer Smith form takes integer entries")
    nr = len(a)
    nc = len(a[0]) if a else 0
    out = []
    for k in range(min(nr, nc)):
        while True:
            best = _smallest_entry(a, k)
            if best is None:
                # everything remaining is zero
                return out + [0] * (min(nr, nc) - k)
            pi, pj = best
            if pi != k:
                a[k], a[pi] = a[pi], a[k]
            if pj != k:
                for row in a:
                    row[k], row[pj] = row[pj], row[k]
            row_k = a[k]
            p = row_k[k]
            dirty = False
            # rows and columns before k are zero from row k on
            for row in a[k + 1:]:
                if not row[k]:
                    continue
                q = _nearest_quotient(row[k], p)
                if q:
                    row[k:] = [x - q * y for x, y in zip(row[k:], row_k[k:])]
                if row[k]:
                    dirty = True
            # a column step changes only the rows nonzero in column k
            col_k = [row for row in a[k:] if row[k]]
            for j in range(k + 1, nc):
                if not row_k[j]:
                    continue
                q = _nearest_quotient(row_k[j], p)
                if q:
                    for row in col_k:
                        row[j] -= q * row[k]
                if row_k[j]:
                    dirty = True
            if dirty:
                continue
            if abs(p) == 1:
                break
            # row and column are clear; enforce divisibility of the rest
            offender = next((i for i in range(k + 1, nr)
                             if any(x % p for x in a[i][k + 1:])), None)
            if offender is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[offender])]
        out.append(abs(a[k][k]))
    return out
