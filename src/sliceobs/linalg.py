"""Exact linear algebra: band determinants over Z[t], prime-field
determinants, integer Smith forms, and the involution.

Everything here is deliberately dependency-free.  Every determinant over
Z, Z[t] or the Eisenstein integers Z[w] = Z[t]/(t^2 + t + 1) is of a
pencil X - t Y whose nonzeros lie within distance 2 of the diagonal (the
Seifert pencils in `seifert.band_order`), and goes through one kernel,
`det_band`.  It takes X and Y as band rows, row i the 5 entries of the
columns i - 2 .. i + 2, so that no entry outside the band can be given
and none is searched for.  It is a transfer recurrence over the six ways
the rows so far can leave the columns near the diagonal taken, one pass
over the rows with no pivot, no division and no evaluation point, which
also gives the minors bordered by the last two rows and columns
(`blanchfield._pairing_at_omega` reads the adjugate from them) and
reduces modulo a monic polynomial as it goes.  Determinants over a prime
field use plain Gaussian elimination (`det_gf`), which also takes many
matrices of one side laid out side by side, entry by entry, and
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
    "det_band",
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


# The moves of `det_band`, as (state, pick, next state, sign).  Before
# row i, the rows above have taken every column left of i - 2 and two
# of the window columns i - 2 .. i + 1; a state is that pair, as offsets
# 0..3 into the window, numbered (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
# (2, 3); row 0 starts from (0, 1), the columns -2 and -1 counted as
# taken.  Row i takes a free column i - 2 + pick, pick = 0..4, and must
# take column i - 2 while it is free, since no later row reaches it; the
# sign is -1 to the number of taken columns right of the pick, the
# inversions the pick adds to the permutation.
_MOVES = ((0, 2, 0, 1), (0, 3, 1, 1), (0, 4, 2, 1),
          (1, 1, 0, -1), (1, 3, 3, 1), (1, 4, 4, 1),
          (2, 1, 1, -1), (2, 2, 3, -1), (2, 4, 5, 1),
          (3, 0, 0, 1), (4, 0, 1, 1), (5, 0, 3, 1))


def _plus(p, q):
    """The sum of two coefficient lists."""
    if len(p) < len(q):
        p, q = q, p
    return [u + v for u, v in zip(p, q)] + p[len(q):]


def det_band(x, y, modulus=None):
    """The determinant of the pencil M = X - t Y, for square matrices X
    and Y of side N whose nonzeros lie within distance 2 of the
    diagonal, and the 2x2 block B of the minors of M bordered by its
    last two rows and columns: B[a][b] is the minor on the rows 0..N-3,
    N-2+a and the columns 0..N-3, N-2+b.  X and Y come as N band rows
    each, row i the 5 entries of the columns i - 2 .. i + 2; an entry
    outside the columns 0..N-1 is never read.  A row that does not have
    5 entries, or a Y with another number of rows, raises ValueError.
    Returns (det M, B), B None when N < 2, each value a list of integer
    coefficients, ascending in t.  With `modulus`, the ascending
    coefficients of a monic polynomial of degree e, each value is taken
    modulo it, a list of e integers.

    One pass over the rows, by a transfer recurrence over the six states
    of `_MOVES`: a state holds the signed sum, over the ways the rows so
    far can take columns and leave that state, of the products of the
    entries they take.  A row moves each state along its at most 3
    picks, multiplying it by one entry X_ij - t Y_ij, so there is no
    pivot, no division and no evaluation point; the modulus is folded in
    after each move.  When N - 2 rows are done, one more row N-2+a
    leaves B[a][0] in the state with the columns 0..N-2 taken and
    B[a][1] in the one with N-2 free and N-1 taken.
    """
    size = len(x)
    if len(y) != size or any(len(r) != 5 for r in (*x, *y)):
        raise ValueError("det_band takes rows of 5, as many of Y as of X")
    top = len(modulus) - 1 if modulus else 0

    def step(states, i, xr, yr):
        # the states after the band rows xr, yr, read as the columns
        # i - 2 .. i + 2, taken as the row at position i
        new = [None] * 6
        for src, pick, dst, sign in _MOVES:
            p = states[src]
            if p is None or i - 2 + pick >= size:
                continue
            d = sign * xr[pick]
            c = -sign * yr[pick]
            if not c:
                if not d:
                    continue
                q = p if d == 1 else [d * u for u in p]
            elif not d:
                q = [0] + (p if c == 1 else [c * u for u in p])
            else:
                q = ([d * p[0]] + [d * u + c * v for u, v in zip(p[1:], p)]
                     + [c * p[-1]])
            if len(q) > top > 0:
                lead = q.pop()
                for e in range(top):
                    q[e] -= lead * modulus[e]
            new[dst] = q if new[dst] is None else _plus(new[dst], q)
        return new

    def value(p):
        p = p or []
        return p + [0] * (max(top, 1) - len(p))

    states = [[1], None, None, None, None, None]
    block = None
    for i in range(size):
        new = step(states, i, x[i], y[i])
        if i == size - 2:
            # the last row, shifted onto the columns of row N-2
            other = step(states, i, (0, *x[i + 1][:4]), (0, *y[i + 1][:4]))
            block = ((value(new[0]), value(new[1])),
                     (value(other[0]), value(other[1])))
        states = new
    return value(states[0]), block


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
