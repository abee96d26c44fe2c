"""Fraction-free (Bareiss) elimination and Newton interpolation, kept as
independent oracles: for `sliceobs.linalg.det_band` (through
`det_bareiss` and, in `laurent_oracle.det_laurent`, interpolation), for
`sliceobs.seifert.alexander_polynomial` (`alexander_by_interpolation`)
and for the Blanchfield cofactors of `tests/blanchfield_oracle.py`.

The program takes every band determinant by a division-free transfer
recurrence over Z[t]; these routes eliminate with exact divisions at
integer points and interpolate, and share no code with it.
"""

from itertools import count, islice
from math import lcm

from seifert_oracle import seifert_matrix
from sliceobs.laurent import LaurentPolynomial
from sliceobs.seifert import band_order


def _bareiss(a, steps):
    """Run the first `steps` steps of fraction-free (Bareiss) elimination
    on the rows a, in place.  The entries are ints, or any ring elements
    with `*`, `-`, truth value and a `divmod` whose remainder is zero
    exactly when the division is exact.

    After step k, every entry a[i][j] with i, j > k is the minor of the
    leading (k+1)-square block bordered by row i and column j, times the
    sign of the row swaps made so far (Sylvester's identity); that is
    what makes each division exact.  Pivots are swapped in only from the
    first `steps` rows, so the rows from `steps` on stay the border rows.
    Returns the swap sign, or None when a pivot vanishes and no swap can
    fix it, which happens exactly when the leading steps-square block is
    singular.  Raises ArithmeticError if a division is not exact.

    A row whose entry in the pivot column is 0 is skipped: step k would
    only multiply it by piv_k / piv_(k-1), and those factors telescope,
    so the row is brought current later by one checked exact scaling,
    piv_e / piv_d over the steps d..e-1 it missed.  Scaling keeps zeros
    zero, so a stale row answers the zero tests (is it skipped, can it
    be swapped in); it is brought current before its values are read:
    as the pivot, as an updated row, or as a border row when the
    elimination stops.  Every entry, and every swap, is the one of the
    full elimination, since Sylvester's identity fixes both.
    """
    size = len(a)
    done = [0] * size  # steps applied to each row so far
    piv = [1]  # piv[d]: the divisor of step d, the pivot of step d - 1

    def current(i, e):
        # scale row i from done[i] steps to e steps
        d = done[i]
        if d != e:
            f, g = piv[e], piv[d]
            row = a[i]
            for j in range(e, len(row)):
                q, r = divmod(row[j] * f, g)
                if r:
                    raise ArithmeticError("Bareiss division was not exact")
                row[j] = q
            done[i] = e

    sign = 1
    for k in range(steps):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, steps) if a[i][k]), None)
            if swap is None:
                return None
            for per_row in (a, done):
                per_row[k], per_row[swap] = per_row[swap], per_row[k]
            sign = -sign
        current(k, k)
        row_k = a[k]
        pivot = row_k[k]
        prev = piv[k]
        for i in range(k + 1, size):
            row_i = a[i]
            if not row_i[k]:
                continue
            current(i, k)
            aik = row_i[k]
            for j in range(k + 1, len(row_i)):
                q, r = divmod(row_i[j] * pivot - aik * row_k[j], prev)
                if r:
                    raise ArithmeticError("Bareiss division was not exact")
                row_i[j] = q
            row_i[k] = 0
            done[i] = k + 1
        piv.append(pivot)
    for i in range(steps, size):
        current(i, steps)
    return sign


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
    sign = _bareiss(a, n)
    return 0 if sign is None else sign * a[n - 1][n - 1]


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


def alexander_by_interpolation(n):
    """det(tA - A^T) for the Seifert matrix A, an integer Laurent
    polynomial, from Bareiss eliminations at n integer points and the
    interpolation of its palindromic half.

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
    nodes, vals = [], []
    for x in pts:
        rows = []
        for entries in band:
            row = [0] * size
            for v, c, d in entries:
                row[v] = x * c + d
            rows.append(row)
        sign = _bareiss(rows, size)
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
