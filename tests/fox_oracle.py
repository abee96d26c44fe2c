"""The dense Fox-matrix route to the twisted determinant, kept as the
independent oracle for `sliceobs.twisted.twisted_determinant`.

The deleted Fox matrix of the Wirtinger presentation is assembled block
by block, 3(g-1) square for g generators, and its determinant is taken
either at the points 0..g-1 with `det_gf` and interpolated by Newton's
divided differences (`interpolate`), or directly over Z/s[t] by
fraction-free elimination (`poly_matrix_det`).  Both cost O(g^3) per
point or worse, which is why the program eliminates in crossing order
and takes its points at the roots of unity instead; here the cost buys
a check that shares no logic with it.
"""

from dataclasses import dataclass

from sliceobs import ffpoly
from sliceobs.linalg import det_gf


def interpolate(xs, ys, s):
    """The unique polynomial of degree < len(xs) through (xs[i], ys[i])
    mod s, by Newton's divided differences at any distinct nodes, its
    Newton form expanded by Horner's rule.  A point or value that is not
    an int raises ValueError."""
    n = len(xs)
    if len(ys) != n:
        raise ValueError("interpolation needs one value per point")
    for kind, values in (("point", xs), ("value", ys)):
        for v in values:
            if not isinstance(v, int):
                raise ValueError(
                    f"an interpolation {kind} must be an integer, not {v!r}")
    if len({x % s for x in xs}) != n:
        raise ValueError("interpolation points must be distinct mod s")
    coef = [y % s for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            inv = pow(xs[i] - xs[i - j], -1, s)
            coef[i] = (coef[i] - coef[i - 1]) * inv % s
    poly = []
    for x, c in zip(reversed(xs), reversed(coef)):
        # poly = poly * (t - x) + c
        poly = [(a - x * b) % s for a, b in zip([c] + poly, poly + [0])]
    return ffpoly.trim(poly)


def poly_matrix_det(rows, s):
    """Fraction-free (Bareiss) determinant of a matrix of polynomials
    over Z/s; every intermediate division is exact and checked."""
    a = [[ffpoly.trim(x, s) for x in r] for r in rows]
    n = len(a)
    if n == 0:
        return [1]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return []
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        piv = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                num = ffpoly.sub(ffpoly.mul(row_i[j], piv, s),
                                 ffpoly.mul(aik, row_k[j], s), s)
                q, r = ffpoly.poly_divmod(num, prev, s)
                if r:
                    raise ArithmeticError("Bareiss division not exact")
                row_i[j] = q
            row_i[k] = []
        prev = piv
    d = a[n - 1][n - 1]
    return ffpoly.scalar_mul(-1, d, s) if sign < 0 else d


@dataclass(frozen=True)
class FoxBlockMatrix:
    """The Fox matrix konst + t * (sparse t entries) over Z/s, with one
    relator row and one generator column removed."""
    s: int
    size: int
    konst: tuple
    t_positions: tuple  # (row, col, coeff) of the t entries

    def at(self, x):
        """Dense integer matrix konst + x * tmat mod s."""
        rows = [list(r) for r in self.konst]
        for i, j, c in self.t_positions:
            rows[i][j] = (rows[i][j] + x * c) % self.s
        return rows

    def det_at(self, x):
        return det_gf(self.at(x), self.s)

    def poly_rows(self):
        """Entries as dense polynomials over Z/s."""
        rows = [[[x] if x else [] for x in r] for r in self.konst]
        for i, j, c in self.t_positions:
            ent = rows[i][j]
            while len(ent) < 2:
                ent.append(0)
            ent[1] = (ent[1] + c) % self.s
            rows[i][j] = ffpoly.trim(ent)
        return rows

    def raw_det_bareiss(self):
        return poly_matrix_det(self.poly_rows(), self.s)

    def raw_det_interpolated(self):
        """The determinant interpolated from its values at 0..size/3."""
        xs = list(range(self.size // 3 + 1))
        return interpolate(xs, [self.det_at(x) for x in xs], self.s)


def diagonal(rep, g):
    """diag entries (d_1, d_2, d_3) of generator g, mod s: theta to the
    exponents of g's triple, each by `pow`, so that they share nothing
    with the table of roots of unity the program reads them from."""
    return tuple(pow(rep.theta, x, rep.s) for x in rep.exponents[g - 1])


def fox_block(relator, g, rep):
    """3x3 block (konst, tmat) of the Fox derivative of the relator
    (a, b, c) ~ g_a g_b g_c^-1 g_b^-1 with respect to generator g, under
    the representation.  Occurrences sum."""
    a, b, c = relator
    s = rep.s
    konst = [[0] * 3 for _ in range(3)]
    tmat = [[0] * 3 for _ in range(3)]
    if g == a:
        for k in range(3):
            konst[k][k] += 1
    if g == b:
        d1, d2, d3 = diagonal(rep, a)
        konst[1][0] += d1
        konst[2][1] += d2
        tmat[0][2] += d3
        for k in range(3):
            konst[k][k] -= 1
    if g == c:
        d1, d2, d3 = diagonal(rep, b)
        konst[1][0] -= d1
        konst[2][1] -= d2
        tmat[0][2] -= d3
    konst = [[x % s for x in row] for row in konst]
    tmat = [[x % s for x in row] for row in tmat]
    return konst, tmat


def fox_matrix(pres, rep, drop_relator=1, drop_generator=1):
    """Assemble the deleted Fox matrix. Relators and generators are
    numbered from 1; the dropped relator row and generator column give a
    square matrix of side 3 * (num_generators - 1)."""
    gens = [g for g in range(1, pres.num_generators + 1)
            if g != drop_generator]
    col_of = {g: i for i, g in enumerate(gens)}
    kept = [r for i, r in enumerate(pres.relators, start=1)
            if i != drop_relator]
    if len(kept) != len(gens):
        raise ValueError("not square after one deletion each")
    size = 3 * len(gens)
    konst = [[0] * size for _ in range(size)]
    t_positions = []
    s = rep.s
    for ri, rel in enumerate(kept):
        for g in set(rel):
            if g == drop_generator:
                continue
            kb, tb = fox_block(rel, g, rep)
            r0, c0 = 3 * ri, 3 * col_of[g]
            for i in range(3):
                for j in range(3):
                    if kb[i][j]:
                        konst[r0 + i][c0 + j] = (
                            konst[r0 + i][c0 + j] + kb[i][j]) % s
                    if tb[i][j]:
                        t_positions.append((r0 + i, c0 + j, tb[i][j]))
    return FoxBlockMatrix(s, size, tuple(tuple(r) for r in konst),
                          tuple(t_positions))
