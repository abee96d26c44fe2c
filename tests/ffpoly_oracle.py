"""Square and multiply with schoolbook division, kept as the independent
oracle for the powers `sliceobs.ffpoly.factor` takes through a
`_reducer`; Euclid's algorithm by repeated `poly_divmod`, kept as the
oracle for `sliceobs.ffpoly.poly_gcd`; and the factorization that
raises to exponents by the former and takes gcds by the latter, kept as
the oracle for `sliceobs.ffpoly.factor`.

Every product is reduced by `poly_divmod` against the modulus as given
(not made monic).  The program reduces a packed product through the
packed rows x^(d+i) mod f, and its gcd reduces the dividend in place
against a monic divisor; of its arithmetic this route imports only
`mul`, `poly_divmod`, `sub`, `trim` and `monic`.

The factorization here takes h^s by `pow_mod` at each distinct-degree
step, and u^((s^d - 1)/2) by `pow_mod` for each Cantor-Zassenhaus draw,
after a gcd of u with f that the program does not take.  The program
takes h^s through the Frobenius map of each squarefree part, and each
Cantor-Zassenhaus power through the Frobenius map of the product being
split, which that split builds; it takes its gcds by the program's
loop.  A polynomial that reads the same both ways goes through the same
stages here as any other, while the program factors it through its
trace polynomial.  The squarefree stage (with the program's gcd) and
the seed are the program's; a draw may split a product at a different
factor here, but a factorization is unique, so the two routes must give
the same factorization, unit included.
"""

import random

from sliceobs import ffpoly
from sliceobs.ffpoly import monic, mul, poly_divmod, sub, trim


def poly_gcd(a, b, s):
    """The monic gcd of a and b over Z/s, one `poly_divmod` per step."""
    a, b = trim(a, s), trim(b, s)
    while b:
        _, r = poly_divmod(a, b, s)
        a, b = b, r
    return monic(a, s)


def pow_mod(base, e, modulus, s):
    """base^e reduced modulo the polynomial modulus, e >= 0."""
    _, result = poly_divmod([1], modulus, s)
    _, base = poly_divmod(base, modulus, s)
    while e:
        if e & 1:
            result = poly_divmod(mul(result, base, s), modulus, s)[1]
        base = poly_divmod(mul(base, base, s), modulus, s)[1]
        e >>= 1
    return result


def _distinct_degree(f, s):
    """(product of degree-d irreducibles, d) for squarefree monic f, d
    ascending, with h = x^(s^d) mod rest raised afresh at every step."""
    out = []
    h = [0, 1]
    d = 0
    rest = f
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = pow_mod(h, s, rest, s)
        g = poly_gcd(sub(h, [0, 1], s), rest, s)
        if len(g) > 1:
            out.append((g, d))
            rest = poly_divmod(rest, g, s)[0]
            h = poly_divmod(h, rest, s)[1]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _equal_degree_split(f, d, s, rng):
    """Cantor-Zassenhaus by the direct power u^((s^d - 1)/2) mod f."""
    if len(f) - 1 == d:
        return [f]
    e = (s ** d - 1) // 2
    for _ in range(ffpoly._SPLIT_TRIES):
        u = trim([rng.randrange(s) for _ in range(len(f) - 1)])
        if len(u) < 2:
            continue
        g = poly_gcd(u, f, s)
        if not 1 < len(g) < len(f):
            g = poly_gcd(sub(pow_mod(u, e, f, s), [1], s), f, s)
        if 1 < len(g) < len(f):
            rest = poly_divmod(f, g, s)[0]
            return (_equal_degree_split(g, d, s, rng)
                    + _equal_degree_split(rest, d, s, rng))
    raise ArithmeticError("no split")


def factor(a, s):
    """The factorization of a over Z/s (s an odd prime), as
    `sliceobs.ffpoly.FactorizationResult`."""
    a = trim(a, s)
    unit = a[-1]
    f = monic(a, s)
    rng = random.Random(ffpoly._SEED)
    found = {}
    if len(f) > 1:
        for sf, m in ffpoly._squarefree_parts(f, s):
            for prod, d in _distinct_degree(sf, s):
                for irr in _equal_degree_split(prod, d, s, rng):
                    key = tuple(irr)
                    found[key] = found.get(key, 0) + m
    factors = tuple(sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return ffpoly.FactorizationResult(modulus=s, unit=unit, factors=factors)
