"""Square and multiply with schoolbook division, kept as the independent
oracle for `sliceobs.ffpoly.pow_mod`.

Every product is reduced by `poly_divmod` against the modulus as given
(not made monic).  The program reduces by Barrett's method on packed
integers; this route shares only `mul` and `poly_divmod` with it.
"""

from sliceobs.ffpoly import mul, poly_divmod


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
