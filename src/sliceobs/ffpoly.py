"""Dense polynomial arithmetic and factorization over prime fields.

Polynomials are ascending coefficient lists with entries reduced into
[0, s) and no trailing zeros; [] is the zero polynomial.  The prime s is
passed explicitly to every operation.  Multiplication is schoolbook;
packing coefficients into one big integer (Kronecker substitution)
serves products modulo a fixed polynomial f and the Frobenius map, both
by one primitive, a packed linear map: the sum of some coefficients
times packed rows of powers of x mod f, unpacked once.  A product mod f
(`_reducer`, one per modulus in each stage, which takes every product
and power of that stage) is one bignum multiply, then its high limbs,
reduced mod s, times the rows x^(d+i) mod f, with every limb below
(2d - 1) s^2 < 2 d s^2 for f of degree d; an image of the Frobenius map
takes the rows x^(i s) mod f.  `_pack` and `_unpack` split long lists
and integers by halves.

Factorization is one entry point, `factor`, which takes its route from
its input.  A polynomial p of degree >= 2 that reads the same both ways
is t^k q(t + 1/t), so q, of half the degree, is factored instead, and
each factor g of q lifts to t^e g(t + 1/t), one irreducible or a
reciprocal pair as one Legendre symbol mod s decides (Meyn, AAECC 1990).
Every other input goes through squarefree decomposition, then
distinct-degree splitting, then Cantor-Zassenhaus from a fixed seed with
a bounded number of tries, so results are deterministic.  The
distinct-degree loop goes through the Frobenius map h -> h^s of each
squarefree part, a linear map built once from one x^s (von zur Gathen
and Shoup, 1992), which `_power` takes, as it takes every other power,
by square and multiply through the reducer: the map takes x^(s^d) by
one application per step and one gcd per block of up to `_BLOCK` steps
(Shoup, 1995).  Each
equal-degree split (of a distinct-degree product, or of a reciprocal
pair) builds the reducer and the Frobenius map of the product it
splits, so a Cantor-Zassenhaus draw u takes
u^((s^d - 1)/2) = N(u)^((s - 1)/2) mod f, where
N(u) = u u^s ... u^(s^(d-1)) needs d - 1 applications, each already
reduced mod f, and the power only log2(s) squarings.
`is_irreducible` reads the first distinct-degree yield.
`norm_obstructed` is the whole norm test, odd totals included.
Nothing here interpolates: `twisted` reads its coefficients off values
at roots of unity by an inverse transform, and Newton interpolation at
arbitrary nodes lives with the dense oracle in the tests.
"""

import operator
import random
from dataclasses import dataclass

__all__ = [
    "FactorizationResult",
    "is_prime",
    "trim",
    "sub",
    "mul",
    "scalar_mul",
    "poly_divmod",
    "poly_gcd",
    "monic",
    "derivative",
    "factor",
    "is_irreducible",
    "degree_sequence",
    "primitive_root_of_unity",
    "norm_obstructed",
]


# Miller-Rabin to the first 13 prime bases is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    """Whether the integer n is prime, by deterministic Miller-Rabin to
    the bases `_MR_BASES`.  Exact for n < `_MR_BOUND` (about 3.3e24);
    a larger n, or one that is not an int, raises ValueError instead of
    answering."""
    if not isinstance(n, int):
        raise ValueError(f"primality is decided for integers only, not {n!r}")
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large: primality is decided only "
                         f"below {_MR_BOUND}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_BASES[-1] ** 2:
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- basic dense arithmetic ----------------------------------------------------


def trim(a, s=None):
    """Canonical form: reduce mod s when given, drop trailing zeros."""
    if s is not None:
        a = [c % s for c in a]
    else:
        a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def sub(a, b, s):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % s
    return trim(out)


def scalar_mul(c, a, s):
    c %= s
    if not c:
        return []
    return trim([c * x % s for x in a])


def mul(a, b, s):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return trim(out, s)


def _limb(k, s):
    """Bits per packed coefficient when the shorter factor has k
    coefficients in [0, s): a product coefficient is a sum of at most k
    terms below s^2, so it fits, with no carry into the next limb."""
    return (k * (s - 1) * (s - 1)).bit_length() + 1


# Lengths up to which `_pack` and `_unpack` run one shift per limb;
# above it they split the list, or the integer, into halves.
_LEAF = 32


def _pack(a, limb):
    """The integer sum of a[i] 2^(limb i) (Kronecker substitution), for
    entries in [0, 2^limb).  A long list is packed as two halves, so the
    shifts grow by halving instead of one limb per entry."""
    if len(a) > _LEAF:
        half = len(a) // 2
        return _pack(a[:half], limb) | _pack(a[half:], limb) << half * limb
    packed = 0
    for c in reversed(a):
        packed = (packed << limb) | c
    return packed


def _unpack(packed, limb, count, s):
    """The first count limbs of a packed integer, each reduced mod s.
    A long unpacking splits the integer at the middle limb, as `_pack`
    joins it."""
    if count > _LEAF:
        half = count // 2
        cut = half * limb
        return (_unpack(packed & ((1 << cut) - 1), limb, half, s)
                + _unpack(packed >> cut, limb, count - half, s))
    mask = (1 << limb) - 1
    out = []
    for _ in range(count):
        out.append((packed & mask) % s)
        packed >>= limb
    return out


def poly_divmod(a, b, s):
    b = trim(b, s)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = trim(a, s)
    if len(r) < len(b):
        return [], r
    q = [0] * (len(r) - len(b) + 1)
    inv = pow(b[-1], -1, s)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + len(b) - 1] * inv % s
        q[i] = c
        if c:
            for j, bc in enumerate(b):
                r[i + j] = (r[i + j] - c * bc) % s
    return trim(q), trim(r[:len(b) - 1])


def poly_gcd(a, b, s):
    """The monic gcd of a and b over Z/s (s prime); [] when both are 0.

    One Euclid loop over reduced lists: each step makes the divisor b
    monic once, then reduces the dividend a in place, one slice update
    per quotient coefficient from the top down, and cuts it to its
    remainder."""
    a, b = trim(a, s), trim(b, s)
    while b:
        if b[-1] != 1:
            inv = pow(b[-1], -1, s)
            b = [c * inv % s for c in b]
        db = len(b) - 1
        for top in range(len(a) - 1, db - 1, -1):
            c = a[top]
            if c:
                low = top - db
                a[low:top] = [(x - c * y) % s
                              for x, y in zip(a[low:top], b)]
        del a[db:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return monic(a, s)


def monic(a, s):
    a = trim(a, s)
    if not a or a[-1] == 1:
        return a
    return scalar_mul(pow(a[-1], -1, s), a, s)


def _times_x(h, xd, s):
    """x h mod f, for h reduced mod a monic f of degree d = len(xd) and
    xd = x^d mod f as a list of d coefficients: a shift, and when it
    reaches degree d, the top coefficient times xd folded in."""
    h = [0] + h
    if len(h) > len(xd):
        top = h.pop()
        h = [(a + top * b) % s for a, b in zip(h, xd)]
    return trim(h)


def _reducer(f, s):
    """The product x y mod f, for a monic modulus f of degree d and x, y
    already reduced mod f, by the packed rows R_i = x^(d+i) mod f,
    i < d - 1, built here once per modulus: R_0 = x^d mod f is
    -(f_0 .. f_(d-1)), and each next row is `_times_x` of the last.

    A product a of degree at most 2d - 2 is a_low + sum_i a_(d+i) x^(d+i)
    with deg a_low < d, so it is congruent to a_low + sum_i a_(d+i) R_i,
    of degree < d: the remainder, with no quotient formed.  Packed, the
    count - d high limbs of a are unpacked and reduced mod s, and the
    remainder is the low d limbs of a plus the big-integer sum of those
    residues times the packed rows, unpacked once.

    No limb carries into the next when a limb holds (2d - 1) s^2: a limb
    of a is a sum of at most d terms below s^2, and the d - 1 row terms
    of a remainder limb are each below s^2 too.  So the limb is the
    `_limb` of 2d - 1 terms, about bits(2 d s^2) + 1.
    """
    d = len(f) - 1
    limb = _limb(2 * d - 1, s)
    shift = d * limb
    low = (1 << shift) - 1
    row = xd = [-c % s for c in f[:-1]]
    rows = []
    for _ in range(d - 1):
        rows.append(_pack(row, limb))
        row = _times_x(row, xd, s)

    def mulmod(x, y):
        if not x or not y:
            return []
        px = _pack(x, limb)
        a = px * px if x is y else px * _pack(y, limb)
        count = len(x) + len(y) - 1
        if count > d:
            high = _unpack(a >> shift, limb, count - d, s)
            a = (a & low) + sum(map(operator.mul, high, rows))
            count = d
        return trim(_unpack(a, limb, count, s))

    return mulmod


def _power(result, base, e, mulmod):
    """result * base^e, e >= 0, by square and multiply, each product
    reduced by `mulmod`, the `_reducer` of a modulus that result and
    base are already reduced by.  It is the one exponentiation here:
    the x^s of each Frobenius map and the power (s - 1)/2 of each
    Cantor-Zassenhaus draw go through the reducer their stage holds."""
    while e:
        if e & 1:
            result = mulmod(result, base)
        e >>= 1
        if e:
            base = mulmod(base, base)
    return result


def _frobenius(f, s, mulmod):
    """The Frobenius map h -> h^s mod f, for a monic f of degree d >= 1,
    as a function of h reduced mod f, given `mulmod`, the `_reducer` of
    f, which the caller may use for its own products mod f.

    In characteristic s the map c -> c^s fixes Z/s and is additive, so
    h^s = sum h_i x^(i s): the map is linear, with rows x^(i s) mod f
    for i < d.  The rows are built here, x^s by `_power` from x, which
    is already reduced for d >= 2, and then d - 2 products through
    `mulmod` (at d = 1 the one row is 1, and no x^s is taken), and kept
    packed at the `_limb` bound of d terms; an image is then the
    big-integer sum of h_i times row i, unpacked once.  This is the
    packed linear map that `_reducer` applies to the high limbs of a
    product, with other rows.  So a step of the distinct-degree loop, or
    an image in a Cantor-Zassenhaus norm, costs one sum of d scalar
    multiples instead of the log2(s) squarings of h^s.
    """
    d = len(f) - 1
    limb = _limb(d, s)
    rows = [1]
    if d > 1:
        row = xs = _power([1], [0, 1], s, mulmod)
        rows.append(_pack(xs, limb))
        for _ in range(d - 2):
            row = mulmod(row, xs)
            rows.append(_pack(row, limb))

    def frobenius(h):
        return trim(_unpack(sum(map(operator.mul, h, rows)), limb, d, s))

    return frobenius


def derivative(a, s):
    return trim([i * c % s for i, c in enumerate(a)][1:])


# -- factorization -------------------------------------------------------------


@dataclass(frozen=True)
class FactorizationResult:
    """unit * prod(poly^mult) over Z/s; factors are monic, sorted by
    degree then coefficients, multiplicities kept separate."""
    modulus: int
    unit: int
    factors: tuple

    def expanded(self):
        """Each irreducible factor repeated to its multiplicity."""
        out = []
        for poly, m in self.factors:
            out.extend([list(poly)] * m)
        return out

    def product(self):
        s = self.modulus
        acc = [self.unit % s]
        for poly, m in self.factors:
            for _ in range(m):
                acc = mul(acc, list(poly), s)
        return acc


def _sth_root(a, s):
    """s-th root of a polynomial in t^s over Z/s (Frobenius fixes Z/s)."""
    if any(c for i, c in enumerate(a) if i % s):
        raise ArithmeticError("polynomial is not a polynomial in t^s")
    return a[::s]


def _squarefree_parts(f, s):
    """Yield (squarefree factor, multiplicity) pairs with product f
    (f monic, nonconstant)."""
    d = derivative(f, s)
    if not d:
        for g, m in _squarefree_parts(_sth_root(f, s), s):
            yield g, m * s
        return
    g0 = poly_gcd(f, d, s)
    w = poly_divmod(f, g0, s)[0]
    m = 1
    while len(w) > 1:
        y = poly_gcd(w, g0, s)
        part = poly_divmod(w, y, s)[0]
        if len(part) > 1:
            yield part, m
        w = y
        g0 = poly_divmod(g0, y, s)[0]
        m += 1
    if len(g0) > 1:
        # g0 is an s-th power (its derivative is 0), so the call takes
        # the s-th root and scales the multiplicities by s itself
        yield from _squarefree_parts(g0, s)


# Steps of the distinct-degree loop per gcd: a block costs one product
# mod sf per step and saves the gcds of its steps.  Blocks of 4, 8, 16
# and 32 steps factored the two polynomials of obstruct(101, s=607,
# theta=454) in 0.36, 0.32, 0.29 and 0.26 s, the 120 sweep inputs of
# perfbench seeds 1-5 (degrees 18 and 30) in 0.30, 0.35, 0.36 and
# 0.35 s, and the 8 table inputs in 0.029, 0.026, 0.030 and 0.032 s
# (medians of 7-9 interleaved runs, Python 3.11, in process); no size
# wins at every degree, and 8 is never far from the best.
_BLOCK = 8


def _distinct_degree(f, s):
    """Yield (product of degree-d irreducibles, d) for squarefree monic f,
    d ascending, through the `_reducer` of f and the Frobenius map of f,
    both built here.

    The degree-d irreducibles of f divide h_d - x, h_d = x^(s^d), and
    those of degree e > d do not (von zur Gathen and Shoup, 1992).  The
    loop takes the images h_d in blocks of up to `_BLOCK` consecutive
    steps, one map application each, multiplies the h_d - x of a block
    through `mulmod`, and takes one gcd of that product with rest, the
    part of f not yet yielded: with every smaller degree gone from rest,
    it is the product of the factors whose degrees lie in the block
    (Shoup, 1995).  Only a block whose gcd is nontrivial is refined, by
    one gcd of h_d - x per step in ascending d; rest divides f, the
    map's modulus, so these gcds are the ones taken modulo rest.  Once rest
    has no factor of degree <= d and degree below 2(d + 1), it is
    irreducible, and it is yielded as it is; so no block runs past the
    last d with 2d <= deg rest.
    """
    mulmod = _reducer(f, s)
    frobenius = _frobenius(f, s, mulmod)
    h = [0, 1]  # x
    d = 0
    rest = f
    while len(rest) - 1 >= 2 * (d + 1):
        images = []
        product = [1]
        for _ in range(min(_BLOCK, (len(rest) - 1) // 2 - d)):
            h = frobenius(h)
            images.append(sub(h, [0, 1], s))
            product = mulmod(product, images[-1])
        block = poly_gcd(product, rest, s)
        for image in images:
            d += 1
            if len(block) > 1 and len(rest) - 1 >= 2 * d:
                g = poly_gcd(image, block, s)
                if len(g) > 1:
                    yield g, d
                    rest = poly_divmod(rest, g, s)[0]
                    block = poly_divmod(block, g, s)[0]
    if len(rest) > 1:
        yield rest, len(rest) - 1


# Cantor-Zassenhaus draws from a generator seeded with _SEED, so factor is
# deterministic.  A random u splits f with probability about 1/2 or more,
# so _SPLIT_TRIES failed draws mean the arithmetic is wrong, not unlucky.
_SEED = 2026
_SPLIT_TRIES = 64


def _equal_degree_split(f, d, s, rng):
    """Cantor-Zassenhaus: split monic squarefree f whose irreducible
    factors all have degree d; ArithmeticError after _SPLIT_TRIES draws
    that do not split it.

    A draw u splits f by gcd(u^((s^d - 1)/2) - 1, f).  Since
    (s^d - 1)/2 = (1 + s + ... + s^(d-1)) (s - 1)/2, that power is
    N(u)^((s - 1)/2) mod f exactly, with the norm
    N(u) = u u^s ... u^(s^(d-1)) mod f.  Its d - 1 images come from the
    Frobenius map of f itself, built here when d > 1, so each is already
    reduced mod f, and the remaining power has an exponent of log2(s)
    bits, not d log2(s).  The products and the power of every draw go
    through one reducer for f, also built here; each of the two parts
    of a split builds its own.  The draws and the gcds are those of the
    direct power, so the factors are too.
    """
    if len(f) - 1 == d:
        return [f]
    mulmod = _reducer(f, s)
    frobenius = _frobenius(f, s, mulmod) if d > 1 else None
    for _ in range(_SPLIT_TRIES):
        u = trim([rng.randrange(s) for _ in range(len(f) - 1)])
        if len(u) < 2:
            continue
        norm = image = u
        for _ in range(d - 1):
            image = frobenius(image)
            norm = mulmod(norm, image)
        power = _power([1], norm, (s - 1) // 2, mulmod)
        g = poly_gcd(sub(power, [1], s), f, s)
        if 1 < len(g) < len(f):
            rest = poly_divmod(f, g, s)[0]
            return (_equal_degree_split(g, d, s, rng)
                    + _equal_degree_split(rest, d, s, rng))
    raise ArithmeticError(
        f"Cantor-Zassenhaus found no split of a degree-{len(f) - 1} "
        f"product of degree-{d} factors mod {s} in {_SPLIT_TRIES} tries")


def _check_coefficients(a):
    """ValueError naming the first coefficient of a that is not an int."""
    for c in a:
        if not isinstance(c, int):
            raise ValueError(f"a coefficient must be an integer, not {c!r}")


def _trace_polynomial(p, s):
    """The q of degree k with p = t^k q(t + 1/t), for p of degree 2k that
    reads the same both ways; ArithmeticError if a division leaves more
    than its remainder.

    t^-k p is q(z), z = t + 1/t, and q(z) = z q'(z) + q(0), so k
    divisions by z give the coefficients of q from the bottom, as
    Horner's rule run backwards.  In t one division of p of degree 2m is
    p = (t^2 + 1) p' + r t^m, with p' of degree 2m - 2 reading the same
    both ways: its upper half comes from the top, p'_e = p_(e+2) -
    p'_(e+2), its lower half is the mirror, and p - (t^2 + 1) p' must be
    r t^m exactly.
    """
    q = []
    while len(p) > 1:
        m = (len(p) - 1) // 2
        top = [0] * (2 * m + 1)  # p', two zeros past its top
        for e in range(2 * m - 2, m - 2, -1):
            top[e] = (p[e + 2] - top[e + 2]) % s
        top[:m - 1] = top[2 * m - 2:m - 1:-1]
        rest = [(c - a - b) % s for c, a, b in zip(p, top, [0, 0] + top)]
        r = rest[m]
        rest[m] = 0
        if any(rest):
            raise ArithmeticError("the polynomial is not t^k q(t + 1/t)")
        q.append(r)
        p = top[:-2]
    return q + p


def _lift(g, s):
    """t^e g(t + 1/t) for g of degree e: Horner's rule in z, where
    P_(i+1) = (t^2 + 1) P_i + g_(e-i-1) t^(i+1) from P_0 = g_e."""
    e = len(g) - 1
    lift = [g[e]]
    for i in range(e):
        lift = [(a + b) % s for a, b in zip(lift + [0, 0], [0, 0] + lift)]
        lift[i + 1] = (lift[i + 1] + g[e - i - 1]) % s
    return lift


def _at(g, x, s):
    """g(x) mod s, by Horner's rule."""
    value = 0
    for c in reversed(g):
        value = (value * x + c) % s
    return value


def factor(a, s):
    """Full factorization over Z/s (s an odd prime) into monic
    irreducibles with multiplicity, plus the leading unit.  Integer
    coefficients only, else ValueError; ArithmeticError when the
    factors do not multiply back.

    A polynomial of degree >= 2 that reads the same both ways
    (t^deg a(1/t) = a) goes through its trace polynomial of half the
    degree (Meyn, AAECC 1990).  An odd degree has the root -1, which is
    taken out first.  Then a = t^k q(t + 1/t) (`_trace_polynomial`), and
    `factor` factors q, by this same choice of route.  Each irreducible
    g of degree e and multiplicity m lifts to L = t^e g(t + 1/t): for
    g = z - 2 and z + 2 that is (t - 1)^2 and (t + 1)^2, multiplicity
    2m.  Otherwise a root u of L has u + 1/u = w, a root of g, so L is
    irreducible exactly when z^2 - 4 is not a square in GF(s)[z]/g,
    where w lives; that holds exactly when its norm to GF(s),
    g(2) g(-2), is not a square mod s, which one Legendre symbol
    decides.  If it is a square, L is a pair of reciprocal irreducibles
    of degree e, split by `_equal_degree_split`.

    Every other input goes through the squarefree, distinct-degree and
    equal-degree stages.
    """
    if not (is_prime(s) and s > 2):
        raise ValueError(f"factor needs an odd prime modulus, not s={s}")
    _check_coefficients(a)
    a = trim(a, s)
    if not a:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(_SEED)
    found = {}

    def add(irreducibles, m):
        for irr in irreducibles:
            key = tuple(irr)
            found[key] = found.get(key, 0) + m

    if len(a) > 2 and a == a[::-1]:
        p = a
        if len(p) % 2 == 0:
            p = poly_divmod(p, [1, 1], s)[0]
            add([[1, 1]], 1)
        for g, m in factor(_trace_polynomial(p, s), s).factors:
            norm = _at(g, 2, s) * _at(g, -2, s) % s
            if not norm:
                add([[1, 1] if g == (2, 1) else [s - 1, 1]], 2 * m)
            elif pow(norm, (s - 1) // 2, s) != 1:
                add([_lift(g, s)], m)
            else:
                add(_equal_degree_split(_lift(g, s), len(g) - 1, s, rng), m)
    elif len(a) > 1:
        for sf, m in _squarefree_parts(monic(a, s), s):
            for prod, d in _distinct_degree(sf, s):
                add(_equal_degree_split(prod, d, s, rng), m)
    factors = tuple(sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0])))
    result = FactorizationResult(modulus=s, unit=a[-1], factors=factors)
    if result.product() != a:
        raise ArithmeticError("factorization does not multiply back")
    return result


def is_irreducible(f, s):
    """Irreducibility over Z/s (s a prime): f is squarefree and the first
    distinct-degree step yields f itself, which stops at the first
    factor of low degree.  Integer coefficients only, else ValueError."""
    if not is_prime(s):
        raise ValueError(f"is_irreducible needs a prime modulus, not s={s}")
    _check_coefficients(f)
    f = monic(f, s)
    if len(f) < 2:
        return False
    if poly_gcd(f, derivative(f, s), s) != [1]:
        return False
    return next(_distinct_degree(f, s)) == (f, len(f) - 1)


def degree_sequence(fact):
    """Sorted degrees, with multiplicity, of a `FactorizationResult`."""
    degs = []
    for poly, m in fact.factors:
        degs.extend([len(poly) - 1] * m)
    return sorted(degs)


# -- roots of unity and the degree obstruction ---------------------------------


def primitive_root_of_unity(s, d, theta=None):
    """An element of order exactly d in Z/s (d prime, d | s-1).  A supplied
    candidate must be one, in [0, s); it is returned as given.  Each
    argument given must be an int."""
    for name, x in (("s", s), ("d", d), ("theta", theta)):
        if x is not None and not isinstance(x, int):
            raise ValueError(f"{name} must be an integer, not {x!r}")
    if not is_prime(s):
        raise ValueError(f"s={s} is not prime")
    if not is_prime(d):
        raise ValueError(f"d={d} is not prime")
    if (s - 1) % d:
        raise ValueError(f"no {d}-th roots of unity mod {s}")
    if theta is not None:
        given, theta = theta, theta % s
        if theta == 1 or pow(theta, d, s) != 1:
            name = given if given == theta else f"{given} ({theta} mod {s})"
            raise ValueError(f"{name} does not have order {d} mod {s}")
        if given != theta:
            raise ValueError(f"theta={given} is outside [0, {s}); its "
                             f"residue mod {s} is {theta}")
        return theta
    for h in range(2, s):
        cand = pow(h, (s - 1) // d, s)
        if cand != 1:
            return cand
    raise AssertionError("unreachable for valid s, d")


def norm_obstructed(degrees):
    """True when irreducible factors of these degrees cannot make a norm
    f(t) * f(1/t) (up to units).

    A norm has even degree, and its factors split into two halves of
    equal degree.  So an odd total, or a half-sum no sub-multiset of the
    degrees reaches, rules it out.  Subset sums are swept with a bitset.
    A degree that is not an int at least 0 raises ValueError.
    """
    for d in degrees:
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise ValueError(
                f"a degree must be an integer at least 0, not {d!r}")
    total = sum(degrees)
    if total % 2:
        return True
    mask = 1
    for d in degrees:
        mask |= mask << d
    return not (mask >> total // 2) & 1
