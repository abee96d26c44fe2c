"""Laurent polynomials with int or fractions.Fraction coefficients.

Values are immutable and eagerly normalized: zero coefficients are never
stored, so equality is structural.
"""

from fractions import Fraction

__all__ = ["LaurentPolynomial", "t", "one", "zero"]


def _is_scalar(x):
    return isinstance(x, (int, Fraction))


class LaurentPolynomial:
    """An element of Z[t, t^-1] or Q[t, t^-1] stored as a map
    exponent -> coefficient."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    clean[int(e)] = c
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    @staticmethod
    def constant(c):
        return LaurentPolynomial({0: c} if c else {})

    # -- structure ---------------------------------------------------------

    def items(self):
        return sorted(self._coeffs.items())

    @property
    def is_zero(self):
        return not self._coeffs

    @property
    def min_exp(self):
        return min(self._coeffs)

    @property
    def max_exp(self):
        return max(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __hash__(self):
        # a constant equals its scalar, so it hashes as that scalar
        c = self._coeffs
        return hash(c.get(0, 0) if c.keys() <= {0} else frozenset(c.items()))

    def __eq__(self, other):
        if _is_scalar(other):
            other = LaurentPolynomial.constant(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in reversed(self.items()):
            if e == 0:
                parts.append(f"{c!r}")
            elif e == 1:
                parts.append(f"{c!r}*t")
            else:
                parts.append(f"{c!r}*t^{e}")
        return " + ".join(parts)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if _is_scalar(other):
            other = LaurentPolynomial.constant(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        if _is_scalar(other):
            other = LaurentPolynomial.constant(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            return self.scale(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by t^k."""
        return LaurentPolynomial({e + k: c for e, c in self._coeffs.items()})

    def scale(self, c):
        return LaurentPolynomial({e: v * c for e, v in self._coeffs.items()})

    def aligned(self):
        """Shift so the minimum exponent is 0 (unit normalization by t^k)."""
        if not self._coeffs:
            return self
        return self.shift(-self.min_exp)

    # -- involution and evaluation ------------------------------------------

    def involution(self):
        """Send t^i to t^-i."""
        return LaurentPolynomial({-e: c for e, c in self._coeffs.items()})

    def __call__(self, x):
        """Evaluate at x; x must support ** with negative ints if needed."""
        if isinstance(x, int) and self._coeffs and self.min_exp < 0:
            x = Fraction(x)
        total = 0
        for e, c in self._coeffs.items():
            total = total + c * x ** e
        return total


def t(e=1, c=1):
    return LaurentPolynomial({e: c} if c else {})


def one():
    return LaurentPolynomial({0: 1})


def zero():
    return LaurentPolynomial({})
