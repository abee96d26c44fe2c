"""Laurent polynomials over Z.

Values are immutable and eagerly normalized: zero coefficients are never
stored, so equality is structural.  The class offers what the program
uses of Z[t, t^-1]: the constant, sum, difference, negation and product,
with ints mixed in as constants; the shift by t^k, the product by an
int, alignment to exponent 0 and the involution t -> t^-1; the minimum
exponent and the sorted terms.  Evaluation lives with the determinant
oracle in `tests/laurent_oracle.py`.
"""

__all__ = ["LaurentPolynomial"]


class LaurentPolynomial:
    """An element of Z[t, t^-1] stored as a map exponent -> coefficient.
    An exponent or a coefficient that is not an int, or is a bool, raises
    ValueError."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(e, int) or isinstance(e, bool):
                    raise ValueError(
                        f"an exponent must be an integer, not {e!r}")
                if not isinstance(c, int) or isinstance(c, bool):
                    raise ValueError(
                        f"a coefficient must be an integer, not {c!r}")
                if c:
                    clean[e] = c
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    @staticmethod
    def constant(c):
        return LaurentPolynomial({0: c})

    # -- structure ---------------------------------------------------------

    def items(self):
        return sorted(self._coeffs.items())

    @property
    def min_exp(self):
        return min(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __hash__(self):
        # a constant equals its scalar, so it hashes as that scalar
        c = self._coeffs
        return hash(c.get(0, 0) if c.keys() <= {0} else frozenset(c.items()))

    def __eq__(self, other):
        if isinstance(other, int):
            # compared as a constant, not built as one, so a bool answers
            return self._coeffs == ({0: other} if other else {})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        powers = {0: "", 1: "*t"}
        return " + ".join(f"{c!r}" + powers.get(e, f"*t^{e}")
                          for e, c in reversed(self.items())) or "0"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
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
        if not isinstance(other, (int, LaurentPolynomial)):
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        if isinstance(other, int):
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
        """Multiply by the int c."""
        return LaurentPolynomial({e: v * c for e, v in self._coeffs.items()})

    def aligned(self):
        """Shift so the minimum exponent is 0 (unit normalization by t^k)."""
        if not self._coeffs:
            return self
        return self.shift(-self.min_exp)

    def involution(self):
        """Send t^i to t^-i."""
        return LaurentPolynomial({-e: c for e, c in self._coeffs.items()})
