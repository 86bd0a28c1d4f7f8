"""Gaussian-rational scalars for the exact computation paths.

Every exact quantity in this package is either a `fractions.Fraction` or a
`CRat` (a complex number with Fraction real and imaginary parts).  Mixing a
`CRat` with a float or complex deliberately degrades to ordinary `complex`
arithmetic, which is how the float paths are fed: a coefficient is exact when it
is a `CRat`.  `_power` is the one integer power, of `CRat`s and of symbols alike,
and `read_rational` the one reader of exact number text.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction
from numbers import Rational


_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def read_rational(text: str) -> Fraction:
    """The Fraction of an exact number text: an optionally signed integer or "num/den"
    in ASCII digits with den > 0, the forms the program writes.  Anything else, and
    a part past int()'s digit limit, is a ValueError."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"{text!r} is not an integer or num/den with den > 0")
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and max(len(m[1].lstrip("+-")), len(m[2] or "")) > limit:
        raise ValueError(f"a number has a part of more than {limit} digits")
    return Fraction(int(m[1]), int(m[2] or 1))


def _is_rat(x) -> bool:
    return isinstance(x, Rational)


class CRat:
    """Complex number with exact rational real/imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        # parts that are exactly Fractions are kept as they are (they are
        # immutable); only others pay for the abc check and the conversion
        if type(re) is not Fraction or type(im) is not Fraction:
            if not (_is_rat(re) and _is_rat(im)):
                raise TypeError(f"CRat parts must be rational, got {re!r}, {im!r}")
            re, im = Fraction(re), Fraction(im)
        self.re = re
        self.im = im

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    # -- conversions --------------------------------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    # -- algebra ------------------------------------------------------------

    def conjugate(self) -> "CRat":
        return CRat(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|self|^2, exactly."""
        return self.re * self.re + self.im * self.im

    def __neg__(self) -> "CRat":
        return CRat(-self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, CRat):
            return CRat(self.re + other.re, self.im + other.im)
        if _is_rat(other):
            return CRat(self.re + other, self.im)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, CRat):
            return CRat(self.re - other.re, self.im - other.im)
        if _is_rat(other):
            return CRat(self.re - other, self.im)
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, CRat):
            return CRat(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)
        if _is_rat(other):
            return CRat(self.re * other, self.im * other)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_rat(other):
            return CRat(self.re / other, self.im / other)
        if isinstance(other, CRat):
            d = other.abs2()
            return (self * other.conjugate()) / d
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        d = self.abs2()
        inv = CRat(self.re / d, -self.im / d)
        return inv * other

    def __pow__(self, exponent: int):
        return _power(self, exponent, CRat(1))

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, CRat):
            return self.re == other.re and self.im == other.im
        if _is_rat(other):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        # Consistent with hash(int/Fraction) when the value is real.
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"CRat({self.re})"
        return f"CRat({self.re}, {self.im})"


CR_ZERO = CRat(0)


def as_coeff(value):
    """Coerce a scalar to a CRat when exactly possible, else to complex."""
    if isinstance(value, CRat):
        return value
    if _is_rat(value):
        return CRat(value)
    if isinstance(value, complex):
        return value
    if isinstance(value, float):
        return complex(value)
    raise TypeError(f"unsupported coefficient type: {type(value).__name__}")


def _power(base, exponent: int, one, product=operator.mul):
    """base^exponent by repeated squaring from the identity one: at most 2*exponent.bit_length() products."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("powers must be non-negative integers")
    out = one
    while exponent:
        if exponent & 1:
            out = product(out, base)
        exponent >>= 1
        if exponent:
            base = product(base, base)
    return out
