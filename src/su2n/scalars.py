"""Scalars: exact Gaussian rationals and the helpers that read them.

Algebra elements and the classification path hold Fraction and
GaussianRational entries.  Floating point appears only where group elements
are sampled, as numpy arrays in `lab` (lab.float_line checks N D = D N
and N^5 = 0 once per line, at build).  The helpers here
(`conj`, `re`, `im`, `abs2`, ...) work on exact scalars and on Python
integers, floats and complexes.

The exact kernels skip work that cannot change an exact value.  `ZERO` is
the one shared exact zero, which every zero entry of the exact matrices of
`elements` is: `==` returns True at once on an object and itself, and
`a - ZERO` returns `a`.  A product with an `int` or `Fraction` scales the
real and imaginary parts directly, a `QQi x QQi` product leaves out the
multiplies of a zero real or imaginary part, `QQi +- QQi` and `QQi == QQi`
skip the coercion of the other operand, `==` compares each pair of parts by
identity, then by integer ratio (not through Fraction.__eq__), results are
built without re-checking that their parts are Fractions, and `herm` skips
the pairs with an exact-zero factor, as the matrix products of `elements`
skip their zero terms.  Each result is the exact value, and type, of the
dense formula.  The exact kernels of `elements` (bracket, matrix product,
series and closed-form exponential, the Delta formula, det) run on integers
and build Fractions only at the output, one per nonzero part.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if other is ZERO:
            return self
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if isinstance(other, (int, Fraction)):
                return _make(self.re * other, self.im * other)
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # (a + bi)(c + di), without the products of a zero part
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            return _make(a * c, a * d)
        if not d:
            return _make(a * c, b * c)
        if not a:
            return _make(-(b * d), b * c)
        if not c:
            return _make(-(b * d), a * d)
        return _make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __pos__(self):
        return self

    # -- structure ----------------------------------------------------------

    def conjugate(self):
        return _make(self.re, -self.im)

    def abs2(self):
        """|z|^2 as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # a Fraction is held reduced, so equal parts have equal integer ratios
        a, b, c, d = self.re, other.re, self.im, other.im
        return ((a is b or a.as_integer_ratio() == b.as_integer_ratio())
                and (c is d or c.as_integer_ratio() == d.as_integer_ratio()))

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if not self.im:
            return f"QQi({self.re})"
        return f"QQi({self.re}, {self.im})"


QQi = GaussianRational


def _make(re, im):
    """The GaussianRational re + i im from two Fractions, without the type
    checks of `__init__`: for results whose parts are Fractions already."""
    z = object.__new__(GaussianRational)
    z.re = re
    z.im = im
    return z


# The one shared exact zero: every zero entry of the exact matrices of
# `elements` is this object, so `==` on two of them and `- ZERO` return at
# once, with the value and type of the full computation.
ZERO = _make(Fraction(0), Fraction(0))


def _coerce(v):
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (Integral, Fraction)):
        return GaussianRational(Fraction(v), Fraction(0))
    return NotImplemented


# -- helpers on exact and Python scalars -------------------------------------

def as_exact_real(v) -> Fraction:
    """Coerce to an exact Fraction, rejecting anything with imaginary part."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, GaussianRational):
        if v.im != 0:
            raise ValueError(f"expected real scalar, got {v!r}")
        return v.re
    if isinstance(v, Integral):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v)  # exact binary value
    raise TypeError(f"cannot coerce {v!r} to exact real")


def as_exact_complex(v) -> GaussianRational:
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (Integral, Fraction)):
        return GaussianRational(Fraction(v), Fraction(0))
    if isinstance(v, complex):
        return GaussianRational(Fraction(v.real), Fraction(v.imag))
    if isinstance(v, float):
        return GaussianRational(Fraction(v), Fraction(0))
    if isinstance(v, tuple) and len(v) == 2:
        return GaussianRational(Fraction(v[0]), Fraction(v[1]))
    raise TypeError(f"cannot coerce {v!r} to GaussianRational")


def conj(v):
    if isinstance(v, (GaussianRational, complex)):
        return v.conjugate()
    return v  # real types are self-conjugate


def re(v):
    if isinstance(v, GaussianRational):
        return v.re
    if isinstance(v, complex):
        return v.real
    return v


def im(v):
    if isinstance(v, GaussianRational):
        return v.im
    if isinstance(v, complex):
        return v.imag
    if isinstance(v, (Fraction, Integral)):
        return Fraction(0)
    return 0.0


def abs2(v):
    if isinstance(v, GaussianRational):
        return v.abs2()
    if isinstance(v, complex):
        return v.real * v.real + v.imag * v.imag
    return v * v


def herm(x, y):
    """Hermitian pairing of row vectors: x y^dagger = sum_i x_i conj(y_i).

    Pairs with an exact-zero factor are skipped: the x and y slots of an
    algebra element are mostly zero.  On vectors of one scalar type the
    result equals the dense sum of the terms, in value and type: with no
    nonzero pair it is the first term, and 0 for empty vectors.
    """
    if len(x) != len(y):
        raise ValueError("vector length mismatch")
    total = None
    for a, b in zip(x, y):
        if a and b:
            term = a * conj(b)
            total = term if total is None else total + term
    if total is None:
        return x[0] * conj(y[0]) if x else 0
    return total


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _is_digits(s) -> bool:
    return s.isdigit() and s.isascii()


# The Fraction that parse_rational returns for every exact zero it reads:
# most scalars of a spec file are "0".
_ZERO_Q = Fraction(0)


def parse_rational(s) -> Fraction:
    """The exact rational of an int, a finite float (its binary value) or a
    string.

    A string as format_rational writes it, "-?digits" or "-?digits/digits"
    in ASCII, is read as Fraction(int) or Fraction(int, int), with no regex;
    any other string goes to Fraction(s), so the other strings accepted are
    Fraction's.  "0" and the int 0 give one shared Fraction(0).  A zero
    denominator, an infinite or NaN float and a bool (JSON true and false)
    raise ValueError; a value of any other type raises TypeError.
    """
    if isinstance(s, str):
        if s == "0":
            return _ZERO_Q
        num, slash, den = s.partition("/")
        if _is_digits(num.removeprefix("-")) and not slash:
            return Fraction(int(num))
        try:
            if _is_digits(num.removeprefix("-")) and _is_digits(den):
                return Fraction(int(num), int(den))
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None
    if isinstance(s, bool):
        raise ValueError(f"not a rational: {s!r}")
    if isinstance(s, Integral):
        return Fraction(s) if s else _ZERO_Q
    if isinstance(s, float):
        if not math.isfinite(s):
            raise ValueError(f"not a finite rational: {s!r}")
        return Fraction(s)
    raise TypeError(f"cannot parse rational from {s!r}")
