"""Scalars: exact Gaussian rationals and the helpers that read them.

Algebra elements and the classification path hold Fraction and
GaussianRational entries.  Floating point appears only where group elements
are sampled, as numpy arrays (see elements.exp_float).  The helpers here
(`conj`, `re`, `im`, `abs2`, ...) work on exact scalars and on Python
integers, floats and complexes.
"""

from __future__ import annotations

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

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
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    # -- structure ----------------------------------------------------------

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def abs2(self):
        """|z|^2 as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

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
    """Hermitian pairing of row vectors: x y^dagger = sum_i x_i conj(y_i)."""
    if len(x) != len(y):
        raise ValueError("vector length mismatch")
    total = None
    for a, b in zip(x, y):
        term = a * conj(b)
        total = term if total is None else total + term
    return 0 if total is None else total


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def parse_rational(s) -> Fraction:
    if isinstance(s, str):
        return Fraction(s)
    if isinstance(s, Integral):
        return Fraction(s)
    if isinstance(s, float):
        return Fraction(s)
    raise TypeError(f"cannot parse rational from {s!r}")
