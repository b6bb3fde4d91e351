"""Exact scalars for the two supported base fields.

Field tags are plain strings: ``"Q"`` (rationals, backed by
:class:`fractions.Fraction`) and ``"Qi"`` (Gaussian rationals a + b*i, backed
by :class:`GaussianRational`, one reduced integer triple (x, y, d) meaning
(x + y*i)/d).  Q(i) arithmetic is integer arithmetic plus one gcd; a
``Fraction`` is built only when a caller reads ``re`` or ``im``.

No floating point is accepted anywhere: :func:`coerce` takes ``int``,
``Fraction``, ``GaussianRational`` or text in the forms of
:func:`parse_scalar_text`, and raises :class:`ScalarError` for anything else.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Union

Q = "Q"
QI = "Qi"
FIELDS = (Q, QI)


class ScalarError(ValueError):
    """Bad scalar value or field mismatch."""


class GaussianRational:
    """(x + y*i) / d held as one reduced integer triple: d > 0 and
    gcd(x, y, d) = 1.  Treated as immutable.

    Each sum, difference, product and quotient is integer arithmetic on the
    triples followed by one gcd; an ``int`` or ``Fraction`` operand enters as
    its numerator and denominator and is never lifted to a Gaussian rational,
    so generic code (elimination, polynomial gcd, ...) runs unchanged over
    both fields.  ``re`` and ``im`` are read-only ``Fraction`` views; the
    triple is canonical, so ``==`` compares triples.  The parts given to the
    constructor must be ``int`` or ``Fraction``; anything else, a float, a
    ``Decimal`` or text included, raises :class:`ScalarError`.
    """

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re=0, im=0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise ScalarError(f"parts must be int or Fraction, got {type(part).__name__}")
        # Both parts are reduced, so their common denominator leaves no common factor.
        d = lcm(re.denominator, im.denominator)
        self._x = re.numerator * (d // re.denominator)
        self._y = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._y, self._d)

    def __add__(self, o):
        if type(o) is GaussianRational:
            if o._d == self._d:
                return _gauss(self._x + o._x, self._y + o._y, self._d)
            return _gauss(self._x * o._d + o._x * self._d,
                          self._y * o._d + o._y * self._d, self._d * o._d)
        if type(o) is int:  # x + o*d keeps gcd(x, y, d) = 1
            return _reduced(self._x + o * self._d, self._y, self._d)
        if isinstance(o, (int, Fraction)):
            p, q = o.numerator, o.denominator
            return _gauss(self._x * q + p * self._d, self._y * q, self._d * q)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is GaussianRational:
            if o._d == self._d:
                return _gauss(self._x - o._x, self._y - o._y, self._d)
            return _gauss(self._x * o._d - o._x * self._d,
                          self._y * o._d - o._y * self._d, self._d * o._d)
        if type(o) is int:
            return _reduced(self._x - o * self._d, self._y, self._d)
        if isinstance(o, (int, Fraction)):
            p, q = o.numerator, o.denominator
            return _gauss(self._x * q - p * self._d, self._y * q, self._d * q)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, (int, Fraction)):
            p, q = o.numerator, o.denominator
            return _gauss(p * self._d - self._x * q, -self._y * q, self._d * q)
        return NotImplemented

    def __mul__(self, o):
        if type(o) is GaussianRational:
            return _gauss(self._x * o._x - self._y * o._y,
                          self._x * o._y + self._y * o._x, self._d * o._d)
        if isinstance(o, (int, Fraction)):
            p, q = o.numerator, o.denominator
            return _gauss(self._x * p, self._y * p, self._d * q)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        # (x + yi)/d / ((u + vi)/e) = (x + yi)(u - vi) e / (d (u^2 + v^2))
        if type(o) is GaussianRational:
            u, v, e = o._x, o._y, o._d
        elif isinstance(o, (int, Fraction)):
            u, v, e = o.numerator, 0, o.denominator
        else:
            return NotImplemented
        n = u * u + v * v
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        x, y = self._x * e, self._y * e
        return _gauss(x * u + y * v, y * u - x * v, self._d * n)

    def __rtruediv__(self, o):
        # p/q / ((x + yi)/d) = p d (x - yi) / (q (x^2 + y^2))
        if not isinstance(o, (int, Fraction)):
            return NotImplemented
        n = self._x * self._x + self._y * self._y
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        pd = o.numerator * self._d
        return _gauss(pd * self._x, -pd * self._y, o.denominator * n)

    def __neg__(self):
        return _reduced(-self._x, -self._y, self._d)

    def __pos__(self):
        return self

    def __eq__(self, o):
        if type(o) is GaussianRational:
            return self._x == o._x and self._y == o._y and self._d == o._d
        if isinstance(o, (int, Fraction)):
            return self._y == 0 and self._x == o.numerator and self._d == o.denominator
        return NotImplemented

    def __hash__(self):
        # Agree with Fraction/int hashing when the value is real.
        if self._y == 0:
            return hash(self._x) if self._d == 1 else hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self._x or self._y)

    def conjugate(self):
        return _reduced(self._x, -self._y, self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        im_s = f"{im}i" if abs(im) != 1 else ("i" if im > 0 else "-i")
        if re == 0:
            return im_s
        sign = "+" if im > 0 else ""
        return f"{re}{sign}{im_s}"


_new = object.__new__


def _reduced(x: int, y: int, d: int) -> GaussianRational:
    """(x + y*i)/d from a triple that is already reduced, with no check."""
    z = _new(GaussianRational)
    z._x, z._y, z._d = x, y, d
    return z


def _parts(z) -> tuple:
    """An int, Fraction or GaussianRational as its triple (x, y, d)."""
    if type(z) is GaussianRational:
        return z._x, z._y, z._d
    return z.numerator, 0, z.denominator


def _gauss(x: int, y: int, d: int) -> GaussianRational:
    """(x + y*i)/d for ints with d > 0, reduced by one gcd."""
    g = gcd(x, y, d)
    if g != 1:
        x, y, d = x // g, y // g, d // g
    z = _new(GaussianRational)
    z._x, z._y, z._d = x, y, d
    return z


Scalar = Union[Fraction, GaussianRational]

I = GaussianRational(0, 1)

# zero() and one() hand out these shared constants; scalars are immutable.
_ZERO, _ONE = Fraction(0), Fraction(1)
_ZERO_I, _ONE_I = _reduced(0, 0, 1), _reduced(1, 0, 1)


def zero(field: str) -> Scalar:
    return _ZERO if field == Q else _ZERO_I


def one(field: str) -> Scalar:
    return _ONE if field == Q else _ONE_I


def coerce(field: str, value) -> Scalar:
    """``value`` in the given field, rejecting lossy conversions.

    Only exact types are accepted: ``int``, ``Fraction`` and
    ``GaussianRational`` (over Q with no imaginary part), plus text, which
    goes through :func:`parse_scalar_text`.  A value already in the field is
    returned as it is.
    """
    if field == Q:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if type(value) is GaussianRational:
            if value._y:
                raise ScalarError("field Q forbids nonzero imaginary parts")
            return value.re
    elif field == QI:
        if type(value) is GaussianRational:
            return value
        if isinstance(value, (int, Fraction)):
            return _reduced(value.numerator, 0, value.denominator)
    else:
        raise ScalarError(f"unknown field tag {field!r}")
    if isinstance(value, str):
        return parse_scalar_text(field, value)
    if isinstance(value, float):
        raise ScalarError("floating point is not allowed")
    raise ScalarError(f"scalars must be int, Fraction or GaussianRational, "
                      f"got {type(value).__name__}")


def coerce_vector(field: str, values) -> tuple:
    return tuple(coerce(field, v) for v in values)


_IMAG_RE = re.compile(
    r"""^(?P<re>[+-]?\d+(?:/\d+)?)?
         (?P<im>[+-](?:\d+(?:/\d+)?)?|(?:\d+(?:/\d+)?))?i$""",
    re.VERBOSE,
)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _strict_fraction(text: str) -> Fraction:
    """Parse "p/q" with integer p, q only; no decimals or exponents."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ScalarError(f"malformed rational {text!r} (want p or p/q)")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ScalarError(f"malformed rational {text!r} (zero denominator)") from exc


def parse_scalar_text(field: str, text: str) -> Scalar:
    """Parse "p/q" or, over Qi, forms like "1/2-1/3i", "i", "-2i"."""
    s = text.strip().replace(" ", "")
    if "i" not in s:
        return coerce(field, _strict_fraction(s))
    if field != QI:
        raise ScalarError(f"imaginary value {text!r} needs field Qi")
    m = _IMAG_RE.match(s)
    if not m:
        raise ScalarError(f"malformed Gaussian rational {text!r}")
    re_part = m.group("re")
    im_part = m.group("im")
    if im_part is None:
        # whole (possibly signed) coefficient belongs to i: "3i", "-1/2i", "i"
        im_part, re_part = re_part, None
        if im_part is None:
            im_part = "1"
    if im_part in ("+", "-", ""):
        im_part += "1"
    return GaussianRational(
        _strict_fraction(re_part) if re_part else 0,
        _strict_fraction(im_part.lstrip("+")),
    )


def scalar_to_json(field: str, value: Scalar):
    """Canonical JSON form: "p/q" over Q, {"re": ..., "im": ...} over Qi."""
    value = coerce(field, value)
    if field == Q:
        return str(value)
    return {"re": str(value.re), "im": str(value.im)}


def scalar_from_json(field: str, obj) -> Scalar:
    if isinstance(obj, str):
        return coerce(field, _strict_fraction(obj))
    if isinstance(obj, dict):
        if field != QI:
            raise ScalarError("re/im coefficient object requires field Qi")
        unknown = set(obj) - {"re", "im"}
        if unknown:
            raise ScalarError(f"unknown coefficient keys {sorted(unknown)}")
        return GaussianRational(
            _strict_fraction(obj.get("re", "0")),
            _strict_fraction(obj.get("im", "0")),
        )
    raise ScalarError(f"coefficient must be a string or re/im object, got {obj!r}")
