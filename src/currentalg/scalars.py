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

    Every operator reads its other operand as a triple through
    :func:`_parts`, which takes an ``int``, a ``Fraction`` or a Gaussian
    rational and answers ``NotImplemented`` for anything else, so generic
    code (elimination, polynomial gcd, ...) runs unchanged over both fields.
    ``+``, ``*``, ``/`` and ``==`` are one formula each on the two triples,
    the first three followed by one gcd; ``-`` and the reflected ``-`` and
    ``/`` go through them.  ``re`` and ``im`` are read-only ``Fraction``
    views; the triple is canonical, so ``==`` compares triples.  The parts
    given to the constructor must be ``int`` or ``Fraction``; anything else,
    a float, a ``Decimal`` or text included, raises :class:`ScalarError`.
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
        t = _parts(o)
        if t is None:
            return NotImplemented
        u, v, e = t
        return _gauss(self._x * e + u * self._d, self._y * e + v * self._d, self._d * e)

    __radd__ = __add__

    def __sub__(self, o):
        t = _parts(o)
        return NotImplemented if t is None else self.__add__(_reduced(-t[0], -t[1], t[2]))

    def __rsub__(self, o):
        return (-self).__add__(o)

    def __mul__(self, o):
        t = _parts(o)
        if t is None:
            return NotImplemented
        u, v, e = t
        return _gauss(self._x * u - self._y * v, self._x * v + self._y * u, self._d * e)

    __rmul__ = __mul__

    def __truediv__(self, o):
        # (x + yi)/d / ((u + vi)/e) = (x + yi)(u - vi) e / (d (u^2 + v^2))
        t = _parts(o)
        if t is None:
            return NotImplemented
        u, v, e = t
        n = u * u + v * v
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        x, y = self._x * e, self._y * e
        return _gauss(x * u + y * v, y * u - x * v, self._d * n)

    def __rtruediv__(self, o):
        t = _parts(o)
        return NotImplemented if t is None else _reduced(*t).__truediv__(self)

    def __neg__(self):
        return _reduced(-self._x, -self._y, self._d)

    def __pos__(self):
        return self

    def __eq__(self, o):
        t = _parts(o)
        return NotImplemented if t is None else (self._x, self._y, self._d) == t

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


def _parts(z):
    """The reduced triple (x, y, d) of an int, Fraction or GaussianRational, else None."""
    if type(z) is GaussianRational:
        return z._x, z._y, z._d
    if isinstance(z, (int, Fraction)):
        return z.numerator, 0, z.denominator
    return None


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
        t = _parts(value)
        if t is not None:
            return value if type(value) is GaussianRational else _reduced(*t)
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


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _strict_fraction(text: str) -> Fraction:
    """Parse "p/q" with integer p, q only; no decimals or exponents."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ScalarError(f"malformed rational {text!r} (want p or p/q)")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ScalarError(f"malformed rational {text!r} (zero denominator)") from exc
    except ValueError as exc:  # more digits than int() converts
        raise ScalarError(f"malformed rational: {exc}") from exc


def parse_scalar_text(field: str, text: str) -> Scalar:
    """Parse "p/q" or, over Qi, forms like "1/2-1/3i", "i", "-2i"."""
    s = text.strip().replace(" ", "")
    if "i" not in s:
        return coerce(field, _strict_fraction(s))
    if field != QI:
        raise ScalarError(f"imaginary value {text!r} needs field Qi")
    # "a+bi": drop the final character, which must be the i, and split at the
    # last sign that is not the first character; "i" alone or after a sign
    # is a unit coefficient.  An i left in either side fails _strict_fraction.
    body = s[:-1]
    k = max(body.rfind("+"), body.rfind("-"), 0)
    re_part, im_part = body[:k], body[k:]
    if im_part in ("", "+", "-"):
        im_part += "1"
    try:
        return GaussianRational(_strict_fraction(re_part) if re_part else 0,
                                _strict_fraction(im_part))
    except ScalarError:
        raise ScalarError(f"malformed Gaussian rational {text!r}") from None


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
