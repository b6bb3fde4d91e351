import operator
import re
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from currentalg import GaussianRational, Q, QI, ScalarError
from currentalg import scalars

from conftest import gaussian_pair_oracle


def test_gaussian_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    b = GaussianRational(2, -1)
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(-2, 3))
    assert a * b == GaussianRational(Fraction(4, 3), Fraction(1, 6))
    assert (a * b) / b == a
    assert -a == GaussianRational(Fraction(-1, 2), Fraction(-1, 3))
    assert (a - a) == 0


def test_gaussian_interop_with_fraction_and_int():
    i = GaussianRational(0, 1)
    assert i * i == -1
    assert 1 + i == GaussianRational(1, 1)
    assert Fraction(1, 2) * i == GaussianRational(0, Fraction(1, 2))
    assert 1 / i == -i
    assert hash(GaussianRational(Fraction(3, 4), 0)) == hash(Fraction(3, 4))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_floats_rejected_everywhere():
    with pytest.raises(ScalarError):
        GaussianRational(0.5)
    with pytest.raises(ScalarError):
        scalars.coerce(Q, 0.5)
    for value in ("1e-3", "0.5", Decimal("0.1")):
        with pytest.raises(ScalarError):
            scalars.coerce(Q, value)
        with pytest.raises(ScalarError):
            GaussianRational(value)
        with pytest.raises(ScalarError):
            GaussianRational(0, value)


def test_coerce_field_rules():
    assert scalars.coerce(Q, 3) == Fraction(3)
    assert scalars.coerce(Q, GaussianRational(2, 0)) == Fraction(2)
    with pytest.raises(ScalarError):
        scalars.coerce(Q, GaussianRational(0, 1))
    assert scalars.coerce(QI, Fraction(1, 2)) == GaussianRational(Fraction(1, 2))


@pytest.mark.parametrize("text,expected", [
    ("3", GaussianRational(3)),
    ("-1/2", GaussianRational(Fraction(-1, 2))),
    ("i", GaussianRational(0, 1)),
    ("-i", GaussianRational(0, -1)),
    ("2i", GaussianRational(0, 2)),
    ("1/2i", GaussianRational(0, Fraction(1, 2))),
    ("1+2i", GaussianRational(1, 2)),
    ("1/2-1/3i", GaussianRational(Fraction(1, 2), Fraction(-1, 3))),
])
def test_parse_scalar_text_qi(text, expected):
    assert scalars.parse_scalar_text(QI, text) == expected


def test_parse_scalar_text_errors():
    with pytest.raises(ScalarError):
        scalars.parse_scalar_text(Q, "i")
    with pytest.raises(ScalarError):
        scalars.parse_scalar_text(Q, "1.5")
    with pytest.raises(ScalarError):
        scalars.parse_scalar_text(QI, "1+i+i")


def test_json_round_trip():
    x = GaussianRational(Fraction(2, 3), Fraction(-1, 7))
    assert scalars.scalar_from_json(QI, scalars.scalar_to_json(QI, x)) == x
    y = Fraction(-5, 9)
    assert scalars.scalar_from_json(Q, scalars.scalar_to_json(Q, y)) == y


def test_str_forms():
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(0, -1)) == "-i"
    assert str(GaussianRational(Fraction(1, 2), Fraction(1, 2))) == "1/2+1/2i"
    assert str(GaussianRational(3, 0)) == "3"


# -- the integer triple against the pair-of-Fractions oracle ------------------

P61 = 2**61 - 1
_nums = st.integers(-10**12, 10**12)
_dens = st.one_of(st.integers(1, 10**12), st.sampled_from([P61, 2 * P61, P61 * 10**6]))
_fractions = st.builds(Fraction, _nums, _dens)
_reals = st.one_of(_nums, _fractions, st.sampled_from([0, 1, -1]))
_pairs = st.tuples(st.one_of(_fractions, st.just(Fraction(0))),
                   st.one_of(_fractions, st.just(Fraction(0))))
_operands = st.one_of(_pairs, _reals)


def _both(v):
    """The operand for the class under test and for the oracle."""
    if isinstance(v, tuple):
        return GaussianRational(*v), gaussian_pair_oracle(*v)
    return v, v


def _outcome(f, *args):
    """repr, str, hash and truth of f(*args), or the ZeroDivisionError it raises;
    results of the class under test must hold a reduced triple."""
    try:
        z = f(*args)
    except ZeroDivisionError as exc:
        return ("raises", str(exc))
    if isinstance(z, GaussianRational):
        x, y, d = scalars._parts(z)
        assert type(x) is type(y) is type(d) is int
        assert d > 0 and gcd(x, y, d) == 1
    return (repr(z), str(z), hash(z), bool(z))


@given(_pairs, _operands)
@example((Fraction(0), Fraction(0)), 0)
@example((Fraction(1, 2), Fraction(-1, 3)), (Fraction(0), Fraction(0)))
@example((Fraction(1, P61), Fraction(0)), Fraction(-1, P61))
def test_gaussian_matches_pair_oracle(a, b):
    new_a, old_a = _both(a)
    new_b, old_b = _both(b)
    for f in (operator.add, operator.sub, operator.mul, operator.truediv,
              operator.eq, operator.ne):
        assert _outcome(f, new_a, new_b) == _outcome(f, old_a, old_b), f
        assert _outcome(f, new_b, new_a) == _outcome(f, old_b, old_a), f
    for f in (operator.neg, operator.pos, lambda z: z, lambda z: z.conjugate()):
        assert _outcome(f, new_a) == _outcome(f, old_a)


@given(_reals)
def test_gaussian_real_hash_and_equality(q):
    z = GaussianRational(q)
    assert hash(z) == hash(q)
    assert z == q and q == z
    assert scalars.coerce(QI, q) == z
    assert hash(scalars.coerce(QI, q)) == hash(q)
    assert scalars._parts(z) == (Fraction(q).numerator, 0, Fraction(q).denominator)


def test_zero_and_one_are_shared_constants():
    assert scalars.zero(Q) is scalars.zero(Q) and scalars.one(QI) is scalars.one(QI)
    assert scalars.zero(QI) == 0 and scalars.one(QI) == 1 and scalars.one(Q) == 1


def test_coerce_returns_field_values_as_they_are():
    x, z = Fraction(2, 3), GaussianRational(1, 2)
    assert scalars.coerce(Q, x) is x and scalars.coerce(QI, z) is z
    assert scalars.coerce(Q, "2/3") == x and scalars.coerce(QI, "1+2i") == z
    with pytest.raises(ScalarError):
        scalars.coerce(Q, object())


# -- one text grammar: the last sign after the first character splits a+bi ----

@pytest.mark.parametrize("text", ["1/12/1i", "0/11/2i", "12/12/12i",  # two fractions
                                  "1+i+i", "i2", "ii", "1/0i", "1.5i", "1+-2i"])
def test_parse_rejects_malformed_gaussian_text(text):
    with pytest.raises(ScalarError, match=re.escape(f"malformed Gaussian rational {text!r}")):
        scalars.parse_scalar_text(QI, text)


def test_parse_rejects_more_digits_than_int_reads():
    with pytest.raises(ScalarError):
        scalars.parse_scalar_text(Q, "9" * 5000)
    with pytest.raises(ScalarError):
        scalars.parse_scalar_text(QI, "1+" + "9" * 5000 + "i")


@given(_reals)
def test_rational_text_round_trip(q):
    for field in (Q, QI):
        assert scalars.parse_scalar_text(field, str(q)) == q


@given(_reals, _reals)
def test_gaussian_text_round_trip(re_part, im_part):
    z = GaussianRational(re_part, im_part)
    assert scalars.parse_scalar_text(QI, str(z)) == z
    assert scalars.parse_scalar_text(QI, f" {z} ".replace("+", " + ")) == z


# -- the single operand reader: anything else is NotImplemented ---------------

@pytest.mark.parametrize("other", [0.5, Decimal("0.5"), 1 + 2j, "1", None, [1]], ids=repr)
@pytest.mark.parametrize("z", [GaussianRational(1, 2), GaussianRational(1)], ids=str)
def test_foreign_operands_are_not_implemented(z, other):
    for f in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            f(z, other)
        with pytest.raises(TypeError):
            f(other, z)
    assert (z == other) is False and (other == z) is False
    assert (z != other) is True and (other != z) is True
