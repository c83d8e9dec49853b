"""Exact arithmetic in Q(sqrt2) and evaluation of polynomials in q."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadecheck.exactnum import (
    NotRationalInteger,
    PHI_POLYS,
    QPoly,
    SqrtTwoRat,
    ZeroInput,
    as_integer,
    q_value,
    val2,
)

small_rats = st.fractions(
    min_value=-50, max_value=50, max_denominator=16
)
numbers = st.builds(SqrtTwoRat, small_rats, small_rats)
# a coordinate as an int, an integral Fraction, or a Fraction with a denominator
coords = st.one_of(st.integers(-50, 50), st.integers(-50, 50).map(Fraction), small_rats)
pairs = st.tuples(coords, coords)


def _normal(x):
    """Each coordinate is an int exactly when integral, never a float."""
    for c in (x.a, x.b):
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)
    return x


# Reference arithmetic on pairs (a, b) of Fractions, meaning a + b*sqrt2.
def _ref_mul(x, y):
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ref_inv(x):
    norm = x[0] * x[0] - 2 * x[1] * x[1]
    return x[0] / norm, -x[1] / norm


def _ref_pow(x, e):
    out, base = (Fraction(1), Fraction(0)), x if e >= 0 else _ref_inv(x)
    for _ in range(abs(e)):
        out = _ref_mul(out, base)
    return out


def _agrees(x, ref):
    _normal(x)
    assert (Fraction(x.a), Fraction(x.b)) == ref
    built = SqrtTwoRat(*ref)  # from Fractions, possibly integral ones
    assert x == built and hash(x) == hash(built)
    assert str(x) == str(built) and repr(x) == repr(built)


@given(pairs, pairs)
@settings(max_examples=300)
def test_normal_form_after_each_operation(p, r):
    x, y = SqrtTwoRat(*p), SqrtTwoRat(*r)
    fp, fr = tuple(map(Fraction, p)), tuple(map(Fraction, r))
    _agrees(x, fp)
    _agrees(x + y, (fp[0] + fr[0], fp[1] + fr[1]))
    _agrees(x - y, (fp[0] - fr[0], fp[1] - fr[1]))
    _agrees(-x, (-fp[0], -fp[1]))
    _agrees(x * y, _ref_mul(fp, fr))
    _agrees(x + 3, (fp[0] + 3, fp[1]))
    _agrees(2 * x, (2 * fp[0], 2 * fp[1]))
    if not y.is_zero():
        _agrees(y.inverse(), _ref_inv(fr))
        _agrees(x / y, _ref_mul(fp, _ref_inv(fr)))
        _agrees(1 / y, _ref_inv(fr))


@given(pairs, st.integers(-6, 6))
@settings(max_examples=200)
def test_normal_form_of_powers(p, e):
    x = SqrtTwoRat(*p)
    if x.is_zero() and e < 0:
        return
    _agrees(x ** e, _ref_pow(tuple(map(Fraction, p)), e))


def test_normal_form_examples():
    third = SqrtTwoRat(3).inverse()
    assert type(third.a) is Fraction and third.a == Fraction(1, 3)
    assert _normal(SqrtTwoRat(Fraction(6, 3), Fraction(4))).a == 2
    assert type(SqrtTwoRat(Fraction(6, 3)).a) is int
    assert type((SqrtTwoRat(0, Fraction(1, 2)) * 2).b) is int
    assert hash(SqrtTwoRat(Fraction(3), 1)) == hash(SqrtTwoRat(3, Fraction(2, 2)))
    assert str(SqrtTwoRat(Fraction(3), 1)) == "3+1*s2"


def _float(x):
    """a + b*sqrt2 in floats, independent of the exact arithmetic."""
    return float(x.a) + float(x.b) * math.sqrt(2)


@given(numbers, numbers)
@settings(max_examples=200)
def test_mul_matches_float(x, y):
    # closure of the ring law, cross-checked against independent float math
    z = x * y
    assert abs(_float(z) - _float(x) * _float(y)) < 1e-9 * (1 + abs(_float(x) * _float(y)))


@given(numbers, numbers, numbers)
@settings(max_examples=100)
def test_ring_axioms(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x + y) - y == x
    assert x * y == y * x


@given(numbers)
def test_inverse(x):
    if not x.is_zero():
        assert x * x.inverse() == SqrtTwoRat(1)


def test_component_equality():
    assert SqrtTwoRat(1, 2) == SqrtTwoRat(1, 2)
    assert SqrtTwoRat(1, 2) != SqrtTwoRat(1, Fraction(3, 2))
    assert SqrtTwoRat(3) == 3


def test_as_integer():
    assert as_integer(SqrtTwoRat(13)) == 13
    with pytest.raises(NotRationalInteger):
        as_integer(SqrtTwoRat(0, 2))
    with pytest.raises(NotRationalInteger):
        as_integer(SqrtTwoRat(Fraction(1, 2)))


def test_as_integer_quarter_degree():
    # (q^4 + sqrt2 q^3 - q^2 - sqrt2 q)/4 at n = 1 is the count 21
    q = q_value(1)
    s2 = SqrtTwoRat(0, 1)
    v = (q ** 4 + s2 * q ** 3 - q * q - s2 * q) / 4
    assert as_integer(v) == 21


def test_val2():
    assert val2(524288) == 19
    assert val2(802816) == 14
    assert val2(13) == 0
    assert val2(-8) == 3
    with pytest.raises(ZeroInput):
        val2(0)


def test_val2_half_q10_example():
    # (1/2) q^10 phi1^2 phi2^2 at n = 1 is 2^14 * 49
    p = QPoly.q(10) * PHI_POLYS["p1"] ** 2 * PHI_POLYS["p2"] ** 2 / QPoly.const(2)
    v = as_integer(p.eval(1))
    assert v == 802816
    assert val2(v) == 14


def test_eval_phi8a():
    # q^2 + sqrt2 q + 1 at n = 1: q^2 = 8, sqrt2 q = 4
    assert as_integer(PHI_POLYS["p8a"].eval(1)) == 13


def test_eval_q13_over_sqrt2():
    p = QPoly.q(13) / QPoly.const(SqrtTwoRat(0, 1))
    assert as_integer(p.eval(1)) == 2 ** 19


def test_phi24_split_product():
    # oracle: evaluate q^8 - q^4 + 1 independently
    for n in range(1, 9):
        lhs = PHI_POLYS["p24a"].eval(n) * PHI_POLYS["p24b"].eval(n)
        q = q_value(n)
        oracle = q ** 8 - q ** 4 + 1
        assert lhs == oracle
    assert as_integer((PHI_POLYS["p24a"] * PHI_POLYS["p24b"]).eval(1)) == 4033


def test_phi8_split_product():
    for n in range(1, 9):
        lhs = PHI_POLYS["p8a"].eval(n) * PHI_POLYS["p8b"].eval(n)
        assert lhs == PHI_POLYS["p8"].eval(n)


def test_phi8_factors_odd_and_one_mod_four():
    for n in range(1, 9):
        for name in ("p8a", "p8b"):
            v = as_integer(PHI_POLYS[name].eval(n))
            assert v % 2 == 1
            assert v % 4 == 1


def test_qpoly_division_only_by_monomials():
    p = PHI_POLYS["p1"]
    with pytest.raises(ValueError):
        p / PHI_POLYS["p2"]
    assert (QPoly.q(3) / QPoly.q(1)) == QPoly.q(2)
