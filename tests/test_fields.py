from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comodcheck.fields import GF, QQ, Field, FieldError

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 4)


@given(rationals, rationals, rationals)
def test_field_axioms_rationals(a, b, c):
    f = QQ
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_field_axioms_fp(a, b):
    f = GF(10007)
    a, b = f.of(a), f.of(b)
    assert f.add(a, b) == f.add(b, a)
    if a:
        assert f.mul(a, f.inv(a)) == 1
    assert f.char == 10007


def test_fp_characteristic_addition():
    f = GF(5)
    x = f.one
    for _ in range(4):
        x = f.add(x, f.one)
    assert x == 0


def test_gf_rejects_composite_and_large():
    with pytest.raises(FieldError):
        GF(6)
    with pytest.raises(FieldError):
        GF(2 ** 31 + 11)


@pytest.mark.parametrize("p", [0, 1, -7])
def test_gf_rejects_p_below_two(p):
    # Field(0) is Q, but GF(0) names no prime field
    with pytest.raises(FieldError):
        GF(p)


def test_of_parses_literals():
    assert QQ.of("3/2") == Fraction(3, 2)
    assert GF(7).of(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(FieldError):
        GF(7).of(Fraction(1, 7))


def test_of_keeps_integral_rationals_as_ints():
    three = QQ.of(Fraction(3))
    assert three == 3 and type(three) is int
    assert type(QQ.of("6/2")) is int and type(QQ.of(-4)) is int
    half = QQ.of(Fraction(1, 2))
    assert half == Fraction(1, 2) and type(half) is Fraction


def test_div_and_inv_keep_integral_quotients_as_ints():
    six = QQ.div(Fraction(9, 2), Fraction(3, 4))
    assert six == 6 and type(six) is int
    three = QQ.inv(Fraction(1, 3))
    assert three == 3 and type(three) is int
    assert type(QQ.inv(-1)) is int and type(QQ.div(0, 5)) is int
    third = QQ.div(1, 3)
    assert third == Fraction(1, 3) and type(third) is Fraction
    assert GF(7).div(3, 5) == 2 and GF(7).inv(3) == 5
    with pytest.raises(FieldError):
        QQ.inv(0)


def test_field_equality_and_repr():
    assert QQ == Field(0) and GF(5) == GF(5) and GF(5) != QQ
    assert repr(QQ) == "Q" and repr(GF(5)) == "GF(5)"
