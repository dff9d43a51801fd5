import random
from fractions import Fraction

import pytest

from helpers import is_real, norm, times_i

from crprolong.scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    parse_rational,
)


def rand_gr(rng):
    return GaussianRational(
        Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
        Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
    )


def test_construction_and_equality():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert a.re == Fraction(1, 2) and a.im == Fraction(-3, 4)
    assert GaussianRational(2) == 2
    assert GaussianRational(0) == GR_ZERO
    assert GaussianRational(1) == GR_ONE
    assert GaussianRational(0, 1) == GR_I
    assert GaussianRational(Fraction(1, 3)) != GaussianRational(Fraction(1, 3), 1)


def test_field_axioms_random():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = rand_gr(rng), rand_gr(rng), rand_gr(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + GR_ZERO == a
        assert a * GR_ONE == a
        assert a - a == GR_ZERO
        if not b.is_zero():
            assert (a / b) * b == a


def test_division_exact():
    a = GaussianRational(1, 1)
    b = GaussianRational(1, -1)
    assert a / b == GR_I
    assert GR_ONE / GR_I == -GR_I


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GR_ONE / GR_ZERO


def test_conjugate_and_norm():
    rng = random.Random(12)
    for _ in range(100):
        a = rand_gr(rng)
        assert a.conjugate().conjugate() == a
        assert (a * a.conjugate()).im == 0
        assert norm(a) == a.re * a.re + a.im * a.im
        assert times_i(a) == a * GR_I


def test_i_squared():
    assert GR_I * GR_I == GaussianRational(-1)


def test_mixed_arithmetic_with_ints_and_fractions():
    a = GaussianRational(Fraction(1, 2), 1)
    assert a + 1 == GaussianRational(Fraction(3, 2), 1)
    assert 1 + a == a + 1
    assert 2 * a == GaussianRational(1, 2)
    assert a * Fraction(1, 2) == GaussianRational(Fraction(1, 4), Fraction(1, 2))
    assert 1 - a == GaussianRational(Fraction(1, 2), -1)
    assert a / 2 == GaussianRational(Fraction(1, 4), Fraction(1, 2))
    assert 1 / GR_I == -GR_I


def test_is_real_is_zero():
    assert GR_ZERO.is_zero()
    assert not GR_I.is_zero()
    assert is_real(GaussianRational(5))
    assert not is_real(GaussianRational(5, 1))
    assert bool(GR_I)
    assert not bool(GR_ZERO)


def test_parse_round_trip():
    rng = random.Random(13)
    for _ in range(100):
        a = rand_gr(rng)
        assert GaussianRational.parse(str(a)) == a
    assert GaussianRational.parse("(-3/4)+(1/2)i") == GaussianRational(
        Fraction(-3, 4), Fraction(1, 2)
    )
    assert str(GR_I) == "(0)+(1)i"


def test_parse_rejects_garbage():
    for bad in ("", "1+2i", "x", "(1)+(2)j", "(1/0)+(0)i"):
        with pytest.raises(ValueError):
            GaussianRational.parse(bad)


def test_rational_text_helpers():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert str(Fraction(6, 8)) == "3/4"
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("pi")


def test_hashable_and_usable_in_dicts():
    d = {GaussianRational(1, 2): "a"}
    assert d[GaussianRational(1, 2)] == "a"
    assert GaussianRational(1, 2) in d
