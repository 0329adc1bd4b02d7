"""Differential test: CycloNum (integer numerators over one denominator)
against the Fraction-based CycloNum it replaced, kept verbatim in
cyclonum_reference.py.  Every operation is run on both sides from the same
inputs, and the results must agree in value, conductor, canonical views,
str, cyclo_json and evalf() (float for float)."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

import cyclonum_reference as ref
from ostar.cyclotomic import CycloNum, cyclo_json, cyclotomic_polynomial, root_of_unity

CONDUCTORS = (1, 2, 3, 4, 5, 7, 12, 21, 37, 45, 111)
# mixed-conductor pairs whose lcm stays small enough for a quick test
MIXED = [(a, b) for a, b in combinations(CONDUCTORS, 2) if math.lcm(a, b) <= 500]


def _phi(n):
    return len(cyclotomic_polynomial(n)) - 1


def _raw(rng, n):
    """Rational coefficients over zeta^0 .. zeta^(len-1), unreduced, of one
    of the shapes ostar meets: zero, a rational, a sum of roots of unity
    (a character value), such a sum over a rational, a dense rational
    vector, and a vector with a common factor."""
    kind = rng.randrange(6)
    if kind == 0:
        return [0]
    if kind == 1:
        return [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))]
    if kind in (2, 3):
        counts = [0] * n
        for _ in range(rng.randint(1, 6)):
            counts[rng.randrange(n)] += rng.choice((1, 1, 2, -1))
        if kind == 2:
            return counts
        q = Fraction(rng.randint(1, 5), rng.choice((1, 2, 3, 7, 12)))
        return [c * q for c in counts]
    if kind == 4:
        return [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(n)]
    g = rng.choice((2, 3, 6, 10))
    return [g * rng.randint(-3, 3) for _ in range(rng.randint(1, n))]


def _pair_values(rng, n):
    raw = _raw(rng, n)
    return CycloNum.from_coeffs(n, raw), ref.CycloNum.from_coeffs(n, raw)


def _bits(z: complex):
    return z.real.hex(), z.imag.hex()


def assert_same(v, r):
    assert type(v) is CycloNum and type(r) is ref.CycloNum
    assert v.conductor == r.conductor
    # the new normal form itself
    assert len(v.coeffs) == _phi(v.conductor) == len(r.coeffs)
    assert all(type(c) is int for c in v.coeffs)
    assert type(v.den) is int and v.den > 0
    assert math.gcd(v.den, *v.coeffs) == 1
    assert v.den == 1 or any(v.coeffs)
    # every view agrees with the reference
    assert v.rational_coeffs() == r.rational_coeffs()
    assert v.scale == r.scale
    assert v.is_zero() == r.is_zero()
    assert v.is_rational() == r.is_rational()
    if r.is_rational():
        assert v.as_fraction() == r.as_fraction()
        assert type(v.as_fraction()) is Fraction
    else:
        with pytest.raises(ValueError):
            v.as_fraction()
    assert str(v) == str(r)
    assert repr(v) == repr(r)
    assert cyclo_json(v) == ref.cyclo_json(r)
    assert _bits(v.evalf()) == _bits(r.evalf())


def _check_binary(x, rx, y, ry):
    assert_same(x + y, rx + ry)
    assert_same(x - y, rx - ry)
    assert_same(x * y, rx * ry)
    assert (x == y) == (rx == ry)
    assert (x != y) == (rx != ry)
    assert (x == x + 0) and (rx == rx + 0)


def _check_unary(rng, x, rx, inv=True):
    assert_same(x, rx)
    assert_same(-x, -rx)
    assert_same(x.conj(), rx.conj())
    k = rng.choice((0, 1, -1, 2, -3, 6, 12))
    q = Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 5, 6)))
    for s in (k, q):
        assert_same(x * s, rx * s)
        assert_same(s * x, s * rx)
        assert_same(x + s, rx + s)
        assert_same(s + x, s + rx)
        assert_same(x - s, rx - s)
        assert_same(s - x, s - rx)
        assert (x == s) == (rx == s)
        if s:
            assert_same(x / s, rx / s)
    if inv and not rx.is_zero():
        assert_same(x.inv(), rx.inv())
        assert_same(x / x, rx / rx)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_same_conductor_matches_reference(n):
    rng = random.Random(f"cyclo-diff:{n}")
    values = [_pair_values(rng, n) for _ in range(24)]
    values.append((CycloNum.zero(n), ref.CycloNum.zero(n)))
    values.append((root_of_unity(n, 1), ref.root_of_unity(n, 1)))
    for i, (x, rx) in enumerate(values):
        # inv runs the Fraction Euclid on both sides, which is slow on dense
        # vectors; beyond conductor 21 keep it to a few sparse ones
        sparse = sum(1 for c in x.coeffs if c) <= 12
        _check_unary(rng, x, rx, inv=n <= 21 or (i % 5 == 0 and sparse))
    for (x, rx), (y, ry) in zip(values, values[1:] + values[:1]):
        _check_binary(x, rx, y, ry)
    # chains, so that denominators and common factors meet and cancel
    acc, racc = CycloNum.zero(), ref.CycloNum.zero()
    for x, rx in values:
        acc, racc = acc + x * x.conj(), racc + rx * rx.conj()
        assert_same(acc, racc)
        acc, racc = acc - x, racc - rx
        assert_same(acc, racc)


@pytest.mark.parametrize("a,b", MIXED)
def test_mixed_conductors_match_reference(a, b):
    rng = random.Random(f"cyclo-diff:{a}:{b}")
    xs = [_pair_values(rng, a) for _ in range(6)] + [(CycloNum.zero(a), ref.CycloNum.zero(a))]
    ys = [_pair_values(rng, b) for _ in range(6)] + [(CycloNum.zero(b), ref.CycloNum.zero(b))]
    for x, rx in xs:
        for y, ry in ys:
            _check_binary(x, rx, y, ry)
            _check_binary(y, ry, x, rx)


def test_equal_values_at_different_conductors():
    n = math.lcm(3, 4)
    pairs = [
        (root_of_unity(3, 1), root_of_unity(n, 4)),
        (CycloNum.zero(5), CycloNum.zero(7)),
        (CycloNum.from_rational(Fraction(-3, 4), 21), CycloNum.from_rational(Fraction(-3, 4))),
        (root_of_unity(4, 1) * Fraction(1, 2), root_of_unity(n, 3) * Fraction(1, 2)),
    ]
    for x, y in pairs:
        rx = ref.CycloNum.from_coeffs(x.conductor, x.rational_coeffs())
        ry = ref.CycloNum.from_coeffs(y.conductor, y.rational_coeffs())
        assert (x == y) and (rx == ry)
        _check_binary(x, rx, y, ry)


def test_hot_operations_build_no_fraction(monkeypatch):
    rng = random.Random(11)
    vals = [CycloNum.from_coeffs(n, _raw(rng, n)) for n in (21, 45, 111) for _ in range(8)]
    vals += [CycloNum.from_coeffs(21, [Fraction(1, 2), 0, Fraction(3, 4)]), CycloNum.zero(7)]
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for x, y in zip(vals, vals[1:]):
        x + y
        x * y
        x.conj()
        x == y
        CycloNum._make(x.conductor, list(x.coeffs) * 2, 6)
    monkeypatch.undo()
    assert made == []
