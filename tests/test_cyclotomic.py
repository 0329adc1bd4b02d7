"""Exactness checks for the cyclotomic arithmetic core.

Independent oracles used here: sympy's cyclotomic polynomials, a local
polynomial long division, complex floating point evaluation, and exhaustive
enumeration for the numerical-semigroup membership.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ostar.cyclotomic import (
    CONDUCTOR_CAP,
    ConductorError,
    CycloNum,
    _cyclotomic_root_mod,
    _images_mod,
    _integral_terms,
    _interned,
    cyclotomic_polynomial,
    lam_leung_certifies_nonzero,
    prime_factors,
    root_of_unity,
)


def zeta(n, e=1):
    return root_of_unity(n, e)


# -- cyclotomic polynomials ----------------------------------------------------


@pytest.mark.parametrize("n", list(range(1, 61)))
def test_cyclotomic_polynomial_matches_sympy(n):
    x = sympy.symbols("x")
    expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
    assert list(cyclotomic_polynomial(n)) == [int(c) for c in expected]


def test_conductor_cap_enforced():
    with pytest.raises(ConductorError):
        cyclotomic_polynomial(CONDUCTOR_CAP + 1)
    with pytest.raises(ConductorError):
        root_of_unity(0, 1)


@pytest.mark.parametrize("make", [
    lambda: CycloNum.zero(0),
    lambda: CycloNum.zero(CONDUCTOR_CAP + 1),
    lambda: CycloNum.from_rational(Fraction(1, 3), -2),
    lambda: CycloNum.from_rational(1, CONDUCTOR_CAP + 1),
    lambda: CycloNum.from_coeffs(0, [1]),
    lambda: CycloNum.from_coeffs(CONDUCTOR_CAP + 1, [Fraction(1, 2)]),
    lambda: zeta(3, 1).promote(0),
    lambda: zeta(3, 1).promote(3 * 4000),
    lambda: zeta(9973, 1) + zeta(2, 1),
    lambda: zeta(9973, 1) * zeta(3, 1),
    lambda: zeta(9973, 1) == zeta(3, 1),
])
def test_conductor_checked_at_every_entry_point(make):
    # arithmetic results are not re-checked, so every conductor a caller
    # supplies, and every lcm of two, must be checked where it enters
    with pytest.raises(ConductorError):
        make()


# -- roots of unity ------------------------------------------------------------


def test_root_of_unity_examples():
    assert zeta(1, 0) == 1
    assert zeta(4, 2) == -1
    # oracle: divide x^2 by Phi_6 = x^2 - x + 1 by hand -> remainder x - 1
    num = [0, 0, 1]
    phi6 = [1, -1, 1]
    lead = num[2]
    rem = [num[0] - lead * phi6[0], num[1] - lead * phi6[1]]
    assert rem == [-1, 1]
    assert zeta(6, 2) == zeta(6, 1) - 1


def test_root_power_n_is_one():
    for n in (1, 2, 3, 5, 6, 12, 20):
        for e in range(n):
            acc = CycloNum.from_rational(1)
            for _ in range(n):
                acc = acc * zeta(n, e)
            assert acc == 1


def test_roots_nonzero_up_to_60():
    for n in range(1, 61):
        for e in range(n):
            assert not zeta(n, e).is_zero()


# -- arithmetic ----------------------------------------------------------------


def test_arith_examples():
    z3 = zeta(3)
    assert (1 + z3 + z3 * z3).is_zero()
    assert zeta(4, 1) * zeta(4, 1) == -1
    z5 = zeta(5)
    prod = (1 + z5) * (1 + zeta(5, 4))
    expected = 2 + z5 + zeta(5, 4)
    assert prod == expected
    # float oracle to 1e-12
    w = cmath.exp(2j * cmath.pi / 5)
    assert abs(prod.evalf() - (1 + w) * (1 + w**4)) < 1e-12


def test_is_zero_examples():
    assert (zeta(3, 0) + zeta(3, 1) + zeta(3, 2)).is_zero()
    v = zeta(7, 1) + zeta(7, 2)
    assert not v.is_zero()
    w = cmath.exp(2j * cmath.pi / 7)
    assert abs(abs(v.evalf()) - abs(w + w**2)) < 1e-12
    assert abs(v.evalf()) > 1.2
    assert (zeta(6, 1) - zeta(3, 1) - 1).is_zero()


def test_mixed_conductor_promotion():
    assert zeta(6, 3) == -1
    assert zeta(3, 1).promote(6) == zeta(6, 2)
    assert zeta(2, 1) + zeta(3, 1) == zeta(6, 2) - 1  # both live in Q(zeta_6)


def test_adding_a_zero_promotes_nothing(monkeypatch):
    # a zero at a conductor dividing the other operand's is returned past,
    # unpromoted, on either side; the sum is the other operand itself
    calls = []
    promote = CycloNum.promote

    def counting(self, conductor):
        calls.append(conductor)
        return promote(self, conductor)

    monkeypatch.setattr(CycloNum, "promote", counting)
    v = zeta(12, 5) + Fraction(1, 3)
    for zero in (CycloNum.zero(), CycloNum.zero(4), CycloNum.zero(12)):
        calls.clear()
        assert zero + v is v and v + zero is v and sum([v], zero) is v
        assert calls == []
    # otherwise the sum lies at the lcm of the conductors
    assert (CycloNum.zero(5) + v).conductor == 60
    assert (CycloNum.zero(5) + CycloNum.zero(3)).conductor == 15


def test_scaling_and_division():
    v = zeta(5) * Fraction(3, 7)
    assert v / Fraction(3, 7) == zeta(5)
    assert (v / v) == 1
    with pytest.raises(ZeroDivisionError):
        CycloNum.zero().inv()


def test_inverse_random():
    rng = random.Random(7)
    for n in (4, 5, 7, 9, 12, 15):
        deg = len(cyclotomic_polynomial(n)) - 1
        for _ in range(20):
            v = CycloNum.from_coeffs(
                n, [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(deg)]
            )
            if v.is_zero():
                continue
            assert v * v.inv() == 1


def test_conjugation():
    for n in (3, 5, 8, 12):
        for e in range(n):
            assert zeta(n, e).conj() == zeta(n, -e)
    v = 2 + zeta(7, 3) - zeta(7, 5) * Fraction(1, 2)
    prod = v * v.conj()
    assert abs(prod.evalf().imag) < 1e-12
    assert abs(prod.evalf().real - abs(v.evalf()) ** 2) < 1e-12


# -- canonical form ------------------------------------------------------------


def test_normalization_idempotent_and_canonical():
    rng = random.Random(3)
    for n in (6, 8, 10, 12):
        phi = len(cyclotomic_polynomial(n)) - 1
        for _ in range(30):
            raw = [Fraction(rng.randint(-6, 6)) for _ in range(n)]
            v = CycloNum.from_coeffs(n, raw)
            again = CycloNum.from_coeffs(n, v.rational_coeffs())
            assert v == again
            assert v.conductor == again.conductor
            assert v.coeffs == again.coeffs and v.scale == again.scale
            # indices >= phi(n) are zero after normalization
            assert all(c == 0 for c in v.rational_coeffs()[phi:])


def test_equality_is_coefficient_comparison():
    a = zeta(12, 2) + 1
    b = zeta(12, 2) + 1
    assert a == b
    assert a.coeffs == b.coeffs and a.scale == b.scale
    assert a != b + 1


# -- field axioms (property-based) ----------------------------------------------


def _values(n):
    deg = len(cyclotomic_polynomial(n)) - 1
    return st.builds(
        lambda coeffs, num, den: CycloNum.from_coeffs(n, coeffs)
        * Fraction(num, den),
        st.lists(st.integers(-5, 5), min_size=deg, max_size=deg),
        st.integers(-6, 6),
        st.integers(1, 6),
    )


@pytest.mark.parametrize("n", [1, 4, 6, 9, 15, 60])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_field_axioms(n, data):
    a = data.draw(_values(n))
    b = data.draw(_values(n))
    c = data.draw(_values(n))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert (a - a).is_zero()


@pytest.mark.parametrize("n", [2, 7, 12, 24])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_numeric_consistency(n, data):
    v = data.draw(_values(n))
    assert (abs(v.evalf()) < 1e-9) == v.is_zero()


# -- semigroup membership --------------------------------------------------------


def brute_member(k, primes):
    reach = {0}
    for _ in range(k):
        reach |= {r + p for r in reach for p in primes if r + p <= k}
    return k in reach


def member(k, primes):
    # k lies in N_0<primes> iff the criterion is silent for m = prod(primes)
    return not lam_leung_certifies_nonzero(k, math.prod(primes))


def test_semigroup_examples():
    assert not member(2, {3, 5})
    assert member(8, {3, 5})
    # oracle: exhaust all 3a + 5b <= 7
    sums = {3 * a + 5 * b for a in range(4) for b in range(3)}
    assert 7 not in sums
    assert not member(7, {3, 5})


def test_semigroup_against_brute_force():
    # the empty set is m = 1, where only 0 is a member
    for primes in (set(), {2}, {3}, {2, 3}, {3, 5}, {5, 7}, {2, 7}, {3, 5, 7}):
        for k in range(0, 41):
            assert member(k, primes) == brute_member(k, primes)


def test_lam_leung_rejects_negative_k():
    for m in (1, 3, 15):
        with pytest.raises(ValueError):
            lam_leung_certifies_nonzero(-1, m)


def test_prime_factors():
    assert prime_factors(1) == ()
    assert prime_factors(12) == (2, 3)
    assert prime_factors(15) == (3, 5)
    assert prime_factors(49) == (7,)


def test_lam_leung_examples():
    assert lam_leung_certifies_nonzero(2, 15)
    assert not lam_leung_certifies_nonzero(3, 3)
    assert (zeta(3, 0) + zeta(3, 1) + zeta(3, 2)).is_zero()  # the silent case is real
    assert lam_leung_certifies_nonzero(7, 15)
    assert lam_leung_certifies_nonzero(1, 1)
    assert not lam_leung_certifies_nonzero(0, 1)


def test_lam_leung_soundness_sample():
    # small version of the acceptance sweep: exact zero sums only at sizes
    # inside the semigroup
    rng = random.Random(2024)
    for n in range(1, 13):
        for _ in range(400):
            k = rng.randint(0, 10)
            total = CycloNum.zero(n)
            for _ in range(k):
                total = total + zeta(n, rng.randrange(n))
            if total.is_zero():
                assert not lam_leung_certifies_nonzero(k, n)


# -- images modulo a prime and interning --------------------------------------------


@pytest.mark.parametrize("N", [1, 3, 4, 5, 12, 21, 55])
def test_images_mod_are_a_ring_map(N):
    # zeta_N -> w is a ring map Z[zeta_N] -> F_p, conjugation is the map at
    # w^-1, and values with denominators are imaged as D v
    rng = random.Random(N)
    p, w = _cyclotomic_root_mod(N, 1000)
    divisors = [d for d in range(1, N + 1) if N % d == 0]
    a, b = ([CycloNum.from_coeffs(n, [rng.randint(-4, 4) for _ in range(n)])
             for n in rng.choices(divisors, k=8)] for _ in range(2))

    def image(values, root=w):
        return _images_mod(_integral_terms(values, N), N, p, root)

    ia, ib = image(a), image(b)
    assert all(0 <= x < p for x in ia)
    assert image([x + y for x, y in zip(a, b)]) == [(x + y) % p for x, y in zip(ia, ib)]
    assert image([x * y for x, y in zip(a, b)]) == [x * y % p for x, y in zip(ia, ib)]
    assert image([x.conj() for x in a]) == image(a, pow(w, -1, p))
    for k in range(1, N):
        if math.gcd(k, N) == 1:
            assert image([x._galois(k) for x in a]) == image(a, pow(w, k, p))

    fracs = [x / rng.randint(1, 6) for x in a]
    D = math.lcm(*(v.den for v in fracs))
    assert D > 1
    assert image(fracs) == [D * x * pow(v.den, -1, p) % p
                            for v, x in zip(fracs, image([v * v.den for v in fracs]))]
    assert _integral_terms(fracs, N) == _integral_terms([v * D for v in fracs], N)


def test_interned_tells_apart_values_that_share_two_key_fields():
    z3 = zeta(3)
    one, half = CycloNum.from_rational(1), CycloNum.from_rational(Fraction(1, 2))
    # 1 and 1/2, z3 and z3/2 share conductor and coeffs; z3 and z6 share
    # coeffs and den; 1 at conductor 3 equals 1 but is another key
    rows = [(one, half, z3), (z3 / 2, zeta(6), one), (), (CycloNum.from_rational(1, 3), z3)]
    vals, index = _interned(rows)
    assert index == [[0, 1, 2], [3, 4, 0], [], [5, 2]]
    for row, ids in zip(rows, index):
        for v, a in zip(row, ids):
            assert (vals[a].conductor, vals[a].coeffs, vals[a].den) == (
                v.conductor, v.coeffs, v.den)
    assert _interned([]) == ([], [])
