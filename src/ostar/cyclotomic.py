"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A CycloNum is an element of Q[x]/(Phi_N) written against the power basis
{zeta^0, ..., zeta^(phi(N)-1)}, stored as phi(N) integer numerators over one
positive integer denominator, in lowest terms.  Equality and zero tests are
tuple comparisons, and the hot paths (convolution, reduction mod Phi_N over
the nonzero terms of Phi_N) run on ints with no Fraction; character values
are algebraic integers, so their denominator is 1 and they skip the gcd
pass.  Floating point never participates in any decision; ``evalf`` exists
for oracles and reports only.

Also home to the numerical-semigroup membership test behind the vanishing
sums-of-roots-of-unity criterion, and to the helpers that own decisions
about many values at once: _interned keys them on (conductor, coeffs,
den), _weighted_sum takes an integer combination in one integer vector,
_ZeroSums tests sums of them for zero on integer vectors, and
_cyclotomic_root_mod, _integral_terms and _images_mod give images under
zeta_N -> w mod p for the certified table validation and Gram rank.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Sequence

__all__ = [
    "CONDUCTOR_CAP",
    "ConductorError",
    "CycloNum",
    "cyclotomic_polynomial",
    "root_of_unity",
    "cyclo_json",
    "cyclo_csv",
    "prime_factors",
    "lam_leung_certifies_nonzero",
]

# Phi_N computation and dense coefficient vectors degrade past this point;
# raise it explicitly if you know what you are doing.
CONDUCTOR_CAP = 10_000


class ConductorError(ValueError):
    """Conductor outside the supported range."""


def _check_conductor(n):
    if not isinstance(n, int) or n < 1:
        raise ConductorError(f"conductor must be a positive integer, got {n!r}")
    if n > CONDUCTOR_CAP:
        raise ConductorError(f"conductor {n} exceeds the cap {CONDUCTOR_CAP}")


def _polydiv_exact(num, den):
    # exact division of integer polynomials, ascending coefficients, den monic
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dd]
        if c:
            out[i] = c
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("polynomial division was not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Phi_n as ascending integer coefficients.

    Computed once per conductor by dividing x^n - 1 by the product of the
    Phi_d over the proper divisors d of n; the cache only ever sees
    idempotent fills.
    """
    _check_conductor(n)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _low_terms(n):
    # (phi(n), the nonzero (j, c) of Phi_n below its leading term)
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    return deg, tuple((j, c) for j, c in enumerate(phi[:deg]) if c)


def _reduce_mod_phi(vec, n):
    # remainder of an integer polynomial modulo the (monic) Phi_n, as a new
    # list of length phi(n)
    deg, terms = _low_terms(n)
    top = len(vec)
    if top <= deg:
        return list(vec) + [0] * (deg - top)
    vec = list(vec)
    for i in range(top - 1, deg - 1, -1):
        c = vec[i]
        if c:
            base = i - deg
            for j, p in terms:
                vec[base + j] -= c * p
    del vec[deg:]
    return vec


@lru_cache(maxsize=None)
def _cyclotomic_root_mod(E: int, bound: int):
    """(p, w) with p = 1 (mod E), p > bound and Phi_E(w) = 0 (mod p), the
    last checked directly, so that zeta_E -> w is a ring map Z[zeta_E] ->
    Z/p.  The search is deterministic: p is the first prime that trial
    division (prime_factors) finds in the progression (bound // E + 1) E + 1,
    stepping by E.  F_p^* is cyclic of order divisible by E, so some
    h^((p-1)/E) has order E and is a root of Phi_E mod p."""
    p = (bound // E + 1) * E + 1
    while prime_factors(p) != (p,):
        p += E
    phi = cyclotomic_polynomial(E)
    for h in range(2, p):
        w = pow(h, (p - 1) // E, p)
        acc = 0
        for c in reversed(phi):
            acc = (acc * w + c) % p
        if acc == 0:
            return p, w


def _interned(rows):
    """(the distinct values of rows in order of first occurrence, each row as
    indices into them), keyed on the canonical fields (conductor, coeffs,
    den): equal values at one conductor share an index."""
    ids = {}
    index = [[ids.setdefault((v.conductor, v.coeffs, v.den), len(ids)) for v in row]
             for row in rows]
    return [CycloNum(*key) for key in ids], index


def _weighted_sum(values, weights) -> CycloNum:
    """sum_c w_c v_c for CycloNums v_c and integer weights w_c, equal, at
    the lcm N of the conductors, to adding each w_c v_c to CycloNum.zero().
    Each value's nonzero coefficients, over the lcm D of the denominators,
    go straight into one vector over zeta_N that ends at the highest power
    reached, so values at conductor N need no reduction modulo Phi_N."""
    N = math.lcm(*(v.conductor for v in values))
    D = math.lcm(*(v.den for v in values))
    top = max(((len(v.coeffs) - 1) * (N // v.conductor) for v in values), default=0)
    vec = [0] * (top + 1)
    for v, w in zip(values, weights):
        k, w = N // v.conductor, w * (D // v.den)
        cs = v.coeffs
        for i in compress(range(len(cs)), cs):
            vec[i * k] += w * cs[i]
    return CycloNum._make(N, vec, D)


class _ZeroSums(dict):
    """A memo from a tuple of indices into values, repeats allowed, to
    whether those values sum to zero.  Each value is promoted once to the
    lcm N of the conductors, canonical there, and scaled to the lcm D of
    the denominators; a sum of such integer vectors is still reduced
    modulo Phi_N, so the sum is zero iff its vector is."""

    def __init__(self, values):
        super().__init__()
        N = math.lcm(*(v.conductor for v in values))
        D = math.lcm(*(v.den for v in values))
        self.vectors = [[c * (D // v.den) for c in v.promote(N).coeffs]
                        for v in values]

    def __missing__(self, key):
        self[key] = zero = not any(map(sum, zip(*map(self.vectors.__getitem__, key))))
        return zero


def _integral_terms(values, N):
    """D v at conductor N for each v, with D the lcm of the denominators, as
    sparse (exponent of zeta_N, integer coefficient) pairs; N must be a
    multiple of every conductor."""
    D = math.lcm(*(v.den for v in values))
    return [[(i * (N // v.conductor), v.coeffs[i] * (D // v.den))
             for i in compress(range(len(v.coeffs)), v.coeffs)] for v in values]


def _images_mod(terms, N, p, w):
    """The residues mod p of _integral_terms under the ring map Z[zeta_N] ->
    Z/p, zeta_N -> w, for w^N = 1 (mod p)."""
    powers = [1] * N
    for e in range(1, N):
        powers[e] = powers[e - 1] * w % p
    return [sum(c * powers[e] for e, c in t) % p for t in terms]


class CycloNum:
    """An element of Q(zeta_N), immutable and in canonical form.

    ``coeffs`` holds phi(N) integer numerators over the power basis and
    ``den`` one positive integer denominator, with gcd(den, *coeffs) == 1;
    zero is the all-zero vector over den 1.  Character values are algebraic
    integers, so den is almost always 1 and needs no gcd pass.
    """

    __slots__ = ("conductor", "coeffs", "den")

    def __init__(self, conductor: int, coeffs: tuple[int, ...], den: int):
        # internal: use the factory constructors / operators below
        self.conductor = conductor
        self.coeffs = coeffs
        self.den = den

    @staticmethod
    def _make(n: int, vec, den: int = 1) -> "CycloNum":
        # vec: integer numerators of any length, den > 0.  n is not checked
        # here: the constructors and promote check every conductor a caller
        # supplies, and arithmetic only reuses conductors already checked
        if len(vec) != _low_terms(n)[0]:
            vec = _reduce_mod_phi(vec, n)
        if den != 1:
            g = math.gcd(den, *vec)
            if g != 1:
                vec = [c // g for c in vec]
                den //= g
        return CycloNum(n, tuple(vec), den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(conductor: int = 1) -> "CycloNum":
        _check_conductor(conductor)
        return CycloNum._make(conductor, [0])

    @staticmethod
    def from_rational(q, conductor: int = 1) -> "CycloNum":
        if not isinstance(q, int):
            q = Fraction(q)
        _check_conductor(conductor)
        return CycloNum._make(conductor, [q.numerator], q.denominator)

    @staticmethod
    def from_coeffs(conductor: int, coeffs: Sequence) -> "CycloNum":
        """Build from rational coefficients of zeta^0, zeta^1, ... and normalize."""
        if all(type(c) is int for c in coeffs):
            vec, den = list(coeffs), 1
        else:
            fr = [Fraction(c) for c in coeffs]
            den = 1
            for f in fr:
                den = den * f.denominator // math.gcd(den, f.denominator)
            vec = [f.numerator * (den // f.denominator) for f in fr]
        _check_conductor(conductor)
        return CycloNum._make(conductor, vec, den)

    @staticmethod
    def coerce(x) -> "CycloNum":
        if isinstance(x, CycloNum):
            return x
        if isinstance(x, (int, Fraction)):
            return CycloNum.from_rational(x)
        raise TypeError(f"cannot interpret {x!r} as a cyclotomic number")

    # -- conductor handling -------------------------------------------------

    def promote(self, conductor: int) -> "CycloNum":
        """Rewrite at a larger conductor (must be a multiple of the current one)."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError(
                f"cannot promote conductor {self.conductor} to non-multiple {conductor}"
            )
        k = conductor // self.conductor
        vec = [0] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                vec[i * k] = c
        _check_conductor(conductor)
        return CycloNum._make(conductor, vec, self.den)

    def _pair(self, other: "CycloNum"):
        n = math.lcm(self.conductor, other.conductor)
        return self.promote(n), other.promote(n)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if type(other) is not CycloNum:
            try:
                other = CycloNum.coerce(other)
            except TypeError:
                return NotImplemented
        # a zero whose conductor divides the other's adds nothing, not even
        # a promotion: the lcm is the other operand's conductor
        if not any(self.coeffs) and other.conductor % self.conductor == 0:
            return other
        if not any(other.coeffs) and self.conductor % other.conductor == 0:
            return self
        a, b = (self, other) if self.conductor == other.conductor else self._pair(other)
        da, db = a.den, b.den
        if da == db:
            vec = [x + y for x, y in zip(a.coeffs, b.coeffs)]
            return CycloNum._make(a.conductor, vec, da)
        d = da * db // math.gcd(da, db)
        ka, kb = d // da, d // db
        vec = [ka * x + kb * y for x, y in zip(a.coeffs, b.coeffs)]
        return CycloNum._make(a.conductor, vec, d)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum._make(self.conductor, [-c for c in self.coeffs], self.den)

    def __sub__(self, other):
        try:
            other = CycloNum.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, p: int, q: int) -> "CycloNum":
        # self * p/q for integers p and q > 0
        return CycloNum._make(self.conductor, [c * p for c in self.coeffs], self.den * q)

    def __mul__(self, other):
        if type(other) is not CycloNum:
            if isinstance(other, (int, Fraction)):
                return self._scaled(other.numerator, other.denominator)
            return NotImplemented
        a, b = (self, other) if self.conductor == other.conductor else self._pair(other)
        ca = a.coeffs
        if len(ca) == 1:
            out = [ca[0] * b.coeffs[0]]
        else:
            # a zero factor leaves out all zero, which _make turns into zero
            cb = [(j, c) for j, c in enumerate(b.coeffs) if c]
            out = [0] * (2 * len(ca) - 1)
            for i, ci in enumerate(ca):
                if ci:
                    for j, cj in cb:
                        out[i + j] += ci * cj
        return CycloNum._make(a.conductor, out, a.den * b.den)

    __rmul__ = __mul__

    def _galois(self, k: int) -> "CycloNum":
        # the field automorphism zeta -> zeta^k, for k a unit mod N
        n = self.conductor
        vec = [0] * n
        for i, c in enumerate(self.coeffs):
            if c:
                vec[i * k % n] += c
        return CycloNum._make(n, vec, self.den)

    def conj(self) -> "CycloNum":
        """Complex conjugate: zeta^i -> zeta^(N-i)."""
        return self._galois(-1)

    def inv(self) -> "CycloNum":
        """Multiplicative inverse y / (x y), where y is the product of the
        Galois conjugates sigma_k(x) over the units k != 1 mod N, so that
        x y is the field norm of x, a nonzero rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero cyclotomic number")
        n = self.conductor
        y = CycloNum.from_rational(1, n)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                y = y * self._galois(k)
        return y / (self * y).as_fraction()

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            p, q = other.numerator, other.denominator
            if p < 0:
                p, q = -p, -q
            return self._scaled(q, p)
        if isinstance(other, CycloNum):
            return self * other.inv()
        return NotImplemented

    # -- predicates and views -------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if any(self.coeffs[1:]):
            raise ValueError(f"{self} is not rational")
        return Fraction(self.coeffs[0], self.den)

    def rational_coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients of zeta^0 .. zeta^(N-1) as Fractions; everything at
        index >= phi(N) is zero in canonical form."""
        out = [Fraction(0)] * self.conductor
        for i, c in enumerate(self.coeffs):
            if c:
                out[i] = Fraction(c, self.den)
        return tuple(out)

    def _primitive(self):
        # (scale, primitive vector): gcd 1, first nonzero entry positive;
        # zero is (0, the zero vector)
        g = math.gcd(*self.coeffs)
        if not g:
            return Fraction(0), self.coeffs
        for c in self.coeffs:
            if c:
                if c < 0:
                    g = -g
                break
        return Fraction(g, self.den), tuple(c // g for c in self.coeffs)

    @property
    def scale(self) -> Fraction:
        """The rational factor in front of the primitive coefficient vector."""
        return self._primitive()[0]

    def evalf(self) -> complex:
        # from the primitive vector times the scale, so that every float
        # operation is the same whatever the numerators' common factor
        scale, prim = self._primitive()
        z = cmath.exp(2j * cmath.pi / self.conductor)
        acc = 0j
        for i, c in enumerate(prim):
            if c:
                acc += c * z**i
        return complex(scale) * acc

    def __eq__(self, other):
        if type(other) is not CycloNum:
            try:
                other = CycloNum.coerce(other)
            except TypeError:
                return NotImplemented
        a, b = (self, other) if self.conductor == other.conductor else self._pair(other)
        return a.den == b.den and a.coeffs == b.coeffs

    # equal values at different conductors would need equal hashes; key
    # on the canonical fields instead, as _interned does
    __hash__ = None

    def __str__(self):
        if self.is_zero():
            return "0"
        if self.is_rational():
            return str(self.as_fraction())
        scale, prim = self._primitive()
        name = f"z{self.conductor}"
        terms = []
        for i, c in enumerate(prim):
            if not c:
                continue
            if i == 0:
                t = str(abs(c))
            else:
                t = ("" if abs(c) == 1 else f"{abs(c)}*") + (name if i == 1 else f"{name}^{i}")
            terms.append(("- " if c < 0 else "+ " if terms else "") + t)
        body = " ".join(terms)
        if scale == 1:
            return body if len(terms) == 1 else f"({body})"
        return f"({scale})*({body})"

    def __repr__(self):
        return f"CycloNum[{self}]"


@lru_cache(maxsize=None)
def _root(n: int, e: int) -> CycloNum:
    vec = [0] * n
    vec[e] = 1
    return CycloNum._make(n, vec)


def root_of_unity(n: int, e: int) -> CycloNum:
    """zeta_n^e in normalized form; n >= 1, e taken mod n."""
    _check_conductor(n)
    return _root(n, e % n)


def _presented(v: CycloNum):
    """(conductor, power-basis coefficients as Fractions, float text) of v
    as every report shows it: rational values at conductor 1."""
    if v.is_rational() and v.conductor != 1:
        v = CycloNum.from_rational(v.as_fraction())
    z = v.evalf()
    return (v.conductor, [Fraction(c, v.den) for c in v.coeffs],
            f"{z.real:.10g}{z.imag:+.10g}j")


def cyclo_json(v: CycloNum) -> dict:
    """JSON view: conductor plus [numerator, denominator] pairs for the
    power-basis coefficients; the float rendering is explicitly marked as an
    approximation."""
    conductor, fr, approx = _presented(v)
    return {
        "conductor": conductor,
        "coeffs": [[f.numerator, f.denominator] for f in fr],
        "approx": approx,
    }


def cyclo_csv(v: CycloNum) -> list:
    """CSV view: the exact cell "conductor:c0;c1;..." with Fraction
    coefficients, then the float approximation."""
    conductor, fr, approx = _presented(v)
    return [f"{conductor}:" + ";".join(map(str, fr)), approx]


# -- numerical semigroup membership -----------------------------------------


def prime_factors(m: int) -> tuple[int, ...]:
    """Distinct prime factors of m, ascending (empty for m = 1)."""
    if m < 1:
        raise ValueError(f"expected a positive integer, got {m}")
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return tuple(out)


def lam_leung_certifies_nonzero(k: int, m: int) -> bool:
    """True iff no k-term sum of m-th roots of unity can vanish, i.e. k lies
    outside N_0<Prime(m)>, the nonnegative integer combinations of the
    primes dividing m (Lam & Leung, J. Algebra 224, 2000).  Membership is
    dynamic programming over 0..k; for m = 1 only 0 is a member.

    A False return only means the criterion is silent; it is not a claim
    that some vanishing sum exists.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    ps = prime_factors(m)
    reach = bytearray(k + 1)
    reach[0] = 1
    for i in range(1, k + 1):
        reach[i] = any(reach[i - p] for p in ps if p <= i)
    return not reach[k]
