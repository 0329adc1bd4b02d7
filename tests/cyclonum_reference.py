"""The Fraction-based CycloNum that ostar.cyclotomic used before its
integer-numerator normal form, kept verbatim as the reference for
test_cyclotomic_differential.py.  Only the imports below are new: the
cyclotomic polynomials and the conductor check are shared with ostar."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from ostar.cyclotomic import _check_conductor, cyclotomic_polynomial


def _reduce_mod_phi(vec, n):
    # remainder of an integer polynomial modulo the (monic) Phi_n
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    vec = list(vec)
    if len(vec) < deg:
        vec.extend([0] * (deg - len(vec)))
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = 0
            base = i - deg
            for j in range(deg):
                vec[base + j] -= c * phi[j]
    return vec[:deg]


class CycloNum:
    """An element of Q(zeta_N), immutable and in canonical form.

    ``coeffs`` is a primitive integer vector (gcd 1, first nonzero entry
    positive) over the power basis; ``scale`` carries the rational part and
    the sign.  Zero is scale 0 with an all-zero vector.
    """

    __slots__ = ("conductor", "scale", "coeffs")

    def __init__(self, conductor: int, scale: Fraction, coeffs: tuple[int, ...]):
        # internal: use the factory constructors / operators below
        self.conductor = conductor
        self.scale = scale
        self.coeffs = coeffs

    @staticmethod
    def _make(n: int, scale, vec) -> "CycloNum":
        _check_conductor(n)
        deg = len(cyclotomic_polynomial(n)) - 1
        vec = _reduce_mod_phi(vec, n)
        scale = Fraction(scale)
        if scale == 0 or not any(vec):
            return CycloNum(n, Fraction(0), (0,) * deg)
        g = 0
        for c in vec:
            g = math.gcd(g, c)
        for c in vec:
            if c:
                if c < 0:
                    g = -g
                break
        if g != 1:
            vec = [c // g for c in vec]
        return CycloNum(n, scale * g, tuple(vec))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(conductor: int = 1) -> "CycloNum":
        return CycloNum._make(conductor, 0, [0])

    @staticmethod
    def from_rational(q, conductor: int = 1) -> "CycloNum":
        return CycloNum._make(conductor, Fraction(q), [1])

    @staticmethod
    def from_coeffs(conductor: int, coeffs: Sequence) -> "CycloNum":
        """Build from rational coefficients of zeta^0, zeta^1, ... and normalize."""
        fr = [Fraction(c) for c in coeffs]
        den = 1
        for f in fr:
            den = den * f.denominator // math.gcd(den, f.denominator)
        vec = [int(f * den) for f in fr]
        return CycloNum._make(conductor, Fraction(1, den), vec)

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
        vec = [0] * ((len(self.coeffs) - 1) * k + 1 if self.coeffs else 1)
        for i, c in enumerate(self.coeffs):
            if c:
                vec[i * k] = c
        return CycloNum._make(conductor, self.scale, vec)

    def _pair(self, other: "CycloNum"):
        n = math.lcm(self.conductor, other.conductor)
        return self.promote(n), other.promote(n)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        try:
            other = CycloNum.coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._pair(other)
        if a.scale == 0:
            return b
        if b.scale == 0:
            return a
        da, db = a.scale.denominator, b.scale.denominator
        d = da * db // math.gcd(da, db)
        ka = a.scale.numerator * (d // da)
        kb = b.scale.numerator * (d // db)
        vec = [ka * x + kb * y for x, y in zip(a.coeffs, b.coeffs)]
        return CycloNum._make(a.conductor, Fraction(1, d), vec)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.conductor, -self.scale, self.coeffs)

    def __sub__(self, other):
        try:
            other = CycloNum.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = self.scale * other
            if s == 0:
                return CycloNum.zero(self.conductor)
            return CycloNum(self.conductor, s, self.coeffs)
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._pair(other)
        if a.scale == 0 or b.scale == 0:
            return CycloNum.zero(a.conductor)
        ca, cb = a.coeffs, b.coeffs
        # iterate the sparser factor outermost
        if sum(1 for c in ca if c) > sum(1 for c in cb if c):
            ca, cb = cb, ca
        out = [0] * (len(ca) + len(cb) - 1)
        for i, ci in enumerate(ca):
            if ci:
                for j, cj in enumerate(cb):
                    if cj:
                        out[i + j] += ci * cj
        return CycloNum._make(a.conductor, a.scale * b.scale, out)

    __rmul__ = __mul__

    def conj(self) -> "CycloNum":
        """Complex conjugate: zeta^i -> zeta^(N-i)."""
        n = self.conductor
        vec = [0] * n
        for i, c in enumerate(self.coeffs):
            if c:
                vec[(n - i) % n] += c
        return CycloNum._make(n, self.scale, vec)

    def inv(self) -> "CycloNum":
        """Multiplicative inverse, by the extended Euclidean algorithm
        against Phi_N over Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero cyclotomic number")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        p = [Fraction(c) for c in self.coeffs]
        r0, r1 = phi, _ptrim(p)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, _ptrim(r)
            s0, s1 = s1, _ptrim(_psub(s0, _pmulq(q, s1)))
        # now s1 * self.coeffs == r1[0] (a nonzero rational) mod Phi
        c = r1[0]
        inv_vec = [x / c for x in s1]
        out = CycloNum.from_coeffs(self.conductor, inv_vec)
        return out * (1 / self.scale)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / other)
        if isinstance(other, CycloNum):
            return self * other.inv()
        return NotImplemented

    # -- predicates and views -------------------------------------------------

    def is_zero(self) -> bool:
        return self.scale == 0

    def is_rational(self) -> bool:
        return self.scale == 0 or not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if self.scale == 0:
            return Fraction(0)
        if any(self.coeffs[1:]):
            raise ValueError(f"{self} is not rational")
        return self.scale * self.coeffs[0]

    def rational_coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients of zeta^0 .. zeta^(N-1) as Fractions; everything at
        index >= phi(N) is zero in canonical form."""
        out = [Fraction(0)] * self.conductor
        for i, c in enumerate(self.coeffs):
            if c:
                out[i] = self.scale * c
        return tuple(out)

    def evalf(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.conductor)
        acc = 0j
        for i, c in enumerate(self.coeffs):
            if c:
                acc += c * z**i
        return complex(self.scale) * acc

    def __eq__(self, other):
        try:
            other = CycloNum.coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._pair(other)
        return a.scale == b.scale and a.coeffs == b.coeffs

    # equal values at different conductors would need equal hashes; key
    # caches on something else instead
    __hash__ = None

    def __str__(self):
        if self.is_zero():
            return "0"
        if self.is_rational():
            return str(self.as_fraction())
        name = f"z{self.conductor}"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                t = str(abs(c))
            else:
                t = ("" if abs(c) == 1 else f"{abs(c)}*") + (name if i == 1 else f"{name}^{i}")
            terms.append(("- " if c < 0 else "+ " if terms else "") + t)
        body = " ".join(terms)
        if self.scale == 1:
            return body if len(terms) == 1 else f"({body})"
        return f"({self.scale})*({body})"

    def __repr__(self):
        return f"CycloNum[{self}]"


def _ptrim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _psub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _pmulq(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _pdivmod(num, den):
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    q = [Fraction(0)] * max(len(num) - dd, 1)
    for i in range(len(num) - dd - 1, -1, -1):
        c = num[i + dd] / lead
        if c:
            q[i] = c
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    return q, num[:dd] if dd else [Fraction(0)]


@lru_cache(maxsize=None)
def _root(n: int, e: int) -> CycloNum:
    vec = [0] * n
    vec[e] = 1
    return CycloNum._make(n, 1, vec)


def root_of_unity(n: int, e: int) -> CycloNum:
    """zeta_n^e in normalized form; n >= 1, e taken mod n."""
    _check_conductor(n)
    return _root(n, e % n)


def cyclo_json(v: CycloNum) -> dict:
    """JSON view: conductor plus [numerator, denominator] pairs for the
    power-basis coefficients; the float rendering is explicitly marked as an
    approximation.  Rational values are presented at conductor 1."""
    if v.is_rational() and v.conductor != 1:
        v = CycloNum.from_rational(v.as_fraction())
    fr = v.rational_coeffs()[: len(v.coeffs)]
    z = v.evalf()
    return {
        "conductor": v.conductor,
        "coeffs": [[f.numerator, f.denominator] for f in fr],
        "approx": f"{z.real:.10g}{z.imag:+.10g}j",
    }
