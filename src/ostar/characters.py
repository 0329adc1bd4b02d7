"""Irreducible characters of A x|_phi H for finite abelian A and H.

The dual group of A is acted on by H through phi; every irreducible
character of the product is indexed by a dual orbit [x] together with a
linear character U of the stabilizer H_x, has degree |[x]| = [H : H_x], and
evaluates at (a, h) to

    U(h) * sum over y in [x] of y(a)   if h lies in H_x,
    0                                  otherwise

(Serre, Linear Representations of Finite Groups, 8.2): summing x o phi_{h'}
over all h' in H would count each orbit member |H_x| times.  Each value is
one sum of roots of unity at the conductor lcm(exp A, conductor of U).
U is read in coordinates along a cyclic decomposition of H_x, which one
greedy pass gives together with every element's coordinates.

All values are exact CycloNums, and an IrredChar stores them once per
conjugacy class (`values`, in `G.conjugacy_classes()` order) when it is
built, and every table reader takes them.  A value is determined by its
conductor and exponent multiset, so one memo per `irred_chars` call builds
each such sum once and the cells that have it share that object.
`character_table` bundles the characters of a group with the completeness
and orthogonality report that guards every downstream decision.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from .cyclotomic import (
    CONDUCTOR_CAP,
    CycloNum,
    _cyclotomic_root_mod,
    _images_mod,
    _integral_terms,
    _interned,
    _weighted_sum,
    cyclo_csv,
    root_of_unity,
)
from .errors import ConsistencyError
from .groups import AbelianGroup, ActionHom, SemidirectGroup

__all__ = [
    "DualChar",
    "DualOrbit",
    "LinearChar",
    "IrredChar",
    "CharTable",
    "TableReport",
    "dual_group",
    "dual_act",
    "dual_orbits",
    "dual_of_subgroup",
    "irred_chars",
    "char_value_general",
    "validate_table",
    "character_table",
    "validated_table",
    "zero_set",
    "export_chartable_csv",
]


@dataclass(frozen=True)
class DualChar:
    """Linear character of an abelian group: a |-> prod_i zeta_{n_i}^{c_i a_i},
    held as the exponent tuple (c_1, ..., c_k)."""

    group: AbelianGroup
    exponents: tuple[int, ...]

    def value_exponent(self, a) -> int:
        """The value at a as an exponent of zeta_E, E the group exponent."""
        E = self.group.exponent
        t = 0
        for c, x, n in zip(self.exponents, a, self.group.factors):
            t += c * x * (E // n)
        return t % E

    def value(self, a) -> CycloNum:
        return root_of_unity(self.group.exponent, self.value_exponent(a))


def dual_group(A: AbelianGroup) -> tuple[DualChar, ...]:
    """All |A| characters of A, in exponent-code order."""
    return tuple(DualChar(A, e) for e in A.elements())


def dual_act(x: DualChar, h, phi: ActionHom) -> DualChar:
    """h . x = x o phi_h, solved back into exponent form."""
    A = x.group
    E = A.exponent
    exps = []
    for g, n in zip(A.generators(), A.factors):
        t = x.value_exponent(phi.apply(h, g))
        step = E // n
        if t % step:
            raise ConsistencyError("dual action did not produce a character")
        exps.append((t // step) % n)
    return DualChar(A, tuple(exps))


class DualOrbit:
    """One H-orbit on the dual of A: lex-min representative, all members,
    and the stabilizer H_x = {h : x o phi_h = x}."""

    def __init__(self, rep, members, stabilizer):
        self.rep = rep
        self.members = members
        self.stabilizer = stabilizer

    def __repr__(self):
        return (
            f"DualOrbit(rep={self.rep.exponents}, size={len(self.members)}, "
            f"stabilizer_order={len(self.stabilizer)})"
        )


def dual_orbits(A: AbelianGroup, H: AbelianGroup, phi: ActionHom) -> tuple[DualOrbit, ...]:
    """Partition of the dual group under the H-action, orbits listed by
    lex-min representative."""
    seen = set()
    orbits = []
    h_elems = H.elements()
    for x in dual_group(A):
        if x.exponents in seen:
            continue
        members = {}
        stab = []
        for h in h_elems:
            y = dual_act(x, h, phi)
            members[y.exponents] = y
            if y.exponents == x.exponents:
                stab.append(h)
        seen.update(members)
        if len(members) * len(stab) != H.order:
            raise ConsistencyError("orbit-stabilizer count failed on the dual group")
        ordered = tuple(members[e] for e in sorted(members))
        orbits.append(DualOrbit(x, ordered, tuple(stab)))
    return tuple(orbits)


def _decomposition_coords(sub, H: AbelianGroup):
    """Generators and orders presenting a subgroup S of an abelian group as
    a direct product of cyclic groups, with each element's coordinates
    along them: (decomposition, coords).

    One greedy pass: take the elements of S in (order desc, tuple asc)
    order and adjoin each one whose cyclic span meets the span P so far
    only in the identity, growing the coordinates as P grows.  The pass
    never dead-ends.  Say P is a direct summand, S = P + Q, and take a
    valid candidate y = p + q, k = ord(q).  Then k y = k p lies in
    P & <y> = 0, so ord(y) = ord(q) <= exp(Q).  Every q in Q is itself
    valid, so the first valid candidate has ord(q) = exp(Q).  Then
    Q = <q> + R, and q -> y extends to an automorphism fixing P + R, so
    S = P + <y> + R.  One pass is enough, because a rejected candidate
    stays rejected as P grows.
    """
    sub = frozenset(sub)
    ident = H.identity
    dec, coords = [], {ident: ()}
    for y in sorted(sub - {ident}, key=lambda y: (-H.order_of(y), y)):
        cy, z = [ident], y
        while z not in coords:  # ends at the identity or at a clash with P
            cy.append(z)
            z = H.add(z, y)
        if z == ident:
            dec.append((y, len(cy)))
            coords = {H.add(u, w): cs + (k,)
                      for u, cs in coords.items() for k, w in enumerate(cy)}
    if len(coords) != len(sub):
        raise ConsistencyError("cyclic decomposition does not enumerate the subgroup")
    return tuple(dec), coords


class LinearChar:
    """Linear character of a subgroup of an abelian group, relative to a
    cyclic decomposition of that subgroup."""

    degree = 1

    def __init__(self, H, decomposition, exponents, coords):
        self.H = H
        self.gens = tuple(g for g, _ in decomposition)
        self.orders = tuple(d for _, d in decomposition)
        self.exponents = tuple(exponents)
        self.conductor = math.lcm(*self.orders) if self.orders else 1
        self._coords = coords

    def value_exponent(self, h) -> int:
        L = self.conductor
        t = 0
        for u, c, d in zip(self.exponents, self._coords[h], self.orders):
            t += u * c * (L // d)
        return t % L

    def value(self, h) -> CycloNum:
        return root_of_unity(self.conductor, self.value_exponent(h))

    def __repr__(self):
        return f"LinearChar(exponents={self.exponents}, orders={self.orders})"


def dual_of_subgroup(sub, H: AbelianGroup) -> tuple[LinearChar, ...]:
    """All |S| linear characters of the subgroup S, in exponent-code order
    relative to its cyclic decomposition."""
    dec, coords = _decomposition_coords(sub, H)
    exps = iter_product(*(range(d) for _, d in dec))
    return tuple(LinearChar(H, dec, e, coords) for e in exps)


class IrredChar:
    """Irreducible character of G = A x| H attached to a dual orbit [x] and
    a linear character U of the stabilizer H_x; degree |[x]| = [H : H_x].
    Its value at (a, h) is U(h) * sum over y in [x] of y(a) for h in H_x,
    and 0 otherwise.  `values` holds its exact value at each class of
    `G.conjugacy_classes()`, read at the class's first element from memo:
    the dict of root sums keyed on (N, sorted exponents mod N) that one
    irred_chars call shares among its characters."""

    def __init__(self, G: SemidirectGroup, orbit: DualOrbit, u: LinearChar, memo):
        self.G = G
        self.orbit = orbit
        self.u = u
        self.degree = len(orbit.members)
        self._stab_set = frozenset(orbit.stabilizer)
        values = []
        for cls in G.conjugacy_classes():
            key = self._exponents(cls[0])
            v = memo.get(key)
            if v is None:
                v = memo[key] = _root_sum(*key)
            values.append(v)
        self.values = tuple(values)

    def __repr__(self):
        return (
            f"IrredChar(degree={self.degree}, orbit={self.orbit.rep.exponents}, "
            f"u={self.u.exponents})"
        )

    def is_linear(self) -> bool:
        return self.degree == 1

    def value(self, g) -> CycloNum:
        """Exact value at g: the stored value of its conjugacy class."""
        return self.values[self.G.class_index(g)]

    def value_uncached(self, g) -> CycloNum:
        """Direct evaluation at g as one orbit sum of roots of unity, not
        read from the stored class values or the build memo."""
        return _root_sum(*self._exponents(g))

    def _exponents(self, g):
        """(N, the sorted exponents e mod N) with the value at g the sum of
        the zeta_N^e.  The members of [x] take values in the E-th roots of
        unity and U in the L-th, so the sum lies at the conductor
        N = lcm(E, L) that reports print; off H_x it is the empty sum at
        conductor 1."""
        a, h = g
        if h not in self._stab_set:
            return 1, ()
        E, L = self.orbit.rep.group.exponent, self.u.conductor
        N = math.lcm(E, L)
        t = N // L * self.u.value_exponent(h)
        return N, tuple(sorted((N // E * y.value_exponent(a) + t) % N
                               for y in self.orbit.members))


def _root_sum(N: int, exponents) -> CycloNum:
    """The sum of zeta_N^e over the exponents, at conductor N."""
    return _weighted_sum([root_of_unity(N, e) for e in exponents], [1] * len(exponents))


def char_value_general(chi: IrredChar, g) -> CycloNum:
    """Induced-character evaluation through the full conjugation sum
    (1/|H_x|) sum over {h in H : h g_H h^-1 in H_x} of
    x(phi_h(a)) U(h g_H h^-1).

    For abelian H this must coincide with IrredChar.value everywhere; it is
    kept as an independent cross-check of the fast path.
    """
    G = chi.G
    H = G.H
    a, gh = g
    stab = chi._stab_set
    x = chi.orbit.rep
    total = CycloNum.zero()
    for h in H.elements():
        conj = H.add(H.add(h, gh), H.neg(h))
        if conj in stab:
            total = total + x.value(G.phi.apply(h, a)) * chi.u.value(conj)
    return total * Fraction(1, len(stab))


def irred_chars(G: SemidirectGroup) -> tuple[IrredChar, ...]:
    """The complete list of irreducible characters of G, ordered by dual
    orbit representative and then by the stabilizer character."""
    chars = []
    memo = {}
    for orbit in dual_orbits(G.A, G.H, G.phi):
        for u in dual_of_subgroup(orbit.stabilizer, G.H):
            chars.append(IrredChar(G, orbit, u, memo))
    if sum(c.degree**2 for c in chars) != G.order:
        raise ConsistencyError("character degrees do not sum in squares to |G|")
    if len(chars) != len(G.conjugacy_classes()):
        raise ConsistencyError("character count differs from the class count")
    return tuple(chars)


@dataclass
class TableReport:
    checks: dict
    failures: list

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def _power(G: SemidirectGroup, g, k: int):
    """g^k by square-and-multiply on G.mul, with g^-k = (g^-1)^k; it never
    multiplies by the identity or squares past the top bit of |k|."""
    if k < 0:
        g, k = G.inv(g), -k
    out = None
    while k:
        if k & 1:
            out = g if out is None else G.mul(out, g)
        k >>= 1
        if k:
            g = G.mul(g, g)
    return G.identity if out is None else out


def _unit_generators(E: int) -> list[int]:
    """A generating set of (Z/E)^*, -1 first, then the least units not yet
    generated."""
    gens = [-1]
    span = {1 % E, -1 % E}
    for u in range(2, E):
        if u in span or math.gcd(u, E) != 1:
            continue
        gens.append(u)
        grown = set(span)
        x = u
        while x not in span:
            grown.update(s * x % E for s in span)
            x = x * u % E
        span = grown
    return gens


def _galois_step(vals, R, G: SemidirectGroup, E: int, u: int):
    """(pi, first) for a unit u mod E: pi[c] is the class of rep_c^u', for
    u' = u + kE with the least k >= 0 making u' coprime to |G|, and first[i]
    is the first class c where sigma_u(V[i][c]) != V[i][pi[c]], or None;
    R[i][c] indexes V[i][c] in vals."""
    lift = u
    while math.gcd(lift, G.order) != 1:
        lift += E
    pi = [G.class_index(_power(G, cls[0], lift)) for cls in G.conjugacy_classes()]
    sigma = [v._galois(u) for v in vals]
    # the index of each sigma_u(v) in vals, past its end if not found; a
    # mismatch is confirmed exactly: an equal value may sit at another conductor
    at = _interned([vals, sigma])[1][1]
    return pi, [next((c for c, d in enumerate(pi)
                      if at[r[c]] != r[d] and sigma[r[c]] != vals[r[d]]), None)
                for r in R]


def validate_table(chars, G: SemidirectGroup) -> TableReport:
    """Exact completeness, first-orthogonality and conjugate-symmetry checks,
    each computed once, over classes weighted by class size.

    With V[i][c] the value of character i at class c, E the lcm of the
    value conductors and T_ij = sum_c |c| V[i][c] conj(V[j][c]) - |G| d_ij:
      1. the degree sum is checked exactly on V's identity column;
      2. for a unit u mod E and u' = u (mod E) coprime to |G|, g -> g^u'
         permutes the classes keeping their sizes, and a character's value
         at g^u' is its value at g under sigma_u: zeta_E -> zeta_E^u.
         _galois_step compares the two exactly, applying sigma_u once per
         distinct value and comparing indices of distinct values, with an
         exact comparison wherever the indices differ.  At u = -1 that is
         conjugate symmetry, V[i][class of rep_c^-1] == conj(V[i][c]);
      3. the table is integral when every value is an algebraic integer
         (denominator 1), E <= CONDUCTOR_CAP and step 2 holds for u = -1
         and every u in _unit_generators(E).  Then every T_ij of an
         integral table is fixed by Gal(Q(zeta_E)/Q) and so lies in Z;
      4. then |T_ij| <= B = sum_c |c| max_i L1(V[i][c])^2 + |G|, and the
         image of T_ij under zeta_E -> w in Z/p, for a p > B with
         Phi_E(w) = 0 (mod p), is T_ij mod p, so a zero image proves
         T_ij = 0 (Dixon, Numer. Math. 1967).  By step 2 at u = -1,
         conj(V[j][c]) = V[j][class of rep_c^-1], whose image is already
         computed.  The modulus search (_cyclotomic_root_mod) is
         deterministic.
    A zero image proves nothing for a table that is not integral.  Every
    relation i <= j not proven zero is summed exactly, and a failure prints
    that sum.  Any failure must abort downstream decisions for the group.
    """
    classes = G.conjugacy_classes()
    sizes = [len(cls) for cls in classes]
    V = [chi.values for chi in chars]
    failures = []

    total = CycloNum.zero()
    for row in V:  # class 0 is the identity class
        total = total + row[0] * row[0]
    degree_ok = total == G.order
    if not degree_ok:
        failures.append(f"sum of squared degrees is {total}, expected {G.order}")

    # each distinct value once: R[i][c] indexes vals
    vals, R = _interned(V)
    E = math.lcm(*(v.conductor for v in vals))
    inv, first = _galois_step(vals, R, G, E, -1)
    asymmetric = [f"conjugate symmetry failed for character {i} at {classes[c][0]}"
                  for i, c in enumerate(first) if c is not None]
    integral = (not asymmetric and all(v.den == 1 for v in vals)
                and E <= CONDUCTOR_CAP
                and all(c is None for u in _unit_generators(E)[1:]
                        for c in _galois_step(vals, R, G, E, u)[1]))
    if integral:
        l1 = [sum(map(abs, v.coeffs)) for v in vals]
        bound = G.order + sum(
            size * max((l1[r[c]] for r in R), default=0) ** 2
            for c, size in enumerate(sizes)
        )
        p, w = _cyclotomic_root_mod(E, bound)
        up = _images_mod(_integral_terms(vals, E), E, p, w)
        X = [[size * up[a] for size, a in zip(sizes, r)] for r in R]
        Y = [[up[r[d]] for d in inv] for r in R]

    ortho_ok = True
    for i, ri in enumerate(R):
        for j in range(i, len(R)):
            expected = G.order if i == j else 0
            if integral and (sum(map(operator.mul, X[i], Y[j])) - expected) % p == 0:
                continue
            s = CycloNum.zero()
            for a, b, size in zip(ri, R[j], sizes):
                if not (vals[a].is_zero() or vals[b].is_zero()):
                    s = s + vals[a] * vals[b].conj() * size
            if s != expected:
                ortho_ok = False
                failures.append(f"orthogonality failed for characters {i}, {j}: {s}")

    checks = {"degree_sum": degree_ok, "orthogonality": ortho_ok,
              "conjugate_symmetry": not asymmetric}
    return TableReport(checks, failures + asymmetric)


@dataclass
class CharTable:
    group: SemidirectGroup
    chars: tuple
    report: TableReport


def character_table(G: SemidirectGroup) -> CharTable:
    """Characters plus validation report, computed once per group."""
    if G._char_table is None:
        chars = irred_chars(G)
        G._char_table = CharTable(G, chars, validate_table(chars, G))
    return G._char_table


def validated_table(G: SemidirectGroup) -> CharTable:
    """character_table(G) if its report is ok; otherwise ConsistencyError
    naming every failure, which must abort every decision for G."""
    table = character_table(G)
    if not table.report.ok:
        raise ConsistencyError(
            "character table failed validation: " + "; ".join(table.report.failures)
        )
    return table


def zero_set(chi: IrredChar) -> frozenset:
    """All group elements where the character vanishes (exact test)."""
    out = []
    for cls, v in zip(chi.G.conjugacy_classes(), chi.values):
        if v.is_zero():
            out.extend(cls)
    return frozenset(out)


def element_label(g) -> str:
    a, h = g
    return ",".join(map(str, a)) + "|" + ",".join(map(str, h))


def export_chartable_csv(G: SemidirectGroup, chars, stream) -> None:
    """Rows = characters, two columns per conjugacy class: the exact
    coefficient list and a float approximation (the latter marked with a
    trailing ~)."""
    w = csv.writer(stream)
    header = ["character", "degree"]
    for cls in G.conjugacy_classes():
        label = element_label(cls[0])
        header += [f"({label})", f"({label})~"]
    w.writerow(header)
    # cyclo_csv reads only a value's conductor, coeffs and den: render each
    # distinct value once
    vals, index = _interned(chi.values for chi in chars)
    cells = [cyclo_csv(v) for v in vals]
    for idx, (chi, row) in enumerate(zip(chars, index)):
        w.writerow([f"chi{idx}", chi.degree, *(x for a in row for x in cells[a])])
