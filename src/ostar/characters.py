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

All values are exact CycloNums, and an IrredChar stores them once per
conjugacy class (`values`, in `G.conjugacy_classes()` order) when it is
built.  `character_table` bundles the characters of a group with the
completeness and orthogonality report that guards every downstream decision.
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
    cyclo_csv,
    cyclotomic_polynomial,
    prime_factors,
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
    "cyclic_decomposition",
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


def cyclic_decomposition(sub, H: AbelianGroup):
    """Generators and orders presenting a subgroup of an abelian group as a
    direct product of cyclic groups.

    Backtracking search: repeatedly adjoin an element of maximal order whose
    cyclic span meets the current span trivially.  Deterministic because
    candidates are tried in (order desc, tuple asc) order.
    """
    sub = frozenset(sub)
    ident = H.identity
    if sub == {ident}:
        return ()

    def cyc(y):
        out = [ident]
        z = y
        while z != ident:
            out.append(z)
            z = H.add(z, y)
        return out

    cands = sorted(sub, key=lambda y: (-H.order_of(y), y))

    def extend(span, gens):
        if len(span) == len(sub):
            return tuple(gens)
        for y in cands:
            if y in span:
                continue
            cy = cyc(y)
            if any(z != ident and z in span for z in cy):
                continue
            wider = {H.add(u, v) for u in span for v in cy}
            got = extend(wider, gens + [(y, len(cy))])
            if got is not None:
                return got
        return None

    got = extend({ident}, [])
    if got is None:
        raise ConsistencyError("no cyclic decomposition found for subgroup")
    return got


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
    dec = cyclic_decomposition(sub, H)
    coords = {}
    for cs in iter_product(*(range(d) for _, d in dec)):
        elem = H.identity
        for c, (g, _) in zip(cs, dec):
            elem = H.add(elem, H.mul_scalar(c, g))
        coords[elem] = cs
    if len(coords) != len(frozenset(sub)):
        raise ConsistencyError("cyclic decomposition does not enumerate the subgroup")
    return tuple(
        LinearChar(H, dec, e, coords)
        for e in iter_product(*(range(d) for _, d in dec))
    )


class IrredChar:
    """Irreducible character of G = A x| H attached to a dual orbit [x] and
    a linear character U of the stabilizer H_x; degree |[x]| = [H : H_x].
    Its value at (a, h) is U(h) * sum over y in [x] of y(a) for h in H_x,
    and 0 otherwise.  `values` holds its exact value at each class of
    `G.conjugacy_classes()`, evaluated once at the class's first element."""

    def __init__(self, G: SemidirectGroup, orbit: DualOrbit, u: LinearChar):
        self.G = G
        self.orbit = orbit
        self.u = u
        self.degree = len(orbit.members)
        self._stab_set = frozenset(orbit.stabilizer)
        self.values = tuple(
            self.value_uncached(cls[0]) for cls in G.conjugacy_classes()
        )

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
        read from the stored class values.  The members of [x] take values
        in the E-th roots of unity and U in the L-th, so the sum lies at
        the conductor N = lcm(E, L) that reports print."""
        a, h = g
        if h not in self._stab_set:
            return CycloNum.zero()
        E, L = self.orbit.rep.group.exponent, self.u.conductor
        N = math.lcm(E, L)
        t = N // L * self.u.value_exponent(h)
        return sum(
            (root_of_unity(N, N // E * y.value_exponent(a) + t)
             for y in self.orbit.members),
            CycloNum.zero(N),
        )


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
    for orbit in dual_orbits(G.A, G.H, G.phi):
        for u in dual_of_subgroup(orbit.stabilizer, G.H):
            chars.append(IrredChar(G, orbit, u))
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
    """g^k for k >= 0, by square-and-multiply on G.mul."""
    out = G.identity
    while k:
        if k & 1:
            out = G.mul(out, g)
        g = G.mul(g, g)
        k >>= 1
    return out


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


def _cyclotomic_root_mod(E: int, bound: int):
    """(p, w) with p = 1 (mod E), p > bound and Phi_E(w) = 0 (mod p), the
    last checked directly, so that zeta_E -> w is a ring map Z[zeta_E] ->
    Z/p; None if the search finds no root.  The search is deterministic: p
    is the first prime that trial division (prime_factors) finds in the
    progression (bound // E + 1) E + 1, stepping by E."""
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
    return None


def _table_certified(chars, G: SemidirectGroup) -> bool:
    """True only if every check of validate_table passes, shown without its
    k^2 * #classes exact products (Dixon, Numer. Math. 1967).

    With V[i][c] the value of character i at class c, E the lcm of the
    value conductors and T_ij = sum_c |c| V[i][c] conj(V[j][c]) - |G| d_ij:
      1. the degree sum is checked exactly;
      2. every value is an algebraic integer (denominator 1);
      3. for each u in a generating set of (Z/E)^*, lifted to u' coprime to
         |G|, sigma_u(V[i][c]) == V[i][class of rep_c^u'] exactly.  u = -1
         lifts to u' = -1, which is the conjugate-symmetry check.  As
         g -> g^u' permutes the classes keeping their sizes, every T_ij is
         fixed by Gal(Q(zeta_E)/Q) and so lies in Z;
      4. |T_ij| <= B = sum_c |c| max_i L1(V[i][c])^2 + |G|, and the image
         of every T_ij, i <= j, under zeta_E -> w in Z/p is 0 for some
         p > B with Phi_E(w) = 0 (mod p), so T_ij = 0.  The modulus search
         (_cyclotomic_root_mod) is deterministic.
    False means only "not shown"; the exact checks then decide.
    """
    classes = G.conjugacy_classes()
    V = [[chi.value(cls[0]) for cls in classes] for chi in chars]
    total = CycloNum.zero()
    for chi in chars:
        v = chi.value(G.identity)
        total = total + v * v
    if total != G.order:
        return False
    if any(v.den != 1 for row in V for v in row):
        return False
    E = math.lcm(*(v.conductor for row in V for v in row))
    if E > CONDUCTOR_CAP:
        return False

    # each distinct value once: R[i][c] indexes vals
    ids = {}
    R = [[ids.setdefault((v.conductor, v.coeffs), len(ids)) for v in row] for row in V]
    vals = [CycloNum.from_coeffs(n, coeffs) for n, coeffs in ids]

    sizes = [len(cls) for cls in classes]
    for u in _unit_generators(E):
        lift = u
        while math.gcd(lift, G.order) != 1:
            lift += E
        lift %= G.order
        pi = [G.class_index(_power(G, cls[0], lift)) for cls in classes]
        sigma = [v._galois(u) for v in vals]
        for r in R:
            for a, d in zip(r, pi):
                if sigma[a] != vals[r[d]]:
                    return False

    l1 = [sum(map(abs, v.coeffs)) for v in vals]
    bound = G.order + sum(
        size * max(l1[r[c]] for r in R) ** 2 for c, size in enumerate(sizes)
    )
    found = _cyclotomic_root_mod(E, bound)
    if found is None:
        return False
    p, w = found
    powers = [1] * E
    for e in range(1, E):
        powers[e] = powers[e - 1] * w % p

    def image(v, sign):
        step = sign * (E // v.conductor)
        return sum(c * powers[k * step % E] for k, c in enumerate(v.coeffs) if c) % p

    up = [image(v, 1) for v in vals]
    down = [image(v, -1) for v in vals]
    X = [[size * up[a] for size, a in zip(sizes, r)] for r in R]
    Y = [[down[a] for a in r] for r in R]
    for i, x in enumerate(X):
        if (sum(map(operator.mul, x, Y[i])) - G.order) % p:
            return False
        for y in Y[i + 1:]:
            if sum(map(operator.mul, x, y)) % p:
                return False
    return True


def validate_table(chars, G: SemidirectGroup) -> TableReport:
    """Exact completeness, first-orthogonality and conjugate-symmetry checks.

    Characters are class functions, so the sums run over classes weighted
    by class size and conjugate symmetry is checked at class representatives.
    A table that _table_certified proves valid gets the all-true report
    without the exact loops; any other table runs them, and they alone
    write the failure messages.  Any failure here must abort downstream
    decisions for the group.
    """
    if _table_certified(chars, G):
        return TableReport(
            {"degree_sum": True, "orthogonality": True, "conjugate_symmetry": True},
            [],
        )
    checks = {}
    failures = []

    total = CycloNum.zero()
    for chi in chars:
        v = chi.value(G.identity)
        total = total + v * v
    checks["degree_sum"] = total == G.order
    if not checks["degree_sum"]:
        failures.append(f"sum of squared degrees is {total}, expected {G.order}")

    ortho_ok = True
    classes = G.conjugacy_classes()
    for i in range(len(chars)):
        for j in range(i, len(chars)):
            s = CycloNum.zero()
            for cls in classes:
                a = chars[i].value(cls[0])
                if a.is_zero():
                    continue
                b = chars[j].value(cls[0])
                if b.is_zero():
                    continue
                s = s + a * b.conj() * len(cls)
            expected = G.order if i == j else 0
            if s != expected:
                ortho_ok = False
                failures.append(f"orthogonality failed for characters {i}, {j}: {s}")
    checks["orthogonality"] = ortho_ok

    sym_ok = True
    for idx, chi in enumerate(chars):
        for cls in classes:
            g = cls[0]
            if chi.value(G.inv(g)) != chi.value(g).conj():
                sym_ok = False
                failures.append(f"conjugate symmetry failed for character {idx} at {g}")
                break
    checks["conjugate_symmetry"] = sym_ok

    return TableReport(checks, failures)


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
    for cls in chi.G.conjugacy_classes():
        if chi.value(cls[0]).is_zero():
            out.extend(cls)
    return frozenset(out)


def element_label(g) -> str:
    a, h = g
    return ",".join(map(str, a)) + "|" + ",".join(map(str, h))


def export_chartable_csv(G: SemidirectGroup, chars, stream) -> None:
    """Rows = characters, two columns per conjugacy class: the exact
    coefficient list and a float approximation (the latter marked with a
    trailing ~)."""
    reps = [cls[0] for cls in G.conjugacy_classes()]
    w = csv.writer(stream)
    header = ["character", "degree"]
    for g in reps:
        label = element_label(g)
        header += [f"({label})", f"({label})~"]
    w.writerow(header)
    for idx, chi in enumerate(chars):
        row = [f"chi{idx}", chi.degree]
        for g in reps:
            row += cyclo_csv(chi.value(g))
        w.writerow(row)
