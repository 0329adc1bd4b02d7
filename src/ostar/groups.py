"""Finite abelian groups, their automorphisms, semidirect and wreath
products, permutation representations, and subgroup enumeration.

Elements of an abelian group are coordinate tuples; elements of a semidirect
product are (a, h) pairs of such tuples.  "Lex-min", coset representatives
and every other ordering are tuple order, which is the order of the
mixed-radix integer encoding (code, element_code) of the coordinates, so
results are reproducible bit for bit.

The element code of g is its position in SemidirectGroup.elements(), and
codes are the one representation of elements inside the kernel: G.code maps
elements to codes, G.inv_code and G.class_of are arrays over codes, and
G.col(y) is the column of right multiplication by y, built from the
component tables when first asked for and cached; no product table is
built.  PermRep.perms, stabilizers and enumerate_subgroups hold codes, and
G.elements()[c] recovers the element of code c.  (a, h) tuples are taken
and given only at the boundary: G.mul, G.inv, PermRep.perm, class_index.

Permutations are 0-based image tuples and compose left to right:
(p * q)(x) = q(p(x)).  With that convention the right action on
multi-indices satisfies (alpha.g).h = alpha.(g h).

Automorphisms, the action H -> Aut(A) and permutation representations are
tabulated from generator images at construction by one checked breadth-first
walk of the Cayley graph (_tabulate), the only homomorphism check: it refuses
images that do not induce a homomorphism.  The one exception is a wreath
product's block automorphisms: a permutation of coordinates is always an
automorphism, so those are tabulated directly.  Groups above ELEMENT_CAP are
refused (BudgetError) while they are built, before any table is made.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product

from .errors import BudgetError
from .cyclotomic import prime_factors

__all__ = [
    "ELEMENT_CAP",
    "SUBGROUP_CAP",
    "FAMILIES",
    "AbelianGroup",
    "Automorphism",
    "ActionHom",
    "SemidirectGroup",
    "PermRep",
    "WreathSpec",
    "build_wreath",
    "dihedral",
    "group_pq",
    "z_group",
    "regular_rep",
    "enumerate_subgroups",
    "multiplicative_order",
    "pmul",
    "pinv",
    "perm_cycle_count",
    "count_text",
    "refuse_above_cap",
]

ELEMENT_CAP = 2000   # hard cap for element enumeration
SUBGROUP_CAP = 200   # hard cap for subgroup-lattice enumeration


def count_text(x):
    """The positive int x in decimal, or "at least 2^k" when it is too long
    for the interpreter's int-to-decimal limit, for refusal messages."""
    try:
        return str(x)
    except ValueError:
        return f"at least 2^{x.bit_length() - 1}"


def refuse_above_cap(order):
    """Raise BudgetError if a group of this order is above ELEMENT_CAP."""
    if order > ELEMENT_CAP:
        raise BudgetError(
            f"refusing to enumerate a group of order {count_text(order)} "
            f"(cap {ELEMENT_CAP})"
        )


# -- permutation helpers ------------------------------------------------------


def pmul(p, q):
    """Compose left to right: apply p, then q."""
    return tuple(q[i] for i in p)


def pinv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_cycle_count(p) -> int:
    """Number of cycles, fixed points included."""
    seen = [False] * len(p)
    count = 0
    for i in range(len(p)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
    return count


def _is_perm(p, degree):
    return len(p) == degree and sorted(p) == list(range(degree))


def _tabulate(identity, mul, edges, start, compose):
    """Tabulate the homomorphism that sends each generator s to v_s, for
    (s, v_s) in edges, or return None if there is none.

    The walk goes over the Cayley graph breadth-first from identity, along
    the edges x -> mul(x, s).  The first visit of x s sets value(x s) =
    compose(value(x), v_s), with value(identity) = start; every later visit
    compares.  That covers every edge, so the result is None exactly when
    the v_s do not extend to a homomorphism; otherwise it is a dict from
    each element to its value.
    """
    values = {identity: start}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            vx = values[x]
            for s, vs in edges:
                y = mul(x, s)
                vy = compose(vx, vs)
                known = values.get(y)
                if known is None:
                    values[y] = vy
                    nxt.append(y)
                elif known != vy:
                    return None
        frontier = nxt
    return values


# -- abelian groups -----------------------------------------------------------


class AbelianGroup:
    """Z_{n_1} x ... x Z_{n_k}, presented by its cyclic factor list."""

    def __init__(self, factors):
        factors = tuple(int(n) for n in factors)
        if any(n < 1 for n in factors):
            raise ValueError(f"cyclic factors must be >= 1, got {list(factors)}")
        self.factors = factors
        self.order = math.prod(factors)
        self.exponent = math.lcm(*factors) if factors else 1
        self.identity = (0,) * len(factors)
        self._elements = None

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"AbelianGroup({list(self.factors)})"

    def elements(self):
        if self._elements is None:
            refuse_above_cap(self.order)
            self._elements = tuple(iter_product(*(range(n) for n in self.factors)))
        return self._elements

    def contains(self, a):
        return len(a) == len(self.factors) and all(
            0 <= x < n for x, n in zip(a, self.factors)
        )

    def code(self, a) -> int:
        c = 0
        for x, n in zip(a, self.factors):
            c = c * n + x
        return c

    def add(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def neg(self, a):
        return tuple((-x) % n for x, n in zip(a, self.factors))

    def translation_codes(self, b):
        """The codes of a + b for every a, in code order."""
        out = [0]
        for y, n in zip(b, self.factors):
            shifted = [(x + y) % n for x in range(n)]
            out = [c * n + x for c in out for x in shifted]
        return out

    def mul_scalar(self, c, a):
        return tuple((c * x) % n for x, n in zip(a, self.factors))

    def order_of(self, a) -> int:
        o = 1
        for x, n in zip(a, self.factors):
            o = math.lcm(o, n // math.gcd(n, x))
        return o

    def generators(self):
        gens = []
        for i, n in enumerate(self.factors):
            g = [0] * len(self.factors)
            g[i] = 1 % n
            gens.append(tuple(g))
        return tuple(gens)


class Automorphism:
    """Automorphism of an abelian group, given by generator images and
    tabulated at construction by one checked walk of the Cayley graph.

    The walk refuses images that do not extend to a homomorphism;
    bijectivity is checked on the table.
    """

    def __init__(self, group: AbelianGroup, gen_images):
        self.group = group
        self.gen_images = tuple(tuple(v) for v in gen_images)
        if len(self.gen_images) != len(group.factors):
            raise ValueError(
                f"expected {len(group.factors)} generator images, "
                f"got {len(self.gen_images)}"
            )
        for i, img in enumerate(self.gen_images):
            if not group.contains(img):
                raise ValueError(f"generator image {i} = {img} is not in {group}")
        group.elements()  # refuses groups above ELEMENT_CAP
        self._map = _tabulate(
            group.identity, group.add,
            tuple(zip(group.generators(), self.gen_images)),
            group.identity, group.add,
        )
        if self._map is None:
            raise ValueError(
                f"generator images do not extend to a homomorphism of {group}"
            )
        if len(set(self._map.values())) != group.order:
            raise ValueError("generator images do not define a bijection")

    @classmethod
    def _from_table(cls, group, gen_images, table):
        """An automorphism whose table is known to be one, without the walk."""
        aut = cls.__new__(cls)
        aut.group, aut.gen_images, aut._map = group, tuple(gen_images), table
        return aut

    def apply(self, a):
        return self._map[a]

    def __repr__(self):
        return f"Automorphism({self.group!r}, {self.gen_images})"


class ActionHom:
    """Homomorphism H -> Aut(A), by automorphism images of the standard
    generators of H.

    Construction refuses |A| * |H| above ELEMENT_CAP (BudgetError), then
    tabulates a -> phi_h(a) for every h by one checked walk of the Cayley
    graph of H, phi_{h s} = phi_h o phi_s.  The walk checks every edge, so
    the images are refused (ValueError) exactly when they do not induce a
    homomorphism.
    """

    def __init__(self, H: AbelianGroup, A: AbelianGroup, images):
        self.H, self.A = H, A
        self.images = tuple(images)
        if len(self.images) != len(H.factors):
            raise ValueError(
                f"expected {len(H.factors)} automorphisms (one per generator "
                f"of H), got {len(self.images)}"
            )
        for j, aut in enumerate(self.images):
            if not isinstance(aut, Automorphism) or aut.group != A:
                raise ValueError(f"image {j} is not an automorphism of {A!r}")
        refuse_above_cap(A.order * H.order)
        self._table = _tabulate(
            H.identity, H.add,
            tuple(zip(H.generators(), (aut._map for aut in self.images))),
            {a: a for a in A.elements()},
            lambda f, g: {a: f[b] for a, b in g.items()},
        )
        if self._table is None:
            raise ValueError(
                "automorphism images do not induce a homomorphism H -> Aut(A)"
            )

    @staticmethod
    def trivial(H: AbelianGroup, A: AbelianGroup) -> "ActionHom":
        identity = Automorphism(A, A.generators())
        return ActionHom(H, A, (identity,) * len(H.factors))

    def apply(self, h, a):
        return self._table[h][a]


# -- semidirect products ------------------------------------------------------


class SemidirectGroup:
    """G = A x|_phi H on pairs (a, h); immutable after construction.

    Multiplication: (a1, h1)(a2, h2) = (a1 + phi_{h1}(a2), h1 + h2), written
    additively in both abelian coordinates.  phi is an ActionHom, proved a
    homomorphism H -> Aut(A) when it was built, so nothing is re-checked.
    """

    def __init__(self, A, H, phi, origin="semidirect"):
        if phi.A != A or phi.H != H:
            raise ValueError("action does not match the given factors")
        self.A, self.H, self.phi = A, H, phi
        self.order = A.order * H.order
        self.identity = (A.identity, H.identity)
        self.origin = origin
        self.natural_rep = None
        self._elements = None
        self._classes = None
        self._class_of = None
        self._cols = {}
        self._coset_tables = {}  # symclass._coset_table, per subgroup
        self._char_table = None
        self._subgroups = None

    def __repr__(self):
        return (
            f"SemidirectGroup(A={list(self.A.factors)}, "
            f"H={list(self.H.factors)}, order={self.order}, origin={self.origin!r})"
        )

    def elements(self):
        if self._elements is None:
            refuse_above_cap(self.order)
            self._elements = tuple(
                (a, h) for a in self.A.elements() for h in self.H.elements()
            )
        return self._elements

    def element_code(self, g) -> int:
        return self.A.code(g[0]) * self.H.order + self.H.code(g[1])

    @cached_property
    def code(self):
        """Element -> code, its position in elements()."""
        return {g: c for c, g in enumerate(self.elements())}

    @cached_property
    def inv_code(self):
        """inv_code[code(g)] = code(g^-1)."""
        code = self.code
        return [code[self.inv(g)] for g in self.elements()]

    @property
    def class_of(self):
        """class_of[code(g)] = the index of g's class in conjugacy_classes()."""
        if self._class_of is None:
            self.conjugacy_classes()
        return self._class_of

    def col(self, y: int):
        """_column(y), built on first use and cached on the group."""
        col = self._cols.get(y)
        if col is None:
            col = self._cols[y] = self._column(y)
        return col

    def _column(self, y: int):
        """Right multiplication by the element of code y as an array of
        codes, col[code(x)] = code(x y); not cached.

        With y = (b, k), x = (a, h) has x y = (a + phi_h(b), h + k), so for
        each h the codes of x y over every a are one translation of A by
        phi_h(b), offset by the code of h + k: |H| action lookups and
        O(|G|) integer work, no group product."""
        b, k = self.elements()[y]  # refuses groups above ELEMENT_CAP
        H, hn = self.H, self.H.order
        col = [0] * self.order
        for j, h in enumerate(H.elements()):
            t = H.code(H.add(h, k))
            col[j::hn] = [
                c * hn + t for c in self.A.translation_codes(self.phi.apply(h, b))
            ]
        # 2-byte codes: ELEMENT_CAP is far below 2^16
        return array("H", col)

    def mul(self, g1, g2):
        a1, h1 = g1
        a2, h2 = g2
        return (self.A.add(a1, self.phi.apply(h1, a2)), self.H.add(h1, h2))

    def inv(self, g):
        a, h = g
        hi = self.H.neg(h)
        return (self.phi.apply(hi, self.A.neg(a)), hi)

    def generators(self):
        e_a, e_h = self.A.identity, self.H.identity
        return tuple((ga, e_h) for ga in self.A.generators()) + tuple(
            (e_a, gh) for gh in self.H.generators()
        )

    def is_abelian(self) -> bool:
        gens = self.generators()
        return all(
            self.mul(x, y) == self.mul(y, x) for x in gens for y in gens
        )

    def conjugacy_classes(self):
        """Classes as sorted tuples, listed by minimal representative; the
        identity class comes first.  Each class is found as the orbit of its
        minimal element under conjugation by the generators, x -> s^-1 x s,
        read on codes as inv[col_s[inv[col_s[x]]]]: four lookups per element
        and generator, no group product."""
        if self._classes is None:
            inv = self.inv_code
            cols = [self.col(self.element_code(s)) for s in self.generators()]
            elems = self.elements()
            class_of = [None] * self.order
            classes = []
            for g in range(self.order):
                if class_of[g] is not None:
                    continue
                i = class_of[g] = len(classes)
                cls = [g]
                for x in cls:  # grows while it is walked
                    for col in cols:
                        y = inv[col[inv[col[x]]]]
                        if class_of[y] is None:
                            class_of[y] = i
                            cls.append(y)
                cls.sort()
                classes.append(tuple(map(elems.__getitem__, cls)))
            self._classes = tuple(classes)
            self._class_of = class_of
        return self._classes

    def class_index(self, g) -> int:
        return self.class_of[self.code[g]]


def element_json(g):
    """An element (a, h) of a semidirect product as [[a...], [h...]]."""
    a, h = g
    return [list(a), list(h)]


# -- permutation representations ----------------------------------------------


class PermRep:
    """Permutation representation of a semidirect product, by 0-based image
    permutations of the standard generators of A and of H.

    perms[c] is the permutation of the element of code c.  Construction
    tabulates perms[code(x s)] = perms[code(x)] perm(s) by one checked walk
    of the Cayley graph of G over its standard generators, read on codes
    through the generators' columns, so the images are refused (ValueError)
    exactly when they do not induce a homomorphism.  Groups above
    ELEMENT_CAP are refused with BudgetError, as by every element
    enumeration.
    """

    def __init__(self, group, a_images, h_images, kind="explicit", degree=None):
        self.group = group
        self.a_images = tuple(tuple(p) for p in a_images)
        self.h_images = tuple(tuple(p) for p in h_images)
        self.kind = kind
        degrees = {len(p) for p in self.a_images + self.h_images}
        if degree is not None:
            degrees.add(degree)
        if not degrees:
            raise ValueError("degree cannot be inferred without generator images")
        if len(degrees) != 1:
            raise ValueError("generator images have mixed degrees")
        self.degree = degrees.pop()
        for p in self.a_images + self.h_images:
            if not _is_perm(p, self.degree):
                raise ValueError(f"{p} is not a permutation of 0..{self.degree - 1}")
        if len(self.a_images) != len(group.A.factors):
            raise ValueError("wrong number of A-generator images")
        if len(self.h_images) != len(group.H.factors):
            raise ValueError("wrong number of H-generator images")
        group.elements()  # refuses groups above ELEMENT_CAP, like any enumeration
        # uncached columns: building a representation caches none on G
        cols = [group._column(group.element_code(s)) for s in group.generators()]
        perm_of = _tabulate(
            0, lambda x, col: col[x],
            tuple(zip(cols, self.a_images + self.h_images)),
            tuple(range(self.degree)), pmul,
        )
        if perm_of is None:
            raise ValueError("generator images do not induce a homomorphism")
        self.perms = list(map(perm_of.__getitem__, range(group.order)))

    def perm(self, g):
        return self.perms[self.group.code[g]]

    def is_faithful(self) -> bool:
        # code 0 is the identity
        return tuple(range(self.degree)) not in self.perms[1:]

    def extended(self, m: int) -> "PermRep":
        """The same representation padded with fixed points up to degree m;
        BudgetError, before any padding, if its |G| * m table entries exceed
        ELEMENT_CAP**2, the regular representation's at the largest order."""
        if m < self.degree:
            raise ValueError(f"cannot shrink degree {self.degree} to {m}")
        if m == self.degree:
            return self
        size = self.group.order * m
        if size > ELEMENT_CAP**2:
            raise BudgetError(
                f"refusing to pad a representation to degree {count_text(m)}: "
                f"|G| * m = {count_text(size)} table entries (cap {ELEMENT_CAP**2})"
            )
        pad = tuple(range(self.degree, m))
        return PermRep(
            self.group,
            tuple(p + pad for p in self.a_images),
            tuple(p + pad for p in self.h_images),
            kind=self.kind,
            degree=m,
        )


def regular_rep(G: SemidirectGroup) -> PermRep:
    """Right-translation representation on G's own elements in code order;
    faithful of degree |G|.  The image of a generator is its column."""
    images = [tuple(G._column(G.element_code(s))) for s in G.generators()]
    k = len(G.A.factors)
    return PermRep(G, images[:k], images[k:], kind="regular", degree=G.order)


# -- named constructions --------------------------------------------------------


def multiplicative_order(r: int, n: int) -> int:
    """Order of r in (Z/n)*; 0 if r is not a unit mod n."""
    if n == 1:
        return 1
    r %= n
    if math.gcd(r, n) != 1:
        return 0
    k, x = 1, r
    while x != 1:
        x = x * r % n
        k += 1
    return k


def _metacyclic(s: int, t: int, r: int, origin: str) -> SemidirectGroup:
    """C_s x| C_t with phi_b(a) = r a, carrying the affine degree-s
    representation (translate, then scale by r^-1) when r has multiplicative
    order t mod s > 1, and the regular representation otherwise."""
    A, H = AbelianGroup((s,)), AbelianGroup((t,))
    phi = ActionHom(H, A, (Automorphism(A, ((r % s,),)),))
    G = SemidirectGroup(A, H, phi, origin=origin)
    if s > 1 and multiplicative_order(r, s) == t:
        trans = tuple((x + 1) % s for x in range(s))
        rinv = pow(r, -1, s)
        scale = tuple(rinv * x % s for x in range(s))
        G.natural_rep = PermRep(G, (trans,), (scale,), kind="natural")
    else:
        G.natural_rep = regular_rep(G)
    return G


def dihedral(s: int) -> SemidirectGroup:
    """The dihedral group of order 2s as C_s x| C_2 with the inverting
    action, carrying its natural degree-s representation."""
    if s < 3:
        raise ValueError(f"dihedral requires s >= 3, got {s}")
    refuse_above_cap(2 * s)
    return _metacyclic(s, 2, -1, "dihedral")


def group_pq(p: int, q: int, r: int) -> SemidirectGroup:
    """The non-abelian group of order p*q as C_q x| C_p, where q is prime,
    p is a prime dividing q - 1 and r has multiplicative order exactly p
    mod q; carries its natural affine degree-q representation."""
    refuse_above_cap(p * q)
    if prime_factors(q) != (q,):
        raise ValueError(f"q = {q} is not prime")
    if prime_factors(p) != (p,):
        raise ValueError(f"p = {p} is not prime")
    if (q - 1) % p:
        raise ValueError(f"p = {p} does not divide q - 1 = {q - 1}")
    d = multiplicative_order(r, q)
    if d != p:
        raise ValueError(
            f"r = {r} must be a primitive root of z^{p} = 1 (mod {q}): its "
            f"multiplicative order mod {q} is {d}, not {p}"
        )
    return _metacyclic(q, p, r, "pq")


def z_group(s: int, t: int, r: int) -> SemidirectGroup:
    """C_s x| C_t with phi_b(a) = a^r, for gcd(s, t) = 1 and r^t = 1 (mod s),
    carrying the natural affine degree-s representation when it is faithful
    and the regular representation otherwise."""
    if s < 1 or t < 1:
        raise ValueError("s and t must be positive")
    refuse_above_cap(s * t)
    if math.gcd(s, t) != 1:
        raise ValueError(f"gcd(s, t) must be 1, got gcd({s}, {t}) = {math.gcd(s, t)}")
    if pow(r, t, s) != 1 % s:
        raise ValueError(
            f"r = {r} must satisfy r^{t} = 1 (mod {s}); got {pow(r, t, s)}"
        )
    return _metacyclic(s, t, r, "z_group")


# Named families: constructor and its integer parameter names, in call order.
FAMILIES = {
    "dihedral": (dihedral, ("s",)),
    "pq": (group_pq, ("p", "q", "r")),
    "z_group": (z_group, ("s", "t", "r")),
}


# -- wreath products -------------------------------------------------------------


@dataclass(frozen=True)
class WreathSpec:
    """A wr_Omega H: base group A, top group H, and an H-set Omega of the
    given size with the action recorded per H-generator as a 0-based
    permutation."""

    A: AbelianGroup
    H: AbelianGroup
    omega_size: int
    h_action: tuple[tuple[int, ...], ...]

    @staticmethod
    def regular(A: AbelianGroup, H: AbelianGroup) -> "WreathSpec":
        """Omega = H acting on itself by translation."""
        perms = tuple(tuple(H.translation_codes(gen)) for gen in H.generators())
        return WreathSpec(A, H, H.order, perms)


def _block_automorphism(K, k_a, sig):
    """The automorphism of K = A^Omega, with k_a coordinates per block,
    that moves block w to block sig[w].  A permutation of coordinates is
    always an automorphism of K, so its table is written down directly,
    without a walk of the Cayley graph of K."""
    pi = [v * k_a + i for v in sig for i in range(k_a)]
    source = pinv(pi)
    gens = K.generators()
    table = {k: tuple(map(k.__getitem__, source)) for k in K.elements()}
    return Automorphism._from_table(K, [gens[j] for j in pi], table)


def build_wreath(spec: WreathSpec) -> SemidirectGroup:
    """K x|_phi H with K = A^Omega (componentwise) and phi permuting the
    coordinates through the H-action on Omega; order |A|^|Omega| * |H|.

    Bundles the natural imprimitive representation on |A| * |Omega| points:
    each copy of A translates its own block, H permutes the blocks.

    h_action is checked by the walks that build phi (|A| > 1) and the
    natural representation (|A| = 1, where K is trivial).
    """
    A, H, om = spec.A, spec.H, spec.omega_size
    if om < 1:
        raise ValueError("Omega must be nonempty")
    refuse_above_cap(A.order ** om * H.order)
    if len(spec.h_action) != len(H.factors):
        raise ValueError(
            f"expected {len(H.factors)} Omega-permutations (one per generator "
            f"of H), got {len(spec.h_action)}"
        )
    for j, sig in enumerate(spec.h_action):
        if not _is_perm(sig, om):
            raise ValueError(f"h_action[{j}] is not a permutation of 0..{om - 1}")

    K = AbelianGroup(A.factors * om)
    aord = A.order
    degree = aord * om
    a_images = []
    for w in range(om):
        for gen in A.generators():
            p = list(range(degree))
            p[w * aord:(w + 1) * aord] = [w * aord + c for c in A.translation_codes(gen)]
            a_images.append(tuple(p))
    h_images = []
    for sig in spec.h_action:
        siginv = pinv(sig)
        p = [0] * degree
        for w in range(om):
            for x in range(aord):
                p[w * aord + x] = siginv[w] * aord + x
        h_images.append(tuple(p))
    try:
        phi = ActionHom(H, K, tuple(_block_automorphism(K, len(A.factors), sig)
                                    for sig in spec.h_action))
        G = SemidirectGroup(K, H, phi, origin="wreath")
        natural = PermRep(G, tuple(a_images), tuple(h_images), kind="natural")
    except ValueError:
        raise ValueError("h_action does not define an action of H on Omega") from None
    # an Omega-action with kernel makes the imprimitive action unfaithful;
    # the regular representation stands in then
    G.natural_rep = natural if natural.is_faithful() else regular_rep(G)
    return G


# -- subgroup enumeration ----------------------------------------------------------


def enumerate_subgroups(G: SemidirectGroup, bound: int = SUBGROUP_CAP):
    """The complete subgroup lattice as frozensets of element codes
    (G.elements()[c] recovers the element of code c), computed by
    prime-index extension from {e}: for a subgroup S and an element g that
    normalizes S with g^k in S for a least prime k, T = <S, g> is the union
    of the cosets S g^i, i < k.  A x|_phi H is metabelian, hence solvable,
    so every subgroup U != {e} has a normal subgroup S of prime index, and
    U = <S, g> for every g in U outside S: all subgroups are found.  Every
    element of T outside S gives T again, and whether g qualifies depends
    only on the coset S g, so both are skipped once seen.  Subgroups are
    sorted by order, then by sorted codes, which is sorted tuple order.

    Refuses loudly (never answers partially) when |G| exceeds the bound
    or SUBGROUP_CAP, whichever is lower, on every call; below it the
    lattice is computed once per group and cached on G.
    """
    bound = min(bound, SUBGROUP_CAP)
    if G.order > bound:
        raise BudgetError(
            f"subgroup enumeration refused: |G| = {G.order} exceeds bound {bound}"
        )
    if G._subgroups is None:
        G._subgroups = _subgroup_lattice(G)
    return G._subgroups


def _subgroup_lattice(G: SemidirectGroup):
    """enumerate_subgroups without the bound and the cache; every subgroup
    found is re-checked for closure under products and inverses.  The
    product x y is read as col(y)[x] and the inverse as inv_code[x]."""
    col, inv = G.col, G.inv_code
    gens_of = {frozenset((0,)): ()}  # code 0 is the identity
    queue = list(gens_of)
    for S in queue:  # grows while it is walked
        gens = gens_of[S]
        covered = set(S)
        for g in range(G.order):
            if g in covered:
                continue
            cg = col(g)
            covered.update(cg[s] for s in S)
            cgi = col(inv[g])
            if any(cgi[col(x)[g]] not in S for x in gens):
                continue
            k, power = 1, g
            while power not in S:
                power = cg[power]
                k += 1
            if prime_factors(k) != (k,):
                continue
            T = set(S)
            power = g
            for _ in range(1, k):
                cp = col(power)
                T.update(cp[s] for s in S)
                power = cg[power]
            covered |= T
            T = frozenset(T)
            if T not in gens_of:
                gens_of[T] = gens + (g,)
                queue.append(T)
    for S in gens_of:
        if not S.issuperset(map(inv.__getitem__, S)):
            raise AssertionError("subgroup closure failed under inverses")
        for y in S:
            if not S.issuperset(map(col(y).__getitem__, S)):
                raise AssertionError("subgroup closure failed under products")
    return tuple(sorted(gens_of, key=lambda S: (len(S), sorted(S))))
