"""Orbits of multi-indices, exact dimensions of symmetry classes, Gram
matrices of decomposable symmetrized tensors, and the generalized matrix
function.

A multi-index is a tuple alpha = (alpha_1, ..., alpha_m) with entries in
1..n.  The group acts on the right through a permutation representation:
(alpha.g)_i = alpha_{sigma^{-1}(i)} with sigma the permutation of g, so that
(alpha.g).h = alpha.(g h).  Orbit scans walk the mixed-radix encoding of
Gamma_{m,n} in increasing order, which makes every representative lex-min
and every report reproducible.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import eq

from .cyclotomic import (CycloNum, _cyclotomic_root_mod, _images_mod, _integral_terms,
                         _interned, _weighted_sum)
from .errors import BudgetError, ConsistencyError
from .groups import PermRep, SemidirectGroup, count_text, perm_cycle_count

__all__ = [
    "DEFAULT_INDEX_BUDGET",
    "OrbitRecord",
    "GramMatrix",
    "index_from_code",
    "act",
    "stabilizer",
    "cycle_count",
    "orbit_scan",
    "dim_symmetry_class",
    "coset_sums",
    "inner_product",
    "coset_transversal",
    "gram",
    "cyclo_rank",
    "explicit_symmetrized_tensor",
    "tensor_inner",
    "generalized_matrix_function",
    "export_orbits_csv",
]

DEFAULT_INDEX_BUDGET = 10**7
# the least byte budget of the orbit walk's chunk table (see _low_chunk_size)
_CHUNK_TABLE_CAP = 1 << 20
# cyclo_rank's primes are the first ones = 1 (mod N) past this floor
_RANK_PRIME_FLOOR = 1 << 24


def index_from_code(code: int, m: int, n: int):
    out = []
    for _ in range(m):
        code, r = divmod(code, n)
        out.append(r + 1)
    return tuple(reversed(out))


def _require_same_group(G, rep=None, chi=None):
    """Refuse a representation or a character of another group.  Equal
    element tuples do not make groups equal: the products may differ."""
    if chi is not None and chi.G is not G:
        raise ValueError("character does not belong to this group")
    if rep is not None and rep.group is not G:
        raise ValueError("representation does not belong to this group")


def _require_degree_length(alpha, rep):
    """Refuse a multi-index whose length is not the degree of rep."""
    if len(alpha) != rep.degree:
        raise ValueError(
            f"multi-index length {len(alpha)} does not match degree {rep.degree}"
        )


def act(alpha, g, rep: PermRep):
    """Right action: entry i of the result is alpha at sigma^{-1}(i), so
    alpha_j moves to position sigma(j), read from sigma = rep.perm(g)."""
    _require_degree_length(alpha, rep)
    out = [None] * len(alpha)
    for i, a in zip(rep.perm(g), alpha):
        out[i] = a
    return tuple(out)


def stabilizer(alpha, G: SemidirectGroup, rep: PermRep):
    """G_alpha as the ascending tuple of its element codes (G.elements()[c]
    recovers the element): g fixes alpha iff alpha[sigma(j)] == alpha[j]
    for every j, tested on sigma = rep.perms[c] without building the
    image."""
    _require_same_group(G, rep)
    _require_degree_length(alpha, rep)
    at = alpha.__getitem__
    return tuple(
        c for c, p in enumerate(rep.perms) if all(map(eq, map(at, p), alpha))
    )


def cycle_count(g, rep: PermRep) -> int:
    """Cycles of the permutation of g, fixed points included."""
    return perm_cycle_count(rep.perm(g))


@dataclass(slots=True)
class OrbitRecord:
    """One orbit of Gamma_{m,n}: lex-min representative, size, stabilizer
    (ascending element codes; G.elements()[c] recovers the element), the
    stabilizer character sum, whether the orbit survives into Delta-bar,
    and the orbital dimension s_alpha."""

    rep: tuple
    orbit_size: int
    stabilizer: tuple
    stab_char_sum: CycloNum
    in_delta_bar: bool
    s_alpha: int


def _require_positive_n(n):
    """Refuse an alphabet size n that is not a positive int."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n = {n!r} is not a positive integer")


def _orbits(G, rep, m, n, index_budget):
    """(lex-min alpha, orbit size, stabilizer) for every orbit of
    Gamma_{m,n} in ascending code order: the list cached on rep per (m, n)
    by a finished walk, else a fresh _walk_orbits.  Refuses an n that is
    not a positive int, an m other than rep.degree and an n^m above the
    index budget (at most DEFAULT_INDEX_BUDGET) before walking."""
    _require_positive_n(n)
    if m != rep.degree:
        raise ValueError(
            f"m = {m} does not match the representation degree {rep.degree}; "
            f"pass rep.extended(m) to pad"
        )
    index_budget = min(index_budget, DEFAULT_INDEX_BUDGET)
    total = n**m
    if total > index_budget:
        raise BudgetError(
            f"orbit scan refused: n^m = {count_text(total)} exceeds the "
            f"index budget {index_budget}"
        )
    cache = vars(rep).setdefault("_orbit_cache", {})
    parts = cache.get((m, n))
    return _walk_orbits(G, rep, m, n, cache) if parts is None else parts


def _walk_orbits(G, rep, m, n, cache):
    """Yield the orbits as _orbits lists them.  On the way, cache gets
    ("alpha", n), the first alpha with trivial stabilizer (None if there is
    none), before that orbit is yielded; at the end, ("profiles", m, n),
    each orbit's profile id and the distinct profiles with their first
    alphas, and (m, n), the list, so a caller may stop early.

    Letter alpha_j at position j moves to position sigma_g(j), sigma_g =
    rep.perms[code(g)], so the code of alpha.g is the sum over j of
    (alpha_j - 1) n^(m-1-sigma_g(j)).  Those terms are packed in
    element-code order as 4-byte fields of one int, units[j] holding the
    terms for letter 2; no field carries into the next, since each sums to
    an image code below n^m <= DEFAULT_INDEX_BUDGET < 2^32.  A code splits
    as hi, lo = divmod(code, n^k), k = _low_chunk_size(m, n, |G|): a table
    lists, for every lo, the last k letters and the sum of their packed
    terms, and the first m - k letters and their sum are decoded only when
    hi changes, which happens at most n^(m-k) times since representatives
    ascend.  So alpha is the concatenation and its image codes under all
    of G the sum of two parts.  An orbit is read off that sum: its distinct
    codes, and its stabilizer as the element codes whose image code is
    alpha's own.  The next representative is the next unvisited code.  A
    finished walk checks, before caching, that |G| times its orbit count is
    the sum of _class_weights (Burnside's lemma).
    """
    total = n**m
    units = [
        int.from_bytes(
            b"".join((n ** (m - 1 - p[j])).to_bytes(4, sys.byteorder)
                     for p in rep.perms),
            sys.byteorder,
        )
        for j in range(m)
    ]
    k = _low_chunk_size(m, n, G.order)
    low_letters, low_images = [()], [0]
    for u in units[m - k:]:
        terms = [d * u for d in range(n)]
        low_letters = [t + (d,) for t in low_letters for d in range(1, n + 1)]
        low_images = [x + w for x in low_images for w in terms]
    high_units = units[: m - k]
    radix = n**k
    nbytes = 4 * G.order
    class_of = G.class_of
    visited = bytearray(total)
    parts = []
    by_stab = {}  # stabilizer -> (that tuple, profile id)
    profiles = {}  # profile -> (id, first alpha)
    ids = []
    last_hi = None
    code = 0
    while code >= 0:
        hi, lo = divmod(code, radix)
        if hi != last_hi:
            last_hi = hi
            high_alpha = index_from_code(hi, m - k, n)
            high_images = sum((a - 1) * u for a, u in zip(high_alpha, high_units))
        alpha = high_alpha + low_letters[lo]
        codes = memoryview(
            (high_images + low_images[lo]).to_bytes(nbytes, sys.byteorder)
        ).cast("I").tolist()
        orbit = set(codes)
        stab = tuple(compress(range(G.order), map(code.__eq__, codes)))
        for c in orbit:
            visited[c] = 1
        if len(orbit) * len(stab) != G.order:
            raise ConsistencyError("orbit-stabilizer count failed on Gamma_{m,n}")
        known = by_stab.get(stab)
        if known is None:
            profile = tuple(sorted(Counter(map(class_of.__getitem__, stab)).items()))
            i = profiles.setdefault(profile, (len(profiles), alpha))[0]
            known = by_stab[stab] = (stab, i)
            if len(stab) == 1:
                cache[("alpha", n)] = alpha
        stab, i = known  # orbits with equal stabilizers share one tuple
        ids.append(i)
        parts.append((alpha, len(orbit), stab))
        yield parts[-1]
        code = visited.find(0, code + 1)
    if len(parts) * G.order != sum(_class_weights(G, rep, n)):
        raise ConsistencyError(
            f"the walk found {len(parts)} orbits of Gamma_{{m,n}}, not the "
            f"count Burnside's lemma gives"
        )
    cache.setdefault(("alpha", n), None)
    cache[("profiles", m, n)] = (ids, [(p, a) for p, (_, a) in profiles.items()])
    cache[(m, n)] = parts


def _low_chunk_size(m, n, order):
    """The number k of last positions whose letters _walk_orbits tabulates:
    the largest k <= ceil(m/2) whose n^k packed sums, of 4 * order bytes
    each, take at most max(n^m, _CHUNK_TABLE_CAP) bytes, the larger of the
    walk's visited array and a fixed floor.  k = 0, a table of one sum,
    always fits, since the floor holds 4 * ELEMENT_CAP bytes."""
    budget = max(n**m, _CHUNK_TABLE_CAP)
    k = (m + 1) // 2
    while k and n**k * 4 * order > budget:
        k -= 1
    return k


def _orbit_partition(G, rep, m, n, index_budget):
    """Every orbit of Gamma_{m,n} as _orbits lists it, walked to the end:
    the list cached on rep itself, not a copy."""
    for _ in _orbits(G, rep, m, n, index_budget):
        pass
    return rep._orbit_cache[(m, n)]


def _trivial_stabilizer_alpha(G, rep, n, index_budget):
    """The first alpha with trivial stabilizer in Gamma_{degree,n}, or None:
    the entry a walk records on rep, walking only until it exists."""
    orbits = _orbits(G, rep, rep.degree, n, index_budget)
    key = ("alpha", n)
    if key not in rep._orbit_cache:
        for _ in orbits:
            if key in rep._orbit_cache:
                break
    return rep._orbit_cache[key]


def orbit_scan(G, rep, chi, m, n, index_budget=DEFAULT_INDEX_BUDGET):
    """One record per orbit of Gamma_{m,n}, covering it exactly; m must
    equal rep.degree (pass rep.extended(m) to pad).

    The orbit partition and every stabilizer's class profile (its sorted
    (class index, count) pairs) depend only on rep, and the orbit walk
    records both.  Each call computes the stabilizer character sum sum_C
    k_C chi(C), its checks and s_alpha once per distinct profile, at its
    first orbit, so an error names the first failing orbit in scan order;
    |G_alpha| is the sum of the counts, so this is exact.
    """
    return _scan_records(*_profile_scan(G, rep, chi, m, n, index_budget))


def _profile_scan(G, rep, chi, m, n, index_budget=DEFAULT_INDEX_BUDGET):
    """orbit_scan's work without its records: (parts, ids, values), the
    partition as _orbit_partition gives it, each orbit's class-profile id,
    and _profile_value of each profile, so orbit i has the stabilizer sum,
    Delta-bar membership and s_alpha values[ids[i]]."""
    _require_same_group(G, rep, chi)
    parts = _orbit_partition(G, rep, m, n, index_budget)
    ids, profiles = rep._orbit_cache[("profiles", m, n)]
    return parts, ids, [_profile_value(chi, p, alpha) for p, alpha in profiles]


def _scan_records(parts, ids, values):
    """The OrbitRecords of a _profile_scan result, in scan order."""
    return [OrbitRecord(alpha, size, stab, s, in_delta_bar, s_alpha)
            for (alpha, size, stab), (s, in_delta_bar, s_alpha)
            in zip(parts, map(values.__getitem__, ids))]


def _profile_value(chi, profile, alpha):
    """(stabilizer character sum, in Delta-bar, s_alpha) for a stabilizer
    of the given class profile; alpha names the orbit in errors."""
    s = _weighted_sum([chi.values[c] for c, _ in profile], [k for _, k in profile])
    try:
        q = (s * Fraction(chi.degree, sum(k for _, k in profile))).as_fraction()
    except ValueError as exc:
        raise ConsistencyError(
            f"stabilizer character sum at {alpha} is not rational: {s}"
        ) from exc
    if q.denominator != 1 or q < 0:
        raise ConsistencyError(
            f"orbital dimension at {alpha} is {q}, not a nonnegative integer"
        )
    return s, not s.is_zero(), int(q)


def dim_symmetry_class(G, rep, chi, n) -> int:
    """chi(e)/|G| times the sum over the group of chi(g) n^(cycle count);
    must come out an exact nonnegative integer.  Both factors are class
    functions (conjugate permutations share a cycle type), so the sum runs
    over conjugacy classes with the weights _class_weights gives."""
    _require_same_group(G, rep, chi)
    _require_positive_n(n)
    weights = _class_weights(G, rep, n)
    total = _weighted_sum(chi.values, weights) * Fraction(chi.degree, G.order)
    try:
        q = total.as_fraction()
    except ValueError as exc:
        raise ConsistencyError(f"dimension value is not rational: {total}") from exc
    if q.denominator != 1 or q < 0:
        raise ConsistencyError(f"dimension value {q} is not a nonnegative integer")
    return int(q)


def _class_weights(G, rep, n):
    """|C| n^c(C) for each conjugacy class C, c(C) the cycle count of its
    permutations under rep, computed once per representation and cached on
    it.  The weights sum to |G| times the number of orbits of
    Gamma_{degree,n} (Burnside's lemma)."""
    classes = G.conjugacy_classes()
    cache = vars(rep).setdefault("_orbit_cache", {})
    if "cycles" not in cache:
        cache["cycles"] = [cycle_count(cls[0], rep) for cls in classes]
    return [len(cls) * n ** c for cls, c in zip(classes, cache["cycles"])]


def coset_sums(chi, G, stab) -> list:
    """The list, indexed by element code, whose entry at code(x) is the sum
    of chi(x h) over h in the subgroup stab, given as element codes (as
    stabilizer returns it; G.elements()[c] recovers the element).  The sum
    depends only on the classes that the left coset x stab meets, which
    the subgroup's coset table (see _coset_table) lists once per group, so
    it is summed from the class values once per distinct multiset of
    classes.  No group product is taken."""
    _require_same_group(G, chi=chi)
    return _coset_sums(chi.values, G, stab)


def _coset_sums(values, G, stab):
    """coset_sums of the class function with the given class values."""
    _, key_of, keys = _coset_table(G, stab)
    sums = [sum(map(values.__getitem__, key), CycloNum.zero()) for key in keys]
    return list(map(sums.__getitem__, key_of))


def _coset_table(G, stab):
    """(reps, key_of, keys) for the subgroup stab, given as ascending
    element codes: built by _build_coset_table on first use and cached on
    G, since it depends on neither the character nor the orbit."""
    table = G._coset_tables.get(stab)
    if table is None:
        table = G._coset_tables[stab] = _build_coset_table(G, stab)
    return table


def _build_coset_table(G, stab):
    """The coset table of stab: reps, the code of the least element of each
    right coset stab g, ascending; keys, each distinct sorted multiset of
    the classes that a left coset x stab meets, in order of first meeting;
    and key_of, with key_of[code(x)] the index in keys of x stab's.  The
    left coset's codes col(h)[code(x)] are read from the stabilizer's
    columns, and the right coset stab x^-1 is the set of their inverses."""
    cols = [G.col(h) for h in stab]
    class_of, inv = G.class_of, G.inv_code
    ids = {}
    key_of = [None] * G.order
    reps = []
    for x in range(G.order):
        if key_of[x] is None:
            coset = [col[x] for col in cols]
            i = ids.setdefault(tuple(sorted([class_of[y] for y in coset])), len(ids))
            for y in coset:
                key_of[y] = i
            reps.append(min(map(inv.__getitem__, coset)))
    reps.sort()
    # 2-byte ids: there are at most |G| / |stab| <= ELEMENT_CAP cosets
    return reps, array("H", key_of), list(ids)


def inner_product(alpha, g, chi, G, rep) -> CycloNum:
    """<e*_alpha, e*_{alpha.g}> = chi(e)/|G| times the sum of chi(g h) over
    the stabilizer of alpha."""
    _require_same_group(G, rep, chi)
    sums = coset_sums(chi, G, stabilizer(alpha, G, rep))
    return sums[G.code[g]] * Fraction(chi.degree, G.order)


def coset_transversal(alpha, G, rep):
    """Lex-min representative of each right coset of G_alpha, in ascending
    element-code order (one coset per orbit index)."""
    _require_same_group(G, rep)
    elems = G.elements()
    return [elems[g] for g in _coset_table(G, stabilizer(alpha, G, rep))[0]]


@dataclass(frozen=True)
class GramMatrix:
    """Exact Gram matrix of the symmetrized tensors over the right cosets
    of the stabilizer of one multi-index.  gram shares one per (character,
    stabilizer), so it is frozen; rank() certifies the rank on its first
    call and returns the stored int after that."""

    coset_reps: tuple
    entries: tuple
    _rank: int | None = field(default=None, init=False, repr=False, compare=False)

    def rank(self) -> int:
        if self._rank is None:
            object.__setattr__(self, "_rank", cyclo_rank(self.entries))
        return self._rank


def gram(alpha, chi, G, rep) -> GramMatrix:
    """Gram matrix of {e*_{alpha.sigma}} over coset representatives; alpha
    must lie in Delta-bar.  Entry (i, j) is chi(e)/|G| times the coset sum
    at code(r_j r_i^-1) = col(code(r_i^-1))[code(r_j)], summed from the
    scaled class values.  The representatives and the coset sums read the
    stabilizer's coset table, built once per group.

    The matrix depends only on chi and the stabilizer, so every alpha with
    one stabilizer gets the same GramMatrix, built on first use and cached
    on G, and its rank() is certified once.  The group checks run on every
    call; only Delta-bar stabilizers are cached, so an alpha outside
    Delta-bar misses the cache and is refused on every call."""
    _require_same_group(G, rep, chi)
    stab = stabilizer(alpha, G, rep)
    key = (stab, chi)
    gm = G._grams.get(key)
    if gm is not None:
        return gm
    scale = Fraction(chi.degree, G.order)
    sums = _coset_sums([v * scale for v in chi.values], G, stab)
    if sums[0].is_zero():  # code 0 is the identity
        raise ValueError(
            f"{alpha} is not in Delta-bar for this character; its symmetrized "
            f"tensor vanishes"
        )
    reps = _coset_table(G, stab)[0]
    inv = G.inv_code
    rows = tuple(
        tuple(sums[col[rj]] for rj in reps)
        for col in (G.col(inv[ri]) for ri in reps)
    )
    elems = G.elements()
    gm = G._grams[key] = GramMatrix(tuple(elems[r] for r in reps), rows)
    return gm


def cyclo_rank(rows) -> int:
    """Exact rank over the cyclotomic field, certified from images modulo
    prime ideals of Z[zeta_N]; no floating point, no sampling and no field
    inverse.  Rows of unequal length are refused.

    With N the lcm of the entries' conductors and D the lcm of their
    denominators, D M has entries in Z[zeta_N].  For a prime p = 1 (mod N)
    and w a root of Phi_N mod p, each unit k mod N gives a ring map
    zeta_N -> w^k onto F_p; their kernels are the phi(N) prime ideals above
    p, each of norm p.  r is the largest rank of an image over the ideals
    tried so far, first those above the least such p past 2^24, then above
    the next.  The loop stops when r = min(rows, cols) or when (prod p)^2 >
    (prod of the r+1 largest B_i)^phi(N), with one p per ideal tried and
    B_i = max(1, sum_j L1(D e_ij)^2), L1 the sum of the absolute
    coefficients.

    Proof that the rank is r.  A minor that vanishes over the field
    vanishes in every image, so r <= rank.  Suppose rank > r: then some
    (r+1)-minor x of D M is nonzero, and x lies in every ideal tried, since
    no image has rank above r.  Distinct prime ideals are coprime, so the
    product of their norms divides the norm N(x).  Every embedding sends a
    root of unity to the unit circle, so each row of x's submatrix has
    Euclidean length at most sqrt(B_i) there, and by Hadamard's inequality
    0 < |N(x)| <= (prod of the r+1 largest B_i)^(phi/2).  That contradicts
    the stopping test, so when the loop stops, rank = r.
    """
    M = [tuple(row) for row in rows]
    ncols = len(M[0]) if M else 0
    for i, row in enumerate(M):
        if len(row) != ncols:
            raise ValueError(f"row {i} has {len(row)} entries, row 0 has {ncols}")
    full = min(len(M), ncols)
    if not full:
        return 0
    vals, R = _interned(M)
    N = math.lcm(*(v.conductor for v in vals))
    terms = _integral_terms(vals, N)
    l1 = [sum(abs(c) for _, c in t) for t in terms]
    B = sorted((max(1, sum(l1[a] ** 2 for a in row)) for row in R), reverse=True)
    units = [k for k in range(N) if math.gcd(k, N) == 1]  # [0] when N = 1
    r = 0
    norms = 1
    bound = _RANK_PRIME_FLOOR
    while True:
        p, w = _cyclotomic_root_mod(N, bound)
        for k in units:
            image = _images_mod(terms, N, p, pow(w, k, p))
            r = max(r, _rank_mod_p([[image[a] for a in row] for row in R], p))
            norms *= p
            if r == full or norms**2 > math.prod(B[: r + 1]) ** len(units):
                return r
        bound = p


def _rank_mod_p(rows, p):
    """Rank over F_p of a matrix of residues mod p, by elimination."""
    rank = 0
    rows = [row for row in rows if any(row)]
    while rows:
        pivot = rows.pop()
        j = next(j for j, a in enumerate(pivot) if a)
        inv = pow(pivot[j], -1, p)
        pivot = [a * inv % p for a in pivot]
        rank += 1
        kept = []
        for row in rows:
            c = row[j]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, pivot)]
                if not any(row):
                    continue
            kept.append(row)
        rows = kept
    return rank


def explicit_symmetrized_tensor(alpha, chi, G, rep):
    """Coordinates of the symmetrized tensor of alpha in the standard tensor
    basis, as a sparse map {multi-index: exact value}.

    The coefficient of beta is chi(e)/|G| times the sum of chi(sigma) over
    {sigma : alpha.sigma^{-1} = beta}; the support stays inside the orbit of
    alpha, and the map is empty exactly when alpha falls outside Delta-bar.
    """
    _require_same_group(G, rep, chi)
    acc = {}
    for g in G.elements():
        v = chi.value(g)
        if v.is_zero():
            continue
        beta = act(alpha, G.inv(g), rep)
        prev = acc.get(beta)
        acc[beta] = v if prev is None else prev + v
    scale = Fraction(chi.degree, G.order)
    return {b: v * scale for b, v in acc.items() if not v.is_zero()}


def tensor_inner(u, v) -> CycloNum:
    """Coordinate-wise inner product of two sparse tensors, conjugate-linear
    in the first argument (the convention under which the closed-form
    stabilizer sums reproduce these values exactly)."""
    acc = CycloNum.zero()
    for b, x in u.items():
        y = v.get(b)
        if y is not None:
            acc = acc + x.conj() * y
    return acc


def generalized_matrix_function(M, chi, G, rep) -> CycloNum:
    """Sum over the group of chi(g) times the product of M[i][sigma(i)]."""
    _require_same_group(G, rep, chi)
    m = rep.degree
    if len(M) != m or any(len(row) != m for row in M):
        raise ValueError(f"expected an {m} x {m} matrix")
    Mc = [[CycloNum.coerce(x) for x in row] for row in M]
    total = CycloNum.zero()
    for p, c in zip(rep.perms, G.class_of):
        prod = None
        for i in range(m):
            e = Mc[i][p[i]]
            if e.is_zero():
                prod = None
                break
            prod = e if prod is None else prod * e
        if prod is not None:
            total = total + chi.values[c] * prod
    return total


def export_orbits_csv(records, stream) -> None:
    """Orbit report: representative, orbit size, stabilizer order, orbital
    dimension, Delta-bar membership."""
    import csv

    w = csv.writer(stream)
    w.writerow(["rep", "orbit_size", "stabilizer_order", "s_alpha", "in_delta_bar"])
    for r in records:
        w.writerow(
            [
                ",".join(map(str, r.rep)),
                r.orbit_size,
                len(r.stabilizer),
                r.s_alpha,
                int(r.in_delta_bar),
            ]
        )
