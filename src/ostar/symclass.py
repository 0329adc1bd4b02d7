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

import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import eq, getitem

from .cyclotomic import CycloNum, cyclo_json
from .errors import BudgetError, ConsistencyError
from .groups import PermRep, SemidirectGroup, element_json, perm_cycle_count

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
    """G_alpha as a tuple in element-code order: g fixes alpha iff
    alpha[sigma(j)] == alpha[j] for every j, tested on sigma = rep.perm(g)
    without building the image."""
    _require_same_group(G, rep)
    _require_degree_length(alpha, rep)
    at = alpha.__getitem__
    return tuple(
        g for g in G.elements() if all(map(eq, map(at, rep.perm(g)), alpha))
    )


def cycle_count(g, rep: PermRep) -> int:
    """Cycles of the permutation of g, fixed points included."""
    return perm_cycle_count(rep.perm(g))


@dataclass(slots=True)
class OrbitRecord:
    """One orbit of Gamma_{m,n}: lex-min representative, size, stabilizer,
    the stabilizer character sum, whether the orbit survives into
    Delta-bar, and the orbital dimension s_alpha."""

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
    index budget before walking."""
    _require_positive_n(n)
    if m != rep.degree:
        raise ValueError(
            f"m = {m} does not match the representation degree {rep.degree}; "
            f"pass rep.extended(m) to pad"
        )
    total = n**m
    if total > index_budget:
        raise BudgetError(
            f"orbit scan refused: n^m = {total} exceeds the index budget "
            f"{index_budget}"
        )
    cache = vars(rep).setdefault("_orbit_cache", {})
    parts = cache.get((m, n))
    return _walk_orbits(G, rep, m, n, cache) if parts is None else parts


def _walk_orbits(G, rep, m, n, cache):
    """Yield the orbits as _orbits lists them; the list goes into
    cache[(m, n)] only when the walk ends, so a caller may stop early.

    Letter alpha_j at position j moves to position sigma_g(j), sigma_g =
    rep.perm(g), so the code of alpha.g is the sum over j of
    (alpha_j - 1) n^(m-1-sigma_g(j)).  The column col[j][a] tabulates that
    term for the letter a over every g, packed in element order as
    fixed-width fields of one int, so the image codes of alpha under all of
    G are one sum of m ints.  No field carries into the next, since each
    sums to an image code below n^m.  An orbit is read off that sum: its
    distinct codes, and its stabilizer as the elements whose image code is
    alpha's own.  The next representative is the next unvisited code.
    """
    total = n**m
    elems = G.elements()
    perms = [rep.perm(g) for g in elems]
    fmt = "I" if total <= 1 << 32 else "Q"
    width = struct.calcsize(fmt)

    def packed(weights):
        return int.from_bytes(
            b"".join(w.to_bytes(width, sys.byteorder) for w in weights),
            sys.byteorder,
        )

    col = [
        (None,) + tuple(
            packed([(a - 1) * n ** (m - 1 - p[j]) for p in perms])
            for a in range(1, n + 1)
        )
        for j in range(m)
    ]
    nbytes = width * G.order
    visited = bytearray(total)
    parts = []
    code = 0
    while code >= 0:
        alpha = index_from_code(code, m, n)
        images = sum(map(getitem, col, alpha))
        codes = memoryview(images.to_bytes(nbytes, sys.byteorder)).cast(fmt).tolist()
        orbit = set(codes)
        stab = tuple(compress(elems, map(code.__eq__, codes)))
        for c in orbit:
            visited[c] = 1
        if len(orbit) * len(stab) != G.order:
            raise ConsistencyError("orbit-stabilizer count failed on Gamma_{m,n}")
        parts.append((alpha, len(orbit), stab))
        yield parts[-1]
        code = visited.find(0, code + 1)
    cache[(m, n)] = parts


def _orbit_partition(G, rep, m, n, index_budget):
    """Every orbit of Gamma_{m,n} as _orbits lists it, walked to the end:
    the list cached on rep itself, not a copy."""
    for _ in _orbits(G, rep, m, n, index_budget):
        pass
    return rep._orbit_cache[(m, n)]


def _class_profiles(G, rep, m, n, parts):
    """Profile ids per orbit of the partition and the distinct profiles in
    order of first occurrence.  A stabilizer's profile is its sorted
    (class index, count) pairs over the conjugacy classes it meets.  Cached
    with the partition, since no character enters it."""
    key = ("profiles", m, n)
    cached = rep._orbit_cache.get(key)
    if cached is not None:
        return cached
    class_index = G.class_index
    by_stab = {}
    index = {}
    ids = []
    for _, _, stab in parts:
        i = by_stab.get(stab)
        if i is None:
            counts = {}
            for h in stab:
                c = class_index(h)
                counts[c] = counts.get(c, 0) + 1
            profile = tuple(sorted(counts.items()))
            i = by_stab[stab] = index.setdefault(profile, len(index))
        ids.append(i)
    cached = (ids, list(index))
    rep._orbit_cache[key] = cached
    return cached


def orbit_scan(G, rep, chi, m, n, index_budget=DEFAULT_INDEX_BUDGET):
    """One record per orbit of Gamma_{m,n}, covering it exactly; m must
    equal rep.degree (pass rep.extended(m) to pad).

    The orbit partition and every stabilizer's class profile (how many
    elements it has in each conjugacy class) are independent of the
    character and cached on the representation.  Per call, the stabilizer
    character sum sum_C k_C chi(C), its rationality and integrality checks
    and s_alpha are computed once per distinct profile, at the first orbit
    that has it, and shared by the orbits with that profile; |G_alpha| is
    the sum of the counts, so this is exact.
    """
    _require_same_group(G, rep, chi)
    parts = _orbit_partition(G, rep, m, n, index_budget)
    ids, profiles = _class_profiles(G, rep, m, n, parts)
    values = [None] * len(profiles)
    records = []
    for (alpha, size, stab), i in zip(parts, ids):
        v = values[i]
        if v is None:
            v = values[i] = _profile_value(chi, profiles[i], len(stab), alpha)
        s, in_delta_bar, s_alpha = v
        records.append(OrbitRecord(alpha, size, stab, s, in_delta_bar, s_alpha))
    return records


def _profile_value(chi, profile, order, alpha):
    """(stabilizer character sum, in Delta-bar, s_alpha) for a stabilizer
    of the given class profile and order; alpha names the orbit in errors."""
    s = CycloNum.zero()
    for c, k in profile:
        s = s + chi.values[c] * k
    try:
        q = (s * Fraction(chi.degree, order)).as_fraction()
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
    over conjugacy classes weighted by class size."""
    _require_same_group(G, rep, chi)
    _require_positive_n(n)
    total = CycloNum.zero()
    for cls in G.conjugacy_classes():
        v = chi.value(cls[0])
        if not v.is_zero():
            total = total + v * (len(cls) * n ** cycle_count(cls[0], rep))
    total = total * Fraction(chi.degree, G.order)
    try:
        q = total.as_fraction()
    except ValueError as exc:
        raise ConsistencyError(f"dimension value is not rational: {total}") from exc
    if q.denominator != 1 or q < 0:
        raise ConsistencyError(f"dimension value {q} is not a nonnegative integer")
    return int(q)


def coset_sums(chi, G, stab) -> dict:
    """The map g -> sum of chi(g h) over h in the subgroup stab, for every
    g in G.  The sum depends only on the left coset g stab, so each coset
    is summed once: |G| character values in all."""
    _require_same_group(G, chi=chi)
    sums = {}
    for g in G.elements():
        if g not in sums:
            coset = [G.mul(g, h) for h in stab]
            acc = sum(map(chi.value, coset), CycloNum.zero())
            sums.update(dict.fromkeys(coset, acc))
    return sums


def inner_product(alpha, g, chi, G, rep) -> CycloNum:
    """<e*_alpha, e*_{alpha.g}> = chi(e)/|G| times the sum of chi(g h) over
    the stabilizer of alpha."""
    _require_same_group(G, rep, chi)
    stab = stabilizer(alpha, G, rep)
    return coset_sums(chi, G, stab)[g] * Fraction(chi.degree, G.order)


def coset_transversal(alpha, G, rep):
    """Lex-min representative of each right coset of G_alpha, in ascending
    element-code order (one coset per orbit index)."""
    _require_same_group(G, rep)
    seen = set()
    reps = []
    for g in G.elements():
        beta = act(alpha, g, rep)
        if beta not in seen:
            seen.add(beta)
            reps.append(g)
    return reps


@dataclass
class GramMatrix:
    """Exact Gram matrix of the symmetrized tensors over the right cosets
    of the stabilizer of one multi-index."""

    coset_reps: tuple
    entries: tuple

    def rank(self) -> int:
        return cyclo_rank(self.entries)

    def to_json(self):
        return {
            "coset_reps": [element_json(g) for g in self.coset_reps],
            "entries": [[cyclo_json(v) for v in row] for row in self.entries],
        }


def gram(alpha, chi, G, rep) -> GramMatrix:
    """Gram matrix of {e*_{alpha.sigma}} over coset representatives; alpha
    must lie in Delta-bar."""
    _require_same_group(G, rep, chi)
    sums = coset_sums(chi, G, stabilizer(alpha, G, rep))
    if sums[G.identity].is_zero():
        raise ValueError(
            f"{alpha} is not in Delta-bar for this character; its symmetrized "
            f"tensor vanishes"
        )
    reps = coset_transversal(alpha, G, rep)
    scale = Fraction(chi.degree, G.order)
    rows = tuple(
        tuple(sums[G.mul(rj, ri_inv)] * scale for rj in reps)
        for ri_inv in map(G.inv, reps)
    )
    return GramMatrix(tuple(reps), rows)


def cyclo_rank(rows) -> int:
    """Exact rank over the cyclotomic field: Gaussian elimination with
    explicit field inversion, no floating point anywhere."""
    M = [list(r) for r in rows]
    if not M:
        return 0
    nrows, ncols = len(M), len(M[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if not M[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        pivot_inv = M[rank][col].inv()
        prow = M[rank]
        for r in range(rank + 1, nrows):
            c = M[r][col]
            if c.is_zero():
                continue
            f = c * pivot_inv
            M[r] = [
                a if b.is_zero() else a - f * b for a, b in zip(M[r], prow)
            ]
        rank += 1
        if rank == nrows:
            break
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
    for g in G.elements():
        p = rep.perm(g)
        prod = None
        for i in range(m):
            e = Mc[i][p[i]]
            if e.is_zero():
                prod = None
                break
            prod = e if prod is None else prod * e
        if prod is not None:
            total = total + chi.value(g) * prod
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
