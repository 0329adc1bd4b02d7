"""Multi-index orbits, dimensions, inner products, Gram matrices.

The load-bearing oracle here is explicit_symmetrized_tensor: tensors are
materialized coordinate-wise in the standard basis and their inner products
recomputed directly, then compared against the closed-form stabilizer sums.
"""

import copy
import dataclasses
import math
import random
import re
from fractions import Fraction
from itertools import permutations

import pytest

from ostar.cyclotomic import CycloNum, _cyclotomic_root_mod, root_of_unity
from ostar.errors import BudgetError, ConsistencyError
from ostar.groups import (
    AbelianGroup,
    ActionHom,
    PermRep,
    SemidirectGroup,
    dihedral,
    group_pq,
    pinv,
    regular_rep,
    z_group,
)
from ostar import characters, cyclotomic, symclass
from ostar.characters import character_table
from ostar.decide import find_trivial_stabilizer_alpha
from ostar.symclass import (
    DEFAULT_INDEX_BUDGET,
    _RANK_PRIME_FLOOR,
    OrbitRecord,
    _orbit_partition,
    act,
    coset_sums,
    coset_transversal,
    cycle_count,
    cyclo_rank,
    dim_symmetry_class,
    explicit_symmetrized_tensor,
    generalized_matrix_function,
    gram,
    index_from_code,
    inner_product,
    orbit_scan,
    stabilizer,
    tensor_inner,
)
from test_acceptance import TABLE_SUITE, group as suite_group
from test_random_products import sample_groups


def trivial_group():
    T = AbelianGroup([1])
    return SemidirectGroup(T, T, ActionHom.trivial(T, T))


def element_by_perm(G, rep, perm):
    for g in G.elements():
        if rep.perm(g) == perm:
            return g
    raise LookupError(perm)


D6 = dihedral(3)
D6_REP = D6.natural_rep
D6_CHARS = character_table(D6).chars
CHI2 = D6_CHARS[2]


# -- the action ---------------------------------------------------------------


def index_code(alpha, n: int) -> int:
    c = 0
    for x in alpha:
        c = c * n + (x - 1)
    return c


def test_index_codes_roundtrip():
    for code in range(3**4):
        alpha = index_from_code(code, 4, 3)
        assert index_code(alpha, 3) == code


def test_act_examples():
    const = (2, 2, 2)
    for g in D6.elements():
        assert act(const, g, D6_REP) == const
    # sigma = the 3-cycle 1 -> 2 -> 3 (the rotation generator)
    rot = element_by_perm(D6, D6_REP, (1, 2, 0))
    assert act((1, 2, 1), rot, D6_REP) == (1, 1, 2)
    # oracle: (alpha.sigma)_i = alpha_{sigma^{-1}(i)} chased by hand
    alpha = (1, 2, 1)
    sigma = (1, 2, 0)
    inv = {sigma[i]: i for i in range(3)}
    assert tuple(alpha[inv[i]] for i in range(3)) == (1, 1, 2)
    assert act((1, 2, 1), D6.identity, D6_REP) == (1, 2, 1)


def test_act_is_right_action():
    rng = random.Random(11)
    G = group_pq(3, 7, 2)
    rep = G.natural_rep
    els = G.elements()
    for _ in range(200):
        alpha = tuple(rng.randint(1, 3) for _ in range(7))
        g, h = rng.choice(els), rng.choice(els)
        assert act(act(alpha, g, rep), h, rep) == act(alpha, G.mul(g, h), rep)


def test_act_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        act((1, 2), D6.identity, D6_REP)


def reference_act(alpha, g, rep):
    """The former act, kept as the reference: alpha read through the
    inverse permutation, entry i = alpha at sigma^{-1}(i)."""
    if len(alpha) != rep.degree:
        raise ValueError(
            f"multi-index length {len(alpha)} does not match degree {rep.degree}"
        )
    return tuple(alpha[j] for j in pinv(rep.perm(g)))


def reference_stabilizer(alpha, G, rep):
    return tuple(g for g in G.elements() if reference_act(alpha, g, rep) == alpha)


def elements_of(G, codes):
    """The elements with the given codes, in the same order."""
    elems = G.elements()
    return tuple(elems[c] for c in codes)


def reference_coset_transversal(alpha, G, rep):
    seen = set()
    reps = []
    for g in G.elements():
        beta = reference_act(alpha, g, rep)
        if beta not in seen:
            seen.add(beta)
            reps.append(g)
    return reps


def reference_coset_sums(chi, G, stab):
    """The former coset_sums, kept as the reference: a dict from each
    element g to the sum of chi(g h) over h in stab, one left coset at a
    time by tuple products."""
    sums = {}
    for g in G.elements():
        if g not in sums:
            coset = [G.mul(g, h) for h in stab]
            acc = sum(map(chi.value, coset), CycloNum.zero())
            sums.update(dict.fromkeys(coset, acc))
    return sums


def reference_gram_entries(alpha, chi, G, rep):
    """The former gram's coset representatives and entries, kept as the
    reference: entry (i, j) is the coset sum at r_j r_i^-1 by tuple
    products."""
    sums = reference_coset_sums(chi, G, reference_stabilizer(alpha, G, rep))
    reps = reference_coset_transversal(alpha, G, rep)
    scale = Fraction(chi.degree, G.order)
    rows = tuple(
        tuple(sums[G.mul(rj, ri_inv)] * scale for rj in reps)
        for ri_inv in map(G.inv, reps)
    )
    return tuple(reps), rows


def action_cases():
    """(label, G, rep): the table suite's natural reps and the regular reps
    of order <= 12, each padded by 0, 1 and 2 fixed points."""
    suite = [(name, suite_group(name)) for name in TABLE_SUITE]
    bases = [(name, G, G.natural_rep) for name, G in suite]
    bases += [(f"{name}reg", G, regular_rep(G)) for name, G in suite if G.order <= 12]
    bases += [
        (f"random{seed}.{i}reg", G, regular_rep(G))
        for seed in (1, 2)
        for i, G in enumerate(sample_groups(seed, count=4, max_order=12))
    ]
    return [
        (f"{label}+{pad}", G, rep.extended(rep.degree + pad))
        for label, G, rep in bases
        for pad in (0, 1, 2)
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_action_matches_inverse_table_reference(n):
    rng = random.Random(n)
    for label, G, rep in action_cases():
        m = rep.degree
        if n**m <= 729:
            alphas = [index_from_code(code, m, n) for code in range(n**m)]
        else:
            alphas = [tuple(rng.randint(1, n) for _ in range(m)) for _ in range(40)]
        for alpha in alphas:
            for g in G.elements():
                assert act(alpha, g, rep) == reference_act(alpha, g, rep), (label, alpha, g)
            assert elements_of(G, stabilizer(alpha, G, rep)) == reference_stabilizer(
                alpha, G, rep), (label, alpha)
            assert coset_transversal(alpha, G, rep) == reference_coset_transversal(
                alpha, G, rep), (label, alpha)


def test_action_and_stabilizer_refuse_wrong_length_like_the_reference():
    for alpha in ((1, 2), (1, 2, 1, 1)):
        with pytest.raises(ValueError) as expected:
            reference_act(alpha, D6.identity, D6_REP)
        assert str(expected.value) == (
            f"multi-index length {len(alpha)} does not match degree 3")
        for call in (lambda: act(alpha, D6.identity, D6_REP),
                     lambda: stabilizer(alpha, D6, D6_REP)):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(expected.value)


# -- orbit scans --------------------------------------------------------------


def test_orbit_scan_trivial_group_singletons():
    T = trivial_group()
    rep = regular_rep(T)
    chi = character_table(T).chars[0]
    records = orbit_scan(T, rep, chi, 1, 4)
    assert len(records) == 4
    assert all(r.orbit_size == 1 for r in records)


def test_orbit_scan_d6_n2():
    records = orbit_scan(D6, D6_REP, CHI2, 3, 2)
    assert [r.rep for r in records] == [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]
    assert sum(r.orbit_size for r in records) == 8
    for r in records:
        assert r.orbit_size * len(r.stabilizer) == D6.order
    by_rep = {r.rep: r for r in records}
    # (1,1,1): full stabilizer, character sum 2 - 1 - 1 + 0 + 0 + 0 = 0
    assert by_rep[(1, 1, 1)].stab_char_sum.is_zero()
    assert not by_rep[(1, 1, 1)].in_delta_bar
    assert by_rep[(1, 1, 2)].in_delta_bar and by_rep[(1, 1, 2)].s_alpha == 2
    assert by_rep[(1, 2, 2)].in_delta_bar and by_rep[(1, 2, 2)].s_alpha == 2
    assert not by_rep[(2, 2, 2)].in_delta_bar


def test_orbit_scan_partition_property():
    G = group_pq(3, 7, 2)
    rep = G.natural_rep
    chi = character_table(G).chars[3]
    records = orbit_scan(G, rep, chi, 7, 2)
    assert sum(r.orbit_size for r in records) == 2**7
    assert all(r.orbit_size * len(r.stabilizer) == 21 for r in records)
    # representatives are lex-min within their orbit
    for r in records[:10]:
        orbit = {act(r.rep, g, rep) for g in G.elements()}
        assert min(orbit) == r.rep


def test_orbit_scan_budget_refusal():
    with pytest.raises(BudgetError):
        orbit_scan(D6, D6_REP, CHI2, 3, 2, index_budget=7)


def test_orbit_scan_budget_cannot_exceed_the_cap():
    # a caller's index budget above DEFAULT_INDEX_BUDGET is lowered to it:
    # 11^7 = 19487171 indices are refused before any walk
    with pytest.raises(BudgetError, match=r"n\^m = 19487171 exceeds the index "
                                          r"budget 10000000"):
        orbit_scan(D6, D6_REP.extended(7), CHI2, 7, 11, index_budget=10**9)


# -- dimensions -----------------------------------------------------------------


def test_dim_trivial_character_is_symmetric_power():
    # D_6 acts on 3 points as the full symmetric group
    chi0 = [c for c in D6_CHARS if all(
        c.value(g) == 1 for g in D6.elements())][0]
    for n in (1, 2, 3, 4):
        assert dim_symmetry_class(D6, D6_REP, chi0, n) == math.comb(n + 2, 3)


def test_dim_examples_d6():
    # term-by-term oracle at n=2: (2/6)(2*8 + 2*(-1)*2 + 3*0*4) = 4
    assert dim_symmetry_class(D6, D6_REP, CHI2, 2) == 4
    sign = [c for c in D6_CHARS if c.degree == 1
            and c.value(((0,), (1,))) == -1][0]
    # (1/6)(8 - 3*4 + 2*2) = 0
    assert dim_symmetry_class(D6, D6_REP, sign, 2) == 0
    assert dim_symmetry_class(D6, D6_REP, sign, 3) == 1


@pytest.mark.parametrize("n", [2, 3])
def test_dim_equals_orbital_sum(n):
    for G in (D6, group_pq(3, 7, 2)):
        rep = G.natural_rep
        for chi in character_table(G).chars:
            records = orbit_scan(G, rep, chi, rep.degree, n)
            assert dim_symmetry_class(G, rep, chi, n) == sum(
                r.s_alpha for r in records if r.in_delta_bar
            )


def test_linear_character_orbital_dimensions_in_01():
    for G in (D6, group_pq(3, 7, 2)):
        rep = G.natural_rep
        for chi in character_table(G).chars:
            if chi.degree != 1:
                continue
            for r in orbit_scan(G, rep, chi, rep.degree, 2):
                assert r.s_alpha in (0, 1)
                assert r.in_delta_bar == (r.s_alpha == 1)


def test_dim_rejects_broken_character():
    # lie at the rotation class; the exact result stops being integral
    with pytest.raises(ConsistencyError):
        dim_symmetry_class(D6, D6_REP, corrupted(CHI2, {2: 1}), 2)


@pytest.mark.parametrize("n", [2, 3])
def test_dim_matches_per_element_sum(n):
    # the class-weighted sum against chi(e)/|G| sum_g chi(g) n^c(g) over
    # every element, with chi evaluated directly rather than per class
    cases = [(name, suite_group(name)) for name in TABLE_SUITE]
    cases = [(name, G, G.natural_rep) for name, G in cases]
    cases += [
        (f"random{seed}.{i}", G, regular_rep(G))
        for seed in (1, 2)
        for i, G in enumerate(sample_groups(seed, count=4, max_order=12))
    ]
    for label, G, rep in cases:
        for chi in character_table(G).chars:
            total = CycloNum.zero()
            for g in G.elements():
                total = total + chi.value_uncached(g) * n ** cycle_count(g, rep)
            expected = total * Fraction(chi.degree, G.order)
            assert dim_symmetry_class(G, rep, chi, n) == expected, (label, n)


def test_dim_counts_each_class_cycles_once_per_rep(monkeypatch):
    # cycle counts depend only on the representation: across every character
    # and two alphabet sizes, one perm_cycle_count per conjugacy class
    G = dihedral(6)
    rep = regular_rep(G)
    chars = character_table(G).chars
    expected = []
    for n in (2, 3):
        for chi in chars:
            total = CycloNum.zero()
            for g in G.elements():
                total = total + chi.value(g) * n ** cycle_count(g, rep)
            expected.append(total * Fraction(chi.degree, G.order))
    calls = []
    count = symclass.perm_cycle_count

    def counting(p):
        calls.append(p)
        return count(p)

    monkeypatch.setattr(symclass, "perm_cycle_count", counting)
    dims = [dim_symmetry_class(G, rep, chi, n) for n in (2, 3) for chi in chars]
    assert dims == expected
    assert len(calls) == len(G.conjugacy_classes())


def test_cycle_count_examples():
    D10 = dihedral(5)
    assert cycle_count(D10.identity, D10.natural_rep) == 5
    rot = element_by_perm(D6, D6_REP, (1, 2, 0))
    assert cycle_count(rot, D6_REP) == 1
    swap = element_by_perm(D6, D6_REP, (1, 0, 2))
    assert cycle_count(swap, D6_REP) == 2


# -- inner products ----------------------------------------------------------------


def coset_sum_cases():
    """(label, G, rep): the acceptance table suite's groups whose natural
    representation has degree <= 7, and the random sweep's groups under the
    regular representation it uses."""
    for name in TABLE_SUITE:
        G = suite_group(name)
        if G.natural_rep.degree <= 7:
            yield name, G, G.natural_rep
    for seed in (1, 2):
        for i, G in enumerate(sample_groups(seed, count=4, max_order=12)):
            yield f"random{seed}.{i}", G, regular_rep(G)


def test_coset_sums_match_stabilizer_loop():
    # coset_sums replaced this loop in gram, inner_product and the
    # brute-force oracle; values and conductors must match for every g
    checked = 0
    for label, G, rep in coset_sum_cases():
        chars = character_table(G).chars
        for n in (2, 3):
            stabs = {r.stabilizer for r in orbit_scan(G, rep, chars[0], rep.degree, n)}
            for stab in stabs:
                for chi in chars:
                    sums = coset_sums(chi, G, stab)
                    assert len(sums) == G.order, (label, n, stab)
                    for g in G.elements():
                        acc = CycloNum.zero()
                        for h in elements_of(G, stab):
                            acc = acc + chi.value(G.mul(g, h))
                        got = sums[G.code[g]]
                        assert got == acc and got.conductor == acc.conductor, (
                            label, n, stab, g)
                        checked += 1
    assert checked > 0


def test_inner_product_and_gram_match_tuple_references():
    # inner_product and gram read element codes; the former tuple loops
    # are the reference (coset_sums itself is pinned above)
    grams = 0
    for label, G, rep in coset_sum_cases():
        chars = character_table(G).chars
        for n in (2, 3):
            by_stab = {}
            for r in orbit_scan(G, rep, chars[0], rep.degree, n):
                by_stab.setdefault(r.stabilizer, r.rep)
            for stab, alpha in by_stab.items():
                for chi in chars:
                    ref = reference_coset_sums(chi, G, elements_of(G, stab))
                    scale = Fraction(chi.degree, G.order)
                    assert all(
                        inner_product(alpha, g, chi, G, rep) == ref[g] * scale
                        for g in G.elements()), (label, n, alpha)
                    if ref[G.identity].is_zero():
                        continue
                    gm = gram(alpha, chi, G, rep)
                    reps, rows = reference_gram_entries(alpha, chi, G, rep)
                    assert gm.coset_reps == reps, (label, n, alpha)
                    assert gm.entries == rows, (label, n, alpha)
                    assert [[v.conductor for v in row] for row in gm.entries] == [
                        [v.conductor for v in row] for row in rows], (label, n, alpha)
                    grams += 1
    assert grams > 0


def test_gram_ranks_match_tuple_reference():
    # the Gram ranks of every Delta-bar orbit of the README-sized groups,
    # against the rank of the reference entries and s_alpha
    for G in (dihedral(3), dihedral(5), group_pq(3, 7, 2)):
        rep = G.natural_rep
        for chi in character_table(G).chars:
            for r in orbit_scan(G, rep, chi, rep.degree, 2):
                if r.in_delta_bar:
                    _, rows = reference_gram_entries(r.rep, chi, G, rep)
                    assert gram(r.rep, chi, G, rep).rank() == cyclo_rank(rows) == r.s_alpha


def gram_cache_cases():
    """(label, G, rep): the table suite's natural reps, then a fresh D10
    under its natural rep, as the bench's Gram jobs build it, so its Gram
    cache starts empty."""
    for name in TABLE_SUITE:
        G = suite_group(name)
        yield name, G, G.natural_rep
    D10 = dihedral(5)
    yield "D10 bench", D10, D10.natural_rep


@pytest.mark.parametrize("n", [2, 3])
def test_gram_cache_matches_reference_at_every_orbit(n):
    # gram shares one matrix per (character, stabilizer); every Delta-bar
    # alpha is checked, not one per stabilizer.  The tuple reference
    # depends on alpha only through its stabilizer (the transversal's
    # cosets G_alpha g are the orbit's points alpha.g), so it is built once
    # per (reference stabilizer, character), and a matrix already compared
    # with that reference in full passes by identity
    checked = 0
    for label, G, rep in gram_cache_cases():
        stabs = {}
        for chi in character_table(G).chars:
            refs = {}
            for r in orbit_scan(G, rep, chi, rep.degree, n):
                if not r.in_delta_bar:
                    continue
                alpha = r.rep
                gm = gram(alpha, chi, G, rep)
                stab = stabs.get(alpha)
                if stab is None:
                    stab = stabs[alpha] = reference_stabilizer(alpha, G, rep)
                ref = refs.get(stab)
                if ref is None:
                    reps, rows = reference_gram_entries(alpha, chi, G, rep)
                    ref = refs[stab] = [reps, rows, cyclo_rank(rows), None]
                reps, rows, rank, seen = ref
                if gm is not seen:
                    assert gm.coset_reps == reps, (label, n, alpha)
                    assert gm.entries == rows, (label, n, alpha)
                    ref[3] = gm
                assert gm.rank() == rank == r.s_alpha, (label, n, alpha)
                checked += 1
    assert checked > 0


def test_gram_cache_contract(monkeypatch):
    G = dihedral(5)  # built here, so its Gram cache starts empty
    rep = G.natural_rep
    chars = character_table(G).chars
    chi, other_chi = chars[-1], chars[-2]
    assert chi.degree == other_chi.degree == 2
    by_stab = {}
    for r in orbit_scan(G, rep, chi, 5, 3):
        if r.in_delta_bar:
            by_stab.setdefault(r.stabilizer, []).append(r.rep)
    alpha, beta = next(a for a in by_stab.values() if len(a) > 1)[:2]

    # one object per (character, stabilizer), its rank certified once
    ranks = []
    monkeypatch.setattr(symclass, "cyclo_rank",
                        lambda rows: ranks.append(rows) or cyclo_rank(rows))
    gm = gram(alpha, chi, G, rep)
    assert gram(beta, chi, G, rep) is gm
    assert gm.rank() == gram(beta, chi, G, rep).rank() == cyclo_rank(gm.entries)
    assert len(ranks) == 1
    assert gram(alpha, other_chi, G, rep) is not gm
    for name in ("coset_reps", "entries"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(gm, name, ())

    # after a cache hit, a foreign representation or character is refused
    H = dihedral(5)
    with pytest.raises(ValueError, match="representation"):
        gram(alpha, chi, G, H.natural_rep)
    with pytest.raises(ValueError, match="character"):
        gram(alpha, character_table(H).chars[-1], G, rep)

    # an alpha outside Delta-bar is refused on every call, and its
    # stabilizer is never cached
    outside = (1, 1, 1, 1, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(str(outside))):
            gram(outside, chi, G, rep)
    assert (stabilizer(outside, G, rep), chi) not in G._grams

    # one matrix per distinct (stabilizer, character) asked for
    asked = {(s, chi) for s in by_stab}
    for alphas in by_stab.values():
        for a in alphas:
            gram(a, chi, G, rep)
    asked.add((stabilizer(alpha, G, rep), other_chi))
    assert set(G._grams) == asked


def orbit_scan_per_element(G, rep, chi, m, n):
    """orbit_scan as it was before stabilizer sums went by class profile:
    one character value per stabilizer element, summed in element order."""
    records = []
    for alpha, size, stab in _orbit_partition(G, rep, m, n, DEFAULT_INDEX_BUDGET):
        s = CycloNum.zero()
        for h in elements_of(G, stab):
            s = s + chi.value(h)
        q = (s * Fraction(chi.degree, len(stab))).as_fraction()
        records.append(OrbitRecord(alpha, size, stab, s, not s.is_zero(), int(q)))
    return records


@pytest.mark.parametrize("n", [2, 3])
def test_orbit_scan_matches_per_element_sums(n):
    cases = [(name, suite_group(name)) for name in TABLE_SUITE]
    cases = [(name, G, G.natural_rep) for name, G in cases]
    cases += [
        (f"random{seed}.{i}", G, regular_rep(G))
        for seed in (1, 2)
        for i, G in enumerate(sample_groups(seed, count=4, max_order=12))
    ]
    checked = 0
    for label, G, rep in cases:
        if n ** rep.degree > 20000:
            # F55 on 11 points and the regular reps of order 10 and 12 are
            # covered at n = 2 only
            continue
        for chi in character_table(G).chars:
            got = orbit_scan(G, rep, chi, rep.degree, n)
            want = orbit_scan_per_element(G, rep, chi, rep.degree, n)
            assert len(got) == len(want), (label, n)
            for r, w in zip(got, want):
                assert (r.rep, r.orbit_size, r.stabilizer) == (w.rep, w.orbit_size, w.stabilizer)
                assert r.stab_char_sum == w.stab_char_sum, (label, n, r.rep)
                assert r.stab_char_sum.conductor == w.stab_char_sum.conductor
                assert str(r.stab_char_sum) == str(w.stab_char_sum)
                assert (r.in_delta_bar, r.s_alpha) == (w.in_delta_bar, w.s_alpha)
                checked += 1
    assert checked > 0


def loop_dim_total(G, rep, chi, n):
    """dim_symmetry_class's class-weighted sum as it was before
    _weighted_sum, kept verbatim: one CycloNum product and sum per class."""
    total = CycloNum.zero()
    for cls in G.conjugacy_classes():
        c = cycle_count(cls[0], rep)
        v = chi.value(cls[0])
        if not v.is_zero():
            total = total + v * (len(cls) * n ** c)
    return total


def loop_root_sum(N, exponents):
    """characters._root_sum as it was before _weighted_sum, kept verbatim."""
    return sum((root_of_unity(N, e) for e in exponents), CycloNum.zero(N))


def loop_profile_sum(chi, profile):
    """_profile_value's stabilizer sum as it was before _weighted_sum, kept
    verbatim."""
    s = CycloNum.zero()
    for c, k in profile:
        s = s + chi.values[c] * k
    return s


def weighted_sum_rows(G):
    """Each character of G, then copies moved at some classes by 1/2, -3,
    zeta_3, minus the class value (a zero at the lcm of its conductor and
    5) and a mix of those: rows of mixed conductors and denominators."""
    k = len(G.conjugacy_classes())
    for chi in character_table(G).chars:
        cancel = -chi.values[k - 1] + CycloNum.zero(5)
        yield chi
        for t in (Fraction(1, 2), -3, root_of_unity(3, 1), cancel):
            yield corrupted(chi, {k - 1: t})
        yield corrupted(chi, {0: Fraction(1, 2), k // 2: root_of_unity(3, 1),
                              k - 1: cancel})


def test_weighted_sum_matches_cyclonum_loop():
    # _weighted_sum against the loops it replaced: equal value, conductor
    # and printed form for the dimension weights and every stabilizer
    # profile of the table suite's natural reps and the random sweep's
    # regular reps
    cases = [(name, suite_group(name)) for name in TABLE_SUITE]
    cases = [(name, G, G.natural_rep) for name, G in cases]
    cases += [
        (f"random{seed}.{i}", G, regular_rep(G))
        for seed in (1, 2)
        for i, G in enumerate(sample_groups(seed, count=4, max_order=12))
    ]
    checked = 0
    root_keys = {(1, ())}
    for label, G, rep in cases:
        classes = G.conjugacy_classes()
        root_keys.update(chi._exponents(cls[0]) for chi in character_table(G).chars
                         for cls in classes)
        cycles = [cycle_count(cls[0], rep) for cls in classes]
        profiles = [
            profile
            for n in (2, 3) if n ** rep.degree <= 20000
            for profile, _ in walk_profiles(G, rep, n)[1]
        ]
        for chi in weighted_sum_rows(G):
            for n in (2, 3):
                pairs = [(v, len(cls) * n ** c)
                         for cls, c, v in zip(classes, cycles, chi.values)
                         if not v.is_zero()]
                got = symclass._weighted_sum(*zip(*pairs))
                want = loop_dim_total(G, rep, chi, n)
                assert (got, got.conductor, str(got)) == (
                    want, want.conductor, str(want)), (label, n)
                checked += 1
            for profile in profiles:
                got = symclass._weighted_sum([chi.values[c] for c, _ in profile],
                                             [k for _, k in profile])
                want = loop_profile_sum(chi, profile)
                assert (got, got.conductor, str(got)) == (
                    want, want.conductor, str(want)), (label, profile)
                checked += 1
    for N, exponents in sorted(root_keys):
        got = characters._root_sum(N, exponents)
        want = loop_root_sum(N, exponents)
        assert (got, got.conductor, str(got)) == (
            want, want.conductor, str(want)), (N, exponents)
        checked += 1
    assert symclass._weighted_sum([], []) == 0
    assert checked > 0


def test_dimension_and_orbit_sums_intern_no_values(monkeypatch):
    # the dimension and stabilizer sums add each value's terms straight
    # into one integer vector: no call of _interned, through any binding
    calls = []
    interned = cyclotomic._interned

    def counting(rows):
        calls.append(1)
        return interned(rows)

    for module in (cyclotomic, characters, symclass):
        monkeypatch.setattr(module, "_interned", counting)
    summed = 0
    for name in TABLE_SUITE:
        G = suite_group(name)
        rep = G.natural_rep
        chars = character_table(G).chars
        calls.clear()
        for chi in chars:
            for n in (2, 3):
                dim_symmetry_class(G, rep, chi, n)
                summed += 1
                if n ** rep.degree <= 20000:
                    orbit_scan(G, rep, chi, rep.degree, n)
                    summed += 1
        assert not calls, name
    assert summed > 0


def test_inner_product_examples():
    alpha = (1, 1, 2)
    # alpha is in Delta-bar: norm squared is (2/6)(chi(e) + chi((12))) = 2/3
    norm = inner_product(alpha, D6.identity, CHI2, D6, D6_REP)
    assert norm == Fraction(2, 3)
    # sigma = (1 3): the reflection through position 2
    sig = element_by_perm(D6, D6_REP, (2, 1, 0))
    v = inner_product(alpha, sig, CHI2, D6, D6_REP)
    assert v == Fraction(-1, 3)
    # alpha with vanishing stabilizer sum: e*_alpha = 0
    assert inner_product((1, 1, 1), D6.identity, CHI2, D6, D6_REP).is_zero()


def test_inner_product_invariance():
    # <e*_{alpha s1}, e*_{alpha s2}> = <e*_alpha, e*_{alpha s2 s1^{-1}}>
    rng = random.Random(5)
    els = D6.elements()
    alpha = (1, 1, 2)
    t_alpha = explicit_symmetrized_tensor(alpha, CHI2, D6, D6_REP)
    assert t_alpha
    for _ in range(30):
        s1, s2 = rng.choice(els), rng.choice(els)
        lhs = tensor_inner(
            explicit_symmetrized_tensor(act(alpha, s1, D6_REP), CHI2, D6, D6_REP),
            explicit_symmetrized_tensor(act(alpha, s2, D6_REP), CHI2, D6, D6_REP),
        )
        rhs = inner_product(alpha, D6.mul(s2, D6.inv(s1)), CHI2, D6, D6_REP)
        assert lhs == rhs


# -- explicit tensors ----------------------------------------------------------------


def test_symmetrizer_on_two_letters():
    # S_2 on two positions, trivial character: the plain symmetrizer
    A, H = AbelianGroup([2]), AbelianGroup([1])
    G = SemidirectGroup(A, H, ActionHom.trivial(H, A))
    rep = regular_rep(G)
    chi0 = [c for c in character_table(G).chars
            if c.value(((1,), (0,))) == 1][0]
    t = explicit_symmetrized_tensor((1, 2), chi0, G, rep)
    assert t == {
        (1, 2): CycloNum.from_rational(Fraction(1, 2)),
        (2, 1): CycloNum.from_rational(Fraction(1, 2)),
    }


def test_tensor_outside_delta_bar_is_zero():
    assert explicit_symmetrized_tensor((1, 1, 1), CHI2, D6, D6_REP) == {}
    assert explicit_symmetrized_tensor((2, 2, 2), CHI2, D6, D6_REP) == {}


def test_tensor_support_within_orbit():
    t = explicit_symmetrized_tensor((1, 1, 2), CHI2, D6, D6_REP)
    orbit = {act((1, 1, 2), g, D6_REP) for g in D6.elements()}
    assert set(t) <= orbit


# -- gram matrices ---------------------------------------------------------------------


def is_hermitian(gm):
    n = len(gm.entries)
    return all(
        gm.entries[i][j] == gm.entries[j][i].conj()
        for i in range(n)
        for j in range(n)
    )


def test_gram_d6_example():
    gm = gram((1, 1, 2), CHI2, D6, D6_REP)
    assert len(gm.coset_reps) == 3
    assert all(gm.entries[i][i] == Fraction(2, 3) for i in range(3))
    for i in range(3):
        for j in range(3):
            if i != j:
                assert gm.entries[i][j] == Fraction(-1, 3)
    assert is_hermitian(gm)
    assert gm.rank() == 2


def test_gram_rejects_outside_delta_bar():
    with pytest.raises(ValueError):
        gram((1, 1, 1), CHI2, D6, D6_REP)


def test_gram_linear_character_rank_one():
    chi0 = D6_CHARS[0]
    gm = gram((1, 1, 2), chi0, D6, D6_REP)
    assert len(gm.coset_reps) == 3
    assert gm.rank() == 1


def test_gram_trivial_stabilizer_rank_is_degree_squared():
    gm = gram((1, 2, 3), CHI2, D6, D6_REP)
    assert len(gm.coset_reps) == 6
    assert gm.rank() == CHI2.degree ** 2 == 4


def test_gram_matches_explicit_tensor_oracle_d6():
    for n in (2, 3):
        for chi in D6_CHARS:
            records = orbit_scan(D6, D6_REP, chi, 3, n)
            for r in records:
                if not r.in_delta_bar:
                    continue
                gm = gram(r.rep, chi, D6, D6_REP)
                tensors = [
                    explicit_symmetrized_tensor(act(r.rep, g, D6_REP), chi, D6, D6_REP)
                    for g in gm.coset_reps
                ]
                for i in range(len(tensors)):
                    for j in range(len(tensors)):
                        assert gm.entries[i][j] == tensor_inner(tensors[i], tensors[j])
                assert gm.rank() == r.s_alpha


def test_orbit_scan_with_padded_rep():
    # embedding the degree-3 action into S_5 by fixed points: extra positions
    # never move, so they only multiply the orbit count
    rep5 = D6_REP.extended(5)
    records = orbit_scan(D6, rep5, CHI2, 5, 2)
    assert sum(r.orbit_size for r in records) == 2**5
    assert dim_symmetry_class(D6, rep5, CHI2, 2) == sum(
        r.s_alpha for r in records if r.in_delta_bar
    )


@pytest.mark.parametrize("m", [2, 4])
def test_orbit_scan_rejects_m_other_than_degree(m):
    # m = 4 failed the orbit-stabilizer count and m = 2 raised IndexError
    for scan in (lambda: orbit_scan(D6, D6_REP, CHI2, m, 2),
                 lambda: _orbit_partition(D6, D6_REP, m, 2, 10**7)):
        with pytest.raises(ValueError, match=rf"m = {m} .* degree 3"):
            scan()


@pytest.mark.parametrize("n", [0, -1, True, 2.0])
def test_orbit_scan_and_dimension_refuse_n_other_than_a_positive_int(n):
    # n = 0 raised ZeroDivisionError in the scan and gave dimension 0, and
    # n = -1 raised a bare ValueError("negative count")
    for call in (lambda: orbit_scan(D6, D6_REP, CHI2, 3, n),
                 lambda: _orbit_partition(D6, D6_REP, 3, n, 10**7),
                 lambda: dim_symmetry_class(D6, D6_REP, CHI2, n)):
        with pytest.raises(ValueError, match=rf"n = {n!r} is not a positive integer"):
            call()


def test_exact_rank_against_numeric_svd():
    # float oracle: the exact rank over the cyclotomic field must match the
    # numeric rank of the complex Gram matrix (entries are well separated
    # from zero at this scale)
    import numpy as np

    cases = [(D6, D6_REP, chi, n) for chi in D6_CHARS for n in (2, 3)]
    G21 = group_pq(3, 7, 2)
    chi21 = [c for c in character_table(G21).chars if c.degree == 3][0]
    cases.append((G21, G21.natural_rep, chi21, 2))
    for G, rep, chi, n in cases:
        for r in orbit_scan(G, rep, chi, rep.degree, n):
            if not r.in_delta_bar:
                continue
            gm = gram(r.rep, chi, G, rep)
            M = np.array(
                [[v.evalf() for v in row] for row in gm.entries], dtype=complex
            )
            numeric = int(np.linalg.matrix_rank(M, tol=1e-8))
            assert gm.rank() == numeric == r.s_alpha


def test_coset_transversal_counts():
    reps = coset_transversal((1, 1, 2), D6, D6_REP)
    assert len(reps) == 3
    assert reps[0] == D6.identity
    stab = stabilizer((1, 1, 2), D6, D6_REP)
    seen = set()
    for t in reps:
        coset = frozenset(D6.mul(h, t) for h in elements_of(D6, stab))
        assert min(coset, key=D6.element_code) == t  # lex-min representative
        seen.add(coset)
    assert len(seen) == 3


# -- exact rank --------------------------------------------------------------------------


def test_cyclo_rank_small_cases():
    one = CycloNum.from_rational(1)
    zero = CycloNum.zero()
    z5 = root_of_unity(5, 1)
    assert cyclo_rank([[zero, zero], [zero, zero]]) == 0
    # det = 1 - z5^2 != 0
    assert cyclo_rank([[one, z5], [z5, one]]) == 2
    # second row a zeta-multiple of the first: rank 1; same for the
    # conjugate-unit case since |z5| = 1 makes (z5bar, 1) = z5bar * (1, z5)
    assert cyclo_rank([[one, z5], [z5, z5 * z5]]) == 1
    assert cyclo_rank([[one, z5], [z5.conj(), one]]) == 1
    assert cyclo_rank([[one, one, one]]) == 1


def test_cyclo_rank_shapes():
    one = CycloNum.from_rational(1)
    zero = CycloNum.zero()
    assert cyclo_rank([]) == 0
    assert cyclo_rank([[]]) == 0
    assert cyclo_rank(iter([[one, zero], [zero, one]])) == 2
    assert cyclo_rank(row for row in [[one], [one]]) == 1
    with pytest.raises(ValueError, match="row 1"):
        cyclo_rank([[zero], [zero, one]])
    with pytest.raises(ValueError, match="row 1"):
        cyclo_rank([[one, one], [one]])
    with pytest.raises(ValueError, match="row 2"):
        cyclo_rank([[one], [one], []])


def reference_cyclo_rank(rows) -> int:
    """The former cyclo_rank, kept as the reference: Gaussian elimination
    with explicit field inversion, no floating point anywhere."""
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


def suite_gram_matrices():
    """(label, entries): every distinct Gram matrix of the table suite's
    natural reps at n = 2, 3 with n^m <= 20000 (a Gram matrix depends only
    on the character and the stabilizer, so one orbit per stabilizer
    stands for the others), then the Gram matrix of every Delta-bar orbit
    of D10's natural rep at n = 2 and 3, as the bench's Gram jobs take
    them."""
    for name in TABLE_SUITE:
        G = suite_group(name)
        rep = G.natural_rep
        for n in (2, 3):
            if n**rep.degree > 20000:
                continue
            for chi in character_table(G).chars:
                seen = set()
                for r in orbit_scan(G, rep, chi, rep.degree, n):
                    if r.in_delta_bar and r.stabilizer not in seen:
                        seen.add(r.stabilizer)
                        yield (name, n, r.rep), gram(r.rep, chi, G, rep).entries
    D10 = dihedral(5)
    rep = D10.natural_rep
    for n in (2, 3):
        for chi in character_table(D10).chars:
            for r in orbit_scan(D10, rep, chi, 5, n):
                if r.in_delta_bar:
                    yield ("D10 bench", n, r.rep), gram(r.rep, chi, D10, rep).entries


def random_cyclo(rng, conductor):
    """A random element of Q(zeta_conductor): small numerators, some zero,
    over a denominator in 1..4."""
    coeffs = [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(conductor)]
    return CycloNum.from_coeffs(conductor, [Fraction(c, rng.randint(1, 4)) for c in coeffs])


def random_low_rank_products(seed):
    """(label, rows): products A B of random r x k and k x c matrices, so of
    rank at most k; the entries of A are drawn at conductor a and those of
    B at b, so the product lives at lcm(a, b).  Shapes include k = 0 (the
    zero matrix), r = 0 and c = 0."""
    rng = random.Random(seed)
    conductors = [(a, a) for a in (1, 3, 4, 5, 7, 12, 21)]
    conductors += [(3, 4), (3, 7), (4, 5), (1, 21), (12, 21)]
    for a, b in conductors:
        for _ in range(4):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            k = rng.randint(0, min(r, c))
            A = [[random_cyclo(rng, a) for _ in range(k)] for _ in range(r)]
            B = [[random_cyclo(rng, b) for _ in range(c)] for _ in range(k)]
            rows = [
                [sum((A[i][t] * B[t][j] for t in range(k)), CycloNum.zero())
                 for j in range(c)]
                for i in range(r)
            ]
            yield (a, b, r, k, c), rows
    yield "empty", []
    yield "no columns", [[], [], []]


def test_cyclo_rank_matches_elimination_reference():
    checked = 0
    for label, rows in suite_gram_matrices():
        assert cyclo_rank(rows) == reference_cyclo_rank(rows), label
        checked += 1
    assert checked > 500
    ranks = set()
    for seed in (1, 2):
        for label, rows in random_low_rank_products(seed):
            rank = cyclo_rank(rows)
            assert rank == reference_cyclo_rank(rows), (seed, label)
            ranks.add(rank)
    assert {0, 1, 2, 3, 4} <= ranks


def test_cyclo_rank_takes_no_field_inverse_or_product(monkeypatch):
    D10 = dihedral(5)
    rep = D10.natural_rep
    chi = character_table(D10).chars[-1]
    mats = [(r.s_alpha, gram(r.rep, chi, D10, rep).entries)
            for r in orbit_scan(D10, rep, chi, 5, 3) if r.in_delta_bar]

    def refuse(*args):
        raise AssertionError("cyclo_rank took a CycloNum inverse or product")

    monkeypatch.setattr(CycloNum, "inv", refuse)
    monkeypatch.setattr(CycloNum, "__mul__", refuse)
    monkeypatch.setattr(CycloNum, "__rmul__", refuse)
    assert all(cyclo_rank(rows) == s for s, rows in mats)


def test_cyclo_rank_certificate_looks_past_the_first_ideal_and_prime():
    # p, w as cyclo_rank's first prime at conductor 5 gives them: the first
    # ideal sends zeta_5 to w, and every ideal above p contains p
    p, w = _cyclotomic_root_mod(5, _RANK_PRIME_FLOOR)
    one = CycloNum.from_rational(1)
    zero = CycloNum.zero()
    z5 = root_of_unity(5, 1)
    p5 = CycloNum.from_rational(p, 5)
    assert cyclo_rank([[z5 - w]]) == 1
    assert cyclo_rank([[p5]]) == 1
    assert cyclo_rank([[z5 * p]]) == 1
    assert cyclo_rank([[p5, zero], [zero, one]]) == 2
    # conductor 1: one ideal per prime
    p1, _ = _cyclotomic_root_mod(1, _RANK_PRIME_FLOOR)
    assert cyclo_rank([[CycloNum.from_rational(p1)]]) == 1


# -- generalized matrix function ------------------------------------------------------------


def test_gmf_identity_matrix():
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    for chi in D6_CHARS:
        assert generalized_matrix_function(ident, chi, D6, D6_REP) == chi.degree


def test_gmf_all_ones_nontrivial():
    ones = [[1] * 3 for _ in range(3)]
    for chi in D6_CHARS:
        v = generalized_matrix_function(ones, chi, D6, D6_REP)
        expected = sum(chi.value(g).as_fraction() for g in D6.elements())
        assert v == Fraction(expected)


def test_gmf_is_permanent_for_trivial_character():
    rng = random.Random(9)
    chi0 = D6_CHARS[0]
    M = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
         for _ in range(3)]
    perm = Fraction(0)
    for p in permutations(range(3)):
        term = Fraction(1)
        for i, j in enumerate(p):
            term *= M[i][j]
        perm += term
    assert generalized_matrix_function(M, chi0, D6, D6_REP) == perm


def test_gmf_rejects_wrong_shape():
    with pytest.raises(ValueError):
        generalized_matrix_function([[1, 2], [3, 4]], CHI2, D6, D6_REP)


def test_orbit_scan_reuses_class_profiles_across_characters(monkeypatch):
    # class profiles are cached with the partition: once one character has
    # been scanned on (rep, m, n), the others need no class lookups
    G = dihedral(5)
    rep = G.natural_rep
    chars = character_table(G).chars
    calls = []

    class CountingReads(list):
        def __getitem__(self, c):
            calls.append(c)
            return list.__getitem__(self, c)

    monkeypatch.setattr(G, "_class_of", CountingReads(G.class_of))
    first = orbit_scan(G, rep, chars[0], rep.degree, 3)
    assert calls
    calls.clear()
    for chi in chars[1:]:
        assert len(orbit_scan(G, rep, chi, rep.degree, 3)) == len(first)
    assert calls == []
    orbit_scan(G, rep, chars[1], rep.degree, 2)  # a new (m, n) profiles afresh
    assert calls


def corrupted(chi, offsets):
    """A copy of chi whose value at class c is moved by offsets[c]."""
    bad = copy.copy(chi)
    bad.values = tuple(v + offsets.get(c, 0) for c, v in enumerate(chi.values))
    return bad


def first_orbit_failure(G, rep, chi, m, n):
    """The error orbit_scan raised before class profiles were cached: every
    orbit checked in scan order, each with its own stabilizer sum."""
    for alpha, size, stab in _orbit_partition(G, rep, m, n, DEFAULT_INDEX_BUDGET):
        s = CycloNum.zero()
        for h in stab:
            s = s + chi.values[G.class_of[h]]
        try:
            q = (s * Fraction(chi.degree, len(stab))).as_fraction()
        except ValueError:
            return f"stabilizer character sum at {alpha} is not rational: {s}"
        if q.denominator != 1 or q < 0:
            return f"orbital dimension at {alpha} is {q}, not a nonnegative integer"
    return None


def test_orbit_scan_corrupted_character_names_first_failing_orbit():
    classes = D6.conjugacy_classes()
    rot = next(c for c, cls in enumerate(classes) if cycle_count(cls[0], D6_REP) == 1)
    ref = next(c for c, cls in enumerate(classes) if cycle_count(cls[0], D6_REP) == 2)
    # the whole-group sum stays 0 (3 * -3 + 2 * 9/2), so (1, 1, 1) passes;
    # (1, 1, 2), fixed by one reflection, gets 2 - 3 = -1
    bad = corrupted(CHI2, {ref: -3, rot: Fraction(9, 2)})
    msg = "orbital dimension at (1, 1, 2) is -1, not a nonnegative integer"
    assert first_orbit_failure(D6, D6_REP, bad, 3, 2) == msg
    with pytest.raises(ConsistencyError) as exc:
        orbit_scan(D6, D6_REP, bad, 3, 2)
    assert str(exc.value) == msg


def test_orbit_scan_corruption_errors_match_per_orbit_checks():
    # one class moved breaks the whole-group sum, so (1, ..., 1) fails;
    # two classes moved by |C2| t and -|C1| t keep that sum and push the
    # first failure to a smaller stabilizer
    cases = 0
    for name in ("D6", "D10", "F21"):
        G = suite_group(name)
        rep = G.natural_rep
        sizes = [len(cls) for cls in G.conjugacy_classes()]
        shifts = []
        for t in (Fraction(1, 2), -3, root_of_unity(3, 1)):
            for c1 in range(1, len(sizes)):
                shifts.append({c1: t})
                for c2 in range(c1 + 1, len(sizes)):
                    shifts.append({c1: t * sizes[c2], c2: t * -sizes[c1]})
        for chi in character_table(G).chars:
            for offsets in shifts:
                bad = corrupted(chi, offsets)
                want = first_orbit_failure(G, rep, bad, rep.degree, 2)
                if want is None:
                    orbit_scan(G, rep, bad, rep.degree, 2)
                    continue
                with pytest.raises(ConsistencyError) as exc:
                    orbit_scan(G, rep, bad, rep.degree, 2)
                assert str(exc.value) == want, (name, offsets)
                cases += f"at {(1,) * rep.degree} " not in want
    assert cases > 0


# equal element tuples, different products: G2's natural rep is not a
# homomorphism of G1, and its characters are not class functions of G1
FOREIGN_G1, FOREIGN_G2 = z_group(7, 3, 2), z_group(7, 3, 4)
FOREIGN_ALPHA = (1, 1, 1, 1, 1, 2, 2)


def _degree3(G):
    return [c for c in character_table(G).chars if c.degree == 3][0]


def _all_ones(m):
    return [[1] * m for _ in range(m)]


# (function, which argument is foreign): each call ran without error before
# the refusal, with G2's object taken as G1's
FOREIGN_CALLS = {
    "stabilizer-rep": lambda G, rep, chi: stabilizer(FOREIGN_ALPHA, G, rep),
    "coset_transversal-rep":
        lambda G, rep, chi: coset_transversal(FOREIGN_ALPHA, G, rep),
    "coset_sums-chi": lambda G, rep, chi: coset_sums(chi, G, (0,)),
    "inner_product-rep": lambda G, rep, chi: inner_product(
        FOREIGN_ALPHA, G.identity, chi, G, rep),
    "inner_product-chi": lambda G, rep, chi: inner_product(
        FOREIGN_ALPHA, G.identity, chi, G, rep),
    "gram-rep": lambda G, rep, chi: gram(FOREIGN_ALPHA, chi, G, rep),
    "gram-chi": lambda G, rep, chi: gram(FOREIGN_ALPHA, chi, G, rep),
    "dim_symmetry_class-rep": lambda G, rep, chi: dim_symmetry_class(G, rep, chi, 2),
    "dim_symmetry_class-chi": lambda G, rep, chi: dim_symmetry_class(G, rep, chi, 2),
    "explicit_symmetrized_tensor-rep":
        lambda G, rep, chi: explicit_symmetrized_tensor(FOREIGN_ALPHA, chi, G, rep),
    "explicit_symmetrized_tensor-chi":
        lambda G, rep, chi: explicit_symmetrized_tensor(FOREIGN_ALPHA, chi, G, rep),
    "generalized_matrix_function-rep":
        lambda G, rep, chi: generalized_matrix_function(_all_ones(7), chi, G, rep),
    "generalized_matrix_function-chi":
        lambda G, rep, chi: generalized_matrix_function(_all_ones(7), chi, G, rep),
    "orbit_scan-chi": lambda G, rep, chi: orbit_scan(G, rep, chi, 7, 2),
}


@pytest.mark.parametrize("name", FOREIGN_CALLS)
def test_symclass_refuses_a_representation_or_character_of_another_group(name):
    G1, G2 = FOREIGN_G1, FOREIGN_G2
    assert G1.elements() == G2.elements()
    rep, chi = G1.natural_rep, _degree3(G1)
    FOREIGN_CALLS[name](G1, rep, chi)  # the group's own objects are accepted
    if name.endswith("-rep"):
        rep, text = G2.natural_rep, "representation does not belong to this group"
    else:
        chi, text = _degree3(G2), "character does not belong to this group"
    with pytest.raises(ValueError, match=text):
        FOREIGN_CALLS[name](G1, rep, chi)


# -- the orbit partition on image codes ----------------------------------------


def tuple_orbit_partition(G, rep, m, n):
    """The former _orbit_partition loop, kept as the reference: every image
    tuple of every representative is built and then encoded."""
    total = n**m
    elems = G.elements()
    invs = [pinv(rep.perm(g)) for g in elems]
    visited = bytearray(total)
    parts = []
    for code in range(total):
        if visited[code]:
            continue
        alpha = index_from_code(code, m, n)
        codes = set()
        stab = []
        for g, iv in zip(elems, invs):
            beta = tuple(alpha[j] for j in iv)
            bc = index_code(beta, n)
            codes.add(bc)
            if bc == code:
                stab.append(g)
        for bc in codes:
            visited[bc] = 1
        if len(codes) * len(stab) != G.order:
            raise ConsistencyError("orbit-stabilizer count failed on Gamma_{m,n}")
        parts.append((alpha, len(codes), tuple(stab)))
    return parts


def partition_cases():
    d12 = dihedral(6)
    bases = [(name, suite_group(name)) for name in TABLE_SUITE]
    bases = [(name, G, G.natural_rep) for name, G in bases]
    bases += [
        (f"random{seed}.{i}", G, regular_rep(G))
        for seed in (1, 2)
        for i, G in enumerate(sample_groups(seed, count=4, max_order=12))
    ]
    # unfaithful: D12 acts on 3 points through S_3
    bases.append(("D12on3", d12, PermRep(d12, ((1, 2, 0),), ((0, 2, 1),))))
    return [
        (f"{label}+{pad}", G, rep.extended(rep.degree + pad))
        for label, G, rep in bases
        for pad in (0, 1, 2)
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_orbit_partition_matches_tuple_reference(n):
    checked = 0
    for label, G, rep in partition_cases():
        m = rep.degree
        if n**m > 20000:
            continue
        got = [(alpha, size, elements_of(G, stab)) for alpha, size, stab
               in _orbit_partition(G, rep, m, n, DEFAULT_INDEX_BUDGET)]
        assert got == tuple_orbit_partition(G, rep, m, n), (label, n)
        checked += 1
    assert checked >= 40


class StandInRep:
    """A representation's permutations with the one of g replaced."""

    def __init__(self, rep, g, perm):
        self.degree = rep.degree
        self.group = rep.group
        self.perms = list(rep.perms)
        self.perms[rep.group.code[g]] = perm

    def perm(self, g):
        return self.perms[self.group.code[g]]


def test_orbit_partition_corrupted_permutation_fails_orbit_stabilizer():
    # a reflection sent to the identity joins every stabilizer, so the
    # orbit of (1, 1, 2) (size 3) gets a stabilizer of order 3 in D6
    g = element_by_perm(D6, D6_REP, (0, 2, 1))
    bad = StandInRep(D6_REP, g, (0, 1, 2))
    with pytest.raises(ConsistencyError, match="orbit-stabilizer"):
        tuple_orbit_partition(D6, bad, 3, 2)
    with pytest.raises(ConsistencyError, match="orbit-stabilizer"):
        _orbit_partition(D6, bad, 3, 2, DEFAULT_INDEX_BUDGET)


@pytest.mark.parametrize("n", [2, 3])
def test_walk_orbit_count_is_burnside_count(n):
    # dim_symmetry_class of the trivial character counts the orbits
    checked = 0
    for label, G, rep in partition_cases():
        if n**rep.degree > 20000:
            continue
        trivial = next(chi for chi in character_table(G).chars
                       if all(v == 1 for v in chi.values))
        parts = _orbit_partition(G, rep, rep.degree, n, DEFAULT_INDEX_BUDGET)
        assert len(parts) == dim_symmetry_class(G, rep, trivial, n), (label, n)
        checked += 1
    assert checked >= 40


def test_walk_refuses_an_orbit_count_off_burnside(monkeypatch):
    weights = symclass._class_weights

    def off_by_one(G, rep, n):
        w = weights(G, rep, n)
        return [w[0] + 1, *w[1:]]

    monkeypatch.setattr(symclass, "_class_weights", off_by_one)
    rep = fresh_copy(D6_REP)
    with pytest.raises(ConsistencyError, match="Burnside's lemma"):
        _orbit_partition(D6, rep, 3, 2, DEFAULT_INDEX_BUDGET)
    assert (3, 2) not in rep._orbit_cache


# -- class profiles and the witness, recorded by the walk -----------------------


def walk_profiles(G, rep, n):
    """(profile id per orbit, [(profile, first alpha)]) that the orbit walk
    of Gamma_{degree,n} records on rep."""
    _orbit_partition(G, rep, rep.degree, n, DEFAULT_INDEX_BUDGET)
    return rep._orbit_cache[("profiles", rep.degree, n)]


def reference_class_profiles(G, parts):
    """The former symclass._class_profiles, kept as the reference without
    its cache: a second pass over the finished partition.  Profile ids per
    orbit and the distinct profiles in order of first occurrence."""
    class_of = G.class_of
    by_stab = {}
    index = {}
    ids = []
    for _, _, stab in parts:
        i = by_stab.get(stab)
        if i is None:
            counts = {}
            for h in stab:
                c = class_of[h]
                counts[c] = counts.get(c, 0) + 1
            profile = tuple(sorted(counts.items()))
            i = by_stab[stab] = index.setdefault(profile, len(index))
        ids.append(i)
    return ids, list(index)


def fresh_copy(rep):
    """A new representation object with the same permutations, so with no
    orbit state on it."""
    return PermRep(rep.group, rep.a_images, rep.h_images, kind=rep.kind,
                   degree=rep.degree)


@pytest.mark.parametrize("n", [2, 3])
def test_walk_profiles_and_witness_match_second_pass_reference(n, monkeypatch):
    walk = symclass._walk_orbits
    calls = []

    def counting(*args):
        # a generator, so only a walk that starts is counted
        calls.append(args)
        yield from walk(*args)

    monkeypatch.setattr(symclass, "_walk_orbits", counting)
    checked = 0
    for label, G, rep in partition_cases():
        m = rep.degree
        if n**m > 20000:
            continue
        orbit_scan(G, rep, character_table(G).chars[0], m, n)
        parts = rep._orbit_cache[(m, n)]
        ids, profiles = rep._orbit_cache[("profiles", m, n)]
        want_ids, want_profiles = reference_class_profiles(G, parts)
        assert ids == want_ids and [p for p, _ in profiles] == want_profiles, label
        firsts = {}
        for (alpha, _, _), i in zip(parts, want_ids):
            firsts.setdefault(i, alpha)
        assert [a for _, a in profiles] == [firsts[i] for i in range(len(firsts))]
        first = next((alpha for alpha, _, stab in parts if len(stab) == 1), None)
        assert symclass._trivial_stabilizer_alpha(
            G, rep, n, DEFAULT_INDEX_BUDGET) == first, label
        calls.clear()
        got = find_trivial_stabilizer_alpha(G, rep, n)
        assert calls == [], label  # read off the finished walk
        assert got == find_trivial_stabilizer_alpha(G, fresh_copy(rep), n), label
        checked += 1
    assert checked >= 40


# -- the walk's table of low-position letters ---------------------------------


def walk_against_reference(G, rep, n):
    """Walk Gamma_{degree,n} on a fresh copy of rep and check the partition
    against the tuple reference, the profile ids against the second-pass
    reference, ("alpha", n) against the first trivial stabilizer, and that
    equal stabilizers are one object."""
    rep = fresh_copy(rep)
    m = rep.degree
    parts = _orbit_partition(G, rep, m, n, DEFAULT_INDEX_BUDGET)
    want = tuple_orbit_partition(G, rep, m, n)
    assert [(alpha, size, elements_of(G, stab)) for alpha, size, stab in parts] == want
    ids, profiles = rep._orbit_cache[("profiles", m, n)]
    want_ids, want_profiles = reference_class_profiles(G, parts)
    assert ids == want_ids and [p for p, _ in profiles] == want_profiles
    first = next((alpha for alpha, _, stab in parts if len(stab) == 1), None)
    assert rep._orbit_cache[("alpha", n)] == first
    # orbits with equal stabilizers share one tuple
    stabs = [stab for _, _, stab in parts]
    assert len(set(map(id, stabs))) == len(set(stabs))
    return parts


EDGE_WALKS = [
    # (label, group, rep, n): m = 1, n = 1, odd and even m
    ("trivial-m1-n5", trivial_group(), PermRep(trivial_group(), ((0,),), ((0,),)), 5),
    ("D6-m1-n5", D6, PermRep(D6, ((0,),), ((0,),)), 5),
    ("D6-m1-n1", D6, PermRep(D6, ((0,),), ((0,),)), 1),
    ("D6-m3-n1", D6, D6_REP, 1),
    ("D6-m3-n4", D6, D6_REP, 4),
    ("D6-m4-n3", D6, D6_REP.extended(4), 3),
    ("D8-m4-n3", dihedral(4), dihedral(4).natural_rep, 3),
    ("D10-m5-n3", dihedral(5), dihedral(5).natural_rep, 3),
    ("F21-m8-n2", group_pq(3, 7, 2), group_pq(3, 7, 2).natural_rep.extended(8), 2),
]


@pytest.mark.parametrize("label, G, rep, n", EDGE_WALKS, ids=[c[0] for c in EDGE_WALKS])
def test_walk_edge_cases_match_reference(label, G, rep, n):
    m = rep.degree
    assert symclass._low_chunk_size(m, n, G.order) == (m + 1) // 2
    parts = walk_against_reference(G, rep, n)
    assert sum(size for _, size, _ in parts) == n**m


CAPPED_WALKS = [
    # (label, group, rep, n, tabulated positions once the floor is 0)
    ("D6-m3-n2", D6, D6_REP, 2, 0),
    ("D6-m4-n4", D6, D6_REP.extended(4), 4, 1),
    ("F21-m8-n3", group_pq(3, 7, 2), group_pq(3, 7, 2).natural_rep.extended(8), 3, 3),
    ("F21-m9-n2", group_pq(3, 7, 2), group_pq(3, 7, 2).natural_rep.extended(9), 2, 2),
]


@pytest.mark.parametrize("label, G, rep, n, k", CAPPED_WALKS,
                         ids=[c[0] for c in CAPPED_WALKS])
def test_walk_with_its_table_held_at_the_cap(label, G, rep, n, k, monkeypatch):
    # with no fixed floor the table may take only n^m bytes, so the walk
    # tabulates fewer than half the positions (down to none) and decodes
    # the rest on each change of hi
    m = rep.degree
    assert symclass._low_chunk_size(m, n, G.order) == (m + 1) // 2
    monkeypatch.setattr(symclass, "_CHUNK_TABLE_CAP", 0)
    assert symclass._low_chunk_size(m, n, G.order) == k
    assert n ** (k + 1) * 4 * G.order > n**m
    assert k == 0 or n**k * 4 * G.order <= n**m
    walk_against_reference(G, rep, n)


def test_low_chunk_size_stays_within_its_byte_budget():
    from ostar.groups import ELEMENT_CAP

    cap = symclass._CHUNK_TABLE_CAP
    assert cap >= 4 * ELEMENT_CAP  # so a table of one sum always fits
    checked = 0
    for order in (1, 2, 21, 128, 1000, 2000):
        for n in (1, 2, 3, 7, 10, 100, 10**7):
            for m in range(1, 24):
                if n**m > DEFAULT_INDEX_BUDGET:
                    break
                k = symclass._low_chunk_size(m, n, order)
                budget = max(n**m, cap)
                assert 0 <= k <= (m + 1) // 2
                assert n**k * 4 * order <= budget, (order, n, m)
                # the largest k that fits
                assert k == (m + 1) // 2 or n ** (k + 1) * 4 * order > budget
                checked += 1
    assert checked > 200
    # order 2000 on a degree-14 rep at n = 3: two halves would take
    # 2 * 3^7 * 8000 bytes, about 35 MB; the table stays under 3^14 bytes
    k = symclass._low_chunk_size(14, 3, 2000)
    assert (k, 3**k * 8000) == (5, 1_944_000) and 3**k * 8000 <= 3**14
    # m = 1 with n = 10^7 at order 2000: a one-position table would take
    # 80 GB, so no position is tabulated
    assert symclass._low_chunk_size(1, 10**7, 2000) == 0
