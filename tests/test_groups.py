"""Group construction, products, representations, subgroups.

Oracles: exhaustive law checks, element-order profiles for isomorphism-type
identification, a brute subset-closure subgroup count, and an independent
Cayley-table construction of the regular representation.
"""

import math
import time
import tracemalloc
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from ostar import decide
from ostar.characters import character_table, dual_orbits, zero_set
from ostar.cyclotomic import prime_factors
from ostar.errors import BudgetError
from ostar.groups import (
    AbelianGroup,
    ActionHom,
    Automorphism,
    PermRep,
    WreathSpec,
    SemidirectGroup,
    build_wreath,
    dihedral,
    element_json,
    enumerate_subgroups,
    group_pq,
    multiplicative_order,
    perm_cycle_count,
    pinv,
    pmul,
    regular_rep,
    z_group,
)
from test_acceptance import TABLE_SUITE, group as suite_group
from test_random_products import WREATH_FACTORS, sample_groups


def direct_product(a_factors, h_factors):
    A, H = AbelianGroup(a_factors), AbelianGroup(h_factors)
    return SemidirectGroup(A, H, ActionHom.trivial(H, A))


def cyclic(G, g):
    """The powers of g, identity first; its length is the order of g."""
    out = [G.identity]
    x = g
    while x != G.identity:
        out.append(x)
        x = G.mul(x, g)
    return out


# -- abelian groups ------------------------------------------------------------


def test_abelian_enumeration_and_codes():
    A = AbelianGroup([2, 3])
    els = A.elements()
    assert len(els) == 6 == A.order
    assert len(set(els)) == 6
    for i, a in enumerate(els):
        assert A.code(a) == i
    assert A.exponent == 6
    assert A.order_of((1, 2)) == 6
    assert A.order_of((0, 0)) == 1


def test_abelian_trivial_group():
    T = AbelianGroup([])
    assert T.order == 1 and T.elements() == ((),)
    T1 = AbelianGroup([1])
    assert T1.order == 1 and T1.elements() == ((0,),)


def test_abelian_rejects_bad_factors():
    with pytest.raises(ValueError):
        AbelianGroup([0])


# -- automorphisms ---------------------------------------------------------------


def test_automorphism_inversion():
    A = AbelianGroup([5])
    inv = Automorphism(A, [(4,)])
    assert inv.apply((2,)) == (3,)
    assert all(inv.apply(inv.apply(a)) == a for a in A.elements())


def test_automorphism_rejects_non_bijection():
    A = AbelianGroup([4])
    with pytest.raises(ValueError):
        Automorphism(A, [(2,)])  # image {0, 2} only


def test_automorphism_rejects_ill_defined():
    A = AbelianGroup([2, 4])
    # the order-2 generator cannot map to an order-4 element
    with pytest.raises(ValueError):
        Automorphism(A, [(0, 1), (0, 1)])


def test_action_hom_validation():
    A, H = AbelianGroup([3]), AbelianGroup([2])
    ActionHom(H, A, (Automorphism(A, [(2,)]),))  # inversion: fine
    A5 = AbelianGroup([5])
    with pytest.raises(ValueError):
        # a -> 2a has order 4, not dividing |C_2|
        ActionHom(H, A5, (Automorphism(A5, [(2,)]),))


# -- semidirect products --------------------------------------------------------


def test_build_semidirect_dihedral_is_nonabelian_order_6():
    G = dihedral(3)
    assert G.order == 6
    assert not G.is_abelian()


def test_trivial_action_gives_direct_product():
    G = direct_product([4], [3])
    assert G.is_abelian() and G.order == 12
    A, H = G.A, G.H
    for a1 in A.elements():
        for h1 in H.elements():
            for a2 in A.elements():
                for h2 in H.elements():
                    assert G.mul((a1, h1), (a2, h2)) == (A.add(a1, a2), H.add(h1, h2))


def test_group_pq_order_21_nonabelian():
    G = group_pq(3, 7, 2)
    assert G.order == 21 and not G.is_abelian()


@pytest.mark.parametrize(
    "G",
    [dihedral(3), group_pq(3, 7, 2), direct_product([2, 2], [3])],
    ids=["D6", "F21", "C2xC2xC3"],
)
def test_group_laws_exhaustive(G):
    els = G.elements()
    e = G.identity
    for g in els:
        assert G.mul(e, g) == g == G.mul(g, e)
        assert G.mul(g, G.inv(g)) == e == G.mul(G.inv(g), g)
    assert len(els) <= 60
    for x in els:
        for y in els:
            xy = G.mul(x, y)
            for z in els:
                assert G.mul(xy, z) == G.mul(x, G.mul(y, z))


def test_group_laws_sampled_above_60():
    import random

    G = group_pq(5, 11, 3)  # order 55 < 60, plus a wreath of order 72
    W = build_wreath(WreathSpec.regular(AbelianGroup([3, 2]), AbelianGroup([2])))
    assert W.order == 72
    rng = random.Random(1)
    for H in (G, W):
        els = H.elements()
        for _ in range(300):
            x, y, z = (rng.choice(els) for _ in range(3))
            assert H.mul(H.mul(x, y), z) == H.mul(x, H.mul(y, z))
        for g in els:
            assert H.mul(g, H.inv(g)) == H.identity


def test_canonical_subsets_verified():
    G = dihedral(5)
    e_a, e_h = G.A.identity, G.H.identity
    a_part = {(a, e_h) for a in G.A.elements()}
    for g in G.elements():
        for x in a_part:
            assert G.mul(G.mul(G.inv(g), x), g) in a_part


def test_element_codes_are_mixed_radix():
    G = dihedral(3)
    for i, g in enumerate(G.elements()):
        assert G.element_code(g) == i


# -- wreath products ---------------------------------------------------------------


def test_wreath_singleton_omega_is_direct_product():
    spec = WreathSpec(AbelianGroup([3]), AbelianGroup([4]), 1, ((0,),))
    G = build_wreath(spec)
    assert G.order == 12 and G.is_abelian()


def test_wreath_c2_c2_is_dihedral_of_order_8():
    G = build_wreath(WreathSpec.regular(AbelianGroup([2]), AbelianGroup([2])))
    assert G.order == 8 and not G.is_abelian()
    # multiplication-table oracle: same element-order profile as D_8, which
    # separates it from the quaternion group (six elements of order 4)
    profile = Counter(len(cyclic(G, g)) for g in G.elements())
    D8 = dihedral(4)
    assert profile == Counter(len(cyclic(D8, g)) for g in D8.elements())
    assert profile[4] == 2
    assert G.natural_rep.degree == 4
    assert G.natural_rep.is_faithful()


def test_wreath_c3_c2():
    A = AbelianGroup([3])
    G = build_wreath(WreathSpec.regular(A, AbelianGroup([2])))
    assert G.order == 18
    assert prime_factors(G.A.order) == prime_factors(A.order) == (3,)


def test_wreath_order_formula():
    for a, h, om_regular in (([2], [3], 3), ([2, 2], [2], 2)):
        A, H = AbelianGroup(a), AbelianGroup(h)
        G = build_wreath(WreathSpec.regular(A, H))
        assert G.order == A.order ** H.order * H.order


def test_wreath_unfaithful_action_falls_back_to_regular_rep():
    # the C_4 generator swaps two blocks, so its square acts trivially and
    # the imprimitive degree-4 action has a kernel
    spec = WreathSpec(AbelianGroup([2]), AbelianGroup([4]), 2, ((1, 0),))
    G = build_wreath(spec)
    assert G.order == 16
    assert G.natural_rep.kind == "regular"
    assert G.natural_rep.is_faithful()


def test_wreath_rejects_bad_action():
    A, H = AbelianGroup([2]), AbelianGroup([2])
    with pytest.raises(ValueError):
        build_wreath(WreathSpec(A, H, 3, ((1, 2, 0),)))  # order 3 does not divide 2


# -- builders ------------------------------------------------------------------------


def test_dihedral_natural_rep():
    G = dihedral(3)
    rep = G.natural_rep
    assert rep.degree == 3 and rep.kind == "natural"
    assert rep.is_faithful()


def test_dihedral_requires_s_at_least_3():
    with pytest.raises(ValueError):
        dihedral(2)


def test_group_pq_natural_rep_and_rejection():
    G = group_pq(3, 7, 2)
    assert G.natural_rep.degree == 7
    assert G.natural_rep.is_faithful()
    # oracle: powers of 3 mod 7 are 3, 2, 6, 4, 5, 1 -> order 6
    powers = []
    x = 1
    for _ in range(6):
        x = x * 3 % 7
        powers.append(x)
    assert powers.index(1) + 1 == 6
    with pytest.raises(ValueError, match="order"):
        group_pq(3, 7, 3)
    with pytest.raises(ValueError):
        group_pq(4, 7, 2)  # p not prime
    with pytest.raises(ValueError):
        group_pq(5, 7, 2)  # p does not divide q-1


def test_z_group():
    G = z_group(5, 4, 2)
    assert G.order == 20
    assert G.natural_rep.degree == 5 and G.natural_rep.is_faithful()
    with pytest.raises(ValueError):
        z_group(6, 4, 5)  # gcd(6,4) != 1
    with pytest.raises(ValueError, match="r = 2"):
        z_group(5, 3, 2)  # 2^3 = 8 = 3 (mod 5), not 1
    # unfaithful natural action falls back to the regular representation
    H = z_group(15, 2, 1)  # trivial action: direct product C_15 x C_2
    assert H.natural_rep.kind == "regular"


def test_multiplicative_order():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(2, 4) == 0
    assert multiplicative_order(0, 1) == 1


# -- permutation representations --------------------------------------------------------


def test_perm_helpers():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert pmul(p, q)[0] == q[p[0]]
    assert pmul(p, pinv(p)) == (0, 1, 2)
    assert perm_cycle_count((0, 1, 2, 3, 4)) == 5
    assert perm_cycle_count((1, 2, 0)) == 1
    assert perm_cycle_count((1, 0, 2)) == 2


def test_perm_rep_right_action_convention():
    # pi(g1 g2) = pi(g1) * pi(g2) under apply-left-then-right composition
    G = group_pq(3, 7, 2)
    rep = G.natural_rep
    els = G.elements()
    for x in els[::3]:
        for y in els[::4]:
            assert rep.perm(G.mul(x, y)) == pmul(rep.perm(x), rep.perm(y))


def test_perm_rep_rejects_non_homomorphism():
    G = dihedral(3)
    with pytest.raises(ValueError):
        # reflection image for the rotation generator cannot work
        PermRep(G, ((0, 2, 1),), ((0, 2, 1),))


def test_perm_rep_extended_pads_fixed_points():
    G = dihedral(3)
    rep = G.natural_rep.extended(5)
    assert rep.degree == 5
    for g in G.elements():
        assert rep.perm(g)[3:] == (3, 4)


def test_regular_rep_matches_cayley_table_oracle():
    G = dihedral(3)
    rep = regular_rep(G)
    assert rep.degree == 6 and rep.kind == "regular"
    assert rep.is_faithful()
    els = list(G.elements())
    table = {(x, y): G.mul(x, y) for x in els for y in els}  # independent table
    for g in els:
        perm = rep.perm(g)
        for i, x in enumerate(els):
            assert els[perm[i]] == table[(x, g)]
    # the rotation generator acts with cycle type 3+3: two cycles, no fixed points
    a = ((1,), (0,))
    p = rep.perm(a)
    assert perm_cycle_count(p) == 2
    assert all(p[i] != i for i in range(6))


def test_perm_rep_rejects_image_for_trivial_factor_generator():
    # the standard generator of a C_1 factor is the identity element, so
    # its image must be the identity permutation too
    A, H = AbelianGroup([1]), AbelianGroup([2])
    G = SemidirectGroup(A, H, ActionHom.trivial(H, A))
    with pytest.raises(ValueError, match="homomorphism"):
        PermRep(G, ((1, 0),), ((1, 0),))
    rep = PermRep(G, ((0, 1),), ((1, 0),))
    assert rep.perm(((0,), (1,))) == (1, 0)


def test_regular_rep_trivial_group():
    T = SemidirectGroup(
        AbelianGroup([1]), AbelianGroup([1]),
        ActionHom.trivial(AbelianGroup([1]), AbelianGroup([1])),
    )
    rep = regular_rep(T)
    assert rep.degree == 1
    assert rep.perm(T.identity) == (0,)


def test_is_faithful_matches_a_kernel_scan():
    # faithful iff only the identity acts trivially; the first two reps are
    # unfaithful, with kernel element codes 1 (H acts trivially) and 6
    # (D12 on 3 points through S_3, kernel {e, r^3})
    C3, C2 = AbelianGroup([3]), AbelianGroup([2])
    G = SemidirectGroup(C3, C2, ActionHom.trivial(C2, C3))
    d12 = dihedral(6)
    reps = [PermRep(G, ((1, 2, 0),), ((0, 1, 2),)),
            PermRep(d12, ((1, 2, 0),), ((0, 2, 1),)),
            regular_rep(G), d12.natural_rep]
    reps += [suite_group(name).natural_rep for name in TABLE_SUITE]
    for rep in reps:
        ident = tuple(range(rep.degree))
        kernel = [g for g in rep.group.elements() if rep.perm(g) == ident]
        assert rep.is_faithful() == (kernel == [rep.group.identity]), rep.group
    assert not reps[0].is_faithful() and not reps[1].is_faithful()


def test_extended_keeps_the_degree_without_generator_images():
    # factors AbelianGroup([]) give a group with no generators, so the
    # padded representation has no generator images to read a degree from
    E = AbelianGroup([])
    G = SemidirectGroup(E, E, ActionHom.trivial(E, E))
    rep = regular_rep(G).extended(3)
    assert rep.degree == 3
    assert rep.perm(G.identity) == (0, 1, 2)


# -- subgroups -------------------------------------------------------------------------


def as_elements(G, S):
    """A subgroup given by element codes as the frozenset of its elements."""
    elems = G.elements()
    return frozenset(elems[c] for c in S)


def brute_subgroups(G):
    els = list(G.elements())
    out = set()
    for r in range(1, len(els) + 1):
        for sub in combinations(els, r):
            s = set(sub)
            if G.identity not in s:
                continue
            if all(G.mul(x, y) in s for x in s for y in s):
                out.add(frozenset(s))
    return out


def test_enumerate_subgroups_trivial():
    T = SemidirectGroup(
        AbelianGroup([1]), AbelianGroup([1]),
        ActionHom.trivial(AbelianGroup([1]), AbelianGroup([1])),
    )
    assert len(enumerate_subgroups(T)) == 1


@pytest.mark.parametrize(
    "G,count",
    [(dihedral(3), 6), (direct_product([2, 2], [1]), 5)],
    ids=["D6", "C2xC2"],
)
def test_enumerate_subgroups_against_brute_oracle(G, count):
    subs = {as_elements(G, S) for S in enumerate_subgroups(G)}
    assert subs == brute_subgroups(G)
    assert len(subs) == count


def test_d6_subgroup_orders():
    G = dihedral(3)
    orders = sorted(len(s) for s in enumerate_subgroups(G))
    assert orders == [1, 2, 2, 2, 3, 6]


def test_subgroups_satisfy_lagrange_and_identity():
    G = dihedral(5)
    for S in enumerate_subgroups(G):
        assert G.identity in as_elements(G, S)
        assert G.order % len(S) == 0


def test_enumerate_subgroups_bound_refusal():
    G = dihedral(7)
    with pytest.raises(BudgetError):
        enumerate_subgroups(G, bound=10)


def closure(G, gens):
    """The subgroup generated by gens, by breadth-first products."""
    els = {G.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.mul(x, g)
                if y not in els:
                    els.add(y)
                    nxt.append(y)
        frontier = nxt
    return els


def pairwise_join_subgroups(G):
    """The former enumeration, kept as a reference: close the cyclic
    subgroups under pairwise join until a fixpoint."""
    subs = {frozenset(cyclic(G, g)) for g in G.elements()}
    frontier = list(subs)
    while frontier:
        fresh = []
        for S in frontier:
            for T in list(subs):
                if S <= T or T <= S:
                    continue
                J = frozenset(closure(G, S | T))
                if J not in subs:
                    subs.add(J)
                    fresh.append(J)
        frontier = fresh
    return tuple(
        sorted(subs, key=lambda S: (len(S), sorted(map(G.element_code, S))))
    )


@pytest.mark.parametrize("name", TABLE_SUITE)
def test_enumerate_subgroups_matches_pairwise_join(name):
    G = suite_group(name)
    subs = tuple(as_elements(G, S) for S in enumerate_subgroups(G))
    assert subs == pairwise_join_subgroups(G)


@pytest.mark.parametrize("s", [3, 4, 6, 9, 12, 45])
def test_dihedral_subgroup_count_is_tau_plus_sigma(s):
    divisors = [d for d in range(1, s + 1) if s % d == 0]
    assert len(enumerate_subgroups(dihedral(s))) == len(divisors) + sum(divisors)


def test_enumerate_subgroups_c2_wr_c4_fast():
    G = build_wreath(WreathSpec.regular(AbelianGroup([2]), AbelianGroup([4])))
    assert G.order == 64
    start = time.perf_counter()
    subs = enumerate_subgroups(G)
    elapsed = time.perf_counter() - start
    assert len(subs) == 129
    assert elapsed < 2.0, f"C2 wr C4 subgroup lattice took {elapsed:.2f} s"


def test_enumerate_subgroups_c2sq_wr_c3_fast():
    # order 192 with 3,010 subgroups, the largest lattice the tests enumerate
    G = build_wreath(WreathSpec.regular(AbelianGroup([2, 2]), AbelianGroup([3])))
    assert G.order == 192
    start = time.perf_counter()
    subs = enumerate_subgroups(G)
    elapsed = time.perf_counter() - start
    assert len(subs) == 3010
    assert elapsed < 2.0, f"C2^2 wr C3 subgroup lattice took {elapsed:.2f} s"


def test_dihedral_100_subgroup_count_is_tau_plus_sigma():
    # order 200: the lattice the closure-per-coset enumeration took seconds on
    divisors = [d for d in range(1, 101) if 100 % d == 0]
    assert len(divisors) + sum(divisors) == 226
    assert len(enumerate_subgroups(dihedral(100))) == 226


# -- differential tests against the former algorithms --------------------------------


def all_elements_conjugacy_classes(G):
    """The former conjugacy_classes, kept as a reference: every new
    representative is conjugated by every element.  Returns the classes
    and the class index of every element."""
    elems = G.elements()
    assigned = {}
    classes = []
    for g in elems:
        if g in assigned:
            continue
        cls = {g}
        for t in elems:
            cls.add(G.mul(G.mul(G.inv(t), g), t))
        cls = tuple(sorted(cls, key=G.element_code))
        for x in cls:
            assigned[x] = len(classes)
        classes.append(cls)
    return tuple(classes), assigned


def _ppow(p, k):
    out = tuple(range(len(p)))
    for _ in range(k):
        out = pmul(out, p)
    return out


def generator_power_perm(rep, g):
    """The former PermRep.perm, kept as a reference: the generator images
    raised to the coordinates of g = (a, h), multiplied in order."""
    a, h = g
    p = tuple(range(rep.degree))
    for x, img in zip(a, rep.a_images):
        if x:
            p = pmul(p, _ppow(img, x))
    for x, img in zip(h, rep.h_images):
        if x:
            p = pmul(p, _ppow(img, x))
    return p


DIFFERENTIAL_SUITE = [*TABLE_SUITE, "random1", "random2"]


def differential_groups(name):
    """One acceptance-suite group, or the four random-sweep groups of a
    seed."""
    if name.startswith("random"):
        return sample_groups(int(name[len("random"):]), count=4, max_order=12)
    return [suite_group(name)]


@pytest.mark.parametrize("name", DIFFERENTIAL_SUITE)
def test_conjugacy_classes_match_all_elements_conjugation(name):
    for G in differential_groups(name):
        classes, index = all_elements_conjugacy_classes(G)
        assert G.conjugacy_classes() == classes
        assert all(G.class_index(g) == index[g] for g in G.elements())


@pytest.mark.parametrize("name", DIFFERENTIAL_SUITE)
def test_perm_tables_match_generator_power_words(name):
    for G in differential_groups(name):
        reps = [regular_rep(G)]
        if G.natural_rep is not None:
            reps.append(G.natural_rep)
        reps += [rep.extended(rep.degree + 2) for rep in reps]
        for rep in reps:
            for g in G.elements():
                assert rep.perm(g) == generator_power_perm(rep, g)


def test_dihedral_500_build_and_classes_fast():
    # order 1000, within ELEMENT_CAP; generator-power permutations and
    # all-elements conjugation took about 10 s on a 2-CPU x86-64 VM
    start = time.perf_counter()
    G = dihedral(500)
    classes = G.conjugacy_classes()
    elapsed = time.perf_counter() - start
    assert len(classes) == 500 // 2 + 3
    assert elapsed < 2.0, f"dihedral(500) build and classes took {elapsed:.2f} s"


def test_dihedral_1000_build_retains_one_permutation_table():
    # order 2000 = ELEMENT_CAP, natural degree 1000: the permutation table
    # holds about 17 MB; with a second per-element table of permutations
    # (the former inverse table) the build retained about 75 MB
    tracemalloc.start()
    try:
        G = dihedral(1000)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.order == 2000
    assert retained < 30e6, f"dihedral(1000) retained {retained / 1e6:.1f} MB"


def test_dihedral_1000_builds_no_column_and_one_column_is_linear():
    # no right-multiplication column exists until the coset layer asks for
    # one, so the retention test above measures the build alone; a column
    # at order 2000 is one array of 2-byte codes
    G = dihedral(1000)
    assert G._cols == {}
    y = G.code[(G.A.generators()[0], G.H.generators()[0])]
    tracemalloc.start()
    try:
        col = G.col(y)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(G._cols) == [y] and len(col) == G.order
    assert retained < 16 * G.order, f"one column retained {retained} bytes"


def generator_power_action(phi, h, a):
    """The former ActionHom.apply, kept as a reference: each generator image
    applied h_j times, every image evaluated from its generator images."""
    A = phi.A
    for x, aut in zip(h, phi.images):
        for _ in range(x):
            acc = A.identity
            for y, img in zip(a, aut.gen_images):
                if y:
                    acc = A.add(acc, A.mul_scalar(y, img))
            a = acc
    return a


TEST_WREATHS = (
    WreathSpec(AbelianGroup([3]), AbelianGroup([4]), 1, ((0,),)),
    WreathSpec.regular(AbelianGroup([2]), AbelianGroup([3])),
    WreathSpec.regular(AbelianGroup([2, 2]), AbelianGroup([2])),
    WreathSpec(AbelianGroup([2]), AbelianGroup([4]), 2, ((1, 0),)),
    WreathSpec.regular(AbelianGroup([2]), AbelianGroup([4])),
)


def reference_subgroup_lattice(G):
    """The former _subgroup_lattice on tuple products, kept verbatim as the
    reference: the same prime-index extension and closure re-check, with
    subgroups as frozensets of elements."""
    gens_of = {frozenset((G.identity,)): ()}
    queue = list(gens_of)
    for S in queue:  # grows while it is walked
        gens = gens_of[S]
        covered = set(S)
        for g in G.elements():
            if g in covered:
                continue
            covered.update(G.mul(s, g) for s in S)
            gi = G.inv(g)
            if any(G.mul(G.mul(g, x), gi) not in S for x in gens):
                continue
            k, power = 1, g
            while power not in S:
                power = G.mul(power, g)
                k += 1
            if prime_factors(k) != (k,):
                continue
            T = set(S)
            power = g
            for _ in range(1, k):
                T.update(G.mul(s, power) for s in S)
                power = G.mul(power, g)
            covered |= T
            T = frozenset(T)
            if T not in gens_of:
                gens_of[T] = gens + (g,)
                queue.append(T)
    for S in gens_of:
        for x in S:
            if G.inv(x) not in S:
                raise AssertionError("subgroup closure failed under inverses")
            for y in S:
                if G.mul(x, y) not in S:
                    raise AssertionError("subgroup closure failed under products")
    return tuple(sorted(gens_of, key=lambda S: (len(S), sorted(S))))


@pytest.mark.parametrize("name", [*DIFFERENTIAL_SUITE, "wreaths"])
def test_subgroup_lattice_matches_tuple_reference(name):
    # the lattice on codes, mapped back to elements, is the tuple lattice
    # in the same order
    if name == "wreaths":
        groups = [build_wreath(spec) for spec in TEST_WREATHS]
    else:
        groups = differential_groups(name)
    for G in groups:
        subs = tuple(as_elements(G, S) for S in enumerate_subgroups(G))
        assert subs == reference_subgroup_lattice(G)


@pytest.mark.parametrize("name", [*DIFFERENTIAL_SUITE, "wreaths"])
def test_action_tables_match_generator_power_words(name):
    if name == "wreaths":
        groups = [build_wreath(spec) for spec in TEST_WREATHS]
    else:
        groups = differential_groups(name)
    for G in groups:
        for h in G.H.elements():
            for a in G.A.elements():
                assert G.phi.apply(h, a) == generator_power_action(G.phi, h, a)


@pytest.mark.parametrize(
    "name", [*TABLE_SUITE, *(f"wreath{i}" for i in range(len(TEST_WREATHS)))]
)
def test_tuple_order_reproduces_code_order(name, monkeypatch):
    """Tuple order is element-code order: each sort that once keyed on
    codes gives what the former code keys, kept here as the reference,
    give."""
    if name.startswith("wreath"):
        G = build_wreath(TEST_WREATHS[int(name[len("wreath"):])])
    else:
        G = suite_group(name)
    code = G.element_code
    for cls in G.conjugacy_classes():
        assert cls == tuple(sorted(cls, key=code))
    subs = enumerate_subgroups(G)
    elem_subs = [as_elements(G, S) for S in subs]
    assert elem_subs == sorted(elem_subs, key=lambda S: (len(S), sorted(map(code, S))))
    for orbit in dual_orbits(G.A, G.H, G.phi):
        exps = [x.exponents for x in orbit.members]
        assert exps == sorted(exps, key=G.A.code)

    # the subgroup-criterion witness: the first subgroup, larger first and
    # then by sorted codes, of index below chi(e)^2 that avoids the zero set
    monkeypatch.setattr(decide, "enumerate_subgroups", lambda G, bound: subs)
    rep = regular_rep(G)
    by_codes = sorted(elem_subs, key=lambda S: (-len(S), sorted(map(code, S))))
    for chi in character_table(G).chars:
        expected = None
        if chi.degree > 1:
            zeros = zero_set(chi)
            for S in by_codes:
                if G.order < len(S) * chi.degree**2 and not zeros & S:
                    expected = sorted((element_json(g) for g in S),
                                      key=lambda e: (e[0], e[1]))
                    break
        v = decide.decide_subgroup_criterion(G, rep, chi, 2)
        assert v.witness.get("subgroup") == expected


def code_layer_groups(name):
    if name == "wreaths":
        specs = [*TEST_WREATHS, *(WreathSpec.regular(*map(AbelianGroup, f))
                                  for f in WREATH_FACTORS)]
        return [build_wreath(spec) for spec in specs]
    if name == "random":
        return [G for seed in (1, 2) for G in sample_groups(seed, count=4, max_order=12)]
    return [suite_group(name)]


@pytest.mark.parametrize("name", [*TABLE_SUITE, "wreaths", "random"])
def test_code_layer_matches_tuple_products(name):
    # codes, inverses, classes and every right-multiplication column,
    # against element_code of the tuple product for every pair
    for G in code_layer_groups(name):
        elems = G.elements()
        code = G.element_code
        assert [G.code[g] for g in elems] == list(range(G.order))
        assert [code(g) for g in elems] == list(range(G.order))
        assert G.inv_code == [code(G.inv(g)) for g in elems]
        classes = G.conjugacy_classes()
        assert G.class_of == [
            next(i for i, cls in enumerate(classes) if g in cls) for g in elems]
        for y in elems:
            assert list(G.col(code(y))) == [code(G.mul(x, y)) for x in elems], (G, y)


def all_automorphisms(A):
    out = []
    for images in product(A.elements(), repeat=len(A.factors)):
        try:
            out.append(Automorphism(A, images))
        except ValueError:
            pass
    return out


def former_action_checks(H, images):
    """The former ActionHom validation, kept as a reference: every image
    has order dividing its H-factor and the images commute pairwise, with
    automorphisms composed on their generator images."""
    A = images[0].group

    def apply(gen_images, a):
        acc = A.identity
        for x, img in zip(a, gen_images):
            if x:
                acc = A.add(acc, A.mul_scalar(x, img))
        return acc

    def compose(f, g):
        return tuple(apply(f, img) for img in g)

    gens = [aut.gen_images for aut in images]
    for f, n in zip(gens, H.factors):
        p = A.generators()
        for _ in range(n):
            p = compose(f, p)
        if p != A.generators():
            return False
    return all(compose(f, g) == compose(g, f) for f, g in combinations(gens, 2))


@pytest.mark.parametrize("h_factors", [[2, 2], [2, 1]], ids=["C2xC2", "C2xC1"])
@pytest.mark.parametrize("a_factors", [[2, 2], [2, 4], [3, 3]],
                         ids=["C2xC2", "C2xC4", "C3xC3"])
def test_action_walk_accepts_exactly_the_former_checks(a_factors, h_factors):
    # [2, 1]: the C_1 generator is the identity of H, so only the identity
    # automorphism may be its image
    A, H = AbelianGroup(a_factors), AbelianGroup(h_factors)
    accepted = 0
    pairs = list(product(all_automorphisms(A), repeat=2))
    for images in pairs:
        try:
            ActionHom(H, A, images)
        except ValueError as exc:
            assert "do not induce a homomorphism" in str(exc)
            assert not former_action_checks(H, images), images
        else:
            assert former_action_checks(H, images), images
            accepted += 1
    assert 0 < accepted < len(pairs)


# 1,085 generator-image tuples in all
AUTOMORPHISM_GROUPS = [[2], [4], [6], [2, 2], [2, 4], [3, 3], [2, 6], [4, 4],
                       [2, 2, 2]]


def former_order_loop(A, images):
    """The former Automorphism well-definedness check, kept as a reference:
    every image lies in A and has order dividing its generator's factor."""
    return all(
        A.contains(img) and A.mul_scalar(n, img) == A.identity
        for img, n in zip(images, A.factors)
    )


@pytest.mark.parametrize("factors", AUTOMORPHISM_GROUPS, ids=str)
def test_automorphism_walk_refuses_exactly_the_former_order_loop(factors):
    A = AbelianGroup(factors)
    for images in product(A.elements(), repeat=len(factors)):
        try:
            Automorphism(A, images)
        except ValueError as exc:
            if "do not extend to a homomorphism" in str(exc):
                assert str(exc) == (
                    f"generator images do not extend to a homomorphism of {A!r}")
                assert not former_order_loop(A, images), images
                continue
            assert str(exc) == "generator images do not define a bijection"
        assert former_order_loop(A, images), images


def former_wreath_checks(spec):
    """The former build_wreath action checks, kept as a reference: every
    Omega-permutation has order dividing its H-factor and any two commute."""
    ident = tuple(range(spec.omega_size))
    return all(
        _ppow(sig, n) == ident for sig, n in zip(spec.h_action, spec.H.factors)
    ) and all(pmul(a, b) == pmul(b, a) for a, b in combinations(spec.h_action, 2))


class _BuiltOnceAutomorphism(Automorphism):
    """An Automorphism is a pure function of its group and images, so the
    differential test below walks each block automorphism once."""

    built = {}

    def __init__(self, group, gen_images):
        key = (group, tuple(map(tuple, gen_images)))
        state = self.built.get(key)
        if state is None:
            super().__init__(group, gen_images)
            self.built[key] = self.__dict__
        else:
            self.__dict__.update(state)


def walked_block_automorphism(K, k_a, sig):
    """The former block automorphism, kept as the reference: generator
    images moved from block w to block sig[w], tabulated by the checked
    walk of the Cayley graph of K."""
    gens = K.generators()
    return _BuiltOnceAutomorphism(
        K, [gens[v * k_a + i] for v in sig for i in range(k_a)])


@pytest.mark.parametrize("a_factors", [[1], [2], [3], [2, 2]], ids=str)
def test_wreath_walks_refuse_exactly_the_former_action_checks(a_factors,
                                                              monkeypatch):
    # every action tuple for H in six groups and |Omega| = 2..4: 1,360 per A.
    # regular_rep cannot refuse (it is built from G's own product); stubbing
    # it keeps this to seconds.  The block automorphisms, tabulated without
    # a walk, must equal the walk-built ones, in every accepted build
    from ostar import groups

    monkeypatch.setattr(groups, "regular_rep", lambda G: None)
    A = AbelianGroup(a_factors)
    k_a = len(a_factors)
    cases = accepted = 0
    blocks = {}
    for h_factors in ([2], [3], [4], [2, 2], [2, 1], [6]):
        H = AbelianGroup(h_factors)
        for om in (2, 3, 4):
            K = AbelianGroup(A.factors * om)
            perms = list(permutations(range(om)))
            for action in product(perms, repeat=len(h_factors)):
                spec = WreathSpec(A, H, om, action)
                cases += 1
                for sig in action:
                    if sig not in blocks:
                        direct = groups._block_automorphism(K, k_a, sig)
                        walked = walked_block_automorphism(K, k_a, sig)
                        assert direct.gen_images == walked.gen_images, sig
                        assert direct._map == walked._map, sig
                        blocks[sig] = walked
                try:
                    G = build_wreath(spec)
                except ValueError as exc:
                    assert str(exc) == (
                        "h_action does not define an action of H on Omega")
                    assert not former_wreath_checks(spec), spec
                else:
                    assert former_wreath_checks(spec), spec
                    assert [aut._map for aut in G.phi.images] == [
                        blocks[sig]._map for sig in action], spec
                    accepted += 1
    assert cases == 1360
    assert 0 < accepted < cases


def former_dihedral(s):
    """The former dihedral body, kept as a reference."""
    A, H = AbelianGroup((s,)), AbelianGroup((2,))
    phi = ActionHom(H, A, (Automorphism(A, (((-1) % s,),)),))
    G = SemidirectGroup(A, H, phi, origin="dihedral")
    rot = tuple((i + 1) % s for i in range(s))
    ref = tuple((-i) % s for i in range(s))
    G.natural_rep = PermRep(G, (rot,), (ref,), kind="natural")
    return G


def former_group_pq(p, q, r):
    """The former group_pq body after its parameter checks, kept as a
    reference."""
    A, H = AbelianGroup((q,)), AbelianGroup((p,))
    phi = ActionHom(H, A, (Automorphism(A, ((r % q,),)),))
    G = SemidirectGroup(A, H, phi, origin="pq")
    trans = tuple((x + 1) % q for x in range(q))
    rinv = pow(r, -1, q)
    scale = tuple(rinv * x % q for x in range(q))
    G.natural_rep = PermRep(G, (trans,), (scale,), kind="natural")
    return G


def former_z_group(s, t, r):
    """The former z_group body after its parameter checks, kept as a
    reference."""
    A, H = AbelianGroup((s,)), AbelianGroup((t,))
    phi = ActionHom(H, A, (Automorphism(A, ((r % s,),)),))
    G = SemidirectGroup(A, H, phi, origin="z_group")
    if s > 1 and multiplicative_order(r, s) == t:
        trans = tuple((x + 1) % s for x in range(s))
        rinv = pow(r, -1, s)
        scale = tuple(rinv * x % s for x in range(s))
        G.natural_rep = PermRep(G, (trans,), (scale,), kind="natural")
    else:
        G.natural_rep = regular_rep(G)
    return G


def metacyclic_cases(family):
    if family == "dihedral":
        return [(former_dihedral, dihedral, (s,)) for s in range(3, 60)]
    if family == "pq":
        pairs = [(2, 3), (2, 5), (3, 7), (2, 11), (5, 11), (3, 13), (2, 17),
                 (3, 19), (7, 29)]
        return [(former_group_pq, group_pq, (p, q, r)) for p, q in pairs
                for r in range(q) if multiplicative_order(r, q) == p]
    return [(former_z_group, z_group, (s, t, r))
            for s in range(1, 30) for t in range(1, 12) if math.gcd(s, t) == 1
            for r in range(s) if pow(r, t, s) == 1 % s]


@pytest.mark.parametrize("family", ["dihedral", "pq", "z_group"])
def test_metacyclic_builds_match_the_former_bodies(family):
    # equal factors and action tables give equal products, since
    # (a1, h1)(a2, h2) = (a1 + phi_h1(a2), h1 + h2)
    for former, build, params in metacyclic_cases(family):
        old, new = former(*params), build(*params)
        assert new.origin == old.origin, params
        assert (new.A, new.H) == (old.A, old.H), params
        assert new.elements() == old.elements(), params
        assert all(new.phi.apply(h, a) == old.phi.apply(h, a)
                   for h in new.H.elements() for a in new.A.elements()), params
        nat, ref = new.natural_rep, old.natural_rep
        assert (nat.kind, nat.degree, nat.a_images, nat.h_images) == (
            ref.kind, ref.degree, ref.a_images, ref.h_images), params
