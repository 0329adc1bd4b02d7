"""Group construction, products, representations, subgroups.

Oracles: exhaustive law checks, element-order profiles for isomorphism-type
identification, a brute subset-closure subgroup count, and an independent
Cayley-table construction of the regular representation.
"""

import time
from collections import Counter
from itertools import combinations

import pytest

from ostar.errors import BudgetError
from ostar.groups import (
    AbelianGroup,
    ActionHom,
    Automorphism,
    PermRep,
    WreathSpec,
    build_semidirect,
    build_wreath,
    dihedral,
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


def direct_product(a_factors, h_factors):
    A, H = AbelianGroup(a_factors), AbelianGroup(h_factors)
    return build_semidirect(A, H, ActionHom.trivial(H, A))


# -- abelian groups ------------------------------------------------------------


def test_abelian_enumeration_and_codes():
    A = AbelianGroup([2, 3])
    els = A.elements()
    assert len(els) == 6 == A.order
    assert len(set(els)) == 6
    for i, a in enumerate(els):
        assert A.code(a) == i
        assert A.element_at(i) == a
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
    assert inv.compose(inv).is_identity()
    assert inv.inverse() == inv


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
        assert G.element_at(i) == g


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
    profile = Counter(G.order_of(g) for g in G.elements())
    D8 = dihedral(4)
    assert profile == Counter(D8.order_of(g) for g in D8.elements())
    assert profile[4] == 2
    assert G.natural_rep.degree == 4
    assert G.natural_rep.is_faithful()


def test_wreath_c3_c2():
    A = AbelianGroup([3])
    G = build_wreath(WreathSpec.regular(A, AbelianGroup([2])))
    assert G.order == 18
    from ostar.cyclotomic import prime_factors

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
    assert rep.is_homomorphism()


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


def test_regular_rep_trivial_group():
    T = build_semidirect(
        AbelianGroup([1]), AbelianGroup([1]),
        ActionHom.trivial(AbelianGroup([1]), AbelianGroup([1])),
    )
    rep = regular_rep(T)
    assert rep.degree == 1
    assert rep.perm(T.identity) == (0,)


# -- subgroups -------------------------------------------------------------------------


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
    T = build_semidirect(
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
    subs = set(enumerate_subgroups(G))
    assert subs == brute_subgroups(G)
    assert len(subs) == count


def test_d6_subgroup_orders():
    G = dihedral(3)
    orders = sorted(len(s) for s in enumerate_subgroups(G))
    assert orders == [1, 2, 2, 2, 3, 6]


def test_subgroups_satisfy_lagrange_and_identity():
    G = dihedral(5)
    for S in enumerate_subgroups(G):
        assert G.identity in S
        assert G.order % len(S) == 0


def test_enumerate_subgroups_bound_refusal():
    G = dihedral(7)
    with pytest.raises(BudgetError):
        enumerate_subgroups(G, bound=10)


def pairwise_join_subgroups(G):
    """The former enumeration, kept as a reference: close the cyclic
    subgroups under pairwise join until a fixpoint."""
    subs = {frozenset(G.cyclic(g)) for g in G.elements()}
    frontier = list(subs)
    while frontier:
        fresh = []
        for S in frontier:
            for T in list(subs):
                if S <= T or T <= S:
                    continue
                J = frozenset(G.closure(S | T))
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
    assert enumerate_subgroups(G) == pairwise_join_subgroups(G)


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
