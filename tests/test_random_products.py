"""Seeded sweep over randomly generated semidirect products.

Power maps a -> k*a are automorphisms whenever k is a unit modulo every
factor, and any two of them commute, so they generate a rich supply of
valid actions (inversion, the pq actions and the Z-group actions all arise
this way).  Each sampled group goes through the whole pipeline: exact table
validation, dimension vs orbital-sum consistency, and decider/oracle
agreement, under the regular representation for order at most 12 and under
the representation on the points of A for order at most 36.

Regular-action wreath products and seeded named-family members of order at
most 64 are swept too, under their natural representation and under it
padded by one fixed point, wherever n^m stays small, and so are four
groups whose action is a matrix that no power map gives (A4, AGL(1, 8),
C3^2 x| C4 and AGL(1, 9)) on the points of A.  In every case the
main theorem, the subgroup criterion and the brute-force oracle must agree
whenever both sides of a comparison are conclusive.
"""

import math
import random

import pytest

from ostar.characters import char_value_general, character_table
from ostar.decide import (
    INCONCLUSIVE,
    brute_force_verify,
    decide_main_theorem,
    decide_subgroup_criterion,
)
from ostar.groups import (
    FAMILIES,
    AbelianGroup,
    ActionHom,
    Automorphism,
    PermRep,
    SemidirectGroup,
    WreathSpec,
    build_wreath,
    regular_rep,
)
from ostar.symclass import dim_symmetry_class, orbit_scan

A_CHOICES = [[2], [3], [4], [5], [2, 2], [6], [3, 3]]
H_CHOICES = [[2], [3], [4], [2, 2]]


def power_action(A, H, rng):
    """A random action where every H-generator acts as a unit power map."""
    images = []
    for d in H.factors:
        units = [
            k
            for k in range(1, A.exponent + 1)
            if math.gcd(k, A.exponent) == 1 and pow(k, d, A.exponent) == 1 % A.exponent
        ]
        k = rng.choice(units)
        images.append(
            Automorphism(A, tuple(A.mul_scalar(k, g) for g in A.generators()))
        )
    return ActionHom(H, A, tuple(images))


def sample_groups(seed, count, max_order):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        A = AbelianGroup(rng.choice(A_CHOICES))
        H = AbelianGroup(rng.choice(H_CHOICES))
        if A.order * H.order > max_order:
            continue
        out.append(SemidirectGroup(A, H, power_action(A, H, rng)))
    return out


def sample_family_members(seed, count, max_order):
    """Distinct named-family members of order <= max_order: a family is
    drawn, then parameters from 1..14 until the family accepts them."""
    rng = random.Random(seed)
    names = sorted(FAMILIES)
    out = {}
    while len(out) < count:
        ctor, keys = FAMILIES[rng.choice(names)]
        G = None
        while G is None:
            params = tuple(rng.randint(1, 14) for _ in keys)
            try:
                G = ctor(*params)
            except ValueError:
                pass
        if G.order <= max_order:
            out[G.origin, params] = G
    return list(out.values())


def assert_pipeline_agrees(G, rep, n):
    """Dimensions equal orbital sums, and the two theorem deciders agree
    with the brute-force oracle wherever both are conclusive."""
    m = rep.degree
    for chi in character_table(G).chars:
        records = orbit_scan(G, rep, chi, m, n)
        total = sum(r.s_alpha for r in records if r.in_delta_bar)
        assert dim_symmetry_class(G, rep, chi, n) == total
        brute = brute_force_verify(G, rep, chi, n)
        for theorem_verdict in (
            decide_main_theorem(G, rep, chi, n),
            decide_subgroup_criterion(G, rep, chi, n),
        ):
            if INCONCLUSIVE in (theorem_verdict.status, brute.status):
                continue
            assert theorem_verdict.status == brute.status, (G, rep.degree, n, chi)


@pytest.mark.parametrize("seed", [1, 2])
def test_random_products_full_pipeline(seed):
    for G in sample_groups(seed, count=4, max_order=12):
        table = character_table(G)
        assert table.report.ok, (G, table.report.failures)
        assert sum(c.degree**2 for c in table.chars) == G.order
        assert_pipeline_agrees(G, regular_rep(G), 2)


INDEX_BOUND = 20_000


def points_rep(G):
    """G on the points of A: (a, h) sends x to phi_h^-1(x + a), so A acts
    by translations and H through phi, as a right action like the affine
    natural reps.  The kernel is {(0, h) : phi_h = 1}, so the
    representation is unfaithful whenever phi is."""
    A, H = G.A, G.H
    points = A.elements()
    code = {x: i for i, x in enumerate(points)}
    translations = [tuple(code[A.add(x, g)] for x in points) for g in A.generators()]
    actions = [tuple(code[G.phi.apply(H.neg(g), x)] for x in points)
               for g in H.generators()]
    return PermRep(G, translations, actions)


POINTS_SEEDS = [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("seed", POINTS_SEEDS)
def test_random_products_on_the_points_of_A(seed):
    cases = 0
    for G in sample_groups(seed, count=4, max_order=36):
        assert character_table(G).report.ok
        rep = points_rep(G)
        for n in (2, 3):
            if n**rep.degree <= INDEX_BOUND:
                assert_pipeline_agrees(G, rep, n)
                cases += 1
    assert cases > 0


def test_points_reps_include_unfaithful_and_nonabelian_cases():
    groups = [G for seed in POINTS_SEEDS for G in sample_groups(seed, count=4, max_order=36)]
    assert any(not points_rep(G).is_faithful() for G in groups)
    assert any(not G.is_abelian() and points_rep(G).is_faithful() for G in groups)
    assert max(G.order for G in groups) > 12


WREATH_FACTORS = [([2], [2]), ([3], [2]), ([2], [3]), ([2], [4])]


def natural_and_padded_cases(G):
    reps = [G.natural_rep, G.natural_rep.extended(G.natural_rep.degree + 1)]
    return [(rep, n) for rep in reps for n in (2, 3) if n**rep.degree <= INDEX_BOUND]


@pytest.mark.parametrize("factors", WREATH_FACTORS, ids=str)
def test_regular_wreaths_natural_and_padded(factors):
    G = build_wreath(WreathSpec.regular(*map(AbelianGroup, factors)))
    cases = natural_and_padded_cases(G)
    assert cases
    for rep, n in cases:
        assert_pipeline_agrees(G, rep, n)


@pytest.mark.parametrize("seed", [4, 8])
def test_family_members_natural_and_padded(seed):
    swept = 0
    for G in sample_family_members(seed, count=4, max_order=64):
        for rep, n in natural_and_padded_cases(G):
            assert_pipeline_agrees(G, rep, n)
            swept += 1
    assert swept > 0


def test_power_actions_cover_nonabelian_cases():
    rng = random.Random(0)
    groups = sample_groups(0, count=12, max_order=12)
    assert any(not G.is_abelian() for G in groups)


# groups whose H acts on A by a matrix that no power map gives: the cyclic
# H's generator sends the generators of A to the images listed
MATRIX_ACTIONS = {
    # A4 = C2^2 x| C3: e1 -> e2, e2 -> e1 + e2
    "A4": ([2, 2], [3], [(0, 1), (1, 1)]),
    # AGL(1, 8) = C2^3 x| C7: x times GF(8) = F2[x]/(x^3 + x + 1), the
    # companion matrix of x^3 + x + 1
    "AGL(1,8)": ([2, 2, 2], [7], [(0, 1, 0), (0, 0, 1), (1, 1, 0)]),
    # C3^2 x| C4: (x, y) -> (-y, x)
    "C3^2:C4": ([3, 3], [4], [(0, 1), (2, 0)]),
    # AGL(1, 9) = C3^2 x| C8: 1 + i times GF(9) = F3[i]/(i^2 + 1), a
    # generator of GF(9)*
    "AGL(1,9)": ([3, 3], [8], [(1, 1), (2, 1)]),
}


@pytest.mark.parametrize("name", MATRIX_ACTIONS)
def test_actions_that_are_not_power_maps(name):
    a_factors, h_factors, images = MATRIX_ACTIONS[name]
    A, H = AbelianGroup(a_factors), AbelianGroup(h_factors)
    assert all(list(images) != [A.mul_scalar(k, g) for g in A.generators()]
               for k in range(A.exponent))
    G = SemidirectGroup(A, H, ActionHom(H, A, (Automorphism(A, images),)))
    assert G.order == A.order * H.order and not G.is_abelian()
    table = character_table(G)
    assert table.report.ok, (name, table.report.failures)
    for chi in table.chars:
        for g in G.elements():
            assert chi.value(g) == char_value_general(chi, g), (name, g)
    rep = points_rep(G)
    cases = [n for n in (2, 3) if n**rep.degree <= INDEX_BOUND]
    assert cases
    for n in cases:
        assert_pipeline_agrees(G, rep, n)
