"""The o*-basis deciders and the brute-force oracle.

The agreement suite runs every decider against the oracle over small groups
with their natural representations and insists definite statuses coincide.
"""

import pytest

from ostar.characters import character_table, zero_set
from ostar.decide import (
    ADMITS,
    BRUTE_FORCE,
    INCONCLUSIVE,
    LINEAR_CHARACTER,
    MAIN_THEOREM,
    NAMED_FAMILY,
    NOT_ADMITS,
    SUBGROUP_CRITERION,
    WREATH_COROLLARY,
    brute_force_verify,
    decide_main_theorem,
    decide_named_family,
    decide_pipeline,
    decide_subgroup_criterion,
    find_trivial_stabilizer_alpha,
)
from ostar.groups import (
    AbelianGroup,
    ActionHom,
    PermRep,
    WreathSpec,
    build_semidirect,
    build_wreath,
    dihedral,
    group_pq,
    regular_rep,
    z_group,
)
from ostar.symclass import coset_transversal, inner_product, orbit_scan, stabilizer


def trivial_group():
    T = AbelianGroup([1])
    return build_semidirect(T, T, ActionHom.trivial(T, T))


D6 = dihedral(3)
D6_REP = D6.natural_rep
D6_CHARS = character_table(D6).chars
CHI2 = D6_CHARS[2]


# -- trivial-stabilizer search ----------------------------------------------------


def test_find_alpha_trivial_group():
    T = trivial_group()
    rep = regular_rep(T)
    s = find_trivial_stabilizer_alpha(T, rep, 2)
    assert s.alpha == (1,) and not s.fast_path


def test_find_alpha_d6():
    s3 = find_trivial_stabilizer_alpha(D6, D6_REP, 3)
    assert s3.alpha == (1, 2, 3)
    s2 = find_trivial_stabilizer_alpha(D6, D6_REP, 2)
    assert s2.alpha is None and s2.proven_none
    # exhaustive cross-check: every binary multi-index is stabilized
    for code in range(2**3):
        alpha = tuple(1 + ((code >> k) & 1) for k in range(3))
        assert len(stabilizer(alpha, D6, D6_REP)) > 1


def test_find_alpha_regular_fast_path():
    G = group_pq(3, 7, 2)
    rep = regular_rep(G)
    # 3^21 blows any reasonable budget; the regular representation still
    # produces a verified witness without scanning
    s = find_trivial_stabilizer_alpha(G, rep, 3, index_budget=10**6)
    assert s.fast_path and s.alpha is not None
    assert s.alpha[0] == 2 and set(s.alpha[1:]) == {1}
    assert len(stabilizer(s.alpha, G, rep)) == 1


def test_find_alpha_budget_without_fast_path():
    G = group_pq(3, 7, 2)
    s = find_trivial_stabilizer_alpha(G, G.natural_rep, 3, index_budget=10)
    assert s.alpha is None and not s.proven_none and not s.fast_path


def test_find_alpha_unfaithful_rep_proven_none_beyond_budget():
    # D12 = C_6 x| C_2 acting on 3 points through S_3: the rotation by 3
    # acts trivially, so it lies in every stabilizer at any n and m
    G = dihedral(6)
    rep = PermRep(G, ((1, 2, 0),), ((0, 2, 1),))
    assert not rep.is_faithful()
    s = find_trivial_stabilizer_alpha(G, rep, 4, m=6, index_budget=100)
    assert s.alpha is None and s.proven_none and not s.fast_path
    assert s.to_json()["status"] == "proven_none"


# -- main criterion -----------------------------------------------------------------


def test_main_theorem_d6_n3():
    for chi in D6_CHARS:
        v = decide_main_theorem(D6, D6_REP, chi, 3)
        if chi.degree == 1:
            assert v.status == ADMITS and v.justification == LINEAR_CHARACTER
        else:
            assert v.status == NOT_ADMITS and v.justification == MAIN_THEOREM
            assert v.witness["alpha"] == [1, 2, 3]
            assert v.witness["semigroup"] == {"k": 2, "primes": [3], "member": False}


def test_main_theorem_semigroup_obstruction():
    # |H| = 2 lies in N_0<{2}> for the order-8 dihedral group
    G = dihedral(4)
    rep = G.natural_rep
    chi = [c for c in character_table(G).chars if c.degree == 2][0]
    v = decide_main_theorem(G, rep, chi, 3)
    assert v.status == INCONCLUSIVE
    assert "H_order_in_semigroup" in v.witness["failed_hypotheses"]


def test_main_theorem_no_alpha_inconclusive():
    v = decide_main_theorem(D6, D6_REP, CHI2, 2)
    assert v.status == INCONCLUSIVE
    assert v.witness["failed_hypotheses"] == ["no_trivial_stabilizer_alpha"]
    assert v.witness["alpha_search"]["status"] == "proven_none"


def test_zero_dimension_reported_not_vacuous_admits():
    sign = [c for c in D6_CHARS if c.degree == 1
            and c.value(((0,), (1,))) == -1][0]
    v = decide_main_theorem(D6, D6_REP, sign, 2)
    assert v.status == INCONCLUSIVE
    assert v.witness["zero_dimension"] is True
    b = brute_force_verify(D6, D6_REP, sign, 2)
    assert b.status == INCONCLUSIVE
    assert b.witness["zero_dimension"] is True


def test_main_theorem_wreath_justification():
    G = build_wreath(WreathSpec.regular(AbelianGroup([3]), AbelianGroup([2])))
    rep = G.natural_rep
    chi = [c for c in character_table(G).chars if c.degree == 2][0]
    v = decide_main_theorem(G, rep, chi, 2)
    assert v.justification == WREATH_COROLLARY
    # |H| = 2 avoids N_0<{3}> and a trivial-stabilizer index exists at n = 2
    assert v.status == NOT_ADMITS


def test_main_theorem_rejects_foreign_character():
    other = dihedral(5)
    chi = character_table(other).chars[2]
    with pytest.raises(ValueError):
        decide_main_theorem(D6, D6_REP, chi, 3)


# -- named families -----------------------------------------------------------------


def test_named_family_dihedral():
    chars = character_table(dihedral(5)).chars
    for i, chi in enumerate(chars):
        v = decide_named_family("dihedral_odd_s", {"s": 5}, i, 3)
        if chi.degree == 1:
            assert v.status == ADMITS and v.justification == LINEAR_CHARACTER
        else:
            assert v.status == NOT_ADMITS and v.justification == NAMED_FAMILY


def test_named_family_rejects_even_s():
    with pytest.raises(ValueError):
        decide_named_family("dihedral_odd_s", {"s": 4}, 0, 3)
    with pytest.raises(ValueError):
        decide_named_family("frobenius", {"s": 3}, 0, 3)


def test_named_family_pq():
    chars = character_table(group_pq(3, 7, 2)).chars
    degree3 = [i for i, c in enumerate(chars) if c.degree == 3]
    for i in degree3:
        v = decide_named_family("pq", {"p": 3, "q": 7, "r": 2}, i, 3)
        assert v.status == NOT_ADMITS and v.justification == NAMED_FAMILY
        assert v.witness["semigroup"] == {"k": 3, "primes": [7], "member": False}


def test_named_family_hypothesis_failure_diagnosed():
    v = decide_named_family("dihedral_odd_s", {"s": 3}, 2, 2)
    assert v.status == INCONCLUSIVE and v.justification == NAMED_FAMILY
    assert v.witness["failed_hypotheses"] == ["no_trivial_stabilizer_alpha"]


def test_named_family_z_group():
    chars = character_table(z_group(5, 4, 2)).chars
    for i, chi in enumerate(chars):
        v = decide_named_family("z_group", {"s": 5, "t": 4, "r": 2}, i, 3)
        if chi.degree == 1:
            assert v.status == ADMITS
        else:
            assert v.status == NOT_ADMITS and v.justification == NAMED_FAMILY


# -- subgroup criterion ----------------------------------------------------------------


def test_subgroup_criterion_d6():
    v = decide_subgroup_criterion(D6, D6_REP, CHI2, 3)
    assert v.status == NOT_ADMITS and v.justification == SUBGROUP_CRITERION
    assert v.witness["subgroup_order"] == 3
    assert v.witness["index"] == 2
    assert v.witness["chi_degree_squared"] == 4
    # the witness subgroup really is the rotation subgroup, disjoint from the
    # zero set {reflections}
    members = {(tuple(a), tuple(h)) for a, h in v.witness["subgroup"]}
    assert members == {((a,), (0,)) for a in range(3)}
    zs = zero_set(CHI2)
    assert not members & zs


def test_subgroup_criterion_linear_always_inconclusive():
    for chi in D6_CHARS:
        if chi.degree == 1:
            v = decide_subgroup_criterion(D6, D6_REP, chi, 3)
            assert v.status == INCONCLUSIVE


def test_subgroup_criterion_needs_alpha():
    v = decide_subgroup_criterion(D6, D6_REP, CHI2, 2)
    assert v.status == INCONCLUSIVE
    assert v.witness["failed_hypotheses"] == ["no_trivial_stabilizer_alpha"]


def test_subgroup_criterion_exhausted_lattice_inconclusive():
    # order-8 dihedral, degree-2 character: the nonzero set is {e, r^2} and
    # the only subgroup inside it has index exactly chi(e)^2 = 4, not below
    G = dihedral(4)
    rep = G.natural_rep
    chi = [c for c in character_table(G).chars if c.degree == 2][0]
    assert find_trivial_stabilizer_alpha(G, rep, 3).alpha is not None
    v = decide_subgroup_criterion(G, rep, chi, 3)
    assert v.status == INCONCLUSIVE
    assert "every subgroup" in v.witness["reason"]


def test_subgroup_criterion_order_21():
    # the index-3 subgroup C_7 avoids the zero set of a degree-3 character
    # (its nonidentity values are 3-term sums of 7th roots, nonzero by the
    # semigroup criterion), so the verdict is definite
    G = group_pq(3, 7, 2)
    rep = G.natural_rep
    chars = character_table(G).chars
    chi = [c for c in chars if c.degree == 3][0]
    v = decide_subgroup_criterion(G, rep, chi, 3)
    assert v.status == NOT_ADMITS
    assert v.witness["subgroup_order"] == 7 and v.witness["index"] == 3


def test_subgroup_criterion_bound_refusal_is_inconclusive():
    v = decide_subgroup_criterion(D6, D6_REP, CHI2, 3, subgroup_bound=2)
    assert v.status == INCONCLUSIVE
    assert "budget_refused" in v.witness


# -- brute force -------------------------------------------------------------------------


def test_brute_force_d6_n2_fails_on_112():
    v = brute_force_verify(D6, D6_REP, CHI2, 2)
    assert v.status == NOT_ADMITS and v.justification == BRUTE_FORCE
    assert v.witness["failing_orbit"] == [1, 1, 2]
    by_rep = {tuple(p["rep"]): p for p in v.per_orbit}
    assert by_rep[(1, 1, 2)]["clique"] is None
    assert by_rep[(1, 1, 2)]["s_alpha"] == 2
    # hand check: all three pairwise inner products are -1/3, never zero
    reps = coset_transversal((1, 1, 2), D6, D6_REP)
    for i in range(3):
        for j in range(i + 1, 3):
            g = D6.mul(reps[j], D6.inv(reps[i]))
            assert not inner_product((1, 1, 2), g, CHI2, D6, D6_REP).is_zero()


def test_brute_force_linear_admits():
    for chi in D6_CHARS:
        if chi.degree == 1:
            v = brute_force_verify(D6, D6_REP, chi, 3)
            assert v.status == ADMITS and v.justification == BRUTE_FORCE
            assert all(p["clique"] is not None and len(p["clique"]) == p["s_alpha"]
                       for p in v.per_orbit)


def test_brute_force_agrees_with_main_theorem_d6_n3():
    v = brute_force_verify(D6, D6_REP, CHI2, 3)
    assert v.status == NOT_ADMITS
    assert decide_main_theorem(D6, D6_REP, CHI2, 3).status == NOT_ADMITS


def test_brute_force_threads_deterministic():
    v1 = brute_force_verify(D6, D6_REP, CHI2, 3, threads=1)
    v4 = brute_force_verify(D6, D6_REP, CHI2, 3, threads=4)
    assert v1.to_json() == v4.to_json()


def test_brute_force_vertex_budget():
    v = brute_force_verify(D6, D6_REP, CHI2, 3, vertex_budget=2)
    assert v.status == INCONCLUSIVE
    assert "budget_refused" in v.witness


# -- structural verdict properties ----------------------------------------------------------


AGREEMENT_SUITE = [
    (dihedral(3), "natural"),
    (dihedral(4), "natural"),
    (dihedral(5), "natural"),
    (dihedral(6), "natural"),
    (z_group(5, 4, 2), "natural"),
    (build_wreath(WreathSpec.regular(AbelianGroup([2]), AbelianGroup([2]))), "natural"),
    (build_wreath(WreathSpec.regular(AbelianGroup([3]), AbelianGroup([2]))), "natural"),
    (build_semidirect(AbelianGroup([3]), AbelianGroup([2]),
                      ActionHom.trivial(AbelianGroup([2]), AbelianGroup([3]))),
     "regular"),
]


def _suite_cases():
    for G, rep_kind in AGREEMENT_SUITE:
        rep = G.natural_rep if rep_kind == "natural" else regular_rep(G)
        assert rep.degree <= 6
        for n in (2, 3):
            for chi in character_table(G).chars:
                yield G, rep, chi, n


def test_agreement_between_deciders_and_oracle():
    checked = 0
    for G, rep, chi, n in _suite_cases():
        brute = brute_force_verify(G, rep, chi, n)
        for theorem_verdict in (
            decide_main_theorem(G, rep, chi, n),
            decide_subgroup_criterion(G, rep, chi, n),
        ):
            if INCONCLUSIVE in (theorem_verdict.status, brute.status):
                continue
            assert theorem_verdict.status == brute.status, (
                G, rep.kind, chi, n, theorem_verdict, brute)
            checked += 1
    assert checked >= 20


def test_verdict_monotonicity():
    # Admits only ever comes from the linear shortcut or the oracle; the two
    # non-existence criteria only produce NotAdmits or Inconclusive
    for G, rep, chi, n in _suite_cases():
        verdicts = [
            decide_main_theorem(G, rep, chi, n),
            decide_subgroup_criterion(G, rep, chi, n),
            brute_force_verify(G, rep, chi, n),
            decide_pipeline(G, rep, chi, n),
        ]
        for v in verdicts:
            if v.status == ADMITS:
                assert v.justification in (LINEAR_CHARACTER, BRUTE_FORCE)
            if v.justification in (MAIN_THEOREM, WREATH_COROLLARY,
                                   SUBGROUP_CRITERION, NAMED_FAMILY):
                assert v.status in (NOT_ADMITS, INCONCLUSIVE)


def test_trivial_stabilizer_orbital_dimension_is_index_squared():
    # s_alpha = (|H| / |H_x|)^2 on every trivial-stabilizer orbit
    for G, rep, chi, n in _suite_cases():
        records = orbit_scan(G, rep, chi, rep.degree, n)
        for r in records:
            if len(r.stabilizer) == 1:
                index = G.H.order // len(chi.orbit.stabilizer)
                assert r.s_alpha == index**2 == chi.degree**2


def test_coset_disjointness_in_trivial_stabilizer_orbits():
    """Under the main-criterion hypotheses with a nonlinear character, two
    cosets are orthogonal only when their H-parts differ modulo H_x, so no
    clique can reach s_alpha = (|H|/|H_x|)^2; the oracle must come up empty
    on those orbits."""
    cases = [(D6, D6_REP, CHI2, 3)]
    G21 = group_pq(3, 7, 2)
    chi21 = [c for c in character_table(G21).chars if c.degree == 3][0]
    cases.append((G21, G21.natural_rep, chi21, 2))
    for G, rep, chi, n in cases:
        stab_hx = frozenset(chi.orbit.stabilizer)
        records = orbit_scan(G, rep, chi, rep.degree, n)
        found = 0
        for r in records:
            if len(r.stabilizer) != 1:
                continue
            found += 1
            reps = coset_transversal(r.rep, G, rep)
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    g = G.mul(reps[j], G.inv(reps[i]))
                    orthogonal = inner_product(
                        r.rep, g, chi, G, rep, stab=r.stabilizer
                    ).is_zero()
                    # the H-part of reps[j] reps[i]^{-1} measures the coset
                    # of H_x the two vertices differ by
                    if g[1] in stab_hx:
                        assert not orthogonal
                    else:
                        assert orthogonal
            brute = brute_force_verify(G, rep, chi, n)
            by_rep = {tuple(p["rep"]): p for p in brute.per_orbit}
            assert by_rep[tuple(r.rep)]["clique"] is None
        assert found > 0


def test_pipeline_combines_diagnostics():
    v = decide_pipeline(D6, D6_REP, CHI2, 2)
    assert v.status == INCONCLUSIVE
    assert "main_theorem" in v.witness and "subgroup_criterion" in v.witness
