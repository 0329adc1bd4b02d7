"""The o*-basis deciders and the brute-force oracle.

The agreement suite runs every decider against the oracle over small groups
with their natural representations and insists definite statuses coincide.
"""

import re
import time

import pytest

from ostar import decide
from ostar.characters import character_table, zero_set
from ostar.decide import (
    ADMITS,
    BRUTE_FORCE,
    VERTEX_BUDGET,
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
    TrivialStabilizerSearch,
    Verdict,
    _require_validated,
)
from ostar.errors import BudgetError, ConsistencyError
from ostar.groups import (
    AbelianGroup,
    ActionHom,
    PermRep,
    WreathSpec,
    SemidirectGroup,
    build_wreath,
    dihedral,
    element_json,
    group_pq,
    pinv,
    regular_rep,
    z_group,
)
from ostar import symclass
from ostar.symclass import (
    DEFAULT_INDEX_BUDGET,
    _orbit_partition,
    _require_same_group,
    coset_transversal,
    index_from_code,
    inner_product,
    orbit_scan,
    stabilizer,
)
from test_acceptance import TABLE_SUITE, group as suite_group
from test_random_products import sample_groups
from test_symclass import (
    elements_of,
    reference_coset_sums,
    reference_coset_transversal,
)


def trivial_group():
    T = AbelianGroup([1])
    return SemidirectGroup(T, T, ActionHom.trivial(T, T))


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
    s = find_trivial_stabilizer_alpha(G, rep.extended(6), 4, index_budget=100)
    assert s.alpha is None and s.proven_none and not s.fast_path
    assert s.to_json()["status"] == "proven_none"


def scan_trivial_stabilizer_alpha(G, rep, n, index_budget=DEFAULT_INDEX_BUDGET):
    """The former find_trivial_stabilizer_alpha, kept as the reference: an
    ascending scan of Gamma_{m,n} that builds every image tuple."""
    _require_same_group(G, rep)
    if not rep.is_faithful():
        return TrivialStabilizerSearch(None, True, False)
    m = rep.degree
    total = n**m
    nonid = [g for g in G.elements() if g != G.identity]
    if total <= index_budget:
        invs = [pinv(rep.perm(g)) for g in nonid]
        for code in range(total):
            alpha = index_from_code(code, m, n)
            for iv in invs:
                if tuple(alpha[j] for j in iv) == alpha:
                    break
            else:
                return TrivialStabilizerSearch(alpha, False, False)
        return TrivialStabilizerSearch(None, True, False)
    if rep.kind == "regular" and n >= 2:
        alpha = tuple(2 if i == 0 else 1 for i in range(m))
        for g in nonid:
            if tuple(alpha[j] for j in pinv(rep.perm(g))) == alpha:
                raise ConsistencyError(
                    "regular-representation fast path produced a stabilized index"
                )
        return TrivialStabilizerSearch(alpha, False, True)
    return TrivialStabilizerSearch(None, False, False)


def padded_copy(rep, pad):
    """A new representation object, so with no partition cached on it,
    padded with pad fixed points."""
    fixed = tuple(range(rep.degree, rep.degree + pad))
    return PermRep(rep.group, tuple(p + fixed for p in rep.a_images),
                   tuple(p + fixed for p in rep.h_images),
                   kind=rep.kind, degree=rep.degree + pad)


def trivial_stabilizer_cases():
    bases = []
    for name in TABLE_SUITE:
        G = suite_group(name)
        bases += [(name, G.natural_rep), (f"{name}-regular", regular_rep(G))]
    bases += [
        (f"random{seed}.{i}", regular_rep(G))
        for seed in (1, 2)
        for i, G in enumerate(sample_groups(seed, count=4, max_order=12))
    ]
    # unfaithful: D12 acts on 3 points through S_3
    d12 = dihedral(6)
    bases.append(("D12on3", PermRep(d12, ((1, 2, 0),), ((0, 2, 1),))))
    return [(f"{label}+{pad}", rep, pad) for label, rep in bases for pad in (0, 1, 2)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trivial_stabilizer_walk_matches_scan_reference(n):
    checked = 0
    for label, base, pad in trivial_stabilizer_cases():
        G, m = base.group, base.degree + pad
        total = n**m
        if total > 20000:
            continue
        for budget in (total, total - 1, DEFAULT_INDEX_BUDGET):
            rep = padded_copy(base, pad)
            want = scan_trivial_stabilizer_alpha(G, rep, n, index_budget=budget)
            got = find_trivial_stabilizer_alpha(G, rep, n, index_budget=budget)
            assert got.to_json() == want.to_json(), (label, n, budget)
        # with the partition cached, the search reads the cached list
        _orbit_partition(G, rep, m, n, DEFAULT_INDEX_BUDGET)
        got = find_trivial_stabilizer_alpha(G, rep, n)
        assert got.to_json() == want.to_json(), (label, n, "cached")
        checked += 1
    assert checked >= {1: 99, 2: 79, 3: 53, 4: 34}[n]


def test_early_witness_leaves_no_partition_cached():
    G = dihedral(7)
    rep = padded_copy(G.natural_rep, 0)
    s = find_trivial_stabilizer_alpha(G, rep, 7)
    assert s.alpha == (1, 1, 1, 1, 1, 2, 3) and not s.proven_none
    assert (7, 7) not in getattr(rep, "_orbit_cache", {})
    s = find_trivial_stabilizer_alpha(G, rep, 3)
    assert s.alpha is not None and (7, 3) not in rep._orbit_cache
    # a full walk after an abandoned one caches, and returns, its own list
    parts = _orbit_partition(G, rep, 7, 3, DEFAULT_INDEX_BUDGET)
    assert parts is rep._orbit_cache[(7, 3)]
    assert parts == _orbit_partition(
        G, padded_copy(G.natural_rep, 0), 7, 3, DEFAULT_INDEX_BUDGET)


def test_proven_none_search_caches_the_partition_for_orbit_scan(monkeypatch):
    rep = padded_copy(D6_REP, 2)
    s = find_trivial_stabilizer_alpha(D6, rep, 2)
    assert s.alpha is None and s.proven_none
    cached = rep._orbit_cache[(5, 2)]
    assert _orbit_partition(D6, rep, 5, 2, DEFAULT_INDEX_BUDGET) is cached
    want = {chi: orbit_scan(D6, padded_copy(D6_REP, 2), chi, 5, 2)
            for chi in D6_CHARS}

    def no_walk(*args):
        raise AssertionError("the cached partition was walked again")

    monkeypatch.setattr(symclass, "_walk_orbits", no_walk)
    for chi in D6_CHARS:
        assert orbit_scan(D6, rep, chi, 5, 2) == want[chi]
    assert rep._orbit_cache[(5, 2)] is cached
    assert find_trivial_stabilizer_alpha(D6, rep, 2) == s


def test_pipeline_walks_gamma_once_for_a_late_witness(monkeypatch):
    # D10 padded to m=14 at n=3 has its first trivial stabilizer late in
    # the walk, so no partition is cached; the search outcome kept on rep
    # answers every later character, with the verdicts of a fresh rep each
    G = dihedral(5)
    chars = character_table(G).chars
    walk = symclass._walk_orbits
    calls = []

    def counting(*args):
        # a generator, so only a walk that starts is counted
        calls.append(args)
        yield from walk(*args)

    monkeypatch.setattr(symclass, "_walk_orbits", counting)
    fresh = [decide_pipeline(G, G.natural_rep.extended(14), chi, 3).to_json()
             for chi in chars]
    assert len(calls) == 2  # one per nonlinear character
    calls.clear()
    rep = G.natural_rep.extended(14)
    assert [decide_pipeline(G, rep, chi, 3).to_json() for chi in chars] == fresh
    assert len(calls) == 1
    assert (14, 3) not in rep._orbit_cache


@pytest.mark.parametrize("n", [0, -1])
def test_deciders_refuse_n_below_one(n):
    # n = 0 and n = -1 answered proven_none, and the oracle raised
    # ZeroDivisionError or a bare ValueError("negative count")
    d12 = dihedral(6)
    unfaithful = PermRep(d12, ((1, 2, 0),), ((0, 2, 1),))
    for call in (
        lambda: find_trivial_stabilizer_alpha(D6, D6_REP, n),
        # refused before the faithfulness shortcut
        lambda: find_trivial_stabilizer_alpha(d12, unfaithful, n),
        lambda: decide_main_theorem(D6, D6_REP, CHI2, n),
        lambda: decide_subgroup_criterion(D6, D6_REP, CHI2, n),
        lambda: brute_force_verify(D6, D6_REP, CHI2, n),
    ):
        with pytest.raises(ValueError, match=rf"n = {n} is not a positive integer"):
            call()


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


def test_named_family_refuses_chi_index_outside_the_table():
    # -1 decided the last character without saying so; 3 raised IndexError
    for i in (-1, 3):
        with pytest.raises(ValueError, match=rf"chi_index {i} is outside 0\.\.2"):
            decide_named_family("dihedral_odd_s", {"s": 3}, i, 3)


@pytest.mark.parametrize("family,params,keys", [
    ("pq", {"p": 3, "r": 2}, "['p', 'q', 'r']"),
    ("dihedral_odd_s", {"s": 3, "t": 2}, "['s']"),
    ("z_group", {}, "['s', 't', 'r']"),
])
def test_named_family_refuses_params_with_other_keys(family, params, keys):
    # a missing key raised KeyError, an extra one was ignored
    with pytest.raises(ValueError, match=re.escape(f"{family} takes the params {keys}")):
        decide_named_family(family, params, 0, 3)


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


def test_brute_force_vertex_budget(monkeypatch):
    monkeypatch.setattr(decide, "VERTEX_BUDGET", 2)
    v = brute_force_verify(D6, D6_REP, CHI2, 3)
    assert v.status == INCONCLUSIVE
    assert "budget_refused" in v.witness


def test_brute_force_clique_node_budget(monkeypatch):
    monkeypatch.setattr(decide, "CLIQUE_NODE_BUDGET", 1)
    v = brute_force_verify(D6, D6_REP, CHI2, 3)
    assert v.status == INCONCLUSIVE and v.justification == BRUTE_FORCE
    assert "clique node budget 1" in v.witness["budget_refused"]
    assert v.per_orbit
    assert all(p["clique"] is None and p["budget_exceeded"] for p in v.per_orbit)


# -- per-stabilizer oracle against the per-orbit loop -------------------------------------


def per_orbit_find_clique(adj, k):
    """The former _find_clique, kept as a reference: no node budget."""
    nvert = len(adj)
    if k <= 0:
        return []
    deg = [sum(row) for row in adj]
    order = sorted(range(nvert), key=lambda v: (-deg[v], v))

    def grow(clique, cands):
        if len(clique) == k:
            return clique
        if len(clique) + len(cands) < k:
            return None
        for i, v in enumerate(cands):
            got = grow(clique + [v], [u for u in cands[i + 1:] if adj[v][u]])
            if got is not None:
                return got
        return None

    return grow([], order)


def per_orbit_brute_force_verify(G, rep, chi, n,
                                 index_budget=DEFAULT_INDEX_BUDGET,
                                 vertex_budget=VERTEX_BUDGET):
    """The former sequential brute_force_verify, kept as a reference: one
    coset transversal, coset-sum table and clique search per Delta-bar
    orbit, with the transversal, the sums and the adjacency loop all on
    tuple products."""
    _require_validated(G, rep, chi)
    try:
        records = orbit_scan(G, rep, chi, rep.degree, n, index_budget=index_budget)
    except BudgetError as exc:
        return Verdict(INCONCLUSIVE, BRUTE_FORCE, {"budget_refused": str(exc)})
    bar = [r for r in records if r.in_delta_bar]
    if sum(r.s_alpha for r in bar) == 0:
        return Verdict(
            INCONCLUSIVE, BRUTE_FORCE, {"zero_dimension": True, "dim": 0}
        )

    def handle(record):
        alpha = record.rep
        reps = reference_coset_transversal(alpha, G, rep)
        if len(reps) > vertex_budget:
            return {
                "rep": list(alpha),
                "s_alpha": record.s_alpha,
                "clique": None,
                "budget_exceeded": True,
            }
        sums = reference_coset_sums(chi, G, elements_of(G, record.stabilizer))
        nvert = len(reps)
        invs = [G.inv(r) for r in reps]
        adj = [[False] * nvert for _ in range(nvert)]
        for i in range(nvert):
            for j in range(i + 1, nvert):
                if sums[G.mul(reps[j], invs[i])].is_zero():
                    adj[i][j] = adj[j][i] = True
        clique = per_orbit_find_clique(adj, record.s_alpha)
        return {
            "rep": list(alpha),
            "s_alpha": record.s_alpha,
            "clique": (
                None
                if clique is None
                else [element_json(reps[v]) for v in sorted(clique)]
            ),
        }

    per_orbit = [handle(r) for r in bar]

    out_of_budget = [p for p in per_orbit if p.get("budget_exceeded")]
    if out_of_budget:
        return Verdict(
            INCONCLUSIVE,
            BRUTE_FORCE,
            {"budget_refused": f"{len(out_of_budget)} orbit(s) exceeded the "
                               f"vertex budget {vertex_budget}"},
            per_orbit,
        )
    failures = [p for p in per_orbit if p["clique"] is None]
    if failures:
        return Verdict(
            NOT_ADMITS,
            BRUTE_FORCE,
            {"failing_orbit": failures[0]["rep"],
             "s_alpha": failures[0]["s_alpha"]},
            per_orbit,
        )
    return Verdict(
        ADMITS, BRUTE_FORCE, {"orbits_in_delta_bar": len(bar)}, per_orbit
    )


def oracle_differential_cases():
    """(G, rep, n, vertex_budget) cases: the acceptance table suite at n=2,
    and at n=3 except D18 and F55 (6 s and 188 s for the per-orbit loop),
    under natural reps; the random sweep's groups under the regular rep at
    n=2; and one refusal by the vertex budget."""
    for n in (2, 3):
        for name in TABLE_SUITE:
            if n == 3 and name in ("D18", "F55"):
                continue
            G = suite_group(name)
            yield pytest.param(G, G.natural_rep, n, VERTEX_BUDGET,
                               id=f"{name}-n{n}")
    for seed in (1, 2):
        for i, G in enumerate(sample_groups(seed, count=4, max_order=12)):
            yield pytest.param(G, regular_rep(G), 2, VERTEX_BUDGET,
                               id=f"random{seed}.{i}-n2")
    G = suite_group("D8")
    yield pytest.param(G, G.natural_rep, 3, 2, id="D8-n3-vertex2")


@pytest.mark.parametrize("G, rep, n, vertex_budget", oracle_differential_cases())
def test_brute_force_matches_per_orbit_loop(G, rep, n, vertex_budget, monkeypatch):
    monkeypatch.setattr(decide, "VERTEX_BUDGET", vertex_budget)
    for i, chi in enumerate(character_table(G).chars):
        new = brute_force_verify(G, rep, chi, n)
        old = per_orbit_brute_force_verify(G, rep, chi, n,
                                           vertex_budget=vertex_budget)
        assert new.to_json() == old.to_json(), i


@pytest.mark.parametrize("name", ["D22", "F55"])
def test_brute_force_n3_all_characters_fast(name):
    # the per-orbit loop took minutes on each (81 s and 188 s on a 2-CPU
    # x86-64 VM); both have few distinct stabilizers
    start = time.perf_counter()
    G = dihedral(11) if name == "D22" else group_pq(5, 11, 3)
    statuses = [brute_force_verify(G, G.natural_rep, chi, 3).status
                for chi in character_table(G).chars]
    elapsed = time.perf_counter() - start
    assert INCONCLUSIVE not in statuses
    assert elapsed < 3.0, f"{name} n=3 verify took {elapsed:.2f} s"


# -- structural verdict properties ----------------------------------------------------------


AGREEMENT_SUITE = [
    (dihedral(3), "natural"),
    (dihedral(4), "natural"),
    (dihedral(5), "natural"),
    (dihedral(6), "natural"),
    (z_group(5, 4, 2), "natural"),
    (build_wreath(WreathSpec.regular(AbelianGroup([2]), AbelianGroup([2]))), "natural"),
    (build_wreath(WreathSpec.regular(AbelianGroup([3]), AbelianGroup([2]))), "natural"),
    (SemidirectGroup(AbelianGroup([3]), AbelianGroup([2]),
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
                    orthogonal = inner_product(r.rep, g, chi, G, rep).is_zero()
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


def test_deciders_refuse_a_representation_of_another_group():
    # equal element tuples, different products: G2's natural rep is not a
    # homomorphism of G1
    G1, G2 = z_group(7, 3, 2), z_group(7, 3, 4)
    assert G1.elements() == G2.elements()
    chi = [c for c in character_table(G1).chars if c.degree == 3][0]
    for fn in (decide_main_theorem, decide_subgroup_criterion, decide_pipeline,
               brute_force_verify):
        with pytest.raises(ValueError, match="representation does not belong"):
            fn(G1, G2.natural_rep, chi, 2)
    with pytest.raises(ValueError, match="representation does not belong"):
        orbit_scan(G1, G2.natural_rep, chi, 7, 2)


def test_trivial_stabilizer_search_refuses_a_representation_of_another_group():
    G1, G2 = z_group(7, 3, 2), z_group(7, 3, 4)
    assert find_trivial_stabilizer_alpha(G1, G1.natural_rep, 2).alpha is not None
    with pytest.raises(ValueError, match="representation does not belong"):
        find_trivial_stabilizer_alpha(G1, G2.natural_rep, 2)


def test_pipeline_combines_diagnostics():
    v = decide_pipeline(D6, D6_REP, CHI2, 2)
    assert v.status == INCONCLUSIVE
    assert "main_theorem" in v.witness and "subgroup_criterion" in v.witness


def test_pipeline_enumerates_the_subgroup_lattice_once(monkeypatch):
    # the lattice depends only on the group: cached on G, it is enumerated
    # once for all characters, with the same verdicts as a fresh lattice
    # per character, and the bound still refuses on every call
    from ostar import groups

    G = build_wreath(WreathSpec.regular(AbelianGroup([2]), AbelianGroup([4])))
    rep = G.natural_rep
    chars = character_table(G).chars
    assert len(chars) == 13
    lattice = groups._subgroup_lattice
    calls = []

    def counting(H):
        calls.append(H)
        return lattice(H)

    monkeypatch.setattr(groups, "_subgroup_lattice", counting)
    fresh = []
    for chi in chars:
        G._subgroups = None
        fresh.append(decide_pipeline(G, rep, chi, 3).to_json())
    assert len(calls) == 5  # one per character that reaches the criterion
    calls.clear()
    G._subgroups = None
    assert [decide_pipeline(G, rep, chi, 3).to_json() for chi in chars] == fresh
    assert calls == [G]
    with pytest.raises(BudgetError):
        groups.enumerate_subgroups(G, bound=G.order - 1)
    chi = next(chi for chi in chars if chi.degree > 1)
    v = decide_subgroup_criterion(G, rep, chi, 3, subgroup_bound=G.order - 1)
    assert v.status == INCONCLUSIVE and "budget_refused" in v.witness
