"""The o*-basis decision layer.

A symmetry class V_chi(G) admits an o*-basis when it has an orthogonal
basis consisting of decomposable symmetrized tensors e*_alpha.  This module
provides:

  * decide_main_theorem - the semidirect-product criterion: when some
    multi-index has trivial stabilizer and |H| avoids the numerical
    semigroup generated by the prime factors of |A|, the class admits an
    o*-basis iff the character is linear;
  * decide_named_family - the same criterion specialized to dihedral groups
    with odd rotation order, non-abelian groups of order pq, and Z-groups,
    with every hypothesis re-verified computationally;
  * decide_subgroup_criterion - non-existence via a subgroup avoiding the
    character's zero set at index below chi(e)^2;
  * brute_force_verify - an independent exact oracle that searches, once per
    stabilizer, an orbital subspace for s_alpha orthogonal symmetrized tensors.

Multi-indices have length rep.degree; pass rep.extended(m) to decide at a
larger m.  Every verdict carries machine-checkable witnesses.  "Proven
absent" and "not found within budget" are always kept distinct.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .characters import character_table, validated_table
from .cyclotomic import _ZeroSums, lam_leung_certifies_nonzero, prime_factors
from .errors import BudgetError, ConsistencyError
from .groups import (
    FAMILIES,
    element_json,
    enumerate_subgroups,
    SUBGROUP_CAP,
)
from .symclass import (
    DEFAULT_INDEX_BUDGET,
    _coset_table,
    _profile_scan,
    _require_positive_n,
    _require_same_group,
    _trivial_stabilizer_alpha,
    dim_symmetry_class,
    stabilizer,
)

__all__ = [
    "ADMITS",
    "NOT_ADMITS",
    "INCONCLUSIVE",
    "LINEAR_CHARACTER",
    "MAIN_THEOREM",
    "WREATH_COROLLARY",
    "NAMED_FAMILY",
    "SUBGROUP_CRITERION",
    "BRUTE_FORCE",
    "Verdict",
    "TrivialStabilizerSearch",
    "find_trivial_stabilizer_alpha",
    "decide_main_theorem",
    "decide_named_family",
    "decide_subgroup_criterion",
    "brute_force_verify",
    "decide_pipeline",
]

ADMITS = "Admits"
NOT_ADMITS = "NotAdmits"
INCONCLUSIVE = "Inconclusive"

LINEAR_CHARACTER = "LinearCharacter"
MAIN_THEOREM = "MainTheorem"
WREATH_COROLLARY = "WreathCorollary"
NAMED_FAMILY = "NamedFamilyCorollary"
SUBGROUP_CRITERION = "SubgroupCriterion"
BRUTE_FORCE = "BruteForce"

VERTEX_BUDGET = 512
CLIQUE_NODE_BUDGET = 1_000_000


@dataclass
class Verdict:
    """Decision with its provenance: which procedure produced it and the
    witnesses that make it checkable."""

    status: str
    justification: str
    witness: dict
    per_orbit: list | None = None

    def to_json(self):
        out = {
            "status": self.status,
            "justification": self.justification,
            "witness": self.witness,
            "per_orbit": self.per_orbit,
        }
        return out


@dataclass(frozen=True)
class TrivialStabilizerSearch:
    """Outcome of the hunt for alpha with trivial stabilizer.  alpha=None
    with proven_none=True means exhaustively ruled out; alpha=None with
    proven_none=False means n^m was out of budget with no fast path."""

    alpha: tuple | None
    proven_none: bool
    fast_path: bool

    def to_json(self):
        return {
            "alpha": list(self.alpha) if self.alpha is not None else None,
            "status": (
                "found"
                if self.alpha is not None
                else "proven_none" if self.proven_none else "budget_exceeded"
            ),
            "fast_path": self.fast_path,
        }

    @property
    def failed_hypothesis(self) -> str:
        """The name of the hypothesis that fails when alpha is None."""
        if self.proven_none:
            return "no_trivial_stabilizer_alpha"
        return "trivial_stabilizer_search_out_of_budget"


def find_trivial_stabilizer_alpha(G, rep, n, index_budget=DEFAULT_INDEX_BUDGET):
    """Lex-min multi-index of length rep.degree with trivial stabilizer.
    When n^degree fits the budget it is the representative of the first
    orbit with trivial stabilizer, as the orbit walk records it: orbits
    come in ascending order of their lex-min members, and members of one
    orbit have conjugate stabilizers.  Beyond the budget the regular
    representation still yields a verified witness (a single distinguished
    letter at the identity's position) without walking.  An unfaithful
    representation has none: its kernel lies in every stabilizer."""
    _require_same_group(G, rep)
    _require_positive_n(n)
    if not rep.is_faithful():
        return TrivialStabilizerSearch(None, True, False)
    try:
        alpha = _trivial_stabilizer_alpha(G, rep, n, index_budget)
    except BudgetError:
        if rep.kind == "regular" and n >= 2:
            alpha = tuple(2 if i == 0 else 1 for i in range(rep.degree))
            if len(stabilizer(alpha, G, rep)) != 1:
                raise ConsistencyError(
                    "regular-representation fast path produced a stabilized index"
                )
            return TrivialStabilizerSearch(alpha, False, True)
        return TrivialStabilizerSearch(None, False, False)
    return TrivialStabilizerSearch(alpha, alpha is None, False)


def _require_validated(G, rep, chi):
    validated_table(G)
    _require_same_group(G, rep, chi)


def _semigroup_facts(G):
    k = G.H.order
    return {"k": k, "primes": list(prime_factors(G.A.order)),
            "member": not lam_leung_certifies_nonzero(k, G.A.order)}


def decide_main_theorem(G, rep, chi, n,
                        index_budget=DEFAULT_INDEX_BUDGET) -> Verdict:
    """Both hypotheses are established computationally before anything is
    asserted: a trivial-stabilizer multi-index and |H| outside
    N_0<Prime(|A|)>.  Linear characters short-circuit to Admits; a
    zero-dimensional class is reported as such rather than as a vacuous
    Admits."""
    _require_validated(G, rep, chi)
    justification = WREATH_COROLLARY if G.origin == "wreath" else MAIN_THEOREM
    dim = dim_symmetry_class(G, rep, chi, n)
    if dim == 0:
        return Verdict(
            INCONCLUSIVE,
            justification,
            {"zero_dimension": True, "dim": 0},
        )
    if chi.degree == 1:
        return Verdict(ADMITS, LINEAR_CHARACTER, {"degree": 1, "dim": dim})
    search = find_trivial_stabilizer_alpha(G, rep, n, index_budget=index_budget)
    sg = _semigroup_facts(G)
    witness = {"alpha_search": search.to_json(), "semigroup": sg, "dim": dim}
    if search.alpha is not None and not sg["member"]:
        return Verdict(
            NOT_ADMITS,
            justification,
            {"alpha": list(search.alpha), "fast_path": search.fast_path,
             "semigroup": sg, "dim": dim},
        )
    failed = []
    if search.alpha is None:
        failed.append(search.failed_hypothesis)
    if sg["member"]:
        failed.append("H_order_in_semigroup")
    witness["failed_hypotheses"] = failed
    return Verdict(INCONCLUSIVE, justification, witness)


_FAMILIES = ("dihedral_odd_s", "pq", "z_group")


def decide_named_family(family, params, chi_index, n,
                        index_budget=DEFAULT_INDEX_BUDGET) -> Verdict:
    """Build the named group, pick the chi_index-th character of its
    deterministic table, and run the semidirect criterion on its natural
    representation; nothing from the family statement is trusted without
    re-verification."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {_FAMILIES}")
    ctor, keys = FAMILIES["dihedral" if family == "dihedral_odd_s" else family]
    if set(params) != set(keys):
        raise ValueError(
            f"family {family} takes the params {list(keys)}, got {list(params)}"
        )
    if family == "dihedral_odd_s" and params["s"] % 2 == 0:
        raise ValueError(f"family dihedral_odd_s requires odd s, got {params['s']}")
    G = ctor(*(params[k] for k in keys))
    rep = G.natural_rep
    chars = character_table(G).chars
    if not 0 <= chi_index < len(chars):
        raise ValueError(
            f"chi_index {chi_index} is outside 0..{len(chars) - 1} for this table"
        )
    chi = chars[chi_index]
    verdict = decide_main_theorem(G, rep, chi, n, index_budget=index_budget)
    if verdict.status == ADMITS:
        return verdict  # LinearCharacter stands on its own
    witness = {"family": family, "params": dict(params)}
    witness.update(verdict.witness)
    return Verdict(verdict.status, NAMED_FAMILY, witness, verdict.per_orbit)


def decide_subgroup_criterion(G, rep, chi, n,
                              subgroup_bound=SUBGROUP_CAP,
                              index_budget=DEFAULT_INDEX_BUDGET) -> Verdict:
    """Non-existence when some multi-index has trivial stabilizer and some
    subgroup avoids the character's zero set at index below chi(e)^2."""
    _require_validated(G, rep, chi)
    if chi.degree == 1:
        return Verdict(
            INCONCLUSIVE,
            SUBGROUP_CRITERION,
            {"reason": "no subgroup can have index below 1 (linear character)"},
        )
    search = find_trivial_stabilizer_alpha(G, rep, n, index_budget=index_budget)
    if search.alpha is None:
        return Verdict(
            INCONCLUSIVE,
            SUBGROUP_CRITERION,
            {"alpha_search": search.to_json(),
             "failed_hypotheses": [search.failed_hypothesis]},
        )
    try:
        subs = enumerate_subgroups(G, bound=subgroup_bound)
    except BudgetError as exc:
        return Verdict(
            INCONCLUSIVE, SUBGROUP_CRITERION, {"budget_refused": str(exc)}
        )
    zero = [v.is_zero() for v in chi.values]
    class_of, elems = G.class_of, G.elements()
    target = chi.degree**2
    # larger subgroups first: smaller index, stronger witness.  The sort is
    # stable, so equal orders keep the lattice's ascending-code order
    for S in sorted(subs, key=len, reverse=True):
        if G.order >= len(S) * target:
            break  # index not below chi(e)^2, nor for any later subgroup
        if any(zero[class_of[c]] for c in S):
            continue
        return Verdict(
            NOT_ADMITS,
            SUBGROUP_CRITERION,
            {
                "alpha": list(search.alpha),
                "subgroup": [element_json(elems[c]) for c in sorted(S)],
                "subgroup_order": len(S),
                "index": G.order // len(S),
                "chi_degree_squared": target,
            },
        )
    return Verdict(
        INCONCLUSIVE,
        SUBGROUP_CRITERION,
        {
            "alpha": list(search.alpha),
            "reason": "every subgroup of index below chi(e)^2 meets the zero set",
        },
    )


def _find_clique(adj, k):
    """Deterministic backtracking k-clique search from vertex 0.  None means
    proven absent; past CLIQUE_NODE_BUDGET search nodes, the empty root
    counted first, it raises BudgetError instead.

    Growing from vertex 0 alone is complete for the orthogonality graph on
    the right cosets of G_alpha, where r_i ~ r_j iff the coset sum at
    r_j r_i^-1 is zero.  That sum is constant on double cosets of G_alpha,
    so right multiplication by any g permutes the cosets and keeps every
    edge: the graph is vertex-transitive, and a k-clique exists iff one
    contains vertex 0."""
    if k <= 0:
        return []
    nodes = 1

    def grow(clique, cands):
        nonlocal nodes
        nodes += 1
        if nodes > CLIQUE_NODE_BUDGET:
            raise BudgetError("clique search exceeded the node budget")
        if len(clique) == k:
            return clique
        if len(clique) + len(cands) < k:
            return None
        for i, v in enumerate(cands):
            got = grow(clique + [v], [u for u in cands[i + 1:] if adj[v][u]])
            if got is not None:
                return got
        return None

    return grow([0], [u for u in range(1, len(adj)) if adj[0][u]])


def brute_force_verify(G, rep, chi, n,
                       index_budget=DEFAULT_INDEX_BUDGET) -> Verdict:
    """Independent exact oracle.

    For every orbit representative alpha in Delta-bar, build the
    orthogonality graph on the right cosets of G_alpha (edge = exactly-zero
    induced inner product) and search for a clique of size s_alpha.  The
    class admits an o*-basis iff every orbit yields one: the orbital
    subspaces are orthogonal to each other and each candidate tensor lives
    in exactly one of them, so no global search across orbits is needed.

    Everything but the representative depends only on G_alpha (alpha.g =
    alpha.g' iff g' g^-1 lies in G_alpha), so rows with one stabilizer share
    one search and one clique object.  Delta-bar membership and s_alpha
    depend only on its class profile, and are read per profile from the
    walk (symclass._profile_scan).  The right cosets and the class multiset
    of each left coset come from the stabilizer's coset table, built once
    per group (symclass._coset_table), and an edge is a zero coset sum,
    tested on integer vectors once per distinct multiset for each
    character (cyclotomic._ZeroSums), with no CycloNum addition.
    Past VERTEX_BUDGET cosets or CLIQUE_NODE_BUDGET search nodes a
    stabilizer's rows are refused, and the verdict is Inconclusive.
    """
    _require_validated(G, rep, chi)
    try:
        parts, ids, values = _profile_scan(G, rep, chi, rep.degree, n, index_budget)
    except BudgetError as exc:
        return Verdict(INCONCLUSIVE, BRUTE_FORCE, {"budget_refused": str(exc)})
    bar = [(alpha, stab, values[i][2])  # s_alpha >= 1 on Delta-bar
           for (alpha, _, stab), i in zip(parts, ids) if values[i][1]]
    if not bar:
        return Verdict(
            INCONCLUSIVE, BRUTE_FORCE, {"zero_dimension": True, "dim": 0}
        )

    elems, inv = G.elements(), G.inv_code
    is_zero = _ZeroSums(chi.values)

    def search(stab, s_alpha):
        """The row fields shared by every orbit with this stabilizer, and
        the budget that refused the search (None when it ran)."""
        reps, key_of, keys = _coset_table(G, stab)
        refused = {"s_alpha": s_alpha, "clique": None, "budget_exceeded": True}
        if len(reps) > VERTEX_BUDGET:
            return refused, f"vertex budget {VERTEX_BUDGET}"
        by_key = list(map(is_zero.__getitem__, keys))
        zero = list(map(by_key.__getitem__, key_of))  # by element code
        # code(r_j r_i^-1) is entry code(r_j) of the column of r_i^-1; the
        # diagonal reads the stabilizer sum, nonzero on Delta-bar
        adj = [list(map(zero.__getitem__, map(G.col(inv[ri]).__getitem__, reps)))
               for ri in reps]
        try:
            clique = _find_clique(adj, s_alpha)
        except BudgetError:
            return refused, f"clique node budget {CLIQUE_NODE_BUDGET}"
        return {
            "s_alpha": s_alpha,
            "clique": (
                None
                if clique is None
                else [element_json(elems[reps[v]]) for v in sorted(clique)]
            ),
        }, None

    first = {stab: s_alpha for _, stab, s_alpha in bar}  # first-seen order
    searches = {stab: search(stab, s_alpha) for stab, s_alpha in first.items()}
    per_orbit = [{"rep": list(alpha), **searches[stab][0]} for alpha, stab, _ in bar]
    refusals = Counter(searches[stab][1] for _, stab, _ in bar)
    del refusals[None]
    if refusals:
        return Verdict(
            INCONCLUSIVE,
            BRUTE_FORCE,
            {"budget_refused": "; ".join(
                f"{count} orbit(s) exceeded the {budget}"
                for budget, count in refusals.items()
            )},
            per_orbit,
        )
    failures = [p for p in per_orbit if p["clique"] is None]
    if failures:
        # orbits arrive in lex order of representatives, so the first
        # failure is the lex-min one
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


def decide_pipeline(G, rep, chi, n,
                    index_budget=DEFAULT_INDEX_BUDGET,
                    subgroup_bound=SUBGROUP_CAP) -> Verdict:
    """Cheapest sound certificate first: linear short-circuit inside the
    semidirect criterion, then the subgroup criterion; the brute-force
    oracle is separate (see brute_force_verify)."""
    v = decide_main_theorem(G, rep, chi, n, index_budget=index_budget)
    if v.status != INCONCLUSIVE or v.witness.get("zero_dimension"):
        return v
    v2 = decide_subgroup_criterion(
        G, rep, chi, n,
        subgroup_bound=subgroup_bound, index_budget=index_budget,
    )
    if v2.status != INCONCLUSIVE:
        return v2
    return Verdict(
        INCONCLUSIVE,
        v2.justification,
        {"main_theorem": v.witness, "subgroup_criterion": v2.witness},
    )
