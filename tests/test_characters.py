"""Dual groups, dual orbits, and exact irreducible character tables.

Oracles: the hand-frozen character table of the order-6 dihedral group,
float evaluation, exhaustive class-function checks, and the general
conjugation-sum evaluation run against the abelian fast path.
"""

import copy
import io
import math
from fractions import Fraction
from itertools import product as iter_product
from types import SimpleNamespace

import pytest

from ostar import characters
from ostar.characters import (
    _power,
    _unit_generators,
    char_value_general,
    character_table,
    cyclic_decomposition,
    dual_act,
    dual_group,
    dual_of_subgroup,
    dual_orbits,
    export_chartable_csv,
    irred_chars,
    TableReport,
    validate_table,
    zero_set,
)
from ostar.cyclotomic import CycloNum, cyclotomic_polynomial, root_of_unity
from ostar.errors import ConsistencyError
from ostar.symclass import dim_symmetry_class
from ostar.groups import (
    AbelianGroup,
    ActionHom,
    WreathSpec,
    SemidirectGroup,
    build_wreath,
    dihedral,
    group_pq,
    z_group,
)
from test_acceptance import TABLE_SUITE, group as suite_group
from test_random_products import sample_groups


def direct_product(a_factors, h_factors):
    A, H = AbelianGroup(a_factors), AbelianGroup(h_factors)
    return SemidirectGroup(A, H, ActionHom.trivial(H, A))


SMALL_GROUPS = [
    dihedral(3),
    dihedral(4),
    group_pq(3, 7, 2),
    z_group(5, 4, 2),
    build_wreath(WreathSpec.regular(AbelianGroup([2]), AbelianGroup([2]))),
    direct_product([6], [2]),
]
SMALL_IDS = ["D6", "D8", "F21", "F20", "C2wrC2", "C6xC2"]


# -- dual groups -----------------------------------------------------------------


def test_dual_group_trivial():
    chars = dual_group(AbelianGroup([1]))
    assert len(chars) == 1
    assert chars[0].value((0,)) == 1


def test_dual_group_c3_matches_definition():
    A = AbelianGroup([3])
    chars = dual_group(A)
    assert len(chars) == 3
    for c, x in enumerate(chars):
        for a in range(3):
            assert x.value((a,)) == root_of_unity(3, c * a)


def test_dual_group_c2xc2_real_valued():
    A = AbelianGroup([2, 2])
    chars = dual_group(A)
    assert len(chars) == 4
    for x in chars:
        for a in A.elements():
            assert x.value(a) in (CycloNum.from_rational(1), CycloNum.from_rational(-1))


@pytest.mark.parametrize("factors", [[4], [2, 3], [2, 2, 2], [6, 2]])
def test_dual_characters_are_homomorphisms_and_orthogonal(factors):
    A = AbelianGroup(factors)
    chars = dual_group(A)
    for x in chars:
        for a in A.elements():
            for b in A.elements():
                assert x.value(A.add(a, b)) == x.value(a) * x.value(b)
    for i in range(len(chars)):
        for j in range(i, len(chars)):
            s = CycloNum.zero()
            for a in A.elements():
                s = s + chars[i].value(a) * chars[j].value(a).conj()
            assert s == (A.order if i == j else 0)


# -- dual orbits -----------------------------------------------------------------


def test_dual_orbits_d6():
    G = dihedral(3)
    orbits = dual_orbits(G.A, G.H, G.phi)
    assert [len(o.members) for o in orbits] == [1, 2]
    assert orbits[0].rep.exponents == (0,)
    assert len(orbits[0].stabilizer) == 2
    assert orbits[1].rep.exponents == (1,)
    assert {m.exponents for m in orbits[1].members} == {(1,), (2,)}
    assert orbits[1].stabilizer == (G.H.identity,)


def test_dual_orbits_trivial_action_singletons():
    G = direct_product([5], [4])
    orbits = dual_orbits(G.A, G.H, G.phi)
    assert len(orbits) == 5
    assert all(len(o.members) == 1 and len(o.stabilizer) == 4 for o in orbits)


def test_dual_orbits_c5_by_c4():
    # the action a -> 2a cycles the exponents 1 -> 2 -> 4 -> 3
    G = z_group(5, 4, 2)
    orbits = dual_orbits(G.A, G.H, G.phi)
    assert [len(o.members) for o in orbits] == [1, 4]
    assert {m.exponents for m in orbits[1].members} == {(1,), (2,), (3,), (4,)}
    # oracle: orbit of 1 under repeated doubling mod 5
    got, x = set(), 1
    for _ in range(4):
        got.add(x)
        x = 2 * x % 5
    assert got == {1, 2, 4, 3}


def test_dual_act_is_an_action():
    G = group_pq(3, 7, 2)
    H = G.H
    for x in dual_group(G.A):
        for h1 in H.elements():
            for h2 in H.elements():
                once = dual_act(dual_act(x, h1, G.phi), h2, G.phi)
                both = dual_act(x, H.add(h1, h2), G.phi)
                assert once == both


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=SMALL_IDS)
def test_orbit_stabilizer_product(G):
    for o in dual_orbits(G.A, G.H, G.phi):
        assert len(o.members) * len(o.stabilizer) == G.H.order


# -- subgroup duals -----------------------------------------------------------------


@pytest.mark.parametrize("factors", [[4], [2, 4], [2, 2, 2], [12]])
def test_cyclic_decomposition_covers_subgroups(factors):
    H = AbelianGroup(factors)
    # decompose the full group and a couple of cyclic subgroups
    full = set(H.elements())
    dec = cyclic_decomposition(full, H)
    total = 1
    for _, d in dec:
        total *= d
    assert total == H.order
    g = H.generators()[0]
    cyc = set()
    x = H.identity
    while x not in cyc:
        cyc.add(x)
        x = H.add(x, g)
    dec2 = cyclic_decomposition(cyc, H)
    total2 = 1
    for _, d in dec2:
        total2 *= d
    assert total2 == len(cyc)


@pytest.mark.parametrize("factors", [[2, 4], [6], [2, 2]])
def test_dual_of_subgroup_counts_and_orthogonality(factors):
    H = AbelianGroup(factors)
    sub = frozenset(H.elements())
    chars = dual_of_subgroup(sub, H)
    assert len(chars) == len(sub)
    seen = set()
    for u in chars:
        seen.add(tuple(str(u.value(h)) for h in sorted(sub, key=H.code)))
        for a in sub:
            for b in sub:
                assert u.value(H.add(a, b)) == u.value(a) * u.value(b)
    assert len(seen) == len(sub)


def reference_cyclic_decomposition(sub, H: AbelianGroup):
    """Generators and orders presenting a subgroup of an abelian group as a
    direct product of cyclic groups.

    Backtracking search: repeatedly adjoin an element of maximal order whose
    cyclic span meets the current span trivially.  Deterministic because
    candidates are tried in (order desc, tuple asc) order.
    """
    sub = frozenset(sub)
    ident = H.identity
    if sub == {ident}:
        return ()

    def cyc(y):
        out = [ident]
        z = y
        while z != ident:
            out.append(z)
            z = H.add(z, y)
        return out

    cands = sorted(sub, key=lambda y: (-H.order_of(y), y))

    def extend(span, gens):
        if len(span) == len(sub):
            return tuple(gens)
        for y in cands:
            if y in span:
                continue
            cy = cyc(y)
            if any(z != ident and z in span for z in cy):
                continue
            wider = {H.add(u, v) for u in span for v in cy}
            got = extend(wider, gens + [(y, len(cy))])
            if got is not None:
                return got
        return None

    got = extend({ident}, [])
    if got is None:
        raise ConsistencyError("no cyclic decomposition found for subgroup")
    return got


def reference_dual_of_subgroup(sub, H: AbelianGroup):
    """All |S| linear characters of the subgroup S, in exponent-code order
    relative to its cyclic decomposition."""
    dec = reference_cyclic_decomposition(sub, H)
    coords = {}
    for cs in iter_product(*(range(d) for _, d in dec)):
        elem = H.identity
        for c, (g, _) in zip(cs, dec):
            elem = H.add(elem, H.mul_scalar(c, g))
        coords[elem] = cs
    if len(coords) != len(frozenset(sub)):
        raise ConsistencyError("cyclic decomposition does not enumerate the subgroup")
    return tuple(
        characters.LinearChar(H, dec, e, coords)
        for e in iter_product(*(range(d) for _, d in dec))
    )


def abelian_subgroups(H):
    """Every subgroup of the abelian group H, closed from the trivial one by
    adjoining one element at a time."""
    found = {frozenset([H.identity])}
    todo = list(found)
    while todo:
        S = todo.pop()
        for g in H.elements():
            if g in S:
                continue
            wider = set(S)
            z = g
            while z not in S:
                wider.update(H.add(s, z) for s in S)
                z = H.add(z, g)
            wider = frozenset(wider)
            if wider not in found:
                found.add(wider)
                todo.append(wider)
    return sorted(found, key=lambda S: (len(S), sorted(S)))


def assert_dual_matches_reference(sub, H):
    assert cyclic_decomposition(sub, H) == reference_cyclic_decomposition(sub, H)
    got, want = dual_of_subgroup(sub, H), reference_dual_of_subgroup(sub, H)
    assert [(u.gens, u.orders, u.exponents) for u in got] == [
        (u.gens, u.orders, u.exponents) for u in want]
    for u, v in zip(got, want):
        assert [u.value_exponent(h) for h in sub] == [v.value_exponent(h) for h in sub]


DECOMPOSITION_SWEEP = [
    [2], [4], [6], [12], [2, 2], [2, 4], [2, 6], [2, 8], [4, 4], [6, 6],
    [3, 3], [3, 9], [5, 5], [2, 2, 2], [2, 2, 4], [2, 2, 6], [2, 4, 4], [3, 3, 3],
]


@pytest.mark.parametrize("factors", DECOMPOSITION_SWEEP, ids=str)
def test_greedy_decomposition_matches_backtracking_reference(factors):
    """The one greedy pass gives the backtracking search's generators,
    orders and linear characters on every subgroup."""
    H = AbelianGroup(factors)
    for sub in abelian_subgroups(H):
        assert_dual_matches_reference(sub, H)


def test_greedy_decomposition_matches_reference_on_stabilizers():
    for label, G in class_function_groups():
        for orbit in dual_orbits(G.A, G.H, G.phi):
            assert_dual_matches_reference(orbit.stabilizer, G.H)


# -- irreducible characters ------------------------------------------------------------


def test_irred_chars_d6_against_frozen_table():
    """The full character table of the order-6 dihedral group, recomputed by
    hand from its three conjugacy classes {e}, {r, r^2}, {3 reflections}."""
    G = dihedral(3)
    chars = irred_chars(G)
    assert sorted(c.degree for c in chars) == [1, 1, 2]
    e = G.identity
    r = ((1,), (0,))
    flip = ((0,), (1,))
    frozen = {
        # (value at e, at r, at reflection)
        (1, 1, 1),
        (1, 1, -1),
        (2, -1, 0),
    }
    got = set()
    for chi in chars:
        got.add(
            (
                chi.value(e).as_fraction(),
                chi.value(r).as_fraction(),
                chi.value(flip).as_fraction(),
            )
        )
    assert got == frozen


def test_irred_chars_d10_against_closed_form():
    """Classical table of the order-10 dihedral group: two linear
    characters and two degree-2 characters with values z5^(jk) + z5^(-jk)
    on the rotation r^k and 0 on reflections."""
    G = dihedral(5)
    chars = character_table(G).chars
    assert sorted(c.degree for c in chars) == [1, 1, 2, 2]
    two_dim = [c for c in chars if c.degree == 2]
    seen_j = set()
    for chi in two_dim:
        for flip_a in range(5):
            assert chi.value(((flip_a,), (1,))).is_zero()
        # identify which j in {1, 2} this character realizes
        for j in (1, 2):
            if all(
                chi.value(((k,), (0,)))
                == root_of_unity(5, j * k) + root_of_unity(5, -j * k)
                for k in range(5)
            ):
                seen_j.add(j)
                break
    assert seen_j == {1, 2}
    linear = [c for c in chars if c.degree == 1]
    for chi in linear:
        for k in range(5):
            assert chi.value(((k,), (0,))) == 1
    assert {chi.value(((0,), (1,))).as_fraction() for chi in linear} == {1, -1}


def test_irred_chars_order_21_against_closed_form():
    """The degree-3 characters of the order-21 group take the value
    sum(z7^(kc)) over an index-3 subgroup of units on the rotation a^c and
    vanish off the rotation subgroup."""
    G = group_pq(3, 7, 2)
    three_dim = [c for c in character_table(G).chars if c.degree == 3]
    cosets = ({1, 2, 4}, {3, 5, 6})
    matched = set()
    for chi in three_dim:
        for idx, coset in enumerate(cosets):
            ok = True
            for c in range(1, 7):
                expected = CycloNum.zero(7)
                for k in coset:
                    expected = expected + root_of_unity(7, k * c)
                if chi.value(((c,), (0,))) != expected:
                    ok = False
                    break
            if ok:
                matched.add(idx)
    assert matched == {0, 1}


def test_irred_chars_direct_product_all_linear():
    G = direct_product([3, 2], [2])
    chars = irred_chars(G)
    assert len(chars) == 12
    assert all(c.degree == 1 for c in chars)


def test_irred_chars_order_21():
    G = group_pq(3, 7, 2)
    chars = irred_chars(G)
    assert sorted(c.degree for c in chars) == [1, 1, 1, 3, 3]
    assert sum(c.degree**2 for c in chars) == 21
    assert len(G.conjugacy_classes()) == 5


def test_char_value_examples_d6():
    G = dihedral(3)
    chars = character_table(G).chars
    chi2 = chars[2]
    assert chi2.degree == 2
    a = ((1,), (0,))
    z3 = root_of_unity(3, 1)
    assert chi2.value(a) == z3 + z3 * z3
    assert chi2.value(a) == -1
    assert abs(chi2.value(a).evalf() - (-1)) < 1e-12
    for chi in chars:
        assert chi.value(G.identity) == chi.degree
    assert chi2.value(((1,), (1,))).is_zero()


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=SMALL_IDS)
def test_characters_are_class_functions(G):
    chars = irred_chars(G)
    els = G.elements()
    for chi in chars:
        for g in els:
            v = chi.value_uncached(g)
            for t in els:
                conj = G.mul(G.mul(G.inv(t), g), t)
                assert chi.value_uncached(conj) == v


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=SMALL_IDS)
def test_general_conjugation_sum_matches_fast_path(G):
    for chi in irred_chars(G):
        for g in G.elements():
            assert char_value_general(chi, g) == chi.value_uncached(g)


def test_value_independent_of_orbit_representative():
    # rebuilding the value function from any other orbit member gives the
    # identical function
    G = group_pq(3, 7, 2)
    H = G.H
    for chi in irred_chars(G):
        stab = frozenset(chi.orbit.stabilizer)
        for member in chi.orbit.members:
            for g in G.elements():
                a, h = g
                if h not in stab:
                    alt = CycloNum.zero()
                else:
                    s = CycloNum.zero()
                    for hh in H.elements():
                        s = s + member.value(G.phi.apply(hh, a))
                    alt = chi.u.value(h) * s * Fraction(1, len(stab))
                assert alt == chi.value_uncached(g)


def sum_over_H_value(chi, g):
    """The former IrredChar.value_uncached, kept as the reference:
    U(h) / |H_x| times the sum of x(phi_{h'}(a)) over every h' in H."""
    G = chi.G
    a, h = g
    stab = chi.orbit.stabilizer
    if h not in stab:
        return CycloNum.zero()
    x = chi.orbit.rep
    E = x.group.exponent
    counts = [0] * E
    for hh in G.H.elements():
        counts[x.value_exponent(G.phi.apply(hh, a))] += 1
    s = CycloNum.from_coeffs(E, counts)
    return chi.u.value(h) * s * Fraction(1, len(stab))


def bench_table_groups():
    """(label, G): the groups of the bench's tables workload."""
    yield "D90", dihedral(45)
    yield "pq111", group_pq(3, 37, 10)
    yield "aff110", z_group(11, 10, 2)
    yield "C3wrC3", build_wreath(WreathSpec.regular(AbelianGroup([3]), AbelianGroup([3])))


def test_orbit_sum_values_match_sum_over_H_reference():
    # the stored form, conductor included, since reports print it
    def form(v):
        return v.conductor, v.coeffs, v.den

    for label, G in (*class_function_groups(), *bench_table_groups()):
        for chi in character_table(G).chars:
            assert chi.degree == G.H.order // len(chi.orbit.stabilizer), label
            for g in G.elements():
                assert form(chi.value_uncached(g)) == form(sum_over_H_value(chi, g)), (
                    label, chi, g)


# -- table validation --------------------------------------------------------------


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=SMALL_IDS)
def test_validate_table_passes(G):
    table = character_table(G)
    assert table.report.ok
    assert table.report.checks == {
        "degree_sum": True,
        "orthogonality": True,
        "conjugate_symmetry": True,
    }
    assert sum(c.degree**2 for c in table.chars) == G.order


def _revalued(chi, values):
    """A copy of chi with the given class values, which its value(g) reads."""
    out = copy.copy(chi)
    out.values = tuple(values)
    return out


def _corrupted(chi, bad_class):
    """A copy of a character that lies at one conjugacy class."""
    return _revalued(chi, (v + 1 if c == bad_class else v
                           for c, v in enumerate(chi.values)))


def test_validate_table_negative_control():
    G = dihedral(3)
    chars = list(character_table(G).chars)
    chars[2] = _corrupted(chars[2], bad_class=1)
    report = validate_table(chars, G)
    assert not report.ok
    assert not report.checks["orthogonality"]
    assert any("orthogonality" in f for f in report.failures)


def test_validate_table_conjugate_symmetry_negative_control():
    # lying at a class C with C^-1 != C breaks chi(g^-1) = conj(chi(g))
    G = group_pq(3, 7, 2)
    bad = next(
        c for c, cls in enumerate(G.conjugacy_classes())
        if G.class_index(G.inv(cls[0])) != c
    )
    chars = list(character_table(G).chars)
    chars[1] = _corrupted(chars[1], bad_class=bad)
    report = validate_table(chars, G)
    assert not report.checks["conjugate_symmetry"]
    assert any(f.startswith("conjugate symmetry failed for character 1 at ")
               for f in report.failures)


def _promoted(chi, bad_class, offset=0):
    """A copy of a character that stores its value at one conjugacy class at
    twice its conductor, moved by offset: an equal value when offset is 0."""
    return _revalued(chi, (v.promote(2 * v.conductor) + offset if c == bad_class else v
                           for c, v in enumerate(chi.values)))


def test_validate_table_galois_index_path_controls():
    # _galois_step compares indices of distinct values, keyed on the stored
    # conductor: an equal value kept at a larger conductor gets its own
    # index, so the exact comparison must clear it, and must still catch a
    # value off by one there
    G = group_pq(3, 7, 2)
    classes = G.conjugacy_classes()
    bad = next(
        c for c, cls in enumerate(classes)
        if G.class_index(G.inv(cls[0])) != c
    )
    chars = list(character_table(G).chars)
    v = chars[1].values[bad]
    promoted = _promoted(chars[1], bad_class=bad)
    w = promoted.value(classes[bad][0])
    assert w == v and w.conductor == 2 * v.conductor
    chars[1] = promoted
    report = validate_table(chars, G)
    assert report.checks["conjugate_symmetry"]
    assert report.ok
    assert report == per_element_report(chars, G)
    chars[1] = _promoted(character_table(G).chars[1], bad_class=bad, offset=1)
    report = validate_table(chars, G)
    assert not report.checks["conjugate_symmetry"]
    first = min(bad, G.class_index(G.inv(classes[bad][0])))
    assert (f"conjugate symmetry failed for character 1 at {classes[first][0]}"
            in report.failures)
    assert report == per_element_report(chars, G)


def class_function_groups():
    """(label, G): the acceptance table suite's groups and the random
    sweep's groups."""
    for name in TABLE_SUITE:
        yield name, suite_group(name)
    for seed in (1, 2):
        for i, G in enumerate(sample_groups(seed, count=4, max_order=12)):
            yield f"random{seed}.{i}", G


def per_element_report(chars, G):
    """validate_table with every sum taken over all group elements, as it
    was computed before the class-weighted sums; the reference for them."""
    checks = {}
    failures = []
    total = CycloNum.zero()
    for chi in chars:
        v = chi.value(G.identity)
        total = total + v * v
    checks["degree_sum"] = total == G.order
    if not checks["degree_sum"]:
        failures.append(f"sum of squared degrees is {total}, expected {G.order}")
    ortho_ok = True
    elems = G.elements()
    for i in range(len(chars)):
        for j in range(i, len(chars)):
            s = CycloNum.zero()
            for g in elems:
                a = chars[i].value(g)
                if a.is_zero():
                    continue
                b = chars[j].value(g)
                if b.is_zero():
                    continue
                s = s + a * b.conj()
            if s != (G.order if i == j else 0):
                ortho_ok = False
                failures.append(f"orthogonality failed for characters {i}, {j}: {s}")
    checks["orthogonality"] = ortho_ok
    sym_ok = True
    for idx, chi in enumerate(chars):
        for g in elems:
            if chi.value(G.inv(g)) != chi.value(g).conj():
                sym_ok = False
                failures.append(f"conjugate symmetry failed for character {idx} at {g}")
                break
    checks["conjugate_symmetry"] = sym_ok
    return TableReport(checks, failures)


def test_stored_class_values_match_direct_evaluation():
    for label, G in class_function_groups():
        classes = G.conjugacy_classes()
        for chi in character_table(G).chars:
            assert len(chi.values) == len(classes), label
            for c, cls in enumerate(classes):
                assert chi.values[c] == chi.value_uncached(cls[0]), (label, c)
                assert chi.value(cls[-1]) is chi.values[c], (label, c)


def reference_cell_key(chi, g):
    """(N, sorted exponents mod N) of chi's orbit sum at g = (a, h), read
    from the orbit members and U; (1, ()) when h is off the stabilizer."""
    a, h = g
    if h not in chi.orbit.stabilizer:
        return 1, ()
    E, L = chi.orbit.rep.group.exponent, chi.u.conductor
    N = math.lcm(E, L)
    t = N // L * chi.u.value_exponent(h)
    return N, tuple(sorted((N // E * y.value_exponent(a) + t) % N
                           for y in chi.orbit.members))


def test_irred_chars_builds_one_value_per_exponent_multiset(monkeypatch):
    # cells with equal (N, exponent multiset) share one CycloNum, and each
    # distinct multiset is summed exactly once per group
    built = []
    root_sum = characters._root_sum

    def counting(N, exponents):
        built.append((N, exponents))
        return root_sum(N, exponents)

    monkeypatch.setattr(characters, "_root_sum", counting)
    # fresh groups: suite_group caches its groups and their tables
    groups = [(name, suite_group.__wrapped__(name)) for name in TABLE_SUITE]
    groups += [(f"random{seed}.{i}", G) for seed in (1, 2)
               for i, G in enumerate(sample_groups(seed, count=4, max_order=12))]
    cells = 0
    for label, G in groups:
        built.clear()
        by_key = {}
        for chi in irred_chars(G):
            for cls, v in zip(G.conjugacy_classes(), chi.values):
                assert by_key.setdefault(reference_cell_key(chi, cls[0]), v) is v, label
                cells += 1
        assert sorted(built) == sorted(by_key), label
    assert cells > len(built)


def test_table_readers_take_class_values():
    # validate_table, dim_symmetry_class and zero_set read a character
    # through its degree, group and class values alone
    for name in TABLE_SUITE:
        G = suite_group(name)
        rep = G.natural_rep
        chars = character_table(G).chars
        bare = [SimpleNamespace(G=G, degree=chi.degree, values=chi.values)
                for chi in chars]
        assert validate_table(bare, G) == validate_table(chars, G), name
        for chi, b in zip(chars, bare):
            assert zero_set(b) == zero_set(chi), name
            for n in (2, 3):
                assert (dim_symmetry_class(G, rep, b, n)
                        == dim_symmetry_class(G, rep, chi, n)), (name, n)


def test_validate_table_matches_per_element_sums():
    for label, G in class_function_groups():
        chars = character_table(G).chars
        assert validate_table(chars, G) == per_element_report(chars, G), label
    # failing reports, messages included, agree as well
    for G, idx in ((dihedral(3), 2), (group_pq(3, 7, 2), 1)):
        for bad in range(1, len(G.conjugacy_classes())):
            chars = list(character_table(G).chars)
            chars[idx] = _corrupted(chars[idx], bad_class=bad)
            report = validate_table(chars, G)
            assert not report.ok
            assert report == per_element_report(chars, G), (G, bad)


def _scaled(chi, factor, bad_class=None):
    """A copy of a character that scales its value at one conjugacy class,
    or at every class if none is given."""
    return _revalued(chi, (v * factor if bad_class in (None, c) else v
                           for c, v in enumerate(chi.values)))


def _swapped(chi, c, d):
    """A copy of a character that exchanges its values at classes c and d."""
    swap = {c: d, d: c}
    return _revalued(chi, (chi.values[swap.get(k, k)] for k in range(len(chi.values))))


@pytest.fixture
def products(monkeypatch):
    """The type of the right operand of every CycloNum product made while
    the test runs."""
    calls = []
    mul = CycloNum.__mul__

    def counting_mul(self, other):
        calls.append(type(other))
        return mul(self, other)

    monkeypatch.setattr(CycloNum, "__mul__", counting_mul)
    return calls


def test_table_certificate_accepts_every_valid_table(products):
    # every relation of a valid table is proven zero mod p: validation
    # multiplies CycloNums only for the degree sum (k products)
    for label, G in class_function_groups():
        chars = character_table(G).chars
        products.clear()
        assert validate_table(chars, G).ok, label
        assert 0 < len(products) <= 2 * len(chars), label


def _mutated_tables():
    # (label, chars, G): one corrupted class value, a duplicated row, a
    # dropped row and a value with denominator 2, each in groups with real
    # and non-real values; then two tables that only one step rejects
    for G in (dihedral(3), group_pq(3, 7, 2), dihedral(8)):
        chars = character_table(G).chars
        nonlinear = next(i for i, chi in enumerate(chars) if chi.degree > 1)
        for bad in range(1, len(G.conjugacy_classes())):
            mutated = list(chars)
            mutated[nonlinear] = _corrupted(chars[nonlinear], bad_class=bad)
            yield f"{G} corrupted at class {bad}", mutated, G
            if chars[nonlinear].values[bad].is_zero():
                continue
            mutated = list(chars)
            mutated[nonlinear] = _scaled(chars[nonlinear], Fraction(1, 2), bad)
            yield f"{G} halved at class {bad}", mutated, G
        # both rows linear, so the degree sum still holds
        assert chars[0].degree == chars[1].degree == 1
        yield f"{G} duplicated row", [chars[0], chars[0], *chars[2:]], G
        yield f"{G} last row dropped", chars[:-1], G
    # exchanging a real class with a non-real one of the same size in every
    # row keeps the degree sum and orthogonality; only the Galois step sees
    # that conjugate symmetry fails
    G = direct_product([6], [2])
    classes = G.conjugacy_classes()
    real = next(c for c in range(1, len(classes)) if G.inv(classes[c][0]) in classes[c])
    nonreal = next(c for c in range(len(classes)) if G.inv(classes[c][0]) not in classes[c])
    assert len(classes[real]) == len(classes[nonreal])
    chars = character_table(G).chars
    yield f"{G} classes swapped", [_swapped(chi, real, nonreal) for chi in chars], G
    # the first linear row doubled, with the degree-2 row and no others,
    # keeps the degree sum (4 + 4 = 8) and the relation between the two
    # rows; only the diagonal relation fails
    G = dihedral(4)
    chars = character_table(G).chars
    assert [chi.degree for chi in chars] == [1, 1, 2, 1, 1]
    yield f"{G} doubled row", [_scaled(chars[0], 2), chars[2]], G


def test_table_certificate_rejects_mutated_tables():
    for label, chars, G in _mutated_tables():
        report = validate_table(chars, G)
        assert not report.ok, label
        assert report == per_element_report(chars, G), label


def test_integral_table_sums_only_the_relations_left_open(products):
    # the doubled-row table is integral, so the certificate proves the
    # off-diagonal relation and the degree-2 row's diagonal zero mod p, and
    # only the failing diagonal is summed: one CycloNum product per class
    # (row 0 is 2 everywhere), after the 2 of the degree sum
    label, chars, G = list(_mutated_tables())[-1]
    assert label.endswith("doubled row")
    products.clear()
    report = validate_table(chars, G)
    assert [f.split(":")[0] for f in report.failures] == [
        "orthogonality failed for characters 0, 0"]
    assert products.count(CycloNum) == 2 + len(G.conjugacy_classes())


def test_unit_generators_generate_the_unit_group():
    for E in range(1, 200):
        gens = _unit_generators(E)
        assert gens[0] == -1
        span = {1 % E}
        frontier = [1 % E]
        while frontier:
            x = frontier.pop()
            for u in gens:
                y = x * u % E
                if y not in span:
                    span.add(y)
                    frontier.append(y)
        assert span == {u for u in range(E) if math.gcd(u, E) == 1}, E


def test_power_takes_negative_exponents_without_identity_products(monkeypatch):
    for G in (dihedral(5), group_pq(3, 7, 2)):
        for g in G.elements():
            want, x = {0: G.identity}, G.identity
            for k in range(1, 2 * G.order + 1):
                x = G.mul(x, g)
                want[k] = x
            for k in range(-2 * G.order, 2 * G.order + 1):
                got = _power(G, g, k)
                assert got == (want[k] if k >= 0 else G.inv(want[-k])), (g, k)
    # one product per bit below the top one, plus one per further set bit;
    # g^-1 is one inversion and no product
    G = dihedral(5)
    g = ((1,), (0,))  # of order 5, so no product below meets the identity
    calls = []
    mul = type(G).mul

    def counting(self, x, y):
        assert G.identity not in (x, y)
        calls.append(None)
        return mul(self, x, y)

    monkeypatch.setattr(type(G), "mul", counting)
    for k, products in ((0, 0), (1, 0), (-1, 0), (2, 1), (-8, 3), (11, 5)):
        calls.clear()
        _power(G, g, k)
        assert len(calls) == products, k


def test_table_validation_makes_no_exact_orthogonality_products(monkeypatch):
    # the certificate multiplies CycloNums only for the degree sum (k
    # products); the exact loops would make about k^2 * #classes / 2
    G = dihedral(45)
    chars = character_table(G).chars
    calls = []
    mul = CycloNum.__mul__

    def counting_mul(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(CycloNum, "__mul__", counting_mul)
    assert validate_table(chars, G).ok
    assert 0 < len(calls) <= 2 * len(chars)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _probable_prime(n: int) -> bool:
    """Miller-Rabin on the first 12 prime bases; deterministic below
    3.3 * 10^24.  Only used to search for a modulus: no conclusion of the
    table certificate rests on it."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def miller_rabin_root_mod(E, bound):
    """The former _cyclotomic_root_mod, kept as the reference: the same
    progression, with primality tested by _probable_prime."""
    p = (bound // E + 1) * E + 1
    while not _probable_prime(p):
        p += E
    phi = cyclotomic_polynomial(E)
    for h in range(2, p):
        w = pow(h, (p - 1) // E, p)
        acc = 0
        for c in reversed(phi):
            acc = (acc * w + c) % p
        if acc == 0:
            return p, w
    return None


def test_modulus_search_matches_miller_rabin_reference(monkeypatch):
    calls = []
    search = characters._cyclotomic_root_mod

    def recording(E, bound):
        found = search(E, bound)
        calls.append((E, bound, found))
        return found

    monkeypatch.setattr(characters, "_cyclotomic_root_mod", recording)
    groups = [(name, suite_group(name)) for name in TABLE_SUITE]
    groups += [*bench_table_groups(), ("D1000", dihedral(500)),
               ("aff1806", z_group(43, 42, 3))]
    for label, G in groups:
        report = validate_table(irred_chars(G), G)
        assert report.ok and all(report.checks.values()), label
    assert len(calls) == len(groups)
    for E, bound, found in calls:
        assert found is not None and found == miller_rabin_root_mod(E, bound), (E, bound)
    assert max(bound for _, bound, _ in calls) > 10**5


# -- zero sets ------------------------------------------------------------------------


def test_zero_sets():
    G = dihedral(3)
    chars = character_table(G).chars
    assert zero_set(chars[0]) == frozenset()
    assert zero_set(chars[1]) == frozenset()
    zs = zero_set(chars[2])
    assert zs == frozenset((a, h) for (a, h) in G.elements() if h != (0,))
    assert len(zs) == 3

    G21 = group_pq(3, 7, 2)
    chi3 = [c for c in character_table(G21).chars if c.degree == 3][0]
    zs21 = zero_set(chi3)
    assert zs21 == frozenset(g for g in G21.elements() if g[1] != (0,))
    assert len(zs21) == 14


# -- csv export ------------------------------------------------------------------------


def test_chartable_csv_roundtrip():
    import csv

    G = dihedral(3)
    table = character_table(G)
    buf = io.StringIO()
    export_chartable_csv(G, table.chars, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert len(rows) == 1 + len(table.chars)
    n_classes = len(G.conjugacy_classes())
    assert len(rows[0]) == 2 + 2 * n_classes
    # identity class column: exact coefficient list plus approximation
    assert rows[1][2] == "1:1"
    assert rows[3][2] == "1:2"
    assert rows[3][3].startswith("2")
    assert rows[3][0] == "chi2" and rows[3][1] == "2"
    # classes sit in min-element-code order: identity, reflections, rotations
    assert rows[3][4] == "1:0"
    assert rows[3][6] == "1:-1"


def test_chartable_csv_memo_tells_values_apart():
    # cells are rendered once per (conductor, coeffs, den): values that
    # share two of the three still get their own text
    import csv
    from types import SimpleNamespace

    from ostar.cyclotomic import cyclo_csv

    G = dihedral(3)
    z3 = root_of_unity(3, 1)
    rows = [(CycloNum.from_rational(1), CycloNum.from_rational(Fraction(1, 2)), z3),
            (z3 / 2, CycloNum.from_rational(1), root_of_unity(6, 1))]
    chars = [SimpleNamespace(degree=1, values=row) for row in rows]
    buf = io.StringIO()
    export_chartable_csv(G, chars, buf)
    got = list(csv.reader(io.StringIO(buf.getvalue())))
    assert [row[2:] for row in got[1:]] == [
        [text for v in row for text in cyclo_csv(v)] for row in rows]
