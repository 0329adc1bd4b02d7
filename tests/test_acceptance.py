"""Acceptance suite: one test per criterion, one [PASS]/[FAIL] line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Everything asserted here is exact (CycloNum equality or integer
comparison); the only tolerances are the wall-clock bounds on the family
runs.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from ostar.characters import character_table, zero_set
from ostar.cli import parse_config, report_bytes, run_job
from ostar.cyclotomic import (
    CycloNum,
    lam_leung_certifies_nonzero,
    root_of_unity,
)
from ostar.decide import (
    ADMITS,
    INCONCLUSIVE,
    LINEAR_CHARACTER,
    MAIN_THEOREM,
    NOT_ADMITS,
    SUBGROUP_CRITERION,
    brute_force_verify,
    decide_main_theorem,
    decide_subgroup_criterion,
)
from ostar.groups import AbelianGroup, WreathSpec, build_wreath, dihedral, group_pq, z_group
from ostar.symclass import (
    act,
    dim_symmetry_class,
    explicit_symmetrized_tensor,
    gram,
    orbit_scan,
)

RUNTIME_LIMIT = 120.0  # seconds, per family criterion


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {label}")
        raise
    print(f"\n[PASS] criterion {number}: {label}")


@lru_cache(maxsize=None)
def group(name):
    if name.startswith("D"):
        return dihedral(int(name[1:]) // 2)
    if name == "F21":
        return group_pq(3, 7, 2)
    if name == "F55":
        return group_pq(5, 11, 3)
    if name == "F20":
        return z_group(5, 4, 2)
    if name == "C2wrC2":
        return build_wreath(WreathSpec.regular(AbelianGroup([2]), AbelianGroup([2])))
    if name == "C3wrC2":
        return build_wreath(WreathSpec.regular(AbelianGroup([3]), AbelianGroup([2])))
    raise KeyError(name)


TABLE_SUITE = (
    ["D6", "D8", "D10", "D12", "D14", "D16", "D18"]
    + ["F21", "F55", "F20", "C2wrC2", "C3wrC2"]
)


def test_criterion_1_dihedral_family():
    with criterion(1, "dihedral s in {3,5,7}, n=3: deciders match linearity; "
                      "oracle agrees for s in {3,5}"):
        start = time.monotonic()
        for s in (3, 5, 7):
            G = group(f"D{2 * s}")
            rep = G.natural_rep
            chars = character_table(G).chars
            verdicts = []
            for chi in chars:
                v = decide_main_theorem(G, rep, chi, 3)
                verdicts.append(v)
                if chi.degree == 1:
                    assert v.status == ADMITS
                    assert v.justification == LINEAR_CHARACTER
                else:
                    assert v.status == NOT_ADMITS
                    assert v.justification == MAIN_THEOREM
                    assert v.witness["alpha"] is not None
                    assert v.witness["semigroup"]["member"] is False
            if s in (3, 5):
                for chi, v in zip(chars, verdicts):
                    b = brute_force_verify(G, rep, chi, 3)
                    assert b.status == v.status, (s, chi, v.status, b.status)
        elapsed = time.monotonic() - start
        assert elapsed < RUNTIME_LIMIT, f"took {elapsed:.1f}s"


def test_criterion_2_pq_family():
    with criterion(2, "order-21 group, n=3: degree-3 characters refused via "
                      "the main criterion, linear ones admitted"):
        start = time.monotonic()
        G = group("F21")
        rep = G.natural_rep
        assert rep.degree == 7
        chars = character_table(G).chars
        degree3 = [c for c in chars if c.degree == 3]
        linear = [c for c in chars if c.degree == 1]
        assert len(degree3) == 2 and len(linear) == 3
        for chi in degree3:
            v = decide_main_theorem(G, rep, chi, 3)
            assert v.status == NOT_ADMITS and v.justification == MAIN_THEOREM
            assert v.witness["alpha"] is not None
            assert v.witness["semigroup"] == {"k": 3, "primes": [7], "member": False}
        for chi in linear:
            v = decide_main_theorem(G, rep, chi, 3)
            assert v.status == ADMITS and v.justification == LINEAR_CHARACTER
        elapsed = time.monotonic() - start
        assert elapsed < RUNTIME_LIMIT, f"took {elapsed:.1f}s"


def test_criterion_3_character_table_validity():
    with criterion(3, "exact completeness and first orthogonality across the "
                      "table suite, zero tolerance"):
        for name in TABLE_SUITE:
            G = group(name)
            table = character_table(G)
            assert sum(c.degree**2 for c in table.chars) == G.order, name
            assert table.report.checks["degree_sum"] is True, name
            assert table.report.checks["orthogonality"] is True, name
            assert table.report.ok, (name, table.report.failures)


def test_criterion_4_orbital_dimension_consistency():
    with criterion(4, "dim V_chi(G) equals the orbital dimension sum for the "
                      "suite at n in {2,3}, natural rep degree <= 7"):
        checked = 0
        for name in TABLE_SUITE:
            G = group(name)
            rep = G.natural_rep
            if rep is None or rep.degree > 7:
                continue
            m = rep.degree
            for chi in character_table(G).chars:
                for n in (2, 3):
                    records = orbit_scan(G, rep, chi, m, n)
                    total = sum(r.s_alpha for r in records if r.in_delta_bar)
                    assert dim_symmetry_class(G, rep, chi, n) == total, (name, n)
                    checked += 1
        assert checked >= 80


def integer_coords(tensors):
    """The coordinates of sparse tensors as integer polynomials in zeta_N
    over one denominator D: (N, D, one {b: [(exponent, numerator)]} per
    tensor), where zeta_c^k at conductor c is zeta_N^(k N / c)."""
    values = [v for t in tensors for v in t.values()]
    N = math.lcm(*(v.conductor for v in values))
    D = math.lcm(*(v.den for v in values))
    return N, D, [
        {b: [(k * (N // v.conductor), c * (D // v.den))
             for k, c in enumerate(v.coeffs) if c]
         for b, v in t.items()}
        for t in tensors
    ]


def inner_numerators(x, y, N):
    """The inner product of two tensors from integer_coords, conjugate-linear
    in the first, written out coordinate by coordinate: its numerators over
    D^2 at the powers of zeta_N, as an integer polynomial mod x^N - 1."""
    acc = [0] * N
    for b, xs in x.items():
        ys = y.get(b)
        if ys is not None:
            for p, a in xs:
                for q, c in ys:
                    acc[(q - p) % N] += a * c
    return acc


def test_criterion_5_gram_oracle_equivalence():
    with criterion(5, "Gram entries equal explicit-tensor inner products and "
                      "the exact rank equals s_alpha on every Delta-bar orbit"):
        for name in ("D6", "F21"):
            G = group(name)
            rep = G.natural_rep
            m = rep.degree
            for chi in character_table(G).chars:
                for n in (2, 3):
                    for r in orbit_scan(G, rep, chi, m, n):
                        if not r.in_delta_bar:
                            continue
                        gm = gram(r.rep, chi, G, rep)
                        tensors = [
                            explicit_symmetrized_tensor(
                                act(r.rep, g, rep), chi, G, rep)
                            for g in gm.coset_reps
                        ]
                        # the (j, i) entry is the conjugate of the (i, j) one
                        N, D, coords = integer_coords(tensors)
                        for i, x in enumerate(coords):
                            for j in range(i, len(coords)):
                                entry = CycloNum.from_coeffs(
                                    N, inner_numerators(x, coords[j], N)
                                ) * Fraction(1, D * D)
                                assert gm.entries[i][j] == entry, (name, n, r.rep)
                                assert gm.entries[j][i] == entry.conj(), (name, n, r.rep)
                        assert gm.rank() == r.s_alpha, (name, n, r.rep)


def test_criterion_6_trivial_stabilizer_dimension_law():
    with criterion(6, "s_alpha = (|H|/|H_x|)^2 on every trivial-stabilizer "
                      "orbit met in the family runs"):
        seen = 0
        for name in ("D6", "D10", "D14", "F21"):
            G = group(name)
            rep = G.natural_rep
            for chi in character_table(G).chars:
                for r in orbit_scan(G, rep, chi, rep.degree, 3):
                    if len(r.stabilizer) != 1:
                        continue
                    index = G.H.order // len(chi.orbit.stabilizer)
                    assert r.s_alpha == index**2, (name, r.rep)
                    seen += 1
        assert seen > 0


def test_criterion_7_vanishing_sum_soundness():
    with criterion(7, "10^4 random root-of-unity multisets per conductor "
                      "N <= 24: exact zero sums only at semigroup sizes"):
        rng = random.Random(20260810)
        trials_per_n = 10_000
        max_k = 12
        for N in range(1, 25):
            # reduction table sourced from the library's own root arithmetic;
            # summing integer coefficient vectors over the power basis is the
            # same exact addition CycloNum performs
            table = []
            for e in range(N):
                r = root_of_unity(N, e)
                fr = r.rational_coeffs()[: len(r.coeffs)]
                assert all(f.denominator == 1 for f in fr)
                table.append([int(f) for f in fr])
            deg = len(table[0])
            for trial in range(trials_per_n):
                k = rng.randint(0, max_k)
                picks = [rng.randrange(N) for _ in range(k)]
                vec = [0] * deg
                for e in picks:
                    row = table[e]
                    for i in range(deg):
                        vec[i] += row[i]
                is_exact_zero = not any(vec)
                if trial < 25:
                    total = CycloNum.zero(N)
                    for e in picks:
                        total = total + root_of_unity(N, e)
                    assert total.is_zero() == is_exact_zero
                if is_exact_zero:
                    assert not lam_leung_certifies_nonzero(k, N), (N, k, picks)


def test_criterion_8_subgroup_criterion_witness():
    with criterion(8, "the rotation subgroup of the order-6 dihedral group "
                      "witnesses non-existence at index 2 < 4"):
        G = group("D6")
        rep = G.natural_rep
        chi = [c for c in character_table(G).chars if c.degree == 2][0]
        v = decide_subgroup_criterion(G, rep, chi, 3)
        assert v.status == NOT_ADMITS and v.justification == SUBGROUP_CRITERION
        assert v.witness["subgroup_order"] == 3
        assert v.witness["index"] == 2 and v.witness["chi_degree_squared"] == 4
        members = {(tuple(a), tuple(h)) for a, h in v.witness["subgroup"]}
        assert not members & zero_set(chi)
        assert v.status == decide_main_theorem(G, rep, chi, 3).status


def test_criterion_9_negative_control_honesty():
    with criterion(9, "dihedral(3) at n=2: main criterion honestly "
                      "inconclusive, oracle still refutes, justifications kept apart"):
        G = group("D6")
        rep = G.natural_rep
        chi = [c for c in character_table(G).chars if c.degree == 2][0]
        v = decide_main_theorem(G, rep, chi, 2)
        assert v.status == INCONCLUSIVE
        assert v.witness["alpha_search"]["status"] == "proven_none"
        b = brute_force_verify(G, rep, chi, 2)
        assert b.status == NOT_ADMITS
        assert b.justification != v.justification
        report = run_job(parse_config(
            '{"family":{"dihedral":{"s":3}},"rep":"natural","n":2,'
            '"tasks":["decide","verify"]}'
        ))
        decided = report["tasks"]["decide"]["per_character"][2]["verdict"]
        verified = report["tasks"]["verify"]["per_character"][2]["verdict"]
        assert decided["status"] == "Inconclusive"
        assert verified["status"] == "NotAdmits"
        assert decided["justification"] != verified["justification"]


def test_criterion_10_repeat_run_determinism():
    with criterion(10, "repeated family runs are byte-identical"):
        configs = [
            '{"family":{"dihedral":{"s":3}},"rep":"natural","n":3,'
            '"tasks":["decide","verify"]}',
            '{"family":{"dihedral":{"s":5}},"rep":"natural","n":3,'
            '"tasks":["decide","verify"]}',
            '{"family":{"dihedral":{"s":7}},"rep":"natural","n":3,'
            '"tasks":["decide"]}',
        ]
        for text in configs:
            first = report_bytes(run_job(parse_config(text)))
            second = report_bytes(run_job(parse_config(text)))
            assert first == second
