"""Seeded job generator for the ostar benchmark.

Every workload is a fixed list of job slots.  A slot fixes the group (its
order and isomorphism type), the representation, m, n and the tasks, so
every seed does the same amount of work.  The seed picks, per slot, among
presentations of that same input: the group form (named family, explicit
semidirect product, z_group), the automorphism or primitive root that
presents it, the direction of a wreath action, and a relabelling of the
points of explicit permutation representations.  Those choices change the
configs ostar receives and the bytes of its reports, not the size of the
problem.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 0
WORKLOADS = ("tables", "orbits", "oracle")
ORACLE_THREADS = 2
# conductors of the CycloNum microbenchmark: 21 (the order-21 group in
# orbits and oracle) and 111, the largest conductor of a character value
# in the tables workload (the pq group of order 111)
MICRO_CONDUCTORS = (21, 111)


def _mult_order(r, q):
    """Multiplicative order of the unit r modulo q."""
    k, x = 1, r % q
    while x != 1:
        x = x * r % q
        k += 1
    return k


def _relabel(perms, rng):
    """Conjugate 0-based permutations by one random relabelling of their
    points; returns 1-based lists as the config format wants them."""
    degree = len(perms[0])
    sigma = list(range(degree))
    rng.shuffle(sigma)
    out = []
    for p in perms:
        q = [0] * degree
        for x in range(degree):
            q[sigma[x]] = sigma[p[x]]
        out.append([v + 1 for v in q])
    return out


def _explicit(a, h, r, a_perm, h_perm, rng):
    """C_a x| C_h with the generator of C_h acting as multiplication by r,
    carrying a relabelled copy of the given permutation representation."""
    rel = _relabel([a_perm, h_perm], rng)
    return {"A": [a], "H": [h], "phi": [[[r]]],
            "rep": {"explicit": {"degree": len(a_perm), "A": [rel[0]], "H": [rel[1]]}}}


# Each constructor returns (form, order, degree, group config) where degree
# is that of the representation the config selects.


def _affine(q, r):
    """Translation and scaling by r^-1 on Z_q, as ostar bundles them."""
    rinv = pow(r, -1, q)
    return [(x + 1) % q for x in range(q)], [rinv * x % q for x in range(q)]


def dihedral(s, rng):
    rot = [(i + 1) % s for i in range(s)]
    ref = [(-i) % s for i in range(s)]
    if rng.random() < 0.5:
        return "family", 2 * s, s, {"family": {"dihedral": {"s": s}}, "rep": "natural"}
    return "explicit", 2 * s, s, _explicit(s, 2, s - 1, rot, ref, rng)


def pq(p, q, rng):
    r = rng.choice([r for r in range(2, q) if _mult_order(r, q) == p])
    if rng.random() < 0.5:
        return "pq", p * q, q, {"family": {"pq": {"p": p, "q": q, "r": r}}, "rep": "natural"}
    return "explicit", p * q, q, _explicit(q, p, r, *_affine(q, r), rng)


def affine(q, rng):
    """The full affine group C_q x| C_(q-1), as a z_group or explicitly."""
    g = rng.choice([r for r in range(2, q) if _mult_order(r, q) == q - 1])
    if rng.random() < 0.5:
        return ("z_group", q * (q - 1), q,
                {"family": {"z_group": {"s": q, "t": q - 1, "r": g}}, "rep": "natural"})
    return "explicit", q * (q - 1), q, _explicit(q, q - 1, g, *_affine(q, g), rng)


def wreath(a, h, rng):
    """C_a wr C_h over the regular action of C_h, given as "regular" or as
    an explicit h-cycle x -> x + k with k a unit mod h."""
    k = rng.choice([k for k in range(1, h) if math.gcd(k, h) == 1])
    action = "regular" if k == 1 and rng.random() < 0.5 else [
        [(x + k) % h + 1 for x in range(h)]]
    return ("wreath", a**h * h, a * h,
            {"wreath": {"A": [a], "H": [h], "omega": h, "action": action},
             "rep": "natural"})


def d12_on_3_points(rng):
    """C_6 x| C_2 (dihedral of order 12) acting on 3 points through its
    quotient S_3: an unfaithful explicit representation."""
    return "explicit", 12, 3, _explicit(6, 2, 5, [1, 2, 0], [0, 2, 1], rng)


def _job(slot, kind, form, order, degree, group, tasks, n=None, m=None, args=()):
    """One job: a CLI job runs `ostar run` on the config; a Gram job runs
    the library pipeline orbit_scan -> gram -> rank on the config's group
    and representation (its config carries no tasks)."""
    cfg = dict(group)
    if n is not None:
        cfg["n"] = n
    if m is not None:
        cfg["m"] = m
    cfg["tasks"] = list(tasks) if kind == "cli" else []
    m_eff = m or degree
    return {
        "id": slot,
        "kind": kind,
        "config": cfg,
        "args": list(args),
        "meta": {
            "form": form,
            "order": order,
            "rep": "explicit" if isinstance(cfg["rep"], dict) else cfg["rep"],
            "m": m_eff,
            "n": n,
            "n^m": n**m_eff if n is not None else None,
            "tasks": list(tasks),
        },
    }


def generate(workload, seed):
    """The job list of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tables":
        tasks = ["chartable"]
        return [
            _job("d90", "cli", *dihedral(45, rng), tasks),
            _job("pq111", "cli", *pq(3, 37, rng), tasks),
            _job("aff110", "cli", *affine(11, rng), tasks),
            _job("c3wrc3", "cli", *wreath(3, 3, rng), tasks),
        ]
    if workload == "orbits":
        tasks = ["orbits", "dims", "decide"]
        return [
            _job("d14-n4", "cli", *dihedral(7, rng), tasks, n=4),
            _job("f21-m9-n3", "cli", *pq(3, 7, rng), tasks, n=3, m=9),
            _job("d12on3-m6-n4", "cli", *d12_on_3_points(rng), tasks, n=4, m=6),
        ]
    tasks = ["decide", "verify"]
    threads = ["--threads", str(ORACLE_THREADS)]
    gram_group = dihedral(5, rng)
    return [
        _job("d14-n3", "cli", *dihedral(7, rng), tasks, n=3, args=threads),
        _job("f21-n2", "cli", *pq(3, 7, rng), tasks, n=2, args=threads),
        _job("c3wrc2-n2", "cli", *wreath(3, 2, rng), tasks, n=2, args=threads),
        _job("d16-n2", "cli", *dihedral(8, rng), tasks, n=2, args=threads),
        _job("c2wrc4-n2", "cli", *wreath(2, 4, rng), tasks, n=2, args=threads),
        _job("gram-d10-n2", "gram", *gram_group, ["gram", "rank"], n=2),
        _job("gram-d10-n3", "gram", *gram_group, ["gram", "rank"], n=3),
    ]
