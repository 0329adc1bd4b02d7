"""One benchmark worker: a fresh interpreter that imports ostar, validates
every job config, then runs and checks the job list.

Started by run.py with a plan file.  It prints ``ready`` once set-up is
done, one JSON line per finished job, and one JSON result line at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import signal
import sys
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

import instrument

MICRO_SECONDS_PER_OP = 0.15
MICRO_OPERANDS = 16
INV_OPERANDS = 2
SETUP_REFS = 3   # reference() runs that scale one set-up sample


class JobTimeout(BaseException):
    """Raised by the job alarm; a BaseException so no handler inside ostar
    swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


@contextlib.contextmanager
def _alarm(seconds):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _emit(obj):
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


# -- output checks -------------------------------------------------------------


def check_report(doc, cfg):
    """Problems found in one `ostar run` report; empty when it is correct."""
    problems = []
    tv = doc.get("table_validation")
    if not tv or not all(v is True for v in tv.values()):
        problems.append(f"table_validation not all true: {tv}")
    tasks = doc.get("tasks", {})
    missing = [t for t in cfg["tasks"] if t not in tasks]
    if missing:
        problems.append(f"tasks missing from the report: {missing}")
    m = cfg.get("m") or doc["rep"]["degree"]
    for pc in tasks.get("orbits", {}).get("per_character", []):
        covered = sum(r["orbit_size"] for r in pc["records"])
        if covered != cfg["n"] ** m:
            problems.append(f"orbits of character {pc['char_index']} cover "
                            f"{covered} indices, not n^m = {cfg['n'] ** m}")
    for pc in tasks.get("dims", {}).get("per_character", []):
        if pc["consistent"] is not True or pc["dim"] != pc["sum_s_alpha"]:
            problems.append(f"dims inconsistent for character {pc['char_index']}")
    for pc in tasks.get("verify", {}).get("per_character", []):
        if pc["agrees_with_decide"] is False:
            problems.append(f"verify disagrees with decide for character {pc['char_index']}")
    return problems


# -- jobs ------------------------------------------------------------------------


def run_cli_job(ostar, job, out_path):
    argv = ["run", job["config_path"], "--out", str(out_path), *job["args"]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        rc = ostar.cli.main(argv)
        dt = perf_counter() - t0
    if rc != 0:
        return dt, None, [f"exit {rc}: {err.getvalue().strip()[-300:]}"]
    payload = out_path.read_bytes()
    out_path.unlink()
    return dt, payload, check_report(json.loads(payload), job["config"])


def gram_rows(ostar, config_text):
    """The README library sketch over every Delta-bar orbit: orbit_scan,
    then gram(...), then .rank()."""
    cfg = ostar.cli.parse_config(config_text)
    G, rep = ostar.cli.build_job(cfg)
    m = cfg.m or rep.degree
    rep = rep.extended(m)
    table = ostar.character_table(G)
    if not table.report.ok:
        raise RuntimeError(f"character table failed validation: {table.report.failures}")
    rows = []
    for i, chi in enumerate(table.chars):
        for r in ostar.orbit_scan(G, rep, chi, m, cfg.n):
            if r.in_delta_bar:
                rows.append([i, list(r.rep), r.s_alpha,
                             ostar.gram(r.rep, chi, G, rep).rank()])
    return rows


def run_gram_job(ostar, job):
    text = Path(job["config_path"]).read_text()
    t0 = perf_counter()
    rows = gram_rows(ostar, text)
    dt = perf_counter() - t0
    problems = [f"Gram rank {rank} != s_alpha {s} for character {i} at {alpha}"
                for i, alpha, s, rank in rows if rank != s]
    if not rows:
        problems.append("no Delta-bar orbit")
    return dt, json.dumps(rows).encode(), problems


def run_job(ostar, job, plan, out_dir):
    """(seconds, sha256 or None, problems); never raises for a job fault."""
    t0 = perf_counter()
    try:
        with _alarm(plan["job_timeout_s"]):
            if job["kind"] == "cli":
                dt, payload, problems = run_cli_job(ostar, job, out_dir / f"{job['id']}.report.json")
            else:
                dt, payload, problems = run_gram_job(ostar, job)
    except JobTimeout:
        return plan["job_timeout_s"], None, ["timeout"]
    except Exception as exc:  # a crashing job is a failed job, not a crashed run
        return perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
    sha = hashlib.sha256(payload).hexdigest() if payload is not None else None
    if sha is not None and job.get("golden") and sha != job["golden"]:
        problems.append(f"sha256 {sha} does not match the golden {job['golden']}")
    return dt, sha, problems


class _Slots:
    __slots__ = ("key", "scale", "coeffs")

    def __init__(self, key, scale, coeffs):
        self.key, self.scale, self.coeffs = key, scale, coeffs


def reference():
    """A fixed pure-Python load of the kinds ostar spends its time on: a
    small dict keyed by tuples, Fraction arithmetic, building, hashing and
    sorting tuples, lookups scattered over a dict of 20,000 tuple keys
    (which miss the processor caches as ostar's larger tables do), and
    CycloNum-like reduction of short integer vectors with gcd into
    __slots__ objects.  It calls no ostar code, so its time follows only
    the speed the machine gives this process at that moment; run.py
    divides each job's time by it.  A load without the cache-missing part
    sped up by more than ostar did when the machine got faster."""
    acc = {}
    for i in range(4000):
        key = (i * 7919) % 1013, i % 17
        acc[key] = acc.get(key, 0) + i * i
    x = Fraction(1, 3)
    for i in range(1, 300):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
    rows = [tuple((i * j) % 97 for j in range(6)) for i in range(1500)]
    n = 20000
    table = {((i * 2654435761) % 1000003, i % 7): i for i in range(n)}
    hits = 0
    for i in range(n):
        k = (i * 40503) % n
        hits += table.get(((k * 2654435761) % 1000003, k % 7), 0)
    phi = (1, -1, 1, -1, 1, -1, 1)
    objs = []
    for k in range(700):
        vec = [(k * j * 31) % 19 - 9 for j in range(12)]
        for i in range(11, 5, -1):
            c = vec[i]
            if c:
                vec[i] = 0
                for j in range(6):
                    vec[i - 6 + j] -= c * phi[j]
        g = 0
        for c in vec[:6]:
            g = math.gcd(g, c)
        objs.append(_Slots(k, Fraction(k + 1, g or 1), tuple(vec[:6])))
    return (len(sorted(acc.items())), x.denominator % 7, len(set(rows)),
            sorted(rows)[0], hits, len(objs))


def timed_reference():
    """Seconds of one reference() run.  The garbage collector is off
    during it: a collection would walk ostar's live objects too, and tie
    the reference's time to the size of ostar's heap."""
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter()
        reference()
        return perf_counter() - t0
    finally:
        gc.enable()


def run_pass(ostar, plan, out_dir, label, tracer=None, calibrate=False):
    """Run every job once; returns the per-job seconds and, with
    `calibrate`, the seconds of a reference() run just before each job."""
    times, refs = [], []
    for job in plan["jobs"]:
        if calibrate:
            refs.append(timed_reference())
        gc.collect()  # so no job pays for the garbage of the one before
        if tracer is None:
            dt, sha, problems = run_job(ostar, job, plan, out_dir)
        else:
            with tracer.span("bench.job"):
                dt, sha, problems = run_job(ostar, job, plan, out_dir)
        times.append(dt)
        _emit({"event": "job", "pass": label, "id": job["id"], "seconds": dt,
               "sha256": sha, "problems": problems})
    return times, refs


# -- CycloNum microbenchmark --------------------------------------------------------


def microbench(ostar, seed, conductors):
    """Median microseconds of one public CycloNum +, * and inv() call on
    operands shaped like character values: small sums of roots of unity
    over a rational.  inv() is slow at large conductors, so it runs on the
    first INV_OPERANDS operands only."""
    cyc = ostar.cyclotomic
    rng = random.Random(f"micro:{seed}")
    out = {}
    for N in conductors:
        def operand():
            while True:
                x = cyc.CycloNum.zero(N)
                for _ in range(4):
                    x = x + cyc.root_of_unity(N, rng.randrange(N)) * rng.randint(1, 3)
                if not x.is_zero():
                    return x * Fraction(1, rng.randint(1, 4))
        pairs = [(operand(), operand()) for _ in range(MICRO_OPERANDS)]
        ops = (("add", lambda a, b: a + b, pairs), ("mul", lambda a, b: a * b, pairs),
               ("inv", lambda a, b: a.inv(), pairs[:INV_OPERANDS]))
        for name, op, args in ops:
            samples = []
            end = perf_counter() + MICRO_SECONDS_PER_OP
            while perf_counter() < end or len(samples) < 3:
                for a, b in args:
                    t0 = perf_counter()
                    r = op(a, b)
                    samples.append(perf_counter() - t0)
                    if name == "inv" and a * r != 1:
                        raise RuntimeError(f"x * x.inv() != 1 at conductor {N}")
            out[f"cyclotomic.{name}_us.c{N}"] = median(samples) * 1e6
    return out


# -- main ---------------------------------------------------------------------------


def pin_to_one_cpu():
    """Keep this process and its threads on one CPU.  The oracle's verify
    jobs run a two-thread pool whose GIL handoffs, when the threads sit on
    different CPUs, wait on cross-CPU wake-ups; those made the run-to-run
    spread of the oracle timings several times wider than on one CPU.
    Child processes inherit the pinning, so a speed-up from running on
    several CPUs cannot show in this benchmark."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def setup(plan):
    """Import ostar from the checkout and validate every job config."""
    src = Path(plan["root"]) / "src"
    sys.path.insert(0, str(src))
    import ostar
    import ostar.cli
    if not Path(ostar.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported ostar from {ostar.__file__}, not from {src}")
    problems = {}
    for job in plan["jobs"]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = ostar.cli.main(["validate", job["config_path"]])
        if rc != 0:
            problems[job["id"]] = f"validate exit {rc}: {err.getvalue().strip()}"
    return ostar, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())
    cpu = pin_to_one_cpu()
    ostar, validate_problems = setup(plan)
    _emit({"event": "ready", "cpu": cpu, "validate_problems": validate_problems})
    if args.setup_only:
        _emit({"event": "refs", "refs": [timed_reference() for _ in range(SETUP_REFS)]})
        return 0

    out_dir = Path(plan["out_dir"])
    result = {"event": "result", "passes": [], "refs": []}
    if not plan["trace"]:
        measured = 0.0
        while True:
            t0 = perf_counter()
            times, refs = run_pass(ostar, plan, out_dir, len(result["passes"]), calibrate=True)
            measured += perf_counter() - t0
            result["passes"].append(times)
            result["refs"].append(refs)
            last = measured >= plan["seconds"]
            _emit({"event": "pass", "last": last})
            # run.py times a set-up sample while this worker waits here, so
            # set-up samples spread over the run and never overlap a job
            if last or not sys.stdin.readline():
                break
    else:
        result["passes"].append(run_pass(ostar, plan, out_dir, "untraced")[0])
        tracer = instrument.Tracer()
        tracer.install()
        try:
            run_pass(ostar, plan, out_dir, "spans", tracer)
        finally:
            tracer.uninstall()
        result["passes"].append(run_pass(ostar, plan, out_dir, "untraced")[0])
        counter = instrument.Counter()
        counter.install()
        try:
            run_pass(ostar, plan, out_dir, "counts")
        finally:
            counter.uninstall()
        layers = instrument.span_metrics(tracer)
        untraced = median(sum(p) for p in result["passes"])
        layers["trace.untraced_wall_s"] = untraced
        layers["trace.overhead_ratio"] = layers["trace.wall_s"] / untraced
        layers.update(counter.metrics())
        layers.update(microbench(ostar, plan["seed"], plan["micro_conductors"]))
        result["layers"] = layers
        spans_path = out_dir / "spans.json"
        spans_path.write_text(json.dumps(instrument.spans_json(tracer)))
        result["spans_path"] = str(spans_path)
        result["hook_errors"] = tracer.hook_errors
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
