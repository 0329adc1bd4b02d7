"""The ostar benchmark: seeded workloads of ostar jobs, every output checked.

    python3 perfbench/run.py --workload tables|orbits|oracle --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each run generates the workload's job
configs from the seed and runs the job list, pass after pass, in one
worker process (a fresh interpreter) for about S seconds; between its
first passes it times set-up in other fresh interpreters.  Job and set-up
times are normalised by a reference load timed alongside them.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402

SETUP_SAMPLES = 5          # fresh interpreters timed for setup_s
REF_NOMINAL_S = 0.040      # reference() time at the speed times are scaled to
REF_NEIGHBOURS = 2         # jobs on either side whose reference times scale a job
JOB_TIMEOUT_S = 60         # a job past this counts as failed ("timeout")
RUN_DEADLINE_S = 170       # the worker is killed past this


def commit_of(root):
    """The checked-out commit, read from .git without running git; None
    when the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Worker:
    """One worker process; `ready_s` is the time from spawn until it has
    imported ostar and validated every config."""

    def __init__(self, plan_path, setup_only, deadline):
        argv = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path)]
        if setup_only:
            argv.append("--setup-only")
        t0 = perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.killed = False
        self._watchdog = threading.Timer(max(deadline - t0, 1.0), self._kill)
        self._watchdog.start()
        self.ready = self.next_event()
        self.ready_s = perf_counter() - t0 if self.ready else None

    def _kill(self):
        self.killed = True
        self.proc.kill()

    def next_event(self):
        line = self.proc.stdout.readline()
        return json.loads(line) if line.strip() else None

    def events(self):
        while True:
            ev = self.next_event()
            if ev is None:
                return
            yield ev

    def resume(self):
        """Let the worker, waiting after a pass, start the next one."""
        try:
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
        except OSError:
            pass  # it died; close() reports how

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.stdout.read()
            self.proc.wait()
        finally:
            self._watchdog.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


def main(argv=None):
    ap = argparse.ArgumentParser(description="ostar benchmark")
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's hashes as the golden ones "
                         f"(only with --seed {jobs.DEFAULT_SEED})")
    args = ap.parse_args(argv)
    golden_path = HERE / "golden.json"
    started = perf_counter()
    deadline = started + RUN_DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "ostar" / "__init__.py").is_file():
        print(f"error: {root} holds no ostar sources (src/ostar); run from the "
              "root of an ostar checkout", file=sys.stderr)
        return 2
    if args.write_golden and args.seed != jobs.DEFAULT_SEED:
        ap.error(f"--write-golden needs --seed {jobs.DEFAULT_SEED}")

    job_list = jobs.generate(args.workload, args.seed)
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    golden = {}
    if args.seed == jobs.DEFAULT_SEED and not args.write_golden:
        golden = json.loads(golden_path.read_text()).get(args.workload, {})
    for job in job_list:
        path = out_dir / f"{job['id']}.config.json"
        path.write_text(json.dumps(job["config"], indent=1))
        job["config_path"] = str(path)
        job["golden"] = golden.get(job["id"])
    plan = {
        "root": str(root), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "jobs": job_list,
        "out_dir": str(out_dir), "job_timeout_s": JOB_TIMEOUT_S,
        "micro_conductors": list(jobs.MICRO_CONDUCTORS),
    }
    plan_path = out_dir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    record = {
        "commit": commit_of(root), "python": platform.python_version(),
        "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "jobs": [{"id": j["id"], "kind": j["kind"], **j["meta"]} for j in job_list],
    }
    print(json.dumps({"record": record}))

    setup_s, setup_raw_s = [], []
    setup_tries = 0
    failures = []

    def setup_sample():
        """Time one set-up in a fresh worker and scale it, like job times,
        by reference() runs that worker makes right after."""
        nonlocal setup_tries
        setup_tries += 1
        w = Worker(plan_path, True, deadline)
        refs = w.next_event() if w.ready is not None else None
        w.close()
        if refs is not None:
            setup_raw_s.append(w.ready_s)
            setup_s.append(w.ready_s * REF_NOMINAL_S / median(refs["refs"]))

    main_worker = Worker(plan_path, False, deadline)
    result = None
    job_events = []
    if main_worker.ready is not None:
        record["cpu"] = main_worker.ready["cpu"]
        failures += [f"{jid}: {p}" for jid, p in main_worker.ready["validate_problems"].items()]
        for ev in main_worker.events():
            if ev["event"] == "job":
                job_events.append(ev)
                failures += [f"{ev['id']} (pass {ev['pass']}): {p}" for p in ev["problems"]]
            elif ev["event"] == "pass":
                if not ev["last"]:
                    if setup_tries < SETUP_SAMPLES:
                        setup_sample()
                    main_worker.resume()
            else:
                result = ev
    rc = main_worker.close()
    while result is not None and setup_tries < SETUP_SAMPLES:
        setup_sample()
    attempted = len(job_events)
    failed = sum(1 for ev in job_events if ev["problems"])
    if result is None:
        reason = "killed at the run deadline" if main_worker.killed else f"exit {rc}"
        failures.append(f"worker ended without a result ({reason})")
        attempted += 1  # the job in flight when the worker died
        failed += 1
    elif not setup_s:
        failures.append("no set-up worker finished")
        result = None

    if args.write_golden and result is not None and not failures:
        table = json.loads(golden_path.read_text())
        table[args.workload] = {ev["id"]: ev["sha256"] for ev in job_events}
        golden_path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    ids = [j["id"] for j in job_list]
    metrics = {}
    if result is not None:
        passes = result["passes"]
        if not args.trace:
            per_job = {jid: median(p[i] for p in passes) for i, jid in enumerate(ids)}
            per_job_norm = normalised(ids, passes, result["refs"])
            metrics = {
                "wall_norm_s": {"value": sum(per_job_norm.values()), "unit": "s"},
                "job_norm_s.max": {"value": max(per_job_norm.values()), "unit": "s"},
                "setup_s": {"value": median(setup_s), "unit": "s"},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
                "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            }
            record.update(wall_s=median(sum(p) for p in passes), per_job_median_s=per_job,
                          per_job_norm_s=per_job_norm, passes_s=passes,
                          ref_s=result["refs"], ref_nominal_s=REF_NOMINAL_S)
        else:
            metrics = {k: {"value": v, "unit": unit_of(k)}
                       for k, v in sorted(result["layers"].items())}
            record["spans_path"] = result["spans_path"]
            record["hook_errors"] = result["hook_errors"]
            for err in result["hook_errors"]:
                print(f"warning: trace counter hook failed: {err}", file=sys.stderr)
    record.update(setup_s=setup_s, setup_raw_s=setup_raw_s, attempted=attempted, failed=failed,
                  failures=failures, elapsed_s=perf_counter() - started)
    (out_dir / "record.json").write_text(json.dumps(record, indent=1))
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def normalised(ids, passes, refs):
    """Per job, the median over passes of its time scaled to the machine
    speed at which reference() takes REF_NOMINAL_S: each job time is
    multiplied by REF_NOMINAL_S over the median of the reference times
    taken just before the REF_NEIGHBOURS jobs on either side of it and
    itself.  The host's speed drifts by tens of percent over seconds to
    minutes; the scaling cancels that drift, which raw times carry from
    run to run."""
    ref_seq = [r for pass_refs in refs for r in pass_refs]
    out = {}
    for i, jid in enumerate(ids):
        scaled = []
        for k in range(len(passes)):
            at = k * len(ids) + i
            near = ref_seq[max(0, at - REF_NEIGHBOURS):at + REF_NEIGHBOURS + 1]
            scaled.append(passes[k][i] * REF_NOMINAL_S / median(near))
        out[jid] = median(scaled)
    return out


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if "_us." in name:
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
