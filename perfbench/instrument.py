"""Layer instrumentation for the ostar benchmark, applied from outside.

Nothing under src/ is edited.  The span tracer replaces every public
function of the ostar modules, in every ostar namespace that binds it
(``ostar.decide.orbit_scan`` is the same function as
``ostar.symclass.orbit_scan`` and both bindings are wrapped), plus a few
coarse methods.  Helpers called once per index or per element would cost
more to trace than they do to run; they are left unwrapped and their time
stays in the caller's span.  Per-operation counters (CycloNum operators,
group products, character values) live in a separate counting pass so
their wrappers never inflate span times.

A layer is the ostar module a function is defined in.  Self time is given
out by a sweep over span start and end times: at every instant the open
spans with no open child share the elapsed time equally.  With one thread
that is duration minus children; while ``brute_force_verify`` runs its
thread pool the concurrently open spans split the time, so the layer self
times always add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import threading
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("cyclotomic", "groups", "characters", "symclass", "decide", "cli")
BENCH_LAYER = "bench"

# Called once per multi-index, per group element or per permutation: too
# fine-grained for a span.
LEAF_HELPERS = frozenset({
    "act", "index_code", "index_from_code", "cycle_count",
    "pmul", "pinv", "perm_cycle_count", "multiplicative_order",
    "root_of_unity", "element_json", "element_label",
})

# Coarse methods traced as spans, by class.
SPAN_METHODS = {
    "SemidirectGroup": ("conjugacy_classes", "is_abelian"),
    "PermRep": ("__init__", "is_faithful", "extended"),
    "WreathSpec": ("regular",),
    "GramMatrix": ("rank", "to_json"),
}

# Span names whose outermost occurrences make up groups.build_s.
BUILD_SPANS = frozenset({
    "groups.dihedral", "groups.group_pq", "groups.z_group",
    "groups.build_semidirect", "groups.build_wreath", "groups.regular_rep",
    "groups.PermRep.__init__", "groups.PermRep.extended",
    "groups.WreathSpec.regular",
})

# Hot operations counted in the counting pass: metric name -> (module,
# class, method names sharing one counter).
COUNTED = {
    "cyclotomic.add_calls": ("cyclotomic", "CycloNum", ("__add__", "__radd__")),
    "cyclotomic.mul_calls": ("cyclotomic", "CycloNum", ("__mul__", "__rmul__")),
    "cyclotomic.inv_calls": ("cyclotomic", "CycloNum", ("inv",)),
    "cyclotomic.conj_calls": ("cyclotomic", "CycloNum", ("conj",)),
    "cyclotomic.is_zero_calls": ("cyclotomic", "CycloNum", ("is_zero",)),
    "groups.mul_calls": ("groups", "SemidirectGroup", ("mul",)),
    "characters.value_calls": ("characters", "IrredChar", ("value",)),
    "characters.value_uncached_calls": ("characters", "IrredChar", ("value_uncached",)),
}

VERTEX_BUDGET = 512  # brute_force_verify's default; larger orbits are skipped


def _ostar_namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "ostar" or name.startswith("ostar."))]


def _layer_of(module_name):
    layer = module_name.split(".", 1)[-1] if module_name.startswith("ostar.") else None
    return layer if layer in LAYERS else None


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def undo(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end")

    def __init__(self, sid, parent, name, start, end):
        self.id, self.parent, self.name, self.start, self.end = (
            sid, parent, name, start, end)


class Tracer:
    """Span recorder.  Spans are kept in memory and written out at the
    end; counters filled by per-function hooks ride along."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.first_scan_spans = set()
        self.hook_errors = []
        self._names = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._scan_keys = {}
        self._patches = _Patches()

    # -- recording -------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool thread's first span belongs to whatever the main thread
        # is inside (brute_force_verify waiting on its pool)
        main = self._main_stack
        return main[-1] if main else None

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the body; yields (span id, parent id)."""
        stack = self._stack()
        sid = next(self._ids)
        parent = self._parent(stack)
        self._names[sid] = name
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield sid, parent
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, t0, t1))

    def call(self, name, fn, args, kwargs):
        with self.span(name) as (sid, parent):
            result = fn(*args, **kwargs)
        hook = _HOOKS.get(name)
        if hook is not None:
            try:
                hook(self, sid, parent, fn, args, kwargs, result)
            except (AttributeError, KeyError, TypeError) as exc:
                # an API change breaks a counter, never the job
                self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
        return result

    def name_of(self, sid):
        return self._names.get(sid)

    # -- installation ----------------------------------------------------

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def install(self):
        wrappers = {}
        for mod in _ostar_namespaces():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or attr in LEAF_HELPERS:
                    continue
                if not isinstance(value, types.FunctionType):
                    continue
                layer = _layer_of(value.__module__)
                if layer is None:
                    continue
                w = wrappers.get(value)
                if w is None:
                    w = wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                self._patches.set(mod, attr, w)
        for mod in _ostar_namespaces():
            layer = _layer_of(mod.__name__)
            for cls_name, methods in SPAN_METHODS.items():
                cls = vars(mod).get(cls_name)
                if cls is None or cls.__module__ != mod.__name__:
                    continue
                for meth in methods:
                    if not hasattr(cls, meth):
                        continue
                    raw = inspect.getattr_static(cls, meth)
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, staticmethod):
                        self._patches.set(cls, meth, staticmethod(self._wrap(raw.__func__, name)))
                    else:
                        self._patches.set(cls, meth, self._wrap(raw, name))

    def uninstall(self):
        self._patches.undo()


# -- hooks: counters derived from arguments and results ----------------------


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _hook_orbit_scan(tr, sid, parent, fn, args, kwargs, records):
    a = _bound(fn, args, kwargs)
    rep, m, n = a["rep"], a["m"], a["n"]
    tr.counts["symclass.orbit_scan_calls"] += 1
    bar = [r for r in records if r.in_delta_bar]
    tr.counts["symclass.delta_bar_orbits"] += len(bar)
    key = (id(rep), m, n)
    if key not in tr._scan_keys:
        tr._scan_keys[key] = rep  # keeps rep alive so its id stays unique
        tr.first_scan_spans.add(sid)
        tr.counts["symclass.indices"] += n**m
        tr.counts["symclass.orbits"] += len(records)
    if tr.name_of(parent) == "decide.brute_force_verify":
        tr.counts["decide.coset_pairs"] += sum(
            r.orbit_size * (r.orbit_size - 1) // 2
            for r in bar if r.orbit_size <= VERTEX_BUDGET)


def _hook_subgroups(tr, sid, parent, fn, args, kwargs, subs):
    tr.counts["groups.subgroups"] += len(subs)


def _hook_gram(tr, sid, parent, fn, args, kwargs, gm):
    tr.counts["symclass.gram_entries"] += len(gm.entries) ** 2


def _hook_verdict(tr, sid, parent, fn, args, kwargs, verdict):
    if verdict.status == "Inconclusive":
        tr.counts["decide.inconclusive"] += 1


def _hook_report_bytes(tr, sid, parent, fn, args, kwargs, payload):
    tr.counts["cli.report_mb"] += len(payload) / 1e6


_HOOKS = {
    "symclass.orbit_scan": _hook_orbit_scan,
    "groups.enumerate_subgroups": _hook_subgroups,
    "symclass.gram": _hook_gram,
    "decide.decide_pipeline": _hook_verdict,
    "decide.brute_force_verify": _hook_verdict,
    "cli.report_bytes": _hook_report_bytes,
}


# -- analysis ---------------------------------------------------------------


def self_times(spans):
    """Span id -> self seconds, by the equal-share sweep described above."""
    by_id = {s.id: s for s in spans}
    events = []
    for s in spans:
        events.append((s.start, 1, s.id))
        events.append((s.end, 0, s.id))
    events.sort()
    open_ids = set()
    open_children = defaultdict(int)
    leaves = set()
    out = defaultdict(float)
    prev = None
    for t, is_start, sid in events:
        if leaves and prev is not None and t > prev:
            share = (t - prev) / len(leaves)
            for x in leaves:
                out[x] += share
        prev = t
        p = by_id[sid].parent
        p_open = p in open_ids
        if is_start:
            open_ids.add(sid)
            leaves.add(sid)
            if p_open:
                open_children[p] += 1
                leaves.discard(p)
        else:
            open_ids.discard(sid)
            leaves.discard(sid)
            if p_open:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return out


def _outermost(spans, names):
    """Spans named in `names` with no ancestor named in `names`."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name not in names:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


def span_metrics(tracer):
    """Per-layer metrics of one traced pass, in seconds and counts."""
    spans = tracer.spans
    own = self_times(spans)
    layer_self = defaultdict(float)
    name_self = defaultdict(float)
    for s in spans:
        layer_self[s.name.split(".", 1)[0]] += own[s.id]
        name_self[s.name] += own[s.id]

    def incl(*names):
        return sum(s.end - s.start for s in _outermost(spans, frozenset(names)))

    scans = [s for s in spans if s.name == "symclass.orbit_scan"]
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS + (BENCH_LAYER,)}
    m.update({
        "cli.run_job.self_s": name_self["cli.run_job"],
        "cli.report_bytes_s": incl("cli.report_bytes"),
        "groups.build_s": incl(*BUILD_SPANS),
        "groups.conjugacy_classes_s": incl("groups.SemidirectGroup.conjugacy_classes"),
        "groups.enumerate_subgroups_s": incl("groups.enumerate_subgroups"),
        "characters.irred_chars_s": incl("characters.irred_chars"),
        "characters.validate_table_s": incl("characters.validate_table"),
        "symclass.partition_s": sum(s.end - s.start for s in scans
                                    if s.id in tracer.first_scan_spans),
        "symclass.orbit_sums_s": sum(s.end - s.start for s in scans
                                     if s.id not in tracer.first_scan_spans),
        "symclass.dim_s": incl("symclass.dim_symmetry_class"),
        "symclass.gram_s": incl("symclass.gram"),
        "symclass.rank_s": incl("symclass.GramMatrix.rank"),
        "decide.trivial_stab_s": incl("decide.find_trivial_stabilizer_alpha"),
        "decide.main_theorem.self_s": name_self["decide.decide_main_theorem"],
        "decide.subgroup_criterion.self_s": name_self["decide.decide_subgroup_criterion"],
        "decide.brute_force.self_s": name_self["decide.brute_force_verify"],
    })
    for key in ("cli.report_mb", "groups.subgroups", "symclass.orbit_scan_calls",
                "symclass.indices", "symclass.orbits", "symclass.delta_bar_orbits",
                "symclass.gram_entries", "decide.coset_pairs", "decide.inconclusive"):
        m[key] = tracer.counts[key]
    wall = sum(s.end - s.start for s in spans if s.name == "bench.job")
    m["trace.spans"] = len(spans)
    m["trace.wall_s"] = wall
    m["trace.accounted_frac"] = sum(own.values()) / wall if wall else 0.0
    return m


def spans_json(tracer):
    return [[s.id, s.parent, s.name, s.start, s.end] for s in tracer.spans]


# -- counting pass ----------------------------------------------------------


class Counter:
    """Call counters on hot methods; atomic under threads because
    next() on an itertools.count is a single C call."""

    def __init__(self):
        self._counters = {key: itertools.count() for key in COUNTED}
        self._patches = _Patches()

    def install(self):
        for key, (modname, cls_name, methods) in COUNTED.items():
            cls = getattr(sys.modules[f"ostar.{modname}"], cls_name, None)
            tick = self._counters[key]
            originals = {}
            for meth in methods:
                if cls is None or not hasattr(cls, meth):
                    continue
                raw = inspect.getattr_static(cls, meth)
                w = originals.get(raw)
                if w is None:
                    w = originals[raw] = _counting(raw, tick)
                self._patches.set(cls, meth, w)

    def uninstall(self):
        self._patches.undo()

    def metrics(self):
        m = {key: next(c) for key, c in self._counters.items()}
        calls = m.pop("characters.value_calls")
        uncached = m.pop("characters.value_uncached_calls")
        m["characters.value_calls"] = calls
        m["characters.value_memo_hit_ratio"] = 1 - uncached / calls if calls else 0.0
        return m


def _counting(fn, tick):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        next(tick)
        return fn(*args, **kwargs)
    return counted
