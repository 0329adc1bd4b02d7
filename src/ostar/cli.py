"""Batch front-end: validate job configs, run the pipeline, emit reports.

Config and report are JSON; character tables and orbit reports are also
exportable as CSV.  Reports are byte-identical across repeated runs.
--threads K is accepted and ignored, because the benchmark and existing
scripts pass it; all work runs in one thread.  Exit codes: 0 ok, 2 config
invalid or output not writable, 3 budget refused, 4 internal consistency
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .characters import character_table, export_chartable_csv, element_label
from .cyclotomic import cyclo_json
from .decide import (
    INCONCLUSIVE,
    brute_force_verify,
    decide_pipeline,
)
from .errors import BudgetError, ConfigError, ConsistencyError
from .groups import (
    AbelianGroup,
    ActionHom,
    Automorphism,
    FAMILIES,
    PermRep,
    SUBGROUP_CAP,
    WreathSpec,
    build_semidirect,
    build_wreath,
    element_json,
    regular_rep,
)
from .symclass import (
    DEFAULT_INDEX_BUDGET,
    dim_symmetry_class,
    export_orbits_csv,
    orbit_scan,
)

__all__ = ["JobConfig", "parse_config", "build_job", "run_job", "main"]

REPORT_SCHEMA = "ostar-report/1"
TASKS = ("chartable", "orbits", "dims", "decide", "verify")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_CONSISTENCY = 4


@dataclass
class JobConfig:
    group_kind: str          # "explicit" | "wreath" | "family"
    group_payload: dict
    rep_spec: object         # "natural" | "regular" | {"explicit": {...}}
    n: int | None
    m: int | None
    tasks: tuple
    index_budget: int
    subgroup_bound: int
    output: dict


def _expect(cond, path, message):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _int_list(value, path):
    _expect(isinstance(value, list) and value, path, "expected a nonempty list of integers")
    for i, v in enumerate(value):
        _expect(isinstance(v, int) and not isinstance(v, bool) and v >= 1,
                f"{path}[{i}]", f"expected a positive integer, got {v!r}")
    return list(value)


def _pos_int(value, path):
    _expect(isinstance(value, int) and not isinstance(value, bool) and value >= 1,
            path, f"expected a positive integer, got {value!r}")
    return value


def _perm_1based(value, path, degree):
    _expect(isinstance(value, list), path, "expected a permutation as a list")
    for i, v in enumerate(value):
        _expect(isinstance(v, int) and not isinstance(v, bool),
                f"{path}[{i}]", f"expected an integer, got {v!r}")
    _expect(sorted(value) == list(range(1, degree + 1)), path,
            f"expected a permutation of 1..{degree}")
    return tuple(v - 1 for v in value)


def parse_config(text: str) -> JobConfig:
    """Strict parse: unknown keys rejected, every structural error reported
    with a path into the document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "$", "expected a JSON object")

    forms = [k for k in ("family", "wreath") if k in doc]
    if "A" in doc or "H" in doc or "phi" in doc:
        forms.append("explicit")
    _expect(len(forms) == 1, "$",
            "expected exactly one group form: {A,H,phi} or wreath or family")
    kind = forms[0]

    if kind == "explicit":
        allowed = {"A", "H", "phi"}
    else:
        allowed = {kind}
    allowed |= {"rep", "n", "m", "tasks", "budgets", "output"}
    for k in doc:
        _expect(k in allowed, f"$.{k}", "unknown key")

    if kind == "explicit":
        _expect("A" in doc and "H" in doc and "phi" in doc, "$",
                "explicit group spec needs all of A, H, phi")
        a_factors = _int_list(doc["A"], "$.A")
        h_factors = _int_list(doc["H"], "$.H")
        phi = doc["phi"]
        _expect(isinstance(phi, list), "$.phi", "expected a list")
        _expect(len(phi) == len(h_factors), "$.phi",
                f"expected {len(h_factors)} rows (one per generator of H), got {len(phi)}")
        for j, row in enumerate(phi):
            _expect(isinstance(row, list), f"$.phi[{j}]", "expected a list")
            _expect(len(row) == len(a_factors), f"$.phi[{j}]",
                    f"expected {len(a_factors)} generator image(s) for A, got {len(row)}")
            for i, img in enumerate(row):
                _expect(isinstance(img, list) and len(img) == len(a_factors),
                        f"$.phi[{j}][{i}]",
                        f"expected {len(a_factors)} coordinates")
                for t, x in enumerate(img):
                    _expect(isinstance(x, int) and not isinstance(x, bool),
                            f"$.phi[{j}][{i}][{t}]", "expected an integer")
        payload = {"A": a_factors, "H": h_factors, "phi": phi}
    elif kind == "wreath":
        w = doc["wreath"]
        _expect(isinstance(w, dict), "$.wreath", "expected an object")
        for k in w:
            _expect(k in {"A", "H", "omega", "action"}, f"$.wreath.{k}", "unknown key")
        _expect("A" in w and "H" in w and "omega" in w and "action" in w,
                "$.wreath", "needs A, H, omega, action")
        a_factors = _int_list(w["A"], "$.wreath.A")
        h_factors = _int_list(w["H"], "$.wreath.H")
        omega = _pos_int(w["omega"], "$.wreath.omega")
        action = w["action"]
        if action != "regular":
            _expect(isinstance(action, list), "$.wreath.action",
                    'expected "regular" or a list of permutations of 1..omega')
            _expect(len(action) == len(h_factors), "$.wreath.action",
                    f"expected {len(h_factors)} permutations (one per generator of H)")
            action = [
                list(p + 1 for p in _perm_1based(sig, f"$.wreath.action[{j}]", omega))
                for j, sig in enumerate(action)
            ]
        payload = {"A": a_factors, "H": h_factors, "omega": omega, "action": action}
    else:
        fam = doc["family"]
        _expect(isinstance(fam, dict) and len(fam) == 1, "$.family",
                f"expected exactly one of {' | '.join(FAMILIES)}")
        name = next(iter(fam))
        params = fam[name]
        _expect(isinstance(params, dict), f"$.family.{name}", "expected an object")
        _expect(name in FAMILIES, f"$.family.{name}", "unknown family")
        keys = FAMILIES[name][1]
        _expect(set(params) == set(keys), f"$.family.{name}",
                f"expected exactly the keys {sorted(keys)}")
        for k, v in params.items():
            _pos_int(v, f"$.family.{name}.{k}")
        payload = {name: dict(params)}

    rep_spec = doc.get("rep", "natural" if kind in ("wreath", "family") else "regular")
    if isinstance(rep_spec, str):
        _expect(rep_spec in ("natural", "regular"), "$.rep",
                'expected "natural", "regular" or {"explicit": ...}')
    else:
        _expect(isinstance(rep_spec, dict) and set(rep_spec) == {"explicit"},
                "$.rep", 'expected "natural", "regular" or {"explicit": ...}')
        ex = rep_spec["explicit"]
        _expect(isinstance(ex, dict) and set(ex) == {"degree", "A", "H"},
                "$.rep.explicit", "expected the keys degree, A, H")
        _pos_int(ex["degree"], "$.rep.explicit.degree")
        for k in ("A", "H"):
            _expect(isinstance(ex[k], list), f"$.rep.explicit.{k}",
                    "expected a list of permutations")

    n = doc.get("n")
    if n is not None:
        n = _pos_int(n, "$.n")
    m = doc.get("m")
    if m is not None:
        m = _pos_int(m, "$.m")

    tasks = doc.get("tasks", [])
    _expect(isinstance(tasks, list), "$.tasks", "expected a list")
    for i, t in enumerate(tasks):
        _expect(t in TASKS, f"$.tasks[{i}]",
                f"unknown task {t!r}; expected one of {list(TASKS)}")
    tasks = tuple(t for t in TASKS if t in tasks)

    budgets = doc.get("budgets", {})
    _expect(isinstance(budgets, dict), "$.budgets", "expected an object")
    for k in budgets:
        _expect(k in {"index_budget", "subgroup_bound"}, f"$.budgets.{k}", "unknown key")
    index_budget = budgets.get("index_budget", DEFAULT_INDEX_BUDGET)
    subgroup_bound = budgets.get("subgroup_bound", SUBGROUP_CAP)
    _pos_int(index_budget, "$.budgets.index_budget")
    _pos_int(subgroup_bound, "$.budgets.subgroup_bound")

    output = doc.get("output", {})
    _expect(isinstance(output, dict), "$.output", "expected an object")
    for k in output:
        _expect(k in {"path", "format"}, f"$.output.{k}", "unknown key")
    if "path" in output:
        _expect(isinstance(output["path"], str), "$.output.path", "expected a string")
    if "format" in output:
        _expect(output["format"] in ("json", "csv"), "$.output.format",
                'expected "json" or "csv"')

    return JobConfig(kind, payload, rep_spec, n, m, tasks,
                     index_budget, subgroup_bound, dict(output))


def build_job(cfg: JobConfig):
    """Construct the group and its representation; semantic failures (bad
    automorphisms, wrong congruences) surface as config errors."""
    try:
        if cfg.group_kind == "explicit":
            A = AbelianGroup(cfg.group_payload["A"])
            H = AbelianGroup(cfg.group_payload["H"])
            images = tuple(
                Automorphism(A, tuple(tuple(img) for img in row))
                for row in cfg.group_payload["phi"]
            )
            phi = ActionHom(H, A, images)
            G = build_semidirect(A, H, phi)
        elif cfg.group_kind == "wreath":
            A = AbelianGroup(cfg.group_payload["A"])
            H = AbelianGroup(cfg.group_payload["H"])
            if cfg.group_payload["action"] == "regular":
                if cfg.group_payload["omega"] != H.order:
                    raise ConfigError(
                        "$.wreath.omega: the regular action needs omega = |H| "
                        f"= {H.order}, got {cfg.group_payload['omega']}"
                    )
                spec = WreathSpec.regular(A, H)
            else:
                spec = WreathSpec(
                    A, H, cfg.group_payload["omega"],
                    tuple(tuple(x - 1 for x in sig)
                          for sig in cfg.group_payload["action"]),
                )
            G = build_wreath(spec)
        else:
            (name, params), = cfg.group_payload.items()
            ctor, keys = FAMILIES[name]
            G = ctor(*(params[k] for k in keys))

        if cfg.rep_spec == "natural":
            if G.natural_rep is None:
                raise ConfigError(
                    '$.rep: this group has no bundled natural representation; '
                    'use "regular" or an explicit one'
                )
            rep = G.natural_rep
        elif cfg.rep_spec == "regular":
            rep = regular_rep(G)
        else:
            ex = cfg.rep_spec["explicit"]
            degree = ex["degree"]
            a_images = [
                _perm_1based(p, f"$.rep.explicit.A[{i}]", degree)
                for i, p in enumerate(ex["A"])
            ]
            h_images = [
                _perm_1based(p, f"$.rep.explicit.H[{i}]", degree)
                for i, p in enumerate(ex["H"])
            ]
            rep = PermRep(G, a_images, h_images, kind="explicit")
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.m is not None and cfg.m < rep.degree:
        raise ConfigError(
            f"$.m: m = {cfg.m} is below the representation degree {rep.degree}"
        )
    return G, rep


def _verdict_agreement(decided, verified):
    if decided is None:
        return None
    if INCONCLUSIVE in (decided.status, verified.status):
        return None
    return decided.status == verified.status


def run_job(cfg: JobConfig) -> dict:
    """Execute the requested tasks in dependency order and return the
    report, deterministic for identical configs."""
    G, rep = build_job(cfg)
    return _run_tasks(cfg, G, rep)[0]


def _run_tasks(cfg, G, rep):
    """The report and the orbit records per character (None without the
    orbits and dims tasks), which those tasks and the CSV export share."""
    report = {
        "schema": REPORT_SCHEMA,
        "config": {
            "group": (cfg.group_payload if cfg.group_kind == "explicit"
                      else {cfg.group_kind: cfg.group_payload}),
            "rep": cfg.rep_spec,
            "n": cfg.n,
            "m": cfg.m,
            "tasks": list(cfg.tasks),
            "budgets": {"index_budget": cfg.index_budget,
                        "subgroup_bound": cfg.subgroup_bound},
        },
        "group": {
            "order": G.order,
            "A_factors": list(G.A.factors),
            "H_factors": list(G.H.factors),
            "origin": G.origin,
            "abelian": G.is_abelian(),
        },
        "rep": {
            "kind": rep.kind,
            "degree": rep.degree,
            "faithful": rep.is_faithful(),
        },
        "tasks": {},
    }
    if not cfg.tasks:
        return report, None

    table = character_table(G)
    if not table.report.ok:
        raise ConsistencyError(
            "character table failed validation: "
            + "; ".join(table.report.failures)
        )
    report["table_validation"] = dict(table.report.checks)
    report["characters"] = [
        {
            "index": i,
            "degree": chi.degree,
            "orbit_rep_exponents": list(chi.orbit.rep.exponents),
            "u_exponents": list(chi.u.exponents),
            "linear": chi.is_linear(),
        }
        for i, chi in enumerate(table.chars)
    ]

    needs_n = [t for t in cfg.tasks if t != "chartable"]
    if needs_n and cfg.n is None:
        raise ConfigError(f"$.n: required by tasks {needs_n}")
    m_eff = cfg.m if cfg.m is not None else rep.degree
    rep_eff = rep.extended(m_eff) if needs_n else rep
    n = cfg.n
    scans = None
    if "orbits" in cfg.tasks or "dims" in cfg.tasks:
        scans = [
            orbit_scan(G, rep_eff, chi, m_eff, n, index_budget=cfg.index_budget)
            for chi in table.chars
        ]

    decisions = {}

    for task in cfg.tasks:
        if task == "chartable":
            classes = G.conjugacy_classes()
            report["tasks"]["chartable"] = {
                "classes": [
                    {
                        "rep": element_json(cls[0]),
                        "label": element_label(cls[0]),
                        "size": len(cls),
                    }
                    for cls in classes
                ],
                "values": [
                    [cyclo_json(v) for v in chi.values] for chi in table.chars
                ],
            }
        elif task == "orbits":
            per_char = []
            for i, records in enumerate(scans):
                per_char.append({
                    "char_index": i,
                    "records": [
                        {
                            "rep": list(r.rep),
                            "orbit_size": r.orbit_size,
                            "stabilizer_order": len(r.stabilizer),
                            "s_alpha": r.s_alpha,
                            "in_delta_bar": r.in_delta_bar,
                        }
                        for r in records
                    ],
                })
            report["tasks"]["orbits"] = {"per_character": per_char}
        elif task == "dims":
            per_char = []
            for i, (chi, records) in enumerate(zip(table.chars, scans)):
                d = dim_symmetry_class(G, rep_eff, chi, n)
                total = sum(r.s_alpha for r in records if r.in_delta_bar)
                if total != d:
                    raise ConsistencyError(
                        f"dimension {d} of character {i} disagrees with the "
                        f"orbital sum {total}"
                    )
                per_char.append({"char_index": i, "dim": d,
                                 "sum_s_alpha": total, "consistent": True})
            report["tasks"]["dims"] = {"per_character": per_char}
        elif task == "decide":
            per_char = []
            for i, chi in enumerate(table.chars):
                v = decide_pipeline(G, rep_eff, chi, n,
                                    index_budget=cfg.index_budget,
                                    subgroup_bound=cfg.subgroup_bound)
                decisions[i] = v
                per_char.append({"char_index": i, "verdict": v.to_json()})
            report["tasks"]["decide"] = {"per_character": per_char}
        elif task == "verify":
            per_char = []
            for i, chi in enumerate(table.chars):
                v = brute_force_verify(G, rep_eff, chi, n,
                                       index_budget=cfg.index_budget)
                agrees = _verdict_agreement(decisions.get(i), v)
                if agrees is False:
                    raise ConsistencyError(
                        f"brute-force verdict {v.status} for character {i} "
                        f"contradicts the decided {decisions[i].status}"
                    )
                per_char.append({
                    "char_index": i,
                    "verdict": v.to_json(),
                    "agrees_with_decide": agrees,
                })
            report["tasks"]["verify"] = {"per_character": per_char}
    return report, scans


def report_bytes(report: dict) -> bytes:
    """The report as json.dumps(report, sort_keys=True, indent=2) plus a
    newline, ASCII-encoded, byte for byte.  With indent set, json.dumps
    runs CPython's pure-Python encoder, which is several times slower than
    writing the same text directly."""
    return (_json_text(report, "\n") + "\n").encode()


_encode_str = json.encoder.encode_basestring_ascii
_int_text = int.__repr__


def _json_text(o, ind):
    """o as json.dumps(o, sort_keys=True, indent=2) writes it when its line
    starts with ind, a newline plus the current indentation.  Every
    container is built with one "".join over its pieces.  Reports hold only
    strings, integers, booleans, None, lists, tuples and dicts with string
    keys; anything else raises TypeError naming its type."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return _int_text(o)
    inner = ind + "  "
    sep = "," + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if all(type(v) is int for v in o):
            return "".join(("[", inner, sep.join(map(_int_text, o)), ind, "]"))
        parts = [sep] * (2 * len(o) + 1)
        parts[0] = "[" + inner
        parts[1::2] = [_json_text(v, inner) for v in o]
        parts[-1] = ind + "]"
        return "".join(parts)
    if isinstance(o, dict):
        if not o:
            return "{}"
        parts = []
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {k.__class__.__name__}")
            parts += (sep, _encode_str(k), ": ", _json_text(v, inner))
        parts[0] = "{" + inner
        parts.append(ind + "}")
        return "".join(parts)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _write_csv_outputs(cfg, G, scans, out_path: Path) -> list:
    """Derive CSV table files next to the JSON report."""
    table = character_table(G)
    written = []
    base = out_path.with_suffix("") if out_path.suffix == ".json" else out_path
    if "chartable" in cfg.tasks:
        p = base.with_name(base.name + ".chartable.csv")
        with open(p, "w", newline="") as fh:
            export_chartable_csv(G, table.chars, fh)
        written.append(p)
    if "orbits" in cfg.tasks:
        for i, records in enumerate(scans):
            p = base.with_name(base.name + f".orbits.chi{i}.csv")
            with open(p, "w", newline="") as fh:
                export_orbits_csv(records, fh)
            written.append(p)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ostar",
        description="Exact o*-basis decisions for symmetry classes of tensors "
                    "over semidirect and wreath products of finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, about in (
        ("validate", "parse and validate a config (no computation)"),
        ("run", "run the tasks requested in the config"),
        ("chartable", "compute and validate the character table"),
        ("decide", "run the o*-basis deciders for every character"),
    ):
        sp = sub.add_parser(name, help=about)
        sp.add_argument("config", help="path to a JSON job config")
        if name != "validate":
            sp.add_argument("--out", help="report path (stdout when omitted)")
            sp.add_argument("--format", choices=("json", "csv"),
                            help="report format; csv adds table files next to "
                                 "the JSON report")
            sp.add_argument("--budget", type=int,
                            help="override the index budget")
            sp.add_argument("--threads", type=int, default=1,
                            help="accepted and ignored; kept because the "
                                 "benchmark and scripts pass it")
            sp.add_argument("--verify", action="store_true",
                            help="append an independent brute-force pass")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_text())
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "validate":
            build_job(cfg)
            print("ok")
            return EXIT_OK

        if args.command == "chartable":
            cfg.tasks = ("chartable",)
        elif args.command == "decide":
            cfg.tasks = ("decide",)
        if getattr(args, "verify", False) and "verify" not in cfg.tasks:
            cfg.tasks = tuple(cfg.tasks) + ("verify",)
        if args.budget is not None:
            cfg.index_budget = _pos_int(args.budget, "--budget")

        out = args.out or cfg.output.get("path")
        fmt = args.format or cfg.output.get("format", "json")
        if fmt == "csv" and not out:
            raise ConfigError("csv output requires --out (or output.path)")

        G, rep = build_job(cfg)
        report, scans = _run_tasks(cfg, G, rep)
        payload = report_bytes(report)
        if not out:
            sys.stdout.write(payload.decode())
            return EXIT_OK
        try:
            Path(out).write_bytes(payload)
            written = []
            if fmt == "csv":
                written = _write_csv_outputs(cfg, G, scans, Path(out))
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
        for p in written:
            print(f"wrote {p}", file=sys.stderr)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY


if __name__ == "__main__":
    sys.exit(main())
