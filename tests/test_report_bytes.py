"""report_bytes against json.dumps: on strings, integers, booleans, None,
lists, tuples and dicts with string keys, the report writer must produce
exactly json.dumps(report, sort_keys=True, indent=2) plus a newline,
ASCII-encoded.  Reports hold nothing else; floats and non-string keys raise
TypeError naming their type, and other types raise json.dumps' TypeError."""

import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostar import cli
from ostar.cli import TASKS, build_job, main, parse_config, report_bytes, run_job
from ostar.characters import character_table
from ostar.cyclotomic import CycloNum, cyclo_json, root_of_unity
from ostar.errors import BudgetError
from ostar.symclass import orbit_scan

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def reference(value) -> bytes:
    return (json.dumps(value, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("all_tasks", [False, True])
@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_config_reports_match_json_dumps(path, all_tasks):
    doc = json.loads(path.read_text())
    if all_tasks:
        doc["tasks"] = list(TASKS)
    cfg = parse_config(json.dumps(doc))
    if all_tasks and path.stem == "explicit_semidirect":
        # the regular representation of degree 20 with n = 3 is past the
        # index budget, so this job has no report
        with pytest.raises(BudgetError):
            run_job(cfg)
        return
    report = run_job(cfg)
    assert report_bytes(report) == reference(report)


def test_configs_present():
    assert len(CONFIGS) >= 4


TEXT = st.text(alphabet=st.characters(blacklist_categories=()))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    TEXT,
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é \U0001f600", "\ud800"]),
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
        st.dictionaries(TEXT, children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_report_bytes_matches_json_dumps(value):
    assert report_bytes(value) == reference(value)


def test_report_bytes_edge_values():
    for value in ([], {}, [[]], {"a": {}}, [[], [{}]], (), ((1, 2), [True, 3]),
                  {"b": 1, "a": [2, {}]},
                  {"s": "quote \" slash \\ tab \t nul \x00 é \U0001f600"},
                  [10**200, -(10**200)], [1, True, 2], None, "x", 7):
        assert report_bytes(value) == reference(value), value


@pytest.mark.parametrize("value", [
    {1, 2},
    b"bytes",
    object(),
    [1, {2}],
    {"a": [b"x"]},
], ids=["set", "bytes", "object", "nested-set", "nested-bytes"])
def test_report_bytes_rejects_non_json_types(value):
    with pytest.raises(TypeError) as want:
        reference(value)
    with pytest.raises(TypeError) as got:
        report_bytes(value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value, type_name", [
    (1.5, "float"),
    ([1, 0.0], "float"),
    ({"a": [float("nan")]}, "float"),
    ({1: "a"}, "int"),
    ({False: []}, "bool"),
    ({None: 0}, "NoneType"),
    ({2.5: None}, "float"),
    ({(1, 2): "tuple key"}, "tuple"),
], ids=["float", "float-in-list", "nested-nan", "int-key", "bool-key",
        "none-key", "float-key", "tuple-key"])
def test_report_bytes_rejects_floats_and_non_string_keys(value, type_name):
    with pytest.raises(TypeError, match=rf"\b{type_name}\b"):
        report_bytes(value)


# -- orbit rows spliced from text rendered once per orbit -------------------

# orbits,dims jobs with several characters: the bench's three orbit inputs
ORBIT_JOBS = {
    "d14-n4": {"family": {"dihedral": {"s": 7}}, "rep": "natural", "n": 4},
    "f21-m9-n3": {"family": {"pq": {"p": 3, "q": 7, "r": 2}}, "rep": "natural",
                  "n": 3, "m": 9},
    "d12on3-m6-n4": {"A": [6], "H": [2], "phi": [[[5]]],
                     "rep": {"explicit": {"degree": 3, "A": [[2, 3, 1]],
                                          "H": [[1, 3, 2]]}},
                     "n": 4, "m": 6},
}

# sha256 over each job's --format csv orbit files in character order, as
# the writer before the spliced rows produced them
ORBIT_CSV_SHA256 = {
    "d14-n4": "db4deaf3bb19f670407e248f02cc591f36a8b9312a86fdbd4124fe505f172cdc",
    "f21-m9-n3": "7ab5f25fbfdacd62ce54c3484955dbb2dd86d57baead3644b1107e0fd0417436",
    "d12on3-m6-n4": "addc43711469f52d7d5e5ba09aab435a02acc16bc73baecf778d6b313be15ebe",
}


def orbit_job(name, **extra):
    return parse_config(json.dumps(dict(ORBIT_JOBS[name], tasks=["orbits", "dims"],
                                        **extra)))


def orbit_report(name):
    report = run_job(orbit_job(name))
    per_char = report["tasks"]["orbits"]["per_character"]
    assert len(per_char) > 1
    return report, per_char


@pytest.mark.parametrize("name", ORBIT_JOBS)
def test_orbit_reports_match_json_dumps(name):
    report, _ = orbit_report(name)
    assert report_bytes(report) == reference(report)


@pytest.mark.parametrize("name", ORBIT_JOBS)
def test_orbit_rows_match_json_dumps_at_any_depth(name):
    _, per_char = orbit_report(name)
    rows = [entry["records"] for entry in per_char]
    for value in (rows[0], rows[-1], rows, {"a": rows[1]},
                  {"b": [{"c": rows[0]}, rows[1]], "a": [[rows[-1]]]}):
        assert report_bytes(value) == reference(value)


@pytest.mark.parametrize("name", ORBIT_JOBS)
def test_edited_orbit_report_matches_json_dumps(name):
    report, per_char = orbit_report(name)
    rows = per_char[0]["records"]
    rows[0]["s_alpha"] += 5
    rows.append(dict(rows[-1], rep=[9] * len(rows[-1]["rep"])))
    assert report_bytes(report) == reference(report)


# -- chartable values spliced from text rendered once per distinct value ----

# the bench's four chartable groups, whose tables repeat few values
TABLE_JOBS = {
    "d90": {"A": [45], "H": [2], "phi": [[[44]]], "rep": "regular"},
    "pq111": {"family": {"pq": {"p": 3, "q": 37, "r": 26}}, "rep": "natural"},
    "z110": {"family": {"z_group": {"s": 11, "t": 10, "r": 2}}, "rep": "natural"},
    "c3wrc3": {"wreath": {"A": [3], "H": [3], "omega": 3, "action": "regular"},
               "rep": "natural"},
}

# sha256 of each group's --format csv chartable file, as the writer before
# the rendered-once values produced it
CHARTABLE_CSV_SHA256 = {
    "d90": "426348253beb51bd4f6aed67b4656797d1c8f2ae7f2893f2c8090b98bf2bb5cf",
    "pq111": "4a0ce38c1197aa86519699242acce669a14950cef68060c610f7ca1278ddda58",
    "z110": "fceb93ebc18f3551a44d780c56e2fba2c593a37ebe62e86dae87499dae930176",
    "c3wrc3": "879e6b8bedcedb149738262a1d288ee5fec0c9e0415e2b0aff89a7a094559544",
    "dihedral3": "838cda3063dab9a70a1ee95a8e901f740a0de367bc0d380010f593a0f31c34da",
    "order21": "92ca0b49caf4623620270195123401da08261c32b17874b793a06543d2552a8c",
}


@pytest.mark.parametrize("name", TABLE_JOBS)
def test_value_rows_match_json_dumps_at_any_depth(name):
    G, _ = build_job(parse_config(json.dumps(TABLE_JOBS[name])))
    values = cli._ValueRows([chi.values for chi in character_table(G).chars])
    want = [[cyclo_json(v) for v in row] for row in values.rows]
    for value, plain in ((values, want), ([values], [want]), ({"a": values}, {"a": want}),
                         ({"b": [{"c": values}], "a": [[values]]},
                          {"b": [{"c": want}], "a": [[want]]})):
        assert report_bytes(value) == reference(plain)
    # the same _ValueRows at two depths in one report
    assert report_bytes([values, {"a": [values]}]) == reference([want, {"a": [want]}])
    assert report_bytes(cli._ValueRows([])) == reference([])


def test_value_rows_memo_tells_values_apart():
    # values that share two of (conductor, coeffs, den) get their own text
    z3 = root_of_unity(3, 1)
    rows = [(CycloNum.from_rational(1), CycloNum.from_rational(Fraction(1, 2)), z3),
            (z3 / 2, CycloNum.from_rational(1), root_of_unity(6, 1)), ()]
    values = cli._ValueRows(rows)
    assert report_bytes({"v": values}) == reference(
        {"v": [[cyclo_json(v) for v in row] for row in rows]})


@pytest.mark.parametrize("name", TABLE_JOBS)
def test_edited_chartable_report_matches_json_dumps(name):
    report = run_job(parse_config(json.dumps(dict(TABLE_JOBS[name],
                                                  tasks=["chartable"]))))
    values = report["tasks"]["chartable"]["values"]
    assert all(type(cell) is dict for row in values for cell in row)
    values[0][0]["approx"] = "edited"
    values[-1].append(dict(values[-1][-1], coeffs=[[7, 3]]))
    values.append([])
    assert report_bytes(report) == reference(report)


def test_cli_chartable_renders_each_distinct_value_once(tmp_path, monkeypatch):
    G, _ = build_job(parse_config(json.dumps(TABLE_JOBS["d90"])))
    chars = character_table(G).chars
    keys = {(v.conductor, v.coeffs, v.den) for chi in chars for v in chi.values}
    assert (len(keys), sum(len(chi.values) for chi in chars)) == (26, 576)
    calls = []

    def counting(v):
        calls.append((v.conductor, v.coeffs, v.den))
        return cyclo_json(v)

    monkeypatch.setattr(cli, "cyclo_json", counting)
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(TABLE_JOBS["d90"]))
    out = tmp_path / "report.json"
    assert main(["chartable", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(calls) == sorted(keys)
    monkeypatch.undo()
    assert out.read_bytes() == reference(
        run_job(parse_config(json.dumps(dict(TABLE_JOBS["d90"], tasks=["chartable"])))))


@pytest.mark.parametrize("name", CHARTABLE_CSV_SHA256)
def test_chartable_csv_files_unchanged(name, tmp_path):
    doc = TABLE_JOBS.get(name) or json.loads(
        next(p for p in CONFIGS if p.stem == name).read_text())
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["chartable", str(cfg_path), "--out", str(out), "--format", "csv"]) == 0
    chartable = json.loads(out.read_text())["tasks"]["chartable"]
    data = (tmp_path / "report.chartable.csv").read_bytes()
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    assert rows[0][:2] == ["character", "degree"]
    assert rows[0][2::2] == [f"({c['label']})" for c in chartable["classes"]]
    assert [row[2:] for row in rows[1:]] == [
        [text for cell in row
         for text in (f"{cell['conductor']}:" + ";".join(
             str(Fraction(*c)) for c in cell["coeffs"]), cell["approx"])]
        for row in chartable["values"]
    ]
    assert hashlib.sha256(data).hexdigest() == CHARTABLE_CSV_SHA256[name]


# every orbit job, every chartable group, and every config with all tasks
CLI_JOBS = {
    **{name: dict(doc, tasks=["orbits", "dims"]) for name, doc in ORBIT_JOBS.items()},
    **{name: dict(doc, tasks=["chartable"]) for name, doc in TABLE_JOBS.items()},
    **{path.stem: dict(json.loads(path.read_text()), tasks=list(TASKS))
       for path in CONFIGS},
}


def same_json(a, b):
    """a == b, with the same type at every node: dict, list, int, bool,
    str or None (so True never stands for 1, nor a tuple for a list)."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(same_json(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(same_json, a, b))
    assert type(a) in (int, bool, str, type(None)), type(a)
    return a == b


def test_same_json_tells_types_apart():
    assert same_json({"a": [1, True, None, "x"]}, {"a": [1, True, None, "x"]})
    assert not same_json([1], [True])
    assert not same_json({"a": [1]}, {"a": [1.0]})
    assert not same_json([[1]], [(1,)])
    assert not same_json({"a": 1}, {"a": 1, "b": 2})


@pytest.mark.parametrize("name", CLI_JOBS)
def test_cli_reports_match_json_dumps_of_run_job(name, tmp_path):
    # run_job returns the bytes that ostar run writes, parsed; they must be
    # its json.dumps text, and equal it type for type
    doc = CLI_JOBS[name]
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["run", str(cfg_path), "--out", str(out)])
    if name == "explicit_semidirect":
        # the regular representation of degree 20 with n = 3 is past the
        # index budget, so this job has no report
        assert code == 3 and not out.exists()
        with pytest.raises(BudgetError):
            run_job(parse_config(json.dumps(doc)))
        return
    assert code == 0
    report = run_job(parse_config(json.dumps(doc)))
    assert out.read_bytes() == reference(report)
    assert same_json(report, json.loads(out.read_bytes()))


@pytest.mark.parametrize("name", TABLE_JOBS)
def test_run_job_chartable_values_are_cyclo_json_of_the_table(name):
    cfg = parse_config(json.dumps(dict(TABLE_JOBS[name], tasks=["chartable"])))
    G, _ = build_job(cfg)
    want = [[cyclo_json(v) for v in chi.values] for chi in character_table(G).chars]
    assert same_json(run_job(cfg)["tasks"]["chartable"]["values"], want)


@pytest.mark.parametrize("name", ORBIT_JOBS)
def test_orbit_rows_read_as_plain_dicts(name):
    report, per_char = orbit_report(name)
    G, rep = build_job(orbit_job(name))
    cfg = ORBIT_JOBS[name]
    m = cfg.get("m", rep.degree)
    for i, chi in enumerate(character_table(G).chars):
        records = per_char[i]["records"]
        assert isinstance(records, list)
        want = [
            {"rep": list(r.rep), "orbit_size": r.orbit_size,
             "stabilizer_order": len(r.stabilizer), "s_alpha": r.s_alpha,
             "in_delta_bar": r.in_delta_bar}
            for r in orbit_scan(G, rep.extended(m), chi, m, cfg["n"])
        ]
        assert list(records) == want
        assert all(type(row) is dict and type(row["rep"]) is list for row in records)
    assert json.loads(json.dumps(report)) == report


@pytest.mark.parametrize("name", ORBIT_JOBS)
def test_orbit_csv_files_unchanged(name, tmp_path):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(dict(ORBIT_JOBS[name], tasks=["orbits", "dims"])))
    out = tmp_path / "report.json"
    assert main(["run", str(cfg_path), "--out", str(out), "--format", "csv"]) == 0
    per_char = json.loads(out.read_text())["tasks"]["orbits"]["per_character"]
    digest = hashlib.sha256()
    for entry in per_char:
        data = (tmp_path / f"report.orbits.chi{entry['char_index']}.csv").read_bytes()
        digest.update(data)
        rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
        assert rows[0] == ["rep", "orbit_size", "stabilizer_order", "s_alpha",
                           "in_delta_bar"]
        assert rows[1:] == [
            [",".join(map(str, r["rep"])), str(r["orbit_size"]),
             str(r["stabilizer_order"]), str(r["s_alpha"]), str(int(r["in_delta_bar"]))]
            for r in entry["records"]
        ]
    assert digest.hexdigest() == ORBIT_CSV_SHA256[name]


# sha256 of the stdout of run, decide --verify and chartable on each
# configs/*.json, as the writer before the one-pass orbit walk produced it
CONFIG_STDOUT_SHA256 = {
    "dihedral3": (
        "c1faa20d98da4163f6251fee1f58d7cd3c99a5e8dec2e02756bba4b919977864",
        "dd7a776554aa95baac8860173a8a85c0b0241e92caa4b0d85e69d81795a321f5",
        "4aa7c7ba04720d407607a9523d63895f6b225011987087ce30ba5dc73c5697b1",
    ),
    "explicit_semidirect": (
        "c9601467a9aec759b1ca978f1333d1622fc4c0e736e0529a88c2ebdf51e27608",
        "a4bc26ff5c8967bb0c92d8f8cf246fe70ec92041c23499ca2284fd75cc11cc58",
        "a2847276ed3e379b3ea9c272f673b4d5f2b44f87f59b00621a0e1ae8487f7f7e",
    ),
    "order21": (
        "a489ee5f25e1812bb3a74f1cb83d765aacc6e5f2d518a3c000ecbd1385766503",
        "a7e10ee1f37c32df4fa527314070a3c7f1219bcc2f50e353e2e09918af6706b9",
        "d8d023bf2145db860e2ce7a60f64bc779548e4ed1ccf7df8f7510cb5ea005711",
    ),
    "wreath_c2_c2": (
        "bf7ec2f95539bb637eb0b947e2772f3fe3f50da4b15eab084125e0f2c1db72b1",
        "bee43fe28326a89555fd6dabde3c6d400d96ebf39edd1a430b5b88086ac2467e",
        "dcc148728daccf3a13b5cbe015b1ac569bddacf03ecda77f4db851272020475b",
    ),
}


def test_config_stdout_reports_unchanged(capsys):
    assert sorted(CONFIG_STDOUT_SHA256) == [p.stem for p in CONFIGS]
    for path in CONFIGS:
        for command, want in zip((["run"], ["decide", "--verify"], ["chartable"]),
                                 CONFIG_STDOUT_SHA256[path.stem]):
            assert main([command[0], str(path), *command[1:]]) == 0
            out = capsys.readouterr().out.encode()
            assert hashlib.sha256(out).hexdigest() == want, (path.stem, command)


# -- orbit rows by class profile against the per-orbit records ----------------


def orbit_cases(n):
    from test_symclass import partition_cases

    return [(label, G, rep) for label, G, rep in partition_cases()
            if n**rep.degree <= 20000]


def record_rows(records):
    """The row dicts of the records of one orbit_scan, as the writer before
    the rows by class profile built them."""
    return [{"rep": list(r.rep), "orbit_size": r.orbit_size,
             "stabilizer_order": len(r.stabilizer), "s_alpha": r.s_alpha,
             "in_delta_bar": r.in_delta_bar} for r in records]


@pytest.mark.parametrize("n", [2, 3])
def test_orbit_rows_by_profile_match_orbit_scan_records(n, tmp_path):
    from test_symclass import fresh_copy

    from ostar.characters import validated_table
    from ostar.groups import SUBGROUP_CAP
    from ostar.symclass import DEFAULT_INDEX_BUDGET, export_orbits_csv

    cases = orbit_cases(n)
    assert len(cases) >= 40
    for label, G, rep in cases:
        cfg = cli.JobConfig("explicit", {}, "natural", n, None, ("orbits", "dims"),
                            DEFAULT_INDEX_BUDGET, SUBGROUP_CAP, {})
        report = cli._run_tasks(cfg, G, rep)
        got = report_bytes(report)
        out = tmp_path / f"{label}.json"
        written = cli._write_csv_outputs(cfg, G, report, out)
        # the reference scans a fresh copy of rep, so walks on its own
        chars = validated_table(G).chars
        ref_rep = fresh_copy(rep)
        scans = [orbit_scan(G, ref_rep, chi, rep.degree, n) for chi in chars]
        assert len(written) == len(chars)
        for path, records in zip(written, scans):
            want = io.StringIO(newline="")
            export_orbits_csv(records, want)
            assert path.read_bytes() == want.getvalue().encode(), (label, n, path.name)
        for entry, records in zip(report["tasks"]["orbits"]["per_character"], scans):
            entry["records"] = record_rows(records)
        assert got == reference(report), (label, n)
