"""report_bytes against json.dumps: on strings, integers, booleans, None,
lists, tuples and dicts with string keys, the report writer must produce
exactly json.dumps(report, sort_keys=True, indent=2) plus a newline,
ASCII-encoded.  Reports hold nothing else; floats and non-string keys raise
TypeError naming their type, and other types raise json.dumps' TypeError."""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostar.cli import TASKS, build_job, main, parse_config, report_bytes, run_job
from ostar.characters import character_table
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


# every orbit job, and every config with all tasks
CLI_JOBS = {
    **{name: dict(doc, tasks=["orbits", "dims"]) for name, doc in ORBIT_JOBS.items()},
    **{path.stem: dict(json.loads(path.read_text()), tasks=list(TASKS))
       for path in CONFIGS},
}


@pytest.mark.parametrize("name", CLI_JOBS)
def test_cli_reports_match_json_dumps_of_run_job(name, tmp_path):
    # the CLI writes orbit rows from their OrbitRecords (_orbit_rows_text),
    # run_job returns them as dicts: both must give the json.dumps text
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
    assert out.read_bytes() == reference(run_job(parse_config(json.dumps(doc))))


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
