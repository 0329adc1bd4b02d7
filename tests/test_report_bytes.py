"""report_bytes against json.dumps: on strings, integers, booleans, None,
lists, tuples and dicts with string keys, the report writer must produce
exactly json.dumps(report, sort_keys=True, indent=2) plus a newline,
ASCII-encoded.  Reports hold nothing else; floats and non-string keys raise
TypeError naming their type, and other types raise json.dumps' TypeError."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostar.cli import TASKS, parse_config, report_bytes, run_job
from ostar.errors import BudgetError

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
