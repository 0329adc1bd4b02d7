"""Config parsing, job execution, report determinism, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ostar.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
    build_job,
    main,
    parse_config,
    run_job,
)
from ostar.errors import BudgetError, ConfigError
from ostar.groups import PermRep


def write_cfg(tmp_path, doc, name="job.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


# -- parsing -------------------------------------------------------------------


def test_parse_family_config():
    cfg = parse_config(
        '{"family":{"dihedral":{"s":3}},"rep":"natural","n":3,"tasks":["decide"]}'
    )
    assert cfg.group_kind == "family"
    assert cfg.tasks == ("decide",)
    assert cfg.n == 3


def test_parse_wreath_config():
    cfg = parse_config('{"wreath":{"A":[2],"H":[2],"omega":2,"action":"regular"}}')
    G, rep = build_job(cfg)
    assert G.order == 8
    assert rep.kind == "natural"
    assert cfg.tasks == ()


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match=r"\$\.frobnicate"):
        parse_config('{"family":{"dihedral":{"s":3}},"frobnicate":1}')


def test_parse_rejects_unknown_task():
    with pytest.raises(ConfigError, match=r"\$\.tasks\[0\]"):
        parse_config('{"family":{"dihedral":{"s":3}},"tasks":["plot"]}')


def test_parse_phi_arity_error_names_the_path():
    doc = {"A": [3], "H": [2], "phi": [[[2], [2]]]}
    with pytest.raises(ConfigError, match=r"\$\.phi\[0\]"):
        parse_config(json.dumps(doc))
    doc = {"A": [3], "H": [2], "phi": []}
    with pytest.raises(ConfigError, match=r"\$\.phi"):
        parse_config(json.dumps(doc))


def test_parse_explicit_group():
    doc = {"A": [3], "H": [2], "phi": [[[2]]], "n": 2, "tasks": ["dims"]}
    cfg = parse_config(json.dumps(doc))
    G, rep = build_job(cfg)
    assert G.order == 6 and not G.is_abelian()
    assert rep.kind == "regular"  # explicit groups default to the regular rep


def test_parse_rejects_bad_json():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")


def test_build_rejects_semantically_bad_group():
    cfg = parse_config('{"family":{"pq":{"p":3,"q":7,"r":3}}}')
    with pytest.raises(ConfigError, match="order"):
        build_job(cfg)


def test_build_rejects_natural_rep_without_one():
    doc = {"A": [3], "H": [2], "phi": [[[2]]], "rep": "natural"}
    with pytest.raises(ConfigError, match="natural"):
        build_job(parse_config(json.dumps(doc)))


def test_build_rejects_m_below_degree():
    cfg = parse_config('{"family":{"dihedral":{"s":5}},"m":3,"n":2}')
    with pytest.raises(ConfigError, match=r"\$\.m"):
        build_job(cfg)


def test_explicit_rep_config():
    doc = {
        "A": [3],
        "H": [2],
        "phi": [[[2]]],
        "rep": {"explicit": {"degree": 3, "A": [[2, 3, 1]], "H": [[1, 3, 2]]}},
        "n": 3,
        "tasks": ["decide"],
    }
    cfg = parse_config(json.dumps(doc))
    G, rep = build_job(cfg)
    assert rep.degree == 3 and rep.is_faithful()
    report = run_job(cfg)
    statuses = [
        row["verdict"]["status"]
        for row in report["tasks"]["decide"]["per_character"]
    ]
    assert statuses.count("NotAdmits") == 1


# -- running -------------------------------------------------------------------


def test_run_decide_d6():
    cfg = parse_config(
        '{"family":{"dihedral":{"s":3}},"rep":"natural","n":3,"tasks":["decide"]}'
    )
    report = run_job(cfg)
    rows = report["tasks"]["decide"]["per_character"]
    got = [(r["verdict"]["status"], r["verdict"]["justification"]) for r in rows]
    assert got.count(("Admits", "LinearCharacter")) == 2
    assert got.count(("NotAdmits", "MainTheorem")) == 1
    assert report["table_validation"] == {
        "degree_sum": True,
        "orthogonality": True,
        "conjugate_symmetry": True,
    }


def test_run_dims_order_21():
    cfg = parse_config(
        '{"family":{"pq":{"p":3,"q":7,"r":2}},"rep":"natural","n":2,"tasks":["dims"]}'
    )
    report = run_job(cfg)
    rows = report["tasks"]["dims"]["per_character"]
    assert len(rows) == 5
    assert all(r["consistent"] and r["dim"] == r["sum_s_alpha"] for r in rows)


def test_run_orbits_task():
    cfg = parse_config(
        '{"family":{"dihedral":{"s":3}},"rep":"natural","n":2,"tasks":["orbits"]}'
    )
    report = run_job(cfg)
    recs = report["tasks"]["orbits"]["per_character"][2]["records"]
    assert [r["rep"] for r in recs] == [[1, 1, 1], [1, 1, 2], [1, 2, 2], [2, 2, 2]]
    assert [r["s_alpha"] for r in recs] == [0, 2, 2, 0]


def test_run_empty_tasks_is_validation_only():
    cfg = parse_config('{"family":{"dihedral":{"s":3}}}')
    report = run_job(cfg)
    assert report["tasks"] == {}
    assert "characters" not in report


def test_run_requires_n_for_decide():
    cfg = parse_config('{"family":{"dihedral":{"s":3}},"tasks":["decide"]}')
    with pytest.raises(ConfigError, match=r"\$\.n"):
        run_job(cfg)


def test_run_budget_refusal_raises():
    cfg = parse_config(
        '{"family":{"dihedral":{"s":3}},"rep":"natural","n":3,'
        '"tasks":["orbits"],"budgets":{"index_budget":5}}'
    )
    with pytest.raises(BudgetError):
        run_job(cfg)


def test_run_verify_agreement_recorded():
    cfg = parse_config(
        '{"family":{"dihedral":{"s":3}},"rep":"natural","n":3,'
        '"tasks":["decide","verify"]}'
    )
    report = run_job(cfg)
    rows = report["tasks"]["verify"]["per_character"]
    assert [r["verdict"]["justification"] for r in rows] == ["BruteForce"] * 3
    assert [r["agrees_with_decide"] for r in rows] == [True, True, True]


def test_negative_control_distinguishes_justifications():
    # no trivial-stabilizer index exists at n = 2, yet the oracle still
    # refutes the degree-2 character; the report keeps both stories apart
    cfg = parse_config(
        '{"family":{"dihedral":{"s":3}},"rep":"natural","n":2,'
        '"tasks":["decide","verify"]}'
    )
    report = run_job(cfg)
    decide_rows = report["tasks"]["decide"]["per_character"]
    verify_rows = report["tasks"]["verify"]["per_character"]
    assert decide_rows[2]["verdict"]["status"] == "Inconclusive"
    assert verify_rows[2]["verdict"]["status"] == "NotAdmits"
    assert verify_rows[2]["verdict"]["justification"] == "BruteForce"
    assert verify_rows[2]["agrees_with_decide"] is None


def test_every_report_number_exact_or_marked_approx():
    cfg = parse_config(
        '{"family":{"dihedral":{"s":3}},"rep":"natural","tasks":["chartable"]}'
    )
    report = run_job(cfg)
    for row in report["tasks"]["chartable"]["values"]:
        for cell in row:
            assert set(cell) == {"conductor", "coeffs", "approx"}
            assert all(
                isinstance(num, int) and isinstance(den, int)
                for num, den in cell["coeffs"]
            )


# -- command line -----------------------------------------------------------------


def test_main_validate_ok(tmp_path, capsys):
    p = write_cfg(tmp_path, {"family": {"dihedral": {"s": 3}}})
    assert main(["validate", str(p)]) == EXIT_OK
    assert "ok" in capsys.readouterr().out


def test_main_validate_bad_config(tmp_path, capsys):
    p = write_cfg(tmp_path, {"family": {"pq": {"p": 3, "q": 7, "r": 3}}})
    assert main(["validate", str(p)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_main_validate_rejects_non_homomorphism_beyond_order_200(tmp_path, capsys):
    # C_101 x C_2 with the order-101 generator sent to a transposition: the
    # images break the homomorphism only at the last A-element, 100 + 1 = 0
    p = write_cfg(tmp_path, {"A": [101], "H": [2], "phi": [[[1]]],
                             "rep": {"explicit": {"degree": 2, "A": [[2, 1]],
                                                  "H": [[1, 2]]}}})
    assert main(["validate", str(p)]) == EXIT_CONFIG
    assert "homomorphism" in capsys.readouterr().err


def test_main_validate_rejects_image_for_trivial_factor_generator(tmp_path, capsys):
    # the generator of the C_1 factor is the identity, yet its image swaps
    p = write_cfg(tmp_path, {"A": [1], "H": [2], "phi": [[[0]]],
                             "rep": {"explicit": {"degree": 2, "A": [[2, 1]],
                                                  "H": [[2, 1]]}}})
    assert main(["validate", str(p)]) == EXIT_CONFIG
    assert "homomorphism" in capsys.readouterr().err


def test_main_validate_refuses_group_above_element_cap(tmp_path, capsys):
    p = write_cfg(tmp_path, {"family": {"dihedral": {"s": 1001}}})
    assert main(["validate", str(p)]) == EXIT_BUDGET
    assert "cap 2000" in capsys.readouterr().err


def _src_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


UNBOUNDED_CONFIGS = {
    "explicit": {"A": [3], "H": [1000000000], "phi": [[[1]]],
                 "rep": "regular", "tasks": []},
    "z_group": {"family": {"z_group": {"s": 3, "t": 1000000000, "r": 1}},
                "rep": "natural", "tasks": []},
    "pq": {"family": {"pq": {"p": 2, "q": 100000000000031, "r": 3}},
           "rep": "natural", "tasks": []},
    "wreath": {"wreath": {"A": [2], "H": [1000000000], "omega": 2,
                          "action": [[2, 1]]},
               "rep": "natural", "tasks": []},
}


@pytest.mark.parametrize("name", UNBOUNDED_CONFIGS)
def test_main_validate_refuses_unbounded_construction_at_once(tmp_path, name):
    # each of these ran an O(order) construction loop before anything
    # bounded the order; a child process with a timeout keeps a regression
    # from hanging the suite
    p = write_cfg(tmp_path, UNBOUNDED_CONFIGS[name])
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "ostar", "validate", str(p)],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=30)
    elapsed = time.perf_counter() - start
    assert done.returncode == EXIT_BUDGET, done.stderr
    assert "budget refused: refusing to enumerate a group of order" in done.stderr
    assert "(cap 2000)" in done.stderr
    assert elapsed < 2.0, f"validate took {elapsed:.2f} s"


def test_main_validate_rejects_non_commuting_action(tmp_path, capsys):
    p = write_cfg(tmp_path, {"A": [2, 2], "H": [2, 2],
                             "phi": [[[0, 1], [1, 0]], [[1, 0], [1, 1]]],
                             "rep": "regular", "tasks": []})
    assert main(["validate", str(p)]) == EXIT_CONFIG
    assert ("automorphism images do not induce a homomorphism H -> Aut(A)"
            in capsys.readouterr().err)


def test_module_entry_point_runs_cli(tmp_path):
    p = write_cfg(tmp_path, {"family": {"dihedral": {"s": 3}}})
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "ostar", "validate", str(p)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == EXIT_OK
    assert done.stdout == "ok\n"
    assert done.stderr == ""


def test_main_missing_file(capsys):
    assert main(["validate", "/nonexistent/cfg.json"]) == EXIT_CONFIG


def test_main_decide_with_out(tmp_path):
    p = write_cfg(tmp_path, {"family": {"dihedral": {"s": 3}},
                             "rep": "natural", "n": 3})
    out = tmp_path / "report.json"
    assert main(["decide", str(p), "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert len(report["tasks"]["decide"]["per_character"]) == 3


def test_main_decide_verify_appends_pass(tmp_path):
    p = write_cfg(tmp_path, {"family": {"dihedral": {"s": 3}},
                             "rep": "natural", "n": 2})
    out = tmp_path / "report.json"
    assert main(["decide", str(p), "--verify", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert "verify" in report["tasks"]


def test_main_budget_exit_code(tmp_path):
    p = write_cfg(tmp_path, {"family": {"dihedral": {"s": 3}},
                             "rep": "natural", "n": 3, "tasks": ["orbits"]})
    assert main(["run", str(p), "--budget", "5"]) == EXIT_BUDGET


@pytest.mark.parametrize("command", ["run", "chartable", "decide"])
@pytest.mark.parametrize("budget", ["-1", "0"])
def test_main_nonpositive_budget_is_config_error(tmp_path, capsys, command, budget):
    # validated like budgets.index_budget, before any computation
    p = write_cfg(tmp_path, {"family": {"dihedral": {"s": 3}},
                             "rep": "natural", "n": 3, "tasks": ["orbits"]})
    assert main([command, str(p), "--budget", budget]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: --budget" in captured.err


def test_main_csv_outputs(tmp_path):
    p = write_cfg(
        tmp_path,
        {"family": {"dihedral": {"s": 3}}, "rep": "natural", "n": 2,
         "tasks": ["chartable", "orbits"]},
    )
    out = tmp_path / "report.json"
    assert main(["run", str(p), "--format", "csv", "--out", str(out)]) == EXIT_OK
    assert out.exists()
    chartable = tmp_path / "report.chartable.csv"
    assert chartable.exists()
    assert chartable.read_text().startswith("character,degree")
    for i in range(3):
        orbit_csv = tmp_path / f"report.orbits.chi{i}.csv"
        assert orbit_csv.exists()
        lines = orbit_csv.read_text().strip().splitlines()
        assert lines[0] == "rep,orbit_size,stabilizer_order,s_alpha,in_delta_bar"
        assert len(lines) == 5  # four orbits plus header


def test_csv_run_scans_orbits_once_per_character(tmp_path, monkeypatch):
    # the orbits and dims tasks and the CSV export share one scan per
    # character, also under an m override
    import ostar.cli

    calls = []
    real_scan = ostar.cli.orbit_scan

    def counting_scan(G, rep, chi, m, n, **kwargs):
        calls.append(rep.degree)
        return real_scan(G, rep, chi, m, n, **kwargs)

    monkeypatch.setattr(ostar.cli, "orbit_scan", counting_scan)
    p = write_cfg(tmp_path, {"family": {"dihedral": {"s": 3}}, "rep": "natural",
                             "n": 2, "m": 4, "tasks": ["orbits", "dims"]})
    out = tmp_path / "report.json"
    assert main(["run", str(p), "--format", "csv", "--out", str(out)]) == EXIT_OK
    assert calls == [4, 4, 4]
    per_char = json.loads(out.read_text())["tasks"]["orbits"]["per_character"]
    for i, row in enumerate(per_char):
        lines = (tmp_path / f"report.orbits.chi{i}.csv").read_text().splitlines()
        assert len(lines) == 1 + len(row["records"])


def test_main_csv_requires_out(tmp_path):
    p = write_cfg(tmp_path, {"family": {"dihedral": {"s": 3}},
                             "rep": "natural", "n": 2, "tasks": ["orbits"]})
    assert main(["run", str(p), "--format", "csv"]) == EXIT_CONFIG


def test_main_chartable_subcommand(tmp_path):
    p = write_cfg(tmp_path, {"family": {"pq": {"p": 3, "q": 7, "r": 2}}})
    out = tmp_path / "table.json"
    assert main(["chartable", str(p), "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert "chartable" in report["tasks"]
    degrees = [c["degree"] for c in report["characters"]]
    assert sorted(degrees) == [1, 1, 1, 3, 3]


@pytest.mark.parametrize("command", ["run", "chartable"])
def test_chartable_only_run_does_not_pad_the_rep(tmp_path, monkeypatch, command):
    # no chartable output reads the representation, so m must cost nothing
    calls = []
    real_extended = PermRep.extended

    def counting_extended(self, m):
        calls.append(m)
        return real_extended(self, m)

    monkeypatch.setattr(PermRep, "extended", counting_extended)
    p = write_cfg(tmp_path, {"family": {"dihedral": {"s": 3}}, "rep": "natural",
                             "m": 3000000, "tasks": ["chartable"]})
    out = tmp_path / "table.json"
    assert main([command, str(p), "--out", str(out)]) == EXIT_OK
    assert calls == []
    assert json.loads(out.read_text())["rep"]["degree"] == 3


def test_m_override_pads_with_fixed_points(tmp_path):
    doc = {"family": {"dihedral": {"s": 3}}, "rep": "natural",
           "n": 2, "m": 5, "tasks": ["dims"]}
    cfg = parse_config(json.dumps(doc))
    report = run_job(cfg)
    rows = report["tasks"]["dims"]["per_character"]
    assert all(r["consistent"] for r in rows)
    # fixed points contribute full factors of n to every cycle count
    assert rows[0]["dim"] > 0


def test_main_identical_runs_byte_identical(tmp_path):
    p = write_cfg(tmp_path, {"family": {"dihedral": {"s": 5}},
                             "rep": "natural", "n": 3,
                             "tasks": ["decide", "verify"]})
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["run", str(p), "--out", str(out1), "--threads", "1"]) == EXIT_OK
    assert main(["run", str(p), "--out", str(out2), "--threads", "4"]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


EXPLICIT_REP_D6 = {"A": [3], "H": [2], "phi": [[[2]]], "n": 2, "tasks": ["orbits"]}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("doc, path", [
    ({**EXPLICIT_REP_D6,
      "rep": {"explicit": {"degree": 3, "A": [[2.0, 3, 1]], "H": [[1, 3, 2]]}}},
     "$.rep.explicit.A[0][0]"),
    ({**EXPLICIT_REP_D6,
      "rep": {"explicit": {"degree": 3, "A": [[2, 3, 1]], "H": [[1, 3, True]]}}},
     "$.rep.explicit.H[0][2]"),
    ({"wreath": {"A": [2], "H": [2], "omega": 2, "action": [[2.0, 1.0]]},
      "n": 2, "tasks": ["dims"]},
     "$.wreath.action[0][0]"),
], ids=["float-rep-entry", "bool-rep-entry", "float-action-entry"])
def test_main_permutation_entries_must_be_integers(tmp_path, capsys, command, doc, path):
    # 2.0 == 2 and True == 1, so these pass a sorted-equality check; a float
    # then crashed the build and a bool was echoed into the report
    p = write_cfg(tmp_path, doc)
    assert main([command, str(p)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: expected an integer, got ")


MISSING_DIR = "{tmp}/no/such/dir/report.json"


@pytest.mark.parametrize("command, doc, args, named", [
    ("validate", {**EXPLICIT_REP_D6, "rep": {"explicit": {"degree": 3, "A": 5, "H": [[1, 3, 2]]}}},
     [], "$.rep.explicit.A"),
    ("run", {**EXPLICIT_REP_D6, "rep": {"explicit": {"degree": 3, "A": 5, "H": [[1, 3, 2]]}}},
     [], "$.rep.explicit.A"),
    ("run", {**EXPLICIT_REP_D6, "rep": {"explicit": {"degree": 3, "A": [[2, 3, 1]], "H": 5}}},
     [], "$.rep.explicit.H"),
    ("run", {**EXPLICIT_REP_D6, "output": {"path": 5}}, [], "$.output.path"),
    ("run", EXPLICIT_REP_D6, ["--out", MISSING_DIR], MISSING_DIR),
    ("run", {**EXPLICIT_REP_D6, "output": {"path": MISSING_DIR}}, [], MISSING_DIR),
    ("run", EXPLICIT_REP_D6, ["--format", "csv", "--out", MISSING_DIR], MISSING_DIR),
], ids=["validate-rep-A-int", "run-rep-A-int", "run-rep-H-int", "output-path-int",
        "out-missing-dir", "output-path-missing-dir", "csv-missing-dir"])
def test_main_malformed_config_or_output_exits_2(tmp_path, capsys, command, doc, args, named):
    # each of these crashed with a TypeError or FileNotFoundError traceback
    def fill(text):
        return text.replace("{tmp}", str(tmp_path))
    p = tmp_path / "job.json"
    p.write_text(fill(json.dumps(doc)))
    assert main([command, str(p), *map(fill, args)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and fill(named) in err
