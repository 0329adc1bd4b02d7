"""README's examples run as written: the library sketch gives the verdicts
and the rank its comments state, and every command of the CLI block exits
0.  The numbers of its Bounds section are the code's constants.  The
package imports nothing outside the standard library, as README and
pyproject.toml's empty dependency list promise."""

import ast
import re
import shlex
import sys
from pathlib import Path

from ostar.cli import EXIT_OK, main
from ostar.cyclotomic import CONDUCTOR_CAP
from ostar.decide import CLIQUE_NODE_BUDGET, NOT_ADMITS, VERTEX_BUDGET
from ostar.groups import ELEMENT_CAP, SUBGROUP_CAP
from ostar.symclass import DEFAULT_INDEX_BUDGET

ROOT = Path(__file__).resolve().parents[1]


def readme_block(heading, lang):
    """The first ```lang block under the '## heading' section of README."""
    section = (ROOT / "README.md").read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_run_as_stated(tmp_path, monkeypatch):
    code = readme_block("Library sketch", "python")
    namespace, values = {}, {}
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            expr = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(code, node)] = eval(expr, namespace)
        else:
            stmt = ast.Module(body=[node], type_ignores=[])
            exec(compile(stmt, "README.md", "exec"), namespace)
    assert values["decide_main_theorem(G, rep, chi, n=3)"].status == NOT_ADMITS
    assert values["brute_force_verify(G, rep, chi, n=2)"].status == NOT_ADMITS
    assert values["gram((1, 1, 2), chi, G, rep).rank()"] == 2
    assert values["gram((2, 2, 1), chi, G, rep) is gram((1, 1, 2), chi, G, rep)"]
    assert namespace["stab"] == (0, 5)
    assert values["[G.elements()[c] for c in stab]"] == [((0,), (0,)), ((2,), (1,))]

    monkeypatch.chdir(ROOT)  # the commands name configs/ relative to it
    commands = [shlex.split(line) for line in readme_block("CLI", "sh").splitlines()]
    assert commands
    for i, (prog, *args) in enumerate(commands):
        assert prog == "ostar"
        if "--out" in args:
            k = args.index("--out") + 1
            args[k] = str(tmp_path / f"{i}-{args[k]}")
        assert main(args) == EXIT_OK, args


def test_package_imports_only_the_standard_library():
    files = sorted((ROOT / "src" / "ostar").glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "ostar" or top in sys.stdlib_module_names, (
                    path.name, name)


NUM = r"\d+(?:\^\d+)?"  # 2000 or 10^7
# the phrase of README's Bounds section that states each constant
BOUND_PHRASES = {
    "ELEMENT_CAP": (rf"element enumeration caps at order ({NUM})", ELEMENT_CAP),
    "SUBGROUP_CAP": (rf"subgroup enumeration at order ({NUM})", SUBGROUP_CAP),
    "DEFAULT_INDEX_BUDGET": (rf"orbit scans at `n\^m <= ({NUM})` indices",
                             DEFAULT_INDEX_BUDGET),
    "CONDUCTOR_CAP": (rf"conductors at `({NUM})`", CONDUCTOR_CAP),
    "VERTEX_BUDGET": (rf"refusing graphs above ({NUM}) vertices", VERTEX_BUDGET),
    "CLIQUE_NODE_BUDGET": (rf"searches above ({NUM}) backtracking nodes",
                           CLIQUE_NODE_BUDGET),
}


def readme_number(text):
    """'2000' or '10^7' as an int."""
    base, _, exp = text.partition("^")
    return int(base) ** int(exp or 1)


def test_readme_bounds_match_the_constants():
    section = (ROOT / "README.md").read_text().split("\n## Bounds\n", 1)[1]
    text = " ".join(section.split("\n## ", 1)[0].split())
    stated = []
    for name, (phrase, value) in BOUND_PHRASES.items():
        found = re.findall(phrase, text)
        assert len(found) == 1, (name, found)
        assert readme_number(found[0]) == value, (name, found[0], value)
        stated.append(found[0])
    # a number the section states without a constant behind it fails too
    assert sorted(re.findall(NUM, text)) == sorted(stated)
