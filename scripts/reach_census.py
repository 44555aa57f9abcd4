"""List every function definition in src/roughwork that a fixed run never calls.

The run, under one ``sys.setprofile`` hook:

- ``cli.main`` in process on every subcommand and action, once on the
  bundled model and once on a three-atom model with lowerTable/upperTable;
- both scripts in ``scripts/``, through ``runpy``;
- one job of every perfbench template, on all four workloads, built by
  ``perfbench/jobs.py`` (imported, never written to) in a temporary
  directory, with the digest and suite verdict the benchmark checks it by.

A definition is keyed by its file and first line, the first decorator's line
if it has one, which is the ``co_firstlineno`` of its code object. Prints one
``file:line name (lines)`` per unreached definition, then
``unreached: N of M definitions``.

Usage: python scripts/reach_census.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "roughwork"
PERFBENCH = ROOT / "perfbench"

# Atoms a, b and c are in both models, so every command runs on both.
TABLES_MODEL = {
    "universe": ["a", "b", "c"],
    "partition": [["a", "b"], ["c"]],
    # identity lower, except that ab loses b: lower monotonicity fails at (b, ab)
    "lowerTable": {"0": "0", "a": "a", "b": "b", "c": "c", "ab": "a", "ac": "ac",
                   "bc": "bc", "S": "S"},
    "upperTable": {"0": "0", "a": "ab", "b": "ab", "c": "c", "ab": "ab", "ac": "S",
                   "bc": "S", "S": "S"},
}


def definitions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (qualified name, lines) for every def in the package."""
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found[(str(path), first)] = (
                    prefix + child.name,
                    child.end_lineno - first + 1,
                )
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def cli_commands() -> list[list[str]]:
    from roughwork.counting import CLOSURE_MODES
    from roughwork.negation import CLAIM_IDS
    from roughwork.opposition import BRANCH_POLICIES
    from roughwork.parthood import MIXED_KINDS, SUBSET_KINDS, ParthoodKind

    commands = [["space", "show", "--format", f] for f in ("text", "csv", "json")]
    commands += [["space", "triples"], ["space", "classes"]]
    commands += [
        ["eval", text]
        for text in (
            "L(ab (+) [bc])",
            "~[a] (o) abc",
            "[a] ~> bc",
            "D(ab) (.) [c]",
            "ab ->> [c]",
            "neg [ac] (+) ~c",
            "S (.) 0",
        )
    ]
    commands += [["check", s] for s in ("gos", "admissible", "cera", "prerough", "essential")]
    for kind in ParthoodKind:
        if kind in SUBSET_KINDS:
            operands = ["a", "ab"]
        elif kind in MIXED_KINDS:
            operands = ["a", "[ab]"]
        else:
            operands = ["(a,[a])", "([ab],ab)"]
        commands += [["parthood", kind.value, *operands], ["parthood", "analyze", kind.value]]
    commands += [
        ["crad", op, *pair]
        for op in ("plus", "times", "pnat")
        for pair in (("(a,[a])", "(b,[b])"), ("(ab,[ab])", "(abc,[abc])"))
    ]
    commands += [["negation", "check"]]
    commands += [["negation", "falsify", claim] for claim in CLAIM_IDS]
    commands += [
        ["opposition", "classify", "true", "false"],
        ["opposition", "hexagon", "ab"],
        ["opposition", "tables"],
    ]
    commands += [
        ["opposition", "tsr", "T*", "oppose", "oppose", "--policy", policy]
        for policy in BRANCH_POLICIES
    ]
    commands += [["count", "ipc"]]
    commands += [
        ["count", "ipc", "--seq", "x,y,z", "--pairs", "x-y", "--closure", mode]
        for mode in CLOSURE_MODES
    ]
    commands += [["granulation", "search", "--max-granules", "2"]]
    return commands


def run_cli(model_dir: Path) -> None:
    from roughwork import cli

    tables = model_dir / "tables.json"
    tables.write_text(json.dumps(TABLES_MODEL))
    for extra in ([], ["--model", str(tables)]):
        for argv in cli_commands():
            cli.main(argv + extra)


def run_scripts() -> None:
    for script in ("negation_survey.py", "worked_example.py"):
        path = ROOT / "scripts" / script
        saved = sys.argv
        sys.argv = [str(path)]
        try:
            runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = saved


def run_perfbench(model_dir: Path) -> None:
    sys.path.insert(0, str(PERFBENCH))
    import jobs
    import spans

    jobs.write_model_files(model_dir)
    for workload in jobs.WORKLOADS:
        for t in jobs.TEMPLATES[workload]:
            data = jobs.make_input(workload, t, 0)
            report = jobs.load_job(workload, t, data, model_dir).run(spans.NullTracer())
            jobs.digest(report)
            if workload in ("sweep", "witness"):
                jobs.has_failure(report)


def main() -> None:
    sys.dont_write_bytecode = True  # leave no cache files beside perfbench/
    # the definitions counted are this checkout's; roughwork is first imported
    # under the hook, so a call made at import time counts too
    sys.path.insert(0, str(ROOT / "src"))
    defs = definitions()
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                run_cli(Path(tmp))
                run_scripts()
                run_perfbench(Path(tmp))
        finally:
            sys.setprofile(None)

    # a module's co_filename keeps the form of its sys.path entry
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in called}
    unreached = sorted(key for key in defs if key not in reached)
    for path, line in unreached:
        name, lines = defs[(path, line)]
        print(f"{Path(path).relative_to(ROOT)}:{line} {name} ({lines})")
    print(f"unreached: {len(unreached)} of {len(defs)} definitions")


if __name__ == "__main__":
    main()
