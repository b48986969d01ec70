"""Print the ``src/ampurify`` statements that the benchmark's own inputs never run.

    python3 tools/traffic.py [--requests N] [--sweeps M] [--json]

In one fresh process, under ``sys.settrace``, it imports the package from
this tree's ``src`` and runs what the benchmark's workloads run:
``verify.run_suite`` at both levels, the first N requests of
``bench/inputs.requests(7)``, each as ``python -m ampurify`` runs it, and
the first M sweeps of ``bench/inputs.sweeps(7)`` through ``cli.main``, all
at seed 7 and with all output discarded.  ``bench/`` is read, not changed.

A statement counts as run when one of its own lines raised a line event: a
compound statement owns its header, a simple one its whole span, and a
docstring is no statement.  Each module is printed with its unrun
statements: a function none of whose statements ran is named whole, with
its statement count, and every other unrun statement by its line (a class
body runs on import, so no class is ever named whole).
``--json`` prints the same as one JSON object.
"""

import argparse
import ast
import collections
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ampurify"
SEED = 7


def statements(source: str) -> list[tuple[range, str, int]]:
    """(own lines, enclosing qualname, first line) of each statement of a module."""
    found = []

    def visit(body, scope, documented):
        for i, node in enumerate(body):
            if (documented and i == 0 and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)):
                continue
            blocks = [getattr(node, key, []) for key in ("body", "orelse", "finalbody")]
            blocks += [h.body for h in getattr(node, "handlers", [])]
            blocks += [case.body for case in getattr(node, "cases", [])]
            inner = [s.lineno for block in blocks for s in block]
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            last = min(inner) - 1 if inner else node.end_lineno
            found.append((range(first, max(first, last) + 1), scope, node.lineno))
            named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for block in blocks:
                visit(block, f"{scope}.{node.name}".lstrip(".") if named else scope, named)

    visit(ast.parse(source).body, "", True)
    return found


def _inside(scope: str, name: str) -> bool:
    return scope == name or scope.startswith(f"{name}.")


def _run_workloads(n_requests: int, n_sweeps: int) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import inputs
    from ampurify import cli, verify

    for level in ("fast", "full"):
        verify.run_suite(level=level, seed=SEED)
    argv = sys.argv
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for request, _ in zip(inputs.requests(SEED), range(n_requests)):
            sys.argv = ["ampurify", *request.argv()]
            try:
                runpy.run_module("ampurify", run_name="__main__")
            except SystemExit:
                pass
        sys.argv = argv
        for sweep, _ in zip(inputs.sweeps(SEED), range(n_sweeps)):
            cli.main(sweep.argv(os.path.join(tmp, "rows.csv")))


def trace(n_requests: int, n_sweeps: int) -> dict[str, set[int]]:
    """{file name: lines that raised a line event} of the package under the workloads."""
    if "ampurify" in sys.modules:
        raise RuntimeError("ampurify is imported already; its import would go untraced")
    hits = collections.defaultdict(set)
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(start)
    try:
        _run_workloads(n_requests, n_sweeps)
    finally:
        sys.settrace(None)
    return hits


def report(hits: dict[str, set[int]]) -> dict:
    """Per module: its statement count, its unrun statements (line and
    enclosing qualname) and the functions none of whose statements ran."""
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        found = statements(path.read_text(encoding="utf-8"))
        unrun = [(line, scope) for own, scope, line in found if ran.isdisjoint(own)]
        whole = {}
        for name in sorted({scope for _, scope in unrun if scope}):
            if not any(_inside(name, w) for w in whole):
                inside = sum(_inside(scope, name) for _, scope, _ in found)
                if inside == sum(_inside(scope, name) for _, scope in unrun):
                    whole[name] = inside
        modules[path.stem] = {"statements": len(found), "whole": whole,
                              "unrun": [{"line": line, "scope": scope} for line, scope in unrun]}
    return {"statements": sum(m["statements"] for m in modules.values()),
            "unrun": sum(len(m["unrun"]) for m in modules.values()), "modules": modules}


def render(result: dict) -> list[str]:
    lines = []
    for name, module in result["modules"].items():
        if not module["unrun"]:
            continue
        source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8").splitlines()
        lines.append(f"{name}.py: {len(module['unrun'])} of {module['statements']} "
                     "statements unrun")
        if module["whole"]:
            lines.append("  never run: " + ", ".join(f"{f} ({n})" for f, n in module["whole"].items()))
        for entry in module["unrun"]:
            if not any(_inside(entry["scope"], w) for w in module["whole"]):
                lines.append(f"  {entry['line']:>4}: {source[entry['line'] - 1].strip()[:72]}")
    lines.append(f"total: {result['unrun']} of {result['statements']} statements unrun")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=400, help="point requests (default 400)")
    parser.add_argument("--sweeps", type=int, default=40, help="sweeps (default 40)")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args()
    result = report(trace(args.requests, args.sweeps))
    print(json.dumps(result, indent=1) if args.json else "\n".join(render(result)))


if __name__ == "__main__":
    main()
