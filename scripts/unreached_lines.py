#!/usr/bin/env python3
"""List the lines of ``src/camcp`` that no command line path executes, or,
with ``--tests``, that neither a command line path nor ``tests/`` executes.

Runs these paths in-process through ``camcp.cli.main``, under
``sys.settrace`` and ``threading.settrace``, importing the package only once
tracing is on:

- ``run --trace`` on both built-in scenarios in both modes;
- ``replay`` of those traces and of ``tests/golden/trace_*``;
- ``bench --n 3`` on both built-in scenarios, and on travel with
  ``--window`` 1, 2 and 3;
- the error exits for a missing trace, a malformed trace, an unknown
  scenario and ``--window 0``.

With ``--tests`` it then runs ``pytest tests/`` in the same process under
the same tracer (about 90 s on a 2-vCPU host), with ``src`` put on
``PYTHONPATH`` for the subprocesses that tests start.

Every file they write goes to a temporary directory. The paths' own output
is swallowed, and pytest's goes to stderr. The script prints each line of
``src/camcp`` that holds code none of the runs executed, as
``file:line: text``, then a count per file and the number of unmarked
lines. A line that only a subprocess or a type checker runs is marked at
its end: ``[subprocess-only exit]`` for the ``__main__`` block and the
console script's function, ``[TYPE_CHECKING import]`` for the imports only
a type checker reads. It exits 1 if a path ends with another exit code than
the one it expects; with ``--tests``, also if a test fails or an unmarked
line is listed. It exits 0 otherwise.

    python3 scripts/unreached_lines.py [--tests]
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import dis
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "camcp"
# The function that pyproject.toml installs as the ``camcp`` console script.
CONSOLE_SCRIPT = "entrypoint"


def code_lines(path: Path) -> set[int]:
    """The lines of *path* that hold code: every line an instruction starts
    on, but for a function's or class's own first line, which belongs to
    the code that defines it."""
    module = compile(path.read_text("utf-8"), str(path), "exec")
    lines: set[int] = set()
    stack = [module]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        for _, line in dis.findlinestarts(code):
            if line and (code is module or line != code.co_firstlineno):
                lines.add(line)
    return lines


def marked_lines(path: Path) -> dict[int, str]:
    """The lines of *path* that only a subprocess or a type checker runs,
    each with its mark: the bodies of the ``__main__`` block, of the console
    script's function and of ``if TYPE_CHECKING``."""
    marks: dict[int, str] = {}
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        test = ast.unparse(node.test) if isinstance(node, ast.If) else None
        if test == "TYPE_CHECKING":
            mark = "TYPE_CHECKING import"
        elif test == "__name__ == '__main__'" or (
            isinstance(node, ast.FunctionDef) and node.name == CONSOLE_SCRIPT
        ):
            mark = "subprocess-only exit"
        else:
            continue
        for statement in node.body:
            marks.update(dict.fromkeys(range(statement.lineno, statement.end_lineno + 1), mark))
    return marks


def cli_paths(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) for each path, in the order they run."""
    paths = []
    traces = []
    for scenario in ("travel", "wedding_p5"):
        for mode in ("ca", "traditional"):
            trace = tmp / f"{scenario}_{mode}.jsonl"
            traces.append(trace)
            paths.append((["run", "--scenario", scenario, "--mode", mode, "--trace", str(trace)], 0))
    traces += sorted((ROOT / "tests" / "golden").glob("trace_*"))
    paths += [(["replay", "--trace", str(trace)], 0) for trace in traces]
    for scenario, window in [("travel", []), ("wedding_p5", [])] + [
        ("travel", ["--window", str(n)]) for n in (1, 2, 3)
    ]:
        out = tmp / f"{scenario}{''.join(window)}.csv"
        paths.append((["bench", "--scenario", scenario, "--n", "3", "--out", str(out)] + window, 0))
    malformed = tmp / "malformed.jsonl"
    malformed.write_text("{not json\n", encoding="utf-8")
    paths += [
        (["replay", "--trace", str(tmp / "missing.jsonl")], 1),
        (["replay", "--trace", str(malformed)], 1),
        (["run", "--scenario", "no_such_scenario", "--mode", "ca"], 2),
        (["bench", "--scenario", "travel", "--n", "1", "--out", str(tmp / "w.csv"), "--window", "0"], 2),
    ]
    return paths


def run_traced(
    paths: list[tuple[list[str], int]], with_tests: bool = False
) -> tuple[dict[str, set[int]], list[str]]:
    """Run *paths*, then ``tests/`` if *with_tests*; return the lines
    executed in each package file, by file name, and a message for each path
    that ended with an unexpected code and for a failed test run."""
    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines = executed.setdefault(name, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    sys.path.insert(0, str(ROOT / "src"))
    failures = []
    sink = io.StringIO()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        from camcp.cli import main

        for argv, expected in paths:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
            if code != expected:
                failures.append(f"{' '.join(argv)}: exit {code}, expected {expected}")
        if with_tests:
            import pytest

            os.environ["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
            )
            with contextlib.redirect_stdout(sys.stderr):
                code = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
            if code != 0:
                failures.append(f"pytest tests/: exit {code}")
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return executed, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="List the src/camcp lines that no run executes.")
    parser.add_argument("--tests", action="store_true", help="also run tests/ under the tracer")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        executed, failures = run_traced(cli_paths(Path(tmp)), with_tests=args.tests)
    for failure in failures:
        print(f"unexpected exit: {failure}", file=sys.stderr)
    counts = []
    unmarked = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text("utf-8").splitlines()
        marks = marked_lines(path)
        missed = sorted(code_lines(path) - executed.get(str(path), set()))
        name = path.relative_to(ROOT).as_posix()
        for line in missed:
            mark = f"  [{marks[line]}]" if line in marks else ""
            print(f"{name}:{line}: {text[line - 1].strip()}{mark}")
        unmarked += sum(line not in marks for line in missed)
        counts.append((name, len(missed)))
    print("unexecuted lines per file:")
    for name, count in counts:
        print(f"{count:6d}  {name}")
    print(f"{unmarked} unmarked")
    return 1 if failures or (args.tests and unmarked) else 0


if __name__ == "__main__":
    sys.exit(main())
