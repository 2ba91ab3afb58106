"""List the statements of the package that a pytest run, or the CLI on
every bundled fixture, never executes.

    PYTHONPATH=src python tests/trace_statements.py [pytest arguments]
    PYTHONPATH=src python tests/trace_statements.py --cli

runs pytest in this process (on tests/ by default), or with --cli every
bundled fixture x subcommand cell through fleet_inverse.cli.main (each
cell's CSV written to a temporary directory, stdout and stderr
discarded), under a sys.settrace hook that records every line executed in
src/fleet_inverse.  It then prints each statement inside a function body
whose lines never ran, as `path:line: source`, and a last line `never
ran: N of M statements`; --cli first prints the number of cells and of
each exit code.

A statement counts as run when any of its lines ran: a multi-line call
reports the line of its first executed instruction, which need not be the
statement's first.  Docstrings are not statements here, and class bodies
and module level code, which run at import, are left out.  Code run in
forked children (the CLI matrix digest test) is not seen.  The exit status
is pytest's, and 0 with --cli.  Only the standard library is used, and
pytest for a pytest run; pytest does not collect this file.
"""

import ast
import contextlib
import os
import sys
import tempfile
import threading
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fleet_inverse"


def function_statements(path: Path) -> list[ast.stmt]:
    """Every statement nested in a function body of the module at path,
    docstrings excepted."""
    functions = [
        node for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    docstrings = {
        id(f.body[0]) for f in functions if isinstance(f.body[0], ast.Expr) and isinstance(f.body[0].value, ast.Constant)
    }
    # a nested function's statements are reached from both defs
    statements = {
        id(n): n for f in functions for top in f.body for n in ast.walk(top) if isinstance(n, ast.stmt)
    }
    return sorted((s for key, s in statements.items() if key not in docstrings), key=lambda s: s.lineno)


def trace_lines(run) -> tuple[object, dict[Path, set[int]]]:
    """run()'s result and the lines it executed in each package module, by
    resolved path (a relative PYTHONPATH gives relative file names)."""
    package = f"{os.sep}{PACKAGE.name}{os.sep}"
    lines: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        if package in frame.f_code.co_filename:
            lines[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(call)
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    resolved: dict[Path, set[int]] = defaultdict(set)
    for name, ran in lines.items():
        resolved[Path(name).resolve()] |= ran
    return result, resolved


def run_cli_cells() -> Counter:
    """Every bundled fixture x subcommand through cli.main, in this process:
    the count of each exit code."""
    from fleet_inverse import cli, scenario

    codes: Counter = Counter()
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null:
        with contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
            for fixture in scenario.list_fixtures():
                for subcommand in cli.SUBCOMMANDS:
                    out = Path(tmp) / f"{fixture}.{subcommand}.csv"
                    path = scenario.fixture_path(fixture)
                    codes[cli.main([subcommand, "--scenario", str(path), "--out", str(out)])] += 1
    return codes


def main(args: list[str]) -> int:
    if args == ["--cli"]:
        codes, lines = trace_lines(run_cli_cells)
        status = 0
        print(f"cells: {sum(codes.values())}, by exit code: {dict(sorted(codes.items()))}")
    else:
        import pytest

        status, lines = trace_lines(lambda: pytest.main(args or [str(Path(__file__).parent)]))
    never, total = [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        ran = lines.get(path.resolve(), set())
        source = path.read_text().splitlines()
        for statement in function_statements(path):
            total += 1
            if not ran.intersection(range(statement.lineno, statement.end_lineno + 1)):
                never.append(f"{path.relative_to(PACKAGE.parent)}:{statement.lineno}: "
                             f"{source[statement.lineno - 1].strip()}")
    print("\n".join(never))
    print(f"never ran: {len(never)} of {total} statements")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
