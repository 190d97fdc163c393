"""List the functions of src/halfpipe that no command, criterion or benchmark workload enters.

One process runs, under ``sys.setprofile``:

- acceptance criteria 01 to 11 (``tests/test_acceptance.py``, through pytest);
- every run of ``tools/cli_digest.py``, on this checkout;
- round 0 of each perfbench workload at seed 1, followed by its checks.

It then prints every function and method defined in ``src/halfpipe``, nested
ones included, that none of them entered, one ``path:first-last  name`` line
each (the span counts decorators), and last the number of those functions
and of their lines, with the line count of ``src/halfpipe/*.py`` as ``wc -l``
gives it.  Progress and the outcome of each stage go to stderr.  It takes no
options:

    python3 tools/unreached.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SRC = HERE / "src" / "halfpipe"
sys.path[:0] = [str(HERE / "src"), str(HERE / "perfbench"), str(HERE / "tools")]

# Imported first: it sets the BLAS thread variables before numpy loads.
import cli_digest  # noqa: E402

SEED = 1


def functions(node: ast.AST, prefix: str = ""):
    """(first line, last line, qualified name) of every function defined under an AST node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            yield min([child.lineno] + [d.lineno for d in child.decorator_list]), child.end_lineno, name
            yield from functions(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from functions(child, prefix + child.name + ".")
        else:
            yield from functions(child, prefix)


def run_criteria() -> None:
    import pytest

    with contextlib.redirect_stdout(sys.stderr):
        code = pytest.main([str(HERE / "tests" / "test_acceptance.py"), "-q", "-p", "no:cacheprovider"])
    print(f"criteria: pytest exit {int(code)}", file=sys.stderr)


def run_digest() -> None:
    argv = sys.argv
    sys.argv = [cli_digest.__file__, "--repo", str(HERE)]
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli_digest.main()
    finally:
        sys.argv = argv
    print(f"cli_digest: {len(out.getvalue().splitlines())} lines", file=sys.stderr)


def run_workloads() -> None:
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        failed = problems = 0
        with tempfile.TemporaryDirectory() as tmp:
            ops = workload(SEED, Path(tmp))(0)
            for op in ops:
                try:
                    problems += len(op.check(op.read(op.run())))
                except Exception:  # a failing operation is counted, as perfbench/run.py does
                    failed += 1
        print(f"{name}: {len(ops)} operations, {failed} failed, {problems} problems", file=sys.stderr)


def main() -> int:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_criteria()
        run_digest()
        run_workloads()
    finally:
        sys.setprofile(None)
    keys = {(os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name) for code in entered}
    count = lines = 0
    for path in sorted(SRC.glob("*.py")):
        for first, last, name in functions(ast.parse(path.read_text(), str(path))):
            if (str(path.resolve()), first, name.rsplit(".", 1)[-1]) not in keys:
                print(f"{path.relative_to(HERE)}:{first}-{last}  {name}")
                count += 1
                lines += last - first + 1
    # Newlines, as wc -l counts them.
    total = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    print(f"{count} functions, {lines} lines not entered; src/halfpipe has {total} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
