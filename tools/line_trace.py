"""List the executable src/ lines that neither Tier-1 nor the digest tools run.

    python3 tools/line_trace.py                  # this checkout's src/
    python3 tools/line_trace.py --src OTHER/src  # another checkout

One process, under one ``sys.settrace`` line tracer, imports the package
from ``--src`` and then runs this checkout's Tier-1 suite (``pytest`` on
tests/), ``tools/run_digests.py`` and ``tools/recipe_digests.py``. It
needs only the standard library. A line counts as run when the
interpreter reported a line event on it in a frame of a package file,
and as executable when a code object compiled from its file starts a
line there (``dis.findlinestarts``), the rule the stdlib ``trace``
module counts by.

Standard output is one ``path:line  source`` entry per executable line
that nothing ran, then one line with their count and the package's total
``.py`` line count (as ``wc -l`` counts it); the tests' and the tools' own
output goes to standard error. The exit status is nonzero when Tier-1 or
either digest tool fails. Subprocesses are not traced: the sweep pool's
workers (which run only ``cli._run_cells``, a function the serial sweep
runs in process too), the digest tools that tests/test_digests.py starts
(run again here in process), the fresh interpreters of
tests/test_imports.py and the demos that tests/test_demos.py runs, so a
line that only they reach is listed too. The trace checks nothing and claims nothing; it is a starting point
for asking whether a branch is ever exercised before removing it, and
takes a few minutes on a 2-core VM.
"""

from __future__ import annotations

import argparse
import contextlib
import dis
import importlib.util
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _executable(name: str, source: str) -> set:
    """The lines at which some code object compiled from source starts one."""
    lines = set()
    todo = [compile(source, name, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _run_tool(name: str, src: Path) -> int:
    spec = importlib.util.spec_from_file_location(f"_traced_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    code = module.main(["--src", str(src)])
    print(f"line_trace: {name} exited {code}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=ROOT / "src",
        help="directory holding the gossipshield package (default: this checkout's src/)",
    )
    args = parser.parse_args(argv)
    src = args.src.resolve()
    # read before the run, so the report matches the code that ran
    files = {str(p): p.read_text() for p in sorted((src / "gossipshield").glob("*.py"))}
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.path.insert(0, str(src))
    threading.settrace(start)
    sys.settrace(start)
    try:
        import gossipshield  # noqa: F401  (traced from its first line)
        import pytest

        with contextlib.redirect_stdout(sys.stderr):
            code = int(pytest.main(
                [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors"]
            ))
            print(f"line_trace: Tier-1 exited {code}", file=sys.stderr)
            codes = [code, _run_tool("run_digests", src), _run_tool("recipe_digests", src)]
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for name, source in files.items():
        where = Path(name).relative_to(src.parent).as_posix()
        text = source.splitlines()
        for line in sorted(_executable(name, source) - {ln for f, ln in hits if f == name}):
            print(f"{where}:{line}  {text[line - 1].strip()}")
            missed += 1
    total = sum(source.count("\n") for source in files.values())
    print(f"{missed} executable lines not run; {total} lines in {len(files)} .py files")
    return int(any(codes))


if __name__ == "__main__":
    sys.exit(main())
