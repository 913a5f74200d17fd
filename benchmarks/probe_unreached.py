"""List the functions of the ``repro`` package that a test run never enters.

A function-entry probe for finding dead code without ``coverage``:
``sys.setprofile`` and ``threading.setprofile`` record the code object of
every Python call made while pytest runs *in this process*; afterwards
every ``def`` under the package (found with :mod:`ast`) whose code object
was never entered is printed, grouped by module.  Work that runs in other
processes — CLI verbs driven through ``subprocess``, ``ProcessScheduler``
payloads, ``repro serve`` children — is invisible to the probe, so a
listed function may still run there; each one needs a verdict (delete it
or test it), not an automatic deletion.

Usage (arguments after ``--`` go to pytest; the default is the tier-1
suite)::

    PYTHONPATH=src python benchmarks/probe_unreached.py
    PYTHONPATH=src python benchmarks/probe_unreached.py --prefix src/repro/runtime \\
        --out unreached.json -- -q tests/test_async_engine.py

The profiler slows the suite down roughly threefold.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import threading
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")


def defined_functions(package: str) -> Dict[Tuple[str, int], str]:
    """Every ``def`` under ``package`` as ``(path, first line) -> qualname``.

    The first line is the first decorator's when there is one, which is
    what the compiled code object reports as ``co_firstlineno``.
    """
    out: Dict[Tuple[str, int], str] = {}
    for dirpath, _, files in os.walk(package):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.realpath(os.path.join(dirpath, name))
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), path)

            def visit(node, prefix):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        qual = prefix + child.name
                        out[(path, first)] = qual
                        visit(child, qual + ".<locals>.")
                    elif isinstance(child, ast.ClassDef):
                        visit(child, prefix + child.name + ".")
                    else:
                        visit(child, prefix)

            visit(tree, "")
    return out


def run_probed(pytest_args: List[str]) -> Tuple[int, Set[Tuple[str, int]]]:
    """Run pytest in-process under the entry probe; returns
    ``(exit code, {(path, first line)} of every entered code object)``."""
    import pytest

    seen_codes: Set[object] = set()

    def probe(frame, event, arg):
        if event == "call":
            seen_codes.add(frame.f_code)

    threading.setprofile(probe)
    sys.setprofile(probe)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    entered = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in seen_codes}
    return int(code), entered


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pytest_args = ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")]
    if "--" in argv:
        cut = argv.index("--")
        argv, pytest_args = argv[:cut], argv[cut + 1:]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--prefix", default=PACKAGE,
                    help="only report functions under this directory or file")
    ap.add_argument("--out", help="also write the unreached functions as JSON here")
    args = ap.parse_args(argv)

    defined = defined_functions(PACKAGE)
    code, entered = run_probed(pytest_args)
    prefix = os.path.realpath(args.prefix)
    unreached: Dict[str, List[str]] = {}
    n_scope = 0
    for (path, line), qual in sorted(defined.items()):
        if not path.startswith(prefix):
            continue
        n_scope += 1
        if (path, line) not in entered:
            rel = os.path.relpath(path, ROOT)
            unreached.setdefault(rel, []).append(f"{qual}:{line}")
    n_unreached = sum(len(v) for v in unreached.values())
    print(f"\n{n_unreached} of {n_scope} function(s) never entered "
          f"(pytest exit {code})")
    for rel, names in unreached.items():
        print(f"  {rel}")
        for name in names:
            print(f"    {name}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"pytest_exit": code, "n_functions": n_scope,
                       "unreached": unreached}, f, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main())
