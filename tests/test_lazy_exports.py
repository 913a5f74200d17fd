"""The packages whose public names resolve on first use (PEP 562).

``repro``, ``repro.core``, ``repro.apps``, ``repro.runtime``,
``repro.service`` and ``repro.observability`` import nothing below them
until a name is read (:mod:`repro._lazy`).  Each check runs in a fresh
interpreter, so no other test has resolved a name first.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

PACKAGES = (
    "repro", "repro.core", "repro.apps", "repro.runtime", "repro.service", "repro.observability",
)

_CHECK = textwrap.dedent("""
    import importlib, json, sys
    name = sys.argv[1]
    pkg = importlib.import_module(name)
    loaded = set(sys.modules)
    listed = set(dir(pkg))
    loaded_by_dir = sorted(set(sys.modules) - loaded)
    bound = [n for n in pkg.__all__ if n in vars(pkg) and n != "__version__"]
    star = {}
    exec(f"from {name} import *", star)
    try:
        pkg.no_such_name
        unknown = None
    except AttributeError as e:
        unknown = str(e)
    print(json.dumps({
        "all": list(pkg.__all__),
        "not_in_dir": [n for n in pkg.__all__ if n not in listed],
        "loaded_by_dir": loaded_by_dir,
        "bound_before_read": bound,
        "not_starred": [n for n in pkg.__all__ if n not in star],
        "in_dir_after": sorted(set(pkg.__all__) - set(dir(pkg))),
        "unknown": unknown,
    }))
""")


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    out = subprocess.run(
        [sys.executable, "-c", _CHECK, package],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["all"] and len(got["all"]) == len(set(got["all"]))
    # dir() lists every export without resolving any
    assert got["not_in_dir"] == []
    assert got["loaded_by_dir"] == [] and got["bound_before_read"] == []
    assert got["not_starred"] == []
    assert got["in_dir_after"] == []
    assert got["unknown"] == f"module {package!r} has no attribute 'no_such_name'"
