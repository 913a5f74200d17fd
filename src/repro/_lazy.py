"""Package exports that resolve on first use (PEP 562).

A package ``__init__`` that imports every module below it makes each
process pay for all of them, although a tuning campaign, a history server
and a report each run only a few.  :func:`lazy_exports` gives a package a
module ``__getattr__`` that imports a public name's module the first time
the name is read, and a ``__dir__`` that lists the names not yet read.
``from pkg import Name`` and ``from pkg import *`` go through the same
``__getattr__``, so callers see no difference.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module path relative to ``package`` (``".mla"``,
    ``"..runtime.resilience"``) to the public names it provides.  A name
    read for the first time is imported from its module and bound in the
    package, so later reads cost a dict lookup; an unknown name raises
    :class:`AttributeError` naming the package.
    """
    where: Dict[str, str] = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        """Import a public name's module on first access (PEP 562)."""
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        """Module attributes plus the not yet resolved public names."""
        return sorted(set(vars(sys.modules[package])) | set(where))

    return list(where), __getattr__, __dir__
