"""Package facades that import a name's module on first access (PEP 562).

Each package ``__init__`` declares which submodule defines each public
name and hands the table to :func:`exports`::

    __all__, __getattr__, __dir__ = exports(__name__, {
        ".model": ("Graph", "Oid"),
        ".values": ("Atom",),
    })

``import repro.graph.model`` then runs only what ``model`` itself
imports, while ``from repro.graph import Graph`` and ``repro.graph.Oid``
keep working: the first access imports the defining module and caches
the value in the package namespace, so later accesses are plain
attribute reads.  An attribute that names a submodule (``repro.site.
buildcache``) imports that submodule, as an eager ``__init__`` that
imported it would have made it available.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable


def exports(package: str, table: dict[str, tuple[str, ...]]) -> tuple[
        list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``table`` maps a module (relative to ``package`` when it starts with
    a dot) to the public names it defines.
    """
    home = {name: module for module, names in table.items()
            for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
        else:
            qualified = f"{package}.{name}"
            try:
                value = importlib.import_module(qualified)
            except ModuleNotFoundError as error:
                if error.name != qualified:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}") \
                    from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return sorted(home), __getattr__, __dir__
