"""Lazy package exports (PEP 562).

A package ``__init__`` lists its public names in a literal table of
name -> defining module and installs the three names this module builds::

    __getattr__, __dir__, __all__ = lazy_exports(globals(), {
        "ModelParameters": "repro.analytic.parameters",
        "eager": "repro.analytic.eager",
    })

Importing the package then imports none of its submodules; the first
``pkg.Name`` (or ``from pkg import Name``) imports the defining module and
keeps the value in the package namespace.  A name whose defining module is
named after it (``eager`` above) stands for that module.  An unknown name
raises :class:`AttributeError`, so ``from pkg import submodule`` still falls
back to importing the submodule.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Tuple


def lazy_exports(
    namespace: Dict[str, Any], table: Mapping[str, str],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """The package's ``__getattr__``, ``__dir__`` and ``__all__`` for
    ``table``'s names."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            source = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = import_module(source)
        value = (module if source.rpartition(".")[2] == name
                 else getattr(module, name))
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__, list(table)
