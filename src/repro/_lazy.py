"""Lazy package surfaces (PEP 562).

A package names the submodule that defines each of its public names.
A name is imported on first access and cached in the package's globals,
so importing one submodule never loads its siblings: the simulation
jobs import only what they execute, and ``scipy`` and the SVG writer
load only for the analyses that call them.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_surface(
    package: str,
    namespace: Dict[str, Any],
    exports: Dict[str, Sequence[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """Return ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps each submodule, relative to ``package``, to the
    public names it defines; ``namespace`` is the package's ``globals()``.
    Any other public name that is a submodule is imported on access, so
    ``import repro; repro.core.model`` keeps working.
    """
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is not None:
            value = namespace[name] = getattr(import_module(module, package), name)
            return value
        if name.isidentifier() and not name.startswith("_"):
            try:
                return import_module(f".{name}", package)
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__, list(owners)
