"""Formation calculus on concrete finite groups.

Groups live as full Cayley tables; class specs are parseable descriptions of
group classes whose membership is decided structurally.  The package computes
isolated sets and maximal-member intersections, subnormal chain witnesses,
chief series and hypercenters, and the supernatural-number lattice that
indexes the exponent-defined classes.

Importing the package loads none of its modules.  `from formatio import X`
loads a submodule X, or else the library modules in the order of `_MODULES`
until one defines the public name X (PEP 562).
"""

import importlib
import importlib.util
from types import ModuleType

__version__ = "0.1.0"

_MODULES = ("groups", "constructions", "structure", "classes", "subnormality",
            "regularity", "supernatural")


def __getattr__(name: str):
    if name.isidentifier() and importlib.util.find_spec(f"{__name__}.{name}"):
        return importlib.import_module(f"{__name__}.{name}")
    if not name.startswith("_"):
        for module_name in _MODULES:
            module = importlib.import_module(f"{__name__}.{module_name}")
            value = getattr(module, name, module)
            home = getattr(value, "__module__", module.__name__)
            # a name a module imports (math, or groups' math.gcd) is not its own
            if not isinstance(value, ModuleType) and home == module.__name__:
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
