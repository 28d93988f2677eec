"""Steady-state and time-domain models of strongly pumped lasers.

Closed two-level and three-level atoms with incoherent pumping: exact
steady-state photon numbers, lasing thresholds and windows, optimum-pump
reports, and a Maxwell-Bloch integrator that independently verifies every
closed form.  The ``lasekit`` CLI prints steady-state and region reports
as text or JSON, and writes sweeps, dynamics runs and the bundled figure
presets as CSV or JSON.

A public name is declared once, in the ``__all__`` of the module that
defines it.  ``lasekit.<name>`` is loaded on first access (PEP 562) from
the first of ``params``, ``steady``, ``numerics`` and ``dynamics`` whose
``__all__`` lists it, importing only the modules up to that one; so
``IntegratorConfig``, which ``dynamics`` re-exports, comes from
``params``.  ``lasekit.__all__``, ``dir(lasekit)`` and ``from lasekit
import *`` load all four; ``dir(lasekit)`` lists no public name but
those of ``__all__``.  ``import lasekit`` loads none of them; neither
it nor any ``lasekit`` command loads numpy.  The names of ``numerics``
and ``dynamics`` that return arrays load it when called, from the
``arrays`` extra: ``pip install 'lasekit[arrays]'``.
"""

import importlib as _importlib

__version__ = "0.1.0"

# the modules whose __all__ the package exports, in lookup order
_MODULES = ("params", "steady", "numerics", "dynamics")


def _module(name: str):
    return _importlib.import_module(f".{name}", __name__)


def __getattr__(name: str) -> object:
    if name == "__all__":
        value = sorted({n for m in _MODULES for n in _module(m).__all__})
    else:
        # ``from . import steady`` probes the package for a submodule name
        # before loading it; searching for it here would import the others
        private = name.startswith("_") or name in (*_MODULES, "cli")
        home = None if private else next(
            (m for m in map(_module, _MODULES) if name in m.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    # the exports and the private names: no submodule a first access loaded
    return sorted({n for n in globals() if n.startswith("_")} | set(__getattr__("__all__")))
