"""Exact extremal p-lengths of factorizations.

Numerical semigroups (additive) and arithmetical congruence monoids
(multiplicative), with quasipolynomial detection and a verification
harness replaying every supported claim. All core arithmetic is exact.

Each library module is registered here as a lazy module: it is in
sys.modules at once, but its body runs on first attribute access, so a
process runs only the modules of the command family it uses (`ns`:
semigroup, factor, quasipoly, ns_claims; `acm`: acm, acm46, acm_claims;
both: common, errors, verify). Modules refer to the other family as
`from . import mod` and look `mod.name` up at call time. Registering the
modules, rather than importing them inside the functions that need them,
keeps every module in sys.modules after `import plengths.cli`, where the
benchmark's tracer (bench/tracer.py) looks each traced module up. The public
names below resolve through the module `__getattr__` (PEP 562).

A body runs under one package lock, and a thread that reads a module while
another thread runs its body waits for it, so threads may share modules
that no thread has used yet. factor._TABLE_LOCK guards the tables themselves.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

_MODULES = (
    "errors",
    "common",
    "semigroup",
    "factor",
    "quasipoly",
    "acm",
    "acm46",
    "verify",
    "ns_claims",
    "acm_claims",
)

_LOAD_LOCK = threading.RLock()
_loading: set[str] = set()  # bodies running, all in the thread holding the lock


class _LazyModule(types.ModuleType):
    """A registered module whose body has not run. The first attribute read
    runs it under _LOAD_LOCK and then makes it a plain module. Reads by the
    thread running a body (the import system's, a cycle back into the
    module) pass through; any other thread waits on the lock."""

    def __getattribute__(self, attr):
        with _LOAD_LOCK:
            if type(self) is _LazyModule:
                read = types.ModuleType.__getattribute__
                name = read(self, "__name__")
                if name in _loading:
                    return read(self, attr)
                _loading.add(name)
                try:
                    read(self, "__spec__").loader.exec_module(self)
                finally:
                    _loading.discard(name)
                self.__class__ = types.ModuleType
        return getattr(self, attr)


def _register(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    sys.modules[spec.name] = module
    return module


for _name in _MODULES:
    globals()[_name] = _register(_name)
del _name

# public name: the module that defines it
_HOMES = {
    "Acm": "acm",
    "AcmFactorization": "acm",
    "BudgetExceededError": "errors",
    "ConstructionInvalidError": "errors",
    "ContainsOneError": "errors",
    "DegenerateError": "errors",
    "ExtremalResult": "common",
    "GcdNotOneError": "errors",
    "GrowthSeries": "acm46",
    "ModulusNotInSemigroupError": "errors",
    "NotIdempotentError": "errors",
    "NotInMonoidError": "errors",
    "NotInSemigroupError": "errors",
    "NotMinimalError": "errors",
    "NumericalSemigroup": "semigroup",
    "PlengthsError": "errors",
    "QuasiPolynomial": "quasipoly",
    "RunConfig": "verify",
    "SampleWindow": "quasipoly",
    "SmoothElement": "acm46",
    "ThresholdNotMetError": "errors",
    "VerificationReport": "verify",
    "WindowTooShortError": "errors",
    "closed_len_recurrence": "factor",
    "closed_max_inf": "factor",
    "closed_min_inf": "factor",
    "extremal_plength": "factor",
    "extremal_values": "factor",
    "factorizations": "factor",
    "min2_integer_minimizer": "factor",
    "min2_shift_check": "factor",
    "plength": "common",
    "qp_detect": "quasipoly",
    "qp_fit": "quasipoly",
    "verify_acm": "verify",
    "verify_qp_attributes": "quasipoly",
    "verify_semigroup": "verify",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *__all__})
