"""corepaths: exact enumeration of self-conjugate (s, t)-core partitions
through lattice paths in the floor(s/2) x floor(t/2) signed hook array,
with independent brute-force oracles and identity verification.

The package exports what the command line and its library entry points
use, plus the types they return; everything else stays importable from
its submodule.  Each export is imported from its submodule on first access
(PEP 562), so ``import corepaths`` loads no submodule and a command line
process loads only the modules its command runs."""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it, in the order of __all__
_EXPORTS = {
    "BudgetError": "bijection",
    "CoreArray": "bijection",
    "CoreParams": "bijection",
    "CoreStats": "enumeration",
    "LatticePath": "bijection",
    "Partition": "partitions",
    "PartitionSurvey": "oracles",
    "build_array": "bijection",
    "core_from_path": "bijection",
    "path_from_core": "bijection",
    "path_hook_set": "bijection",
    "largest_core": "bijection",
    "iter_paths": "enumeration",
    "enumerated_stats": "enumeration",
    "verify_pair": "enumeration",
    "identity_report": "identities",
    "diagonal_hooks_within": "partitions",
    "all_cores_size_stats": "oracles",
    "brute_force_sc_cores": "oracles",
    "cores_within": "oracles",
    "survey_partitions": "oracles",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
