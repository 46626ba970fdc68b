import importlib
import inspect
import pkgutil

import corepaths
from corepaths.bijection import LatticePath
from corepaths.enumeration import verify_pair

PUBLIC = {
    "BudgetError",
    "CoreArray",
    "CoreParams",
    "CoreStats",
    "LatticePath",
    "Partition",
    "PartitionSurvey",
    "build_array",
    "core_from_path",
    "path_from_core",
    "path_hook_set",
    "largest_core",
    "iter_paths",
    "enumerated_stats",
    "verify_pair",
    "identity_report",
    "diagonal_hooks_within",
    "all_cores_size_stats",
    "brute_force_sc_cores",
    "cores_within",
    "survey_partitions",
}

# the exponential references live in tests/_reference.py; the wrapper
# brute_force_all_cores_count is gone
REMOVED = {
    "iter_partitions",
    "iter_partitions_up_to",
    "iter_subpartitions",
    "below_count_table_by_enumeration",
    "column_pair_total",
    "is_t_core_scan",
    "hook_set_is_t_core",
    "core_size_from_path",
    "brute_force_all_cores_count",
}


def test_all_is_the_public_names_and_each_resolves():
    assert len(corepaths.__all__) == len(PUBLIC) == 21
    assert set(corepaths.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(corepaths, name) is not None, name


def test_removed_names_are_in_no_module():
    modules = [corepaths] + [
        importlib.import_module(f"corepaths.{info.name}")
        for info in pkgutil.iter_modules(corepaths.__path__)
    ]
    assert len(modules) == 7
    for module in modules:
        assert not REMOVED & set(vars(module)), module.__name__
    assert not hasattr(LatticePath, "is_above")
    assert "oracle_budget" not in inspect.signature(verify_pair).parameters
