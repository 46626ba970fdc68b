import copy
import importlib
import inspect
import pickle
import pkgutil
import sys

import pytest

import corepaths
from corepaths import (
    CoreArray,
    CoreParams,
    CoreStats,
    LatticePath,
    Partition,
    PartitionSurvey,
    build_array,
)
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


def test_exports_resolve_lazily_to_their_submodule_objects():
    for name in corepaths.__all__:
        obj = getattr(corepaths, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
    assert set(dir(corepaths)) >= PUBLIC


def test_star_import_binds_every_export():
    namespace = {}
    exec("from corepaths import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        corepaths.no_such_name
    assert not hasattr(corepaths, "iter_partitions")


# each value class: its fields, and the repr a dataclass of them would give
VALUES = [
    (Partition, {"rows": (4, 3, 3, 2)}, "Partition(rows=(4, 3, 3, 2))"),
    (CoreParams, {"s": 8, "t": 11}, "CoreParams(s=8, t=11)"),
    (
        LatticePath,
        {"m": 4, "n": 5, "mu": Partition((4, 3, 3, 2))},
        "LatticePath(m=4, n=5, mu=Partition(rows=(4, 3, 3, 2)))",
    ),
    (
        CoreStats,
        {"count": 126, "total_size": 7350, "max_size": 315, "max_multiplicity": 1},
        "CoreStats(count=126, total_size=7350, max_size=315, max_multiplicity=1)",
    ),
    (
        PartitionSurvey,
        {"scanned": 3, "cores": 2, "core_size_total": 1, "outside_largest": 0, "visited": 1},
        "PartitionSurvey(scanned=3, cores=2, core_size_total=1, outside_largest=0, visited=1)",
    ),
]


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_classes_compare_hash_and_print_by_field(cls, fields, text):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and hash(a) == hash(b)
    assert a != object() and not (a == object())
    assert repr(a) == text
    for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert copied == a and type(copied) is cls
    for name, value in fields.items():
        assert getattr(a, name) == value
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.other = 1
    assert set(fields) == set(inspect.signature(cls).parameters)


def test_core_array_compares_by_identity_and_omits_entries_from_repr():
    arr = build_array(8, 11)
    twin = CoreArray(arr.params, arr.entries)
    assert arr == arr and arr != twin and hash(arr) != hash(twin)
    assert repr(arr) == "CoreArray(params=CoreParams(s=8, t=11))"
    assert twin.hook_set((0, 0, 0, 0)) == arr.hook_set((0, 0, 0, 0))
    for name in ("params", "entries"):
        with pytest.raises(AttributeError):
            setattr(arr, name, None)
    copied = pickle.loads(pickle.dumps(arr))
    assert (copied.params, copied.entries) == (arr.params, arr.entries)
