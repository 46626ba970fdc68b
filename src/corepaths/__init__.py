"""corepaths: exact enumeration of self-conjugate (s, t)-core partitions
through lattice paths in the floor(s/2) x floor(t/2) signed hook array,
with independent brute-force oracles and identity verification.

The package exports what the command line and its library entry points
use, plus the types they return; everything else stays importable from
its submodule."""

from .bijection import (
    BudgetError,
    CoreArray,
    CoreParams,
    LatticePath,
    build_array,
    core_from_path,
    largest_core,
    path_from_core,
    path_hook_set,
)
from .enumeration import CoreStats, enumerated_stats, iter_paths, verify_pair
from .identities import identity_report
from .oracles import (
    PartitionSurvey,
    all_cores_size_stats,
    brute_force_sc_cores,
    cores_within,
    survey_partitions,
)
from .partitions import Partition, diagonal_hooks_within

__version__ = "0.1.0"

__all__ = [
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
]
