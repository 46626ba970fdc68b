"""Every output pinned: the sha256 of each engine's results over a fixed
sweep, so a refactor that changes any output, however slightly, fails here.

Each sweep's results are serialized as compact JSON with sorted keys
(``json.dumps(obj, sort_keys=True, separators=(",", ":"))``), UTF-8
encoded and hashed.  Value objects are written as plain lists or dicts:
a ``CoreStats`` as [count, total_size, max_size, max_multiplicity], a
``Partition`` as its list of rows, a ``PartitionSurvey`` as the dict of
its fields.  The digests were taken from the code before the change that
added this file, and are edited only when an output is meant to change.
"""

import hashlib
import json
from math import gcd

from corepaths import CoreParams
from corepaths.enumeration import _staircase_sizes, fold_path_sizes, verify_pair
from corepaths.identities import identity_report
from corepaths.oracles import all_cores_size_stats, brute_force_sc_cores, survey_partitions


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _stats(stats) -> list:
    return [stats.count, stats.total_size, stats.max_size, stats.max_multiplicity]


def _pairs(limit: int) -> list[tuple[int, int]]:
    """Coprime s != t, both from 2 to limit - 1, in either order."""
    return [
        (s, t)
        for s in range(2, limit)
        for t in range(2, limit)
        if s != t and gcd(s, t) == 1
    ]


def test_verify_reports_and_path_walk_below_22():
    results = [[verify_pair(s, t), _stats(fold_path_sizes(s, t))] for s, t in _pairs(22)]
    assert _digest(results) == "628fba89149ba370362986843000af2e371e80d506f701d5a7d694405de98cea"


def test_staircase_stats_below_60():
    results = [[s, t, _stats(_staircase_sizes(CoreParams(s, t)))] for s, t in _pairs(60)]
    assert _digest(results) == "2af51a14686b117a66b28f53b49a72506f7bd6e9f15c7ed8142869a6c6728a88"


def test_identity_reports_to_24():
    results = [identity_report(m, n) for m in range(1, 25) for n in range(1, 25)]
    assert _digest(results) == "b66993e9dd45cb8b4bc8637193f45acc21420e74f879cade70fca6b973410fa6"


def test_oracles_to_11():
    results = []
    for s, t in _pairs(12):
        if s < t:
            survey = survey_partitions(s, t, s + t)
            results.append({
                "s": s,
                "t": t,
                "sc_cores": [list(p.rows) for p in brute_force_sc_cores(s, t)],
                "all_cores": list(all_cores_size_stats(s, t)),
                "survey": {f: getattr(survey, f) for f in survey._fields},
            })
    assert _digest(results) == "cf396fc2077133d5cf7d9a24ebbb68a2271c7775f6fae034ae99a8435b071d05"
