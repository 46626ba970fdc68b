from fractions import Fraction
from math import comb, gcd

import pytest

from corepaths import enumeration
from corepaths import (
    BudgetError,
    CoreArray,
    CoreParams,
    Partition,
    build_array,
    core_from_path,
    enumerated_stats,
    iter_paths,
    largest_core,
    verify_pair,
)
from corepaths.enumeration import (
    _largest_excess,
    average_size_formula,
    coprime_pairs,
    fold_path_sizes,
    iter_box_partitions,
    report_all_pass,
    total_size_from_path_counts,
)

from _reference import count_paths_not_within


def test_iter_box_partitions_2x2_order():
    assert list(iter_box_partitions(2, 2)) == [
        (0, 0),
        (1, 0),
        (2, 0),
        (1, 1),
        (2, 1),
        (2, 2),
    ]


def test_iter_box_partitions_counts_and_determinism():
    for m in range(1, 6):
        for n in range(1, 6):
            first = list(iter_box_partitions(m, n))
            assert len(first) == comb(m + n, m)
            assert len(set(first)) == len(first)
            assert first == list(iter_box_partitions(m, n))
            for mu in first:
                assert all(mu[i] >= mu[i + 1] for i in range(m - 1))
                assert mu[0] <= n


def test_iter_paths_counts():
    assert len(list(iter_paths(1, 1))) == 2
    assert len(list(iter_paths(4, 5))) == 126
    assert len(list(iter_paths(2, 2))) == 6
    mus = {p.mu.rows for p in iter_paths(2, 2)}
    assert mus == {(), (1,), (2,), (1, 1), (2, 1), (2, 2)}


def test_enumerated_stats_examples():
    st = enumerated_stats(2, 3)
    assert (st.count, st.total_size, st.average_size, st.max_size) == (
        2,
        1,
        Fraction(1, 2),
        1,
    )
    st = enumerated_stats(3, 4)
    assert (st.count, st.total_size, st.average_size, st.max_size) == (
        3,
        6,
        Fraction(2),
        5,
    )
    st = enumerated_stats(8, 11)
    assert (st.count, st.total_size, st.average_size, st.max_size) == (
        126,
        7350,
        Fraction(175, 3),
        315,
    )


def test_enumerated_stats_against_naive_fold():
    for s, t in [(2, 3), (3, 4), (5, 6), (8, 11), (5, 8)]:
        params = CoreParams(s, t)
        sizes = [core_from_path(p, params).size for p in iter_paths(params.m, params.n)]
        st = enumerated_stats(s, t)
        assert st.count == len(sizes)
        assert st.total_size == sum(sizes)
        assert st.max_size == max(sizes)
        fold = fold_path_sizes(s, t)
        assert fold.max_multiplicity == sizes.count(max(sizes)) == 1


def test_staircase_fold_equals_path_walk():
    # CoreStats equality compares count, total, max and max multiplicity
    for s in range(2, 22):
        for t in range(2, 22):
            if s != t and gcd(s, t) == 1:
                assert enumeration._staircase_sizes(s, t) == fold_path_sizes(s, t), (s, t)


def test_prefix_rows_are_the_array_row_prefix_sums():
    # the closed-form rows, bottom row first, against the built array's
    from itertools import accumulate

    from corepaths import build_array

    for s in range(2, 22):
        for t in range(2, 22):
            if s != t and gcd(s, t) == 1:
                rows = list(enumeration._prefix_rows(CoreParams(s, t)))
                expected = [tuple(accumulate(row, initial=0)) for row in build_array(s, t).entries]
                assert rows[::-1] == expected, (s, t)


def test_stats_never_build_the_array(monkeypatch):
    from corepaths import bijection

    def refuse(s, t):
        raise AssertionError("the stats route built an array")

    monkeypatch.setattr(bijection, "build_array", refuse)
    monkeypatch.setattr(enumeration, "build_array", refuse)
    st = enumerated_stats(101, 103)
    assert (st.count, st.total_size, st.max_size, st.max_multiplicity) == (
        comb(101, 50),
        87125 * comb(101, 50),
        4508400,
        1,
    )


def test_stats_hold_one_row_at_a_time():
    # the (501, 503) box has 250 x 251 cells; the fold keeps one row of 252
    # semiring values, and nothing once it returns
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        st = enumerated_stats(501, 503)
        assert st.average_size == average_size_formula(501, 503)
        del st
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 10**6
    assert kept - before < 10**3


def test_staircase_fold_on_tied_weights():
    # core sizes never tie at the maximum, so small random weights with many
    # ties check the multiplicity of the minimum against every sequence
    import random

    rng = random.Random(6)
    for m in range(1, 5):
        for n in range(1, 5):
            for _ in range(5):
                weights = [[rng.randint(-2, 2) for _ in range(n + 1)] for _ in range(m)]
                above = [
                    sum(row[v] for row, v in zip(weights, mu))
                    for mu in iter_box_partitions(m, n)
                ]
                assert enumeration._staircase_fold(
                    weights[::-1],
                    n + 1,
                    enumeration._SIZE_UNIT,
                    enumeration._size_shift,
                    enumeration._size_combine,
                ) == (len(above), sum(above), min(above), above.count(min(above)))


@pytest.mark.parametrize("s, t", [(101, 103), (501, 503)])
def test_staircase_fold_closed_forms_far_over_the_path_budget(s, t):
    m, n = s // 2, t // 2
    fold = enumeration._staircase_sizes(s, t)
    assert fold.count == comb(m + n, m)
    assert 24 * fold.total_size == (s + t + 1) * (s - 1) * (t - 1) * fold.count
    assert fold.max_size == (s * s - 1) * (t * t - 1) // 24
    assert fold.max_multiplicity == 1


def test_staircase_check_fails_when_the_walk_is_off_by_one(monkeypatch, capsys):
    from corepaths.cli import main

    walk = enumeration._iter_above_sums

    def off_by_one(prefix, n):
        # the second path's above-sum one short: its core one cell larger
        for k, above in enumerate(walk(prefix, n)):
            yield above - (k == 1)

    monkeypatch.setattr(enumeration, "_iter_above_sums", off_by_one)
    report = verify_pair(8, 11)
    failed = [c for c in report["checks"] if not c["pass"]]
    assert failed == [
        {
            "name": "staircase_matches_walk",
            "pass": False,
            "lhs": [126, 7350, 315, 1],
            "rhs": [126, 7351, 315, 1],
        }
    ]
    # the reported statistics are the staircase fold's, not the walk's
    assert report["total"] == 7350
    assert main(["verify", "--s", "8", "--t", "11"]) == 1
    assert "staircase_matches_walk" in capsys.readouterr().out


def test_average_size_formula_examples():
    assert average_size_formula(2, 3) == Fraction(1, 2)
    assert average_size_formula(3, 4) == 2
    assert average_size_formula(8, 11) == Fraction(175, 3)
    with pytest.raises(ValueError, match="not coprime"):
        average_size_formula(4, 6)


def test_total_size_from_path_counts_examples():
    assert total_size_from_path_counts(2, 3) == 1
    assert total_size_from_path_counts(3, 4) == 6
    assert total_size_from_path_counts(8, 11) == 7350
    with pytest.raises(ValueError, match="not coprime"):
        total_size_from_path_counts(4, 6)


def test_exact_identities_sweep_to_13():
    for s, t in coprime_pairs(13):
        st = enumerated_stats(s, t)
        m, n = s // 2, t // 2
        assert st.count == comb(m + n, m)
        assert st.total_size == total_size_from_path_counts(s, t)
        assert st.average_size == average_size_formula(s, t)
        assert st.max_size == (s * s - 1) * (t * t - 1) // 24


def test_exact_identities_larger_pair():
    # 184756 paths, still exact
    st = enumerated_stats(20, 21)
    assert st.count == comb(20, 10)
    assert st.average_size == average_size_formula(20, 21)
    assert st.total_size == total_size_from_path_counts(20, 21)
    assert st.max_size == (20 * 20 - 1) * (21 * 21 - 1) // 24


def test_statistics_symmetric_in_s_and_t():
    # swapping (s, t) transposes the box but describes the same core set
    for s, t in [(11, 4), (3, 2), (13, 8)]:
        a = enumerated_stats(s, t)
        b = enumerated_stats(t, s)
        assert (a.count, a.total_size, a.max_size) == (b.count, b.total_size, b.max_size)
        params, swapped = CoreParams(s, t), CoreParams(t, s)
        image = {core_from_path(p, params).rows for p in iter_paths(params.m, params.n)}
        other = {
            core_from_path(p, swapped).rows for p in iter_paths(swapped.m, swapped.n)
        }
        assert image == other


@pytest.mark.parametrize("s, t", [(13, 4), (21, 5), (101, 3), (41, 6), (3001, 3)])
def test_tall_box_stats_equal_the_wide_box_stats(s, t):
    # m > n: the walk runs on the transposed (t, s) table, and every route
    # agrees with the swapped pair's
    assert s // 2 > t // 2
    walk = fold_path_sizes(s, t)
    assert walk == fold_path_sizes(t, s) == enumeration._staircase_sizes(s, t)
    assert walk == enumeration._staircase_sizes(t, s) == enumerated_stats(t, s)
    assert report_all_pass(verify_pair(s, t))


def test_above_total_decomposes_into_weighted_table_sums():
    # entry (i, j) is s*t + s + t - 2sj - 2ti, so the path-summed above-total
    # splits into the plain and the row-/column-weighted below-count sums
    from corepaths import build_array
    from corepaths.identities import (
        below_count_table,
        sum_below,
        sum_below_times_col,
        sum_below_times_row,
    )

    for s, t in coprime_pairs(13):
        m, n = s // 2, t // 2
        arr = build_array(s, t)
        f = below_count_table(m, n)
        above_total = sum(
            arr.entry(i + 1, j + 1) * f[i][j] for i in range(m) for j in range(n)
        )
        assert above_total == (
            (s * t + s + t) * sum_below(m, n)
            - 2 * s * sum_below_times_col(m, n)
            - 2 * t * sum_below_times_row(m, n)
        )


def test_budget_guard():
    # stats folds the m * n = 64 cells of the 8 x 8 box, verify walks its
    # C(16, 8) paths
    assert enumerated_stats(16, 17, budget=64).count == comb(16, 8)
    with pytest.raises(BudgetError) as err:
        enumerated_stats(16, 17, budget=63)
    assert (err.value.required, err.value.budget) == (64, 63)
    assert str(err.value).startswith("staircase DP needs 64 cells, over the budget of 63")
    with pytest.raises(BudgetError) as err:
        verify_pair(16, 17, budget=100)
    assert err.value.required == comb(16, 8)
    assert err.value.budget == 100


def test_stats_far_over_the_path_count_are_within_the_cell_budget():
    st = enumerated_stats(101, 103)
    assert st.count == comb(101, 50)
    assert st.average_size == Fraction(87125, 1)
    assert st.max_size == 4508400


def test_budget_error_text_for_each_unit():
    assert [str(BudgetError(unit, 15, 1)) for unit in ("path", "cell", "core")] == [
        "enumeration needs 15 paths, over the budget of 1; raise the budget to proceed",
        "staircase DP needs 15 cells, over the budget of 1; raise the budget to proceed",
        "brute-force search lists 15 cores, over the budget of 1; raise the budget to proceed",
    ]


def test_budget_error_states_the_digit_count_of_huge_counts():
    from corepaths.bijection import decimal_digits

    for k in range(120):
        for n in (10**k - 1, 10**k, 10**k + 1, 2**k, -(3**k)):
            assert decimal_digits(n) == len(str(abs(n)))
    assert str(BudgetError("path", 10**99, 10)).startswith(f"enumeration needs {10**99} paths")
    # 10**5000 is past Python's 4300-digit int->str limit
    err = BudgetError("path", 10**5000, 10**5000 - 1)
    assert str(err) == (
        "enumeration needs at least 10^5000 (5001 digits) paths, over the budget "
        "of at least 10^4999 (5000 digits); raise the budget to proceed"
    )


def test_verify_pair_passes_and_serializes():
    report = verify_pair(8, 11)
    assert report_all_pass(report)
    assert report["count"] == 126
    assert report["total"] == 7350
    assert report["average"] == {"num": 175, "den": 3}
    assert report["max"] == 315
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "count_is_binomial",
        "total_matches_path_counts",
        "total_matches_average_formula",
        "max_is_closed_form",
        "max_attained_once",
        "staircase_matches_walk",
        "largest_core_contains_all",
    ]
    import json

    json.dumps(report)  # must be JSON-serializable as-is


def test_verify_pair_smallest_case():
    assert report_all_pass(verify_pair(2, 3))


def test_verify_pair_rejects_non_coprime():
    with pytest.raises(ValueError, match="not coprime"):
        verify_pair(4, 6)


def test_verify_pair_checks_containment_past_the_old_sweep_limit():
    # (19, 23) has C(20, 9) = 167,960 paths, over the 10**5 the per-path
    # sweep stopped at
    report = verify_pair(19, 23)
    assert report["count"] == comb(20, 9) == 167960
    (check,) = [c for c in report["checks"] if c["name"] == "largest_core_contains_all"]
    assert check == {"name": "largest_core_contains_all", "pass": True, "lhs": 0, "rhs": 0}
    assert report_all_pass(report)


def test_containment_reads_only_the_corner_paths(monkeypatch):
    # the containment check reads min(m, n) + 1 hook sets, and largest_core
    # one more: no path of the box is enumerated for it
    calls = []
    hook_set = CoreArray.hook_set
    monkeypatch.setattr(
        CoreArray, "hook_set", lambda arr, cuts: calls.append(cuts) or hook_set(arr, cuts)
    )
    for s, t in ((16, 17), (17, 16), (3, 2003), (2003, 3)):
        calls.clear()
        params = CoreParams(s, t)
        assert report_all_pass(verify_pair(s, t))
        assert len(calls) == min(params.m, params.n) + 2


def test_containment_check_counts_what_contains_counts(monkeypatch):
    # stand every path image of (8, 11) in for the largest core: the
    # containment check must fail exactly when the literal containment of
    # some path image does
    params = CoreParams(8, 11)
    images = [core_from_path(path, params) for path in iter_paths(params.m, params.n)]
    for small in images:
        monkeypatch.setattr(enumeration, "largest_core", lambda params: small)
        (check,) = [
            c
            for c in verify_pair(8, 11)["checks"]
            if c["name"] == "largest_core_contains_all"
        ]
        literal = sum(1 for core in images if not small.contains(core))
        assert (check["lhs"] > 0) == (literal > 0)
        assert check["pass"] == (literal == 0)
        assert check["pass"] == (small == largest_core(params))


def _literal_largest_excess(params, outer):
    # the largest #{h >= x} - #{outer >= x} over every path's hook set h
    # and every hook x of h, by the definition
    hook_set = build_array(params.s, params.t).hook_set
    best = 0
    for mu in iter_box_partitions(params.m, params.n):
        hooks = hook_set(mu)
        for x in hooks:
            best = max(best, sum(h >= x for h in hooks) - sum(o >= x for o in outer))
    return best


def test_largest_excess_agrees_with_the_sweep_on_every_pair_to_17():
    for s, t in coprime_pairs(17):
        for params in (CoreParams(s, t), CoreParams(t, s)):
            outer = largest_core(params).diagonal_hooks()
            excess = _largest_excess(params, outer)
            assert excess == count_paths_not_within(params, outer) == 0


def test_largest_excess_agrees_with_the_sweep_on_path_images():
    # every path image of five pairs stands in for the largest core, read
    # in both orientations of the box (row corners, then column corners)
    cases = failing = 0
    for s, t in ((8, 11), (7, 9), (9, 10), (5, 12), (6, 13)):
        params = CoreParams(s, t)
        for path in iter_paths(params.m, params.n):
            outer = core_from_path(path, params).diagonal_hooks()
            for box in (params, CoreParams(t, s)):
                excess = _largest_excess(box, outer)
                swept = count_paths_not_within(box, outer)
                assert (excess > 0) == (swept > 0)
                assert excess == _literal_largest_excess(box, outer)
            cases += 1
            failing += swept > 0
    assert cases == 399
    assert 0 < failing < cases


def test_coprime_pairs():
    pairs = coprime_pairs(6)
    # ordered by t, then s
    assert pairs == [(2, 3), (3, 4), (2, 5), (3, 5), (4, 5), (5, 6)]
    assert all(gcd(s, t) == 1 and 2 <= s < t for s, t in pairs)
