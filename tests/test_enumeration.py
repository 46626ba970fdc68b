from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, gcd

import pytest

from corepaths import bijection, cli, enumeration
from corepaths import (
    BudgetError,
    CoreParams,
    CoreStats,
    Partition,
    all_cores_size_stats,
    brute_force_sc_cores,
    build_array,
    core_from_path,
    enumerated_stats,
    iter_paths,
    largest_core,
    verify_pair,
)
from corepaths.enumeration import (
    _largest_excess,
    coprime_pairs,
    fold_path_sizes,
    report_all_pass,
    total_size_from_path_counts,
)

from _reference import average_size_formula, count_paths_not_within, hook_set


def test_iter_paths_2x2_order():
    assert [p.mu.rows for p in iter_paths(2, 2)] == [
        (),
        (1,),
        (2,),
        (1, 1),
        (2, 1),
        (2, 2),
    ]


def test_iter_paths_counts_and_determinism():
    for m in range(1, 6):
        for n in range(1, 6):
            first = list(iter_paths(m, n))
            assert len(first) == comb(m + n, m)
            assert len(set(first)) == len(first)
            assert first == list(iter_paths(m, n))
            for path in first:
                assert (path.m, path.n) == (m, n)
                mu = path.mu.rows
                assert len(mu) <= m and all(r > 0 for r in mu)
                assert all(mu[i] >= mu[i + 1] for i in range(len(mu) - 1))
                assert not mu or mu[0] <= n


def test_iter_paths_order_is_colex_by_definition():
    # the weakly decreasing m-tuples of every value 0..n, sorted by the
    # reversed tuple (last row slowest), zeros dropped
    for m in range(1, 7):
        for n in range(1, 7):
            expected = sorted(
                (mu for mu in product(range(n + 1), repeat=m)
                 if all(a >= b for a, b in zip(mu, mu[1:]))),
                key=lambda mu: mu[::-1],
            )
            got = [p.mu.rows for p in iter_paths(m, n)]
            assert got == [tuple(r for r in mu if r) for mu in expected], (m, n)


@pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (-1, 2), (2, -1), (0, -1)])
def test_iter_paths_refuses_a_box_side_below_one(m, n):
    with pytest.raises(ValueError, match="box dimensions must be positive"):
        next(iter_paths(m, n))


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
                stats = enumeration._staircase_sizes(CoreParams(s, t))
                assert stats == fold_path_sizes(s, t), (s, t)


def test_row_progressions_are_the_array_rows():
    # each (first entry, step) pair, bottom row first, expands to the built
    # array's row
    from corepaths import build_array

    for s in range(2, 22):
        for t in range(2, 22):
            if s != t and gcd(s, t) == 1:
                n = t // 2
                rows = [
                    tuple(range(e, e + n * d, d))
                    for e, d in enumeration._row_progressions(CoreParams(s, t))
                ]
                assert rows[::-1] == list(build_array(s, t).entries), (s, t)


def test_stats_build_their_params_once(monkeypatch):
    made = []
    init = CoreParams.__init__

    def spy(self, s, t):
        made.append((s, t))
        init(self, s, t)

    monkeypatch.setattr(CoreParams, "__init__", spy)
    for s, t in ((8, 11), (11, 8), (3, 2003)):
        made.clear()
        enumerated_stats(s, t)
        assert made == [(s, t)]


def test_stats_never_build_the_array(monkeypatch):
    from corepaths import bijection

    def refuse(s, t):
        raise AssertionError("the stats route built an array")

    monkeypatch.setattr(bijection, "build_array", refuse)
    st = enumerated_stats(101, 103)
    assert (st.count, st.total_size, st.max_size, st.max_multiplicity) == (
        comb(101, 50),
        87125 * comb(101, 50),
        4508400,
        1,
    )


def test_stats_hold_one_row_at_a_time():
    # the (501, 503) box has 250 x 251 cells; the fold keeps one row of 252
    # values in each of its four int lists, and nothing once it returns
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
    # core sizes never tie at the maximum, so small random progressions with
    # many ties (a step of 0 makes a constant row) check the multiplicity of
    # the minimum against every sequence
    import random

    rng = random.Random(6)
    for m in range(1, 6):
        for n in range(1, 6):
            for _ in range(5):
                rows = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(m)]
                above = [
                    sum(e + k * d for (e, d), v in zip(rows, reversed(mu)) for k in range(v))
                    for mu in combinations_with_replacement(range(n + 1), m)
                ]
                assert enumeration._staircase_fold(rows[::-1], n + 1) == (
                    len(above),
                    sum(above),
                    min(above),
                    above.count(min(above)),
                ), (m, n)


def test_staircase_fold_takes_one_step_per_cell():
    # the 7 x 9 box of (15, 19): the fold reads m (first entry, step) pairs,
    # each once, and sums each row's prefix itself
    params = CoreParams(15, 19)
    m, n = params.m, params.n
    assert (m, n) == (7, 9)
    pairs = list(enumeration._row_progressions(params))
    reads = []

    def counted():
        for pair in pairs:
            reads.append(pair)
            yield pair

    assert enumeration._staircase_fold(counted(), n + 1) == enumeration._staircase_fold(pairs, n + 1)
    assert reads == pairs
    assert len(reads) == m == 7


@pytest.mark.parametrize("s, t", [(101, 103), (501, 503)])
def test_staircase_fold_closed_forms_far_over_the_path_budget(s, t):
    m, n = s // 2, t // 2
    fold = enumeration._staircase_sizes(CoreParams(s, t))
    assert fold.count == comb(m + n, m)
    assert 24 * fold.total_size == (s + t + 1) * (s - 1) * (t - 1) * fold.count
    assert fold.max_size == (s * s - 1) * (t * t - 1) // 24
    assert fold.max_multiplicity == 1


def test_staircase_check_fails_when_the_walk_is_off_by_one(monkeypatch, capsys):
    from corepaths.cli import main

    walk = enumeration.fold_path_sizes

    def off_by_one(s, t):
        # one path's above-sum one short: its core one cell larger
        st = walk(s, t)
        return CoreStats(st.count, st.total_size + 1, st.max_size, st.max_multiplicity)

    monkeypatch.setattr(enumeration, "fold_path_sizes", off_by_one)
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
    assert walk == fold_path_sizes(t, s) == enumeration._staircase_sizes(CoreParams(s, t))
    assert walk == enumeration._staircase_sizes(CoreParams(t, s)) == enumerated_stats(t, s)
    assert report_all_pass(verify_pair(s, t))


@pytest.mark.parametrize("s, t", [(3, 3001), (2, 4001)])
def test_wide_one_row_box_stats_equal_the_tall_box_stats(s, t):
    # m = 1 < n: the walk runs untransposed, and its leaf folds the top row
    # once over a second row held at 0; every route agrees with the swapped
    # pair's, whose walk reaches the same leaf through the transpose
    assert s // 2 == 1 < t // 2
    walk = fold_path_sizes(s, t)
    assert walk.count == t // 2 + 1
    assert walk == fold_path_sizes(t, s) == enumeration._staircase_sizes(CoreParams(t, s))
    assert walk == enumeration._staircase_sizes(CoreParams(s, t)) == enumerated_stats(s, t)
    assert report_all_pass(verify_pair(s, t))


def test_above_total_decomposes_into_weighted_table_sums():
    # entry (i, j) is s*t + s + t - 2sj - 2ti, so the path-summed above-total
    # splits into the plain and the row-/column-weighted below-count sums
    from corepaths import build_array
    from corepaths.identities import below_sums

    from _reference import below_count_table

    for s, t in coprime_pairs(13):
        m, n = s // 2, t // 2
        arr = build_array(s, t)
        f = below_count_table(m, n)
        above_total = sum(
            arr.entry(i + 1, j + 1) * f[i][j] for i in range(m) for j in range(n)
        )
        total, by_row, by_col = below_sums(m, n)
        assert above_total == (s * t + s + t) * total - 2 * s * by_col - 2 * t * by_row


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


@pytest.mark.parametrize("budget", [1e3, 2.5])
@pytest.mark.parametrize(
    "entry, s, t",
    [
        (enumerated_stats, 101, 103),
        (verify_pair, 21, 23),
        (brute_force_sc_cores, 21, 23),
        (all_cores_size_stats, 11, 13),
    ],
)
def test_budget_must_be_an_integer(entry, s, t, budget):
    # each job is over 1000 of its units; a float budget is refused as no
    # integer before it is compared, not by a failure while the refusal is
    # written
    with pytest.raises(ValueError, match=f"budget must be an integer, got {budget!r}") as err:
        entry(s, t, budget=budget)
    assert not isinstance(err.value, BudgetError)


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


def _count_row_hooks(monkeypatch):
    """The cuts of every ``_row_hooks`` call from here on."""
    calls = []
    row_hooks = bijection._row_hooks

    def counted(params, cuts):
        calls.append(tuple(cuts))
        return row_hooks(params, cuts)

    for module in (bijection, enumeration, cli):
        monkeypatch.setattr(module, "_row_hooks", counted)
    return calls


def test_containment_reads_only_the_corner_paths(monkeypatch):
    # the containment check reads the two corner paths' hook sets, and
    # largest_hooks one more: no path of the box is enumerated for it
    calls = _count_row_hooks(monkeypatch)
    for s, t in ((16, 17), (17, 16), (3, 2003), (2003, 3)):
        calls.clear()
        assert report_all_pass(verify_pair(s, t))
        assert len(calls) == 3


def test_largest_excess_reads_the_empty_and_the_full_path(monkeypatch):
    params = CoreParams(999, 1001)
    outer = bijection.largest_hooks(params)
    calls = _count_row_hooks(monkeypatch)
    assert _largest_excess(params, outer) == 0
    m, n = params.m, params.n
    assert sorted(calls) == [(0,) * m, (n,) * m]


def test_row_weights_never_fall_down_the_array():
    # with x fixed, row i wholly above a path adds N_i(x) - P_i(x), its
    # |negative| entries >= x less its positive ones: that weight never
    # falls with i, so the sum over the top r rows is convex in r and the
    # largest excess sits on the empty or the full path
    for s, t in coprime_pairs(17):
        for a, b in ((s, t), (t, s)):
            rows = build_array(a, b).entries
            for x in range(1, a * b):
                weights = [
                    sum(v <= -x for v in row) - sum(v >= x for v in row) for row in rows
                ]
                assert weights == sorted(weights), (a, b, x)


@pytest.mark.parametrize("s, t", [(16, 17), (17, 16), (3, 2003), (2003, 3)])
def test_verify_pair_builds_no_array_path_or_partition(monkeypatch, s, t):
    # every check of verify reads numbers: the rows' closed forms, the
    # below-count table and the largest core's hooks
    from corepaths import bijection, partitions

    def refuse(*args, **kwargs):
        raise AssertionError("verify built an object it only reads numbers from")

    for owner, name in [
        (bijection, "build_array"),
        (bijection, "partition_from_diagonal_hooks"),
        (partitions, "partition_from_diagonal_hooks"),
        (Partition, "is_self_conjugate"),
        (Partition, "__init__"),
        (bijection.LatticePath, "__init__"),
        (bijection.CoreArray, "__init__"),
    ]:
        monkeypatch.setattr(owner, name, refuse)
    assert report_all_pass(verify_pair(s, t))


def test_containment_check_counts_what_contains_counts(monkeypatch):
    # stand every path image of (8, 11) in for the largest core: the
    # containment check must fail exactly when the literal containment of
    # some path image does
    params = CoreParams(8, 11)
    images = [core_from_path(path, params) for path in iter_paths(params.m, params.n)]
    for small in images:
        monkeypatch.setattr(enumeration, "largest_hooks", lambda params: small.diagonal_hooks())
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
    arr = build_array(params.s, params.t)
    best = 0
    for mu in combinations_with_replacement(range(params.n + 1), params.m):
        hooks = hook_set(arr, mu[::-1])
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
    # in both orientations of the box
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
    pairs = list(coprime_pairs(6))
    # ordered by t, then s
    assert pairs == [(2, 3), (3, 4), (2, 5), (3, 5), (4, 5), (5, 6)]
    assert all(gcd(s, t) == 1 and 2 <= s < t for s, t in pairs)
