import inspect
import sys
from math import comb

import pytest

from corepaths import (
    BudgetError,
    CoreParams,
    Partition,
    all_cores_size_stats,
    brute_force_all_cores_count,
    brute_force_sc_cores,
    core_from_path,
    coprime_pairs,
    cores_within,
    is_t_core,
    iter_partitions,
    iter_partitions_up_to,
    iter_paths,
    largest_core,
    partition_from_diagonal_hooks,
    survey_partitions,
)
from corepaths.oracles import iter_subpartitions


def _reference_partitions(n, cap=None):
    # simple recursive generator used only to pin down iter_partitions
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _reference_partitions(n - first, first):
            yield (first,) + rest


def test_iter_partitions_matches_reference():
    for n in range(12):
        assert sorted(iter_partitions(n)) == sorted(_reference_partitions(n))


def test_iter_partitions_up_to():
    assert sorted(iter_partitions_up_to(3)) == sorted(
        [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    )


def test_iter_subpartitions_examples():
    inside = list(iter_subpartitions((3, 1, 1)))
    assert len(inside) == len(set(inside)) == 10
    assert set(inside) == {
        rows
        for rows in iter_partitions_up_to(5)
        if Partition((3, 1, 1)).contains(Partition(rows))
    }
    assert list(iter_subpartitions(())) == [()]


def _cores_by_literal_filter(s, t):
    lam = largest_core(CoreParams(s, t))
    limit = lam.size
    out = []
    for rows in iter_partitions_up_to(limit):
        p = Partition(rows)
        if lam.contains(p) and is_t_core(p, s) and is_t_core(p, t):
            out.append(rows)
    return sorted(out)


def test_cores_within_matches_literal_filter():
    for s, t in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (5, 6), (3, 8)]:
        lam = largest_core(CoreParams(s, t))
        found = cores_within(lam.rows, s, t)
        assert len(found) == len(set(found))
        assert sorted(found) == _cores_by_literal_filter(s, t)


def test_cores_within_output_is_verified_core_set():
    # every emitted partition really is a core; nothing inside the shape
    # is missed (checked against the unpruned subpartition walk)
    lam = largest_core(CoreParams(4, 5))
    found = set(cores_within(lam.rows, 4, 5))
    for rows in iter_subpartitions(lam.rows):
        p = Partition(rows)
        expected = is_t_core(p, 4) and is_t_core(p, 5)
        assert (rows in found) == expected


def test_cores_within_rechecks_what_the_walk_emits(monkeypatch):
    # with pruning switched off the walk emits every subpartition; the
    # honest re-check must still leave exactly the cores
    import corepaths.oracles as oracles

    lam = largest_core(CoreParams(4, 5))
    expected = cores_within(lam.rows, 4, 5)
    monkeypatch.setattr(oracles, "_dirty_bound", lambda a, v, s, t: 0)
    assert len(list(oracles._core_walk(lam.rows, 4, 5, lam.size))) > len(expected)
    assert cores_within(lam.rows, 4, 5) == expected
    assert brute_force_all_cores_count(4, 5) == 14


def _reference_dirty_bound(rows, s, t):
    # the O(k) scan: every fixed row, both forbidden hooks
    k = len(rows)
    w = rows[-1]
    bound = 0
    for i in range(1, k + 1):
        base = rows[i - 1] + k - i + 1  # hook of cell (i, j) is base - j
        for f in (s, t):
            j = base - f
            if bound < j <= w:
                bound = j
    return bound


def _reference_walk(shape, s, t, max_size):
    # the pruned walk by recursion, on the O(k) scan
    out = [()]
    rows = []

    def extend(cap, low, size):
        for v in range(cap, low - 1, -1):
            rows.append(v)
            bound = _reference_dirty_bound(rows, s, t)
            if bound == 0:
                out.append(tuple(rows))
            k = len(rows)
            below = min(v, shape[k], max_size - size - v) if k < len(shape) else 0
            extend(below, max(bound, 1), size + v)
            rows.pop()

    extend(min(shape[0], max_size) if shape else 0, 1, 0)
    return out


def _walk_cases(max_t, max_limit):
    # (shape, s, t, max_size): the largest core, then size-capped boxes
    for s, t in coprime_pairs(max_t):
        lam = largest_core(CoreParams(s, t))
        yield lam.rows, s, t, lam.size
        for limit in range(max_limit + 1):
            yield (limit,) * limit, s, t, limit


def test_dirty_bound_matches_the_row_scan_on_every_visited_prefix(monkeypatch):
    import corepaths.oracles as oracles

    bisected = oracles._dirty_bound
    calls = [0]

    def checked(a, v, s, t):
        rows = [i - x for i, x in enumerate(a, start=1)]
        assert rows[-1] == v
        got = bisected(a, v, s, t)
        assert got == _reference_dirty_bound(rows, s, t), (rows, s, t)
        calls[0] += 1
        return got

    monkeypatch.setattr(oracles, "_dirty_bound", checked)
    for shape, s, t, max_size in _walk_cases(9, 20):
        calls[0] = 0
        visited = [0]
        for _ in oracles._core_walk(shape, s, t, max_size, visited):
            pass
        # one bound per appended prefix, and the walk counts them all
        assert visited[0] == calls[0], (shape, s, t)


def test_core_walk_emits_the_row_scan_walk_sequence():
    import corepaths.oracles as oracles

    for shape, s, t, max_size in _walk_cases(9, 25):
        assert list(oracles._core_walk(shape, s, t, max_size)) == _reference_walk(
            shape, s, t, max_size
        ), (shape, s, t)


def test_anderson_counts():
    for s, t in coprime_pairs(8):
        count = brute_force_all_cores_count(s, t)
        assert count * (s + t) == comb(s + t, s), (s, t)


def test_anderson_count_examples():
    assert brute_force_all_cores_count(2, 3) == 2
    assert brute_force_all_cores_count(3, 4) == 5
    assert brute_force_all_cores_count(4, 5) == 14


def test_oracle_budget_guard():
    # the budget counts the cores each search lists: C(15, 7)/15 = 429 for
    # all (7, 8)-cores, C(12, 6) = 924 self-conjugate (12, 13)-cores
    with pytest.raises(BudgetError) as err:
        brute_force_all_cores_count(7, 8, budget=428)
    assert err.value.required == 429
    assert brute_force_all_cores_count(7, 8, budget=429) == 429
    with pytest.raises(BudgetError) as err:
        brute_force_sc_cores(12, 13, budget=923)
    assert err.value.required == 924
    assert len(brute_force_sc_cores(12, 13, budget=924)) == 924


def test_sc_cores_examples():
    assert [p.rows for p in brute_force_sc_cores(2, 3)] == [(), (1,)]
    assert [p.rows for p in brute_force_sc_cores(3, 4)] == [(), (1,), (3, 1, 1)]


def test_sc_cores_sorted_by_size_then_rows():
    cores = brute_force_sc_cores(8, 11)
    keys = [(p.size, p.rows) for p in cores]
    assert keys == sorted(keys)
    assert len(cores) == 126


def test_sc_cores_match_literal_filter():
    # all self-conjugate partitions up to the largest size, no shortcuts
    for s, t in [(2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]:
        lam = largest_core(CoreParams(s, t))
        expected = sorted(
            rows
            for rows in iter_partitions_up_to(lam.size)
            if Partition(rows).is_self_conjugate()
            and lam.contains(Partition(rows))
            and is_t_core(Partition(rows), s)
            and is_t_core(Partition(rows), t)
        )
        assert sorted(p.rows for p in brute_force_sc_cores(s, t)) == expected


def _bounded_hook_sequences(caps):
    # every strictly decreasing odd sequence with i-th entry <= caps[i]
    out = [()]

    def rec(prefix, rank, top):
        for u in range(min(top, caps[rank]), 0, -2):
            seq = prefix + (u,)
            out.append(seq)
            if rank + 1 < len(caps):
                rec(seq, rank + 1, u - 2)

    if caps:
        rec((), 0, caps[0])
    return out


def test_sc_cores_match_unpruned_hook_enumeration():
    # same universe walked without any constraint propagation, then the
    # honest filters; exercises pairs too big for the all-partitions sweep
    for s, t in [(5, 8), (7, 8), (7, 9)]:
        lam = largest_core(CoreParams(s, t))
        expected = set()
        for hooks in _bounded_hook_sequences(lam.diagonal_hooks()):
            p = partition_from_diagonal_hooks(hooks)
            if lam.contains(p) and is_t_core(p, s) and is_t_core(p, t):
                expected.add(p.rows)
        assert {p.rows for p in brute_force_sc_cores(s, t)} == expected


def test_sc_cores_match_path_image():
    for s, t in [(2, 3), (3, 4), (8, 11), (12, 13), (16, 17)]:
        params = CoreParams(s, t)
        image = {core_from_path(p, params).rows for p in iter_paths(params.m, params.n)}
        oracle = {p.rows for p in brute_force_sc_cores(s, t)}
        assert oracle == image


# slot states of the reference search: undecided / decided member / decided
# non-member / forced member / forced non-member
_UNKNOWN, _IN, _OUT, _NEED_IN, _NEED_OUT = 0, 1, 2, 3, 4


def _reference_sc_search(e1, s, t, caps):
    # the five-state search by recursion, with the i-th largest hook capped
    # by caps[i-1] (the largest core's diagonal hooks)
    state = bytearray(e1 + 1)
    state[0] = _OUT
    trail = []

    def mark(v, value):
        trail.append(v << 3 | state[v])
        state[v] = value

    def force_in(v):
        st = state[v]
        if st == _IN or st == _NEED_IN:
            return True
        if st == _OUT or st == _NEED_OUT:
            return False
        mark(v, _NEED_IN)
        return (v < s or force_in(v - s)) and (v < t or force_in(v - t))

    def force_out(v):
        if v > e1:
            return True
        st = state[v]
        if st == _OUT or st == _NEED_OUT:
            return True
        if st == _IN or st == _NEED_IN:
            return False
        mark(v, _NEED_OUT)
        return force_out(v + s) and force_out(v + t)

    def assign(v, member):
        st = state[v]
        if member:
            if st == _OUT or st == _NEED_OUT:
                return False
            mark(v, _IN)
            if st == _NEED_IN:
                return True
            return (v < s or force_in(v - s)) and (v < t or force_in(v - t))
        if st == _IN or st == _NEED_IN:
            return False
        mark(v, _OUT)
        if st == _NEED_OUT:
            return True
        return force_out(v + s) and force_out(v + t)

    def rollback(depth):
        while len(trail) > depth:
            packed = trail.pop()
            state[packed >> 3] = packed & 7

    found = []
    chosen = [e1]
    if not assign(e1, True):
        return []

    def decide(u):
        if u <= 0:
            found.append(tuple(chosen))
            return
        hi = (e1 + u) // 2
        lo = (e1 - u) // 2
        rank = len(chosen)
        if rank < len(caps) and u <= caps[rank]:
            here = len(trail)
            if assign(hi, True) and assign(lo, False):
                chosen.append(u)
                decide(u - 2)
                chosen.pop()
            rollback(here)
        here = len(trail)
        if assign(hi, False) and assign(lo, True):
            decide(u - 2)
        rollback(here)

    decide(e1 - 2)
    return found


def test_sc_search_matches_the_capped_recursive_search():
    # the same hook sets as the per-largest-hook search over every largest
    # hook up to the Frobenius number, which is also the largest core's
    import corepaths.oracles as oracles

    for a, b in coprime_pairs(13):
        for s, t in ((a, b), (b, a)):
            caps = largest_core(CoreParams(s, t)).diagonal_hooks()
            assert caps[0] == s * t - s - t
            found = [hooks[::-1] for hooks in oracles._sc_hook_sets(s, t)]
            assert len(found) == len(set(found)), (s, t)
            expected = [()]
            for e1 in range(1, s * t - s - t + 1, 2):
                expected += _reference_sc_search(e1, s, t, caps)
            assert sorted(found) == sorted(expected), (s, t)


def test_sc_search_yields_only_cores_and_all_of_them():
    # without the honest filter of brute_force_sc_cores: a growth rule that
    # admitted a non-core would show here
    import corepaths.oracles as oracles

    for a, b in coprime_pairs(15):
        for s, t in ((a, b), (b, a)):
            count = 0
            for hooks in oracles._sc_hook_sets(s, t):
                p = partition_from_diagonal_hooks(hooks)
                assert is_t_core(p, s) and is_t_core(p, t), (s, t, hooks)
                count += 1
            assert count == comb(s // 2 + t // 2, s // 2), (s, t)


def test_sc_cores_search_deeper_than_the_recursion_limit():
    # (3, 200) decides up to 198 hooks below the largest, one level each
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        cores = brute_force_sc_cores(3, 200)
    finally:
        sys.setrecursionlimit(limit)
    assert len(cores) == comb(1 + 100, 1)
    assert cores[-1] == largest_core(CoreParams(3, 200))


def test_all_cores_size_stats_matches_literal():
    for s, t in [(2, 3), (3, 4), (4, 5), (5, 6)]:
        cores = _cores_by_literal_filter(s, t)
        count, total = all_cores_size_stats(s, t)
        assert count == len(cores)
        assert total == sum(sum(rows) for rows in cores)


def test_survey_partitions_small():
    # partitions of size <= 8: 67 of them; Anderson gives 5 cores for (3,4)
    sv = survey_partitions(3, 4, 8)
    assert sv.scanned == 67
    assert sv.cores == 5
    assert sv.core_size_total == 0 + 1 + 2 + 2 + 5
    assert sv.outside_largest == 0


def test_survey_matches_pure_enumeration():
    for s, t in [(2, 3), (3, 4), (4, 5)]:
        limit = (s * s - 1) * (t * t - 1) // 24
        lam = largest_core(CoreParams(s, t))
        scanned = cores = total = outside = 0
        for rows in iter_partitions_up_to(limit):
            scanned += 1
            p = Partition(rows)
            if is_t_core(p, s) and is_t_core(p, t):
                cores += 1
                total += p.size
                if not lam.contains(p):
                    outside += 1
        sv = survey_partitions(s, t, limit)
        assert (sv.scanned, sv.cores, sv.core_size_total, sv.outside_largest) == (
            scanned,
            cores,
            total,
            outside,
        )


def test_survey_matches_literal_route_on_small_pairs():
    # the pruned size-capped search against every partition, one by one
    limits = (0, 1, 5, 12, 20)
    for s, t in coprime_pairs(7):
        lam = largest_core(CoreParams(s, t))
        seen = []  # (size, is core, outside lam) per partition
        for rows in iter_partitions_up_to(max(limits)):
            p = Partition(rows)
            core = is_t_core(p, s) and is_t_core(p, t)
            seen.append((p.size, core, core and not lam.contains(p)))
        for limit in limits:
            within = [x for x in seen if x[0] <= limit]
            cores = [x for x in within if x[1]]
            outside = sum(1 for x in cores if x[2])
            sv = survey_partitions(s, t, limit)
            assert (
                sv.scanned,
                sv.cores,
                sv.core_size_total,
                sv.outside_largest,
            ) == (
                len(within),
                len(cores),
                sum(x[0] for x in cores),
                outside,
            ), (s, t, limit)


def test_survey_covers_every_partition_up_to_the_limit():
    # sum of p(k) for k <= 70, computed exactly rather than visited
    sv = survey_partitions(6, 7, 70)
    assert sv.scanned == 30053954
    assert sv.cores * 13 == comb(13, 6)
    assert sv.outside_largest == 0


def test_survey_reports_the_prefixes_it_visited():
    # 14,013 prefixes visited instead of 30,053,954 partitions
    sv = survey_partitions(6, 7, 70)
    assert sv.visited == 14013
    assert sv.cores <= sv.visited
    assert survey_partitions(3, 4, 0).visited == 0
    assert survey_partitions(3, 4, 1).visited == 1


def test_survey_walks_deeper_than_the_recursion_limit():
    # a column of 1s is never pruned, so the search reaches depth `limit`
    limit = sys.getrecursionlimit() + 100
    sv = survey_partitions(2, 3, limit)
    assert (sv.cores, sv.core_size_total, sv.outside_largest) == (2, 1, 0)


def test_survey_rejects_negative_limit():
    with pytest.raises(ValueError):
        survey_partitions(2, 3, -1)


def test_stanley_zanello_small_instances():
    # average size over ALL (s, s+1)-cores is C(s+1,3)/2
    for s in (2, 3, 4):
        limit = (s * s - 1) * ((s + 1) ** 2 - 1) // 24
        sv = survey_partitions(s, s + 1, limit)
        assert 2 * sv.core_size_total == comb(s + 1, 3) * sv.cores
        count, total = all_cores_size_stats(s, s + 1)
        assert (count, total) == (sv.cores, sv.core_size_total)
