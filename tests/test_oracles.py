import inspect
import sys
from math import comb, inf

import pytest

from corepaths import (
    BudgetError,
    CoreParams,
    Partition,
    all_cores_size_stats,
    brute_force_sc_cores,
    core_from_path,
    cores_within,
    iter_paths,
    largest_core,
    survey_partitions,
)
from corepaths.enumeration import coprime_pairs
from corepaths.partitions import partition_from_diagonal_hooks

from _reference import (
    core_search_by_candidates,
    first_column_hooks,
    is_t_core,
    is_t_core_scan,
    iter_partitions,
    iter_partitions_up_to,
    iter_subpartitions,
    partition_count_up_to,
    sc_search_by_candidates,
)


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


def test_cores_within_validates_its_inputs():
    # the search stops at the Frobenius number st - s - t, which bounds
    # hooks only for coprime pairs, so a non-coprime pair is refused, as is
    # a shape that is not a partition
    with pytest.raises(ValueError):
        cores_within((3, 1, 1), 2, 4)
    with pytest.raises(ValueError):
        cores_within((1, 3), 2, 3)


def test_core_hook_sets_yield_only_cores_and_all_of_them():
    # without the honest filter of the callers: a growth rule that admitted
    # a non-core, or listed one twice, would show here.  Each node adds one
    # hook above its parent's, so its parent, its rows without the top one,
    # comes before it
    import corepaths.oracles as oracles

    for a, b in coprime_pairs(11):
        for s, t in ((a, b), (b, a)):
            found = list(oracles._core_search(s, t))
            seen = set()
            for p in found:
                assert Partition(p.rows) == p and p.rows not in seen, (s, t, p)
                assert not p.rows or p.rows[1:] in seen, (s, t, p)
                seen.add(p.rows)
                assert is_t_core(p, s) and is_t_core(p, t), (s, t, p)
            assert len(found) * (s + t) == comb(s + t, s), (s, t)


def test_core_hook_sets_match_the_literal_sweep_under_every_cap():
    import corepaths.oracles as oracles

    caps = range(21)
    for a, b in coprime_pairs(7):
        for s, t in ((a, b), (b, a)):
            literal = [
                rows
                for rows in iter_partitions_up_to(max(caps))
                if is_t_core(Partition(rows), s) and is_t_core(Partition(rows), t)
            ]
            for cap in caps:
                found = [p.rows for p in oracles._core_search(s, t, cap)]
                expected = sorted(rows for rows in literal if sum(rows) <= cap)
                assert sorted(found) == expected, (s, t, cap)


def test_callers_filter_what_the_search_yields(monkeypatch):
    # a search that also yields non-cores must not change any result: the
    # honest re-check leaves exactly the cores
    import corepaths.oracles as oracles

    search = oracles._core_search

    def noisy(s, t, *cap):
        for p in search(s, t, *cap):
            yield p
            top = first_column_hooks(p)[0] if p.rows else 0
            for u in range(top + 1, top + s + t + 1):
                # p's hook set plus u: one new top row of u - len(p) cells
                q = Partition((u - len(p),) + p.rows)
                if not (is_t_core_scan(q, s) and is_t_core_scan(q, t)):
                    yield q

    sc_search = oracles._sc_search
    wrapped = []

    def noisy_sc(s, t):
        for p in sc_search(s, t):
            yield p
            top = p.rows[0] if p.rows else 0
            for a in range(top, top + s + t):
                # p's diagonal hooks plus 2a + 1: one new first row and column
                q = Partition((a + 1, *(r + 1 for r in p.rows), *(1,) * (a - len(p))))
                if not (is_t_core_scan(q, s) and is_t_core_scan(q, t)):
                    wrapped.append(q)
                    yield q

    cases = [(2, 3), (3, 4), (4, 5), (5, 7), (7, 5)]
    lams = {(s, t): largest_core(CoreParams(s, t)).rows for s, t in cases}
    expected = {
        (s, t): (
            cores_within(lams[s, t], s, t),
            all_cores_size_stats(s, t),
            survey_partitions(s, t, 12),
            brute_force_sc_cores(s, t),
        )
        for s, t in cases
    }
    monkeypatch.setattr(oracles, "_core_search", noisy)
    monkeypatch.setattr(oracles, "_sc_search", noisy_sc)
    for s, t in cases:
        within, stats, sv, sc = expected[s, t]
        assert cores_within(lams[s, t], s, t) == within
        assert all_cores_size_stats(s, t) == stats
        wrapped.clear()
        assert brute_force_sc_cores(s, t) == sc
        # the extra partitions were yielded, each self-conjugate
        assert wrapped and all(q.is_self_conjugate() for q in wrapped)
        noisy_sv = survey_partitions(s, t, 12)
        assert noisy_sv.visited > sv.visited  # the extra sets were yielded
        assert (
            noisy_sv.scanned,
            noisy_sv.cores,
            noisy_sv.core_size_total,
            noisy_sv.outside_largest,
        ) == (sv.scanned, sv.cores, sv.core_size_total, sv.outside_largest)


def test_two_hook_filter_is_the_literal_test_for_both_hooks():
    from corepaths.oracles import _core_search, _is_core, _sc_search

    partitions = [Partition(rows) for rows in iter_partitions_up_to(14)]
    for s, t in [(2, 3), (3, 4), (4, 7), (5, 6), (7, 5), (3, 11)]:
        for p in partitions:
            assert _is_core(p, s, t) == (is_t_core_scan(p, s) and is_t_core_scan(p, t)), (p, s, t)
    # hooks up to 397 and 299, so the byte-mask ints span dozens of machine
    # words; each node's first row stretched by one is mostly not a core
    answers = set()
    for s, t, search in ((3, 200, _sc_search(3, 200)), (2, 301, _core_search(2, 301))):
        for p in search:
            stretched = Partition((p.rows[0] + 1,) + p.rows[1:] if p.rows else (1,))
            for q in (p, stretched):
                expected = is_t_core_scan(q, s) and is_t_core_scan(q, t)
                assert _is_core(q, s, t) == expected, (s, t, q)
                answers.add(expected)
    assert answers == {True, False}


def test_mask_searches_yield_the_candidate_searches_rows_in_order():
    # the mask searches walk the same tree in the same preorder as the
    # candidate loops: the identical sequence of rows, not just the same
    # set.  Uncapped only up to 11, as the (s, t)-cores of every coprime
    # pair up to 15 number 11.6 million
    import corepaths.oracles as oracles

    for a, b in coprime_pairs(15):
        for s, t in ((a, b), (b, a)):
            expected = [p.rows for p in sc_search_by_candidates(s, t)]
            assert [p.rows for p in oracles._sc_search(s, t)] == expected, (s, t)
            for cap in (0, 5, 17, inf) if b <= 11 else (0, 5, 17):
                expected = [p.rows for p in core_search_by_candidates(s, t, cap)]
                found = [p.rows for p in oracles._core_search(s, t, cap)]
                assert found == expected, (s, t, cap)


def test_anderson_counts():
    for s, t in coprime_pairs(8):
        count = all_cores_size_stats(s, t)[0]
        assert count * (s + t) == comb(s + t, s), (s, t)


def test_anderson_count_examples():
    assert all_cores_size_stats(2, 3)[0] == 2
    assert all_cores_size_stats(3, 4)[0] == 5
    assert all_cores_size_stats(4, 5)[0] == 14


def test_oracle_budget_guard():
    # the budget counts the cores each search lists: C(15, 7)/15 = 429 for
    # all (7, 8)-cores, C(12, 6) = 924 self-conjugate (12, 13)-cores
    with pytest.raises(BudgetError) as err:
        all_cores_size_stats(7, 8, budget=428)[0]
    assert err.value.required == 429
    assert all_cores_size_stats(7, 8, budget=429)[0] == 429
    with pytest.raises(BudgetError) as err:
        brute_force_sc_cores(12, 13, budget=923)
    assert err.value.required == 924
    assert len(brute_force_sc_cores(12, 13, budget=924)) == 924


def test_listing_bound_at_its_edge(monkeypatch):
    # every core lies in the largest, of (s-1)(t-1)/2 rows.  (3, 4471) lists
    # 2236 self-conjugate cores of up to 4470 rows, 9,994,920 in all, and
    # (3, 4472) 2237 of up to 4471, 10,001,627; (2, 6323) lists 3162 cores
    # of up to 3161 rows, 9,995,082, and (2, 6325) 3163 of up to 3162
    import corepaths.oracles as oracles
    from corepaths.bijection import check_listing

    check_listing(CoreParams(2, 5), 5 * 10**6)  # 2 rows each: exactly 10**7
    with pytest.raises(ValueError, match="at 10000002 rows, over the supported maximum"):
        check_listing(CoreParams(2, 5), 5 * 10**6 + 1)

    searched = []

    def search(s, t):
        searched.append((s, t))
        return iter(())

    monkeypatch.setattr(oracles, "_sc_search", search)
    monkeypatch.setattr(oracles, "_core_search", search)
    assert brute_force_sc_cores(3, 4471) == []
    assert all_cores_size_stats(2, 6323) == (0, 0)
    for call, err in (
        (lambda: brute_force_sc_cores(3, 4472), "2237 cores of up to 4471 rows each "
         "bound the listing at 10001627 rows, over the supported maximum of 10**7"),
        (lambda: all_cores_size_stats(2, 6325), "3163 cores of up to 3162 rows each "
         "bound the listing at 10001406 rows, over the supported maximum of 10**7"),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert not isinstance(exc.value, BudgetError)
        assert str(exc.value) == err
    assert searched == [(3, 4471), (2, 6323)]


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
            found = [p.diagonal_hooks() for p in oracles._sc_search(s, t)]
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
            for p in oracles._sc_search(s, t):
                assert p.is_self_conjugate(), (s, t, p)
                assert is_t_core(p, s) and is_t_core(p, t), (s, t, p)
                count += 1
            assert count == comb(s // 2 + t // 2, s // 2), (s, t)


def test_sc_search_grows_the_rows_the_hook_builder_gives():
    # the search grows each node's rows from its parent's, and the
    # bijection builds them from the diagonal hooks: the two must agree
    import corepaths.oracles as oracles

    for a, b in coprime_pairs(15):
        for s, t in ((a, b), (b, a)):
            for p in oracles._sc_search(s, t):
                assert p == partition_from_diagonal_hooks(p.diagonal_hooks()), (s, t, p)


def test_sc_cores_search_deeper_than_the_recursion_limit():
    # the deepest node of (3, 200), the largest core, has 67 diagonal
    # hooks, one level each, past the 50 frames the limit leaves
    import corepaths.oracles as oracles

    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        cores = brute_force_sc_cores(3, 200)
        deepest = max(len(p.diagonal_hooks()) for p in oracles._sc_search(3, 200))
    finally:
        sys.setrecursionlimit(limit)
    assert deepest == 67
    assert len(cores) == comb(1 + 100, 1)
    assert cores[-1] == largest_core(CoreParams(3, 200))


def test_sc_cores_listing_shares_its_row_ints():
    # 1001 cores of up to 1999 rows; a core's rows are its parent's plus
    # one, read off one shared table, so the listing holds a pointer per
    # row and not an int.  17.1 MiB when each core was built from its hooks
    import tracemalloc

    tracemalloc.start()
    try:
        cores = brute_force_sc_cores(3, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cores) == 1001
    assert peak < 10 * 2**20


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


def test_survey_counts_the_cores_outside_a_stand_in_largest_core(monkeypatch):
    # every core lies inside the true largest core, so outside_largest is 0
    # on every real survey; against a smaller stand-in it must move
    import corepaths.oracles as oracles

    stand_in = Partition((2, 1))
    monkeypatch.setattr(oracles, "largest_core", lambda params: stand_in)
    literal = [
        p for p in map(Partition, iter_partitions_up_to(10)) if is_t_core(p, 3) and is_t_core(p, 4)
    ]
    outside = [p for p in literal if not stand_in.contains(p)]
    assert outside == [Partition((3, 1, 1))]
    sv = survey_partitions(3, 4, 10)
    assert sv.cores == len(literal)
    assert sv.outside_largest == len(outside) == 1


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
    # 131 hook sets visited instead of 30,053,954 partitions; every set the
    # search visits is a core, and the empty one is not counted
    sv = survey_partitions(6, 7, 70)
    assert sv.visited == 131
    assert sv.visited == sv.cores - 1
    assert survey_partitions(3, 4, 0).visited == 0
    assert survey_partitions(3, 4, 1).visited == 1


def test_survey_walks_deeper_than_the_recursion_limit():
    # a size cap far above the recursion limit: the search is as deep as
    # the largest hook set, here 1 for the (2, 3)-core (1)
    limit = sys.getrecursionlimit() + 100
    sv = survey_partitions(2, 3, limit)
    assert (sv.cores, sv.core_size_total, sv.outside_largest) == (2, 1, 0)


def test_all_cores_search_deeper_than_the_recursion_limit():
    # the (2, 2L + 3)-cores are the staircases with at most L + 1 rows, so
    # the deepest hook set has L + 1 members
    import corepaths.oracles as oracles

    L = 1000
    s, t = 2, 2 * L + 3
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        count, total = all_cores_size_stats(s, t)
        deepest = max(map(len, oracles._core_search(s, t)))
    finally:
        sys.setrecursionlimit(limit)
    assert deepest == L + 1
    # Anderson's count and Armstrong's average (s + t + 1)(s - 1)(t - 1)/24
    assert count * (s + t) == comb(s + t, s)
    assert 24 * total == count * (s + t + 1) * (s - 1) * (t - 1)
    assert (count, total) == (1002, 167668501)


def test_partition_count_matches_the_references():
    # the pentagonal recurrence against the coin-change loop, and against
    # a count of the listed partitions
    import corepaths.oracles as oracles

    for limit in range(301):
        assert oracles._partitions_up_to(limit) == partition_count_up_to(limit), limit
    for limit in range(16):
        assert oracles._partitions_up_to(limit) == len(list(iter_partitions_up_to(limit)))
    # p(100) = 190569292, the value MacMahon computed for Hardy and Ramanujan
    assert oracles._partitions_up_to(100) - oracles._partitions_up_to(99) == 190569292


def test_survey_rejects_negative_limit():
    with pytest.raises(ValueError):
        survey_partitions(2, 3, -1)
    # a limit that is no integer is refused before the search starts
    for limit in (5.5, "5", 5.0, None):
        with pytest.raises(ValueError, match=f"limit must be an integer, got {limit!r}"):
            survey_partitions(3, 5, limit)


def test_stanley_zanello_small_instances():
    # average size over ALL (s, s+1)-cores is C(s+1,3)/2
    for s in (2, 3, 4):
        limit = (s * s - 1) * ((s + 1) ** 2 - 1) // 24
        sv = survey_partitions(s, s + 1, limit)
        assert 2 * sv.core_size_total == comb(s + 1, 3) * sv.cores
        count, total = all_cores_size_stats(s, s + 1)
        assert (count, total) == (sv.cores, sv.core_size_total)
