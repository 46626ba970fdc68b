"""Brute-force oracles, independent of the path bijection.

Three routes of increasing cleverness, each cross-checked against the ones
below it in the tests:

* literal sweeps (``iter_partitions``, ``iter_partitions_up_to``): every
  partition up to a size bound is materialised and tested cell-honestly;
* ``cores_within`` and ``survey_partitions``: depth-first search over the
  partitions contained in a given shape (``cores_within``) or of size at
  most a bound (``survey_partitions``), pruned by the observation that
  once a row shorter than j is appended, every hook in columns > j is
  final, so a forbidden hook there kills the whole subtree.  Visits exactly
  the prefixes whose finalised cells are clean.  The lowest clean next row
  costs two bisections per node, not a scan of the k fixed rows: row i
  would finalise a hook f in column k + 1 - f - (i - rows[i]) (1-based i),
  and i - rows[i] strictly increases down weakly decreasing rows, so these
  columns strictly decrease.  The largest one not right of the last row is
  therefore the one at the index ``bisect_left`` finds, and the bound is
  exactly the one a scan of every row would give;
* ``brute_force_sc_cores``: self-conjugate cores are grown through their
  diagonal hook sets, one member at a time in increasing order, from the
  empty set.  The core condition, read off the hook definition, only
  relates each new largest hook to smaller ones, so every set the search
  reaches is a core and it never backtracks out of a dead end.

The row walks only ever skip subtrees whose completions provably fail the
honest hook test, the hook-set search only ever skips sets that break the
core condition, and every emitted candidate is filtered through the honest
test again, so pruning bugs can drop results but never admit wrong ones;
the set-equality tests against the literal sweeps guard the rest.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from .bijection import CoreParams, check_budget, largest_core
from .partitions import Partition, is_t_core, partition_from_diagonal_hooks

DEFAULT_ORACLE_BUDGET = 10**5


def iter_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of exactly n as weakly decreasing tuples, by the
    ascending-composition algorithm."""
    if n < 0:
        raise ValueError(f"size must be non-negative, got {n}")
    if n == 0:
        yield ()
        return
    a = [0] * (n + 1)
    k = 1
    y = n - 1
    while k:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        l = k + 1
        while x <= y:
            a[k] = x
            a[l] = y
            yield tuple(a[l::-1])
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield tuple(a[k::-1])


def iter_partitions_up_to(limit: int) -> Iterator[tuple[int, ...]]:
    """Every partition of every size 0..limit."""
    for n in range(limit + 1):
        yield from iter_partitions(n)


def iter_subpartitions(shape: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every partition contained in ``shape`` componentwise."""
    shape = tuple(shape)
    stack: list[int] = []

    def rec(i: int, cap: int) -> Iterator[tuple[int, ...]]:
        yield tuple(stack)
        if i == len(shape):
            return
        for v in range(min(cap, shape[i]), 0, -1):
            stack.append(v)
            yield from rec(i + 1, v)
            stack.pop()

    yield from rec(0, shape[0] if shape else 0)


def _dirty_bound(a: list[int], v: int, s: int, t: int) -> int:
    """Largest column j <= v where some fixed row would get a finalised hook
    of s or t if the next row ended left of j; 0 if none.

    ``v`` is the row just appended as row k = len(a), and a[i-1] is
    i - rows[i-1] for every fixed row i.  Appending a row of length u
    finalises cells (i, j) for u < j <= v: their columns gain no further
    cells, so their hooks are rows[i] - j + k - i + 1 = k + 1 - a_i - j for
    good.  Row i thus has a forbidden hook f in candidate column
    j_i = k + 1 - f - a_i.  The rows weakly decrease, so a_i strictly
    increases and j_i strictly decreases in i: the largest j_i <= v is the
    one at the first index with a_i >= k + 1 - v - f, found by bisection,
    and it counts only if it is >= 1 (every later one is smaller still).
    Appending any u >= the returned bound is clean, any smaller u (and
    stopping, when the bound is positive) finalises a forbidden hook.
    """
    k = len(a)
    c = k + 1 - v
    i = bisect_left(a, c - s)
    js = k + 1 - s - a[i] if i < k else 0
    i = bisect_left(a, c - t)
    jt = k + 1 - t - a[i] if i < k else 0
    return max(js, jt, 0)


def _core_walk(
    shape: tuple[int, ...],
    s: int,
    t: int,
    max_size: int,
    visited: list[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Candidate (s, t)-cores contained in ``shape`` and of size at most
    ``max_size``, by pruned depth-first search over rows (longest first).

    A row is only appended when it finalises no forbidden hook, and a prefix
    is only emitted when stopping there finalises none either, so every
    partition within both caps is emitted or lies in a subtree that provably
    holds no core.  The search keeps its own stack of levels, each the next
    row length to try and the lowest one allowed: a column of 1s is never
    pruned, so the depth can reach ``len(shape)``.  When ``visited`` is
    given, the number of prefixes appended is added to ``visited[0]`` once
    the walk is exhausted.
    """
    yield ()
    rows: list[int] = []
    a: list[int] = []  # a[i-1] = i - rows[i-1], strictly increasing
    size = 0
    depth = len(shape)
    top = min(shape[0], max_size) if shape else 0
    appended = top
    nxt = [top]  # next row length to try, per level
    low = [1]  # lowest row length allowed, per level
    while nxt:
        v = nxt[-1]
        if v < low[-1]:
            nxt.pop()
            low.pop()
            if rows:
                size -= rows.pop()
                a.pop()
            continue
        nxt[-1] = v - 1
        rows.append(v)
        k = len(rows)
        a.append(k - v)
        size += v
        bound = _dirty_bound(a, v, s, t)
        if not bound:
            yield tuple(rows)
        lo = bound or 1
        cap = min(v, shape[k], max_size - size) if k < depth else 0
        if cap >= lo:
            appended += cap - lo + 1
            nxt.append(cap)
            low.append(lo)
        else:
            size -= v
            rows.pop()
            a.pop()
    if visited is not None:
        visited[0] += appended


def cores_within(shape: tuple[int, ...], s: int, t: int) -> list[tuple[int, ...]]:
    """All (s, t)-cores contained in ``shape``, by pruned depth-first search
    over rows.  Every partition the walk emits is filtered through the
    honest hook test again."""
    shape = tuple(shape)
    found = []
    for rows in _core_walk(shape, s, t, sum(shape)):
        p = Partition(rows)
        if is_t_core(p, s) and is_t_core(p, t):
            found.append(rows)
    return found


def brute_force_all_cores_count(
    s: int, t: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> int:
    """Count ALL (not only self-conjugate) (s, t)-cores by enumerating
    within the largest core."""
    return all_cores_size_stats(s, t, budget)[0]


def all_cores_size_stats(
    s: int, t: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> tuple[int, int]:
    """(count, total size) over ALL (s, t)-cores, same route as the count.
    The budget counts the C(s+t, s)/(s+t) cores the search lists."""
    params = CoreParams(s, t)
    check_budget("core", params.all_core_count, budget)
    cores = cores_within(largest_core(params).rows, s, t)
    return len(cores), sum(sum(c) for c in cores)


def _sc_hook_sets(s: int, t: int) -> Iterator[tuple[int, ...]]:
    """Diagonal hook sets of the self-conjugate (s, t)-cores, each in
    increasing order, by one depth-first search from the empty set.

    The rule comes from the hook definition alone.  A partition's doubled
    Maya diagram S = {2 rows[i] - 2i + 1 : i >= 1} (rows padded by zeros) is
    a set of odd integers, and a cell of hook length h pairs some x in S
    with x - 2h outside S, so the partition is an h-core exactly when S is
    closed under -2h.  It is self-conjugate exactly when each odd u > 0 has
    exactly one of u and -u in S; the positive members of S are its
    diagonal hooks D.  For h in {s, t}, closure then reads: if u is in D
    and u > 2h, then u - 2h is in D; if u is in D and u < 2h, then 2h - u
    is not in D (so u != h).

    Checked when u is the largest member, each rule names only members
    below it, so D without its largest member obeys them too and the
    valid sets form a tree rooted at the empty set.  The children of D add
    one odd u above max D, no higher than max D + 2 min(s, t) (above that
    u - 2 min(s, t) would have to be in D) and no higher than the
    Frobenius number st - s - t, which no hook of an (s, t)-core exceeds.
    Every node is a core, so there are no dead ends and nothing to undo
    but a membership bytearray and the stack of chosen members.
    """
    top = s * t - s - t
    step = 2 * min(s, t)
    member = bytearray(max(top, 2 * s, 2 * t) + 1)
    chosen: list[int] = []
    # per level, the candidates still to try for the next member
    levels = [iter(range(1, min(step, top) + 1, 2))]
    yield ()
    while levels:
        for u in levels[-1]:
            member[u] = 1  # tried as a member, so u = h breaks the second rule
            ds, dt = u - 2 * s, u - 2 * t
            if (member[ds] if ds > 0 else not member[-ds]) and (
                member[dt] if dt > 0 else not member[-dt]
            ):
                chosen.append(u)
                levels.append(iter(range(u + 2, min(u + step, top) + 1, 2)))
                yield tuple(chosen)
                break
            member[u] = 0
        else:
            levels.pop()
            if chosen:
                member[chosen.pop()] = 0


def brute_force_sc_cores(
    s: int, t: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> list[Partition]:
    """All self-conjugate (s, t)-cores, filtered through the honest hook
    test and sorted by (size, rows).  The budget counts the C(m+n, m)
    cores the search lists."""
    check_budget("core", CoreParams(s, t).path_count, budget)
    found = []
    for hooks in _sc_hook_sets(s, t):
        p = partition_from_diagonal_hooks(hooks)
        if is_t_core(p, s) and is_t_core(p, t):
            found.append(p)
    found.sort(key=lambda p: (p.size, p.rows))
    return found


def _partitions_up_to(limit: int) -> int:
    """Number of partitions of every size 0..limit, exactly."""
    counts = [1] + [0] * limit
    for part in range(1, limit + 1):
        for n in range(part, limit + 1):
            counts[n] += counts[n - part]
    return sum(counts)


@dataclass(frozen=True)
class PartitionSurvey:
    """Outcome of a survey of all partitions up to a size bound.

    ``scanned`` counts the partitions the survey accounts for, every one of
    size <= the bound, not ones visited one by one: each is either tested
    or lies in a search subtree proven to hold no core.  ``visited`` counts
    the nonempty prefixes the pruned search did visit.
    """

    scanned: int
    cores: int
    core_size_total: int
    outside_largest: int
    visited: int


def survey_partitions(s: int, t: int, limit: int) -> PartitionSurvey:
    """Find every (s, t)-core of size <= limit and count how many of those
    stick out of the largest core.

    The search is the pruned row walk of ``cores_within``, capped by size
    alone (a limit x limit box holds every partition of size <= limit), so
    it never assumes containment in the largest core; every partition it
    emits is filtered through the honest hook test.  The literal route is
    ``iter_partitions_up_to`` plus the same hook predicates.
    """
    params = CoreParams(s, t)
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    lam = largest_core(params)
    cores = core_size_total = outside = 0
    visited = [0]
    for rows in _core_walk((limit,) * limit, s, t, limit, visited):
        p = Partition(rows)
        if is_t_core(p, s) and is_t_core(p, t):
            cores += 1
            core_size_total += p.size
            if not lam.contains(p):
                outside += 1
    return PartitionSurvey(
        _partitions_up_to(limit), cores, core_size_total, outside, visited[0]
    )
