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
* ``brute_force_sc_cores``: self-conjugate cores are walked through their
  diagonal hook sets, for every odd largest hook e1 up to the Frobenius
  number st - s - t.  Fixing the largest hook pins the first-column hook
  set slot by slot (hook u in the set puts (e1+u)/2 in, else (e1-u)/2).
  Each slot is undecided, in or out; settling one settles its closure
  under the core condition at once, so a "b in the set and b-t missing"
  violation kills a branch as soon as it is implied.  The hooks are
  decided in decreasing order on a flat stack of levels, one trail of
  settled slots undone on backtrack.

The searches only ever skip subtrees whose completions provably fail the
honest hook test, and every emitted candidate is filtered through the
honest test again, so pruning bugs can drop results but never admit wrong
ones; the set-equality tests against the literal sweeps guard the rest.
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
    """(count, total size) over ALL (s, t)-cores, same route as the count."""
    params = CoreParams(s, t)
    check_budget("core size", params.max_core_size, budget)
    cores = cores_within(largest_core(params).rows, s, t)
    return len(cores), sum(sum(c) for c in cores)


# slot states; 0 is undecided
_IN, _OUT = 1, 2


def _sc_cores_with_largest_hook(e1: int, s: int, t: int) -> list[tuple[int, ...]]:
    """Diagonal hook sets of self-conjugate (s, t)-cores with largest hook
    exactly e1, each in decreasing order.

    state[v] tracks whether v is a first-column hook of the eventual
    partition; deciding diagonal hook u fixes the two slots (e1+u)/2 and
    (e1-u)/2 at once.  The core condition is that the slot set is closed
    downward under -s and -t steps, so a member puts its whole downward
    closure in (slot 0, permanently out, kills chains through s and t
    themselves) and a non-member puts its upward closure out; a branch dies
    the moment the two clash.  A slot is only ever written from undecided,
    so the trail is just the slots to clear on backtrack.  The search keeps
    its own stack of levels, one per hook u = e1 - 2 * depth, each the trail
    length before it and the branches tried (u in the set first, then out).
    """
    state = bytearray(e1 + 1)
    state[0] = _OUT
    trail: list[int] = []

    def settle(v: int, value: int) -> bool:
        # a member's slots v - s and v - t are members, a non-member's v + s
        # and v + t are not; the new end of the trail is the worklist
        old = state[v]
        if old:
            return old == value
        state[v] = value
        ds, dt = (-s, -t) if value == _IN else (s, t)
        i = len(trail)
        trail.append(v)
        while i < len(trail):
            v = trail[i]
            i += 1
            for w in (v + ds, v + dt):
                if 0 <= w <= e1:
                    old = state[w]
                    if not old:
                        state[w] = value
                        trail.append(w)
                    elif old != value:
                        return False
        return True

    if not settle(e1, _IN):
        return []
    found: list[tuple[int, ...]] = []
    chosen = [e1]
    levels = [[len(trail), 0]]
    while levels:
        level = levels[-1]
        here, tried = level
        while len(trail) > here:
            state[trail.pop()] = 0
        u = e1 - 2 * len(levels)
        if chosen[-1] == u:  # back from the branch with u in the set
            chosen.pop()
        if u < 0:  # every hook decided
            found.append(tuple(chosen))
        if u < 0 or tried == 2:
            levels.pop()
            continue
        level[1] = tried + 1
        if tried:
            ok = settle((e1 - u) // 2, _IN) and settle((e1 + u) // 2, _OUT)
        else:
            ok = settle((e1 + u) // 2, _IN) and settle((e1 - u) // 2, _OUT)
            if ok:
                chosen.append(u)
        if ok:
            levels.append([len(trail), 0])
    return found


def brute_force_sc_cores(
    s: int, t: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> list[Partition]:
    """All self-conjugate (s, t)-cores, filtered through the honest hook
    test and sorted by (size, rows).  Their largest hooks are the odd e1 up
    to the Frobenius number st - s - t, which no hook of an (s, t)-core
    exceeds."""
    params = CoreParams(s, t)
    check_budget("core size", params.max_core_size, budget)
    found = [Partition()]
    for e1 in range(1, s * t - s - t + 1, 2):
        for hooks in _sc_cores_with_largest_hook(e1, s, t):
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
