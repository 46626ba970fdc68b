"""Brute-force oracles, independent of the path bijection.

Two searches, each cross-checked in the tests against the literal sweeps
of ``tests/_reference.py``, which materialise every partition up to a size
bound and test it cell-honestly:

* ``cores_within``, ``all_cores_size_stats`` and ``survey_partitions``:
  (s, t)-cores are grown through their first-column hook sets, one member
  at a time in increasing order, from the empty set, capped by size;
* ``brute_force_sc_cores``: self-conjugate cores are grown the same way
  through their diagonal hook sets.

In both searches the core condition, read off the hook definition, only
relates each new largest hook to smaller ones, so every set the search
reaches is a core and it never backtracks out of a dead end.  The searches
only ever skip sets that break the core condition, and every emitted
candidate is filtered through the honest hook test again, so a wrong rule
can drop results but never admit wrong ones; the set-equality tests
against the literal sweeps guard the rest.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import inf

from .bijection import (
    DEFAULT_ORACLE_BUDGET,
    CoreParams,
    check_budget,
    check_listing,
    largest_core,
)
from .partitions import Partition, Value, _set, partition_from_diagonal_hooks


def _is_core(p: Partition, s: int, t: int) -> bool:
    """True when no cell of ``p`` has hook length s or t: the honest test of
    ``is_t_core`` for both hooks, on one first-column hook set."""
    hooks = set(p.first_column_hooks())
    below_s = [b - s for b in hooks if b >= s]
    below_t = [b - t for b in hooks if b >= t]
    return hooks.issuperset(below_s) and hooks.issuperset(below_t)


def _core_hook_sets(
    s: int, t: int, max_size: float = inf
) -> Iterator[tuple[int, ...]]:
    """First-column hook sets of the (s, t)-cores of size at most
    ``max_size``, each in increasing order, by one depth-first search from
    the empty set, which is yielded first.

    The rule comes from the hook definition alone.  A partition with k rows
    has the first-column hook set beta = {rows[i] + k - i : 1 <= i <= k};
    padding the rows by zeros adds -1, -2, ... and never 0.  A cell of hook
    length h pairs some x in that padded set with x - h outside it, so the
    partition is an h-core exactly when h is not in beta and every u in
    beta with u > h has u - h in beta.

    Checked when u is the largest member, the rule names only members below
    it, so beta without its largest member obeys it too and the valid sets
    form a tree rooted at the empty set, with no dead ends.  The children of
    beta add one u above max beta, no higher than max beta + min(s, t)
    (above that u - min(s, t) would have to be in beta) and no higher than
    the Frobenius number st - s - t, which no hook of an (s, t)-core
    exceeds.  The size is sum(beta) - C(k, 2), so adding u to k members
    adds u - k >= 1 cells and the size cap bounds u directly.
    """
    top = s * t - s - t
    step = min(s, t)
    member = bytearray(top + 1)
    chosen: list[int] = []
    size = 0
    # per level, the candidates still to try for the next member
    levels = [iter(range(1, min(step, top, max_size) + 1))]
    yield ()
    while levels:
        for u in levels[-1]:
            if (member[u - s] if u > s else u != s) and (
                member[u - t] if u > t else u != t
            ):
                member[u] = 1
                size += u - len(chosen)
                chosen.append(u)
                hi = min(u + step, top, max_size - size + len(chosen))
                levels.append(iter(range(u + 1, hi + 1)))
                yield tuple(chosen)
                break
        else:
            levels.pop()
            if chosen:
                u = chosen.pop()
                member[u] = 0
                size -= u - len(chosen)


def _partition_of(hooks: tuple[int, ...]) -> Partition:
    """The partition with the increasing first-column hook set ``hooks``:
    rows b - j over it (0-based j), reversed."""
    return Partition(tuple(b - j for j, b in enumerate(hooks))[::-1])


def cores_within(shape: tuple[int, ...], s: int, t: int) -> list[tuple[int, ...]]:
    """All (s, t)-cores contained in ``shape``, by the hook-set search
    capped at the size of ``shape``.  Every set the search yields is
    filtered through the honest hook test again.  Raises ValueError unless
    (s, t) is coprime, since only then does the Frobenius number bound the
    hooks, and unless ``shape`` is a partition."""
    CoreParams(s, t)
    outer = Partition(shape)
    return [
        p.rows
        for p in map(_partition_of, _core_hook_sets(s, t, outer.size))
        if _is_core(p, s, t) and outer.contains(p)
    ]


def all_cores_size_stats(
    s: int, t: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> tuple[int, int]:
    """(count, total size) over ALL (s, t)-cores, by the uncapped hook-set
    search, every set filtered through the honest hook test.  The budget
    counts the C(s+t, s)/(s+t) cores the search lists, and their rows must
    be within the listing bound of ``check_listing``."""
    params = CoreParams(s, t)
    check_listing(params, check_budget("core", params.all_core_count, budget))
    sizes = [
        p.size
        for p in map(_partition_of, _core_hook_sets(s, t))
        if _is_core(p, s, t)
    ]
    return len(sizes), sum(sizes)


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
    cores the search lists, and their rows must be within the listing bound
    of ``check_listing``."""
    params = CoreParams(s, t)
    check_listing(params, check_budget("core", params.path_count, budget))
    found = []
    for hooks in _sc_hook_sets(s, t):
        p = partition_from_diagonal_hooks(hooks)
        if _is_core(p, s, t):
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


class PartitionSurvey(Value):
    """Outcome of a survey of all partitions up to a size bound.

    ``scanned`` counts the partitions the survey accounts for, every one of
    size <= the bound, not ones visited one by one: each is either tested
    or breaks the core condition the search grows by.  ``visited`` counts
    the nonempty hook sets the search did visit.
    """

    __slots__ = ("scanned", "cores", "core_size_total", "outside_largest", "visited")

    def __init__(
        self, scanned: int, cores: int, core_size_total: int, outside_largest: int, visited: int
    ):
        _set(self, "scanned", scanned)
        _set(self, "cores", cores)
        _set(self, "core_size_total", core_size_total)
        _set(self, "outside_largest", outside_largest)
        _set(self, "visited", visited)


def survey_partitions(s: int, t: int, limit: int) -> PartitionSurvey:
    """Find every (s, t)-core of size <= limit and count how many of those
    stick out of the largest core.

    The search is the hook-set search of ``cores_within``, capped by size
    alone, so it never assumes containment in the largest core; every set
    it yields is filtered through the honest hook test.  The literal route,
    every partition up to the limit tested by the same hook predicates, is
    in ``tests/_reference.py``.
    """
    params = CoreParams(s, t)
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    lam = largest_core(params)
    cores = core_size_total = outside = 0
    # the empty set comes first, so the last index counts the nonempty ones
    for visited, p in enumerate(map(_partition_of, _core_hook_sets(s, t, limit))):
        if _is_core(p, s, t):
            cores += 1
            core_size_total += p.size
            if not lam.contains(p):
                outside += 1
    return PartitionSurvey(
        _partitions_up_to(limit), cores, core_size_total, outside, visited
    )
