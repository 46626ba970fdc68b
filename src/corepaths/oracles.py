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
  the prefixes whose finalised cells are clean; emitted partitions have had
  every cell checked;
* ``brute_force_sc_cores``: self-conjugate cores are walked through their
  diagonal hook sets.  Fixing the largest hook pins the first-column hook
  set slot by slot (hook u in the set puts (e1+u)/2 in, else (e1-u)/2), so
  deciding hooks in decreasing order lets every "b in the set and b-t
  missing" violation be detected as soon as both slots are decided.

The searches only ever skip subtrees whose completions provably fail the
honest hook test, and every emitted candidate is filtered through the
honest test again, so pruning bugs can drop results but never admit wrong
ones; the set-equality tests against the literal sweeps guard the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bijection import CoreParams, largest_core
from .partitions import Partition, is_t_core, partition_from_diagonal_hooks

DEFAULT_ORACLE_BUDGET = 10**5


class OracleBudgetError(ValueError):
    """Raised when the largest core is too big for a brute-force universe."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"oracle universe needs max core size {required}, over the budget "
            f"of {budget}; raise the budget to proceed"
        )


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


def _dirty_bound(rows: list[int], s: int, t: int) -> int:
    """Largest column j <= rows[-1] where some already-fixed row would get a
    finalised hook of s or t if the next row ended left of j; 0 if none.

    Appending a row of length v finalises cells (i, j) for v < j <=
    rows[-1]: their columns gain no further cells, so their hooks are
    rows[i] - j + k - i + 1 for good.  Appending any v >= the returned bound
    is clean, any smaller v (and stopping, when the bound is positive)
    finalises a forbidden hook.
    """
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


def _core_walk(
    shape: tuple[int, ...], s: int, t: int, max_size: int
) -> Iterator[tuple[int, ...]]:
    """Candidate (s, t)-cores contained in ``shape`` and of size at most
    ``max_size``, by pruned depth-first search over rows (longest first).

    A row is only appended when it finalises no forbidden hook, and a prefix
    is only emitted when stopping there finalises none either, so every
    partition within both caps is emitted or lies in a subtree that provably
    holds no core.  The search keeps its own stack: a column of 1s is never
    pruned, so the depth can reach ``len(shape)``.
    """
    yield ()
    rows: list[int] = []
    size = 0
    levels = [iter(range(min(shape[0], max_size) if shape else 0, 0, -1))]
    while levels:
        v = next(levels[-1], 0)
        if not v:
            levels.pop()
            if rows:
                size -= rows.pop()
            continue
        rows.append(v)
        size += v
        bound = _dirty_bound(rows, s, t)
        if bound == 0:
            yield tuple(rows)
        k = len(rows)
        cap = min(v, shape[k], max_size - size) if k < len(shape) else 0
        levels.append(iter(range(cap, max(bound, 1) - 1, -1)))


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
    params = CoreParams(s, t)
    if params.max_core_size > budget:
        raise OracleBudgetError(params.max_core_size, budget)
    return len(cores_within(largest_core(params).rows, s, t))


def all_cores_size_stats(
    s: int, t: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> tuple[int, int]:
    """(count, total size) over ALL (s, t)-cores, same route as the count."""
    params = CoreParams(s, t)
    if params.max_core_size > budget:
        raise OracleBudgetError(params.max_core_size, budget)
    cores = cores_within(largest_core(params).rows, s, t)
    return len(cores), sum(sum(c) for c in cores)


# slot states: undecided / decided member / decided non-member / forced
# member / forced non-member
_UNKNOWN, _IN, _OUT, _NEED_IN, _NEED_OUT = 0, 1, 2, 3, 4


def _sc_cores_with_largest_hook(
    e1: int, s: int, t: int, caps: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Diagonal hook sets of self-conjugate (s, t)-cores with largest hook
    exactly e1 and i-th largest hook at most caps[i-1].

    state[v] tracks whether v is a first-column hook of the eventual
    partition; deciding diagonal hook u fixes the two slots (e1+u)/2 and
    (e1-u)/2 at once.  The core condition is that the slot set is closed
    downward under -s and -t steps, so a member forces its whole downward
    closure (slot 0, permanently out, kills chains through s and t
    themselves) and a non-member forces its upward closure out; a branch
    dies the moment the forced sets clash.  Changes are journaled on a
    trail and undone on backtrack.
    """
    state = bytearray(e1 + 1)
    state[0] = _OUT
    trail: list[int] = []

    def mark(v: int, value: int) -> None:
        trail.append(v << 3 | state[v])
        state[v] = value

    def force_in(v: int) -> bool:
        st = state[v]
        if st == _IN or st == _NEED_IN:
            return True
        if st == _OUT or st == _NEED_OUT:
            return False
        mark(v, _NEED_IN)
        return (v < s or force_in(v - s)) and (v < t or force_in(v - t))

    def force_out(v: int) -> bool:
        if v > e1:
            return True
        st = state[v]
        if st == _OUT or st == _NEED_OUT:
            return True
        if st == _IN or st == _NEED_IN:
            return False
        mark(v, _NEED_OUT)
        return force_out(v + s) and force_out(v + t)

    def assign(v: int, member: bool) -> bool:
        st = state[v]
        if member:
            if st == _OUT or st == _NEED_OUT:
                return False
            mark(v, _IN)
            if st == _NEED_IN:  # closure already forced
                return True
            return (v < s or force_in(v - s)) and (v < t or force_in(v - t))
        if st == _IN or st == _NEED_IN:
            return False
        mark(v, _OUT)
        if st == _NEED_OUT:
            return True
        return force_out(v + s) and force_out(v + t)

    def rollback(depth: int) -> None:
        while len(trail) > depth:
            packed = trail.pop()
            state[packed >> 3] = packed & 7

    found: list[tuple[int, ...]] = []
    chosen = [e1]

    if not assign(e1, True):
        return []

    def decide(u: int) -> None:
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


def brute_force_sc_cores(
    s: int, t: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> list[Partition]:
    """All self-conjugate (s, t)-cores, found inside the largest core and
    filtered through the honest hook test, sorted by (size, rows)."""
    params = CoreParams(s, t)
    if params.max_core_size > budget:
        raise OracleBudgetError(params.max_core_size, budget)
    caps = largest_core(params).diagonal_hooks()
    found = [Partition()]
    for e1 in range(1, caps[0] + 1, 2):
        for hooks in _sc_cores_with_largest_hook(e1, s, t, caps):
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
    or lies in a search subtree proven to hold no core.
    """

    scanned: int
    cores: int
    core_size_total: int
    outside_largest: int


def survey_partitions(
    s: int, t: int, limit: int, check_containment: bool = True
) -> PartitionSurvey:
    """Find every (s, t)-core of size <= limit and (optionally) count how many
    of those stick out of the largest core.

    The search is the pruned row walk of ``cores_within``, capped by size
    alone (a limit x limit box holds every partition of size <= limit), so
    it never assumes containment in the largest core; every partition it
    emits is filtered through the honest hook test.  The literal route is
    ``iter_partitions_up_to`` plus the same hook predicates.
    """
    params = CoreParams(s, t)
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    lam = largest_core(params) if check_containment else None
    cores = core_size_total = outside = 0
    for rows in _core_walk((limit,) * limit, s, t, limit):
        p = Partition(rows)
        if is_t_core(p, s) and is_t_core(p, t):
            cores += 1
            core_size_total += p.size
            if lam is not None and not lam.contains(p):
                outside += 1
    return PartitionSurvey(_partitions_up_to(limit), cores, core_size_total, outside)
