"""Brute-force oracles, independent of the path bijection.

Two searches, each cross-checked in the tests against the literal sweeps
of ``tests/_reference.py``, which test every partition up to a size bound
cell-honestly:

* ``cores_within``, ``all_cores_size_stats`` and ``survey_partitions``
  grow (s, t)-cores through their first-column hook sets, one member at a
  time in increasing order, from the empty set, capped by size;
* ``brute_force_sc_cores`` grows self-conjugate cores the same way through
  their diagonal hook sets.

In both, the core condition read off the hook definition relates each new
largest hook only to smaller ones, so every set reached is a core and
there are no dead ends.  A node's children are the bits of one int: the
hook set's bit masks shifted by s and by t, in the window of next hooks.
A node's partition grows from its parent's in one step (one new top row,
or one new first row and column), by no row builder of the bijection.
Every emitted partition is validated and filtered through the honest hook
test again, so a wrong rule can drop results but never admit wrong ones;
the set-equality tests against the literal sweeps guard the rest.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import inf
from operator import add

from .bijection import (
    DEFAULT_ORACLE_BUDGET,
    CoreParams,
    check_budget,
    check_listing,
    largest_core,
)
from .partitions import Partition, Value, _integer, _set


def _is_core(p: Partition, s: int, t: int) -> bool:
    """True when no cell of ``p`` has hook length s or t.  A cell of hook
    length h pairs a first-column hook b with b - h >= 0 outside the set
    (0 never in it), so each such b - h must be a hook: read with the hooks
    b as bytes b of one int, shifted down by bytes s and t.  The hooks
    rows[i] + k - 1 - i of a k-row partition are formed here, in the loop
    that sets their bytes, the largest first."""
    rows = p.rows
    k = len(rows)
    flags = bytearray(rows[0] + k if k else 0)
    for b in map(add, rows, range(k - 1, -1, -1)):
        flags[b] = 1
    beta = int.from_bytes(flags, "little")
    return not (beta >> 8 * s | beta >> 8 * t) & ~beta


def _core_search(s: int, t: int, max_size: float = inf) -> Iterator[Partition]:
    """The (s, t)-cores of size at most ``max_size``, by one depth-first
    search over their first-column hook sets from the empty set, whose
    partition is yielded first.

    A partition with k rows has the first-column hook set beta = {rows[i] +
    k - i : 1 <= i <= k}; padding the rows by zeros adds -1, -2, ... and
    never 0.  A cell of hook length h pairs some x in that padded set with
    x - h outside it, so the partition is an h-core exactly when every
    member u > 0 of the padded set has u - h in it.

    Checked when u is the largest member, the rule names only members below
    it, so the valid sets form a tree rooted at the empty set, with no dead
    ends.  A child adds one u above max beta, at most max beta + min(s, t)
    (else u - min(s, t) is missing), the Frobenius number st - s - t (no
    core hook is larger) and the size cap (u adds a top row of u - k cells
    to k rows).  The padded set is one int, bit x + max(s, t) for member
    x, so the children are the bits of that window in both shifts of the
    int down by max beta - h + max(s, t); each level keeps its u and its
    children left, at most min(s, t) bits, taken lowest first.
    """
    top = s * t - s - t
    step = min(s, t)
    pad = max(s, t)
    # beta padded by -1, ..., -pad: bit x + pad for each member x
    padded = (1 << pad) - 1
    # the rows bottom-up, one per member: member k (0-based) is rows[k] + k
    rows: list[int] = []
    size = u = 0
    # per ancestor, its largest member and its children still to visit
    levels = []
    yield Partition()
    while True:
        w = min(step, top - u, max_size - size + len(rows) - u)
        kids = w > 0 and padded >> u - s + pad & padded >> u - t + pad & (2 << w) - 2
        while not kids:
            if not levels:
                return
            padded ^= 1 << u + pad
            size -= rows.pop()
            u, kids = levels.pop()
        low = kids & -kids
        levels.append((u, kids ^ low))
        u += low.bit_length() - 1
        padded |= 1 << u + pad
        rows.append(u - len(rows))
        size += rows[-1]
        yield Partition(rows[::-1])


def cores_within(shape: tuple[int, ...], s: int, t: int) -> list[tuple[int, ...]]:
    """All (s, t)-cores contained in ``shape``, by the hook-set search
    capped at the size of ``shape``.  Every partition the search yields
    is filtered through the honest hook test again.  Raises ValueError
    unless (s, t) is coprime, since only then does the Frobenius number
    bound the hooks, and unless ``shape`` is a partition."""
    CoreParams(s, t)
    outer = Partition(shape)
    return [
        p.rows
        for p in _core_search(s, t, outer.size)
        if _is_core(p, s, t) and outer.contains(p)
    ]


def all_cores_size_stats(
    s: int, t: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> tuple[int, int]:
    """(count, total size) over ALL (s, t)-cores, by the uncapped hook-set
    search, every partition filtered through the honest hook test.  The
    budget counts the C(s+t, s)/(s+t) cores the search lists, and their
    rows must be within the listing bound of ``check_listing``."""
    params = CoreParams(s, t)
    check_listing(params, check_budget("core", params.all_core_count, budget))
    sizes = [p.size for p in _core_search(s, t) if _is_core(p, s, t)]
    return len(sizes), sum(sizes)


def _sc_search(s: int, t: int) -> Iterator[Partition]:
    """The self-conjugate (s, t)-cores, by one depth-first search over
    their diagonal hook sets from the empty set, whose partition is
    yielded first.

    A partition's doubled Maya diagram S = {2 rows[i] - 2i + 1 : i >= 1}
    (rows padded by zeros) is a set of odd integers, and a cell of hook
    length h pairs some x in S with x - 2h outside S, so the partition is
    an h-core exactly when S is closed under -2h.  It is self-conjugate
    exactly when each odd u > 0 has exactly one of u and -u in S; the
    positive members of S are its diagonal hooks D.  For h in {s, t},
    closure then reads: if u is in D and u > 2h, then u - 2h is in D; if u
    is in D and u < 2h, then 2h - u is not in D (so u != h).

    Checked when u is the largest member, each rule names only members
    below it, so the valid sets form a tree rooted at the empty set, with
    no dead ends.  A child adds one odd u above max D, at most max D +
    2 min(s, t) (else u - 2 min(s, t) is missing) and st - s - t.  Per hook
    h one int holds the u that rule h admits, D shifted up by 2h and the
    odd u < 2h but h whose mirror 2h - u is not in D, so pushing or popping
    d flips bits d + 2h and 2h - d; the children are the bits of that
    window in both ints shifted down by max D, kept as in ``_core_search``.

    A new largest hook u = 2a + 1 wraps the parent's diagram in one more
    first row and column of a + 1 cells each, which fit as the parent's
    first row is at most a: the rows become a + 1, each parent row + 1,
    then rows of 1 up to a + 1 rows in all.
    """
    top = s * t - s - t
    step = 2 * min(s, t)
    # 1 << 2h, so that d flips (1 << 2h << d) | (1 << 2h >> d) in rule h
    flip_s, flip_t = 1 << 2 * s, 1 << 2 * t
    # the odd bits below 2h, bar h: what rule h admits while D is empty
    ok_s = flip_s // 3 * 2 & ~(1 << s)
    ok_t = flip_t // 3 * 2 & ~(1 << t)
    # row r + 1 as one shared int object, for r up to the largest core's
    # first row (s-1)(t-1)/2, so the listed cores' rows share their ints
    plus_one = list(range(1, (s - 1) * (t - 1) // 2 + 2)).__getitem__
    # per ancestor: its largest hook, its children left and its partition
    levels = []
    u, p = 0, Partition()
    yield p
    while True:
        w = min(step, top - u)
        kids = w > 0 and ok_s >> u & ok_t >> u & (2 << w) - 2
        while not kids:
            if not levels:
                return
            ok_s ^= flip_s << u | flip_s >> u
            ok_t ^= flip_t << u | flip_t >> u
            u, kids, p = levels.pop()
        low = kids & -kids
        levels.append((u, kids ^ low, p))
        u += low.bit_length() - 1
        ok_s ^= flip_s << u | flip_s >> u
        ok_t ^= flip_t << u | flip_t >> u
        a = u >> 1
        p = Partition([plus_one(a), *map(plus_one, p.rows), *(1,) * (a - len(p.rows))])
        yield p


def brute_force_sc_cores(
    s: int, t: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> list[Partition]:
    """All self-conjugate (s, t)-cores, filtered through the honest hook
    test and sorted by (size, rows).  The budget counts the C(m+n, m)
    cores the search lists, and their rows must be within the listing bound
    of ``check_listing``."""
    params = CoreParams(s, t)
    check_listing(params, check_budget("core", params.path_count, budget))
    found = [p for p in _sc_search(s, t) if _is_core(p, s, t)]
    found.sort(key=lambda p: (p.size, p.rows))
    return found


def _partitions_up_to(limit: int) -> int:
    """Number of partitions of every size 0..limit, exactly, by Euler's
    pentagonal number theorem, in O(limit^1.5) additions: p(n) sums
    (-1)^(k+1) (p(n - g) + p(n - g - k)) over k >= 1, g = k(3k-1)/2 <= n."""
    counts = [1]
    for n in range(1, limit + 1):
        p, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= n:
            term = counts[n - g] + (counts[n - g - k] if g + k <= n else 0)
            p += term if k % 2 else -term
            k += 1
        counts.append(p)
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
    alone, so it never assumes containment in the largest core; every
    partition it yields is filtered through the honest hook test.  The
    literal route, every partition up to the limit tested by the same hook
    predicates, is in ``tests/_reference.py``.
    """
    params = CoreParams(s, t)
    limit = _integer("limit", limit)
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    lam = largest_core(params)
    cores = core_size_total = outside = 0
    # the empty partition comes first, so the last index counts the others
    for visited, p in enumerate(_core_search(s, t, limit)):
        if _is_core(p, s, t):
            cores += 1
            core_size_total += p.size
            if not lam.contains(p):
                outside += 1
    return PartitionSurvey(
        _partitions_up_to(limit), cores, core_size_total, outside, visited
    )
