"""Exact statistics of self-conjugate (s, t)-cores through their lattice
paths, with the identity checks tying them to the closed formulas.

Counts and totals are arbitrary-precision Python ints throughout; an
average is a Fraction (``CoreStats.average_size``), and the reports carry
it as num/den in lowest terms, without importing fractions.  A core's size
is the largest size minus the array entries above its path, and the rows
of the above-partition weakly decrease, so the statistics come from a
staircase fold: a DP over the value of each row, bottom row up, one
plain-int loop per row summing the row's arithmetic progression as it goes
(``_staircase_fold``).  The path walk stays as its independent check: it
recurses up the rows, visits every path once, and checks its path count
against the binomial.  ``verify_pair`` works from numbers alone: the rows'
closed forms, the below-count table's sums and the largest core's hooks,
with no array, path or partition object built.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import accumulate, combinations_with_replacement, repeat

from .bijection import (
    DEFAULT_PATH_BUDGET,
    CoreParams,
    LatticePath,
    _box_sides,
    _row_hooks,
    check_budget,
    largest_hooks,
)
from .partitions import Partition, Value, _set


class CoreStats(Value):
    """Exact statistics of the set of self-conjugate (s, t)-cores, and how
    many cores attain the largest size."""

    __slots__ = ("count", "total_size", "max_size", "max_multiplicity")

    def __init__(self, count: int, total_size: int, max_size: int, max_multiplicity: int):
        if count:
            assert 0 <= max_size <= total_size
        _set(self, "count", count)
        _set(self, "total_size", total_size)
        _set(self, "max_size", max_size)
        _set(self, "max_multiplicity", max_multiplicity)

    @property
    def average_size(self):
        """total_size / count as a ``fractions.Fraction``."""
        from fractions import Fraction

        return Fraction(self.total_size, self.count)

    def _average_terms(self) -> dict:
        """The average as {"num", "den"} in lowest terms, without importing
        fractions: what the stats and verify reports carry."""
        g = math.gcd(self.total_size, self.count)
        return {"num": self.total_size // g, "den": self.count // g}


def iter_paths(m: int, n: int) -> Iterator[LatticePath]:
    """Every lattice path in the m x n box, C(m+n, m) of them, in the colex
    order of their above-partitions: rows mu_m <= ... <= mu_1 as itertools
    lists them.  The sides are checked first: a negative n lists no path."""
    m, n = _box_sides(m, n)
    for rows in combinations_with_replacement(range(n + 1), m):
        yield LatticePath(m, n, Partition(tuple(filter(None, reversed(rows)))))


def coprime_pairs(limit: int) -> list[tuple[int, int]]:
    """All coprime pairs 2 <= s < t <= limit."""
    return [
        (s, t)
        for t in range(3, limit + 1)
        for s in range(2, t)
        if math.gcd(s, t) == 1
    ]


def _row_progressions(params: CoreParams) -> Iterator[tuple[int, int]]:
    """The rows of the (s, t) array, bottom row first, each an arithmetic
    progression as (first entry, step): the first entries of
    ``CoreParams._row_firsts``, reversed, each with step -2s."""
    return zip(reversed(params._row_firsts), repeat(-2 * params.s))


def fold_path_sizes(s: int, t: int) -> CoreStats:
    """Fold exact size statistics over every path of the (s, t) box, one
    path at a time: the walk ``verify_pair`` checks the staircase fold by.

    A path's above-sum is the sum of the array entries above it, each row
    adding its prefix sum at its value.  The walk recurses up the rows
    below the top two, each from the value of the row under it to n, and
    ends in a two-row leaf: for each value w of the second row, from the
    third row's value to n, it folds the top row's run of paths one per
    value v from w to n, base plus the second row's prefix sum at w plus
    the top row's at v, base being what the rows below hold.  A one-row box
    folds its top row once, over a second row held at 0.

    The recursion is one level per row, so on a box taller than wide the
    walk runs on the transposed table: the (t, s) array is the transpose of
    the (s, t) array, and transposing a path's above-partition keeps its
    above-sum, so the statistics are the same.
    """
    params = CoreParams(s, t)
    if params.m > params.n:
        params = CoreParams(t, s)
    n = params.n
    top = params.max_core_size
    rows = _row_progressions(params)  # bottom row first, top last
    *below, first = [tuple(accumulate(range(e, e + n * d, d), initial=0)) for e, d in rows]
    # a one-row box has a second row held at 0, with that one value
    *below, second = below or [(0,)]
    depth, stop = len(below), len(second)
    count = above_total = k = 0
    low = top + 1  # every above-sum is at most top, a size at least 0

    def walk(r, lo, base):
        # rows r and up run from lo; the rows below r add up to base
        nonlocal count, above_total, low, k
        if r < depth:
            row = below[r]
            for v in range(lo, n + 1):
                walk(r + 1, v, base + row[v])
            return
        for w in range(lo, stop):
            b = base + second[w]
            for a in first[w:]:
                above = b + a
                above_total += above
                if above <= low:
                    if above < low:
                        low, k = above, 0
                    k += 1
            count += n + 1 - w

    walk(0, 0, 0)
    del walk  # it refers to itself: free the rows now, not at the next collection
    assert count == params.path_count
    return CoreStats(count, top * count - above_total, top - low, k)


def _staircase_fold(rows, width: int) -> tuple[int, int, int, int]:
    """(count, sum of above-sums, least above-sum, how many attain it) over
    every weakly decreasing sequence n >= mu_1 >= ... >= mu_m >= 0, the
    above-partitions of the m x n box; a sequence's above-sum adds the first
    mu_i entries of each row i.  ``rows`` gives the m rows bottom row first
    as (first entry, step) pairs, read once; ``width`` is n+1.

    One row of state is held, as four int lists: after row i, entry v folds
    every suffix mu_i, ..., mu_m with mu_i <= v.  Row i-1 rewrites it in
    place, v ascending, with the running prefix over v in four locals and
    its first v entries summed in a (e the next): the suffixes with
    mu_{i-1} = v are entry v with a added, and entry v becomes the prefix
    merged with them.  O(mn) int operations, no call or tuple per cell."""
    count, total, least, ties = [1] * width, [0] * width, [0] * width, [1] * width
    for e, d in rows:
        a, rc, rt, rl, rk = 0, 0, 0, math.inf, 0  # no sequence yet: v = 0 replaces the inf
        for v in range(width):
            c = count[v]
            rc += c
            rt += total[v] + a * c
            low = least[v] + a
            if low < rl:
                rl = low
                rk = ties[v]
            elif low == rl:
                rk += ties[v]
            count[v] = rc
            total[v] = rt
            least[v] = rl
            ties[v] = rk
            a += e
            e += d
    return count[-1], total[-1], least[-1], ties[-1]


def _staircase_sizes(params: CoreParams) -> CoreStats:
    """What ``fold_path_sizes`` computes, by the staircase fold over the
    array's row progressions in O(mn) steps instead of one per path."""
    count, above, low, k = _staircase_fold(_row_progressions(params), params.n + 1)
    top = params.max_core_size
    return CoreStats(count, top * count - above, top - low, k)


def enumerated_stats(
    s: int,
    t: int,
    budget: int = DEFAULT_PATH_BUDGET,
) -> CoreStats:
    """Count / total / average / max size of the self-conjugate (s, t)-cores
    over every lattice path of the box, with exact arithmetic throughout.

    The statistics come from the staircase fold, whose m * n cells must be
    within ``budget``."""
    params = CoreParams(s, t)
    check_budget("cell", params.cell_count, budget)
    return _staircase_sizes(params)


def total_size_from_path_counts(s: int, t: int) -> int:
    """Total size of all self-conjugate (s, t)-cores via the below-count
    table f: the largest size times the path count, minus each array entry
    weighted by how many paths it sits above.

    Entry (i, j) is (st + s + t) - 2t*i - 2s*j, so that weighted sum is
    three sums of f, the ones the identity checks give closed forms for, and
    ``total_matches_path_counts`` ties the closed-form rows the folds use to
    the counting identities.  ``below_sums`` folds f's rows, to 10**6 cells."""
    from .identities import below_sums

    params = CoreParams(s, t)
    total, by_row, by_col = below_sums(params.m, params.n)
    return (
        params.max_core_size * params.path_count
        - (s * t + s + t) * total + 2 * t * by_row + 2 * s * by_col
    )


def _largest_excess(params: CoreParams, outer: Sequence[int]) -> int:
    """The most by which a path image's diagonal hooks h overshoot
    ``outer`` (decreasing): the largest #{h >= x} - #{outer >= x} over
    every path of the box and every x, and 0 when there is none.  Every
    path image fits in the partition with diagonal hooks ``outer`` exactly
    when this is 0.

    Threshold lemma: ``diagonal_hooks_within(h, outer)`` holds exactly when
    #{h >= x} <= #{outer >= x} for every x.  If h_i > outer_i, or outer has
    fewer than i hooks, then x = h_i counts i hooks of h and fewer of
    outer; if not, each hook of h at least x is matched by one of outer.
    The excess steps up only at a hook of h, so those are the x to read.

    A path's hooks are the positive entries below it and the |negative|
    entries above it, so #{h >= x} is P(x), the positive entries >= x, plus
    the sum over the cells above the path of [v <= -x] - [v >= x].  Entries
    fall along each row, so that weight never falls along one, and each
    row's share of the sum is convex in its cut.  A convex function on the
    staircase n >= mu_1 >= ... >= mu_m >= 0 (a simplex) peaks at a corner:
    a path with its top r rows above it.  Fix x.  Row i wholly above the
    path adds N_i(x) - P_i(x), its |negative| entries >= x less its
    positive ones.  Entries fall by 2t down each column, so that weight
    never falls with i: the sum over the top r rows is convex in r and
    peaks at r = 0 or r = m.  So for every x at once the largest excess is
    the larger of the empty and the full path's, the same two paths in
    either orientation of the box: two hook sets, read in O(mn log mn) steps.
    """
    m, n = params.m, params.n
    best, size = 0, len(outer)
    for cuts in ((0,) * m, (n,) * m):
        k = 0
        for i, h in enumerate(_row_hooks(params, cuts), 1):
            # i hooks of the corner's set are >= h, and k of outer's
            while k < size and outer[k] >= h:
                k += 1
            if i - k > best:
                best = i - k
    return best


def verify_pair(
    s: int,
    t: int,
    budget: int = DEFAULT_PATH_BUDGET,
) -> dict:
    """Cross-check every counting statement for one coprime pair.

    Returns a JSON-ready report: the statistics from the staircase fold plus
    a list of {name, pass, lhs, rhs} checks, one of which compares them with
    the path walk.  Failed checks are reported, not raised.  The path count
    must be within ``budget``: the walk is the only check that visits every
    path.  ``largest_core_contains_all`` reads the largest excess of any
    path image's hooks over the largest core's (``_largest_excess``) from
    the two corner paths of the box, the empty and the full path, in
    O(mn log mn) steps: lhs is that excess and rhs 0, so lhs > 0 exactly
    when some path image does not fit.
    """
    params = CoreParams(s, t)
    expected = check_budget("path", params.path_count, budget)
    # first, as it folds the below-count rows: a box over their cell cap is
    # refused before the walk
    path_counts_total = total_size_from_path_counts(s, t)
    stats = _staircase_sizes(params)
    walk = fold_path_sizes(s, t)

    checks = []

    def add(name, lhs, rhs):
        checks.append({"name": name, "pass": lhs == rhs, "lhs": lhs, "rhs": rhs})

    add("count_is_binomial", stats.count, expected)
    add("total_matches_path_counts", stats.total_size, path_counts_total)
    # 24 * total == (s+t+1)(s-1)(t-1) * count, the average formula cleared
    # of its denominator so both sides stay integers
    add(
        "total_matches_average_formula",
        24 * stats.total_size,
        (s + t + 1) * (s - 1) * (t - 1) * stats.count,
    )
    add("max_is_closed_form", stats.max_size, params.max_core_size)
    add("max_attained_once", stats.max_multiplicity, 1)
    add(
        "staircase_matches_walk",
        [stats.count, stats.total_size, stats.max_size, stats.max_multiplicity],
        [walk.count, walk.total_size, walk.max_size, walk.max_multiplicity],
    )

    add("largest_core_contains_all", _largest_excess(params, largest_hooks(params)), 0)

    return {
        "s": s,
        "t": t,
        "count": stats.count,
        "total": stats.total_size,
        "average": stats._average_terms(),
        "max": stats.max_size,
        "checks": checks,
    }


def report_all_pass(report: dict) -> bool:
    return all(c["pass"] for c in report["checks"])
