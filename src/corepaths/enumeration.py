"""Exact statistics of self-conjugate (s, t)-cores through their lattice
paths, with the identity checks tying them to the closed formulas.

Counts, totals and averages are arbitrary-precision Python ints and
Fractions throughout.  A core's size is the largest size minus the array
entries above its path, and the rows of the above-partition weakly
decrease, so the statistics come from a staircase fold: a DP over the value
of each row, bottom row up, in O(mn) semiring steps (``_staircase_fold``).
The path walk stays as its independent cross-check: it visits every path
once in colexicographic order, keeping the above-sum up to date as each
successor moves a few rows, and checks its path count against the binomial.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import accumulate

from .bijection import (
    DEFAULT_PATH_BUDGET,
    CoreParams,
    LatticePath,
    _row_hooks,
    build_array,
    check_budget,
    largest_core,
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
    def average_size(self) -> Fraction:
        return Fraction(self.total_size, self.count)


def iter_box_partitions(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """Every partition fitting in an m x n box, as a length-m tuple padded
    with zeros, in colexicographic order (last rows vary slowest)."""
    if m < 1 or n < 1:
        raise ValueError(f"box dimensions must be positive, got {m}x{n}")
    mu = [0] * m
    while True:
        yield tuple(mu)
        for i in range(m):
            cap = n if i == 0 else mu[i - 1]
            if mu[i] < cap:
                v = mu[i] + 1
                mu[i] = v
                for r in range(i):
                    mu[r] = v
                break
        else:
            return


def iter_paths(m: int, n: int) -> Iterator[LatticePath]:
    """Every lattice path in the m x n box, C(m+n, m) of them, in the
    colexicographic order of their above-partitions."""
    for mu in iter_box_partitions(m, n):
        yield LatticePath(m, n, Partition(tuple(r for r in mu if r)))


def coprime_pairs(limit: int) -> list[tuple[int, int]]:
    """All coprime pairs 2 <= s < t <= limit."""
    return [
        (s, t)
        for t in range(3, limit + 1)
        for s in range(2, t)
        if math.gcd(s, t) == 1
    ]


def _prefix_rows(params: CoreParams) -> Iterator[tuple[int, ...]]:
    """The row prefix sums of the (s, t) array, bottom row first, each made
    when it is read.  Row i is c - s, c - 3s, ..., c - (2n-1)s with
    c = st - (2i-1)t, so its first k entries sum to k*c - s*k^2."""
    s, t, n = params.s, params.t, params.n
    return (
        tuple(accumulate(range(c - s, c - (2 * n + 1) * s, -2 * s), initial=0))
        for c in range(s * t - (2 * params.m - 1) * t, s * t, 2 * t)
    )


def fold_path_sizes(s: int, t: int) -> CoreStats:
    """Fold exact size statistics over every path of the (s, t) box, one
    path at a time: the walk ``verify_pair`` checks the staircase fold by.

    A path's above-sum is the sum of the array entries above it.  In the
    order of ``iter_box_partitions`` the top row runs fastest, from the
    second row's value to n, so a run of paths has above-sums
    base + prefix_0[v], base being what the rows below hold.  Each step of
    those rows bumps the first bumpable one and resets the rows before it
    to the new value, and base follows those rows alone.

    A step resets up to m rows, so on a box taller than wide the walk runs
    on the transposed table: the (t, s) array is the transpose of the
    (s, t) array, and transposing a path's above-partition keeps its
    above-sum, so the statistics are the same.
    """
    params = CoreParams(s, t)
    if params.m > params.n:
        params = CoreParams(t, s)
    m, n = params.m, params.n
    top = params.max_core_size
    prefix = tuple(_prefix_rows(params))[::-1]  # top row first
    first = prefix[0]
    # mu[r] is the value of the row prefix[r] sums, for r >= 1; mu[0] = n
    # caps the second row, as the top row runs up to n
    mu = [n] + [0] * (m - 1)
    base = lo = count = above_total = k = 0
    low = top + 1  # every above-sum is at most top, a size at least 0
    while True:
        for a in first[lo:]:
            above = base + a
            above_total += above
            if above <= low:
                if above < low:
                    low, k = above, 0
                k += 1
        count += n + 1 - lo
        for i in range(1, m):
            if mu[i] < mu[i - 1]:
                lo = mu[i] + 1
                for r in range(1, i + 1):
                    base += prefix[r][lo] - prefix[r][mu[r]]
                    mu[r] = lo
                break
        else:
            break
    assert count == params.path_count
    return CoreStats(count, top * count - above_total, top - low, k)


def _staircase_fold(rows, width, unit, shift, combine):
    """Fold a semiring over every weakly decreasing sequence
    n >= mu_1 >= ... >= mu_m >= 0, the above-partitions of the m x n box.

    rows gives the m weight rows bottom row first, each of ``width`` = n+1
    weights: row i weighs mu_i = v by its v-th weight.  ``shift(x, a)``
    puts a row of weight a on top of every sequence x stands for,
    ``combine(x, y)`` merges two disjoint sets of sequences, and ``unit``
    stands for the empty sequence.  After row i, acc[v] stands for every
    suffix mu_i, ..., mu_m with mu_i <= v, a running prefix over v that row
    i-1 reads in place, so one row is held at a time.  O(mn) shifts and
    combines.
    """
    acc = [unit] * width
    for row in rows:
        running = acc[0] = shift(acc[0], row[0])
        for v in range(1, width):
            running = acc[v] = combine(running, shift(acc[v], row[v]))
    return acc[-1]


# The size semiring: (paths, sum of their above-sums, least above-sum, how
# many paths attain it).  The above-sum is what a path's core lacks of the
# largest core.
_SIZE_UNIT = (1, 0, 0, 1)


def _size_shift(x, a):
    c, total, low, k = x
    return (c, total + a * c, low + a, k)


def _size_combine(x, y):
    if x[2] < y[2]:
        return (x[0] + y[0], x[1] + y[1], x[2], x[3])
    if y[2] < x[2]:
        return (x[0] + y[0], x[1] + y[1], y[2], y[3])
    return (x[0] + y[0], x[1] + y[1], x[2], x[3] + y[3])


def _staircase_sizes(s: int, t: int) -> CoreStats:
    """What ``fold_path_sizes`` computes, by the staircase fold over the
    array's row prefix sums in O(mn) steps instead of one per path."""
    params = CoreParams(s, t)
    count, above, low, k = _staircase_fold(
        _prefix_rows(params), params.n + 1, _SIZE_UNIT, _size_shift, _size_combine
    )
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
    check_budget("cell", CoreParams(s, t).cell_count, budget)
    return _staircase_sizes(s, t)


def total_size_from_path_counts(s: int, t: int) -> int:
    """Total size of all self-conjugate (s, t)-cores via the below-count
    table: the largest size times the path count, minus each array entry
    weighted by how many paths it sits above.

    It reads the entries of ``build_array``, not the closed-form rows the
    folds use, so ``total_matches_path_counts`` also ties those rows to the
    array the bijection maps paths through."""
    from .identities import below_count_table

    params = CoreParams(s, t)
    arr = build_array(s, t)
    m, n = params.m, params.n
    f = below_count_table(m, n)
    above_total = sum(
        v * c for row, counts in zip(arr.entries, f) for v, c in zip(row, counts)
    )
    return params.max_core_size * params.path_count - above_total


def _largest_excess(params: CoreParams, outer: tuple[int, ...]) -> int:
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
    fall along each row and down each column, so that weight never falls
    along either, and each row's share of the sum is convex in its cut.  A
    convex function on the staircase n >= mu_1 >= ... >= mu_m >= 0 (a
    simplex) peaks at a corner: a path with its top r rows above it, or,
    read by columns, with its left c columns above it.  So for every x at
    once the largest excess over all C(m+n, m) paths is the largest over
    the min(m, n) + 1 corners of the shorter side, whose hook sets are read
    in O(min(m, n) * mn log mn) steps.
    """
    m, n = params.m, params.n
    if m <= n:
        corners = ((n,) * r + (0,) * (m - r) for r in range(m + 1))
    else:
        corners = ((c,) * m for c in range(n + 1))
    best = 0
    for cuts in corners:
        k = 0
        for i, h in enumerate(sorted(_row_hooks(params, cuts), reverse=True), 1):
            # i hooks of the corner's set are >= h, and k of outer's
            while k < len(outer) and outer[k] >= h:
                k += 1
            best = max(best, i - k)
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
    the min(m, n) + 1 corner paths of the box: lhs is that excess and rhs
    0, so lhs > 0 exactly when some path image does not fit.
    """
    params = CoreParams(s, t)
    expected = check_budget("path", params.path_count, budget)
    # first, as it builds the array: a box over its cell cap is refused
    # before the walk
    path_counts_total = total_size_from_path_counts(s, t)
    stats = _staircase_sizes(s, t)
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

    outer = largest_core(params).diagonal_hooks()
    add("largest_core_contains_all", _largest_excess(params, outer), 0)

    average = stats.average_size
    return {
        "s": s,
        "t": t,
        "count": stats.count,
        "total": stats.total_size,
        "average": {"num": average.numerator, "den": average.denominator},
        "max": stats.max_size,
        "checks": checks,
    }


def report_all_pass(report: dict) -> bool:
    return all(c["pass"] for c in report["checks"])
