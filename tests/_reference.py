"""Reference implementations the tests compare the package against, and
that the package itself never calls: enumerations of every partition of a
size, inside a shape or inside a box (exponential, small inputs only), the
all-cells t-core scan, two independent characterisations (t-core-ness
from diagonal hooks, core size from the array entries above a path), and
the containment sweep over every path's hook set.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator

from corepaths.bijection import CoreParams, LatticePath, build_array
from corepaths.enumeration import iter_box_partitions
from corepaths.partitions import Partition, diagonal_hooks_within, validate_hook_set


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


def below_count_table_by_enumeration(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Independent oracle for the table: walk every partition in the box and
    count the cells above each path directly.  Exponential; small boxes only."""
    f = [[0] * n for _ in range(m)]
    for mu in iter_box_partitions(m, n):
        for i in range(m):
            for j in range(mu[i]):
                f[i][j] += 1
    return tuple(tuple(row) for row in f)


def column_pair_total(m: int, n: int) -> int:
    """Triple count: over every partition mu in the box, the ways to choose
    an ordered pair of cells in one column of mu with the second not lower,
    i.e. sum of C(mu'_j + 1, 2) over the columns.  Equals the row-weighted
    sum; exponential enumeration, small boxes only."""
    total = 0
    for mu in iter_box_partitions(m, n):
        width = mu[0]
        for j in range(1, width + 1):
            col = sum(1 for r in mu if r >= j)
            total += comb(col + 1, 2)
    return total


def is_t_core_scan(p: Partition, t: int) -> bool:
    """Literal definition of t-core: scan every cell for hook length t."""
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    return t not in set(p.hook_lengths())


def hook_set_is_t_core(hooks: Iterable[int], t: int) -> bool:
    """Decide t-core-ness of a self-conjugate partition from its diagonal
    hook set alone.

    Two conditions: every hook above 2t must have its 2t-predecessor in the
    set, and no two hooks (a hook paired with itself included) may sum to a
    multiple of 2t.  The self-pair rule is what rejects a diagonal hook that
    is itself an odd multiple of t.  Equivalent to
    ``is_t_core(partition_from_diagonal_hooks(hooks), t)``; the equivalence
    is validated empirically in the tests.
    """
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    hs = validate_hook_set(hooks)
    present = set(hs)
    for h in hs:
        if h > 2 * t and h - 2 * t not in present:
            return False
    for i, a in enumerate(hs):
        for b in hs[i:]:
            if (a + b) % (2 * t) == 0:
                return False
    return True


def core_size_from_path(path: LatticePath, params: CoreParams) -> int:
    """Size of the core for a path, computed without building the partition:
    the largest core size minus the sum of array entries above the path."""
    arr = build_array(params.s, params.t)
    if (path.m, path.n) != (arr.m, arr.n):
        raise ValueError(
            f"path box {path.m}x{path.n} does not match array {arr.m}x{arr.n}"
        )
    above = sum(sum(row[:k]) for row, k in zip(arr.entries, path.mu.rows))
    return params.max_core_size - above


def count_paths_not_within(params: CoreParams, outer: tuple[int, ...]) -> int:
    """How many path images of the box do not fit in the self-conjugate
    partition with diagonal hooks ``outer``: one hook set per path, read
    through ``CoreArray.hook_set`` in the order of ``iter_box_partitions``
    and compared by ``diagonal_hooks_within``.  C(m+n, m) sorts."""
    hook_set = build_array(params.s, params.t).hook_set
    return sum(
        not diagonal_hooks_within(hook_set(mu), outer)
        for mu in iter_box_partitions(params.m, params.n)
    )
