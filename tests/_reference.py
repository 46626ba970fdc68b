"""Reference implementations the tests compare the package against, and
that the package itself never calls: enumerations of every partition of a
size, inside a shape or inside a box (exponential, small inputs only),
the partition count up to a size by the coin-change loop,
the below-count table kept whole, conjugation, cell-by-cell hook lengths,
the first-column hooks, the all-cells t-core scan and the first-column
t-core test, two independent characterisations (t-core-ness from diagonal
hooks, core size from the array entries above a path), a path's hook set
read off the built array by its definition, the closed-form average size,
the containment sweep over every path's hook set, a path's step word read
column by column, and the two oracle searches trying each candidate hook
in turn.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, inf
from typing import Iterable, Iterator

from corepaths.bijection import CoreArray, CoreParams, LatticePath, build_array
from corepaths.identities import _below_rows
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


def partition_count_up_to(limit: int) -> int:
    """Number of partitions of every size 0..limit, by the coin-change
    loop: parts 1, 2, ... added one at a time.  O(limit^2) additions."""
    counts = [1] + [0] * limit
    for part in range(1, limit + 1):
        for n in range(part, limit + 1):
            counts[n] += counts[n - part]
    return sum(counts)


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
    count the cells above each path directly.  Exponential; small boxes only.
    Its rows mu_m <= ... <= mu_1 are the standard library's combinations."""
    f = [[0] * n for _ in range(m)]
    for rows in combinations_with_replacement(range(n + 1), m):
        for i, r in enumerate(reversed(rows)):
            for j in range(r):
                f[i][j] += 1
    return tuple(tuple(row) for row in f)


def below_count_table(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The package's below-count rows kept as a table, top row first: made
    along the long side, so a tall box's table is transposed."""
    rows = tuple(_below_rows(min(m, n), max(m, n)))[::-1]
    return rows if m <= n else tuple(zip(*rows))


def column_pair_total(m: int, n: int) -> int:
    """Triple count: over every partition mu in the box, the ways to choose
    an ordered pair of cells in one column of mu with the second not lower,
    i.e. sum of C(mu'_j + 1, 2) over the columns.  Equals the row-weighted
    sum; exponential enumeration, small boxes only."""
    total = 0
    for rows in combinations_with_replacement(range(n + 1), m):
        for j in range(1, rows[-1] + 1):
            col = sum(1 for r in rows if r >= j)
            total += comb(col + 1, 2)
    return total


def conjugate(p: Partition) -> Partition:
    """``p`` transposed across the main diagonal."""
    cols = [0] * (p.rows[0] if p.rows else 0)
    for r in p.rows:
        for j in range(r):
            cols[j] += 1
    return Partition(tuple(cols))


def hook_length(p: Partition, i: int, j: int) -> int:
    """Hook length of cell (i, j) of ``p``; raises if (i, j) is not a cell."""
    if i < 1 or j < 1 or i > len(p.rows) or j > p.rows[i - 1]:
        raise ValueError(f"not a cell of the diagram: ({i}, {j})")
    conj_j = sum(1 for r in p.rows if r >= j)
    return p.rows[i - 1] - j + conj_j - i + 1


def hook_lengths(p: Partition) -> list[int]:
    """All hook lengths of ``p``, row by row."""
    conj = conjugate(p).rows
    return [
        r - j + conj[j - 1] - i
        for i, r in enumerate(p.rows)
        for j in range(1, r + 1)
    ]


def is_t_core_scan(p: Partition, t: int) -> bool:
    """Literal definition of t-core: scan every cell for hook length t."""
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    return t not in set(hook_lengths(p))


def first_column_hooks(p: Partition) -> list[int]:
    """Hook lengths of the first-column cells of ``p``, top to bottom.

    These are ``rows[i] + len - i`` for 1-based i, a strictly decreasing
    set that determines the partition.
    """
    return [r + len(p.rows) - i for i, r in enumerate(p.rows, start=1)]


def is_t_core(p: Partition, t: int) -> bool:
    """True when no cell of ``p`` has hook length exactly ``t``, by the
    first-column hooks: a hook of length t exists in row i exactly when
    b - t is a non-negative value missing from the first-column hook set,
    for b the first-column hook of row i.  Fast enough to filter every
    partition of a size; checked against ``is_t_core_scan``."""
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    hooks = set(first_column_hooks(p))
    return hooks.issuperset([b - t for b in hooks if b >= t])


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


def positive_sum(arr: CoreArray) -> int:
    """Sum of the positive entries of the built array; equals the largest
    core size."""
    return sum(v for row in arr.entries for v in row if v > 0)


def hook_set(arr: CoreArray, cuts: tuple[int, ...]) -> tuple[int, ...]:
    """Diagonal hook set of the path with cuts[i] cells above it in row
    i + 1, read off the built array by definition: the positive entries
    right of each cut plus the absolute values of the negative entries left
    of it, sorted decreasing."""
    hooks = []
    for row, k in zip(arr.entries, cuts):
        hooks += [v for v in row[k:] if v > 0] + [-v for v in row[:k] if v < 0]
    return validate_hook_set(hooks)


def average_size_formula(s: int, t: int) -> Fraction:
    """The closed-form average size (s+t+1)(s-1)(t-1)/24, in lowest terms."""
    CoreParams(s, t)
    return Fraction((s + t + 1) * (s - 1) * (t - 1), 24)


def core_size_from_path(path: LatticePath, params: CoreParams) -> int:
    """Size of the core for a path, computed without building the partition:
    the largest core size minus the sum of array entries above the path."""
    arr = build_array(params.s, params.t)
    if (path.m, path.n) != (params.m, params.n):
        raise ValueError(
            f"path box {path.m}x{path.n} does not match array {params.m}x{params.n}"
        )
    above = sum(sum(row[:k]) for row, k in zip(arr.entries, path.mu.rows))
    return params.max_core_size - above


def count_paths_not_within(params: CoreParams, outer: tuple[int, ...]) -> int:
    """How many path images of the box do not fit in the self-conjugate
    partition with diagonal hooks ``outer``: one hook set per path, read
    through ``hook_set``, each path's cuts mu_1 >= ... >= mu_m read off a
    weakly increasing combination, and compared by
    ``diagonal_hooks_within``.  C(m+n, m) sorts."""
    arr = build_array(params.s, params.t)
    return sum(
        not diagonal_hooks_within(hook_set(arr, rows[::-1]), outer)
        for rows in combinations_with_replacement(range(params.n + 1), params.m)
    )


def path_from_core_by_sweep(p: Partition, params: CoreParams) -> LatticePath | None:
    """The path mapping to ``p`` by a sweep of the built array, or None when
    ``p`` is not in the bijection image.  A cell lies above the path
    exactly when it holds a positive entry that is not a diagonal hook of
    ``p`` or a negative entry whose absolute value is; each row's cut
    counts those cells, and the cuts must weakly decrease and carry
    ``p``'s hook set.  O(mn) membership tests."""
    try:
        hooks = p.diagonal_hooks()
    except ValueError:
        return None
    members = set(hooks)
    arr = build_array(params.s, params.t)
    cuts = tuple(
        sum((v not in members) if v > 0 else (-v in members) for v in row)
        for row in arr.entries
    )
    if any(a < b for a, b in zip(cuts, cuts[1:])) or hook_set(arr, cuts) != hooks:
        return None
    return LatticePath(params.m, params.n, Partition(tuple(k for k in cuts if k)))


def steps_by_columns(path: LatticePath) -> str:
    """``path.steps()`` column by column: the path climbs to height m minus
    the cells above it in column j, read off the conjugate of mu, then
    steps right.  O(mn)."""
    conj = conjugate(path.mu).rows + (0,) * path.n
    word = []
    height = 0
    for j in range(1, path.n + 1):
        target = path.m - conj[j - 1]
        word.append("U" * (target - height))
        word.append("R")
        height = target
    word.append("U" * (path.m - height))
    return "".join(word)


def path_from_steps_by_columns(word: str, m: int, n: int) -> LatticePath:
    """``LatticePath.from_steps`` for a valid word, column by column: column
    j has m - height cells above the path, height the U's before its R,
    and row i counts the columns of at least i such cells.  O(mn)."""
    height = 0
    cols = []
    for c in word:
        if c == "U":
            height += 1
        else:
            cols.append(m - height)
    mu_rows = [sum(1 for c in cols if c >= i) for i in range(1, m + 1)]
    return LatticePath(m, n, Partition(tuple(r for r in mu_rows if r > 0)))


def core_search_by_candidates(s: int, t: int, max_size: float = inf) -> Iterator[Partition]:
    """``oracles._core_search`` trying each candidate hook u above max beta
    in increasing order, against a membership bytearray: u joins when, for
    h in {s, t}, u - h is a member (u > h) or u < h.  The same tree in the
    same preorder."""
    top = s * t - s - t
    step = min(s, t)
    member = bytearray(top + 1)
    # the rows bottom-up, one per member: member k (0-based) is rows[k] + k
    rows: list[int] = []
    size = 0
    # per level, the candidates still to try for the next member
    levels = [iter(range(1, min(step, top, max_size) + 1))]
    yield Partition()
    while levels:
        for u in levels[-1]:
            if (member[u - s] if u > s else u != s) and (
                member[u - t] if u > t else u != t
            ):
                member[u] = 1
                rows.append(u - len(rows))
                size += rows[-1]
                hi = min(u + step, top, max_size - size + len(rows))
                levels.append(iter(range(u + 1, hi + 1)))
                yield Partition(rows[::-1])
                break
        else:
            levels.pop()
            if rows:
                r = rows.pop()
                member[r + len(rows)] = 0
                size -= r


def sc_search_by_candidates(s: int, t: int) -> Iterator[Partition]:
    """``oracles._sc_search`` trying each odd candidate hook u above max D
    in increasing order, against a membership bytearray: u joins when, for
    h in {s, t}, u - 2h is a member (u > 2h) or 2h - u is not, u counted
    (u < 2h).  The same tree in the same preorder."""
    top = s * t - s - t
    step = 2 * min(s, t)
    member = bytearray(max(top, 2 * s, 2 * t) + 1)
    # row r + 1 as one shared int object, for r up to the largest core's
    # first row (s-1)(t-1)/2, so the listed cores' rows share their ints
    plus_one = list(range(1, (s - 1) * (t - 1) // 2 + 2)).__getitem__
    # the ancestors of the next node, root first: the partitions yielded
    ancestors = [Partition()]
    # per level, the candidates still to try for the next member
    levels = [iter(range(1, min(step, top) + 1, 2))]
    yield ancestors[0]
    while levels:
        for u in levels[-1]:
            member[u] = 1  # tried as a member, so u = h breaks the second rule
            ds, dt = u - 2 * s, u - 2 * t
            if (member[ds] if ds > 0 else not member[-ds]) and (
                member[dt] if dt > 0 else not member[-dt]
            ):
                a = u >> 1
                rows = ancestors[-1].rows
                p = Partition([plus_one(a), *map(plus_one, rows), *(1,) * (a - len(rows))])
                ancestors.append(p)
                levels.append(iter(range(u + 2, min(u + step, top) + 1, 2)))
                yield p
                break
            member[u] = 0
        else:
            levels.pop()
            rows = ancestors.pop().rows
            if rows:
                member[2 * rows[0] - 1] = 0  # the largest hook of a self-conjugate partition
