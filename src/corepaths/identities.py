"""Lattice-path counting identities in an m x n box.

The central object is the table whose (i, j) entry counts the monotone
lower-left to upper-right paths lying below cell (i, j), i.e. the paths
whose above-partition mu has mu_i >= j.  All arithmetic is plain Python
integers: the weighted sums overflow 64 bits well before the m, n <= 30
sweep ends.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .bijection import _MAX_CELLS


def path_prefix_table(a: int, b: int) -> list[list[int]]:
    """Pascal-style DP table: entry [x][y] counts monotone paths from (0, 0)
    to (x, y), built from the one-step recurrence."""
    table = [[1] * (b + 1) for _ in range(a + 1)]
    for x in range(1, a + 1):
        row = table[x]
        prev = table[x - 1]
        for y in range(1, b + 1):
            row[y] = prev[y] + row[y - 1]
    return table


@lru_cache(maxsize=128)
def below_count_table(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Table (1-based cells stored 0-based) counting, for each cell (i, j),
    the paths in the m x n box that pass below it.

    A path is below cell (i, j) exactly when it crosses the column strip of
    j at some height h <= m - i, which splits it into a prefix ending at
    (j-1, h) and a suffix from (j, h).  Cell (i, j) therefore counts the
    crossings of cell (i+1, j) plus those at height h = m - i alone, so the
    rows are built bottom up in O(mn) products.
    Cached: each identity report reads its box and the boxes one row and
    one column smaller, and a sweep over m, n <= MAX has read those among
    its last MAX + 1 tables, so 128 tables miss once per box up to
    ``identities --max 127``.  Refused before anything is allocated when
    the box has over ``_MAX_CELLS`` cells.
    """
    if m < 1 or n < 1:
        raise ValueError(f"box dimensions must be positive, got {m}x{n}")
    if m * n > _MAX_CELLS:
        raise ValueError(f"m*n = {m * n} table cells is over the supported maximum of 10**6")
    # cell (i, j) of the box is cell (j, i) of the transposed box, so the
    # table is built for the a x b box, a <= b, and transposed when tall:
    # paths[x][y] = C(x+y, x) has a + 1 rows, and cell (i, j) adds the
    # prefix count paths[a-i][j-1] times the suffix count paths[i][b-j]
    a, b = min(m, n), max(m, n)
    paths = path_prefix_table(a, b)
    rows = []
    below = [0] * b
    for i in range(a, 0, -1):
        below = [c + x * y for c, x, y in zip(below, paths[a - i], paths[i][b - 1 :: -1])]
        rows.append(tuple(below))
    rows.reverse()
    del paths, below  # freed before a tall box's rows are transposed
    return tuple(rows) if m <= n else tuple(zip(*rows))


def sum_below(m: int, n: int) -> int:
    return sum(sum(row) for row in below_count_table(m, n))


def sum_below_closed(m: int, n: int) -> int:
    """Closed form for ``sum_below``: C(m+n, m) * m * n / 2."""
    prod = comb(m + n, m) * m * n
    assert prod % 2 == 0
    return prod // 2


def sum_below_times_row(m: int, n: int) -> int:
    """Sum of i * table[i][j] over all cells (1-based row index weight)."""
    f = below_count_table(m, n)
    return sum(i * v for i, row in enumerate(f, start=1) for v in row)


def sum_below_times_row_closed(m: int, n: int) -> int:
    return comb(m + 2, 3) * comb(m + n, m + 1)


def sum_below_times_col(m: int, n: int) -> int:
    """Sum of j * table[i][j] over all cells (1-based column index weight)."""
    f = below_count_table(m, n)
    return sum(j * v for row in f for j, v in enumerate(row, start=1))


def sum_below_times_col_closed(m: int, n: int) -> int:
    return comb(n + 2, 3) * comb(m + n, n + 1)


def row_weighted_recurrence_holds(m: int, n: int) -> bool:
    """Check G(m, n) = G(m-1, n) + G(m, n-1) + C(m+1, 2) * C(m+n-1, m) for
    the row-weighted sum G, all four values computed from the table."""
    if m < 2 or n < 2:
        raise ValueError(f"recurrence needs m, n >= 2, got {m}, {n}")
    lhs = sum_below_times_row(m, n)
    rhs = (
        sum_below_times_row(m - 1, n)
        + sum_below_times_row(m, n - 1)
        + comb(m + 1, 2) * comb(m + n - 1, m)
    )
    return lhs == rhs


def symmetry_holds(m: int, n: int) -> bool:
    """Complementary cells partition the path set: table[i][j] plus
    table[m-i+1][n-j+1] must equal C(m+n, m) everywhere."""
    f = below_count_table(m, n)
    full = comb(m + n, m)
    return all(
        f[i][j] + f[m - 1 - i][n - 1 - j] == full
        for i in range(m)
        for j in range(n)
    )


def identity_report(m: int, n: int) -> dict:
    """All identity checks for one box, as a flat dict of booleans.

    The recurrence entry is vacuously true when either dimension is 1.
    """
    return {
        "m": m,
        "n": n,
        "sum_f_ok": sum_below(m, n) == sum_below_closed(m, n),
        "sum_if_ok": sum_below_times_row(m, n) == sum_below_times_row_closed(m, n),
        "sum_jf_ok": sum_below_times_col(m, n) == sum_below_times_col_closed(m, n),
        "symmetry_ok": symmetry_holds(m, n),
        "recurrence_ok": (
            row_weighted_recurrence_holds(m, n) if m >= 2 and n >= 2 else True
        ),
    }
