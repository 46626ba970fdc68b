"""Lattice-path counting identities in an m x n box.

The central object is the table whose (i, j) entry counts the monotone
lower-left to upper-right paths lying below cell (i, j), i.e. the paths
whose above-partition mu has mu_i >= j.  ``_below_rows`` streams its rows
bottom up from two rows of prefix counts; ``below_sums`` folds them and
``symmetry_holds`` compares each with its mirror, so no table is kept.
All arithmetic is plain Python integers: the weighted sums overflow 64
bits well before the m, n <= 30 sweep ends.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, islice
from math import comb
from operator import add, mul, sub

from .bijection import _MAX_CELLS, _box_sides


def _check_box(m: int, n: int) -> tuple[int, int]:
    """(m, n) as ints, unless ``_box_sides`` refuses them or m*n > ``_MAX_CELLS``."""
    m, n = _box_sides(m, n)
    if m * n > _MAX_CELLS:
        raise ValueError(f"m*n = {m * n} table cells is over the supported maximum of 10**6")
    return m, n


def _below_rows(a: int, b: int):
    """The below-count rows of the a x b box, a <= b, as tuples, bottom first.

    A path is below cell (i, j) exactly when it crosses the column strip of
    j at some height h <= a - i, which splits it into a prefix ending at
    (j-1, h) and a suffix from (j, h).  So row i is row i + 1 plus the
    crossings at h = a - i: C(a-i+j-1, a-i) prefixes times C(i+b-j, i)
    suffixes.  Two rows of C(x+y, x), y < b, are held: x = a - i, stepped
    forward by prefix sums from x = 0, and x = i, stepped back by differences
    from x = a, which a forward steps reach.  O(ab) additions and products.
    """
    ahead = back = (1,) * b
    for _ in range(a):
        back = tuple(accumulate(back))
    below = back[::-1]  # row a: one prefix, C(j-1, 0) = 1, times each suffix
    yield below
    for _ in range(a - 1):  # step between two rows, never after the last
        ahead = tuple(accumulate(ahead))
        back = tuple(map(sub, back, (0, *back)))
        below = tuple(map(add, below, map(mul, ahead, reversed(back))))
        yield below


def below_sums(m: int, n: int) -> tuple[int, int, int]:
    """(sum of f, of i * f, of j * f) over the 1-based cells (i, j) of the
    m x n box's below-count table f.  A tall box reads its transpose's,
    with the weighted sums swapped."""
    m, n = _check_box(m, n)
    total, x, y = _wide_below_sums(min(m, n), max(m, n))
    return (total, x, y) if m <= n else (total, y, x)


@lru_cache(maxsize=128)
def _wide_below_sums(a: int, b: int) -> tuple[int, int, int]:
    """``below_sums`` of the a x b box, a <= b, folded as its rows pass;
    cached by the wide box, so a box and its transpose share an entry: up to
    ``--max 127`` a sweep folds each box at most once per orientation."""
    total = by_row = by_col = 0
    for i, row in zip(range(a, 0, -1), _below_rows(a, b)):
        row_sum = sum(row)
        total += row_sum
        by_row += i * row_sum
        by_col += sum(map(mul, row, range(1, b + 1)))
    return total, by_row, by_col


def sum_below_closed(m: int, n: int) -> int:
    """Closed form for the plain sum of ``below_sums``: C(m+n, m) * m * n / 2."""
    prod = comb(m + n, m) * m * n
    assert prod % 2 == 0
    return prod // 2


def sum_below_times_row_closed(m: int, n: int) -> int:
    return comb(m + 2, 3) * comb(m + n, m + 1)


def sum_below_times_col_closed(m: int, n: int) -> int:
    return comb(n + 2, 3) * comb(m + n, n + 1)


def row_weighted_recurrence_holds(m: int, n: int) -> bool:
    """Check G(m, n) = G(m-1, n) + G(m, n-1) + C(m+1, 2) * C(m+n-1, m) for
    the row-weighted sum G, all three G values from ``below_sums``."""
    if m < 2 or n < 2:
        raise ValueError(f"recurrence needs m, n >= 2, got {m}, {n}")
    rhs = below_sums(m - 1, n)[1] + below_sums(m, n - 1)[1] + comb(m + 1, 2) * comb(m + n - 1, m)
    return below_sums(m, n)[1] == rhs


def symmetry_holds(m: int, n: int) -> bool:
    """Complementary cells partition the path set: table[i][j] plus
    table[m-i+1][n-j+1] must equal C(m+n, m) everywhere.  The rows are read
    as made, bottom first, a tall box's wide; the bottom half is held and
    each later row is compared once with its mirror."""
    m, n = _check_box(m, n)
    a = min(m, n)
    rows = _below_rows(a, max(m, n))
    held = list(islice(rows, a // 2))
    if a % 2:  # the middle row is its own mirror
        held.append(next(rows))
        rows = chain(held[-1:], rows)
    full = comb(m + n, m)
    return all(x + y == full for row in rows for x, y in zip(row, reversed(held.pop())))


def identity_report(m: int, n: int) -> dict:
    """All identity checks for one box, as a flat dict of booleans.

    The recurrence entry is vacuously true when either dimension is 1.
    """
    m, n = _check_box(m, n)
    total, by_row, by_col = below_sums(m, n)
    return {
        "m": m,
        "n": n,
        "sum_f_ok": total == sum_below_closed(m, n),
        "sum_if_ok": by_row == sum_below_times_row_closed(m, n),
        "sum_jf_ok": by_col == sum_below_times_col_closed(m, n),
        "symmetry_ok": symmetry_holds(m, n),
        "recurrence_ok": (
            row_weighted_recurrence_holds(m, n) if m >= 2 and n >= 2 else True
        ),
    }
