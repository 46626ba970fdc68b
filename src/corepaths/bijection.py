"""The signed hook array for a coprime pair (s, t), monotone lattice paths
in its floor(s/2) x floor(t/2) box, and the correspondence between paths and
self-conjugate (s, t)-core partitions.

Orientation is pinned once and for all: row 1 is the top row of the array
(where the entry s*t - s - t lives), paths run from the lower-left corner to
the upper-right corner, and a path is canonically stored as the partition mu
of cells lying ABOVE it (toward the top-left).  Cell (i, j) is above the
path exactly when j <= mu_i.

Everything here is a pure function over immutable values.  CoreParams counts
the work each budgeted job does, for the one ``check_budget``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .partitions import Partition, partition_from_diagonal_hooks, validate_hook_set

# Input cap on s*t.  All arithmetic is exact Python ints, so the cap is not
# about overflow: it bounds array size and work, since the array has about
# s*t/4 entries and the largest core about (s*t)^2/24 cells.
_MAX_ST = 2**31
# Cap on the m*n cells of a built array.  The largest core, which map,
# unmap and largest build from it, has about 2*m*n rows.
_MAX_CELLS = 10**6
# Cap on the rows a listing job may hold and test: its core count times the
# (s-1)(t-1)/2 rows of the largest core, which contains every (s, t)-core.
_MAX_LISTED_ROWS = 10**7
# Counts with more decimal digits than this are described by their digit
# count: printing them would flood a message (and past 4300 digits Python
# refuses to convert them at all).
_MAX_PRINTED_DIGITS = 100
# How the refusal of each unit of budgeted work states the count.
_NEEDS = {"path": "enumeration needs {} paths", "cell": "staircase DP needs {} cells",
          "core": "brute-force search lists {} cores"}


def decimal_digits(n: int) -> int:
    """Number of decimal digits of |n|, without converting it to a string."""
    n = abs(n)
    # 2**(b-1) <= n, so this starts at or below the true count minus one
    digits = max(1, int((n.bit_length() - 1) * math.log10(2)))
    while n >= 10**digits:
        digits += 1
    return digits


def describe_count(n: int) -> str:
    """n in decimal, or its order of magnitude and digit count when it is
    too long to print."""
    digits = decimal_digits(n)
    if digits > _MAX_PRINTED_DIGITS:
        return f"at least 10^{digits - 1} ({digits} digits)"
    return str(n)


class BudgetError(ValueError):
    """Raised when a job needs more of its unit of work than its budget."""

    def __init__(self, unit: str, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"{_NEEDS[unit].format(describe_count(required))}, over the budget "
            f"of {describe_count(budget)}; raise the budget to proceed"
        )


def check_budget(unit: str, required: int, budget: int) -> int:
    """``required`` if it is within ``budget``, else BudgetError; unit keys ``_NEEDS``."""
    if required > budget:
        raise BudgetError(unit, required, budget)
    return required


def check_listing(params: CoreParams, cores: int) -> None:
    """ValueError when listing ``cores`` (s, t)-cores may hold more than
    ``_MAX_LISTED_ROWS`` rows: every core lies inside the largest one, so
    its (s-1)(t-1)/2 rows bound each core's."""
    rows = (params.s - 1) * (params.t - 1) // 2
    if cores * rows > _MAX_LISTED_ROWS:
        raise ValueError(
            f"{describe_count(cores)} cores of up to {rows} rows each bound the listing "
            f"at {describe_count(cores * rows)} rows, over the supported maximum of 10**7"
        )


@dataclass(frozen=True)
class CoreParams:
    """A coprime pair (s, t) with the derived box dimensions m, n."""

    s: int
    t: int

    def __post_init__(self):
        s, t = self.s, self.t
        if s < 2 or t < 2:
            raise ValueError(f"both parameters must be at least 2, got ({s}, {t})")
        if math.gcd(s, t) != 1:
            raise ValueError(f"not coprime: ({s}, {t})")
        if s * t > _MAX_ST:
            raise ValueError(f"s*t = {s * t} is over the supported maximum of 2**31")
        assert s % 2 == 1 or t % 2 == 1

    @property
    def m(self) -> int:
        return self.s // 2

    @property
    def n(self) -> int:
        return self.t // 2

    @property
    def path_count(self) -> int:
        """C(m+n, m), the paths of the box: what the path walk visits, and
        the self-conjugate cores the brute-force search lists."""
        return math.comb(self.m + self.n, self.m)

    @property
    def cell_count(self) -> int:
        """m * n, the cells of the box: what the staircase DP folds."""
        return self.m * self.n

    @property
    def all_core_count(self) -> int:
        """C(s+t, s) / (s+t), Anderson's count of all (s, t)-cores: what
        the all-cores search lists."""
        return math.comb(self.s + self.t, self.s) // (self.s + self.t)

    @property
    def max_core_size(self) -> int:
        """(s^2 - 1)(t^2 - 1) / 24, the size of the largest (s, t)-core."""
        prod = (self.s * self.s - 1) * (self.t * self.t - 1)
        assert prod % 24 == 0
        return prod // 24


@dataclass(frozen=True, eq=False)
class CoreArray:
    """The m x n array with entry s*t - (2j-1)s - (2i-1)t at cell (i, j).

    Entries decrease by 2s along rows and 2t down columns, are odd, nonzero,
    pairwise distinct in absolute value, and the top-left entry dominates
    them all in absolute value.
    """

    params: CoreParams
    entries: tuple[tuple[int, ...], ...] = field(repr=False)

    def __post_init__(self):
        a11 = self.entries[0][0]
        amn = self.entries[-1][-1]
        assert a11 == self.params.s * self.params.t - self.params.s - self.params.t
        assert a11 + amn > 0

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def n(self) -> int:
        return self.params.n

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-based cell (i, j)."""
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise ValueError(f"cell ({i}, {j}) outside the {self.m}x{self.n} array")
        return self.entries[i - 1][j - 1]

    def positive_sum(self) -> int:
        """Sum of the positive entries; equals the largest core size."""
        return sum(v for row in self.entries for v in row if v > 0)

    @cached_property
    def _row_cuts(self) -> tuple[tuple[tuple[int, ...], tuple[slice, ...]], ...]:
        # Entries fall from positive to negative along a row, so with p
        # positives the hooks of a row cut at k (the |negative| entries left
        # of k and the positive entries from k on) are one slice of the
        # row's positives followed by its |negatives|, [k:p] or [p:k].  Each
        # row keeps that line and the slice for every k, linear in its length.
        cuts = []
        for row in self.entries:
            p = sum(1 for v in row if v > 0)
            line = row[:p] + tuple(-v for v in row[p:])
            slices = tuple(slice(min(k, p), max(k, p)) for k in range(self.n + 1))
            cuts.append((line, slices))
        return tuple(cuts)

    def hook_set(self, cuts: tuple[int, ...]) -> tuple[int, ...]:
        """Diagonal hook set of the path with cuts[i] cells above it in row
        i + 1 (one cut per row): positive entries below the path plus the
        absolute values of negative entries above it, sorted decreasing."""
        hooks = []
        for (line, slices), k in zip(self._row_cuts, cuts):
            hooks += line[slices[k]]
        return validate_hook_set(hooks)


@lru_cache(maxsize=128)
def build_array(s: int, t: int) -> CoreArray:
    """Build the signed hook array for a coprime pair (s, t).

    Cached: arrays are immutable (the entries are nested tuples), so the
    same instance is shared by every caller.  Refused before anything is
    allocated when it would have over ``_MAX_CELLS`` cells.
    """
    params = CoreParams(s, t)
    if params.cell_count > _MAX_CELLS:
        raise ValueError(
            f"m*n = {params.cell_count} array cells is over the supported maximum of 10**6"
        )
    entries = tuple(
        tuple(s * t - (2 * j - 1) * s - (2 * i - 1) * t for j in range(1, params.n + 1))
        for i in range(1, params.m + 1)
    )
    return CoreArray(params, entries)


@dataclass(frozen=True)
class LatticePath:
    """A monotone lower-left to upper-right path in an m x n box, stored as
    the partition mu of cells above it."""

    m: int
    n: int
    mu: Partition = Partition()

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"box dimensions must be positive, got {self.m}x{self.n}")
        if len(self.mu) > self.m or (self.mu.rows and self.mu.rows[0] > self.n):
            raise ValueError(f"mu = {self.mu} does not fit in a {self.m}x{self.n} box")

    def steps(self) -> str:
        """The path as a word over U/R read from the lower-left corner.

        Crossing column j the path runs at height m minus the number of
        above-cells in that column, so it climbs to that height and takes
        one right step per column.
        """
        conj = self.mu.conjugate()
        word = []
        height = 0
        for j in range(1, self.n + 1):
            target = self.m - conj.row(j)
            word.append("U" * (target - height))
            word.append("R")
            height = target
        word.append("U" * (self.m - height))
        return "".join(word)

    @classmethod
    def from_steps(cls, word: str, m: int, n: int) -> "LatticePath":
        """Parse a U/R word read from the lower-left corner."""
        word = word.strip().upper()
        ups = word.count("U")
        rights = word.count("R")
        if set(word) - {"U", "R"}:
            raise ValueError(f"step word may contain only U and R: {word!r}")
        if ups != m or rights != n:
            raise ValueError(
                f"step word needs exactly {m} U's and {n} R's, got {ups} and {rights}"
            )
        # column j gets m - height cells above the path, height = U's so far
        height = 0
        cols = []
        for c in word:
            if c == "U":
                height += 1
            else:
                cols.append(m - height)
        mu_rows = [sum(1 for c in cols if c >= i) for i in range(1, m + 1)]
        return cls(m, n, Partition(tuple(r for r in mu_rows if r > 0)))


def path_hook_set(path: LatticePath, arr: CoreArray) -> tuple[int, ...]:
    """Diagonal hook set carried by a path: positive entries below it plus
    absolute values of negative entries above it, sorted decreasing."""
    if (path.m, path.n) != (arr.m, arr.n):
        raise ValueError(
            f"path box {path.m}x{path.n} does not match array {arr.m}x{arr.n}"
        )
    return arr.hook_set(path.mu.rows + (0,) * (arr.m - len(path.mu)))


def core_from_path(path: LatticePath, params: CoreParams) -> Partition:
    """The self-conjugate (s, t)-core corresponding to a lattice path."""
    arr = build_array(params.s, params.t)
    return partition_from_diagonal_hooks(path_hook_set(path, arr))


def path_from_core(p: Partition, params: CoreParams) -> LatticePath:
    """The unique path mapping to ``p``; raises if ``p`` is not a
    self-conjugate (s, t)-core.

    Solved cell by cell: a cell lies above the path exactly when it holds a
    positive entry that is not a diagonal hook of ``p``, or a negative entry
    whose absolute value is.  Each row's cut counts those cells.  The
    array's absolute values are pairwise distinct, so ``p`` is in the image
    exactly when the cuts weakly decrease and carry ``p``'s hook set.
    """
    try:
        hooks = p.diagonal_hooks()
    except ValueError:
        raise ValueError(
            f"not in the bijection image: {p} is not self-conjugate"
        ) from None
    members = set(hooks)
    arr = build_array(params.s, params.t)
    cuts = tuple(
        sum((v not in members) if v > 0 else (-v in members) for v in row)
        for row in arr.entries
    )
    if any(a < b for a, b in zip(cuts, cuts[1:])) or arr.hook_set(cuts) != hooks:
        raise ValueError(f"not in the bijection image: {p}")
    return LatticePath(arr.m, arr.n, Partition(tuple(k for k in cuts if k)))


def largest_core(params: CoreParams) -> Partition:
    """The largest (s, t)-core: image of the path hugging the left and top
    borders (mu empty), whose hook set is all positive array entries."""
    return core_from_path(LatticePath(params.m, params.n), params)
