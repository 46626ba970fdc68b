"""The signed hook array for a coprime pair (s, t), monotone lattice paths
in its floor(s/2) x floor(t/2) box, and the correspondence between paths and
self-conjugate (s, t)-core partitions.

Orientation is pinned once and for all: row 1 is the top row of the array
(where the entry s*t - s - t lives), paths run from the lower-left corner to
the upper-right corner, and a path is canonically stored as the partition mu
of cells lying ABOVE it (toward the top-left).  Cell (i, j) is above the
path exactly when j <= mu_i.

Everything here is a pure function over immutable values, and the module
holds no cache.  A CoreParams states its rows' first entries once, and a
path's hooks follow from the sign of each row's entry at its cut.  Only
``path_from_core`` reads the one private row table a CoreParams builds on
first use and keeps: each row's positive count and t^-1 mod s.
CoreParams also counts the work each budgeted job does, for the one
``check_budget``.  No command builds the array itself:
``build_array`` states its entries cell by cell, as the literal route the
row arithmetic of ``_row_hooks`` is checked against.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .partitions import (
    Partition, Value, _integer, _set, partition_from_diagonal_hooks, validate_hook_set,
)

# Input cap on s*t.  All arithmetic is exact Python ints, so the cap is not
# about overflow, and the array, the listings and the stats DP each have a
# cap of their own.  It bounds what a budget check works out before it can
# refuse: the exact binomial C(m+n, m).  On a 2-core Xeon, Python 3.11.7,
# math.comb(2m, m) takes 0.04 s at m = 23170, the largest square pair under
# the cap, but 0.46 s at m = 10**5 and 8-10 s at m = 5*10**5, so without it
# ``verify --s 999999 --t 1000001`` would take seconds to refuse.
_MAX_ST = 2**31
# Cap on the m*n cells of a built array, and of a box whose below-count
# rows ``identities`` streams.
_MAX_CELLS = 10**6
# Cap on the rows a job may hold: its core count times the (s-1)(t-1)/2
# rows of the largest core, which contains every (s, t)-core.
_MAX_LISTED_ROWS = 10**7
# Counts with more decimal digits than this are described by their digit
# count: printing them would flood a message (and past 4300 digits Python
# refuses to convert them at all).
_MAX_PRINTED_DIGITS = 100
# Default budgets: the paths the walk of ``enumerate`` and ``verify`` may
# visit (and the cells of the ``stats`` DP), and the cores a brute-force
# search may list.
DEFAULT_PATH_BUDGET = 10**7
DEFAULT_ORACLE_BUDGET = 10**5
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
    """``required`` if it is within ``budget``, else BudgetError; unit keys
    ``_NEEDS``.  A budget that is no integer (1e7, 2.5) is a ValueError."""
    budget = _integer("budget", budget)
    if required > budget:
        raise BudgetError(unit, required, budget)
    return required


def check_listing(params: CoreParams, cores: int = 1) -> None:
    """ValueError when holding ``cores`` (s, t)-cores may take more than
    ``_MAX_LISTED_ROWS`` rows: every core lies inside the largest one, so
    its (s-1)(t-1)/2 rows bound each core's."""
    rows = (params.s - 1) * (params.t - 1) // 2
    if cores * rows > _MAX_LISTED_ROWS:
        what = (
            f"a core of up to {rows} rows" if cores == 1 else
            f"{describe_count(cores)} cores of up to {rows} rows each bound the listing "
            f"at {describe_count(cores * rows)} rows"
        )
        raise ValueError(f"{what}, over the supported maximum of 10**7")


class CoreParams(Value):
    """A coprime pair (s, t) with the derived box dimensions m, n.

    A path's hooks are read from the sign of each row's entry at its cut,
    the rows given by their first entries.  ``_rows`` caches the row table
    that ``path_from_core`` alone reads; as a private slot it is no field,
    so it takes no part in equality, hash, repr or pickling.
    """

    __slots__ = ("s", "t", "_rows")

    def __init__(self, s: int, t: int):
        s, t = _integer("s", s), _integer("t", t)
        if s < 2 or t < 2:
            raise ValueError(f"both parameters must be at least 2, got ({s}, {t})")
        if math.gcd(s, t) != 1:
            raise ValueError(f"not coprime: ({s}, {t})")
        if s * t > _MAX_ST:
            raise ValueError(f"s*t = {s * t} is over the supported maximum of 2**31")
        assert s % 2 == 1 or t % 2 == 1
        _set(self, "s", s)
        _set(self, "t", t)

    @property
    def m(self) -> int:
        return self.s // 2

    @property
    def n(self) -> int:
        return self.t // 2

    @property
    def _row_firsts(self) -> range:
        """Each array row's first entry st - s - (2i-1)t, top row first, as
        a range falling by 2t; row i then runs e, e - 2s, ... for n entries.
        The one statement of the rows outside ``build_array``; made on each
        read, in O(1)."""
        a11 = self.s * self.t - self.s - self.t
        return range(a11, a11 - self.m * 2 * self.t, -2 * self.t)

    def _row_table(self) -> tuple[tuple[int, ...], int]:
        """Each row's positive count, the number of hooks it carries cut
        at 0, and t^-1 mod s: the numbers ``path_from_core``, its one
        reader, starts from.  Built on the first call and kept: O(m) ints,
        held only as long as these params.  Threads racing to build it
        build equal tables, so either one's may stay."""
        try:
            return self._rows
        except AttributeError:
            pass
        s2 = 2 * self.s
        table = tuple([len(range(e, 0, -s2)) for e in self._row_firsts]), pow(self.t, -1, self.s)
        _set(self, "_rows", table)
        return table

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


class CoreArray(Value):
    """The m x n array with entry s*t - (2j-1)s - (2i-1)t at cell (i, j).

    Entries decrease by 2s along rows and 2t down columns, are odd, nonzero,
    pairwise distinct in absolute value, and the top-left entry dominates
    them all in absolute value.  Its repr leaves the entries out.
    """

    __slots__ = ("params", "entries")

    def __init__(self, params: CoreParams, entries: tuple[tuple[int, ...], ...]):
        a11 = entries[0][0]
        amn = entries[-1][-1]
        assert a11 == params.s * params.t - params.s - params.t
        assert a11 + amn > 0
        _set(self, "params", params)
        _set(self, "entries", entries)

    def __repr__(self):
        return f"CoreArray(params={self.params!r})"

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-based cell (i, j)."""
        m, n = self.params.m, self.params.n
        if not (1 <= i <= m and 1 <= j <= n):
            raise ValueError(f"cell ({i}, {j}) outside the {m}x{n} array")
        return self.entries[i - 1][j - 1]


def build_array(s: int, t: int) -> CoreArray:
    """Build the signed hook array for a coprime pair (s, t), cell by cell.

    Refused before anything is allocated when it would have over
    ``_MAX_CELLS`` cells.
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


def _box_sides(m: int, n: int) -> tuple[int, int]:
    """(m, n) as ints; ValueError unless both are integers of at least 1."""
    m, n = _integer("m", m), _integer("n", n)
    if m < 1 or n < 1:
        raise ValueError(f"box dimensions must be positive, got {m}x{n}")
    return m, n


class LatticePath(Value):
    """A monotone lower-left to upper-right path in an m x n box, stored as
    the partition mu of cells above it."""

    __slots__ = ("m", "n", "mu")

    def __init__(self, m: int, n: int, mu: Partition = Partition()):
        m, n = _box_sides(m, n)
        if len(mu.rows) > m or (mu.rows and mu.rows[0] > n):
            raise ValueError(f"mu = {mu} does not fit in a {m}x{n} box")
        _set(self, "m", m)
        _set(self, "n", n)
        _set(self, "mu", mu)

    def steps(self) -> str:
        """The path as a word over U/R read from the lower-left corner.

        Row i has mu_i cells above the path, on its left, so the path
        crosses row i after mu_i right steps: from the bottom it takes
        mu_i - mu_(i+1) right steps and one up step per row (mu_(m+1) = 0),
        then the n - mu_1 right steps left.  O(m + n).
        """
        rows = self.mu.rows
        word = ["U" * (self.m - len(rows))]
        below = 0
        for r in reversed(rows):
            word.append("R" * (r - below) + "U")
            below = r
        word.append("R" * (self.n - below))
        return "".join(word)

    @classmethod
    def from_steps(cls, word: str, m: int, n: int) -> "LatticePath":
        """Parse a U/R word read from the lower-left corner.  O(m + n)."""
        word = word.strip().upper()
        ups = word.count("U")
        rights = word.count("R")
        if set(word) - {"U", "R"}:
            raise ValueError(f"step word may contain only U and R: {word!r}")
        if ups != m or rights != n:
            raise ValueError(
                f"step word needs exactly {m} U's and {n} R's, got {ups} and {rights}"
            )
        # the k-th up step leaves row m + 1 - k with the right steps so far
        # above the path: the rows of mu bottom up, zeros first
        rows = list(accumulate(map(len, word.split("U")[:-1])))
        return cls(m, n, Partition(tuple(r for r in reversed(rows) if r)))


def _row_hooks(params: CoreParams, cuts) -> list[int]:
    """Diagonal hooks of the path with cuts[i] cells above it in row i + 1,
    sorted in decreasing order, from the arithmetic of the array alone;
    ``cuts`` has one entry per row.

    Row i runs e, e - 2s, ..., from its first entry e in
    ``CoreParams._row_firsts``, and the entry right of a cut at k is
    d = e - 2sk, which is odd, so never 0 or -2s.  For d > 0 the row
    carries its positives from column k on, d, d - 2s, ...; for d < -2s,
    the |negatives| left of the cut, -2s - d, -4s - d, ...; otherwise none.
    Either is one progression of step 2s down to 0, and it stays in the
    row, as e - 2sn < 0 < e + 2s.
    """
    s2 = 2 * params.s
    hooks = []
    for k, e in zip(cuts, params._row_firsts, strict=True):
        d = e - s2 * k
        if d > 0:
            hooks += range(d, 0, -s2)
        elif d < -s2:
            hooks += range(-s2 - d, 0, -s2)
    hooks.sort(reverse=True)
    return hooks


def _path_cuts(path: LatticePath, params: CoreParams) -> tuple[int, ...]:
    """The cells above ``path`` in each of the m rows of the (s, t) box."""
    m, n = params.s // 2, params.t // 2
    if (path.m, path.n) != (m, n):
        raise ValueError(f"path box {path.m}x{path.n} does not match array {m}x{n}")
    rows = path.mu.rows
    return rows + (0,) * (m - len(rows))


def path_hook_set(path: LatticePath, arr: CoreArray) -> tuple[int, ...]:
    """Diagonal hook set carried by a path: positive entries below it plus
    absolute values of negative entries above it, sorted decreasing.  Only
    ``arr.params`` is read."""
    return validate_hook_set(_row_hooks(arr.params, _path_cuts(path, arr.params)))


def core_from_path(path: LatticePath, params: CoreParams) -> Partition:
    """The self-conjugate (s, t)-core corresponding to a lattice path: the
    partition with the path's diagonal hooks."""
    return partition_from_diagonal_hooks(_row_hooks(params, _path_cuts(path, params)))


def path_from_core(p: Partition, params: CoreParams) -> LatticePath:
    """The unique path mapping to ``p``; raises if ``p`` is not a
    self-conjugate (s, t)-core.

    Hook h is the entry at (i, j), x = 2i - 1 and y = 2j - 1, when
    xt + ys = st - h, or its |entry| when xt + ys = st + h.  As x < s, x is
    s - r or r for r = h * t^-1 mod s, and then y is q or t - q for
    q = (rt - h)/s < t.  With q > 0 both lie in (0, t), and an odd x < s
    and y < t are inside the box.
    A row's cut starts at its positive count c, read with t^-1 from the
    params' row table, and moves past each hook: down at a positive entry,
    up at a negative one.  Beside it, the row's edge records, for the hooks
    taken smallest first, the 0-based column of a positive hook or one past
    that of a negative one, so the last write is the row's largest hook.
    ``p`` is in the image exactly when every hook is placed, each cut
    equals its row's edge, and the cuts weakly decrease:

    - the array's values are pairwise distinct in absolute value, so the
      placed hooks are distinct cells;
    - entries fall along a row, so its largest positive hook is its
      leftmost positive cell and its largest |negative| hook its rightmost
      negative cell;
    - so a row's a positive hooks, all in columns below c, fill exactly the
      block c - a .. c - 1 that the path cut at c - a carries exactly when
      the leftmost sits at column c - a; likewise its b negative hooks fill
      c .. c + b - 1 exactly when the rightmost sits at c + b - 1;
    - a row with hooks of both signs always fails: its cut c - a + b is
      above a largest positive hook's column (at most c - a) and below one
      past a largest negative hook's column (at least c + b).

    Then the cuts stay in [0, n] and carry ``p``'s hook set, and weakly
    decreasing they are a path: O(H + m log m) for H hooks.
    """
    try:
        hooks = p.diagonal_hooks()
    except ValueError:
        raise ValueError(
            f"not in the bijection image: {p} is not self-conjugate"
        ) from None
    s, t = params.s, params.t
    positives, t_inv = params._row_table()
    cuts = list(positives)
    edges = list(positives)
    for h in reversed(hooks):
        r = h * t_inv % s
        q = (r * t - h) // s  # exact, as rt = h (mod s)
        if q > 0 and (s - r) & q & 1:  # positive entry
            i = (s - r) >> 1
            cuts[i] -= 1
            edges[i] = q >> 1
        elif q > 0 and r & (t - q) & 1:  # negative entry
            i = r >> 1
            cuts[i] += 1
            edges[i] = (t - q + 1) >> 1
        else:
            raise ValueError(f"not in the bijection image: {p}")
    if cuts != edges or cuts != sorted(cuts, reverse=True):
        raise ValueError(f"not in the bijection image: {p}")
    return LatticePath(s // 2, t // 2, Partition(tuple(filter(None, cuts))))


def largest_hooks(params: CoreParams) -> list[int]:
    """Diagonal hooks of the largest (s, t)-core, decreasing: the hook set
    of the path hugging the left and top borders (mu empty), all positive
    array entries.  Refused by ``check_listing`` when the core may have
    over ``_MAX_LISTED_ROWS`` rows."""
    check_listing(params)
    return _row_hooks(params, [0] * params.m)


def largest_core(params: CoreParams) -> Partition:
    """The largest (s, t)-core: image of the empty path."""
    return partition_from_diagonal_hooks(largest_hooks(params))
