"""Integer partitions: Ferrers geometry, hooks, conjugation, t-cores.

Partitions are immutable values and every function here is pure, so all of
this is safe to share freely between threads.

Conventions used throughout the package:

* a partition is a weakly decreasing tuple of positive integers (row
  lengths); the empty tuple is the empty partition;
* rows and columns are 1-based;
* the hook length of cell (i, j) is ``rows[i] - j + conj[j] - i + 1``
  (arm + leg + 1);
* a partition is a t-core when no cell has hook length exactly t.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import add, ge, index, le

# sets a field of a Value in its __init__, past the refusing __setattr__
_set = object.__setattr__


class Value:
    """Base of the immutable value classes.  A subclass names its fields in
    ``__slots__`` (names starting with ``_`` are private caches, not
    fields) and sets each once in ``__init__`` through ``_set``; it gets
    field-wise equality, hash and repr, and assignment raises
    AttributeError.  A subclass that defines ``__eq__`` keeps its own
    equality and hash."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        if "__eq__" in vars(cls):
            return
        # compiled from source, as a dataclass's are: field loads written
        # out run about twice as fast as an attrgetter over the fields
        own, theirs = (" ".join(f"{x}.{f}," for f in cls._fields) for x in ("self", "other"))
        namespace = {}
        exec(
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({own}) == ({theirs})\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash(({own}))\n",
            namespace,
        )
        cls.__eq__ = namespace["__eq__"]
        cls.__hash__ = namespace["__hash__"]

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through __init__: each constructor takes its fields in order
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {self.__class__.__name__} is immutable")


class Partition(Value):
    """A weakly decreasing tuple of positive row lengths."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[int, ...] = ()):
        try:
            rows = tuple(map(index, rows))
        except TypeError:
            raise ValueError(f"row lengths must be integers, got {rows!r}")
        _set(self, "rows", rows)
        if not rows or (rows[-1] >= 1 and all(map(ge, rows, rows[1:]))):
            return
        # invalid: find the first offending row, for the error message
        for i, r in enumerate(rows):
            if r < 1:
                raise ValueError(f"row lengths must be positive, got {r}")
            if i and rows[i - 1] < r:
                raise ValueError(f"rows must be weakly decreasing, got {rows}")

    @property
    def size(self) -> int:
        return sum(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[int]:
        return iter(self.rows)

    def row(self, i: int) -> int:
        """Length of row i (1-based); 0 beyond the last row."""
        return self.rows[i - 1] if 1 <= i <= len(self.rows) else 0

    def conjugate(self) -> "Partition":
        """Transpose across the main diagonal."""
        if not self.rows:
            return Partition()
        cols = [0] * self.rows[0]
        for r in self.rows:
            for j in range(r):
                cols[j] += 1
        return Partition(tuple(cols))

    def is_self_conjugate(self) -> bool:
        """Compare each row with its column count, stopping at the first
        mismatch; no conjugate is built."""
        rows = self.rows
        # c counts the rows reaching column j.  At j = 1 that is all of them,
        # so the loop goes on only if rows[0] = len(rows), and rows[0] >= j
        # then keeps c >= 1
        c = len(rows)
        for j, r in enumerate(rows, start=1):
            while rows[c - 1] < j:
                c -= 1
            if r != c:
                return False
        return True

    def contains(self, inner: "Partition") -> bool:
        """Containment order: every row of ``inner`` fits inside this one."""
        if len(inner) > len(self):
            return False
        return all(self.rows[i] >= inner.rows[i] for i in range(len(inner)))

    def hook_length(self, i: int, j: int) -> int:
        """Hook length of cell (i, j); raises if (i, j) is not a cell."""
        if i < 1 or j < 1 or i > len(self.rows) or j > self.rows[i - 1]:
            raise ValueError(f"not a cell of the diagram: ({i}, {j})")
        conj_j = sum(1 for r in self.rows if r >= j)
        return self.rows[i - 1] - j + conj_j - i + 1

    def hook_lengths(self) -> list[int]:
        """All hook lengths, row by row."""
        conj = self.conjugate().rows
        return [
            r - j + conj[j - 1] - i
            for i, r in enumerate(self.rows)
            for j in range(1, r + 1)
        ]

    def first_column_hooks(self) -> list[int]:
        """Hook lengths of the first-column cells, top to bottom.

        These are ``rows[i] + len - i`` for 1-based i, a strictly decreasing
        set that determines the partition.
        """
        return list(map(add, self.rows, range(len(self.rows) - 1, -1, -1)))

    def durfee(self) -> int:
        """Side of the largest square fitting in the diagram."""
        d = 0
        for i, r in enumerate(self.rows, start=1):
            if r >= i:
                d = i
        return d

    def diagonal_hooks(self) -> tuple[int, ...]:
        """Hook lengths of the main diagonal cells, strictly decreasing.

        Only defined for self-conjugate partitions, where every diagonal
        hook is odd: the hook of (i, i) is 2*(rows[i] - i) + 1.
        """
        if not self.is_self_conjugate():
            raise ValueError("diagonal hooks require a self-conjugate partition")
        return tuple(2 * (self.rows[i - 1] - i) + 1 for i in range(1, self.durfee() + 1))

    def ferrers(self) -> str:
        """One line of box glyphs per row; the empty partition is '(empty)'."""
        if not self.rows:
            return "(empty)"
        return "\n".join("▪" * r for r in self.rows)

    def __str__(self) -> str:
        return "(" + ", ".join(str(r) for r in self.rows) + ")"


def is_t_core(p: Partition, t: int) -> bool:
    """True when no cell of ``p`` has hook length exactly ``t``.

    Uses the first-column hook shortcut: a hook of length t exists in row i
    exactly when b - t is a non-negative value missing from the first-column
    hook set, for b the first-column hook of row i.  Agrees with the literal
    all-cells scan of ``tests/_reference.py``; the agreement is exercised
    in the tests rather than assumed.
    """
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    hooks = set(p.first_column_hooks())
    return hooks.issuperset([b - t for b in hooks if b >= t])


def validate_hook_set(hooks: Iterable[int]) -> tuple[int, ...]:
    """Check a diagonal hook set (distinct odd positives), return it sorted
    in decreasing order."""
    try:
        hs = sorted(map(index, hooks), reverse=True)
    except TypeError:
        raise ValueError(f"diagonal hooks must be integers, got {hooks!r}")
    prev = 0
    for h in hs:
        if h < 1 or h % 2 == 0:
            raise ValueError(f"diagonal hooks must be odd positives, got {h}")
        if h == prev:
            raise ValueError(f"diagonal hooks must be distinct, got {h} twice")
        prev = h
    return tuple(hs)


def partition_from_diagonal_hooks(hooks: Iterable[int]) -> Partition:
    """The unique self-conjugate partition with the given diagonal hooks.

    With hooks d_1 > ... > d_k, row i is (d_i - 1)/2 + i for i <= k and the
    remaining rows are forced by self-conjugacy.  Inverse of
    ``Partition.diagonal_hooks``.
    """
    hs = validate_hook_set(hooks)
    k = len(hs)
    rows = [(h - 1) // 2 + i for i, h in enumerate(hs, start=1)]
    # row i > k is column i: the number c of the first k rows reaching
    # column i.  c only shrinks as i grows, and the last row is rows[0]
    # (the first column has rows[0] cells), so c >= 1 throughout
    c = k
    for i in range(k + 1, (rows[0] if rows else 0) + 1):
        while rows[c - 1] < i:
            c -= 1
        rows.append(c)
    return Partition(tuple(rows))


def diagonal_hooks_within(inner: tuple[int, ...], outer: tuple[int, ...]) -> bool:
    """Containment of self-conjugate partitions, read off their diagonal
    hooks (each sorted in decreasing order): ``inner`` fits in ``outer``
    exactly when it has no more hooks and ``inner[i] <= outer[i]`` for
    every i.

    Proof: row i <= d of a self-conjugate partition is (h_i - 1)/2 + i, and
    the rows below the Durfee square are its columns, so containment is
    decided by the first d rows, which the hooks compare one by one.
    """
    return len(inner) <= len(outer) and all(map(le, inner, outer))
