"""Integer partitions: Ferrers geometry, diagonal hooks, self-conjugacy and
containment.

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

from collections.abc import Iterable
from operator import attrgetter, ge, index, le

# sets a field of a Value in its __init__, past the refusing __setattr__
_set = object.__setattr__


def _integer(what: str, value) -> int:
    """``value`` through ``operator.index``; ValueError if no integer (2.5, "2")."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


class Value:
    """Base of the immutable value classes.  A subclass names its fields in
    ``__slots__`` (names starting with ``_`` are private caches, not
    fields) and sets each once in ``__init__`` through ``_set``; it gets a
    field-wise repr, equality and hash through a per-class attrgetter key
    over the fields (only values of the same class compare equal), and
    assignment raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

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
        if not rows or (rows[-1] >= 1 and list(rows) == sorted(rows, reverse=True)):
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

    def _self_conjugate_hooks(self) -> tuple[int, ...] | None:
        """The diagonal hooks if the partition is self-conjugate, else None:
        each row j of the Durfee square is compared with its column count,
        stopping at the first mismatch, and gives the hook 2*(rows_j - j) + 1.

        Those rows suffice: the partition is fixed by its Frobenius
        coordinates (rows_j - j, cols_j - j) for j <= d, and conjugation
        swaps the two, so it is self-conjugate exactly when rows_j = cols_j
        for every j <= d.
        """
        rows = self.rows
        hooks = []
        # c counts the rows reaching column j.  At j = 1 that is all of them,
        # so the loop goes on only if rows[0] = len(rows), and rows[0] >= j
        # then keeps c >= 1
        c = len(rows)
        for j, r in enumerate(rows, start=1):
            if r < j:  # past the Durfee square
                break
            while rows[c - 1] < j:
                c -= 1
            if r != c:
                return None
            hooks.append(2 * (r - j) + 1)
        return tuple(hooks)

    def is_self_conjugate(self) -> bool:
        """Whether the partition is its own conjugate: one Durfee-square walk."""
        return self._self_conjugate_hooks() is not None

    def contains(self, inner: "Partition") -> bool:
        """Containment order: every row of ``inner`` fits inside this one."""
        return len(inner.rows) <= len(self.rows) and all(map(ge, self.rows, inner.rows))

    def diagonal_hooks(self) -> tuple[int, ...]:
        """Hook lengths of the main diagonal cells, strictly decreasing.

        Only defined for self-conjugate partitions, where every diagonal
        hook is odd; read off the self-conjugacy walk.
        """
        hooks = self._self_conjugate_hooks()
        if hooks is None:
            raise ValueError("diagonal hooks require a self-conjugate partition")
        return hooks

    def ferrers(self) -> str:
        """One line of box glyphs per row; the empty partition is '(empty)'."""
        if not self.rows:
            return "(empty)"
        return "\n".join("▪" * r for r in self.rows)

    def __str__(self) -> str:
        return "(" + ", ".join(str(r) for r in self.rows) + ")"


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
    # column i, so value c fills the rows rows[c] + 1 .. rows[c-1] (0-based
    # list, rows[k] read as k): one step per value, from k down to 1
    for c in range(k, 0, -1):
        rows += [c] * (rows[c - 1] - (rows[c] if c < k else k))
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
