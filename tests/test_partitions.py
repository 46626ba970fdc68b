from collections import Counter
from itertools import combinations

import pytest

from corepaths.partitions import (
    Partition,
    diagonal_hooks_within,
    partition_from_diagonal_hooks,
    validate_hook_set,
)

from _reference import (
    conjugate,
    first_column_hooks,
    hook_length,
    hook_lengths,
    hook_set_is_t_core,
    is_t_core,
    is_t_core_scan,
    iter_partitions,
    iter_partitions_up_to,
)

FIG1 = Partition((7, 5, 5, 3, 3, 1, 1))


def test_construction_rejects_bad_rows():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))
    with pytest.raises(ValueError, match="integers"):
        Partition((2.5,))
    with pytest.raises(ValueError, match="integers"):
        Partition(("3",))


def test_construction_reports_the_first_bad_row():
    with pytest.raises(ValueError, match=r"weakly decreasing, got \(2, 3, 0\)"):
        Partition((2, 3, 0))
    with pytest.raises(ValueError, match="positive, got 0"):
        Partition((3, 0, 1))
    with pytest.raises(ValueError, match="row lengths must be positive, got 0"):
        Partition((2, 0))
    with pytest.raises(ValueError, match="positive, got -2"):
        Partition((-2, -3))


def test_construction_accepts_integer_like_values():
    import numpy as np

    p = Partition((np.int64(3), np.int64(1)))
    assert p.rows == (3, 1)
    assert all(type(r) is int for r in p.rows)


def test_size_and_length():
    assert Partition().size == 0
    assert len(Partition()) == 0
    assert FIG1.size == 25
    assert len(FIG1) == 7


def test_conjugate_examples():
    assert conjugate(FIG1) == FIG1
    assert conjugate(Partition()) == Partition()
    assert conjugate(Partition((3, 1))) == Partition((2, 1, 1))
    assert conjugate(Partition((2,))) == Partition((1, 1))


def test_conjugate_is_involution_up_to_30():
    for rows in iter_partitions_up_to(30):
        p = Partition(rows)
        assert conjugate(conjugate(p)) == p


def test_hook_length_examples():
    assert hook_length(FIG1, 1, 1) == 13
    assert hook_length(FIG1, 3, 3) == 5
    assert hook_length(Partition((1,)), 1, 1) == 1


def test_hook_length_outside_diagram():
    with pytest.raises(ValueError, match="not a cell"):
        hook_length(FIG1, 1, 8)
    with pytest.raises(ValueError, match="not a cell"):
        hook_length(FIG1, 8, 1)
    with pytest.raises(ValueError, match="not a cell"):
        hook_length(Partition(), 1, 1)


def test_hook_lengths_listing_matches_cellwise():
    for rows in iter_partitions_up_to(12):
        p = Partition(rows)
        listed = sorted(hook_lengths(p))
        cellwise = sorted(
            hook_length(p, i, j)
            for i in range(1, len(rows) + 1)
            for j in range(1, rows[i - 1] + 1)
        )
        assert listed == cellwise


def test_hook_multiset_invariant_under_conjugation_up_to_20():
    for rows in iter_partitions_up_to(20):
        p = Partition(rows)
        assert Counter(hook_lengths(p)) == Counter(hook_lengths(conjugate(p)))


def test_first_column_hooks_match_cells():
    for rows in iter_partitions_up_to(14):
        p = Partition(rows)
        assert first_column_hooks(p) == [
            hook_length(p, i, 1) for i in range(1, len(rows) + 1)
        ]


def test_is_t_core_examples():
    assert is_t_core(FIG1, 8)
    assert is_t_core(FIG1, 11)
    assert is_t_core(Partition(), 2)
    assert is_t_core(Partition(), 7)
    assert not is_t_core(Partition((2, 1)), 3)


def test_is_t_core_rejects_small_t():
    for fn in (is_t_core, is_t_core_scan):
        with pytest.raises(ValueError):
            fn(Partition((1,)), 1)
        with pytest.raises(ValueError):
            fn(Partition(), 0)


def test_t_core_variants_agree_up_to_30():
    # shortcut == literal cell scan == divisibility variant
    for rows in iter_partitions_up_to(30):
        p = Partition(rows)
        hooks = hook_lengths(p)
        for t in range(2, 13):
            literal = t not in hooks
            assert is_t_core(p, t) == literal
            assert all(h % t for h in hooks) == literal
    # the scan function itself on a smaller sweep (it recomputes hooks)
    for rows in iter_partitions_up_to(16):
        p = Partition(rows)
        for t in range(2, 13):
            assert is_t_core_scan(p, t) == is_t_core(p, t)


def test_is_self_conjugate_examples():
    assert FIG1.is_self_conjugate()
    assert Partition().is_self_conjugate()
    assert not Partition((2,)).is_self_conjugate()


def test_is_self_conjugate_matches_the_conjugate_up_to_24():
    for rows in iter_partitions_up_to(24):
        p = Partition(rows)
        assert p.is_self_conjugate() == (conjugate(p) == p), rows


def test_diagonal_hooks_read_the_durfee_side_off_the_self_conjugacy_walk(monkeypatch):
    # one walk decides self-conjugacy and finds the Durfee side d, the
    # rows i with rows_i >= i: the diagonal hooks are the first d rows'
    for rows in iter_partitions_up_to(24):
        p = Partition(rows)
        d = sum(r >= i for i, r in enumerate(rows, 1))
        expected = d if conjugate(p) == p else None
        hooks = p._self_conjugate_hooks()
        assert (None if hooks is None else len(hooks)) == expected, rows
        if expected is not None:
            assert p.diagonal_hooks() == tuple(hook_length(p, i, i) for i in range(1, d + 1))
    walks = []
    walk = Partition._self_conjugate_hooks
    monkeypatch.setattr(Partition, "_self_conjugate_hooks", lambda p: walks.append(p) or walk(p))
    assert FIG1.diagonal_hooks() == (13, 7, 5)
    assert walks == [FIG1]


def test_diagonal_hooks_examples():
    assert FIG1.diagonal_hooks() == (13, 7, 5)
    assert Partition().diagonal_hooks() == ()
    assert Partition((1,)).diagonal_hooks() == (1,)


def test_diagonal_hooks_rejects_non_self_conjugate():
    with pytest.raises(ValueError, match="self-conjugate"):
        Partition((2,)).diagonal_hooks()


def test_from_diagonal_hooks_examples():
    assert partition_from_diagonal_hooks({5, 7, 13}) == FIG1
    assert partition_from_diagonal_hooks(()) == Partition()
    assert partition_from_diagonal_hooks({3}) == Partition((2, 1))
    assert hook_length(Partition((2, 1)), 1, 1) == 3


def test_from_diagonal_hooks_rejects_bad_sets():
    with pytest.raises(ValueError):
        partition_from_diagonal_hooks({4})
    with pytest.raises(ValueError):
        partition_from_diagonal_hooks((3, 3))
    with pytest.raises(ValueError):
        partition_from_diagonal_hooks({-1})
    with pytest.raises(ValueError):
        validate_hook_set({0})


@pytest.mark.parametrize(
    "hooks, shown", [(["1"], "['1']"), ([1.0], "[1.0]")], ids=["string", "float"]
)
def test_hook_set_must_be_integers(hooks, shown):
    with pytest.raises(ValueError) as exc:
        validate_hook_set(hooks)
    assert str(exc.value) == f"diagonal hooks must be integers, got {shown}"


def _self_conjugate_up_to(limit):
    for rows in iter_partitions_up_to(limit):
        p = Partition(rows)
        if p.is_self_conjugate():
            yield p


def _rows_by_recounting(hooks):
    """Reference route: each row below the Durfee square counts afresh the
    diagonal rows that reach it."""
    k = len(hooks)
    rows = [(h - 1) // 2 + i for i, h in enumerate(hooks, start=1)]
    i = k + 1
    while True:
        extra = sum(1 for r in rows[:k] if r >= i)
        if extra == 0:
            return tuple(rows)
        rows.append(extra)
        i += 1


def test_diagonal_hook_round_trip_up_to_30():
    seen = 0
    for p in _self_conjugate_up_to(30):
        hooks = p.diagonal_hooks()
        assert all(h % 2 == 1 for h in hooks)
        assert list(hooks) == sorted(hooks, reverse=True)
        assert partition_from_diagonal_hooks(hooks) == p
        assert partition_from_diagonal_hooks(hooks).rows == _rows_by_recounting(hooks)
        seen += 1
    assert seen > 100


def test_diagonal_hooks_within_matches_contains_up_to_24():
    parts = [(p, p.diagonal_hooks()) for p in _self_conjugate_up_to(24)]
    assert len(parts) ** 2 == 8464
    for outer, outer_hooks in parts:
        for inner, inner_hooks in parts:
            assert diagonal_hooks_within(inner_hooks, outer_hooks) == outer.contains(
                inner
            ), (inner, outer)


def test_hook_set_characterization_examples():
    assert hook_set_is_t_core((13, 7, 5), 8)
    assert hook_set_is_t_core((), 5)
    # 13 + 7 = 20 is divisible by 2*5
    assert not hook_set_is_t_core((13, 7, 5), 5)
    assert not is_t_core(partition_from_diagonal_hooks((13, 7, 5)), 5)


def test_hook_set_characterization_self_pair():
    # a diagonal hook equal to t (t odd) is only caught by pairing a hook
    # with itself
    assert not hook_set_is_t_core((5,), 5)
    assert not is_t_core(partition_from_diagonal_hooks((5,)), 5)


def test_hook_set_characterization_matches_t_core_up_to_30():
    for p in _self_conjugate_up_to(30):
        hooks = p.diagonal_hooks()
        for t in range(2, 13):
            assert hook_set_is_t_core(hooks, t) == is_t_core(p, t), (p, t)


def test_hook_set_characterization_on_synthetic_sets():
    odds = list(range(1, 19, 2))
    for k in range(4):
        for hooks in combinations(odds, k):
            p = partition_from_diagonal_hooks(hooks)
            for t in range(2, 10):
                assert hook_set_is_t_core(hooks, t) == is_t_core(p, t)


def test_contains_examples():
    assert FIG1.contains(Partition((3, 1, 1)))
    assert FIG1.contains(FIG1)
    assert not Partition((2, 2)).contains(Partition((3,)))
    assert not Partition((3,)).contains(Partition((1, 1)))
    assert Partition((3,)).contains(Partition())


def test_contains_matches_the_cells_up_to_8():
    # the literal definition: every cell of inner is a cell of outer.  The
    # pairs include the empty partition on either side and inner partitions
    # longer than the outer one
    def cells(p):
        return {(i, j) for i, r in enumerate(p.rows) for j in range(r)}

    parts = [Partition(rows) for rows in iter_partitions_up_to(8)]
    assert Partition() in parts
    longer = 0
    for outer in parts:
        for inner in parts:
            longer += len(inner) > len(outer)
            assert outer.contains(inner) == (cells(inner) <= cells(outer)), (outer, inner)
    assert longer


def test_ferrers_examples():
    assert Partition((2, 1)).ferrers() == "▪▪\n▪"
    assert Partition().ferrers() == "(empty)"
    assert Partition((3, 1)).ferrers() == "▪▪▪\n▪"


def test_partition_values_are_hashable_and_comparable():
    assert Partition((2, 1)) == Partition([2, 1])
    assert len({Partition((2, 1)), Partition((2, 1)), Partition((3,))}) == 2


def test_iter_partitions_small_counts():
    # p(0..12)
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n, expected in enumerate(counts):
        parts = list(iter_partitions(n))
        assert len(parts) == expected
        assert len(set(parts)) == expected
        for rows in parts:
            assert sum(rows) == n
            assert all(rows[i] >= rows[i + 1] for i in range(len(rows) - 1))
