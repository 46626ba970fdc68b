from math import comb

import pytest

from corepaths.identities import (
    _wide_below_sums,
    below_sums,
    identity_report,
    row_weighted_recurrence_holds,
    sum_below_closed,
    sum_below_times_col_closed,
    sum_below_times_row_closed,
    symmetry_holds,
)

from _reference import below_count_table, below_count_table_by_enumeration, column_pair_total


def test_table_tiny_boxes():
    assert below_count_table(1, 1) == ((1,),)
    assert below_count_table(2, 2) == ((5, 3), (3, 1))


def test_table_refuses_over_a_million_cells_before_allocating(monkeypatch):
    import corepaths.identities as identities

    def allocated(*args):
        raise AssertionError("allocated a table")

    monkeypatch.setattr(identities, "_below_rows", allocated)
    _wide_below_sums.cache_clear()
    with pytest.raises(ValueError) as err:
        below_sums(1001, 1000)
    assert str(err.value) == (
        "m*n = 1001000 table cells is over the supported maximum of 10**6"
    )
    # exactly 10**6 cells passes the check and reaches the allocation
    with pytest.raises(AssertionError):
        below_sums(1000, 1000)


def test_identity_sweep_cache_stays_small(capsys):
    # a sweep over m, n <= 30 rereads each box's sums within its last 31
    # boxes, and the cache keys a box and its transpose as one wide box: the
    # 465 wide boxes a <= b <= 30 miss when first read, and a tall box
    # (m, n) misses once more when its wide twin has left the 128 entries,
    # which is when m - n >= 5: 325 more, the sum of 30 - d over d = 5..29
    from corepaths.cli import main

    _wide_below_sums.cache_clear()
    assert main(["identities", "--max", "30"]) == 0
    capsys.readouterr()
    info = _wide_below_sums.cache_info()
    assert info.currsize <= 128
    assert info.misses == 465 + 325 == 790


def test_square_report_folds_each_box_once(monkeypatch):
    # the recurrence reads the (m-1, m) and (m, m-1) boxes, one box and its
    # transpose, so their rows are made once; the (m, m) rows are made for
    # the sums and again for the symmetry check
    import corepaths.identities as identities

    made = []
    rows = identities._below_rows

    def spy(a, b):
        made.append((a, b))
        return rows(a, b)

    monkeypatch.setattr(identities, "_below_rows", spy)
    _wide_below_sums.cache_clear()
    report = identity_report(300, 300)
    assert all(report[key] for key in report if key.endswith("_ok"))
    assert made == [(300, 300), (300, 300), (299, 300)]


def test_table_validation():
    for check in (below_sums, symmetry_holds):
        with pytest.raises(ValueError):
            check(0, 3)
        with pytest.raises(ValueError):
            check(3, 0)


def test_table_matches_enumeration_small():
    for m in range(1, 6):
        for n in range(1, 6):
            assert below_count_table(m, n) == below_count_table_by_enumeration(m, n)


def test_table_builds_its_prefix_counts_along_the_long_side(monkeypatch):
    # a 1 x 1000 box and its transpose stream one row of 1000 cells, not
    # 1000 rows of one: once for the sums the two share, once for the
    # symmetry check of the tall box
    import corepaths.identities as identities

    calls = []
    rows = identities._below_rows

    def spy(a, b):
        calls.append((a, b))
        return rows(a, b)

    monkeypatch.setattr(identities, "_below_rows", spy)
    _wide_below_sums.cache_clear()
    for m, n in ((1, 1000), (3, 7)):
        total, by_row, by_col = below_sums(m, n)
        assert below_sums(n, m) == (total, by_col, by_row)
        assert symmetry_holds(n, m)
    assert calls == [(1, 1000)] * 2 + [(3, 7)] * 2


def _reference_below_count_table(m, n):
    # the height sum: the paths below cell (i, j) cross the strip of column
    # j at some height h <= m - i, a prefix to (j-1, h) and a suffix from (j, h)
    return tuple(
        tuple(
            sum(comb(j - 1 + h, h) * comb(n - j + m - h, n - j) for h in range(m - i + 1))
            for j in range(1, n + 1)
        )
        for i in range(1, m + 1)
    )


def test_table_matches_height_sum():
    for m in range(1, 15):
        for n in range(1, 15):
            assert below_count_table(m, n) == _reference_below_count_table(m, n)


def test_table_corner_value_4x5():
    # paths below cell (1,1) = all paths except the one with nothing above
    assert below_count_table(4, 5)[0][0] == comb(9, 4) - 1 == 125
    assert below_count_table_by_enumeration(4, 5)[0][0] == 125


def _table_sums(f):
    # the three sums read off a whole table, 1-based row and column weights
    return (
        sum(map(sum, f)),
        sum(i * v for i, row in enumerate(f, start=1) for v in row),
        sum(j * v for row in f for j, v in enumerate(row, start=1)),
    )


def test_streamed_sums_equal_the_table_sums():
    boxes = [(m, n) for m in range(1, 13) for n in range(1, 13)] + [(1, 1000), (1000, 1)]
    for m, n in boxes:
        assert below_sums(m, n) == _table_sums(below_count_table(m, n)), (m, n)


def test_path_count_total_holds_no_table():
    # the (499, 501) box has 250 x 250 cells of ~150 digits: its table
    # peaked at 9.8 MiB, two rows of prefix counts take a small fraction
    import tracemalloc

    from corepaths.enumeration import total_size_from_path_counts

    total_size_from_path_counts(5, 7)  # the first call's one-off allocations
    _wide_below_sums.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        total_size_from_path_counts(499, 501)
        kept, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert kept < 2**12  # the cache's entry of three sums, not a table


def test_sum_examples():
    assert below_sums(1, 1)[0] == 1 == sum_below_closed(1, 1)
    assert below_sums(2, 2)[0] == 12 == comb(4, 2) * 2 * 2 // 2
    assert below_sums(2, 3)[1] == 40 == comb(4, 3) * comb(5, 3)
    assert below_sums(2, 3)[2] == 50 == comb(5, 3) * comb(5, 4)


def test_row_weighted_initial_conditions():
    for n in range(1, 12):
        assert below_sums(1, n)[1] == comb(n + 1, 2)
    for m in range(1, 12):
        assert below_sums(m, 1)[1] == comb(m + 2, 3)


def test_closed_forms_sweep():
    for m in range(1, 13):
        for n in range(1, 13):
            total, by_row, by_col = below_sums(m, n)
            assert total == sum_below_closed(m, n)
            assert by_row == sum_below_times_row_closed(m, n)
            assert by_col == sum_below_times_col_closed(m, n)
            assert symmetry_holds(m, n)


def test_symmetry_compares_every_row_with_its_mirror(monkeypatch):
    # half the rows are held: a changed entry must still be seen in every
    # row, the middle row of an odd count included, in either order
    import corepaths.identities as identities

    for m in range(1, 13):
        for n in range(1, 13):
            assert symmetry_holds(m, n), (m, n)
    rows_of = identities._below_rows
    for a, b in ((5, 7), (6, 7)):
        for k in range(a):
            for j in range(b):

                def off_by_one(a, b, k=k, j=j):
                    for i, row in enumerate(rows_of(a, b)):
                        yield row[:j] + (row[j] + 1,) + row[j + 1 :] if i == k else row

                monkeypatch.setattr(identities, "_below_rows", off_by_one)
                assert not symmetry_holds(a, b), (a, b, k, j)
                assert not symmetry_holds(b, a), (b, a, k, j)


def test_row_and_column_sums_are_transposes():
    for m in range(1, 10):
        for n in range(1, 10):
            assert below_sums(m, n)[2] == below_sums(n, m)[1]
            assert below_count_table(n, m) == tuple(
                zip(*below_count_table(m, n))
            )


def test_recurrence_sweep_and_validation():
    for m in range(2, 11):
        for n in range(2, 11):
            assert row_weighted_recurrence_holds(m, n)
    with pytest.raises(ValueError):
        row_weighted_recurrence_holds(1, 5)
    with pytest.raises(ValueError):
        row_weighted_recurrence_holds(5, 1)


def test_column_pair_total_matches_row_weighted_sum():
    # the triple count computed over explicit box partitions
    for m in range(1, 14):
        for n in range(1, 14 - m + 1):
            assert column_pair_total(m, n) == below_sums(m, n)[1]


def test_identity_report_shape():
    report = identity_report(3, 4)
    assert report == {
        "m": 3,
        "n": 4,
        "sum_f_ok": True,
        "sum_if_ok": True,
        "sum_jf_ok": True,
        "symmetry_ok": True,
        "recurrence_ok": True,
    }
    assert identity_report(1, 7)["recurrence_ok"] is True


def test_values_exceed_64_bits_at_the_sweep_edge():
    # the m = n = 30 sums genuinely need big integers
    assert below_sums(30, 30)[0] == comb(60, 30) * 900 // 2 > 2**63
