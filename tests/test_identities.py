from math import comb

import pytest

from corepaths.identities import (
    below_count_table,
    identity_report,
    path_prefix_table,
    row_weighted_recurrence_holds,
    sum_below,
    sum_below_closed,
    sum_below_times_col,
    sum_below_times_col_closed,
    sum_below_times_row,
    sum_below_times_row_closed,
    symmetry_holds,
)

from _reference import below_count_table_by_enumeration, column_pair_total


def test_table_tiny_boxes():
    assert below_count_table(1, 1) == ((1,),)
    assert below_count_table(2, 2) == ((5, 3), (3, 1))


def test_table_refuses_over_a_million_cells_before_allocating(monkeypatch):
    import corepaths.identities as identities

    def allocated(*args):
        raise AssertionError("allocated a table")

    monkeypatch.setattr(identities, "path_prefix_table", allocated)
    with pytest.raises(ValueError) as err:
        below_count_table(1001, 1000)
    assert str(err.value) == (
        "m*n = 1001000 table cells is over the supported maximum of 10**6"
    )
    # exactly 10**6 cells passes the check and reaches the allocation
    with pytest.raises(AssertionError):
        below_count_table(1000, 1000)


def test_identity_sweep_cache_stays_small(capsys):
    # a sweep over m, n <= 30 rereads each table within its last 31, so
    # 128 cached tables miss once per box
    from corepaths.cli import main

    below_count_table.cache_clear()
    assert main(["identities", "--max", "30"]) == 0
    capsys.readouterr()
    info = below_count_table.cache_info()
    assert info.currsize <= 128
    assert info.misses == 900


def test_table_validation():
    with pytest.raises(ValueError):
        below_count_table(0, 3)
    with pytest.raises(ValueError):
        below_count_table(3, 0)


def test_table_matches_enumeration_small():
    for m in range(1, 6):
        for n in range(1, 6):
            assert below_count_table(m, n) == below_count_table_by_enumeration(m, n)


def test_table_builds_its_prefix_counts_along_the_long_side(monkeypatch):
    # a 1 x 1000 box and its transpose read one 2 x 1001 prefix table, not
    # 1001 lists of two
    import corepaths.identities as identities

    calls = []
    build = identities.path_prefix_table

    def spy(a, b):
        calls.append((a, b))
        return build(a, b)

    monkeypatch.setattr(identities, "path_prefix_table", spy)
    below_count_table.cache_clear()
    for m, n in ((1, 1000), (3, 7)):
        assert below_count_table(n, m) == tuple(zip(*below_count_table(m, n)))
    assert calls == [(1, 1000)] * 2 + [(3, 7)] * 2


def _reference_below_count_table(m, n):
    # the height sum: the paths below cell (i, j) cross the strip of column
    # j at some height h <= m - i, a prefix to (j-1, h) and a suffix from (j, h)
    paths = path_prefix_table(n, m)
    return tuple(
        tuple(
            sum(paths[j - 1][h] * paths[n - j][m - h] for h in range(m - i + 1))
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


def test_sum_examples():
    assert sum_below(1, 1) == 1 == sum_below_closed(1, 1)
    assert sum_below(2, 2) == 12 == comb(4, 2) * 2 * 2 // 2
    assert sum_below_times_row(2, 3) == 40 == comb(4, 3) * comb(5, 3)
    assert sum_below_times_col(2, 3) == 50 == comb(5, 3) * comb(5, 4)


def test_row_weighted_initial_conditions():
    for n in range(1, 12):
        assert sum_below_times_row(1, n) == comb(n + 1, 2)
    for m in range(1, 12):
        assert sum_below_times_row(m, 1) == comb(m + 2, 3)


def test_closed_forms_sweep():
    for m in range(1, 13):
        for n in range(1, 13):
            assert sum_below(m, n) == sum_below_closed(m, n)
            assert sum_below_times_row(m, n) == sum_below_times_row_closed(m, n)
            assert sum_below_times_col(m, n) == sum_below_times_col_closed(m, n)
            assert symmetry_holds(m, n)


def test_row_and_column_sums_are_transposes():
    for m in range(1, 10):
        for n in range(1, 10):
            assert sum_below_times_col(m, n) == sum_below_times_row(n, m)
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
            assert column_pair_total(m, n) == sum_below_times_row(m, n)


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
    assert sum_below(30, 30) == comb(60, 30) * 900 // 2 > 2**63
