import copy
import math
import pickle
import random
from itertools import combinations_with_replacement

import pytest

from corepaths import (
    CoreParams,
    LatticePath,
    Partition,
    brute_force_sc_cores,
    build_array,
    core_from_path,
    cores_within,
    enumerated_stats,
    identity_report,
    iter_paths,
    largest_core,
    path_from_core,
    path_hook_set,
)
from corepaths import bijection
from corepaths.enumeration import coprime_pairs
from corepaths.partitions import partition_from_diagonal_hooks

from _reference import (
    core_size_from_path,
    hook_set,
    is_t_core,
    path_from_core_by_sweep,
    path_from_steps_by_columns,
    positive_sum,
    steps_by_columns,
)

FIG1_PARAMS = CoreParams(8, 11)
FIG1_PATH = LatticePath(4, 5, Partition((4, 3, 3, 2)))
FIG1_CORE = Partition((7, 5, 5, 3, 3, 1, 1))


def test_core_params_validation():
    with pytest.raises(ValueError, match="not coprime"):
        CoreParams(4, 6)
    with pytest.raises(ValueError, match="at least 2"):
        CoreParams(1, 5)
    with pytest.raises(ValueError, match="at least 2"):
        CoreParams(3, 0)
    for s, t in ((3.0, 5), ("3", 5), (3, 5.0), (None, 5)):
        with pytest.raises(ValueError, match="must be an integer"):
            CoreParams(s, t)
    # an int subclass is stored as a plain int
    class Int(int):
        pass

    params = CoreParams(Int(3), Int(5))
    assert type(params.s) is type(params.t) is int
    # the last twin pair under the s*t cap, and the first over it
    CoreParams(46337, 46339)
    cap = r"^s\*t = 2147580963 is over the supported maximum of 2\*\*31$"
    with pytest.raises(ValueError, match=cap):
        CoreParams(46341, 46343)
    p = CoreParams(8, 11)
    assert (p.m, p.n) == (4, 5)
    assert p.max_core_size == 315


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: CoreParams(3.0, 5), id="CoreParams(3.0, 5)"),
        pytest.param(lambda: CoreParams('3', 5), id="CoreParams('3', 5)"),
        pytest.param(lambda: enumerated_stats(3, 5.0), id="enumerated_stats(3, 5.0)"),
        pytest.param(lambda: brute_force_sc_cores(3, 5.0), id="brute_force_sc_cores(3, 5.0)"),
        pytest.param(lambda: cores_within((), 3, 5.0), id="cores_within((), 3, 5.0)"),
        pytest.param(lambda: LatticePath(2.0, 3), id="LatticePath(2.0, 3)"),
        pytest.param(lambda: LatticePath(2.5, 3), id="LatticePath(2.5, 3)"),
        pytest.param(lambda: LatticePath(2, '3'), id="LatticePath(2, '3')"),
        pytest.param(lambda: next(iter_paths(2, 3.0)), id="next(iter_paths(2, 3.0))"),
        pytest.param(lambda: identity_report(2.5, 3), id="identity_report(2.5, 3)"),
        pytest.param(lambda: identity_report(2, None), id="identity_report(2, None)"),
    ],
)
def test_sizes_must_be_integers(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_integer_sizes_are_stored_as_ints():
    # a bool is an int subclass: read through operator.index, it is stored
    # and reported as a plain int
    path = LatticePath(True, 1)
    assert type(path.m) is int and path.steps() == "UR"
    report = identity_report(True, 3)
    assert type(report["m"]) is int and report["m"] == 1
    assert all(report.values())


def test_array_worked_example():
    arr = build_array(8, 11)
    assert [arr.entry(1, j) for j in range(1, 6)] == [69, 53, 37, 21, 5]
    assert [arr.entry(2, j) for j in range(1, 6)] == [47, 31, 15, -1, -17]
    assert [arr.entry(3, j) for j in range(1, 6)] == [25, 9, -7, -23, -39]
    assert [arr.entry(4, j) for j in range(1, 6)] == [3, -13, -29, -45, -61]


def test_array_tiny_and_errors():
    arr = build_array(2, 3)
    assert (arr.params.m, arr.params.n) == (1, 1)
    assert arr.entry(1, 1) == 1
    with pytest.raises(ValueError, match="not coprime"):
        build_array(4, 6)
    with pytest.raises(ValueError):
        arr.entry(1, 2)


def test_array_invariants_sweep():
    for s, t in coprime_pairs(20):
        arr = build_array(s, t)
        m, n = arr.params.m, arr.params.n
        vals = [arr.entry(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        a11 = arr.entry(1, 1)
        assert a11 == s * t - s - t == max(vals)
        assert arr.entry(m, n) == min(vals)
        assert all(v != 0 for v in vals)
        assert all(v % 2 == 1 for v in map(abs, vals))
        assert len(set(map(abs, vals))) == len(vals)
        assert all(a11 >= abs(v) for v in vals)
        for i in range(1, m + 1):
            for j in range(1, n):
                assert arr.entry(i, j + 1) - arr.entry(i, j) == -2 * s
        for j in range(1, n + 1):
            for i in range(1, m):
                assert arr.entry(i + 1, j) - arr.entry(i, j) == -2 * t
        # sum of positive entries is the largest core size
        assert positive_sum(arr) == (s * s - 1) * (t * t - 1) // 24


def test_lattice_path_validation():
    with pytest.raises(ValueError, match="does not fit"):
        LatticePath(2, 2, Partition((3,)))
    with pytest.raises(ValueError, match="does not fit"):
        LatticePath(2, 2, Partition((2, 2, 1)))
    with pytest.raises(ValueError):
        LatticePath(0, 2)


def test_steps_tiny_boxes():
    assert LatticePath.from_steps("UR", 1, 1).mu == Partition()
    assert LatticePath.from_steps("RU", 1, 1).mu == Partition((1,))
    assert LatticePath(1, 1, Partition()).steps() == "UR"
    assert LatticePath(1, 1, Partition((1,))).steps() == "RU"


def test_steps_worked_example():
    assert FIG1_PATH.steps() == "RRURUURUR"
    assert LatticePath.from_steps("RRURUURUR", 4, 5) == FIG1_PATH


def test_steps_validation():
    with pytest.raises(ValueError, match="exactly"):
        LatticePath.from_steps("UURR", 1, 1)
    with pytest.raises(ValueError, match="only U and R"):
        LatticePath.from_steps("UX", 1, 1)


def test_steps_round_trip_all_small_boxes():
    for m in range(1, 5):
        for n in range(1, 5):
            for path in iter_paths(m, n):
                word = path.steps()
                assert word.count("U") == m and word.count("R") == n
                assert LatticePath.from_steps(word, m, n) == path


def test_steps_match_the_column_by_column_reference():
    # every path of every box up to 6 x 7, then seeded paths of the
    # 999 x 1000 box of (1999, 2001) with its two corner paths
    for m in range(1, 7):
        for n in range(1, 8):
            for path in iter_paths(m, n):
                word = path.steps()
                assert word == steps_by_columns(path), (m, n, path)
                assert LatticePath.from_steps(word, m, n) == path_from_steps_by_columns(word, m, n)
    m, n = 999, 1000
    rng = random.Random(2001)
    words = ["U" * m + "R" * n, "R" * n + "U" * m]
    for _ in range(4):
        steps = ["U"] * m + ["R"] * n
        rng.shuffle(steps)
        words.append("".join(steps))
    for word in words:
        path = LatticePath.from_steps(word, m, n)
        assert path == path_from_steps_by_columns(word, m, n)
        assert path.steps() == steps_by_columns(path) == word


def test_steps_semantics_by_counting_rule():
    # cell (i, j) is above the path iff the path crosses column j at height
    # at most m - i, so row i of mu counts the right-steps taken while at
    # least i up-steps remain
    for m in range(1, 5):
        for n in range(1, 5):
            for path in iter_paths(m, n):
                word = path.steps()
                rows = []
                for i in range(1, m + 1):
                    ups_left = m
                    count = 0
                    for c in word:
                        if c == "U":
                            ups_left -= 1
                        elif ups_left >= i:
                            count += 1
                    rows.append(count)
                assert tuple(r for r in rows if r) == path.mu.rows


def test_path_hook_set_worked_example():
    arr = build_array(8, 11)
    assert path_hook_set(FIG1_PATH, arr) == (13, 7, 5)


def test_path_hook_set_extremes():
    arr = build_array(2, 3)
    assert path_hook_set(LatticePath(1, 1), arr) == (1,)
    # full box above: absolute values of all negative entries
    arr = build_array(8, 11)
    full = LatticePath(4, 5, Partition((5, 5, 5, 5)))
    negs = sorted(
        (-arr.entry(i, j) for i in range(1, 5) for j in range(1, 6) if arr.entry(i, j) < 0),
        reverse=True,
    )
    assert list(path_hook_set(full, arr)) == negs


def test_path_hook_set_box_mismatch():
    arr = build_array(8, 11)
    with pytest.raises(ValueError, match="does not match"):
        path_hook_set(LatticePath(1, 1), arr)


def test_core_from_path_worked_example():
    assert core_from_path(FIG1_PATH, FIG1_PARAMS) == FIG1_CORE
    assert core_from_path(LatticePath(1, 1, Partition((1,))), CoreParams(2, 3)) == Partition()


def test_core_from_path_empty_mu_gives_largest():
    core = core_from_path(LatticePath(4, 5), FIG1_PARAMS)
    assert core.size == 315 == FIG1_PARAMS.max_core_size


def test_path_from_core_worked_example():
    assert path_from_core(FIG1_CORE, FIG1_PARAMS) == FIG1_PATH
    assert path_from_core(Partition(), CoreParams(2, 3)) == LatticePath(
        1, 1, Partition((1,))
    )


def test_path_from_core_small_self_conjugate_core_is_in_image():
    # (2,2) is self-conjugate with every hook at most 3, so it is an
    # (8,11)-core and must be reachable
    path = path_from_core(Partition((2, 2)), FIG1_PARAMS)
    assert core_from_path(path, FIG1_PARAMS) == Partition((2, 2))


def test_path_from_core_rejects_non_members():
    with pytest.raises(ValueError, match="not in the bijection image"):
        path_from_core(Partition((2,)), FIG1_PARAMS)  # not self-conjugate
    # self-conjugate but carries a hook of 8: diagonal hook set {17}
    bad = Partition((9, 1, 1, 1, 1, 1, 1, 1, 1))
    assert bad.is_self_conjugate()
    assert not is_t_core(bad, 8)
    with pytest.raises(ValueError, match="not in the bijection image"):
        path_from_core(bad, FIG1_PARAMS)
    # self-conjugate, (2,3)-core sized out of the (2,3) array
    with pytest.raises(ValueError, match="not in the bijection image"):
        path_from_core(Partition((2, 1)), CoreParams(2, 3))


def test_path_from_core_accepts_exactly_the_cores():
    # every self-conjugate partition with at most 3 diagonal hooks below 40
    from itertools import combinations

    from corepaths.partitions import partition_from_diagonal_hooks

    odd = range(1, 40, 2)
    candidates = [
        partition_from_diagonal_hooks(hooks)
        for k in range(4)
        for hooks in combinations(odd, k)
    ]
    accepted = 0
    for s, t in coprime_pairs(11):
        params = CoreParams(s, t)
        for p in candidates:
            is_core = is_t_core(p, s) and is_t_core(p, t)
            try:
                path = path_from_core(p, params)
            except ValueError as exc:
                assert not is_core, (s, t, p)
                assert str(exc).startswith("not in the bijection image: ")
                continue
            assert is_core, (s, t, p)
            assert core_from_path(path, params) == p
            accepted += 1
    assert len(candidates) == 1351
    assert accepted > 0


def test_build_array_refuses_over_a_million_cells():
    # (3, 2000003) has a 1 x 1000001 box, one cell over the cap
    with pytest.raises(ValueError) as err:
        build_array(3, 2000003)
    assert str(err.value) == (
        "m*n = 1000001 array cells is over the supported maximum of 10**6"
    )


def test_core_size_from_path_examples():
    assert core_size_from_path(FIG1_PATH, FIG1_PARAMS) == 25 == FIG1_CORE.size
    assert core_size_from_path(LatticePath(4, 5), FIG1_PARAMS) == 315
    assert core_size_from_path(LatticePath(1, 1, Partition((1,))), CoreParams(2, 3)) == 0
    with pytest.raises(ValueError, match="does not match"):
        core_size_from_path(LatticePath(1, 1), FIG1_PARAMS)


def test_size_via_above_sum_is_independent():
    # recompute the worked example by summing the twelve above-entries
    arr = build_array(8, 11)
    above = sum(
        arr.entry(i, j)
        for i, r in enumerate(FIG1_PATH.mu.rows, start=1)
        for j in range(1, r + 1)
    )
    assert above == 290
    assert 315 - above == 25


def test_largest_core_examples():
    assert largest_core(CoreParams(2, 3)) == Partition((1,))
    assert largest_core(CoreParams(3, 4)) == Partition((3, 1, 1))
    big = largest_core(FIG1_PARAMS)
    assert big.size == 315
    assert big.diagonal_hooks() == (69, 53, 47, 37, 31, 25, 21, 15, 9, 5, 3)
    assert big.is_self_conjugate()


def test_largest_core_of_3_4_is_unique_at_its_size():
    # brute force over partitions of 5: the only self-conjugate (3,4)-core
    from _reference import iter_partitions

    found = [
        Partition(rows)
        for rows in iter_partitions(5)
        if Partition(rows).is_self_conjugate()
        and is_t_core(Partition(rows), 3)
        and is_t_core(Partition(rows), 4)
    ]
    assert found == [Partition((3, 1, 1))]


def _boxes_with_coprime_pairs(max_mn):
    for m in range(1, max_mn):
        for n in range(1, max_mn - m + 1):
            for s in (2 * m, 2 * m + 1):
                for t in (2 * n, 2 * n + 1):
                    if s >= 2 and t >= 2 and math.gcd(s, t) == 1:
                        yield CoreParams(s, t)


def test_round_trip_and_size_identity_all_boxes_up_to_12():
    for params in _boxes_with_coprime_pairs(12):
        for path in iter_paths(params.m, params.n):
            core = core_from_path(path, params)
            assert core.is_self_conjugate()
            assert is_t_core(core, params.s)
            assert is_t_core(core, params.t)
            assert core.size == core_size_from_path(path, params)
            assert path_from_core(core, params) == path


def test_largest_core_contains_every_path_image():
    for s, t in coprime_pairs(11):
        params = CoreParams(s, t)
        lam = largest_core(params)
        for path in iter_paths(params.m, params.n):
            assert lam.contains(core_from_path(path, params))


def test_row_progressions_match_the_reference_hook_set_on_every_path_to_15():
    # the arithmetic hook set of every path against the one read off the
    # built array by definition, in both orientations of each box
    paths = 0
    for s, t in coprime_pairs(15):
        for params in (CoreParams(s, t), CoreParams(t, s)):
            arr = build_array(params.s, params.t)
            for rows in combinations_with_replacement(range(params.n + 1), params.m):
                mu = rows[::-1]
                path = LatticePath(params.m, params.n, Partition(tuple(r for r in mu if r)))
                expected = hook_set(arr, mu)
                assert path_hook_set(path, arr) == expected, (params, mu)
                assert core_from_path(path, params) == partition_from_diagonal_hooks(expected)
                paths += 1
    assert paths == 2 * 13524


def test_path_from_core_agrees_with_the_sweep_on_seeded_non_images():
    # random hook sets, and path images with one hook added, dropped or
    # moved by 2, against the array sweep: the same paths accepted, the
    # rest refused, for even s or t too and in both orders
    rng = random.Random(2016)
    accepted = refused = 0
    for s, t in coprime_pairs(13):
        for params in (CoreParams(s, t), CoreParams(t, s)):
            images = [
                core_from_path(path, params).diagonal_hooks()
                for path in iter_paths(params.m, params.n)
            ]
            odd = range(1, params.s * params.t, 2)
            candidates = [set(rng.sample(odd, rng.randint(0, min(4, len(odd))))) for _ in range(40)]
            for hooks in rng.sample(images, min(20, len(images))):
                h = set(hooks)
                candidates += [h | {rng.choice(odd)}, h - {rng.choice(hooks or (1,))}]
                if hooks:
                    x = rng.choice(hooks)
                    candidates.append(h - {x} | {max(1, x + rng.choice((-2, 2)))})
            for hooks in candidates:
                p = partition_from_diagonal_hooks(hooks)
                expected = path_from_core_by_sweep(p, params)
                try:
                    found = path_from_core(p, params)
                except ValueError as exc:
                    assert expected is None, (params, p)
                    assert str(exc) == f"not in the bijection image: {p}"
                    refused += 1
                    continue
                assert found == expected, (params, p)
                accepted += 1
    assert accepted > 0 and refused > accepted
    # not self-conjugate: refused by both
    for p in (Partition((2,)), Partition((3, 1)), Partition((4, 2, 1))):
        assert path_from_core_by_sweep(p, FIG1_PARAMS) is None
        with pytest.raises(ValueError, match="is not self-conjugate"):
            path_from_core(p, FIG1_PARAMS)


def test_path_from_core_refuses_rows_whose_hooks_are_no_block():
    # the (8, 11) array, positive counts (5, 3, 2, 1):
    #   69  53  37  21   5
    #   47  31  15  -1 -17
    #   25   9  -7 -23 -39
    #    3 -13 -29 -45 -61
    for hooks in (
        (15, 1),  # row 2 holds a positive and a negative hook
        (37, 5),  # row 1's positive hooks skip 21
        (23, 5),  # row 3's negative hooks start past -7, at its third column
        (23, 7),  # each row a block, but row 3's cut 4 is past row 2's 3
    ):
        p = partition_from_diagonal_hooks(hooks)
        assert path_from_core_by_sweep(p, FIG1_PARAMS) is None
        with pytest.raises(ValueError) as err:
            path_from_core(p, FIG1_PARAMS)
        assert str(err.value) == f"not in the bijection image: {p}"


def test_core_from_path_box_mismatch():
    with pytest.raises(ValueError, match="path box 1x1 does not match array 4x5"):
        core_from_path(LatticePath(1, 1), FIG1_PARAMS)


def test_row_table_is_a_private_cache_of_the_params():
    # a params object that has served round trips compares, hashes, prints,
    # copies and pickles exactly like a fresh one
    used, fresh = CoreParams(8, 11), CoreParams(8, 11)
    for path in iter_paths(used.m, used.n):
        assert path_from_core(core_from_path(path, used), used) == path
    assert used._row_table() is used._row_table()
    assert CoreParams._fields == ("s", "t")
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == "CoreParams(s=8, t=11)"
    assert pickle.dumps(used) == pickle.dumps(fresh)
    for copied in (copy.copy(used), copy.deepcopy(used), pickle.loads(pickle.dumps(used))):
        assert copied == fresh and hash(copied) == hash(fresh)
    with pytest.raises(AttributeError):
        used._rows = None


def test_row_table_holds_the_first_column_and_the_positive_counts():
    for s, t in coprime_pairs(15):
        for params in (CoreParams(s, t), CoreParams(t, s)):
            arr = build_array(params.s, params.t)
            firsts, positives, t_inv = params._row_table()
            assert list(firsts) == [row[0] for row in arr.entries]
            assert list(positives) == [sum(e > 0 for e in row) for row in arr.entries]
            assert t_inv * params.t % params.s == 1


def test_bijection_holds_no_module_cache():
    # the row table lives on its params and arrays are built afresh, so
    # round trips through fresh params leave every module-level container
    # of bijection as it was
    def containers():
        return {
            name: len(value)
            for name, value in vars(bijection).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))
        }

    cached = [name for name, value in vars(bijection).items() if hasattr(value, "cache_info")]
    assert cached == []
    before = containers()
    for s, t in coprime_pairs(13):
        params = CoreParams(s, t)
        path = LatticePath(params.m, params.n)
        assert path_from_core(core_from_path(path, params), params) == path
    assert containers() == before


def test_row_hooks_take_one_cut_per_row():
    with pytest.raises(ValueError):
        bijection._row_hooks(FIG1_PARAMS, [0] * 3)
    with pytest.raises(ValueError):
        bijection._row_hooks(FIG1_PARAMS, [0] * 5)
