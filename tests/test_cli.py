import json
import os
import shlex
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import corepaths
from corepaths.cli import main
from corepaths.partitions import Partition

# the directory holding the corepaths package under test, for child processes
PACKAGE_PARENT = str(Path(corepaths.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", "--s", "8", "--t", "11", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "s": 8,
        "t": 11,
        "m": 4,
        "n": 5,
        "count": 126,
        "total": 7350,
        "average": {"num": 175, "den": 3},
        "max": 315,
    }


def test_stats_output_is_stable(capsys):
    _, first, _ = run(capsys, "stats", "--s", "8", "--t", "11")
    _, second, _ = run(capsys, "stats", "--s", "8", "--t", "11")
    assert first == second


def test_stats_csv_and_text(capsys):
    code, out, _ = run(capsys, "stats", "--s", "8", "--t", "11", "--format", "csv")
    assert code == 0
    assert out.strip() == "8,11,126,7350,175,3,315"
    code, out, _ = run(capsys, "stats", "--s", "8", "--t", "11", "--format", "text")
    assert code == 0
    assert "average=175/3" in out


def test_stats_not_coprime_is_usage_error(capsys):
    code, _, err = run(capsys, "stats", "--s", "4", "--t", "6")
    assert code == 2
    assert "not coprime" in err


def test_stats_budget_announcement_and_guard(capsys):
    # the staircase DP of (8, 11) folds the 4 x 5 = 20 cells of its box
    code, _, err = run(capsys, "stats", "--s", "8", "--t", "11", "--budget", "19")
    assert code == 2
    assert err == (
        "expected cell count: 20\n"
        "error: staircase DP needs 20 cells, over the budget of 19; raise the "
        "budget to proceed\n"
    )
    code, out, err = run(capsys, "stats", "--s", "8", "--t", "11", "--budget", "20")
    assert code == 0
    assert err == "expected cell count: 20\n"
    assert json.loads(out)["count"] == 126


def test_stats_far_over_the_path_count_within_the_cell_budget(capsys):
    code, out, _ = run(capsys, "stats", "--s", "101", "--t", "103")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == comb(101, 50)
    assert payload["average"] == {"num": 87125, "den": 1}
    assert payload["max"] == 4508400
    code, _, err = run(capsys, "stats", "--s", "40000", "--t", "53687")
    assert code == 2
    assert "staircase DP needs 536860000 cells, over the budget of 10000000" in err


def test_budget_refusal_of_a_count_too_long_to_print(capsys):
    # C(46843, 20000) has 13881 digits, past Python's 4300-digit int->str
    # limit; the refusal states its size instead of printing it
    code, _, err = run(capsys, "enumerate", "--s", "40000", "--t", "53687")
    assert code == 2
    assert "enumeration needs at least 10^13880 (13881 digits) paths" in err
    code, _, err = run(
        capsys, "enumerate", "--s", "40000", "--t", "53687", "--budget", "5"
    )
    assert code == 2
    assert "expected path count: at least 10^13880 (13881 digits)" in err


def test_map_worked_example(capsys):
    code, out, _ = run(
        capsys, "map", "--s", "8", "--t", "11", "--path", "[4,3,3,2]"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["partition"] == [7, 5, 5, 3, 3, 1, 1]
    assert payload["hooks"] == [13, 7, 5]
    assert payload["size"] == 25
    assert payload["mu"] == [4, 3, 3, 2]
    assert payload["steps"] == "RRURUURUR"


def test_map_accepts_step_words(capsys):
    code, out, _ = run(
        capsys, "map", "--s", "8", "--t", "11", "--path", "RRURUURUR"
    )
    assert code == 0
    assert json.loads(out)["partition"] == [7, 5, 5, 3, 3, 1, 1]


def test_map_accepts_path_object_form(capsys):
    code, out, _ = run(
        capsys, "map", "--s", "8", "--t", "11",
        "--path", '{"m":4,"n":5,"mu":[4,3,3,2]}',
    )
    assert code == 0
    assert json.loads(out)["partition"] == [7, 5, 5, 3, 3, 1, 1]
    code, _, err = run(
        capsys, "map", "--s", "8", "--t", "11",
        "--path", '{"m":1,"n":1,"mu":[]}',
    )
    assert code == 2
    assert "does not match" in err


def test_map_text_renders_array_and_ferrers(capsys):
    code, out, _ = run(
        capsys, "map", "--s", "8", "--t", "11", "--path", "[4,3,3,2]",
        "--format", "text",
    )
    assert code == 0
    assert "69" in out and "-61" in out
    assert "▪" * 7 in out


def test_map_reads_the_path_hooks_once(capsys, monkeypatch):
    from test_enumeration import _count_row_hooks

    calls = _count_row_hooks(monkeypatch)
    code, out, _ = run(capsys, "map", "--s", "8", "--t", "11", "--path", "[4,3,3,2]")
    assert code == 0
    assert json.loads(out)["hooks"] == [13, 7, 5]
    assert calls == [(4, 3, 3, 2)]


def test_map_unmap_round_trip_is_byte_identical(capsys):
    original = "[4,3,3,2]"
    _, out, _ = run(capsys, "map", "--s", "8", "--t", "11", "--path", original)
    partition = json.dumps(json.loads(out)["partition"], separators=(",", ":"))
    _, out, _ = run(capsys, "unmap", "--s", "8", "--t", "11", "--partition", partition)
    mu = json.dumps(json.loads(out)["mu"], separators=(",", ":"))
    assert mu == original


def test_unmap_rejects_non_members(capsys):
    code, _, err = run(capsys, "unmap", "--s", "8", "--t", "11", "--partition", "[2]")
    assert code == 2
    assert "not in the bijection image" in err


def test_unmap_rejects_malformed_input(capsys):
    code, _, err = run(capsys, "unmap", "--s", "8", "--t", "11", "--partition", "oops")
    assert code == 2
    assert "JSON array" in err
    code, _, err = run(capsys, "unmap", "--s", "8", "--t", "11", "--partition", "[1,2]")
    assert code == 2
    assert "weakly decreasing" in err


def test_json_booleans_are_not_integers(capsys):
    for argv in (
        ("unmap", "--s", "8", "--t", "11", "--partition", "[true]"),
        ("map", "--s", "8", "--t", "11", "--path", "[true,1]"),
        ("map", "--s", "8", "--t", "11", "--path", '{"m":4,"n":5,"mu":[true]}'),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "JSON array of integers" in err
    # (3, 4) has a 1x2 box, so true would pass for m == 1
    code, out, err = run(
        capsys, "map", "--s", "3", "--t", "4", "--path", '{"m":true,"n":2,"mu":[1]}'
    )
    assert code == 2
    assert "does not match" in err


def test_largest(capsys):
    code, out, _ = run(capsys, "largest", "--s", "3", "--t", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["partition"] == [3, 1, 1]
    assert payload["size"] == 5
    assert payload["hooks"] == [5]


def test_largest_reads_its_hooks_off_the_empty_path(capsys, monkeypatch):
    # the diagonal hooks of the core would rerun the O(rows) self-conjugacy
    # loop over the core just built from those hooks
    def refuse(self):
        raise AssertionError("self-conjugacy loop run")

    monkeypatch.setattr(Partition, "is_self_conjugate", refuse)
    monkeypatch.setattr(Partition, "_self_conjugate_hooks", refuse)
    code, out, _ = run(capsys, "largest", "--s", "8", "--t", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["hooks"] == [69, 53, 47, 37, 31, 25, 21, 15, 9, 5, 3]
    assert payload["size"] == (8**2 - 1) * (11**2 - 1) // 24


def test_enumerate_json_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--s", "3", "--t", "4")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    # colex path order: mu = (), (1), (2)
    assert [l["partition"] for l in lines] == [[3, 1, 1], [], [1]]
    assert [l["mu"] for l in lines] == [[], [1], [2]]
    assert sum(l["size"] for l in lines) == 6


def test_enumerate_budget_guard(capsys):
    code, _, err = run(capsys, "enumerate", "--s", "8", "--t", "11", "--budget", "5")
    assert code == 2
    assert "enumeration needs 126 paths, over the budget of 5" in err
    code, _, err = run(capsys, "enumerate", "--s", "8", "--t", "11", "--budget", "125")
    assert code == 2
    assert "enumeration needs 126 paths, over the budget of 125" in err
    code, out, err = run(capsys, "enumerate", "--s", "8", "--t", "11", "--budget", "126")
    assert code == 0
    assert err == "expected path count: 126\n"
    assert len(out.splitlines()) == 126


@pytest.mark.parametrize(
    "argv, width",
    [
        ("largest --s 11 --t 13", 60),
        ("map --s 11 --t 13 --path []", 60),
        ("map --s 3 --t 200 --path []", 199),
    ],
)
def test_ferrers_diagram_is_drawn_only_when_it_fits(capsys, monkeypatch, argv, width):
    # the largest core's first row is (st - s - t + 1) / 2 cells
    argv = shlex.split(argv) + ["--format", "text"]
    monkeypatch.setenv("COLUMNS", str(width))
    _, out, _ = run(capsys, *argv)
    assert "▪" * width + "\n" in out
    assert "not drawn" not in out
    monkeypatch.setenv("COLUMNS", str(width - 1))
    _, out, _ = run(capsys, *argv)
    assert "▪" not in out
    assert out.endswith(f"(diagram not drawn: {width} columns wide)\n")


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--s", "8", "--t", "11")
    assert code == 0
    report = json.loads(out)
    assert all(c["pass"] for c in report["checks"])
    code, _, err = run(capsys, "verify", "--s", "4", "--t", "6")
    assert code == 2
    assert "not coprime" in err


def test_verify_text_format(capsys):
    code, out, _ = run(capsys, "verify", "--s", "2", "--t", "3", "--format", "text")
    assert code == 0
    assert "PASS count_is_binomial" in out


def test_sweep_exits_zero_and_emits_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--max", "13")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,t,count,total,avg_num,avg_den,max,all_pass"
    assert "8,11,126,7350,175,3,315,True" in lines
    # every coprime pair 2 <= s < t <= 13 appears
    assert len(lines) == 1 + 45


def test_identities_single_and_sweep(capsys):
    code, out, _ = run(capsys, "identities", "--m", "3", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,sum_f_ok,sum_if_ok,sum_jf_ok,symmetry_ok,recurrence_ok"
    assert lines[1] == "3,4,true,true,true,true,true"
    code, out, _ = run(capsys, "identities", "--max", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 16


def test_identities_requires_arguments(capsys):
    code, _, err = run(capsys, "identities")
    assert code == 2
    assert "--m" in err or "--max" in err


@pytest.mark.parametrize(
    "argv",
    [
        "map --s 8 --t 11 --path [4,3,3,2] --budget 5",
        "unmap --s 8 --t 11 --partition [7,5,5,3,3,1,1] --budget 5",
        "largest --s 3 --t 4 --budget 5",
        "identities --m 3 --n 4 --budget 5",
    ],
)
def test_budget_is_refused_where_no_budget_applies(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, err",
    [
        ("identities --m 3 --n 4 --max 2", "error: --max cannot be combined with --m or --n\n"),
        ("identities --max 0", "error: --max must be at least 1, got 0\n"),
        ("sweep --max 1", "error: --max must be at least 3, as the least pair is (2, 3); got 1\n"),
    ],
    ids=["identities-max-with-box", "identities-max-0", "sweep-max-1"],
)
def test_identities_and_sweep_refuse_bad_arguments(capsys, argv, err):
    assert run(capsys, *argv.split()) == (2, "", err)


def test_sweep_refuses_an_over_budget_pair_before_the_first_walk(capsys, monkeypatch):
    # (26, 27) has C(26, 13) = 10,400,600 paths, over the default budget:
    # the refusal comes before any pair is verified
    import corepaths.enumeration as enumeration

    def never(*args, **kwargs):
        raise AssertionError("verify_pair ran before the budget refusal")

    refusal = (
        "error: enumeration needs 10400600 paths, over the budget of 10000000; "
        "raise the budget to proceed\n"
    )
    monkeypatch.setattr(enumeration, "verify_pair", never)
    assert run(capsys, "sweep", "--max", "27") == (2, "", refusal)
    # the pairs are read one at a time: --max 30000 has ~270 million of
    # them, which a sweep listing them all first could not hold in 300 MB
    proc = _main_under_memory_limit(["sweep", "--max", "30000"], limit=300 * 2**20)
    assert (proc.returncode, proc.stderr) == (2, refusal)
    assert float(proc.stdout) < 1.0


def test_bruteforce_sc(capsys):
    code, out, _ = run(capsys, "bruteforce", "--s", "3", "--t", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["partitions"] == [[], [1], [3, 1, 1]]


def test_bruteforce_all(capsys):
    code, out, _ = run(capsys, "bruteforce", "--s", "4", "--t", "5", "--all")
    assert code == 0
    assert json.loads(out)["count"] == 14


def test_bruteforce_budget_counts_the_cores_listed(capsys):
    # 501 cores, though the largest has 333,333 cells
    code, out, _ = run(capsys, "bruteforce", "--s", "3", "--t", "1000", "--format", "csv")
    assert (code, out) == (0, "3,1000,self-conjugate,501\n")


@pytest.mark.parametrize(
    "argv, count",
    [("--s 26 --t 27", comb(26, 13)), ("--s 20 --t 21 --all", comb(41, 20) // 41)],
    ids=["self-conjugate", "all"],
)
def test_bruteforce_refuses_before_any_search(capsys, monkeypatch, argv, count):
    import corepaths.oracles as oracles

    def searched(*args):
        raise AssertionError("searched past the budget")

    monkeypatch.setattr(oracles, "_sc_search", searched)
    monkeypatch.setattr(oracles, "_core_search", searched)
    err = (
        f"error: brute-force search lists {count} cores, over the budget of 100000; "
        "raise the budget to proceed\n"
    )
    assert run(capsys, "bruteforce", *argv.split()) == (2, "", err)


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "stats.json"
    code, out, _ = run(
        capsys, "stats", "--s", "2", "--t", "3", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["count"] == 2


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "stats.json"
    code, out, err = run(
        capsys, "stats", "--s", "2", "--t", "3", "--output", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --output")


def _child_env() -> dict:
    """The environment with the package under test first on PYTHONPATH, so a
    child python imports it from a bare checkout too."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_PARENT, path]))}


# Run under python -S, so no site .pth file preloads modules: a process
# loads what its command runs, and nothing more.
_IMPORT_CONTRACT = """
import contextlib, io, sys
import corepaths
loaded = sorted(m for m in sys.modules if m.startswith("corepaths."))
assert not loaded, loaded
import corepaths.cli
heavy = {"numpy", "dataclasses", "inspect", "fractions", "corepaths.enumeration",
         "corepaths.identities", "corepaths.oracles"}
assert not heavy & set(sys.modules), heavy & set(sys.modules)
for argv, absent in [(["largest", "--s", "8", "--t", "11"], heavy),
                     (["stats", "--s", "8", "--t", "11"],
                      {"corepaths.identities", "corepaths.oracles", "fractions"}),
                     (["verify", "--s", "8", "--t", "11"], {"corepaths.oracles", "fractions"})]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert corepaths.cli.main(argv) == 0
    assert not absent & set(sys.modules), (argv, absent & set(sys.modules))
"""


def test_import_loads_no_numpy():
    subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_CONTRACT], check=True, env=_child_env()
    )


@pytest.mark.parametrize("limit", ["3", "25"])
def test_closed_stdout_pipe_exits_141_without_traceback(limit):
    # the read end is closed before the command writes: the short output
    # (under one 8 KiB buffer) breaks at the flush, the long one in print
    proc = subprocess.Popen(
        [sys.executable, "-m", "corepaths.cli", "identities", "--max", limit],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def _under_memory_limit(code, *argv, limit=2**30):
    """Run python ``code`` with ``argv`` in a child under an address-space
    limit of ``limit`` bytes, 1 GiB by default."""
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        preexec_fn=limit_memory,
        timeout=60,
    )


def _main_under_memory_limit(argv, limit=2**30):
    """Run ``main(argv)`` under ``_under_memory_limit``; its stdout is the
    seconds ``main`` took."""
    timed_main = (
        "import sys, time\n"
        "from corepaths.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    return _under_memory_limit(timed_main, *argv, limit=limit)


@pytest.mark.parametrize(
    "argv",
    [
        ["largest"],
        ["map", "--path", "[]"],
        ["unmap", "--partition", "[1]"],
    ],
)
def test_array_commands_refuse_a_box_over_the_cell_cap(argv):
    # a 1 x 10000001 box, whose largest core has (3-1)(20000003-1)/2 rows:
    # refused before the core is built, under an address-space limit that
    # building it would break
    proc = _main_under_memory_limit([*argv, "--s", "3", "--t", "20000003"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        "error: a core of up to 20000002 rows, over the supported maximum of 10**7\n"
    )
    assert float(proc.stdout) < 1.0


@pytest.mark.parametrize(
    "call", ["largest_core(CoreParams(3, 20000003))", "survey_partitions(3, 20000003, 5)"]
)
def test_library_refuses_the_core_that_largest_refuses(call):
    # the survey builds the largest core first, so both refuse at once with
    # the message of ``largest``, under a limit that building it would break
    timed_call = (
        "import time\n"
        "from corepaths import CoreParams, largest_core, survey_partitions\n"
        "start = time.perf_counter()\n"
        "try:\n"
        f"    {call}\n"
        "except ValueError as err:\n"
        "    print(err)\n"
        "print(time.perf_counter() - start)\n"
    )
    proc = _under_memory_limit(timed_call)
    assert proc.returncode == 0, proc.stderr
    err, seconds = proc.stdout.splitlines()
    assert err == "a core of up to 20000002 rows, over the supported maximum of 10**7"
    assert float(seconds) < 1.0


# 10,002 self-conjugate (3, 20002)-cores, each of at most (3-1)(20002-1)/2
# = 20,001 rows; C(200001, 2)/200001 = 100,000 (2, 199999)-cores, within
# the default budget, of at most 99,999 rows
_SC_LISTING = "10002 cores of up to 20001 rows each bound the listing at 200050002 rows"
_ALL_LISTING = "100000 cores of up to 99999 rows each bound the listing at 9999900000 rows"


@pytest.mark.parametrize(
    "argv, err",
    [
        ("bruteforce --s 3 --t 20002", f"{_SC_LISTING}, over the supported maximum of 10**7"),
        ("enumerate --s 3 --t 20002 --format csv",
         f"{_SC_LISTING}, over the supported maximum of 10**7"),
        ("bruteforce --all --s 2 --t 199999",
         f"{_ALL_LISTING}, over the supported maximum of 10**7"),
        ("identities --m 2000 --n 2000",
         "m*n = 4000000 table cells is over the supported maximum of 10**6"),
        # the sweep's largest box, checked before its first box
        ("identities --max 1001",
         "m*n = 1002001 table cells is over the supported maximum of 10**6"),
        # every box of the sweep within the cap, but (45*46/2)**2 cells in all
        ("identities --max 45",
         "the m, n <= 45 sweep has 1071225 table cells in all, over the supported "
         "maximum of 10**6"),
        ("verify --s 46341 --t 46343",
         "s*t = 2147580963 is over the supported maximum of 2**31"),
        # the last twin pair under the s*t cap: its exact path count, which
        # the cap bounds the cost of, is worked out before the refusal
        ("verify --s 46337 --t 46339",
         "enumeration needs at least 10^13946 (13947 digits) paths, over the budget "
         "of 10000000; raise the budget to proceed"),
    ],
    ids=["bruteforce", "enumerate", "bruteforce-all", "identities", "identities-max",
         "identities-max-cells", "verify-st", "verify-st-edge"],
)
def test_jobs_over_a_size_bound_are_refused_at_once(argv, err):
    # refused before any core is listed or any table allocated, under an
    # address-space limit that doing so would break
    proc = _main_under_memory_limit(argv.split())
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: {err}\n"
    assert float(proc.stdout) < 1.0


def test_identities_refuses_one_cell_over_before_any_table(capsys, monkeypatch):
    import corepaths.identities as identities

    def allocated(*args):
        raise AssertionError("built a table over the cell cap")

    monkeypatch.setattr(identities, "_below_rows", allocated)
    err = "error: m*n = 1001000 table cells is over the supported maximum of 10**6\n"
    assert run(capsys, "identities", "--m", "1001", "--n", "1000") == (2, "", err)


def test_identities_sweep_at_the_cell_cap_reaches_its_first_box(monkeypatch):
    # (44*45/2)**2 = 980,100 cells in all: admitted, so its first box, (1, 1),
    # makes rows
    import corepaths.identities as identities

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached(args)

    monkeypatch.setattr(identities, "_below_rows", reached)
    with pytest.raises(Reached) as err:
        main(["identities", "--max", "44"])
    assert err.value.args == ((1, 1),)


def test_verify_refuses_one_cell_over_before_the_walk(capsys, monkeypatch):
    # (3, 2000003) is within the path budget, but its below-count table is
    # one cell over the cap
    import corepaths.enumeration as enumeration

    def walked(*args):
        raise AssertionError("walked a box over the cell cap")

    monkeypatch.setattr(enumeration, "fold_path_sizes", walked)
    err = "error: m*n = 1000001 table cells is over the supported maximum of 10**6\n"
    assert run(capsys, "verify", "--s", "3", "--t", "2000003") == (2, "", err)


@pytest.mark.parametrize(
    "argv, code",
    [("verify --s 46337 --t 46339", 2), ("enumerate --s 5 --t 7", 0),
     ("enumerate --s 5 --t 7 --budget 10", 0)],
    ids=["verify-refused", "enumerate", "enumerate-budget"],
)
def test_the_path_count_is_worked_out_once(capsys, monkeypatch, argv, code):
    # C(m+n, m) is exact and costly near the s*t cap: without --budget,
    # verify leaves it to verify_pair, and enumerate reuses its one count
    from corepaths.bijection import CoreParams

    reads = []
    count = CoreParams.path_count

    def spy(params):
        reads.append((params.s, params.t))
        return count.fget(params)

    monkeypatch.setattr(CoreParams, "path_count", property(spy))
    assert run(capsys, *argv.split())[0] == code
    assert len(reads) == 1, reads


def test_remaining_format_branches(capsys):
    code, out, _ = run(capsys, "enumerate", "--s", "3", "--t", "4", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[0] == "5,3 1 1,"
    code, out, _ = run(capsys, "enumerate", "--s", "3", "--t", "4", "--format", "text")
    assert code == 0 and "size=5" in out
    code, out, _ = run(
        capsys, "map", "--s", "8", "--t", "11", "--path", "[4,3,3,2]", "--format", "csv"
    )
    assert code == 0
    assert out.strip() == "8,11,4 3 3 2,RRURUURUR,7 5 5 3 3 1 1,13 7 5,25"
    code, out, _ = run(
        capsys, "unmap", "--s", "8", "--t", "11",
        "--partition", "[7,5,5,3,3,1,1]", "--format", "text",
    )
    assert code == 0 and "steps=RRURUURUR" in out
    code, out, _ = run(capsys, "largest", "--s", "3", "--t", "4", "--format", "text")
    assert code == 0 and "size 5" in out
    code, out, _ = run(capsys, "largest", "--s", "3", "--t", "4", "--format", "csv")
    assert code == 0 and out.strip() == "3,4,5,3 1 1"
    code, out, _ = run(capsys, "verify", "--s", "2", "--t", "3", "--format", "csv")
    assert code == 0 and out.strip() == "2,3,2,1,1,2,1,True"
    code, out, _ = run(capsys, "identities", "--m", "2", "--n", "2", "--format", "json")
    assert code == 0 and json.loads(out)[0]["m"] == 2
    code, out, _ = run(capsys, "bruteforce", "--s", "3", "--t", "4", "--format", "text")
    assert code == 0 and "self-conjugate (3,4)-cores: 3" in out
    code, out, _ = run(
        capsys, "bruteforce", "--s", "3", "--t", "4", "--all", "--format", "text"
    )
    assert code == 0 and "all (3,4)-cores: 5" in out


# Exact stdout of every command in each --format, from small inputs, in the
# order json, csv, text; the default format is json except for sweep and
# identities, whose default is csv.
BY_FORMAT = [
    (
        "stats --s 8 --t 11",
        0,
        (
            '{"s":8,"t":11,"m":4,"n":5,"count":126,"total":7350,'
            '"average":{"num":175,"den":3},"max":315}\n'
        ),
        "8,11,126,7350,175,3,315\n",
        (
            "self-conjugate (8,11)-cores: count=126 total=7350 average=175/3 "
            "max=315\n"
        ),
    ),
    (
        "enumerate --s 3 --t 4",
        0,
        (
            '{"mu":[],"partition":[3,1,1],"size":5}\n'
            '{"mu":[1],"partition":[],"size":0}\n'
            '{"mu":[2],"partition":[1],"size":1}\n'
        ),
        (
            "5,3 1 1,\n"
            "0,,1\n"
            "1,1,2\n"
        ),
        (
            "mu=[] -> (3, 1, 1) size=5\n"
            "mu=[1] -> () size=0\n"
            "mu=[2] -> (1) size=1\n"
        ),
    ),
    (
        "map --s 8 --t 11 --path [4,3,3,2]",
        0,
        (
            '{"s":8,"t":11,"m":4,"n":5,"mu":[4,3,3,2],"steps":"RRURUURUR",'
            '"partition":[7,5,5,3,3,1,1],"hooks":[13,7,5],"size":25}\n'
        ),
        "8,11,4 3 3 2,RRURUURUR,7 5 5 3 3 1 1,13 7 5,25\n",
        (
            "path mu=[4, 3, 3, 2] steps=RRURUURUR\n"
            "partition (7, 5, 5, 3, 3, 1, 1) size=25\n"
            "diagonal hooks [13, 7, 5]\n"
            "array (above-path cells bracketed):\n"
            "[ 69] [ 53] [ 37] [ 21]    5 \n"
            "[ 47] [ 31] [ 15]   -1   -17 \n"
            "[ 25] [  9] [ -7]  -23   -39 \n"
            "[  3] [-13]  -29   -45   -61 \n"
            "▪▪▪▪▪▪▪\n"
            "▪▪▪▪▪\n"
            "▪▪▪▪▪\n"
            "▪▪▪\n"
            "▪▪▪\n"
            "▪\n"
            "▪\n"
        ),
    ),
    (
        "unmap --s 8 --t 11 --partition [7,5,5,3,3,1,1]",
        0,
        (
            '{"s":8,"t":11,"m":4,"n":5,"mu":[4,3,3,2],"steps":"RRURUURUR",'
            '"partition":[7,5,5,3,3,1,1]}\n'
        ),
        "8,11,4 3 3 2,RRURUURUR\n",
        "mu=[4,3,3,2] steps=RRURUURUR\n",
    ),
    (
        "largest --s 3 --t 4",
        0,
        '{"s":3,"t":4,"partition":[3,1,1],"hooks":[5],"size":5}\n',
        "3,4,5,3 1 1\n",
        (
            "largest (3,4)-core, size 5:\n"
            "▪▪▪\n"
            "▪\n"
            "▪\n"
        ),
    ),
    (
        "verify --s 2 --t 3",
        0,
        (
            '{"s":2,"t":3,"count":2,"total":1,"average":{"num":1,"den":2},'
            '"max":1,"checks":[{"name":"count_is_binomial","pass":true,"lhs":2,'
            '"rhs":2},{"name":"total_matches_path_counts","pass":true,"lhs":1,"'
            'rhs":1},{"name":"total_matches_average_formula","pass":true,"lhs":'
            '24,"rhs":24},{"name":"max_is_closed_form","pass":true,"lhs":1,"rhs'
            '":1},{"name":"max_attained_once","pass":true,"lhs":1,"rhs":1},{"na'
            'me":"staircase_matches_walk","pass":true,"lhs":[2,1,1,1],"rhs":[2,'
            '1,1,1]},{"name":"largest_core_contains_all","pass":true,"lhs":0,"r'
            'hs":0}]}\n'
        ),
        "2,3,2,1,1,2,1,True\n",
        (
            "(2,3): count=2 total=1 average=1/2 max=1\n"
            "  PASS count_is_binomial: 2 vs 2\n"
            "  PASS total_matches_path_counts: 1 vs 1\n"
            "  PASS total_matches_average_formula: 24 vs 24\n"
            "  PASS max_is_closed_form: 1 vs 1\n"
            "  PASS max_attained_once: 1 vs 1\n"
            "  PASS staircase_matches_walk: [2, 1, 1, 1] vs [2, 1, 1, 1]\n"
            "  PASS largest_core_contains_all: 0 vs 0\n"
        ),
    ),
    (
        "sweep --max 4",
        0,
        (
            '[{"s":2,"t":3,"count":2,"total":1,"average":{"num":1,"den":2},'
            '"max":1,"checks":[{"name":"count_is_binomial","pass":true,"lhs":2,'
            '"rhs":2},{"name":"total_matches_path_counts","pass":true,"lhs":1,"'
            'rhs":1},{"name":"total_matches_average_formula","pass":true,"lhs":'
            '24,"rhs":24},{"name":"max_is_closed_form","pass":true,"lhs":1,"rhs'
            '":1},{"name":"max_attained_once","pass":true,"lhs":1,"rhs":1},{"na'
            'me":"staircase_matches_walk","pass":true,"lhs":[2,1,1,1],"rhs":[2,'
            '1,1,1]},{"name":"largest_core_contains_all","pass":true,"lhs":0,"r'
            'hs":0}]},{"s":3,"t":4,"count":3,"total":6,"average":{"num":2,"den"'
            ':1},"max":5,"checks":[{"name":"count_is_binomial","pass":true,"lhs'
            '":3,"rhs":3},{"name":"total_matches_path_counts","pass":true,"lhs"'
            ':6,"rhs":6},{"name":"total_matches_average_formula","pass":true,"l'
            'hs":144,"rhs":144},{"name":"max_is_closed_form","pass":true,"lhs":'
            '5,"rhs":5},{"name":"max_attained_once","pass":true,"lhs":1,"rhs":1'
            '},{"name":"staircase_matches_walk","pass":true,"lhs":[3,6,5,1],"rh'
            's":[3,6,5,1]},{"name":"largest_core_contains_all","pass":true,"lhs'
            '":0,"rhs":0}]}]\n'
        ),
        (
            "s,t,count,total,avg_num,avg_den,max,all_pass\n"
            "2,3,2,1,1,2,1,True\n"
            "3,4,3,6,2,1,5,True\n"
        ),
        (
            "s,t,count,total,avg_num,avg_den,max,all_pass\n"
            "2,3,2,1,1,2,1,True\n"
            "3,4,3,6,2,1,5,True\n"
        ),
    ),
    (
        "identities --m 2 --n 3",
        0,
        (
            '[{"m":2,"n":3,"sum_f_ok":true,"sum_if_ok":true,"sum_jf_ok":true,'
            '"symmetry_ok":true,"recurrence_ok":true}]\n'
        ),
        (
            "m,n,sum_f_ok,sum_if_ok,sum_jf_ok,symmetry_ok,recurrence_ok\n"
            "2,3,true,true,true,true,true\n"
        ),
        (
            "m,n,sum_f_ok,sum_if_ok,sum_jf_ok,symmetry_ok,recurrence_ok\n"
            "2,3,true,true,true,true,true\n"
        ),
    ),
    (
        "identities --max 2",
        0,
        (
            '[{"m":1,"n":1,"sum_f_ok":true,"sum_if_ok":true,"sum_jf_ok":true,'
            '"symmetry_ok":true,"recurrence_ok":true},{"m":1,"n":2,"sum_f_ok":t'
            'rue,"sum_if_ok":true,"sum_jf_ok":true,"symmetry_ok":true,"recurren'
            'ce_ok":true},{"m":2,"n":1,"sum_f_ok":true,"sum_if_ok":true,"sum_jf'
            '_ok":true,"symmetry_ok":true,"recurrence_ok":true},{"m":2,"n":2,"s'
            'um_f_ok":true,"sum_if_ok":true,"sum_jf_ok":true,"symmetry_ok":true'
            ',"recurrence_ok":true}]\n'
        ),
        (
            "m,n,sum_f_ok,sum_if_ok,sum_jf_ok,symmetry_ok,recurrence_ok\n"
            "1,1,true,true,true,true,true\n"
            "1,2,true,true,true,true,true\n"
            "2,1,true,true,true,true,true\n"
            "2,2,true,true,true,true,true\n"
        ),
        (
            "m,n,sum_f_ok,sum_if_ok,sum_jf_ok,symmetry_ok,recurrence_ok\n"
            "1,1,true,true,true,true,true\n"
            "1,2,true,true,true,true,true\n"
            "2,1,true,true,true,true,true\n"
            "2,2,true,true,true,true,true\n"
        ),
    ),
    (
        "bruteforce --s 3 --t 4",
        0,
        (
            '{"s":3,"t":4,"kind":"self-conjugate","count":3,"partitions":[[],'
            "[1],[3,1,1]]}\n"
        ),
        "3,4,self-conjugate,3\n",
        (
            "self-conjugate (3,4)-cores: 3\n"
            "()\n"
            "(1)\n"
            "(3, 1, 1)\n"
        ),
    ),
    (
        "bruteforce --s 4 --t 5 --all",
        0,
        '{"s":4,"t":5,"kind":"all","count":14}\n',
        "4,5,all,14\n",
        "all (4,5)-cores: 14\n",
    ),
]
# Refusals and further single cases: (argv, exit code, stdout, stderr).
CASES = [
    ("verify --s 8 --t 11 --format csv", 0, "8,11,126,7350,175,3,315,True\n", ""),
    (
        "map --s 8 --t 11 --path RRURUURUR --format text",
        0,
        (
            "path mu=[4, 3, 3, 2] steps=RRURUURUR\n"
            "partition (7, 5, 5, 3, 3, 1, 1) size=25\n"
            "diagonal hooks [13, 7, 5]\n"
            "array (above-path cells bracketed):\n"
            "[ 69] [ 53] [ 37] [ 21]    5 \n"
            "[ 47] [ 31] [ 15]   -1   -17 \n"
            "[ 25] [  9] [ -7]  -23   -39 \n"
            "[  3] [-13]  -29   -45   -61 \n"
            "▪▪▪▪▪▪▪\n"
            "▪▪▪▪▪\n"
            "▪▪▪▪▪\n"
            "▪▪▪\n"
            "▪▪▪\n"
            "▪\n"
            "▪\n"
        ),
        "",
    ),
    (
        "map --s 3 --t 29 --path [7] --format text",
        0,
        (
            "path mu=[7] steps=RRRRRRRURRRRRRR\n"
            "partition (7, 5, 3, 2, 2, 1, 1) size=21\n"
            "diagonal hooks [13, 7, 1]\n"
            "▪▪▪▪▪▪▪\n"
            "▪▪▪▪▪\n"
            "▪▪▪\n"
            "▪▪\n"
            "▪▪\n"
            "▪\n"
            "▪\n"
        ),
        "",
    ),
    ("stats --s 4 --t 6", 2, "", "error: not coprime: (4, 6)\n"),
    (
        "stats --s 8 --t 11 --budget 10",
        2,
        "",
        (
            "expected cell count: 20\n"
            "error: staircase DP needs 20 cells, over the budget of 10; raise "
            "the budget to proceed\n"
        ),
    ),
    (
        "stats --s 8 --t 11 --budget -5",
        2,
        "",
        "error: --budget must be at least 1, got -5\n",
    ),
    (
        "stats --s 8 --t 11 --budget 200 --format csv",
        0,
        "8,11,126,7350,175,3,315\n",
        "expected cell count: 20\n",
    ),
    ("enumerate --s 4 --t 6 --format csv", 2, "", "error: not coprime: (4, 6)\n"),
    (
        "enumerate --s 8 --t 11 --budget 5",
        2,
        "",
        (
            "expected path count: 126\n"
            "error: enumeration needs 126 paths, over the budget of 5; raise "
            "the budget to proceed\n"
        ),
    ),
    (
        "enumerate --s 3 --t 4 --budget 10 --format text",
        0,
        (
            "mu=[] -> (3, 1, 1) size=5\n"
            "mu=[1] -> () size=0\n"
            "mu=[2] -> (1) size=1\n"
        ),
        "expected path count: 3\n",
    ),
    ("map --s 4 --t 6 --path []", 2, "", "error: not coprime: (4, 6)\n"),
    (
        'map --s 8 --t 11 --path \'{"m":4,"n":5,"mu":[4,3,3,2]}\' --format csv',
        0,
        "8,11,4 3 3 2,RRURUURUR,7 5 5 3 3 1 1,13 7 5,25\n",
        "",
    ),
    (
        "map --s 8 --t 11 --path [1,2]",
        2,
        "",
        "error: rows must be weakly decreasing, got (1, 2)\n",
    ),
    (
        "map --s 8 --t 11 --path RRX --format text",
        2,
        "",
        "error: step word may contain only U and R: 'RRX'\n",
    ),
    (
        "map --s 8 --t 11 --path '{bad'",
        2,
        "",
        (
            "error: path object is not valid JSON: Expecting property name "
            "enclosed in double quotes: line 1 column 2 (char 1)\n"
        ),
    ),
    (
        'map --s 8 --t 11 --path \'{"m":4,"n":5}\'',
        2,
        "",
        'error: path object must have exactly the keys "m", "n", "mu"\n',
    ),
    (
        'map --s 8 --t 11 --path \'{"m":1,"n":1,"mu":[]}\'',
        2,
        "",
        "error: path box 1x1 does not match the 4x5 box of (s, t)\n",
    ),
    (
        "unmap --s 8 --t 11 --partition oops --format csv",
        2,
        "",
        (
            "error: partition must be a JSON array of integers: Expecting "
            "value: line 1 column 1 (char 0)\n"
        ),
    ),
    (
        "unmap --s 8 --t 11 --partition [2] --format text",
        2,
        "",
        "error: not in the bijection image: (2) is not self-conjugate\n",
    ),
    (
        "unmap --s 8 --t 11 --partition [true]",
        2,
        "",
        "error: partition must be a JSON array of integers\n",
    ),
    ("largest --s 6 --t 9 --format text", 2, "", "error: not coprime: (6, 9)\n"),
    ("verify --s 4 --t 6 --format text", 2, "", "error: not coprime: (4, 6)\n"),
    (
        "verify --s 8 --t 11 --budget 10 --format csv",
        2,
        "",
        (
            "expected path count: 126\n"
            "error: enumeration needs 126 paths, over the budget of 10; raise "
            "the budget to proceed\n"
        ),
    ),
    (
        "verify --s 2 --t 3 --budget 10 --format csv",
        0,
        "2,3,2,1,1,2,1,True\n",
        "expected path count: 2\n",
    ),
    (
        "sweep --max 13 --budget 10",
        2,
        "",
        (
            "error: enumeration needs 20 paths, over the budget of 10; raise "
            "the budget to proceed\n"
        ),
    ),
    (
        "sweep --max 4 --budget 200 --format text",
        0,
        (
            "s,t,count,total,avg_num,avg_den,max,all_pass\n"
            "2,3,2,1,1,2,1,True\n"
            "3,4,3,6,2,1,5,True\n"
        ),
        "",
    ),
    ("identities", 2, "", "error: identities needs either --m and --n, or --max\n"),
    (
        "identities --m 3 --format text",
        2,
        "",
        "error: identities needs either --m and --n, or --max\n",
    ),
    ("bruteforce --s 4 --t 6 --format text", 2, "", "error: not coprime: (4, 6)\n"),
    (
        "bruteforce --s 4 --t 5 --budget 1",
        2,
        "",
        (
            "error: brute-force search lists 6 cores, over the budget of 1; "
            "raise the budget to proceed\n"
        ),
    ),
    (
        "bruteforce --s 3 --t 4 --budget 0 --format csv",
        2,
        "",
        "error: --budget must be at least 1, got 0\n",
    ),
    (
        "bruteforce --s 4 --t 5 --all --budget 1 --format csv",
        2,
        "",
        (
            "error: brute-force search lists 14 cores, over the budget of 1; "
            "raise the budget to proceed\n"
        ),
    ),
]


DEFAULT_FORMAT = {"sweep": "csv", "identities": "csv"}


def _golden_cases():
    for argv, code, *outs in BY_FORMAT:
        default = DEFAULT_FORMAT.get(argv.split()[0], "json")
        for fmt, out in zip(("json", "csv", "text"), outs):
            yield f"{argv} --format {fmt}", code, out, ""
            if fmt == default:
                yield argv, code, out, ""
    yield from CASES


GOLDEN = list(_golden_cases())


@pytest.mark.parametrize("argv, code, out, err", GOLDEN, ids=[case[0] for case in GOLDEN])
def test_golden_output(capsys, monkeypatch, argv, code, out, err):
    # map --format text shows its array only when it fits the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *shlex.split(argv)) == (code, out, err)


def _commands(parser):
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return list(sub.choices)


def test_parser_builds_only_the_named_command():
    from corepaths.cli import COMMANDS, build_parser

    for name in COMMANDS:
        assert _commands(build_parser([name, "--s", "3"])) == [name]
    for argv in ([], ["--help"], ["-h", "stats"], ["bogus"], None):
        assert _commands(build_parser(argv)) == list(COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "--s", "3", "--t", "4", "--bogus"],
        ["largest", "--s", "3", "--t", "4", "--budget", "5"],
        ["verify", "--s"],
        ["map", "--help"],
        ["bogus"],
        [],
    ],
    ids=["unrecognized", "no-budget", "missing-value", "command-help", "unknown", "none"],
)
def test_a_one_command_parser_prints_what_the_full_parser_does(capsys, argv):
    # usage lines, help and errors are the same bytes whichever parser runs
    from corepaths.cli import build_parser

    printed = []
    for parser in (build_parser(argv), build_parser([])):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        printed.append((exc.value.code, *capsys.readouterr()))
    assert printed[0] == printed[1]
