import json
import subprocess
import sys

import pytest

from corepaths.cli import main


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
    code, _, err = run(capsys, "stats", "--s", "8", "--t", "11", "--budget", "10")
    assert code == 2
    assert "expected path count: 126" in err
    assert "budget" in err
    code, out, err = run(capsys, "stats", "--s", "8", "--t", "11", "--budget", "200")
    assert code == 0
    assert "expected path count: 126" in err


def test_budget_refusal_of_a_count_too_long_to_print(capsys):
    # C(46843, 20000) has 13881 digits, past Python's 4300-digit int->str
    # limit; the refusal states its size instead of printing it
    code, _, err = run(capsys, "stats", "--s", "40000", "--t", "53687")
    assert code == 2
    assert "enumeration needs at least 10^13880 (13881 digits) paths" in err
    code, _, err = run(
        capsys, "stats", "--s", "40000", "--t", "53687", "--budget", "5"
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


def test_import_loads_no_numpy():
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import corepaths, corepaths.cli, sys; assert 'numpy' not in sys.modules",
        ],
        check=True,
    )


@pytest.mark.parametrize("limit", ["3", "25"])
def test_closed_stdout_pipe_exits_141_without_traceback(limit):
    # the read end is closed before the command writes: the short output
    # (under one 8 KiB buffer) breaks at the flush, the long one in print
    proc = subprocess.Popen(
        [sys.executable, "-m", "corepaths.cli", "identities", "--max", limit],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


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
