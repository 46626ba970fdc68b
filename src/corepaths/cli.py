"""Command-line front end.

Subcommands: stats, enumerate, map, unmap, largest, verify, sweep,
identities, bruteforce.  All numeric output is exact (averages appear as
num/den pairs).  Exit status: 0 on success and on verify/sweep with every
check passing, 1 when any check fails, 2 on usage errors, 141 (128 +
SIGPIPE) when the reader of stdout goes away before the output is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

from .bijection import (
    CoreParams,
    LatticePath,
    build_array,
    core_from_path,
    largest_core,
    path_from_core,
    path_hook_set,
)
from .enumeration import (
    DEFAULT_PATH_BUDGET,
    check_path_budget,
    coprime_pairs,
    describe_count,
    enumerated_stats,
    iter_paths,
    report_all_pass,
    report_csv_row,
    verify_pair,
)
from .identities import identity_report
from .oracles import DEFAULT_ORACLE_BUDGET, brute_force_all_cores_count, brute_force_sc_cores
from .partitions import Partition


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _is_int_list(data) -> bool:
    # JSON true/false decode to bool, which is an int subclass: refuse them
    return isinstance(data, list) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in data
    )


def _parse_partition(text: str) -> Partition:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"partition must be a JSON array of integers: {exc}")
    if not _is_int_list(data):
        raise ValueError("partition must be a JSON array of integers")
    return Partition(tuple(data))


def _parse_path(text: str, m: int, n: int) -> LatticePath:
    """Accept the mu array ('[4,3,3,2]'), the full object form
    ('{"m":4,"n":5,"mu":[4,3,3,2]}'), or a UR step word."""
    text = text.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"path object is not valid JSON: {exc}")
        if not isinstance(data, dict) or set(data) != {"m", "n", "mu"}:
            raise ValueError('path object must have exactly the keys "m", "n", "mu"')
        if not _is_int_list([data["m"], data["n"]]) or (data["m"], data["n"]) != (m, n):
            raise ValueError(
                f"path box {data['m']}x{data['n']} does not match the "
                f"{m}x{n} box of (s, t)"
            )
        mu = data["mu"]
        if not _is_int_list(mu):
            raise ValueError("path mu must be a JSON array of integers")
        return LatticePath(m, n, Partition(tuple(mu)))
    if text.startswith("["):
        return LatticePath(m, n, _parse_partition(text))
    return LatticePath.from_steps(text, m, n)


def _print(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            # a bad --output is a usage error, not a failed check
            raise ValueError(f"cannot write --output {args.output}: {exc.strerror}")
    else:
        print(text)


def _maybe_announce_budget(args, params: CoreParams) -> None:
    # an explicit budget override states the job size up front
    if getattr(args, "budget", None) is not None:
        expected = math.comb(params.m + params.n, params.m)
        print(f"expected path count: {describe_count(expected)}", file=sys.stderr)


def _average_json(stats) -> dict:
    return {"num": stats.average_size.numerator, "den": stats.average_size.denominator}


def cmd_stats(args) -> int:
    params = CoreParams(args.s, args.t)
    _maybe_announce_budget(args, params)
    budget = args.budget if args.budget is not None else DEFAULT_PATH_BUDGET
    stats = enumerated_stats(args.s, args.t, budget=budget)
    if args.format == "json":
        _print(
            args,
            _dumps(
                {
                    "s": args.s,
                    "t": args.t,
                    "m": params.m,
                    "n": params.n,
                    "count": stats.count,
                    "total": stats.total_size,
                    "average": _average_json(stats),
                    "max": stats.max_size,
                }
            ),
        )
    elif args.format == "csv":
        _print(
            args,
            ",".join(
                str(v)
                for v in (
                    args.s,
                    args.t,
                    stats.count,
                    stats.total_size,
                    stats.average_size.numerator,
                    stats.average_size.denominator,
                    stats.max_size,
                )
            ),
        )
    else:
        avg = stats.average_size
        _print(
            args,
            f"self-conjugate ({args.s},{args.t})-cores: count={stats.count} "
            f"total={stats.total_size} average={avg.numerator}/{avg.denominator} "
            f"max={stats.max_size}",
        )
    return 0


def cmd_enumerate(args) -> int:
    params = CoreParams(args.s, args.t)
    _maybe_announce_budget(args, params)
    check_path_budget(
        params, args.budget if args.budget is not None else DEFAULT_PATH_BUDGET
    )
    lines = []
    for path in iter_paths(params.m, params.n):
        core = core_from_path(path, params)
        if args.format == "json":
            lines.append(
                _dumps(
                    {
                        "mu": list(path.mu.rows),
                        "partition": list(core.rows),
                        "size": core.size,
                    }
                )
            )
        elif args.format == "csv":
            lines.append(
                f"{core.size},{' '.join(map(str, core.rows))},"
                f"{' '.join(map(str, path.mu.rows))}"
            )
        else:
            lines.append(f"mu={list(path.mu.rows)} -> {core} size={core.size}")
    _print(args, "\n".join(lines))
    return 0


def _render_array(arr, path) -> str:
    width = max(len(str(arr.entry(i, j))) for i in range(1, arr.m + 1) for j in range(1, arr.n + 1))
    lines = []
    for i in range(1, arr.m + 1):
        cells = []
        for j in range(1, arr.n + 1):
            txt = f"{arr.entry(i, j):>{width}}"
            cells.append(f"[{txt}]" if path.is_above(i, j) else f" {txt} ")
        lines.append(" ".join(cells))
    return "\n".join(lines)


def cmd_map(args) -> int:
    params = CoreParams(args.s, args.t)
    path = _parse_path(args.path, params.m, params.n)
    arr = build_array(args.s, args.t)
    hooks = path_hook_set(path, arr)
    core = core_from_path(path, params)
    payload = {
        "s": args.s,
        "t": args.t,
        "m": params.m,
        "n": params.n,
        "mu": list(path.mu.rows),
        "steps": path.steps(),
        "partition": list(core.rows),
        "hooks": list(hooks),
        "size": core.size,
    }
    if args.format == "json":
        _print(args, _dumps(payload))
    elif args.format == "csv":
        _print(
            args,
            ",".join(
                (
                    str(args.s),
                    str(args.t),
                    " ".join(map(str, path.mu.rows)),
                    path.steps(),
                    " ".join(map(str, core.rows)),
                    " ".join(map(str, hooks)),
                    str(core.size),
                )
            ),
        )
    else:
        lines = [
            f"path mu={list(path.mu.rows)} steps={path.steps()}",
            f"partition {core} size={core.size}",
            f"diagonal hooks {list(hooks)}",
        ]
        cell_width = max(len(str(arr.entry(i, j))) for i in range(1, arr.m + 1) for j in range(1, arr.n + 1))
        if arr.n * (cell_width + 3) <= shutil.get_terminal_size().columns:
            lines.append("array (above-path cells bracketed):")
            lines.append(_render_array(arr, path))
        lines.append(core.ferrers())
        _print(args, "\n".join(lines))
    return 0


def cmd_unmap(args) -> int:
    params = CoreParams(args.s, args.t)
    core = _parse_partition(args.partition)
    path = path_from_core(core, params)
    payload = {
        "s": args.s,
        "t": args.t,
        "m": params.m,
        "n": params.n,
        "mu": list(path.mu.rows),
        "steps": path.steps(),
        "partition": list(core.rows),
    }
    if args.format == "json":
        _print(args, _dumps(payload))
    elif args.format == "csv":
        _print(
            args,
            ",".join(
                (
                    str(args.s),
                    str(args.t),
                    " ".join(map(str, path.mu.rows)),
                    path.steps(),
                )
            ),
        )
    else:
        _print(args, f"mu={_dumps(list(path.mu.rows))} steps={path.steps()}")
    return 0


def cmd_largest(args) -> int:
    params = CoreParams(args.s, args.t)
    core = largest_core(params)
    if args.format == "json":
        _print(
            args,
            _dumps(
                {
                    "s": args.s,
                    "t": args.t,
                    "partition": list(core.rows),
                    "hooks": list(core.diagonal_hooks()),
                    "size": core.size,
                }
            ),
        )
    elif args.format == "csv":
        _print(args, f"{args.s},{args.t},{core.size},{' '.join(map(str, core.rows))}")
    else:
        _print(
            args,
            f"largest ({args.s},{args.t})-core, size {core.size}:\n{core.ferrers()}",
        )
    return 0


def cmd_verify(args) -> int:
    params = CoreParams(args.s, args.t)
    _maybe_announce_budget(args, params)
    budget = args.budget if args.budget is not None else DEFAULT_PATH_BUDGET
    report = verify_pair(args.s, args.t, budget=budget)
    ok = report_all_pass(report)
    if args.format == "json":
        _print(args, _dumps(report))
    elif args.format == "csv":
        _print(args, report_csv_row(report))
    else:
        lines = [
            f"({args.s},{args.t}): count={report['count']} total={report['total']} "
            f"average={report['average']['num']}/{report['average']['den']} "
            f"max={report['max']}"
        ]
        for check in report["checks"]:
            word = "PASS" if check["pass"] else "FAIL"
            lines.append(f"  {word} {check['name']}: {check['lhs']} vs {check['rhs']}")
        _print(args, "\n".join(lines))
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    budget = args.budget if args.budget is not None else DEFAULT_PATH_BUDGET
    reports = []
    for s, t in coprime_pairs(args.max):
        reports.append(verify_pair(s, t, budget=budget))
    ok = all(report_all_pass(r) for r in reports)
    if args.format == "json":
        _print(args, _dumps(reports))
    else:
        header = "s,t,count,total,avg_num,avg_den,max,all_pass"
        _print(args, "\n".join([header] + [report_csv_row(r) for r in reports]))
    return 0 if ok else 1


def cmd_identities(args) -> int:
    if args.max is None and (args.m is None or args.n is None):
        raise ValueError("identities needs either --m and --n, or --max")
    if args.max is not None:
        boxes = [(m, n) for m in range(1, args.max + 1) for n in range(1, args.max + 1)]
    else:
        boxes = [(args.m, args.n)]
    reports = [identity_report(m, n) for m, n in boxes]
    ok = all(
        r["sum_f_ok"] and r["sum_if_ok"] and r["sum_jf_ok"] and r["symmetry_ok"] and r["recurrence_ok"]
        for r in reports
    )
    if args.format == "json":
        _print(args, _dumps(reports))
    else:
        header = "m,n,sum_f_ok,sum_if_ok,sum_jf_ok,symmetry_ok,recurrence_ok"
        rows = [
            ",".join(
                [str(r["m"]), str(r["n"])]
                + [
                    str(r[key]).lower()
                    for key in (
                        "sum_f_ok",
                        "sum_if_ok",
                        "sum_jf_ok",
                        "symmetry_ok",
                        "recurrence_ok",
                    )
                ]
            )
            for r in reports
        ]
        _print(args, "\n".join([header] + rows))
    return 0 if ok else 1


def cmd_bruteforce(args) -> int:
    budget = args.budget if args.budget is not None else DEFAULT_ORACLE_BUDGET
    if args.all:
        count = brute_force_all_cores_count(args.s, args.t, budget=budget)
        payload = {"s": args.s, "t": args.t, "kind": "all", "count": count}
        if args.format == "json":
            _print(args, _dumps(payload))
        else:
            _print(args, f"all ({args.s},{args.t})-cores: {count}")
        return 0
    cores = brute_force_sc_cores(args.s, args.t, budget=budget)
    if args.format == "json":
        _print(
            args,
            _dumps(
                {
                    "s": args.s,
                    "t": args.t,
                    "kind": "self-conjugate",
                    "count": len(cores),
                    "partitions": [list(p.rows) for p in cores],
                }
            ),
        )
    else:
        lines = [f"self-conjugate ({args.s},{args.t})-cores: {len(cores)}"]
        lines.extend(str(p) for p in cores)
        _print(args, "\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corepaths",
        description=(
            "Exact enumeration and verification of self-conjugate (s,t)-core "
            "partitions via lattice paths."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, budget_default):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--output", help="write output to FILE instead of stdout")
        p.add_argument(
            "--budget",
            type=int,
            default=None,
            help=f"path/size budget guard (default {budget_default}); an explicit "
            "value announces the expected work before proceeding",
        )

    def add_pair(p):
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--t", type=int, required=True)

    p = sub.add_parser(
        "stats",
        help="count/total/average/max of SC(s,t) by an O(mn) DP over the path box",
    )
    add_pair(p)
    add_common(p, DEFAULT_PATH_BUDGET)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("enumerate", help="list every self-conjugate (s,t)-core")
    add_pair(p)
    add_common(p, DEFAULT_PATH_BUDGET)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("map", help="lattice path -> partition")
    add_pair(p)
    p.add_argument(
        "--path",
        required=True,
        help="above-partition as a JSON array (e.g. '[4,3,3,2]') or a UR step word",
    )
    add_common(p, DEFAULT_PATH_BUDGET)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("unmap", help="partition -> lattice path")
    add_pair(p)
    p.add_argument("--partition", required=True, help="JSON array, e.g. '[7,5,5,3,3,1,1]'")
    add_common(p, DEFAULT_PATH_BUDGET)
    p.set_defaults(func=cmd_unmap)

    p = sub.add_parser("largest", help="the largest (s,t)-core")
    add_pair(p)
    add_common(p, DEFAULT_PATH_BUDGET)
    p.set_defaults(func=cmd_largest)

    p = sub.add_parser("verify", help="run every identity check for one pair")
    add_pair(p)
    add_common(p, DEFAULT_PATH_BUDGET)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="verify every coprime pair s < t <= --max")
    p.add_argument("--max", type=int, required=True)
    add_common(p, DEFAULT_PATH_BUDGET)
    p.set_defaults(func=cmd_sweep)
    # sweep defaults to the CSV row form
    p.set_defaults(format="csv")

    p = sub.add_parser("identities", help="lattice-path counting identity checks")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--max", type=int, help="sweep all boxes with m, n <= MAX")
    add_common(p, DEFAULT_PATH_BUDGET)
    p.set_defaults(func=cmd_identities, format="csv")

    p = sub.add_parser("bruteforce", help="independent brute-force core search")
    add_pair(p)
    p.add_argument("--all", action="store_true", help="count all cores, not only self-conjugate")
    add_common(p, DEFAULT_ORACLE_BUDGET)
    p.set_defaults(func=cmd_bruteforce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # a closed pipe must surface here, not in the interpreter's flush
        # at exit, where it would print a traceback and exit 120
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader stopped early (``| head``): exit as SIGPIPE would, and
        # point stdout at devnull so the unwritten rest is dropped quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
