"""Command-line front end.

Each command is one row of ``COMMANDS``: help text, arguments, a run function
``run(args) -> (exit code, payload)``, views and ``--budget``.  The payload is
the JSON-ready result, and a view renders it for one ``--format``.  ``main``
runs the command and writes the one view asked for, so a new command is one
row plus its run function.

All numeric output is exact (averages appear as num/den pairs).  Exit
status: 0 on success and on verify/sweep with every check passing, 1 when
any check fails, 2 on usage errors, 141 (128 + SIGPIPE) when the reader of
stdout goes away before the output is written.

A process imports only what its command runs: ``enumeration``,
``identities`` and ``oracles`` are imported inside the run functions and
views that call them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from .bijection import (
    _MAX_CELLS,
    DEFAULT_ORACLE_BUDGET,
    DEFAULT_PATH_BUDGET,
    CoreParams,
    LatticePath,
    _path_cuts,
    _row_hooks,
    check_budget,
    check_listing,
    core_from_path,
    describe_count,
    largest_hooks,
    path_from_core,
)
from .partitions import Partition, partition_from_diagonal_hooks


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _csv(*fields) -> str:
    return ",".join(map(str, fields))


def _cells(values) -> str:
    """A list field of a CSV row: its items separated by spaces."""
    return " ".join(map(str, values))


def _each(view):
    """A view of a payload that is a list: one line per item."""
    return lambda items: "\n".join(map(view, items))


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
    return Partition(data)


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
        return LatticePath(m, n, Partition(mu))
    if text.startswith("["):
        return LatticePath(m, n, _parse_partition(text))
    return LatticePath.from_steps(text, m, n)


def _budget(args, unit: str | None = None, expected=None) -> int:
    """--budget, else the command's default; a budget below 1 is refused.
    Given the unit a job's budget counts and a function that works out how
    many it needs, an explicit budget first states that count; without one
    the count is not worked out here."""
    if args.budget is None:
        return args.budget_default
    if args.budget < 1:
        raise ValueError(f"--budget must be at least 1, got {args.budget}")
    if unit is not None:
        print(f"expected {unit} count: {describe_count(expected())}", file=sys.stderr)
    return args.budget


def _stats_fields(p) -> list:
    """s, t, count, total, average num and den, max of stats or a verify report."""
    avg = p["average"]
    return [p["s"], p["t"], p["count"], p["total"], avg["num"], avg["den"], p["max"]]


def _stats_summary(p) -> str:
    avg = p["average"]
    return f"count={p['count']} total={p['total']} average={avg['num']}/{avg['den']} max={p['max']}"


def _run_stats(args):
    from .enumeration import enumerated_stats

    params = CoreParams(args.s, args.t)
    budget = _budget(args, "cell", lambda: params.cell_count)
    stats = enumerated_stats(args.s, args.t, budget=budget)
    return 0, {
        "s": args.s, "t": args.t, "m": params.m, "n": params.n,
        "count": stats.count, "total": stats.total_size,
        "average": stats._average_terms(), "max": stats.max_size,
    }


def _run_enumerate(args):
    from .enumeration import iter_paths

    params = CoreParams(args.s, args.t)
    count = params.path_count
    check_listing(params, check_budget("path", count, _budget(args, "path", lambda: count)))
    cores = ((path, core_from_path(path, params)) for path in iter_paths(params.m, params.n))
    return 0, [{"mu": list(p.mu.rows), "partition": list(c.rows), "size": c.size} for p, c in cores]


def _path_payload(params: CoreParams, path: LatticePath, core: Partition) -> dict:
    return {
        "s": params.s, "t": params.t, "m": params.m, "n": params.n,
        "mu": list(path.mu.rows), "steps": path.steps(), "partition": list(core.rows),
    }


def _run_map(args):
    params = CoreParams(args.s, args.t)
    check_listing(params)
    path = _parse_path(args.path, params.m, params.n)
    hooks = _row_hooks(params, _path_cuts(path, params))
    core = partition_from_diagonal_hooks(hooks)
    return 0, {**_path_payload(params, path, core), "hooks": hooks, "size": core.size}


def _map_csv(p) -> str:
    mu, partition, hooks = (_cells(p[key]) for key in ("mu", "partition", "hooks"))
    return _csv(p["s"], p["t"], mu, p["steps"], partition, hooks, p["size"])


def _ferrers(core: Partition) -> str:
    """core's Ferrers diagram, when its widest row fits the terminal."""
    if core.rows and core.rows[0] > shutil.get_terminal_size().columns:
        return f"(diagram not drawn: {core.rows[0]} columns wide)"
    return core.ferrers()


def _map_text(p) -> str:
    core = Partition(p["partition"])
    lines = [f"path mu={p['mu']} steps={p['steps']}", f"partition {core} size={p['size']}",
             f"diagonal hooks {p['hooks']}"]
    s, n = p["s"], p["n"]
    firsts = CoreParams(s, p["t"])._row_firsts
    # the widest entry is the top-left (largest) or bottom-right (least) one
    w = max(len(str(firsts[0])), len(str(firsts[-1] - 2 * s * (n - 1))))
    # the array is shown only when it fits the terminal
    if n * (w + 3) <= shutil.get_terminal_size().columns:
        lines.append("array (above-path cells bracketed):")
        for e, above in zip(firsts, p["mu"] + [0] * (p["m"] - len(p["mu"]))):
            row = range(e, e - 2 * s * n, -2 * s)
            cells = (f"[{v:>{w}}]" if j < above else f" {v:>{w}} " for j, v in enumerate(row))
            lines.append(" ".join(cells))
    lines.append(_ferrers(core))
    return "\n".join(lines)


def _run_unmap(args):
    params = CoreParams(args.s, args.t)
    check_listing(params)
    core = _parse_partition(args.partition)
    return 0, _path_payload(params, path_from_core(core, params), core)


def _run_largest(args):
    params = CoreParams(args.s, args.t)
    hooks = largest_hooks(params)
    core = partition_from_diagonal_hooks(hooks)
    return 0, {
        "s": args.s, "t": args.t, "partition": list(core.rows),
        "hooks": hooks, "size": core.size,
    }


def _run_verify(args):
    from .enumeration import report_all_pass, verify_pair

    params = CoreParams(args.s, args.t)
    report = verify_pair(args.s, args.t, budget=_budget(args, "path", lambda: params.path_count))
    return (0 if report_all_pass(report) else 1), report


def _report_row(report) -> str:
    """One verify/sweep CSV row: s,t,count,total,avg_num,avg_den,max,all_pass."""
    from .enumeration import report_all_pass

    return _csv(*_stats_fields(report), report_all_pass(report))


def _verify_text(report) -> str:
    lines = [f"({report['s']},{report['t']}): {_stats_summary(report)}"]
    for check in report["checks"]:
        word = "PASS" if check["pass"] else "FAIL"
        lines.append(f"  {word} {check['name']}: {check['lhs']} vs {check['rhs']}")
    return "\n".join(lines)


def _run_sweep(args):
    from .enumeration import coprime_pairs, report_all_pass, verify_pair

    if args.max < 3:
        raise ValueError(f"--max must be at least 3, as the least pair is (2, 3); got {args.max}")
    budget = _budget(args)
    # every pair's path count, in pair order, before the first walk: the
    # first pair over budget is refused at once, not after the pairs below
    # it, and the pairs are read lazily, so the refusal never lists the rest
    for s, t in coprime_pairs(args.max):
        check_budget("path", CoreParams(s, t).path_count, budget)
    reports = [verify_pair(s, t, budget=budget) for s, t in coprime_pairs(args.max)]
    return (0 if all(map(report_all_pass, reports)) else 1), reports


def _sweep_csv(reports) -> str:
    return "\n".join(["s,t,count,total,avg_num,avg_den,max,all_pass", *map(_report_row, reports)])


_IDENTITY_CHECKS = ("sum_f_ok", "sum_if_ok", "sum_jf_ok", "symmetry_ok", "recurrence_ok")


def _run_identities(args):
    from .identities import _check_box, identity_report

    if args.max is None:
        if args.m is None or args.n is None:
            raise ValueError("identities needs either --m and --n, or --max")
        boxes = [(args.m, args.n)]
    elif args.m is not None or args.n is not None:
        raise ValueError("--max cannot be combined with --m or --n")
    elif args.max < 1:
        raise ValueError(f"--max must be at least 1, got {args.max}")
    else:
        _check_box(args.max, args.max)  # the largest box, before the first
        # then every box's m*n cells, summed: (max(max+1)/2)**2
        cells = (args.max * (args.max + 1) // 2) ** 2
        if cells > _MAX_CELLS:
            raise ValueError(
                f"the m, n <= {args.max} sweep has {cells} table cells in all, "
                f"over the supported maximum of 10**6"
            )
        boxes = [(m, n) for m in range(1, args.max + 1) for n in range(1, args.max + 1)]
    reports = [identity_report(m, n) for m, n in boxes]
    ok = all(r[key] for r in reports for key in _IDENTITY_CHECKS)
    return (0 if ok else 1), reports


def _identities_csv(reports) -> str:
    rows = [_csv(r["m"], r["n"], *(str(r[k]).lower() for k in _IDENTITY_CHECKS)) for r in reports]
    return "\n".join([_csv("m", "n", *_IDENTITY_CHECKS), *rows])


def _run_bruteforce(args):
    from .oracles import all_cores_size_stats, brute_force_sc_cores

    budget = _budget(args)
    if args.all:
        count = all_cores_size_stats(args.s, args.t, budget=budget)[0]
        return 0, {"s": args.s, "t": args.t, "kind": "all", "count": count}
    cores = brute_force_sc_cores(args.s, args.t, budget=budget)
    return 0, {
        "s": args.s, "t": args.t, "kind": "self-conjugate", "count": len(cores),
        "partitions": [list(p.rows) for p in cores],
    }


def _bruteforce_text(p) -> str:
    lines = [f"{p['kind']} ({p['s']},{p['t']})-cores: {p['count']}"]
    lines.extend(str(Partition(rows)) for rows in p.get("partitions", ()))
    return "\n".join(lines)


_PAIR = [("--s", {"type": int, "required": True}), ("--t", {"type": int, "required": True})]
_PATH_BUDGET = (DEFAULT_PATH_BUDGET, "path count limit; if set, the path count is printed first")

# name: (help, arguments, run, {format: view}, --budget (default, help) or None);
# the first view is the default --format
COMMANDS = {
    "stats": (
        "count/total/average/max of SC(s,t) by an O(mn) DP over the path box", _PAIR, _run_stats,
        {"json": _dumps, "csv": lambda p: _csv(*_stats_fields(p)),
         "text": lambda p: f"self-conjugate ({p['s']},{p['t']})-cores: {_stats_summary(p)}"},
        (DEFAULT_PATH_BUDGET, "DP cell count limit (m*n); if set, the cell count is printed first"),
    ),
    "enumerate": (
        "list every self-conjugate (s,t)-core", _PAIR, _run_enumerate,
        {"json": _each(_dumps),
         "csv": _each(lambda c: _csv(c["size"], _cells(c["partition"]), _cells(c["mu"]))),
         "text": _each(lambda c: f"mu={c['mu']} -> {Partition(c['partition'])} size={c['size']}")},
        _PATH_BUDGET,
    ),
    "map": (
        "lattice path -> partition",
        _PAIR + [("--path", {"required": True, "help": "above-partition as a JSON array "
                             "(e.g. '[4,3,3,2]') or a UR step word"})], _run_map,
        {"json": _dumps, "csv": _map_csv, "text": _map_text}, None,
    ),
    "unmap": (
        "partition -> lattice path",
        _PAIR + [("--partition", {"required": True, "help": "JSON array, e.g. '[7,5,5,3,3,1,1]'"})],
        _run_unmap,
        {"json": _dumps, "csv": lambda p: _csv(p["s"], p["t"], _cells(p["mu"]), p["steps"]),
         "text": lambda p: f"mu={_dumps(p['mu'])} steps={p['steps']}"}, None,
    ),
    "largest": (
        "the largest (s,t)-core", _PAIR, _run_largest,
        {"json": _dumps, "csv": lambda p: _csv(p["s"], p["t"], p["size"], _cells(p["partition"])),
         "text": lambda p: f"largest ({p['s']},{p['t']})-core, size {p['size']}:\n"
                           f"{_ferrers(Partition(p['partition']))}"}, None,
    ),
    "verify": (
        "run every identity check for one pair", _PAIR, _run_verify,
        {"json": _dumps, "csv": _report_row, "text": _verify_text}, _PATH_BUDGET,
    ),
    "sweep": (
        "verify every coprime pair s < t <= --max", [("--max", {"type": int, "required": True})],
        _run_sweep,
        {"csv": _sweep_csv, "json": _dumps, "text": _sweep_csv},
        (DEFAULT_PATH_BUDGET, "path count limit for each pair"),
    ),
    "identities": (
        "lattice-path counting identity checks",
        [("--m", {"type": int}), ("--n", {"type": int}),
         ("--max", {"type": int, "help": "sweep all boxes with m, n <= MAX"})], _run_identities,
        {"csv": _identities_csv, "json": _dumps, "text": _identities_csv}, None,
    ),
    "bruteforce": (
        "independent brute-force core search",
        _PAIR + [("--all", {"action": "store_true",
                            "help": "count all cores, not only self-conjugate"})], _run_bruteforce,
        {"json": _dumps, "csv": lambda p: _csv(p["s"], p["t"], p["kind"], p["count"]),
         "text": _bruteforce_text},
        (DEFAULT_ORACLE_BUDGET, "number of cores the search may list"),
    ),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for ``argv``: the subparser of the command it names, or
    all of them for the top-level help and errors (no known command)."""
    parser = argparse.ArgumentParser(
        prog="corepaths",
        description=(
            "Exact enumeration and verification of self-conjugate (s,t)-core "
            "partitions via lattice paths."
        ),
    )
    named = argv[0] if argv and argv[0] in COMMANDS else None
    # with one subparser built, the metavar still lists every command, so
    # the top-level usage line (in "unrecognized arguments") is unchanged
    sub = parser.add_subparsers(
        dest="command", required=True, metavar=named and "{" + ",".join(COMMANDS) + "}"
    )
    for name, (help_text, arguments, _, views, budget) in COMMANDS.items():
        if named not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--format", choices=("json", "csv", "text"), default=next(iter(views)))
        p.add_argument("--output", help="write output to FILE instead of stdout")
        if budget is not None:
            default, budget_help = budget
            p.add_argument("--budget", type=int, help=f"{budget_help} (default {default})")
            p.set_defaults(budget_default=default)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    _, _, run, views, _ = COMMANDS[args.command]
    try:
        code, payload = run(args)
        text = views[args.format](payload)
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                # a bad --output is a usage error, not a failed check
                raise ValueError(f"cannot write --output {args.output}: {exc.strerror}")
        else:
            print(text)
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
