"""Seeded job lists for the benchmark workloads, the exact answer each job
must give, and how a job is executed against the corepaths public API.

Every input derives from the workload name and the seed alone.  Pairs are
drawn without replacement, so no job in a pass repeats an earlier one and a
result cache cannot pass for a speed-up.  Expected values come from closed
forms wherever the theory gives one; the CLI jobs are compared with the
in-process library result.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

import numpy as np

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "stats": "enumerated_stats on distinct coprime pairs 11<=s<t<=21, 5x10^2 to 2x10^5 paths a job: the path fold does nearly all the work; the bijection and oracles sit idle",
    "verify": "verify_pair on coprime pairs 7<=s<t<=16 plus path->core->path round trips on seeded paths: the bijection runs both ways, so a gain in one way that costs the other shows",
    "oracles": "survey_partitions at limits 18-32, all_cores_size_stats on 5<=s<t<=9, brute_force_sc_cores on 11<=s<t<=15: only the oracle layer works; a pruned survey shows here alone",
    "cli": "one-shot python -m corepaths.cli processes (stats, map, unmap, largest, verify, bruteforce; s,t<=13): start, import and argument handling dominate; no cache can help",
}

# Inputs per workload.  "full" is the benchmark; "tiny" is the self-test.
SCALES = {
    "full": {
        "stats": {"lo": 11, "hi": 21},
        "verify": {"lo": 7, "hi": 16, "round_trips": 48},
        "oracles": {
            "survey": (3, 9),
            "limits": tuple(range(18, 33)),
            "all_cores": (5, 9),
            "sc_cores": (11, 15),
        },
        "cli": {"lo": 3, "hi": 13, "per_command": 4},
    },
    "tiny": {
        "stats": {"lo": 3, "hi": 7},
        "verify": {"lo": 3, "hi": 7, "round_trips": 3},
        "oracles": {
            "survey": (3, 5),
            "limits": (6, 8, 10),
            "all_cores": (3, 5),
            "sc_cores": (5, 7),
        },
        "cli": {"lo": 3, "hi": 5, "per_command": 1},
    },
}

CLI_COMMANDS = ("stats", "map", "unmap", "largest", "verify", "bruteforce")

# The host's speed drifts by up to 2x over seconds when other tenants load
# it.  So each time is taken next to samples of a fixed reference loop and
# reported in calibrated seconds: measured seconds * REF_NOMINAL_S / reference
# loop seconds.  REF_NOMINAL_S is about what the loop takes on an idle host.
REF_NOMINAL_S = 0.011
# Two thirds of the loop is plain integer arithmetic and one third numpy
# int64 scalar arithmetic and element indexing: the two kinds of code the
# workloads run (the interpreted kernels and the signed array work on numpy
# scalars).  Plain integers alone miss how differently the host's contention
# slows numpy scalar code.
_REF_ARRAY = np.arange(64, dtype=np.int64).reshape(8, 8) * 7 + 3


def reference_s() -> float:
    """Seconds a fixed loop takes now: a probe of host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    total = np.int64(0)
    row = np.zeros(8, dtype=np.int64)
    for k in range(5_000):
        i = k & 7
        value = _REF_ARRAY[i, (k >> 3) & 7]
        if value > row[i]:
            row[i] = value - row[i]
        total += value - _REF_ARRAY[i, 0]
    return time.perf_counter() - start


def coprime_pairs(lo: int, hi: int) -> list[tuple[int, int]]:
    """Coprime pairs lo <= s < t <= hi, in a fixed order."""
    return [
        (s, t)
        for s in range(lo, hi + 1)
        for t in range(s + 1, hi + 1)
        if math.gcd(s, t) == 1
    ]


def path_count(s: int, t: int) -> int:
    """C(m+n, m): lattice paths in the floor(s/2) x floor(t/2) box, which is
    the number of self-conjugate (s, t)-cores."""
    return math.comb(s // 2 + t // 2, s // 2)


def largest_size(s: int, t: int) -> int:
    return (s * s - 1) * (t * t - 1) // 24


def partitions_up_to(limit: int) -> int:
    """Sum of p(k) for 0 <= k <= limit, by the coin-change recurrence."""
    p = [1] + [0] * limit
    for part in range(1, limit + 1):
        for k in range(part, limit + 1):
            p[k] += p[k - part]
    return sum(p)


def _average_times(count: int, s: int, t: int) -> int:
    """count * (s+t+1)(s-1)(t-1)/24, the total size the average theorems give."""
    total = Fraction((s + t + 1) * (s - 1) * (t - 1), 24) * count
    assert total.denominator == 1
    return int(total)


def random_mu(rng: random.Random, m: int, n: int) -> tuple[int, ...]:
    """Above-partition of a uniformly random lattice path in the m x n box."""
    word = ["U"] * m + ["R"] * n
    rng.shuffle(word)
    cols, height = [], 0
    for step in word:
        if step == "U":
            height += 1
        else:
            cols.append(m - height)
    rows = [sum(1 for c in cols if c >= i) for i in range(1, m + 1)]
    return tuple(r for r in rows if r)


def make_jobs(workload: str, seed: int, scale: str = "full", cp=None) -> list[dict]:
    """The job list of one pass.  ``cp`` is the corepaths module, needed by
    the oracles workload (surveys are checked against ``cores_within``) and
    the cli workload (payloads are checked against library results)."""
    rng = random.Random(f"{workload}:{seed}")
    cfg = SCALES[scale][workload]
    if workload == "stats":
        pool = coprime_pairs(cfg["lo"], cfg["hi"])
        return [_stats_job(s, t) for s, t in rng.sample(pool, k=len(pool))]
    if workload == "verify":
        pool = coprime_pairs(cfg["lo"], cfg["hi"])
        return [_verify_job(rng, s, t, cfg["round_trips"]) for s, t in rng.sample(pool, k=len(pool))]
    if workload == "oracles":
        return _oracle_jobs(rng, cfg, cp)
    if workload == "cli":
        return _cli_jobs(rng, cfg, cp)
    raise ValueError(f"unknown workload {workload!r}")


def _stats_job(s: int, t: int) -> dict:
    count = path_count(s, t)
    return {
        "kind": "stats",
        "s": s,
        "t": t,
        "units": count,
        "expect": {"count": count, "total": _average_times(count, s, t), "max": largest_size(s, t)},
    }


def _verify_job(rng: random.Random, s: int, t: int, round_trips: int) -> dict:
    m, n = s // 2, t // 2
    count = path_count(s, t)
    sample: set[tuple[int, ...]] = set()
    while len(sample) < min(round_trips, count):
        sample.add(random_mu(rng, m, n))
    return {
        "kind": "verify",
        "s": s,
        "t": t,
        "paths": sorted(sample),
        "units": count,
        "expect": {
            "count": count,
            "total": _average_times(count, s, t),
            "max": largest_size(s, t),
            "checks_failed": 0,
            "round_trip_failed": 0,
        },
    }


def _oracle_jobs(rng: random.Random, cfg: dict, cp) -> list[dict]:
    jobs = []
    survey_pairs = coprime_pairs(*cfg["survey"])
    limits = list(cfg["limits"])
    rng.shuffle(limits)
    # every limit is surveyed once, on a pair drawn without replacement; one
    # limit per size step keeps the job times free of gaps, so the median and
    # tail do not jump between two distant jobs from run to run
    for (s, t), limit in zip(rng.sample(survey_pairs, k=len(limits)), limits):
        cores = [c for c in cp.cores_within(cp.largest_core(cp.CoreParams(s, t)).rows, s, t) if sum(c) <= limit]
        covered = partitions_up_to(limit)
        jobs.append({
            "kind": "survey", "s": s, "t": t, "limit": limit, "units": covered,
            "expect": {
                "scanned": covered,
                "cores": len(cores),
                "core_size_total": sum(sum(c) for c in cores),
                "outside_largest": 0,
            },
        })
    for s, t in coprime_pairs(*cfg["all_cores"]):
        count = math.comb(s + t, s) // (s + t)
        jobs.append({
            "kind": "all_cores", "s": s, "t": t, "units": 0,
            "expect": {"count": count, "total": _average_times(count, s, t)},
        })
    for s, t in coprime_pairs(*cfg["sc_cores"]):
        count = path_count(s, t)
        jobs.append({
            "kind": "sc_cores", "s": s, "t": t, "units": 0,
            "expect": {"count": count, "total": _average_times(count, s, t)},
        })
    rng.shuffle(jobs)
    return jobs


def _cli_jobs(rng: random.Random, cfg: dict, cp) -> list[dict]:
    pool = coprime_pairs(cfg["lo"], cfg["hi"])
    jobs = []
    for command in CLI_COMMANDS:
        for s, t in rng.sample(pool, k=cfg["per_command"]):
            argv, payload = _cli_case(cp, rng, command, s, t)
            jobs.append({"kind": "cli", "argv": argv, "units": 1, "expect": {"exit": 0, "payload": payload}})
    rng.shuffle(jobs)
    return jobs


def _cli_case(cp, rng: random.Random, command: str, s: int, t: int) -> tuple[list[str], object]:
    """Arguments of one CLI command and the library result its JSON must equal."""
    params = cp.CoreParams(s, t)
    m, n = params.m, params.n
    argv = [command, "--s", str(s), "--t", str(t)]
    head = {"s": s, "t": t, "m": m, "n": n}
    if command == "stats":
        st = cp.enumerated_stats(s, t)
        avg = st.average_size
        payload = {**head, "count": st.count, "total": st.total_size,
                   "average": {"num": avg.numerator, "den": avg.denominator}, "max": st.max_size}
    elif command in ("map", "unmap"):
        path = cp.LatticePath(m, n, cp.Partition(random_mu(rng, m, n)))
        core = cp.core_from_path(path, params)
        payload = {**head, "mu": list(path.mu.rows), "steps": path.steps(), "partition": list(core.rows)}
        if command == "map":
            argv += ["--path", json.dumps(list(path.mu.rows))]
            payload["hooks"] = list(cp.path_hook_set(path, cp.build_array(s, t)))
            payload["size"] = core.size
        else:
            argv += ["--partition", json.dumps(list(core.rows))]
    elif command == "largest":
        core = cp.largest_core(params)
        payload = {"s": s, "t": t, "partition": list(core.rows),
                   "hooks": list(core.diagonal_hooks()), "size": core.size}
    elif command == "verify":
        payload = json.loads(json.dumps(cp.verify_pair(s, t)))
    else:
        cores = cp.brute_force_sc_cores(s, t)
        payload = {"s": s, "t": t, "kind": "self-conjugate", "count": len(cores),
                   "partitions": [list(p.rows) for p in cores]}
    return argv, payload


def execute(cp, job: dict, cli_main=None) -> dict:
    """Run one in-process job; the returned dict is compared with job["expect"]."""
    kind = job["kind"]
    if kind == "cli":
        import contextlib
        import io

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(job["argv"])
        return cli_result(code, out.getvalue())
    s, t = job["s"], job["t"]
    if kind == "stats":
        st = cp.enumerated_stats(s, t)
        return {"count": st.count, "total": st.total_size, "max": st.max_size}
    if kind == "verify":
        report = cp.verify_pair(s, t)
        params = cp.CoreParams(s, t)
        bad = 0
        for mu in job["paths"]:
            path = cp.LatticePath(params.m, params.n, cp.Partition(tuple(mu)))
            if cp.path_from_core(cp.core_from_path(path, params), params) != path:
                bad += 1
        return {
            "count": report["count"],
            "total": report["total"],
            "max": report["max"],
            "checks_failed": sum(1 for c in report["checks"] if not c["pass"]),
            "round_trip_failed": bad,
        }
    if kind == "survey":
        r = cp.survey_partitions(s, t, job["limit"])
        return {"scanned": r.scanned, "cores": r.cores,
                "core_size_total": r.core_size_total, "outside_largest": r.outside_largest}
    if kind == "all_cores":
        count, total = cp.all_cores_size_stats(s, t)
        return {"count": count, "total": total}
    if kind == "sc_cores":
        cores = cp.brute_force_sc_cores(s, t)
        return {"count": len(cores), "total": sum(p.size for p in cores)}
    raise ValueError(f"unknown job kind {kind!r}")


def cli_result(code: int, stdout: str) -> dict:
    try:
        payload = json.loads(stdout)
    except ValueError:
        payload = None
    return {"exit": code, "payload": payload}
