#!/usr/bin/env python3
"""Benchmark of the corepaths library and CLI, end to end and per layer.

    python3 perfbench/run.py --workload {stats,verify,oracles,cli}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; corepaths is imported from src/,
nothing is installed.  One caller runs a closed loop: each pass is a fresh
process (a worker for the in-process workloads, one process per command for
cli) that runs the workload's whole seeded job list, and passes repeat
while the next one is expected to end within --seconds.  Every job's output
is checked exactly; a job that raises, exits non-zero or gives a wrong
answer counts as failed.

--trace 0 reports the end-to-end metrics, measured without tracing.
--trace 1 alternates traced and untraced in-process passes and reports the
per-layer metrics: calls and self time of each layer's public functions,
work counts, CLI start/import/command times, and the tracing overhead.

The metrics are printed by name with their units, written with the machine
record to perfbench/results/, and the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

import workloads  # noqa: E402  (sits next to this file)

WORKLOADS = tuple(workloads.WHY)
REF = workloads.REF_NOMINAL_S
SETUP_PROBES = 9
CLI_ROUNDS = 12
# fixed CLI command timed on the workloads that run no commands
PROBE_COMMAND = ["stats", "--s", "3", "--t", "5"]

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# span names reported with calls and self time, and with self time only
CALLS_AND_SELF = [
    "enumeration.fold_path_sizes",
    "kernels.fold_paths_stratum",
    "identities.below_count_table",
    "bijection.core_from_path",
    "bijection.path_from_core",
    "bijection.largest_core",
    "bijection.build_array",
    "partitions.partition_from_diagonal_hooks",
    "partitions.Partition.contains",
    "oracles.survey_partitions",
    "kernels.scan_partitions",
    "oracles.cores_within",
    "oracles.brute_force_sc_cores",
    "partitions.is_t_core",
]
SELF_ONLY = [
    "enumeration.enumerated_stats",
    "enumeration.verify_pair",
    "enumeration.total_size_from_path_counts",
    "bijection.path_hook_set",
    "cli.main",
]
LAYER_NAMES = ["partitions", "bijection", "enumeration", "identities", "oracles", "kernels", "cli"]
PER_LAYER = (
    [(f"{n}.calls", "count", "lower") for n in CALLS_AND_SELF]
    + [(f"{n}.self_s", "s", "lower") for n in CALLS_AND_SELF + SELF_ONLY]
    + [(f"layer.{n}.self_s", "s", "lower") for n in LAYER_NAMES]
    + [
        ("enumeration.paths_folded", "count", "higher"),
        ("enumeration.paths_per_s", "1/s", "higher"),
        ("oracles.partitions_covered", "count", "higher"),
        ("oracles.partitions_per_s", "1/s", "higher"),
        ("oracles.cores_found", "count", "higher"),
        ("oracles.sc_cores_found", "count", "higher"),
        ("cli.python_start_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.process_s", "s", "lower"),
        ("cli.command_s", "s", "lower"),
        ("cli.stdout_bytes", "bytes", "lower"),
        ("harness.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def _env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


ENV = _env()


def spawn(argv: list[str], stdin: bytes | None = None) -> tuple[float, int, bytes]:
    """Run one process to completion: (seconds from spawn to exit, exit
    code, stdout).  Standard error passes through."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        env=ENV,
        cwd=ROOT,
    )
    out, _ = proc.communicate(stdin)
    return time.perf_counter() - start, proc.returncode, out


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def worker_pass(jobs: list[dict], ids: list[int], traced: bool) -> dict:
    """One pass in a fresh worker; ``ids`` names each job in trace spans."""
    spec = json.dumps({"jobs": jobs, "ids": ids, "trace": int(traced)}).encode()
    seconds, code, out = spawn(python(str(BENCH / "worker.py"), "run"), spec)
    try:
        result = json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        result = None
    if code != 0 or result is None:
        error = f"worker exited with code {code}"
        return {"traced": traced, "wall_s": seconds, "ref_s": [REF, REF],
                "jobs": [{"latency_s": math.nan, "ok": False, "error": error, "ref": 0} for _ in jobs]}
    result["traced"] = traced
    return result


def cli_pass(jobs: list[dict]) -> dict:
    results, stdout_bytes, refs = [], 0, []
    start = time.perf_counter()
    for job in jobs:
        refs.append(workloads.reference_s())
        seconds, code, out = spawn(python("-m", "corepaths.cli", *job["argv"]))
        stdout_bytes += len(out)
        got = workloads.cli_result(code, out.decode(errors="replace"))
        ok = got == job["expect"]
        results.append({"latency_s": seconds, "ok": ok, "ref": len(refs) - 1,
                        "error": None if ok else f"{job['argv']}: expected {job['expect']!r}, got {got!r}"})
    refs.append(workloads.reference_s())
    wall = time.perf_counter() - start - sum(refs)
    return {"traced": False, "wall_s": wall, "jobs": results, "ref_s": refs,
            "stdout_bytes": stdout_bytes}


def factor(pass_: dict) -> float:
    """Calibration of one pass: REF_NOMINAL_S over its median reference."""
    return REF / statistics.median(pass_["ref_s"])


def calibrated_latencies(pass_: dict) -> list[float]:
    """Each job's seconds, calibrated by the reference samples around it."""
    refs = pass_["ref_s"]
    return [j["latency_s"] * 2 * REF / (refs[j["ref"]] + refs[j["ref"] + 1]) for j in pass_["jobs"]]


def calibrated_wall(pass_: dict) -> float:
    """Pass time: calibrated job times plus the time between jobs."""
    between = pass_["wall_s"] - sum(j["latency_s"] for j in pass_["jobs"])
    return sum(calibrated_latencies(pass_)) + between * factor(pass_)


def tail(latencies: list[float]) -> tuple[int, float, int]:
    """(percentile, value, jobs beyond it): the highest whole percentile
    with at least ten jobs beyond it, by nearest rank; p50 when fewer."""
    ordered = sorted(latencies)
    count = len(ordered)
    pct = max(50, math.floor(100 * (count - 10) / count))
    rank = math.ceil(pct * count / 100)
    return pct, ordered[rank - 1], count - rank


def setup_probe() -> float:
    """Calibrated seconds of one fresh worker that imports and warms up."""
    before = workloads.reference_s()
    seconds, code, _ = spawn(python(str(BENCH / "worker.py"), "setup"))
    if code != 0:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return seconds * 2 * REF / (before + workloads.reference_s())


def measure(workload: str, seed: int, jobs: list[dict], seconds: float, trace: bool) -> dict:
    """Run passes of the job list until the next one would end after
    ``seconds``; with tracing, alternate traced and untraced passes.

    Each pass runs the jobs in its own seeded order, because a job's time
    depends on the jobs run just before it; results are kept in job order."""
    rng = random.Random(f"{workload}:{seed}:order")
    setup_probe()  # compiles bytecode; users pay that once, not per run
    probes = cli_probes(workload, jobs) if trace else {}
    setup: list[float] = []
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        # set-up is sampled between passes, so its samples span the run
        setup.append(setup_probe())
        traced = trace and len(passes) % 2 == 0
        order = rng.sample(range(len(jobs)), k=len(jobs))
        in_order = [jobs[i] for i in order]
        if workload == "cli" and not trace:
            done = cli_pass(in_order)
        else:
            done = worker_pass(in_order, order, traced)
        done["jobs"] = [result for _, result in sorted(zip(order, done["jobs"]), key=lambda pair: pair[0])]
        passes.append(done)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds and len(passes) >= (2 if trace else 1):
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe())
    return {"setup": setup, "probes": probes, "passes": passes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}


def cli_probes(workload: str, jobs: list[dict]) -> dict:
    """Rounds of three processes: a bare interpreter, a fresh import, and one
    CLI command (the workload's own commands, or a fixed tiny command where
    it has none).  A round shares one calibration, so the import and command
    shares are differences within a round."""
    commands = [job["argv"] for job in jobs[:CLI_ROUNDS]] if workload == "cli" else [PROBE_COMMAND] * CLI_ROUNDS
    start, imported, process, stdout_bytes = [], [], [], 0
    for argv in commands:
        before = workloads.reference_s()
        times = []
        for probe in (["-c", "pass"], ["-c", "import corepaths"], ["-m", "corepaths.cli", *argv]):
            seconds, code, out = spawn(python(*probe))
            if code != 0:
                raise RuntimeError(f"CLI probe {probe} exited with code {code}")
            times.append(seconds)
        f = 2 * REF / (before + workloads.reference_s())
        start.append(times[0] * f)
        imported.append(times[1] * f)
        process.append(times[2] * f)
        stdout_bytes += len(out)
    return {"python_start_s": start, "import_s": imported, "process_s": process,
            "stdout_bytes": stdout_bytes}


def end_to_end(jobs: list[dict], run: dict) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, and which percentile the tail is."""
    wall = statistics.median(calibrated_wall(p) for p in run["passes"])
    latencies = [calibrated_latencies(p) for p in run["passes"]]
    per_job = [statistics.median(lat[i] for lat in latencies) for i in range(len(jobs))]
    pct, tail_value, beyond = tail(per_job)
    return {
        "setup_s": statistics.median(run["setup"]),
        "wall_s": wall,
        "items_per_s": sum(j["units"] for j in jobs) / wall,
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": tail_value,
        "peak_rss_mb": run["peak_rss_mb"],
    }, {"percentile": pct, "jobs": len(per_job), "jobs_beyond": beyond}


def per_layer(run: dict) -> dict:
    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    rows = [_layer_row(p) for p in traced]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    probes = run["probes"]
    rounds = list(zip(probes["python_start_s"], probes["import_s"], probes["process_s"]))
    out.update({
        "cli.python_start_s": statistics.median(r[0] for r in rounds),
        "cli.import_s": statistics.median(r[1] - r[0] for r in rounds),
        "cli.process_s": statistics.median(r[2] for r in rounds),
        "cli.command_s": statistics.median(r[2] - r[1] for r in rounds),
        "cli.stdout_bytes": probes["stdout_bytes"],
        "trace.wall_s": statistics.median(calibrated_wall(p) for p in traced),
        "trace.untraced_wall_s": statistics.median(calibrated_wall(p) for p in plain),
    })
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def _layer_row(pass_: dict) -> dict:
    tr = pass_["trace"]
    f = factor(pass_)
    calls, counts = tr["calls"], tr["counts"]
    self_s = {k: v * f for k, v in tr["self_s"].items()}
    total_s = {k: v * f for k, v in tr["total_s"].items()}
    row = {}
    for name in CALLS_AND_SELF:
        row[f"{name}.calls"] = calls.get(name, 0)
    for name in CALLS_AND_SELF + SELF_ONLY:
        row[f"{name}.self_s"] = self_s.get(name, 0.0)
    for layer in LAYER_NAMES:
        row[f"layer.{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    for key in ("enumeration.paths_folded", "oracles.partitions_covered",
                "oracles.cores_found", "oracles.sc_cores_found"):
        row[key] = counts.get(key, 0)
    fold_s = total_s.get("enumeration.fold_path_sizes", 0.0)
    survey_s = total_s.get("oracles.survey_partitions", 0.0)
    row["enumeration.paths_per_s"] = row["enumeration.paths_folded"] / fold_s if fold_s else 0.0
    row["oracles.partitions_per_s"] = row["oracles.partitions_covered"] / survey_s if survey_s else 0.0
    row["harness.self_s"] = (pass_["wall_s"] - tr["top_level_s"]) * f
    return row


def provenance(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    import corepaths

    backend = getattr(corepaths, "backend", None)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "corepaths").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_imports": importlib.util.find_spec("numba") is not None,
        "engine": backend() if callable(backend) else backend,
        "git_revision": _git_revision(),
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "why": workloads.WHY[workload],
        "parameters": workloads.SCALES[scale][workload],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, one caller",
    }


def _git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: str = "full", jobs: list[dict] | None = None) -> dict:
    """One benchmark run; ``jobs`` overrides the seeded job list."""
    import corepaths

    if jobs is None:
        jobs = workloads.make_jobs(workload, seed, scale, corepaths)
    run = measure(workload, seed, jobs, seconds, trace)
    attempted = sum(len(p["jobs"]) for p in run["passes"])
    failures = [j["error"] for p in run["passes"] for j in p["jobs"] if not j["ok"]]
    # a traced run's untraced passes run in-process, so they are not end to
    # end for the cli workload; only untraced runs report end-to-end metrics
    if trace:
        metrics, tail_info, specs = per_layer(run), None, PER_LAYER
    else:
        (metrics, tail_info), specs = end_to_end(jobs, run), END_TO_END
    return {
        "provenance": provenance(workload, seed, seconds, trace, scale),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
        "job_tail": tail_info,
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"], "ref_s": p["ref_s"],
             "latency_s": [j["latency_s"] for j in p["jobs"]],
             "calibrated_latency_s": calibrated_latencies(p)}
            for p in run["passes"]
        ],
        "setup_probes_s": run["setup"],
        "cli_probes": run["probes"],
        "trace": next((p["trace"] for p in run["passes"] if p["traced"]), None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "corepaths" / "__init__.py").is_file():
        print(f"error: no corepaths source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))

    tail_info = result["job_tail"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} jobs attempted, {result['failed']} failed, "
          f"fail_frac {result['fail_frac']:.4f}")
    if tail_info:
        print(f"job_tail_s is p{tail_info['percentile']} of {tail_info['jobs']} jobs "
              f"({tail_info['jobs_beyond']} beyond)")
    for name, metric in result["metrics"].items():
        print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    for error in result["failures"]:
        print(f"  FAILED: {error}")
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))
    print(f"results: {out.relative_to(ROOT)}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
