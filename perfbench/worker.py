"""One benchmark process: import corepaths, finish the warm call, run a pass.

    python3 perfbench/worker.py setup    import and warm call only
    python3 perfbench/worker.py run      read {"jobs": [...], "ids": [...],
                                         "trace": 0|1}
                                         on stdin, print one JSON result

Each pass runs in a fresh process, so nothing one pass computed is cached for
the next.  corepaths is found through PYTHONPATH, which run.py sets.
"""

import sys

import corepaths as cp

REF_EVERY_S = 0.25  # how often the reference loop samples host speed


def warm() -> None:
    """One call of each workload's kind on the tiny pair (3, 5), so lazy
    imports and caches are in place before anything is timed."""
    s, t = 3, 5
    params = cp.CoreParams(s, t)
    cp.enumerated_stats(s, t)
    cp.verify_pair(s, t)
    path = cp.LatticePath(params.m, params.n)
    cp.path_from_core(cp.core_from_path(path, params), params)
    cp.survey_partitions(s, t, 8)
    cp.all_cores_size_stats(s, t)
    cp.brute_force_sc_cores(s, t)


def run_pass(spec: dict) -> dict:
    import contextlib
    import io
    import time

    import workloads

    tracer = None
    cli_main = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    if any(job["kind"] == "cli" for job in spec["jobs"]) or tracer is not None:
        import corepaths.cli

        cli_main = corepaths.cli.main
    if tracer is not None:
        # the warm call again, traced, with a CLI command: every layer then
        # shows its set-up share even on workloads that never call it
        warm()
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["stats", "--s", "3", "--t", "5"])
    results = []
    clock = time.perf_counter
    refs = [workloads.reference_s()]
    ref_total = 0.0
    start = last_ref = clock()
    for index, job in enumerate(spec["jobs"]):
        if tracer is not None:
            tracer.job = spec["ids"][index]
        t0 = clock()
        error = None
        try:
            got = workloads.execute(cp, job, cli_main)
        except Exception as exc:  # a failing job is counted, never fatal
            got, error = None, f"{type(exc).__name__}: {exc}"
        latency = clock() - t0
        if tracer is not None:
            tracer.job = -1
        ok = error is None and got == job["expect"]
        if not ok and error is None:
            error = f"expected {job['expect']!r}, got {got!r}"
        results.append({"latency_s": latency, "ok": ok, "error": error, "ref": len(refs) - 1})
        if clock() - last_ref >= REF_EVERY_S:
            refs.append(workloads.reference_s())
            ref_total += refs[-1]
            last_ref = clock()
    wall = clock() - start - ref_total
    refs.append(workloads.reference_s())
    out = {"wall_s": wall, "jobs": results, "ref_s": refs}
    if tracer is not None:
        out["trace"] = tracer.report()
    return out


def main() -> int:
    if sys.argv[1:] == ["setup"]:
        warm()
        return 0
    if sys.argv[1:] == ["run"]:
        import json

        warm()
        print(json.dumps(run_pass(json.load(sys.stdin))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
