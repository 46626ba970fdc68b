#!/usr/bin/env python3
"""Self-test of the benchmark harness at a tiny size, from the checkout root:

    python3 perfbench/selftest.py

For every workload it runs one untraced and one traced measurement on tiny
inputs and asserts that the emitted metric names and units are the ones
BENCHMARK.json declares and that every job passed.  It then corrupts one
expected value on the benchmark side and asserts that the job is counted
as failed.
"""

import json
import sys

import run
import workloads


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    import corepaths

    names = [w["name"] for w in declared["workloads"]]
    assert names == list(run.WORKLOADS), names
    assert {w["name"]: w["why"] for w in declared["workloads"]} == workloads.WHY, "why differs"
    for key, specs in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        want = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
        assert want == specs, f"{key} in BENCHMARK.json differs from run.py"
    for workload in run.WORKLOADS:
        jobs = workloads.make_jobs(workload, 1, "tiny", corepaths)
        assert jobs == workloads.make_jobs(workload, 1, "tiny", corepaths), "inputs not seeded"
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run_benchmark(workload, 1, 0, trace, "tiny", jobs)
            got = [(name, m["unit"]) for name, m in result["metrics"].items()]
            assert got == [(m["name"], m["unit"]) for m in declared[key]], (workload, key)
            assert result["failed"] == 0, (workload, result["failures"])

        wrong = json.loads(json.dumps(jobs))
        field = next(iter(wrong[0]["expect"]))
        wrong[0]["expect"][field] = ["deliberately wrong"]
        result = run.run_benchmark(workload, 1, 0, False, "tiny", wrong)
        assert result["failed"] == 1 and result["fail_frac"] > 0, (workload, result["failed"])
        print(f"{workload}: ok ({len(jobs)} jobs; wrong expected value counted as failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
