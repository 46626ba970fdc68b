"""Mutation check: apply each listed source edit to a temporary copy of the
repository, run the tests named for it, and report the mutants the tests
fail to catch.  Run as ``python3 tools/mutants.py``.

Each edit replaces a piece of text that must occur exactly once in its
file, so an edit that no longer applies stops the run instead of passing
unnoticed.  The named tests first run on the unedited copy, which must
pass.  A mutant is caught when its tests fail (pytest exits nonzero) and
survives when they pass.  Exit status: 0 when every mutant is caught, 1
when any survives, 2 when an edit does not apply or the unedited tests
fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ENUMERATION = "src/corepaths/enumeration.py"
BIJECTION = "src/corepaths/bijection.py"
CLI = "src/corepaths/cli.py"
IMAGE_TESTS = ["tests/test_bijection.py", "tests/test_acceptance.py"]
# name: (file, text, replacement, tests)
MUTANTS = {
    "drop e += d": (
        ENUMERATION,
        "            a += e\n            e += d\n",
        "            a += e\n",
        ["tests/test_enumeration.py"],
    ),
    "swap a += e with e += d": (
        ENUMERATION,
        "            a += e\n            e += d\n",
        "            e += d\n            a += e\n",
        ["tests/test_enumeration.py"],
    ),
    "skip the middle row in symmetry_holds": (
        "src/corepaths/identities.py",
        "        held.append(next(rows))\n        rows = chain(held[-1:], rows)\n",
        "        next(rows)\n",
        ["tests/test_identities.py"],
    ),
    "read only the empty corner in _largest_excess": (
        ENUMERATION,
        "    for cuts in ((0,) * m, (n,) * m):\n",
        "    for cuts in ((0,) * m,):\n",
        ["tests/test_enumeration.py"],
    ),
    "range(n) in iter_paths": (
        ENUMERATION,
        "combinations_with_replacement(range(n + 1), m)",
        "combinations_with_replacement(range(n), m)",
        ["tests/test_enumeration.py", "tests/test_bijection.py"],
    ),
    "drop cuts != edges in path_from_core": (
        BIJECTION,
        "    if cuts != edges or cuts != sorted(cuts, reverse=True):\n",
        "    if cuts != sorted(cuts, reverse=True):\n",
        IMAGE_TESTS,
    ),
    "drop the weak-decrease check in path_from_core": (
        BIJECTION,
        "    if cuts != edges or cuts != sorted(cuts, reverse=True):\n",
        "    if cuts != edges:\n",
        IMAGE_TESTS,
    ),
    "iterate the hooks largest first in path_from_core": (
        BIJECTION,
        "    for h in reversed(hooks):\n",
        "    for h in hooks:\n",
        IMAGE_TESTS,
    ),
    "drop the path-count check before the sweep's first walk": (
        CLI,
        "    for s, t in coprime_pairs(args.max):\n"
        "        check_budget(\"path\", CoreParams(s, t).path_count, budget)\n",
        "",
        ["tests/test_cli.py"],
    ),
    "never count a core outside the largest in survey_partitions": (
        "src/corepaths/oracles.py",
        "                outside += 1\n",
        "                pass\n",
        ["tests/test_oracles.py"],
    ),
    "drop the integer conversion in _box_sides": (
        BIJECTION,
        '    m, n = _integer("m", m), _integer("n", n)\n',
        "",
        ["tests/test_bijection.py", "tests/test_enumeration.py"],
    ),
    "ignore the last field of a value with more than three in its key": (
        "src/corepaths/partitions.py",
        "cls._key = attrgetter(*cls._fields)\n",
        "cls._key = attrgetter(*(cls._fields[:-1] if len(cls._fields) > 3 else cls._fields))\n",
        ["tests/test_api.py"],
    ),
    "list every pair before the sweep's budget check": (
        CLI,
        "    for s, t in coprime_pairs(args.max):\n        check_budget(",
        "    for s, t in list(coprime_pairs(args.max)):\n        check_budget(",
        ["tests/test_cli.py"],
    ),
}


def run_tests(copy: Path, tests: list[str]) -> tuple[int, float, list[str]]:
    """pytest's exit code on ``tests`` in ``copy``, the seconds taken, and
    the tests that failed."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    return done.returncode, time.perf_counter() - start, failed


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="corepaths-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)

        for name, (path, text, replacement, _) in MUTANTS.items():
            found = (copy / path).read_text().count(text)
            if found != 1:
                print(f"edit {name!r} does not apply: its text occurs {found} times in {path}")
                return 2
        every_test = sorted({test for *_, tests in MUTANTS.values() for test in tests})
        code, seconds, _ = run_tests(copy, every_test)
        if code:
            print(f"the unedited tests fail (pytest exit {code}): {' '.join(every_test)}")
            return 2
        print(f"unedited: {' '.join(every_test)} pass ({seconds:.1f} s)")

        survivors = []
        for name, (path, text, replacement, tests) in MUTANTS.items():
            target = copy / path
            original = target.read_text()
            target.write_text(original.replace(text, replacement))
            try:
                code, seconds, failed = run_tests(copy, tests)
            finally:
                target.write_text(original)
            print(f"{name}: {'caught' if code else 'SURVIVED'} (pytest exit {code}, {seconds:.1f} s)")
            for test in failed:
                print(f"    failed {test}")
            if not code:
                survivors.append(name)

    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} caught; survivors: "
          + (", ".join(survivors) or "none"))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
