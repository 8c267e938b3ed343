#!/usr/bin/env python3
"""Run tier-1 against each mutant of ``scripts/mutant_list.py`` and require
that it fails.

Usage::

    python3 scripts/mutants.py

The checkout is copied to a temporary directory once, and tier-1 runs there
unchanged first: it must pass, or no mutant's result would mean anything.
Then each mutant in turn is written into the copy, tier-1 runs with ``-x``
(so a killed mutant stops at its first failure), and the file is put back.
A mutant of ``src/turklex/X.py`` meets ``tests/test_X.py`` first, where it
most likely dies: that file's pinned cases (``-m "not hypothesis"``), then
its hypothesis properties (``-m hypothesis``, the marker hypothesis's own
pytest plugin puts on each of them), and the rest of tier-1 only if both
pass.  A mutant is killed when tier-1 fails or a run of it passes
``TIMEOUT_S``.

Prints one row per mutant and exits 0 when all are killed, 1 when any
survives, and 2 when the unchanged copy fails or a mutant's old text is not
in its file exactly once.  Needs only the standard library and pytest.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT_S = 300
# left out of the copy: history, generated inputs and results, caches
SKIP = shutil.ignore_patterns(".git", "_work", "results", "__pycache__",
                              ".pytest_cache", ".hypothesis", "*.egg-info")


def load_mutants(path=HERE / "mutant_list.py"):
    """The ``MUTANTS`` list of ``path``, read as a literal."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "MUTANTS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"{path}: no MUTANTS list")


def tier1(copy: Path, *args):
    """Run tier-1 in ``copy``, narrowed by the pytest ``args``: (passed,
    seconds, what failed first).  A run narrowed by a marker passes too
    when it selects no test (pytest's exit code 5)."""
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",  # no stale bytecode
               PYTHONPATH="src" + (os.pathsep + pythonpath if pythonpath else ""))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *TIER1, *args], cwd=copy, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start, f"timed out after {TIMEOUT_S} s"
    seconds = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    passed = proc.returncode == 0 or proc.returncode == 5 and "-m" in args
    return passed, seconds, (failed or lines or [""])[-1]


def own_tests_first(copy: Path, file: str):
    """Tier-1 against a mutant of ``file``: its module's test file first, if
    there is one, pinned cases before properties, then the rest; the times
    summed."""
    own = f"tests/test_{Path(file).stem}.py"
    if not (copy / own).is_file():
        return tier1(copy)
    total = 0.0
    for args in ((own, "-m", "not hypothesis"), (own, "-m", "hypothesis"), (f"--ignore={own}",)):
        passed, seconds, last = tier1(copy, *args)
        total += seconds
        if not passed:
            break
    return passed, total, last


def main() -> int:
    mutants = load_mutants()

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        passed, seconds, last = tier1(copy)
        print(f"unchanged checkout: {'passed' if passed else 'FAILED'} "
              f"in {seconds:.1f} s ({last})", flush=True)
        if not passed:
            return 2

        survivors = stale = 0
        print(f"{'#':>3}  {'result':<8} {'time':>7}  what the mutant breaks", flush=True)
        for number, (file, old, new, why) in enumerate(mutants, start=1):
            target = copy / file
            original = target.read_text(encoding="utf-8")
            if original.count(old) != 1:
                stale += 1
                print(f"{number:>3}  {'STALE':<8} {'':>7}  {why}\n"
                      f"     old text found {original.count(old)} times in {file}")
                continue
            target.write_text(original.replace(old, new), encoding="utf-8")
            try:
                passed, seconds, last = own_tests_first(copy, file)
            finally:
                target.write_text(original, encoding="utf-8")
            survivors += passed
            result = "SURVIVED" if passed else "killed"
            print(f"{number:>3}  {result:<8} {seconds:6.1f}s  {why}\n"
                  f"     {file}: {last}", flush=True)

    print(f"{len(mutants) - survivors - stale} killed, {survivors} survived, "
          f"{stale} stale, of {len(mutants)}, in {time.perf_counter() - start:.0f} s")
    return 2 if stale else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
