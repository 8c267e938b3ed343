"""Smoke test of the benchmark: every workload briefly, with every check and
the traced run, so a refactor that renames a traced function or breaks a
check fails here in seconds.

    python3 -m pytest perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent


def test_smoke_runs_every_workload_with_checks_and_tracing():
    result = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 8 and all(line.endswith(" ok") for line in lines), result.stdout


def test_missing_traced_name_is_reported_not_raised():
    sys.path.insert(0, str(HERE.parent / "src"))
    tracer = tracing.Tracer()
    tracer.install([
        ("turklex.engine", "no_such_function", "x.gone"),
        ("turklex.engine", "LexiconEngine.no_such_method", "x.gone"),
        ("turklex.no_such_module", "run", "x.gone"),
        ("turklex.engine", "retrieve", "engine.retrieve"),
    ])
    try:
        import turklex.engine
        assert turklex.engine.retrieve.__name__ == "traced"
    finally:
        tracer.uninstall()
    assert tracer.missing == [
        "turklex.engine.no_such_function",
        "turklex.engine.LexiconEngine.no_such_method",
        "turklex.no_such_module.run",
    ]
    assert turklex.engine.retrieve.__name__ == "retrieve"
