"""Byte-for-byte check of ``scripts/run_samples.py`` against stored output.

The files under ``tests/golden/`` hold the sample set's full traces and
results in both layouts.  A change that alters any phase record, count or
rendered structure shows up here as a diff.  After an intended change of
output, regenerate them with::

    python3 scripts/run_samples.py > tests/golden/samples_indented.txt
    python3 scripts/run_samples.py --style compact > tests/golden/samples_compact.txt
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "options, golden",
    [([], "samples_indented.txt"), (["--style", "compact"], "samples_compact.txt")],
)
def test_run_samples_output_is_unchanged(options, golden):
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_samples.py"), *options],
        capture_output=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN / golden).read_bytes()
