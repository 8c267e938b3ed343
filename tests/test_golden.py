"""Byte-for-byte checks of rendered output against stored files.

The ``samples_*.txt`` files under ``tests/golden/`` hold the sample set's
full traces and results in both layouts.  A change that alters any phase
record, count or rendered structure shows up here as a diff.  After an
intended change of output, regenerate them with::

    python3 scripts/run_samples.py > tests/golden/samples_indented.txt
    python3 scripts/run_samples.py --style compact > tests/golden/samples_compact.txt

``render_shapes.txt`` holds both layouts of the structures in
:data:`SHAPES`: tagged empty structures, tagged and empty list and set
items, nested sets and sequences, none of which the sample set prints.
Regenerate it with ``python3 -m tests.test_golden`` from the repository
root, with ``src`` on ``PYTHONPATH``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from turklex.featstruct import parse_fs_text, render_fs

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

SHAPES = [
    "[a:@1=[], b:@1]",
    "[a:[], b:<[], [c:x]>, d:{[]}]",
    "[a:<@1=[b:x], @1>, c:@1]",
    "[a:<@1=[], @1>]",
    "[a:{@1=[b:x], [c:@1]}]",
    "[a:{[b:{[c:x], [d:y]}], [e:z]}]",
    "[a:@1={[b:x], [c:y]}, d:@1]",
    "[a:@1=<[]>, b:@1]",
    "[a:<<x, y>, [b:@1=<z>]>, c:@1]",
    "[a:<{[b:x], [c:y]}, @1=<p>>, d:@1]",
    "[a:<x, !y, {p, q}, f_lI(akIl-(intelligence)), none(at-(horse))>]",
    "[a:@1=[b:@2=[]], c:@2, d:<@1>]",
]


def render_shapes() -> str:
    blocks = []
    for text in SHAPES:
        fs = parse_fs_text(text)
        blocks.append(
            f"# {text}\n{render_fs(fs)}\n{render_fs(fs, style='indented')}\n"
        )
    return "\n".join(blocks)


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


def test_render_shapes_are_unchanged():
    assert render_shapes() == (GOLDEN / "render_shapes.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    (GOLDEN / "render_shapes.txt").write_text(render_shapes(), encoding="utf-8")
