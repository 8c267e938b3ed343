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
``sense_dropped.txt`` holds ``turklex query --trace full`` in both layouts
for the two ways retrieval drops a sense, which no sample query shows: a
derived level whose category has no template, and inflections that
conflict with a sense.  ``repeated_category.txt`` holds the same for two
chains that derive the same category twice, so both levels read one
template.  Regenerate these three files and ``render_shapes.txt`` with
``python3 -m tests.test_golden`` from the repository root, with ``src`` on
``PYTHONPATH``.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from turklex._data import bundled_path
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


# the ``-mA`` infinitive's template line, left out of a copy of the database
NO_TEMPLATE = "template nominal,sentential,act,infinitive,ma "
# in that copy, the one sense of ``at`` fixes agr:3sg ...
AT_MORPH = ("entry nominal,noun,common,none,none at := ",
            "morph:[stem:at, form:lexical]", "morph:[stem:at, form:lexical, agr:3sg]")
# ... and this parse's lexical level carries agr:1sg against it
CONFLICTING_PARSE = "atX\t[[CAT=NOUN][ROOT=at][AGR=1SG]]\n"

# two chains that each derive one category twice: adjective -lI then -lIk,
# common noun -CI then -lIk
REPEATED_CATEGORY_PARSES = (
    "akIllIlIk\t[[CAT=NOUN][ROOT=akIl][CONV=ADJ=LI][CONV=ADJ=LIK]]\n"
    "ekCilik\t[[CAT=NOUN][ROOT=ek][CONV=NOUN=CI][CONV=NOUN=LIK]"
    "[AGR=3SG][POSS=NONE][CASE=NOM]]\n"
)


def cli_traces(runs) -> bytes:
    """``turklex query --trace full`` in both layouts for each ``(options,
    query)`` of ``runs``, each headed by a comment line."""
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    blocks = []
    for options, query in runs:
        for style in ("compact", "indented"):
            result = subprocess.run(
                [sys.executable, "-m", "turklex.cli", *options,
                 "query", query, "--trace", "full", "--style", style],
                capture_output=True, env=env, timeout=120,
            )
            assert result.returncode == 0, result.stderr.decode()
            blocks.append(f"# {query} --style {style}\n".encode() + result.stdout)
    return b"\n".join(blocks)


def sense_dropped_data(work: Path) -> tuple:
    """Write into ``work`` a database without :data:`NO_TEMPLATE` and with
    :data:`AT_MORPH`, and an analyzer table of :data:`CONFLICTING_PARSE`;
    returns their paths."""
    db = work / "lexicon.fdb"
    head, old, new = AT_MORPH
    with open(bundled_path("lexicon.fdb"), encoding="utf-8") as handle:
        kept = [line.replace(old, new) if line.startswith(head) else line
                for line in handle if not line.startswith(NO_TEMPLATE)]
    db.write_text("".join(kept), encoding="utf-8")
    analyzer = work / "analyzer.tsv"
    analyzer.write_text(CONFLICTING_PARSE, encoding="utf-8")
    return db, analyzer


def sense_dropped_traces(work: Path) -> bytes:
    """The CLI's full traces, in both layouts, of ``kazma`` and of ``atX``
    over :func:`sense_dropped_data`, written into ``work``."""
    db, analyzer = sense_dropped_data(work)
    return cli_traces([(["--db", str(db)], "[phon:kazma]"),
                       (["--db", str(db), "--analyzer", str(analyzer)], "[phon:atX]")])


def repeated_category_traces(work: Path) -> bytes:
    """The CLI's full traces, in both layouts, of the two surfaces of
    :data:`REPEATED_CATEGORY_PARSES`, appended to a copy of the bundled
    analyzer table written into ``work``."""
    analyzer = work / "analyzer.tsv"
    analyzer.write_text(bundled_path("analyzer.tsv").read_text(encoding="utf-8")
                        + REPEATED_CATEGORY_PARSES, encoding="utf-8")
    options = ["--analyzer", str(analyzer)]
    return cli_traces([(options, "[phon:akIllIlIk]"), (options, "[phon:ekCilik]")])


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


def test_sense_dropped_traces_are_unchanged(tmp_path):
    assert sense_dropped_traces(tmp_path) == (GOLDEN / "sense_dropped.txt").read_bytes()


def test_repeated_category_traces_are_unchanged(tmp_path):
    expected = (GOLDEN / "repeated_category.txt").read_bytes()
    assert repeated_category_traces(tmp_path) == expected
    assert b"@1" not in expected  # each level holds its own template nodes


if __name__ == "__main__":
    (GOLDEN / "render_shapes.txt").write_text(render_shapes(), encoding="utf-8")
    with tempfile.TemporaryDirectory() as work:
        (GOLDEN / "sense_dropped.txt").write_bytes(sense_dropped_traces(Path(work)))
    with tempfile.TemporaryDirectory() as work:
        (GOLDEN / "repeated_category.txt").write_bytes(repeated_category_traces(Path(work)))
