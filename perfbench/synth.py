"""Deterministic synthetic lexicon: the bundled data cloned under generated roots.

Every clone gives each bundled root-mapping row, lexicon entry (all senses)
and analyzer row (derivations included) a fresh root: the bundled root with
a seeded four-letter tag appended.  Templates, the derivation table and the
category inventory are copied once.  Beside the five data files the
generator writes ``expected.json``: for each generated surface, the number
of results an unrestricted query must return and their concepts.  These
are worked out from the bundled tables that were cloned, with a small
re-implementation of the lookup rules, not by running the engine.

    python3 perfbench/synth.py --seed 1 --roots 10000 --out DIR

writes the files to DIR and then runs ``turklex check`` on them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "turklex" / "data"
# turklex option -> file name
FILES = {"analyzer": "analyzer.tsv", "rootmap": "rootmap.tsv", "derivmap": "derivmap.tsv",
         "db": "lexicon.fdb", "categories": "categories.tsv"}

_PAIR_RE = re.compile(r"\[([A-Z0-9]+)=([^][=]+)(?:=([^][=]+))?\]")
_ENTRY_RE = re.compile(r"^entry\s+(\S+)\s+(\S+)\s*:=\s*(.+)$")
_TEMPLATE_RE = re.compile(r"^template\s+(\S+)\s*:=")
_CONCEPT_RE = re.compile(r"concept:(\S+?)-\((.*?)\)")
_SPECIAL_CAPITALS = "ICGSOU"


def _rows(path: Path):
    for raw in path.read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.lstrip().startswith("#"):
            yield raw


def _cat(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    return tuple(parts + ["none"] * (5 - len(parts)))


def _normalize_root(root: str) -> str:
    # a trailing capital other than the orthographic ones marks an alternation
    if root[-1].isupper() and root[-1] not in _SPECIAL_CAPITALS:
        return root[:-1] + root[-1].lower()
    return root


def _rename_root(fs_text: str, root: str, new_root: str) -> str:
    """Rename the root in an entry body: its stem, concept and phon."""
    out = fs_text
    for pattern, repl in (
        (rf"stem:{re.escape(root)}(?=[,\]])", f"stem:{new_root}"),
        (rf"concept:{re.escape(root)}-\(", f"concept:{new_root}-("),
        (rf"phon:{re.escape(root)}(?=[,\]])", f"phon:{new_root}"),
    ):
        out, count = re.subn(pattern, repl, out)
        if count != 1:
            raise ValueError(f"entry for {root!r}: expected one {pattern!r}, found {count}")
    return out


class Bundled:
    """The bundled tables, read as text."""

    def __init__(self, data: Path = DATA):
        self.analyzer = [tuple(row.split("\t")) for row in _rows(data / "analyzer.tsv")]
        self.rootmap = [tuple(f.strip() for f in row.split("\t")) for row in _rows(data / "rootmap.tsv")]
        self.derivmap = {}
        for row in _rows(data / "derivmap.tsv"):
            proc_cat, suffix, cat = (f.strip() for f in row.split("\t"))
            self.derivmap[(proc_cat, suffix)] = _cat(cat)
        self.templates = set()
        self.template_lines = []
        self.entries = []  # (category text, root, body)
        for line in _rows(data / "lexicon.fdb"):
            if line.startswith("entry"):
                self.entries.append(_ENTRY_RE.match(line).groups())
            else:
                self.templates.add(_cat(_TEMPLATE_RE.match(line).group(1)))
                self.template_lines.append(line)
        self.root_cats = {(p, t, r): _cat(c) for p, t, r, c in self.rootmap}
        self.senses = {}
        for cat_text, root, body in self.entries:
            gloss = _CONCEPT_RE.search(body)
            if gloss is None or gloss.group(1) != root:
                raise ValueError(f"entry {root!r}: concept does not start with its root")
            self.senses.setdefault((_cat(cat_text), root), []).append(gloss.group(2))

    def expected(self, surface: str, tag: str) -> list:
        """Concepts an unrestricted query for the clone of ``surface`` returns."""
        concepts = []
        for row_surface, parse_text in self.analyzer:
            if row_surface == surface:
                concepts.extend(self._parse_concepts(parse_text, tag))
        return concepts

    def _parse_concepts(self, parse_text: str, tag: str) -> list:
        # levels: [proc category, type, root or suffix, inflection names]
        levels = []
        for key, first, second in _PAIR_RE.findall(parse_text):
            if key == "CAT":
                levels.append([first.lower(), "none", None, []])
            elif key == "ROOT":
                levels[-1][2] = _normalize_root(first)
            elif key == "CONV":
                levels.append([first.lower(), "none", second, []])
            elif key == "TYPE":
                levels[-1][1] = first.lower()
            else:
                levels[-1][3].append(key.lower())
        proc_cat, proc_type, root, inflections = levels[0]
        if {"stem", "form"} & set(inflections):
            raise ValueError(f"{parse_text}: inflections would clash with an entry")
        cat = self.root_cats.get((proc_cat, proc_type, root))
        if cat is None:
            return []  # the engine skips a parse whose root has no mapping row
        wrappers = []
        for target, _, proc_suffix, _ in levels[1:]:
            # the processor spells suffixes in capitals; the table in lexicon spelling
            rows = [(s, c) for (p, s), c in self.derivmap.items()
                    if p == target and s.upper() == proc_suffix]
            if len(rows) != 1:
                return []
            suffix, derived_cat = rows[0]
            if derived_cat not in self.templates:
                return []
            wrappers.append("none" if suffix == "none" else f"f_{suffix}")
        concepts = []
        for gloss in self.senses.get((cat, root), ()):
            concept = f"{root}{tag}-({gloss})"
            for head in wrappers:
                concept = f"{head}({concept})"
            concepts.append(concept)
        return concepts


def _tags(rng: random.Random, count: int) -> list:
    letters = "abcdefghjkmnprstuvyz"
    codes = rng.sample(range(len(letters) ** 4), count)
    tags = []
    for code in codes:
        tag = ""
        for _ in range(4):
            code, digit = divmod(code, len(letters))
            tag += letters[digit]
        tags.append(tag)
    return tags


def generate(out: Path, seed: int, roots: int) -> dict:
    """Write a lexicon of about ``roots`` generated roots to ``out``.

    Returns ``{"roots": n, "clones": [[surface, ...], ...], "surfaces":
    {surface: {"count", "concepts"}}}``, with the generated surfaces grouped
    by clone; this is also written to ``out/expected.json``.
    """
    bundled = Bundled()
    clones = max(1, math.ceil(roots / len(bundled.rootmap)))
    tags = _tags(random.Random(seed), clones)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("derivmap.tsv", "categories.tsv"):
        (out / name).write_bytes((DATA / name).read_bytes())

    analyzer = ["# synthetic analyzer table"]
    rootmap = ["# synthetic root mapping"]
    fdb = ["# synthetic feature-structure database"] + bundled.template_lines
    surfaces, groups = {}, []
    bundled_surfaces = list(dict.fromkeys(s for s, _ in bundled.analyzer))
    for tag in tags:
        for proc_cat, proc_type, root, cat in bundled.rootmap:
            rootmap.append(f"{proc_cat}\t{proc_type}\t{root}{tag}\t{cat}")
        for cat_text, root, body in bundled.entries:
            fdb.append(f"entry {cat_text} {root}{tag} := {_rename_root(body, root, root + tag)}")
        for surface, parse_text in bundled.analyzer:
            parse_text = re.sub(r"\[ROOT=([^][=]+)\]",
                                lambda m: f"[ROOT={_normalize_root(m.group(1))}{tag}]",
                                parse_text)
            analyzer.append(f"{surface}{tag}\t{parse_text}")
        for surface in bundled_surfaces:
            concepts = bundled.expected(surface, tag)
            surfaces[surface + tag] = {"count": len(concepts), "concepts": sorted(concepts)}
        groups.append([surface + tag for surface in bundled_surfaces])

    (out / "analyzer.tsv").write_text("\n".join(analyzer) + "\n", encoding="utf-8")
    (out / "rootmap.tsv").write_text("\n".join(rootmap) + "\n", encoding="utf-8")
    (out / "lexicon.fdb").write_text("\n".join(fdb) + "\n", encoding="utf-8")
    expected = {"roots": clones * len(bundled.rootmap), "clones": groups, "surfaces": surfaces}
    (out / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    return expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--roots", type=int, default=10_000)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    expected = generate(args.out, args.seed, args.roots)
    print(f"{expected['roots']} roots, {len(expected['surfaces'])} surfaces in {args.out}")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    options = [f"--{option}={args.out / name}" for option, name in FILES.items()]
    return subprocess.run([sys.executable, "-m", "turklex.cli", *options, "check"], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
