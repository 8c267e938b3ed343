#!/usr/bin/env python3
"""Print full traces for a handful of sample queries.

Usage::

    python3 scripts/run_samples.py                # the documented sample set
    python3 scripts/run_samples.py "[phon:kazma]" # or any queries you like
"""

import argparse
import sys
from pathlib import Path

# run from a checkout without installing: the package is in ../src
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from turklex.cli import _print_outcome
from turklex.engine import LexiconEngine
from turklex.featstruct import parse_fs_text

SAMPLES = [
    "[phon:atIm]",
    "[phon:memnunum, cat:[maj:verb]]",
    "[phon:ekim, morph:[poss:'1sg']]",
    "[phon:ekimde, morph:[poss:none], sem:[temporal:+]]",
    "[phon:kazma]",
    "[phon:akIllIca]",
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("queries", nargs="*", default=SAMPLES,
                        help="query feature structures (default: sample set)")
    parser.add_argument("--style", choices=["compact", "indented"],
                        default="indented", help="feature-structure layout")
    args = parser.parse_args()

    engine = LexiconEngine.from_bundled_data()
    for text in args.queries:
        print("=" * 72)
        print(f"Query: {text}")
        print("=" * 72)
        _print_outcome(engine.run(parse_fs_text(text)), "full", args.style)
        print()


if __name__ == "__main__":
    main()
