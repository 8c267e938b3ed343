"""Make one workload's inputs from its seed and write them to a directory.

Runs in its own process, so that generating inputs (the synthetic lexicon
above all) adds nothing to the peak memory of the process that measures:

    python3 perfbench/prepare.py --workload large --seed 1 --out DIR

writes ``DIR/inputs.json`` (and, for ``large``, the lexicon under
``DIR/lexicon``; for ``edit``, a copy of the bundled database).
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
from pathlib import Path

import synth
from turklex import LexiconEngine
from turklex.featstruct import FeatStruct, Neg, render_fs

GOLDEN_QUERIES = [
    "[phon:atIm]",
    "[phon:memnunum, cat:[maj:verb]]",
    "[phon:ekim, morph:[poss:'1sg']]",
    "[phon:ekimde, morph:[poss:none], sem:[temporal:+]]",
    "[phon:kazma]",
    "[phon:akIllIca]",
]

# The restriction pool of scripts/stress_random_queries.py.  Seeded queries
# combine these paths only; the values are widened with every atom the
# filter-off results carry at them.
STRESS_SURFACES = ["atIm", "memnunum", "ekim", "kazma", "ekimde", "akIllIca", "bilinmeyen"]
STRESS_PATH_VALUES = {
    ("cat", "maj"): ["nominal", "verb", "adjectival", "adverbial"],
    ("cat", "min"): ["noun", "pronoun", "sentential", "attributive", "predicative", "manner"],
    ("cat", "sub"): ["common", "act", "qualitative", "none"],
    ("cat", "ssub"): ["infinitive", "none"],
    ("cat", "sssub"): ["ma", "none"],
    ("morph", "stem"): ["at", "ek", "ekim", "kaz", "kazma", "akIl", "memnun"],
    ("morph", "derv_suffix"): ["none", "ma", "lI", "ca"],
    ("morph", "agr"): ["3sg", "1sg", "2sg", "none"],
    ("morph", "poss"): ["1sg", "none", Neg("none")],
    ("morph", "case"): ["nom", "loc", "acc"],
}
RESTRICT_SEEDED = 2000  # seeded queries per round, beside the fixed probes

LARGE_ROOTS = 10_000
ZIPF_EXPONENT = 1.0
LARGE_DRAWS = 20_000  # more operations than a 60-s run makes

EDIT_ROOT = "kazma"
EDIT_SENSES = 64


def _query(surface, restrictions) -> FeatStruct:
    query = FeatStruct([("phon", surface)])
    for (block, name), value in restrictions:
        if block not in query:
            query[block] = FeatStruct()
        query[block][name] = value
    return query


def golden(seed: int, out: Path) -> dict:
    shift = seed % len(GOLDEN_QUERIES)
    return {"queries": GOLDEN_QUERIES[shift:] + GOLDEN_QUERIES[:shift]}


def restrict(seed: int, out: Path) -> dict:
    engine = LexiconEngine.from_bundled_data()
    pool = {path: list(values) for path, values in STRESS_PATH_VALUES.items()}
    probes = []
    for surface in engine.analyzer.surfaces():
        seen = {}
        for fs in engine.query(FeatStruct([("phon", surface)]), use_early_filter=False):
            for block in ("cat", "morph"):
                for name, value in fs[block].items():
                    if isinstance(value, str):
                        seen[(block, name), value] = None
        for path, value in seen:
            probes.append(render_fs(_query(surface, [(path, value)])))
            if path in pool and value not in pool[path]:
                pool[path].append(value)
    rng = random.Random(seed)
    seeded = []
    for _ in range(RESTRICT_SEEDED):
        paths = rng.sample(sorted(pool), rng.randint(1, 3))
        restrictions = [(path, rng.choice(pool[path])) for path in paths]
        seeded.append(render_fs(_query(rng.choice(STRESS_SURFACES), restrictions)))
    round_ = probes + seeded
    rng.shuffle(round_)
    return {"round": round_, "probes": len(probes)}


def large(seed: int, out: Path, roots: int = LARGE_ROOTS) -> dict:
    expected = synth.generate(out / "lexicon", seed, roots)
    clones = expected["clones"]
    rng = random.Random(seed)
    rng.shuffle(clones)  # rank order
    weights, total = [], 0.0
    for rank in range(1, len(clones) + 1):
        total += rank ** -ZIPF_EXPONENT
        weights.append(total)
    draws = rng.choices(range(len(clones)), cum_weights=weights, k=LARGE_DRAWS)
    return {"lexicon": "lexicon", "roots": expected["roots"], "clones": clones,
            "draws": draws}


def edit(seed: int, out: Path) -> dict:
    shutil.copyfile(synth.DATA / "lexicon.fdb", out / "lexicon.fdb")
    rng = random.Random(seed)
    glosses = set()
    while len(glosses) < EDIT_SENSES:
        glosses.add("".join(rng.choice("abcdefghijklmnoprstuvyz") for _ in range(rng.randint(5, 10))))
    senses = [
        f"[cat:[maj:nominal, min:noun, sub:common, ssub:none, sssub:none], "
        f"morph:[stem:{EDIT_ROOT}, form:lexical], "
        f"sem:[concept:{EDIT_ROOT}-({gloss}), countable:{rng.choice('+-')}, "
        f"material:{rng.choice('+-')}], phon:{EDIT_ROOT}]"
        for gloss in sorted(glosses)
    ]
    rng.shuffle(senses)
    return {"root": EDIT_ROOT, "category": "nominal,noun,common,none,none",
            "surface": EDIT_ROOT, "senses": senses}


WORKLOADS = {"golden": golden, "restrict": restrict, "large": large, "edit": edit}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--roots", type=int, default=LARGE_ROOTS,
                        help="synthetic lexicon size (large only)")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    extra = {"roots": args.roots} if args.workload == "large" else {}
    inputs = WORKLOADS[args.workload](args.seed, args.out, **extra)
    (args.out / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")


if __name__ == "__main__":
    main()
