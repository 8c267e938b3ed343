#!/usr/bin/env python3
"""Hammer the engine with randomly generated restriction queries.

Two properties are checked on every query: each result must satisfy the
query (the query subsumes it), and turning the early-restriction phase off
must not change the answer.  Exits nonzero if either property ever fails,
and prints a latency summary either way.

Usage::

    python3 scripts/stress_random_queries.py -n 5000 --seed 7
"""

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

# run from a checkout without installing: the package is in ../src
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from turklex.engine import LexiconEngine
from turklex.featstruct import FeatStruct, Neg, fs_equal, render_fs, subsumes

SURFACES = ["atIm", "memnunum", "ekim", "kazma", "ekimde", "akIllIca", "bilinmeyen"]
PATH_VALUES = {
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


def random_query(rng):
    query = FeatStruct([("phon", rng.choice(SURFACES))])
    for block, name in rng.sample(list(PATH_VALUES), rng.randint(0, 3)):
        if block not in query:
            query[block] = FeatStruct()
        query[block][name] = rng.choice(PATH_VALUES[(block, name)])
    return query


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", "--count", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=20240825)
    args = parser.parse_args()

    engine = LexiconEngine.from_bundled_data()
    rng = random.Random(args.seed)

    timings = []
    failures = []
    total_results = 0
    for i in range(args.count):
        query = random_query(rng)
        start = time.perf_counter()
        early = engine.query(query)
        timings.append(time.perf_counter() - start)
        late = engine.query(query, use_early_filter=False)
        total_results += len(early)

        if len(early) != len(late) or not all(
            fs_equal(a, b) for a, b in zip(early, late)
        ):
            failures.append(f"case {i}: filter mismatch for {render_fs(query)}")
            continue
        for fs in early:
            if not subsumes(query, fs):
                failures.append(f"case {i}: unsound result for {render_fs(query)}")
                break

    mean_ms = statistics.mean(timings) * 1000
    p95_ms = sorted(timings)[int(0.95 * len(timings))] * 1000
    print(f"queries:      {args.count}")
    print(f"results:      {total_results}")
    print(f"latency mean: {mean_ms:.2f} ms   p95: {p95_ms:.2f} ms")
    if failures:
        print(f"FAILURES: {len(failures)}")
        for line in failures[:10]:
            print(f"  {line}")
        raise SystemExit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
