"""The four workloads: what one operation is, and how its answers are checked.

The runner sets ``workload.engine`` and then calls, in this order:

``start()``             untimed preparation (baselines taken); called again
                        when the engine is replaced
``round()``             the arguments of one round of operations
``op(arg)``             one timed operation; returns the QueryTraces it made
``check(arg, traces)``  untimed check of that operation's answer
``verify()``            the full checks, once per distinct operation, after
                        the timed loop; sets ``failing``, the number of
                        operations of a round that fail
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

from turklex import featstruct, fsdb
from turklex.catmap import Cat5
from turklex.featstruct import FeatStruct, fs_equal, get_path, render_fs, subsumes

DATA = Path(__file__).resolve().parent.parent / "src" / "turklex" / "data"
BUNDLED = {
    "analyzer_path": DATA / "analyzer.tsv",
    "rootmap_path": DATA / "rootmap.tsv",
    "derivmap_path": DATA / "derivmap.tsv",
    "db_path": DATA / "lexicon.fdb",
    "inventory_path": DATA / "categories.tsv",
}

# The worked examples of the paper (README "How a query is answered" and the
# acceptance criteria): parses, transformed parses, parses eliminated by the
# early restriction, and the concepts of the results.
GOLDEN_EXPECTED = {
    "atIm": (3, 2, 0, ["at-(horse)", "none(at-(horse))"]),
    "memnunum": (3, 2, 1, ["none(memnun-(satisfied))"]),
    "ekim": (3, 3, 2, ["ek-(suffix)", "ek-(appendix)"]),
    "ekimde": (2, 2, 1, ["ekim-(october)"]),
    "kazma": (3, 3, 0, ["kazma-(pickaxe)", "kaz-(dig)", "f_ma(kaz-(dig))"]),
    "akIllIca": (1, 1, 0, ["f_ca(f_lI(akIl-(intelligence)))"]),
}


def concepts(trace) -> list:
    return [repr(get_path(fs, "sem|concept")) for fs in trace.results]


def same_answer(a: list, b: list) -> bool:
    return len(a) == len(b) and all(fs_equal(x, y) for x, y in zip(a, b))


def query_problems(engine, query: FeatStruct) -> list:
    """Properties every answer must have: the query subsumes each result,
    and the answer does not depend on the early restriction."""
    problems = []
    on = engine.query(query)
    if not same_answer(on, engine.query(query, use_early_filter=False)):
        problems.append(f"{render_fs(query)}: early restriction changes the answer")
    if not all(subsumes(query, fs) for fs in on):
        problems.append(f"{render_fs(query)}: a result is not subsumed by the query")
    return problems


class Workload:
    loads = 21  # engine builds per run, for the median set-up time
    failing = 0
    engine = None

    def paths(self) -> dict:
        return BUNDLED

    def start(self) -> None:
        pass


class Golden(Workload):
    """One operation: the six worked queries of the paper, in a row."""

    def __init__(self, inputs: dict, work: Path):
        self.queries = [featstruct.parse_fs_text(text) for text in inputs["queries"]]

    def round(self):
        return (None,)

    def op(self, _):
        return [self.engine.run(query) for query in self.queries]

    def check(self, _, traces):
        for trace in traces:
            parses, transformed, eliminated, expected = GOLDEN_EXPECTED[trace.surface]
            got = (len(trace.parses), len(trace.transformed),
                   len(trace.transformed) - len(trace.satisfying))
            if got != (parses, transformed, eliminated) or sorted(concepts(trace)) != sorted(expected):
                return f"{trace.surface}: got {got} {concepts(trace)}"
        return None

    def verify(self) -> list:
        return [p for query in self.queries for p in query_problems(self.engine, query)]

    def query_medians(self, repeats: int = 300) -> dict:
        """Median time of each query on its own, in us (not host-scaled)."""
        medians = {}
        for query in self.queries:
            times = []
            for _ in range(repeats):
                start = perf_counter_ns()
                self.engine.run(query)
                times.append(perf_counter_ns() - start)
            medians[query["phon"]] = statistics.median(times) / 1000
        return medians


class Restrict(Workload):
    """One operation: one restriction query.

    A round is every single-path probe drawn from the filter-off results of
    the bundled surfaces (fixed, whatever the seed) plus seeded queries that
    combine one to three paths of the stress pool, shuffled together.
    """

    def __init__(self, inputs: dict, work: Path):
        self.queries = [featstruct.parse_fs_text(text) for text in inputs["round"]]
        self.answers = [None] * len(self.queries)  # concepts, as first timed

    def round(self):
        return range(len(self.queries))

    def op(self, i):
        return (self.engine.run(self.queries[i]),)

    def check(self, i, traces):
        answer = concepts(traces[0])
        if self.answers[i] is None:
            self.answers[i] = answer
        elif answer != self.answers[i]:
            return f"{render_fs(self.queries[i])}: answer changed between rounds"
        return None

    def verify(self) -> list:
        engine = self.engine
        problems, self.failing_queries, unrestricted = [], [], {}
        for query, answer in zip(self.queries, self.answers):
            surface = query["phon"]
            if surface not in unrestricted:
                unrestricted[surface] = {render_fs(fs) for fs in
                                         engine.query(FeatStruct([("phon", surface)]))}
            on = engine.query(query)
            off = engine.query(query, use_early_filter=False)
            if not same_answer(on, off):
                self.failing_queries.append(render_fs(query))  # the operation failed
            for results in (on, off):
                if not all(subsumes(query, fs) for fs in results):
                    problems.append(f"{render_fs(query)}: a result is not subsumed by the query")
                if not {render_fs(fs) for fs in results} <= unrestricted[surface]:
                    problems.append(f"{render_fs(query)}: a result outside the unrestricted answer")
            if answer is not None and concepts(engine.run(query)) != answer:
                problems.append(f"{render_fs(query)}: timed answer differs")
        self.failing = len(self.failing_queries)
        return problems


class Large(Workload):
    """One operation: an unrestricted query for each of the six surfaces of
    one clone of the bundled data in the synthetic lexicon, the clone drawn
    Zipf-skewed."""

    loads = 3

    def __init__(self, inputs: dict, work: Path):
        self.dir = work / inputs["lexicon"]
        self.queries = [[FeatStruct([("phon", surface)]) for surface in clone]
                        for clone in inputs["clones"]]
        self.draws = inputs["draws"]
        self.next = 0
        expected = json.loads((self.dir / "expected.json").read_text(encoding="utf-8"))
        self.expected = {surface: entry["concepts"]
                         for surface, entry in expected["surfaces"].items()}
        self.seen = set()

    def paths(self) -> dict:
        return {key: self.dir / path.name for key, path in BUNDLED.items()}

    def round(self):
        i = self.draws[self.next % len(self.draws)]
        self.next += 1
        return (i,)

    def op(self, i):
        return [self.engine.run(query) for query in self.queries[i]]

    def check(self, i, traces):
        self.seen.add(i)
        for trace in traces:
            if sorted(concepts(trace)) != self.expected[trace.surface]:
                return f"{trace.surface}: got {concepts(trace)}, expected {self.expected[trace.surface]}"
        return None

    def verify(self) -> list:
        return [p for i in sorted(self.seen) for query in self.queries[i]
                for p in query_problems(self.engine, query)]


class Edit(Workload):
    """One operation: a lexicographer's cycle on a copy of the bundled
    database.  Parse a new sense, add it, save, query the root; delete the
    sense, save, query again."""

    def __init__(self, inputs: dict, work: Path):
        self.db_path = work / "lexicon.fdb"
        self.cat = Cat5.from_text(inputs["category"])
        self.root = inputs["root"]
        self.query = FeatStruct([("phon", inputs["surface"])])
        self.senses = inputs["senses"]
        self.next = 0
        self.added = []  # the new concept of each sense, and its canonical clause line
        for text in self.senses:
            fs = featstruct.parse_fs_text(text)
            fsdb.fill_entry_defaults(fs, self.cat)
            line = f"entry {self.cat.render()} {self.root} := {render_fs(fs)}\n"
            self.added.append((repr(get_path(fs, "sem|concept")), line))

    def paths(self) -> dict:
        return dict(BUNDLED, db_path=self.db_path)

    def start(self) -> None:
        self.original = concepts(self.engine.run(self.query))
        self.index = len(fsdb.lookup(self.engine.db, self.cat, self.root))  # of the added sense

    def round(self):
        k = self.next % len(self.senses)
        self.next += 1
        return (k,)

    def op(self, k):
        db = self.engine.db
        fs = featstruct.parse_fs_text(self.senses[k])
        fsdb.add_entry(db, fsdb.LexiconEntry(self.cat, self.root, fs))
        fsdb.save(db, self.db_path)
        added = self.engine.run(self.query)
        fsdb.delete_entry(db, self.cat, self.root, self.index)
        fsdb.save(db, self.db_path)
        return added, self.engine.run(self.query)

    def check(self, k, traces):
        added, removed = (concepts(trace) for trace in traces)
        if Counter(added) != Counter(self.original + [self.added[k][0]]):
            return f"after adding {self.added[k][0]}: got {added}"
        if removed != self.original:
            return f"after deleting {self.added[k][0]}: got {removed}"
        return None

    def bytes_written(self, k) -> tuple:
        """Bytes the two saves of operation ``k`` wrote, and the bytes of the
        added clause."""
        clause = len(self.added[k][1].encode("utf-8"))
        after_delete = self.db_path.stat().st_size
        return 2 * after_delete + clause, clause

    def verify(self) -> list:
        """Also: the saved file re-loads to the starting database (the
        engine under test was itself built from the saved file)."""
        engine = self.engine
        problems = query_problems(engine, self.query)
        if fsdb.dumps(engine.db) != fsdb.dumps(fsdb.load(BUNDLED["db_path"])):
            problems.append("the saved database does not re-load to the starting one")
        fs = featstruct.parse_fs_text(self.senses[0])
        fsdb.add_entry(engine.db, fsdb.LexiconEntry(self.cat, self.root, fs))
        problems += query_problems(engine, self.query)
        fsdb.delete_entry(engine.db, self.cat, self.root, self.index)
        return problems


WORKLOADS = {"golden": Golden, "restrict": Restrict, "large": Large, "edit": Edit}
