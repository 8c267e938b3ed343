"""Query engine: from a surface form to annotated feature structures.

A query is itself a feature structure whose ``phon`` feature names the
surface form; any other features act as restrictions.  Processing runs in
four phases:

1. morphological analysis of the surface form (every parse),
2. transformation: each parse level is mapped to a lexicon category;
   parses whose lexical level has no mapping are skipped,
3. early restriction: the query's ``cat``/``morph`` features are checked
   against a cheap partial structure of each parse's outermost level,
   eliminating parses before any database access,
4. retrieval: every sense of the root is fetched, inflections are unified
   in, derived levels are folded around the stem using the category's
   template, and the full query finally filters the results.

Each phase fills its own lists of a :class:`QueryTrace`: phase 1
``parses``; phase 2 ``mappings`` (one per level tried) and
``transformed``; phase 3 ``eliminated`` and ``satisfying``; phase 4
``events`` (database accesses and dropped senses, in order), ``retrieved``
and ``results``.  A caller can reconstruct the run from it without
re-running it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from ._data import bundled_path
from .catmap import Cat5, DerivMapTable, RootMapTable, load_inventory
from .featstruct import (
    DerivedConcept,
    FeatStruct,
    project,
    subsumes,
    unify,
)
from .fsdb import Database, load as load_db, lookup, lookup_template
from .morph import AnalyzerTable


class QueryError(ValueError):
    """Raised for queries the engine cannot evaluate (e.g. missing phon)."""


# --------------------------------------------------------------------------
# trace records

@dataclass
class FsdbAccess:
    """One database access for the senses of a root."""

    cat: Cat5
    root: str
    count: int


@dataclass
class TfsdbAccess:
    """One template database access for a derived level."""

    cat: Cat5


@dataclass
class DropRecord:
    """A sense dropped during retrieval (conflict or missing template)."""

    reason: str


@dataclass
class QueryTrace:
    """Everything that happened while answering one query, phase by phase.

    ``mappings`` holds a ``(level, cat)`` pair for every parse level tried,
    with ``cat`` None where the level had no mapping and its parse was
    skipped; ``eliminated`` holds the partial structure of each parse the
    early restriction removed; ``events`` holds retrieval's
    :class:`FsdbAccess`, :class:`TfsdbAccess` and :class:`DropRecord`
    records in order.
    """

    surface: str
    parses: list = field(default_factory=list)
    mappings: list = field(default_factory=list)
    transformed: list = field(default_factory=list)
    eliminated: list = field(default_factory=list)
    satisfying: list = field(default_factory=list)
    events: list = field(default_factory=list)
    retrieved: list = field(default_factory=list)
    results: list = field(default_factory=list)


# --------------------------------------------------------------------------
# phase 2: transformation

class TransformedLevel(NamedTuple):
    cat: Cat5
    inflections: tuple  # the analyzer level's own (key, value) pairs
    suffix: Optional[str]  # None on the lexical level


class TransformedParse(NamedTuple):
    root: str
    levels: tuple  # of TransformedLevel, the lexical level first


def transform(parse, rootmap: RootMapTable, derivmap: DerivMapTable,
              trace: QueryTrace) -> Optional[TransformedParse]:
    """Map every level of a parse to a lexicon category.

    Returns None as soon as any level has no mapping; the lexical level is
    tried first, so a parse with an unknown root never reports its
    derivations.  The analyzer's immutable levels are passed on, not copied.
    """
    tlevels = []
    for depth, level in enumerate(parse.levels):
        if depth:
            cat = derivmap.rows.get((level.proc_category, level.name))
        else:
            cat = rootmap.rows.get((level.proc_category, level.proc_type, level.name))
        trace.mappings.append((level, cat))
        if cat is None:
            return None
        tlevels.append(TransformedLevel(cat, level.inflections, level.name if depth else None))
    return TransformedParse(parse.levels[0].name, tuple(tlevels))


# --------------------------------------------------------------------------
# phase 3: early restriction

def partial_outer_fs(tp: TransformedParse, surface: str) -> FeatStruct:
    """Cheap approximation of a parse's outermost level, built without any
    database access: category, the level's own morph features, and phon."""
    outer = tp.levels[-1]
    if len(tp.levels) == 1:
        morph = FeatStruct([("stem", tp.root)])
    else:
        morph = FeatStruct([("derv_suffix", outer.suffix)])
    for name, value in outer.inflections:
        morph[name] = value
    return FeatStruct([("cat", outer.cat.as_fs()), ("morph", morph), ("phon", surface)])


def early_filter(tps, query_fs: FeatStruct, surface: str, trace: QueryTrace) -> list:
    """Drop parses whose outermost level already contradicts the query.

    Only the query's ``cat`` and ``morph`` blocks take part: the partial
    structure knows nothing about syn or sem, and those must not cause
    eliminations here.
    """
    restriction = project(query_fs, ("cat", "morph"))
    keep = []
    for tp in tps:
        partial = partial_outer_fs(tp, surface)
        if subsumes(restriction, partial):
            keep.append(tp)
        else:
            trace.eliminated.append(partial)
    return keep


# --------------------------------------------------------------------------
# phase 4: retrieval

def build_derived(level: TransformedLevel, stem_fs: FeatStruct, db: Database,
                  trace: QueryTrace) -> Optional[FeatStruct]:
    """Wrap ``stem_fs`` into a derived structure for one derivation level.

    The category's template supplies the skeleton: template morph features
    come out in template order with the level's inflections overriding the
    defaults, subcategorisation and thematic roles are taken over from the
    stem (sharing the stem's objects, so co-indexing survives), and the
    concept is wrapped by the derivational suffix.
    """
    trace.events.append(TfsdbAccess(level.cat))
    template = lookup_template(db, level.cat)
    if template is None:
        trace.events.append(DropRecord(f"no template for {level.cat.render()}"))
        return None

    stem_fs["phon"] = "none"  # only the outermost level keeps the surface form

    result = FeatStruct([("cat", template["cat"])])

    morph = FeatStruct(
        [("stem", stem_fs), ("form", "derived"), ("derv_suffix", level.suffix)]
    )
    pending = dict(level.inflections)
    for name, default_value in template.get("morph", {}).items():
        morph[name] = pending.pop(name, default_value)
    for name, value in level.inflections:
        if name in pending:
            morph[name] = value
    result["morph"] = morph

    result["syn"] = _take_over(FeatStruct(), "subcat", stem_fs["syn"], template.get("syn", {}))
    stem_sem = stem_fs["sem"]
    concept = DerivedConcept(level.suffix, stem_sem["concept"])
    result["sem"] = _take_over(
        FeatStruct([("concept", concept)]), "roles", stem_sem, template.get("sem", {})
    )

    result["phon"] = "none"
    return result


def _take_over(block: FeatStruct, name: str, stem_block, template_block) -> FeatStruct:
    """Fill a derived ``syn`` or ``sem`` block: ``name`` from the stem's
    block (the stem's object, so role co-indexing survives), or else from
    the template's, then the template's other features in template order.
    A template without the block passes an empty one."""
    if name in stem_block:
        block[name] = stem_block[name]
    elif name in template_block:
        block[name] = template_block[name]
    for other, value in template_block.items():
        block.setdefault(other, value)
    return block


def retrieve(tp: TransformedParse, db: Database, surface: str, trace: QueryTrace) -> list:
    """Annotated structures for every sense of a transformed parse."""
    lexical = tp.levels[0]
    senses = lookup(db, lexical.cat, tp.root)
    trace.events.append(FsdbAccess(lexical.cat, tp.root, len(senses)))

    inflections = FeatStruct([("morph", FeatStruct(lexical.inflections))])
    results = []
    for entry in senses:
        fs = unify(entry.fs, inflections)  # the sense's one copy
        if fs is None:
            trace.events.append(DropRecord(f"inflections conflict with a sense of {tp.root}"))
            continue
        for level in tp.levels[1:]:
            fs = build_derived(level, fs, db, trace)
            if fs is None:
                break
        if fs is None:
            continue
        fs["phon"] = surface
        results.append(fs)
    return results


def final_filter(results, query_fs: FeatStruct) -> list:
    """Keep the structures the full query subsumes."""
    return [fs for fs in results if subsumes(query_fs, fs)]


# --------------------------------------------------------------------------
# the engine

@dataclass
class LexiconEngine:
    analyzer: AnalyzerTable
    rootmap: RootMapTable
    derivmap: DerivMapTable
    db: Database

    @classmethod
    def from_paths(cls, analyzer_path, rootmap_path, derivmap_path, db_path,
                   inventory_path) -> "LexiconEngine":
        inventory = load_inventory(inventory_path)
        return cls(
            analyzer=AnalyzerTable.load(analyzer_path),
            rootmap=RootMapTable.load(rootmap_path, inventory),
            derivmap=DerivMapTable.load(derivmap_path, inventory),
            db=load_db(db_path),
        )

    @classmethod
    def from_bundled_data(cls) -> "LexiconEngine":
        return cls.from_paths(
            bundled_path("analyzer.tsv"),
            bundled_path("rootmap.tsv"),
            bundled_path("derivmap.tsv"),
            bundled_path("lexicon.fdb"),
            inventory_path=bundled_path("categories.tsv"),
        )

    def run(self, query_fs: FeatStruct, use_early_filter: bool = True) -> QueryTrace:
        """Answer a query, returning the full trace (results included)."""
        if not isinstance(query_fs, FeatStruct):
            raise QueryError("query must be a feature structure")
        phon = query_fs.get("phon")
        if not isinstance(phon, str):
            raise QueryError("query must specify an atomic phon feature")

        trace = QueryTrace(surface=phon)
        trace.parses = self.analyzer.lookup(phon)

        for parse in trace.parses:
            tp = transform(parse, self.rootmap, self.derivmap, trace)
            if tp is not None:
                trace.transformed.append(tp)

        if use_early_filter:
            trace.satisfying = early_filter(trace.transformed, query_fs, phon, trace)
        else:
            trace.satisfying = list(trace.transformed)

        for tp in trace.satisfying:
            trace.retrieved.extend(retrieve(tp, self.db, phon, trace))

        trace.results = final_filter(trace.retrieved, query_fs)
        return trace

    def query(self, query_fs: FeatStruct, use_early_filter: bool = True) -> list:
        return self.run(query_fs, use_early_filter=use_early_filter).results

