"""Query engine: from a surface form to annotated feature structures.

A query is itself a feature structure whose ``phon`` feature names the
surface form; any other features act as restrictions.  Processing runs in
four phases:

1. morphological analysis of the surface form (every parse),
2. transformation: each level of a parse, the analyzer's own ``Level``,
   is paired with its lexicon category; a parse with a level that has no
   mapping is skipped, and each other parse is passed on as the tuple of
   its ``(level, cat)`` pairs, the lexical level first,
3. early restriction: the query's ``cat``/``morph`` features are checked
   against a cheap partial structure of each parse's outermost level,
   eliminating parses before any database access; a query that restricts
   neither passes every parse on and builds nothing,
4. retrieval: every sense of the root is fetched, inflections are unified
   into a copy of its ``morph`` block, derived levels are folded around the
   stem using the category's template, and the full query finally filters
   the results.

Results share the database's unchanged nodes, the sense's and the
template's, so they are read-only; a caller who wants to change one
mutates ``copy_fs(result)``.  The engine itself writes only to nodes it
has just built.

Each phase fills its own lists of a :class:`QueryTrace`: phase 1
``parses``; phase 2 ``mappings`` (a ``(level, cat)`` pair per level tried)
and ``transformed`` (the pair tuples); phase 3 ``eliminated`` and
``satisfying``; phase 4 ``events`` (database accesses and dropped senses,
in order), ``retrieved`` and ``results``.  A caller can reconstruct the
run from it without re-running it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ._data import bundled_path
from .catmap import Cat5, DerivMapTable, RootMapTable, load_inventory
from .featstruct import (
    DerivedConcept,
    FeatStruct,
    copy_fs,
    node_counts,
    project,
    subsumes,
    unify,
)
from .fsdb import Database, LexiconEntry, load as load_db, lookup, lookup_template
from .morph import AnalyzerTable, Level


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
    skipped.  ``transformed`` holds, for each parse whose every level
    mapped, the tuple of its pairs, and ``satisfying`` those tuples the
    early restriction kept: both hold the very pair objects ``mappings``
    holds.  ``eliminated`` holds the partial structure of each parse the
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

def transform(parse, rootmap: RootMapTable, derivmap: DerivMapTable,
              trace: QueryTrace) -> Optional[tuple]:
    """Map every level of a parse to a lexicon category.

    Returns the ``(level, cat)`` pairs it appended to ``trace.mappings``,
    or None as soon as a level has no mapping; the lexical level comes
    first, so a parse with an unknown root never reports its derivations.
    The analyzer's immutable levels are passed on, not copied.
    """
    start = len(trace.mappings)
    for depth, level in enumerate(parse.levels):
        if depth:
            cat = derivmap.rows.get((level.proc_category, level.name))
        else:
            cat = rootmap.rows.get((level.proc_category, level.proc_type, level.name))
        trace.mappings.append((level, cat))
        if cat is None:
            return None
    return tuple(trace.mappings[start:])


# --------------------------------------------------------------------------
# phase 3: early restriction

def partial_outer_fs(tp: tuple, surface: str) -> FeatStruct:
    """Cheap approximation of a parse's outermost level, built without any
    database access: category, the level's own morph features, and phon."""
    level, cat = tp[-1]
    morph = FeatStruct([("derv_suffix" if len(tp) > 1 else "stem", level.name)])
    morph.update(level.inflections)
    return FeatStruct([("cat", cat.as_fs()), ("morph", morph), ("phon", surface)])


def early_filter(tps, query_fs: FeatStruct, surface: str, trace: QueryTrace) -> list:
    """Drop parses whose outermost level already contradicts the query.

    Only the query's ``cat`` and ``morph`` blocks take part: the partial
    structure knows nothing about syn or sem, and those must not cause
    eliminations here.  A query with neither keeps every parse without
    building a partial structure, since an empty restriction subsumes any.
    """
    restriction = project(query_fs, ("cat", "morph"))
    if not restriction:
        return list(tps)
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

def build_derived(level: Level, cat: Cat5, stem_fs: FeatStruct, db: Database,
                  trace: QueryTrace, copy_template: bool = False) -> Optional[FeatStruct]:
    """Wrap ``stem_fs`` into a derived structure for one derivation level,
    the analyzer's ``level`` (whose ``name`` is the suffix) mapped to ``cat``.

    The category's template supplies the skeleton: template morph features
    come out in template order with the level's inflections overriding the
    defaults and the others appended, subcategorisation and thematic roles
    are taken over from the stem (sharing the stem's objects, so co-indexing
    survives), and the concept is wrapped by the derivational suffix.

    The result's root and its ``morph``, ``syn`` and ``sem`` blocks are
    new; its ``cat`` and the values it takes from the template are the
    template's own nodes.  A chain that derives one category twice would
    reach those nodes from two levels, which reads as co-indexing, so
    ``retrieve`` passes ``copy_template`` for the later level and it reads
    a copy of the template instead.
    """
    trace.events.append(TfsdbAccess(cat))
    template = lookup_template(db, cat)
    if template is None:
        trace.events.append(DropRecord(f"no template for {cat.render()}"))
        return None
    if copy_template:
        template = copy_fs(template)

    stem_fs["phon"] = "none"  # only the outermost level keeps the surface form

    result = FeatStruct([("cat", template["cat"])])

    morph = FeatStruct([("stem", stem_fs), ("form", "derived"), ("derv_suffix", level.name)])
    morph.update(template.get("morph", {}))
    morph.update(level.inflections)
    result["morph"] = morph

    result["syn"] = _take_over(FeatStruct(), "subcat", stem_fs["syn"], template.get("syn", {}))
    stem_sem = stem_fs["sem"]
    concept = DerivedConcept(level.name, stem_sem["concept"])
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


def retrieve(tp: tuple, db: Database, surface: str, trace: QueryTrace) -> list:
    """Annotated structures for every sense of a transformed parse.

    The results share the database's nodes and are read-only: ``copy_fs``
    gives a private copy.  See :func:`inflect` and :func:`build_derived`
    for what is new in each.
    """
    lexical, lexical_cat = tp[0]
    root = lexical.name
    senses = lookup(db, lexical_cat, root)
    trace.events.append(FsdbAccess(lexical_cat, root, len(senses)))

    inflections = FeatStruct(lexical.inflections)
    results = []
    for entry in senses:
        fs = inflect(entry, inflections)
        if fs is None:
            trace.events.append(DropRecord(f"inflections conflict with a sense of {root}"))
            continue
        used = set()  # the categories whose template this chain holds
        for level, cat in tp[1:]:
            fs = build_derived(level, cat, fs, db, trace, copy_template=cat in used)
            if fs is None:
                break
            used.add(cat)
        if fs is None:
            continue
        fs["phon"] = surface
        results.append(fs)
    return results


def inflect(entry: LexiconEntry, inflections: FeatStruct) -> Optional[FeatStruct]:
    """The sense with ``inflections`` unified into its ``morph`` block, or
    None if they clash.

    Only the path to the change is copied: the result is a new root whose
    ``morph`` is the unification (a new block), and whose other features
    (``cat``, ``syn``, ``sem`` and every node below them) are the sense's
    own nodes.  That keeps the sense's co-indexing unless the ``morph``
    block or a node inside it is also reached from elsewhere in the sense
    (``morph:@1=[...], syn:[same:@1]``); such a sense is unified whole, so
    its copy keeps the tag and every reference sees the inflections.  Which
    case holds is worked out on the sense's first retrieval and stored on
    the entry (``morph_coindexed``).
    """
    if entry.morph_coindexed is None:
        whole = node_counts(entry.fs)
        entry.morph_coindexed = any(
            whole[i] != n for i, n in node_counts(entry.fs["morph"]).items()
        )
    if entry.morph_coindexed:
        return unify(entry.fs, FeatStruct([("morph", inflections)]))
    morph = unify(entry.fs["morph"], inflections)
    if morph is None:
        return None
    fs = FeatStruct(entry.fs)
    fs["morph"] = morph
    return fs


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

