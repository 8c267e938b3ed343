"""Query engine: from a surface form to annotated feature structures.

A query is itself a feature structure whose ``phon`` feature names the
surface form; any other features act as restrictions.  Processing runs in
four phases:

1. morphological analysis of the surface form (every parse),
2. transformation: each level of a parse, the analyzer's own ``Level``,
   is paired with its lexicon category; a parse with a level that has no
   mapping is skipped, and each other parse is passed on as the tuple of
   its ``(level, cat)`` pairs, the lexical level first,
3. early restriction: each ``block|name`` path of the query's ``cat`` and
   ``morph`` blocks is checked against a cheap partial structure of each
   parse's outermost level, before any database access.  A path the
   partial structure holds must meet its value there, and so must a path
   whose value the level fixes (``form``; a derived level's ``stem`` and
   its template's values).  Any other path keeps the parse if some sense
   of a lexical level's own root holds that name, and eliminates it
   otherwise.  So the phase never removes a parse the final filter would
   keep.  A query that restricts neither block passes every parse on and
   builds nothing,
4. retrieval: every sense of the root is fetched, inflections are unified
   into a copy of its ``morph`` block, derived levels are folded around the
   stem using the category's template, and every result's ``phon`` is set
   to the surface.  The rest of the query finally filters the results.

Results share the database's unchanged nodes, the sense's and the
template's, so they are read-only; a caller who wants to change one
mutates ``copy_fs(result)``.  The engine itself writes only to nodes it
has just built.  Most database nodes are frozen values, so the type
enforces that for them (see :mod:`turklex.fsdb`).

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

from ._data import BUNDLED_FILES, bundled_path
from .catmap import Cat5, DerivMapTable, RootMapTable, load_inventory
from .featstruct import DerivedConcept, FeatStruct, FrozenFeatStruct, project, subsumes, unify
from .fsdb import TAKEN_OVER, Database, LexiconEntry, load as load_db, lookup, lookup_template
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
    database access: ``Cat5.as_fs()``, the level's own morph features, phon."""
    level, cat = tp[-1]
    morph = FeatStruct([("derv_suffix" if len(tp) > 1 else "stem", level.name)])
    morph.update(level.inflections)
    return FeatStruct([("cat", cat.as_fs()), ("morph", morph), ("phon", surface)])


def early_filter(tps, query_fs: FeatStruct, surface: str, trace: QueryTrace,
                 db: Database) -> list:
    """Drop parses whose outermost level already rules out the query.

    Only the query's ``cat`` and ``morph`` blocks take part: the partial
    structure knows nothing about syn or sem, and those must not cause
    eliminations here.  A query with neither keeps every parse without
    building a partial structure.  Each path ``block|name`` of the two
    blocks is checked (:func:`_may_satisfy`) so that a parse is eliminated
    only where the final filter would drop each of its results.

    The two blocks are read in place: :func:`project` shares the query's
    own values, and nothing in phase 3 writes them.
    """
    restriction = project(query_fs, ("cat", "morph"))
    if not restriction:
        return list(tps)
    keep = []
    for tp in tps:
        partial = partial_outer_fs(tp, surface)
        if _may_satisfy(restriction, partial, tp, db):
            keep.append(tp)
        else:
            trace.eliminated.append(partial)
    return keep


def _may_satisfy(restriction: FeatStruct, partial: FeatStruct, tp: tuple,
                 db: Database) -> bool:
    """Whether a retrieved structure of ``tp`` may satisfy ``restriction``.

    A path the partial structure holds must meet its value there: the
    retrieved structure holds the same value or, where a sense's own value
    met the inflection, a narrower one.  A path it lacks is checked by
    :func:`_may_hold`.  A ``cat`` or ``morph`` restriction that is not a
    structure matches no retrieved block.
    """
    for block, wanted in restriction.items():
        if not isinstance(wanted, FeatStruct):
            return False
        have = partial[block]
        for name, value in wanted.items():
            if name in have:
                if not subsumes(value, have[name]):
                    return False
            elif not _may_hold(db, tp, block, name, value):
                return False
    return True


def _may_hold(db: Database, tp: tuple, block: str, name: str, value) -> bool:
    """Whether a retrieved structure of the parse's outermost level may meet
    ``value`` at ``block|name``, a path its partial structure lacks.

    Where the level fixes the value, it must meet it: every sense holds
    ``morph|form:lexical``, and a derived level holds ``form:derived``, its
    stem's structure at ``stem`` and its template's value anywhere else.
    A lexical level's other values are its root's senses', so a name that
    one of them holds there keeps the parse.
    Any other path eliminates it: the final filter's subsumption is
    closed-world.
    """
    cat = tp[-1][1]
    if len(tp) == 1:
        if block == "morph" and name == "form":
            return subsumes(value, "lexical")
        senses = db.entries.get((cat, tp[0][0].name), ())
        return any(name in entry.fs[block] for entry in senses)
    template = lookup_template(db, cat)
    if template is None:
        return False  # the level is dropped in retrieval
    if block == "morph" and name == "form":
        return subsumes(value, "derived")
    if block == "morph" and name == "stem":
        return isinstance(value, FeatStruct)  # nothing else meets a structure
    held = template.get(block, {}).get(name)
    return held is not None and subsumes(value, held)


# --------------------------------------------------------------------------
# phase 4: retrieval

def build_derived(level: Level, cat: Cat5, stem_fs: FeatStruct, db: Database,
                  trace: QueryTrace) -> Optional[FeatStruct]:
    """Wrap ``stem_fs`` into a derived structure for one derivation level,
    the analyzer's ``level`` (whose ``name`` is the suffix) mapped to ``cat``.

    The category's template supplies the skeleton: template morph features
    come out in template order with the level's inflections overriding the
    defaults and the others appended, subcategorisation and thematic roles
    are taken over from the stem (sharing the stem's objects, so co-indexing
    survives), and the concept is wrapped by the derivational suffix.

    The result's root and its ``morph``, ``syn`` and ``sem`` blocks are
    new; its ``cat`` and the values it takes from the template are the
    template's own frozen nodes, values that two levels may both hold.
    """
    trace.events.append(TfsdbAccess(cat))
    template = lookup_template(db, cat)
    if template is None:
        trace.events.append(DropRecord(f"no template for {cat.render()}"))
        return None

    stem_fs["phon"] = "none"  # only the outermost level keeps the surface form

    result = FeatStruct([("cat", template["cat"])])

    morph = FeatStruct([("stem", stem_fs), ("form", "derived"), ("derv_suffix", level.name)])
    morph.update(template.get("morph", {}))
    morph.update(level.inflections)
    result["morph"] = morph

    result["syn"] = _take_over(FeatStruct(), "syn", stem_fs, template)
    concept = DerivedConcept(level.name, stem_fs["sem"]["concept"])
    result["sem"] = _take_over(FeatStruct([("concept", concept)]), "sem", stem_fs, template)

    result["phon"] = "none"
    return result


def _take_over(block: FeatStruct, name: str, stem_fs: FeatStruct, template) -> FeatStruct:
    """Fill a derived ``syn`` or ``sem`` block, ``name``: the value
    :data:`~turklex.fsdb.TAKEN_OVER` names, the stem's node (so co-indexing
    survives) or else the template's, then the template's other features in
    template order."""
    taken = TAKEN_OVER[name]
    template_block = template.get(name, {})
    value = stem_fs[name].get(taken, template_block.get(taken))
    if value is not None:  # None is never a value
        block[taken] = value
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
        for level, cat in tp[1:]:
            fs = build_derived(level, cat, fs, db, trace)
            if fs is None:
                break
        else:
            fs["phon"] = surface
            results.append(fs)
    return results


def inflect(entry: LexiconEntry, inflections: FeatStruct) -> Optional[FeatStruct]:
    """The sense with ``inflections`` unified into its ``morph`` block, or
    None if they clash.

    A frozen ``morph`` block holds no tag, so :func:`unify` reads it in
    place: only the path to the change is copied.  The result is a new
    root whose other features are the sense's own nodes, and whose
    ``morph`` is a new block holding the sense's own frozen children where
    no inflection reaches them.  A mutable one may be co-indexed
    (``morph:@1=[...], syn:[same:@1]``), so the sense is unified whole: its
    copy keeps the tag, and every reference sees the inflections.
    """
    if type(entry.fs["morph"]) is not FrozenFeatStruct:
        return unify(entry.fs, FeatStruct([("morph", inflections)]))
    morph = unify(entry.fs["morph"], inflections)
    return None if morph is None else FeatStruct(entry.fs, morph=morph)


def final_filter(results, query_fs: FeatStruct) -> list:
    """Keep the structures the full query subsumes.

    :func:`retrieve` sets each result's ``phon`` to the query's, so only the
    rest of the query is checked.
    """
    rest = FeatStruct(query_fs)
    rest.pop("phon", None)
    return [fs for fs in results if subsumes(rest, fs)]


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
        return cls.from_paths(**{key: bundled_path(name) for key, name in BUNDLED_FILES.items()})

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

        trace.satisfying = (early_filter(trace.transformed, query_fs, phon, trace, self.db)
                            if use_early_filter else list(trace.transformed))

        for tp in trace.satisfying:
            trace.retrieved.extend(retrieve(tp, self.db, phon, trace))

        trace.results = final_filter(trace.retrieved, query_fs)
        return trace

    def query(self, query_fs: FeatStruct, use_early_filter: bool = True) -> list:
        return self.run(query_fs, use_early_filter=use_early_filter).results
