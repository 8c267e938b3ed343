"""Tests for the four-phase query engine."""

import dataclasses
import importlib.util
import shutil
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from turklex._data import BUNDLED_FILES, bundled_path
from turklex.catmap import Cat5
from turklex.engine import (
    LexiconEngine,
    DropRecord,
    FsdbAccess,
    QueryError,
    QueryTrace,
    TfsdbAccess,
    build_derived,
    early_filter,
    final_filter,
    partial_outer_fs,
    retrieve,
    transform,
)
from turklex.featstruct import (
    DerivedConcept,
    FeatStruct,
    FrozenFeatStruct,
    Seq,
    copy_fs,
    fs_equal,
    get_path,
    node_counts,
    parse_fs_text,
    render_fs,
    subsumes,
)
from turklex.fsdb import Database, TemplateEntry, clause_line, dumps, lookup
from turklex.morph import AnalyzerTable, Level, parse_parse_string

from .test_featstruct import holds_none
from .test_fsdb import load_unshared

COMMON = Cat5.from_text("nominal,noun,common,none,none")
ATTR = Cat5.from_text("verb,attributive,none,none,none")


def q(text):
    return parse_fs_text(text)


def mapped(cat, name, inflections=()):
    """A phase-2 ``(level, cat)`` pair: an analyzer level named ``name`` (the
    root on the lexical level, the suffix on a derived one) mapped to ``cat``."""
    return Level("noun", "none", name, tuple(inflections)), cat


class TestTransform:
    def test_lexical_mapping(self, engine):
        parse = parse_parse_string("[[CAT=NOUN][ROOT=at][AGR=3SG][POSS=1SG][CASE=NOM]]")
        tp = transform(parse, engine.rootmap, engine.derivmap, QueryTrace(surface="x"))
        assert len(tp) == 1
        ((level, cat),) = tp
        assert level.name == "at"
        assert cat == COMMON
        assert level is parse.levels[0]  # the lexical level, named by its root
        assert level.inflections == (("agr", "3sg"), ("poss", "1sg"), ("case", "nom"))

    def test_derived_mapping(self, engine):
        parse = parse_parse_string(
            "[[CAT=NOUN][ROOT=at][AGR=3SG][POSS=NONE][CASE=NOM]"
            "[CONV=VERB=NONE][TAM2=PRES][AGR=1SG]]"
        )
        tp = transform(parse, engine.rootmap, engine.derivmap, QueryTrace(surface="x"))
        assert [cat for _, cat in tp] == [COMMON, ATTR]
        assert tp[1][0].name == "none"

    def test_unknown_root_skips(self, engine):
        trace = QueryTrace(surface="atIm")
        parse = parse_parse_string("[[CAT=NOUN][ROOT=atIm][AGR=3SG][POSS=NONE][CASE=NOM]]")
        assert transform(parse, engine.rootmap, engine.derivmap, trace) is None
        ((skip, cat),) = trace.mappings
        assert (skip.proc_category, skip.proc_type, skip.name) == ("noun", "none", "atIm")
        # a skipped parse reports no mapping lines at all
        assert cat is None

    def test_unknown_derivation_skips(self, engine):
        trace = QueryTrace(surface="x")
        parse = parse_parse_string("[[CAT=NOUN][ROOT=at][CONV=NOUN=ACAK]]")
        assert transform(parse, engine.rootmap, engine.derivmap, trace) is None
        (skip, cat) = trace.mappings[-1]
        assert (skip.name, cat) == ("acak", None)
        # the lexical level mapped fine before the derivation failed
        assert len(trace.mappings) == 2

    def test_mapping_records_carry_categories(self, engine):
        trace = QueryTrace(surface="x")
        parse = parse_parse_string(
            "[[CAT=VERB][ROOT=kaz][SENSE=POS][CONV=NOUN=MA][TYPE=INFINITIVE]"
            "[AGR=3SG][POSS=NONE][CASE=NOM]]"
        )
        transform(parse, engine.rootmap, engine.derivmap, trace)
        (lexical, lexical_cat), (derived, derived_cat) = trace.mappings
        assert lexical_cat == Cat5.from_text("verb,predicative")
        assert (derived.proc_category, derived.proc_type, derived.name) == (
            "noun", "infinitive", "ma",
        )
        assert derived_cat == Cat5.from_text("nominal,sentential,act,infinitive,ma")

    def test_analyzer_levels_pass_through_uncopied(self, engine):
        # phase 2 copies nothing: the trace holds the analyzer's own levels,
        # and the transformed parse, a tuple of their pairs, is immutable by type
        trace = engine.run(q("[phon:akIllIca]"))
        (parse,) = engine.analyzer.parses["akIllIca"]
        assert len(trace.mappings) == len(parse.levels) == 3
        for (mapped, _), level in zip(trace.mappings, parse.levels):
            assert mapped is level
        (tp,) = trace.transformed
        assert isinstance(tp, tuple)
        for (transformed, _), level in zip(tp, parse.levels):
            assert isinstance(transformed.inflections, tuple)
            assert transformed.inflections is level.inflections

    def test_transformed_and_satisfying_hold_the_mapped_pairs(self, engine):
        # each transformed parse is the run of pairs phase 2 appended to
        # trace.mappings for it, the same objects, and so is each satisfying one
        for surface in sorted(set(engine.analyzer.surfaces())):
            trace = engine.run(FeatStruct([("phon", surface)]))
            pairs = iter(trace.mappings)
            expected = []
            for parse in trace.parses:
                tried = []
                for level in parse.levels:
                    tried.append(next(pairs))
                    assert tried[-1][0] is level, surface
                    if tried[-1][1] is None:
                        break
                if tried[-1][1] is not None:
                    expected.append(tried)
            assert next(pairs, None) is None, surface
            assert len(trace.transformed) == len(expected), surface
            for tp, tried in zip(trace.transformed, expected):
                assert len(tp) == len(tried), surface
                assert all(got is want for got, want in zip(tp, tried)), surface
            for tp in trace.satisfying:
                assert any(tp is transformed for transformed in trace.transformed), surface


class TestEarlyFilter:
    def test_partial_shape_lexical(self):
        tp = (mapped(COMMON, "at", [("agr", "3sg"), ("case", "nom")]),)
        partial = partial_outer_fs(tp, "atIm")
        assert fs_equal(
            partial,
            q("[cat:[maj:nominal, min:noun, sub:common, ssub:none, sssub:none], "
              "morph:[stem:at, agr:3sg, case:nom], phon:atIm]"),
        )
        assert partial["cat"] is COMMON.as_fs()

    def test_partial_shape_derived(self):
        tp = (
            mapped(COMMON, "at", [("case", "nom")]),
            mapped(ATTR, "none", [("tam2", "pres")]),
        )
        partial = partial_outer_fs(tp, "atIm")
        # the outermost level is approximated, not the lexical one
        assert get_path(partial, "morph|derv_suffix") == "none"
        assert get_path(partial, "morph|stem") is None
        assert get_path(partial, "morph|tam2") == "pres"
        assert partial["cat"] is ATTR.as_fs()

    def test_no_restriction_keeps_everything(self, engine):
        tps = [(mapped(COMMON, "at"),)]
        assert early_filter(tps, q("[phon:atIm]"), "atIm", QueryTrace(surface="atIm"),
                            engine.db) == tps

    def test_value_conflict_eliminates(self, engine):
        tps = [(mapped(COMMON, "at", [("poss", "none")]),)]
        assert early_filter(tps, q("[phon:atIm, morph:[poss:'1sg']]"), "atIm",
                            QueryTrace(surface="atIm"), engine.db) == []

    def test_absence_eliminates(self, engine):
        # a level without poss, whose root's senses carry no poss either,
        # cannot satisfy a poss restriction: the final filter is closed-world
        assert not any("poss" in entry.fs["morph"] for entry in lookup(engine.db, COMMON, "at"))
        tps = [(mapped(COMMON, "at", [("agr", "3sg")]),)]
        assert early_filter(tps, q("[phon:atIm, morph:[poss:'1sg']]"), "atIm",
                            QueryTrace(surface="atIm"), engine.db) == []

    def test_sem_restrictions_do_not_eliminate(self, engine):
        # the partial structure has no sem block, so sem must wait for phase 4
        tps = [(mapped(COMMON, "at"),)]
        kept = early_filter(tps, q("[phon:atIm, sem:[animate:'-']]"), "atIm",
                            QueryTrace(surface="atIm"), engine.db)
        assert kept == tps

    @pytest.fixture
    def built(self, monkeypatch):
        """The arguments of each partial structure the engine builds."""
        calls = []
        monkeypatch.setattr("turklex.engine.partial_outer_fs",
                            lambda *args: calls.append(args) or partial_outer_fs(*args))
        return calls

    @pytest.mark.parametrize("rest", ["", ", sem:[temporal:+]", ", syn:[subcat:none]"])
    def test_no_cat_or_morph_restriction_keeps_every_parse(self, engine, built, rest):
        for surface in sorted(set(engine.analyzer.surfaces())):
            query_fs = q(f"[phon:{surface}{rest}]")
            trace = engine.run(query_fs)
            assert len(trace.satisfying) == len(trace.transformed), surface
            assert all(kept is tp for kept, tp in zip(trace.satisfying, trace.transformed))
            assert trace.eliminated == [], surface
            late = engine.query(query_fs, use_early_filter=False)
            assert list(map(render_fs, trace.results)) == list(map(render_fs, late)), surface
        assert built == []

    @pytest.mark.parametrize("block", ["cat", "morph"])
    def test_an_empty_cat_or_morph_block_is_still_checked(self, engine, built, block):
        for surface in sorted(set(engine.analyzer.surfaces())):
            del built[:]
            trace = engine.run(q(f"[phon:{surface}, {block}:[]]"))
            assert len(built) == len(trace.transformed), surface
            plain = engine.query(q(f"[phon:{surface}]"))
            assert list(map(render_fs, trace.results)) == list(map(render_fs, plain)), surface

    @pytest.mark.parametrize(
        "query",
        [
            "[phon:atIm]",
            "[phon:memnunum, cat:[maj:verb]]",
            "[phon:ekim, morph:[poss:'1sg']]",
            "[phon:ekimde, morph:[poss:none], sem:[temporal:+]]",
            "[phon:kazma]",
            "[phon:akIllIca]",
            "[phon:kazma, cat:[maj:verb], morph:[form:derived]]",
        ],
    )
    def test_run_leaves_the_query_unchanged(self, engine, query):
        # phase 3 reads the query's own cat and morph blocks, not copies
        query_fs = q(query)
        text, blocks = render_fs(query_fs), [query_fs.get("cat"), query_fs.get("morph")]
        engine.run(query_fs)
        assert render_fs(query_fs) == text
        assert query_fs.get("cat") is blocks[0] and query_fs.get("morph") is blocks[1]

    def test_elimination_recorded(self, engine):
        trace = QueryTrace(surface="atIm")
        tps = [(mapped(COMMON, "at", [("poss", "none")]),)]
        early_filter(tps, q("[phon:atIm, morph:[poss:'1sg']]"), "atIm", trace, engine.db)
        (partial,) = trace.eliminated
        assert get_path(partial, "morph|poss") == "none"


class TestSoundRestriction:
    """A parse is eliminated early only if the final filter would drop each
    of its results: a path its partial structure lacks keeps it when the
    level can carry the name."""

    @pytest.mark.parametrize(
        "query",
        # form is set in retrieval, copula is a template default of the verb
        ["[phon:kazma, morph:[form:derived]]", "[phon:atIm, morph:[copula:none]]"],
    )
    def test_a_name_the_level_carries_keeps_the_parse(self, engine, query):
        for early in (True, False):
            assert len(engine.query(q(query), use_early_filter=early)) == 1

    @pytest.mark.parametrize(
        "query, eliminated, concepts",
        [
            # every sense holds form:lexical, and every derived level form:derived
            ("[phon:kazma, morph:[form:lexical]]", 1, ["kazma-(pickaxe)", "kaz-(dig)"]),
            ("[phon:kazma, morph:[form:derived]]", 2, ["f_ma(kaz-(dig))"]),
            # a derived level's stem is a structure, which no atom meets ...
            ("[phon:kazma, morph:[stem:kaz]]", 2, ["kaz-(dig)"]),
            # ... and a structure may
            ("[phon:kazma, morph:[stem:[cat:[maj:verb]]]]", 2, ["f_ma(kaz-(dig))"]),
            # the verb's template fixes copula:none
            ("[phon:atIm, morph:[copula:pres]]", 2, []),
        ],
    )
    def test_a_value_the_level_fixes_is_checked(self, engine, query, eliminated, concepts):
        trace = engine.run(q(query))
        assert len(trace.eliminated) == eliminated
        assert [repr(fs["sem"]["concept"]) for fs in trace.results] == concepts
        late = engine.query(q(query), use_early_filter=False)
        assert list(map(render_fs, late)) == list(map(render_fs, trace.results))

    @pytest.mark.parametrize("query", ["[phon:kazma, cat:verb]", "[phon:kazma, morph:none]"])
    def test_a_block_that_is_not_a_structure_eliminates_every_parse(self, engine, query):
        trace = engine.run(q(query))
        assert len(trace.eliminated) == len(trace.transformed) == 3
        assert trace.results == []
        assert engine.query(q(query), use_early_filter=False) == []

    def test_a_derived_level_without_a_template_is_eliminated(self, tmp_path):
        for name in DATA_FILES:
            shutil.copy(bundled_path(name), tmp_path / name)
        db = tmp_path / "lexicon.fdb"
        lines = db.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [line for line in lines
                if not line.startswith("template nominal,sentential,act,infinitive,ma ")]
        assert len(kept) == len(lines) - 1
        db.write_text("".join(kept), encoding="utf-8")
        engine = _engine_in(tmp_path)

        query = q("[phon:kazma, morph:[copula:none]]")
        trace = engine.run(query)
        # kazma's noun and verb senses hold no copula, and the infinitive,
        # whose template would, is dropped in retrieval: no parse gets there
        assert len(trace.eliminated) == 3
        assert not any(isinstance(event, DropRecord) for event in trace.events)
        late = engine.run(query, use_early_filter=False)
        assert trace.results == late.results == []
        assert [event.reason for event in late.events if isinstance(event, DropRecord)] == [
            "no template for nominal,sentential,act,infinitive,ma"
        ]

    def test_a_sixth_cat_name_of_an_entry_is_carried(self, tmp_path):
        for name in DATA_FILES:
            shutil.copy(bundled_path(name), tmp_path / name)
        db = tmp_path / "lexicon.fdb"
        text = db.read_text(encoding="utf-8")
        old = "entry nominal,noun,common,none,none at := [cat:[maj:nominal, min:noun, " \
              "sub:common, ssub:none, sssub:none]"
        assert old in text
        db.write_text(text.replace(old, f"{old[:-1]}, extra:x]"), encoding="utf-8")
        engine = _engine_in(tmp_path)

        query = q("[phon:atIm, cat:[extra:x]]")
        trace = engine.run(query)
        (noun,) = trace.results
        assert get_path(noun, "cat|extra") == "x"
        # the verb derived from at takes its cat from a template without it
        (partial,) = trace.eliminated
        assert get_path(partial, "cat|maj") == "verb"
        assert list(map(render_fs, engine.query(query, use_early_filter=False))) == [
            render_fs(noun)
        ]
        # the check reads the parse's own root: no sense of ek holds the name
        other = engine.run(q("[phon:ekim, cat:[extra:x]]"))
        assert other.transformed and len(other.eliminated) == len(other.transformed)
        assert other.results == engine.query(q("[phon:ekim, cat:[extra:x]]"),
                                             use_early_filter=False) == []


class TestSequenceAndSetRestrictions:
    """The final filter compares a ``subcat`` sequence member by member and
    a constraint set by its members: a shorter sequence, or a member whose
    constraint set differs, leaves none of kaz's two verb readings."""

    @pytest.mark.parametrize(
        "query, concepts",
        [
            ("[phon:kazma, syn:[subcat:<[syn-role:subject]>]]", []),
            ("[phon:kazma, syn:[subcat:<[syn-role:subject], [syn-role:dir-obj], []>]]", []),
            ("[phon:kazma, syn:[subcat:<[syn-role:subject], [syn-role:dir-obj]>]]",
             ["kaz-(dig)", "f_ma(kaz-(dig))"]),
            ("[phon:kazma, syn:[subcat:<[constraints:{[morph:[case:dat]]}], []>]]", []),
            ("[phon:kazma, syn:[subcat:<[constraints:{[morph:[case:nom]]}], []>]]",
             ["kaz-(dig)", "f_ma(kaz-(dig))"]),
        ],
    )
    def test_subcat_is_matched_whole(self, engine, query, concepts):
        for early in (True, False):
            results = engine.query(q(query), use_early_filter=early)
            assert [repr(fs["sem"]["concept"]) for fs in results] == concepts


class TestTraceLists:
    def test_a_trace_owns_its_lists(self, engine):
        query = q("[phon:kazma]")
        first = engine.run(query)
        before = [list(first.parses), list(first.mappings), list(first.transformed)]
        first.parses.pop()
        first.mappings.append(first.mappings[0])
        first.transformed.reverse()
        second = engine.run(query)
        for got, want in zip((second.parses, second.mappings, second.transformed), before):
            assert got == want


class TestBuildDerived:
    def stem(self, engine):
        import copy

        (entry,) = lookup(engine.db, COMMON, "at")
        return copy.deepcopy(entry.fs)

    def test_template_order_with_overrides(self, engine):
        level, cat = mapped(ATTR, "none", [("tam2", "pres"), ("agr", "1sg")])
        fs = build_derived(level, cat, self.stem(engine), engine.db, QueryTrace(surface="x"))
        assert list(fs["morph"].keys()) == [
            "stem", "form", "derv_suffix", "tam2", "copula", "agr",
        ]
        assert fs["morph"]["tam2"] == "pres"
        assert fs["morph"]["copula"] == "none"  # untouched default
        assert fs["morph"]["agr"] == "1sg"
        assert fs["morph"]["form"] == "derived"

    def test_leftover_inflections_appended(self, engine):
        level, cat = mapped(ATTR, "none", [("tam2", "pres"), ("polarity", "pos")])
        fs = build_derived(level, cat, self.stem(engine), engine.db, QueryTrace(surface="x"))
        assert list(fs["morph"].keys())[-1] == "polarity"

    def test_concept_wrapping(self, engine):
        level, cat = mapped(ATTR, "none")
        fs = build_derived(level, cat, self.stem(engine), engine.db, QueryTrace(surface="x"))
        concept = fs["sem"]["concept"]
        assert isinstance(concept, DerivedConcept)
        assert repr(concept) == "none(at-(horse))"

    def test_stem_phon_forced_to_none(self, engine):
        stem = self.stem(engine)
        level, cat = mapped(ATTR, "none")
        fs = build_derived(level, cat, stem, engine.db, QueryTrace(surface="x"))
        assert fs["morph"]["stem"] is stem
        assert stem["phon"] == "none"
        assert fs["phon"] == "none"

    def test_subcat_shared_when_structured(self, engine):
        import copy

        (kaz,) = lookup(engine.db, Cat5.from_text("verb,predicative"), "kaz")
        stem = copy.deepcopy(kaz.fs)
        level, cat = mapped(Cat5.from_text("nominal,sentential,act,infinitive,ma"), "ma")
        fs = build_derived(level, cat, stem, engine.db, QueryTrace(surface="x"))
        assert fs["syn"]["subcat"] is stem["syn"]["subcat"]
        assert isinstance(fs["syn"]["subcat"], Seq)
        # thematic roles travel with the stem too, preserving co-indexing
        assert fs["sem"]["roles"] is stem["sem"]["roles"]

    def test_atomic_subcat_copied(self, engine):
        level, cat = mapped(ATTR, "none")
        fs = build_derived(level, cat, self.stem(engine), engine.db, QueryTrace(surface="x"))
        assert fs["syn"]["subcat"] == "none"

    def test_template_extras_filled(self, engine):
        # the qualitative-adjective template contributes modifies/gradable
        level, cat = mapped(Cat5.from_text("adjectival,adjective,qualitative"), "lI")
        fs = build_derived(level, cat, self.stem(engine), engine.db, QueryTrace(surface="x"))
        assert get_path(fs, "syn|modifies|cat|min") == "noun"
        assert fs["sem"]["gradable"] == "-"
        assert fs["sem"]["questional"] == "-"
        assert fs["morph"]["poss"] == "none"

    def test_missing_template_drops(self, engine):
        trace = QueryTrace(surface="x")
        level, cat = mapped(Cat5.from_text("verb,existential"), "none")
        assert build_derived(level, cat, self.stem(engine), engine.db, trace) is None
        access, drop = trace.events  # access is recorded before the miss
        assert isinstance(access, TfsdbAccess) and isinstance(drop, DropRecord)


# The morph block build_derived wrote before it became two dict updates: the
# oracle for the property below.
def _pending_morph(stem_fs, suffix, template_morph, inflections):
    morph = FeatStruct([("stem", stem_fs), ("form", "derived"), ("derv_suffix", suffix)])
    pending = dict(inflections)
    for name, default_value in template_morph.items():
        morph[name] = pending.pop(name, default_value)
    for name, value in inflections:
        if name in pending:
            morph[name] = value
    return morph


# names that overlap each other and the three features build_derived sets itself
_derived_morph_name = st.sampled_from(
    ["stem", "form", "derv_suffix", "agr", "poss", "case", "tam2", "copula"]
)
_derived_morph_value = st.sampled_from(["none", "3sg", "1sg", "pres", "derived", "lexical"])


@given(
    defaults=st.lists(st.tuples(_derived_morph_name, _derived_morph_value),
                      unique_by=lambda pair: pair[0]),
    inflections=st.lists(st.tuples(_derived_morph_name, _derived_morph_value), max_size=6),
)
def test_derived_morph_matches_the_pending_construction(defaults, inflections):
    template = FeatStruct([("cat", ATTR.as_fs())])
    if defaults:
        template["morph"] = FeatStruct(defaults)
    db = Database()
    db.templates[ATTR] = TemplateEntry(ATTR, template)
    stem = q("[syn:[subcat:none], sem:[concept:at-(horse)]]")
    level, cat = mapped(ATTR, "none", inflections)

    fs = build_derived(level, cat, stem, db, QueryTrace(surface="x"))
    expected = _pending_morph(stem, "none", template.get("morph", {}), level.inflections)
    assert list(fs["morph"]) == list(expected)
    assert all(fs["morph"][name] is value for name, value in expected.items())


class TestRetrieve:
    def test_sense_multiplicity(self, engine):
        tp = (mapped(COMMON, "ek", [("case", "nom")]),)
        results = retrieve(tp, engine.db, "ek", QueryTrace(surface="ek"))
        assert len(results) == 2

    def test_access_recorded_with_count(self, engine):
        trace = QueryTrace(surface="ek")
        tp = (mapped(COMMON, "ek"),)
        retrieve(tp, engine.db, "ek", trace)
        (access,) = trace.events
        assert isinstance(access, FsdbAccess)
        assert (access.cat, access.root, access.count) == (COMMON, "ek", 2)

    def test_unknown_root_empty(self, engine):
        tp = (mapped(COMMON, "yol"),)
        assert retrieve(tp, engine.db, "yol", QueryTrace(surface="yol")) == []

    def test_outermost_phon_is_surface(self, engine):
        tp = (mapped(COMMON, "at", [("poss", "1sg")]),)
        (fs,) = retrieve(tp, engine.db, "atIm", QueryTrace(surface="atIm"))
        assert fs["phon"] == "atIm"

    def test_conflicting_inflections_drop_sense(self, engine):
        trace = QueryTrace(surface="at")
        # "form" clashes with the entry's morph|form=lexical
        tp = (mapped(COMMON, "at", [("form", "derived")]),)
        assert retrieve(tp, engine.db, "at", trace) == []
        access, drop = trace.events
        assert isinstance(drop, DropRecord)

    def test_result_shares_the_senses_unchanged_nodes(self, engine):
        (entry,) = lookup(engine.db, COMMON, "at")
        tp = (mapped(COMMON, "at", [("poss", "1sg")]),)
        (fs,) = retrieve(tp, engine.db, "atIm", QueryTrace(surface="atIm"))
        # only the root and the morph block, on the path to the change, are new
        assert fs is not entry.fs and fs["morph"] is not entry.fs["morph"]
        for name in ("cat", "syn", "sem"):
            assert fs[name] is entry.fs[name]
        assert fs["morph"] == q("[stem:at, form:lexical, poss:'1sg']")
        assert entry.fs["morph"] == q("[stem:at, form:lexical]")
        assert entry.fs["phon"] == "at"

    def test_derived_levels_share_the_templates_nodes(self, engine):
        adj = Cat5.from_text("adjectival,adjective,qualitative")
        template = engine.db.templates[adj].fs
        tp = (mapped(COMMON, "akIl"), mapped(adj, "lI"), mapped(adj, "lIk"))
        (outer,) = retrieve(tp, engine.db, "akIllIlIk", QueryTrace(surface="akIllIlIk"))
        inner = outer["morph"]["stem"]
        # both adjectival levels read the template in place: its nodes are
        # frozen values, so holding them twice is no co-indexing
        for level in (inner, outer):
            assert level["cat"] is template["cat"]
            assert level["syn"]["modifies"] is template["syn"]["modifies"]
        assert type(template["syn"]["modifies"]) is FrozenFeatStruct
        assert "@" not in render_fs(outer)


class TestFinalFilter:
    def test_full_query_subsumption(self, engine):
        tp = (mapped(COMMON, "ek"),)
        results = retrieve(tp, engine.db, "ek", QueryTrace(surface="ek"))
        kept = final_filter(results, q("[phon:ek, sem:[concept:ek-(appendix)]]"))
        assert len(kept) == 1
        assert kept[0]["sem"]["concept"].gloss == "appendix"

    def test_absent_path_eliminates(self, engine):
        tp = (mapped(COMMON, "ek"),)
        results = retrieve(tp, engine.db, "ek", QueryTrace(surface="ek"))
        assert final_filter(results, q("[phon:ek, morph:[poss:'1sg']]")) == []


class TestCheckConstraint:
    CONSTRAINT = "[cat:[maj:nominal, min:{noun, pronoun}], morph:[case:nom]]"

    def test_satisfied(self):
        fs = q("[cat:[maj:nominal, min:noun, sub:common], morph:[case:nom, agr:3sg]]")
        assert subsumes(q(self.CONSTRAINT), fs)

    def test_case_conflict(self):
        fs = q("[cat:[maj:nominal, min:noun], morph:[case:acc]]")
        assert not subsumes(q(self.CONSTRAINT), fs)

    def test_absent_feature_fails(self):
        fs = q("[cat:[maj:nominal, min:noun]]")
        assert not subsumes(q(self.CONSTRAINT), fs)

    def test_negation(self):
        constraint = q("[morph:[poss:!none]]")
        assert subsumes(constraint, q("[morph:[poss:'1sg']]"))
        assert not subsumes(constraint, q("[morph:[poss:none]]"))


class TestRunQuery:
    def test_requires_feature_structure(self, engine):
        with pytest.raises(QueryError):
            engine.query("[phon:atIm]")

    def test_requires_phon(self, engine):
        with pytest.raises(QueryError, match="phon"):
            engine.query(q("[cat:[maj:verb]]"))

    def test_requires_atomic_phon(self, engine):
        with pytest.raises(QueryError, match="atomic"):
            engine.query(q("[phon:[a:b]]"))

    def test_unknown_surface_yields_nothing(self, engine):
        trace = engine.run(q("[phon:denizlerde]"))
        assert trace.parses == []
        assert trace.results == []

    def test_result_order_follows_parse_then_sense_order(self, engine):
        results = engine.query(q("[phon:kazma]"))
        concepts = [repr(fs["sem"]["concept"]) for fs in results]
        assert concepts == ["kazma-(pickaxe)", "kaz-(dig)", "f_ma(kaz-(dig))"]

    def test_determinism(self, engine):
        first = engine.query(q("[phon:atIm]"))
        second = engine.query(q("[phon:atIm]"))
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert fs_equal(a, b)

    def test_failed_derived_level_ends_its_parse_mappings(self, engine, tmp_path):
        path = tmp_path / "analyzer.tsv"
        path.write_text("atacak\t[[CAT=NOUN][ROOT=at][CONV=NOUN=ACAK]]\n", encoding="utf-8")
        engine = dataclasses.replace(engine, analyzer=AnalyzerTable.load(path))
        trace = engine.run(q("[phon:atacak]"))
        ((lexical, derived),) = [parse.levels for parse in trace.parses]
        assert trace.mappings == [(lexical, COMMON), (derived, None)]
        assert trace.mappings[0][0] is lexical and trace.mappings[1][0] is derived
        assert trace.transformed == []

    @pytest.mark.parametrize(
        "query",
        ["[phon:atIm]", "[phon:ekim, morph:[poss:'1sg']]",
         "[phon:ekimde, morph:[poss:none], sem:[temporal:+]]", "[phon:ekim, cat:[maj:verb]]"],
    )
    def test_eliminated_are_the_transformed_not_satisfying(self, engine, query):
        trace = engine.run(q(query))
        assert len(trace.eliminated) == len(trace.transformed) - len(trace.satisfying)

    def test_trace_fields_the_benchmark_reads(self, engine):
        # perfbench/run.py's Counts reads these lists and the FsdbAccess and
        # TfsdbAccess records in trace.events by name, through getattr with a
        # default: a rename would zero its counts silently instead of failing
        trace = engine.run(q("[phon:kazma]"))
        accesses = [e for e in trace.events if type(e).__name__ == "FsdbAccess"]
        templates = [e for e in trace.events if type(e).__name__ == "TfsdbAccess"]
        assert [access.count for access in accesses] == [1, 1, 1]
        assert len(templates) == 1
        names = ("parses", "transformed", "satisfying", "retrieved", "results")
        assert [len(getattr(trace, name)) for name in names] == [3, 3, 3, 3, 3]

    def test_count_bookkeeping(self, engine):
        trace = engine.run(q("[phon:memnunum, cat:[maj:verb]]"))
        n_skips = sum(cat is None for _, cat in trace.mappings)
        assert len(trace.transformed) == len(trace.parses) - n_skips
        assert len(trace.satisfying) == len(trace.transformed) - len(trace.eliminated)

    @pytest.mark.parametrize(
        "query",
        [
            "[phon:atIm]",
            "[phon:memnunum, cat:[maj:verb]]",
            "[phon:ekim, morph:[poss:'1sg']]",
            "[phon:ekimde, morph:[poss:none], sem:[temporal:+]]",
            "[phon:kazma]",
            "[phon:akIllIca]",
            "[phon:ekim, cat:[maj:nominal]]",
            "[phon:kazma, morph:[sense:neg]]",
        ],
    )
    def test_early_and_late_filtering_agree(self, engine, query):
        query_fs = q(query)
        early = engine.query(query_fs, use_early_filter=True)
        late = engine.query(query_fs, use_early_filter=False)
        assert len(early) == len(late)
        for a, b in zip(early, late):
            assert fs_equal(a, b)

    def test_results_satisfy_query(self, engine):
        query_fs = q("[phon:ekim, morph:[poss:'1sg']]")
        for fs in engine.query(query_fs):
            assert subsumes(query_fs, fs)

    def test_nesting_depth_matches_level_count(self, engine):
        def depth(fs):
            stem = get_path(fs, "morph|stem")
            return 1 + depth(stem) if isinstance(stem, FeatStruct) else 1

        trace = engine.run(q("[phon:akIllIca]"))
        assert depth(trace.results[0]) == len(trace.satisfying[0]) == 3

    def test_inner_phons_are_none(self, engine):
        (fs,) = engine.query(q("[phon:akIllIca]"))
        assert fs["phon"] == "akIllIca"
        inner = fs["morph"]["stem"]
        while isinstance(inner, FeatStruct):
            assert inner["phon"] == "none"
            inner = get_path(inner, "morph|stem")


# A light randomized sweep over restrictions the early filter can see:
# whatever the restriction, early and late filtering must agree and every
# result must satisfy the query.

_surfaces = st.sampled_from(["atIm", "memnunum", "ekim", "kazma", "ekimde", "akIllIca"])
_morph_name = st.sampled_from(["agr", "poss", "case", "tam2", "sense"])
_morph_value = st.sampled_from(["3sg", "1sg", "none", "nom", "loc", "pres", "neg", "pos"])
_maj = st.sampled_from(["nominal", "verb", "adjectival", "adverbial"])


@given(
    surface=_surfaces,
    restrict_morph=st.dictionaries(_morph_name, _morph_value, max_size=2),
    maj=st.one_of(st.none(), _maj),
)
def test_random_restrictions_sound_and_consistent(engine, surface, restrict_morph, maj):
    query_fs = FeatStruct([("phon", surface)])
    if maj is not None:
        query_fs["cat"] = FeatStruct([("maj", maj)])
    if restrict_morph:
        query_fs["morph"] = FeatStruct(sorted(restrict_morph.items()))
    early = engine.query(query_fs, use_early_filter=True)
    late = engine.query(query_fs, use_early_filter=False)
    assert len(early) == len(late)
    for a, b in zip(early, late):
        assert fs_equal(a, b)
    for fs in early:
        assert subsumes(query_fs, fs)


def test_nothing_built_holds_none(engine):
    """``None`` means "no value", so no clause, result or partial structure
    may hold it."""
    for clause in engine.db.clauses:
        assert not holds_none(clause.fs), clause_line(clause)
    for surface in engine.analyzer.surfaces():
        trace = engine.run(FeatStruct([("phon", surface)]))
        partials = [partial_outer_fs(tp, surface) for tp in trace.transformed]
        for fs in trace.results + trace.eliminated + partials:
            assert not holds_none(fs), (surface, fs)


# --------------------------------------------------------------------------
# results share the database's nodes, and no query writes to them

DATA_FILES = tuple(BUNDLED_FILES.values())
SYNTH = Path(__file__).resolve().parent.parent / "perfbench" / "synth.py"

# the bundled sense of "at", with its morph block co-indexed under syn
COINDEXED_AT = (
    "entry nominal,noun,common,none,none at := "
    "[cat:[maj:nominal, min:noun, sub:common, ssub:none, sssub:none], "
    "morph:@1=[stem:at, form:lexical], syn:[subcat:none, same:@1], "
    "sem:[concept:at-(horse), countable:+, animate:+], phon:at]"
)


def _engine_in(directory: Path) -> LexiconEngine:
    return LexiconEngine.from_paths(
        **{key: directory / name for key, name in BUNDLED_FILES.items()}
    )


def _coindexed_engine(directory: Path) -> LexiconEngine:
    """The bundled data, with the sense of "at" replaced by COINDEXED_AT."""
    for name in DATA_FILES:
        shutil.copy(bundled_path(name), directory / name)
    db = directory / "lexicon.fdb"
    lines = db.read_text(encoding="utf-8").splitlines()
    (i,) = [i for i, line in enumerate(lines) if line.startswith(COINDEXED_AT.split(":=")[0])]
    lines[i] = COINDEXED_AT
    db.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return _engine_in(directory)


def _synthetic_engine(directory: Path) -> LexiconEngine:
    """A 200-root lexicon written by ``perfbench/synth.py``."""
    spec = importlib.util.spec_from_file_location("synth", SYNTH)
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    synth.generate(directory, seed=1, roots=200)
    return _engine_in(directory)


ENGINES = {
    "bundled": lambda directory: LexiconEngine.from_bundled_data(),
    "synthetic": _synthetic_engine,
    "coindexed": _coindexed_engine,
}


def _built_ids(fs) -> set:
    """The ids of the nodes the engine builds for a result: the root and the
    morph block of every level, and the syn and sem of a derived one (whose
    cat is the template's)."""
    built = set()
    while True:
        built |= {id(fs), id(fs["morph"])}
        if fs["morph"]["form"] != "derived":
            return built
        built |= {id(fs["syn"]), id(fs["sem"])}
        fs = fs["morph"]["stem"]


@pytest.mark.parametrize("lexicon", sorted(ENGINES))
def test_every_answer_renders_as_from_unshared_loads(lexicon, tmp_path):
    """The loads share sets, cat blocks and the default syn between clauses,
    and levels between parses; no answer may show it."""
    engine = ENGINES[lexicon](tmp_path)
    db_path = tmp_path / "lexicon.fdb"
    unshared = dataclasses.replace(
        engine,
        analyzer=AnalyzerTable({surface: [parse_parse_string(parse.text) for parse in parses]
                                for surface, parses in engine.analyzer.parses.items()}),
        db=load_unshared(db_path if db_path.exists() else bundled_path("lexicon.fdb")),
    )
    for surface in engine.analyzer.surfaces():
        query = q(f"[phon:{surface}]")
        ours, theirs = engine.query(query), unshared.query(query)
        for style in ("compact", "indented"):
            assert ([render_fs(fs, style) for fs in ours]
                    == [render_fs(fs, style) for fs in theirs]), surface


@pytest.mark.parametrize("lexicon", sorted(ENGINES))
def test_a_partial_structure_holds_its_categorys_block(lexicon, tmp_path):
    engine = ENGINES[lexicon](tmp_path)
    for surface in sorted(set(engine.analyzer.surfaces())):
        trace = engine.run(q(f"[phon:{surface}, cat:[maj:verb]]"))
        blocks = {id(tp[-1][1].as_fs()) for tp in trace.transformed}
        assert {id(partial["cat"]) for partial in trace.eliminated} <= blocks, surface
        for tp in trace.transformed:
            assert partial_outer_fs(tp, surface)["cat"] is tp[-1][1].as_fs(), surface


@pytest.mark.parametrize("lexicon", sorted(ENGINES))
def test_no_query_mutates_the_database(lexicon, tmp_path):
    engine = ENGINES[lexicon](tmp_path)
    db = engine.db
    text = dumps(db)
    snapshot = [copy_fs(clause.fs) for clause in db.clauses]
    database = set().union(*(node_counts(clause.fs) for clause in db.clauses))

    for surface in sorted(set(engine.analyzer.surfaces())):
        for early in (True, False):
            results = engine.query(q(f"[phon:{surface}]"), use_early_filter=early)
            built = [_built_ids(fs) for fs in results]
            reached = [node_counts(fs).keys() for fs in results]
            for i, own in enumerate(built):
                assert own.isdisjoint(database), surface
                for j, other in enumerate(reached):
                    assert i == j or own.isdisjoint(other), surface

    for clause in db.clauses:
        clause.line = None  # so dumps renders every clause again
    assert dumps(db) == text
    for clause, before in zip(db.clauses, snapshot):
        assert fs_equal(clause.fs, before), clause_line(clause)


def test_coindexed_morph_keeps_its_tag_and_the_inflections(tmp_path):
    """A sense whose morph block is also reached from syn is unified whole:
    a copy of the root and the morph block alone would leave syn|same
    pointing at the database's block, without the inflections or the tag."""
    engine = _coindexed_engine(tmp_path)
    (entry,) = lookup(engine.db, COMMON, "at")
    expected = (
        "morph:@1=[stem:at, form:lexical, agr:3sg, poss:1sg, case:nom], "
        "syn:[subcat:none, same:@1]"
    )
    assert type(entry.fs["morph"]) is FeatStruct  # tagged, so mutable
    for early in (True, False):
        noun, _verb = engine.query(q("[phon:atIm]"), use_early_filter=early)
        assert expected in render_fs(noun)
