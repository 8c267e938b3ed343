"""Tests for the four-phase query engine."""

import pytest
from hypothesis import given, strategies as st

from turklex.catmap import Cat5
from turklex.engine import (
    DropRecord,
    EliminationRecord,
    FsdbAccess,
    MappingRecord,
    QueryError,
    QueryTrace,
    SkipRecord,
    TfsdbAccess,
    TransformedLevel,
    TransformedParse,
    build_derived,
    early_filter,
    final_filter,
    partial_outer_fs,
    retrieve,
    transform,
)
from turklex.featstruct import (
    ABSENT,
    DerivedConcept,
    FeatStruct,
    FSSet,
    Seq,
    fs_equal,
    get_path,
    parse_fs_text,
    render_fs,
    subsumes,
)
from turklex.fsdb import dumps
from turklex.morph import parse_parse_string

COMMON = Cat5.from_text("nominal,noun,common,none,none")
ATTR = Cat5.from_text("verb,attributive,none,none,none")


def q(text):
    return parse_fs_text(text)


def tlevel(cat, inflections=(), suffix=None):
    return TransformedLevel(cat, FeatStruct(list(inflections)), suffix)


class TestTransform:
    def test_lexical_mapping(self, engine):
        parse = parse_parse_string("[[CAT=NOUN][ROOT=at][AGR=3SG][POSS=1SG][CASE=NOM]]")
        tp = transform(parse, engine.rootmap, engine.derivmap, QueryTrace(surface="x"))
        assert tp.root == "at"
        assert len(tp.levels) == 1
        level = tp.levels[0]
        assert level.cat == COMMON
        assert level.suffix is None
        assert list(level.inflections.items()) == [
            ("agr", "3sg"), ("poss", "1sg"), ("case", "nom"),
        ]

    def test_derived_mapping(self, engine):
        parse = parse_parse_string(
            "[[CAT=NOUN][ROOT=at][AGR=3SG][POSS=NONE][CASE=NOM]"
            "[CONV=VERB=NONE][TAM2=PRES][AGR=1SG]]"
        )
        tp = transform(parse, engine.rootmap, engine.derivmap, QueryTrace(surface="x"))
        assert [level.cat for level in tp.levels] == [COMMON, ATTR]
        assert tp.levels[1].suffix == "none"

    def test_unknown_root_skips(self, engine):
        trace = QueryTrace(surface="atIm")
        parse = parse_parse_string("[[CAT=NOUN][ROOT=atIm][AGR=3SG][POSS=NONE][CASE=NOM]]")
        assert transform(parse, engine.rootmap, engine.derivmap, trace) is None
        (skip,) = trace.events_of(SkipRecord)
        assert (skip.proc_category, skip.proc_type, skip.name) == ("noun", "none", "atIm")
        # a skipped parse reports no mapping lines at all
        assert trace.events_of(MappingRecord) == []

    def test_unknown_derivation_skips(self, engine):
        trace = QueryTrace(surface="x")
        parse = parse_parse_string("[[CAT=NOUN][ROOT=at][CONV=NOUN=ACAK]]")
        assert transform(parse, engine.rootmap, engine.derivmap, trace) is None
        (skip,) = trace.events_of(SkipRecord)
        assert skip.name == "acak"
        # the lexical level mapped fine before the derivation failed
        assert len(trace.events_of(MappingRecord)) == 1

    def test_mapping_records_carry_categories(self, engine):
        trace = QueryTrace(surface="x")
        parse = parse_parse_string(
            "[[CAT=VERB][ROOT=kaz][SENSE=POS][CONV=NOUN=MA][TYPE=INFINITIVE]"
            "[AGR=3SG][POSS=NONE][CASE=NOM]]"
        )
        transform(parse, engine.rootmap, engine.derivmap, trace)
        lexical, derived = trace.events_of(MappingRecord)
        assert lexical.cat == Cat5.from_text("verb,predicative")
        assert (derived.proc_category, derived.proc_type, derived.name) == (
            "noun", "infinitive", "ma",
        )
        assert derived.cat == Cat5.from_text("nominal,sentential,act,infinitive,ma")


class TestEarlyFilter:
    def test_partial_shape_lexical(self):
        tp = TransformedParse("at", [tlevel(COMMON, [("agr", "3sg"), ("case", "nom")])])
        partial = partial_outer_fs(tp, "atIm")
        assert fs_equal(
            partial,
            q("[cat:[maj:nominal, min:noun, sub:common, ssub:none, sssub:none], "
              "morph:[stem:at, agr:3sg, case:nom], phon:atIm]"),
        )

    def test_partial_shape_derived(self):
        tp = TransformedParse(
            "at",
            [tlevel(COMMON, [("case", "nom")]),
             tlevel(ATTR, [("tam2", "pres")], suffix="none")],
        )
        partial = partial_outer_fs(tp, "atIm")
        # the outermost level is approximated, not the lexical one
        assert get_path(partial, "morph|derv_suffix") == "none"
        assert get_path(partial, "morph|stem") is ABSENT
        assert get_path(partial, "morph|tam2") == "pres"

    def test_no_restriction_keeps_everything(self):
        tps = [TransformedParse("at", [tlevel(COMMON)])]
        assert early_filter(tps, q("[phon:atIm]"), "atIm", QueryTrace(surface="atIm")) == tps

    def test_value_conflict_eliminates(self):
        tps = [TransformedParse("at", [tlevel(COMMON, [("poss", "none")])])]
        assert early_filter(tps, q("[phon:atIm, morph:[poss:'1sg']]"), "atIm",
                            QueryTrace(surface="atIm")) == []

    def test_absence_eliminates(self):
        # closed-world: a level without poss cannot satisfy a poss restriction
        tps = [TransformedParse("at", [tlevel(COMMON, [("agr", "3sg")])])]
        assert early_filter(tps, q("[phon:atIm, morph:[poss:'1sg']]"), "atIm",
                            QueryTrace(surface="atIm")) == []

    def test_sem_restrictions_do_not_eliminate(self):
        # the partial structure has no sem block, so sem must wait for phase 4
        tps = [TransformedParse("at", [tlevel(COMMON)])]
        kept = early_filter(tps, q("[phon:atIm, sem:[animate:'-']]"), "atIm",
                            QueryTrace(surface="atIm"))
        assert kept == tps

    def test_elimination_recorded(self, engine):
        trace = QueryTrace(surface="atIm")
        tps = [TransformedParse("at", [tlevel(COMMON, [("poss", "none")])])]
        early_filter(tps, q("[phon:atIm, morph:[poss:'1sg']]"), "atIm", trace)
        (elim,) = trace.events_of(EliminationRecord)
        assert get_path(elim.partial, "morph|poss") == "none"


class TestBuildDerived:
    def stem(self, engine):
        from turklex.fsdb import lookup
        import copy

        (entry,) = lookup(engine.db, COMMON, "at")
        return copy.deepcopy(entry.fs)

    def test_template_order_with_overrides(self, engine):
        level = tlevel(ATTR, [("tam2", "pres"), ("agr", "1sg")], suffix="none")
        fs = build_derived(level, self.stem(engine), engine.db, QueryTrace(surface="x"))
        assert list(fs["morph"].keys()) == [
            "stem", "form", "derv_suffix", "tam2", "copula", "agr",
        ]
        assert fs["morph"]["tam2"] == "pres"
        assert fs["morph"]["copula"] == "none"  # untouched default
        assert fs["morph"]["agr"] == "1sg"
        assert fs["morph"]["form"] == "derived"

    def test_leftover_inflections_appended(self, engine):
        level = tlevel(ATTR, [("tam2", "pres"), ("polarity", "pos")], suffix="none")
        fs = build_derived(level, self.stem(engine), engine.db, QueryTrace(surface="x"))
        assert list(fs["morph"].keys())[-1] == "polarity"

    def test_concept_wrapping(self, engine):
        level = tlevel(ATTR, suffix="none")
        fs = build_derived(level, self.stem(engine), engine.db, QueryTrace(surface="x"))
        concept = fs["sem"]["concept"]
        assert isinstance(concept, DerivedConcept)
        assert repr(concept) == "none(at-(horse))"

    def test_stem_phon_forced_to_none(self, engine):
        stem = self.stem(engine)
        level = tlevel(ATTR, suffix="none")
        fs = build_derived(level, stem, engine.db, QueryTrace(surface="x"))
        assert fs["morph"]["stem"] is stem
        assert stem["phon"] == "none"
        assert fs["phon"] == "none"

    def test_subcat_shared_when_structured(self, engine):
        from turklex.fsdb import lookup
        import copy

        (kaz,) = lookup(engine.db, Cat5.from_text("verb,predicative"), "kaz")
        stem = copy.deepcopy(kaz.fs)
        level = tlevel(Cat5.from_text("nominal,sentential,act,infinitive,ma"), suffix="ma")
        fs = build_derived(level, stem, engine.db, QueryTrace(surface="x"))
        assert fs["syn"]["subcat"] is stem["syn"]["subcat"]
        assert isinstance(fs["syn"]["subcat"], Seq)
        # thematic roles travel with the stem too, preserving co-indexing
        assert fs["sem"]["roles"] is stem["sem"]["roles"]

    def test_atomic_subcat_copied(self, engine):
        level = tlevel(ATTR, suffix="none")
        fs = build_derived(level, self.stem(engine), engine.db, QueryTrace(surface="x"))
        assert fs["syn"]["subcat"] == "none"

    def test_template_extras_filled(self, engine):
        # the qualitative-adjective template contributes modifies/gradable
        level = tlevel(Cat5.from_text("adjectival,adjective,qualitative"), suffix="lI")
        fs = build_derived(level, self.stem(engine), engine.db, QueryTrace(surface="x"))
        assert get_path(fs, "syn|modifies|cat|min") == "noun"
        assert fs["sem"]["gradable"] == "-"
        assert fs["sem"]["questional"] == "-"
        assert fs["morph"]["poss"] == "none"

    def test_missing_template_drops(self, engine):
        trace = QueryTrace(surface="x")
        level = tlevel(Cat5.from_text("verb,existential"), suffix="none")
        assert build_derived(level, self.stem(engine), engine.db, trace) is None
        assert trace.events_of(TfsdbAccess)  # access is recorded before the miss
        assert trace.events_of(DropRecord)


class TestRetrieve:
    def test_sense_multiplicity(self, engine):
        tp = TransformedParse("ek", [tlevel(COMMON, [("case", "nom")])])
        results = retrieve(tp, engine.db, "ek", QueryTrace(surface="ek"))
        assert len(results) == 2

    def test_access_recorded_with_count(self, engine):
        trace = QueryTrace(surface="ek")
        tp = TransformedParse("ek", [tlevel(COMMON)])
        retrieve(tp, engine.db, "ek", trace)
        (access,) = trace.events_of(FsdbAccess)
        assert (access.cat, access.root, access.count) == (COMMON, "ek", 2)

    def test_unknown_root_empty(self, engine):
        tp = TransformedParse("yol", [tlevel(COMMON)])
        assert retrieve(tp, engine.db, "yol", QueryTrace(surface="yol")) == []

    def test_outermost_phon_is_surface(self, engine):
        tp = TransformedParse("at", [tlevel(COMMON, [("poss", "1sg")])])
        (fs,) = retrieve(tp, engine.db, "atIm", QueryTrace(surface="atIm"))
        assert fs["phon"] == "atIm"

    def test_conflicting_inflections_drop_sense(self, engine):
        trace = QueryTrace(surface="at")
        # "form" clashes with the entry's morph|form=lexical
        tp = TransformedParse("at", [tlevel(COMMON, [("form", "derived")])])
        assert retrieve(tp, engine.db, "at", trace) == []
        assert trace.events_of(DropRecord)

    def test_results_do_not_alias_database(self, engine):
        tp = TransformedParse("at", [tlevel(COMMON)])
        (fs,) = retrieve(tp, engine.db, "at", QueryTrace(surface="at"))
        fs["sem"]["animate"] = "-"
        (fresh,) = retrieve(tp, engine.db, "at", QueryTrace(surface="at"))
        assert fresh["sem"]["animate"] == "+"


    def test_results_alias_no_entry_template_or_other_result(self):
        from turklex.engine import LexiconEngine

        engine = LexiconEngine.from_bundled_data()  # mutated below if aliased
        queries = [q(f"[phon:{surface}]") for surface in ("kazma", "atIm", "akIllIca")]
        db_text = dumps(engine.db)
        expected = [[render_fs(fs) for fs in engine.query(query)] for query in queries]
        assert all(expected)

        nodes, seen = [], set()
        stack = [fs for query in queries for fs in engine.query(query)]
        while stack:
            node = stack.pop()
            if isinstance(node, (FeatStruct, Seq, FSSet)) and id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node.values() if isinstance(node, FeatStruct) else node)
        for node in nodes:
            if isinstance(node, FeatStruct):
                for name in list(node.keys()):
                    node[name] = "mutated"
                node["extra"] = "mutated"
            else:
                node[:] = ["mutated"]

        for query, texts in zip(queries, expected):
            again = engine.query(query)
            assert [render_fs(fs) for fs in again] == texts
            for fs, text in zip(again, texts):
                assert fs_equal(fs, parse_fs_text(text))
        assert dumps(engine.db) == db_text


class TestFinalFilter:
    def test_full_query_subsumption(self, engine):
        tp = TransformedParse("ek", [tlevel(COMMON)])
        results = retrieve(tp, engine.db, "ek", QueryTrace(surface="ek"))
        kept = final_filter(results, q("[phon:ek, sem:[concept:ek-(appendix)]]"))
        assert len(kept) == 1
        assert kept[0]["sem"]["concept"].gloss == "appendix"

    def test_absent_path_eliminates(self, engine):
        tp = TransformedParse("ek", [tlevel(COMMON)])
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

    def test_count_bookkeeping(self, engine):
        trace = engine.run(q("[phon:memnunum, cat:[maj:verb]]"))
        n_skips = len(trace.events_of(SkipRecord))
        n_elims = len(trace.events_of(EliminationRecord))
        assert len(trace.transformed) == len(trace.parses) - n_skips
        assert len(trace.satisfying) == len(trace.transformed) - n_elims

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
        assert depth(trace.results[0]) == len(trace.satisfying[0].levels) == 3

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
