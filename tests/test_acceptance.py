"""Acceptance gate: one test per acceptance criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  These tests treat the engine as a black box and pin down
the documented behaviour of the bundled sample data end to end.
"""

import random
import time

import pytest

from . import oracle_unify

from turklex._data import bundled_path
from turklex.catmap import Cat5, load_inventory
from turklex.featstruct import (
    FeatStruct,
    Neg,
    fs_equal,
    get_path,
    parse_fs_text,
    render_fs,
    subsumes,
)
from turklex.fsdb import dumps, load


AT_NOMINAL = """
[cat:[maj:nominal, min:noun, sub:common, ssub:none, sssub:none],
 morph:[stem:at, form:lexical, agr:3sg, poss:'1sg', case:nom],
 syn:[subcat:none],
 sem:[concept:at-(horse), countable:+, animate:+, material:-, unit:-,
      container:-, spatial:-, temporal:-],
 phon:atIm]
"""

AT_VERBAL = """
[cat:[maj:verb, min:attributive, sub:none, ssub:none, sssub:none],
 morph:[stem:[cat:[maj:nominal, min:noun, sub:common, ssub:none, sssub:none],
              morph:[stem:at, form:lexical, agr:3sg, poss:none, case:nom],
              syn:[subcat:none],
              sem:[concept:at-(horse), countable:+, animate:+, material:-,
                   unit:-, container:-, spatial:-, temporal:-],
              phon:none],
        form:derived, derv_suffix:none, tam2:pres, copula:none, agr:'1sg'],
 syn:[subcat:none],
 sem:[concept:none(at-(horse)), roles:none],
 phon:atIm]
"""


def test_criterion_1_atim_interpretations(engine):
    trace = engine.run(parse_fs_text("[phon:atIm]"))
    assert len(trace.parses) == 3
    assert len(trace.transformed) == 2
    skips = [level for level, cat in trace.mappings if cat is None]
    assert [(s.proc_category, s.proc_type, s.name) for s in skips] == [
        ("noun", "none", "atIm")
    ]
    assert len(trace.results) == 2
    nominal, verbal = trace.results
    assert fs_equal(nominal, parse_fs_text(AT_NOMINAL))
    assert fs_equal(verbal, parse_fs_text(AT_VERBAL))


def test_criterion_2_memnunum_verb_restriction(engine):
    trace = engine.run(parse_fs_text("[phon:memnunum, cat:[maj:verb]]"))
    assert len(trace.parses) == 3
    skips = [level for level, cat in trace.mappings if cat is None]
    assert [(s.proc_category, s.proc_type, s.name) for s in skips] == [
        ("noun", "rproper", "memnun")
    ]
    (eliminated,) = trace.eliminated
    assert get_path(eliminated, "cat|min") == "noun"
    assert get_path(eliminated, "cat|sub") == "common"
    assert len(trace.results) == 1
    (result,) = trace.results
    assert repr(get_path(result, "sem|concept")) == "none(memnun-(satisfied))"
    assert get_path(result, "cat|maj") == "verb"
    assert get_path(result, "cat|min") == "attributive"


def test_criterion_3_ekim_first_person_possessive(engine):
    trace = engine.run(parse_fs_text("[phon:ekim, morph:[poss:'1sg']]"))
    assert len(trace.parses) == 3
    assert len(trace.transformed) == 3
    assert len(trace.eliminated) == 2
    accesses = trace.events
    assert [(a.cat.render(), a.root, a.count) for a in accesses] == [
        ("nominal,noun,common,none,none", "ek", 2)
    ]
    assert len(trace.results) == 2
    glosses = [get_path(fs, "sem|concept").gloss for fs in trace.results]
    assert glosses == ["suffix", "appendix"]
    for fs in trace.results:
        assert get_path(fs, "morph|poss") == "1sg"
        assert get_path(fs, "sem|countable") == "+"
        assert get_path(fs, "sem|animate") == "-"


def test_criterion_4_ekimde_temporal_restriction(engine):
    trace = engine.run(
        parse_fs_text("[phon:ekimde, morph:[poss:none], sem:[temporal:+]]")
    )
    # the possessive reading (both senses of "ek") dies in the early phase,
    # so only October's sense is ever retrieved
    assert len(trace.eliminated) == 1
    accesses = trace.events
    assert [(a.root, a.count) for a in accesses] == [("ekim", 1)]
    assert len(trace.results) == 1
    assert get_path(trace.results[0], "sem|concept").gloss == "october"
    assert get_path(trace.results[0], "morph|case") == "loc"


def test_criterion_5_derivation_nesting_and_sharing(engine):
    # three morphological levels nest three structures deep
    (akillica,) = engine.query(parse_fs_text("[phon:akIllIca]"))
    assert repr(get_path(akillica, "sem|concept")) == "f_ca(f_lI(akIl-(intelligence)))"
    assert get_path(akillica, "morph|stem|morph|stem|morph|stem") == "akIl"
    assert not isinstance(get_path(akillica, "morph|stem|morph|stem|morph|stem"), FeatStruct)
    assert akillica["phon"] == "akIllIca"
    assert get_path(akillica, "morph|stem|phon") == "none"
    assert get_path(akillica, "morph|stem|morph|stem|phon") == "none"

    # the infinitive keeps the verb's subcategorisation by object sharing
    results = engine.query(parse_fs_text("[phon:kazma]"))
    (infinitive,) = [fs for fs in results if get_path(fs, "cat|min") == "sentential"]
    assert get_path(infinitive, "syn|subcat") is get_path(infinitive, "morph|stem|syn|subcat")
    assert get_path(infinitive, "sem|roles") is get_path(infinitive, "morph|stem|sem|roles")
    assert repr(get_path(infinitive, "sem|concept")) == "f_ma(kaz-(dig))"


def test_criterion_6_unification_against_oracle():
    errors = oracle_unify.exhaustive_sweep()
    assert errors == [], f"{len(errors)} exhaustive failures; first: {errors[0]}"
    errors = oracle_unify.randomized_sweep(1000, seed=2024)
    assert errors == [], f"{len(errors)} randomized failures; first: {errors[0]}"


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


@pytest.mark.parametrize("seed", [20240825, 7])
def test_criterion_7_random_queries_sound_and_filter_equivalent(engine, seed):
    rng = random.Random(seed)
    paths = list(PATH_VALUES)
    failures = []
    for i in range(500):
        query = FeatStruct([("phon", rng.choice(SURFACES))])
        for block, name in rng.sample(paths, rng.randint(0, 3)):
            value = rng.choice(PATH_VALUES[(block, name)])
            if block not in query:
                query[block] = FeatStruct()
            query[block][name] = value
        early = engine.query(query, use_early_filter=True)
        late = engine.query(query, use_early_filter=False)
        if len(early) != len(late) or not all(
            fs_equal(a, b) for a, b in zip(early, late)
        ):
            failures.append(f"case {i}: filter mismatch for {render_fs(query)}")
            continue
        for fs in early:
            if not subsumes(query, fs):
                failures.append(f"case {i}: unsound result for {render_fs(query)}")
                break
    assert failures == [], f"{len(failures)} failures; first: {failures[0]}"


EXPECTED_DERIVATIONS = {
    # noun-producing derivations
    ("noun", "cI"): "nominal,noun,common,none,none",
    ("noun", "lIk"): "nominal,noun,common,none,none",
    ("noun", "cIk"): "nominal,noun,common,none,none",
    ("noun", "og"): "nominal,noun,common,none,none",
    ("noun", "yIcI"): "nominal,noun,common,none,none",
    ("noun", "mazlIk"): "nominal,noun,common,none,none",
    ("noun", "yamazlIk"): "nominal,noun,common,none,none",
    ("noun", "maca"): "nominal,noun,common,none,none",
    ("noun", "yasI"): "nominal,noun,common,none,none",
    ("noun", "none"): "nominal,noun,common,none,none",
    ("noun", "mak"): "nominal,sentential,act,infinitive,mak",
    ("noun", "ma"): "nominal,sentential,act,infinitive,ma",
    ("noun", "yIS"): "nominal,sentential,act,infinitive,yIS",
    ("noun", "dIk"): "nominal,sentential,fact,participle,dIk",
    ("noun", "yacak"): "nominal,sentential,fact,participle,yacak",
    ("rpronoun", "none"): "nominal,pronoun,quantification,none,none",
    # adjective-producing derivations
    ("adj", "lIk"): "adjectival,adjective,qualitative,none,none",
    ("adj", "lI"): "adjectival,adjective,qualitative,none,none",
    ("adj", "ki"): "adjectival,adjective,qualitative,none,none",
    ("adj", "sIz"): "adjectival,adjective,qualitative,none,none",
    ("adj", "sI"): "adjectival,adjective,qualitative,none,none",
    ("adj", "ik"): "adjectival,adjective,qualitative,none,none",
    ("adj", "yIcI"): "adjectival,adjective,qualitative,none,none",
    ("adj", "yan"): "adjectival,adjective,qualitative,none,none",
    ("adj", "yacak"): "adjectival,adjective,qualitative,none,none",
    ("adj", "dIk"): "adjectival,adjective,qualitative,none,none",
    ("adj", "yasI"): "adjectival,adjective,qualitative,none,none",
    # adverb-producing derivations
    ("adverb", "yInca"): "adverbial,temporal,point-of-time,none,none",
    ("adverb", "yIp"): "adverbial,temporal,point-of-time,none,none",
    ("adverb", "yalI"): "adverbial,temporal,time-period,fuzzy,none",
    ("adverb", "ken"): "adverbial,temporal,time-period,fuzzy,none",
    ("adverb", "casIna"): "adverbial,manner,qualitative,none,none",
    ("adverb", "maksIzIn"): "adverbial,manner,qualitative,none,none",
    ("adverb", "madan"): "adverbial,manner,qualitative,none,none",
    ("adverb", "yamadan"): "adverbial,manner,qualitative,none,none",
    ("adverb", "yerek"): "adverbial,manner,qualitative,none,none",
    ("adverb", "ca"): "adverbial,manner,qualitative,none,none",
    ("adverb", "dIkCa"): "adverbial,manner,repetition,none,none",
    # verb-producing derivations
    ("verb", "lan"): "verb,predicative,none,none,none",
    ("verb", "laS"): "verb,predicative,none,none,none",
    ("verb", "none"): "verb,attributive,none,none,none",
}


def test_criterion_8_derivation_table_complete_and_inventory_closed(engine):
    expected = {key: Cat5.from_text(cat) for key, cat in EXPECTED_DERIVATIONS.items()}
    assert engine.derivmap.rows == expected
    inventory = load_inventory(bundled_path("categories.tsv"))
    assert set(engine.derivmap.rows.values()) <= inventory
    assert set(engine.rootmap.rows.values()) <= inventory


def test_criterion_9_round_trips_and_latency(engine, tmp_path):
    # canonical save/load fixpoint
    seed = load(bundled_path("lexicon.fdb"))
    first = dumps(seed)
    path = tmp_path / "canon.fdb"
    path.write_text(first, encoding="utf-8")
    assert dumps(load(path)) == first

    # parse/render identity for every structure in the seed database
    for clause in seed.clauses:
        assert fs_equal(parse_fs_text(render_fs(clause.fs)), clause.fs)

    # warm query latency stays comfortably interactive
    query = parse_fs_text("[phon:atIm]")
    engine.query(query)  # warm-up
    best = min(
        (lambda t0: (engine.query(query), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(5)
    )
    assert best < 0.100, f"golden query took {best * 1000:.1f} ms"
