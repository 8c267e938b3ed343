"""Tests for processor parse strings, value normalisation and level splitting."""

import re

import pytest
from hypothesis import given, strategies as st

from turklex._data import bundled_path
from turklex.morph import (
    AnalyzerTable,
    MorphParse,
    ParseFormatError,
    map_value,
    normalize_root,
    parse_parse_string,
    split_levels,
)

ATIM_NOMINAL = "[[CAT=NOUN][ROOT=at][AGR=3SG][POSS=1SG][CASE=NOM]]"
ATIM_VERBAL = (
    "[[CAT=NOUN][ROOT=at][AGR=3SG][POSS=NONE][CASE=NOM]"
    "[CONV=VERB=NONE][TAM2=PRES][AGR=1SG]]"
)
EKIM_TEMP = "[[CAT=NOUN][ROOT=ekim][TYPE=TEMP1][AGR=3SG][POSS=NONE][CASE=NOM]]"
KAZMA_INF = (
    "[[CAT=VERB][ROOT=kaz][SENSE=POS][CONV=NOUN=MA][TYPE=INFINITIVE]"
    "[AGR=3SG][POSS=NONE][CASE=NOM]]"
)
MEMNUN_VERBAL = "[[CAT=ADJ][ROOT=memnun][CONV=VERB=NONE][TAM2=PRES][AGR=1SG]]"


@pytest.fixture(scope="module")
def table():
    return AnalyzerTable.load(bundled_path("analyzer.tsv"))


class TestParseString:
    def test_simple_round_trip(self):
        parse = parse_parse_string(ATIM_NOMINAL)
        assert parse.render() == ATIM_NOMINAL

    def test_conv_stored_as_triple(self):
        parse = parse_parse_string(ATIM_VERBAL)
        assert ("CONV", ("VERB", "NONE")) in parse.pairs
        assert parse.render() == ATIM_VERBAL

    def test_n_levels_counts_conversions(self):
        assert parse_parse_string(ATIM_NOMINAL).n_levels == 1
        assert parse_parse_string(ATIM_VERBAL).n_levels == 2

    def test_round_trip_every_fixture_parse(self, table):
        for surface in table.surfaces():
            for parse in table.lookup(surface):
                assert parse_parse_string(parse.render()).pairs == parse.pairs

    def test_missing_outer_brackets(self):
        with pytest.raises(ParseFormatError, match="malformed"):
            parse_parse_string("[CAT=NOUN][ROOT=at]")

    def test_garbage_between_pairs(self):
        with pytest.raises(ParseFormatError, match="pair syntax"):
            parse_parse_string("[[CAT=NOUN]x[ROOT=at]]")

    def test_pair_without_value(self):
        with pytest.raises(ParseFormatError, match="pair syntax"):
            parse_parse_string("[[CAT=NOUN][ROOT=]]")

    def test_conv_missing_suffix(self):
        with pytest.raises(ParseFormatError, match="CONV"):
            parse_parse_string("[[CAT=NOUN][ROOT=at][CONV=VERB]]")

    def test_plain_pair_with_three_parts(self):
        with pytest.raises(ParseFormatError, match="single value"):
            parse_parse_string("[[CAT=NOUN][ROOT=at][AGR=3SG=1SG]]")

    def test_conv_before_root(self):
        with pytest.raises(ParseFormatError, match="CONV.*before ROOT"):
            parse_parse_string("[[CAT=NOUN][CONV=VERB=NONE][ROOT=at]]")

    def test_missing_root(self):
        with pytest.raises(ParseFormatError, match="ROOT"):
            parse_parse_string("[[CAT=NOUN][AGR=3SG]]")

    def test_must_start_with_cat(self):
        with pytest.raises(ParseFormatError, match="CAT"):
            parse_parse_string("[[ROOT=at][AGR=3SG]]")


class TestValueNormalisation:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("3SG", "3sg"),
            ("NONE", "none"),
            ("PRES", "pres"),
            ("LI", "lI"),
            ("CA", "ca"),
            ("MA", "ma"),
            ("YIS", "yIS"),
            ("DIKCA", "dIkCa"),
            ("MAKSIZIN", "maksIzIn"),
            ("INFINITIVE", "infinitive"),
        ],
    )
    def test_known_values(self, raw, expected):
        assert map_value(raw) == expected

    def test_unknown_value_lowercases_and_warns(self, caplog):
        with caplog.at_level("WARNING", logger="turklex.morph"):
            assert map_value("FUT") == "fut"
        assert "FUT" in caplog.text

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("eK", "ek"),        # trailing capital marks alternation, drop it
            ("at", "at"),
            ("atIm", "atIm"),
            ("akIl", "akIl"),    # special capital mid-word stays
            ("kurtuluS", "kurtuluS"),  # special capital at the end stays
            ("borC", "borC"),
            ("kazmanoGlu", "kazmanoGlu"),
        ],
    )
    def test_root_normalisation(self, raw, expected):
        assert normalize_root(raw) == expected


class TestSplitLevels:
    def test_single_level(self):
        (level,) = split_levels(parse_parse_string(ATIM_NOMINAL))
        assert level.proc_category == "noun"
        assert level.proc_type == "none"
        assert level.root == "at"
        assert level.suffix is None
        assert level.inflections == [
            ("agr", "3sg"),
            ("poss", "1sg"),
            ("case", "nom"),
        ]

    def test_two_levels(self):
        lexical, derived = split_levels(parse_parse_string(ATIM_VERBAL))
        assert lexical.inflections == [
            ("agr", "3sg"),
            ("poss", "none"),
            ("case", "nom"),
        ]
        assert derived.proc_category == "verb"
        assert derived.suffix == "none"
        assert derived.root is None
        assert derived.inflections == [("tam2", "pres"), ("agr", "1sg")]

    def test_type_on_lexical_level(self):
        (level,) = split_levels(parse_parse_string(EKIM_TEMP))
        assert level.proc_type == "temp1"
        # TYPE is not an inflection
        assert ("type", "temp1") not in level.inflections

    def test_type_on_derived_level(self):
        lexical, derived = split_levels(parse_parse_string(KAZMA_INF))
        assert lexical.proc_type == "none"
        assert derived.proc_category == "noun"
        assert derived.proc_type == "infinitive"
        assert derived.suffix == "ma"
        assert derived.inflections == [
            ("agr", "3sg"),
            ("poss", "none"),
            ("case", "nom"),
        ]

    def test_sense_is_an_ordinary_inflection(self):
        lexical, _ = split_levels(parse_parse_string(KAZMA_INF))
        assert ("sense", "pos") in lexical.inflections

    def test_lexical_level_may_have_no_inflections(self):
        lexical, derived = split_levels(parse_parse_string(MEMNUN_VERBAL))
        assert lexical.inflections == []
        assert derived.inflections == [("tam2", "pres"), ("agr", "1sg")]

    def test_level_count_matches_conversions(self, table):
        for surface in table.surfaces():
            for parse in table.lookup(surface):
                assert len(split_levels(parse)) == parse.n_levels


class TestAnalyzerTable:
    @pytest.mark.parametrize(
        "surface, count",
        [("atIm", 3), ("memnunum", 3), ("ekim", 3), ("kazma", 3), ("ekimde", 2), ("akIllIca", 1)],
    )
    def test_fixture_counts(self, table, surface, count):
        assert len(table.lookup(surface)) == count

    def test_unknown_surface(self, table):
        assert table.lookup("yok") == []

    def test_lookup_returns_fresh_copies(self, table):
        first = table.lookup("atIm")
        first[0].pairs.append(("CASE", "LOC"))
        assert table.lookup("atIm")[0].pairs[-1] != ("CASE", "LOC")

    def test_load_reports_line_numbers(self, tmp_path):
        bad = tmp_path / "table.tsv"
        bad.write_text("atIm\t[[CAT=NOUN][AGR=3SG]]\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1:"):
            AnalyzerTable.load(bad)

    @pytest.mark.parametrize(
        "parse, key",
        [
            ("[[CAT=NOUN][ROOT=at][AGR=3SG][AGR=1SG][CASE=NOM]]", "AGR"),
            ("[[CAT=VERB][ROOT=kaz][CONV=NOUN=MA][CASE=NOM][AGR=3SG][CASE=LOC]]", "CASE"),
            ("[[CAT=NOUN][ROOT=ekim][TYPE=TEMP1][TYPE=TEMP1]]", "TYPE"),
        ],
    )
    def test_load_rejects_a_key_twice_in_one_level(self, tmp_path, parse, key):
        bad = tmp_path / "table.tsv"
        bad.write_text(f"at\t{ATIM_NOMINAL}\natIm\t{parse}\n", encoding="utf-8")
        message = f"{bad}:2: {key} appears twice in one level"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AnalyzerTable.load(bad)

    def test_load_rejects_wrong_field_count(self, tmp_path):
        bad = tmp_path / "table.tsv"
        bad.write_text("atIm only-one-field-no-tab\n", encoding="utf-8")
        with pytest.raises(ValueError, match="fields"):
            AnalyzerTable.load(bad)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text(
            "# comment\n\nat\t[[CAT=NOUN][ROOT=at]]\nat\t[[CAT=VERB][ROOT=at]]\n",
            encoding="utf-8",
        )
        table = AnalyzerTable.load(path)
        assert len(table.lookup("at")) == 2


# Random parses assembled from realistic components must round-trip through
# render/parse and split into the advertised number of levels.

_keys = st.sampled_from(["AGR", "POSS", "CASE", "TAM1", "TAM2", "SENSE"])
_values = st.sampled_from(["3SG", "1SG", "2SG", "NONE", "NOM", "LOC", "PRES", "POS", "NEG"])
_inflection = st.tuples(_keys, _values)
_conv = st.tuples(
    st.just("CONV"),
    st.tuples(st.sampled_from(["VERB", "NOUN", "ADJ", "ADVERB"]),
              st.sampled_from(["NONE", "MA", "LI", "CA", "DIK"])),
)
_level_tail = st.lists(_inflection, max_size=4)


@st.composite
def random_parses(draw):
    pairs = [("CAT", draw(st.sampled_from(["NOUN", "VERB", "ADJ"]))),
             ("ROOT", draw(st.sampled_from(["at", "eK", "kaz", "memnun", "akIl"])))]
    pairs.extend(draw(_level_tail))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        pairs.append(draw(_conv))
        pairs.extend(draw(_level_tail))
    return MorphParse(pairs)


@given(random_parses())
def test_random_parse_round_trip(parse):
    rendered = parse.render()
    again = parse_parse_string(rendered)
    assert again.pairs == parse.pairs
    assert len(split_levels(again)) == again.n_levels
