"""Tests for processor parse strings, value normalisation and level splitting."""

import dataclasses
import re

import pytest
from hypothesis import given, strategies as st

from turklex._data import bundled_path, read_rows
from turklex.featstruct import parse_fs_text
from turklex.morph import (
    AnalyzerTable,
    Level,
    ParseFormatError,
    map_value,
    normalize_root,
    parse_parse_string,
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
        parse = parse_parse_string(f"  {ATIM_NOMINAL}\n")
        assert parse.text == ATIM_NOMINAL
        assert parse_parse_string(parse.text) == parse

    def test_round_trip_every_fixture_parse(self):
        path = bundled_path("analyzer.tsv")
        for _, (_, text) in read_rows(path, 2):
            parse = parse_parse_string(text)
            assert parse.text == text
            assert parse_parse_string(parse.text) == parse

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
    """The levels a parse is split into when it is read."""

    def test_single_level(self):
        (level,) = parse_parse_string(ATIM_NOMINAL).levels
        assert level == Level(
            "noun", "none", "at", (("agr", "3sg"), ("poss", "1sg"), ("case", "nom"))
        )

    def test_two_levels(self):
        lexical, derived = parse_parse_string(ATIM_VERBAL).levels
        assert lexical.inflections == (("agr", "3sg"), ("poss", "none"), ("case", "nom"))
        assert derived.proc_category == "verb"
        assert derived.name == "none"  # the mapped suffix
        assert derived.inflections == (("tam2", "pres"), ("agr", "1sg"))

    def test_type_on_lexical_level(self):
        (level,) = parse_parse_string(EKIM_TEMP).levels
        assert level.proc_type == "temp1"
        # TYPE is not an inflection
        assert ("type", "temp1") not in level.inflections

    def test_type_on_derived_level(self):
        lexical, derived = parse_parse_string(KAZMA_INF).levels
        assert lexical.proc_type == "none"
        assert derived == Level(
            "noun", "infinitive", "ma", (("agr", "3sg"), ("poss", "none"), ("case", "nom"))
        )

    def test_sense_is_an_ordinary_inflection(self):
        lexical, _ = parse_parse_string(KAZMA_INF).levels
        assert ("sense", "pos") in lexical.inflections

    def test_lexical_level_may_have_no_inflections(self):
        lexical, derived = parse_parse_string(MEMNUN_VERBAL).levels
        assert lexical.inflections == ()
        assert derived.inflections == (("tam2", "pres"), ("agr", "1sg"))

    def test_level_count_matches_conversions(self, table):
        for surface in table.surfaces():
            for parse in table.lookup(surface):
                assert len(parse.levels) == 1 + parse.text.count("[CONV=")


class TestAnalyzerTable:
    @pytest.mark.parametrize(
        "surface, count",
        [("atIm", 3), ("memnunum", 3), ("ekim", 3), ("kazma", 3), ("ekimde", 2), ("akIllIca", 1)],
    )
    def test_fixture_counts(self, table, surface, count):
        assert len(table.lookup(surface)) == count

    def test_unknown_surface(self, table):
        assert table.lookup("yok") == []

    def test_lookup_returns_immutable_parses(self, table):
        parses = table.lookup("atIm")
        parse = parses[0]
        with pytest.raises(AttributeError):
            parse.text = ATIM_NOMINAL
        with pytest.raises(TypeError):
            parse.levels[0] = parse.levels[0]
        with pytest.raises(AttributeError):
            parse.levels[0].name = "ek"
        with pytest.raises(AttributeError):
            parse.levels[0].inflections.append(("case", "loc"))
        # the list itself is the caller's
        parses.clear()
        assert len(table.lookup("atIm")) == 3

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
            ("[[CAT=NOUN][ROOT=at][AGR=3SG][ROOT=ek]]", "ROOT"),
        ],
    )
    def test_load_rejects_a_key_twice_in_one_level(self, tmp_path, parse, key):
        bad = tmp_path / "table.tsv"
        bad.write_text(f"at\t{ATIM_NOMINAL}\natIm\t{parse}\n", encoding="utf-8")
        message = f"{bad}:2: {key} appears twice in one level"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AnalyzerTable.load(bad)

    @pytest.mark.parametrize(
        "parse, key",
        [
            # a new CAT level would drop the CONV level and its suffix
            ("[[CAT=VERB][ROOT=kaz][CONV=NOUN=MA][CAT=ADJ][AGR=3SG]]", "CAT"),
            ("[[CAT=NOUN][ROOT=at][CONV=VERB=NONE][ROOT=ek]]", "ROOT"),
        ],
    )
    def test_load_rejects_cat_or_root_after_conv(self, tmp_path, parse, key):
        bad = tmp_path / "table.tsv"
        bad.write_text(f"at\t{ATIM_NOMINAL}\natIm\t{parse}\n", encoding="utf-8")
        message = f"{bad}:2: {key} appears after a CONV"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AnalyzerTable.load(bad)

    @pytest.mark.parametrize(
        "parse, key",
        [
            # lexical level: the pair clashes with every sense's form or stem
            ("[[CAT=NOUN][ROOT=at][FORM=DERIVED]]", "FORM"),
            ("[[CAT=NOUN][ROOT=at][STEM=X][AGR=3SG]]", "STEM"),
            # derived level: the pair would overwrite form:derived or the stem
            ("[[CAT=VERB][ROOT=kaz][CONV=NOUN=MA][FORM=LEXICAL]]", "FORM"),
            ("[[CAT=VERB][ROOT=kaz][SENSE=POS][CONV=NOUN=MA][TYPE=INFINITIVE][STEM=X][AGR=3SG]]",
             "STEM"),
        ],
    )
    def test_load_rejects_form_or_stem(self, tmp_path, parse, key):
        bad = tmp_path / "table.tsv"
        bad.write_text(f"at\t{ATIM_NOMINAL}\natIm\t{parse}\n", encoding="utf-8")
        message = f"{bad}:2: {key} is set by the lexicon, not the analyzer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AnalyzerTable.load(bad)

    def test_unknown_value_warns_at_load_not_per_query(self, tmp_path, caplog, engine):
        path = tmp_path / "table.tsv"
        path.write_text("attan\t[[CAT=NOUN][ROOT=at][AGR=3SG][POSS=NONE][CASE=ABL]]\n",
                        encoding="utf-8")
        with caplog.at_level("WARNING", logger="turklex.morph"):
            analyzer = AnalyzerTable.load(path)
        assert "no mapping for processor value 'ABL'" in caplog.text
        caplog.clear()
        engine = dataclasses.replace(engine, analyzer=analyzer)
        with caplog.at_level("DEBUG"):
            trace = engine.run(parse_fs_text("[phon:attan]"))
        assert caplog.records == []
        (tp,) = trace.transformed
        assert tp.levels[0].inflections == (("agr", "3sg"), ("poss", "none"), ("case", "abl"))

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


# Random parse texts with unique keys per level must read back into the
# levels, names and mapped inflections they were drawn from, keeping the text.

_VALUES = [("3SG", "3sg"), ("1SG", "1sg"), ("2SG", "2sg"), ("NONE", "none"), ("NOM", "nom"),
           ("LOC", "loc"), ("PRES", "pres"), ("POS", "pos"), ("NEG", "neg"), ("TEMP1", "temp1")]
_level_tail = st.lists(
    st.tuples(st.sampled_from(["AGR", "POSS", "CASE", "TAM1", "TAM2", "SENSE", "TYPE"]),
              st.sampled_from(_VALUES)),
    max_size=5,
    unique_by=lambda pair: pair[0],
)


def _level(category, name, tail):
    """The pair texts of one drawn level, and the Level it should read as."""
    texts = [f"[{key}={raw}]" for key, (raw, _) in tail]
    mapped = dict(tail)
    proc_type = mapped["TYPE"][1] if "TYPE" in mapped else "none"
    inflections = tuple((key.lower(), value) for key, (_, value) in tail if key != "TYPE")
    return texts, Level(category, proc_type, name, inflections)


@st.composite
def random_parses(draw):
    """A parse text and the levels it should read as."""
    cat = draw(st.sampled_from(["NOUN", "VERB", "ADJ"]))
    raw_root, root = draw(st.sampled_from(
        [("at", "at"), ("eK", "ek"), ("kaz", "kaz"), ("memnun", "memnun"), ("akIl", "akIl")]))
    texts, lexical = _level(cat.lower(), root, draw(_level_tail))
    texts.insert(draw(st.integers(0, len(texts))), f"[ROOT={raw_root}]")
    texts.insert(0, f"[CAT={cat}]")
    levels = [lexical]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        target = draw(st.sampled_from(["VERB", "NOUN", "ADJ", "ADVERB"]))
        raw_suffix, suffix = draw(st.sampled_from(
            [("NONE", "none"), ("MA", "ma"), ("LI", "lI"), ("CA", "ca"), ("DIK", "dIk")]))
        level_texts, level = _level(target.lower(), suffix, draw(_level_tail))
        texts += [f"[CONV={target}={raw_suffix}]"] + level_texts
        levels.append(level)
    return "[" + "".join(texts) + "]", tuple(levels)


@given(random_parses())
def test_random_parse_round_trip(drawn):
    text, levels = drawn
    parse = parse_parse_string(text)
    assert parse.text == text
    assert parse.levels == levels
