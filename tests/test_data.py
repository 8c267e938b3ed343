"""Tests for the shared row reader of the five data files: the four
tab-separated tables and the database's clause file."""

import re

import pytest

from turklex._data import read_rows
from turklex.catmap import DerivMapTable, RootMapTable, load_inventory
from turklex.fsdb import DatabaseFormatError
from turklex.fsdb import load as load_db
from turklex.morph import AnalyzerTable, ParseFormatError

GOOD_ROWS = {
    "categories.tsv": "nominal,noun,common,none,none\n",
    "analyzer.tsv": "at\t[[CAT=NOUN][ROOT=at]]\n",
    "rootmap.tsv": "noun\tnone\tat\tnominal,noun,common,none,none\n",
    "derivmap.tsv": "verb\tnone\tverb,attributive,none,none,none\n",
    "lexicon.fdb": (
        "entry nominal,noun,common,none,none at := [cat:[maj:nominal, min:noun, sub:common,"
        " ssub:none, sssub:none], morph:[stem:at, form:lexical], sem:[concept:at-(horse)]]\n"
    ),
}

# Each file's loader, a row it rejects, and the type of the error it raises.
BAD_ROWS = [
    ("categories.tsv", load_inventory, "nominal,,common\n", ValueError),
    ("analyzer.tsv", AnalyzerTable.load, "at\t[CAT=NOUN]\n", ParseFormatError),
    ("rootmap.tsv", RootMapTable.load, "noun\tnone\tev\tnominal,,common\n", ValueError),
    ("derivmap.tsv", DerivMapTable.load, "noun\tma\tnominal,\n", ValueError),
    ("lexicon.fdb", load_db, "lexeme a,b := [x:y]\n", DatabaseFormatError),
]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def located(path, lineno):
    return re.escape(f"{path}:{lineno}:")


def fields(*row):
    return list(row)


class TestReadRows:
    def test_rows_numbered_by_file_line(self, tmp_path):
        text = "# comment\n\n  \na\tb\n  # indented comment\nc\td\ne\n"
        path = write(tmp_path, "t.tsv", text)
        with pytest.raises(ValueError, match=located(path, 7) + " expected 2 tab-separated"):
            read_rows(path, 2, fields)
        path = write(tmp_path, "t.tsv", text[:-2])
        assert read_rows(path, 2, fields) == [["a", "b"], ["c", "d"]]

    def test_fields_are_stripped(self, tmp_path):
        path = write(tmp_path, "t.tsv", " a \t b c \n")
        assert read_rows(path, 2, fields) == [["a", "b c"]]

    def test_wrong_field_count_names_file_and_line(self, tmp_path):
        path = write(tmp_path, "t.tsv", "a\tb\na\tb\tc\n")
        message = located(path, 2) + " expected 2 tab-separated fields, got 3"
        with pytest.raises(ValueError, match=message):
            read_rows(path, 2, fields)

    def test_whole_lines_are_never_split(self, tmp_path):
        path = write(tmp_path, "t.fdb", "# comment\n a\tb \n\n")
        assert read_rows(path, None, fields) == [["a\tb"]]

    def test_handler_error_keeps_its_type_and_gains_file_line(self, tmp_path):
        path = write(tmp_path, "t.tsv", "a\n")

        def reject(field):
            raise ParseFormatError(f"no {field}")

        with pytest.raises(ParseFormatError, match=f"^{located(path, 1)} no a$"):
            read_rows(path, 1, reject)


class TestEveryFile:
    @pytest.mark.parametrize("name, load, bad_row, error", BAD_ROWS)
    def test_blank_and_comment_lines_are_counted(self, tmp_path, name, load, bad_row, error):
        text = "# comment\n\n  \n" + GOOD_ROWS[name] + "\t\n  # indented comment\n" + bad_row
        path = write(tmp_path, name, text)
        with pytest.raises(ValueError, match="^" + located(path, 7)):
            load(path)

    @pytest.mark.parametrize("name, load, bad_row, error", BAD_ROWS)
    def test_each_loader_raises_its_own_type(self, tmp_path, name, load, bad_row, error):
        path = write(tmp_path, name, GOOD_ROWS[name] + bad_row)
        with pytest.raises(ValueError) as raised:
            load(path)
        assert type(raised.value) is error

    @pytest.mark.parametrize("bad_row, message", [
        ("lexeme a,b := [x:y]", "expected 'entry' or 'template', got 'lexeme'"),
        ("entryfoo a,b x := [x:y]", "malformed entry clause"),
        ("template a,b", "malformed template clause"),
        ("entry nominal,,common at := [x:y]", "expected 1-5 comma-separated atoms"),
        ("template a,b,c,d,e,f := [x:y]", "expected 1-5 comma-separated atoms"),
        ("entry nominal,noun,common at := [x:", "bad feature structure: "),
        ("entry nominal,noun,common at := [x:y]", "entry nominal,noun,common,none,none at: "),
    ])
    def test_bad_database_clause_names_file_and_line(self, tmp_path, bad_row, message):
        path = write(tmp_path, "lexicon.fdb", GOOD_ROWS["lexicon.fdb"] + "\n" + bad_row + "\n")
        with pytest.raises(DatabaseFormatError, match=f"^{located(path, 3)} {re.escape(message)}"):
            load_db(path)


class TestFieldCount:
    @pytest.mark.parametrize(
        "name, load, bad_row",
        [
            ("categories.tsv", load_inventory, "nominal,noun\tnominal,pronoun\n"),
            ("analyzer.tsv", AnalyzerTable.load, "at\n"),
            ("rootmap.tsv", RootMapTable.load, "noun\tat\tnominal,noun,common,none,none\n"),
            ("derivmap.tsv", DerivMapTable.load, "verb\tnone\tx\tverb,attributive\n"),
        ],
    )
    def test_wrong_field_count_fails_with_file_line(self, tmp_path, name, load, bad_row):
        path = write(tmp_path, name, GOOD_ROWS[name] + bad_row)
        with pytest.raises(ValueError, match=located(path, 2) + ".*fields"):
            load(path)

    def test_category_line_holding_a_tab_rejected(self, tmp_path):
        # a tab separates fields; it is never part of a category
        path = write(tmp_path, "categories.tsv", "nominal\tnoun\n")
        with pytest.raises(ValueError, match=located(path, 1) + ".*fields"):
            load_inventory(path)

    @pytest.mark.parametrize("row", [
        "\tat\t[[CAT=NOUN][ROOT=at]]\n",
        "at\t[[CAT=NOUN][ROOT=at]]\t\n",
        "\t[[CAT=NOUN][ROOT=at]]\n",
    ])
    def test_analyzer_line_with_outer_tab_rejected(self, tmp_path, row):
        # an outer tab makes an empty field, not whitespace to strip
        path = write(tmp_path, "analyzer.tsv", GOOD_ROWS["analyzer.tsv"] + row)
        with pytest.raises(ValueError, match=located(path, 2)):
            AnalyzerTable.load(path)

    def test_empty_key_field_rejected(self, tmp_path):
        path = write(tmp_path, "rootmap.tsv", "noun\t \tat\tnominal,noun,common\n")
        with pytest.raises(ValueError, match=located(path, 1) + " field 2 is empty"):
            RootMapTable.load(path)

    @pytest.mark.parametrize("name, load, bad_row", [
        ("rootmap.tsv", RootMapTable.load, "noun\tnone\tev\tnominal,,common\n"),
        ("derivmap.tsv", DerivMapTable.load, "noun\tma\tnominal,\n"),
    ])
    def test_bad_category_in_mapping_names_file_and_line(self, tmp_path, name, load, bad_row):
        path = write(tmp_path, name, GOOD_ROWS[name] + bad_row)
        with pytest.raises(ValueError, match=located(path, 2) + " expected 1-5"):
            load(path)
