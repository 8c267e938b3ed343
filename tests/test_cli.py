"""Tests for the command-line interface."""

import os
import shutil

import pytest
from click.testing import CliRunner

from turklex._data import bundled_path
from turklex.catmap import Cat5
from turklex.cli import main
from turklex.featstruct import render_fs
from turklex.fsdb import dumps, load, lookup

from .test_golden import sense_dropped_data

COMMON = Cat5.from_text("nominal,noun,common,none,none")


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def tmp_db(tmp_path):
    """A private copy of the bundled database, safe to mutate."""
    path = tmp_path / "lexicon.fdb"
    shutil.copy(bundled_path("lexicon.fdb"), path)
    return path


class TestQuery:
    def test_positional_query_with_counts(self, runner):
        result = runner.invoke(main, ["query", "[phon:atIm]"])
        assert result.exit_code == 0
        assert "Number of parses: 3" in result.output
        assert "Number of feature structures: 2" in result.output
        assert "at-(horse)" in result.output

    def test_query_from_stdin(self, runner):
        result = runner.invoke(main, ["query"], input="[phon:atIm]\n")
        assert result.exit_code == 0
        assert "Number of feature structures: 2" in result.output

    def test_silent_trace(self, runner):
        result = runner.invoke(main, ["query", "[phon:atIm]", "--trace", "silent"])
        assert result.exit_code == 0
        assert "Number of parses" not in result.output
        assert "Number of feature structures: 2" in result.output

    def test_full_trace_phases(self, runner):
        result = runner.invoke(main, ["query", "[phon:atIm]", "--trace", "full"])
        assert result.exit_code == 0
        assert "Parsing surface form started..." in result.output
        assert "Transformation phase started..." in result.output
        assert "Exception: Entry not found in LCMT: Skipping parse..." in result.output
        assert "Application of restrictions phase started..." in result.output
        assert "Access to FSDB with:" in result.output
        assert "Access to TFSDB with:" in result.output
        assert "Final result:" in result.output

    def test_full_trace_shows_eliminations(self, runner):
        result = runner.invoke(
            main, ["query", "[phon:memnunum, cat:[maj:verb]]", "--trace", "full"]
        )
        assert result.exit_code == 0
        assert "Parse eliminated: Printing only the last level..." in result.output
        assert "Number of feature structures: 1" in result.output

    @pytest.mark.parametrize(
        "query", ["[phon:kazma]", "[phon:memnunum, cat:[maj:verb]]", "[phon:atacak]"]
    )
    def test_repeated_query_renders_the_same_full_trace(self, runner, engine, monkeypatch,
                                                         query):
        args = ["query", query, "--trace", "full"]
        fresh = runner.invoke(main, args)  # an engine of its own
        # then one engine answers both runs
        monkeypatch.setattr("turklex.cli.LexiconEngine.from_paths", lambda **config: engine)
        first, second = runner.invoke(main, args), runner.invoke(main, args)
        assert fresh.exit_code == first.exit_code == second.exit_code == 0
        assert fresh.output == first.output == second.output
        assert "Parsing surface form started..." in fresh.output

    def test_indented_style(self, runner):
        result = runner.invoke(
            main, ["query", "[phon:akIllIca]", "--trace", "silent", "--style", "indented"]
        )
        assert result.exit_code == 0
        assert "  maj: adverbial" in result.output

    def test_zero_results_is_success(self, runner):
        result = runner.invoke(main, ["query", "[phon:denizlerde]"])
        assert result.exit_code == 0
        assert "Number of feature structures: 0" in result.output

    def test_inflections_that_conflict_with_a_sense_drop_it(self, runner, tmp_path):
        db, analyzer = sense_dropped_data(tmp_path)
        result = runner.invoke(main, ["--db", str(db), "--analyzer", str(analyzer),
                                      "query", "[phon:atX]", "--trace", "full"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert "Sense dropped: inflections conflict with a sense of at" in lines
        assert "Number of feature structures: 0" in lines

    def test_unsatisfiable_restriction_is_success(self, runner):
        result = runner.invoke(main, ["query", "[phon:atIm, cat:[maj:conjunction]]"])
        assert result.exit_code == 0
        assert "Number of feature structures: 0" in result.output

    def test_bad_query_syntax_exits_2(self, runner):
        result = runner.invoke(main, ["query", "[phon"])
        assert result.exit_code == 2
        assert "bad query" in result.output

    def test_a_tag_on_an_atom_set_exits_2(self, runner):
        result = runner.invoke(main, ["query", "[phon:kazma, sem:[x:@1={a, b}, y:@1]]"])
        assert result.exit_code == 2
        assert result.output == ("error: bad query: tag must name a structure, sequence"
                                 " or set (at position 23)\n")

    def test_missing_phon_exits_2(self, runner):
        result = runner.invoke(main, ["query", "[cat:[maj:verb]]"])
        assert result.exit_code == 2
        assert "phon" in result.output

    def test_empty_stdin_exits_2(self, runner):
        result = runner.invoke(main, ["query"], input="")
        assert result.exit_code == 2

    def test_unreadable_db_exits_1(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--db", str(tmp_path / "missing.fdb"), "query", "[phon:atIm]"]
        )
        assert result.exit_code == 1

    def test_env_var_overrides_db_path(self, runner, tmp_path):
        result = runner.invoke(
            main, ["query", "[phon:atIm]"],
            env={"TURKLEX_DB": str(tmp_path / "missing.fdb")},
        )
        assert result.exit_code == 1

    def test_corrupt_db_exits_1(self, runner, tmp_path):
        bad = tmp_path / "corrupt.fdb"
        bad.write_text("entry oops\n", encoding="utf-8")
        result = runner.invoke(main, ["--db", str(bad), "query", "[phon:atIm]"])
        assert result.exit_code == 1


class TestDbBrowse:
    def test_filters(self, runner):
        result = runner.invoke(main, ["db", "browse", "--cat", "nominal,noun", "--root", "ek"])
        assert result.exit_code == 0
        assert "3 entry/entries" in result.output
        assert "ekim" in result.output

    def test_all_entries(self, runner):
        result = runner.invoke(main, ["db", "browse"])
        assert result.exit_code == 0
        assert "35 entry/entries" in result.output

    def test_bad_category_exits_2(self, runner):
        result = runner.invoke(main, ["db", "browse", "--cat", "a,b,c,d,e,f"])
        assert result.exit_code == 2
        assert result.output == "error: expected 1-5 comma-separated atoms, got 'a,b,c,d,e,f'\n"

    def test_indented_style_prints_each_entry_under_its_head(self, runner):
        result = runner.invoke(main, ["db", "browse", "--root", "ekim", "--style", "indented"])
        assert result.exit_code == 0
        (entry,) = lookup(load(bundled_path("lexicon.fdb")), COMMON, "ekim")
        assert result.output == (
            "entry nominal,noun,common,none,none ekim :=\n"
            f"{render_fs(entry.fs, style='indented')}\n"
            "1 entry/entries\n"
        )
        assert "  sub: common\n" in result.output

    def test_compact_lines_are_the_saved_clause_lines(self, runner):
        result = runner.invoke(main, ["db", "browse", "--root", "ek"])
        assert result.exit_code == 0
        saved = dumps(load(bundled_path("lexicon.fdb"))).splitlines()
        expected = [line for line in saved if line.startswith("entry") and "ek" in line.split()[2]]
        assert len(expected) == 4  # ek, ek, ekim, gerek
        assert result.output.splitlines() == expected + ["4 entry/entries"]


NEW_ENTRY = (
    "[cat:[maj:nominal, min:noun, sub:common, ssub:none, sssub:none], "
    "morph:[stem:yol, form:lexical], sem:[concept:yol-(road), countable:+], phon:yol]"
)


class TestDbAddDelete:
    def test_add_persists(self, runner, tmp_db):
        result = runner.invoke(
            main,
            ["--db", str(tmp_db), "db", "add", "nominal,noun,common,none,none", "yol", NEW_ENTRY],
        )
        assert result.exit_code == 0, result.output
        reloaded = load(tmp_db)
        (entry,) = lookup(reloaded, COMMON, "yol")
        assert entry.fs["sem"]["countable"] == "+"
        # defaults were filled before saving
        assert entry.fs["sem"]["animate"] == "-"

    def test_add_appends_as_last_sense(self, runner, tmp_db):
        entry = NEW_ENTRY.replace("yol", "ek").replace("road", "addition")
        result = runner.invoke(
            main, ["--db", str(tmp_db), "db", "add", "nominal,noun,common,none,none", "ek", entry]
        )
        assert result.exit_code == 0
        assert "added sense 3" in result.output
        senses = lookup(load(tmp_db), COMMON, "ek")
        assert [s.fs["sem"]["concept"].gloss for s in senses] == [
            "suffix", "appendix", "addition",
        ]

    def test_add_from_stdin(self, runner, tmp_db):
        result = runner.invoke(
            main,
            ["--db", str(tmp_db), "db", "add", "nominal,noun,common,none,none", "yol"],
            input=NEW_ENTRY + "\n",
        )
        assert result.exit_code == 0

    def test_add_invariant_violation_exits_2(self, runner, tmp_db):
        broken = NEW_ENTRY.replace("form:lexical", "form:derived")
        result = runner.invoke(
            main,
            ["--db", str(tmp_db), "db", "add", "nominal,noun,common,none,none", "yol", broken],
        )
        assert result.exit_code == 2
        assert lookup(load(tmp_db), COMMON, "yol") == []

    def test_add_atom_that_is_not_plain_keeps_check_ok(self, runner, tmp_db):
        entry = (
            "[cat:[maj:nominal, min:noun, sub:common, ssub:none, sssub:none], "
            "morph:[stem:at, form:lexical], "
            "sem:[concept:at-(horse), note:'race horse', alias:'at-(horse)', mark:'!x'], "
            "phon:at]"
        )
        add = runner.invoke(
            main, ["--db", str(tmp_db), "db", "add", "nominal,noun,common", "at", entry]
        )
        assert add.exit_code == 0, add.output
        check = runner.invoke(main, ["--db", str(tmp_db), "check"])
        assert check.exit_code == 0, check.output
        assert "ok" in check.output
        sem = lookup(load(tmp_db), COMMON, "at")[1].fs["sem"]
        assert (sem["note"], sem["alias"], sem["mark"]) == ("race horse", "at-(horse)", "!x")

    @pytest.mark.parametrize(
        "old, new", [("road", "road\nway"), ("countable:+", "note:'a\nb', countable:+")]
    )
    def test_add_with_a_line_break_exits_1_and_keeps_the_file(self, runner, tmp_db, old, new):
        before = tmp_db.read_bytes()
        result = runner.invoke(
            main,
            ["--db", str(tmp_db), "db", "add", "nominal,noun,common,none,none", "yol",
             NEW_ENTRY.replace(old, new)],
        )
        assert result.exit_code == 1
        assert "a clause holding a line break cannot be saved" in result.output
        assert tmp_db.read_bytes() == before

    @pytest.mark.parametrize("root", ["a b", ""])
    def test_add_root_that_is_not_one_word_exits_2_and_keeps_the_file(self, runner, tmp_db, root):
        before = tmp_db.read_bytes()
        result = runner.invoke(
            main,
            ["--db", str(tmp_db), "db", "add", "nominal,noun,common,none,none", root,
             NEW_ENTRY.replace("stem:yol", f"stem:'{root}'")],
        )
        assert result.exit_code == 2
        assert f"root {root!r} is not one word without whitespace" in result.output
        assert tmp_db.read_bytes() == before
        assert runner.invoke(main, ["--db", str(tmp_db), "check"]).exit_code == 0

    @pytest.mark.parametrize(
        "old, new", [("sem:[concept:yol-(road), countable:+]", "sem:foo"),
                     ("sem:", "syn:foo, sem:")]
    )
    def test_add_block_that_is_not_a_structure_exits_2_and_keeps_the_file(
        self, runner, tmp_db, old, new
    ):
        before = tmp_db.read_bytes()
        result = runner.invoke(
            main,
            ["--db", str(tmp_db), "db", "add", "nominal,noun,common,none,none", "yol",
             NEW_ENTRY.replace(old, new)],
        )
        assert result.exit_code == 2
        assert f"{new.partition(':')[0]} block is missing or not a structure" in result.output
        assert tmp_db.read_bytes() == before

    def test_add_category_not_in_inventory_exits_2_and_keeps_the_file(self, runner, tmp_db):
        before = tmp_db.read_bytes()
        bogus = "nominal,noun,bogus,none,none"
        result = runner.invoke(
            main,
            ["--db", str(tmp_db), "db", "add", bogus, "yol",
             NEW_ENTRY.replace("sub:common", "sub:bogus")],
        )
        assert result.exit_code == 2
        assert f"entry category {bogus} not in inventory" in result.output
        assert tmp_db.read_bytes() == before
        assert runner.invoke(main, ["--db", str(tmp_db), "check"]).exit_code == 0

    def test_add_bad_fs_exits_2(self, runner, tmp_db):
        result = runner.invoke(
            main, ["--db", str(tmp_db), "db", "add", "nominal,noun,common,none,none", "yol", "[oops"]
        )
        assert result.exit_code == 2

    def test_delete_persists(self, runner, tmp_db):
        result = runner.invoke(
            main, ["--db", str(tmp_db), "db", "delete", "nominal,noun,common,none,none", "ek", "0"]
        )
        assert result.exit_code == 0
        senses = lookup(load(tmp_db), COMMON, "ek")
        assert len(senses) == 1
        assert senses[0].fs["sem"]["concept"].gloss == "appendix"

    def test_delete_unknown_word_exits_2(self, runner, tmp_db):
        result = runner.invoke(
            main, ["--db", str(tmp_db), "db", "delete", "nominal,noun,common,none,none", "yol", "0"]
        )
        assert result.exit_code == 2

    def test_delete_bad_index_exits_2(self, runner, tmp_db):
        result = runner.invoke(
            main, ["--db", str(tmp_db), "db", "delete", "nominal,noun,common,none,none", "ek", "9"]
        )
        assert result.exit_code == 2
        assert len(lookup(load(tmp_db), COMMON, "ek")) == 2

    def test_add_with_an_unreadable_inventory_exits_1_and_keeps_the_file(self, runner, tmp_db,
                                                                          tmp_path):
        before = tmp_db.read_bytes()
        missing = tmp_path / "missing.tsv"
        result = runner.invoke(
            main,
            ["--db", str(tmp_db), "--categories", str(missing),
             "db", "add", "nominal,noun,common,none,none", "yol", NEW_ENTRY],
        )
        assert result.exit_code == 1
        assert result.output == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert tmp_db.read_bytes() == before

    @pytest.mark.parametrize(
        "args",
        [["add", "nominal,noun,common,none,none", "yol", NEW_ENTRY],
         ["delete", "nominal,noun,common,none,none", "ek", "0"],
         ["browse"]],
        ids=["add", "delete", "browse"],
    )
    def test_missing_db_exits_1(self, runner, tmp_path, args):
        missing = tmp_path / "missing.fdb"
        result = runner.invoke(main, ["--db", str(missing), "db", *args])
        assert result.exit_code == 1
        assert result.output == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert not missing.exists()

    def test_delete_malformed_category_exits_2_and_keeps_the_file(self, runner, tmp_db):
        before = tmp_db.read_bytes()
        result = runner.invoke(main, ["--db", str(tmp_db), "db", "delete", ",noun", "ek", "0"])
        assert result.exit_code == 2
        assert result.output == "error: expected 1-5 comma-separated atoms, got ',noun'\n"
        assert tmp_db.read_bytes() == before

    @pytest.mark.parametrize(
        "args",
        [["add", "nominal,noun,common,none,none", "yol", NEW_ENTRY],
         ["delete", "nominal,noun,common,none,none", "ek", "0"]],
    )
    def test_failed_save_exits_1_and_keeps_the_file(self, runner, tmp_db, monkeypatch, args):
        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        before = tmp_db.read_bytes()
        monkeypatch.setattr(os, "replace", refuse)
        result = runner.invoke(main, ["--db", str(tmp_db), "db", *args])
        assert result.exit_code == 1
        assert f"error: cannot replace {tmp_db}" in result.output
        assert tmp_db.read_bytes() == before
        assert list(tmp_db.parent.glob("*.tmp")) == []


class TestCheck:
    def test_bundled_data_is_clean(self, runner):
        result = runner.invoke(main, ["check"])
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_entry_without_mapping_row(self, runner, tmp_db):
        add = runner.invoke(
            main,
            ["--db", str(tmp_db), "db", "add", "nominal,noun,common,none,none", "yol", NEW_ENTRY],
        )
        assert add.exit_code == 0
        result = runner.invoke(main, ["--db", str(tmp_db), "check"])
        assert result.exit_code == 1
        assert "no root-mapping row" in result.output

    def test_database_without_entries_fails(self, runner, tmp_path):
        empty = tmp_path / "lexicon.fdb"
        empty.write_text("", encoding="utf-8")
        result = runner.invoke(main, ["--db", str(empty), "check"])
        assert result.exit_code == 1
        assert "has no entries" in result.output
        assert "1 problem(s) found" in result.output

    def test_entry_and_template_categories_missing_from_the_inventory_fail(self, runner,
                                                                             tmp_path):
        entry_cat = "conjunction,coordinating,none,none,none"  # an entry's, and rootmap's
        template_cat = "adverbial,temporal,point-of-time,none,none"  # a template's, and derivmap's
        categories = tmp_path / "categories.tsv"
        lines = bundled_path("categories.tsv").read_text(encoding="utf-8").splitlines()
        kept = [line for line in lines if line not in (entry_cat, template_cat)]
        assert len(kept) == len(lines) - 2
        categories.write_text("\n".join(kept) + "\n", encoding="utf-8")
        rootmap, derivmap = bundled_path("rootmap.tsv"), bundled_path("derivmap.tsv")
        result = runner.invoke(main, ["--categories", str(categories), "check"])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"problem: {rootmap}:34: category {entry_cat} is not in the inventory",
            f"problem: {derivmap}:33: category {template_cat} is not in the inventory",
            f"problem: entry category {entry_cat} not in inventory",
            f"problem: template category {template_cat} not in inventory",
            "4 problem(s) found",
        ]

    def test_unreadable_file_fails(self, runner, tmp_path):
        result = runner.invoke(main, ["--rootmap", str(tmp_path / "nope.tsv"), "check"])
        assert result.exit_code == 1

    def test_duplicate_mapping_key_fails(self, runner, tmp_path):
        bad = tmp_path / "rootmap.tsv"
        bad.write_text(
            "noun\tnone\tat\tnominal,noun,common,none,none\n"
            "noun\tnone\tat\tnominal,noun,common,none,none\n",
            encoding="utf-8",
        )
        result = runner.invoke(main, ["--rootmap", str(bad), "check"])
        assert result.exit_code == 1
        assert "duplicate" in result.output

    def test_entry_whose_concept_is_not_a_concept_fails(self, runner, tmp_db):
        text = tmp_db.read_text(encoding="utf-8")
        assert text.count("concept:kaz-(dig)") == 1
        lines = text.splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if "concept:kaz-(dig)" in line)
        tmp_db.write_text(text.replace("concept:kaz-(dig)", "concept:dig"), encoding="utf-8")
        result = runner.invoke(main, ["--db", str(tmp_db), "check"])
        assert result.exit_code == 1
        assert f"{tmp_db}:{lineno}: " in result.output
        assert "sem|concept 'dig' is not a concept" in result.output

    def test_parse_naming_a_key_twice_in_one_level_fails(self, runner, tmp_path):
        analyzer = tmp_path / "analyzer.tsv"
        shutil.copy(bundled_path("analyzer.tsv"), analyzer)
        lineno = len(analyzer.read_text(encoding="utf-8").splitlines()) + 1
        with analyzer.open("a", encoding="utf-8") as handle:
            handle.write("atIm\t[[CAT=NOUN][ROOT=at][AGR=3SG][AGR=1SG][CASE=NOM]]\n")
        result = runner.invoke(main, ["--analyzer", str(analyzer), "check"])
        assert result.exit_code == 1
        assert f"{analyzer}:{lineno}: AGR appears twice in one level" in result.output

    def test_repeated_analyzer_row_fails(self, runner, tmp_path):
        analyzer = tmp_path / "analyzer.tsv"
        text = bundled_path("analyzer.tsv").read_text(encoding="utf-8")
        row = next(line for line in text.splitlines() if line.startswith("kazma\t"))
        analyzer.write_text(f"{text}{row}\n", encoding="utf-8")
        lineno = len(text.splitlines()) + 1
        result = runner.invoke(main, ["--analyzer", str(analyzer), "check"])
        assert result.exit_code == 1
        assert f"problem: {analyzer}:{lineno}: duplicate parse of 'kazma'\n" in result.output
        assert "1 problem(s) found" in result.output

    @pytest.mark.parametrize("name, option, past", [
        ("analyzer.tsv", "--analyzer", 0),
        # the text layer decodes 8 KB chunks, so a byte past the first one
        # must still be counted from the start of the file
        ("lexicon.fdb", "--db", 8192),
    ])
    def test_file_that_is_not_utf8_fails_with_its_line(self, runner, tmp_path, name, option, past):
        lines = bundled_path(name).read_bytes().splitlines(keepends=True)
        lineno, start = 1, 0  # the line that gets the bad byte, and its offset
        while lineno < 3 or start <= past:
            start += len(lines[lineno - 1])
            lineno += 1
        lines[lineno - 1] = b"\xff" + lines[lineno - 1]
        bad = tmp_path / name
        bad.write_bytes(b"".join(lines))
        result = runner.invoke(main, [option, str(bad), "check"])
        assert result.exit_code == 1
        message = f"problem: {bad}:{lineno}: not UTF-8: byte 0xff, invalid start byte\n"
        assert message in result.output
        assert "1 problem(s) found" in result.output

    @pytest.mark.parametrize(
        "parse, message",
        [
            ("[[CAT=VERB][ROOT=kaz][CONV=NOUN=MA][CAT=ADJ][AGR=3SG]]", "CAT appears after a CONV"),
            ("[[CAT=NOUN][ROOT=at][CONV=VERB=NONE][ROOT=ek]]", "ROOT appears after a CONV"),
            ("[[CAT=NOUN][ROOT=at][ROOT=ek]]", "ROOT appears twice in one level"),
        ],
    )
    def test_parse_with_a_misplaced_cat_or_root_fails(self, runner, tmp_path, parse, message):
        analyzer = tmp_path / "analyzer.tsv"
        shutil.copy(bundled_path("analyzer.tsv"), analyzer)
        lineno = len(analyzer.read_text(encoding="utf-8").splitlines()) + 1
        with analyzer.open("a", encoding="utf-8") as handle:
            handle.write(f"kazma\t{parse}\n")
        result = runner.invoke(main, ["--analyzer", str(analyzer), "check"])
        assert result.exit_code == 1
        assert f"{analyzer}:{lineno}: {message}" in result.output

    @pytest.mark.parametrize(
        "head, old, new",
        [
            ("entry nominal,noun,common,none,none at ", "sem:[", "sem:foo, old:["),
            ("entry nominal,noun,common,none,none at ", "sem:", "syn:foo, sem:"),
            ("template nominal,sentential,act,infinitive,ma ", "syn:", "morph:foo, syn:"),
        ],
        ids=["entry-sem", "entry-syn", "template-morph"],
    )
    def test_block_that_is_not_a_structure_fails(self, runner, tmp_db, head, old, new):
        lines = tmp_db.read_text(encoding="utf-8").splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(head))
        lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
        tmp_db.write_text("\n".join(lines) + "\n", encoding="utf-8")
        block = new.partition(":")[0]
        message = f"{tmp_db}:{lineno}: {head.rstrip()}: "
        for args in (["check"], ["query", "[phon:kazma]"]):
            result = runner.invoke(main, ["--db", str(tmp_db), *args])
            assert result.exit_code == 1
            assert message in result.output
            assert f"{block} block is missing or not a structure" in result.output

    @pytest.mark.parametrize(
        "parse, key",
        [
            ("[[CAT=NOUN][ROOT=at][FORM=DERIVED]]", "FORM"),
            ("[[CAT=VERB][ROOT=kaz][SENSE=POS][CONV=NOUN=MA][TYPE=INFINITIVE][STEM=X][AGR=3SG]]",
             "STEM"),
        ],
    )
    def test_parse_setting_form_or_stem_fails(self, runner, tmp_path, parse, key):
        analyzer = tmp_path / "analyzer.tsv"
        shutil.copy(bundled_path("analyzer.tsv"), analyzer)
        lineno = len(analyzer.read_text(encoding="utf-8").splitlines()) + 1
        with analyzer.open("a", encoding="utf-8") as handle:
            handle.write(f"kazma\t{parse}\n")
        result = runner.invoke(main, ["--analyzer", str(analyzer), "check"])
        assert result.exit_code == 1
        assert f"{analyzer}:{lineno}: {key} is set by the lexicon, not the analyzer" in result.output

    def test_every_bad_file_is_listed_in_order(self, runner, tmp_path):
        rootmap = tmp_path / "rootmap.tsv"
        rootmap.write_text("noun\tnone\tat\n", encoding="utf-8")
        db = tmp_path / "lexicon.fdb"
        db.write_text("lexeme a,b := [x:y]\n", encoding="utf-8")
        result = runner.invoke(main, ["--rootmap", str(rootmap), "--db", str(db), "check"])
        assert result.exit_code == 1
        problems = [line for line in result.output.splitlines() if line.startswith("problem:")]
        assert len(problems) == 2
        assert f"{rootmap}:1: expected 4 tab-separated fields" in problems[0]
        assert f"{db}:1: expected 'entry' or 'template'" in problems[1]
        assert result.output.splitlines()[-1] == "2 problem(s) found"
