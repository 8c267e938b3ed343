"""Tests for the feature-structure database: load/save, defaults, operations."""

import copy
import dataclasses
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turklex import fsdb
from turklex._data import bundled_path
from turklex.catmap import Cat5, DerivMapTable, RootMapTable
from turklex.engine import LexiconEngine
from turklex.featstruct import (
    BaseConcept,
    FeatStruct,
    FSSet,
    Neg,
    Seq,
    copy_fs,
    fs_equal,
    parse_fs_text,
    render_fs,
)
from turklex.fsdb import (
    Database,
    DatabaseFormatError,
    InvariantError,
    LexiconEntry,
    add_entry,
    browse,
    clause_line,
    delete_entry,
    dumps,
    fill_entry_defaults,
    load,
    lookup,
    lookup_template,
    save,
    validate_entry,
)

COMMON = Cat5.from_text("nominal,noun,common,none,none")
PRED = Cat5.from_text("verb,predicative,none,none,none")


@pytest.fixture()
def db():
    """A fresh copy of the bundled database for tests that mutate it."""
    return load(bundled_path("lexicon.fdb"))


@pytest.fixture(scope="module")
def seed_db():
    """A shared read-only copy for pure lookups."""
    return load(bundled_path("lexicon.fdb"))


def make_entry(root="yol", concept="road", cat=COMMON):
    fs = parse_fs_text(
        f"[cat:[maj:{cat.maj}, min:{cat.min}, sub:{cat.sub}, ssub:{cat.ssub}, "
        f"sssub:{cat.sssub}], morph:[stem:{root}, form:lexical], "
        f"sem:[concept:{root}-({concept})], phon:{root}]"
    )
    return LexiconEntry(cat, root, fs)


class TestLoad:
    def test_counts(self, seed_db):
        assert len(seed_db.clauses) == 49
        assert len(seed_db.templates) == 14
        assert sum(len(v) for v in seed_db.entries.values()) == 35

    def test_sense_order_preserved(self, seed_db):
        ek = lookup(seed_db, COMMON, "ek")
        assert [e.fs["sem"]["concept"] for e in ek] == [
            BaseConcept("ek", "suffix"),
            BaseConcept("ek", "appendix"),
        ]

    def test_multisense_verb(self, seed_db):
        senses = lookup(seed_db, PRED, "ye")
        glosses = [e.fs["sem"]["concept"].gloss for e in senses]
        assert glosses == [
            "to eat something",
            "to eat from something",
            "to get mentally deranged",
            "to be unfair",
        ]

    def test_lookup_unknown(self, seed_db):
        assert lookup(seed_db, COMMON, "yol") == []

    def test_malformed_clause(self, tmp_path):
        path = tmp_path / "bad.fdb"
        path.write_text("entry nominal,noun,common,none,none\n", encoding="utf-8")
        with pytest.raises(DatabaseFormatError, match=":1:"):
            load(path)

    def test_unknown_keyword(self, tmp_path):
        path = tmp_path / "bad.fdb"
        path.write_text("lexeme a,b := [x:y]\n", encoding="utf-8")
        with pytest.raises(DatabaseFormatError, match="entry"):
            load(path)

    def test_bad_feature_structure_reports_line(self, tmp_path):
        path = tmp_path / "bad.fdb"
        path.write_text(
            "# comment\nentry nominal,noun,common,none,none x := [cat:[\n",
            encoding="utf-8",
        )
        with pytest.raises(DatabaseFormatError, match=":2:"):
            load(path)

    def test_duplicate_template_rejected(self, tmp_path):
        clause = (
            "template verb,attributive,none,none,none := "
            "[cat:[maj:verb, min:attributive, sub:none, ssub:none, sssub:none]]"
        )
        path = tmp_path / "dup.fdb"
        path.write_text(clause + "\n" + clause + "\n", encoding="utf-8")
        with pytest.raises(DatabaseFormatError, match="duplicate template"):
            load(path)

    def test_template_cat_mismatch_reported(self, tmp_path):
        path = tmp_path / "bad.fdb"
        path.write_text(
            "template verb,attributive,none,none,none := "
            "[cat:[maj:verb, min:predicative, sub:none, ssub:none, sssub:none]]\n",
            encoding="utf-8",
        )
        with pytest.raises(
            DatabaseFormatError,
            match=r":1: template verb,attributive,none,none,none: "
            r"cat\|min is 'predicative', key says 'attributive'$",
        ):
            load(path)

    def test_entry_invariant_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.fdb"
        path.write_text(
            "entry nominal,noun,common,none,none yol := "
            "[cat:[maj:nominal, min:noun, sub:common, ssub:none, sssub:none], "
            "morph:[stem:yollar, form:lexical], sem:[concept:yol-(road)]]\n",
            encoding="utf-8",
        )
        with pytest.raises(DatabaseFormatError, match="stem"):
            load(path)

    def test_entry_whose_concept_is_not_a_concept_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.fdb"
        path.write_text(
            "entry verb,predicative,none,none,none kaz := "
            "[cat:[maj:verb, min:predicative, sub:none, ssub:none, sssub:none], "
            "morph:[stem:kaz, form:lexical], sem:[concept:dig]]\n",
            encoding="utf-8",
        )
        with pytest.raises(DatabaseFormatError, match=r":1: .* sem\|concept 'dig' is not a concept"):
            load(path)

    @pytest.mark.parametrize(
        "clause, block",
        [
            ("entry verb,predicative,none,none,none kaz := [cat:[maj:verb, min:predicative, "
             "sub:none, ssub:none, sssub:none], morph:[stem:kaz, form:lexical], sem:foo]", "sem"),
            ("entry verb,predicative,none,none,none kaz := [cat:[maj:verb, min:predicative, "
             "sub:none, ssub:none, sssub:none], morph:[stem:kaz, form:lexical], syn:foo, "
             "sem:[concept:kaz-(dig)]]", "syn"),
            ("entry nominal,noun,common,none,none at := [cat:[maj:nominal, min:noun, "
             "sub:common, ssub:none, sssub:none], morph:[stem:at, form:lexical], "
             "syn:<[a:b]>, sem:[concept:at-(horse)]]", "syn"),
            ("template nominal,sentential,act,infinitive,ma := [cat:[maj:nominal, "
             "min:sentential, sub:act, ssub:infinitive, sssub:ma], morph:foo]", "morph"),
            ("template nominal,sentential,act,infinitive,ma := [cat:[maj:nominal, "
             "min:sentential, sub:act, ssub:infinitive, sssub:ma], syn:foo]", "syn"),
            ("template nominal,sentential,act,infinitive,ma := [cat:[maj:nominal, "
             "min:sentential, sub:act, ssub:infinitive, sssub:ma], sem:{a, b}]", "sem"),
        ],
        ids=["entry-sem", "entry-syn", "entry-syn-seq", "template-morph", "template-syn",
             "template-sem"],
    )
    def test_block_that_is_not_a_structure_reported_with_line(self, tmp_path, clause, block):
        path = tmp_path / "bad.fdb"
        path.write_text(f"# comment\n{clause}\n", encoding="utf-8")
        with pytest.raises(
            DatabaseFormatError, match=rf":2: .*: {block} block is missing or not a structure$"
        ):
            load(path)

    def test_equal_atoms_and_names_are_one_object(self, seed_db):
        (kaz,) = lookup(seed_db, PRED, "kaz")
        (var,) = lookup(seed_db, Cat5.from_text("verb,existential"), "var")
        assert kaz.fs["cat"]["sub"] == "none"
        assert var.fs["cat"]["sub"] is kaz.fs["cat"]["sub"]
        assert var.cat.sub is kaz.fs["cat"]["sub"]
        (name,) = (k for k in kaz.fs.keys() if k == "cat")
        assert next(k for k in var.fs.keys() if k == "cat") is name

    def test_collector_state_restored(self, tmp_path, monkeypatch):
        bad = tmp_path / "bad.fdb"
        bad.write_text("lexeme a,b := [x:y]\n", encoding="utf-8")
        was_enabled = gc.isenabled()
        seen = []

        def parse(text, sets):
            seen.append(gc.isenabled())
            return parse_fs_text(text, sets)

        monkeypatch.setattr(fsdb, "parse_fs_text", parse)
        try:
            gc.enable()
            load(bundled_path("lexicon.fdb"))
            assert gc.isenabled()
            assert seen and not any(seen)  # paused while the clauses are built
            with pytest.raises(DatabaseFormatError):
                load(bad)
            assert gc.isenabled()
            gc.disable()
            load(bundled_path("lexicon.fdb"))
            assert not gc.isenabled()
            with pytest.raises(DatabaseFormatError):
                load(bad)
            assert not gc.isenabled()
        finally:
            if was_enabled:
                gc.enable()
            else:
                gc.disable()


CONSTRAINTS = "{[cat:[maj:nominal, min:{noun, pronoun}], morph:[case:nom]]}"


def template_lines(*bodies):
    """Canonical template clauses, one per body, under categories a, b, ..."""
    return [
        f"template {maj},none,none,none,none := [cat:[maj:{maj}, min:none, sub:none, "
        f"ssub:none, sssub:none], {body}]"
        for maj, body in zip("abcdefgh", bodies)
    ]


def set_nodes(value, found):
    """Every FSSet node reached from ``value``, by id."""
    if isinstance(value, (FeatStruct, Seq, FSSet)) and id(value) not in found:
        if isinstance(value, FSSet):
            found[id(value)] = value
        for inner in value.values() if isinstance(value, FeatStruct) else value:
            set_nodes(inner, found)
    return found


@pytest.fixture()
def unshared_load(monkeypatch):
    """``load`` as it was before sets were shared: each clause parsed alone."""

    def load_unshared(path):
        with monkeypatch.context() as patch:
            patch.setattr(fsdb, "parse_fs_text", lambda text, sets: parse_fs_text(text))
            return load(path)

    return load_unshared


class TestSharedSets:
    def test_bundled_sets_are_one_object_per_text(self, seed_db, unshared_load):
        # the sets of each clause, counted once per clause
        sets = [found for clause in seed_db.clauses for found in set_nodes(clause.fs, {}).values()]
        assert (len(sets), len({render_fs(found) for found in sets})) == (28, 17)
        assert len({id(found) for found in sets}) == 17
        unshared = unshared_load(bundled_path("lexicon.fdb"))
        assert len({i for clause in unshared.clauses for i in set_nodes(clause.fs, {})}) == 28
        assert dumps(seed_db) == dumps(unshared)
        for ours, theirs in zip(seed_db.clauses, unshared.clauses):
            assert ours == theirs

    def test_equal_sets_in_two_clauses_are_one_object(self, tmp_path):
        lines = template_lines(f"x:{CONSTRAINTS}, m:{{acc, nom}}",
                               f"y:[x:{CONSTRAINTS}], m:{{acc, nom}}")
        text = "\n".join([fsdb._HEADER, *lines]) + "\n"
        path = tmp_path / "db.fdb"
        path.write_text(text, encoding="utf-8")
        db = load(path)
        one, two = (clause.fs for clause in db.clauses)
        assert two["y"]["x"] is one["x"] and two["m"] is one["m"]
        assert dumps(db) == text

    def test_equal_sets_in_one_clause_stay_two_objects(self, tmp_path):
        lines = template_lines(f"x:{CONSTRAINTS}",
                               f"x:{CONSTRAINTS}, y:[z:{CONSTRAINTS}]")
        path = tmp_path / "db.fdb"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        db = load(path)
        one, two = (clause.fs for clause in db.clauses)
        assert two["x"] is one["x"] and two["y"]["z"] is not one["x"]
        assert [clause_line(clause) for clause in db.clauses] == lines
        assert "@" not in dumps(db)

    @pytest.mark.parametrize(
        "text", ["{[a:@1=[b:c], d:@1]}", "{[a:'b c']}", "{[a:x-(y)]}"]
    )
    def test_set_holding_a_tag_quote_or_concept_is_not_shared(self, tmp_path, text):
        lines = template_lines(f"x:{text}", f"x:{text}")
        path = tmp_path / "db.fdb"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        db = load(path)
        one, two = (clause.fs for clause in db.clauses)
        assert one["x"] == two["x"] and one["x"] is not two["x"]
        assert [clause_line(clause) for clause in db.clauses] == lines

    def test_template_and_entry_with_one_set_derive_as_unshared(self, tmp_path, unshared_load):
        # kaz's subject constraints, also under the infinitive template's syn
        old = ("template nominal,sentential,act,infinitive,ma := [cat:[maj:nominal, "
               "min:sentential, sub:act, ssub:infinitive, sssub:ma], syn:[subcat:none")
        text = bundled_path("lexicon.fdb").read_text(encoding="utf-8")
        assert old in text
        path = tmp_path / "lexicon.fdb"
        path.write_text(text.replace(old, f"{old}, also:{CONSTRAINTS}"), encoding="utf-8")

        def derive(db):
            engine = LexiconEngine.from_bundled_data()
            engine.db = db
            return [render_fs(fs) for fs in engine.query(parse_fs_text("[phon:kazma]"))]

        db = load(path)
        (kaz,) = lookup(db, PRED, "kaz")
        template = db.templates[Cat5.from_text("nominal,sentential,act,infinitive,ma")]
        assert template.fs["syn"]["also"] is kaz.fs["syn"]["subcat"][0]["constraints"]
        shared = derive(db)
        assert shared == derive(unshared_load(path))
        # the derived result holds the set twice, untagged: as its own copies
        derived = [text for text in shared if "also:" in text]
        assert len(derived) == 1 and f"constraints:{CONSTRAINTS}" in derived[0]
        assert f"also:{CONSTRAINTS}" in derived[0]


class TestSharedCategories:
    def test_one_cat5_per_distinct_category(self):
        db = load(bundled_path("lexicon.fdb"))
        cats = [clause.cat for clause in db.clauses]
        assert len({id(cat) for cat in cats}) == len(set(cats)) < len(cats)
        for table in (RootMapTable.load(bundled_path("rootmap.tsv")),
                      DerivMapTable.load(bundled_path("derivmap.tsv"))):
            cats = list(table.rows.values())
            assert len({id(cat) for cat in cats}) == len(set(cats)) < len(cats)


class TestLineBreaks:
    @pytest.mark.parametrize(
        "value", [BaseConcept("yol", "a\nb"), "a\nb", "a\rb", BaseConcept("yol", "a\r\nb")]
    )
    def test_clause_with_a_line_break_cannot_be_saved(self, db, tmp_path, value):
        path = tmp_path / "lexicon.fdb"
        save(db, path)
        before = path.read_bytes()
        entry = make_entry()
        entry.fs["sem"]["note" if isinstance(value, str) else "concept"] = value
        add_entry(db, entry)
        with pytest.raises(InvariantError, match="^entry nominal,noun,common,none,none yol: "):
            clause_line(entry)
        assert entry.line is None
        with pytest.raises(InvariantError, match="line break"):
            save(db, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["lexicon.fdb"]


class TestDefaults:
    def test_common_noun_flags_appended_in_order(self, seed_db):
        (at,) = lookup(seed_db, COMMON, "at")
        assert list(at.fs["sem"].keys()) == [
            "concept", "countable", "animate",
            "material", "unit", "container", "spatial", "temporal",
        ]
        assert at.fs["sem"]["animate"] == "+"
        assert at.fs["sem"]["material"] == "-"

    def test_subcat_defaults_to_none(self, seed_db):
        (at,) = lookup(seed_db, COMMON, "at")
        assert at.fs["syn"]["subcat"] == "none"
        # syn slots in before sem, keeping the conventional block order
        assert list(at.fs.keys()) == ["cat", "morph", "syn", "sem", "phon"]

    def test_authored_subcat_untouched(self, seed_db):
        (borc,) = lookup(seed_db, COMMON, "borC")
        assert isinstance(borc.fs["syn"]["subcat"], FSSet)

    def test_subcat_prepended_when_syn_exists(self, seed_db):
        (bir,) = lookup(seed_db, Cat5.from_text("adjectival,determiner,article"), "bir")
        assert list(bir.fs["syn"].keys()) == ["subcat", "modifies"]
        assert bir.fs["syn"]["subcat"] == "none"

    def test_adjectival_defaults(self, seed_db):
        (memnun,) = lookup(
            seed_db, Cat5.from_text("adjectival,adjective,qualitative"), "memnun"
        )
        assert memnun.fs["sem"]["gradable"] == "-"
        assert memnun.fs["sem"]["questional"] == "-"

    def test_adverbial_default(self, seed_db):
        (disari,) = lookup(seed_db, Cat5.from_text("adverbial,direction"), "dISarI")
        assert disari.fs["sem"]["questional"] == "-"

    def test_pronoun_definiteness(self, seed_db):
        (o,) = lookup(seed_db, Cat5.from_text("nominal,pronoun,demonstrative"), "o")
        assert o.fs["sem"]["definite"] == "+"  # authored value wins
        (bircok,) = lookup(
            seed_db, Cat5.from_text("nominal,pronoun,quantification"), "birCok"
        )
        assert bircok.fs["sem"]["definite"] == "-"

    def test_bracketing_conjunction_defaults(self, seed_db):
        (gerek,) = lookup(seed_db, Cat5.from_text("conjunction,bracketing"), "gerek")
        assert gerek.fs["sem"]["polarity"] == "+"
        assert gerek.fs["sem"]["connection"] == "and"

    def test_idempotent(self):
        entry = make_entry()
        fill_entry_defaults(entry.fs, entry.cat)
        before = copy.deepcopy(entry.fs)
        fill_entry_defaults(entry.fs, entry.cat)
        assert fs_equal(entry.fs, before)


class TestTemplates:
    def test_lookup_returns_fresh_copy(self, seed_db):
        cat = Cat5.from_text("verb,attributive,none,none,none")
        first = lookup_template(seed_db, cat)
        first["morph"]["agr"] = "3sg"
        again = lookup_template(seed_db, cat)
        assert again["morph"]["agr"] == "none"

    def test_lookup_template_miss(self, seed_db):
        assert lookup_template(seed_db, Cat5.from_text("verb,auxiliary")) is None

    def test_attributive_template_shape(self, seed_db):
        fs = lookup_template(seed_db, Cat5.from_text("verb,attributive,none,none,none"))
        assert list(fs["morph"].keys()) == ["tam2", "copula", "agr"]
        assert fs["syn"]["subcat"] == "none"
        assert fs["sem"]["roles"] == "none"

    def test_infinitive_template_has_no_morph_block(self, seed_db):
        fs = lookup_template(
            seed_db, Cat5.from_text("nominal,sentential,act,infinitive,ma")
        )
        assert "morph" not in fs
        assert fs["cat"]["sssub"] == "ma"


class TestAddDelete:
    def test_add_appends_as_last_sense(self, db):
        entry = make_entry(root="ek", concept="patch")
        add_entry(db, entry)
        senses = lookup(db, COMMON, "ek")
        assert len(senses) == 3
        assert senses[-1] is entry
        # new clause lands at the end of the file
        assert dumps(db).rstrip().splitlines()[-1].startswith("entry nominal,noun,common,none,none ek")

    def test_add_fills_defaults(self, db):
        entry = make_entry()
        add_entry(db, entry)
        assert entry.fs["syn"]["subcat"] == "none"
        assert entry.fs["sem"]["countable"] == "-"

    def test_add_rejects_stem_mismatch(self, db):
        entry = make_entry()
        entry.fs["morph"]["stem"] = "yollar"
        with pytest.raises(InvariantError, match="stem"):
            add_entry(db, entry)

    def test_add_rejects_non_lexical_form(self, db):
        entry = make_entry()
        entry.fs["morph"]["form"] = "derived"
        with pytest.raises(InvariantError, match="form"):
            add_entry(db, entry)

    def test_add_rejects_missing_concept(self, db):
        entry = make_entry()
        del entry.fs["sem"]["concept"]
        with pytest.raises(InvariantError, match="concept"):
            add_entry(db, entry)

    @pytest.mark.parametrize("value", ["road", Neg("road"), FeatStruct()])
    def test_add_rejects_concept_that_is_not_a_concept(self, db, value):
        entry = make_entry()
        entry.fs["sem"]["concept"] = value
        with pytest.raises(InvariantError, match="is not a concept"):
            add_entry(db, entry)

    @pytest.mark.parametrize("root", ["a b", "", "a\tb"])
    def test_add_rejects_root_that_is_not_one_word(self, db, root):
        entry = dataclasses.replace(make_entry(), root=root)
        entry.fs["morph"]["stem"] = root
        clauses = len(db.clauses)
        with pytest.raises(InvariantError, match="is not one word without whitespace$"):
            add_entry(db, entry)
        assert len(db.clauses) == clauses

    def test_add_rejects_cat_mismatch(self, db):
        entry = make_entry()
        entry.fs["cat"]["min"] = "pronoun"
        with pytest.raises(
            InvariantError,
            match=r"^entry nominal,noun,common,none,none yol: "
            r"cat\|min is 'pronoun', key says 'noun'$",
        ):
            add_entry(db, entry)

    def test_delete_sense(self, db):
        removed = delete_entry(db, COMMON, "ek", 0)
        assert removed.fs["sem"]["concept"] == BaseConcept("ek", "suffix")
        remaining = lookup(db, COMMON, "ek")
        assert len(remaining) == 1
        assert remaining[0].fs["sem"]["concept"] == BaseConcept("ek", "appendix")

    def test_delete_last_sense_drops_key(self, db):
        delete_entry(db, COMMON, "at", 0)
        assert lookup(db, COMMON, "at") == []
        assert (COMMON, "at") not in db.entries

    def test_delete_unknown_word(self, db):
        with pytest.raises(KeyError):
            delete_entry(db, COMMON, "yol", 0)

    def test_delete_bad_index(self, db):
        with pytest.raises(IndexError, match="2 sense"):
            delete_entry(db, COMMON, "ek", 5)

    def test_delete_removes_that_sense_among_equal_ones(self, tmp_path):
        ek, el = make_entry("ek", "suffix"), make_entry("el", "hand")
        text = "".join(
            f"entry {e.cat.render()} {e.root} := {render_fs(e.fs)}\n" for e in (ek, el, ek)
        )
        path = tmp_path / "equal.fdb"
        path.write_text(text, encoding="utf-8")
        db = load(path)
        first, second = lookup(db, COMMON, "ek")
        assert first == second and first is not second
        assert delete_entry(db, COMMON, "ek", 1) is second
        assert db.clauses[0] is first
        assert [clause.root for clause in db.clauses] == ["ek", "el"]
        assert [line.split()[2] for line in dumps(db).splitlines()[1:]] == ["ek", "el"]


class TestBrowse:
    def test_by_category_prefix(self, seed_db):
        nominals = browse(seed_db, cat=Cat5.from_text("nominal"))
        assert {e.root for e in nominals} == {
            "at", "ek", "ekim", "kazma", "akIl", "ihtiyaC", "gece", "sinir",
            "borC", "tamir", "kurtuluS", "o", "birCok",
        }

    def test_by_exact_category(self, seed_db):
        verbs = browse(seed_db, cat=PRED)
        assert [e.root for e in verbs] == [
            "kaz", "ye", "ye", "ye", "ye", "bil", "bit", "ilet", "ilet", "ilet",
        ]

    def test_by_root_substring(self, seed_db):
        assert {e.root for e in browse(seed_db, root="ka")} == {"kaz", "kazma"}

    def test_combined_filters(self, seed_db):
        hits = browse(seed_db, cat=Cat5.from_text("nominal,noun"), root="ek")
        assert [e.root for e in hits] == ["ek", "ek", "ekim"]

    def test_no_filters_returns_all_entries(self, seed_db):
        assert len(browse(seed_db)) == 35


class TestSaveLoad:
    def test_canonical_fixpoint(self, seed_db, tmp_path):
        first = dumps(seed_db)
        path = tmp_path / "canon.fdb"
        path.write_text(first, encoding="utf-8")
        assert dumps(load(path)) == first

    def test_save_then_load_preserves_structure(self, db, tmp_path):
        path = tmp_path / "out.fdb"
        save(db, path)
        again = load(path)
        assert len(again.clauses) == len(db.clauses)
        for key, senses in db.entries.items():
            reloaded = again.entries[key]
            assert len(reloaded) == len(senses)
            for a, b in zip(senses, reloaded):
                assert fs_equal(a.fs, b.fs)
        for key, template in db.templates.items():
            assert fs_equal(again.templates[key].fs, template.fs)

    def test_failed_save_leaves_file_untouched(self, db, tmp_path, monkeypatch):
        path = tmp_path / "lexicon.fdb"
        save(db, path)
        before = path.read_bytes()

        def broken_dumps(_db):
            raise RuntimeError("render failed")

        monkeypatch.setattr("turklex.fsdb.dumps", broken_dumps)
        add_entry(db, make_entry())
        with pytest.raises(RuntimeError, match="render failed"):
            save(db, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["lexicon.fdb"]

    def test_failed_write_removes_temp_file(self, db, tmp_path, monkeypatch):
        path = tmp_path / "lexicon.fdb"
        save(db, path)
        before = path.read_bytes()

        def broken_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr("os.replace", broken_replace)
        add_entry(db, make_entry())
        with pytest.raises(OSError, match="rename failed"):
            save(db, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["lexicon.fdb"]

    def test_save_keeps_permission_bits(self, db, tmp_path):
        path = tmp_path / "lexicon.fdb"
        save(db, path)
        path.chmod(0o640)
        save(db, path)
        assert path.stat().st_mode & 0o777 == 0o640

    def test_save_through_symlink_writes_target(self, db, tmp_path):
        target = tmp_path / "lexicon.fdb"
        target.write_text("stale\n", encoding="utf-8")
        link = tmp_path / "link.fdb"
        link.symlink_to(target)
        save(db, link)
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == dumps(db)

    def test_save_renders_only_new_clauses(self, db, monkeypatch):
        rendered = []

        def counting_render(fs, style):
            rendered.append(fs)
            return render_fs(fs, style=style)

        monkeypatch.setattr("turklex.fsdb.render_fs", counting_render)
        first = dumps(db)
        assert len(rendered) == len(db.clauses)
        assert dumps(db) == first
        assert len(rendered) == len(db.clauses)
        entry = make_entry()
        add_entry(db, entry)
        dumps(db)
        assert rendered[-1] is entry.fs
        assert len(rendered) == len(db.clauses)

    def test_load_renders_nothing(self, monkeypatch):
        def no_render(fs, style):
            raise AssertionError("rendered at load")

        monkeypatch.setattr("turklex.fsdb.render_fs", no_render)
        db = load(bundled_path("lexicon.fdb"))
        assert all(clause.line is None for clause in db.clauses)

    def test_stored_line_does_not_affect_equality(self):
        entry = make_entry()
        other = dataclasses.replace(entry)
        clause_line(entry)
        assert entry.line is not None and other.line is None
        assert entry == other
        assert "line" not in repr(entry)

    def test_validate_entry_accepts_seed(self, seed_db):
        for senses in seed_db.entries.values():
            for entry in senses:
                validate_entry(entry)


def fresh_dumps(db: Database) -> str:
    """``dumps`` over copies of the clauses with no stored line."""
    fresh = Database()
    fresh.clauses = [dataclasses.replace(clause, line=None) for clause in db.clauses]
    return dumps(fresh)


def assert_consistent(db: Database) -> None:
    """``db.clauses`` holds exactly the entries and templates, by identity,
    with each word's senses in their sense order."""
    indexed = [e for senses in db.entries.values() for e in senses]
    indexed += db.templates.values()
    assert sorted(map(id, db.clauses)) == sorted(map(id, indexed))
    for key, senses in db.entries.items():
        in_file = [c for c in db.clauses
                   if isinstance(c, LexiconEntry) and (c.cat, c.root) == key]
        assert all(a is b for a, b in zip(in_file, senses)) and len(in_file) == len(senses)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_stored_lines_match_a_fresh_render(tmp_path_factory, data):
    db = load(bundled_path("lexicon.fdb"))
    # a few words, so that equal senses of one word meet often
    words = [(COMMON, "ek"), (COMMON, "at"), (PRED, "ye")]
    pool = [e for word in words for e in db.entries[word]]
    for _ in range(data.draw(st.integers(1, 10), label="steps")):
        present = [word for word in words if word in db.entries]
        if present and data.draw(st.booleans(), label="delete"):
            cat, root = data.draw(st.sampled_from(present), label="word")
            index = data.draw(st.integers(0, len(db.entries[(cat, root)]) - 1), label="sense")
            delete_entry(db, cat, root, index)
        else:
            sense = data.draw(st.sampled_from(pool), label="add")
            add_entry(db, LexiconEntry(sense.cat, sense.root, copy_fs(sense.fs)))
        assert dumps(db) == fresh_dumps(db)
        assert_consistent(db)
    path = tmp_path_factory.mktemp("lines") / "lexicon.fdb"
    save(db, path)
    assert dumps(load(path)) == dumps(db)
