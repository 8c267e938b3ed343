"""Tests for the feature-structure database: load/save, defaults, operations."""

import copy
import dataclasses
import gc
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turklex import fsdb
from turklex._data import bundled_path
from turklex.catmap import Cat5, DerivMapTable, RootMapTable, load_inventory
from turklex.engine import LexiconEngine
from turklex.featstruct import (
    BaseConcept,
    FeatStruct,
    FrozenFeatStruct,
    FrozenFSSet,
    FrozenSeq,
    FSSet,
    Neg,
    Seq,
    copy_fs,
    fs_equal,
    node_counts,
    parse_fs_text,
    render_fs,
    thaw,
)
from turklex.fsdb import (
    TAKEN_OVER,
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
    """A new sense whose nodes are all mutable, so a test can change it."""
    fs = parse_fs_text(
        f"[cat:[maj:{cat.maj}, min:{cat.min}, sub:{cat.sub}, ssub:{cat.ssub}, "
        f"sssub:{cat.sssub}], morph:[stem:{root}, form:lexical], "
        f"sem:[concept:{root}-({concept})], phon:{root}]"
    )
    return LexiconEntry(cat, root, copy_fs(fs))


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

    @pytest.mark.parametrize("name", ["stem", "form", "derv_suffix"])
    def test_template_setting_a_derived_morph_feature_reported(self, tmp_path, name):
        # build_derived sets these three itself; a template default would
        # override them and hide the derivation from the early restriction
        path = tmp_path / "bad.fdb"
        path.write_text(
            "template verb,attributive,none,none,none := "
            "[cat:[maj:verb, min:attributive, sub:none, ssub:none, sssub:none], "
            f"morph:[tam2:none, {name}:x]]\n",
            encoding="utf-8",
        )
        with pytest.raises(
            DatabaseFormatError,
            match=rf":1: template verb,attributive,none,none,none: morph\|{name} is set "
            r"by the derivation$",
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


def entry_lines(*bodies):
    """Canonical entry clauses, one per body, of the roots a, b, ... under a
    category whose only default is ``syn|subcat``."""
    return [
        f"entry verb,predicative,none,none,none {root} := [cat:[maj:verb, "
        f"min:predicative, sub:none, ssub:none, sssub:none], morph:[stem:{root}, "
        f"form:lexical], syn:[subcat:none], sem:[concept:{root}-(gloss)], {body}]"
        for root, body in zip("abcdefgh", bodies)
    ]


def set_nodes(value, found):
    """Every FSSet node reached from ``value``, by id."""
    if isinstance(value, (FeatStruct, Seq, FSSet)) and id(value) not in found:
        if isinstance(value, FSSet):
            found[id(value)] = value
        for inner in value.values() if isinstance(value, FeatStruct) else value:
            set_nodes(inner, found)
    return found


def load_unshared(path) -> Database:
    """A reference ``load`` that shares nothing: each clause is parsed
    alone, and an entry gets its defaults from ``add_entry``."""
    db = Database()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("entry"):
            cat, root, text = fsdb._ENTRY_RE.match(line).groups()
            add_entry(db, LexiconEntry(Cat5.from_text(cat), root, parse_fs_text(text)))
        else:
            cat, text = fsdb._TEMPLATE_RE.match(line).groups()
            template = fsdb.TemplateEntry(Cat5.from_text(cat), parse_fs_text(text))
            fsdb.validate_template(template)
            db.templates[template.cat] = template
            db.clauses.append(template)
    return db


class TestSharedSets:
    def test_bundled_sets_are_one_object_per_text(self, seed_db):
        # the sets of each clause, counted once per clause
        sets = [found for clause in seed_db.clauses for found in set_nodes(clause.fs, {}).values()]
        assert (len(sets), len({render_fs(found) for found in sets})) == (28, 17)
        assert len({id(found) for found in sets}) == 17
        unshared = load_unshared(bundled_path("lexicon.fdb"))
        assert len({i for clause in unshared.clauses for i in set_nodes(clause.fs, {})}) == 28
        assert dumps(seed_db) == dumps(unshared)
        for ours, theirs in zip(seed_db.clauses, unshared.clauses):
            assert ours == theirs

    def test_equal_sets_in_two_clauses_are_one_object(self, tmp_path):
        lines = entry_lines(f"x:{CONSTRAINTS}, m:{{acc, nom}}",
                            f"y:[x:{CONSTRAINTS}], m:{{acc, nom}}")
        text = "\n".join([fsdb._HEADER, *lines]) + "\n"
        path = tmp_path / "db.fdb"
        path.write_text(text, encoding="utf-8")
        db = load(path)
        one, two = (clause.fs for clause in db.clauses)
        assert two["y"]["x"] is one["x"] and two["m"] is one["m"]
        assert dumps(db) == text

    def test_equal_sets_in_one_clause_are_one_frozen_value(self, tmp_path):
        lines = entry_lines(f"x:{CONSTRAINTS}",
                            f"x:{CONSTRAINTS}, y:[z:{CONSTRAINTS}]")
        path = tmp_path / "db.fdb"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        db = load(path)
        one, two = (clause.fs for clause in db.clauses)
        assert two["x"] is one["x"] and two["y"]["z"] is one["x"]
        assert type(one["x"]) is FrozenFSSet
        # a value reached twice in one clause reads as two equal values
        assert [clause_line(clause) for clause in db.clauses] == lines
        assert "@" not in dumps(db)

    @pytest.mark.parametrize(
        "text", ["{[a:@1=[b:c], d:@1]}", "{[a:'b c']}", "{[a:x-(y)]}"]
    )
    def test_set_holding_a_tag_quote_or_concept_is_not_shared(self, tmp_path, text):
        lines = entry_lines(f"x:{text}", f"x:{text}")
        path = tmp_path / "db.fdb"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        db = load(path)
        one, two = (clause.fs for clause in db.clauses)
        assert one["x"] == two["x"] and one["x"] is not two["x"]
        assert [clause_line(clause) for clause in db.clauses] == lines

    def test_template_and_entry_with_one_set_derive_as_unshared(self, tmp_path):
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
        # a template shares the load's sets too: one frozen value
        also, constraints = template.fs["syn"]["also"], kaz.fs["syn"]["subcat"][0]["constraints"]
        assert also is constraints and type(also) is FrozenFSSet
        shared = derive(db)
        assert shared == derive(load_unshared(path))
        # the derived result holds the set twice, untagged
        derived = [text for text in shared if "also:" in text]
        assert len(derived) == 1 and f"constraints:{CONSTRAINTS}" in derived[0]
        assert f"also:{CONSTRAINTS}" in derived[0]


VERB_CAT = "cat:[maj:verb, min:predicative, sub:none, ssub:none, sssub:none]"


def verb(root, cat=VERB_CAT, syn=", syn:[subcat:none]", extra=""):
    """An entry clause of the root ``root`` under verb,predicative."""
    return (f"entry verb,predicative,none,none,none {root} := [{cat}, morph:[stem:{root}, "
            f"form:lexical]{syn}, sem:[concept:{root}-(gloss)]{extra}]")


TEMPLATE = f"template verb,predicative,none,none,none := [{VERB_CAT}]"

# each file's clauses, the distinct cat blocks of its clauses, and the
# distinct syn blocks of its entries
BLOCK_FILES = {
    "two of one category": ([verb("a"), verb("b")], 1, 2),
    "a nested block repeats its cat": ([verb("a"), verb("b", extra=f", x:[{VERB_CAT}]")], 1, 2),
    "another feature order": (
        [verb("a"),
         verb("b", cat="cat:[min:predicative, maj:verb, sub:none, ssub:none, sssub:none]"),
         verb("c")], 2, 3),
    "a tagged cat block": (
        [verb("a"), verb("b", cat=VERB_CAT.replace(":[", ":@1=[", 1), extra=", x:@1")], 2, 2),
    "entries without syn": ([verb("a", syn=""), verb("b", syn=""), verb("c")], 1, 2),
    "a template of an entry's category": ([verb("a"), TEMPLATE, verb("b")], 1, 2),
}


def entry_nodes(db) -> set:
    """The mutable nodes of the database's entries, by id."""
    return set().union(*(node_counts(c.fs) for c in db.clauses if isinstance(c, LexiconEntry)))


class TestSharedBlocks:
    """A load's clauses share one frozen cat block per category, and its
    entries without syn one frozen default; that must change nothing a
    clause shows."""

    @pytest.mark.parametrize("name", ["bundled", *BLOCK_FILES])
    def test_load_reads_as_the_unshared_reference(self, name, tmp_path):
        if name == "bundled":
            path = bundled_path("lexicon.fdb")
        else:
            path = tmp_path / "lexicon.fdb"
            path.write_text("\n".join(BLOCK_FILES[name][0]) + "\n", encoding="utf-8")
        db, unshared = load(path), load_unshared(path)
        assert dumps(db) == dumps(unshared)
        for ours, theirs in zip(db.clauses, unshared.clauses, strict=True):
            assert ours == theirs
        if name == "bundled":
            assert len({id(c.fs["cat"]) for c in db.clauses}) == len({c.cat for c in db.clauses})
        else:
            _, cats, syns = BLOCK_FILES[name]
            assert len({id(c.fs["cat"]) for c in db.clauses}) == cats
            assert len({id(e.fs["syn"]) for e in browse(db)}) == syns

    def test_a_template_holds_the_cat_block_of_its_entries(self, tmp_path):
        path = tmp_path / "lexicon.fdb"
        path.write_text("\n".join([verb("a"), TEMPLATE]) + "\n", encoding="utf-8")
        entry, template = load(path).clauses
        assert template.fs["cat"] is entry.fs["cat"] and type(entry.fs["cat"]) is FrozenFeatStruct

    def test_a_nested_block_keeps_its_own_node(self, tmp_path):
        path = tmp_path / "lexicon.fdb"
        path.write_text("\n".join(BLOCK_FILES["a nested block repeats its cat"][0]) + "\n",
                        encoding="utf-8")
        one, two = (clause.fs for clause in load(path).clauses)
        assert two["cat"] is one["cat"] and two["x"]["cat"] is not one["cat"]

    def test_synthetic_lexicon_holds_one_cat_block_per_distinct_block(self, synthetic_db):
        entries = browse(synthetic_db)
        assert len(entries) > 200
        blocks = {render_fs(e.fs["cat"]): e.fs["cat"] for e in entries}
        assert len({id(e.fs["cat"]) for e in entries}) == len(blocks) < 20
        assert all(e.fs["cat"] is blocks[render_fs(e.fs["cat"])] for e in entries)

    def test_two_loads_share_no_mutable_node(self):
        one, two = (load(bundled_path("lexicon.fdb")) for _ in range(2))
        assert entry_nodes(one).isdisjoint(entry_nodes(two))
        # the one default syn is a frozen constant, the same in every load
        (o_one,), (o_two,) = (lookup(db, Cat5.from_text("nominal,pronoun,demonstrative"), "o")
                              for db in (one, two))
        assert o_one.fs["syn"] is o_two.fs["syn"] and type(o_one.fs["syn"]) is FrozenFeatStruct

    def test_entries_added_outside_a_load_get_the_frozen_default_syn(self, db):
        one, two = make_entry("yol"), make_entry("su")
        add_entry(db, one)
        add_entry(db, two)
        assert one.fs["syn"] is two.fs["syn"] and type(one.fs["syn"]) is FrozenFeatStruct
        # fill_entry_defaults writes the sem defaults into a block of the entry's own
        assert one.fs["sem"] is not two.fs["sem"] and type(one.fs["sem"]) is FeatStruct

    def test_equal_glosses_are_one_object(self, tmp_path):
        path = tmp_path / "lexicon.fdb"
        path.write_text("\n".join(entry_lines("x:y", "x:y")) + "\n", encoding="utf-8")
        one, two = load(path).clauses
        concepts = [clause.fs["sem"]["concept"] for clause in (one, two)]
        assert concepts[0].gloss is concepts[1].gloss
        assert [concept.root for concept in concepts] == ["a", "b"]
        assert concepts[0].root is one.root and concepts[1].root is two.root
        # a parse outside a load leaves a new gloss uninterned
        fresh = parse_fs_text("[c:x-(a gloss no load holds)]")["c"].gloss
        assert sys.intern("".join(["a gloss ", "no load holds"])) is not fresh


@pytest.fixture(scope="module")
def synthetic_db(tmp_path_factory):
    from .test_engine import _synthetic_engine

    return _synthetic_engine(tmp_path_factory.mktemp("synthetic")).db


# --------------------------------------------------------------------------
# the type rule: a database node no tag reaches is frozen, and a value

MUTABLE = (FeatStruct, Seq, FSSet)
FROZEN = (FrozenFeatStruct, FrozenSeq, FrozenFSSet)

# each frozen kind's mutators, with arguments that would change a node of
# two items or more
MUTATORS = {
    FrozenFeatStruct: [("__setitem__", "x", "y"), ("__delitem__", "cat"), ("__ior__", {"x": "y"}),
                       ("clear",), ("pop", "cat"), ("popitem",), ("setdefault", "x", "y"),
                       ("update", {"x": "y"})],
    FrozenSeq: [("__setitem__", 0, "y"), ("__delitem__", 0), ("__iadd__", ["y"]), ("__imul__", 2),
                ("append", "y"), ("clear",), ("extend", ["y"]), ("insert", 0, "y"), ("pop",),
                ("remove", None), ("reverse",), ("sort",)],
}
MUTATORS[FrozenFSSet] = MUTATORS[FrozenSeq]


def nodes_below(value, path=()):
    """(path, node) for every node reached from ``value``, ``value`` itself
    included, once per path; a path step into a list is the item's index."""
    if isinstance(value, MUTABLE):
        yield path, value
        items = value.items() if isinstance(value, FeatStruct) else enumerate(value)
        for step, inner in items:
            yield from nodes_below(inner, path + (step,))


# a node of each frozen kind, each of two items or more, and in one text
SAMPLE = "[f:[cat:a, b:c], s:<a, [b:c]>, t:{[a:b], [c:d]}]"


@pytest.fixture(scope="module", params=["bundled", "coindexed", "synthetic"])
def loaded(request, tmp_path_factory):
    """The database of each of the three ``ENGINES`` of ``test_engine``, and
    its file."""
    from .test_engine import ENGINES

    directory = tmp_path_factory.mktemp(request.param)
    db = ENGINES[request.param](directory).db
    path = directory / "lexicon.fdb"
    return db, path if path.exists() else bundled_path("lexicon.fdb")


def frozen_nodes(db):
    """Every frozen node of the database, once each, by id."""
    return {id(node): node for clause in db.clauses
            for _, node in nodes_below(clause.fs) if type(node) in FROZEN}


class TestFrozenNodes:
    def test_every_mutator_of_each_frozen_kind_raises(self, loaded):
        db, _ = loaded
        nodes = list(frozen_nodes(db).values()) + [*parse_fs_text(SAMPLE).values()]
        kinds = {type(node) for node in nodes}
        assert kinds == set(FROZEN)
        for kind in kinds:
            node = max((n for n in nodes if type(n) is kind), key=len)
            before = render_fs(node)
            for name, *args in MUTATORS[kind]:
                if name == "remove":
                    args = [node[0]]
                with pytest.raises(TypeError, match="cannot be changed"):
                    getattr(node, name)(*args)
            assert render_fs(node) == before, kind

    def test_below_the_root_only_tagged_and_taken_over_nodes_are_mutable(self, loaded):
        db, _ = loaded
        taken_over = {(block,) for block in TAKEN_OVER} | {*TAKEN_OVER.items()}
        for clause in db.clauses:
            assert type(clause.fs) is FeatStruct
            counts = node_counts(clause.fs)
            for path, node in nodes_below(clause.fs):
                inner = node.values() if isinstance(node, FeatStruct) else node
                holds_mutable = any(type(value) in MUTABLE for value in inner)
                if type(node) in FROZEN:
                    assert not holds_mutable, (clause_line(clause), path)
                elif path:
                    tagged = counts[id(node)] > 1
                    assert tagged or holds_mutable or path in taken_over, (clause_line(clause), path)
            for block, name in TAKEN_OVER.items():
                value = clause.fs.get(block, {}).get(name)
                if isinstance(value, MUTABLE):
                    assert type(value) in MUTABLE and type(clause.fs[block]) in MUTABLE

    def test_dumps_equals_the_unshared_reference(self, loaded):
        db, path = loaded
        assert dumps(db) == dumps(load_unshared(path))

    def test_a_frozen_cat_block_in_slot_order_is_its_categorys_block(self, loaded):
        db, path = loaded
        held = 0
        for clause, again in zip(db.clauses, load(path).clauses, strict=True):
            block = clause.fs["cat"]
            if type(block) is FrozenFeatStruct and tuple(block) == Cat5._fields:
                assert block is clause.cat.as_fs() is again.fs["cat"], clause_line(clause)
                held += 1
        assert held > len(db.clauses) / 2

    def test_a_frozen_node_equals_a_mutable_one_of_equal_content(self, loaded):
        db, _ = loaded
        for clause in db.clauses:
            copy = copy_fs(clause.fs)
            assert fs_equal(clause.fs, copy) and fs_equal(copy, clause.fs)
        for node in frozen_nodes(db).values():
            for twin in (copy_fs(node), thaw(node)):
                assert type(twin) is MUTABLE[FROZEN.index(type(node))]
                assert fs_equal(node, twin) and fs_equal(twin, node) and node == twin

    def test_a_frozen_node_never_stands_for_a_co_indexed_one(self, loaded):
        db, _ = loaded
        for node in frozen_nodes(db).values():
            twice = FeatStruct([("a", node), ("b", node)])
            one = copy_fs(node)
            coindexed = FeatStruct([("a", one), ("b", one)])
            apart = FeatStruct([("a", copy_fs(node)), ("b", copy_fs(node))])
            assert not fs_equal(twice, coindexed) and not fs_equal(coindexed, twice)
            assert fs_equal(twice, apart) and fs_equal(apart, twice)
            assert "@" not in render_fs(twice) and render_fs(coindexed).startswith("[a:@1=")

    def test_each_frozen_kind_renders_as_its_mutable_twin(self, loaded):
        db, _ = loaded
        nodes = list(frozen_nodes(db).values()) + [*parse_fs_text(SAMPLE).values()]
        for node in nodes:
            for style in ("compact", "indented"):
                for value in (node, FeatStruct([("x", node), ("y", node)])):
                    assert render_fs(value, style) == render_fs(copy_fs(value), style)
        for clause in db.clauses:
            for style in ("compact", "indented"):
                assert render_fs(clause.fs, style) == render_fs(copy_fs(clause.fs), style)

    def test_a_template_holding_a_tag_is_rejected_with_its_line(self, tmp_path):
        text = bundled_path("lexicon.fdb").read_text(encoding="utf-8").splitlines()
        (i,) = [i for i, line in enumerate(text)
                if line.startswith("template adjectival,adjective,qualitative")]
        for tagged in ("syn:[subcat:none, modifies:@1=[cat:[maj:nominal, min:noun, "
                       "sub:common]]], sem:[x:@1, ",
                       "syn:[subcat:none, modifies:[cat:@1=[maj:nominal, min:noun, "
                       "sub:common], x:@1]], sem:["):
            lines = list(text)
            old = "syn:[subcat:none, modifies:[cat:[maj:nominal, min:noun, sub:common]]], sem:["
            assert old in lines[i]
            lines[i] = lines[i].replace(old, tagged)
            path = tmp_path / "lexicon.fdb"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            with pytest.raises(
                DatabaseFormatError,
                match=rf"^{path}:{i + 1}: template adjectival,adjective,qualitative,none,none: "
                r"(syn|sem) holds a tag, which a template may not$",
            ):
                load(path)

    def test_a_template_may_hand_over_a_node(self, tmp_path):
        # the syn and sem blocks and their subcat and roles are mutable, as
        # in an entry, and no other node of the template is
        path = tmp_path / "lexicon.fdb"
        path.write_text(f"template verb,predicative,none,none,none := [{VERB_CAT}, "
                        "syn:[subcat:<[a:b]>, x:[c:d]], sem:[roles:[agent:e], f:[g:h]]]\n",
                        encoding="utf-8")
        (template,) = load(path).clauses
        syn, sem = template.fs["syn"], template.fs["sem"]
        assert [type(node) for node in (syn, syn["subcat"], sem, sem["roles"])] == [
            FeatStruct, Seq, FeatStruct, FeatStruct]
        assert [type(node) for node in (syn["x"], sem["f"], syn["subcat"][0])] == [
            FrozenFeatStruct] * 3


class TestSharedCategories:
    def test_one_cat5_per_distinct_category(self):
        db = load(bundled_path("lexicon.fdb"))
        cats = [clause.cat for clause in db.clauses]
        assert len({id(cat) for cat in cats}) == len(set(cats)) < len(cats)
        for table in (RootMapTable.load(bundled_path("rootmap.tsv")),
                      DerivMapTable.load(bundled_path("derivmap.tsv"))):
            cats = list(table.rows.values())
            assert len({id(cat) for cat in cats}) == len(set(cats)) < len(cats)

    def test_one_cat5_per_category_across_files(self):
        inventory = load_inventory(bundled_path("categories.tsv"))
        engine = LexiconEngine.from_bundled_data()
        files = [
            list(inventory),
            list(engine.rootmap.rows.values()),
            list(engine.derivmap.rows.values()),
            [clause.cat for clause in engine.db.clauses],
        ]
        in_every_file = set(files[0]).intersection(*files[1:])
        assert COMMON in in_every_file
        for cat in in_every_file:
            assert len({id(other) for cats in files for other in cats if other == cat}) == 1


class TestTabs:
    def test_quoted_atom_holding_a_tab_survives_save_and_load(self, db, tmp_path):
        entry = make_entry()
        entry.fs["sem"]["note"] = "a\tb"
        add_entry(db, entry)
        assert "'a\tb'" in clause_line(entry)
        path = tmp_path / "lexicon.fdb"
        save(db, path)
        (loaded,) = lookup(load(path), COMMON, "yol")
        assert loaded.fs["sem"]["note"] == "a\tb"
        assert fs_equal(loaded.fs, entry.fs)


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
    def test_lookup_returns_the_clauses_structure(self, seed_db):
        # read-only, as lookup's senses are; no query writes to it (see
        # test_engine.test_no_query_mutates_the_database)
        cat = Cat5.from_text("verb,attributive,none,none,none")
        assert lookup_template(seed_db, cat) is seed_db.templates[cat].fs

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

    @pytest.fixture()
    def umask_002(self):
        """Umask 002, under which a new file's default mode, 664, differs
        from the 644 of the more usual umask 022."""
        old = os.umask(0o002)
        yield
        os.umask(old)

    def test_new_file_gets_the_umask_default_mode(self, db, tmp_path, umask_002):
        with open(tmp_path / "reference", "w", encoding="utf-8"):
            pass
        save(db, tmp_path / "lexicon.fdb")
        mode = (tmp_path / "lexicon.fdb").stat().st_mode & 0o7777
        assert mode == (tmp_path / "reference").stat().st_mode & 0o7777 == 0o664
        assert (tmp_path / "lexicon.fdb").read_bytes() == dumps(db).encode("utf-8")

    def test_save_through_a_chain_of_links_writes_the_final_target(self, db, tmp_path):
        target = tmp_path / "lexicon.fdb"
        target.write_text("stale\n", encoding="utf-8")
        target.chmod(0o640)
        middle, link = tmp_path / "middle.fdb", tmp_path / "link.fdb"
        middle.symlink_to(target)
        link.symlink_to(middle)
        save(db, link)
        assert link.is_symlink() and middle.is_symlink()
        assert os.readlink(link) == str(middle) and os.readlink(middle) == str(target)
        assert target.read_bytes() == dumps(db).encode("utf-8")
        assert target.stat().st_mode & 0o7777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lexicon.fdb", "link.fdb",
                                                              "middle.fdb"]

    def test_save_through_a_dangling_link_writes_the_file_it_names(self, db, tmp_path,
                                                                   umask_002):
        link = tmp_path / "link.fdb"
        link.symlink_to(tmp_path / "lexicon.fdb")
        save(db, link)
        assert link.is_symlink()
        assert (tmp_path / "lexicon.fdb").read_bytes() == dumps(db).encode("utf-8")
        assert (tmp_path / "lexicon.fdb").stat().st_mode & 0o7777 == 0o664
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lexicon.fdb", "link.fdb"]

    @pytest.mark.parametrize("call", ["write", "fchmod"])
    def test_failure_after_the_temp_file_opens_removes_it(self, db, tmp_path, monkeypatch,
                                                          call):
        path = tmp_path / "lexicon.fdb"
        save(db, path)
        before = path.read_bytes()

        def broken(*args):
            raise OSError(f"{call} failed")

        add_entry(db, make_entry())
        monkeypatch.setattr(os, call, broken)
        with pytest.raises(OSError, match=f"{call} failed"):
            save(db, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["lexicon.fdb"]

    def test_short_writes_are_continued(self, db, tmp_path, monkeypatch):
        sizes = []
        write = os.write

        def short_write(fd, data):
            sizes.append(len(data))
            return write(fd, bytes(data[:1000]))

        monkeypatch.setattr(os, "write", short_write)
        save(db, tmp_path / "lexicon.fdb")
        monkeypatch.undo()
        data = dumps(db).encode("utf-8")
        assert (tmp_path / "lexicon.fdb").read_bytes() == data
        assert sizes == list(range(len(data), 0, -1000))

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

    def test_validate_entry_rejects_an_unfilled_common_noun(self):
        # the load fills the flags in: an entry built without it lacks them
        fs = parse_fs_text("[cat:[maj:nominal, min:noun, sub:common, ssub:none, sssub:none], "
                           "morph:[stem:yol, form:lexical], syn:[subcat:none], "
                           "sem:[concept:yol-(road)]]")
        entry = LexiconEntry(COMMON, "yol", fs)
        with pytest.raises(InvariantError) as info:
            validate_entry(entry)
        assert str(info.value) == (
            "entry nominal,noun,common,none,none yol: common noun lacks sem|material")
        fill_entry_defaults(fs, COMMON)
        validate_entry(entry)

    def test_len_is_the_number_of_clauses(self, seed_db):
        assert len(Database()) == 0
        assert len(seed_db) == len(seed_db.clauses) > 0


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
