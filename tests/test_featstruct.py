"""Unit and property tests for the feature-structure algebra."""

import copy
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from turklex import featstruct
from turklex._data import bundled_path
from turklex.featstruct import (
    BaseConcept,
    DerivedConcept,
    FeatStruct,
    FrozenFeatStruct,
    FrozenFSSet,
    FrozenSeq,
    FSSet,
    FSSyntaxError,
    Neg,
    Seq,
    copy_fs,
    fs_equal,
    get_path,
    node_counts,
    parse_fs_text,
    project,
    render_fs,
    subsumes,
    thaw,
    unify,
)

from . import oracle_unify
from .oracle_copy_merge import copy_merge_unify
from .strategies import entangled_pairs, feat_structs, shared_structs

NODE_TYPES = (FeatStruct, Seq, FSSet)


def node_ids(value, seen=None):
    """Ids of the FeatStruct/Seq/FSSet nodes reachable from ``value``."""
    seen = set() if seen is None else seen
    if isinstance(value, NODE_TYPES) and id(value) not in seen:
        seen.add(id(value))
        children = value.values() if isinstance(value, FeatStruct) else value
        for child in children:
            node_ids(child, seen)
    return seen


def holds_none(value) -> bool:
    """Whether ``value`` is ``None`` or holds it anywhere inside."""
    if value is None:
        return True
    if isinstance(value, FeatStruct):
        return any(map(holds_none, value.values()))
    return isinstance(value, (Seq, FSSet, frozenset)) and any(map(holds_none, value))


# ---------------------------------------------------------- the node model

def test_featstruct_is_a_dict_that_differs_in_two_ways():
    fs = FeatStruct([("a", "x")])
    assert isinstance(fs, dict) and dict(fs) == {"a": "x"}
    assert fs.get("b") is None and fs.get("b", "y") == "y"
    pairs = [("a", "x"), ("b", "y"), ("a", "z")]
    assert list(FeatStruct(pairs).items()) == list(dict(pairs).items())
    # the two differences: == is fs_equal, and repr renders
    assert fs != {"a": "x"} and not fs == {"a": "x"}
    assert fs == FeatStruct({"a": "x"}) and not fs != FeatStruct({"a": "x"})
    assert repr(fs) == "[a:x]"


def test_node_equality_is_fs_equal():
    shared = parse_fs_text("[x:@1=[a:b], y:@1]")
    unshared = parse_fs_text("[x:[a:b], y:[a:b]]")
    assert shared != unshared and not shared == unshared
    assert shared == parse_fs_text("[y:@1=[a:b], x:@1]")
    for node in (Seq(["a", "b"]), FSSet([FeatStruct(), FeatStruct({"a": "x"})])):
        assert node != list(node) and list(node) != node
        assert not node == list(node) and not list(node) == node
        assert node == type(node)(node)
    assert Seq(["a", "b"]) != Seq(["b", "a"])
    assert FSSet([FeatStruct(), FeatStruct({"a": "x"})]) == FSSet(
        [FeatStruct({"a": "x"}), FeatStruct()]
    )
    assert Seq([FeatStruct()]) != FSSet([FeatStruct()])
    assert repr(Seq(["a", FeatStruct({"b": "c"})])) == "<a, [b:c]>"


def test_fs_equal_compares_lengths_and_set_members():
    a, b = FeatStruct({"a": "x"}), FeatStruct({"a": "y"})
    assert not fs_equal(Seq([a]), Seq([a, b])) and not fs_equal(Seq([a, b]), Seq([a]))
    assert not fs_equal(FSSet([a]), FSSet([a, b])) and not fs_equal(FSSet([a, b]), FSSet([a]))
    # same size, different members
    assert not fs_equal(FSSet([a]), FSSet([b]))
    assert not fs_equal(FSSet([a, a]), FSSet([a, b]))
    assert fs_equal(FSSet([a, b]), FSSet([FeatStruct({"a": "y"}), FeatStruct({"a": "x"})]))


def test_leaves_that_cannot_be_written_are_rejected():
    with pytest.raises(ValueError, match="not plain"):
        Neg("x y")
    for root, gloss in (("at", "a) b"), ("a t", "horse"), ("at", ""), ("at", " horse")):
        with pytest.raises(ValueError, match="cannot be written"):
            BaseConcept(root, gloss)
    for suffix in ("a b", "a-", "a(", "x,y"):  # f_a- would read as a root concept
        with pytest.raises(ValueError, match="cannot be written"):
            DerivedConcept(suffix, BaseConcept("at", "horse"))
    for inner in ("dig", Neg("dig"), frozenset({"a", "b"}), FeatStruct()):
        with pytest.raises(ValueError, match="derived concept must wrap a concept"):
            DerivedConcept("ma", inner)
    text = "[a:-(x), b:!x, c:f_(at-(horse)), d:none(at-(horse)), e:f_a.b(at-(horse))]"
    fs = parse_fs_text(text)
    assert fs["a"] == BaseConcept("", "x")
    assert [fs[k].suffix for k in "cde"] == ["", "none", "a.b"]
    assert render_fs(fs) == text
    # an atom holding ' is a plain str, so only its rendering shows the limit
    with pytest.raises(FSSyntaxError):
        parse_fs_text(render_fs(FeatStruct({"a": "it's"})))


@pytest.mark.parametrize("good_first", [True, False])
def test_derived_suffix_is_checked_once_and_a_bad_one_always_fails(monkeypatch, good_first):
    horse = BaseConcept("at", "horse")
    checked = []
    atom_re = featstruct._ATOM_RE

    class CountingAtomRe:
        def fullmatch(self, text):
            checked.append(text)
            return atom_re.fullmatch(text)

    monkeypatch.setattr(featstruct, "_ATOM_RE", CountingAtomRe())
    monkeypatch.setattr(featstruct, "_WRITABLE_SUFFIXES", set())
    order = ["lI", "a b"] if good_first else ["a b", "lI"]
    for suffix in order * 2:
        if suffix == "lI":
            assert DerivedConcept(suffix, horse).suffix == "lI"
        else:
            with pytest.raises(ValueError, match="cannot be written"):
                DerivedConcept(suffix, horse)
    # the good suffix is checked once, the bad one each time
    assert sorted(checked) == ["f_a b", "f_a b", "f_lI"]
    assert featstruct._WRITABLE_SUFFIXES == {"lI"}


def test_leaves_are_immutable_and_equal_only_their_own_type():
    horse = BaseConcept("at", "horse")
    leaves = [Neg("at"), horse, DerivedConcept("lI", horse)]
    for leaf in leaves:
        values = [getattr(leaf, f.name) for f in dataclasses.fields(leaf)]
        for f in dataclasses.fields(leaf):
            with pytest.raises(AttributeError):
                setattr(leaf, f.name, "x")
        assert [getattr(leaf, f.name) for f in dataclasses.fields(leaf)] == values
        twin = type(leaf)(*values)
        assert twin == leaf and not twin != leaf and hash(twin) == hash(leaf)
        others = ["at", frozenset({"at", "horse"}), FeatStruct()] + leaves
        for other in others:
            if other is not leaf:
                assert leaf != other and other != leaf
    assert Neg("a") != Neg("b") and horse != BaseConcept("at", "horses")
    fresh = DerivedConcept("lI", BaseConcept("at", "horse"))
    assert fresh == leaves[2] and hash(fresh) == hash(leaves[2])
    assert DerivedConcept("lI", horse) != DerivedConcept("none", horse)
    assert DerivedConcept("lI", horse) != DerivedConcept("lI", BaseConcept("it", "dog"))


# ---------------------------------------------------------------- parsing

def test_parse_single_pair():
    fs = parse_fs_text("[phon:atIm]")
    assert fs["phon"] == "atIm"


def test_parse_empty():
    fs = parse_fs_text("[]")
    assert list(fs.keys()) == []


def test_parse_nested_and_quoted():
    fs = parse_fs_text("[morph:[poss:'1sg']]")
    assert get_path(fs, "morph|poss") == "1sg"


def test_parse_atom_set_sorted():
    fs = parse_fs_text("[min:{pronoun, noun}]")
    assert fs["min"] == frozenset({"noun", "pronoun"})


def test_parse_singleton_braces_collapse_to_atom():
    fs = parse_fs_text("[min:{noun}]")
    assert fs["min"] == "noun"


def test_parse_negation():
    fs = parse_fs_text("[poss:!none]")
    assert fs["poss"] == Neg("none")


def test_parse_base_concept():
    fs = parse_fs_text("[concept:at-(horse)]")
    assert fs["concept"] == BaseConcept("at", "horse")


def test_parse_derived_concept():
    fs = parse_fs_text("[concept:f_ca(f_lI(akIl-(intelligence)))]")
    c = fs["concept"]
    assert c == DerivedConcept("ca", DerivedConcept("lI", BaseConcept("akIl", "intelligence")))


def test_parse_none_wrapped_concept():
    fs = parse_fs_text("[concept:none(at-(horse))]")
    assert fs["concept"] == DerivedConcept("none", BaseConcept("at", "horse"))


def test_parse_concept_gloss_with_spaces():
    fs = parse_fs_text("[concept:ye-(eat something)]")
    assert fs["concept"] == BaseConcept("ye", "eat something")


def test_parse_sequence_and_fs_set():
    fs = parse_fs_text("[subcat:<[syn-role:subject], [syn-role:dir-obj]>, c:{[a:x], [a:y]}]")
    sub = fs["subcat"]
    assert isinstance(sub, Seq) and len(sub) == 2
    assert sub[0]["syn-role"] == "subject"
    cons = fs["c"]
    assert isinstance(cons, FSSet) and len(cons) == 2


def test_parse_tags_share_objects():
    fs = parse_fs_text("[syn:[subcat:@1=<[syn-role:subject]>], extra:@1]")
    assert get_path(fs, "syn|subcat") is fs["extra"]


def test_parse_trailing_open_marker():
    fs = parse_fs_text("[agr:3sg|_]")
    assert fs == parse_fs_text("[agr:3sg]")


def test_parse_errors():
    with pytest.raises(FSSyntaxError):
        parse_fs_text("[agr:3sg")  # unclosed
    with pytest.raises(FSSyntaxError):
        parse_fs_text("[agr:3sg, agr:nom]")  # duplicate feature
    with pytest.raises(FSSyntaxError):
        parse_fs_text("[x:@7]")  # unresolved tag
    with pytest.raises(FSSyntaxError):
        parse_fs_text("[x:{a, [b:c]}]")  # mixed set members
    with pytest.raises(FSSyntaxError):
        parse_fs_text("")


def test_syntax_error_reports_position():
    try:
        parse_fs_text("[agr 3sg]")
    except FSSyntaxError as e:
        assert e.position is not None
    else:
        pytest.fail("expected FSSyntaxError")


# One malformed input per error branch of the parser, with the message and
# position it reports.  Each feature is read in one match of its name, ':'
# and, for an atom, the atom and separator; the inputs that such a match
# reads only in part (duplicates, a missing ':' or value, a bad separator
# after an atom or a structure, a text that ends early) must still fail
# where a step-by-step reading does.
SYNTAX_ERRORS = [
        ("a", "expected '[' to open a feature structure", 0),
        ("[:a]", "expected feature name", 1),
        ("[a:b,]", "expected feature name", 5),
        ("[a b]", "expected ':'", 3),
        ("[a", "expected ':'", 2),
        ("[a:", "expected a value", 3),
        ("[a:b", "expected ',', ']' or '|_'", 4),
        ("[a:b, a:c]", "duplicate feature name 'a'", 6),
        ("[a:b,b:c,a:d]", "duplicate feature name 'a'", 9),
        ("[a: b , a : c ]", "duplicate feature name 'a'", 8),
        ("[a:[], a:b]", "duplicate feature name 'a'", 7),
        ("[a:[b:c], a:d]", "duplicate feature name 'a'", 10),
        ("[a:b; c:d]", "expected ',', ']' or '|_'", 4),
        ("[a:b:c]", "expected ',', ']' or '|_'", 4),
        ("[a:b c]", "expected ',', ']' or '|_'", 5),
        ("[a:[b:c] d]", "expected ',', ']' or '|_'", 9),
        ("[a:b |x]", "expected '_'", 6),
        ("[a:b |_ x]", "expected ']'", 8),
        ("[a:b (c)]", "expected ',', ']' or '|_'", 5),
        ("[a:b(c)]", "unexpected '(' after 'b'", 4),
        ("[a:]", "expected a value", 3),
        ("[a:!]", "expected atom after '!'", 4),
        ("[a:@]", "expected tag number after '@'", 4),
        ("[a:@1]", "unresolved tag @1", 5),
        ("[a:@1=[], b:@1=[]]", "tag @1 defined twice", 15),
        ("[a:@1=b]", "tag must name a structure, sequence or set", 6),
        ("[a:@1=", "tag must name a structure, sequence or set", 6),
        # a set of atoms is a leaf, so a tag on it would be dropped
        ("[a:@1={b, c}, d:@1]", "tag must name a structure, sequence or set", 6),
        ("[a:@1= {b}]", "tag must name a structure, sequence or set", 7),
        ("[a:'b]", "unterminated quoted atom", 3),
        ("[a:b-(c]", "unterminated concept gloss", 6),
        ("[a:b-( )]", "empty concept gloss", 6),
        ("[a:f_x(b)]", "derived concept must wrap a concept", 8),
        ("[a:<b c>]", "expected '>'", 6),
        ("[a:{b, [c:d]}]", "braces must hold only atoms or only structures", 13),
        ("[a:b] x", "trailing text after feature structure", 6),
]


@pytest.mark.parametrize("text, message, position", SYNTAX_ERRORS)
def test_syntax_error_message_and_position(text, message, position):
    with pytest.raises(FSSyntaxError) as info:
        parse_fs_text(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_syntax_errors_are_the_same_with_shared_sets():
    sets = {}
    parse_fs_text("[a:{b, c}, d:{[e:f]}]", sets)
    for text, message, position in SYNTAX_ERRORS + [
        ("[a:{b, c}, d:{[e:f]}, g:{b, c]", "expected '}'", 29),
        ("[a:{b, c}, d:{[e:f]}, g:{[e:f]} x]", "expected ',', ']' or '|_'", 32),
        ("[a:{[e:f]}, g:{[e:f], b}]", "braces must hold only atoms or only structures", 24),
    ]:
        with pytest.raises(FSSyntaxError) as info:
            parse_fs_text(text, sets)
        assert str(info.value) == f"{message} (at position {position})", text
        with pytest.raises(FSSyntaxError) as fresh:
            parse_fs_text(text)
        assert str(fresh.value) == str(info.value)


def _clause_texts():
    """The feature-structure text of every clause of the bundled database."""
    with open(bundled_path("lexicon.fdb"), encoding="utf-8") as lines:
        return [line.partition(":=")[2].strip() for line in lines
                if line.startswith(("entry", "template"))]


CLAUSE_TEXTS = _clause_texts()


def shared_sets():
    """A table of shared sets filled as a load fills it."""
    sets = {}
    for text in CLAUSE_TEXTS:
        parse_fs_text(text, sets)
    return sets


def test_every_prefix_of_a_clause_fails_with_a_syntax_error():
    sets = shared_sets()
    for text in CLAUSE_TEXTS:
        for end in range(len(text)):
            for shared in (None, sets):
                with pytest.raises(FSSyntaxError):
                    parse_fs_text(text[:end], shared)


@settings(max_examples=300)
@given(st.sampled_from(CLAUSE_TEXTS), st.integers(0, 10**4),
       st.sampled_from(("replace", "insert", "delete")),
       st.sampled_from("[]<>{}(),:|_@=!' \t0a-"))
def test_a_clause_edited_at_one_character_parses_or_fails_with_a_syntax_error(
        text, index, edit, char):
    i = index % len(text)
    edited = {"replace": text[:i] + char + text[i + 1:],
              "insert": text[:i] + char + text[i:],
              "delete": text[:i] + text[i + 1:]}[edit]
    for sets in (None, shared_sets()):
        try:
            parse_fs_text(edited, sets)
        except FSSyntaxError:
            pass


def test_parser_interns_names_and_atoms():
    # each text holds its own copy of every name and atom; parsing leaves
    # one string object for each
    one = parse_fs_text("[agr:pres-x, neg:!pres-x, set:{pres-x, past-x}]")
    two = parse_fs_text("[agr : 'pres-x', inner:[agr:pres-x|_]]")
    atom = one["agr"]
    assert one["neg"].atom is atom
    assert atom in one["set"] and next(a for a in one["set"] if a == atom) is atom
    assert two["agr"] is atom
    assert two["inner"]["agr"] is atom
    name = next(iter(one.keys()))
    assert next(iter(two.keys())) is name
    assert next(iter(two["inner"].keys())) is name


# ---------------------------------------------------- sets shared by text

CONSTRAINTS = "{[cat:[maj:nominal, min:{noun, pronoun}], morph:[case:nom]]}"


def test_shared_sets_are_one_value_across_texts():
    sets = {}
    one = parse_fs_text(f"[c:{CONSTRAINTS}, m:{{acc, nom}}, s:{{acc}}]", sets)
    two = parse_fs_text(f"[x:[c:{CONSTRAINTS}], m:{{acc, nom}}, s:{{acc}}]", sets)
    assert two["x"]["c"] is one["c"]
    assert two["m"] is one["m"] and one["m"] == frozenset({"acc", "nom"})
    assert one["s"] == two["s"] == "acc"
    assert sets[CONSTRAINTS] is one["c"]
    assert one == parse_fs_text(render_fs(one)) and "@" not in render_fs(two)
    # without a dict, or with another one, nothing is shared
    assert parse_fs_text(f"[c:{CONSTRAINTS}]")["c"] is not one["c"]
    assert parse_fs_text(f"[c:{CONSTRAINTS}]", {})["c"] is not one["c"]


def test_shared_set_may_repeat_in_a_text_as_a_value():
    sets = {}
    first = parse_fs_text(f"[c:{CONSTRAINTS}]", sets)["c"]
    assert type(first) is FrozenFSSet
    text = f"[a:{CONSTRAINTS}, b:{CONSTRAINTS}, c:[d:{CONSTRAINTS}]]"
    fs = parse_fs_text(text, sets)
    assert fs["a"] is first and fs["b"] is first and fs["c"]["d"] is first
    assert render_fs(fs) == text
    # a set read from a tag is a mutable node of its own, never the table's
    text = f"[a:{CONSTRAINTS}, b:@1={CONSTRAINTS}, c:@1]"
    tagged = parse_fs_text(text, sets)
    assert tagged["a"] is first and tagged["b"] is tagged["c"] is not first
    assert type(tagged["b"]) is FSSet and type(first) is FrozenFSSet
    assert render_fs(tagged) == text
    # a set stored in the table holds the table's sets
    inner = "{[b:x]}"
    outer = f"{{[a:{inner}]}}"
    text = f"[o:{outer}, i:{inner}, j:{inner}]"
    nested = parse_fs_text(text, sets)
    assert nested["o"] is sets[outer] and nested["i"] is nested["j"] is sets[inner]
    assert nested["o"][0]["a"] is sets[inner]
    assert render_fs(nested) == text


def test_the_parser_freezes_every_node_no_tag_reaches():
    text = "[a:[b:c], d:@1=[e:[f:g]], h:<@1, [i:j]>, k:[l:[m:@2=<n>], o:@2], p:{[q:r]}, s:<t>]"
    fs = parse_fs_text(text)
    kinds = {name: type(value) for name, value in fs.items()}
    assert type(fs) is FeatStruct  # the root is the caller's own
    assert kinds == {"a": FrozenFeatStruct, "d": FeatStruct, "h": Seq, "k": FeatStruct,
                     "p": FrozenFSSet, "s": FrozenSeq}
    assert type(fs["d"]["e"]) is FrozenFeatStruct and type(fs["h"][1]) is FrozenFeatStruct
    assert type(fs["k"]["l"]) is FeatStruct and type(fs["k"]["l"]["m"]) is Seq
    assert render_fs(fs) == text


def test_a_frozen_node_is_copied_apart_and_never_tagged():
    frozen = parse_fs_text("[x:[a:<[b:c]>]]")["x"]
    twice = FeatStruct([("p", frozen), ("q", FeatStruct([("r", frozen)]))])
    assert node_counts(twice) == {id(twice): 1, id(twice["q"]): 1}
    assert render_fs(twice) == "[p:[a:<[b:c]>], q:[r:[a:<[b:c]>]]]"
    out = copy_fs(twice)
    assert out["p"] is not out["q"]["r"] and out["p"]["a"] is not out["q"]["r"]["a"]
    assert all(type(node) in (FeatStruct, Seq) for node in (out["p"], out["p"]["a"], out["p"]["a"][0]))
    assert render_fs(out) == render_fs(twice) and out == twice
    # a mutable node reached twice is co-indexed, and so is its copy
    shared = thaw(frozen)
    coindexed = FeatStruct([("p", shared), ("q", shared)])
    assert render_fs(copy_fs(coindexed)) == "[p:@1=[a:<[b:c]>], q:@1]"
    assert copy.copy(frozen) is frozen and copy.deepcopy(frozen) is frozen


@pytest.mark.parametrize(
    "text",
    [
        "{[a:@1=[b:c], d:@1]}",
        "{[a:'b c']}",
        "{[a:x-(y)]}",
        "{[a:f_lI(x-(y))]}",
        "{[a:{[b:{c, d}]}]}",
    ],
)
def test_sets_whose_value_is_not_their_text_alone_are_not_shared(text):
    sets = {}
    one = parse_fs_text(f"[s:{text}]", sets)
    two = parse_fs_text(f"[s:{text}]", sets)
    assert one["s"] is not two["s"] and one == two
    assert text not in sets


# --------------------------------------------------------------- rendering

def test_render_compact_simple():
    assert render_fs(parse_fs_text("[phon:atIm]")) == "[phon:atIm]"


def test_render_indented_has_expected_lines():
    fs = parse_fs_text("[morph:[stem:at, poss:1sg], sem:[animate:+]]")
    text = render_fs(fs, style="indented")
    lines = [ln.strip() for ln in text.splitlines()]
    assert any(ln.startswith("stem: at") for ln in lines)
    assert any(ln.startswith("poss: 1sg") for ln in lines)
    assert any(ln.startswith("animate: +") for ln in lines)


def test_render_unknown_style_is_rejected():
    with pytest.raises(ValueError) as info:
        render_fs(parse_fs_text("[a:b]"), style="tree")
    assert str(info.value) == "unknown style 'tree'"


def test_render_shared_substructure_uses_tags():
    fs = parse_fs_text("[a:@1=[x:y], b:@1]")
    out = render_fs(fs)
    assert "@1=" in out and out.count("[x:y]") == 1
    again = parse_fs_text(out)
    assert again["a"] is again["b"]


@pytest.mark.parametrize("atom", ["x y", "", "x,y", "@1", "!x", "at-(horse)", "x]"])
def test_atom_that_is_not_plain_round_trips(atom):
    fs = FeatStruct([("a", atom), ("b", frozenset({atom, "p"}))])
    text = render_fs(fs)
    back = parse_fs_text(text)
    assert type(back["a"]) is str and back["a"] == atom
    assert back["b"] == frozenset({atom, "p"})
    assert render_fs(back) == text


def test_plain_atom_renders_bare():
    assert render_fs(parse_fs_text("[poss:'1sg', q:'a.b+c/d-e_f']")) == "[poss:1sg, q:a.b+c/d-e_f]"
    assert parse_fs_text("[poss:1sg]")["poss"] == "1sg"


@settings(max_examples=200)
@given(feat_structs)
def test_parse_render_round_trip(fs):
    assert fs_equal(parse_fs_text(render_fs(fs)), fs)


@settings(max_examples=100)
@given(feat_structs)
def test_parsed_structures_hold_no_none(fs):
    assert not holds_none(parse_fs_text(render_fs(fs)))


@settings(max_examples=60)
@given(shared_structs())
def test_round_trip_preserves_sharing(fs):
    back = parse_fs_text(render_fs(fs))
    assert fs_equal(back, fs)
    if not isinstance(fs["first"], str):
        assert back["first"] is back["second"]


def whitespace_gaps(text):
    """The positions of a compact rendering where the parser skips
    whitespace: the ends, after an opening bracket and after ``@n=``, around
    ``:`` and ``,``, and before a closing bracket; none inside a quoted atom
    or a concept gloss."""
    gaps = [0, len(text)]
    quoted = gloss = False
    for i, c in enumerate(text):
        if quoted:
            quoted = c != "'"
        elif gloss:
            gloss = c != ")"
        elif c == "'":
            quoted = True
        elif c == "(":
            gloss = text[i - 1] == "-"
        elif c in "[<{=":
            gaps.append(i + 1)
        elif c in ":,":
            gaps += [i, i + 1]
        elif c in "]>}":
            gaps.append(i)
    return sorted(gaps)


def spaced(text, spaces):
    """``text`` with ``spaces[k]`` inserted at its ``k``-th whitespace gap."""
    out, last = [], 0
    for gap, space in zip(whitespace_gaps(text), spaces):
        out += [text[last:gap], space]
        last = gap
    out.append(text[last:])
    return "".join(out)


_SPACES = st.lists(st.sampled_from(("", "", " ", "  ", "\t", "\n", " \r\n ")),
                   min_size=200, max_size=200)


def test_whitespace_gaps_of_a_rendering():
    text = "[a:@1=[b:x-(a, b: c)], c:<'d, e', f_lI(y-(z))>, d:{g, h}, e:@1]"
    spaced_text = spaced(text, [" "] * 200)
    assert spaced_text == (
        " [ a : @1= [ b : x-(a, b: c) ] ,  c : < 'd, e' ,  f_lI(y-(z)) > ,"
        "  d : { g ,  h } ,  e : @1 ] "
    )
    assert render_fs(parse_fs_text(spaced_text)) == text


@settings(max_examples=200)
@given(st.one_of(feat_structs, shared_structs()), _SPACES)
def test_parse_render_round_trip_with_whitespace(fs, spaces):
    text = render_fs(fs)
    back = parse_fs_text(spaced(text, spaces))
    assert fs_equal(back, fs)
    assert render_fs(back) == text


# -------------------------------------------------------------- unification

def test_unify_disjoint_merges():
    out = unify(parse_fs_text("[case:nom]"), parse_fs_text("[agr:'3sg']"))
    assert out["case"] == "nom" and out["agr"] == "3sg"


def test_unify_atom_in_set():
    out = unify(parse_fs_text("[min:{noun,pronoun}]"), parse_fs_text("[min:noun]"))
    assert out["min"] == "noun"


def test_unify_set_intersection():
    out = unify(frozenset({"a", "b", "c"}), frozenset({"b", "c", "d"}))
    assert out == frozenset({"b", "c"})
    assert unify(frozenset({"a", "b"}), frozenset({"c", "d"})) is None
    assert unify(frozenset({"a", "b"}), frozenset({"b", "c"})) == "b"


def test_unify_negation():
    assert unify(parse_fs_text("[poss:!none]"), parse_fs_text("[poss:'1sg']"))["poss"] == "1sg"
    assert unify(parse_fs_text("[poss:!none]"), parse_fs_text("[poss:none]")) is None


def test_unify_atom_conflict():
    assert unify(parse_fs_text("[a:x]"), parse_fs_text("[a:y]")) is None


def test_unify_sequences_of_different_lengths_fails():
    short, long = parse_fs_text("[s:<a>]"), parse_fs_text("[s:<a, b>]")
    assert unify(short, long) is None
    assert unify(long, short) is None
    assert unify(long, parse_fs_text("[s:<a, {b, c}>]")) == long


def test_unify_does_not_mutate_operands():
    a = parse_fs_text("[m:[x:p]]")
    b = parse_fs_text("[m:[y:q]]")
    unify(a, b)
    assert "y" not in a["m"] and "x" not in b["m"]


def test_unify_preserves_sharing_topology():
    fs = parse_fs_text("[a:@1=[x:{p,q}], b:@1]")
    out = unify(fs, parse_fs_text("[a:[x:p]]"))
    assert out["a"] is out["b"]
    assert out["b"]["x"] == "p"


def test_unify_preserves_sharing_across_operands():
    shared = parse_fs_text("[x:{p,q}]")
    out = unify(FeatStruct([("a", shared)]), FeatStruct([("b", shared), ("c", "z")]))
    assert out["a"] is out["b"] and out["a"] is not shared
    merged = unify(FeatStruct([("a", shared)]), FeatStruct([("b", shared)]))
    assert merged["a"] is merged["b"]


def test_unify_oracle_spot_sweep():
    errors = []
    pool = oracle_unify.atomic_pool()
    for a in pool:
        for b in pool:
            err = oracle_unify.check_pair(a, b)
            if err:
                errors.append(err)
    assert not errors, errors[:5]


def test_unify_oracle_randomized_quick():
    errors = oracle_unify.randomized_sweep(n_cases=200, seed=7)
    assert not errors, errors[:5]


@settings(max_examples=150)
@given(feat_structs, feat_structs)
def test_unify_commutative(a, b):
    ab = unify(a, b)
    ba = unify(b, a)
    if ab is None:
        assert ba is None
    else:
        assert ba is not None
        assert fs_equal(ab, ba)


@settings(max_examples=150)
@given(feat_structs)
def test_unify_idempotent(a):
    out = unify(a, a)
    assert out is not None
    assert fs_equal(out, a)


@settings(max_examples=150)
@given(feat_structs, feat_structs)
def test_unify_result_subsumed_by_operands(a, b):
    out = unify(a, b)
    if out is not None:
        assert subsumes(a, out)
        assert subsumes(b, out)


# unify copies x whole but only the nodes of y it places: it must give the
# answers, sharing included, of copying both operands and merging the copies

_operand_pairs = st.one_of(
    st.tuples(feat_structs, feat_structs),
    st.tuples(shared_structs(), shared_structs()),
    entangled_pairs(),
)


def _outcome(unifier, x, y):
    """The rendered result, None, or the type of the error raised: when one
    operand holds a node of the other, the merge can place a node inside
    itself and recurse without end, or grow a node it is iterating."""
    try:
        out = unifier(x, y)
    except RuntimeError as error:
        return type(error)
    return None if out is None else render_fs(out)


@settings(max_examples=300)
@given(_operand_pairs)
def test_unify_agrees_with_copying_both_operands(pair):
    x, y = pair
    for a, b in ((x, y), (y, x)):
        assert _outcome(unify, a, b) == _outcome(copy_merge_unify, a, b)


def test_unify_reads_a_shared_node_through_its_copy():
    # N is in both operands; y's N is read through x's copy of it, and the
    # children of that copy go in as they are, so @2 survives
    n = parse_fs_text("[cat:[]]")
    x = parse_fs_text("[first:@1=[], other:[], second:@1]")
    x["cat"] = n
    y = FeatStruct([("first", n), ("other", FeatStruct()), ("second", n)])
    expected = "[first:@1=[cat:@2=[]], other:[], second:@1, cat:[cat:@2]]"
    assert render_fs(unify(x, y)) == render_fs(copy_merge_unify(x, y)) == expected


def test_unify_reads_a_shared_node_as_merged_so_far():
    # by the time y's b reaches N, x's copy of N has taken g:z from y's a
    n = parse_fs_text("[f:[]]")
    x = FeatStruct([("a", n), ("b", FeatStruct())])
    y = FeatStruct([("a", parse_fs_text("[g:z]")), ("b", n)])
    expected = "[a:[f:@1=[], g:z], b:[f:@1, g:z]]"
    assert render_fs(unify(x, y)) == render_fs(copy_merge_unify(x, y)) == expected


def test_unify_compares_a_constraint_set_as_merged_so_far():
    # y's set holds y's @1, which q has grown by j:w before s is reached
    x = parse_fs_text("[p:@1=[], q:@1, s:{[k:v, j:w]}]")
    y = parse_fs_text("[p:[t:@1=[k:v]], q:[t:[j:w]], s:{@1}]")
    expected = "[p:@1=[t:[k:v, j:w]], q:@1, s:{[k:v, j:w]}]"
    assert render_fs(unify(x, y)) == render_fs(copy_merge_unify(x, y)) == expected


@settings(max_examples=200)
@given(_operand_pairs)
def test_unify_result_owns_its_nodes(pair):
    # inflect and build_derived write to the nodes unify returns
    x, y = pair
    before = render_fs(x), render_fs(y)
    for a, b in ((x, y), (y, x)):
        try:
            out = unify(a, b)
        except RuntimeError:  # see _outcome
            continue
        if out is not None:
            own = node_counts(out).keys()
            assert own.isdisjoint(node_counts(x)) and own.isdisjoint(node_counts(y))
    assert (render_fs(x), render_fs(y)) == before


# ------------------------------------------------------------------ copying

@settings(max_examples=150)
@given(feat_structs)
def test_copy_fs_equal_to_original(fs):
    assert fs_equal(copy_fs(fs), fs)


@settings(max_examples=150)
@given(shared_structs())
def test_copy_fs_shares_no_node_and_keeps_sharing(fs):
    out = copy_fs(fs)
    assert fs_equal(out, fs)
    assert out["first"] is out["second"]
    originals, copies = node_ids(fs), node_ids(out)
    assert not originals & copies
    assert len(copies) == len(originals)


@settings(max_examples=100)
@given(feat_structs, feat_structs)
def test_project_copies_and_keeps_sharing_across_kept_features(shared, rest):
    fs = FeatStruct([("cat", shared), ("morph", FeatStruct([("z", shared)])), ("sem", rest)])
    out = project(fs, ("cat", "morph"))
    assert list(out) == ["cat", "morph"] and out["cat"] is out["morph"]["z"]
    assert out["cat"] is not shared and fs_equal(out["cat"], shared)
    assert not node_ids(fs) & node_ids(out)


def test_copy_fs_shares_immutable_leaves():
    fs = parse_fs_text("[a:!x, b:{p,q}, c:f_lI(akIl-(intelligence)), d:<[e:y]>, f:{[g:z]}]")
    out = copy_fs(fs)
    for name in ("a", "b", "c"):
        assert out[name] is fs[name]
    assert out["d"] is not fs["d"] and out["d"][0] is not fs["d"][0]
    assert out["f"] is not fs["f"] and out["f"][0] is not fs["f"][0]
    assert copy_fs("atom") == "atom"


def test_copy_fs_cycle():
    fs = FeatStruct([("a", "x")])
    fs["self"] = fs
    out = copy_fs(fs)
    assert out is not fs and out["self"] is out
    assert type(out) is FeatStruct and list(out) == ["a", "self"] and out["a"] == "x"


def test_copy_fs_cycle_through_a_seq():
    seq = Seq(["x"])
    fs = FeatStruct({"s": seq})
    seq.append(fs)
    out = copy_fs(fs)
    assert out is not fs and out["s"] is not seq
    assert type(out["s"]) is Seq and out["s"][0] == "x" and out["s"][1] is out


# -------------------------------------------------------------- subsumption

def test_subsumes_reflexive_examples():
    for text in ("[a:x]", "[a:[b:{x,y}], c:!z]", "[]"):
        fs = parse_fs_text(text)
        assert subsumes(fs, fs)


@settings(max_examples=150)
@given(feat_structs)
def test_subsumes_reflexive(fs):
    assert subsumes(fs, fs)


def test_subsumes_closed_world_absence():
    general = parse_fs_text("[sem:[temporal:+]]")
    specific = parse_fs_text("[sem:[animate:+]]")
    # temporal missing from the specific structure: eliminated even though open
    assert not subsumes(general, specific)


def test_subsumes_ignores_sharing_in_general():
    # only path values are compared: the general side's co-indexing of x
    # and y is not required of the specific side
    general = parse_fs_text("[x:@1=[a:b], y:@1]")
    specific = parse_fs_text("[x:[a:b], y:[a:b]]")
    assert subsumes(general, specific)


def test_subsumes_set_value():
    general = parse_fs_text("[min:{noun,pronoun}]")
    assert subsumes(general, parse_fs_text("[min:noun, extra:x]"))
    assert not subsumes(general, parse_fs_text("[min:verb]"))


def test_subsumes_atomic_transitivity_spot():
    a = parse_fs_text("[x:[y:p]]")
    b = parse_fs_text("[x:[y:p], z:q]")
    c = parse_fs_text("[x:[y:p], z:q, w:r]")
    assert subsumes(a, b) and subsumes(b, c) and subsumes(a, c)


def test_subsumes_compares_sequences_and_sets_member_by_member():
    subject, obj = parse_fs_text("[syn-role:subject]"), parse_fs_text("[syn-role:dir-obj]")
    # a constraint set needs a match for each member, in a constraint set
    general = FSSet([parse_fs_text("[case:dat]")])
    assert subsumes(general, FSSet([parse_fs_text("[case:dat, x:y]")]))
    assert not subsumes(general, FSSet([parse_fs_text("[case:nom]"), subject]))
    assert not subsumes(general, Seq([parse_fs_text("[case:dat]")]))
    # a sequence needs the same length, whichever side is longer
    assert subsumes(Seq([subject, obj]), Seq([subject, obj]))
    assert not subsumes(Seq([subject]), Seq([subject, obj]))
    assert not subsumes(Seq([subject, obj]), Seq([subject]))


# ----------------------------------------------------------- paths, project

def test_get_path():
    fs = parse_fs_text("[a:[b:c]]")
    assert get_path(fs, "a|b") == "c"
    assert get_path(fs, ("a", "b")) == "c"
    assert get_path(parse_fs_text("[]"), "phon") is None
    assert get_path(fs, "a|zz") is None
    assert get_path(parse_fs_text("[a:b]"), "a|c") is None  # a path through an atom


def test_get_path_rejects_an_empty_name():
    # before any step: an atom, which holds no path, still raises
    for fs in (parse_fs_text("[a:[b:c]]"), "atom"):
        with pytest.raises(ValueError) as info:
            get_path(fs, "a||b")
        assert str(info.value) == "bad path 'a||b'"


def test_project():
    fs = parse_fs_text("[phon:x, cat:[maj:verb], sem:[animate:+]]")
    out = project(fs, {"cat", "morph"})
    assert list(out.keys()) == ["cat"]
    assert get_path(out, "cat|maj") == "verb"
    assert list(project(parse_fs_text("[]"), {"cat"}).keys()) == []


@settings(max_examples=100)
@given(feat_structs)
def test_projection_subsumed_by_original(fs):
    proj = project(fs, {"cat", "morph"})
    assert subsumes(proj, fs)
