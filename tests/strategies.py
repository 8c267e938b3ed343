"""Hypothesis strategies for randomly generated feature structures."""

from hypothesis import strategies as st

from turklex.featstruct import (BaseConcept, DerivedConcept, FeatStruct, FSSet, Neg, Seq,
                                copy_fs, fs_equal, parse_fs_text, render_fs)

ATOMS = ("nom", "acc", "3sg", "1sg", "none", "verb", "noun", "+", "-")
NAMES = ("cat", "morph", "sem", "agr", "poss", "case", "maj", "stem", "subcat")
GLOSSES = ("horse", "dig", "eat something", "he/she/it")

atoms = st.sampled_from(ATOMS)
feature_names = st.sampled_from(NAMES)

atom_sets = st.frozensets(atoms, min_size=2, max_size=4)
negated = st.builds(Neg, atoms)

base_concepts = st.builds(BaseConcept, st.sampled_from(("at", "kaz", "akIl")),
                          st.sampled_from(GLOSSES))
concepts = st.recursive(
    base_concepts,
    lambda inner: st.builds(DerivedConcept, st.sampled_from(("lI", "ca", "none")), inner),
    max_leaves=3,
)

atomic_values = st.one_of(atoms, atom_sets, negated, concepts)


def _structs(values):
    return st.builds(FeatStruct, st.dictionaries(feature_names, values, max_size=4))


feat_structs = st.recursive(
    _structs(atomic_values),
    lambda inner: _structs(
        st.one_of(
            atomic_values,
            inner,
            st.builds(lambda items: Seq(list(items)), st.lists(inner, min_size=1, max_size=3)),
            st.builds(lambda items: FSSet(list(items)), st.lists(inner, min_size=1, max_size=3)),
        )
    ),
    max_leaves=6,
)


def frozen_root(fs):
    """``fs``, a structure no node of which is reached twice, read back as
    the value of ``[v:...]``: no tag reaches it, so it is frozen throughout,
    as the parser leaves a database's nodes."""
    return parse_fs_text(f"[v:{render_fs(fs)}]")["v"]


frozen_structs = feat_structs.map(frozen_root)


@st.composite
def one_member_apart(draw):
    """Two structures that are equal but for one member of one sequence or
    constraint set at the end of a path, and so never unify: the sequence
    member is one atom in the first and another in the second, and the set
    member a structure in the first and an unequal one in the second.
    Neither structure reaches a node twice, nor one of the other."""
    if draw(st.booleans()):
        kind, members = Seq, draw(st.lists(st.one_of(atomic_values, feat_structs),
                                           min_size=1, max_size=3))
        old, new = draw(st.lists(atoms, min_size=2, max_size=2, unique=True))
    else:
        kind, members = FSSet, draw(st.lists(feat_structs, min_size=1, max_size=3))
        old = draw(feat_structs)
        new = draw(feat_structs.filter(lambda fs: not fs_equal(fs, old)))
    i = draw(st.integers(0, len(members)))
    x = kind(members[:i] + [old] + members[i:])
    y = kind([copy_fs(m) for m in members[:i]] + [new] + [copy_fs(m) for m in members[i:]])
    for name in draw(st.lists(feature_names, min_size=1, max_size=3)):
        rest = draw(feat_structs)
        x, y = FeatStruct(rest, **{name: x}), FeatStruct(copy_fs(rest), **{name: y})
    return x, y


@st.composite
def shared_structs(draw):
    """A structure in which one non-atomic value occurs at two paths."""
    shared = draw(feat_structs)
    rest = draw(feat_structs)
    return FeatStruct([("first", shared), ("other", rest), ("second", shared)])


def _nodes(value, found):
    if isinstance(value, (FeatStruct, Seq, FSSet)) and not any(value is n for n in found):
        found.append(value)
        for child in value.values() if isinstance(value, FeatStruct) else value:
            _nodes(child, found)
    return found


@st.composite
def entangled_pairs(draw):
    """Two structures, the second holding one to three nodes of the first,
    mostly under names the first uses too, so that unifying them meets a
    node of the first in both operands."""
    first = draw(st.one_of(feat_structs, shared_structs()))
    second = FeatStruct(draw(feat_structs))
    nodes = _nodes(first, [])
    names = st.sampled_from(sorted(first)) if first else feature_names
    for name in draw(st.lists(st.one_of(names, feature_names), min_size=1, max_size=3,
                              unique=True)):
        second[name] = draw(st.sampled_from(nodes))
    return first, second


@st.composite
def _reaching_pairs(draw):
    """A frozen structure and a mutable one that holds structures under one
    to three names, mostly the first's, so that the merge reaches the
    first's children."""
    first = draw(frozen_structs)
    second = FeatStruct(draw(st.one_of(feat_structs, shared_structs())))
    names = st.sampled_from(sorted(first)) if first else feature_names
    for name in draw(st.lists(st.one_of(names, feature_names), min_size=1, max_size=3,
                              unique=True)):
        second[name] = draw(feat_structs)
    return first, second


# a frozen first operand, with a second of every kind
frozen_first_pairs = st.one_of(
    st.tuples(frozen_structs, st.one_of(feat_structs, frozen_structs, shared_structs())),
    _reaching_pairs(),
)
