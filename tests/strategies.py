"""Hypothesis strategies for randomly generated feature structures."""

from hypothesis import strategies as st

from turklex.featstruct import BaseConcept, DerivedConcept, FeatStruct, FSSet, Neg, Seq

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


@st.composite
def shared_structs(draw):
    """A structure in which one non-atomic value occurs at two paths."""
    shared = draw(feat_structs)
    rest = draw(feat_structs)
    return FeatStruct([("first", shared), ("other", rest), ("second", shared)])
