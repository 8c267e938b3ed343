"""turklex — a feature-structure lexicon engine for Turkish word forms.

Given a surface form (and optional restrictions expressed as a partial
feature structure), the engine produces every annotated interpretation of
that form: morphological analyses are mapped onto lexical categories,
matched against a feature-structure database, and rebuilt through any
derivational suffixes, yielding one full feature structure per surviving
sense.
"""

from .catmap import Cat5
from .engine import LexiconEngine, QueryError, QueryTrace
from .featstruct import (
    BaseConcept,
    DerivedConcept,
    FeatStruct,
    FSSet,
    FSSyntaxError,
    Neg,
    Seq,
    fs_equal,
    get_path,
    parse_fs_text,
    project,
    render_fs,
    subsumes,
    unify,
)

__version__ = "0.1.0"

__all__ = [
    "BaseConcept",
    "Cat5",
    "DerivedConcept",
    "FeatStruct",
    "FSSet",
    "FSSyntaxError",
    "LexiconEngine",
    "Neg",
    "QueryError",
    "QueryTrace",
    "Seq",
    "fs_equal",
    "get_path",
    "parse_fs_text",
    "project",
    "render_fs",
    "subsumes",
    "unify",
    "__version__",
]
