"""Surface-form lookup and unpacking of morphological processor output.

The processor emits flat parse strings like::

    [[CAT=NOUN][ROOT=at][AGR=3SG][POSS=1SG][CASE=NOM]]

Each ``CONV`` pair marks a derivation boundary, so a parse with *k* CONV
pairs unpacks into ``k + 1`` levels: one lexical level describing the root
and one derived level per conversion, each carrying its own inflection
pairs.  ``TYPE`` pairs qualify whichever level they appear in.

A parse is read once, when its table loads, into an immutable
:class:`MorphParse` of :class:`Level` tuples with every value already
mapped; queries only read those levels.

Running a real morphological analyzer is out of scope here;
:meth:`AnalyzerTable.lookup` answers from a fixture table loaded from a
tab-separated file, which is enough to drive the rest of the pipeline
deterministically.
"""

from __future__ import annotations

import logging
import re
import sys
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from ._data import read_rows

log = logging.getLogger(__name__)

class ParseFormatError(ValueError):
    """Raised for a parse string that does not follow the bracket format."""


# Special capitals encode Turkish characters outside ASCII (dotless i,
# cedilla consonants, umlaut vowels).  They are part of the word and must
# survive normalisation; any other trailing capital is a processor artefact.
_SPECIAL_CAPITALS = frozenset("ICGSOU")

_PAIR_RE = re.compile(r"\[([A-Z0-9]+)=([^][=]+)(?:=([^][=]+))?\]")

# Processor values are uppercase; lexicon atoms are lowercase except for the
# special capitals of the orthographic encoding.  Values whose lowercase form
# is not the right atom are spelled out; anything unlisted falls back to
# ``str.lower`` with a warning so typos in fixture tables surface early.
VALUE_MAP = {
    "3SG": "3sg",
    "1SG": "1sg",
    "2SG": "2sg",
    "NONE": "none",
    "NOM": "nom",
    "LOC": "loc",
    "PRES": "pres",
    "POS": "pos",
    "NEG": "neg",
    "IMP": "imp",
    "RPROPER": "rproper",
    "TEMP1": "temp1",
    "INFINITIVE": "infinitive",
    "MANNER": "manner",
    # derivational suffixes
    "LI": "lI",
    "CA": "ca",
    "MA": "ma",
    "MAK": "mak",
    "YIS": "yIS",
    "DIK": "dIk",
    "YACAK": "yacak",
    "LIK": "lIk",
    "CI": "cI",
    "CIK": "cIk",
    "OG": "og",
    "YICI": "yIcI",
    "MAZLIK": "mazlIk",
    "YAMAZLIK": "yamazlIk",
    "MACA": "maca",
    "YASI": "yasI",
    "KI": "ki",
    "SIZ": "sIz",
    "SI": "sI",
    "IK": "ik",
    "YAN": "yan",
    "YINCA": "yInca",
    "YIP": "yIp",
    "YALI": "yalI",
    "KEN": "ken",
    "CASINA": "casIna",
    "MAKSIZIN": "maksIzIn",
    "MADAN": "madan",
    "YAMADAN": "yamadan",
    "YEREK": "yerek",
    "DIKCA": "dIkCa",
    "LAN": "lan",
    "LAS": "laS",
}


def map_value(value: str) -> str:
    """Translate an uppercase processor value into its lexicon atom."""
    try:
        return VALUE_MAP[value]
    except KeyError:
        log.warning("no mapping for processor value %r; lowercasing", value)
        return value.lower()


def normalize_root(root: str) -> str:
    """Normalise a processor root to lexicon spelling.

    The processor may report roots with a final capital that merely marks a
    consonant alternation site (``eK`` for *ek*).  A trailing capital that is
    not one of the special orthographic capitals is lowered; everything else
    is kept verbatim, so ``kurtuluS`` and ``borC`` pass through unchanged.
    """
    if root and root[-1].isupper() and root[-1] not in _SPECIAL_CAPITALS:
        return root[:-1] + root[-1].lower()
    return root


class Level(NamedTuple):
    """One morphological level of a parse.

    ``proc_category`` and ``proc_type`` are the processor's category atoms,
    lowercased/mapped for table lookup.  ``name`` is the normalised root on
    the lexical level and the mapped derivational suffix on a derived one;
    ``inflections`` holds the level's mapped ``(key, value)`` pairs in order.
    """

    proc_category: str
    proc_type: str
    name: str
    inflections: tuple


class MorphParse(NamedTuple):
    """One processor parse: its stripped text as written, and its levels
    (the lexical level first, then one per ``CONV``)."""

    text: str
    levels: tuple


def parse_parse_string(text: str) -> MorphParse:
    """Parse a bracketed processor string into a :class:`MorphParse`.

    Raises :class:`ParseFormatError` for malformed bracket or pair syntax,
    for a missing leading ``CAT`` or missing ``ROOT`` pair, for a ``CONV``
    pair before ``ROOT``, for a ``CAT`` or ``ROOT`` after a ``CONV``, for
    a key named twice in one level (its level would hold two values for one
    feature), and for a ``FORM`` or ``STEM`` pair at any level (the lexicon
    sets ``morph|form`` and ``morph|stem``, so the pair would clash with
    every sense or overwrite the derived stem).
    """
    text = text.strip()
    if len(text) < 2 or text[0] != "[" or text[-1] != "]":
        raise ParseFormatError(f"malformed bracket syntax: {text!r}")
    inner = text[1:-1]

    levels: list = []
    category = name = None  # of the level being read
    proc_type, inflections, seen = "none", [], set()
    pos = 0
    while pos < len(inner):
        match = _PAIR_RE.match(inner, pos)
        if match is None:
            raise ParseFormatError(
                f"malformed pair syntax at offset {pos + 1}: {inner[pos:pos + 20]!r}"
            )
        pos = match.end()
        key, first, second = match.groups()
        if (key == "CONV") == (second is None):
            needs = "needs a category and a suffix" if key == "CONV" else "takes a single value"
            raise ParseFormatError(f"malformed pair syntax: {key} {needs}")
        if category is None and key != "CAT":
            raise ParseFormatError("parse must start with a CAT pair")
        if levels and key in ("CAT", "ROOT"):
            raise ParseFormatError(f"{key} appears after a CONV")
        if key in seen:
            raise ParseFormatError(f"{key} appears twice in one level")
        if key in ("FORM", "STEM"):
            raise ParseFormatError(f"{key} is set by the lexicon, not the analyzer")

        seen.add(key)
        if key == "CONV":
            if name is None:
                raise ParseFormatError("CONV conversion appears before ROOT")
            levels.append(Level(category, proc_type, name, tuple(inflections)))
            category, name = sys.intern(first.lower()), map_value(second)
            proc_type, inflections, seen = "none", [], set()
        elif key == "CAT":
            category = sys.intern(first.lower())
        elif key == "ROOT":
            name = sys.intern(normalize_root(first))
        elif key == "TYPE":
            proc_type = map_value(first)
        else:
            inflections.append((sys.intern(key.lower()), map_value(first)))

    if category is None:
        raise ParseFormatError("parse must start with a CAT pair")
    if name is None:
        raise ParseFormatError("parse has no ROOT pair")
    levels.append(Level(category, proc_type, name, tuple(inflections)))
    return MorphParse(text, tuple(levels))


@dataclass
class AnalyzerTable:
    """Fixture table mapping surface forms to their processor parses."""

    parses: dict

    @classmethod
    def load(cls, path) -> "AnalyzerTable":
        """Load a ``surface<TAB>parse`` table; repeated surfaces accumulate.

        A bad parse fails with ``path:line``.
        """
        table: dict = {}
        for lineno, (surface, parse_text) in read_rows(path, 2):
            try:
                parse = parse_parse_string(parse_text)
            except ParseFormatError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            table.setdefault(sys.intern(surface), []).append(parse)
        return cls(table)

    def lookup(self, surface: str) -> list:
        """The parses of ``surface`` (empty if unknown)."""
        return list(self.parses.get(surface, ()))

    def surfaces(self) -> Iterator[str]:
        return iter(self.parses)
