"""Surface-form lookup and unpacking of morphological processor output.

The processor emits flat parse strings like::

    [[CAT=NOUN][ROOT=at][AGR=3SG][POSS=1SG][CASE=NOM]]

Each ``CONV`` pair marks a derivation boundary, so a parse with *k* CONV
pairs unpacks into ``k + 1`` levels: one lexical level describing the root
and one derived level per conversion, each carrying its own inflection
pairs.  ``TYPE`` pairs qualify whichever level they appear in.

Running a real morphological analyzer is out of scope here;
:meth:`AnalyzerTable.lookup` answers from a fixture table loaded from a
tab-separated file, which is enough to drive the rest of the pipeline
deterministically.
"""

from __future__ import annotations

import logging
import re
import sys
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple, Union

from ._data import read_rows

log = logging.getLogger(__name__)

PairValue = Union[str, Tuple[str, str]]


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


@dataclass
class MorphParse:
    """One processor parse: an ordered list of key/value pairs.

    ``CONV`` pairs are stored as ``("CONV", (target_category, suffix))``;
    every other pair is a plain ``(key, value)`` string tuple.
    """

    pairs: list

    def render(self) -> str:
        parts = []
        for key, value in self.pairs:
            if key == "CONV":
                target, suffix = value
                parts.append(f"[CONV={target}={suffix}]")
            else:
                parts.append(f"[{key}={value}]")
        return "[" + "".join(parts) + "]"

    @property
    def n_levels(self) -> int:
        return 1 + sum(1 for key, _ in self.pairs if key == "CONV")


def parse_parse_string(text: str) -> MorphParse:
    """Parse a bracketed processor string into a :class:`MorphParse`.

    Raises :class:`ParseFormatError` for malformed bracket or pair syntax,
    for a missing leading ``CAT`` or missing ``ROOT`` pair, and for a
    ``CONV`` pair that appears before ``ROOT``.
    """
    text = text.strip()
    if len(text) < 2 or text[0] != "[" or text[-1] != "]":
        raise ParseFormatError(f"malformed bracket syntax: {text!r}")
    inner = text[1:-1]

    pairs: list = []
    pos = 0
    while pos < len(inner):
        match = _PAIR_RE.match(inner, pos)
        if match is None:
            raise ParseFormatError(
                f"malformed pair syntax at offset {pos + 1}: {inner[pos:pos + 20]!r}"
            )
        key, first, second = match.groups()
        if key == "CONV":
            if second is None:
                raise ParseFormatError(
                    "malformed pair syntax: CONV needs a category and a suffix"
                )
            pairs.append(("CONV", (sys.intern(first), sys.intern(second))))
        else:
            if second is not None:
                raise ParseFormatError(
                    f"malformed pair syntax: {key} takes a single value"
                )
            pairs.append((sys.intern(key), sys.intern(first)))
        pos = match.end()

    if not pairs or pairs[0][0] != "CAT":
        raise ParseFormatError("parse must start with a CAT pair")
    keys = [key for key, _ in pairs]
    if "ROOT" not in keys:
        raise ParseFormatError("parse has no ROOT pair")
    if "CONV" in keys and keys.index("CONV") < keys.index("ROOT"):
        raise ParseFormatError("CONV conversion appears before ROOT")
    return MorphParse(pairs)


@dataclass
class Level:
    """One morphological level of a parse.

    The lexical level names the root; each derived level names the
    derivational suffix.  ``proc_category`` and ``proc_type`` are the
    processor's category atoms, already lowercased/mapped for table lookup.
    """

    proc_category: str
    proc_type: str = "none"
    root: Optional[str] = None
    suffix: Optional[str] = None
    inflections: list = field(default_factory=list)


def split_levels(parse: MorphParse) -> list:
    """Unpack a parse into its lexical and derived levels, in order."""
    levels = []
    current: Optional[Level] = None
    for key, value in parse.pairs:
        if key == "CAT":
            current = Level(proc_category=value.lower())
        elif key == "ROOT":
            current.root = normalize_root(value)
        elif key == "CONV":
            levels.append(current)
            target, suffix = value
            current = Level(proc_category=target.lower(), suffix=map_value(suffix))
        elif key == "TYPE":
            current.proc_type = map_value(value)
        else:
            current.inflections.append((key.lower(), map_value(value)))
    levels.append(current)
    return levels


def _repeated_key(parse: MorphParse) -> Optional[str]:
    """The first key that appears twice within one level of ``parse``."""
    seen: set = set()
    for key, _ in parse.pairs:
        if key == "CONV":
            seen.clear()
        elif key in seen:
            return key
        else:
            seen.add(key)
    return None


@dataclass
class AnalyzerTable:
    """Fixture table mapping surface forms to their processor parses."""

    parses: dict

    @classmethod
    def load(cls, path) -> "AnalyzerTable":
        """Load a ``surface<TAB>parse`` table; repeated surfaces accumulate.

        A parse that names a key twice in one level is rejected: its level
        would hold two values for one feature.
        """
        table: dict = {}
        for lineno, (surface, parse_text) in read_rows(path, 2):
            try:
                parse = parse_parse_string(parse_text)
            except ParseFormatError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            key = _repeated_key(parse)
            if key is not None:
                raise ValueError(f"{path}:{lineno}: {key} appears twice in one level")
            table.setdefault(sys.intern(surface), []).append(parse)
        return cls(table)

    def lookup(self, surface: str) -> list:
        """Return fresh parse copies for ``surface`` (empty if unknown)."""
        return [MorphParse(list(p.pairs)) for p in self.parses.get(surface, ())]

    def surfaces(self) -> Iterator[str]:
        return iter(self.parses)
