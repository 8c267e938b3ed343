"""Mapping from processor categories to five-slot lexicon categories.

The lexicon organises words in a five-level hierarchy (major category down
to sub-sub-subcategory, unused slots holding ``none``).  Two tables drive
the mapping: one keyed by the lexical level of a parse (processor category,
processor type, root), one keyed by a derivation (processor category,
suffix).  A parse whose key has no row cannot be represented and is skipped
by the engine, so lookups return a sentinel rather than raising.
"""

from __future__ import annotations

import sys
from typing import Dict, NamedTuple, Optional, Tuple

from .featstruct import FeatStruct


class Cat5(NamedTuple):
    """A lexicon category: five atoms, ``none`` filling unused slots."""

    maj: str
    min: str = "none"
    sub: str = "none"
    ssub: str = "none"
    sssub: str = "none"

    @classmethod
    def from_text(cls, text: str) -> "Cat5":
        parts = [sys.intern(part.strip()) for part in text.split(",") if part.strip()]
        if not 1 <= len(parts) <= 5:
            raise ValueError(f"expected 1-5 comma-separated atoms, got {text!r}")
        parts += ["none"] * (5 - len(parts))
        return cls(*parts)

    def render(self) -> str:
        return ",".join(self)

    def as_fs(self) -> FeatStruct:
        return FeatStruct(
            [("maj", self.maj), ("min", self.min), ("sub", self.sub),
             ("ssub", self.ssub), ("sssub", self.sssub)]
        )

    def matches(self, pattern: "Cat5") -> bool:
        """Slot-wise match where ``none`` in the pattern matches anything."""
        return all(p == "none" or p == s for s, p in zip(self, pattern))


class NotFound:
    """Sentinel category for keys missing from a mapping table."""

    _instance: Optional["NotFound"] = None

    def __new__(cls) -> "NotFound":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NOT_FOUND"

    def __bool__(self) -> bool:
        return False


NOT_FOUND = NotFound()


def load_inventory(path) -> frozenset:
    """Load the category inventory: one ``maj,min,sub,ssub,sssub`` per line."""
    categories = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                categories.add(Cat5.from_text(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return frozenset(categories)


def _check_category(cat: Cat5, inventory, path, lineno) -> None:
    if inventory is not None and cat not in inventory:
        raise ValueError(f"{path}:{lineno}: category {cat.render()} is not in the inventory")


class RootMapTable:
    """Rows keyed by (processor category, processor type, root)."""

    def __init__(self, rows: Dict[Tuple[str, str, str], Cat5]):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def load(cls, path, inventory=None) -> "RootMapTable":
        rows: Dict[Tuple[str, str, str], Cat5] = {}
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.rstrip("\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 4:
                    raise ValueError(
                        f"{path}:{lineno}: expected 4 tab-separated fields, got {len(fields)}"
                    )
                *key_fields, cat_text = (f.strip() for f in fields)
                key = tuple(map(sys.intern, key_fields))
                if key in rows:
                    raise ValueError(f"{path}:{lineno}: duplicate key {key}")
                cat = Cat5.from_text(cat_text)
                _check_category(cat, inventory, path, lineno)
                rows[key] = cat
        return cls(rows)


class DerivMapTable:
    """Rows keyed by (processor category, derivational suffix)."""

    def __init__(self, rows: Dict[Tuple[str, str], Cat5]):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def load(cls, path, inventory=None) -> "DerivMapTable":
        rows: Dict[Tuple[str, str], Cat5] = {}
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.rstrip("\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise ValueError(
                        f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                    )
                *key_fields, cat_text = (f.strip() for f in fields)
                key = tuple(map(sys.intern, key_fields))
                if key in rows:
                    raise ValueError(f"{path}:{lineno}: duplicate key {key}")
                cat = Cat5.from_text(cat_text)
                _check_category(cat, inventory, path, lineno)
                rows[key] = cat
        return cls(rows)


def map_root(table: RootMapTable, proc_category: str, proc_type: str, root: str):
    """Map a lexical level to its category, or ``NOT_FOUND``."""
    return table.rows.get((proc_category, proc_type, root), NOT_FOUND)


def map_derivation(table: DerivMapTable, proc_category: str, suffix: str):
    """Map a derivation to its category, or ``NOT_FOUND``."""
    return table.rows.get((proc_category, suffix), NOT_FOUND)
