"""Mapping from processor categories to five-slot lexicon categories.

The lexicon organises words in a five-level hierarchy (major category down
to sub-sub-subcategory, unused slots holding ``none``).  Two tables drive
the mapping: one keyed by the lexical level of a parse (processor category,
processor type, root), one keyed by a derivation (processor category,
suffix).  A parse whose key has no row cannot be represented and is skipped
by the engine: ``rows.get(key)`` gives ``None`` for it.

A bad row of a table or of the inventory fails with ``path:line``.
``Cat5.from_text`` is cached, so each distinct category text is one
:class:`Cat5` per process, whichever file holds it, and so is
``Cat5.as_fs``, so each category has one frozen ``cat`` block.
"""

from __future__ import annotations

import functools
import sys
from typing import Dict, NamedTuple

from ._data import read_rows
from .featstruct import FrozenFeatStruct


class Cat5(NamedTuple):
    """A lexicon category: five atoms, ``none`` filling unused slots."""

    maj: str
    min: str = "none"
    sub: str = "none"
    ssub: str = "none"
    sssub: str = "none"

    @classmethod
    @functools.lru_cache(maxsize=None)
    def from_text(cls, text: str) -> "Cat5":
        """Read ``maj,min,...``; a text gives the same object each time."""
        parts = [sys.intern(part.strip()) for part in text.split(",")]
        if not 1 <= len(parts) <= 5 or not all(parts):
            raise ValueError(f"expected 1-5 comma-separated atoms, got {text!r}")
        parts += ["none"] * (5 - len(parts))
        return cls(*parts)

    def render(self) -> str:
        return ",".join(self)

    @functools.lru_cache(maxsize=None)
    def as_fs(self) -> FrozenFeatStruct:
        """The category's ``cat`` block: frozen, one object per category."""
        return FrozenFeatStruct(zip(self._fields, self))

    def matches(self, pattern: "Cat5") -> bool:
        """Slot-wise match where ``none`` in the pattern matches anything."""
        return all(p == "none" or p == s for s, p in zip(self, pattern))


def load_inventory(path) -> frozenset:
    """Load the category inventory: one ``maj,min,sub,ssub,sssub`` per line."""
    return frozenset(read_rows(path, 1, Cat5.from_text))


class CategoryMap:
    """Rows mapping a key of ``key_fields`` atoms to a category.

    A key with no row is simply absent: ``rows.get(key)`` gives ``None``.
    """

    key_fields: int

    def __init__(self, rows: Dict[tuple, Cat5]):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def load(cls, path, inventory=None):
        """Load ``key<TAB>...<TAB>category`` rows, rejecting duplicate keys
        and, given an inventory, categories outside it."""
        rows: Dict[tuple, Cat5] = {}

        def add(*fields):
            *key_fields, cat_text = fields
            key = tuple(map(sys.intern, key_fields))
            if key in rows:
                raise ValueError(f"duplicate key {key}")
            cat = Cat5.from_text(cat_text)
            if inventory is not None and cat not in inventory:
                raise ValueError(f"category {cat.render()} is not in the inventory")
            rows[key] = cat

        read_rows(path, cls.key_fields + 1, add)
        return cls(rows)


class RootMapTable(CategoryMap):
    """Rows keyed by (processor category, processor type, root)."""

    key_fields = 3


class DerivMapTable(CategoryMap):
    """Rows keyed by (processor category, derivational suffix)."""

    key_fields = 2
