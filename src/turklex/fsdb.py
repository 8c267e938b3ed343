"""Feature-structure database: root-word senses and derived-form templates.

The database file holds one clause per line::

    entry    maj,min,sub,ssub,sssub root := [fs]
    template maj,min,sub,ssub,sssub := [fs]

Entries form a multimap: several clauses with the same category and root are
successive senses of one word, ordered by file position.  Template keys are
unique.  Entry clauses may be written compactly; the loader fills in the
class-wide defaults (subcategorisation, the common-noun semantic flags,
gradability and the like) before validating the entry invariants.

A clause is never mutated once it is in a :class:`Database`: ``add_entry``
fills the defaults before it appends, ``lookup_template`` returns a copy,
and ``lookup`` and ``browse`` return the clauses themselves, which their
callers only read (the engine's ``retrieve`` copies each sense).  So
``dumps`` renders each clause's canonical line once, the first time it
saves that clause, and keeps it on the clause (``line``); a later save
renders only the clauses added since and joins the stored lines.  ``load``
renders nothing.

The same contract lets one ``load`` share values between clauses.  It
parses each distinct text of a set with no tag, quoted atom or concept
inside it once (see :func:`~turklex.featstruct.parse_fs_text`), so every
clause that repeats a complement constraint set such as
``{[cat:[maj:nominal, min:{noun, pronoun}], morph:[case:nom]]}`` holds the
same object; a clause holds a shared set once at most, since a node reached
twice within a clause reads as co-indexing.  It also makes one
:class:`~turklex.catmap.Cat5` per distinct category text.  Nothing mutates a
shared set: the engine unifies copies, ``lookup_template`` and ``retrieve``
copy, and ``fill_entry_defaults`` changes only the clause's own root,
``syn`` and ``sem`` structures.

A clause whose canonical line would hold a line break cannot be saved in
this line-based format: ``clause_line`` raises :class:`InvariantError`, so
``save`` fails before it writes.
"""

from __future__ import annotations

import gc
import os
import re
import shutil
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .catmap import Cat5
from .featstruct import (
    Concept,
    FeatStruct,
    FSSyntaxError,
    copy_fs,
    parse_fs_text,
    render_fs,
)


class DatabaseFormatError(ValueError):
    """Raised for unparsable or duplicate clauses in a database file."""


class InvariantError(ValueError):
    """Raised when an entry or template violates a database invariant."""


@dataclass
class LexiconEntry:
    """One sense of a root word."""

    cat: Cat5
    root: str
    fs: FeatStruct
    line: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass
class TemplateEntry:
    """Class-wide feature skeleton for derived forms of one category."""

    cat: Cat5
    fs: FeatStruct
    line: Optional[str] = field(default=None, compare=False, repr=False)


class Database:
    """In-memory database preserving clause order for canonical saves."""

    def __init__(self):
        self.clauses: List[object] = []
        self.entries: Dict[Tuple[Cat5, str], List[LexiconEntry]] = {}
        self.templates: Dict[Cat5, TemplateEntry] = {}

    def __len__(self) -> int:
        return len(self.clauses)


# --------------------------------------------------------------------------
# load-time defaults

_COMMON_NOUN_FLAGS = (
    "material", "unit", "container", "countable", "spatial", "temporal", "animate",
)


def _insert_feature(fs: FeatStruct, name: str, value, index: int) -> None:
    """Make ``name`` the feature at position ``index`` of ``fs``."""
    pairs = list(fs.items())
    pairs.insert(index, (name, value))
    fs.clear()
    fs.update(pairs)


def fill_entry_defaults(fs: FeatStruct, cat: Cat5) -> None:
    """Fill class-wide default features an entry leaves unstated (in place).

    Idempotent: features already present, whatever their value, are kept.
    Only a ``syn`` or ``sem`` that is a structure is filled; validation
    rejects any other.
    """
    # Every word subcategorises; "none" means it takes no complements.
    syn = fs.get("syn")
    if syn is None:
        syn = FeatStruct([("subcat", "none")])
        before_sem = list(fs).index("sem") if "sem" in fs else len(fs)
        _insert_feature(fs, "syn", syn, before_sem)
    elif isinstance(syn, FeatStruct) and "subcat" not in syn:
        _insert_feature(syn, "subcat", "none", 0)

    sem = fs.get("sem")
    if not isinstance(sem, FeatStruct):
        return  # validation will reject the entry anyway

    def default(name: str, value: str) -> None:
        if name not in sem:
            sem[name] = value

    if (cat.maj, cat.min, cat.sub) == ("nominal", "noun", "common"):
        for flag in _COMMON_NOUN_FLAGS:
            default(flag, "-")
    if cat.maj == "adjectival":
        default("gradable", "-")
        default("questional", "-")
    if cat.maj == "adverbial":
        default("questional", "-")
    if cat.min == "pronoun":
        default("definite", "-")
    if (cat.maj, cat.min) == ("conjunction", "bracketing"):
        default("polarity", "+")
        default("connection", "and")


# --------------------------------------------------------------------------
# invariants

def _require_block(fs: FeatStruct, name: str, what: str) -> FeatStruct:
    block = fs.get(name)
    if not isinstance(block, FeatStruct):
        raise InvariantError(f"{what}: {name} block is missing or not a structure")
    return block


def _check_cat(fs: FeatStruct, cat: Cat5, what: str) -> None:
    """The ``cat`` block of ``fs`` must spell out the clause's key ``cat``."""
    cat_fs = _require_block(fs, "cat", what)
    for slot, expected in zip(cat._fields, cat):
        if cat_fs.get(slot) != expected:
            raise InvariantError(
                f"{what}: cat|{slot} is {cat_fs.get(slot)!r}, key says {expected!r}"
            )


def validate_entry(entry: LexiconEntry) -> None:
    """Check the structural invariants every entry must satisfy."""
    what = f"entry {entry.cat.render()} {entry.root}"
    if re.fullmatch(r"\S+", entry.root) is None:
        raise InvariantError(f"{what}: root {entry.root!r} is not one word without whitespace")
    _check_cat(entry.fs, entry.cat, what)
    morph = _require_block(entry.fs, "morph", what)
    if morph.get("stem") != entry.root:
        raise InvariantError(f"{what}: morph|stem {morph.get('stem')!r} differs from root")
    if morph.get("form") != "lexical":
        raise InvariantError(f"{what}: morph|form must be 'lexical'")
    _require_block(entry.fs, "syn", what)
    sem = _require_block(entry.fs, "sem", what)
    concept = sem.get("concept")
    if concept is None:
        raise InvariantError(f"{what}: sem|concept is missing")
    if not isinstance(concept, Concept):
        raise InvariantError(f"{what}: sem|concept {concept!r} is not a concept")
    if (entry.cat.maj, entry.cat.min, entry.cat.sub) == ("nominal", "noun", "common"):
        for flag in _COMMON_NOUN_FLAGS:
            if flag not in sem:
                raise InvariantError(f"{what}: common noun lacks sem|{flag}")


def validate_template(template: TemplateEntry) -> None:
    """A template's ``cat`` spells out its key, and each ``morph``, ``syn``
    or ``sem`` it holds is a structure."""
    what = f"template {template.cat.render()}"
    _check_cat(template.fs, template.cat, what)
    for name in ("morph", "syn", "sem"):
        if name in template.fs:
            _require_block(template.fs, name, what)


# --------------------------------------------------------------------------
# operations

def lookup(db: Database, cat: Cat5, root: str) -> List[LexiconEntry]:
    """All senses of ``root`` under ``cat``, in definition order."""
    return list(db.entries.get((cat, root), ()))


def lookup_template(db: Database, cat: Cat5) -> Optional[FeatStruct]:
    """A fresh copy of the template for ``cat``, or None."""
    template = db.templates.get(cat)
    if template is None:
        return None
    return copy_fs(template.fs)


def add_entry(db: Database, entry: LexiconEntry) -> None:
    """Append ``entry`` as the last sense of its word, after validation."""
    fill_entry_defaults(entry.fs, entry.cat)
    validate_entry(entry)
    db.clauses.append(entry)
    db.entries.setdefault((entry.cat, entry.root), []).append(entry)


def delete_entry(db: Database, cat: Cat5, root: str, sense_index: int) -> LexiconEntry:
    """Remove and return one sense; raises KeyError/IndexError as expected."""
    key = (cat, root)
    if key not in db.entries:
        raise KeyError(f"no entries for {cat.render()} {root}")
    senses = db.entries[key]
    if not 0 <= sense_index < len(senses):
        raise IndexError(
            f"{cat.render()} {root} has {len(senses)} sense(s), no index {sense_index}"
        )
    entry = senses.pop(sense_index)
    if not senses:
        del db.entries[key]
    # by identity: two senses may be equal, and only this one goes
    del db.clauses[next(i for i, clause in enumerate(db.clauses) if clause is entry)]
    return entry


def browse(db: Database, cat: Optional[Cat5] = None, root: Optional[str] = None) -> List[LexiconEntry]:
    """Entries whose category matches ``cat`` (none slots are wildcards)
    and whose root contains ``root`` as a substring."""
    found = []
    for clause in db.clauses:
        if not isinstance(clause, LexiconEntry):
            continue
        if cat is not None and not clause.cat.matches(cat):
            continue
        if root is not None and root not in clause.root:
            continue
        found.append(clause)
    return found


# --------------------------------------------------------------------------
# file format

_ENTRY_RE = re.compile(r"^entry\s+(\S+)\s+(\S+)\s*:=\s*(.+)$")
_TEMPLATE_RE = re.compile(r"^template\s+(\S+)\s*:=\s*(.+)$")

_HEADER = "# Feature-structure database (canonical form)."


def load(path) -> Database:
    """Load a database file, filling defaults and validating every clause.

    The cyclic garbage collector is paused while the clauses are built and
    re-enabled afterwards only if it was enabled on entry.  A load creates
    many long-lived nodes and no cycles (tags share nodes, they never loop
    back), and reference counting frees the parse garbage, so a collector
    pass during the load would scan the growing database and free nothing.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _load(path)
    finally:
        if gc_was_enabled:
            gc.enable()


def _load(path) -> Database:
    db = Database()
    cats: Dict[str, Cat5] = {}  # one Cat5 per distinct category text
    sets: dict = {}  # one value per distinct plain set text

    def fail(message: str) -> DatabaseFormatError:
        return DatabaseFormatError(f"{path}:{lineno}: {message}")

    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue

            if line.startswith("entry"):
                match = _ENTRY_RE.match(line)
                if match is None:
                    raise fail("malformed entry clause")
                cat_text, root, fs_text = match.groups()
                root = sys.intern(root)
            elif line.startswith("template"):
                match = _TEMPLATE_RE.match(line)
                if match is None:
                    raise fail("malformed template clause")
                cat_text, fs_text = match.groups()
                root = None
            else:
                raise fail(f"expected 'entry' or 'template', got {line.split()[0]!r}")

            cat = cats.get(cat_text)
            if cat is None:
                try:
                    cat = cats[cat_text] = Cat5.from_text(cat_text)
                except ValueError as exc:
                    raise fail(str(exc)) from exc
            try:
                fs = parse_fs_text(fs_text, sets)
            except FSSyntaxError as exc:
                raise fail(f"bad feature structure: {exc}") from exc

            if root is None:
                template = TemplateEntry(cat, fs)
                try:
                    validate_template(template)
                except InvariantError as exc:
                    raise fail(str(exc)) from exc
                if cat in db.templates:
                    raise fail(f"duplicate template for {cat.render()}")
                db.templates[cat] = template
                db.clauses.append(template)
            else:
                entry = LexiconEntry(cat, root, fs)
                try:
                    add_entry(db, entry)
                except InvariantError as exc:
                    raise fail(str(exc)) from exc
    return db


def clause_line(clause) -> str:
    """The canonical line of an entry or template clause, rendered on the
    first call and stored on the clause.

    Raises :class:`InvariantError` if the line would hold a line break (a
    quoted atom or a concept gloss can), which the file could not hold.
    """
    if clause.line is None:
        if isinstance(clause, TemplateEntry):
            head = f"template {clause.cat.render()}"
        else:
            head = f"entry {clause.cat.render()} {clause.root}"
        line = f"{head} := {render_fs(clause.fs, style='compact')}"
        if "\n" in line or "\r" in line:
            raise InvariantError(f"{head}: a clause holding a line break cannot be saved")
        clause.line = line
    return clause.line


def dumps(db: Database) -> str:
    """Render the database in canonical one-clause-per-line form."""
    return "\n".join([_HEADER, *map(clause_line, db.clauses)]) + "\n"


def save(db: Database, path) -> None:
    """Write the database to ``path`` in canonical form.

    The text is rendered first and written to a temporary file beside the
    target, which then replaces it in one rename: a failure or a killed
    process leaves the old file or the new one, never a truncated one.  As
    with a write in place, a symlink is followed and an existing target
    keeps its permission bits.
    """
    text = dumps(db)
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        if os.path.exists(target):
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
