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
fills the defaults before it appends, and ``lookup``, ``lookup_template``
and ``browse`` return the clauses' own structures, which their callers
only read.  For most nodes the type enforces that: the parser freezes
every node below a clause's root that no tag reaches, and a frozen node
is a value (see :mod:`turklex.featstruct`).  Only the nodes co-indexed by
identity stay mutable: a tagged node, with each node holding one, and the
value a derived level takes over from its stem (:data:`TAKEN_OVER`),
with its block.  A template holds no tag (:func:`validate_template`).
So ``dumps`` renders each clause's canonical line once, the first time it
saves that clause, and keeps it on the clause (``line``); ``load``
renders nothing.

The same rule lets a ``load`` share values between and within its
clauses: each distinct text of a set with no tag, quoted atom or concept
inside it is parsed once (see :func:`~turklex.featstruct.parse_fs_text`);
a frozen ``cat`` block that holds just the five slots in ``Cat5`` order,
which validation has checked against the key, becomes its category's one
block, ``Cat5.as_fs()``, which every load shares; and every entry
without a ``syn`` gets one frozen ``[subcat:none]``.

A save is atomic: :func:`save` writes a temporary file beside the target
and renames it over the target.  A clause whose canonical line would hold
a line break cannot be saved: ``clause_line`` raises
:class:`InvariantError`, so ``save`` fails before it writes.  ``load``
reads whole stripped lines through :func:`~turklex._data.read_rows`, never
split on tabs (a quoted atom may hold one), and a bad clause raises
:class:`DatabaseFormatError` naming ``path:line``.
"""

from __future__ import annotations

import contextlib
import gc
import os
import re
import stat
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ._data import read_rows
from .catmap import Cat5
from .featstruct import (
    Concept,
    FeatStruct,
    FrozenFeatStruct,
    FSSyntaxError,
    node_counts,
    parse_fs_text,
    render_fs,
    thaw,
)


class DatabaseFormatError(ValueError):
    """Raised for unparsable or duplicate clauses in a database file."""


class InvariantError(ValueError):
    """Raised when an entry or template violates a database invariant."""


@dataclass(slots=True)
class LexiconEntry:
    """One sense of a root word.  ``line``, the clause's canonical line (see
    :func:`clause_line`), is stored the first time it is needed, and is
    None before."""

    cat: Cat5
    root: str
    fs: FeatStruct
    line: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
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
        """The number of clauses; the benchmark (``perfbench/run.py``) reports it."""
        return len(self.clauses)


# --------------------------------------------------------------------------
# load-time defaults

_COMMON_NOUN_FLAGS = (
    "material", "unit", "container", "countable", "spatial", "temporal", "animate",
)

# the value a derived level takes over from its stem, by block: the stem's
# own node, so co-indexed across the levels, and mutable with its block
TAKEN_OVER = {"syn": "subcat", "sem": "roles"}

# every entry without a ``syn`` takes no complements
_DEFAULT_SYN = FrozenFeatStruct([("subcat", "none")])


def _thaw_taken_over(fs: FeatStruct) -> None:
    """Thaw each ``syn`` and ``sem`` structure of ``fs``, and the value of
    it that :data:`TAKEN_OVER` names."""
    for block, name in TAKEN_OVER.items():
        value = fs.get(block)
        if isinstance(value, FeatStruct):
            value = fs[block] = thaw(value)
            if name in value:
                value[name] = thaw(value[name])


def _insert_feature(fs: FeatStruct, name: str, value, index: int) -> None:
    """Make ``name`` the feature at position ``index`` of ``fs``."""
    pairs = list(fs.items())
    pairs.insert(index, (name, value))
    fs.clear()
    fs.update(pairs)


def fill_entry_defaults(fs: FeatStruct, cat: Cat5) -> None:
    """Fill class-wide default features an entry leaves unstated (in place).

    Idempotent: features already present, whatever their value, are kept
    (a frozen one as an equal mutable one: see :func:`_thaw_taken_over`).
    Only a ``syn`` or ``sem`` that is a structure is filled; validation
    rejects any other.
    """
    _thaw_taken_over(fs)
    # Every word subcategorises; "none" means it takes no complements.
    syn = fs.get("syn")
    if syn is None:
        before_sem = list(fs).index("sem") if "sem" in fs else len(fs)
        _insert_feature(fs, "syn", _DEFAULT_SYN, before_sem)
    elif isinstance(syn, FeatStruct) and "subcat" not in syn:
        _insert_feature(syn, "subcat", "none", 0)

    sem = fs.get("sem")
    if not isinstance(sem, FeatStruct):
        return  # validation will reject the entry anyway
    if (cat.maj, cat.min, cat.sub) == ("nominal", "noun", "common"):
        for flag in _COMMON_NOUN_FLAGS:
            sem.setdefault(flag, "-")
    if cat.maj == "adjectival":
        sem.setdefault("gradable", "-")
        sem.setdefault("questional", "-")
    if cat.maj == "adverbial":
        sem.setdefault("questional", "-")
    if cat.min == "pronoun":
        sem.setdefault("definite", "-")
    if (cat.maj, cat.min) == ("conjunction", "bracketing"):
        sem.setdefault("polarity", "+")
        sem.setdefault("connection", "and")


# --------------------------------------------------------------------------
# invariants

def _head(clause) -> str:
    """How a message or a line names a clause."""
    if isinstance(clause, TemplateEntry):
        return f"template {clause.cat.render()}"
    return f"entry {clause.cat.render()} {clause.root}"


def _invalid(clause, message: str) -> InvariantError:
    """The error for a broken invariant: the head is built on failure only."""
    return InvariantError(f"{_head(clause)}: {message}")


def _require_block(clause, name: str) -> FeatStruct:
    block = clause.fs.get(name)
    if not isinstance(block, FeatStruct):
        raise _invalid(clause, f"{name} block is missing or not a structure")
    return block


def _check_cat(clause) -> None:
    """The clause's ``cat`` block must spell out its key."""
    cat_fs = _require_block(clause, "cat")
    for slot, expected in zip(clause.cat._fields, clause.cat):
        if cat_fs.get(slot) != expected:
            raise _invalid(clause, f"cat|{slot} is {cat_fs.get(slot)!r}, key says {expected!r}")


_ROOT_RE = re.compile(r"\S+")


def validate_entry(entry: LexiconEntry) -> None:
    """Check the structural invariants every entry must satisfy."""
    if _ROOT_RE.fullmatch(entry.root) is None:
        raise _invalid(entry, f"root {entry.root!r} is not one word without whitespace")
    _check_cat(entry)
    morph = _require_block(entry, "morph")
    if morph.get("stem") != entry.root:
        raise _invalid(entry, f"morph|stem {morph.get('stem')!r} differs from root")
    if morph.get("form") != "lexical":
        raise _invalid(entry, "morph|form must be 'lexical'")
    _require_block(entry, "syn")
    sem = _require_block(entry, "sem")
    concept = sem.get("concept")
    if concept is None:
        raise _invalid(entry, "sem|concept is missing")
    if not isinstance(concept, Concept):
        raise _invalid(entry, f"sem|concept {concept!r} is not a concept")
    if (entry.cat.maj, entry.cat.min, entry.cat.sub) == ("nominal", "noun", "common"):
        for flag in _COMMON_NOUN_FLAGS:
            if flag not in sem:
                raise _invalid(entry, f"common noun lacks sem|{flag}")


def validate_template(template: TemplateEntry) -> None:
    """A template's ``cat`` spells out its key, each ``morph``, ``syn`` or
    ``sem`` it holds is a structure, its ``morph`` sets none of ``stem``,
    ``form`` and ``derv_suffix``, which the engine's ``build_derived`` sets
    on a derived level, and it holds no tag.

    A chain that derives one category twice holds the template's nodes
    twice, so each must be frozen: the only mutable nodes may be the
    ``syn`` and ``sem`` blocks and the values of :data:`TAKEN_OVER`.
    """
    _check_cat(template)
    for name in ("morph", "syn", "sem"):
        if name in template.fs:
            _require_block(template, name)
    for name in ("stem", "form", "derv_suffix"):
        if name in template.fs.get("morph", ()):
            raise _invalid(template, f"morph|{name} is set by the derivation")
    for name, value in template.fs.items():
        thawed = {id(value), id(value.get(TAKEN_OVER[name]))} if name in TAKEN_OVER else set()
        if node_counts(value).keys() - thawed:
            raise _invalid(template, f"{name} holds a tag, which a template may not")


# --------------------------------------------------------------------------
# operations

def lookup(db: Database, cat: Cat5, root: str) -> List[LexiconEntry]:
    """All senses of ``root`` under ``cat``, in definition order."""
    return list(db.entries.get((cat, root), ()))


def lookup_template(db: Database, cat: Cat5) -> Optional[FeatStruct]:
    """The template clause's own structure for ``cat``, or None.  The
    caller only reads it; ``copy_fs`` gives a private copy."""
    template = db.templates.get(cat)
    return None if template is None else template.fs


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
    return [clause for clause in db.clauses
            if isinstance(clause, LexiconEntry)
            and (cat is None or clause.cat.matches(cat))
            and (root is None or root in clause.root)]


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
    db = Database()
    sets: dict = {}  # one value per distinct plain set text

    def add_clause(line: str) -> None:
        if line.startswith("entry"):
            match = _ENTRY_RE.match(line)
            if match is None:
                raise DatabaseFormatError("malformed entry clause")
            cat_text, root, fs_text = match.groups()
            root = sys.intern(root)
        elif line.startswith("template"):
            match = _TEMPLATE_RE.match(line)
            if match is None:
                raise DatabaseFormatError("malformed template clause")
            cat_text, fs_text = match.groups()
            root = None
        else:
            keyword = line.split()[0]
            raise DatabaseFormatError(f"expected 'entry' or 'template', got {keyword!r}")

        try:
            cat = Cat5.from_text(cat_text)
            fs = parse_fs_text(fs_text, sets)
            if root is not None:
                add_entry(db, LexiconEntry(cat, root, fs))
            else:
                _thaw_taken_over(fs)
                template = TemplateEntry(cat, fs)
                validate_template(template)
        except FSSyntaxError as exc:
            raise DatabaseFormatError(f"bad feature structure: {exc}") from exc
        except ValueError as exc:  # a bad category text or a broken invariant
            raise DatabaseFormatError(str(exc)) from exc
        # validated, so a frozen block of the five slots in order holds just
        # the key's atoms, and renders as its category's one block does
        if type(fs["cat"]) is FrozenFeatStruct and tuple(fs["cat"]) == Cat5._fields:
            fs["cat"] = cat.as_fs()
        if root is not None:
            return
        if cat in db.templates:
            raise DatabaseFormatError(f"duplicate template for {cat.render()}")
        db.templates[cat] = template
        db.clauses.append(template)

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        read_rows(path, None, add_clause)
    finally:
        if gc_was_enabled:
            gc.enable()
    return db


def clause_line(clause) -> str:
    """The canonical line of an entry or template clause, rendered on the
    first call and stored on the clause.

    Raises :class:`InvariantError` if the line would hold a line break (a
    quoted atom or a concept gloss can), which the file could not hold.
    """
    if clause.line is None:
        head = _head(clause)
        line = f"{head} := {render_fs(clause.fs, style='compact')}"
        if "\n" in line or "\r" in line:
            raise InvariantError(f"{head}: a clause holding a line break cannot be saved")
        clause.line = line
    return clause.line


def dumps(db: Database) -> str:
    """Render the database in canonical one-clause-per-line form."""
    return "\n".join([_HEADER, *map(clause_line, db.clauses)]) + "\n"


def save(db: Database, path) -> None:
    """Write the database to ``path`` in canonical form, atomically.

    The text is rendered and encoded before any file is touched, so a
    failed render writes nothing.  Then, a system call a step:

    1. ``lstat`` the path.  Only if it is a symlink does ``realpath``
       resolve its whole chain, and ``stat`` read the file that names; so a
       save through a link writes the link's target, a dangling link
       included, and every link stays a link.
    2. ``open`` a temporary file ``<target>.<pid>.tmp`` beside the target
       with mode ``0o666`` less the umask, as a write in place creates it.
    3. ``fchmod`` it to the target's permission bits, if the target exists.
    4. ``write`` the bytes until all are written, then ``close``.
    5. ``rename`` it over the target (``os.replace``).

    A failure or a killed process leaves the old file or the new one, never
    a truncated one, and a failure after the open removes the temporary
    file.  Nothing is synced to the disk: the rename is atomic, but a power
    loss may still lose a save that returned.
    """
    data = dumps(db).encode("utf-8")
    target = path
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and stat.S_ISLNK(mode):
        target = os.path.realpath(path)
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:  # a dangling link: write what it names
            mode = None
    tmp = f"{target}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        try:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
