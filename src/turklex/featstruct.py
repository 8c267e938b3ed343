"""Feature-structure algebra: representation, text syntax, unification, subsumption.

Values stored inside a :class:`FeatStruct` are one of:

* ``str`` — an atom (``nominal``, ``3sg``, ``+``, ``none``, ...)
* ``frozenset[str]`` — an atom set, at least two members (``{noun, pronoun}``)
* :class:`Neg` — a negated atom (``!none``), matching any atom except its own
* :class:`BaseConcept` / :class:`DerivedConcept` — concept terms
  (``at-(horse)``, ``f_lI(akIl-(intelligence))``, ``none(at-(horse))``)
* :class:`FeatStruct` — a nested structure: a ``dict`` from feature names
  to values
* :class:`Seq` — an ordered sequence ``<...>`` (subcategorization lists),
  a ``list``
* :class:`FSSet` — an unordered set of structures ``{[...], [...]}``
  (disjunctive constraint sets), a ``list`` whose order does not count

These three are the nodes; everything else is a leaf.  On every node
``==`` is :func:`fs_equal`: a node equals only a node of its own type with
equal contents and the same sharing.  Every structure is open: unification
may add features to it.  The text syntax's trailing ``|_`` marker is
accepted and changes nothing.

Co-indexing is physical object sharing: the text syntax ``@n=value`` /
``@n`` resolves to one shared object at parse time, and the renderer
re-derives tags from sharing, so there is no tag node type at runtime.
:func:`unify` takes any two values.  It copies the first with
:func:`copy_fs` and merges the second into that copy destructively,
reading the second as it is: under the same memo, a node of the second is
copied only where the result takes it over, and one that already has a
copy is read through that copy.  That keeps co-indexed substructures
co-indexed in the result, inside and across the operands, and the result
shares no node with either operand.  Only the nodes are copied: the
leaves are immutable by type (``str``, ``frozenset``, and frozen
dataclasses for :class:`Neg` and the concepts, whose fields cannot be
assigned), so copies share them.  A negation or concept that could not be
written back as text is rejected when it is made.

``None`` is never a value, so it means "no value" throughout: :func:`unify`
returns ``None`` on a clash (never an exception), and ``FeatStruct.get`` and
:func:`get_path` return ``None`` where no value is.

The parser interns every feature name and atom it returns
(``sys.intern``), so a database holds one string per distinct name or
atom however many clauses use it.  That saves memory only: code still
compares names and atoms with ``==``, never ``is``, because structures
built through the API may hold strings that were never interned.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass


@dataclass(frozen=True, slots=True, repr=False)
class Neg:
    """Negated atom: unifies with any atom except its own, which must be
    plain (``[A-Za-z0-9_.+/-]+``) so that ``!atom`` parses back."""

    atom: str

    def __post_init__(self):
        if not _ATOM_RE.fullmatch(self.atom):
            raise ValueError(f"negated atom {self.atom!r} is not plain")

    def __repr__(self):
        return f"!{self.atom}"


class Concept:
    """Base class for concept terms."""

    __slots__ = ()


@dataclass(frozen=True, slots=True, repr=False)
class BaseConcept(Concept):
    """Root concept ``root-(gloss)``: ``root-`` must be plain, and the gloss
    non-empty, unpadded and free of ``)``, so that the text parses back."""

    root: str
    gloss: str

    def __post_init__(self):
        root, gloss = self.root, self.gloss
        if not _ATOM_RE.fullmatch(root + "-") or (
            not gloss or gloss != gloss.strip() or ")" in gloss
        ):
            raise ValueError(f"concept {root!r}-({gloss!r}) cannot be written")

    def __repr__(self):
        return f"{self.root}-({self.gloss})"


@dataclass(frozen=True, slots=True, repr=False)
class DerivedConcept(Concept):
    """Concept built by a derivational suffix: ``f_suffix(inner)``.

    A suffix of ``"none"`` renders as ``none(inner)`` (conversion without
    an overt suffix).  ``f_suffix`` must be a plain atom that does not end
    in ``-`` (which would read back as a root concept), and ``inner`` must
    be a :class:`Concept`, so that the text parses back.
    """

    suffix: str
    inner: Concept

    def __post_init__(self):
        if not _ATOM_RE.fullmatch("f_" + self.suffix) or self.suffix.endswith("-"):
            raise ValueError(f"derived concept suffix {self.suffix!r} cannot be written")
        if not isinstance(self.inner, Concept):
            raise ValueError("derived concept must wrap a concept")

    def __repr__(self):
        head = "none" if self.suffix == "none" else f"f_{self.suffix}"
        return f"{head}({self.inner!r})"


class _Node:
    """What the three node types share: ``==`` is :func:`fs_equal`, so a
    node equals only a node of its own type, and ``repr`` renders."""

    __slots__ = ()

    def __eq__(self, other):
        return fs_equal(self, other)

    def __ne__(self, other):
        return not fs_equal(self, other)

    def __repr__(self):
        return render_fs(self)


class FeatStruct(_Node, dict):
    """Ordered mapping from feature names to values: a ``dict`` except that
    ``==`` is :func:`fs_equal` and ``repr`` renders.  ``FeatStruct(pairs)``
    is ``dict(pairs)``, so a repeated name keeps its last value; the parser
    rejects one in text."""

    __slots__ = ()


class Seq(_Node, list):
    """Ordered sequence of values, written ``<a, b, ...>``."""

    __slots__ = ()


class FSSet(_Node, list):
    """Unordered set of feature structures, written ``{[...], [...]}``: a
    ``list`` whose order :func:`fs_equal` ignores."""

    __slots__ = ()


_NODE_TYPES = frozenset((FeatStruct, Seq, FSSet))


class FSSyntaxError(ValueError):
    """Raised on malformed feature-structure text; carries the position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


_NAME_RE = re.compile(r"[a-z][a-z0-9_-]*")
_ATOM_RE = re.compile(r"[A-Za-z0-9_.+/-]+")
_INT_RE = re.compile(r"\d+")
# The common step ``name:atom`` followed by ``,`` or ``]``, in one match.
# Neither character class holds whitespace, ':', ',', ']' or '(', so where
# this matches, the step-by-step code reads the same pair and separator.
_PAIR_RE = re.compile(
    rf"\s*({_NAME_RE.pattern})\s*:\s*({_ATOM_RE.pattern})\s*([,\]])"
)


# A set whose value depends on its text alone: no tag, quoted atom or
# concept inside it, and braces nested at most one deep.  Atoms hold no
# brace, so where such a set parses, it ends at this match's closing brace.
_PLAIN_SET_RE = re.compile(r"\{[^{}@'(]*(?:\{[^{}@'(]*\}[^{}@'(]*)*\}")


class _Parser:
    def __init__(self, text: str, sets=None):
        self.text = text
        self.pos = 0
        self.tags: dict[int, object] = {}
        self.sets = sets  # plain set text -> its value, shared across texts
        self.placed: set[int] = set()  # ids of the shared values this text holds

    def error(self, message):
        raise FSSyntaxError(message, position=self.pos)

    def ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_top(self):
        self.ws()
        if self.peek() != "[":
            self.error("expected '[' to open a feature structure")
        fs = self.parse_fs()
        self.ws()
        if self.pos != len(self.text):
            self.error("trailing text after feature structure")
        return fs

    def parse_fs(self):
        self.expect("[")
        fs = FeatStruct()
        self.ws()
        if self.peek() == "]":
            self.pos += 1
            return fs
        while True:
            m = _PAIR_RE.match(self.text, self.pos)
            if m is not None and m.group(1) not in fs:
                fs[sys.intern(m.group(1))] = sys.intern(m.group(2))
                self.pos = m.end()
                if m.group(3) == ",":
                    continue
                break
            # anything else, a duplicate name included, goes step by step
            self.ws()
            m = _NAME_RE.match(self.text, self.pos)
            if not m:
                self.error("expected feature name")
            name = sys.intern(m.group())
            if name in fs:
                self.error(f"duplicate feature name {name!r}")
            self.pos = m.end()
            self.ws()
            self.expect(":")
            fs[name] = self.parse_value()
            self.ws()
            c = self.peek()
            if c == ",":
                self.pos += 1
                continue
            if c == "|":
                # trailing openness marker |_ — accepted; every structure
                # is open, so it changes nothing
                self.pos += 1
                self.expect("_")
                self.ws()
                self.expect("]")
                break
            if c == "]":
                self.pos += 1
                break
            self.error("expected ',', ']' or '|_'")
        return fs

    def parse_value(self):
        self.ws()
        c = self.peek()
        if c == "@":
            return self.parse_tag()
        if c == "!":
            self.pos += 1
            m = _ATOM_RE.match(self.text, self.pos)
            if not m:
                self.error("expected atom after '!'")
            self.pos = m.end()
            return Neg(sys.intern(m.group()))
        if c == "'":
            end = self.text.find("'", self.pos + 1)
            if end < 0:
                self.error("unterminated quoted atom")
            atom = sys.intern(self.text[self.pos + 1 : end])
            self.pos = end + 1
            return atom
        if c == "[":
            return self.parse_fs()
        if c == "<":
            return Seq(self.parse_list(">"))
        if c == "{":
            return self.parse_braces() if self.sets is None else self.shared_braces()
        return self.parse_atom_or_concept()

    def parse_tag(self):
        self.expect("@")
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            self.error("expected tag number after '@'")
        num = int(m.group())
        self.pos = m.end()
        if self.peek() == "=":
            self.pos += 1
            self.ws()
            if self.peek() not in "[<{":
                self.error("tag must name a structure, sequence or set")
            if num in self.tags:
                self.error(f"tag @{num} defined twice")
            value = self.parse_value()
            self.tags[num] = value
            return value
        if num not in self.tags:
            self.error(f"unresolved tag @{num}")
        return self.tags[num]

    def parse_list(self, close):
        """The comma-separated values after an opening ``<`` or ``{``, up to
        ``close``."""
        self.pos += 1
        items = [self.parse_value()]
        self.ws()
        while self.peek() == ",":
            self.pos += 1
            items.append(self.parse_value())
            self.ws()
        self.expect(close)
        return items

    def shared_braces(self):
        """The set at ``{``: the value in ``self.sets`` when its plain text
        was parsed before, else a fresh parse, stored if the text is plain.

        A shared value goes into one text at most once, since a node reached
        twice reads as co-indexing, so a repeat within the text is parsed
        afresh.  A set that is being stored holds no shared value, so the
        ``placed`` check sees every shared node of the text.
        """
        m = _PLAIN_SET_RE.match(self.text, self.pos)
        if m is None:
            return self.parse_braces()
        key = m.group()
        shared = self.sets.get(key)
        if shared is not None and id(shared) not in self.placed:
            self.pos = m.end()
            self.placed.add(id(shared))
            return shared
        sets, self.sets = self.sets, None
        value = self.parse_braces()
        self.sets = sets
        if shared is None:
            sets[key] = value
            self.placed.add(id(value))
        return value

    def parse_braces(self):
        items = self.parse_list("}")
        if all(isinstance(i, str) for i in items):
            atoms = frozenset(items)
            if len(atoms) == 1:
                return next(iter(atoms))
            return atoms
        if all(isinstance(i, FeatStruct) for i in items):
            return FSSet(items)
        self.error("braces must hold only atoms or only structures")

    def parse_atom_or_concept(self):
        m = _ATOM_RE.match(self.text, self.pos)
        if not m:
            self.error("expected a value")
        cand = m.group()
        self.pos = m.end()
        if self.peek() != "(":
            return sys.intern(cand)
        if cand.endswith("-"):
            self.pos += 1
            end = self.text.find(")", self.pos)
            if end < 0:
                self.error("unterminated concept gloss")
            gloss = self.text[self.pos : end].strip()
            if not gloss:
                self.error("empty concept gloss")
            self.pos = end + 1
            return BaseConcept(cand[:-1], gloss)
        if cand == "none" or cand.startswith("f_"):
            suffix = "none" if cand == "none" else cand[2:]
            self.pos += 1
            inner = self.parse_value()
            if not isinstance(inner, Concept):
                self.error("derived concept must wrap a concept")
            self.ws()
            self.expect(")")
            return DerivedConcept(suffix, inner)
        self.error(f"unexpected '(' after {cand!r}")


def parse_fs_text(text: str, sets=None) -> FeatStruct:
    """Parse the compact text syntax into a feature structure.

    Returns a :class:`FeatStruct`, since the text must open with ``[``, or
    raises :class:`FSSyntaxError` (with position) on malformed input,
    duplicate feature names, and unresolved tags.

    ``sets``, a dict kept across calls, shares sets between the texts
    parsed with it: each distinct text of a set with no tag, quoted atom or
    concept inside it is parsed once, and every later text holding it gets
    the same value (at most once per text).  The results then share nodes,
    so they must never be mutated; :mod:`turklex.fsdb` passes one dict per
    load.
    """
    return _Parser(text, sets).parse_top()


# --------------------------------------------------------------- rendering

def _walk_nodes(value, counts):
    """Count the references to each node in ``value``, by ``id``.  Every
    node walked stays reachable from the root, so no ``id`` is reused."""
    if type(value) in _NODE_TYPES:
        i = id(value)
        if i in counts:
            counts[i] += 1
            return
        counts[i] = 1
        for v in value.values() if type(value) is FeatStruct else value:
            _walk_nodes(v, counts)


def node_counts(value) -> dict:
    """The number of references to each node of ``value``, by ``id``;
    ``value`` itself counts one.  A node counted more than once is
    co-indexed."""
    counts: dict[int, int] = {}
    _walk_nodes(value, counts)
    return counts


def _quote(atom: str) -> str:
    """``atom`` as the parser reads it back: bare, or quoted if it holds a
    character outside ``[A-Za-z0-9_.+/-]`` or is empty."""
    return atom if _ATOM_RE.fullmatch(atom) else f"'{atom}'"


class _Renderer:
    def __init__(self, root):
        self.shared = {i for i, n in node_counts(root).items() if n > 1}
        self.assigned: dict[int, int] = {}
        self.next_tag = 1

    def tag_for(self, value):
        """(prefix, already_emitted) for a possibly-shared node."""
        i = id(value)
        if i not in self.shared:
            return "", False
        if i in self.assigned:
            return f"@{self.assigned[i]}", True
        self.assigned[i] = self.next_tag
        self.next_tag += 1
        return f"@{self.assigned[i]}=", False

    def compact_value(self, value):
        if isinstance(value, str):
            return _quote(value)
        if isinstance(value, frozenset):
            return "{" + ", ".join(map(_quote, sorted(value))) + "}"
        if isinstance(value, (Neg, Concept)):
            return repr(value)
        tag, emitted = self.tag_for(value)
        if emitted:
            return tag
        if type(value) is FeatStruct:
            body = "[" + ", ".join(
                f"{k}:{self.compact_value(v)}" for k, v in value.items()
            ) + "]"
        else:
            opening, closing = "<>" if type(value) is Seq else "{}"
            body = opening + ", ".join(map(self.compact_value, value)) + closing
        return tag + body

    def indented_lines(self, fs) -> list[str]:
        lines: list[str] = []
        self.indent_parts(fs, 0, lines)
        return lines

    def indent_parts(self, node, depth, lines):
        """A node's features (``name:``) or items (``-`` in a sequence, ``*``
        in a set), one head each, at ``depth``."""
        if type(node) is FeatStruct:
            for name, value in node.items():
                self.indent(f"{name}:", value, depth, lines)
        else:
            bullet = "-" if type(node) is Seq else "*"
            for item in node:
                self.indent(bullet, item, depth, lines)

    def indent(self, head, value, depth, lines):
        """``value`` after ``head``: a leaf or a tag reference on the head's
        line, a node's parts on the lines below it.  A feature's empty
        structure is written ``[]``; an empty item is its bare bullet."""
        pad = "  " * depth
        if isinstance(value, (str, frozenset, Neg, Concept)):
            lines.append(f"{pad}{head} {self.compact_value(value)}")
            return
        tag, emitted = self.tag_for(value)
        if emitted:
            lines.append(f"{pad}{head} {tag}")
        elif type(value) is FeatStruct and not value and head.endswith(":"):
            lines.append(f"{pad}{head} {tag}[]")
        else:
            lines.append(f"{pad}{head} {tag}" if tag else f"{pad}{head}")
            self.indent_parts(value, depth + 1, lines)


def render_fs(fs, style: str = "compact") -> str:
    """Render a feature structure, sequence or set as text.

    ``compact`` round-trips through :func:`parse_fs_text` (sharing included,
    via ``@n=``/``@n`` tags; an atom that is not plain is quoted, so an atom
    holding ``'`` cannot be written).  ``indented`` is a human-readable one-feature-
    per-line layout and is not meant to be parsed back.
    """
    if style == "compact":
        return _Renderer(fs).compact_value(fs)
    if style == "indented":
        return "\n".join(_Renderer(fs).indented_lines(fs))
    raise ValueError(f"unknown style {style!r}")


# -------------------------------------------------------------- unification


def copy_fs(value, memo=None):
    """Copy the mutable nodes of ``value``, sharing its immutable leaves.

    ``FeatStruct``, ``Seq`` and ``FSSet`` nodes are copied; every other
    value (atoms, atom sets, negations, concepts) is shared with the
    original.  ``memo`` maps the id of an original node to its copy, so a
    node reached twice is copied once: sharing inside ``value`` is kept,
    and passing one memo to several calls keeps sharing across their
    values (the originals must stay alive between those calls).
    """
    if type(value) not in _NODE_TYPES:
        return value
    if memo is None:
        memo = {}
    return _copy_node(value, memo)


def _copy_node(node, memo):
    done = memo.get(id(node))
    if done is not None:
        return done
    cls = type(node)
    new = cls.__new__(cls)
    memo[id(node)] = new  # before the children, so cycles terminate
    if cls is FeatStruct:
        for name, v in node.items():
            new[name] = _copy_node(v, memo) if type(v) in _NODE_TYPES else v
    else:
        new.extend(_copy_node(v, memo) if type(v) in _NODE_TYPES else v for v in node)
    return new


def unify(x, y):
    """Unify two values (structures, atoms, sets, negations, ...); returns a
    new value or None.

    ``x`` is copied whole with :func:`copy_fs`; of ``y`` only the nodes the
    result takes over are copied, under the same memo, so the result shares
    no node with either operand.  Operands are never mutated.  Sharing
    topology inside (and across) the operands is preserved in the result.
    """
    memo = {}
    return _meet(copy_fs(x, memo), y, memo, False)


def _meet(a, y, memo, copied):
    """Unify ``y`` into ``a``, a node (or leaf) of the result, in place;
    returns the unified value or None.

    ``y`` is an operand's own value while ``copied`` is false; a node of it
    that already has a copy in ``memo`` is read through that copy, and
    everything below a copy is the result's own, so it is placed as it is.
    Any other node of ``y`` is copied only where it is placed, or where a
    constraint set is compared.
    """
    if not copied and type(y) in _NODE_TYPES:
        done = memo.get(id(y))
        if done is not None:
            y, copied = done, True
    if type(a) is FeatStruct:
        if type(y) is not FeatStruct:
            return None
        for name, yv in y.items():
            if name in a:
                merged = _meet(a[name], yv, memo, copied)
                if merged is None:
                    return None
                a[name] = merged
            elif copied or type(yv) not in _NODE_TYPES:
                a[name] = yv
            else:
                a[name] = _copy_node(yv, memo)
        return a
    if type(a) is Seq:
        if type(y) is not Seq or len(a) != len(y):
            return None
        merged = []
        for av, yv in zip(a, y):
            m = _meet(av, yv, memo, copied)
            if m is None:
                return None
            merged.append(m)
        a[:] = merged
        return a
    if type(y) is FSSet and type(a) is FSSet and not copied:
        # compared as the result would hold it: its members' copies, if any
        y = _copy_node(y, memo)
    return _meet_atoms(a, y)


_ATOMIC = (str, frozenset, Neg)


def _meet_atoms(x, y):
    """Meet of two leaves: for atoms, atom sets and negations, each read as
    the set of atoms it allows, the atoms both allow, or None if there are
    none; one atom is a bare ``str``, more a ``frozenset``.  Anything else
    meets only its equal: a concept an equal concept, and a constraint set
    an equal set, since the pipeline never unifies constraint sets deeply.

    "not a and not b" has no value form in an open atom universe, so two
    negations meet conservatively: identical ones succeed, different fail.
    """
    if isinstance(x, str) and isinstance(y, str):
        return x if x == y else None
    if not isinstance(x, _ATOMIC) or not isinstance(y, _ATOMIC):
        return x if x == y else None
    if isinstance(x, Neg):
        if isinstance(y, Neg):
            return x if x == y else None
        x, y = y, x  # so only y can be a negation
    allowed = {x} if isinstance(x, str) else x
    if isinstance(y, Neg):
        meet = allowed - {y.atom}
    else:
        meet = allowed & ({y} if isinstance(y, str) else y)
    if not meet:
        return None
    return next(iter(meet)) if len(meet) == 1 else frozenset(meet)


# -------------------------------------------------------------- subsumption

def subsumes(general, specific) -> bool:
    """Closed-world subsumption: every path of ``general`` must exist in
    ``specific`` and the values must unify.  A path absent from
    ``specific`` fails even though structures are open — this is the
    restriction-elimination semantics, not general lattice subsumption.

    Sharing in ``general`` is not checked, only its path values: so
    ``[x:@1=[a:b], y:@1]`` subsumes ``[x:[a:b], y:[a:b]]``.
    """
    if isinstance(general, FeatStruct):
        if not isinstance(specific, FeatStruct):
            return False
        for name, inner in general.items():
            if name not in specific:
                return False
            if not subsumes(inner, specific[name]):
                return False
        return True
    if isinstance(general, Seq):
        if not isinstance(specific, Seq) or len(general) != len(specific):
            return False
        return all(subsumes(g, s) for g, s in zip(general, specific))
    if isinstance(general, FSSet):
        if not isinstance(specific, FSSet):
            return False
        return all(any(subsumes(g, s) for s in specific) for g in general)
    if type(specific) in _NODE_TYPES:
        return False
    # leaf against leaf: compatible iff they meet (pure for leaves)
    return _meet_atoms(general, specific) is not None


# ------------------------------------------------------------ paths, access

def parse_path(path):
    """Accept ``"a|b|c"`` or an iterable of names; return a tuple of names."""
    if isinstance(path, str):
        parts = tuple(p.strip() for p in path.split("|"))
        if not parts or any(not p for p in parts):
            raise ValueError(f"bad path {path!r}")
        return parts
    return tuple(path)


def get_path(fs: FeatStruct, path):
    """Value at a feature path, or None."""
    for name in parse_path(path):
        if not isinstance(fs, FeatStruct):
            return None
        fs = fs.get(name)
    return fs


def project(fs: FeatStruct, top_features) -> FeatStruct:
    """Copy retaining only the listed top-level features."""
    memo = {}  # one memo keeps sharing among the kept features
    return FeatStruct(
        [(k, copy_fs(v, memo)) for k, v in fs.items() if k in top_features]
    )


# ---------------------------------------------------------------- equality

def fs_equal(a, b) -> bool:
    """Structural equality: order-insensitive on features, sensitive to
    sharing topology (shared nodes must correspond one-to-one)."""
    return _equal(a, b, {}, {})


def _equal(a, b, fwd, rev) -> bool:
    if type(a) not in _NODE_TYPES and type(b) not in _NODE_TYPES:
        return a == b
    if type(a) is not type(b) or len(a) != len(b):
        return False
    ia, ib = id(a), id(b)
    if ia in fwd or ib in rev:
        return fwd.get(ia) == ib and rev.get(ib) == ia
    fwd[ia] = ib
    rev[ib] = ia
    if type(a) is FeatStruct:
        return a.keys() == b.keys() and all(
            _equal(v, b[k], fwd, rev) for k, v in a.items()
        )
    if type(a) is Seq:
        return all(_equal(x, y, fwd, rev) for x, y in zip(a, b))
    # FSSet: unordered — try to match members under a consistent bijection
    return _match_sets(a, list(b), fwd, rev)


def _match_sets(xs, ys, fwd, rev) -> bool:
    if not xs:
        return True
    x = xs[0]
    for i, y in enumerate(ys):
        trial_fwd, trial_rev = dict(fwd), dict(rev)
        if _equal(x, y, trial_fwd, trial_rev):
            if _match_sets(xs[1:], ys[:i] + ys[i + 1 :], trial_fwd, trial_rev):
                fwd.update(trial_fwd)
                rev.update(trial_rev)
                return True
    return False
