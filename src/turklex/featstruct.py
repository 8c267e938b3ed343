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

These three are the nodes; everything else is a leaf, immutable by type
(``str``, ``frozenset``, and frozen dataclasses for :class:`Neg` and the
concepts), so copies share leaves.  Each node type has a frozen subclass
of its kind (:class:`FrozenFeatStruct`, :class:`FrozenSeq`,
:class:`FrozenFSSet`) whose mutators raise ``TypeError`` and which holds
only leaves and frozen nodes.  On every node ``==`` is :func:`fs_equal`.
Every structure is open: unification may add features to it, and the
text syntax's trailing ``|_`` marker changes nothing.

Co-indexing is physical object sharing of mutable nodes: ``@n=value`` /
``@n`` resolves to one object at parse time, and the renderer re-derives
tags from sharing.  A frozen node is a value instead, which is what lets a
database share nodes between and within its clauses: the renderer never
tags one, :func:`fs_equal` compares it by its contents, and
:func:`copy_fs` gives each place holding it a mutable copy of its own, so
it never reads as co-indexed however often it is reached.  The parser
freezes every node below the root that no tag reaches.

``None`` is never a value, so it means "no value" throughout: :func:`unify`
returns ``None`` on a clash (though it may raise: see its limits there),
and ``FeatStruct.get`` and :func:`get_path` return ``None`` where no value
is.  The parser interns names and atoms to save memory only: code compares
them with ``==``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


# Suffixes already found writable: retrieval builds derived concepts from
# the same few analyzer suffixes again and again, so each is checked once.
_WRITABLE_SUFFIXES: set = set()


@dataclass(frozen=True, slots=True)
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
        suffix = self.suffix
        if suffix not in _WRITABLE_SUFFIXES:
            if not _ATOM_RE.fullmatch("f_" + suffix) or suffix.endswith("-"):
                raise ValueError(f"derived concept suffix {suffix!r} cannot be written")
            _WRITABLE_SUFFIXES.add(suffix)
        if not isinstance(self.inner, Concept):
            raise ValueError("derived concept must wrap a concept")

    def __repr__(self):
        head = "none" if self.suffix == "none" else f"f_{self.suffix}"
        return f"{head}({self.inner!r})"


class _Node:
    """What the node types share: ``==`` is :func:`fs_equal`, so a node
    equals only a node of its own kind, and ``repr`` renders."""

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


def _refuse(node, *args, **kwargs):
    raise TypeError(f"{type(node).__name__} cannot be changed; copy_fs gives a mutable copy")


def _frozen(kind, mutators: str):
    """A subclass of the node type ``kind`` whose ``mutators`` raise, and
    whose copy is the node itself, as for any immutable value."""
    return type(f"Frozen{kind.__name__}", (kind,), {
        "__slots__": (), "__copy__": lambda node: node, "__deepcopy__": lambda node, memo: node,
        **dict.fromkeys(mutators.split(), _refuse)})


_LIST_MUTATORS = ("__setitem__ __delitem__ __iadd__ __imul__ "
                  "append clear extend insert pop remove reverse sort")
FrozenFeatStruct = _frozen(FeatStruct,
                           "__setitem__ __delitem__ __ior__ clear pop popitem setdefault update")
FrozenSeq = _frozen(Seq, _LIST_MUTATORS)
FrozenFSSet = _frozen(FSSet, _LIST_MUTATORS)

# ``type(x) in _NODE_TYPES`` and ``type(x) is FeatStruct`` test for a
# mutable node, ``isinstance`` for a node of either kind
_NODE_TYPES = frozenset((FeatStruct, Seq, FSSet))
# every node type -> the mutable type of its kind
_KIND = {FeatStruct: FeatStruct, Seq: Seq, FSSet: FSSet,
         FrozenFeatStruct: FeatStruct, FrozenSeq: Seq, FrozenFSSet: FSSet}


def thaw(value):
    """``value`` itself if it is a leaf or a mutable node, else a mutable
    node of its kind holding the same values."""
    kind = _KIND.get(type(value))
    return value if kind is None or type(value) is kind else kind(value)


class FSSyntaxError(ValueError):
    """Raised on malformed feature-structure text; carries the position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


_NAME_RE = re.compile(r"[a-z][a-z0-9_-]*")
_ATOM_RE = re.compile(r"[A-Za-z0-9_.+/-]+")
# One feature of a structure in one match: its name and ':', and, where the
# value is an atom followed by ',' or ']', the atom and that separator too.
# Neither character class holds whitespace, ':', ',', ']' or '(', so the
# match reads the same name and atom as a step-by-step parse would.
_FEATURE_RE = re.compile(
    rf"\s*({_NAME_RE.pattern})\s*:\s*(?:({_ATOM_RE.pattern})\s*([,\]]))?"
)
_SEPARATOR_RE = re.compile(r"\s*([,\]])")
# A tag, ``@n=`` with the whitespace after it or ``@n``; and what follows
# a list's item, ``,`` or nothing.
_TAG_RE = re.compile(r"@(\d+)(=\s*)?")
_ITEM_END_RE = re.compile(r"\s*(,?)")


# A set whose value depends on its text alone: no tag, quoted atom or
# concept inside it, and braces nested at most one deep.  Atoms hold no
# brace, so where such a set parses, it ends at this match's closing brace.
_PLAIN_SET_RE = re.compile(r"\{[^{}@'(]*(?:\{[^{}@'(]*\}[^{}@'(]*)*\}")


class _Parser:
    def __init__(self, text: str, sets=None):
        self.text = text
        self.pos = 0
        self.tags: dict[int, object] = {}
        self.tagged = 0  # nodes read from a tag so far: a node is frozen if none was inside it
        self.sets = sets  # plain set text -> its value, shared across texts

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
        fs.__class__ = FeatStruct  # the root is the caller's own
        return fs

    def parse_fs(self):
        """The structure whose ``[`` is at ``self.pos``."""
        text = self.text
        intern = sys.intern
        tagged = self.tagged
        self.pos += 1
        fs = FeatStruct()
        while True:
            m = _FEATURE_RE.match(text, self.pos)
            if m is None:
                self.no_feature(fs)
                break
            name, atom, sep = m.groups()
            if name in fs:
                self.no_feature(fs)
            self.pos = m.end()
            if sep is None:
                if text.startswith("[", self.pos):
                    fs[intern(name)] = self.parse_fs()
                else:
                    fs[intern(name)] = self.parse_value()
                m = _SEPARATOR_RE.match(text, self.pos)
                if m is None:
                    self.open_end()
                    break
                self.pos = m.end()
                sep = m.group(1)
            else:
                fs[intern(name)] = intern(atom)
            if sep == "]":
                break
        if self.tagged == tagged:
            fs.__class__ = FrozenFeatStruct
        return fs

    def no_feature(self, fs):
        """Where no new ``name:`` follows: the end of an empty structure,
        or the error a step-by-step read of the name and ':' meets."""
        self.ws()
        if not fs and self.peek() == "]":
            self.pos += 1
            return
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            self.error("expected feature name")
        if m.group() in fs:
            self.error(f"duplicate feature name {m.group()!r}")
        self.pos = m.end()
        self.ws()
        self.error("expected ':'")

    def open_end(self):
        """The trailing openness marker ``|_`` and the ``]`` after it,
        accepted where neither ',' nor ']' follows a value; every structure
        is open, so it changes nothing."""
        self.ws()
        if self.peek() != "|":
            self.error("expected ',', ']' or '|_'")
        self.pos += 1
        self.expect("_")
        self.ws()
        self.expect("]")

    def parse_value(self):
        """The value at ``self.pos``, after any whitespace, read by the
        method its first character selects (:data:`_Parser.STARTS`)."""
        c = self.text[self.pos : self.pos + 1]
        if c.isspace():
            self.ws()
            c = self.text[self.pos : self.pos + 1]
        return self.STARTS.get(c, _Parser.parse_atom_or_concept)(self)

    def parse_neg(self):
        self.pos += 1
        m = _ATOM_RE.match(self.text, self.pos)
        if not m:
            self.error("expected atom after '!'")
        self.pos = m.end()
        return Neg(sys.intern(m.group()))

    def parse_quoted(self):
        end = self.text.find("'", self.pos + 1)
        if end < 0:
            self.error("unterminated quoted atom")
        atom = sys.intern(self.text[self.pos + 1 : end])
        self.pos = end + 1
        return atom

    def parse_seq(self):
        tagged = self.tagged
        items = self.parse_list(">")
        return (FrozenSeq if self.tagged == tagged else Seq)(items)

    def parse_set(self):
        """The set at ``{``: the value in ``self.sets`` when its plain text
        was parsed before, else a fresh parse, stored if the text is plain."""
        m = None if self.sets is None else _PLAIN_SET_RE.match(self.text, self.pos)
        if m is None:
            return self.parse_braces()
        value = self.sets.get(m.group())
        if value is None:
            return self.sets.setdefault(m.group(), self.parse_braces())
        self.pos = m.end()
        return value

    def parse_tag(self):
        """The node ``@n=value`` defines, or the one ``@n`` names: mutable,
        as is each node holding it, since reaching it twice is co-indexing."""
        m = _TAG_RE.match(self.text, self.pos)
        if not m:
            self.pos += 1
            self.error("expected tag number after '@'")
        num = int(m.group(1))
        self.pos = m.end()
        if m.group(2) is not None:
            parse = self.TAGGED.get(self.text[self.pos : self.pos + 1])
            if parse is not None and num in self.tags:
                self.error(f"tag @{num} defined twice")
            value = None if parse is None else parse(self)
            if type(value) not in _KIND:  # no value, or a set of atoms: a leaf
                raise FSSyntaxError("tag must name a structure, sequence or set", m.end())
            self.tags[num] = value
        elif num in self.tags:
            value = self.tags[num]
        else:
            self.error(f"unresolved tag @{num}")
        value.__class__ = _KIND[type(value)]
        self.tagged += 1
        return value

    def parse_list(self, close):
        """The comma-separated values after an opening ``<`` or ``{``, up to
        ``close``."""
        self.pos += 1
        items = []
        while True:
            items.append(self.parse_value())
            m = _ITEM_END_RE.match(self.text, self.pos)
            self.pos = m.end()
            if not m.group(1):
                self.expect(close)
                return items

    def parse_braces(self):
        tagged = self.tagged
        items = self.parse_list("}")
        if all(isinstance(i, str) for i in items):
            atoms = frozenset(items)
            if len(atoms) == 1:
                return next(iter(atoms))
            return atoms
        if all(isinstance(i, FeatStruct) for i in items):
            return (FrozenFSSet if self.tagged == tagged else FSSet)(items)
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
            if self.sets is not None:  # see parse_fs_text
                gloss = sys.intern(gloss)
            return BaseConcept(sys.intern(cand[:-1]), gloss)
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

    # a value's first character -> the method that reads it; an atom or a
    # concept starts with any other
    STARTS = {"@": parse_tag, "!": parse_neg, "'": parse_quoted, "[": parse_fs,
              "<": parse_seq, "{": parse_set}
    # what ``@n=`` may name: a set of its own, never the table's
    TAGGED = {"[": parse_fs, "<": parse_seq, "{": parse_braces}


def parse_fs_text(text: str, sets=None) -> FeatStruct:
    """Parse the compact text syntax into a :class:`FeatStruct` (the text
    opens with ``[``).  Raises :class:`FSSyntaxError` (with position), and
    no other exception, on malformed input, duplicate feature names and
    unresolved tags.  Whitespace may stand at either end, after an opening
    bracket and ``@n=``, around ``:`` and ``,``, and before a closing one.

    A structure's features are read one regular-expression match each: the
    name and ``:``, and, where the value is an atom followed by ``,`` or
    ``]``, the atom and that separator too.  Any other value is parsed on
    its own, and the separator after it is one more match.  Where no match
    fits, the error names what a step-by-step reading would have expected
    there: a feature name, ``:``, a value, or ``,``, ``]`` or ``|_``.

    The root is mutable; below it, a node that carries no tag and holds no
    tagged node is frozen, by a change of class, not a copy.

    ``sets``, a dict kept across calls, shares sets between the texts
    parsed with it: each distinct text of a set with no tag, quoted atom or
    concept inside it is parsed once, and every later place holding it
    gets the same value, frozen or a leaf; :mod:`turklex.fsdb` passes one
    dict per load.  A parse with ``sets`` also interns the glosses of root
    concepts, which a load's clauses repeat; a parse without it leaves them
    alone, since interning the gloss of each short-lived parse (an edited
    sense) churns the interpreter's table of interned strings, whose
    rebuilds raise the peak memory.
    """
    return _Parser(text, sets).parse_top()


# --------------------------------------------------------------- rendering

def _walk_nodes(value, counts):
    """Count the references to each mutable node in ``value``, by ``id``; a
    frozen one holds no other.  Every node walked stays reachable from the
    root, so no ``id`` is reused."""
    if type(value) in _NODE_TYPES:
        i = id(value)
        if i in counts:
            counts[i] += 1
            return
        counts[i] = 1
        for v in value.values() if type(value) is FeatStruct else value:
            _walk_nodes(v, counts)


def node_counts(value) -> dict:
    """The number of references to each mutable node of ``value``, by
    ``id``; ``value`` itself counts one.  A node counted more than once is
    co-indexed; a frozen node is counted never."""
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
        if isinstance(value, FeatStruct):
            body = "[" + ", ".join(
                f"{k}:{self.compact_value(v)}" for k, v in value.items()
            ) + "]"
        else:
            opening, closing = "<>" if isinstance(value, Seq) else "{}"
            body = opening + ", ".join(map(self.compact_value, value)) + closing
        return tag + body

    def indent_parts(self, node, depth, lines):
        """A node's features (``name:``) or items (``-`` in a sequence, ``*``
        in a set), one head each, at ``depth``."""
        if isinstance(node, FeatStruct):
            for name, value in node.items():
                self.indent(f"{name}:", value, depth, lines)
        else:
            bullet = "-" if isinstance(node, Seq) else "*"
            for item in node:
                self.indent(bullet, item, depth, lines)

    def indent(self, head, value, depth, lines):
        """``value`` after ``head``: a leaf or a tag reference on the head's
        line, a node's parts on the lines below it.  A feature's empty
        structure, and a tagged empty item, is written ``[]``; an untagged
        empty item is its bare bullet."""
        pad = "  " * depth
        if isinstance(value, (str, frozenset, Neg, Concept)):
            lines.append(f"{pad}{head} {self.compact_value(value)}")
            return
        tag, emitted = self.tag_for(value)
        if emitted:
            lines.append(f"{pad}{head} {tag}")
        elif isinstance(value, FeatStruct) and not value and (tag or head.endswith(":")):
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
        lines: list[str] = []
        _Renderer(fs).indent_parts(fs, 0, lines)
        return "\n".join(lines)
    raise ValueError(f"unknown style {style!r}")


# -------------------------------------------------------------- unification


def copy_fs(value):
    """Copy every node of ``value``, frozen or not, into a mutable one,
    sharing its leaves.

    A mutable node reached twice is copied once, so sharing inside
    ``value`` is kept.  A frozen node is a value: each place holding it
    gets a copy of its own.
    """
    return _copy_node(value, {}) if type(value) in _KIND else value


def _copy_node(node, memo):
    """A mutable copy of ``node``; ``memo`` maps each mutable node copied, by id, to its copy."""
    done = memo.get(id(node))  # never a frozen node's: none is kept
    if done is not None:
        return done
    cls = _KIND[type(node)]
    new = cls.__new__(cls)
    if cls is type(node):
        memo[id(node)] = new  # before the children, so cycles terminate
    if cls is FeatStruct:
        for name, v in node.items():
            new[name] = _copy_node(v, memo) if type(v) in _KIND else v
    else:
        new.extend(_copy_node(v, memo) if type(v) in _KIND else v for v in node)
    return new


def unify(x, y):
    """Unify two values (structures, atoms, sets, negations, ...); returns a
    new value or None.

    ``x`` is copied whole, as :func:`copy_fs` copies; of ``y`` only the
    nodes the result takes over are copied, under the same memo, so the
    result shares no node with either operand.  Operands are never
    mutated.  Sharing inside ``x`` is kept, but the merge walks ``y`` as a
    tree: ``unify([x:[p:a], y:[r:c]], [x:@1=[q:b], y:@1])`` drops ``y``'s
    ``@1``, ``unify([x:[p:a], y:[p:c]], [x:@1=[q:b], y:@1])`` succeeds, and
    an operand holding a node of the other can make it raise
    ``RuntimeError`` or ``RecursionError`` (ROADMAP item 3 fixes all three).
    """
    memo = {}
    return _meet(_copy_node(x, memo) if type(x) in _KIND else x, y, memo, False)


def _meet(a, y, memo, copied):
    """Unify ``y`` into ``a``, a node (or leaf) of the result, in place;
    returns the unified value or None.  ``y`` may be frozen; ``a`` is not.

    ``y`` is an operand's own value while ``copied`` is false; a node of it
    that already has a copy in ``memo`` is read through that copy, and
    everything below a copy is the result's own, so it goes in as it is.
    Any other node of ``y`` is copied only where the result takes it, or
    where a constraint set is compared.
    """
    if not copied and type(y) in _NODE_TYPES:
        done = memo.get(id(y))
        if done is not None:
            y, copied = done, True
    if type(a) is FeatStruct:
        if not isinstance(y, FeatStruct):
            return None
        for name, yv in y.items():
            if name in a:
                merged = _meet(a[name], yv, memo, copied)
                if merged is None:
                    return None
                a[name] = merged
            elif copied or type(yv) not in _KIND:
                a[name] = yv
            else:
                a[name] = _copy_node(yv, memo)
        return a
    if type(a) is Seq:
        if not isinstance(y, Seq) or len(a) != len(y):
            return None
        for i, (av, yv) in enumerate(zip(a, y)):
            merged = _meet(av, yv, memo, copied)
            if merged is None:
                return None
            a[i] = merged
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
            if name not in specific or not subsumes(inner, specific[name]):
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
    # a leaf: compatible iff it meets ``specific``, and no leaf meets a node
    return _meet_atoms(general, specific) is not None


# ------------------------------------------------------------ paths, access

def get_path(fs: FeatStruct, path):
    """Value at a feature path, ``"a|b|c"`` or an iterable of names, or
    None.  A text path with an empty name raises ``ValueError``."""
    if isinstance(path, str):
        names = [name.strip() for name in path.split("|")]
        if not all(names):
            raise ValueError(f"bad path {path!r}")
        path = names
    for name in path:
        if not isinstance(fs, FeatStruct):
            return None
        fs = fs.get(name)
    return fs


def project(fs: FeatStruct, top_features) -> FeatStruct:
    """Copy retaining only the listed top-level features."""
    memo = {}  # one memo keeps sharing among the kept features
    return FeatStruct(
        [(k, _copy_node(v, memo) if type(v) in _KIND else v)
         for k, v in fs.items() if k in top_features]
    )


# ---------------------------------------------------------------- equality

def fs_equal(a, b) -> bool:
    """Structural equality: order-insensitive on features, sensitive to
    sharing topology (shared mutable nodes must correspond one-to-one).  A
    frozen node equals a node of its kind with equal contents, but never
    stands for a co-indexed one."""
    return _equal(a, b, {}, {})


def _equal(a, b, fwd, rev) -> bool:
    kind = _KIND.get(type(a))
    if kind is None and type(b) not in _KIND:
        return a == b
    if kind is not _KIND.get(type(b)) or len(a) != len(b):
        return False
    # a frozen node is a value: its key is a new object, met by no later visit
    ia = id(a) if type(a) is kind else object()
    ib = id(b) if type(b) is kind else object()
    if ia in fwd or ib in rev:
        return fwd.get(ia) == ib and rev.get(ib) == ia
    fwd[ia] = ib
    rev[ib] = ia
    if kind is FeatStruct:
        return a.keys() == b.keys() and all(
            _equal(v, b[k], fwd, rev) for k, v in a.items()
        )
    if kind is Seq:
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
