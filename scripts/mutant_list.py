"""The mutants of the source that tier-1 must kill; ``scripts/mutants.py``
runs them.

Each entry is ``(file, old text, new text, why)``.  ``file`` is relative to
the checkout, ``old text`` occurs in it exactly once, and the mutant
replaces it with ``new text``.  ``why`` says what the mutant breaks.  This
is plain data: the runner reads the list with ``ast.literal_eval`` and runs
nothing from this file.  A change that checks a mutant by hand adds it here.
"""

MUTANTS = [
    # featstruct: sequences and constraint sets
    ("src/turklex/featstruct.py",
     "        return all(any(subsumes(g, s) for s in specific) for g in general)\n",
     "        return True\n",
     "subsumes: a general constraint set passes whatever its members"),
    ("src/turklex/featstruct.py",
     "        if not isinstance(specific, FSSet):\n            return False\n",
     "",
     "subsumes: a general constraint set is matched against any iterable, "
     "a sequence included"),
    ("src/turklex/featstruct.py",
     "        if not isinstance(specific, Seq) or len(general) != len(specific):\n",
     "        if not isinstance(specific, Seq):\n",
     "subsumes: a sequence of another length passes"),
    ("src/turklex/featstruct.py",
     "        if type(y) is not Seq or len(a) != len(y):\n",
     "        if type(y) is not Seq:\n",
     "_meet: sequences of different lengths unify, truncated by zip"),
    ("src/turklex/featstruct.py",
     "    if type(a) is not type(b) or len(a) != len(b):\n",
     "    if type(a) is not type(b) or (type(a) is not Seq and len(a) != len(b)):\n",
     "_equal: sequences of different lengths compare equal"),
    ("src/turklex/featstruct.py",
     "        if _equal(x, y, trial_fwd, trial_rev):\n",
     "        if True:\n",
     "_match_sets: any two constraint sets of one size compare equal"),
    # featstruct: the parser's one-match step per feature
    ("src/turklex/featstruct.py",
     "            if name in fs:\n                return self.no_feature(fs)\n",
     "",
     "parse_fs: a repeated feature name is read as a new value for it"),
    ("src/turklex/featstruct.py",
     r"""\s*(?:({_ATOM_RE.pattern})\s*([,\]]))?""",
     r"""\s*(?:({_ATOM_RE.pattern})\s*(.))?""",
     "parse_fs: any character after an atom is taken as a separator"),
    ("src/turklex/featstruct.py",
     r"""_SEPARATOR_RE = re.compile(r"\s*([,\]])")""",
     r"""_SEPARATOR_RE = re.compile(r"\s*(.)")""",
     "parse_fs: any character after a structure or other value is taken as "
     "a separator"),
    ("src/turklex/featstruct.py",
     "                if text.startswith(\"[\", self.pos):\n",
     "                if text[self.pos] == \"[\":\n",
     "parse_fs: a text that ends after 'name:' raises IndexError"),
    ("src/turklex/featstruct.py",
     "        if not fs and self.peek() == \"]\":\n",
     "        if self.peek() == \"]\":\n",
     "parse_fs: a trailing ',' before ']' is accepted"),
    ("src/turklex/featstruct.py",
     "            if not self.text.startswith((\"[\", \"<\", \"{\"), self.pos):\n",
     "            if self.peek() not in \"[<{\":\n",
     "parse_tag: a text that ends after '@n=' reports 'expected a value'"),
]
