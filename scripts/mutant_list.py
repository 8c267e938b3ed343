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
     "        if not isinstance(y, Seq) or len(a) != len(y):\n",
     "        if not isinstance(y, Seq):\n",
     "_meet: sequences of different lengths unify, truncated by zip"),
    ("src/turklex/featstruct.py",
     "    if kind is not _KIND.get(type(b)) or len(a) != len(b):\n",
     "    if kind is not _KIND.get(type(b)) or (kind is not Seq and len(a) != len(b)):\n",
     "_equal: sequences of different lengths compare equal"),
    ("src/turklex/featstruct.py",
     "        if _equal(x, y, trial_fwd, trial_rev):\n",
     "        if True:\n",
     "_match_sets: any two constraint sets of one size compare equal"),
    # featstruct: the parser's one-match step per feature
    ("src/turklex/featstruct.py",
     "            if name in fs:\n                self.no_feature(fs)\n",
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
     "            parse = self.TAGGED.get(self.text[self.pos : self.pos + 1])\n",
     "            parse = self.TAGGED.get(self.text[self.pos])\n",
     "parse_tag: a text that ends after '@n=' raises IndexError"),
    # featstruct: a derived concept's suffix is checked once
    ("src/turklex/featstruct.py",
     "            _WRITABLE_SUFFIXES.add(suffix)\n",
     "",
     "DerivedConcept: a good suffix is never cached, so it is checked every time"),
    ("src/turklex/featstruct.py",
     "        if suffix not in _WRITABLE_SUFFIXES:\n",
     "        if True:\n",
     "DerivedConcept: a cached suffix is checked again"),
    ("src/turklex/featstruct.py",
     "            if not _ATOM_RE.fullmatch(\"f_\" + suffix) or suffix.endswith(\"-\"):\n"
     "                raise ValueError(f\"derived concept suffix {suffix!r} cannot be written\")\n"
     "            _WRITABLE_SUFFIXES.add(suffix)\n",
     "            _WRITABLE_SUFFIXES.add(suffix)\n"
     "            if not _ATOM_RE.fullmatch(\"f_\" + suffix) or suffix.endswith(\"-\"):\n"
     "                raise ValueError(f\"derived concept suffix {suffix!r} cannot be written\")\n",
     "DerivedConcept: a bad suffix is cached, so a second use of it is accepted"),
    # fsdb: the atomic save
    ("src/turklex/fsdb.py",
     "                os.fchmod(fd, stat.S_IMODE(mode))\n",
     "                pass\n",
     "save: the rewritten file loses the target's permission bits"),
    ("src/turklex/fsdb.py",
     "        target = os.path.realpath(path)\n",
     "        target = path\n",
     "save: a save through a symlink replaces the link with a file"),
    ("src/turklex/fsdb.py",
     "        except FileNotFoundError:  # a dangling link: write what it names\n"
     "            mode = None\n",
     "        except FileNotFoundError:  # a dangling link: write what it names\n"
     "            mode = 0o100600\n",
     "save: the file a dangling link names is written with mode 600, not the umask's"),
    ("src/turklex/fsdb.py",
     "            os.unlink(tmp)\n",
     "            pass\n",
     "save: a failed save leaves its temporary file behind"),
    ("src/turklex/fsdb.py",
     "            while view:\n"
     "                view = view[os.write(fd, view):]\n",
     "            os.write(fd, view)\n",
     "save: a short write truncates the file"),
    ("src/turklex/fsdb.py",
     "os.O_TRUNC, 0o666)",
     "os.O_TRUNC, 0o644)",
     "save: a new file is made with mode 644 whatever the umask"),
    ("src/turklex/fsdb.py",
     "            view = memoryview(data)\n",
     "            view = memoryview(data)[:-1]\n",
     "save: the last byte of the file is dropped"),
    # featstruct: a frozen node is a value, a mutable one an object of its own
    ("src/turklex/featstruct.py",
     '"__setitem__ __delitem__ __ior__ clear pop popitem setdefault update")',
     '"__setitem__ __delitem__ __ior__ clear pop popitem setdefault")',
     "FrozenFeatStruct: update changes a frozen node"),
    ("src/turklex/featstruct.py",
     "    if type(value) in _NODE_TYPES:\n        i = id(value)\n",
     "    if type(value) in _KIND:\n        i = id(value)\n",
     "_walk_nodes: the renderer counts a frozen node, so one reached twice is tagged"),
    ("src/turklex/featstruct.py",
     "    if cls is type(node):\n",
     "    if True:\n",
     "_copy_node: a frozen node is memoised, so its copies are one co-indexed node"),
    ("src/turklex/featstruct.py",
     "    ia = id(a) if type(a) is kind else object()\n",
     "    ia = id(a)\n",
     "fs_equal: a frozen node reached twice stands for a co-indexed node"),
    ("src/turklex/featstruct.py",
     '    TAGGED = {"[": parse_fs, "<": parse_seq, "{": parse_braces}\n',
     '    TAGGED = {"[": parse_fs, "<": parse_seq, "{": parse_set}\n',
     "parse_tag: a tagged plain set is the table's node, which it then thaws"),
    # fsdb: what one load shares, and what it leaves mutable
    ("src/turklex/fsdb.py",
     'tuple(fs["cat"]) == Cat5._fields',
     'len(fs["cat"]) == 5',
     "load: a cat block is shared whatever its feature order"),
    ("src/turklex/fsdb.py",
     'if type(fs["cat"]) is FrozenFeatStruct and ',
     "if ",
     "load: a tagged cat block is shared, so the clause loses its co-indexing"),
    ("src/turklex/fsdb.py",
     "                value[name] = thaw(value[name])\n",
     "                pass\n",
     "load: a value a derived level takes over stays frozen, so its co-indexing "
     "across levels is lost"),
    ("src/turklex/fsdb.py",
     '            raise _invalid(template, f"{name} holds a tag, which a template may not")\n',
     "            pass\n",
     "validate_template: a template holding a tag is accepted"),
    # engine: a sense's morph block
    ("src/turklex/engine.py",
     '    if type(entry.fs["morph"]) is not FrozenFeatStruct:\n',
     "    if False:\n",
     "inflect: a tagged morph block is unified alone, so its other references "
     "miss the inflections"),
    # featstruct and morph: strings and analyzer values one object each
    ("src/turklex/featstruct.py",
     "                gloss = sys.intern(gloss)\n",
     "                pass\n",
     "parse_fs_text: equal concept glosses of a load stay separate strings"),
    ("src/turklex/featstruct.py",
     "            if self.sets is not None:  # see parse_fs_text\n"
     "                gloss = sys.intern(gloss)\n",
     "            gloss = sys.intern(gloss)\n",
     "parse_fs_text: a parse outside a load interns its glosses too"),
    ("src/turklex/morph.py",
     "        shared: dict = {}\n",
     '        shared = parse_parse_string.__dict__.setdefault("shared", {})\n',
     "AnalyzerTable.load: the analyzer values are shared across loads"),
    ("src/turklex/morph.py",
     "    levels.append(one(Level(category, proc_type, name, one(tuple(inflections)))))\n"
     "    return MorphParse",
     "    levels.append(Level(category, proc_type, name, one(tuple(inflections))))\n"
     "    return MorphParse",
     "parse_parse_string: equal last levels stay separate objects"),
    ("src/turklex/morph.py",
     "inflections.append(shared.setdefault(pair, pair))",
     "inflections.append(pair)",
     "parse_parse_string: equal (key, value) pairs stay separate objects"),
    # catmap and featstruct: one cat block per category, no tag on a leaf
    ("src/turklex/catmap.py",
     "    @functools.lru_cache(maxsize=None)\n    def as_fs(self)",
     "    def as_fs(self)",
     "Cat5.as_fs: every call makes a new block, so loads and partial structures "
     "hold one per clause or parse"),
    ("src/turklex/featstruct.py",
     "            if type(value) not in _KIND:  # no value, or a set of atoms: a leaf\n"
     "                raise FSSyntaxError(\"tag must name a structure, sequence or set\", m.end())\n"
     "            self.tags[num] = value\n"
     "        elif num in self.tags:\n"
     "            value = self.tags[num]\n"
     "        else:\n"
     "            self.error(f\"unresolved tag @{num}\")\n"
     "        value.__class__ = _KIND[type(value)]\n"
     "        self.tagged += 1\n",
     "            if value is None:\n"
     "                raise FSSyntaxError(\"tag must name a structure, sequence or set\", m.end())\n"
     "            self.tags[num] = value\n"
     "        elif num in self.tags:\n"
     "            value = self.tags[num]\n"
     "        else:\n"
     "            self.error(f\"unresolved tag @{num}\")\n"
     "        if type(value) in _KIND:\n"
     "            value.__class__ = _KIND[type(value)]\n"
     "            self.tagged += 1\n",
     "parse_tag: a tag on an atom set is accepted, and dropped without a word, "
     "since a leaf holds no tag"),
    # engine: the early restriction
    ("src/turklex/engine.py",
     "        if not isinstance(wanted, FeatStruct):\n            return False\n",
     "",
     "_may_satisfy: a cat or morph restriction that is not a structure raises "
     "AttributeError"),
    ("src/turklex/engine.py",
     "        return False  # the level is dropped in retrieval\n",
     "        return True  # the level is dropped in retrieval\n",
     "_may_hold: a derived level without a template is kept, then dropped in "
     "retrieval"),
]
