"""A stateful model test of editing the database under a live engine.

The model is the list of the database's clause lines.  Rules add a sense
copied from a drawn clause with a drawn change, delete a drawn sense, save
and reload the engine, and query a drawn surface with or without a drawn
``cat``/``morph`` restriction.  After every step the engine's ``dumps`` is
the model's lines, and each query's answer equals, by ``render_fs`` in
order, the answer of an engine loaded afresh from the model's lines and
the answer with the early restriction off.  That guards the early
restriction's reading of a root's senses across edits.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from turklex._data import bundled_path
from turklex.engine import LexiconEngine
from turklex.featstruct import BaseConcept, FeatStruct, copy_fs, render_fs
from turklex.fsdb import LexiconEntry, add_entry, delete_entry, dumps, save

from .test_engine import DATA_FILES, _engine_in, _synthetic_engine

# (block, name, value) changes of an added sense: a gloss of its own, or a
# value under a name the copied sense may not hold; hint and extra are held
# by no bundled sense
CHANGES = [
    ("sem", "concept", "copy"),
    ("morph", "hint", "x"),
    ("morph", "poss", "none"),
    ("morph", "copula", "none"),
    ("cat", "extra", "x"),
    ("sem", "animate", "+"),
    (None, None, None),  # an equal copy
]
# restriction paths drawn beside those the surface's answers hold: the names
# CHANGES adds, and paths a retrieved structure holds but no partial one does
EXTRA_PATHS = [("morph", "hint", "x"), ("cat", "extra", "x"), ("morph", "form", "derived"),
               ("morph", "copula", "none"), ("morph", "poss", "1sg")]


def _changed(fs: FeatStruct, root: str, change) -> FeatStruct:
    fs = copy_fs(fs)
    block, name, value = change
    if name == "concept":
        fs["sem"]["concept"] = BaseConcept(root, value)
    elif block is not None:
        fs[block][name] = value
    return fs


def editing_machine(source: Path):
    """A state machine over a copy of the five data files in ``source``."""

    class Editing(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.tmp = tempfile.TemporaryDirectory()
            self.dir = Path(self.tmp.name)
            for name in DATA_FILES:
                shutil.copy(source / name, self.dir / name)
            self.engine = _engine_in(self.dir)
            self.header, *self.lines = dumps(self.engine.db).splitlines()
            self.surfaces = sorted(self.engine.analyzer.surfaces())
            self.fresh = None  # an engine loaded from the model's lines

        def teardown(self):
            self.tmp.cleanup()

        def fresh_engine(self) -> LexiconEngine:
            if self.fresh is None:
                directory = self.dir / "model"
                directory.mkdir(exist_ok=True)
                for name in DATA_FILES:
                    shutil.copy(self.dir / name, directory / name)
                text = "\n".join([self.header, *self.lines]) + "\n"
                (directory / "lexicon.fdb").write_text(text, encoding="utf-8")
                self.fresh = _engine_in(directory)
            return self.fresh

        @precondition(lambda self: self.engine.db.entries)
        @rule(data=st.data(), change=st.sampled_from(CHANGES))
        def add(self, data, change):
            entries = [clause for clause in self.engine.db.clauses
                       if isinstance(clause, LexiconEntry)]
            source = data.draw(st.sampled_from(entries), label="copied")
            entry = LexiconEntry(source.cat, source.root,
                                 _changed(source.fs, source.root, change))
            line = f"entry {entry.cat.render()} {entry.root} := {render_fs(entry.fs)}"
            add_entry(self.engine.db, entry)
            self.lines.append(line)
            self.fresh = None

        @precondition(lambda self: self.engine.db.entries)
        @rule(data=st.data())
        def delete(self, data):
            words = sorted(self.engine.db.entries, key=lambda key: (key[0].render(), key[1]))
            cat, root = data.draw(st.sampled_from(words), label="word")
            senses = len(self.engine.db.entries[cat, root])
            index = data.draw(st.integers(0, senses - 1), label="sense")
            delete_entry(self.engine.db, cat, root, index)
            head = f"entry {cat.render()} {root} := "
            at = [i for i, line in enumerate(self.lines) if line.startswith(head)]
            del self.lines[at[index]]
            self.fresh = None

        @rule()
        def save_and_reload(self):
            save(self.engine.db, self.dir / "lexicon.fdb")
            self.engine = _engine_in(self.dir)

        @rule(data=st.data(), restricted=st.booleans())
        def query(self, data, restricted):
            surface = data.draw(st.sampled_from(self.surfaces), label="surface")
            query = FeatStruct([("phon", surface)])
            if restricted:
                paths = {(block, name, value)
                         for fs in self.engine.query(query, use_early_filter=False)
                         for block in ("cat", "morph")
                         for name, value in fs[block].items() if isinstance(value, str)}
                pool = sorted(paths) + EXTRA_PATHS
                for block, name, value in data.draw(
                        st.lists(st.sampled_from(pool), min_size=1, max_size=2,
                                 unique_by=lambda path: path[:2]), label="restriction"):
                    query.setdefault(block, FeatStruct())[name] = value
            answer = list(map(render_fs, self.engine.query(query)))
            off = list(map(render_fs, self.engine.query(query, use_early_filter=False)))
            fresh = list(map(render_fs, self.fresh_engine().query(query)))
            assert answer == off == fresh, render_fs(query)

        @invariant()
        def dumps_is_the_model(self):
            assert dumps(self.engine.db).splitlines() == [self.header, *self.lines]

    return Editing


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("synthetic")
    _synthetic_engine(directory)
    return directory


@pytest.mark.parametrize("lexicon", ["bundled", "synthetic"])
def test_edits_answer_as_a_fresh_load(lexicon, request):
    source = (bundled_path("lexicon.fdb").parent if lexicon == "bundled"
              else request.getfixturevalue("synthetic"))
    run_state_machine_as_test(
        editing_machine(source),
        settings=settings(max_examples=8, stateful_step_count=12, deadline=None),
    )
