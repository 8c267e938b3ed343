"""Spans around the calls into turklex's layers, for the traced run only.

A span is wrapped around a public function at the attribute where its
caller looks it up (``turklex.engine.unify`` rather than
``turklex.featstruct.unify``), so the program itself is not changed and
the untraced run executes no tracing code at all.  A name that no longer
exists is reported in :attr:`Tracer.missing` instead of raising, so a
refactor that renames a traced function shows up as a missing span.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

# (module, attribute path, span name).  The span name is "<layer>.<function>"
# with the layer named after the turklex module that implements it.
QUERY_SPANS = [
    ("turklex.morph", "AnalyzerTable.lookup", "morph.lookup"),
    ("turklex.engine", "transform", "engine.transform"),
    ("turklex.engine", "early_filter", "engine.early_filter"),
    ("turklex.engine", "project", "featstruct.project"),
    ("turklex.engine", "subsumes", "featstruct.subsumes"),
    ("turklex.engine", "retrieve", "engine.retrieve"),
    ("turklex.engine", "lookup", "fsdb.lookup"),
    ("turklex.engine", "unify", "featstruct.unify"),
    ("turklex.engine", "build_derived", "engine.build_derived"),
    ("turklex.engine", "lookup_template", "fsdb.lookup_template"),
    ("turklex.engine", "final_filter", "engine.final_filter"),
]

# The write path of the edit workload, looked up where the benchmark and
# fsdb.save look them up.
EDIT_SPANS = [
    ("turklex.featstruct", "parse_fs_text", "featstruct.parse_fs_text"),
    ("turklex.fsdb", "add_entry", "fsdb.add_entry"),
    ("turklex.fsdb", "delete_entry", "fsdb.delete_entry"),
    ("turklex.fsdb", "save", "fsdb.save"),
    ("turklex.fsdb", "dumps", "fsdb.dumps"),
    ("turklex.fsdb", "render_fs", "featstruct.render_fs"),
]

# Building a LexiconEngine from its five data files.
SETUP_SPANS = [
    ("turklex.engine", "AnalyzerTable.load", "morph.load"),
    ("turklex.engine", "load_inventory", "catmap.load_inventory"),
    ("turklex.engine", "RootMapTable.load", "catmap.load_rootmap"),
    ("turklex.engine", "DerivMapTable.load", "catmap.load_derivmap"),
    ("turklex.engine", "load_db", "fsdb.load"),
    ("turklex.fsdb", "parse_fs_text", "featstruct.parse_fs_text"),
]


class Tracer:
    """Collects span self times and call counts while installed.

    Self time is a span's duration minus the time covered by its child
    spans.  Spans are aggregated as they close; the raw records of the
    first ``keep_ops`` operations are kept for writing out.
    """

    def __init__(self, keep_ops: int = 0):
        self.missing: list = []
        self.spans: set = set()  # every span name ever installed
        self.keep_ops = keep_ops
        self.records: list = []
        self._undo: list = []
        self._stack: list = []  # [span id, time covered by children]
        self._next_id = 0
        self.op = 0  # index of the operation under way, set by the caller
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.top_ns = 0  # time covered by spans that have no parent

    def install(self, specs) -> None:
        for module_name, attr_path, span in specs:
            target = f"{module_name}.{attr_path}"
            *owner_path, name = attr_path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, name)
                current = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            if not callable(current):
                self.missing.append(target)
                continue
            wrapped = self._wrap(span, current)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = staticmethod(wrapped)  # `current` is already bound
            setattr(owner, name, wrapped)
            self._undo.append((owner, name, raw))
            self.spans.add(span)

    def idle(self) -> list:
        """Installed spans that were never entered."""
        return sorted(span for span in self.spans if not self.calls[span])

    def uninstall(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    def _wrap(self, span: str, fn):
        stack = self._stack
        clock = time.thread_time_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append([span_id, 0])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                _, covered = stack.pop()
                duration = end - start
                self.self_ns[span] += duration - covered
                self.calls[span] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_ns += duration
                if self.op < self.keep_ops:
                    self.records.append((self.op, span_id, parent, span, start, end))

        traced.__wrapped__ = fn
        return traced
