"""Command-line interface.

One binary, three subcommands::

    turklex query "[phon:atIm]"           # run a query (or pipe it on stdin)
    turklex db add|delete|browse ...      # edit or inspect the database
    turklex check                         # validate all data files

Data file locations come from flags, from TURKLEX_* environment variables,
or fall back to the bundled sample data.  Exit codes: 0 success (a query
with zero results is still a success), 1 unreadable, invalid or unwritable
data file, 2 bad input (unparsable query/entry, missing phon, unknown sense).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import click

from ._data import bundled_path
from .catmap import Cat5, DerivMapTable, RootMapTable, load_inventory
from .engine import DropRecord, FsdbAccess, LexiconEngine, QueryError, QueryTrace, TfsdbAccess
from .featstruct import FeatStruct, FSSyntaxError, parse_fs_text, render_fs
from .fsdb import (
    InvariantError,
    LexiconEntry,
    add_entry,
    browse as browse_db,
    clause_line,
    delete_entry,
    load as load_db,
    save as save_db,
)
from .morph import AnalyzerTable


@dataclass
class Config:
    """Resolved data-file locations."""

    analyzer: Path
    rootmap: Path
    derivmap: Path
    db: Path
    categories: Path


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_engine(config: Config) -> LexiconEngine:
    try:
        return LexiconEngine.from_paths(
            config.analyzer, config.rootmap, config.derivmap, config.db,
            inventory_path=config.categories,
        )
    except (OSError, ValueError) as exc:
        _fail(str(exc), 1)


def _load_database(config: Config):
    try:
        return load_db(config.db)
    except (OSError, ValueError) as exc:
        _fail(str(exc), 1)


def _save_database(database, path) -> None:
    try:
        save_db(database, path)
    except (OSError, InvariantError) as exc:
        _fail(str(exc), 1)


def _parse_query_text(text: str) -> FeatStruct:
    try:
        fs = parse_fs_text(text)
    except FSSyntaxError as exc:
        _fail(f"bad query: {exc}", 2)
    return fs


# --------------------------------------------------------------------------
# trace rendering

def _cat_text(cat: Cat5) -> str:
    return ", ".join(cat)


def _render_full(trace: QueryTrace, style: str) -> list:
    lines = []
    lines.append("Parsing surface form started...")
    lines.append(f"Parsing: {trace.surface}")
    lines.append(f"Number of parses: {len(trace.parses)}")
    for i, parse in enumerate(trace.parses, 1):
        lines.append(f"{i}: {parse.text}")
    lines.append("")

    lines.append("Transformation phase started...")
    for level, cat in trace.mappings:
        if cat is None:
            lines.append("Exception: Entry not found in LCMT: Skipping parse...")
            lines.append(f"  {level.proc_category}")
            lines.append(f"  {level.proc_type}")
            lines.append(f"  {level.name}")
        else:
            lines.append("Category mapping from:")
            lines.append(f"  {level.proc_category}, {level.proc_type} and {level.name}")
            lines.append("to:")
            lines.append(f"  {_cat_text(cat)}")
    lines.append("Transformed parses:")
    lines.append(f"Number of parses: {len(trace.transformed)}")
    for i, tp in enumerate(trace.transformed, 1):
        lines.append(f"{i}: {len(tp.levels)} level(s)")
    lines.append("")

    lines.append("Application of restrictions phase started...")
    for partial in trace.eliminated:
        lines.append("Parse eliminated: Printing only the last level...")
        lines.append(render_fs(partial, style=style))
    lines.append("Application of restrictions phase ended...")
    lines.append("Satisfying parses:")
    lines.append(f"Number of parses: {len(trace.satisfying)}")
    lines.append("")

    lines.append("Retrieval phase started...")
    for event in trace.events:
        if isinstance(event, FsdbAccess):
            lines.append("Access to FSDB with:")
            lines.append(f"  {_cat_text(event.cat)} and {event.root}")
            lines.append("for:")
            lines.append(f"  {event.count} entry/entries")
        elif isinstance(event, TfsdbAccess):
            lines.append("Access to TFSDB with:")
            lines.append(f"  {_cat_text(event.cat)}")
        elif isinstance(event, DropRecord):
            lines.append(f"Sense dropped: {event.reason}")
    lines.append("")
    lines.append("Final result:")
    return lines


def _render_counts(trace: QueryTrace) -> list:
    return [
        f"Parsing: {trace.surface}",
        f"Number of parses: {len(trace.parses)}",
        f"Transformed parses: {len(trace.transformed)}",
        f"Satisfying parses: {len(trace.satisfying)}",
    ]


def _print_outcome(trace: QueryTrace, verbosity: str, style: str) -> None:
    if verbosity == "full":
        for line in _render_full(trace, style):
            click.echo(line)
    elif verbosity == "counts":
        for line in _render_counts(trace):
            click.echo(line)
    click.echo(f"Number of feature structures: {len(trace.results)}")
    for i, fs in enumerate(trace.results, 1):
        if style == "indented":
            click.echo(f"{i}:")
            click.echo(render_fs(fs, style=style))
        else:
            click.echo(f"{i}: {render_fs(fs, style=style)}")


# --------------------------------------------------------------------------
# commands

@click.group()
@click.option("--analyzer", envvar="TURKLEX_ANALYZER", type=click.Path(path_type=Path),
              default=None, help="Surface-form fixture table.")
@click.option("--rootmap", envvar="TURKLEX_ROOTMAP", type=click.Path(path_type=Path),
              default=None, help="Root category-mapping table.")
@click.option("--derivmap", envvar="TURKLEX_DERIVMAP", type=click.Path(path_type=Path),
              default=None, help="Derivation category-mapping table.")
@click.option("--db", envvar="TURKLEX_DB", type=click.Path(path_type=Path),
              default=None, help="Feature-structure database.")
@click.option("--categories", envvar="TURKLEX_CATEGORIES", type=click.Path(path_type=Path),
              default=None, help="Category inventory.")
@click.pass_context
def main(ctx, analyzer, rootmap, derivmap, db, categories):
    """Turkish lexicon engine: annotated feature structures for word forms."""
    ctx.obj = Config(
        analyzer=analyzer or bundled_path("analyzer.tsv"),
        rootmap=rootmap or bundled_path("rootmap.tsv"),
        derivmap=derivmap or bundled_path("derivmap.tsv"),
        db=db or bundled_path("lexicon.fdb"),
        categories=categories or bundled_path("categories.tsv"),
    )


@main.command()
@click.argument("query", required=False)
@click.option("--trace", type=click.Choice(["silent", "counts", "full"]),
              default="counts", show_default=True, help="Trace verbosity.")
@click.option("--style", type=click.Choice(["compact", "indented"]),
              default="compact", show_default=True, help="Feature-structure layout.")
@click.pass_obj
def query(config: Config, query, trace, style):
    """Run a query (a feature structure with at least a phon feature)."""
    text = query if query is not None else click.get_text_stream("stdin").read()
    if not text.strip():
        _fail("empty query", 2)
    query_fs = _parse_query_text(text)
    engine = _load_engine(config)
    try:
        result = engine.run(query_fs)
    except QueryError as exc:
        _fail(str(exc), 2)
    _print_outcome(result, trace, style)


@main.group()
def db():
    """Edit or inspect the feature-structure database."""


@db.command("add")
@click.argument("category")
@click.argument("root")
@click.argument("fs", required=False)
@click.pass_obj
def db_add(config: Config, category, root, fs):
    """Append FS as the last sense of ROOT under CATEGORY."""
    text = fs if fs is not None else click.get_text_stream("stdin").read()
    try:
        cat = Cat5.from_text(category)
        entry_fs = parse_fs_text(text)
    except (ValueError, FSSyntaxError) as exc:
        _fail(str(exc), 2)
    database = _load_database(config)
    entry = LexiconEntry(cat, root, entry_fs)
    try:
        add_entry(database, entry)
    except InvariantError as exc:
        _fail(str(exc), 2)
    _save_database(database, config.db)
    click.echo(f"added sense {len(database.entries[(cat, root)])} of {cat.render()} {root}")


@db.command("delete")
@click.argument("category")
@click.argument("root")
@click.argument("sense_index", type=int)
@click.pass_obj
def db_delete(config: Config, category, root, sense_index):
    """Delete one sense of ROOT under CATEGORY by zero-based index."""
    try:
        cat = Cat5.from_text(category)
    except ValueError as exc:
        _fail(str(exc), 2)
    database = _load_database(config)
    try:
        delete_entry(database, cat, root, sense_index)
    except (KeyError, IndexError) as exc:
        _fail(str(exc).strip("'"), 2)
    _save_database(database, config.db)
    click.echo(f"deleted sense {sense_index} of {cat.render()} {root}")


@db.command("browse")
@click.option("--cat", "cat_text", default=None,
              help="Category filter; unstated/none slots match anything.")
@click.option("--root", default=None, help="Root substring filter.")
@click.option("--style", type=click.Choice(["compact", "indented"]), default="compact")
@click.pass_obj
def db_browse(config: Config, cat_text, root, style):
    """List entries matching the filters."""
    cat = None
    if cat_text is not None:
        try:
            cat = Cat5.from_text(cat_text)
        except ValueError as exc:
            _fail(str(exc), 2)
    database = _load_database(config)
    hits = browse_db(database, cat=cat, root=root)
    for entry in hits:
        if style == "indented":
            click.echo(f"entry {entry.cat.render()} {entry.root} :=")
            click.echo(render_fs(entry.fs, style=style))
        else:
            click.echo(clause_line(entry))
    click.echo(f"{len(hits)} entry/entries")


@main.command()
@click.pass_obj
def check(config: Config):
    """Validate every data file and their cross-references."""
    problems = []

    def attempt(load, *args):
        """``load(*args)``, or None with the failure noted as a problem."""
        try:
            return load(*args)
        except (OSError, ValueError) as exc:
            problems.append(str(exc))
            return None

    inventory = attempt(load_inventory, config.categories)
    attempt(AnalyzerTable.load, config.analyzer)
    rootmap = attempt(RootMapTable.load, config.rootmap, inventory)
    attempt(DerivMapTable.load, config.derivmap, inventory)
    database = attempt(load_db, config.db)

    if database is not None:
        if not database.entries:
            problems.append(f"{config.db}: the database has no entries")
        if inventory is not None:
            for (cat, root) in database.entries:
                if cat not in inventory:
                    problems.append(f"entry category {cat.render()} not in inventory")
            for cat in database.templates:
                if cat not in inventory:
                    problems.append(f"template category {cat.render()} not in inventory")
        if rootmap is not None:
            mapped = {(cat, key[2]) for key, cat in rootmap.rows.items()}
            for (cat, root) in database.entries:
                if (cat, root) not in mapped:
                    problems.append(
                        f"no root-mapping row yields {cat.render()} for root {root!r}"
                    )

    if problems:
        for problem in problems:
            click.echo(f"problem: {problem}", err=True)
        click.echo(f"{len(problems)} problem(s) found", err=True)
        sys.exit(1)
    click.echo("ok")


if __name__ == "__main__":
    main()
