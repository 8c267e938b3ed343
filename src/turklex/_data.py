"""Locate data files shipped inside the package, and read every data file
(the four tab-separated tables and the database's clauses) one way."""

from importlib import resources
from pathlib import Path

# each keyword of ``LexiconEngine.from_paths`` and its packaged file
BUNDLED_FILES = {
    "analyzer_path": "analyzer.tsv",
    "rootmap_path": "rootmap.tsv",
    "derivmap_path": "derivmap.tsv",
    "db_path": "lexicon.fdb",
    "inventory_path": "categories.tsv",
}


def bundled_path(name: str) -> Path:
    """Return the on-disk path of a packaged data file."""
    return Path(str(resources.files("turklex").joinpath("data", name)))


def read_rows(path, n_fields, handle) -> list:
    """What ``handle(*fields)`` returns for each row of a data file, in order.

    Lines blank or starting with ``#`` once stripped are skipped but
    counted.  Given ``n_fields``, a row is its line split on tabs, each
    field stripped, and another number of fields or an empty one raises
    ``ValueError``; with None, the stripped line is the row's one field.
    A ``ValueError`` from a row is raised again as the same type, with
    ``path:lineno:`` before its message, and a file that is not UTF-8
    raises a plain ``ValueError`` naming the line of its first bad byte.
    """
    rows = []
    try:
        with open(path, encoding="utf-8") as lines:
            for lineno, raw in enumerate(lines, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    if n_fields is None:
                        row = handle(line)
                    else:
                        fields = [field.strip() for field in raw.rstrip("\n").split("\t")]
                        if len(fields) != n_fields:
                            raise ValueError(
                                f"expected {n_fields} tab-separated fields, got {len(fields)}"
                            )
                        if not all(fields):
                            raise ValueError(f"field {fields.index('') + 1} is empty")
                        row = handle(*fields)
                except ValueError as exc:
                    raise type(exc)(f"{path}:{lineno}: {exc}") from exc
                rows.append(row)
    except UnicodeDecodeError:
        # the text layer decodes in chunks, so the error's position counts
        # from its chunk: find the line in the file's bytes (no UTF-8
        # sequence holds a newline byte, so each line decodes on its own)
        with open(path, "rb") as raw:
            for lineno, line in enumerate(raw, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    message = f"not UTF-8: byte {line[exc.start]:#04x}, {exc.reason}"
                    raise ValueError(f"{path}:{lineno}: {message}") from exc
        raise
    return rows
