"""Locate data files shipped inside the package, and read their TSV rows."""

from importlib import resources
from pathlib import Path


def bundled_path(name: str) -> Path:
    """Return the on-disk path of a packaged data file."""
    return Path(str(resources.files("turklex").joinpath("data", name)))


def read_rows(path, n_fields: int):
    """Yield ``(lineno, fields)`` for each row of a tab-separated table.

    Lines that are blank or start with ``#`` once stripped are skipped.  A
    row is its line (without the newline) split on tabs, each field
    stripped; a row with any other number of fields than ``n_fields``, or
    with an empty field, raises ``ValueError`` naming ``path:lineno``.
    """
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = [field.strip() for field in raw.rstrip("\n").split("\t")]
            if len(fields) != n_fields:
                raise ValueError(
                    f"{path}:{lineno}: expected {n_fields} tab-separated fields, got {len(fields)}"
                )
            if not all(fields):
                raise ValueError(f"{path}:{lineno}: field {fields.index('') + 1} is empty")
            yield lineno, fields
