"""CSV import/export for single-relation databases.

The benchmark datasets are generated in memory, but a downstream user will
want to point the library at a CSV file; this module provides that entry
point with the same type-coercion rules the generators use.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from .database import Database
from .schema import Schema
from .values import coerce_value, render_value


def load_csv(
    path: str | Path,
    relation: str,
    schema: Schema | None = None,
) -> Database:
    """Load a CSV file (header row required) into a one-relation database.

    When *schema* is None, a fresh schema is derived from the header.  When
    given, the header must match the declared signature exactly.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        return read_csv(handle, relation, schema=schema)


def read_csv(
    handle: io.TextIOBase,
    relation: str,
    schema: Schema | None = None,
) -> Database:
    """Like :func:`load_csv` but reading from an open text stream."""
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("CSV stream is empty; a header row is required") from None
    if schema is None:
        schema = Schema.from_dict({relation: header})
    else:
        signature = schema.signature(relation)
        if tuple(header) != signature.attributes:
            raise ValueError(
                f"CSV header {header} does not match signature "
                f"{list(signature.attributes)} of {relation!r}"
            )
    rows = ([coerce_value(cell) for cell in row] for row in reader)
    return Database.from_rows(schema, relation, rows)


def dump_csv(database: Database, relation: str, path: str | Path) -> None:
    """Write the *relation* portion of *database* to a CSV file."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        write_csv(database, relation, handle)


def write_csv(database: Database, relation: str, handle: io.TextIOBase) -> None:
    """Like :func:`dump_csv` but writing to an open text stream."""
    signature = database.schema.signature(relation)
    writer = csv.writer(handle)
    writer.writerow(signature.attributes)
    for identifier in database.relation_ids(relation):
        fact = database[identifier]
        writer.writerow([render_value(value) for value in fact.values])
