"""Parsing of delimiter-separated mixed-type tables against a schema.

Rows containing the schema's missing token anywhere are dropped (counted
in the parse report); everything retained is fully validated: numeric
fields are finite reals, categorical tokens come from the declared
domain, and the target is binarized by the schema's positive rule.

Only the lines holding the missing token are split to decide whether to
drop them. The kept lines go to the numpy text reader (``np.loadtxt``, in
C), which reads numbers and a greater-than target as float64, and a
categorical field as a string one character longer than its longest
domain token, coded by ``searchsorted``. Each value it returns is the
column parser's: both strip the same whitespace (``Py_UNICODE_ISSPACE``)
and then call ``PyOS_string_to_double`` (``float`` also takes underscores
and non-ASCII digits, which numpy rejects); a truncated field equals no
domain token; and since numpy's strings drop trailing NULs ("a\\x00"
would read as "a"), a NUL in the text or in a domain token sends the
table to the column parser, as does anything else the text reader
declines (see ``_read_text``).

Both readers read or decline, and neither names a fault. The column
parser splits the kept lines into one flat list of fields, of which column
c is every n_fields-th entry from c, and declines at the first sign of a
fault. When neither reads the table, or a dropped line has the wrong
width, one row-by-row pass names the fault: each row's field count, then
its fields left to right, the target last. The first fault it meets is
the first in row-major order, and it builds a message only for that one.
"""

from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass
from itertools import compress, repeat
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ParseError, SchemaError, TopmixError
from .schema import Attribute, PositiveRule, SchemaSpec

logger = logging.getLogger("topmix")

Columns = tuple[list[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ParseReport:
    """Row accounting for one parse: kept + dropped == total data rows."""

    total_rows: int
    kept_rows: int
    dropped_rows: int
    dropped_indices: tuple[int, ...]


@dataclass(frozen=True)
class RawDataset:
    """Validated columns, one per schema attribute in schema order, plus 0/1 labels.

    A numeric column is a float64 array of its values; a categorical one
    is an intp array of codes, entry j standing for ``attr.domain[j]``.
    Entry i of every column and of ``labels`` belongs to kept row i.
    """

    schema: SchemaSpec
    columns: tuple[np.ndarray, ...]
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.labels.size


def _convert(convert: Callable[[str], object], tokens: Sequence[str], dtype: type) -> np.ndarray | None:
    """``convert`` of every token, or None where a stripped token fails (ValueError, KeyError).

    The raw tokens go first, so ``convert`` must give for a raw token it accepts what it gives for
    the stripped one. ``float`` rejects some whitespace that ``strip`` removes ("\\x1c").
    """
    for column in (tokens, map(str.strip, tokens)):
        try:
            return np.fromiter(map(convert, column), dtype, count=len(tokens))
        except (ValueError, KeyError):
            pass
    return None


def _floats(tokens: Sequence[str]) -> np.ndarray | None:
    """The tokens as float64, or None where one is not a finite number."""
    values = _convert(float, tokens, np.float64)
    return values if values is not None and np.isfinite(values).all() else None


def _read_text(lines: list[str], schema: SchemaSpec, delimiter: str) -> Columns | None:
    """The kept lines read by numpy's text reader, or None where it declines: on a
    delimiter that is not one non-whitespace character, a one-of target, no line, a line
    ``np.loadtxt`` rejects, a non-finite value, or a categorical field that is not a NUL-free
    domain token that ``strip`` leaves unchanged. No line may hold a NUL.
    """
    if len(delimiter) != 1 or delimiter.isspace() or schema.positive_rule.kind != "greater-than" or not lines:
        return None
    attributes = schema.attributes + (Attribute("target", "numeric"),)
    # fields f0, f1, ...: float64, or a string one character longer than the longest domain token
    dtype = ",".join("f8" if a.kind == "numeric" else f"U{max(map(len, a.domain)) + 1}" for a in attributes)
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None, ndmin=1)
    except ValueError:
        return None
    columns: list[np.ndarray] = []
    for field, attr in zip(table.dtype.names, attributes):
        if attr.kind == "numeric":
            column = table[field].copy()
            valid = np.isfinite(column)
        else:
            domain = np.array(attr.domain)
            order = np.argsort(domain)
            column = order[np.searchsorted(domain, table[field], sorter=order).clip(max=domain.size - 1)]
            readable = np.array([t == t.strip() and "\x00" not in t for t in attr.domain])
            valid = readable[column] & (domain[column] == table[field])
        if not valid.all():
            return None
        columns.append(column)
    return columns[:-1], (columns[-1] > schema.positive_rule.threshold).astype(np.int64)


def _read_columns(kept: list[str], schema: SchemaSpec, delimiter: str) -> Columns | None:
    """The kept lines read column by column, or None at the first sign of a fault: a line of the
    wrong width, a number or target that is not finite, a stripped token outside its domain."""
    n_fields = schema.n_fields
    if any(line.count(delimiter) != n_fields - 1 for line in kept):
        return None
    # Line by line: the lines joined would split wrongly where the delimiter
    # can overlap itself ("1|" and "2" joined by "||" split as "1", "|2").
    # Extending one list is faster than chaining the per-line lists.
    fields: list[str] = []
    for line in kept:
        fields += line.split(delimiter)
    columns: list[np.ndarray] = []
    for c, attr in enumerate(schema.attributes):
        if attr.kind == "numeric":
            column = _floats(fields[c::n_fields])
        else:
            # Only a strip-invariant domain token can equal a stripped token, or a raw token that strip keeps.
            code = {token: j for j, token in enumerate(attr.domain) if token == token.strip()}
            column = _convert(code.__getitem__, fields[c::n_fields], np.intp)
        if column is None:
            return None
        columns.append(column)
    rule, target = schema.positive_rule, fields[n_fields - 1 :: n_fields]
    if rule.kind == "one-of":
        hits = map(set(rule.tokens).__contains__, map(str.strip, target))
        return columns, np.fromiter(hits, np.int64, count=len(target))
    values = _floats(target)
    return None if values is None else (columns, (values > rule.threshold).astype(np.int64))


def _number_fault(token: str) -> str | None:
    """What the token is not, "numeric" or "finite", or None for a finite number."""
    try:
        return None if math.isfinite(float(token)) else "finite"
    except ValueError:
        return "numeric"


def _first_fault(lines: list[str], dropped: list[int], schema: SchemaSpec, delimiter: str) -> TopmixError:
    """The first fault of a table that neither reader read, met row by row: the row's field
    count, then (unless the row is dropped) its stripped fields left to right, the target last.
    """
    n_fields = schema.n_fields
    skip = set(dropped)
    for row, line in enumerate(lines):
        tokens = line.split(delimiter)
        if len(tokens) != n_fields:
            return ParseError(f"row {row}: expected {n_fields} fields, got {len(tokens)}")
        if row in skip:
            continue
        *fields, target = map(str.strip, tokens)
        for attr, token in zip(schema.attributes, fields):
            if attr.kind == "categorical":
                if token not in attr.domain:
                    return SchemaError(
                        f"row {row}: attribute {attr.name!r}: token {token!r} "
                        f"outside declared domain {list(attr.domain)}"
                    )
            elif (fault := _number_fault(token)) == "numeric":
                return ParseError(f"row {row}: attribute {attr.name!r}: {token!r} is not numeric")
            elif fault:
                return ParseError(f"row {row}: attribute {attr.name!r}: non-finite value {token!r}")
        if schema.positive_rule.kind == "greater-than" and (fault := _number_fault(target)):
            return ParseError(f"row {row}: target token {target!r} is not {fault}")
    return ContractError("a reader declined a table with no faulty field")


def parse_dataset(
    source: str | Path,
    schema: SchemaSpec,
    delimiter: str = ",",
    has_header: bool = False,
    data: bytes | None = None,
) -> tuple[RawDataset, ParseReport]:
    """Parse a delimiter-separated file into a validated RawDataset.

    Args:
        source: path to the text file. Blank lines are ignored; each data
            row must carry one field per schema attribute plus the target.
        schema: the table declaration to validate against.
        delimiter: field separator (comma by default, per the UCI layout).
        has_header: skip the first non-blank line when true.
        data: the file's bytes, when the caller has read them; ``source``
            is then only named in errors, not opened. They are decoded as
            reading the file in text mode would (universal newlines), a
            leading UTF-8 byte-order mark dropped.

    Returns:
        (dataset, report) where report counts rows dropped for containing
        the missing token. Row order is preserved.

    Raises:
        ParseError: a file that is not UTF-8 text; wrong field count,
            non-finite or non-numeric numeric field, bad target token.
        SchemaError: categorical token outside its declared domain.
        Of several faults, the first in row-major order is raised.
    """
    if data is None:
        data = Path(source).read_bytes()
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"data file {source} is not UTF-8 text: {exc}") from None
    nul_free = "\x00" not in text  # numpy's fixed-width strings would drop trailing NULs
    # Universal newlines leave only "\n"; str.splitlines would also split at \v, \f, ...
    lines = list(filter(str.strip, text.split("\n")))
    del text, data
    if has_header:
        lines = lines[1:]
    total = len(lines)

    missing = schema.missing_token
    holding = compress(range(total), map(str.__contains__, lines, repeat(missing)))
    dropped = [i for i in holding if missing in map(str.strip, lines[i].split(delimiter))]
    # The readers see only the kept lines: a dropped line of the wrong width goes to the fault pass.
    if any(lines[i].count(delimiter) != schema.n_fields - 1 for i in dropped):
        raise _first_fault(lines, dropped, schema, delimiter)
    kept = list(map(lines.__getitem__, np.delete(np.arange(total), dropped).tolist()))
    read = _read_text(kept, schema, delimiter) if nul_free else None
    logger.info("columns read by the %s", "column parser" if read is None else "numpy text reader")
    if read is None:
        read = _read_columns(kept, schema, delimiter)
    if read is None:
        raise _first_fault(lines, dropped, schema, delimiter)
    columns, labels = read

    dataset = RawDataset(schema=schema, columns=tuple(columns), labels=labels)
    report = ParseReport(
        total_rows=total,
        kept_rows=dataset.n,
        dropped_rows=len(dropped),
        dropped_indices=tuple(dropped),
    )
    return dataset, report
