"""Parsing of delimiter-separated mixed-type tables against a schema.

Rows containing the schema's missing token anywhere are dropped (counted
in the parse report); everything retained is fully validated: numeric
fields are finite reals, categorical tokens come from the declared
domain, and the target is binarized by the schema's positive rule.

One pass finds the lines holding the missing token; only those are split
to decide whether to drop them, and the kept lines are sliced out between
them. Two readers follow. The numpy text reader (``np.loadtxt``, in C)
reads them or declines: numbers and a greater-than target as float64, a
categorical field or a one-of target as a string one character longer
than its longest domain or positive token. Each value it returns is the
row reader's: both strip the same whitespace (``Py_UNICODE_ISSPACE``)
around a number and then call ``PyOS_string_to_double`` (``float`` also
takes underscores and non-ASCII digits, which numpy rejects); numpy keeps
the whitespace around a string, and a truncated string equals no token,
so neither matches; and numpy's strings drop trailing NULs ("a\\x00"
would read as "a"), so a NUL in the text or in a token makes it decline
(see ``_read_text``).

The row reader reads what the text reader declines, and any table with a
dropped line of the wrong width, or raises the first fault: row by row,
the field count, then (unless the row is dropped) the stripped fields
left to right, the target last. So its fault is the first in row-major
order, and it builds a message only for that one.
"""

from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ParseError, SchemaError
from .schema import SchemaSpec

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


def _read_text(lines: list[str], schema: SchemaSpec, delimiter: str) -> Columns | None:
    """The kept lines read by numpy's text reader, or None where it declines: on a delimiter
    that is neither one non-whitespace character nor a tab, no line, a line ``np.loadtxt``
    rejects, a non-finite number or greater-than target, a categorical field that is not a
    NUL-free domain token that ``strip`` leaves unchanged, a one-of target that ``strip``
    changes, or a positive token holding a NUL. No line may hold a NUL.
    """
    rule = schema.positive_rule
    whitespace = delimiter.isspace() and delimiter != "\t"
    if len(delimiter) != 1 or whitespace or not lines or "\x00" in "".join(rule.tokens):
        return None
    # fields f0, f1, ...: float64, or a string one character longer than the longest domain or positive token
    widths = [max(map(len, a.domain)) + 1 if a.kind == "categorical" else 0 for a in schema.attributes]
    widths.append(max(map(len, rule.tokens)) + 1 if rule.kind == "one-of" else 0)
    dtype = ",".join(f"U{width}" if width else "f8" for width in widths)
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None, ndmin=1)
    except ValueError:
        return None
    *fields, target = (table[field] for field in table.dtype.names)
    columns: list[np.ndarray] = []
    for field, attr in zip(fields, schema.attributes):
        if attr.kind == "numeric":
            column = field.copy()
            valid = np.isfinite(column)
        else:
            domain = np.array(attr.domain)
            order = np.argsort(domain)
            column = order[np.searchsorted(domain, field, sorter=order).clip(max=domain.size - 1)]
            readable = np.array([t == t.strip() and "\x00" not in t for t in attr.domain])
            valid = readable[column] & (domain[column] == field)
        if not valid.all():
            return None
        columns.append(column)
    if rule.kind == "one-of":
        if any(token != token.strip() for token in set(target.tolist())):
            return None
        return columns, np.isin(target, rule.tokens).astype(np.int64)
    if not np.isfinite(target).all():
        return None
    return columns, (target > rule.threshold).astype(np.int64)


def _number_fault(token: str) -> str | None:
    """What the token is not, "numeric" or "finite", or None for a finite number."""
    try:
        return None if math.isfinite(float(token)) else "finite"
    except ValueError:
        return "numeric"


def _read_rows(lines: list[str], dropped: list[int], schema: SchemaSpec, delimiter: str) -> Columns:
    """Every line that is not dropped read row by row, or the first fault raised: the row's field
    count, then (unless the row is dropped) its stripped fields left to right, the target last.
    """
    n_fields, rule = schema.n_fields, schema.positive_rule
    skip = set(dropped)
    # per field: a number, a domain code, or for a one-of target whether it is positive
    convert: list[Callable[[str], object]] = [
        float if a.kind == "numeric" else {token: j for j, token in enumerate(a.domain)}.__getitem__
        for a in schema.attributes
    ]
    convert.append(float if rule.kind == "greater-than" else set(rule.tokens).__contains__)
    flat: list[object] = []  # the values of the kept rows, row after row
    for row, line in enumerate(lines):
        tokens = line.split(delimiter)
        if len(tokens) != n_fields:
            raise ParseError(f"row {row}: expected {n_fields} fields, got {len(tokens)}")
        if row in skip:
            continue
        try:
            values = [f(token.strip()) for f, token in zip(convert, tokens)]
        except (ValueError, KeyError):
            values = None
        # A field that does not convert, or a nan or inf (the sum is then not finite), is a fault,
        # named below. Finite values whose sum overflows name none, and the row is kept.
        if values is None or not math.isfinite(sum(values)):
            *fields, target = map(str.strip, tokens)
            for attr, token in zip(schema.attributes, fields):
                if attr.kind == "categorical":
                    if token not in attr.domain:
                        raise SchemaError(
                            f"row {row}: attribute {attr.name!r}: token {token!r} "
                            f"outside declared domain {list(attr.domain)}"
                        )
                elif (fault := _number_fault(token)) == "numeric":
                    raise ParseError(f"row {row}: attribute {attr.name!r}: {token!r} is not numeric")
                elif fault:
                    raise ParseError(f"row {row}: attribute {attr.name!r}: non-finite value {token!r}")
            if rule.kind == "greater-than" and (fault := _number_fault(target)):
                raise ParseError(f"row {row}: target token {target!r} is not {fault}")
        flat += values
    table = np.fromiter(flat, np.float64, count=len(flat)).reshape(-1, n_fields)
    *fields, target = table.T
    columns = [f.copy() if a.kind == "numeric" else f.astype(np.intp) for f, a in zip(fields, schema.attributes)]
    labels = target > rule.threshold if rule.kind == "greater-than" else target
    return columns, labels.astype(np.int64)


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
    holding = [i for i, line in enumerate(lines) if missing in line]
    dropped = [i for i in holding if missing in map(str.strip, lines[i].split(delimiter))]
    # A dropped line of the wrong width is a fault, which only the row reader names.
    widths = all(lines[i].count(delimiter) == schema.n_fields - 1 for i in dropped)
    kept = list(chain.from_iterable(lines[a + 1 : b] for a, b in zip([-1, *dropped], [*dropped, total])))
    read = _read_text(kept, schema, delimiter) if nul_free and widths else None
    reader = "numpy text reader"
    if read is None:
        read, reader = _read_rows(lines, dropped, schema, delimiter), "row reader"
    logger.info("columns read by the %s", reader)
    columns, labels = read

    dataset = RawDataset(schema=schema, columns=tuple(columns), labels=labels)
    report = ParseReport(
        total_rows=total,
        kept_rows=dataset.n,
        dropped_rows=len(dropped),
        dropped_indices=tuple(dropped),
    )
    return dataset, report
