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

The column parser counts delimiters for the field counts and splits the
kept lines into one flat list of fields, of which column c is every
n_fields-th entry from c: ``float`` and one ``np.isfinite`` make a numeric
column, domain codes found while validating make a categorical one. Its
error is the first in row-major order, the one a row-by-row reader would
meet: the lowest row, and within it the leftmost field, the target last.
A row with the wrong field count is reported only when no earlier row
fails.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass
from itertools import compress, repeat
from operator import methodcaller
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParseError, SchemaError, TopmixError
from .schema import Attribute, PositiveRule, SchemaSpec

logger = logging.getLogger("topmix")

Columns = tuple[list[np.ndarray], np.ndarray]
# A column's first bad position, the error type and the message without its row prefix.
Failure = tuple[int, type[TopmixError], str]


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


def _floats(tokens: Sequence[str]) -> np.ndarray:
    """The tokens as float64, up to (not including) the first that is not numeric.

    ``float`` ignores the surrounding whitespace it accepts, so when every
    raw token parses the values equal those of the stripped tokens; only
    a failure needs the stripped column.
    """
    try:
        return np.fromiter(map(float, tokens), np.float64, count=len(tokens))
    except ValueError:
        pass
    values: list[float] = []
    for token in map(str.strip, tokens):
        try:
            values.append(float(token))
        except ValueError:
            break
    return np.array(values, dtype=np.float64)


def _numeric(attr: Attribute, tokens: Sequence[str]) -> tuple[np.ndarray, Failure | None]:
    values = _floats(tokens)
    # Non-finite values before the first non-numeric token come first in row order.
    finite = np.isfinite(values)
    if not finite.all():
        pos = int(finite.argmin())
        message = f"attribute {attr.name!r}: non-finite value {tokens[pos].strip()!r}"
        return values, (pos, ParseError, message)
    if len(values) < len(tokens):
        pos = len(values)
        return values, (pos, ParseError, f"attribute {attr.name!r}: {tokens[pos].strip()!r} is not numeric")
    return values, None


def _categorical(attr: Attribute, tokens: Sequence[str]) -> tuple[np.ndarray, Failure | None]:
    """The domain code of every token, or the first token outside the domain."""
    n = len(tokens)
    # A raw token equal to a strip-invariant domain token is its own stripped form.
    fast = {token: j for j, token in enumerate(attr.domain) if token == token.strip()}
    try:
        return np.fromiter(map(fast.__getitem__, tokens), np.intp, count=n), None
    except KeyError:
        pass
    code = {token: j for j, token in enumerate(attr.domain)}
    tokens = list(map(str.strip, tokens))
    codes = np.fromiter(map(code.get, tokens, repeat(-1, n)), np.intp, count=n)
    outside = np.flatnonzero(codes < 0)
    if outside.size:
        pos = int(outside[0])
        message = (
            f"attribute {attr.name!r}: token {tokens[pos]!r} "
            f"outside declared domain {list(attr.domain)}"
        )
        return codes, (pos, SchemaError, message)
    return codes, None


def _labels(rule: PositiveRule, tokens: Sequence[str]) -> tuple[np.ndarray, Failure | None]:
    """The 0/1 label of every target token under the schema's positive rule."""
    if rule.kind == "one-of":
        positive = set(rule.tokens)
        hits = map(positive.__contains__, map(str.strip, tokens))
        return np.fromiter(hits, dtype=np.int64, count=len(tokens)), None
    values = _floats(tokens)
    labels = (values > rule.threshold).astype(np.int64)
    finite = np.isfinite(values)
    if not finite.all():
        pos = int(finite.argmin())
        return labels, (pos, ParseError, f"target token {tokens[pos].strip()!r} is not finite")
    if len(values) < len(tokens):
        pos = len(values)
        return labels, (pos, ParseError, f"target token {tokens[pos].strip()!r} is not numeric")
    return labels, None


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


def _parse_columns(
    lines: list[str], kept: list[str], kept_at: np.ndarray, schema: SchemaSpec, delimiter: str
) -> Columns:
    """The column parser: ``kept``, the ``lines`` at ``kept_at``, read, or its first fault raised."""
    n_fields = schema.n_fields
    widths = np.fromiter(map(methodcaller("count", delimiter), lines), np.intp, count=len(lines)) + 1
    wrong = np.flatnonzero(widths != n_fields)
    stop = int(wrong[0]) if wrong.size else len(lines)  # rows before the first of the wrong width
    # Line by line: the lines joined would split wrongly where the delimiter
    # can overlap itself ("1|" and "2" joined by "||" split as "1", "|2").
    # Extending one list is faster than chaining the per-line lists.
    fields: list[str] = []
    for line in kept[: int(np.searchsorted(kept_at, stop))]:
        fields += line.split(delimiter)

    columns: list[np.ndarray] = []
    failures: list[Failure | None] = []
    for c, attr in enumerate(schema.attributes):
        check = _numeric if attr.kind == "numeric" else _categorical
        column, failure = check(attr, fields[c::n_fields])
        columns.append(column)
        failures.append(failure)
    labels, failure = _labels(schema.positive_rule, fields[n_fields - 1 :: n_fields])
    del fields
    failures = [f for f in failures + [failure] if f is not None]
    if failures:
        # min keeps the leftmost column among failures in the same row
        pos, error, message = min(failures, key=lambda f: f[0])
        raise error(f"row {int(kept_at[pos])}: {message}")
    if stop < len(lines):
        raise ParseError(f"row {stop}: expected {n_fields} fields, got {int(widths[stop])}")
    return columns, labels


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
            reading the file in text mode would (universal newlines).

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
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
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
    kept_at = np.delete(np.arange(total), dropped)
    kept = list(map(lines.__getitem__, kept_at.tolist()))
    read = _read_text(kept, schema, delimiter) if nul_free else None
    # The text reader sees only the kept lines; a dropped line of the wrong width still fails.
    served = read is not None and all(lines[i].count(delimiter) == schema.n_fields - 1 for i in dropped)
    logger.info("columns read by the %s", "numpy text reader" if served else "column parser")
    columns, labels = read if served else _parse_columns(lines, kept, kept_at, schema, delimiter)

    dataset = RawDataset(schema=schema, columns=tuple(columns), labels=labels)
    report = ParseReport(
        total_rows=total,
        kept_rows=dataset.n,
        dropped_rows=len(dropped),
        dropped_indices=tuple(dropped),
    )
    return dataset, report
