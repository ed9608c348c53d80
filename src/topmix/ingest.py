"""Parsing of delimiter-separated mixed-type tables against a schema.

Rows containing the schema's missing token anywhere are dropped (counted
in the parse report); everything retained is fully validated: numeric
fields are finite reals, categorical tokens come from the declared
domain, and the target is binarized by the schema's positive rule.

Validation is column-wise: every line is split once, the kept rows are
transposed, and each column is checked in one pass (``float`` over a
numeric column and one ``np.isfinite``, one subset test of a categorical
column against its domain). The dataset keeps those columns; nothing
transposes them back to rows. The error raised is still the first one in
row-major order, the one a row-by-row reader would meet: the lowest row,
and within it the leftmost field, the target last. A row with the wrong
field count is reported only when no earlier row fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParseError, SchemaError, TopmixError
from .schema import Attribute, PositiveRule, SchemaSpec

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

    A numeric column holds floats, a categorical one domain tokens (str);
    entry i of every column and of ``labels`` belongs to kept row i.
    """

    schema: SchemaSpec
    columns: tuple[Sequence[float | str], ...]
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.labels.size


def _floats(tokens: Sequence[str]) -> list[float]:
    """The tokens as floats, up to (not including) the first that is not numeric.

    ``float`` ignores the surrounding whitespace it accepts, so when every
    raw token parses the values equal those of the stripped tokens; only
    a failure needs the stripped column.
    """
    try:
        return list(map(float, tokens))
    except ValueError:
        pass
    values: list[float] = []
    for token in map(str.strip, tokens):
        try:
            values.append(float(token))
        except ValueError:
            break
    return values


def _numeric(attr: Attribute, tokens: Sequence[str]) -> tuple[list[float], Failure | None]:
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


def _categorical(attr: Attribute, tokens: Sequence[str]) -> tuple[Sequence[str], Failure | None]:
    # A raw token equal to a strip-invariant domain token is its own stripped form.
    if {t for t in attr.domain if t == t.strip()}.issuperset(tokens):
        return tokens, None
    tokens = list(map(str.strip, tokens))
    domain = set(attr.domain)
    for pos, token in enumerate(tokens):
        if token not in domain:
            message = (
                f"attribute {attr.name!r}: token {token!r} "
                f"outside declared domain {list(attr.domain)}"
            )
            return tokens, (pos, SchemaError, message)
    return tokens, None


def _labels(rule: PositiveRule, tokens: Sequence[str]) -> tuple[np.ndarray, Failure | None]:
    """The 0/1 label of every target token under the schema's positive rule."""
    if rule.kind == "one-of":
        positive = set(rule.tokens)
        hits = map(positive.__contains__, map(str.strip, tokens))
        return np.fromiter(hits, dtype=np.int64, count=len(tokens)), None
    values = _floats(tokens)
    labels = (np.asarray(values, dtype=np.float64) > rule.threshold).astype(np.int64)
    if len(values) < len(tokens):
        pos = len(values)
        return labels, (pos, ParseError, f"target token {tokens[pos].strip()!r} is not numeric")
    return labels, None


def parse_dataset(
    source: str | Path,
    schema: SchemaSpec,
    delimiter: str = ",",
    has_header: bool = False,
) -> tuple[RawDataset, ParseReport]:
    """Parse a delimiter-separated file into a validated RawDataset.

    Args:
        source: path to the text file. Blank lines are ignored; each data
            row must carry one field per schema attribute plus the target.
        schema: the table declaration to validate against.
        delimiter: field separator (comma by default, per the UCI layout).
        has_header: skip the first non-blank line when true.

    Returns:
        (dataset, report) where report counts rows dropped for containing
        the missing token. Row order is preserved.

    Raises:
        ParseError: a file that is not UTF-8 text; wrong field count,
            non-finite or non-numeric numeric field, bad target token.
        SchemaError: categorical token outside its declared domain.
        Of several faults, the first in row-major order is raised.
    """
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"data file {source} is not UTF-8 text: {exc}") from None
    # Universal newlines leave only "\n"; str.splitlines would also split at \v, \f, ...
    lines = list(filter(str.strip, text.split("\n")))
    del text
    if has_header:
        lines = lines[1:]
    total = len(lines)
    n_fields = schema.n_fields
    rows = [line.split(delimiter) for line in lines]
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=total)
    wrong = np.flatnonzero(widths != n_fields)
    stop = int(wrong[0]) if wrong.size else total  # rows before the first of the wrong width

    missing = schema.missing_token
    dropped = [i for i in range(stop) if missing in lines[i] and missing in map(str.strip, rows[i])]
    del lines
    if dropped:
        skip = set(dropped)
        kept_at: Sequence[int] = [i for i in range(stop) if i not in skip]
        rows = [rows[i] for i in kept_at]
    else:
        kept_at = range(stop)
        del rows[stop:]

    columns = list(zip(*rows)) or [()] * n_fields
    del rows
    parsed: list[Sequence[float | str]] = []
    failures: list[Failure | None] = []
    for attr, tokens in zip(schema.attributes, columns):
        values, failure = (_numeric if attr.kind == "numeric" else _categorical)(attr, tokens)
        parsed.append(values)
        failures.append(failure)
    labels, failure = _labels(schema.positive_rule, columns[-1])
    failures = [f for f in failures + [failure] if f is not None]
    if failures:
        # min keeps the leftmost column among failures in the same row
        pos, error, message = min(failures, key=lambda f: f[0])
        raise error(f"row {kept_at[pos]}: {message}")
    if stop < total:
        raise ParseError(f"row {stop}: expected {n_fields} fields, got {int(widths[stop])}")

    dataset = RawDataset(schema=schema, columns=tuple(parsed), labels=labels)
    report = ParseReport(
        total_rows=total,
        kept_rows=dataset.n,
        dropped_rows=len(dropped),
        dropped_indices=tuple(dropped),
    )
    return dataset, report
