"""Attribute schemas for mixed numeric/categorical tables.

A schema declares, per column, whether the attribute is numeric or
categorical (with an ordered token domain), which column is the target,
and how raw target tokens map to the binary label. Schemas are supplied
as JSON files rather than inferred from data: whether a column like a
0-3 vessel count is numeric or categorical is a modeling choice the
bytes alone cannot decide.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

from .errors import SchemaError

AttributeKind = Literal["numeric", "categorical"]


@dataclass(frozen=True)
class Attribute:
    """One predictive column: a name plus its kind (and domain if categorical)."""

    name: str
    kind: AttributeKind
    domain: tuple[str, ...] = ()

    def __post_init__(self):
        if not all(isinstance(token, str) for token in self.domain):
            raise SchemaError(
                f"attribute {self.name!r} has non-string domain tokens {list(self.domain)}; "
                "domain tokens are matched against the data's text, so quote them"
            )
        if self.kind == "categorical":
            if not self.domain:
                raise SchemaError(f"categorical attribute {self.name!r} has empty domain")
            if len(set(self.domain)) != len(self.domain):
                raise SchemaError(f"attribute {self.name!r} has duplicate domain tokens")
        elif self.kind == "numeric":
            if self.domain:
                raise SchemaError(f"numeric attribute {self.name!r} must not declare a domain")
        else:
            raise SchemaError(f"attribute {self.name!r} has unknown kind {self.kind!r}")

    @property
    def width(self) -> int:
        """Number of feature columns this attribute expands to after encoding."""
        return len(self.domain) if self.kind == "categorical" else 1


@dataclass(frozen=True)
class PositiveRule:
    """Predicate over raw target tokens deciding membership in class 1.

    Two kinds are supported:
      * ``greater-than``: the token parses as a number and exceeds ``threshold``
        (the heart-disease convention: raw severity 1-4 all collapse to 1).
      * ``one-of``: the token is in an explicit positive-token set.
    """

    kind: Literal["greater-than", "one-of"]
    threshold: float = 0.0
    tokens: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind == "one-of" and not self.tokens:
            raise SchemaError("one-of positive rule needs a non-empty token list")
        if not all(isinstance(token, str) for token in self.tokens):
            raise SchemaError(f"positive rule has non-string tokens {list(self.tokens)}")
        if self.kind not in ("greater-than", "one-of"):
            raise SchemaError(f"unknown positive rule kind {self.kind!r}")
        if self.kind == "greater-than" and not math.isfinite(self.threshold):
            # no finite token exceeds NaN or +inf, and every one exceeds -inf
            raise SchemaError(f"greater-than threshold must be a finite number, got {self.threshold!r}")


@dataclass(frozen=True)
class SchemaSpec:
    """Full table declaration: ordered predictive attributes plus the target.

    Invariants enforced at construction: attribute names unique, categorical
    domains non-empty with unique tokens, and the target name distinct from
    every predictive attribute.
    """

    attributes: tuple[Attribute, ...]
    target: str
    positive_rule: PositiveRule
    missing_token: str = "?"

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError("attribute names must be unique")
        if self.target in names:
            raise SchemaError(f"target {self.target!r} also appears as a predictive attribute")
        if not self.attributes:
            raise SchemaError("schema declares no predictive attributes")
        if not isinstance(self.missing_token, str):
            raise SchemaError(f"missing token {self.missing_token!r} is not a string")

    @property
    def n_fields(self) -> int:
        """Fields per data row: one per attribute plus the target."""
        return len(self.attributes) + 1

    @property
    def encoded_width(self) -> int:
        return sum(a.width for a in self.attributes)

    def encoded_column_names(self) -> tuple[str, ...]:
        """Feature column names after one-hot expansion, in schema order."""
        names: list[str] = []
        for a in self.attributes:
            if a.kind == "numeric":
                names.append(a.name)
            else:
                names.extend(f"{a.name}={tok}" for tok in a.domain)
        return tuple(names)


def _token_list(doc: dict, key: str, where: str) -> tuple:
    """``doc[key]`` as a tuple; a bare string would split into characters."""
    value = doc.get(key, ())
    if isinstance(value, str):
        raise SchemaError(f"{where}: {key!r} must be a list of tokens, got the string {value!r}")
    return tuple(value)


def schema_from_dict(doc: dict) -> SchemaSpec:
    try:
        attrs = tuple(
            Attribute(name=a["name"], kind=a["kind"], domain=_token_list(a, "domain", f"attribute {a['name']!r}"))
            for a in doc["attributes"]
        )
        target = doc["target"]
        rule_doc = target["positive_rule"]
        rule = PositiveRule(
            kind=rule_doc["kind"],
            threshold=float(rule_doc.get("threshold", 0.0)),
            tokens=_token_list(rule_doc, "tokens", "positive rule"),
        )
        return SchemaSpec(
            attributes=attrs,
            target=target["name"],
            positive_rule=rule,
            missing_token=doc.get("missing_token", "?"),
        )
    except KeyError as exc:
        raise SchemaError(f"schema document missing field: {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed schema document: {exc}") from None


def load_schema(path: str | Path, data: bytes | None = None) -> SchemaSpec:
    """Read a JSON schema file, or its bytes ``data`` when the caller has read them.

    With ``data``, ``path`` is only named in errors, not opened.

    Raises:
        SchemaError: the file is not UTF-8 JSON, or does not declare a
            valid schema; the message names the file.
    """
    if data is None:
        data = Path(path).read_bytes()
    try:
        doc = json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").read())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise SchemaError(f"cannot read schema {path}: {exc}") from None
    try:
        return schema_from_dict(doc)
    except SchemaError as exc:
        raise SchemaError(f"schema {path}: {exc}") from None
