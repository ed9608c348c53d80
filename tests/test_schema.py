import json
import re

import pytest

from topmix.errors import ParseError, SchemaError
from topmix.ingest import parse_dataset
from topmix.schema import (
    Attribute,
    PositiveRule,
    SchemaSpec,
    load_schema,
    schema_from_dict,
)

from conftest import CLEVELAND_SCHEMA


def test_cleveland_schema_shape():
    schema = load_schema(CLEVELAND_SCHEMA)
    assert len(schema.attributes) == 13
    kinds = [a.kind for a in schema.attributes]
    assert kinds.count("numeric") == 6
    assert kinds.count("categorical") == 7
    assert sorted(a.width for a in schema.attributes if a.kind == "categorical") == [2, 2, 2, 3, 3, 3, 4]
    assert schema.encoded_width == 25
    assert schema.n_fields == 14


def test_bundled_schema_file_declares_uci_layout():
    # the processed UCI file's columns; its categorical codes are float-formatted
    def codes(*values):
        return tuple(f"{v:.1f}" for v in values)

    expected = SchemaSpec(
        attributes=(
            Attribute("age", "numeric"),
            Attribute("sex", "categorical", codes(0, 1)),
            Attribute("cp", "categorical", codes(1, 2, 3, 4)),
            Attribute("trestbps", "numeric"),
            Attribute("chol", "numeric"),
            Attribute("fbs", "categorical", codes(0, 1)),
            Attribute("restecg", "categorical", codes(0, 1, 2)),
            Attribute("thalach", "numeric"),
            Attribute("exang", "categorical", codes(0, 1)),
            Attribute("oldpeak", "numeric"),
            Attribute("slope", "categorical", codes(1, 2, 3)),
            Attribute("ca", "numeric"),
            Attribute("thal", "categorical", codes(3, 6, 7)),
        ),
        target="num",
        positive_rule=PositiveRule(kind="greater-than", threshold=0.0),
        missing_token="?",
    )
    assert load_schema(CLEVELAND_SCHEMA) == expected


@pytest.mark.parametrize(
    "rule",
    [{"kind": "greater-than", "threshold": 2.5}, {"kind": "one-of", "tokens": ["yes", "maybe"]}],
    ids=["greater-than", "one-of"],
)
def test_schema_document_loads(tmp_path, rule):
    doc = {
        "attributes": [
            {"name": "x", "kind": "numeric"},
            {"name": "c", "kind": "categorical", "domain": ["b", "a"]},
        ],
        "target": {"name": "y", "positive_rule": rule},
        "missing_token": "NA",
    }
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_schema(path) == SchemaSpec(
        attributes=(Attribute("x", "numeric"), Attribute("c", "categorical", ("b", "a"))),
        target="y",
        positive_rule=PositiveRule(
            kind=rule["kind"], threshold=rule.get("threshold", 0.0), tokens=tuple(rule.get("tokens", ()))
        ),
        missing_token="NA",
    )


def test_schema_with_byte_order_mark_loads(tmp_path):
    path = tmp_path / "schema.json"
    path.write_bytes(b"\xef\xbb\xbf" + CLEVELAND_SCHEMA.read_bytes())
    assert load_schema(path) == load_schema(CLEVELAND_SCHEMA)


def test_encoded_column_names_follow_domain_order():
    schema = SchemaSpec(
        attributes=(
            Attribute("n", "numeric"),
            Attribute("c", "categorical", ("z", "a")),
        ),
        target="y",
        positive_rule=PositiveRule(kind="greater-than"),
    )
    assert schema.encoded_column_names() == ("n", "c=z", "c=a")


@pytest.mark.parametrize(
    "attrs",
    [
        (Attribute("x", "numeric"), Attribute("x", "numeric")),  # duplicate name
        (),  # no attributes
    ],
)
def test_schema_invariants(attrs):
    with pytest.raises(SchemaError):
        SchemaSpec(attributes=attrs, target="y", positive_rule=PositiveRule(kind="greater-than"))


def test_target_must_not_be_predictive():
    with pytest.raises(SchemaError):
        SchemaSpec(
            attributes=(Attribute("y", "numeric"),),
            target="y",
            positive_rule=PositiveRule(kind="greater-than"),
        )


def test_categorical_domain_validation():
    with pytest.raises(SchemaError):
        Attribute("c", "categorical", ())
    with pytest.raises(SchemaError):
        Attribute("c", "categorical", ("a", "a"))
    with pytest.raises(SchemaError):
        Attribute("n", "numeric", ("a",))
    with pytest.raises(SchemaError):
        Attribute("w", "weird")  # type: ignore[arg-type]


def test_non_string_domain_tokens_rejected(tmp_path):
    # [0.0, 1.0] would never match the data's "0.0"/"1.0" text
    with pytest.raises(SchemaError, match="attribute 'sex' has non-string domain tokens"):
        Attribute("sex", "categorical", (0.0, 1.0))
    path = tmp_path / "schema.json"
    path.write_text(
        '{"attributes": [{"name": "sex", "kind": "categorical", "domain": [0.0, 1.0]}], '
        '"target": {"name": "y", "positive_rule": {"kind": "greater-than"}}}',
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match=f"schema {re.escape(str(path))}: .*'sex'"):
        load_schema(path)


def test_token_lists_given_as_strings_rejected():
    # tuple("abc") would silently declare the tokens "a", "b" and "c"
    doc = {
        "attributes": [{"name": "g", "kind": "categorical", "domain": "abc"}],
        "target": {"name": "y", "positive_rule": {"kind": "greater-than"}},
    }
    with pytest.raises(SchemaError, match="attribute 'g': 'domain' must be a list of tokens"):
        schema_from_dict(doc)
    doc["attributes"][0]["domain"] = ["a"]
    doc["target"]["positive_rule"] = {"kind": "one-of", "tokens": "yes"}
    with pytest.raises(SchemaError, match="positive rule: 'tokens' must be a list of tokens"):
        schema_from_dict(doc)


def test_non_string_rule_tokens_and_missing_token_rejected():
    with pytest.raises(SchemaError, match="non-string tokens"):
        PositiveRule(kind="one-of", tokens=(1,))
    with pytest.raises(SchemaError, match="missing token"):
        SchemaSpec(
            attributes=(Attribute("x", "numeric"),),
            target="y",
            positive_rule=PositiveRule(kind="greater-than"),
            missing_token=0,
        )


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), "NaN", "Infinity", "-Infinity"])
def test_non_finite_threshold_rejected(threshold):
    # NaN labels every row 0, so the run failed later as a degenerate split
    value = float(threshold)
    with pytest.raises(SchemaError, match=f"threshold must be a finite number, got {value!r}"):
        PositiveRule(kind="greater-than", threshold=value)
    doc = {
        "attributes": [{"name": "x", "kind": "numeric"}],
        "target": {"name": "y", "positive_rule": {"kind": "greater-than", "threshold": threshold}},
    }
    with pytest.raises(SchemaError, match=f"got {value!r}"):
        schema_from_dict(doc)


def _labels(tmp_path, rule: PositiveRule, targets: list[str]) -> list[int]:
    """The labels ``parse_dataset`` gives a one-attribute table with these target tokens."""
    schema = SchemaSpec(attributes=(Attribute("x", "numeric"),), target="y", positive_rule=rule)
    path = tmp_path / "data.csv"
    path.write_text("".join(f"1.0,{t}\n" for t in targets), encoding="utf-8")
    return parse_dataset(path, schema)[0].labels.tolist()


def test_positive_rule_greater_than(tmp_path):
    rule = PositiveRule(kind="greater-than", threshold=0.0)
    assert _labels(tmp_path, rule, ["3", "0.5", "0", "-1"]) == [1, 1, 0, 0]
    with pytest.raises(ParseError, match="row 1: target token 'sick' is not numeric"):
        _labels(tmp_path, rule, ["1", "sick"])


def test_positive_rule_one_of(tmp_path):
    rule = PositiveRule(kind="one-of", tokens=("yes",))
    assert _labels(tmp_path, rule, ["yes", "no"]) == [1, 0]
    with pytest.raises(SchemaError):
        PositiveRule(kind="one-of", tokens=())
