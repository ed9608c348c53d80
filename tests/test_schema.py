import re

import pytest

from topmix.errors import ParseError, SchemaError
from topmix.schema import (
    Attribute,
    PositiveRule,
    SchemaSpec,
    cleveland_schema,
    load_schema,
    save_schema,
    schema_from_dict,
)

from conftest import CLEVELAND_SCHEMA


def test_cleveland_schema_shape():
    schema = cleveland_schema()
    assert len(schema.attributes) == 13
    kinds = [a.kind for a in schema.attributes]
    assert kinds.count("numeric") == 6
    assert kinds.count("categorical") == 7
    assert sorted(a.width for a in schema.attributes if a.kind == "categorical") == [2, 2, 2, 3, 3, 3, 4]
    assert schema.encoded_width == 25
    assert schema.n_fields == 14


def test_bundled_schema_file_matches_builtin():
    assert load_schema(CLEVELAND_SCHEMA) == cleveland_schema()


def test_schema_round_trip(tmp_path):
    schema = cleveland_schema()
    path = tmp_path / "schema.json"
    save_schema(schema, path)
    assert load_schema(path) == schema


def test_one_of_rule_round_trip(tmp_path):
    schema = SchemaSpec(
        attributes=(Attribute("x", "numeric"),),
        target="y",
        positive_rule=PositiveRule(kind="one-of", tokens=("yes", "maybe")),
    )
    path = tmp_path / "schema.json"
    save_schema(schema, path)
    assert load_schema(path) == schema


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


def test_positive_rule_greater_than():
    rule = PositiveRule(kind="greater-than", threshold=0.0)
    assert rule.matches("3")
    assert rule.matches("0.5")
    assert not rule.matches("0")
    assert not rule.matches("-1")
    with pytest.raises(ParseError):
        rule.matches("sick")


def test_positive_rule_one_of():
    rule = PositiveRule(kind="one-of", tokens=("yes",))
    assert rule.matches("yes")
    assert not rule.matches("no")
    with pytest.raises(SchemaError):
        PositiveRule(kind="one-of", tokens=())
