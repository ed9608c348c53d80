import dataclasses
import logging
import re
from itertools import compress, repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from topmix.errors import ParseError, SchemaError, TopmixError
from topmix import ingest
from topmix.ingest import parse_dataset
from topmix.preprocess import one_hot_encode
from topmix.schema import Attribute, PositiveRule, SchemaSpec, load_schema

from conftest import CLEVELAND_DATA, CLEVELAND_SCHEMA, requires_cleveland, synthetic_cleveland_rows
from oracles import one_hot_encode_rowwise, parse_dataset_rowwise


@pytest.fixture
def toy_schema():
    return SchemaSpec(
        attributes=(
            Attribute("x", "numeric"),
            Attribute("c", "categorical", ("a", "b")),
        ),
        target="y",
        positive_rule=PositiveRule(kind="greater-than", threshold=0.0),
    )


def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path


def _columns(dataset):
    """Each column as a list: numeric values, and categorical codes decoded through the domain."""
    return [
        column.tolist() if attr.kind == "numeric" else [attr.domain[j] for j in column.tolist()]
        for attr, column in zip(dataset.schema.attributes, dataset.columns)
    ]


def test_drops_rows_with_missing_token(tmp_path, toy_schema):
    path = _write(tmp_path, "1.0,a,0\n2.0,?,1\n3.0,b,1\n")
    dataset, report = parse_dataset(path, toy_schema)
    assert report.total_rows == 3
    assert report.kept_rows == 2
    assert report.dropped_rows == 1
    assert report.kept_rows + report.dropped_rows == report.total_rows
    assert _columns(dataset) == [[1.0, 3.0], ["a", "b"]]
    assert dataset.labels.tolist() == [0, 1]


@pytest.mark.filterwarnings("error")  # numpy's reader warns on an empty input
def test_empty_file(tmp_path, toy_schema):
    dataset, report = parse_dataset(_write(tmp_path, ""), toy_schema)
    assert dataset.n == 0
    assert report.total_rows == 0
    assert report.dropped_rows == 0


def test_blank_lines_are_not_data_rows(tmp_path, toy_schema):
    dataset, report = parse_dataset(_write(tmp_path, "1.0,a,0\n\n2.0,b,1\n\n"), toy_schema)
    assert report.total_rows == 2
    assert dataset.n == 2


def test_header_skipping(tmp_path, toy_schema):
    path = _write(tmp_path, "x,c,y\n1.0,a,0\n")
    dataset, _ = parse_dataset(path, toy_schema, has_header=True)
    assert dataset.n == 1


def test_wrong_field_count_reports_row(tmp_path, toy_schema):
    path = _write(tmp_path, "1.0,a,0\n2.0,b\n")
    with pytest.raises(ParseError, match="row 1"):
        parse_dataset(path, toy_schema)


def test_token_outside_domain(tmp_path, toy_schema):
    with pytest.raises(SchemaError, match="'zz'"):
        parse_dataset(_write(tmp_path, "1.0,zz,0\n"), toy_schema)


@pytest.mark.parametrize("bad", ["inf", "nan", "-inf", "abc"])
def test_bad_numeric_is_parse_error(tmp_path, toy_schema, bad):
    with pytest.raises(ParseError):
        parse_dataset(_write(tmp_path, f"{bad},a,0\n"), toy_schema)


def test_bad_target_is_parse_error(tmp_path, toy_schema):
    with pytest.raises(ParseError, match="row 0"):
        parse_dataset(_write(tmp_path, "1.0,a,huh\n"), toy_schema)


def test_row_order_preserved_and_deterministic(tmp_path, toy_schema):
    path = _write(tmp_path, "3.0,b,1\n1.0,a,0\n2.0,a,4\n")
    d1, r1 = parse_dataset(path, toy_schema)
    d2, r2 = parse_dataset(path, toy_schema)
    assert _columns(d1) == _columns(d2) == [[3.0, 1.0, 2.0], ["b", "a", "a"]]
    assert np.array_equal(d1.labels, d2.labels)
    assert r1 == r2


def test_alternate_delimiter(tmp_path, toy_schema):
    dataset, _ = parse_dataset(_write(tmp_path, "1.0;a;0\n"), toy_schema, delimiter=";")
    assert _columns(dataset) == [[1.0], ["a"]]


@pytest.mark.parametrize(
    "token,expected",
    [("0", 0), ("1", 1), ("2", 1), ("3", 1), ("4", 1)],
)
def test_binarize_target_heart_rule(tmp_path, toy_schema, token, expected):
    # the greater-than 0 rule: raw severity 1-4 all collapse to 1
    dataset, _ = parse_dataset(_write(tmp_path, f"1.0,a,{token}\n"), toy_schema)
    assert dataset.labels.tolist() == [expected]


@requires_cleveland
def test_cleveland_parses_to_297_complete_rows():
    dataset, report = parse_dataset(CLEVELAND_DATA, load_schema(CLEVELAND_SCHEMA))
    assert report.total_rows == 303
    assert report.dropped_rows == 6
    assert dataset.n == 297
    frac0 = (dataset.labels == 0).mean()
    assert 0.52 <= frac0 <= 0.56  # ~54% healthy


# --- column-wise parse and encode against the row-wise oracles ---------------

# Field tokens by the fault they carry. Each list mixes clean tokens with
# near misses, so a table is sometimes valid and sometimes fails at a
# random (row, field).
# NULs and Unicode whitespace: numpy's fixed-width strings drop trailing
# NULs, and the two readers must strip the same whitespace.
ODD_CHAR_TOKENS = ("\x00", "a\x00", "1.5\x00", "\x0b", "\x0c", "\x85", "\xa0", "\u3000", "\ufeff")
NUMERIC_TOKENS = (
    "1.5", "-2", "0", " 3.25 ", "7e-3", "\t4\t", "1_0", " 5 ", "٣",
    "inf", "-inf", "nan", "1e999", "abc", "", "1.2.3", "\x1c6\x1c",
) + ODD_CHAR_TOKENS
CATEGORICAL_TOKENS = ("a", "b", "0.0", "1.0", " a ", "zz", "", "A", "x y", " a") + ODD_CHAR_TOKENS
DOMAIN_TOKENS = ("a", "b", "0.0", "1.0", "x y", " a")
GT_TARGET_TOKENS = ("0", "1", "2", " 3 ", "0.5", "-1", "nan", "inf", "huh", "", "\x1c6\x1c") + ODD_CHAR_TOKENS
ONE_OF_TARGET_TOKENS = ("yes", "no", " yes ", "1", "maybe", "")
MISSING_VARIANTS = ("{m}", " {m} ", "{m}x", "x{m}")
DELIMITERS = (",", ";", "\t", "::")
NEWLINES = ("\n", "\r\n", "\r")
BLANK_LINES = ("", "   ", "\t")


def _random_schema(rng) -> SchemaSpec:
    attributes = []
    for j in range(int(rng.integers(1, 5))):
        if rng.random() < 0.5:
            attributes.append(Attribute(f"n{j}", "numeric"))
        else:
            size = int(rng.integers(1, 4))
            domain = tuple(rng.choice(DOMAIN_TOKENS, size=size, replace=False).tolist())
            attributes.append(Attribute(f"c{j}", "categorical", domain))
    if rng.random() < 0.5:
        rule = PositiveRule(kind="greater-than", threshold=float(rng.choice([0.0, 0.5, 2.0])))
    else:
        rule = PositiveRule(kind="one-of", tokens=("yes", "1"))
    missing = str(rng.choice(["?", "?", "NA", ""]))
    return SchemaSpec(attributes=tuple(attributes), target="y", positive_rule=rule, missing_token=missing)


def _random_table(rng, schema: SchemaSpec, delimiter: str, fault_rate: float) -> list[str]:
    """Data lines (no newlines) with faults injected at ``fault_rate`` per field."""
    target_tokens = GT_TARGET_TOKENS if schema.positive_rule.kind == "greater-than" else ONE_OF_TARGET_TOKENS
    lines = []
    for _ in range(int(rng.integers(0, 12))):
        fields = []
        for attr in schema.attributes:
            if attr.kind == "numeric":
                clean, noisy = f"{rng.normal():.3f}", NUMERIC_TOKENS
            else:
                clean, noisy = str(rng.choice(attr.domain)), CATEGORICAL_TOKENS
            fields.append(str(rng.choice(noisy)) if rng.random() < fault_rate else clean)
        fields.append(str(rng.choice(target_tokens)) if rng.random() < fault_rate else str(rng.choice(target_tokens[:2])))
        if rng.random() < fault_rate:
            j = int(rng.integers(len(fields)))
            fields[j] = str(rng.choice(MISSING_VARIANTS)).format(m=schema.missing_token)
        if rng.random() < fault_rate / 3:
            if rng.random() < 0.5:
                fields.pop(int(rng.integers(len(fields))))
            else:
                fields.append("1")
        lines.append(delimiter.join(fields))
    return lines


def _file_text(rng, lines: list[str], has_header: bool) -> str:
    """Join lines with mixed newline styles, blank lines and an optional header."""
    lines = (["h1,h2,h3"] if has_header else []) + lines
    for _ in range(int(rng.integers(0, 3))):
        lines.insert(int(rng.integers(len(lines) + 1)), str(rng.choice(BLANK_LINES)))
    parts = [line + str(rng.choice(NEWLINES)) for line in lines]
    if parts and rng.random() < 0.3:
        parts[-1] = lines[-1]  # no newline at end of file
    return "".join(parts)


def _outcome(parse, encode, path, schema, delimiter, has_header):
    try:
        dataset, report = parse(path, schema, delimiter=delimiter, has_header=has_header)
    except TopmixError as exc:
        return ("raised", type(exc), str(exc))
    encoded = encode(dataset)
    return (
        "parsed",
        repr(_columns(dataset)),
        [column.dtype for column in dataset.columns],
        dataset.labels.dtype,
        dataset.labels.tolist(),
        report,
        encoded.values.shape,
        encoded.values.tobytes(),
        encoded.column_names,
        encoded.labels.tolist(),
        encoded.stage,
    )


def _assert_matches_oracle(path, schema, delimiter=",", has_header=False):
    got = _outcome(parse_dataset, one_hot_encode, path, schema, delimiter, has_header)
    want = _outcome(parse_dataset_rowwise, one_hot_encode_rowwise, path, schema, delimiter, has_header)
    assert got == want
    return got[0]


def test_corpus_of_corrupted_tables_matches_rowwise_oracle(tmp_path):
    rng = np.random.default_rng(20260918)
    path = tmp_path / "table.txt"
    outcomes = {"raised": 0, "parsed": 0}
    for _ in range(1200):
        schema = _random_schema(rng)
        delimiter = str(rng.choice(DELIMITERS))
        has_header = bool(rng.random() < 0.2)
        lines = _random_table(rng, schema, delimiter, float(rng.choice([0.0, 0.02, 0.1, 0.3])))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_file_text(rng, lines, has_header))
        outcomes[_assert_matches_oracle(path, schema, delimiter, has_header)] += 1
    # both branches are exercised in earnest
    assert outcomes["raised"] >= 300 and outcomes["parsed"] >= 300, outcomes


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical"]), min_size=1, max_size=3))
    domains = st.lists(st.sampled_from(DOMAIN_TOKENS), min_size=1, max_size=3, unique=True).map(tuple)
    attributes = tuple(
        Attribute(f"a{j}", kind, draw(domains) if kind == "categorical" else ())
        for j, kind in enumerate(kinds)
    )
    if draw(st.booleans()):
        rule = PositiveRule(kind="greater-than", threshold=draw(st.sampled_from([0.0, 1.5])))
        target = st.sampled_from(GT_TARGET_TOKENS)
    else:
        rule = PositiveRule(kind="one-of", tokens=("yes",))
        target = st.sampled_from(ONE_OF_TARGET_TOKENS)
    schema = SchemaSpec(attributes=attributes, target="y", positive_rule=rule, missing_token="?")
    odd = st.text(alphabet="ab?.1e \t\x1c ٣-\x00\x0b\x0c\x85\u3000\ufeff", max_size=4)
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    cell = {
        # clean tokens twice, so that many tables parse
        "numeric": st.one_of(finite, finite, st.sampled_from(NUMERIC_TOKENS), odd),
        "categorical": st.one_of(st.sampled_from(DOMAIN_TOKENS), st.sampled_from(DOMAIN_TOKENS), st.sampled_from(CATEGORICAL_TOKENS), odd),
    }
    row = st.tuples(*(cell[kind] for kind in kinds), target).map(list)
    rows = draw(st.lists(st.one_of(row, row.map(lambda r: r[:-1]), st.just(["?"] * (len(kinds) + 1))), max_size=8))
    newline = draw(st.sampled_from(NEWLINES))
    delimiter = draw(st.sampled_from([",", "\t", "::"]))
    text = "".join(delimiter.join(r) + newline for r in rows)
    return schema, text, delimiter, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_parse_and_encode_match_rowwise_oracle(tmp_path_factory, table):
    schema, text, delimiter, has_header = table
    path = tmp_path_factory.mktemp("hyp") / "table.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    _assert_matches_oracle(path, schema, delimiter=delimiter, has_header=has_header)


@pytest.mark.parametrize(
    "text,expected",
    [
        # A later non-numeric token must not hide an earlier non-finite one.
        pytest.param(
            "inf,a,0\n1.0,a,0\nabc,a,0\n", "row 0: attribute 'x': non-finite value 'inf'",
            id="non_finite_before_later_non_numeric",
        ),
        pytest.param(
            "1.0,a,0\nabc,a,0\n1e999,a,0\n", "row 1: attribute 'x': 'abc' is not numeric",
            id="non_numeric_before_later_non_finite",
        ),
        pytest.param(
            "1.0,zz,0\nabc,a,0\n", "row 0: attribute 'c': token 'zz' outside declared domain ['a', 'b']",
            id="lower_row_beats_left_column",
        ),
        pytest.param("nan,zz,huh\n", "row 0: attribute 'x': non-finite value 'nan'", id="left_field_first"),
        pytest.param("1.0,a,huh\n2.0,zz,0\n", "row 0: target token 'huh' is not numeric", id="target_in_lower_row"),
        pytest.param(
            "1.0,a,nan\n1.0,a,huh\n", "row 0: target token 'nan' is not finite",
            id="non_finite_target_before_later_non_numeric",
        ),
        pytest.param(
            "1.0,a,huh\n1.0,a,inf\n", "row 0: target token 'huh' is not numeric",
            id="non_numeric_target_before_later_non_finite",
        ),
        pytest.param("1.0,a,0\n1.0,a\nabc,a,0\n", "row 1: expected 3 fields, got 2", id="field_count"),
        pytest.param("abc,a,0\n1.0,a\n", "row 0: attribute 'x': 'abc' is not numeric", id="fault_before_field_count"),
        # Dropped rows are not validated, and row numbers count them.
        pytest.param("?,zz,huh\n1.0,a,0\n2.0,a,x\n", "row 2: target token 'x' is not numeric", id="after_dropped_row"),
        # A dropped row of the wrong width is a fault, but not the first one here.
        pytest.param(
            "abc,a,0\n?,b\n", "row 0: attribute 'x': 'abc' is not numeric", id="fault_before_dropped_row_of_wrong_width"
        ),
    ],
)
def test_first_fault_in_row_major_order(tmp_path, toy_schema, text, expected):
    # The text reader declines the comma copy before the row reader raises; it never sees the "::" copy.
    for delimiter in (",", "::"):
        path = _write(tmp_path, text.replace(",", delimiter))
        with pytest.raises(TopmixError) as excinfo:
            parse_dataset(path, toy_schema, delimiter=delimiter)
        assert str(excinfo.value) == expected
        _assert_matches_oracle(path, toy_schema, delimiter=delimiter)


def test_missing_token_variants(tmp_path, toy_schema):
    # " ? " is the missing token once stripped; "?x" is not, and fails as a number.
    path = _write(tmp_path, "1.0, ? ,0\n2.0,a,1\n")
    dataset, report = parse_dataset(path, toy_schema)
    assert report.dropped_rows == 1 and _columns(dataset) == [[2.0], ["a"]]
    path = _write(tmp_path, "?x,a,0\n")
    with pytest.raises(ParseError, match=r"row 0: attribute 'x': '\?x' is not numeric"):
        parse_dataset(path, toy_schema)


@pytest.mark.parametrize("delimiter", [",", "\t"])
def test_byte_order_mark_is_not_data(tmp_path, delimiter):
    schema = load_schema(CLEVELAND_SCHEMA)
    text = "\n".join(row.replace(",", delimiter) for row in synthetic_cleveland_rows(40, 2)) + "\n"
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    got = _outcome(parse_dataset, one_hot_encode, marked, schema, delimiter, False)
    assert got == _outcome(parse_dataset, one_hot_encode, _write(tmp_path, text), schema, delimiter, False)
    assert got[0] == "parsed"
    _assert_matches_oracle(marked, schema, delimiter=delimiter)


def test_non_utf8_data_file_is_parse_error(tmp_path, toy_schema):
    path = tmp_path / "latin1.csv"
    path.write_bytes("1.0,a,0\n2.0,b,café\n".encode("latin-1"))
    with pytest.raises(ParseError, match=f"data file {re.escape(str(path))} is not UTF-8 text"):
        parse_dataset(path, toy_schema)


def test_columns_are_typed(tmp_path, toy_schema):
    dataset, _ = parse_dataset(_write(tmp_path, "1.5,b,0\n-2,a,1\n?,a,1\n"), toy_schema)
    numeric, codes = dataset.columns
    assert numeric.dtype == np.float64 and numeric.tolist() == [1.5, -2.0]
    assert codes.dtype == np.intp and codes.tolist() == [1, 0]  # indices into ("a", "b")
    empty, _ = parse_dataset(_write(tmp_path, ""), toy_schema)
    assert [column.dtype for column in empty.columns] == [np.float64, np.intp]
    assert [column.size for column in empty.columns] == [0, 0]


def test_self_overlapping_delimiter_splits_each_line(tmp_path):
    # Joined with "||", the lines "1.5||1|" and "2.5||0" read "1.5||1|||2.5||0",
    # which splits as "1.5", "1", "|2.5", "0"; each line on its own gives
    # "1.5", "1|" and "2.5", "0".
    schema = SchemaSpec(
        attributes=(Attribute("x", "numeric"),),
        target="y",
        positive_rule=PositiveRule(kind="one-of", tokens=("1|",)),
    )
    path = _write(tmp_path, "1.5||1|\n2.5||0\n")
    dataset, report = parse_dataset(path, schema, delimiter="||")
    assert _columns(dataset) == [[1.5, 2.5]] and dataset.labels.tolist() == [1, 0]
    assert report.total_rows == report.kept_rows == 2
    _assert_matches_oracle(path, schema, delimiter="||")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_target_is_parse_error(tmp_path, token):
    # Under the greater-than rule, nan would be labelled 0 and inf 1 without a word.
    good, bad = synthetic_cleveland_rows(2, 0)
    bad = bad.rsplit(",", 1)[0] + f",{token}"
    path = _write(tmp_path, f"{good}\n{bad}\n")
    with pytest.raises(ParseError) as excinfo:
        parse_dataset(path, load_schema(CLEVELAND_SCHEMA))
    assert str(excinfo.value) == f"row 1: target token {token!r} is not finite"
    _assert_matches_oracle(path, load_schema(CLEVELAND_SCHEMA))


@pytest.mark.parametrize(
    "delimiter,rule",
    [
        pytest.param(",", None, id="comma"),
        pytest.param("\t", None, id="tab_delimiter"),
        pytest.param(",", PositiveRule(kind="one-of", tokens=("1", "2", "3", "4")), id="one_of_target"),
    ],
)
def test_text_reader_serves_cleveland_shaped_table(tmp_path, monkeypatch, caplog, delimiter, rule):
    rows = synthetic_cleveland_rows(3030, 30)
    path = _write(tmp_path, "\n".join(row.replace(",", delimiter) for row in rows) + "\n")
    schema = load_schema(CLEVELAND_SCHEMA)
    if rule is not None:
        schema = dataclasses.replace(schema, positive_rule=rule)
    want = _outcome(parse_dataset_rowwise, one_hot_encode_rowwise, path, schema, delimiter, False)

    def refuse(*args):
        raise AssertionError("the row reader ran")

    monkeypatch.setattr(ingest, "_read_rows", refuse)
    with caplog.at_level(logging.INFO, logger="topmix"):
        got = _outcome(parse_dataset, one_hot_encode, path, schema, delimiter, False)
    assert got == want and got[0] == "parsed"
    assert caplog.messages == ["columns read by the numpy text reader"]


@pytest.mark.parametrize(
    "text,delimiter,domain,rule",
    [
        pytest.param("1.0::a::0\n2.5::b::3\n", "::", ("a", "b"), None, id="two_character_delimiter"),
        pytest.param("1.0 a 0\n2.5 b 3\n", " ", ("a", "b"), None, id="space_delimiter"),
        # read one character wider than "a", "ab" stays "ab" and falls outside the domain
        pytest.param("1.0,a,0\n2.5,ab,1\n", ",", ("a", "b"), None, id="field_longer_than_domain_tokens"),
        # numpy keeps the spaces that the row reader strips
        pytest.param("1.0, a ,0\n2.5,b , 3\n", ",", ("a", "b"), None, id="padded_fields"),
        pytest.param(
            "1.0,a, 1\n2.5,b,1 \n3.5,b,0\n", ",", ("a", "b"), PositiveRule(kind="one-of", tokens=("1",)),
            id="padded_one_of_target",
        ),
        # numpy's fixed-width strings would read "a\x00" as "a", a domain token
        pytest.param("1.0,a,0\n2.5,a\x00,1\n", ",", ("a", "b"), None, id="nul_in_field"),
        pytest.param("1.0,a,0\n2.5,b,1\n", ",", ("a\x00", "b"), None, id="nul_in_domain_token"),
        # and would label "1" positive under "1\x00": the token is no field's
        pytest.param(
            "1.0,a,1\n2.5,b,0\n", ",", ("a", "b"), PositiveRule(kind="one-of", tokens=("1\x00",)),
            id="nul_in_positive_token",
        ),
        # the text reader reads the kept lines only
        pytest.param("1.0,a,0\n?,b\n", ",", ("a", "b"), None, id="dropped_row_of_wrong_width"),
        # its bytes fields hold ASCII only: non-ASCII text or tokens go to the row reader
        pytest.param("1.0,é,0\n2.5,b,1\n", ",", ("é", "b"), None, id="non_ascii_field"),
        pytest.param("1.0\ta\t0\n٣.5\tb\t1\n", "\t", ("a", "b"), None, id="non_ascii_digit"),
        pytest.param("1.0,a,0\n2.5,b,1\n", ",", ("a", "b", "β"), None, id="non_ascii_domain_token"),
        pytest.param(
            "1.0,a,1\n2.5,b,0\n", ",", ("a", "b"), PositiveRule(kind="one-of", tokens=("1", "ü")),
            id="non_ascii_positive_token",
        ),
        pytest.param("1.0,é,0\n2.5,a,1\n", ",", ("a", "b"), None, id="non_ascii_token_outside_domain"),
        pytest.param(
            "1.0,a,1\n2.5,b,é\n", ",", ("a", "b"), PositiveRule(kind="one-of", tokens=("1",)),
            id="non_ascii_one_of_target",
        ),
        pytest.param("1.0,a,0\n2.5,b,1\n3.5,a,0\n", ",", ("a", "é"), None, id="ascii_token_outside_non_ascii_domain"),
    ],
)
def test_row_reader_reads_what_text_reader_declines(tmp_path, caplog, text, delimiter, domain, rule):
    schema = SchemaSpec(
        attributes=(Attribute("x", "numeric"), Attribute("c", "categorical", domain)),
        target="y",
        positive_rule=rule or PositiveRule(kind="greater-than", threshold=0.0),
    )
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    with caplog.at_level(logging.INFO, logger="topmix"):
        outcome = _assert_matches_oracle(path, schema, delimiter=delimiter)
    # a table with a fault (a field outside the domain, a dropped row of the wrong width) is read by no reader
    assert caplog.messages == (["columns read by the row reader"] if outcome == "parsed" else [])


@pytest.mark.parametrize(
    "domain,tokens",
    [
        pytest.param(("a", "b"), ("1",), id="ascii"),
        pytest.param(("a", "é"), ("1",), id="non_ascii_domain_token"),
        pytest.param(("a", "b"), ("1", "☃"), id="non_ascii_positive_token"),
    ],
)
def test_text_reader_declines_non_ascii_schema_tokens(domain, tokens):
    schema = SchemaSpec(
        attributes=(Attribute("x", "numeric"), Attribute("c", "categorical", domain)),
        target="y",
        positive_rule=PositiveRule(kind="one-of", tokens=tokens),
    )
    read = ingest._read_text(["1.0,a,1", "2.5,a,0"], schema, ",")
    if "".join(domain + tokens).isascii():
        assert [column.tolist() for column in read[0]] == [[1.0, 2.5], [0, 0]] and read[1].tolist() == [1, 0]
    else:
        assert read is None


@pytest.mark.parametrize(
    "domain",
    [("",), ("a", ""), ("abc", "ab"), ("abcdefg", "b"), ("abcdefgh", "b"), ("b" * 15, "b" * 14)],
    ids=["uint8", "uint16", "uint32", "uint64", "9_bytes", "16_bytes"],
)
def test_text_reader_keys_every_field_width(tmp_path, caplog, domain):
    schema = SchemaSpec(
        attributes=(Attribute("x", "numeric"), Attribute("c", "categorical", domain)),
        target="y",
        positive_rule=PositiveRule(kind="one-of", tokens=domain[-1:]),
    )
    text = "".join(f"{i}.5,{token},{token}\n" for i, token in enumerate(domain * 3))
    with caplog.at_level(logging.INFO, logger="topmix"):
        assert _assert_matches_oracle(_write(tmp_path, text), schema) == "parsed"
    assert caplog.messages == ["columns read by the numpy text reader"]
    # a longer field is cut to more characters than any token has, so it matches none
    for suffix in ("x", "xyz" * 6):
        too_long = f"{text}9.5,{max(domain, key=len)}{suffix},{domain[0]}\n"
        assert _assert_matches_oracle(_write(tmp_path, too_long), schema) == "raised"


def test_non_ascii_text_never_reaches_the_text_reader(tmp_path, toy_schema, monkeypatch):
    # "é" is one latin-1 byte, which numpy's bytes fields would take
    path = _write(tmp_path, "1.0,a,0\n2.5,b,1\n3.5,é,0\n")
    monkeypatch.setattr(ingest, "_read_text", lambda *args: pytest.fail("the text reader ran"))
    with pytest.raises(SchemaError, match=re.escape("row 2: attribute 'c': token 'é' outside declared domain")):
        parse_dataset(path, toy_schema)
    _assert_matches_oracle(path, toy_schema)


@pytest.mark.parametrize("delimiter", ["\t", "::"])
def test_faulty_table_logs_no_reader(tmp_path, toy_schema, caplog, delimiter):
    # one table the text reader declines, one it never reads: the row reader raises, and no reader read it
    text = "".join(f"{x}{delimiter}a{delimiter}0\n" for x in ("1.0", "2.0", "3.0", "4.0", "5.0", "abc"))
    path = _write(tmp_path, text)
    with caplog.at_level(logging.INFO, logger="topmix"):
        with pytest.raises(ParseError, match="^row 5: attribute 'x': 'abc' is not numeric$"):
            parse_dataset(path, toy_schema, delimiter=delimiter)
    assert not [message for message in caplog.messages if message.startswith("columns read")]


def _dropped_and_kept(lines, missing, delimiter):
    """The dropped line indices and the kept lines, as the parser found them with an iterator filter."""
    holding = compress(range(len(lines)), map(str.__contains__, lines, repeat(missing)))
    dropped = [i for i in holding if missing in map(str.strip, lines[i].split(delimiter))]
    return dropped, list(map(lines.__getitem__, np.delete(np.arange(len(lines)), dropped).tolist()))


# A line per kind: complete, complete with the missing token inside a domain token, or dropped.
_LINE_KINDS = {
    "complete": "{i}.5,a,{y}",
    "token-inside": "{i}.5,b?,{y}",
    "missing-number": "?,a,{y}",
    "missing-category": "{i}.5, ? ,{y}",
}


@settings(max_examples=200, deadline=None)
@given(kinds=st.lists(st.sampled_from(sorted(_LINE_KINDS)), min_size=1, max_size=25))
@example(kinds=["complete"] * 4)  # none dropped
@example(kinds=["missing-number", "complete", "missing-category", "missing-number", "token-inside", "missing-number"])
def test_dropped_and_kept_lines_match_iterator_filter(kinds):
    # first, last and adjacent dropped lines, or none; the text reader gets exactly the kept lines
    schema = SchemaSpec(
        attributes=(Attribute("x", "numeric"), Attribute("c", "categorical", ("a", "b?"))),
        target="y",
        positive_rule=PositiveRule(kind="greater-than", threshold=0.0),
    )
    lines = [_LINE_KINDS[kind].format(i=i, y=i % 2) for i, kind in enumerate(kinds)]
    read, given_lines = ingest._read_text, []
    with mock.patch.object(ingest, "_read_text", lambda kept, *a: given_lines.append(kept) or read(kept, *a)):
        dataset, report = parse_dataset("t.csv", schema, data="\n".join(lines).encode())
    dropped, kept = _dropped_and_kept(lines, "?", ",")
    assert report.dropped_rows == len(dropped)
    assert given_lines == [kept]
    alone, _ = parse_dataset("kept.csv", schema, data="\n".join(kept).encode())
    assert [c.tobytes() for c in dataset.columns] == [c.tobytes() for c in alone.columns]
    assert dataset.labels.tobytes() == alone.labels.tobytes()
