from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from topmix.schema import load_schema

REPO_ROOT = Path(__file__).resolve().parent.parent
CLEVELAND_SCHEMA = REPO_ROOT / "configs" / "cleveland.schema.json"
CLEVELAND_DATA = REPO_ROOT / "data" / "processed.cleveland.data"

requires_cleveland = pytest.mark.skipif(
    not CLEVELAND_DATA.exists(),
    reason="real Cleveland data not present; run scripts/fetch_cleveland.py",
)


def synthetic_cleveland_rows(n_total: int = 303, n_missing: int = 6, seed: int = 7) -> list[str]:
    """Rows shaped exactly like the UCI Cleveland file, with synthetic values.

    Same field layout, token formats, and missing-value structure
    (n_missing rows carry a '?'), so parsing, encoding, and the whole
    downstream pipeline see the real computational shape. Numeric fields
    are loosely coupled to the target so classifiers have signal.
    """
    rng = np.random.default_rng(seed)
    schema = load_schema(CLEVELAND_SCHEMA)
    rows = []
    for _ in range(n_total):
        target = 0 if rng.random() < 0.54 else int(rng.integers(1, 5))
        shift = 1.0 if target > 0 else 0.0
        fields: list[str] = []
        for attr in schema.attributes:
            if attr.kind == "categorical":
                fields.append(str(rng.choice(attr.domain)))
            elif attr.name == "age":
                fields.append(f"{float(rng.integers(29, 78) + 3 * shift):.1f}")
            elif attr.name == "trestbps":
                fields.append(f"{float(rng.integers(94, 201) + 8 * shift):.1f}")
            elif attr.name == "chol":
                fields.append(f"{float(rng.integers(126, 565)):.1f}")
            elif attr.name == "thalach":
                fields.append(f"{float(rng.integers(71, 203) - 15 * shift):.1f}")
            elif attr.name == "oldpeak":
                fields.append(f"{rng.uniform(0, 4) + 0.8 * shift:.1f}")
            elif attr.name == "ca":
                fields.append(f"{float(rng.integers(0, 4)):.1f}")
            else:
                raise AssertionError(attr.name)
        fields.append(str(target))
        rows.append(",".join(fields))
    missing_at = rng.choice(n_total, size=n_missing, replace=False)
    for i in missing_at:
        parts = rows[i].split(",")
        parts[11] = "?"  # ca column, where the real file has gaps
        rows[i] = ",".join(parts)
    return rows


@pytest.fixture(scope="session")
def synthetic_cleveland_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("data") / "synthetic.cleveland.data"
    path.write_text("\n".join(synthetic_cleveland_rows()) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def small_mixed_file(tmp_path_factory) -> Path:
    """Tiny mixed table: 12 rows, 1 numeric + 1 categorical attribute."""
    rows = [
        "1.5,a,0", "2.5,b,1", "0.5,a,0", "3.5,c,1",
        "1.0,b,0", "3.0,c,1", "0.0,a,0", "4.0,b,1",
        "1.2,c,0", "2.8,a,1", "0.8,b,0", "3.2,c,1",
    ]
    path = tmp_path_factory.mktemp("data") / "small_mixed.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def small_mixed_schema_file(tmp_path_factory) -> Path:
    doc = """{
  "attributes": [
    {"name": "x", "kind": "numeric"},
    {"name": "grp", "kind": "categorical", "domain": ["a", "b", "c"]}
  ],
  "target": {"name": "y", "positive_rule": {"kind": "greater-than", "threshold": 0.0}},
  "missing_token": "?"
}
"""
    path = tmp_path_factory.mktemp("schema") / "small_mixed.schema.json"
    path.write_text(doc, encoding="utf-8")
    return path


def write_config(path: Path, **fields) -> Path:
    import json

    doc = {
        "delimiter": ",",
        "has_header": False,
        "symmetry_vector": "default",
        "standardize_scope": "full",
        "maxscale": None,
        "maxscale_safety": 1.1,
        "wasserstein_p": 1.0,
        "split": {"mode": "holdout", "seed": 0, "stratified": False},
        "k": None,
        "k_grid": list(range(1, 11)),
    }
    doc.update(fields)
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path
