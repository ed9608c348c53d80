"""Seeded inputs for the benchmark: a Cleveland-shaped table plus its config.

The table generator is the benchmark's own copy of the repository's test
generator: the same 13 attributes in the UCI Cleveland field layout, the
same token formats, and the same '?' gaps in the ``ca`` column, so the
program parses and encodes exactly what the real file would give it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# (name, kind, domain) in UCI Cleveland field order; the target comes last.
ATTRIBUTES: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("age", "numeric", ()),
    ("sex", "categorical", ("0.0", "1.0")),
    ("cp", "categorical", ("1.0", "2.0", "3.0", "4.0")),
    ("trestbps", "numeric", ()),
    ("chol", "numeric", ()),
    ("fbs", "categorical", ("0.0", "1.0")),
    ("restecg", "categorical", ("0.0", "1.0", "2.0")),
    ("thalach", "numeric", ()),
    ("exang", "categorical", ("0.0", "1.0")),
    ("oldpeak", "numeric", ()),
    ("slope", "categorical", ("1.0", "2.0", "3.0")),
    ("ca", "numeric", ()),
    ("thal", "categorical", ("3.0", "6.0", "7.0")),
)
CA_COLUMN = 11

# Method settings every workload uses; the checks assume the same values.
WASSERSTEIN_P = 1.0
MAXSCALE_SAFETY = 1.1
K_GRID = tuple(range(1, 11))


def cleveland_rows(n_total: int, n_missing: int, seed: int) -> list[str]:
    """``n_total`` comma-separated records; ``n_missing`` of them carry '?'.

    Numeric fields are loosely coupled to the target so the k-NN vote has
    signal. The same seed always yields the same rows.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_total):
        target = 0 if rng.random() < 0.54 else int(rng.integers(1, 5))
        shift = 1.0 if target > 0 else 0.0
        fields: list[str] = []
        for name, kind, domain in ATTRIBUTES:
            if kind == "categorical":
                fields.append(str(rng.choice(domain)))
            elif name == "age":
                fields.append(f"{float(rng.integers(29, 78) + 3 * shift):.1f}")
            elif name == "trestbps":
                fields.append(f"{float(rng.integers(94, 201) + 8 * shift):.1f}")
            elif name == "chol":
                fields.append(f"{float(rng.integers(126, 565)):.1f}")
            elif name == "thalach":
                fields.append(f"{float(rng.integers(71, 203) - 15 * shift):.1f}")
            elif name == "oldpeak":
                fields.append(f"{rng.uniform(0, 4) + 0.8 * shift:.1f}")
            else:  # ca
                fields.append(f"{float(rng.integers(0, 4)):.1f}")
        fields.append(str(target))
        rows.append(",".join(fields))
    for i in rng.choice(n_total, size=n_missing, replace=False):
        parts = rows[i].split(",")
        parts[CA_COLUMN] = "?"
        rows[i] = ",".join(parts)
    return rows


def schema_doc() -> dict:
    attrs = []
    for name, kind, domain in ATTRIBUTES:
        attr: dict = {"name": name, "kind": kind}
        if domain:
            attr["domain"] = list(domain)
        attrs.append(attr)
    return {
        "attributes": attrs,
        "target": {
            "name": "num",
            "positive_rule": {"kind": "greater-than", "threshold": 0.0},
        },
        "missing_token": "?",
    }


def write_inputs(
    work: Path, n_total: int, n_missing: int, seed: int, split: dict
) -> Path:
    """Write data, schema and experiment config under ``work``; return the config.

    The config sets only keys the program is expected to keep: no worker
    count, no explicit cap. ``cache_dir`` and ``out_dir`` are placeholders
    that each operation overrides with fresh or shared directories.
    """
    work.mkdir(parents=True, exist_ok=True)
    data = work / "table.data"
    data.write_text("\n".join(cleveland_rows(n_total, n_missing, seed)) + "\n", encoding="utf-8")
    (work / "schema.json").write_text(json.dumps(schema_doc(), indent=2), encoding="utf-8")
    config = {
        "data": "table.data",
        "schema": "schema.json",
        "symmetry_vector": "default",
        "standardize_scope": "full",
        "maxscale_safety": MAXSCALE_SAFETY,
        "wasserstein_p": WASSERSTEIN_P,
        "split": split,
        "k_grid": list(K_GRID),
        "cache_dir": "cache",
        "out_dir": "out",
    }
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path
