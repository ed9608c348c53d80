"""Whole runs against a reference built from ``tests/oracles.py`` alone.

Each case writes a small Cleveland-shaped table (40-60 rows, some holding
the missing token, a few rows repeated three times), runs
``run_pipeline`` cold and then warm (served from the distance cache), and
compares each run's ``predictions.csv``, ``report.kv``, ``validation.csv``
and chosen k with a reference that uses no stage of the package:

* the table: ``parse_dataset_rowwise``, then ``one_hot_encode_rowwise``;
* standardization: ``two_pass_mean_std`` of each column over every row,
  or under ``standardize_scope: "train"`` over the training rows of
  ``holdout_indices``;
* the symmetry vector (5, 6, ..., m + 4) that
  ``preprocess.default_symmetry_vector`` documents, or the zero vector;
* each row's diagram: the threshold sweep of its explicit cloud
  (``build_point_cloud``, ``euclidean_distances``, ``sweep_dim0_pairs``)
  under one cap, the safety factor times the largest distance in any
  cloud;
* the distances: ``wasserstein`` on ``PersistenceDiagram``s;
* the split: ``holdout_indices`` or ``kfold_indices``, then
  ``knn_predict`` at every k; k is the first best by validation hits
  (hold-out) or pooled hits (k-fold), so ties go to the smaller k; the
  metrics come from their formulas.

The reference's distances differ from the package's by up to
1e-15 * max(1, W), the bound the metric tests hold. So a prediction may
differ only where the reference's k-th and (k+1)-th distances, or a tied
vote's class sums, lie within that bound of each other (summed over the
terms compared). Every prediction that differs must be such a near tie,
and the chosen k may differ only where those near ties can move the
hits. The metrics are recomputed from the predictions as the package
wrote them. Repeated rows give exactly equal distances on both sides, so
each case also meets exact ties at the rank boundary, which must be
broken by row index as the reference breaks them.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from topmix.evaluate import SplitSpec
from topmix.pipeline import load_experiment_config, run_pipeline
from topmix.schema import load_schema

from conftest import CLEVELAND_SCHEMA, synthetic_cleveland_rows, write_config
from oracles import (
    PersistenceDiagram,
    build_point_cloud,
    euclidean_distances,
    holdout_indices,
    kfold_indices,
    knn_predict,
    one_hot_encode_rowwise,
    parse_dataset_rowwise,
    sweep_dim0_pairs,
    two_pass_mean_std,
    wasserstein,
)

SAFETY = 1.1
BOUND = 1e-15  # times max(1, W): how far the package's distances may lie from the reference's

HOLDOUT, KFOLD = {"mode": "holdout"}, {"mode": "kfold", "folds": 5}
# name: (lines, of which hold the missing token, table seed, split, k or None for the grid, p, vector, scope)
CASES = {
    "holdout-plain-grid-default-p1": (48, 3, 1, {**HOLDOUT, "seed": 0}, None, 1.0, "default", "full"),
    "holdout-strat-k5-default-p2": (56, 4, 2, {**HOLDOUT, "seed": 3, "stratified": True}, 5, 2.0, "default", "full"),
    "holdout-strat-grid-zero-p1-train": (60, 5, 3, {**HOLDOUT, "seed": 1, "stratified": True}, None, 1.0, "zero", "train"),
    "holdout-plain-grid-default-p2-train": (52, 2, 4, {**HOLDOUT, "seed": 4}, None, 2.0, "default", "train"),
    "holdout-plain-k3-zero-p2": (44, 3, 5, {**HOLDOUT, "seed": 2}, 3, 2.0, "zero", "full"),
    "kfold-plain-grid-zero-p2": (52, 4, 6, {**KFOLD, "seed": 5}, None, 2.0, "zero", "full"),
    "kfold-strat-grid-default-p1": (60, 3, 7, {**KFOLD, "seed": 6, "stratified": True}, None, 1.0, "default", "full"),
    "kfold-strat-k4-zero-p1": (46, 2, 8, {**KFOLD, "seed": 7, "stratified": True}, 4, 1.0, "zero", "full"),
}
K_GRID = tuple(range(1, 11))


def _table(n_total: int, n_missing: int, seed: int) -> str:
    """``n_total`` Cleveland-shaped lines: four complete rows each written three times, at scattered places."""
    rows = synthetic_cleveland_rows(n_total - 8, n_missing, seed=seed)
    rng = np.random.default_rng(seed)
    repeated = [row for row in rows if "?" not in row][:4]
    for row in repeated * 2:
        rows.insert(int(rng.integers(0, len(rows) + 1)), row)
    return "\n".join(rows) + "\n"


def _reference_diagrams(data, vector: str, scope: str, split: SplitSpec):
    """The reference's labels, dropped-row count and diagrams of the table at ``data``."""
    raw, report = parse_dataset_rowwise(data, load_schema(CLEVELAND_SCHEMA))
    encoded = one_hot_encode_rowwise(raw).values
    labels = raw.labels
    n, m = encoded.shape
    fit = holdout_indices(labels, split)[0] if scope == "train" else np.arange(n)
    features = np.empty_like(encoded)
    for j in range(m):
        mean, std = two_pass_mean_std(encoded[fit, j])
        features[:, j] = (encoded[:, j] - mean) / std
    offsets = [5.0 + j for j in range(m)] if vector == "default" else [0.0] * m
    clouds = [euclidean_distances(build_point_cloud(row)) for row in features + offsets]
    top = max(float(cloud.max()) for cloud in clouds)
    cap = SAFETY * top if top > 0 else SAFETY
    diagrams = [PersistenceDiagram(np.array(sweep_dim0_pairs(cloud, cap)), cap) for cloud in clouds]
    return labels, report.dropped_rows, diagrams


def _reference_distances(diagrams, p: float) -> np.ndarray:
    n = len(diagrams)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = wasserstein(diagrams[i], diagrams[j], p)
    return out


def _tolerance(*distances: float) -> float:
    return sum(BOUND * max(1.0, d) for d in distances)


def _vote(query: int, candidates: np.ndarray, distances: np.ndarray, labels: np.ndarray, k: int):
    """The reference's prediction, whether a near tie makes it fragile, and whether an exact tie sits at rank k."""
    predicted = knn_predict(query, candidates, distances, labels, k)
    dist = distances[query, candidates]
    order = np.lexsort((candidates, dist))
    exact = fragile = False
    if k < order.size:
        kth, next_ = dist[order[k - 1]], dist[order[k]]
        exact = kth == next_
        fragile = 0 < next_ - kth <= _tolerance(kth, next_)
    top = order[:k]
    top_labels = labels[candidates[top]]
    if 2 * int(top_labels.sum()) == k:  # a tied vote: the class sums decide
        sums = [dist[top][top_labels == c].sum() for c in (0, 1)]
        fragile |= 0 < abs(sums[0] - sums[1]) <= _tolerance(*dist[top])
    return predicted, fragile, exact


def _read_kv(path) -> dict:
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        name, value = line.split("=", 1)
        values[name] = None if value in ("", "n/a") else float(value)
    return values


def _metrics(truth: list[int], predicted: list[int]) -> dict:
    """The report's metrics from their formulas; a zero denominator gives None."""
    pairs = list(zip(truth, predicted))
    tp, tn, fp, fn = (pairs.count(cell) for cell in ((1, 1), (0, 0), (0, 1), (1, 0)))

    def pct(a, b):
        return None if b == 0 else 100.0 * a / b

    def f1(precision, recall):
        return None if precision is None or recall is None or precision + recall == 0 else (
            2 * precision * recall / (precision + recall)
        )

    sensitivity, specificity = pct(tp, tp + fn), pct(tn, tn + fp)
    precision0, precision1 = pct(tn, tn + fn), pct(tp, tp + fp)
    return {
        "rows": len(pairs), "tp": tp, "tn": tn, "fp": fp, "fn": fn, "accuracy": pct(tp + tn, len(pairs)),
        "sensitivity": sensitivity, "specificity": specificity,
        "precision_class0": precision0, "precision_class1": precision1,
        "f1_class0": f1(precision0, specificity), "f1_class1": f1(precision1, sensitivity),
    }


def _same(got: dict, want: dict) -> bool:
    if got.keys() != want.keys():
        return False
    return all(
        (g is None and w is None) or (g is not None and w is not None and math.isclose(g, w, rel_tol=1e-12))
        for g, w in ((got[key], want[key]) for key in want)
    )


def _admissible(ks: list[int], hits: dict[int, int], slack: dict[int, int]) -> set[int]:
    """The ks that are the first best of some hits, each within its slack of the reference's."""
    lo = {k: hits[k] - slack[k] for k in ks}
    hi = {k: hits[k] + slack[k] for k in ks}
    return {k for k in ks if all(hi[k] > lo[j] if j < k else hi[k] >= lo[j] for j in ks if j != k)}


def _check_run(out, spec: SplitSpec, ks: list[int], labels, dropped: int, distances) -> dict:
    """Compare the files of one run in ``out`` with the reference; returns the near and exact ties met."""
    n = labels.size
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert (manifest["rows_kept"], manifest["rows_dropped"]) == (n, dropped)

    if spec.mode == "holdout":
        train, val, test = holdout_indices(labels, spec)
        groups = [(val, train), (test, train)]
        selecting = [val]
    else:
        folds = kfold_indices(labels, spec)
        every = np.arange(n)
        groups = [(fold, np.setdiff1d(every, fold)) for fold in folds]
        selecting = folds
    votes = {}  # (row, k) -> (predicted, fragile, exact)
    for queries, candidates in groups:
        for row in queries.tolist():
            for kk in ks:
                votes[row, kk] = _vote(row, candidates, distances, labels, kk)
    rows_selecting = np.concatenate(selecting).tolist()
    hits = {kk: sum(votes[r, kk][0] == labels[r] for r in rows_selecting) for kk in ks}
    slack = {kk: sum(votes[r, kk][1] for r in rows_selecting) for kk in ks}
    kv = _read_kv(out / "report.kv")
    chosen = int(kv["k"])
    assert chosen in _admissible(ks, hits, slack), (chosen, hits, slack)

    lines = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "row,true,predicted"
    written = [tuple(map(int, line.split(","))) for line in lines[1:]]
    expected_rows = test.tolist() if spec.mode == "holdout" else list(range(n))
    assert [row for row, _, _ in written] == expected_rows
    assert [truth for _, truth, _ in written] == labels[expected_rows].tolist()
    for row, _, predicted in written:
        want, fragile, _ = votes[row, chosen]
        assert predicted == want or fragile, (row, chosen, predicted, want)

    want = _metrics([t for _, t, _ in written], [p for _, _, p in written])
    want.update(k=chosen, seed=spec.seed)
    if spec.mode == "kfold":
        predicted_of = {row: p for row, _, p in written}
        for f, fold in enumerate(folds):
            right = sum(predicted_of[r] == labels[r] for r in fold.tolist())
            want[f"fold{f}_accuracy"] = 100.0 * right / fold.size
        assert not (out / "validation.csv").exists()
    else:
        table = (out / "validation.csv").read_text(encoding="utf-8").splitlines()
        assert table[0] == "k,accuracy,sensitivity,specificity"
        swept = {int(line.split(",")[0]): float(line.split(",")[1]) for line in table[1:]}
        assert list(swept) == sorted(ks)
        for kk, accuracy in swept.items():
            right = round(accuracy * val.size / 100.0)
            assert abs(right - hits[kk]) <= slack[kk] and math.isclose(accuracy, 100.0 * right / val.size)
    assert _same(kv, want), (kv, want)
    return {"near": sum(int(v[1]) for v in votes.values()), "exact": sum(int(v[2]) for v in votes.values())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cold_and_warm_runs_match_the_oracle_reference(tmp_path, name):
    n_total, n_missing, seed, split, k, p, vector, scope = CASES[name]
    data = tmp_path / "table.csv"
    data.write_text(_table(n_total, n_missing, seed), encoding="utf-8")
    fields = dict(split=split, wasserstein_p=p, symmetry_vector=vector, standardize_scope=scope, k=k,
                  k_grid=list(K_GRID), maxscale_safety=SAFETY)
    config = write_config(
        tmp_path / "config.json", data=str(data), schema=str(CLEVELAND_SCHEMA),
        cache_dir=str(tmp_path / "cache"), out_dir=str(tmp_path / "cold"), **fields,
    )
    labels, dropped, diagrams = _reference_diagrams(data, vector, scope, SplitSpec(**split))
    assert 40 <= labels.size <= 60 and dropped == n_missing
    distances = _reference_distances(diagrams, p)

    cold = run_pipeline(load_experiment_config(config))
    warm = run_pipeline(load_experiment_config(config, {"out_dir": str(tmp_path / "warm")}))
    assert cold.diagram_set.prepared is not None and warm.diagram_set.prepared is None  # computed, then served
    scale = np.maximum(1.0, distances)
    assert (np.abs(cold.distances - distances) <= BOUND * scale).all()
    ks = [k] if k is not None else list(K_GRID)
    ties = [_check_run(tmp_path / run, SplitSpec(**split), ks, labels, dropped, distances) for run in ("cold", "warm")]
    assert ties[0] == ties[1]
    # repeated rows tie exactly at the rank boundary somewhere in every case, so the index tie-break was compared
    assert ties[0]["exact"] > 0


def test_near_ties_are_told_from_exact_ties_and_clear_gaps():
    # query 0 against rows 1-3: the tolerance covers a gap of an ulp at rank k, or between a tied vote's
    # class sums, and no gap it cannot explain; an exact tie is compared without it
    labels = np.array([0, 0, 1, 1])
    candidates = np.arange(1, 4)
    ulp = np.nextafter(1.0, 2.0)

    def vote(row, k):
        distances = np.zeros((4, 4))
        distances[0, 1:] = row
        return _vote(0, candidates, distances, labels, k)

    assert vote([1.0, ulp, 3.0], 1) == (0, True, False)  # rank 1 against rank 2, an ulp apart
    assert vote([1.0, 1.0 + 1e-13, 3.0], 1) == (0, False, False)
    assert vote([1.0, 1.0, 3.0], 1) == (0, False, True)
    assert vote([1.0, ulp, 3.0], 2) == (0, True, False)  # a tied vote whose class sums are an ulp apart
    assert vote([1.0, 1.5, 3.0], 2) == (0, False, False)
