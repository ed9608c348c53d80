"""Per-operation output checks, written independently of the program.

Three checks, each against something the program's code does not produce:

* classify workloads: the chosen k, the confusion counts and the accuracy
  equal the reference recorded from the seed code (``reference.json``).
  For a seed the file does not hold, the reference is recomputed with this
  module's own k-NN protocol over the program's distance matrix, after
  that matrix passed the distance check;
* classify workloads: a fixed, seeded sample of distance entries agrees
  with an exact augmented-assignment oracle within 1e-12 * max(1, d);
* diagram workloads: every diagram's deaths equal, bit for bit, the sorted
  |x_i| of its symmetry-broken row followed by the shared cap, and the cap
  is safety * sqrt(a1^2 + a2^2) for the two largest magnitudes a1 >= a2
  over all rows. This is the closed form of the projection cloud's dim-0
  diagram.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

import gen

REL_TOL = 1e-12
SAMPLE_PAIRS = 256
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def oracle_wasserstein(a: np.ndarray, b: np.ndarray, p: float) -> float:
    """Exact p-Wasserstein distance between two (n, 2) birth/death arrays.

    Each side gains one diagonal slot per point of the other side; a point
    matched to a slot pays half its persistence, slots match each other
    for free, and real points pay the L-infinity distance.
    """
    n1, n2 = len(a), len(b)
    if n1 + n2 == 0:
        return 0.0
    cost = np.zeros((n1 + n2, n1 + n2))
    if n1 and n2:
        cost[:n1, :n2] = np.maximum(
            np.abs(a[:, None, 0] - b[None, :, 0]), np.abs(a[:, None, 1] - b[None, :, 1])
        )
    cost[:n1, n2:] = ((a[:, 1] - a[:, 0]) / 2.0)[:, None]
    cost[n1:, :n2] = ((b[:, 1] - b[:, 0]) / 2.0)[None, :]
    cost = cost**p
    rows, cols = linear_sum_assignment(cost)
    return math.fsum(cost[rows, cols].tolist()) ** (1.0 / p)


def sample_pairs(n: int, count: int, seed: int) -> list[tuple[int, int]]:
    """Up to ``count`` distinct (i, j), i < j, drawn with a fixed seed."""
    total = n * (n - 1) // 2
    iu, ju = np.triu_indices(n, k=1)
    if total <= count:
        picks = np.arange(total)
    else:
        picks = np.sort(np.random.default_rng(seed).choice(total, size=count, replace=False))
    return [(int(iu[t]), int(ju[t])) for t in picks]


def check_distance_sample(
    distances: np.ndarray, diagrams: list[np.ndarray], p: float, seed: int
) -> list[str]:
    n = len(diagrams)
    if distances.shape != (n, n):
        return [f"distance matrix has shape {distances.shape}, expected ({n}, {n})"]
    problems = []
    for i, j in sample_pairs(n, SAMPLE_PAIRS, seed):
        want = oracle_wasserstein(diagrams[i], diagrams[j], p)
        for got in (distances[i, j], distances[j, i]):
            if not abs(got - want) <= REL_TOL * max(1.0, want):
                problems.append(f"distance[{i},{j}] = {got!r}, oracle {want!r}")
    return problems


def closed_form_deaths(features: np.ndarray, safety: float) -> tuple[np.ndarray, float]:
    """Expected deaths per row (finite ones, then the cap) and the cap."""
    mags = np.sort(np.abs(features), axis=1)
    cap = float(safety * np.sqrt(mags[:, -1] ** 2 + mags[:, -2] ** 2).max())
    deaths = np.column_stack([mags, np.full(len(mags), cap)])
    return deaths, cap


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def check_closed_form(
    features: np.ndarray, diagrams: list[np.ndarray], maxscale: float, safety: float
) -> list[str]:
    expected, cap = closed_form_deaths(features, safety)
    problems = []
    if _bits(np.float64(maxscale)) != _bits(np.float64(cap)):
        problems.append(f"cap {maxscale!r} != closed form {cap!r}")
    if len(diagrams) != len(expected):
        return problems + [f"{len(diagrams)} diagrams for {len(expected)} rows"]
    for row, (pairs, want) in enumerate(zip(diagrams, expected)):
        if pairs.shape != (len(want), 2):
            problems.append(f"row {row}: {pairs.shape[0]} pairs, expected {len(want)}")
        elif pairs[:, 0].any() or not np.array_equal(_bits(pairs[:, 1]), _bits(want)):
            problems.append(f"row {row}: diagram differs from the closed form")
        if len(problems) >= 10:
            break
    return problems


def labels_of(rows: list[str]) -> np.ndarray:
    """0/1 labels of the rows the parser keeps (target > 0 is positive)."""
    return np.asarray(
        [1 if float(r.rsplit(",", 1)[1]) > 0 else 0 for r in rows if "?" not in r.split(",")],
        dtype=np.int64,
    )


def _predictions(
    queries: np.ndarray,
    candidates: np.ndarray,
    distances: np.ndarray,
    labels: np.ndarray,
    ks: list[int],
) -> dict[int, np.ndarray]:
    """k-NN label per query for each k; ties as the program documents them.

    Neighbours are ranked by distance, then by row index. A tied vote goes
    to the class with the smaller summed distance, then the smaller label.
    """
    out = {k: np.empty(len(queries), dtype=np.int64) for k in ks}
    for q_pos, q in enumerate(queries):
        dist = distances[q, candidates]
        order = np.lexsort((candidates, dist))
        top_labels = labels[candidates[order]]
        top_dist = dist[order]
        for k in ks:
            lab, d = top_labels[:k], top_dist[:k]
            ones = int(lab.sum())
            if 2 * ones != k:
                out[k][q_pos] = int(2 * ones > k)
            else:
                s0, s1 = d[lab == 0].sum(), d[lab == 1].sum()
                out[k][q_pos] = 1 if s1 < s0 else 0
    return out


def _counts(truth: np.ndarray, pred: np.ndarray) -> dict[str, int]:
    return {
        "tp": int(((truth == 1) & (pred == 1)).sum()),
        "tn": int(((truth == 0) & (pred == 0)).sum()),
        "fp": int(((truth == 0) & (pred == 1)).sum()),
        "fn": int(((truth == 1) & (pred == 0)).sum()),
    }


def _summary(k: int, counts: dict[str, int]) -> dict:
    total = sum(counts.values())
    return {"k": k, **counts, "accuracy": 100.0 * (counts["tp"] + counts["tn"]) / total}


def protocol_reference(
    distances: np.ndarray, labels: np.ndarray, split: dict, k_grid: list[int]
) -> dict:
    """Chosen k, confusion counts and accuracy of the evaluation protocol.

    Hold-out: a seeded shuffle puts floor(val_frac n) rows in validation,
    floor(test_frac n) in test and the rest in training; k maximizes
    validation accuracy (ties to the smaller k) and is scored on test.
    k-fold: a seeded shuffle cut into equal folds; each row is classified
    against all rows outside its fold, counts are pooled, and k maximizes
    pooled accuracy (ties to the smaller k).
    """
    n = len(labels)
    ks = sorted(set(k_grid))
    rng = np.random.default_rng(split["seed"])
    if split["mode"] == "holdout":
        perm = rng.permutation(np.arange(n))
        n_val = int(np.floor(split["val_frac"] * n))
        n_test = int(np.floor(split["test_frac"] * n))
        n_train = n - n_val - n_test
        train = np.sort(perm[:n_train])
        val = np.sort(perm[n_train : n_train + n_val])
        test = np.sort(perm[n_train + n_val :])
        val_preds = _predictions(val, train, distances, labels, ks)
        correct = {k: int((val_preds[k] == labels[val]).sum()) for k in ks}
        chosen = max(ks, key=lambda k: (correct[k], -k))
        test_pred = _predictions(test, train, distances, labels, [chosen])[chosen]
        return _summary(chosen, _counts(labels[test], test_pred))
    folds = [np.sort(f) for f in np.array_split(rng.permutation(n), split["folds"])]
    pooled = {k: np.empty(n, dtype=np.int64) for k in ks}
    for fold in folds:
        candidates = np.setdiff1d(np.arange(n), fold)
        for k, pred in _predictions(fold, candidates, distances, labels, ks).items():
            pooled[k][fold] = pred
    correct = {k: int((pooled[k] == labels).sum()) for k in ks}
    chosen = max(ks, key=lambda k: (correct[k], -k))
    return _summary(chosen, _counts(labels, pooled[chosen]))


def load_references(path: Path = REFERENCE_FILE) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["workloads"]


class OutputCheck:
    """Checks every operation's result of one workload run.

    ``reference`` is the recorded outcome for this workload and seed, or
    None to derive it once from the first result whose distances pass.
    """

    def __init__(
        self, command: str, split: dict, labels: np.ndarray, seed: int, reference: dict | None
    ):
        self.command = command
        self.split = split
        self.labels = labels
        self.seed = seed
        self.reference = reference

    def __call__(self, result) -> list[str]:
        if self.command == "diagrams":
            return check_closed_form(
                result.prepared.features.values,
                [np.asarray(d.pairs) for d in result.diagrams],
                result.maxscale,
                gen.MAXSCALE_SAFETY,
            )
        diagrams = [np.asarray(d.pairs) for d in result.diagram_set.diagrams]
        problems = check_distance_sample(result.distances, diagrams, gen.WASSERSTEIN_P, self.seed)
        if problems:
            return problems
        if self.reference is None:
            self.reference = protocol_reference(
                result.distances, self.labels, self.split, list(gen.K_GRID)
            )
        report, counts = result.report, result.report.counts
        got = {
            "k": report.k,
            "tp": counts.tp,
            "tn": counts.tn,
            "fp": counts.fp,
            "fn": counts.fn,
            "accuracy": report.accuracy,
        }
        return [
            f"{key} = {got[key]!r}, reference {self.reference[key]!r}"
            for key in ("k", "tp", "tn", "fp", "fn", "accuracy")
            if got[key] != self.reference[key]
        ]
