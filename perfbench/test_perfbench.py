"""Tests of the benchmark's own parts: generator, checks, loop and tracer.

Run from the repository root: ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workspace  # noqa: E402


def _diagrams(rng, n: int, m: int) -> tuple[np.ndarray, list[np.ndarray], float]:
    features = rng.normal(size=(n, m)) + np.arange(5.0, m + 5.0)
    deaths, cap = checks.closed_form_deaths(features, 1.1)
    return features, [np.column_stack([np.zeros(m + 1), d]) for d in deaths], cap


def test_generator_is_deterministic_per_seed(tmp_path):
    a = gen.cleveland_rows(303, 6, seed=11)
    assert a == gen.cleveland_rows(303, 6, seed=11)
    assert a != gen.cleveland_rows(303, 6, seed=12)
    assert all(len(r.split(",")) == 14 for r in a)
    gaps = [r.split(",")[gen.CA_COLUMN] for r in a if "?" in r]
    assert gaps == ["?"] * 6
    w = WORKLOADS["holdout-cold-297"]
    files = []
    for tag in ("x", "y"):
        cfg = gen.write_inputs(tmp_path / tag, w.n_total, w.n_missing, 11, w.split)
        files.append([p.read_bytes() for p in sorted(cfg.parent.iterdir())])
    assert files[0] == files[1]


def test_distance_check_rejects_perturbed_matrix():
    rng = np.random.default_rng(0)
    _, diagrams, _ = _diagrams(rng, 8, 4)
    n = len(diagrams)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = checks.oracle_wasserstein(diagrams[i], diagrams[j], 1.0)
    assert checks.check_distance_sample(matrix, diagrams, 1.0, seed=3) == []
    bad = matrix.copy()
    bad[2, 5] *= 1 + 1e-9
    assert checks.check_distance_sample(bad, diagrams, 1.0, seed=3)
    assert checks.check_distance_sample(matrix[:-1, :-1], diagrams, 1.0, seed=3)


def test_closed_form_check_rejects_wrong_diagram():
    rng = np.random.default_rng(1)
    features, diagrams, cap = _diagrams(rng, 6, 5)
    assert checks.check_closed_form(features, diagrams, cap, 1.1) == []
    one_ulp = [d.copy() for d in diagrams]
    one_ulp[3][2, 1] = np.nextafter(one_ulp[3][2, 1], np.inf)
    assert checks.check_closed_form(features, one_ulp, cap, 1.1)
    short = [d.copy() for d in diagrams]
    short[0] = short[0][1:]
    assert checks.check_closed_form(features, short, cap, 1.1)
    assert checks.check_closed_form(features, diagrams, np.nextafter(cap, 0), 1.1)


def _run_small(tmp_path, split: dict, command: str):
    """The benchmark's operation on a 70-row table (68 kept rows)."""
    from workloads import operation

    config = gen.write_inputs(tmp_path / "inputs", 70, 2, 3, split)
    result = operation(config, command, tmp_path / "cache", tmp_path / "out")
    return result, checks.labels_of(gen.cleveland_rows(70, 2, 3))


def test_closed_form_matches_program_diagrams(tmp_path):
    result, _ = _run_small(tmp_path, WORKLOADS["diagrams-cold-3000"].split, "diagrams")
    diagrams = [np.asarray(d.pairs) for d in result.diagrams]
    features = result.prepared.features.values
    assert checks.check_closed_form(features, diagrams, result.maxscale, gen.MAXSCALE_SAFETY) == []


@pytest.mark.parametrize("name", ["holdout-cold-297", "kfold-warm-297"])
def test_protocol_reference_matches_program(tmp_path, name):
    split = WORKLOADS[name].split
    result, labels = _run_small(tmp_path, split, "classify")
    report, c = result.report, result.report.counts
    want = {"k": report.k, "tp": c.tp, "tn": c.tn, "fp": c.fp, "fn": c.fn, "accuracy": report.accuracy}
    assert checks.protocol_reference(result.distances, labels, split, list(gen.K_GRID)) == want
    check = checks.OutputCheck("classify", split, labels, seed=0, reference=None)
    assert check(result) == []
    check.reference = dict(want, k=want["k"] + 1)
    assert check(result)


def test_raising_operation_counts_as_failed(tmp_path):
    ws = Workspace(WORKLOADS["kfold-warm-297"], 0, tmp_path)

    def op(cache_dir, out_dir):
        op.calls += 1
        if op.calls == 2:
            raise RuntimeError("boom")
        return "result"

    op.calls = 0
    ops = run.run_loop(ws, op, lambda result: [], seconds=0.0, min_ops=3)
    assert [o.failed for o in ops] == [False, True, False]
    assert "RuntimeError" in ops[1].problems[0]
    ops = run.run_loop(ws, lambda c, o: "r", lambda result: ["wrong"], seconds=0.0, min_ops=2)
    assert all(o.failed for o in ops)


def test_missing_wrapped_function_gives_absent_span(monkeypatch):
    fake = types.ModuleType("perfbench_fake_layer")
    fake.present = lambda x: x + 1
    original = fake.present
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    tracer = Tracer(
        targets=(
            (fake.__name__, "present", "layer.present", None),
            (fake.__name__, "absent", "layer.absent", None),
            ("perfbench_no_such_module", "f", "layer.nomodule", None),
        )
    )
    assert tracer.run_op(0, lambda: fake.present(1)) == 2
    assert {s[0] for s in tracer.spans} == {"op", "layer.present"}
    assert fake.present is original


def test_self_time_subtracts_children():
    tracer = Tracer(targets=())
    tracer.spans = [
        ("op", 0.0, 10.0, -1, 0),
        ("a.x", 1.0, 5.0, 0, 0),
        ("b.y", 2.0, 3.0, 1, 0),
        ("a.x", 6.0, 7.0, 0, 0),
    ]
    selfs = tracer.self_times()[0]
    assert selfs == {"op": 5.0, "a.x": 4.0, "b.y": 1.0}
    assert tracer.totals()[0] == {"op": 10.0, "a.x": 5.0, "b.y": 1.0}


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(100)]
    assert run.tail(values) == (89.0, 90.0)
    assert run.tail(values[:20]) == (9.0, 50.0)
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (2.5, 50.0)


def test_metric_names_match_benchmark_json():
    import json

    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    ops = [run.Op(0, 1.0, False), run.Op(1, 1.0, True)]
    e2e = run.end_to_end(ops, [1.0], 297)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
    layers = run.per_layer(ops, Tracer(targets=()))
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [(k, u) for k, (_, u) in layers.items()]
