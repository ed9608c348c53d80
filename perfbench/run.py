"""Benchmark for topmix: one workload, a closed loop with a single client.

Run from the repository root:

    python3 perfbench/run.py --workload holdout-cold-297 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each operation is the call sequence of one CLI command, made in this
process on inputs generated from ``--seed``; the next operation starts
when the previous one returned. Every result is checked (see checks.py);
a raising or wrong operation counts as failed and the run goes on.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` operations alternate between
untraced and traced, the JSON holds the per-layer metrics, and the spans
are written to ``.perfbench_out/``. See README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"

SETUP_REPS = {False: 5, True: 3}  # keyed by Workload.warm
TAIL_BEYOND = 10
# The calibration kernel: units of CAL_UNIT_CALLS exact Wasserstein solves
# on fixed diagrams, timed before and after every operation. Every reported
# time is the wall time scaled by CAL_REF_S / (mean unit time around it),
# i.e. seconds at the speed where a unit takes CAL_REF_S. On the shared
# 2-CPU VM the benchmark was built on, the unit's time drifted between 13
# and 28 ms within minutes, and unscaled medians with it; 20 ms is a
# typical median there. The constant is fixed: changing it rescales every
# time the benchmark reports. One unit jitters by ~11%, so after a long
# operation the kernel runs several units (about CAL_SHARE of the
# operation's time, at most CAL_MAX_UNITS) and keeps their median.
CAL_UNIT_CALLS = 200
CAL_REF_S = 0.020
CAL_SHARE = 0.06
CAL_MAX_UNITS = 10
IMPORT_PROGRAM = "import sys; sys.path.insert(0, sys.argv[1]); import topmix"


def _calibration_diagrams() -> list:
    import numpy as np

    rng = np.random.default_rng(0)
    return [np.column_stack([np.zeros(26), np.sort(rng.random(26) * 10)]) for _ in range(8)]


def calibrate(diagrams: list, after_s: float | None = None) -> float:
    """Median wall time of one kernel unit, in seconds.

    ``after_s`` is the time just measured; None samples the most units.
    """
    from checks import oracle_wasserstein

    units = CAL_MAX_UNITS
    if after_s is not None:
        units = min(CAL_MAX_UNITS, 1 + int(CAL_SHARE * after_s / CAL_REF_S))
    times = []
    for _ in range(units):
        start = time.perf_counter()
        for i in range(CAL_UNIT_CALLS):
            oracle_wasserstein(diagrams[i % 8], diagrams[(i + 3) % 8], 1.0)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Op:
    index: int
    wall_s: float
    traced: bool
    cal_s: float = CAL_REF_S  # mean kernel unit time just before and after
    problems: list[str] = field(default_factory=list)
    accuracy: float | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def scaled_s(self) -> float:
        return self.wall_s * CAL_REF_S / self.cal_s


def run_loop(
    ws,
    op: Callable[[Path, Path], Any],
    check: Callable[[Any], list[str]],
    seconds: float,
    tracer=None,
    min_ops: int = 3,
) -> list[Op]:
    """Repeat ``op`` until ``seconds`` have passed and ``min_ops`` ran.

    With a tracer, every second operation runs traced. An exception from
    the operation or the check fails that operation only.
    """
    ops: list[Op] = []
    cal_inputs = _calibration_diagrams()
    cal_before = calibrate(cal_inputs)
    deadline = time.perf_counter() + seconds
    while True:
        i = len(ops)
        traced = tracer is not None and i % 2 == 1
        cache_dir, out_dir = ws.dirs()
        record = Op(i, 0.0, traced)
        result = None
        start = time.perf_counter()
        try:
            if traced:
                result = tracer.run_op(i, lambda: op(cache_dir, out_dir))
            else:
                result = op(cache_dir, out_dir)
            record.wall_s = time.perf_counter() - start
        except Exception as exc:  # the loop must survive a failing operation
            record.wall_s = time.perf_counter() - start
            record.problems.append(f"raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        if result is not None:
            try:
                record.problems.extend(check(result))
                record.accuracy = getattr(getattr(result, "report", None), "accuracy", None)
            except Exception as exc:  # a malformed result fails its check
                record.problems.append(f"check raised {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
        for problem in record.problems[:5]:
            print(f"operation {i} failed: {problem}", file=sys.stderr)
        result = None
        ws.discard(cache_dir, out_dir)
        cal_after = calibrate(cal_inputs, record.wall_s)
        record.cal_s = (cal_before + cal_after) / 2
        cal_before = cal_after
        ops.append(record)
        if time.perf_counter() >= deadline and len(ops) >= min_ops:
            return ops


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and its rank.

    Below 2 * TAIL_BEYOND samples that percentile would lie under the
    median, so the tail is the median (percentile 50): the run has too few
    operations to say more about its slow end.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def measure_setup(ws, reps: int) -> list[float]:
    """Time interpreter start + ``import topmix``, input generation and,
    for a warm workload, the cold operation that fills its caches.

    Each repetition's time is scaled like an operation's.
    """
    from workloads import operation

    cal_inputs = _calibration_diagrams()
    cal_before = calibrate(cal_inputs)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", IMPORT_PROGRAM, str(SRC)], cwd=ROOT, check=True
        )
        ws.write_inputs()
        if ws.workload.warm:
            cache_dir, out_dir = ws.dirs()
            shutil.rmtree(cache_dir, ignore_errors=True)
            shutil.rmtree(out_dir, ignore_errors=True)
            operation(ws.config, ws.workload.command, cache_dir, out_dir)
        wall = time.perf_counter() - start
        cal_after = calibrate(cal_inputs, wall)
        times.append(wall * CAL_REF_S / ((cal_before + cal_after) / 2))
        cal_before = cal_after
    return times


def end_to_end(ops: list[Op], setup: list[float], kept_rows: int) -> dict[str, tuple[float, str]]:
    walls = [o.scaled_s for o in ops if not o.traced]
    tail_s, _ = tail(walls)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s_p50": (statistics.median(walls), "s"),
        "run_s_tail": (tail_s, "s"),
        "rows_per_s": (kept_rows * len(walls) / sum(walls), "rows/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _mean(per_op: list[float]) -> float:
    return sum(per_op) / len(per_op) if per_op else 0.0


def per_layer(ops: list[Op], tracer) -> dict[str, tuple[float, str]]:
    """Per-operation means over the traced operations that succeeded."""
    from tracer import LAYERS, ROOT as ROOT_SPAN

    traced = [o for o in ops if o.traced and not o.failed]
    plain = [o.scaled_s for o in ops if not o.traced and not o.failed]
    selfs = tracer.self_times()
    totals = tracer.totals()
    calls: dict[int, Counter] = {}
    for name, _, _, _, op in tracer.spans:
        calls.setdefault(op, Counter())[name] += 1

    def mean(fn: Callable[[int], float]) -> float:
        return _mean([fn(o.index) for o in traced])

    def total(name: str) -> float:
        return mean(lambda i: totals.get(i, Counter())[name])

    def count(name: str) -> float:
        return mean(lambda i: tracer.counts.get(i, Counter())[name])

    def ncalls(*names: str) -> float:
        return mean(lambda i: sum(calls.get(i, Counter())[n] for n in names))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    dm_s, pairs = total("metric.distance_matrix"), count("metric.pairs")
    m["metric.distance_matrix_s"] = (dm_s, "s")
    m["metric.pairs"] = (pairs, "count")
    m["metric.pairs_per_s"] = (ratio(pairs, dm_s), "1/s")
    m["persistence.rips_s"] = (total("persistence.rips"), "s")
    m["persistence.maxscale_s"] = (total("persistence.maxscale"), "s")
    m["cloud.build_s"] = (total("cloud.build"), "s")
    m["cloud.pairwise_s"] = (total("cloud.pairwise"), "s")
    m["persistence.diagrams"] = (count("persistence.diagrams"), "count")
    m["persistence.pairs"] = (count("persistence.pairs"), "count")
    knn_s, knn_calls = total("classify.knn"), ncalls("classify.knn")
    m["classify.knn_s"] = (knn_s, "s")
    m["classify.knn_calls"] = (knn_calls, "count")
    m["classify.knn_us_per_call"] = (ratio(1e6 * knn_s, knn_calls), "us")
    m["evaluate.protocol_s"] = (mean(lambda i: selfs.get(i, Counter())["evaluate.protocol"]), "s")
    for layer in ("persistence", "metric"):
        for side in ("read", "write"):
            m[f"{layer}.cache_{side}_s"] = (total(f"{layer}.cache_{side}"), "s")
            m[f"{layer}.cache_{side}_bytes"] = (count(f"{layer}.cache_{side}_bytes"), "B")
    hits = ncalls("persistence.cache_read", "metric.cache_read")
    misses = ncalls("persistence.cache_write", "metric.cache_write")
    m["pipeline.cache_hits"] = (hits, "count")
    m["pipeline.cache_misses"] = (misses, "count")
    m["pipeline.cache_hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    m["pipeline.fingerprint_s"] = (total("pipeline.fingerprint"), "s")
    m["pipeline.fingerprint_calls"] = (ncalls("pipeline.fingerprint"), "count")
    m["pipeline.report_s"] = (total("pipeline.report"), "s")
    m["pipeline.report_bytes"] = (count("pipeline.report_bytes"), "B")
    m["ingest.parse_s"] = (total("ingest.parse"), "s")
    m["ingest.rows_kept"] = (count("ingest.rows_kept"), "count")
    m["ingest.rows_dropped"] = (count("ingest.rows_dropped"), "count")
    m["preprocess.encode_s"] = (total("preprocess.encode"), "s")
    m["preprocess.standardize_s"] = (total("preprocess.standardize"), "s")
    m["preprocess.symmetry_s"] = (total("preprocess.symmetry"), "s")
    m["preprocess.width_m"] = (count("preprocess.width_m"), "count")
    walls = {o.index: o.wall_s for o in traced}
    for layer in (*LAYERS, "other"):
        prefix = f"{layer}."

        def layer_self(i: int) -> float:
            own = selfs.get(i, Counter())
            if layer == "other":
                return own[ROOT_SPAN]
            return sum(v for k, v in own.items() if k.startswith(prefix))

        m[f"{layer}.self_s"] = (mean(layer_self), "s")
        m[f"{layer}.share_pct"] = (mean(lambda i: 100.0 * layer_self(i) / walls[i]), "%")
    traced_p50 = statistics.median([o.scaled_s for o in traced]) if traced else 0.0
    m["trace.ops"] = (float(len(traced)), "count")
    m["trace.overhead_s"] = (traced_p50 - statistics.median(plain) if traced and plain else 0.0, "s")
    accuracies = [o.accuracy for o in ops if o.accuracy is not None and not o.failed]
    m["classify.accuracy_pct"] = (accuracies[-1] if accuracies else 0.0, "%")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import gen
    from tracer import Tracer
    from workloads import WORKLOADS, Workspace, operation

    workload = WORKLOADS[name]
    root = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    try:
        ws = Workspace(workload, seed, root)
        setup = measure_setup(ws, SETUP_REPS[workload.warm])
        rows = gen.cleveland_rows(workload.n_total, workload.n_missing, seed)
        reference = checks.load_references().get(name, {}).get(str(seed))
        check = checks.OutputCheck(
            workload.command, workload.split, checks.labels_of(rows), seed, reference
        )

        def op(cache_dir: Path, out_dir: Path):
            return operation(ws.config, workload.command, cache_dir, out_dir)

        tracer = Tracer() if trace else None
        ops = run_loop(ws, op, check, seconds, tracer=tracer, min_ops=2 if trace else 3)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failed = sum(o.failed for o in ops)
    untraced = [o for o in ops if not o.traced]
    _, pct = tail([o.wall_s for o in untraced])
    print(
        f"workload {name}, seed {seed}: {len(ops)} operations, {failed} failed "
        f"(closed loop, 1 client, {seconds:g} s, trace {int(trace)}); "
        f"set-up median of {len(setup)}; run_s_tail is p{pct:.1f} of {len(untraced)} untraced operations"
        + (f"; reference {'recorded' if reference else 'recomputed by the checker'}" if workload.command == "classify" else "")
    )
    print(
        f"unscaled wall p50 {statistics.median(o.wall_s for o in untraced):.4f} s; "
        f"calibration kernel median {statistics.median(o.cal_s for o in ops) * 1e3:.2f} ms "
        f"(reference {CAL_REF_S * 1e3:.2f} ms)"
    )
    if trace:
        metrics = per_layer(ops, tracer)
        out = TRACE_DIR / f"trace-{name}-seed{seed}.json"
        tracer.dump(
            out,
            {
                "workload": name,
                "seed": seed,
                "ops": [o.__dict__ for o in ops],
                "metrics": {k: v for k, (v, _) in metrics.items()},
            },
        )
        print(f"spans written to {out.relative_to(ROOT)}")
    else:
        metrics = end_to_end(ops, setup, workload.kept_rows)
    for key, (value, unit) in metrics.items():
        print(f"  {key:32s} {value!r:>24} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload, each in its own process, so peak memory is its own."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "topmix" / "__init__.py").is_file():
        print(f"error: no topmix sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import topmix

    if Path(topmix.__file__).resolve().parent != SRC / "topmix":
        print(f"error: imported topmix from {topmix.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
