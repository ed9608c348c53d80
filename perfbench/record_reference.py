"""Record the classify workloads' reference outcomes into reference.json.

Run from the repository root on the code whose outputs are the reference
(the reference was recorded before any optimisation landed):

    python3 perfbench/record_reference.py --seeds 0-63

For each seed it runs the hold-out workload's operation cold and the
k-fold workload's operation on the filled cache, and keeps the chosen k,
the confusion counts and the accuracy. It also recomputes each outcome
with the checker's own protocol and refuses to write if the two disagree.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from workloads import WORKLOADS, Workspace, operation  # noqa: E402

CLASSIFY = ("holdout-cold-297", "kfold-warm-297")


def outcome(report) -> dict:
    c = report.counts
    return {"k": report.k, "tp": c.tp, "tn": c.tn, "fp": c.fp, "fn": c.fn, "accuracy": report.accuracy}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-63", help="inclusive range lo-hi")
    args = parser.parse_args()
    lo, hi = (int(s) for s in args.seeds.split("-"))

    import topmix

    work = HERE.parent / ".perfbench_work" / "record"
    doc = {"recorded_with": f"topmix {topmix.__version__}", "workloads": {n: {} for n in CLASSIFY}}
    try:
        for seed in range(lo, hi + 1):
            shutil.rmtree(work, ignore_errors=True)
            for name in CLASSIFY:
                w = WORKLOADS[name]
                ws = Workspace(w, seed, work / name)
                config = ws.write_inputs()
                # both workloads read the same table, so the k-fold run hits the cache
                result = operation(config, w.command, work / "cache", work / name / "out")
                got = outcome(result.report)
                labels = checks.labels_of(gen.cleveland_rows(w.n_total, w.n_missing, seed))
                own = checks.protocol_reference(result.distances, labels, w.split, list(gen.K_GRID))
                if own != got:
                    print(f"seed {seed} {name}: program {got} != checker {own}", file=sys.stderr)
                    return 1
                doc["workloads"][name][str(seed)] = got
            print(f"seed {seed}: {[doc['workloads'][n][str(seed)]['accuracy'] for n in CLASSIFY]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
