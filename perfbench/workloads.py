"""The benchmark's workloads and the one operation each of them repeats.

An operation is the call sequence a user's CLI command makes:
``load_experiment_config`` then ``run_pipeline`` (``topmix classify``) or
``compute_diagrams`` (``topmix diagrams``). Functions are looked up on the
module at call time, so a traced run sees the wrapped versions.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

import gen

HOLDOUT = {
    "mode": "holdout",
    "seed": 0,
    "stratified": False,
    "train_frac": 0.6,
    "val_frac": 0.2,
    "test_frac": 0.2,
}
KFOLD = {"mode": "kfold", "folds": 10, "seed": 0, "stratified": False}


@dataclass(frozen=True)
class Workload:
    name: str
    n_total: int  # generated rows
    n_missing: int  # rows with a '?' in ca, dropped by the parser
    split: dict = field(hash=False)
    command: str  # "classify" or "diagrams"
    warm: bool  # share one filled cache across operations

    @property
    def kept_rows(self) -> int:
        return self.n_total - self.n_missing


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload exists is recorded in BENCHMARK.json.
        Workload("holdout-cold-297", 303, 6, HOLDOUT, "classify", warm=False),
        Workload("kfold-warm-297", 303, 6, KFOLD, "classify", warm=True),
        Workload("diagrams-cold-3000", 3030, 30, HOLDOUT, "diagrams", warm=False),
    )
}


def operation(config_path: Path, command: str, cache_dir: Path, out_dir: Path):
    """One user command; returns ``RunResult`` or ``DiagramSet``."""
    from topmix import pipeline

    config = pipeline.load_experiment_config(
        config_path, {"cache_dir": str(cache_dir), "out_dir": str(out_dir)}
    )
    if command == "classify":
        return pipeline.run_pipeline(config)
    return pipeline.compute_diagrams(config)


class Workspace:
    """Inputs and cache/out directories of one workload under ``root``."""

    def __init__(self, workload: Workload, seed: int, root: Path):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.config: Path | None = None
        self._fresh = 0

    def write_inputs(self) -> Path:
        w = self.workload
        self.config = gen.write_inputs(self.root / "inputs", w.n_total, w.n_missing, self.seed, w.split)
        return self.config

    def dirs(self) -> tuple[Path, Path]:
        """Cache and out directory for the next operation.

        Warm workloads reuse one pair; cold ones get a pair no operation
        has used, so every cache lookup misses.
        """
        if self.workload.warm:
            return self.root / "cache", self.root / "out"
        self._fresh += 1
        return self.root / f"cache{self._fresh}", self.root / f"out{self._fresh}"

    def discard(self, cache_dir: Path, out_dir: Path) -> None:
        if not self.workload.warm:
            shutil.rmtree(cache_dir, ignore_errors=True)
            shutil.rmtree(out_dir, ignore_errors=True)
