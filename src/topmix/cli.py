"""Command-line entry points.

Subcommands run pipeline prefixes, honoring caches:
  classify   full experiment (splits, k selection, report artifacts), served
             from the distance cache without parsing the table when it holds
             this table and config
  diagrams   compute every row's diagram deaths, exported to diagrams.npy
  distances  compute the pairwise distance matrix, cached as distances.npy
             with rows.npy, or serve it from that cache without parsing the
             table (these two say whether the pipeline wrote the .npy file)
  inspect    print one row's point cloud (built only for this display),
             diagram, and the nearest neighbors and vote at the k that
             classify uses, among the rows of another group under the
             groups classify ranked with (a training row is ranked against
             the other training rows); the diagrams and distances are served
             from the distance cache as for classify, and the table is
             parsed once, for the row's features
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .classify import knn_grid
from .errors import TopmixError
from .evaluate import split_groups
from .pipeline import (
    classify_stage,
    compute_diagrams,
    compute_distances,
    load_experiment_config,
    prepare_features,
    read_inputs,
    run_pipeline,
)


def _add_common(parser: argparse.ArgumentParser, run: Callable[..., int]) -> None:
    """The options every command takes; ``run`` is the command, which ``main`` calls."""
    parser.set_defaults(run=run)
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--k", type=int, help="override neighbor count")
    parser.add_argument("--seed", type=int, help="override split seed")
    parser.add_argument("--p", type=float, help="override Wasserstein order")
    parser.add_argument(
        "--maxscale-safety", type=float, help="override filtration cap safety factor"
    )
    parser.add_argument("--cache-dir", help="override cache directory")
    parser.add_argument("--out-dir", help="override output directory")


def _overrides(args: argparse.Namespace) -> dict:
    paths = {
        key: str(Path(value).resolve())
        for key, value in (("cache_dir", args.cache_dir), ("out_dir", args.out_dir))
        if value is not None
    }
    return {
        "k": args.k,
        "split_seed": args.seed,
        "wasserstein_p": args.p,
        "maxscale_safety": args.maxscale_safety,
        **paths,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topmix",
        description="Topological k-NN classification of mixed tabular data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("classify", help="run the full experiment"), _cmd_classify)
    _add_common(sub.add_parser("diagrams", help="compute per-row diagram deaths"), _cmd_diagrams)
    _add_common(sub.add_parser("distances", help="compute the distance matrix"), _cmd_distances)

    inspect = sub.add_parser("inspect", help="examine one row")
    _add_common(inspect, _cmd_inspect)
    inspect.add_argument("--row", type=int, required=True, help="row index")
    return parser


def _cmd_classify(config, args: argparse.Namespace) -> int:
    result = run_pipeline(config)
    sys.stdout.write((result.artifacts["report"]).read_text(encoding="utf-8"))
    print(f"artifacts written to {config.out_dir}")
    return 0


def _print_cache_file(config, name: str, written: bool) -> None:
    """Say whether the command wrote cache file ``name``, as the pipeline decided; nothing without a cache dir."""
    if config.cache_dir is None:
        return
    path = config.cache_dir / name
    print(f"written to {path}" if written else f"{path} is up to date")


def _cmd_diagrams(config, args: argparse.Namespace) -> int:
    diagram_set = compute_diagrams(config)
    deaths = diagram_set.deaths
    print(
        f"{deaths.shape[0]} diagrams, {deaths.size} pairs, "
        f"maxscale {diagram_set.maxscale!r}"
    )
    _print_cache_file(config, "diagrams.npy", diagram_set.exported)
    return 0


def _cmd_distances(config, args: argparse.Namespace) -> int:
    diagram_set, matrix = compute_distances(config)
    print(f"{matrix.shape[0]}x{matrix.shape[1]} distance matrix")
    # a cache miss computes the diagrams (prepared is set) and rewrites the cache; a hit writes nothing
    _print_cache_file(config, "distances.npy", diagram_set.prepared is not None)
    return 0


def _cmd_inspect(config, args: argparse.Namespace) -> int:
    row = args.row
    inputs = read_inputs(config)
    diagram_set, matrix = compute_distances(config, inputs)
    labels = diagram_set.labels
    n = labels.size
    if not 0 <= row < n:
        raise TopmixError(f"row {row} out of range 0..{n - 1}")

    # the groups classify ranked with; under hold-out, the training rows
    # against the rest, and the row joins the rest, so that a training row's
    # candidates are the other training rows
    groups, pool_name = split_groups(labels, config.split), "rows outside its fold"
    if config.split.mode == "holdout":
        groups = groups == 0
        groups[row], pool_name = False, "training rows"
    # all that can fail runs before the first line is printed
    k = min(classify_stage(config, matrix, labels)[1].k, int((groups != groups[row]).sum()))
    nearest, predicted = knn_grid([row], matrix, labels, [k], groups)
    x = (diagram_set.prepared or prepare_features(config, inputs)).features.values[row]
    cloud = np.tile(x, (x.size + 1, 1))  # x, then p_i(x): x with coordinate i zeroed
    cloud[np.arange(1, x.size + 1), np.arange(x.size)] = 0.0

    print(f"row {row}: label {int(labels[row])}")
    print("point cloud (row vector, then one projection per coordinate):")
    for point in cloud:
        print("  " + " ".join(f"{v:.6g}" for v in point))
    print("diagram (birth, death):")
    for death in diagram_set.deaths[row].tolist():
        print(f"  (0.0, {death!r})")
    print(f"{k} nearest {pool_name}:")
    for neighbor in nearest[0].tolist():
        print(
            f"  row {neighbor}  distance {float(matrix[row, neighbor])!r}  "
            f"label {int(labels[neighbor])}"
        )
    votes = np.bincount(labels[nearest[0]], minlength=2)
    print(f"vote at k={k}: {votes[0]} for class 0, {votes[1]} for class 1; predicted {predicted[0, 0]}")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.run(load_experiment_config(args.config, _overrides(args)), args)
    except TopmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
