"""End-to-end experiment orchestration with caching and a run manifest.

Stage order: ingest -> one-hot encode -> standardize -> symmetry break ->
diagrams -> distance matrix -> k-NN evaluation. Diagrams are carried as
one matrix of ascending deaths per run (see persistence.py), computed in
closed form on every run; ``diagrams.npy`` in the cache directory is an
export of that matrix, never read back. The distance matrix, computed by
the batched dynamic programme of ``metric.distance_matrix``, is cached as
``distances.npy``. Each file is written before its manifest, which records
a fingerprint of everything the file depends on and the file's size and
sha256; each is written to a temporary file and renamed into place.
``_cache_hit`` alone decides whether either file can be used, and a hit
reads the file once: the bytes it hashes are the bytes the run uses. A
missing, stale or damaged file is logged with that reason and rewritten,
never silently reused.
Every output is byte-deterministic, so identical configs produce
byte-identical files.

Each setting is declared once, as a field default of ``ExperimentConfig``
or ``SplitSpec``. The loader only converts: ``CONFIG_KEYS`` and
``SPLIT_KEYS`` map each JSON key to its converter, and a key the document
leaves out keeps its field default. The one exception is ``out_dir``,
whose loader default is ``out`` beside the config file.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import logging
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .errors import ContractError, ParseError, TopmixError
from .evaluate import (
    EvaluationReport,
    SplitResult,
    SplitSpec,
    evaluate_split,
    format_report_kv,
    format_report_text,
    format_validation_table,
    select_k_kfold,
    split_groups,
)
from .ingest import ParseReport, parse_dataset
from .metric import ALGORITHM, distance_matrix, load_distance_matrix, save_distance_matrix
from .persistence import PersistenceDiagram, dim0_diagrams
from .preprocess import (
    FeatureMatrix,
    default_symmetry_vector,
    fit_standardizer,
    one_hot_encode,
    standardize,
    symmetry_break,
)
from .schema import load_schema

logger = logging.getLogger("topmix")


@dataclass
class ExperimentConfig:
    """Every setting of a run; anything the method leaves open surfaces here."""

    data_path: Path
    schema_path: Path
    delimiter: str = ","
    has_header: bool = False
    symmetry_vector: str | tuple[float, ...] = "default"  # "default" | "zero" | explicit
    standardize_scope: str = "full"  # "full" | "train"
    maxscale: float | None = None
    maxscale_safety: float = 1.1
    wasserstein_p: float = 1.0
    split: SplitSpec = SplitSpec()
    k: int | None = None
    k_grid: tuple[int, ...] = tuple(range(1, 11))
    cache_dir: Path | None = None
    out_dir: Path = Path("out")

    def __post_init__(self):
        if not isinstance(self.delimiter, str) or not self.delimiter:
            raise ContractError(f"delimiter must be a non-empty string, got {self.delimiter!r}")
        if self.standardize_scope not in ("full", "train"):
            raise ContractError(f"unknown standardize scope {self.standardize_scope!r}")
        if self.standardize_scope == "train" and self.split.mode != "holdout":
            raise ContractError(
                "train-only standardization needs a holdout split; "
                "k-fold evaluation shares one diagram set across folds"
            )
        if isinstance(self.symmetry_vector, str):
            if self.symmetry_vector not in ("default", "zero"):
                raise ContractError(
                    f"symmetry_vector must be 'default', 'zero', or a list, "
                    f"got {self.symmetry_vector!r}"
                )
        else:
            self.symmetry_vector = tuple(float(v) for v in self.symmetry_vector)
        for key in ("maxscale", "maxscale_safety", "wasserstein_p"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ContractError(f"{key} must be finite, got {value!r}")
        if self.maxscale is not None and self.maxscale <= 0:
            raise ContractError("explicit maxscale must be positive")
        if self.maxscale_safety < 1:
            raise ContractError("maxscale safety factor must be >= 1")
        if self.k is not None and self.k < 1:
            raise ContractError(f"k must be >= 1, got {self.k}")
        if not self.k_grid or min(self.k_grid) < 1:
            raise ContractError(f"k_grid must be non-empty with every k >= 1, got {self.k_grid}")


def _reject_unknown_keys(doc: Any, valid: dict[str, Any], where: str) -> None:
    """A misspelled key would otherwise silently leave its default in force."""
    if not isinstance(doc, dict):
        raise ContractError(f"{where} must be a JSON object")
    for key in doc:
        if key not in valid:
            close = difflib.get_close_matches(key, valid, n=1)
            hint = f"did you mean {close[0]!r}?" if close else f"valid keys: {', '.join(valid)}"
            raise ContractError(f"unknown {where} key {key!r}; {hint}")


def _flag(value: Any) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _integer(value: Any) -> int:
    """A JSON integer; a float only when it has no fractional part."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _nullable(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else convert(value)


def _read(doc: dict, table: dict[str, Callable[[Any], Any]], where: str) -> dict[str, Any]:
    """``table[key](value)`` for every key present in ``doc``; a failure names the key."""
    values = {}
    for key, value in doc.items():
        try:
            values[key] = table[key](value)
        except (TypeError, ValueError) as exc:
            raise ContractError(f"invalid {where} value for {key!r}: {value!r} ({exc})") from None
    return values


def _same(value: Any) -> Any:
    """Passed on as read; the dataclass that receives it checks it."""
    return value


# Key -> converter. A key the document leaves out keeps its dataclass default.
SPLIT_KEYS: dict[str, Callable[[Any], Any]] = {
    "mode": _same,
    "seed": _integer,
    "stratified": _flag,
    "train_frac": float,
    "val_frac": float,
    "test_frac": float,
    "folds": _integer,
}
CONFIG_KEYS: dict[str, Callable[[Any], Any]] = {
    "data": Path,
    "schema": Path,
    "delimiter": _same,
    "has_header": _flag,
    "symmetry_vector": lambda v: v if isinstance(v, str) else tuple(float(x) for x in v),
    "standardize_scope": _same,
    "maxscale": _nullable(float),
    "maxscale_safety": float,
    "wasserstein_p": float,
    "split": lambda v: SplitSpec(**_read(v, SPLIT_KEYS, "split")),
    "k": _nullable(_integer),
    "k_grid": lambda v: tuple(_integer(k) for k in v),
    "cache_dir": _nullable(Path),
    "out_dir": Path,
}


def load_experiment_config(path: str | Path, overrides: dict[str, Any] | None = None) -> ExperimentConfig:
    """Read a JSON experiment config; relative paths resolve against it.

    Each key present is converted by its entry in ``CONFIG_KEYS`` or
    ``SPLIT_KEYS``; ``data`` and ``schema`` fill ``data_path`` and
    ``schema_path``. A key left out keeps its ``ExperimentConfig`` or
    ``SplitSpec`` default, except ``out_dir``, which defaults to ``out``
    beside the config file. ``split_seed`` in ``overrides`` sets the split's
    seed; any other override replaces the top-level key of that name.

    Raises:
        ContractError: an unreadable or malformed JSON file; an unknown
            top-level or ``split`` key, named with the nearest valid key; a
            value of the wrong type, named with its key; missing data or
            schema paths; invalid values.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ContractError(f"cannot read config {path}: {exc}") from None
    _reject_unknown_keys(doc, CONFIG_KEYS, "config")
    _reject_unknown_keys(doc.get("split", {}), SPLIT_KEYS, "split")
    for key, value in (overrides or {}).items():
        if key == "split_seed" and value is not None:
            doc.setdefault("split", {})["seed"] = value
        elif value is not None:
            doc[key] = value
    values = {"out_dir": Path("out"), **_read(doc, CONFIG_KEYS, "config")}
    for key in ("data", "schema", "cache_dir", "out_dir"):
        if values.get(key) is not None:
            values[key] = path.parent / values[key]  # an absolute path replaces the parent
    if "data" not in values or "schema" not in values:
        raise ContractError("config must set 'data' and 'schema' paths")
    for key in ("data", "schema"):
        if not values[key].exists():
            raise ContractError(f"{key} path does not exist: {values[key]}")
    return ExperimentConfig(data_path=values.pop("data"), schema_path=values.pop("schema"), **values)


@contextmanager
def _stage(name: str):
    """Log stage wall time; tag errors (an OSError as a TopmixError) with the stage."""
    start = time.perf_counter()
    try:
        yield
    except TopmixError as exc:
        raise type(exc)(f"[stage {name}] {exc}") from exc
    except OSError as exc:
        raise TopmixError(f"[stage {name}] {exc}") from exc
    logger.info("stage %-12s %8.3fs", name, time.perf_counter() - start)


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def features_fingerprint(config: ExperimentConfig) -> str:
    """Hash of everything that can change the diagrams.

    The split enters only under train-only standardization, where the fit
    rows depend on the seed; under full-dataset scope a seed change must
    not invalidate warm diagram caches.
    """
    doc: dict[str, Any] = {
        "data_sha256": _sha256_file(config.data_path),
        "schema_sha256": _sha256_file(config.schema_path),
        "delimiter": config.delimiter,
        "has_header": config.has_header,
        "symmetry_vector": (
            config.symmetry_vector
            if isinstance(config.symmetry_vector, str)
            else list(config.symmetry_vector)
        ),
        "standardize_scope": config.standardize_scope,
        "maxscale": config.maxscale,
        "maxscale_safety": config.maxscale_safety,
        "version": __version__,
    }
    if config.standardize_scope == "train":
        doc["split"] = [
            config.split.mode,
            config.split.seed,
            config.split.stratified,
            config.split.train_frac,
            config.split.val_frac,
            config.split.test_frac,
        ]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class PreparedData:
    parse_report: ParseReport
    features: FeatureMatrix  # symmetry-broken


def prepare_features(config: ExperimentConfig) -> PreparedData:
    """Ingest and transform up to the symmetry-broken feature matrix.

    Raises:
        ParseError: (in the ingest stage) a table with no kept rows, which
            no later stage could fit.
    """
    with _stage("ingest"):
        schema = load_schema(config.schema_path)
        raw, report = parse_dataset(
            config.data_path, schema, delimiter=config.delimiter, has_header=config.has_header
        )
        logger.info(
            "parsed %d rows: kept %d, dropped %d incomplete",
            report.total_rows, report.kept_rows, report.dropped_rows,
        )
        if report.kept_rows == 0:
            raise ParseError(
                f"data file {config.data_path} has no complete rows: "
                f"read {report.total_rows}, dropped {report.dropped_rows} for the missing token"
            )
    with _stage("encode"):
        encoded = one_hot_encode(raw)
    with _stage("standardize"):
        if config.standardize_scope == "train":
            params = fit_standardizer(encoded, np.flatnonzero(split_groups(encoded.labels, config.split) == 0))
        else:
            params = fit_standardizer(encoded)
        standardized = standardize(encoded, params)
    with _stage("symmetry-break"):
        if config.symmetry_vector == "default":
            vector = default_symmetry_vector(standardized.m)
        elif config.symmetry_vector == "zero":
            vector = np.zeros(standardized.m)
        else:
            vector = np.asarray(config.symmetry_vector, dtype=np.float64)
        broken = symmetry_break(standardized, vector)
    return PreparedData(parse_report=report, features=broken)


def _read_manifest(path: Path) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def _write_manifest(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cache_hit(data_file: Path, fingerprint: str, what: str) -> bytearray | None:
    """The content of ``data_file`` when it can be used; otherwise log why and return None.

    The one validity rule for every cache file: its manifest must carry
    ``fingerprint`` and the file's exact size and sha256. The reasons are
    "missing" (no readable manifest or no file), "stale" (the fingerprint
    differs) and "damaged" (the size or sha256 differs). The bytes hashed
    are the bytes returned, so a hit reads the file once.
    """
    manifest = _read_manifest(data_file.with_suffix(".manifest.json"))
    if manifest is None or not data_file.is_file():
        reason = "missing"
    elif manifest.get("fingerprint") != fingerprint:
        reason = "stale"
    elif (size := data_file.stat().st_size) != manifest.get("bytes"):
        reason = "damaged"
    else:
        data = bytearray(size)
        with open(data_file, "rb") as fh:
            fh.readinto(data)
        if hashlib.sha256(data).hexdigest() == manifest.get("sha256"):
            logger.info("%s hit: %s", what, data_file)
            return data
        reason = "damaged"
    logger.info("%s %s, rewriting", what, reason)
    return None


def _replace(path: Path, write: Callable[[Path], Any]) -> Any:
    """Run ``write`` on a temporary file beside ``path``, then rename it to ``path``.

    ``path`` holds its old content or all of the new, never part of it; a
    write that raises removes its temporary file. Returns what ``write`` does.
    """
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        result = write(temporary)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return result


def _write_cache(
    data_file: Path, fingerprint: str, save: Callable[[Path], tuple[int, str]], **fields: Any
) -> None:
    """Write ``data_file`` with ``save``, then the manifest that vouches for it.

    ``save`` returns the size and sha256 of what it wrote. Each file is
    replaced whole, the manifest last, so an interrupted write leaves no
    partial file and at worst a data file ``_cache_hit`` rejects.
    """
    data_file.parent.mkdir(parents=True, exist_ok=True)
    size, sha256 = _replace(data_file, save)
    fields.update(bytes=size, fingerprint=fingerprint, sha256=sha256)
    _replace(data_file.with_suffix(".manifest.json"), lambda path: _write_manifest(path, fields))


@dataclass
class DiagramSet:
    deaths: np.ndarray  # (rows, m+1) ascending, the shared cap last
    maxscale: float
    labels: np.ndarray
    prepared: PreparedData
    fingerprint: str  # features_fingerprint of the run's config

    @property
    def diagrams(self) -> list[PersistenceDiagram]:
        """Each row as a general diagram, built on every read; no stage reads it."""
        births = np.zeros(self.deaths.shape[1])
        return [PersistenceDiagram(np.column_stack([births, row]), self.maxscale) for row in self.deaths]


def compute_diagrams(config: ExperimentConfig) -> DiagramSet:
    """Dimension-0 diagrams for every row, exported to the cache directory.

    The closed form is cheaper than reading any file, so diagrams are
    always recomputed. ``diagrams.npy`` and its manifest are rewritten only
    when ``_cache_hit`` finds the export missing, stale or damaged. The
    run's one ``features_fingerprint`` call is here; the result carries it.
    """
    prepared = prepare_features(config)
    with _stage("diagrams"):
        fingerprint = features_fingerprint(config)
        deaths, maxscale = dim0_diagrams(
            prepared.features.values, config.maxscale, config.maxscale_safety
        )
        if config.cache_dir is not None:
            cache_file = config.cache_dir / "diagrams.npy"
            if _cache_hit(cache_file, fingerprint, "diagram export") is None:
                _write_cache(
                    cache_file, fingerprint, lambda path: save_distance_matrix(deaths, path),
                    maxscale=maxscale, safety=config.maxscale_safety, version=__version__,
                )
    return DiagramSet(deaths, maxscale, prepared.features.labels, prepared, fingerprint)


def compute_distances(config: ExperimentConfig, diagram_set: DiagramSet) -> np.ndarray:
    """Pairwise Wasserstein matrix over all rows, cache-aware.

    ``distances.npy`` is served only when ``_cache_hit`` finds nothing
    wrong with it; otherwise the matrix is recomputed and rewritten.
    """
    with _stage("distances"):
        if config.cache_dir is None:
            return distance_matrix(diagram_set.deaths, config.wasserstein_p)
        fingerprint = f"{diagram_set.fingerprint}:p={config.wasserstein_p!r}:{ALGORITHM}"
        cache_file = config.cache_dir / "distances.npy"
        data = _cache_hit(cache_file, fingerprint, "distance cache")
        if data is not None:
            return load_distance_matrix(cache_file, data)
        matrix = distance_matrix(diagram_set.deaths, config.wasserstein_p)
        _write_cache(
            cache_file, fingerprint, lambda path: save_distance_matrix(matrix, path),
            algorithm=ALGORITHM, maxscale=diagram_set.maxscale,
            p=config.wasserstein_p, version=__version__,
        )
    return matrix


@dataclass
class RunResult:
    diagram_set: DiagramSet
    distances: np.ndarray
    split_result: SplitResult | None
    report: EvaluationReport
    artifacts: dict[str, Path]


def classify_stage(
    config: ExperimentConfig, distances: np.ndarray, labels: np.ndarray
) -> tuple[SplitResult | None, EvaluationReport]:
    """The configured protocol: k from ``config.k`` or chosen over the grid.

    Both protocols take ``config.split`` whole. Returns the hold-out result
    (None under k-fold) and the report of the k that was used.
    """
    with _stage("classify"):
        k_grid = [config.k] if config.k is not None else list(config.k_grid)
        if config.split.mode == "holdout":
            split_result = evaluate_split(distances, labels, config.split, k_grid)
            return split_result, split_result.test_report
        return None, select_k_kfold(distances, labels, config.split, k_grid)[1]


def run_pipeline(config: ExperimentConfig) -> RunResult:
    """Execute the full experiment and write report artifacts."""
    diagram_set = compute_diagrams(config)
    distances = compute_distances(config, diagram_set)
    split_result, report = classify_stage(config, distances, diagram_set.labels)
    with _stage("report"):
        artifacts = write_artifacts(config, diagram_set, split_result, report)
    return RunResult(diagram_set, distances, split_result, report, artifacts)


def write_artifacts(
    config: ExperimentConfig,
    diagram_set: DiagramSet,
    split_result: SplitResult | None,
    report: EvaluationReport,
) -> dict[str, Path]:
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}

    manifest = {
        "fingerprint": diagram_set.fingerprint,
        "version": __version__,
        "maxscale": diagram_set.maxscale,
        "maxscale_safety": config.maxscale_safety,
        "wasserstein_p": config.wasserstein_p,
        "split_mode": config.split.mode,
        "seed": config.split.seed,
        "stratified": config.split.stratified,
        "k": report.k,
        "rows_kept": diagram_set.prepared.parse_report.kept_rows,
        "rows_dropped": diagram_set.prepared.parse_report.dropped_rows,
    }
    _write_manifest(out / "run_manifest.json", manifest)
    artifacts["manifest"] = out / "run_manifest.json"

    title = "test set" if config.split.mode == "holdout" else f"{config.split.folds}-fold cross-validation"
    text = format_report_text(report, title=title)
    if split_result is not None:
        text += "\nvalidation sweep (k chosen = %d):\n" % split_result.chosen_k
        text += format_validation_table(split_result)
    (out / "report.txt").write_text(text, encoding="utf-8")
    artifacts["report"] = out / "report.txt"

    (out / "report.kv").write_text(format_report_kv(report), encoding="utf-8")
    artifacts["report_kv"] = out / "report.kv"

    lines = ["row,true,predicted"]
    lines += [f"{r},{t},{pr}" for r, t, pr in report.predictions.tolist()]
    (out / "predictions.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    artifacts["predictions"] = out / "predictions.csv"

    validation = out / "validation.csv"
    if split_result is not None:
        validation.write_text(format_validation_table(split_result), encoding="utf-8")
        artifacts["validation"] = validation
    else:  # a hold-out run's table would not describe this run
        validation.unlink(missing_ok=True)
    return artifacts
