"""End-to-end experiment orchestration with caching and a run manifest.

Stage order: ingest -> one-hot encode -> standardize -> symmetry break ->
diagrams -> distance matrix -> k-NN evaluation. Diagrams are carried as
one matrix of ascending deaths per run (see persistence.py), computed in
closed form on every run. Every output is byte-deterministic, so
identical configs produce byte-identical files. The data and schema
files are read once per run, and the bytes parsed are the bytes
fingerprinted.

This module alone reads and writes run files. ``_replace`` alone creates
one: through a temporary file and a rename, so a file holds its old
content or all of the new. A file written on every run goes through
``_write_artifact``, which replaces it only when it holds other bytes, so
a warm re-run writes nothing. Those are the report files in ``out_dir``
and ``diagrams.npy`` with its manifest, an export never read back. The
one file read back is the distance cache ``distances.npy``: its manifest
records a fingerprint of everything the matrix depends on and the file's
size and sha256, and ``_cache_hit`` alone decides whether it can be used,
reading it once. A missing, stale or damaged cache is logged with that
reason and rewritten, the matrix before its manifest, without comparing
first: a stale matrix is 768 MB at 10,000 rows, and reading it back would
hold a second copy.

Each setting is declared once, as a field default of ``ExperimentConfig``
or ``SplitSpec``. The loader only converts: ``CONFIG_KEYS`` and
``SPLIT_KEYS`` map each JSON key to its converter, and a key the document
leaves out keeps its field default. The one exception is ``out_dir``,
whose loader default is ``out`` beside the config file.
"""

from __future__ import annotations

import difflib
import hashlib
import io
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
from .metric import ALGORITHM, distance_matrix
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
            if not all(map(math.isfinite, self.symmetry_vector)):
                raise ContractError(f"symmetry_vector must be finite, got {list(self.symmetry_vector)!r}")
        for key in ("maxscale", "maxscale_safety", "wasserstein_p"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ContractError(f"{key} must be finite, got {value!r}")
        if self.maxscale is not None and self.maxscale <= 0:
            raise ContractError("explicit maxscale must be positive")
        if self.maxscale_safety < 1:
            raise ContractError("maxscale safety factor must be >= 1")
        if self.wasserstein_p < 1:
            raise ContractError(f"wasserstein_p must be >= 1, got {self.wasserstein_p!r}")
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


def _real(value: Any) -> float:
    """A JSON number, integer or not; a bool or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _nullable(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else convert(value)


def _read(doc: dict, table: dict[str, Callable[[Any], Any]], where: str) -> dict[str, Any]:
    """``table[key](value)`` for every key present in ``doc``; a failure names the key."""
    values = {}
    for key, value in doc.items():
        try:
            values[key] = table[key](value)
        except (TypeError, ValueError, OverflowError) as exc:
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
    "train_frac": _real,
    "val_frac": _real,
    "test_frac": _real,
    "folds": _integer,
}
CONFIG_KEYS: dict[str, Callable[[Any], Any]] = {
    "data": Path,
    "schema": Path,
    "delimiter": _same,
    "has_header": _flag,
    "symmetry_vector": lambda v: v if isinstance(v, str) else tuple(_real(x) for x in v),
    "standardize_scope": _same,
    "maxscale": _nullable(_real),
    "maxscale_safety": _real,
    "wasserstein_p": _real,
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


def features_fingerprint(config: ExperimentConfig, data: bytes, schema: bytes) -> str:
    """Hash of everything that can change the diagrams.

    ``data`` and ``schema`` are the bytes of the two input files, the ones
    the run parsed: a file that changes after it was read cannot lend its
    fingerprint to results computed from its old content.

    The split enters only under train-only standardization, where the fit
    rows depend on the seed; under full-dataset scope a seed change must
    not invalidate warm diagram caches.
    """
    doc: dict[str, Any] = {
        "data_sha256": hashlib.sha256(data).hexdigest(),
        "schema_sha256": hashlib.sha256(schema).hexdigest(),
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
    fingerprint: str  # features_fingerprint of the run's config and inputs


def prepare_features(config: ExperimentConfig) -> PreparedData:
    """Ingest and transform up to the symmetry-broken feature matrix.

    Each input file is read once; its bytes are both parsed and hashed
    into the run's one ``features_fingerprint``.

    Raises:
        ParseError: (in the ingest stage) a table with no kept rows, which
            no later stage could fit.
    """
    with _stage("ingest"):
        schema_bytes = config.schema_path.read_bytes()
        schema = load_schema(config.schema_path, schema_bytes)
        data_bytes = config.data_path.read_bytes()
        raw, report = parse_dataset(
            config.data_path, schema, delimiter=config.delimiter, has_header=config.has_header,
            data=data_bytes,
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
        fingerprint = features_fingerprint(config, data_bytes, schema_bytes)
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
    return PreparedData(parse_report=report, features=broken, fingerprint=fingerprint)


def _read_manifest(path: Path) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def _manifest_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _npy_bytes(array: np.ndarray) -> bytes:
    """``array`` in ``.npy`` format: bit-exact and byte-deterministic."""
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


# The magic string, version, 2-byte length and the longest header that
# ``.npy`` version 1.0 allows.
_NPY_V1_HEADER_MAX = 10 + 0xFFFF


def save_distance_matrix(matrix: np.ndarray, path: str | Path) -> tuple[int, str]:
    """Write ``matrix`` to ``path`` in ``.npy`` format through ``_replace``.

    Returns the byte size and sha256 hex digest of what was written.
    """
    data = _npy_bytes(matrix)
    _replace(Path(path), data)
    return len(data), hashlib.sha256(data).hexdigest()


def load_distance_matrix(path: str | Path, data: bytearray) -> np.ndarray:
    """The matrix that ``save_distance_matrix`` wrote to ``path``, from its bytes ``data``.

    The caller has read the file once already (the cache hashes it), so
    the matrix is a writable view of ``data``, not a second copy.
    """
    header = io.BytesIO(data[:_NPY_V1_HEADER_MAX])
    np.lib.format.read_magic(header)  # np.save writes version 1.0 for a numeric matrix
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(header)
    matrix = np.frombuffer(data, dtype=dtype, count=math.prod(shape), offset=header.tell())
    return matrix.reshape(shape, order="F" if fortran_order else "C")


def _cache_hit(data_file: Path, fingerprint: str) -> bytearray | None:
    """The bytes of the distance cache ``data_file`` if usable; else log why and return None.

    Its manifest must carry ``fingerprint`` and the file's exact size and
    sha256. The reasons are "missing" (no readable manifest or no file),
    "stale" (the fingerprint differs) and "damaged" (the size or sha256
    differs). The bytes hashed are the bytes returned, so a hit reads the
    file once.
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
            logger.info("distance cache hit: %s", data_file)
            return data
        reason = "damaged"
    logger.info("distance cache %s, rewriting", reason)
    return None


def _replace(path: Path, data: bytes) -> None:
    """Give ``path`` the content ``data`` through a temporary file beside it and a rename.

    The only code that creates a file; it creates the parent directory too.
    ``path`` holds its old content or all of ``data``, never part of it; a
    write that raises removes its temporary file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temporary.write_bytes(data)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _write_artifact(path: Path, data: bytes) -> None:
    """Give ``path`` the content ``data``, writing only when it holds other bytes.

    A file that already holds exactly ``data`` is left alone, mtime
    included; any other content, or no file, is replaced through
    ``_replace``.
    """
    try:
        with open(path, "rb") as fh:
            if fh.read(len(data) + 1) == data:  # one byte more sees an extended file
                return
    except OSError:  # missing or unreadable: written below, or the write says why not
        pass
    _replace(path, data)


@dataclass
class DiagramSet:
    deaths: np.ndarray  # (rows, m+1) ascending, the shared cap last
    maxscale: float
    labels: np.ndarray
    prepared: PreparedData
    fingerprint: str  # features_fingerprint of the run's config and inputs

    @property
    def diagrams(self) -> list[PersistenceDiagram]:
        """Each row as a general diagram, built on every read; no stage reads it."""
        births = np.zeros(self.deaths.shape[1])
        return [PersistenceDiagram(np.column_stack([births, row]), self.maxscale) for row in self.deaths]


def compute_diagrams(config: ExperimentConfig) -> DiagramSet:
    """Dimension-0 diagrams for every row, exported to the cache directory.

    The closed form is cheaper than reading any file, so diagrams are
    always recomputed. ``diagrams.npy`` and its manifest go through
    ``_write_artifact``, so a warm run leaves both alone. The result
    carries the fingerprint ``prepare_features`` computed.
    """
    prepared = prepare_features(config)
    fingerprint = prepared.fingerprint
    with _stage("diagrams"):
        deaths, maxscale = dim0_diagrams(
            prepared.features.values, config.maxscale, config.maxscale_safety
        )
        if config.cache_dir is not None:
            export = config.cache_dir / "diagrams.npy"
            data = _npy_bytes(deaths)
            _write_artifact(export, data)
            _write_artifact(export.with_suffix(".manifest.json"), _manifest_text({
                "bytes": len(data), "fingerprint": fingerprint, "maxscale": maxscale,
                "safety": config.maxscale_safety, "sha256": hashlib.sha256(data).hexdigest(),
                "version": __version__,
            }).encode())
    return DiagramSet(deaths, maxscale, prepared.features.labels, prepared, fingerprint)


def compute_distances(config: ExperimentConfig, diagram_set: DiagramSet) -> np.ndarray:
    """Pairwise Wasserstein matrix over all rows, cache-aware.

    ``distances.npy`` is served only when ``_cache_hit`` finds nothing
    wrong with it; otherwise the matrix is recomputed and written, then
    the manifest that vouches for it, so an interrupted write leaves at
    worst a matrix that ``_cache_hit`` rejects.
    """
    with _stage("distances"):
        if config.cache_dir is None:
            return distance_matrix(diagram_set.deaths, config.wasserstein_p)
        fingerprint = f"{diagram_set.fingerprint}:p={config.wasserstein_p!r}:{ALGORITHM}"
        cache_file = config.cache_dir / "distances.npy"
        data = _cache_hit(cache_file, fingerprint)
        if data is not None:
            return load_distance_matrix(cache_file, data)
        matrix = distance_matrix(diagram_set.deaths, config.wasserstein_p)
        size, sha256 = save_distance_matrix(matrix, cache_file)
        _replace(cache_file.with_suffix(".manifest.json"), _manifest_text({
            "algorithm": ALGORITHM, "bytes": size, "fingerprint": fingerprint,
            "maxscale": diagram_set.maxscale, "p": config.wasserstein_p,
            "sha256": sha256, "version": __version__,
        }).encode())
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
    """Write the run's report files to ``config.out_dir`` with ``_write_artifact``.

    Returns the files by role. A k-fold run removes the ``validation.csv``
    of an earlier hold-out run.
    """
    out = config.out_dir
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
    title = "test set" if config.split.mode == "holdout" else f"{config.split.folds}-fold cross-validation"
    text = format_report_text(report, title=title)
    if split_result is not None:
        text += "\nvalidation sweep (k chosen = %d):\n" % split_result.chosen_k
        text += format_validation_table(split_result)
    lines = ["row,true,predicted"]
    lines += [f"{r},{t},{pr}" for r, t, pr in report.predictions.tolist()]
    files = {
        "manifest": ("run_manifest.json", _manifest_text(manifest)),
        "report": ("report.txt", text),
        "report_kv": ("report.kv", format_report_kv(report)),
        "predictions": ("predictions.csv", "\n".join(lines) + "\n"),
    }
    if split_result is not None:
        files["validation"] = ("validation.csv", format_validation_table(split_result))
    else:  # a hold-out run's table would not describe this run
        (out / "validation.csv").unlink(missing_ok=True)
    artifacts: dict[str, Path] = {}
    for role, (name, text) in files.items():
        artifacts[role] = out / name
        _write_artifact(artifacts[role], text.encode("utf-8"))
    return artifacts
