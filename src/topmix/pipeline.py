"""End-to-end experiment orchestration with caching and a run manifest.

Stage order: ingest -> one-hot encode -> standardize -> symmetry break ->
diagrams -> distance matrix -> k-NN evaluation. Diagrams are carried as
one matrix of ascending deaths per run (see persistence.py), computed in
closed form whenever the table is parsed. Every output is
byte-deterministic, so identical configs produce byte-identical files.
The data and schema files are read once per run, and the bytes
fingerprinted are the bytes parsed.

This module alone reads and writes run files. ``_replace`` alone creates
one: through a temporary file and a rename, so a file holds its old
content or all of the new. ``_write_artifact`` replaces a file only when
it holds other bytes, so a warm re-run writes nothing, and says whether
it wrote (for ``diagrams.npy``, ``DiagramSet.exported``). It writes the
report files in ``out_dir`` and, from ``compute_diagrams`` alone,
``diagrams.npy`` (never read back; hashed in parts) and its manifest.

The files read back are the distance cache, ``CACHE_FILES``:
``distances.npy``, the matrix, and ``rows.npy``, each kept row's deaths
with its label as one more column. One manifest records a fingerprint of
everything they depend on, each file's size and sha256, and the kept and
dropped row counts. ``compute_distances`` alone reads and fills them, and
every command but ``diagrams`` goes through it. Its one call to
``_cache_hit`` decides whether they can be used, reading each once and
comparing its header with the one written for the recorded shape. A hit
serves the run whole: the inputs are read and fingerprinted but not
parsed, no diagram is computed and only ``out_dir`` is written
(``inspect`` then parses the same bytes for the one feature row it
prints). A missing, stale or damaged cache is logged with that reason and
rewritten, the files before their manifest, without comparing first: a
stale matrix is 768 MB at 10,000 rows, and reading it back would hold a
second copy.

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
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from . import __version__
from .errors import ContractError, ParseError, TopmixError
from .evaluate import (
    EvaluationReport,
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
from .persistence import dim0_diagrams
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
            if not self.symmetry_vector:
                raise ContractError("symmetry_vector must hold one value per encoded column, got []")
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
    """A JSON integer that numpy can hold as an int64; a float only when it has no fractional part."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    if not -(2**63) <= value < 2**63:
        raise OverflowError("outside the int64 range")
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


@dataclass(frozen=True)
class RunInputs:
    """The bytes of the two input files, each read once, and their fingerprint."""

    data: bytes
    schema: bytes
    fingerprint: str  # features_fingerprint of the run's config and these bytes


def read_inputs(config: ExperimentConfig) -> RunInputs:
    """Read the schema and data files once, in the read stage, and fingerprint the bytes read."""
    with _stage("read"):
        schema = config.schema_path.read_bytes()
        data = config.data_path.read_bytes()
        return RunInputs(data, schema, features_fingerprint(config, data, schema))


@dataclass
class PreparedData:
    parse_report: ParseReport
    features: FeatureMatrix  # symmetry-broken


def prepare_features(config: ExperimentConfig, inputs: RunInputs | None = None) -> PreparedData:
    """Ingest and transform up to the symmetry-broken feature matrix.

    ``inputs`` are the files as the caller read them; without them each
    file is read here, once. The bytes parsed are the bytes fingerprinted.

    Raises:
        ParseError: (in the ingest stage) a table with no kept rows, which
            no later stage could fit.
    """
    if inputs is None:
        inputs = read_inputs(config)
    with _stage("ingest"):
        schema = load_schema(config.schema_path, inputs.schema)
        raw, report = parse_dataset(
            config.data_path, schema, delimiter=config.delimiter, has_header=config.has_header,
            data=inputs.data,
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
    # One name for every stage's matrix: each input is freed once the next is made, and its pages reused
    with _stage("encode"):
        features = one_hot_encode(raw)
    with _stage("standardize"):
        if config.standardize_scope == "train":
            params = fit_standardizer(features, np.flatnonzero(split_groups(features.labels, config.split) == 0))
        else:
            params = fit_standardizer(features)
        features = standardize(features, params)
    with _stage("symmetry-break"):
        if config.symmetry_vector == "default":
            vector = default_symmetry_vector(features.m)
        elif config.symmetry_vector == "zero":
            vector = np.zeros(features.m)
        else:
            vector = np.asarray(config.symmetry_vector, dtype=np.float64)
        features = symmetry_break(features, vector)
    return PreparedData(parse_report=report, features=features)


def _read_manifest(path: Path) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def _manifest_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _npy_header(shape: tuple[int, ...], descr: str = "<f8", fortran_order: bool = False) -> bytes:
    """The ``.npy`` v1.0 header that ``np.save`` writes for an array of ``shape`` and dtype ``descr``."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {"descr": descr, "fortran_order": fortran_order, "shape": shape})
    return header.getvalue()


def _npy_parts(array: np.ndarray) -> tuple[bytes, memoryview]:
    """``array`` as ``np.save`` writes it: the v1.0 header, then the data (a view if contiguous)."""
    header = _npy_header(**np.lib.format.header_data_from_array_1_0(array))
    return header, memoryview(array.reshape(-1, order="A")).cast("B")


def save_distance_matrix(matrix: np.ndarray, path: str | Path) -> tuple[int, str]:
    """Write ``matrix`` to ``path`` in ``.npy`` format through ``_replace``.

    Writes either file of ``CACHE_FILES``: the distance matrix or the rows
    with their labels. The header and a view of the matrix's data are
    written and hashed in turn, so no copy of the file is held in memory.
    Returns the byte size and sha256 hex digest of what was written.
    """
    header, data = _npy_parts(matrix)
    _replace(Path(path), header, data)
    digest = hashlib.sha256(header)
    digest.update(data)
    return len(header) + len(data), digest.hexdigest()


def load_distance_matrix(path: str | Path, data: bytearray, rows: int) -> np.ndarray | None:
    """The array of ``rows`` rows that ``save_distance_matrix`` wrote to ``path``, from its bytes ``data``.

    Reads either file of ``CACHE_FILES``, a float64 matrix, or returns None
    unless ``data`` holds the header written for the shape its size implies,
    compared byte for byte, not parsed. The caller has read the file once
    already (the cache hashes it), so the array is a writable view of
    ``data``, not a second copy.
    """
    columns = (len(data) - 128) // 8 // rows  # np.save pads every 2-D header to 128 bytes
    header = _npy_header((rows, columns))
    if len(data) != len(header) + 8 * rows * columns or not data.startswith(header):
        return None
    return np.frombuffer(data, offset=len(header)).reshape(rows, columns)


# The files of the distance cache, each written before the manifest that
# vouches for them: the matrix, then the deaths of every kept row with its
# label as one more column. Their names enter the cache's fingerprint, so a
# manifest written for another set of files is stale.
CACHE_FILES = ("distances.npy", "rows.npy")


def _cache_fingerprint(config: ExperimentConfig, features: str) -> str:
    """The distance cache's fingerprint: the diagrams' ``features``, p, the algorithm, the files."""
    return f"{features}:p={config.wasserstein_p!r}:{ALGORITHM}:{'+'.join(CACHE_FILES)}"


def _vouched_array(path: Path, manifest: dict, rows: int) -> np.ndarray | None:
    """Cache file ``path`` as an array of ``rows`` rows, if it is the file ``manifest`` vouches for.

    Its size and sha256 must be those ``manifest`` records, and its header
    the one ``load_distance_matrix`` expects for ``rows`` rows.
    """
    entry = manifest.get("files")
    entry = entry.get(path.name) if isinstance(entry, dict) else None
    if not isinstance(entry, dict) or (size := path.stat().st_size) != entry.get("bytes"):
        return None
    data = bytearray(size)
    with open(path, "rb") as fh:
        fh.readinto(data)
    if hashlib.sha256(data).hexdigest() != entry.get("sha256"):
        return None
    return load_distance_matrix(path, data, rows)


def _cache_hit(cache_dir: Path, fingerprint: str) -> tuple[np.ndarray, np.ndarray, int] | None:
    """The distance matrix, the rows with their labels and the dropped-row count, or None after logging why.

    The manifest must carry ``fingerprint``, the kept and dropped row
    counts, and each file's exact size and sha256 (``_vouched_array``); the
    matrix must be square. The reasons are "missing" (no readable manifest
    or a file absent), "stale" (the fingerprint differs) and "damaged"
    (anything else wrong). The bytes hashed are the bytes served, so a hit
    reads each file once.
    """
    manifest = _read_manifest(cache_dir / "distances.manifest.json")
    paths = [cache_dir / name for name in CACHE_FILES]
    if manifest is None or not all(path.is_file() for path in paths):
        reason = "missing"
    elif manifest.get("fingerprint") != fingerprint:
        reason = "stale"
    else:
        kept, dropped = manifest.get("rows_kept"), manifest.get("rows_dropped")
        if type(kept) is int and kept > 0 and type(dropped) is int and dropped >= 0:
            matrix, rows = (_vouched_array(path, manifest, kept) for path in paths)
            if matrix is not None and rows is not None and matrix.shape == (kept, kept):
                logger.info("distance cache hit: %s", paths[0])
                return matrix, rows, dropped
        reason = "damaged"
    logger.info("distance cache %s, rewriting", reason)
    return None


def _replace(path: Path, *parts: bytes | memoryview) -> None:
    """Give ``path`` the content ``parts``, joined, through a temporary file beside it and a rename.

    The only code that creates a file; it creates the parent directory too.
    ``path`` holds its old content or all of the new, never part of it; a
    write that raises removes its temporary file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _write_artifact(path: Path, *parts: bytes | memoryview) -> bool:
    """Give ``path`` the content ``parts``, joined, writing only when it holds other bytes.

    A file that already holds exactly that content is left alone, mtime
    included; any other content, or no file, is replaced through
    ``_replace``. Returns whether it wrote. Parts are compared by
    ``bytes.startswith``, a memcmp.
    """
    try:
        with open(path, "rb") as fh:
            if all(fh.read(len(part)).startswith(part) for part in parts) and not fh.read(1):  # not extended
                return False
    except OSError:  # missing or unreadable: written below, or the write says why not
        pass
    _replace(path, *parts)
    return True


@dataclass
class DiagramSet:
    deaths: np.ndarray  # (rows, m+1) ascending, the shared cap last
    maxscale: float
    labels: np.ndarray
    prepared: PreparedData | None  # None when served from the distance cache
    fingerprint: str  # features_fingerprint of the run's config and inputs
    rows_dropped: int  # incomplete rows the parser skipped
    exported: bool = False  # whether compute_diagrams wrote diagrams.npy (its manifest aside)

    @property
    def rows_kept(self) -> int:
        return self.labels.size

    @property
    def diagrams(self) -> list[SimpleNamespace]:
        """Each row as an object whose ``pairs`` is the (m+1, 2) float64 array [0, death], built on every read.

        No stage reads it: only ``perfbench/checks.py`` and ``perfbench/test_perfbench.py``, until they read ``deaths``.
        """
        births = np.zeros(self.deaths.shape[1])
        return [SimpleNamespace(pairs=np.column_stack([births, row])) for row in self.deaths]


def compute_diagrams(config: ExperimentConfig, inputs: RunInputs | None = None) -> DiagramSet:
    """Dimension-0 diagrams of every kept row, in closed form, exported to the cache directory.

    Parses and transforms the table (``prepare_features``, given the
    caller's ``inputs`` if any) and takes each row's deaths from
    ``dim0_diagrams``. This alone writes the export, ``diagrams.npy`` with
    its manifest, through ``_write_artifact``: a run with the same diagrams
    leaves it alone. ``compute_distances`` calls this only when the
    distance cache cannot serve the run; the ``diagrams`` command always does.
    """
    if inputs is None:
        inputs = read_inputs(config)
    prepared = prepare_features(config, inputs)
    with _stage("diagrams"):
        deaths, maxscale = dim0_diagrams(prepared.features.values, config.maxscale, config.maxscale_safety)
        labels, dropped = prepared.features.labels, prepared.parse_report.dropped_rows
        exported = False
        if config.cache_dir is not None:
            export = config.cache_dir / "diagrams.npy"
            header, data = _npy_parts(deaths)  # written and hashed in turn, as save_distance_matrix does
            exported = _write_artifact(export, header, data)
            digest = hashlib.sha256(header)
            digest.update(data)
            _write_artifact(export.with_suffix(".manifest.json"), _manifest_text({
                "bytes": len(header) + len(data), "fingerprint": inputs.fingerprint, "maxscale": maxscale,
                "safety": config.maxscale_safety, "sha256": digest.hexdigest(), "version": __version__,
            }).encode())
    return DiagramSet(deaths, maxscale, labels, prepared, inputs.fingerprint, dropped, exported)


def compute_distances(config: ExperimentConfig, inputs: RunInputs | None = None) -> tuple[DiagramSet, np.ndarray]:
    """Every kept row's diagram and the pairwise Wasserstein matrix, from the distance cache or computed.

    ``inputs`` are the files as the caller read them; without them each
    file is read here, once. A hit (``_cache_hit``) serves the run: the
    deaths (a view) and labels are the columns of ``rows.npy`` and the cap
    is the deaths' last column; nothing is written. Otherwise
    ``compute_diagrams`` runs and the matrix is computed; with a cache
    directory each file of ``CACHE_FILES`` is written, then the manifest
    that vouches for them, so an interrupted write leaves at worst files
    that ``_cache_hit`` rejects.
    """
    if inputs is None:
        inputs = read_inputs(config)
    fingerprint = _cache_fingerprint(config, inputs.fingerprint)
    with _stage("cache"):
        hit = None if config.cache_dir is None else _cache_hit(config.cache_dir, fingerprint)
    if hit is not None:
        matrix, rows, dropped = hit
        deaths, labels = rows[:, :-1], rows[:, -1].astype(np.int64)
        logger.info(
            "served %d rows from the distance cache: kept %d, dropped %d incomplete",
            labels.size + dropped, labels.size, dropped,
        )
        return DiagramSet(deaths, float(deaths[0, -1]), labels, None, inputs.fingerprint, dropped), matrix
    diagram_set = compute_diagrams(config, inputs)
    with _stage("distances"):
        matrix = distance_matrix(diagram_set.deaths, config.wasserstein_p)
        if config.cache_dir is None:
            return diagram_set, matrix
        rows = np.column_stack([diagram_set.deaths, diagram_set.labels])
        files = {
            name: dict(zip(("bytes", "sha256"), save_distance_matrix(array, config.cache_dir / name)))
            for name, array in zip(CACHE_FILES, (matrix, rows))
        }
        _replace(config.cache_dir / "distances.manifest.json", _manifest_text({
            "algorithm": ALGORITHM, "files": files, "fingerprint": fingerprint,
            "maxscale": diagram_set.maxscale, "p": config.wasserstein_p,
            "rows_dropped": diagram_set.rows_dropped, "rows_kept": diagram_set.rows_kept,
            "version": __version__,
        }).encode())
    return diagram_set, matrix


@dataclass
class RunResult:
    diagram_set: DiagramSet
    distances: np.ndarray
    validation: tuple[EvaluationReport, ...]  # classify_stage's: () under k-fold
    report: EvaluationReport
    artifacts: dict[str, Path]


def classify_stage(
    config: ExperimentConfig, distances: np.ndarray, labels: np.ndarray
) -> tuple[tuple[EvaluationReport, ...], EvaluationReport]:
    """The configured protocol: k from ``config.k`` or chosen over the grid.

    Both protocols take ``config.split`` whole. Returns the validation
    report of each k, ascending (hold-out; ``()`` under k-fold), and the
    report of the k that was used, which is its ``k``.
    """
    with _stage("classify"):
        k_grid = [config.k] if config.k is not None else list(config.k_grid)
        if config.split.mode == "holdout":
            return evaluate_split(distances, labels, config.split, k_grid)
        return (), select_k_kfold(distances, labels, config.split, k_grid)


def run_pipeline(config: ExperimentConfig) -> RunResult:
    """Execute the full experiment and write report artifacts.

    The diagrams and distances come from ``compute_distances``, served
    from the distance cache whenever it holds this run's fingerprint.
    """
    diagram_set, distances = compute_distances(config)
    validation, report = classify_stage(config, distances, diagram_set.labels)
    with _stage("report"):
        artifacts = write_artifacts(config, diagram_set, validation, report)
    return RunResult(diagram_set, distances, validation, report, artifacts)


def write_artifacts(
    config: ExperimentConfig,
    diagram_set: DiagramSet,
    validation: tuple[EvaluationReport, ...],
    report: EvaluationReport,
) -> dict[str, Path]:
    """Write the run's report files to ``config.out_dir`` with ``_write_artifact``.

    ``validation`` and ``report`` are ``classify_stage``'s. Returns the files
    by role. A hold-out run writes its validation table, under the k chosen
    (``report.k``), to ``report.txt`` and ``validation.csv``; a k-fold run
    removes the ``validation.csv`` of an earlier hold-out run.
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
        "rows_kept": diagram_set.rows_kept,
        "rows_dropped": diagram_set.rows_dropped,
    }
    holdout = config.split.mode == "holdout"
    title = "test set" if holdout else f"{config.split.folds}-fold cross-validation"
    text = format_report_text(report, title=title)
    if holdout:
        text += "\nvalidation sweep (k chosen = %d):\n" % report.k
        text += format_validation_table(validation)
    rows = report.predictions
    predictions = "row,true,predicted\n" + "%d,%d,%d\n" * len(rows) % tuple(rows.ravel().tolist())
    files = {
        "manifest": ("run_manifest.json", _manifest_text(manifest)),
        "report": ("report.txt", text),
        "report_kv": ("report.kv", format_report_kv(report)),
        "predictions": ("predictions.csv", predictions),
    }
    if holdout:
        files["validation"] = ("validation.csv", format_validation_table(validation))
    else:  # a hold-out run's table would not describe this run
        (out / "validation.csv").unlink(missing_ok=True)
    artifacts: dict[str, Path] = {}
    for role, (name, text) in files.items():
        artifacts[role] = out / name
        _write_artifact(artifacts[role], text.encode("utf-8"))
    return artifacts
