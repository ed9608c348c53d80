import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from topmix.cli import main as cli_main
from topmix.errors import ContractError, TopmixError
from topmix.evaluate import SplitSpec
from topmix.pipeline import (
    CONFIG_KEYS,
    SPLIT_KEYS,
    ExperimentConfig,
    compute_diagrams,
    compute_distances,
    features_fingerprint,
    load_experiment_config,
    prepare_features,
    run_pipeline,
    save_distance_matrix,
    _write_artifact,
)

from conftest import CLEVELAND_SCHEMA, REPO_ROOT, synthetic_cleveland_rows, write_config
from oracles import PersistenceDiagram, build_point_cloud, holdout_indices


@pytest.fixture
def mirrored_pair_setup(tmp_path, small_mixed_schema_file):
    """Two rows that are coordinate swaps of each other: (1,2) and (2,1)."""
    schema = tmp_path / "pair.schema.json"
    schema.write_text(
        json.dumps(
            {
                "attributes": [
                    {"name": "u", "kind": "numeric"},
                    {"name": "v", "kind": "numeric"},
                ],
                "target": {"name": "y", "positive_rule": {"kind": "greater-than", "threshold": 0.0}},
            }
        ),
        encoding="utf-8",
    )
    data = tmp_path / "pair.csv"
    data.write_text("1.0,2.0,0\n2.0,1.0,1\n", encoding="utf-8")
    return data, schema


def _config_for(tmp_path, data, schema, name="cfg.json", **fields):
    defaults = dict(
        data=str(data),
        schema=str(schema),
        cache_dir=str(tmp_path / "cache"),
        out_dir=str(tmp_path / "out"),
    )
    defaults.update(fields)
    return write_config(tmp_path / name, **defaults)


class TestConfig:
    def test_missing_paths_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", data="nope.csv", schema="nope.json")
        with pytest.raises(ContractError, match="does not exist"):
            load_experiment_config(cfg)

    def test_kfold_with_train_scope_rejected(self, tmp_path, small_mixed_file, small_mixed_schema_file):
        cfg = _config_for(
            tmp_path, small_mixed_file, small_mixed_schema_file,
            standardize_scope="train", split={"mode": "kfold", "folds": 3, "seed": 0},
        )
        with pytest.raises(ContractError, match="holdout"):
            load_experiment_config(cfg)

    def test_relative_paths_resolve_against_config(self, tmp_path, small_mixed_file, small_mixed_schema_file):
        (tmp_path / "d.csv").write_text(small_mixed_file.read_text(), encoding="utf-8")
        (tmp_path / "s.json").write_text(small_mixed_schema_file.read_text(), encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", data="d.csv", schema="s.json")
        config = load_experiment_config(cfg)
        assert config.data_path == tmp_path / "d.csv"

    def test_bad_symmetry_vector_name(self, tmp_path, small_mixed_file, small_mixed_schema_file):
        cfg = _config_for(tmp_path, small_mixed_file, small_mixed_schema_file, symmetry_vector="nope")
        with pytest.raises(ContractError):
            load_experiment_config(cfg)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"wasserstien_p": 2.0}, "unknown config key 'wasserstien_p'; did you mean 'wasserstein_p'"),
            ({"split": {"mode": "holdout", "sede": 3}}, "unknown split key 'sede'; did you mean 'seed'"),
        ],
        ids=["top-level", "split"],
    )
    def test_misspelled_key_rejected(
        self, tmp_path, small_mixed_file, small_mixed_schema_file, fields, message
    ):
        cfg = _config_for(tmp_path, small_mixed_file, small_mixed_schema_file, **fields)
        with pytest.raises(ContractError, match=message):
            load_experiment_config(cfg)

    def test_shipped_and_default_configs_load(self, tmp_path, small_mixed_file, small_mixed_schema_file):
        config = load_experiment_config(REPO_ROOT / "configs" / "example.json")
        assert config.k_grid == (1, 2, 3, 4, 5)
        config = load_experiment_config(REPO_ROOT / "configs" / "example_kfold.json")
        assert (config.split.mode, config.split.folds, config.k_grid) == ("kfold", 5, (1, 2, 3, 4, 5))
        config = load_experiment_config(_config_for(tmp_path, small_mixed_file, small_mixed_schema_file))
        assert config.k_grid == tuple(range(1, 11))
        # the real-data configs name a file that may be absent; check their keys
        for path in sorted((REPO_ROOT / "configs").glob("*.json")):
            if not path.name.endswith(".schema.json"):
                doc = json.loads(path.read_text(encoding="utf-8"))
                assert set(doc) <= set(CONFIG_KEYS), path.name
                assert set(doc["split"]) <= set(SPLIT_KEYS), path.name

    def test_data_and_schema_alone_take_every_dataclass_default(
        self, tmp_path, small_mixed_file, small_mixed_schema_file
    ):
        cfg = tmp_path / "minimal.json"
        cfg.write_text(json.dumps({"data": str(small_mixed_file), "schema": str(small_mixed_schema_file)}))
        config = load_experiment_config(cfg)
        assert (config.data_path, config.schema_path) == (small_mixed_file, small_mixed_schema_file)
        assert config.out_dir == tmp_path / "out"  # beside the config, not the dataclass's ./out
        for field in fields(ExperimentConfig):
            if field.name not in ("data_path", "schema_path", "out_dir"):
                assert getattr(config, field.name) == field.default, field.name
        assert set(CONFIG_KEYS) == {"data", "schema"} | {f.name for f in fields(ExperimentConfig)[2:]}
        assert set(SPLIT_KEYS) == {f.name for f in fields(SplitSpec)}

    @pytest.mark.parametrize(
        "fields_, overrides, message",
        [
            ({"out_dir": None}, None, "invalid config value for 'out_dir': None"),
            ({"split": {"mode": "holdout", "train_frac": float("nan")}}, None, "train_frac must be finite, got nan"),
            ({"split": {"mode": "holdout", "val_frac": float("nan")}}, None, "val_frac must be finite, got nan"),
            ({"split": {"mode": "holdout", "test_frac": float("nan")}}, None, "test_frac must be finite, got nan"),
            ({"split": {"mode": "holdout", "seed": -1}}, None, "split seed must be >= 0, got -1"),
            ({}, {"split_seed": -1}, "split seed must be >= 0, got -1"),
        ],
        ids=["out_dir_null", "train_frac_nan", "val_frac_nan", "test_frac_nan", "seed", "seed_override"],
    )
    def test_bad_value_named(
        self, tmp_path, small_mixed_file, small_mixed_schema_file, fields_, overrides, message
    ):
        cfg = _config_for(tmp_path, small_mixed_file, small_mixed_schema_file, **fields_)
        with pytest.raises(ContractError, match=re.escape(message)):
            load_experiment_config(cfg, overrides)

    def test_removed_worker_count_key_rejected(self, tmp_path, small_mixed_file, small_mixed_schema_file):
        cfg = _config_for(tmp_path, small_mixed_file, small_mixed_schema_file, threads=4)
        with pytest.raises(ContractError, match="unknown config key 'threads'"):
            load_experiment_config(cfg)

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("truncated", "cannot read config"),
            ("missing", "cannot read config"),
            ("k", "invalid config value for 'k': 'five'"),
            ("wasserstein_p", "invalid config value for 'wasserstein_p': 'two'"),
            ("stratified", "invalid split value for 'stratified': 'false'"),
            ("empty_delimiter", "delimiter must be a non-empty string, got ''"),
            ("numeric_delimiter", "delimiter must be a non-empty string, got 5"),
            ("split_list_with_seed", "split must be a JSON object"),
            ("p_bool", "invalid config value for 'wasserstein_p': True"),
            ("p_string", "invalid config value for 'wasserstein_p': '2'"),
            ("safety_string", "invalid config value for 'maxscale_safety': ' 1.5 '"),
            ("maxscale_string", "invalid config value for 'maxscale': '40'"),
            ("train_frac_string", "invalid split value for 'train_frac': '0.6'"),
            ("vector_string", "invalid config value for 'symmetry_vector': [1.0, '2']"),
            ("vector_bool", "invalid config value for 'symmetry_vector': [1.0, False]"),
            ("vector_nan", "symmetry_vector must be finite, got [1.0, nan]"),
            ("vector_inf", "symmetry_vector must be finite, got [-inf, 1.0]"),
            ("vector_empty", "symmetry_vector must hold one value per encoded column, got []"),
        ],
    )
    def test_malformed_config_exits_1(
        self, tmp_path, small_mixed_file, small_mixed_schema_file, capsys, damage, message
    ):
        overrides, seed_args = None, []
        if damage == "missing":
            cfg = tmp_path / "absent.json"
        elif damage == "truncated":
            cfg = _config_for(tmp_path, small_mixed_file, small_mixed_schema_file)
            cfg.write_bytes(cfg.read_bytes()[:20])
        elif damage == "stratified":  # bool("false") would be True
            split = {"mode": "holdout", "stratified": "false"}
            cfg = _config_for(tmp_path, small_mixed_file, small_mixed_schema_file, split=split)
        elif damage == "split_list_with_seed":  # the --seed override writes into split
            cfg = _config_for(tmp_path, small_mixed_file, small_mixed_schema_file, split=[])
            overrides, seed_args = {"split_seed": 3}, ["--seed", "3"]
        else:
            key, value = {
                "k": ("k", "five"),
                "wasserstein_p": ("wasserstein_p", "two"),
                "empty_delimiter": ("delimiter", ""),
                "numeric_delimiter": ("delimiter", 5),
                "p_bool": ("wasserstein_p", True),  # float(True) would run at p = 1
                "p_string": ("wasserstein_p", "2"),
                "safety_string": ("maxscale_safety", " 1.5 "),
                "maxscale_string": ("maxscale", "40"),
                "train_frac_string": ("split", {"train_frac": "0.6"}),
                "vector_string": ("symmetry_vector", [1.0, "2"]),
                "vector_bool": ("symmetry_vector", [1.0, False]),
                "vector_nan": ("symmetry_vector", [1.0, float("nan")]),
                "vector_inf": ("symmetry_vector", [float("-inf"), 1.0]),
                "vector_empty": ("symmetry_vector", []),
            }[damage]
            cfg = _config_for(tmp_path, small_mixed_file, small_mixed_schema_file, **{key: value})
        with pytest.raises(ContractError, match=re.escape(message)):
            load_experiment_config(cfg, overrides)
        assert cli_main(["classify", "--config", str(cfg), *seed_args]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"k": 2.7}, "invalid config value for 'k': 2.7"),
            ({"k_grid": [1, True]}, "invalid config value for 'k_grid': [1, True]"),
            ({"split": {"mode": "holdout", "seed": 1.5}}, "invalid split value for 'seed': 1.5"),
            ({"split": {"mode": "kfold", "folds": True}}, "invalid split value for 'folds': True"),
        ],
        ids=["k", "k_grid", "seed", "folds"],
    )
    def test_non_integral_value_rejected(
        self, tmp_path, small_mixed_file, small_mixed_schema_file, fields, message
    ):
        cfg = _config_for(tmp_path, small_mixed_file, small_mixed_schema_file, **fields)
        with pytest.raises(ContractError, match=re.escape(message)):
            load_experiment_config(cfg)

    def test_integral_float_accepted(self, tmp_path, small_mixed_file, small_mixed_schema_file):
        cfg = _config_for(tmp_path, small_mixed_file, small_mixed_schema_file, k=3.0, k_grid=[1.0, 3])
        config = load_experiment_config(cfg)
        assert (config.k, config.k_grid) == (3, (1, 3))
        assert type(config.k) is int

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"k": 0}, "k must be >= 1, got 0"),
            ({"k_grid": []}, "k_grid must be non-empty with every k >= 1, got ()"),
            ({"k_grid": [0, 3]}, "k_grid must be non-empty with every k >= 1, got (0, 3)"),
        ],
        ids=["k", "empty_grid", "grid_zero"],
    )
    def test_k_out_of_range_exits_1(
        self, tmp_path, small_mixed_file, small_mixed_schema_file, capsys, fields, message
    ):
        split = {"mode": "kfold", "folds": 3, "seed": 0}
        cfg = _config_for(tmp_path, small_mixed_file, small_mixed_schema_file, split=split, **fields)
        with pytest.raises(ContractError, match=re.escape(message)):
            load_experiment_config(cfg)
        assert cli_main(["classify", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields, argv, key",
        [
            ({"k": 2**63}, [], "k"),
            ({"k_grid": [1, 2**63]}, [], "k_grid"),
            ({}, ["--k", "1000000000000000000000000000000"], "k"),
        ],
        ids=["k", "k_grid", "--k"],
    )
    def test_k_beyond_int64_exits_1_before_any_stage(self, tmp_path, capsys, fields, argv, key):
        data, schema = _synth_files(tmp_path)
        cfg = _config_for(tmp_path, data, schema, **fields)
        assert cli_main(["classify", "--config", str(cfg), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config value for {key!r}: ")
        assert err.count("\n") == 1 and "outside the int64 range" in err
        assert not (tmp_path / "cache").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["maxscale", "maxscale_safety", "wasserstein_p"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, small_mixed_file, small_mixed_schema_file, key, value):
        # Python's json writes and reads NaN, Infinity and -Infinity
        cfg = _config_for(tmp_path, small_mixed_file, small_mixed_schema_file, **{key: value})
        with pytest.raises(ContractError, match=re.escape(f"{key} must be finite, got {value!r}")):
            load_experiment_config(cfg)

    def test_integer_number_accepted(self, tmp_path, small_mixed_file, small_mixed_schema_file):
        cfg = _config_for(
            tmp_path, small_mixed_file, small_mixed_schema_file,
            wasserstein_p=2, maxscale=40, symmetry_vector=[1, 2.5],
        )
        config = load_experiment_config(cfg)
        assert (config.wasserstein_p, config.maxscale, config.symmetry_vector) == (2.0, 40.0, (1.0, 2.5))
        assert type(config.wasserstein_p) is float and type(config.maxscale) is float

    @pytest.mark.parametrize("value", [0.5, 0.0, -1.0])
    def test_order_below_one_rejected(self, tmp_path, small_mixed_file, small_mixed_schema_file, value):
        cfg = _config_for(tmp_path, small_mixed_file, small_mixed_schema_file, wasserstein_p=value)
        with pytest.raises(ContractError, match=re.escape(f"wasserstein_p must be >= 1, got {value!r}")):
            load_experiment_config(cfg)

    def test_overflowing_literal_rejected(self, tmp_path, small_mixed_file, small_mixed_schema_file):
        cfg = _config_for(tmp_path, small_mixed_file, small_mixed_schema_file)
        cfg.write_text(cfg.read_text(encoding="utf-8").replace('"maxscale": null', '"maxscale": 1e999'), encoding="utf-8")
        with pytest.raises(ContractError, match="maxscale must be finite, got inf"):
            load_experiment_config(cfg)

    def test_explicit_vector_wrong_length(self, tmp_path, small_mixed_file, small_mixed_schema_file):
        cfg = _config_for(tmp_path, small_mixed_file, small_mixed_schema_file, symmetry_vector=[1.0, 2.0])
        config = load_experiment_config(cfg)
        with pytest.raises(ContractError, match=r"^\[stage symmetry-break\] symmetry vector length 2 != matrix width 4$"):
            prepare_features(config)

    def test_empty_vector_exits_1_before_any_stage(self, tmp_path, capsys):
        # the encoded width is unknown until the table is read, but no width is 0
        data, schema = _synth_files(tmp_path)
        cfg = _config_for(tmp_path, data, schema, symmetry_vector=[])
        assert cli_main(["classify", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "error: symmetry_vector must hold one value per encoded column, got []\n"
        assert not (tmp_path / "cache").exists() and not (tmp_path / "out").exists()


# Odd JSON values for every config and split key, and odd values of the numeric CLI overrides.
_ODD_VALUES = [None, True, False, 0, -1, -(2**70), 2**63 - 1, 2**63, 10**30, 0.5, -2.5, 1e308, "", "x", [], [2], {}, {"k": 1}]
_ODD_OVERRIDES = [
    *(f"--k={v}" for v in ("0", "-1", "3", "9223372036854775807", "9223372036854775808", "1" + "0" * 30)),
    *(f"--seed={v}" for v in ("-1", "9223372036854775808", "1" + "0" * 30)),
    *(f"{flag}={v}" for flag in ("--p", "--maxscale-safety") for v in ("nan", "inf", "-inf", "-1", "0.5", "1.5", "1e308")),
]


def _exits_cleanly(argv, capsys) -> None:
    """The command exits 0, or exits 1 with one ``error:`` line; an uncaught exception fails the test."""
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1) and "Traceback" not in err
    assert code == 0 or [line.startswith("error: ") for line in err.splitlines()] == [True], err


@pytest.fixture(scope="module")
def fuzz_table(tmp_path_factory):
    return _synth_files(tmp_path_factory.mktemp("fuzz"), n=40)


@pytest.mark.parametrize("value", _ODD_VALUES, ids=repr)
@pytest.mark.parametrize("key", [*CONFIG_KEYS, *(f"split.{key}" for key in SPLIT_KEYS)])
def test_odd_config_value_exits_cleanly(tmp_path, capsys, fuzz_table, key, value):
    data, schema = fuzz_table
    fields = {"data": str(data), "schema": str(schema), "k_grid": [1, 3], "out_dir": str(tmp_path / "out")}
    if key.startswith("split."):
        fields["split"] = {"mode": "holdout", "seed": 0, key[len("split."):]: value}
    else:
        fields[key] = value
    _exits_cleanly(["classify", "--config", str(write_config(tmp_path / "cfg.json", **fields))], capsys)


@pytest.mark.parametrize("override", _ODD_OVERRIDES)
def test_odd_cli_override_exits_cleanly(tmp_path, capsys, fuzz_table, override):
    cfg = _config_for(tmp_path, *fuzz_table, k_grid=[1, 3], cache_dir=None)
    _exits_cleanly(["classify", "--config", str(cfg), override], capsys)


class TestSymmetryVectorModes:
    def test_zero_vector_makes_mirrored_rows_indistinguishable(self, tmp_path, mirrored_pair_setup):
        data, schema = mirrored_pair_setup
        cfg = _config_for(tmp_path, data, schema, symmetry_vector="zero")
        a, b = compute_diagrams(load_experiment_config(cfg)).deaths
        assert np.array_equal(a, b)

    def test_default_vector_separates_mirrored_rows(self, tmp_path, mirrored_pair_setup):
        data, schema = mirrored_pair_setup
        cfg = _config_for(tmp_path, data, schema, symmetry_vector="default")
        a, b = compute_diagrams(load_experiment_config(cfg)).deaths
        assert not np.array_equal(a, b)


def _synth_files(tmp_path, n=60, seed=13):
    data = tmp_path / "synth.csv"
    data.write_text("\n".join(synthetic_cleveland_rows(n, 0, seed=seed)) + "\n", encoding="utf-8")
    return data, CLEVELAND_SCHEMA


def _fail_temporary_writes(monkeypatch, prefix=""):
    """The first write to a temporary file named ``.{prefix}...`` writes half its bytes, then fails."""
    import builtins
    import topmix.pipeline as pipeline

    class HalfWritten:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(bytes(data)[: len(data) // 2])
            raise OSError("no space left on device")

    def failing_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return HalfWritten(fh) if "w" in mode and Path(file).name.startswith(f".{prefix}") else fh

    monkeypatch.setattr(pipeline, "open", failing_open, raising=False)


def _tree(root):
    """Every file under ``root`` by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestRunPipeline:
    def test_holdout_run_produces_artifacts(self, tmp_path):
        data, schema = _synth_files(tmp_path)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3, 5])
        result = run_pipeline(load_experiment_config(cfg))
        out = tmp_path / "out"
        for name in ("run_manifest.json", "report.txt", "report.kv", "predictions.csv", "validation.csv"):
            assert (out / name).exists(), name
        assert [row.k for row in result.validation] == [1, 3, 5]
        assert result.report.k == max(result.validation, key=lambda row: row.accuracy).k  # the first best
        assert f"validation sweep (k chosen = {result.report.k}):" in (out / "report.txt").read_text()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["rows_kept"] == 60
        assert manifest["maxscale"] == result.diagram_set.maxscale

    def test_kfold_run(self, tmp_path):
        data, schema = _synth_files(tmp_path)
        cfg = _config_for(
            tmp_path, data, schema,
            split={"mode": "kfold", "folds": 5, "seed": 1}, k=3,
        )
        result = run_pipeline(load_experiment_config(cfg))
        assert result.validation == ()
        assert len(result.report.fold_accuracies) == 5
        assert result.report.counts.total == 60

    def test_kfold_run_removes_the_holdout_validation_table(self, tmp_path):
        data, schema = _synth_files(tmp_path)
        holdout = _config_for(tmp_path, data, schema, name="h.json", k_grid=[1, 3])
        kfold = _config_for(tmp_path, data, schema, name="k.json", split={"mode": "kfold", "folds": 5}, k=3)
        assert "validation" in run_pipeline(load_experiment_config(holdout)).artifacts
        assert "validation" not in run_pipeline(load_experiment_config(kfold)).artifacts
        assert json.loads((tmp_path / "out" / "run_manifest.json").read_text())["split_mode"] == "kfold"
        assert not (tmp_path / "out" / "validation.csv").exists()

    def test_inputs_hashed_once_per_run(self, tmp_path, monkeypatch):
        # each input is opened once, schema first, and those bytes are hashed;
        # the cold run parses them, the warm one is served from the cache
        import io

        import topmix.pipeline as pipeline

        opened, hashed = [], []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        fingerprint = pipeline.features_fingerprint
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr("builtins.open", counting_open)
        monkeypatch.setattr(
            pipeline, "features_fingerprint", lambda *args: hashed.append(args[1:]) or fingerprint(*args)
        )
        data, schema = _synth_files(tmp_path)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3])
        for warm in (False, True):
            opened.clear()
            hashed.clear()
            run_pipeline(load_experiment_config(cfg))
            assert [p for p in opened if p in (str(data), str(schema))] == [str(schema), str(data)], warm
            assert hashed == [(data.read_bytes(), schema.read_bytes())], warm

    def test_input_changed_after_parse_does_not_lend_its_fingerprint(self, tmp_path, monkeypatch, caplog):
        import topmix.pipeline as pipeline

        data, schema = _synth_files(tmp_path, n=20)
        lines = data.read_text(encoding="utf-8").splitlines()
        field = lines[0].split(",")
        field[0] = str(float(field[0]) + 7.0)  # the age of row 0
        edited = "\n".join([",".join(field)] + lines[1:]) + "\n"
        parse = pipeline.parse_dataset

        def parse_then_edit(*args, **kwargs):
            result = parse(*args, **kwargs)
            data.write_text(edited, encoding="utf-8")
            return result

        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3])
        monkeypatch.setattr(pipeline, "parse_dataset", parse_then_edit)
        run_pipeline(load_experiment_config(cfg))  # caches distances of the table it parsed
        monkeypatch.undo()
        with caplog.at_level(logging.INFO, logger="topmix"):
            second = run_pipeline(load_experiment_config(cfg))
        assert "distance cache stale, rewriting" in caplog.text
        uncached = _config_for(tmp_path, data, schema, name="uncached.json", cache_dir=None)
        assert np.array_equal(second.distances, run_pipeline(load_experiment_config(uncached)).distances)

    def test_warm_cache_rerun_identical(self, tmp_path):
        data, schema = _synth_files(tmp_path)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3])
        config = load_experiment_config(cfg)
        first = run_pipeline(config)
        artifacts_before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        second = run_pipeline(load_experiment_config(cfg))
        artifacts_after = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert artifacts_before == artifacts_after
        assert np.array_equal(first.distances, second.distances)

    @pytest.mark.parametrize("mode", ["holdout", "kfold"])
    def test_warm_rerun_writes_nothing_to_out_dir(self, tmp_path, mode):
        data, schema = _synth_files(tmp_path)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3], split={"mode": mode, "folds": 5})
        run_pipeline(load_experiment_config(cfg))
        out = tmp_path / "out"
        before = _tree(out)
        for path in [out, *out.iterdir()]:
            os.utime(path, ns=(0, 0))
        run_pipeline(load_experiment_config(cfg))
        assert _tree(out) == before
        # no file was rewritten, nor created and renamed into the directory
        assert {p.name: p.stat().st_mtime_ns for p in [out, *out.iterdir()]} == dict.fromkeys(["out", *before], 0)

    @pytest.mark.parametrize("change", [{"k": 3}, {"split_seed": 4}], ids=["k", "seed"])
    @pytest.mark.parametrize("mode", ["holdout", "kfold"])
    def test_changed_run_leaves_out_dir_as_a_fresh_run(self, tmp_path, mode, change):
        data, schema = _synth_files(tmp_path)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3, 5], split={"mode": mode, "folds": 5})
        run_pipeline(load_experiment_config(cfg))
        before = _tree(tmp_path / "out")
        run_pipeline(load_experiment_config(cfg, change))
        run_pipeline(load_experiment_config(cfg, {**change, "out_dir": str(tmp_path / "fresh")}))
        assert _tree(tmp_path / "out") == _tree(tmp_path / "fresh") != before

    @pytest.mark.parametrize("damage", ["truncated", "extended", "same_size_edit"])
    def test_damaged_artifacts_rewritten(self, tmp_path, damage):
        data, schema = _synth_files(tmp_path)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3])
        run_pipeline(load_experiment_config(cfg))
        out = tmp_path / "out"
        before = _tree(out)
        for name, content in before.items():
            (out / name).write_bytes({
                "truncated": content[:-1],
                "extended": content + b"\n",
                "same_size_edit": content[:-2] + b"#\n",
            }[damage])
        run_pipeline(load_experiment_config(cfg))
        assert _tree(out) == before

    def test_failed_artifact_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        data, schema = _synth_files(tmp_path)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3])
        run_pipeline(load_experiment_config(cfg))
        out = tmp_path / "out"
        before = _tree(out)
        # k = 3 changes every report file; the caches are warm and not written
        _fail_temporary_writes(monkeypatch)
        with pytest.raises(TopmixError, match="stage report.*no space"):
            run_pipeline(load_experiment_config(cfg, {"k": 3}))
        monkeypatch.undo()
        assert _tree(out) == before  # and no temporary file beside them

    def test_two_cold_runs_byte_identical(self, tmp_path):
        data, schema = _synth_files(tmp_path)
        cfg_a = _config_for(
            tmp_path, data, schema, name="a.json",
            cache_dir=str(tmp_path / "cache_a"), out_dir=str(tmp_path / "out_a"),
        )
        cfg_b = _config_for(
            tmp_path, data, schema, name="b.json",
            cache_dir=str(tmp_path / "cache_b"), out_dir=str(tmp_path / "out_b"),
        )
        run_pipeline(load_experiment_config(cfg_a))
        run_pipeline(load_experiment_config(cfg_b))
        for name in ("run_manifest.json", "report.txt", "report.kv", "predictions.csv"):
            assert (tmp_path / "out_a" / name).read_bytes() == (tmp_path / "out_b" / name).read_bytes()
        for name in ("diagrams.npy", "distances.npy"):
            assert (tmp_path / "cache_a" / name).read_bytes() == (tmp_path / "cache_b" / name).read_bytes()

    def test_stale_cache_recomputed(self, tmp_path):
        data, schema = _synth_files(tmp_path)
        cfg = _config_for(tmp_path, data, schema)
        config = load_experiment_config(cfg)
        fp_before = compute_diagrams(config).fingerprint

        cfg2 = _config_for(tmp_path, data, schema, name="cfg2.json", symmetry_vector="zero")
        config2 = load_experiment_config(cfg2)
        inputs = (data.read_bytes(), schema.read_bytes())
        assert features_fingerprint(config2, *inputs) != fp_before
        diagram_set = compute_diagrams(config2)  # same cache dir, stale manifest
        manifest = json.loads((tmp_path / "cache" / "diagrams.manifest.json").read_text())
        assert manifest["fingerprint"] == features_fingerprint(config2, *inputs) == diagram_set.fingerprint
        assert diagram_set.deaths.shape[0] == 60

    def test_diagram_export_rewritten_only_when_missing(self, tmp_path):
        data, schema = _synth_files(tmp_path, n=20)
        config = load_experiment_config(_config_for(tmp_path, data, schema))
        compute_diagrams(config)
        export = tmp_path / "cache" / "diagrams.npy"
        first = export.read_bytes()
        os.utime(export, ns=(0, 0))
        compute_diagrams(config)  # warm: the export is up to date and left alone
        assert export.stat().st_mtime_ns == 0
        export.unlink()
        compute_diagrams(config)
        assert export.read_bytes() == first

    def test_damaged_diagram_export_rewritten(self, tmp_path):
        data, schema = _synth_files(tmp_path, n=60)
        config = load_experiment_config(_config_for(tmp_path, data, schema))
        compute_diagrams(config)
        export = tmp_path / "cache" / "diagrams.npy"
        manifest = export.with_suffix(".manifest.json")
        first, first_manifest = export.read_bytes(), manifest.read_bytes()
        assert len(first) > 1000
        export.write_bytes(first[:1000])
        compute_diagrams(config)
        assert export.read_bytes() == first
        assert manifest.read_bytes() == first_manifest
        edited = first[:-1] + bytes([first[-1] ^ 1])  # same size, one bit of one death flipped
        assert len(edited) == len(first)
        export.write_bytes(edited)
        compute_diagrams(config)
        assert export.read_bytes() == first
        assert manifest.read_bytes() == first_manifest

    @pytest.mark.parametrize("damage", ["edited", "truncated", "deleted"])
    def test_damaged_diagram_manifest_rewritten_alone(self, tmp_path, damage):
        data, schema = _synth_files(tmp_path, n=20)
        config = load_experiment_config(_config_for(tmp_path, data, schema))
        compute_diagrams(config)
        export = tmp_path / "cache" / "diagrams.npy"
        manifest = export.with_suffix(".manifest.json")
        first = manifest.read_bytes()
        doc, content = json.loads(first), export.read_bytes()
        assert (doc["bytes"], doc["sha256"]) == (len(content), hashlib.sha256(content).hexdigest())
        if damage == "edited":
            manifest.write_bytes(first.replace(b'"safety"', b'"safetY"'))
        elif damage == "truncated":
            manifest.write_bytes(first[: len(first) // 2])
        else:
            manifest.unlink()
        os.utime(export, ns=(0, 0))
        compute_diagrams(config)
        assert manifest.read_bytes() == first
        assert export.stat().st_mtime_ns == 0

    @pytest.mark.parametrize(
        "before", [None, b"header and DATA", b"header and data, extended"], ids=["missing", "other", "extended"]
    )
    def test_write_artifact_says_it_wrote(self, tmp_path, before):
        path = tmp_path / "artifact"
        if before is not None:
            path.write_bytes(before)
        assert _write_artifact(path, b"header", b" and ", b"data") is True
        assert path.read_bytes() == b"header and data"

    def test_write_artifact_leaves_identical_bytes_and_says_so(self, tmp_path):
        path = tmp_path / "artifact"
        path.write_bytes(b"header and data")
        os.utime(path, ns=(0, 0))
        parts = [memoryview(b"header"), memoryview(b" and "), memoryview(bytearray(b"data"))]
        assert _write_artifact(path, *parts) is False
        assert path.stat().st_mtime_ns == 0
        assert path.read_bytes() == b"header and data"

    def test_distance_cache_of_another_algorithm_is_stale(self, tmp_path, caplog):
        data, schema = _synth_files(tmp_path, n=20)
        config = load_experiment_config(_config_for(tmp_path, data, schema, k_grid=[1, 3]))
        first = run_pipeline(config)
        manifest_file = tmp_path / "cache" / "distances.manifest.json"
        manifest = json.loads(manifest_file.read_text())
        # the tag-free fingerprint that assignment-solver caches were written with
        manifest["fingerprint"] = f"{first.diagram_set.fingerprint}:p={config.wasserstein_p!r}"
        # a well-formed matrix, vouched for by size and sha256, that must not be served
        size, sha256 = save_distance_matrix(2 * first.distances, tmp_path / "cache" / "distances.npy")
        manifest.update(bytes=size, sha256=sha256)
        manifest_file.write_text(json.dumps(manifest))
        with caplog.at_level(logging.INFO, logger="topmix"):
            second = run_pipeline(config)
        assert "distance cache stale" in caplog.text
        assert np.array_equal(first.distances, second.distances)

    @pytest.mark.parametrize(
        "damage", ["missing", "cut_mid_row", "garbage", "missing_last_row", "same_size_edit"]
    )
    def test_damaged_distance_cache_recomputed(self, tmp_path, caplog, damage):
        data, schema = _synth_files(tmp_path, n=20)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3])
        first = run_pipeline(load_experiment_config(cfg))
        cache_file = tmp_path / "cache" / "distances.npy"
        good = cache_file.read_bytes()
        row_bytes = 20 * 8
        header = len(good) - 20 * row_bytes
        if damage == "missing":
            cache_file.unlink()
        elif damage == "cut_mid_row":
            cache_file.write_bytes(good[: header + 10 * row_bytes + row_bytes // 2])
        elif damage == "garbage":
            cache_file.write_bytes(b"not,a\ndistance matrix\n")
        elif damage == "missing_last_row":
            cache_file.write_bytes(good[:-row_bytes])
        else:  # entry (0, 1) scaled by 100: a well-formed matrix of the same size
            matrix = np.load(cache_file)
            matrix[0, 1] *= 100
            np.save(cache_file, matrix)
            assert len(cache_file.read_bytes()) == len(good)
        reason = "missing" if damage == "missing" else "damaged"
        with caplog.at_level(logging.INFO, logger="topmix"):
            second = run_pipeline(load_experiment_config(cfg))
            assert f"distance cache {reason}, rewriting" in caplog.text
            assert "distance cache hit" not in caplog.text
            assert np.array_equal(first.distances, second.distances)
            assert cache_file.read_bytes() == good
            run_pipeline(load_experiment_config(cfg))  # the rewritten cache is served warm
            assert "distance cache hit" in caplog.text

    def test_distance_cache_hit_reads_the_file_once(self, tmp_path, monkeypatch):
        import builtins

        data, schema = _synth_files(tmp_path, n=20)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3])
        first = run_pipeline(load_experiment_config(cfg))
        cache_file = tmp_path / "cache" / "distances.npy"
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(cache_file):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        second = compute_distances(load_experiment_config(cfg))[1]
        assert len(opened) == 1
        assert second.flags.writeable and second.tobytes() == first.distances.tobytes()

    def test_interrupted_cache_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        data, schema = _synth_files(tmp_path, n=20)
        config = load_experiment_config(_config_for(tmp_path, data, schema, k_grid=[1, 3]))
        compute_diagrams(config)
        cache = tmp_path / "cache"
        files = {path.name: path.read_bytes() for path in cache.iterdir()}
        _fail_temporary_writes(monkeypatch, "distances.npy.")  # the matrix only; its manifest comes after it
        with pytest.raises(TopmixError, match="stage distances.*no space"):
            compute_distances(config)
        monkeypatch.undo()
        assert {path.name: path.read_bytes() for path in cache.iterdir()} == files

    def test_failed_rewrite_keeps_the_earlier_cache(self, tmp_path, caplog, monkeypatch):
        data, schema = _synth_files(tmp_path, n=20)
        config = load_experiment_config(_config_for(tmp_path, data, schema, k_grid=[1, 3]))
        first = run_pipeline(config)
        cache = tmp_path / "cache"
        files = {path.name: path.read_bytes() for path in cache.iterdir()}
        other = load_experiment_config(_config_for(tmp_path, data, schema, name="p2.json", wasserstein_p=2.0))
        compute_diagrams(other)  # the export is p-free: nothing to write
        assert {path.name: path.read_bytes() for path in cache.iterdir()} == files
        # at p = 2 the distance cache is stale; rewriting it fails halfway
        _fail_temporary_writes(monkeypatch, "distances.npy.")
        with pytest.raises(TopmixError, match="stage distances"):
            compute_distances(other)
        monkeypatch.undo()
        assert {path.name: path.read_bytes() for path in cache.iterdir()} == files
        with caplog.at_level(logging.INFO, logger="topmix"):
            second = run_pipeline(config)
        assert "distance cache hit" in caplog.text
        assert np.array_equal(first.distances, second.distances)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_distances_stage_logs_how_pairs_were_settled(self, synthetic_cleveland_file, tmp_path, caplog, p):
        config = load_experiment_config(
            _config_for(tmp_path, synthetic_cleveland_file, CLEVELAND_SCHEMA, cache_dir=None, wasserstein_p=p)
        )
        with caplog.at_level(logging.INFO, logger="topmix"):
            compute_distances(config)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("distances: ")]
        pairs = 297 * 296 // 2
        settled = pairs if p == 1.0 else 0
        assert lines == [
            f"distances: {pairs} pairs, {settled} settled by the sorted certificate, "
            f"{pairs - settled} by the dynamic programme"
        ]

    def test_train_scope_changes_diagrams(self, tmp_path):
        data, schema = _synth_files(tmp_path)
        full = load_experiment_config(_config_for(tmp_path, data, schema, name="f.json", cache_dir=None))
        train = load_experiment_config(
            _config_for(tmp_path, data, schema, name="t.json", cache_dir=None, standardize_scope="train")
        )
        d_full = compute_diagrams(full)
        d_train = compute_diagrams(train)
        assert not np.array_equal(d_full.deaths, d_train.deaths)

    @pytest.mark.parametrize("stratified", [False, True])
    def test_train_scope_fits_on_the_training_rows(self, tmp_path, stratified):
        data, schema = _synth_files(tmp_path)
        config = load_experiment_config(_config_for(
            tmp_path, data, schema, cache_dir=None, standardize_scope="train",
            symmetry_vector="zero", split={"seed": 3, "stratified": stratified},
        ))
        values = prepare_features(config).features.values
        train = holdout_indices(compute_diagrams(config).labels, config.split)[0]
        assert np.allclose(values[train].mean(axis=0), 0.0)
        assert np.allclose(values[train].std(axis=0), 1.0)

    def test_run_leaves_exactly_the_five_cache_files(self, tmp_path):
        # and no temporary file: each is written aside and renamed into place
        data, schema = _synth_files(tmp_path, n=20)
        config = load_experiment_config(_config_for(tmp_path, data, schema, k_grid=[1, 3]))
        run_pipeline(config)
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
            "diagrams.manifest.json", "diagrams.npy", "distances.manifest.json", "distances.npy", "rows.npy",
        ]

    def test_run_builds_no_diagram_objects(self, tmp_path, monkeypatch, capsys):
        from topmix.pipeline import DiagramSet

        def refuse(self):
            raise AssertionError("DiagramSet.diagrams was read")

        data, schema = _synth_files(tmp_path, n=30)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3])
        monkeypatch.setattr(DiagramSet, "diagrams", property(refuse))
        for command in ("classify", "diagrams", "distances", "inspect"):
            assert cli_main([command, "--config", str(cfg)] + ["--row", "0"] * (command == "inspect")) == 0
        with pytest.raises(AssertionError, match="DiagramSet.diagrams"):
            compute_diagrams(load_experiment_config(cfg)).diagrams


def _table_with_dropped_rows(tmp_path, n=64, n_missing=4):
    data = tmp_path / "table.csv"
    data.write_text("\n".join(synthetic_cleveland_rows(n, n_missing, seed=13)) + "\n", encoding="utf-8")
    return data, CLEVELAND_SCHEMA


class TestServedRun:
    """A run whose distance cache holds its fingerprint is served from the cache alone."""

    def test_warm_result_equals_the_cold_one(self, tmp_path):
        data, schema = _table_with_dropped_rows(tmp_path)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3, 5])
        cold = run_pipeline(load_experiment_config(cfg))
        cache = _tree(tmp_path / "cache")
        warm = run_pipeline(load_experiment_config(cfg, {"out_dir": str(tmp_path / "warm")}))
        assert cold.diagram_set.prepared is not None and warm.diagram_set.prepared is None
        for result in (cold, warm):
            ds = result.diagram_set
            assert (ds.rows_kept, ds.rows_dropped) == (60, 4)
        c, w = cold.diagram_set, warm.diagram_set
        assert w.deaths.dtype == c.deaths.dtype and w.deaths.shape == c.deaths.shape
        assert w.deaths.tobytes() == c.deaths.tobytes()
        assert w.labels.dtype == c.labels.dtype and np.array_equal(w.labels, c.labels)
        assert w.maxscale == c.maxscale and w.fingerprint == c.fingerprint
        assert warm.distances.tobytes() == cold.distances.tobytes()
        assert warm.report == cold.report
        assert np.array_equal(warm.report.predictions, cold.report.predictions)
        assert warm.validation == cold.validation
        assert _tree(tmp_path / "warm") == _tree(tmp_path / "out")
        assert _tree(tmp_path / "cache") == cache

    def test_diagram_view_is_the_oracle_diagram_when_computed_and_when_served(self, tmp_path):
        # the benchmark's output checks read DiagramSet.diagrams on cold runs and on served ones
        data, schema = _table_with_dropped_rows(tmp_path)
        config = load_experiment_config(_config_for(tmp_path, data, schema, k_grid=[1, 3]))
        exported = compute_diagrams(config)
        computed, _ = compute_distances(config)
        served, _ = compute_distances(config)
        assert computed.prepared is not None and served.prepared is None
        for diagram_set in (exported, computed, served):
            views = diagram_set.diagrams
            assert len(views) == diagram_set.rows_kept == 60
            for view, row in zip(views, diagram_set.deaths):
                want = PersistenceDiagram(np.column_stack([np.zeros(row.size), row]), diagram_set.maxscale).pairs
                assert view.pairs.dtype == want.dtype and view.pairs.shape == want.shape
                assert view.pairs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("command", ["classify", "distances", "inspect"])
    def test_warm_run_parses_nothing_and_computes_no_diagram(self, tmp_path, monkeypatch, caplog, capsys, command):
        import topmix.pipeline as pipeline

        data, schema = _table_with_dropped_rows(tmp_path)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3])
        argv = [command, "--config", str(cfg)] + ["--row", "0"] * (command == "inspect")
        assert cli_main(["classify", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert cli_main(argv + ["--cache-dir", str(tmp_path / "fresh")]) == 0  # a cold run of the command
        cold = capsys.readouterr().out.splitlines()

        def refuse(*args, **kwargs):
            raise AssertionError("a served run parsed the table or computed diagrams")

        monkeypatch.setattr(pipeline, "dim0_diagrams", refuse)
        if command != "inspect":  # inspect parses the table once, for the row it prints
            monkeypatch.setattr(pipeline, "parse_dataset", refuse)
        with caplog.at_level(logging.INFO, logger="topmix"):
            assert cli_main(argv) == 0
        warm = capsys.readouterr().out.splitlines()
        assert "served 64 rows from the distance cache: kept 60, dropped 4 incomplete" in caplog.text
        assert caplog.text.count("parsed ") == (command == "inspect")
        if command == "distances":  # the last line says where the matrix was written or that it was up to date
            assert cold[-1] == f"written to {tmp_path / 'fresh' / 'distances.npy'}"
            assert warm[-1] == f"{tmp_path / 'cache' / 'distances.npy'} is up to date"
            cold, warm = cold[:-1], warm[:-1]
        assert warm == cold

    def test_served_run_leaves_the_diagram_export_alone(self, tmp_path, monkeypatch, caplog, capsys):
        import builtins
        import io

        data, schema = _synth_files(tmp_path, n=20)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3])
        assert cli_main(["classify", "--config", str(cfg)]) == 0
        cold = _tree(tmp_path / "out")
        export = tmp_path / "cache" / "diagrams.npy"
        manifest = export.with_suffix(".manifest.json")
        first, first_manifest = export.read_bytes(), manifest.read_bytes()
        export.write_bytes(b"damaged")
        manifest.unlink()
        opened = []

        def recording(real_open):
            def recording_open(file, *args, **kwargs):
                opened.append(os.path.basename(str(file)))
                return real_open(file, *args, **kwargs)

            return recording_open

        monkeypatch.setattr(builtins, "open", recording(builtins.open))
        monkeypatch.setattr(io, "open", recording(io.open))
        with caplog.at_level(logging.INFO, logger="topmix"):
            assert cli_main(["classify", "--config", str(cfg), "--out-dir", str(tmp_path / "warm")]) == 0
        monkeypatch.undo()
        assert "distance cache hit" in caplog.text
        assert {"distances.npy", "rows.npy"} <= set(opened)  # the recording saw the cache read
        assert [name for name in opened if name.lstrip(".").startswith("diagrams.")] == []
        assert export.read_bytes() == b"damaged" and not manifest.exists()
        assert _tree(tmp_path / "warm") == cold
        compute_diagrams(load_experiment_config(cfg))
        assert export.read_bytes() == first and manifest.read_bytes() == first_manifest

    @pytest.mark.parametrize(
        "damage, reason", [("truncated", "damaged"), ("bit_flipped", "damaged"), ("deleted", "missing")]
    )
    def test_damaged_rows_file_recomputed(self, tmp_path, caplog, damage, reason):
        data, schema = _table_with_dropped_rows(tmp_path)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3])
        run_pipeline(load_experiment_config(cfg))
        rows_file = tmp_path / "cache" / "rows.npy"
        cache, out = _tree(tmp_path / "cache"), _tree(tmp_path / "out")
        good = rows_file.read_bytes()
        if damage == "truncated":
            rows_file.write_bytes(good[:-8])
        elif damage == "bit_flipped":
            rows_file.write_bytes(good[:-1] + bytes([good[-1] ^ 1]))  # one bit of the last label
        else:
            rows_file.unlink()
        with caplog.at_level(logging.INFO, logger="topmix"):
            run_pipeline(load_experiment_config(cfg))
        assert f"distance cache {reason}, rewriting" in caplog.text
        assert "parsed 64 rows: kept 60, dropped 4 incomplete" in caplog.text
        assert _tree(tmp_path / "cache") == cache and _tree(tmp_path / "out") == out
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="topmix"):
            run_pipeline(load_experiment_config(cfg))  # the rewritten cache serves the next run
        assert "distance cache hit" in caplog.text

    @pytest.mark.parametrize(
        "name, reshape",
        [
            ("distances.npy", lambda a: a.T),  # the same bytes of data, fortran_order in the header
            ("distances.npy", lambda a: a.reshape(-1)),
            ("rows.npy", lambda a: a.reshape(a.shape[1], -1)),
        ],
        ids=["matrix-fortran-order", "matrix-flat", "rows-other-shape"],
    )
    def test_cache_file_with_another_header_recomputed(self, tmp_path, caplog, name, reshape):
        # the manifest vouches for the file by size and sha256, but its header
        # is not the one written for the shape the manifest's kept rows imply
        data, schema = _table_with_dropped_rows(tmp_path)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3])
        run_pipeline(load_experiment_config(cfg))
        cache_dir = tmp_path / "cache"
        cache, out = _tree(cache_dir), _tree(tmp_path / "out")
        manifest_file = cache_dir / "distances.manifest.json"
        manifest = json.loads(manifest_file.read_text())
        size, sha256 = save_distance_matrix(reshape(np.load(cache_dir / name)), cache_dir / name)
        assert size == manifest["files"][name]["bytes"] and sha256 != manifest["files"][name]["sha256"]
        manifest["files"][name]["sha256"] = sha256
        manifest_file.write_text(json.dumps(manifest))
        with caplog.at_level(logging.INFO, logger="topmix"):
            run_pipeline(load_experiment_config(cfg))
        assert "distance cache damaged, rewriting" in caplog.text
        assert "distance cache hit" not in caplog.text
        assert _tree(cache_dir) == cache and _tree(tmp_path / "out") == out
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="topmix"):
            run_pipeline(load_experiment_config(cfg))  # the rewritten cache serves the next run
        assert "distance cache hit" in caplog.text

    @pytest.mark.parametrize("rows_file", ["present", "absent"])
    def test_manifest_without_the_rows_file_is_not_served(self, tmp_path, caplog, rows_file):
        from topmix.metric import ALGORITHM

        data, schema = _synth_files(tmp_path, n=20)
        config = load_experiment_config(_config_for(tmp_path, data, schema, k_grid=[1, 3]))
        first = run_pipeline(config)
        cache = tmp_path / "cache"
        # the manifest of a cache that held only the matrix, vouching for it by size and sha256
        matrix = (cache / "distances.npy").read_bytes()
        (cache / "distances.manifest.json").write_text(json.dumps({
            "algorithm": ALGORITHM, "bytes": len(matrix),
            "fingerprint": f"{first.diagram_set.fingerprint}:p={config.wasserstein_p!r}:{ALGORITHM}",
            "maxscale": first.diagram_set.maxscale, "p": config.wasserstein_p,
            "sha256": hashlib.sha256(matrix).hexdigest(), "version": "0.1.0",
        }))
        if rows_file == "absent":
            (cache / "rows.npy").unlink()
        with caplog.at_level(logging.INFO, logger="topmix"):
            second = run_pipeline(config)
        reason = "stale" if rows_file == "present" else "missing"
        assert f"distance cache {reason}, rewriting" in caplog.text
        assert "distance cache hit" not in caplog.text
        assert second.diagram_set.prepared is not None
        assert np.array_equal(first.distances, second.distances)

    def test_table_edited_between_runs_is_stale(self, tmp_path, caplog):
        data, schema = _synth_files(tmp_path, n=20)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3])
        first = run_pipeline(load_experiment_config(cfg))
        lines = data.read_text(encoding="utf-8").splitlines()
        fields_ = lines[0].split(",")
        fields_[0] = str(float(fields_[0]) + 7.0)  # the age of row 0
        data.write_text("\n".join([",".join(fields_)] + lines[1:]) + "\n", encoding="utf-8")
        with caplog.at_level(logging.INFO, logger="topmix"):
            second = run_pipeline(load_experiment_config(cfg))
        assert "distance cache stale, rewriting" in caplog.text
        assert second.diagram_set.prepared is not None
        assert not np.array_equal(first.distances, second.distances)
        uncached = _config_for(tmp_path, data, schema, name="uncached.json", cache_dir=None)
        assert np.array_equal(second.distances, run_pipeline(load_experiment_config(uncached)).distances)


class TestCli:
    def test_classify_writes_report(self, tmp_path, capsys):
        data, schema = _synth_files(tmp_path)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3])
        assert cli_main(["classify", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert "accuracy" in captured.out

    def test_holdout_with_empty_evaluation_sets_exits_1(self, tmp_path, small_mixed_schema_file, capsys):
        # floor(0.2 * 4) = 0 rows for validation and for test, at every seed
        data = tmp_path / "four.csv"
        data.write_text("1.5,a,0\n2.5,b,1\n0.5,c,0\n3.5,a,1\n", encoding="utf-8")
        cfg = _config_for(tmp_path, data, small_mixed_schema_file, k_grid=[1, 2])
        for seed in range(6):
            assert cli_main(["classify", "--config", str(cfg), "--seed", str(seed)]) == 1
            err = capsys.readouterr().err
            message = "hold-out split of 4 rows leaves 4 training, 0 validation and 0 test rows"
            assert f"error: [stage classify] {message}" in err

    def test_diagrams_on_two_row_file(self, tmp_path, mirrored_pair_setup, capsys):
        data, schema = mirrored_pair_setup
        cfg = _config_for(tmp_path, data, schema)
        assert cli_main(["diagrams", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "2 diagrams, 6 pairs" in out  # m+1 = 3 pairs per row
        assert f"written to {tmp_path / 'cache' / 'diagrams.npy'}" in out
        assert np.load(tmp_path / "cache" / "diagrams.npy").shape == (2, 3)

    @pytest.mark.parametrize("command, name", [("diagrams", "diagrams.npy"), ("distances", "distances.npy")])
    def test_second_run_reports_the_cache_file_up_to_date(self, tmp_path, capsys, command, name):
        data, schema = _synth_files(tmp_path, n=20)
        cfg = _config_for(tmp_path, data, schema)
        path = tmp_path / "cache" / name
        assert cli_main([command, "--config", str(cfg)]) == 0
        first = capsys.readouterr().out
        assert first.endswith(f"written to {path}\n")
        assert cli_main([command, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == first.replace(f"written to {path}", f"{path} is up to date")
        path.write_bytes(b"damaged")
        assert cli_main([command, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == first

    def test_diagrams_under_the_default_vector_given_explicitly_is_up_to_date(self, tmp_path, capsys):
        data, schema = _synth_files(tmp_path, n=20)
        path = tmp_path / "cache" / "diagrams.npy"
        assert cli_main(["diagrams", "--config", str(_config_for(tmp_path, data, schema))]) == 0
        capsys.readouterr()
        manifest = path.with_suffix(".manifest.json").read_bytes()
        m = np.load(path).shape[1] - 1
        vector = np.arange(5.0, m + 5.0).tolist()  # the default vector, named by value
        cfg = _config_for(tmp_path, data, schema, name="explicit.json", symmetry_vector=vector)
        assert cli_main(["diagrams", "--config", str(cfg)]) == 0
        # the fingerprint changes, so the manifest is rewritten; the message is about diagrams.npy alone
        assert path.with_suffix(".manifest.json").read_bytes() != manifest
        assert capsys.readouterr().out.endswith(f"\n{path} is up to date\n")

    def test_distances_after_a_deleted_manifest_reports_the_cache_file_written(self, tmp_path, capsys):
        data, schema = _synth_files(tmp_path, n=20)
        cfg = _config_for(tmp_path, data, schema)
        path = tmp_path / "cache" / "distances.npy"
        assert cli_main(["distances", "--config", str(cfg)]) == 0
        first = capsys.readouterr().out
        content = path.read_bytes()
        (tmp_path / "cache" / "distances.manifest.json").unlink()
        assert cli_main(["distances", "--config", str(cfg)]) == 0
        # the same bytes, rewritten by the cache miss
        assert capsys.readouterr().out == first
        assert first.endswith(f"written to {path}\n")
        assert path.read_bytes() == content

    def test_distances_deterministic_bytes(self, tmp_path, capsys):
        data, schema = _synth_files(tmp_path, n=20)
        cfg_a = _config_for(tmp_path, data, schema, name="a.json",
                            cache_dir=str(tmp_path / "ca"), out_dir=str(tmp_path / "oa"))
        cfg_b = _config_for(tmp_path, data, schema, name="b.json",
                            cache_dir=str(tmp_path / "cb"), out_dir=str(tmp_path / "ob"))
        assert cli_main(["distances", "--config", str(cfg_a)]) == 0
        assert cli_main(["distances", "--config", str(cfg_b)]) == 0
        assert f"written to {tmp_path / 'cb' / 'distances.npy'}" in capsys.readouterr().out
        assert (tmp_path / "ca" / "distances.npy").read_bytes() == (tmp_path / "cb" / "distances.npy").read_bytes()

    def test_inspect_matches_distance_row_sort(self, tmp_path, capsys):
        data, schema = _synth_files(tmp_path, n=30)
        cfg = _config_for(tmp_path, data, schema)
        config = load_experiment_config(cfg)
        diagram_set, matrix = compute_distances(config)
        assert cli_main(["inspect", "--config", str(cfg), "--row", "0", "--k", "5"]) == 0
        out = capsys.readouterr().out
        train, _, _ = holdout_indices(diagram_set.labels, config.split)
        pool = train[train != 0]
        order = np.lexsort((pool, matrix[0, pool]))[:5]
        expected = [int(pool[i]) for i in order]
        listed = [int(line.split()[1]) for line in out.splitlines() if line.startswith("  row ")]
        assert listed == expected

    def test_inspect_uses_the_k_classify_chose(self, tmp_path, capsys):
        config = REPO_ROOT / "configs" / "example.json"
        dirs = ["--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path / "out")]
        assert cli_main(["classify", "--config", str(config)] + dirs) == 0
        report = (tmp_path / "out" / "report.kv").read_text(encoding="utf-8")
        assert report.startswith("k=1\n")
        capsys.readouterr()
        assert cli_main(["inspect", "--config", str(config), "--row", "0"] + dirs) == 0
        out = capsys.readouterr().out
        assert "1 nearest training rows:" in out
        (neighbor,) = [line for line in out.splitlines() if line.startswith("  row ")]
        label = int(neighbor.split()[-1])
        votes = [1 - label, label]
        assert f"vote at k=1: {votes[0]} for class 0, {votes[1]} for class 1; predicted {label}" in out

    def test_failing_inspect_prints_nothing(self, tmp_path, capsys):
        # k = 300 fails in the classify stage, after the row, its cloud and its diagram are known
        config = REPO_ROOT / "configs" / "example.json"
        dirs = ["--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path / "out")]
        assert cli_main(["inspect", "--config", str(config), "--row", "0", "--k", "300"] + dirs) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: [stage classify] need at least k=300 candidates, got 24\n" in captured.err

    @pytest.mark.parametrize("stratified", [False, True])
    def test_inspect_votes_as_classify_predicted_under_kfold(self, tmp_path, capsys, stratified):
        data, schema = _synth_files(tmp_path)
        split = {"mode": "kfold", "folds": 10, "seed": 0, "stratified": stratified}
        cfg = _config_for(tmp_path, data, schema, split=split)
        assert cli_main(["classify", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "predictions.csv").read_text(encoding="utf-8").splitlines()[1:]
        predicted = {int(r): int(pr) for r, _, pr in (line.split(",") for line in lines)}
        assert len(predicted) == 60
        for row, label in predicted.items():
            capsys.readouterr()
            assert cli_main(["inspect", "--config", str(cfg), "--row", str(row)]) == 0
            vote = capsys.readouterr().out.splitlines()[-1]
            assert vote.endswith(f"predicted {label}"), (row, vote)

    @pytest.mark.parametrize("stratified", [False, True])
    def test_inspect_votes_as_classify_predicted_under_holdout(self, tmp_path, capsys, stratified):
        data, schema = _synth_files(tmp_path)
        cfg = _config_for(tmp_path, data, schema, split={"stratified": stratified})
        assert cli_main(["classify", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "predictions.csv").read_text(encoding="utf-8").splitlines()[1:]
        predicted = {int(r): int(pr) for r, _, pr in (line.split(",") for line in lines)}
        config = load_experiment_config(cfg)
        train = set(holdout_indices(compute_diagrams(config).labels, config.split)[0].tolist())
        assert len(predicted) == 12 and len(train) == 36
        for row in range(60):
            capsys.readouterr()
            assert cli_main(["inspect", "--config", str(cfg), "--row", str(row)]) == 0
            out = capsys.readouterr().out.splitlines()
            listed = {int(line.split()[1]) for line in out if line.startswith("  row ")}
            assert listed and listed <= train - {row}, row
            if row in predicted:
                assert out[-1].endswith(f"predicted {predicted[row]}"), (row, out[-1])

    def test_cli_runs_without_scipy(self, tmp_path):
        program = (
            "import sys; sys.modules['scipy'] = None; "
            "from topmix.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        common = [
            "--config", str(REPO_ROOT / "configs" / "example.json"),
            "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path / "out"),
        ]
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        for command in (["classify"], ["inspect", "--row", "0"]):
            run = subprocess.run(
                [sys.executable, "-c", program, *command, *common],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize("stratified", [False, True])
    @pytest.mark.parametrize("name", ["example.json", "example_kfold.json"])
    def test_cold_classify_never_imports_numpy_ma(self, tmp_path, name, stratified):
        # np.unique imports numpy.ma on its first call, 10-15 ms of a process's first classify
        doc = json.loads((REPO_ROOT / "configs" / name).read_text(encoding="utf-8"))
        doc["data"] = str(REPO_ROOT / "data" / "example.csv")
        doc["schema"] = str(REPO_ROOT / "configs" / "cleveland.schema.json")
        doc["split"]["stratified"] = stratified
        cfg = tmp_path / name
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        program = (
            "import sys; from topmix.cli import main; code = main(sys.argv[1:]); "
            "sys.exit(code or ('numpy.ma' in sys.modules and 'numpy.ma was imported'))"
        )
        dirs = ["--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path / "out")]
        run = subprocess.run(
            [sys.executable, "-c", program, "classify", "--config", str(cfg), *dirs],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "out" / "report.txt").is_file()

    @pytest.mark.parametrize(
        "case",
        ["truncated_schema", "attributes_not_a_list", "non_numeric_threshold", "nan_threshold", "non_utf8_data"],
    )
    def test_bad_schema_or_data_file_exits_1_without_traceback(self, tmp_path, case):
        expected = {
            "truncated_schema": "cannot read schema",
            "attributes_not_a_list": "malformed schema document",
            "non_numeric_threshold": "malformed schema document",
            "nan_threshold": "threshold must be a finite number, got nan",
            "non_utf8_data": "is not UTF-8 text",
        }[case]
        doc = json.loads(CLEVELAND_SCHEMA.read_text(encoding="utf-8"))
        schema_text = json.dumps(doc)
        data_bytes = "\n".join(synthetic_cleveland_rows(20, 0)).encode("utf-8") + b"\n"
        if case == "truncated_schema":
            schema_text = schema_text[: len(schema_text) // 2]
        elif case == "attributes_not_a_list":
            schema_text = json.dumps({**doc, "attributes": "x"})
        elif case == "non_numeric_threshold":
            doc["target"]["positive_rule"]["threshold"] = "abc"
            schema_text = json.dumps(doc)
        elif case == "nan_threshold":
            doc["target"]["positive_rule"]["threshold"] = float("nan")
            schema_text = json.dumps(doc)  # writes the bare NaN that Python's json reads
        else:
            data_bytes = data_bytes.replace(b"\n", b"\xe9\n", 1)
        schema, data = tmp_path / "schema.json", tmp_path / "data.csv"
        schema.write_text(schema_text, encoding="utf-8")
        data.write_bytes(data_bytes)
        cfg = _config_for(tmp_path, data, schema)
        run = subprocess.run(
            [sys.executable, "-m", "topmix.cli", "classify", "--config", str(cfg)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        named = data if case == "non_utf8_data" else schema
        assert "error: [stage ingest] " in run.stderr and str(named) in run.stderr
        assert expected in run.stderr

    @pytest.mark.parametrize("command", ["classify", "diagrams", "distances", "inspect"])
    @pytest.mark.parametrize("unreadable", ["data", "schema"])
    def test_input_path_that_is_a_directory_exits_1_without_traceback(self, tmp_path, command, unreadable):
        data, schema = _synth_files(tmp_path, n=20)
        directory = tmp_path / f"{unreadable}-directory"
        directory.mkdir()
        paths = {"data": data, "schema": schema, unreadable: directory}
        cfg = _config_for(tmp_path, paths["data"], paths["schema"])
        run = subprocess.run(
            [sys.executable, "-m", "topmix.cli", command, "--config", str(cfg)]
            + ["--row", "0"] * (command == "inspect"),
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        assert "error: [stage read] " in run.stderr and str(directory) in run.stderr

    @pytest.mark.parametrize("command", ["classify", "diagrams"])
    @pytest.mark.parametrize("table", ["empty_file", "header_only", "only_row_missing"])
    def test_table_with_no_kept_rows_exits_1_without_traceback(self, tmp_path, command, table):
        text, has_header, counts = {
            "empty_file": ("", False, "read 0, dropped 0"),
            "header_only": ("age,sex,cp\n", True, "read 0, dropped 0"),
            "only_row_missing": (synthetic_cleveland_rows(1, 1, 0)[0] + "\n", False, "read 1, dropped 1"),
        }[table]
        data = tmp_path / "data.csv"
        data.write_text(text, encoding="utf-8")
        cfg = _config_for(tmp_path, data, CLEVELAND_SCHEMA, has_header=has_header)
        run = subprocess.run(
            [sys.executable, "-m", "topmix.cli", command, "--config", str(cfg)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
        assert run.returncode == 1
        assert "Traceback" not in run.stderr and "RuntimeWarning" not in run.stderr
        assert f"error: [stage ingest] data file {data} has no complete rows: {counts}" in run.stderr

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("diagrams", "--maxscale-safety", "nan"),
            ("diagrams", "--maxscale-safety", "inf"),
            ("classify", "--p", "nan"),
            ("classify", "--p", "inf"),
        ],
        ids=["safety_nan", "safety_inf", "p_nan", "p_inf"],
    )
    def test_non_finite_override_exits_1_without_traceback(self, tmp_path, command, option, value):
        key = {"--maxscale-safety": "maxscale_safety", "--p": "wasserstein_p"}[option]
        run = subprocess.run(
            [
                sys.executable, "-m", "topmix.cli", command, "--config", str(REPO_ROOT / "configs" / "example.json"),
                "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path / "out"), option, value,
            ],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        assert f"error: {key} must be finite, got {float(value)!r}" in run.stderr
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "command, option, value, message, cached",
        [
            # p < 1 fails before the table is read
            ("classify", "--p", "0.5", "error: wasserstein_p must be >= 1, got 0.5", []),
            ("distances", "--p", "1e308", "error: [stage distances] distances at p = 1e+308 are not finite",
             ["diagrams.manifest.json", "diagrams.npy"]),
            ("diagrams", "--maxscale-safety", "1e308", "error: [stage diagrams] maxscale overflows", []),
        ],
        ids=["p_below_one", "p_overflows", "safety_overflows"],
    )
    def test_non_finite_result_exits_1_and_caches_nothing_non_finite(
        self, tmp_path, command, option, value, message, cached
    ):
        cache = tmp_path / "cache"
        run = subprocess.run(
            [
                sys.executable, "-m", "topmix.cli", command, "--config", str(REPO_ROOT / "configs" / "example.json"),
                "--cache-dir", str(cache), "--out-dir", str(tmp_path / "out"), option, value,
            ],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
        assert run.returncode == 1
        assert "Traceback" not in run.stderr and "RuntimeWarning" not in run.stderr
        assert message in run.stderr
        assert sorted(p.name for p in cache.glob("*")) == cached
        assert all(np.isfinite(np.load(path)).all() for path in cache.glob("*.npy"))

    @pytest.mark.parametrize(
        "fields_, seed, message",
        [
            ({"out_dir": None}, None, "invalid config value for 'out_dir': None"),
            ({"split": {"mode": "holdout", "train_frac": float("nan")}}, None, "train_frac must be finite, got nan"),
            ({"split": {"mode": "holdout", "val_frac": float("nan")}}, None, "val_frac must be finite, got nan"),
            ({"split": {"mode": "holdout", "test_frac": float("nan")}}, None, "test_frac must be finite, got nan"),
            ({"split": {"mode": "holdout", "seed": -1}}, None, "split seed must be >= 0, got -1"),
            ({}, "-1", "split seed must be >= 0, got -1"),
        ],
        ids=["out_dir_null", "train_frac_nan", "val_frac_nan", "test_frac_nan", "seed", "seed_option"],
    )
    def test_bad_config_value_exits_1_without_traceback(self, tmp_path, fields_, seed, message):
        data, schema = _synth_files(tmp_path, n=30)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3], **fields_)
        run = subprocess.run(
            [sys.executable, "-m", "topmix.cli", "classify", "--config", str(cfg)]
            + (["--seed", seed] if seed else []),
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        assert f"error: {message}" in run.stderr
        assert not (tmp_path / "cache").exists()

    def test_inspect_prints_the_projection_cloud(self, tmp_path, capsys):
        data, schema = _synth_files(tmp_path, n=30)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3])
        features = compute_diagrams(load_experiment_config(cfg)).prepared.features.values
        for row in (0, 17):
            capsys.readouterr()
            assert cli_main(["inspect", "--config", str(cfg), "--row", str(row)]) == 0
            lines = capsys.readouterr().out.splitlines()
            start = lines.index("point cloud (row vector, then one projection per coordinate):") + 1
            printed = lines[start : lines.index("diagram (birth, death):")]
            cloud = build_point_cloud(features[row])
            assert printed == ["  " + " ".join(f"{v:.6g}" for v in point) for point in cloud]
            assert len(printed) == features.shape[1] + 1

    def test_row_out_of_range(self, tmp_path, mirrored_pair_setup):
        data, schema = mirrored_pair_setup
        cfg = _config_for(tmp_path, data, schema)
        assert cli_main(["inspect", "--config", str(cfg), "--row", "99"]) == 1

    def test_cache_dir_that_is_a_file_exits_1(self, tmp_path, capsys):
        data, schema = _synth_files(tmp_path, n=20)
        (tmp_path / "cache").write_text("not a directory\n", encoding="utf-8")
        cfg = _config_for(tmp_path, data, schema, k_grid=[1, 3])
        assert cli_main(["classify", "--config", str(cfg)]) == 1
        assert "error: [stage diagrams]" in capsys.readouterr().err

    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["frobnicate"])
        assert excinfo.value.code != 0

    def test_cli_override_seed_changes_split(self, tmp_path):
        data, schema = _synth_files(tmp_path)
        cfg = _config_for(tmp_path, data, schema, k_grid=[1])
        assert cli_main(["classify", "--config", str(cfg), "--seed", "5"]) == 0
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["seed"] == 5
