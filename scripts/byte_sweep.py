#!/usr/bin/env python3
"""Byte-identity gate: the outputs of this checkout against those of another revision.

    python scripts/byte_sweep.py --against <rev>

Checks ``<rev>`` out with ``git worktree add`` under a temporary directory
(local history only), runs one sweep of ``topmix`` commands against the
sources of each tree, and compares every file the sweep leaves in its
``out_dir``s and cache directories, and the stdout and stderr of every
command, byte for byte. The worktree is removed afterwards. Prints one
summary line and exits 0 when nothing differs, 1 on any difference, 2
when a tree cannot run the sweep. Each differing file is named on a line
of its own, up to 50 of them.

The inputs are generated once, from this tree's ``tests/conftest.py``
generator, and both trees read the same files:

* classify on 297 kept rows (303 generated, 6 with a missing field):
  hold-out and 10-fold, each stratified or not; the k grid 1-10 or k fixed
  at 4 or 7; p in {1, 2}; split seeds 0-5;
* the same four splits at seed 0 under the zero symmetry vector;
* inspect at a handful of (config, row) cases, stratified splits among
  them;
* distances on 297 kept rows, on a fresh cache directory and on the cache
  that classify filled;
* classify on 296 kept rows (302 generated), hold-out, p = 1, under the
  default and the zero symmetry vector: an even row count, where the
  distance pairs at offset n/2 are met twice;
* classify on 297 kept rows, hold-out and 10-fold, p = 1, under the k
  grid 1-20: tied votes at k >= 16, where each class sums eight or more
  distances, in numpy's order, not a running sum's;
* classify on 297 kept rows, hold-out, p = 1, under a copy of the schema
  whose target rule is one-of "1", "2", "3", "4";
* classify on 297 kept rows, hold-out, p = 1: under ``standardize_scope:
  "train"``, stratified and not; under an explicit symmetry vector of the
  encoded width, 25; and under an explicit ``maxscale`` of 100, above the
  largest |x_i|;
* distances on 1,000 kept rows (1,010 generated), p = 1, under the
  default and the zero symmetry vector: more rows than one block of the
  sorted certificate spans, so each block of offsets runs over two row
  runs;
* distances on the same 1,000 kept rows at p = 2, under the default
  symmetry vector: every pair goes through the programme calls of its
  block of offsets;
* diagrams at 3,000 kept rows, from the comma-delimited table and a
  tab-delimited copy (both read by numpy's text reader) and from a
  "::"-delimited copy (read by the row reader);
* diagrams at 3,000 kept rows from a table with no missing-token line,
  and from one whose dropped lines are the first, two adjacent ones and
  the last;
* diagrams on faulty copies of the 297-row table, comma- and
  tab-delimited, each exiting 1 with its first fault on stderr: a
  non-numeric field, a non-finite field, an out-of-domain token with a
  bad token in the next row's first column, a bad target, a row of the
  wrong width after an earlier fault, a dropped row of the wrong width,
  and a bad token before a dropped row of the wrong width;
* classify on a copy of the 297-row table whose ``thal`` token "7.0" is
  renamed to the non-ASCII "7·0" in the data and in a copy of the schema
  (read by the row reader), and diagrams on the same copy holding one
  out-of-domain token, exiting 1 with its first fault on stderr.

Each tree runs every command in one process through ``topmix.cli.main``.
Its log lines carry timings and are discarded, except the distance stage's
count of pairs settled by the sorted certificate and by the dynamic
programme. A command's stderr (those counts, then its ``error:`` line or a
warning) follows its stdout in the file compared. Absolute paths in both
are replaced by ``<root>`` before the comparison.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SHOWN = 50  # differing files named, at most

# Runs the cases of a JSON file with the topmix under argv[1]; one output file per case.
RUNNER = r"""
import contextlib, io, json, logging, os, re, sys
from pathlib import Path
src, cases_file, root = sys.argv[1:4]
root = str(Path(root).resolve())  # the form the CLI prints
sys.path.insert(0, src)
import topmix
from topmix.cli import main
if Path(topmix.__file__).resolve().parent != Path(src).resolve() / "topmix":
    sys.exit(f"imported topmix from {topmix.__file__}, not from {src}")
logging.basicConfig(stream=open(os.devnull, "w"), level=logging.INFO)
COUNTS = re.compile(r"distances: \d+ pairs, \d+ settled by the sorted certificate, \d+ by the dynamic programme")
class PairCounts(logging.Handler):  # the one log line without a timing, onto the command's stderr
    def emit(self, record):
        if COUNTS.fullmatch(message := record.getMessage()):
            print(message, file=sys.stderr)
logging.getLogger().addHandler(PairCounts())
for name, argv in json.loads(Path(cases_file).read_text()):
    argv = [a.replace("<root>", root) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    path = Path(root, "stdout", name)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = f"exit {code}\n{out.getvalue()}stderr:\n{err.getvalue()}"
    path.write_text(text.replace(root, "<root>"), encoding="utf-8")
"""


def write_inputs(inputs: Path) -> list[tuple[str, list[str]]]:
    """The sweep's data, schema and configs under ``inputs``; returns its cases."""
    sys.path[:0] = [str(REPO / "tests"), str(REPO / "src")]
    from conftest import CLEVELAND_SCHEMA, synthetic_cleveland_rows, write_config

    inputs.mkdir(parents=True)
    schema = inputs / "cleveland.schema.json"
    shutil.copyfile(CLEVELAND_SCHEMA, schema)
    tables = (
        ("rows297.csv", 303, 6), ("rows296.csv", 302, 6), ("rows1000.csv", 1010, 10), ("rows3000.csv", 3030, 30),
    )
    for name, n_total, n_missing in tables:
        rows = synthetic_cleveland_rows(n_total, n_missing)
        (inputs / name).write_text("\n".join(rows) + "\n", encoding="utf-8")
    for delimiter, suffix in (("\t", "tsv"), ("::", "colons")):
        rows = [row.replace(",", delimiter) for row in synthetic_cleveland_rows(3030, 30)]
        (inputs / f"rows3000.{suffix}").write_text("\n".join(rows) + "\n", encoding="utf-8")
    edges = [row.split(",") for row in synthetic_cleveland_rows(3004, 0)]
    for i in (0, 1500, 1501, 3003):  # the first line, two adjacent lines and the last line dropped
        edges[i][11] = "?"
    for tag, rows in (("complete", synthetic_cleveland_rows(3000, 0)), ("edges", map(",".join, edges))):
        (inputs / f"rows3000-{tag}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    one_of = json.loads(schema.read_text(encoding="utf-8"))
    one_of["target"]["positive_rule"] = {"kind": "one-of", "tokens": ["1", "2", "3", "4"]}
    one_of_schema = inputs / "cleveland-one-of.schema.json"
    one_of_schema.write_text(json.dumps(one_of), encoding="utf-8")

    cases: list[tuple[str, list[str]]] = []

    def command(name: str, config: Path, cache: str, *extra: str) -> None:
        dirs = ["--cache-dir", f"<root>/cache/{cache}", "--out-dir", f"<root>/out/{name}"]
        cases.append((name, [extra[0], "--config", str(config), *dirs, *extra[1:]]))

    for mode in ("holdout", "kfold"):
        for stratified in (False, True):
            for vector in ("default", "zero"):
                split = {"mode": mode, "seed": 0, "stratified": stratified}
                if mode == "kfold":
                    split["folds"] = 10
                tag = f"{mode}-{'strat' if stratified else 'plain'}-{vector}"
                config = write_config(
                    inputs / f"{tag}.json", data=str(inputs / "rows297.csv"), schema=str(schema),
                    split=split, symmetry_vector=vector,
                )
                for p in ("1", "2"):
                    ks = (None, "4", "7") if vector == "default" else (None,)
                    seeds = range(6) if vector == "default" else range(1)
                    for k in ks:
                        for seed in seeds:
                            name = f"{tag}-{'grid' if k is None else 'k' + k}-p{p}-s{seed}"
                            extra = ["--p", p, "--seed", str(seed)] + (["--k", k] if k else [])
                            command(name, config, f"{vector}-p{p}", "classify", *extra)
                    if not stratified:
                        rows = (0, 150, 296) if vector == "default" else (7,)
                    else:
                        rows = (0, 150) if (vector, p) == ("default", "1") else ()
                    for row in rows:
                        name = f"inspect-{tag}-p{p}-row{row}"
                        command(name, config, f"{vector}-p{p}", "inspect", "--p", p, "--row", str(row))
    command("inspect-holdout-k7-s3-row42", inputs / "holdout-plain-default.json", "default-p1",
            "inspect", "--k", "7", "--seed", "3", "--row", "42")
    for name, cache in (("distances-cold", "distances-cold"), ("distances-warm", "default-p1")):
        command(name, inputs / "holdout-plain-default.json", cache, "distances", "--p", "1")
    for vector in ("default", "zero"):
        config = write_config(
            inputs / f"rows296-{vector}.json", data=str(inputs / "rows296.csv"), schema=str(schema),
            split={"mode": "holdout", "seed": 0}, symmetry_vector=vector,
        )
        command(f"rows296-holdout-{vector}-p1", config, f"rows296-{vector}-p1", "classify", "--p", "1")
    for mode in ("holdout", "kfold"):
        split = {"mode": mode, "seed": 0, **({"folds": 10} if mode == "kfold" else {})}
        config = write_config(
            inputs / f"{mode}-grid20.json", data=str(inputs / "rows297.csv"), schema=str(schema),
            split=split, k_grid=list(range(1, 21)),
        )
        command(f"{mode}-grid20-p1", config, "default-p1", "classify", "--p", "1")
    config = write_config(inputs / "one-of.json", data=str(inputs / "rows297.csv"), schema=str(one_of_schema))
    command("one-of-holdout-p1", config, "one-of-p1", "classify", "--p", "1")
    explicit = {
        "train-scope-plain": {"standardize_scope": "train"},
        "train-scope-strat": {"standardize_scope": "train", "split": {"mode": "holdout", "seed": 0, "stratified": True}},
        "explicit-vector": {"symmetry_vector": [1.0 + 0.5 * j for j in range(25)]},
        "explicit-maxscale": {"maxscale": 100.0},
    }
    for tag, fields in explicit.items():
        config = write_config(inputs / f"{tag}.json", data=str(inputs / "rows297.csv"), schema=str(schema), **fields)
        command(f"{tag}-holdout-p1", config, tag, "classify", "--p", "1")
    for vector in ("default", "zero"):
        config = write_config(
            inputs / f"rows1000-{vector}.json", data=str(inputs / "rows1000.csv"), schema=str(schema),
            symmetry_vector=vector,
        )
        command(f"distances-1000-{vector}", config, f"rows1000-{vector}", "distances", "--p", "1")
    config = inputs / "rows1000-default.json"
    command("distances-1000-default-p2", config, "rows1000-default-p2", "distances", "--p", "2")
    config = write_config(inputs / "rows3000.json", data=str(inputs / "rows3000.csv"), schema=str(schema))
    command("diagrams-3000", config, "rows3000", "diagrams")
    for delimiter, suffix, tag in (("\t", "tsv", "tab"), ("::", "colons", "colons")):
        config = write_config(
            inputs / f"rows3000-{tag}.json", data=str(inputs / f"rows3000.{suffix}"), schema=str(schema),
            delimiter=delimiter,
        )
        command(f"diagrams-3000-{tag}", config, f"rows3000-{tag}", "diagrams")
    for tag in ("complete", "edges"):
        data = str(inputs / f"rows3000-{tag}.csv")
        config = write_config(inputs / f"rows3000-{tag}.json", data=data, schema=str(schema))
        command(f"diagrams-3000-{tag}", config, f"rows3000-{tag}", "diagrams")

    rows = [row.split(",") for row in synthetic_cleveland_rows(303, 6)]
    clean = [i for i, row in enumerate(rows) if "?" not in row]
    faults = {  # (row among the rows without a missing field, field, token); token None cuts the target
        "non-numeric": [(20, 0, "abc")],
        "non-finite": [(40, 4, "inf")],
        "outside-domain": [(60, 12, "5.0"), (61, 0, "abc")],
        "bad-target": [(80, 13, "huh")],
        "width-after-fault": [(30, 7, "x"), (31, 13, None)],
        "dropped-width": [(70, 11, "?"), (70, 13, None)],
        "before-dropped-width": [(90, 2, "9.0"), (91, 11, "?"), (91, 13, None)],
    }
    for fault, edits in faults.items():
        table = [row.copy() for row in rows]
        for i, field, token in edits:
            table[clean[i]][field] = token
        for delimiter, suffix in ((",", "csv"), ("\t", "tsv")):
            data = inputs / f"fault-{fault}.{suffix}"
            lines = (delimiter.join(t for t in row if t is not None) for row in table)
            data.write_text("\n".join(lines) + "\n", encoding="utf-8")
            name = f"fault-{fault}-{suffix}"
            config = write_config(inputs / f"{name}.json", data=str(data), schema=str(schema), delimiter=delimiter)
            command(name, config, name, "diagrams")

    rename = {"7.0": "7·0"}.get  # thal's token "7.0", in a copy of the schema and of the 297-row table
    renamed = json.loads(schema.read_text(encoding="utf-8"))
    thal = next(a for a in renamed["attributes"] if a["name"] == "thal")
    thal["domain"] = [rename(token, token) for token in thal["domain"]]
    renamed_schema = inputs / "cleveland-non-ascii.schema.json"
    renamed_schema.write_text(json.dumps(renamed, ensure_ascii=False), encoding="utf-8")
    table = [[rename(t, t) if field == 12 else t for field, t in enumerate(row)] for row in rows]
    for tag, argv, edits in (("valid", ["classify", "--p", "1"], []), ("outside-domain", ["diagrams"], [(50, 12, "7.0")])):
        for i, field, token in edits:
            table[clean[i]][field] = token
        data = inputs / f"non-ascii-{tag}.csv"
        data.write_text("".join(",".join(row) + "\n" for row in table), encoding="utf-8")
        config = write_config(inputs / f"non-ascii-{tag}.json", data=str(data), schema=str(renamed_schema))
        command(f"non-ascii-{tag}", config, f"non-ascii-{tag}", *argv)
    return cases


def run_tree(src: Path, cases_file: Path, root: Path) -> None:
    root.mkdir(parents=True)
    run = subprocess.run(
        [sys.executable, "-c", RUNNER, str(src), str(cases_file), str(root)],
        capture_output=True, text=True,
    )
    if run.returncode:
        raise RuntimeError(f"sweep failed under {src}:\n{run.stderr}")


def files_under(root: Path) -> dict[str, Path]:
    return {str(p.relative_to(root)): p for p in sorted(root.rglob("*")) if p.is_file()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)
    git = ["git", "-C", str(REPO)]
    resolved = subprocess.run(
        [*git, "rev-parse", "--verify", f"{args.against}^{{commit}}"], capture_output=True, text=True
    )
    if resolved.returncode:
        print(f"byte_sweep: unknown revision {args.against!r}", file=sys.stderr)
        return 2
    sha = resolved.stdout.strip()

    with tempfile.TemporaryDirectory(prefix="byte_sweep-") as tmp:
        tmp = Path(tmp)
        cases_file = tmp / "cases.json"
        cases_file.write_text(json.dumps(write_inputs(tmp / "inputs")), encoding="utf-8")
        worktree = tmp / "against"
        added = subprocess.run([*git, "worktree", "add", "--detach", "--quiet", str(worktree), sha])
        if added.returncode:
            print(f"byte_sweep: cannot check out {args.against}", file=sys.stderr)
            return 2
        try:
            run_tree(REPO / "src", cases_file, tmp / "this")
            run_tree(worktree / "src", cases_file, tmp / "that")
        except RuntimeError as exc:
            print(f"byte_sweep: {exc}", file=sys.stderr)
            return 2
        finally:
            subprocess.run([*git, "worktree", "remove", "--force", str(worktree)], check=False)
            subprocess.run([*git, "worktree", "prune"], check=False)
        this, that = files_under(tmp / "this"), files_under(tmp / "that")
        names = sorted(this.keys() | that.keys())
        differ = [
            name for name in names
            if name not in this or name not in that or this[name].read_bytes() != that[name].read_bytes()
        ]
    summary = f"byte_sweep: {len(names)} files compared against {args.against} ({sha[:12]}), {len(differ)} differ"
    print(summary)
    for name in differ[:SHOWN]:
        print(f"  {name}")
    if len(differ) > SHOWN:
        print(f"  … and {len(differ) - SHOWN} more")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
