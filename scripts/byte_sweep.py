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
* diagrams at 3,000 kept rows, from the comma-delimited table (read by
  numpy's text reader) and from a tab-delimited copy (read by the column
  parser);
* diagrams on faulty copies of the 297-row table, comma- and
  tab-delimited, each exiting 1 with its first fault on stderr: a
  non-numeric field, a non-finite field, an out-of-domain token with a
  bad token in the next row's first column, a bad target, a row of the
  wrong width after an earlier fault, a dropped row of the wrong width,
  and a bad token before a dropped row of the wrong width.

Each tree runs every command in one process through ``topmix.cli.main``,
with its log lines (which carry timings) discarded. A command's stderr
(its ``error:`` line, or a warning) follows its stdout in the file
compared. Absolute paths in both are replaced by ``<root>`` before the
comparison.
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
import contextlib, io, json, logging, os, sys
from pathlib import Path
src, cases_file, root = sys.argv[1:4]
root = str(Path(root).resolve())  # the form the CLI prints
sys.path.insert(0, src)
import topmix
from topmix.cli import main
if Path(topmix.__file__).resolve().parent != Path(src).resolve() / "topmix":
    sys.exit(f"imported topmix from {topmix.__file__}, not from {src}")
logging.basicConfig(stream=open(os.devnull, "w"), level=logging.INFO)
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
    tables = (("rows297.csv", 303, 6), ("rows296.csv", 302, 6), ("rows3000.csv", 3030, 30))
    for name, n_total, n_missing in tables:
        rows = synthetic_cleveland_rows(n_total, n_missing)
        (inputs / name).write_text("\n".join(rows) + "\n", encoding="utf-8")
    tab_rows = [row.replace(",", "\t") for row in synthetic_cleveland_rows(3030, 30)]
    (inputs / "rows3000.tsv").write_text("\n".join(tab_rows) + "\n", encoding="utf-8")

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
    config = write_config(inputs / "rows3000.json", data=str(inputs / "rows3000.csv"), schema=str(schema))
    command("diagrams-3000", config, "rows3000", "diagrams")
    config = write_config(
        inputs / "rows3000-tab.json", data=str(inputs / "rows3000.tsv"), schema=str(schema), delimiter="\t"
    )
    command("diagrams-3000-tab", config, "rows3000-tab", "diagrams")

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
