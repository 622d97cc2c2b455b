"""Golden outputs: the command line's stdout, stderr and exit code, byte for
byte, for the cases listed in tests/golden/manifest.json.

Each case runs `cli.main` in-process with tests/golden/ as the working
directory, so the `--data` paths recorded in the outputs are relative.  A
case whose argv has `--out <file>` writes that file into a temporary
directory, and its bytes must equal `<name>.out`.  A command line that
argparse rejects exits through `SystemExit`, whose code is the case's exit
code; `COLUMNS` is pinned because argparse wraps its usage text to the
terminal width.  The case with accented arm labels also runs as a program
under the C locale, whose stdout must carry the same UTF-8 bytes.  The
recorded table of every case with `--format csv` must have as many cells
in each row as in its header.
Floating-point output depends on numpy's linear algebra, so the manifest
records the numpy version the files were made with, and a different
version fails with both versions named.

To accept an intended change of output, regenerate the files with

    MLTE_UPDATE_GOLDEN=1 python -m pytest tests/test_golden.py

and review the diff of tests/golden/ before committing it.
"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlte.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
UPDATE = os.environ.get("MLTE_UPDATE_GOLDEN") == "1"


def _load_manifest():
    return json.loads(MANIFEST.read_text())


def _write_manifest(manifest):
    """The manifest as JSON with one case per line, so that a diff shows
    which case changed."""
    lines = [f"  {json.dumps(key)}: {json.dumps(manifest[key])}," for key in ("about", "numpy")]
    cases = ",\n".join("    " + json.dumps(case) for case in manifest["cases"])
    MANIFEST.write_text("{\n" + "\n".join(lines) + '\n  "cases": [\n' + cases + "\n  ]\n}\n")


CASES = _load_manifest()["cases"]


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_output(case, monkeypatch, capsys, tmp_path):
    for name in list(os.environ):
        if name.startswith("MLTE_"):  # flag fallbacks would change the outputs
            monkeypatch.delenv(name)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(GOLDEN)
    argv = list(case["argv"])
    out_file = None
    if "--out" in argv:
        pos = argv.index("--out") + 1
        out_file = tmp_path / argv[pos]
        argv[pos] = str(out_file)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    produced = {"stdout": out.encode(), "stderr": err.encode()}
    if out_file is not None:
        produced["out"] = out_file.read_bytes()
    if UPDATE:
        for suffix, content in produced.items():
            (GOLDEN / f"{case['name']}.{suffix}").write_bytes(content)
        manifest = _load_manifest()
        manifest["numpy"] = np.__version__
        for entry in manifest["cases"]:
            if entry["name"] == case["name"]:
                entry["exit"] = code
        _write_manifest(manifest)
        return
    recorded = _load_manifest()["numpy"]
    if recorded != np.__version__:
        pytest.fail(
            f"golden outputs were recorded with numpy {recorded}, this is numpy "
            f"{np.__version__}; regenerate them with MLTE_UPDATE_GOLDEN=1 and review the diff"
        )
    assert code == case["exit"]
    for suffix, content in produced.items():
        assert content == (GOLDEN / f"{case['name']}.{suffix}").read_bytes(), suffix


CSV_CASES = [case for case in CASES if ("--format", "csv") in zip(case["argv"], case["argv"][1:])]


@pytest.mark.parametrize("case", CSV_CASES, ids=[case["name"] for case in CSV_CASES])
def test_csv_output_has_fixed_width(case):
    # every row of a recorded CSV table, read by csv.reader, has as many
    # cells as its header: a label holding a comma or a quote is quoted
    suffix = "out" if "--out" in case["argv"] else "stdout"
    text = (GOLDEN / f"{case['name']}.{suffix}").read_text(encoding="utf-8")
    body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)


def test_worker_counts_give_identical_reports():
    # each case is checked against its file above; here the files of a
    # serial and a pooled study must agree, so the process pool reproduces
    # the serial run
    for study in ("simulate-t-y--correct", "plasmode-mainterms-csv"):
        serial, pooled = (GOLDEN / f"{study}-workers{w}.stdout" for w in (1, 2))
        assert serial.read_bytes() == pooled.read_bytes(), study


def test_utf8_labels_case_prints_the_same_bytes_in_an_ascii_locale(ascii_locale_env):
    # stdout is UTF-8 whatever the locale: run as a program under the C
    # locale, the case with accented arm labels prints its recorded bytes
    (case,) = [case for case in CASES if case["name"] == "estimate-utf8-labels-csv"]
    proc = subprocess.run(
        [sys.executable, "-m", "mlte.cli", *case["argv"]],
        cwd=GOLDEN, env=ascii_locale_env, capture_output=True,
    )
    assert proc.returncode == case["exit"], proc.stderr
    assert proc.stdout == (GOLDEN / f"{case['name']}.stdout").read_bytes()
