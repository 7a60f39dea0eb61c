"""Byte-exact CLI output for every valid-input invocation on ``data/``.

``golden_cli.json`` pins the exit code, stdout and stderr of each case.
The ``compare`` cases read the official table against tables that the
pinned ``rank`` cases emit, so their inputs are fixed too. After an
intended output change, regenerate the file with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review the diff.
"""

import itertools
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from conftest import DATA_DIR

from hitsrank.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
MATCHES = "data/mini_league_matches.csv"
MATRIX = "data/epl_2010_11_adjacency.csv"
OFFICIAL = "data/epl_2010_11_official_points.csv"
FORMATS = ("text", "csv", "json")


def rank_argv(path: str, kind: str, *flags: str) -> tuple[str, ...]:
    return ("rank", "--input", path, "--input-kind", kind, *flags)


def table_argv(which: str, fmt: str) -> tuple[str, ...]:
    """The rank case whose stdout is the table file ``which.fmt``."""
    return rank_argv(MATRIX, "matrix", "--which", which, "--format", fmt, "--hub-order", "best-first")


TABLES = {f"{which}.{fmt}": table_argv(which, fmt) for which in ("authority", "hub") for fmt in ("csv", "json")}


def cases() -> list[tuple[str, ...]]:
    out = [
        rank_argv(path, kind, "--which", which, "--format", fmt, "--hub-order", order)
        for path, kind in ((MATCHES, "matches"), (MATRIX, "matrix"))
        for which, fmt, order in itertools.product(
            ("authority", "hub", "both"), FORMATS, ("best-first", "raw-desc")
        )
    ]
    out.append(rank_argv(MATCHES, "matches", "--win-weight", "0.1", "--draw-weight", "0.7"))
    out += [("points", "--input", MATCHES, "--format", fmt) for fmt in FORMATS]
    out += [("matrix", "--input", MATCHES), ("matrix", "--input", MATCHES, "--sort-teams")]
    out += [("compare", OFFICIAL, table, "--format", fmt) for table in TABLES for fmt in FORMATS]
    return out


def invoke(argv: tuple[str, ...]) -> dict[str, object]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_tables(root: Path, golden: dict[str, dict[str, object]]) -> None:
    """The rank tables that the compare cases read, as the rank cases emit them."""
    for name, argv in TABLES.items():
        (root / name).write_text(golden[" ".join(argv)]["stdout"], encoding="utf-8")


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, object]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def root(tmp_path_factory, golden) -> Path:
    path = tmp_path_factory.mktemp("golden")
    shutil.copytree(DATA_DIR, path / "data")
    write_tables(path, golden)
    return path


def test_cases_match_golden_file(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_output_is_byte_identical(argv, golden, root, monkeypatch):
    monkeypatch.chdir(root)
    assert invoke(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(DATA_DIR, root / "data")
        os.chdir(root)
        write_tables(root, {" ".join(argv): invoke(argv) for argv in TABLES.values()})
        results = {" ".join(argv): invoke(argv) for argv in cases()}
    GOLDEN.write_text(json.dumps(results, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
