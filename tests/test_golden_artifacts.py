"""Golden CLI artifacts: every configuration in golden_artifacts.txt writes the bytes recorded there.

Each manifest line is ``<sha256> <lines> <argv>``: the SHA-256 and line count of the file that
``cli.main(argv + ["--out", ...])`` writes, run from a fresh directory holding a copy of
golden_measures.txt (the relative path the cake ``--measures`` configuration records in its
config line).  After a deliberate byte change, ``PYTHONPATH=src python
tests/test_golden_artifacts.py`` rewrites the first two columns and keeps the argv column.
"""

import hashlib
import os
import platform
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sybilgames import cli

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden_artifacts.txt"
MEASURES = HERE / "golden_measures.txt"


def _entries() -> list[tuple[str, int, str]]:
    rows = [line.split(" ", 2) for line in MANIFEST.read_text().splitlines() if line and not line.startswith("#")]
    return [(sha, int(lines), argv) for sha, lines, argv in rows]


def _digest(argv: str) -> tuple[str, int]:
    """SHA-256 and line count of the artifact ``argv`` writes from the current directory."""
    shutil.copy(MEASURES, MEASURES.name)
    assert cli.main(shlex.split(argv) + ["--out", "artifact.csv"]) == 0, argv
    data = Path("artifact.csv").read_bytes()
    return hashlib.sha256(data).hexdigest(), data.count(b"\n")


ENTRIES = _entries()


@pytest.mark.parametrize("sha, lines, argv", ENTRIES, ids=[argv for _, _, argv in ENTRIES])
def test_cli_artifact_matches_the_golden_manifest(sha, lines, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = _digest(argv)
    versions = f"Python {platform.python_version()}, numpy {np.__version__}"
    assert got == (sha, lines), f"{argv}: sha256 {got[0]}, {got[1]} lines; manifest {sha}, {lines} lines ({versions})"


if __name__ == "__main__":
    header = [line for line in MANIFEST.read_text().splitlines() if line.startswith("#")]
    rows = []
    for _, _, argv in ENTRIES:
        with tempfile.TemporaryDirectory() as work:
            cwd = os.getcwd()
            os.chdir(work)
            try:
                rows.append("{} {} {}".format(*_digest(argv), argv))
            finally:
                os.chdir(cwd)
    MANIFEST.write_text("\n".join(header + rows) + "\n")
    print(f"rewrote {len(rows)} entries of {MANIFEST}", file=sys.stderr)
