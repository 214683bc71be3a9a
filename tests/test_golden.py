"""Golden report fixtures: every pipeline in both formats, byte for byte.

Each case runs the CLI with a fixed seed and a fixed relative ``--out``
(the config echo records that path) and compares the file with
``tests/golden/<out>``.  A change that alters report bytes on purpose
regenerates the fixtures with

    PYTHONPATH=src python tests/test_golden.py

and says why in its change log.
"""
import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from sglab.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden")

CASES = {
    "local": ["local", "--shots", "40", "--basis", "X", "--alpha-re", "0.6",
              "--beta-re", "0", "--beta-im", "0.8", "--seed", "11"],
    "local-mixture": ["local", "--shots", "40", "--basis", "X", "--mixture", "--seed", "12"],
    "joint": ["joint", "--observables", "IZZ,ZZI,ZIZ,XXX", "--seed", "13"],
    "condition": ["condition", "--alpha-re", "0.6", "--beta-re", "0.8", "--seed", "14"],
    "ordinary": ["ordinary", "--seed", "15"],
    "blindness": ["blindness", "--d", "2", "--env-model", "haar", "--seed", "16"],
    "absorbing": ["absorbing", "--d", "2", "--env-model", "phases", "--weights", "geometric",
                  "--seed", "17"],
    "sweep": ["sweep", "--d", "2,3", "--trials", "3", "--weights", "geometric", "--seed", "18"],
}

FORMATS = {"json-lines": "jsonl", "csv": "csv"}

FIXTURES = [(case, fmt, f"{case}.{ext}") for case in CASES for fmt, ext in FORMATS.items()]


def render(case: str, fmt: str, name: str) -> bytes:
    """Run one case in the current directory and return the report bytes."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", *CASES[case], "--format", fmt, "--out", name])
    assert code == 0, f"{case} {fmt} exited {code}"
    return Path(name).read_bytes()


@pytest.mark.parametrize("case,fmt,name", FIXTURES, ids=[name for _, _, name in FIXTURES])
def test_report_matches_golden_fixture(case, fmt, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert render(case, fmt, name) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    os.chdir(GOLDEN)
    for case, fmt, name in FIXTURES:
        render(case, fmt, name)
        print(GOLDEN / name, file=sys.stderr)
