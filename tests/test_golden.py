"""Golden report fixtures and report digests: same argv, same bytes.

Each golden case runs the CLI with a fixed seed and a fixed relative
``--out`` (the config echo records that path) and compares the file with
``tests/golden/<out>``.  The digest grid does the same for a wider set of
argv and compares the SHA-256 of each report with ``tests/golden/digests.json``,
which also records the numpy version, BLAS name and BLAS thread count it
was made under: haar reports depend on LAPACK's QR bits, so a digest can
move with either, and at d >= 99 with the thread count.

A change that alters report bytes on purpose regenerates the fixtures and
the digests with

    PYTHONPATH=src python tests/test_golden.py

which prints each argv whose digest moved or was added, and says why in its
change log.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from sglab.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden")
DIGESTS = GOLDEN / "digests.json"

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
    "blindness-d8": ["blindness", "--d", "8", "--env-model", "haar", "--seed", "19"],
    "absorbing-d8": ["absorbing", "--d", "8", "--env-model", "identity", "--weights", "geometric",
                     "--seed", "20"],
    "sweep": ["sweep", "--d", "2,3", "--trials", "3", "--weights", "geometric", "--seed", "18"],
}

FORMATS = {"json-lines": "jsonl", "csv": "csv"}

FIXTURES = [(case, fmt, f"{case}.{ext}") for case in CASES for fmt, ext in FORMATS.items()]

UNBALANCED = ["--alpha-re", "0.6", "--beta-re", "0", "--beta-im", "0.8"]
ZERO_ALPHA = ["--alpha-re", "0", "--beta-re", "1"]
ZERO_BETA = ["--alpha-re", "1", "--beta-re", "0"]
# Local runs straddle the report's 16384-row chunk bound and span several
# chunks; d = 8 is the largest transmitting d with full values and 11 the
# largest absorbing one, and d = 9 has none.
_GRID_RUNS = [
    ["local", "--basis", basis, *mixture, "--shots", str(shots), *UNBALANCED, "--seed", "31"]
    for basis in ("X", "Z") for mixture in ([], ["--mixture"])
    for shots in (1, 16383, 16384, 16385, 70001)
] + [
    ["joint", "--observables", "IZZ,XXX,ZZI,ZIZ,XXX", *UNBALANCED, "--seed", "32"],
    ["condition", "--alpha-re", "0.8", "--beta-re", "0.6", "--seed", "33"],
    ["ordinary", "--alpha-re", "0.6", "--beta-re", "0.8", "--seed", "34"],
    ["sweep", "--d", "1,2,5", "--trials", "40", *UNBALANCED, "--seed", "35"],
    ["sweep", "--d", "3,7", "--trials", "25", "--env-model", "phases", "--weights", "geometric",
     "--seed", "36"],
    ["blindness", "--d", "8", *UNBALANCED, "--seed", "37"],
    ["blindness", "--d", "9", "--env-model", "phases", "--seed", "38"],
    ["absorbing", "--d", "11", "--weights", "geometric", *UNBALANCED, "--seed", "39"],
] + [
    # One branch empty: the *_full traces are exact zeros, where a changed
    # sign of a zero in the demon operator would show as -0.
    ["blindness", "--d", "8", "--env-model", env, *prep, "--seed", "40"]
    for env in ("phases", "identity") for prep in (ZERO_ALPHA, ZERO_BETA)
] + [
    ["absorbing", "--d", "8", "--env-model", "phases", *ZERO_ALPHA, "--seed", "41"],
] + [
    # Diagonal environments past d = 9: sweeps with d = 1 and stacks of one
    # matrix (d >= 128), and detector pairs with analytic values only
    # (absorbing d = 12 is the first without *_full fields).
    ["sweep", "--d", "1,64,130", "--trials", "3", "--env-model", env, "--weights", weights,
     "--seed", "42"]
    for env in ("phases", "identity") for weights in ("uniform", "geometric")
] + [
    [pipeline, "--d", d, "--env-model", env, "--seed", "43"]
    for pipeline, d in (("blindness", "130"), ("absorbing", "130"), ("absorbing", "12"))
    for env in ("phases", "identity")
] + [
    # Haar stacks of one matrix each.
    ["sweep", "--d", "130", "--trials", "2", "--env-model", "haar", "--seed", "44"],
]
# The digest grid: each run in both formats, keyed by its argv.
DIGEST_GRID = {
    " ".join(argv): argv
    for run in _GRID_RUNS for fmt, ext in FORMATS.items()
    for argv in [[*run, "--format", fmt, "--out", f"report.{ext}"]]
}


def environment() -> dict:
    """The numpy version, BLAS name and BLAS thread count that report bits
    can depend on.  The thread count is the first of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS that is set, else the number of
    CPUs the process may run on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):  # older numpy: no dict mode
        blas = {}
    threads = next((os.environ[name] for name in
                    ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
                    if os.environ.get(name)), len(os.sched_getaffinity(0)))
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": int(threads)}


def run_report(argv: list[str]) -> bytes:
    """Run one CLI argv in the current directory and return the report bytes."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", *argv])
    assert code == 0, f"{' '.join(argv)} exited {code}"
    return Path(argv[argv.index("--out") + 1]).read_bytes()


def render(case: str, fmt: str, name: str) -> bytes:
    return run_report([*CASES[case], "--format", fmt, "--out", name])


def digests() -> dict[str, str]:
    """SHA-256 of each digest-grid report, made in the current directory."""
    return {key: hashlib.sha256(run_report(argv)).hexdigest()
            for key, argv in DIGEST_GRID.items()}


@pytest.mark.parametrize("case,fmt,name", FIXTURES, ids=[name for _, _, name in FIXTURES])
def test_report_matches_golden_fixture(case, fmt, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert render(case, fmt, name) == (GOLDEN / name).read_bytes()


def test_report_digests_match(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(DIGESTS.read_text())
    assert list(recorded["digests"]) == list(DIGEST_GRID)
    got = digests()
    moved = [key for key, digest in recorded["digests"].items() if got[key] != digest]
    assert not moved, (f"{len(moved)} report digests moved; recorded under "
                       f"{recorded['environment']}, running under {environment()}: {moved}")


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for case, fmt, name in FIXTURES:
        render(case, fmt, name)
        print(GOLDEN / name, file=sys.stderr)
    old = json.loads(DIGESTS.read_text())["digests"] if DIGESTS.exists() else {}
    new = digests()
    for ext in FORMATS.values():
        os.remove(f"report.{ext}")
    DIGESTS.write_text(json.dumps({"environment": environment(), "digests": new}, indent=1) + "\n")
    for key, digest in new.items():
        if key not in old:
            print(f"digest added: {key}", file=sys.stderr)
        elif old[key] != digest:
            print(f"digest moved: {key}", file=sys.stderr)
    print(DIGESTS, file=sys.stderr)
