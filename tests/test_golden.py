"""Golden report fixtures and report digests: same argv, same bytes.

Each golden case runs the CLI with a fixed seed and a fixed relative
``--out`` (the config echo records that path) and compares the file with
``tests/golden/<out>``.  The digest grid does the same for a wider set of
argv and compares the SHA-256 of each report with ``tests/golden/digests.json``,
which also records the numpy version, BLAS name and BLAS thread count it
was made under: haar reports depend on LAPACK's QR bits, so a digest can
move with either, and at d >= 99 with the thread count.  So the grid runs
in a fresh interpreter with the BLAS thread variables set to the recorded
count, whatever the count of the test process.  The haar argv whose bits
move with the count also have their one-thread digests recorded, and a
one-thread interpreter checks them, so the sensitivity stays in view.

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
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sglab.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden")
DIGESTS = GOLDEN / "digests.json"
SRC = Path(__file__).resolve().parents[1] / "src"
# OpenBLAS reads the first of these that is set, once, when numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

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
COMPLEX = ["--alpha-re", "0", "--alpha-im", "0.6", "--beta-re", "0.8"]
# Haar stacks of one matrix each.  At d >= 99 LAPACK's QR bits, and so these
# reports', differ between one BLAS thread and two.
HAAR_130 = ["sweep", "--d", "130", "--trials", "2", "--env-model", "haar", "--seed", "44"]
# Local runs straddle the report's 16384-row chunk bound and span several
# chunks; d = 8 is the largest transmitting d with full values and 11 the
# largest absorbing one, and d = 9 has none.
_GRID_RUNS = [
    ["local", "--basis", basis, *mixture, "--shots", str(shots), *UNBALANCED, "--seed", "31"]
    for basis in ("X", "Z") for mixture in ([], ["--mixture"])
    for shots in (1, 16383, 16384, 16385, 70001)
] + [
    ["joint", "--observables", "IZZ,XXX,ZZI,ZIZ,XXX", *UNBALANCED, "--seed", "32"],
] + [
    # Not XXX eigenstates: Born draws, projections and renormalization all
    # run at every step, on a prep with a non-real amplitude.
    ["joint", "--observables", "XXX,IZZ,XXX,ZZI,XXX,ZIZ,XXX,IZZ,ZZI,ZIZ,XXX,XXX", *COMPLEX,
     "--seed", seed]
    for seed in ("45", "46")
] + [
    ["joint", "--observables", "ZZI,ZIZ", *COMPLEX, "--seed", "47"],
    ["condition", *COMPLEX, "--seed", "48"],
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
    HAAR_130,
]
# The digest grid: each run in both formats, keyed by its argv.
DIGEST_GRID = {
    " ".join(argv): argv
    for run in _GRID_RUNS for fmt, ext in FORMATS.items()
    for argv in [[*run, "--format", fmt, "--out", f"report.{ext}"]]
}
# The grid argv whose digests are also recorded at one BLAS thread.
ONE_THREAD = [key for key, argv in DIGEST_GRID.items() if argv[:len(HAAR_130)] == HAAR_130]


def environment() -> dict:
    """The numpy version, BLAS name and BLAS thread count that report bits
    can depend on.  The thread count is the first of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS that is set, else the number of
    CPUs the process may run on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):  # older numpy: no dict mode
        blas = {}
    threads = next((os.environ[name] for name in THREAD_VARS if os.environ.get(name)),
                   len(os.sched_getaffinity(0)))
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


def digests(keys) -> dict[str, str]:
    """SHA-256 of the report of each digest-grid argv in ``keys``, made in the
    current directory."""
    return {key: hashlib.sha256(run_report(DIGEST_GRID[key])).hexdigest() for key in keys}


def digests_at(threads: int, keys, cwd) -> dict[str, str]:
    """``digests(keys)`` made in ``cwd`` by a fresh interpreter whose BLAS
    thread variables are all set to ``threads``."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, str(threads)),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, __file__, "--digests", *keys], cwd=cwd, env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.mark.parametrize("case,fmt,name", FIXTURES, ids=[name for _, _, name in FIXTURES])
def test_report_matches_golden_fixture(case, fmt, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert render(case, fmt, name) == (GOLDEN / name).read_bytes()


def test_report_digests_match(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    assert list(recorded["digests"]) == list(DIGEST_GRID)
    threads = recorded["environment"]["blas_threads"]
    got = digests_at(threads, DIGEST_GRID, tmp_path)
    moved = [key for key, digest in recorded["digests"].items() if got[key] != digest]
    running = {**environment(), "blas_threads": threads}
    assert not moved, (f"{len(moved)} report digests moved; recorded under "
                       f"{recorded['environment']}, running under {running}: {moved}")


def test_thread_sensitive_digests_match_at_one_thread(tmp_path):
    recorded = json.loads(DIGESTS.read_text())["one_thread"]
    assert list(recorded) == ONE_THREAD
    assert digests_at(1, ONE_THREAD, tmp_path) == recorded


if __name__ == "__main__" and sys.argv[1:2] == ["--digests"]:
    print(json.dumps(digests(sys.argv[2:])))
elif __name__ == "__main__":
    os.chdir(GOLDEN)
    for case, fmt, name in FIXTURES:
        render(case, fmt, name)
        print(GOLDEN / name, file=sys.stderr)
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    env = environment()
    with tempfile.TemporaryDirectory() as scratch:
        new = {"digests": digests_at(env["blas_threads"], DIGEST_GRID, scratch),
               "one_thread": digests_at(1, ONE_THREAD, scratch)}
    DIGESTS.write_text(json.dumps({"environment": env, **new}, indent=1) + "\n")
    for part, table in new.items():
        for key, digest in table.items():
            if key not in old.get(part, {}):
                print(f"{part} digest added: {key}", file=sys.stderr)
            elif old[part][key] != digest:
                print(f"{part} digest moved: {key}", file=sys.stderr)
    print(DIGESTS, file=sys.stderr)
