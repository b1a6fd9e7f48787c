"""Golden stdout: exact exit codes and stdout bytes of in-process CLI calls.

Each case's stdout is kept in tests/golden/<name>.out.  A refactor that
must not change output runs this file unchanged before and after.  After an
intended output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from sunflower.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [  # (name, argv, exit code)
    ("search-vectors-333", ["search", "vectors", "--moduli", "3,3,3"], 0),
    ("search-vectors-334", ["search", "vectors", "--moduli", "3,3,4"], 0),
    ("search-vectors-444", ["search", "vectors", "--moduli", "4,4,4"], 0),
    ("search-vectors-3333-budget",
     ["search", "vectors", "--moduli", "3,3,3,3", "--budget-nodes", "20000"], 0),
    ("search-vectors-2223", ["search", "vectors", "--moduli", "2,2,2,3"], 0),
    ("search-uniform-3-7", ["search", "uniform", "--k", "3", "--m", "7"], 0),
    ("search-uniform-3-8", ["search", "uniform", "--k", "3", "--m", "8"], 0),
    ("search-uniform-2-8-budget",
     ["search", "uniform", "--k", "2", "--m", "8", "--budget-nodes", "500"], 0),
    ("search-uniform-2-9-budget",
     ["search", "uniform", "--k", "2", "--m", "9", "--budget-nodes", "100"], 0),
    ("conjecture-scan-2-4to9", ["conjecture", "scan", "--k", "2", "--m", "4..9"], 0),
    ("cnf-export-vectors-33", ["cnf", "export", "--moduli", "3,3", "--size", "5"], 0),
    ("cnf-check-vectors-33", ["cnf", "check", "--moduli", "3,3", "--size", "5"], 0),
    ("cnf-export-uniform-2-5", ["cnf", "export", "--k", "2", "--m", "5", "--size", "4"], 0),
    ("cnf-check-uniform-2-5", ["cnf", "check", "--k", "2", "--m", "5", "--size", "5"], 0),
    ("detect-sets",
     ["detect", "sets", "--inline", "1 2 3;1 4;2 4;3 5;1 5 6;2 6;4 5 6;3 4 6"], 0),
    ("detect-vectors-found", ["detect", "vectors", "--moduli", "3,3,4", "--inline",
                              "0,0,0;0,1,1;1,0,2;1,1,3;2,2,1;0,2,3;2,1,0;1,2,2"], 0),
    ("detect-vectors-free",
     ["detect", "vectors", "--moduli", "3,3", "--inline", "0,0;0,1;1,0;1,1"], 0),
    ("detect-ap", ["detect", "ap", "--moduli", "3,5", "--inline", "0,0;1,2;2,4;0,3"], 0),
    ("reduce-pipeline", ["reduce", "pipeline", "--inline", "1 2;3 4;1 3;2 4"], 0),
    ("reduce-pipeline-seeded",
     ["reduce", "pipeline", "--inline", "1 2;3 4;1 3;2 4", "--seed", "7", "--rounds", "4"], 0),
    ("reduce-pipeline-sunflower",
     ["reduce", "pipeline", "--inline", "1 2;3 4;1 3;2 4;5 6;1 5 7"], 1),
    ("bounds-moduli-333", ["bounds", "--moduli", "3,3,3"], 0),
    ("bounds-k16-M40", ["bounds", "--k", "16", "--M", "40"], 0),
    ("bounds-j-q5", ["bounds", "j", "--q", "5"], 0),
    ("bounds-k16-M40-table", ["bounds", "--k", "16", "--M", "40", "--format", "table"], 0),
    ("detect-sets-t4",
     ["detect", "sets", "--t", "4", "--inline", "1 2 3;1 4;2 4;3 5;1 5 6;2 6;4 5 6;3 4 6"], 0),
    ("detect-ap-free", ["detect", "ap", "--moduli", "3", "--inline", "0;1"], 0),
    ("search-vectors-domain-error", ["search", "vectors", "--moduli", "3,1"], 1),
]

HELP_PATHS = [  # every parser: the root, 5 groups and 11 commands
    [],
    ["detect"], ["detect", "sets"], ["detect", "vectors"], ["detect", "ap"],
    ["bounds"], ["bounds", "j"],
    ["reduce"], ["reduce", "pipeline"],
    ["search"], ["search", "vectors"], ["search", "uniform"],
    ["cnf"], ["cnf", "export"], ["cnf", "check"],
    ["conjecture"], ["conjecture", "scan"],
]
CASES += [
    ("-".join(["help", *path]) if path else "help-root", [*path, "--help"], 0)
    for path in HELP_PATHS
]


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_stdout(name, argv, code):
    got_code, got = run_case(argv)
    assert got_code == code
    assert got == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, _ in CASES:
        (GOLDEN / f"{name}.out").write_text(run_case(argv)[1], encoding="utf-8", newline="")
    sys.exit(0)
