#!/usr/bin/env python3
"""Print the exit code and digests of stdout and stderr for fixed command lines.

Runs every job of the benchmark workloads (``perfbench/jobs.py``
``WORKLOADS``, each with ``--seed 1`` appended, as the benchmark appends a
seed) and a short list covering every command, among them expand past
the precision cap, the weight lifts of predict, forms with two pure
components or no conductor, and the csv and json outputs.  Each command
line runs in-process through ``modpforms.cli.main``; a ``SystemExit``
counts as its exit code.  One line per command line:
``exit sha1-of-stdout sha1-of-stderr argv``.  Run it on two trees and
``diff`` the outputs to check that the output and exit codes are unchanged:

    python benchmarks/cli_digest.py > digest.txt
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from modpforms import cli  # noqa: E402
from jobs import WORKLOADS  # noqa: E402

EXTRA = [
    ("expand", "--p", "3", "--form", "delta", "--prec", "14"),
    ("expand", "--p", "3", "--form", "delta", "--prec", "5", "--out", "csv"),
    # products on the lattice 3Z, series lengths 0, 1 and 2 mod 3
    ("expand", "--p", "3", "--form", "delta^2", "--prec", "100001", "--out", "csv"),
    ("count", "--p", "3", "--form", "delta^3-delta", "--xmax", "100002"),
    ("hecke", "--p", "3", "--form", "delta^2", "--op", "T", "--index", "2", "--prec", "40"),
    ("hecke", "--p", "3", "--form", "delta", "--op", "W", "--prec", "12"),
    ("alpha-group", "--case", "dihedral", "--param", "2"),
    ("alpha-group", "--case", "PSL2", "--param", "5"),
    (
        "compare", "--p", "3", "--form", "delta", "--xmax", "10000",
        "--checkpoints", "1000,10000", "--squarefree", "--prime-bound", "100000",
        "--sample-bound", "600", "--out", "csv",
    ),
    ("oracle", "--p", "3", "--form", "delta", "--xmax", "1000", "--sample-bound", "600", "--out", "json"),
    ("count", "--p", "7", "--form", "delta", "--xmax", "20000", "--out", "csv"),
    # pair sums across 31 output windows
    ("count", "--p", "7", "--form", "delta", "--xmax", "2000000"),
    # repeated and zero checkpoints, per-value columns for p = 7
    (
        "count", "--p", "7", "--form", "delta^2-delta", "--xmax", "100000",
        "--checkpoints", "0,10,10,100000", "--out", "csv",
    ),
    (
        "compare", "--p", "3", "--form", "delta", "--xmax", "10000",
        "--checkpoints", "1000,10000", "--prime-bound", "100000", "--sample-bound", "600",
    ),
    (
        "compare", "--p", "3", "--form", "delta", "--xmax", "10000", "--squarefree",
        "--checkpoints", "3,10000", "--prime-bound", "100000", "--sample-bound", "600",
    ),
    # two pure components
    ("module", "--p", "7", "--form", "delta^2", "--sample-bound", "600"),
    ("decompose", "--p", "7", "--form", "delta^2", "--sample-bound", "600"),
    ("constants", "--p", "7", "--form", "delta^2", "--sample-bound", "600", "--prime-bound", "100000"),
    # no conductor
    ("decompose", "--p", "3", "--form", "delta^7"),
    # no conductor where one is needed: exit 3 with the detection's reason
    ("module", "--p", "3", "--form", "delta^7"),
    ("constants", "--p", "3", "--form", "delta^7"),
    ("predict", "--p", "3", "--form", "delta^7"),
    ("oracle", "--p", "3", "--form", "delta^7", "--xmax", "1000"),
    # no conductor up to the moduli 625, 2401 and 23^4 = 279841
    ("module", "--p", "5", "--form", "delta^6"),
    ("module", "--p", "7", "--form", "delta^8"),
    ("predict", "--p", "23", "--form", "delta"),
    # conductor 27 at sample bound 50: 5 of the 18 classes have no sampled prime
    ("module", "--p", "3", "--form", "delta^5", "--sample-bound", "50"),
    ("predict", "--p", "3", "--form", "delta^5", "--sample-bound", "50"),
    ("oracle", "--p", "3", "--form", "delta^5", "--sample-bound", "50", "--xmax", "20000"),
    ("decompose", "--p", "3", "--form", "delta^5", "--sample-bound", "50"),
    ("constants", "--p", "3", "--form", "delta^5", "--sample-bound", "50"),
    # the square-full sum in 20 and 81 windows of s
    ("predict", "--p", "7", "--form", "delta", "--sfull-bound", "100000000000"),
    ("predict", "--p", "7", "--form", "delta", "--sfull-bound", "1000000000000"),
    # W(Delta^3) mod 7: two submodules of a module with no conductor, then exit 3
    ("predict", "--p", "7", "--form", "delta^3"),
    # weight lifts past the form's own weight
    ("predict", "--p", "11", "--form", "delta"),
    ("predict", "--p", "5", "--form", "delta^3", "--prime-bound", "100000"),
    ("hecke", "--p", "5", "--form", "delta", "--op", "S", "--index", "2", "--prec", "20"),
    # per-value constants from nilpotent walks: 10, 16 and 34 buckets at h = 2, 3 and 4,
    # h = 3 for Delta^15, and a sum of two powers
    ("predict", "--p", "3", "--form", "delta^4"),
    ("predict", "--p", "3", "--form", "delta^5"),
    ("predict", "--p", "3", "--form", "delta^10"),
    ("predict", "--p", "3", "--form", "delta^15"),
    ("predict", "--p", "3", "--form", "delta^4+delta^5"),
    # past series.MAX_PREC: exit 2
    ("expand", "--p", "3", "--form", "delta", "--prec", "10000001"),
    # products by a constant: E4 = 1 but E6 is not mod 5; E4 is not constant mod 7
    ("module", "--p", "5", "--form", "E6*delta^2"),
    ("decompose", "--p", "7", "--form", "E4*delta^2"),
    # the weight-960 basis is past module.AMBIENT_CAP, and the work precision past
    # series.MAX_PREC: exit 2, whether checked before or after evaluating the form
    ("module", "--p", "3", "--form", "delta^80"),
    ("oracle", "--p", "3", "--form", "delta^80", "--xmax", "1000"),
    ("module", "--p", "7", "--form", "E4", "--sample-bound", "10000000"),
    # counting keys past uint8 (p >= 128), divisor sums reduced inside the sieve's loop,
    # and zero and repeated checkpoints
    ("count", "--p", "251", "--form", "E6", "--xmax", "100000", "--out", "csv"),
    (
        "count", "--p", "131", "--form", "E4*delta", "--xmax", "30000",
        "--checkpoints", "0,5,5,30000",
    ),
    ("count", "--p", "7", "--form", "E4", "--xmax", "1000", "--checkpoints", "0,5,5"),
    # argparse's own exits: help, an unknown command, a flag the command does not take
    ("--help",),
    ("count", "--help"),
    ("predict", "--help"),
    ("frobnicate", "--p", "3"),
    ("count", "--p", "3", "--form", "delta", "--op", "T"),
    ("alpha-group", "--p", "3"),
    (),
]


def digest(argv):
    """(exit code, sha1 of stdout, sha1 of stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # reported, so that a crash shows in the diff
            code = type(exc).__name__
    return code, *(hashlib.sha1(f.getvalue().encode()).hexdigest() for f in (out, err))


def main():
    argvs = [job.argv + ("--seed", "1") for name in sorted(WORKLOADS) for job in WORKLOADS[name]]
    for argv in argvs + EXTRA:
        print(*digest(argv), " ".join(argv), flush=True)


if __name__ == "__main__":
    main()
