#!/usr/bin/env python3
"""Print the exit code and a stdout digest of fixed command lines.

Runs every job of the benchmark workloads (``perfbench/jobs.py``
``WORKLOADS``, each with ``--seed 1`` appended, as the benchmark appends a
seed) and a short list covering expand, hecke, alpha-group, compare csv
and oracle json.  Each command line runs in-process through
``modpforms.cli.main``; a ``SystemExit`` counts as its exit code.  One line
per command line: ``exit sha1-of-stdout argv``.  Run it on two trees and
``diff`` the outputs to check that stdout and exit codes are unchanged:

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
]


def digest(argv):
    """(exit code, sha1 of stdout) of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # reported, so that a crash shows in the diff
            code = type(exc).__name__
    return code, hashlib.sha1(out.getvalue().encode()).hexdigest()


def main():
    argvs = [job.argv + ("--seed", "1") for name in sorted(WORKLOADS) for job in WORKLOADS[name]]
    for argv in argvs + EXTRA:
        code, sha = digest(argv)
        print(code, sha, " ".join(argv), flush=True)


if __name__ == "__main__":
    main()
