"""Benchmark of the modpforms command line, end to end and layer by layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Runs the workload's CLI jobs (see ``jobs.py``) in rounds.  Each job is a
fresh ``python3 perfbench/job.py`` process, started one at a time from
this process, with numeric libraries pinned to one thread and
``src/`` of this checkout on the path.  A new round starts only while the
rounds so far plus one more fit in ``--seconds``; there is always at
least one.  The seed sets the order of the jobs in each round and the
``--seed`` flag of every command.

Every output is checked, between jobs, against ``refs.py``, never against
a stored copy of earlier output; its large tables are built before the
first job.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are

* ``setup_s``: median over the jobs of the time from launching a job's
  process to the start of its command (interpreter and imports);
* ``wall_s``: median over the rounds of the sum of the commands' own times;
* ``peak_rss_mb``: the largest peak resident set of any job.

With ``--trace 1`` every job runs with the span wrappers of ``layers.py``
and the metrics are the per-layer self times and counts, per round, plus
``trace.wall_s``; the raw spans go to ``perfbench/out/``.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0  # a run has to end within 180 s
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class RunAborted(Exception):
    """A job could not be run at all; the run prints no result."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


def run_job(argv, trace, env, deadline):
    """Run one command line in a fresh process and return its report."""
    spec = json.dumps({"argv": list(argv), "trace": bool(trace)})
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), spec],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunAborted(f"{' '.join(argv)} did not end before the run's time limit") from exc
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise RunAborted(
            f"{' '.join(argv)} exited {proc.returncode} without a report:\n{proc.stderr[-2000:]}"
        ) from exc
    report["setup_s"] = report["started"] - launched
    return report


def _layer_metrics(round_totals):
    """Per-round means of the per-layer totals (the maximum for max_dim)."""
    out = {}
    for name, unit in layers.METRICS:
        values = [totals.get(name, 0) for totals in round_totals]
        value = max(values) if name.endswith(".max_dim") else sum(values) / len(values)
        out[name] = {"value": value, "unit": unit}
    return out


def _add_layers(into, totals):
    for name, value in totals.items():
        if name.endswith(".max_dim"):
            into[name] = max(into.get(name, 0), value)
        else:
            into[name] = into.get(name, 0) + value


def run(workload_name, seed, seconds, trace):
    workload = jobs.WORKLOADS[workload_name]
    cache = jobs.ReferenceCache()
    expected = [job.expected(cache) for job in workload]
    rng = random.Random(seed)
    env = _child_env()
    deadline = time.monotonic() + RUN_LIMIT_S
    trace_file = None
    if trace:
        (HERE / "out").mkdir(exist_ok=True)
        trace_file = open(HERE / "out" / f"trace_{workload_name}_seed{seed}.jsonl", "w")

    correct, attempted, failed = True, 0, 0
    setups, peaks, round_walls, round_layers = [], [], [], []
    start = time.monotonic()
    try:
        while True:
            round_start = time.monotonic()
            wall, totals = 0.0, {}
            for index in rng.sample(range(len(workload)), len(workload)):
                job = workload[index]
                argv = job.argv + ("--seed", str(rng.randrange(2**31)))
                report = run_job(argv, trace, env, deadline)
                attempted += 1
                setups.append(report["setup_s"])
                peaks.append(report["peak_rss_mb"])
                wall += report["command_s"]
                print(
                    f"round {len(round_walls) + 1}: {report['command_s']:8.3f} s  "
                    f"setup {report['setup_s']:.3f} s  rc {report['rc']}  {' '.join(argv)}",
                    file=sys.stderr,
                )
                if report["rc"] not in (0, 1):  # 1 is the oracle's mismatch verdict
                    failed += 1
                    print(report["error"] or f"exit code {report['rc']}", file=sys.stderr)
                else:
                    try:
                        job.verify(report["stdout"], report["rc"], expected[index])
                    except jobs.CheckError as exc:
                        correct = False
                        print(f"WRONG OUTPUT: {' '.join(argv)}: {exc}", file=sys.stderr)
                if trace:
                    _add_layers(totals, report["layers"])
                    trace_file.write(
                        json.dumps(
                            {
                                "round": len(round_walls) + 1,
                                "argv": argv,
                                "backend": report["backend"],
                                "command_s": report["command_s"],
                                "spans": report["spans"],
                            }
                        )
                        + "\n"
                    )
            round_walls.append(wall)
            round_layers.append(totals)
            now = time.monotonic()
            if now - start + (now - round_start) > seconds:
                break
    finally:
        if trace_file is not None:
            trace_file.close()

    if trace:
        metrics = _layer_metrics(round_layers)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(round_walls), "unit": "s"},
            "peak_rss_mb": {"value": max(peaks), "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "modpforms" / "cli.py").is_file():
        print(f"no modpforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except RunAborted as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
