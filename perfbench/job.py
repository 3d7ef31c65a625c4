"""Run one ``modpforms`` command line in this process and report on it.

    python3 perfbench/job.py '{"argv": [...], "trace": false}'

Prints one JSON line: the exit code, the command's captured stdout, the
CLOCK_MONOTONIC time at which the command started (after the interpreter
started and the package was imported), the command's own duration, the
process's peak resident set, and with tracing the per-layer totals and
the raw spans.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main():
    spec = json.loads(sys.argv[1])
    from modpforms import cli, kernels

    recorder = None
    if spec["trace"]:
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)

    captured = io.StringIO()
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    t0 = time.perf_counter()
    error = None
    try:
        with contextlib.redirect_stdout(captured):
            rc = cli.main(spec["argv"])
    except Exception:  # reported to the driver, which counts the job as failed
        rc = None
        error = traceback.format_exc()
    command_s = time.perf_counter() - t0

    result = {
        "rc": rc,
        "error": error,
        "stdout": captured.getvalue(),
        "started": started,
        "command_s": command_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": kernels.BACKEND,
    }
    if recorder is not None:
        result["layers"] = recorder.totals(command_s)
        result["spans"] = recorder.spans
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
