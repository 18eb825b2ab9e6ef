"""Run one meanderq CLI document in this fresh interpreter and report on it.

Usage: python3 child.py SRC_DIR TRACE CLI_ARG...

The interpreter is started for this one document, as a command-line user
starts one per command.  The script imports ``meanderq.cli`` from SRC_DIR
first, notes the ``time.monotonic()`` (CLOCK_MONOTONIC, shared by all
processes) at which the import returned (the parent subtracts its spawn
time to get the set-up time), then calls
``meanderq.cli.main`` with stdout captured.  With TRACE=1 the call runs
under the counting wrappers and the profiler of ``tracing.py``.

The last line of stdout is one JSON object: the ready time, the time and
CPU (self and children) spent in ``main``, its exit code, the document it
printed, the peak resident set, and in traced mode the trace report.
"""

import sys
import time


def main() -> None:
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    import meanderq.cli as cli  # also imports the meanderq package

    ready = time.monotonic()

    import io
    import json
    import os
    import resource
    import traceback

    report = {"ready": ready}
    pkg_dir = os.path.realpath(os.path.join(src, "meanderq"))
    if os.path.dirname(os.path.realpath(cli.__file__)) != pkg_dir:
        report["error"] = f"meanderq imported from {cli.__file__}, not {pkg_dir}"
        print(json.dumps(report))
        return

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(pkg_dir)
        tracer.install()

    buf = io.StringIO()
    real_stdout = sys.stdout
    rc = None
    sys.stdout = buf
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu0 = time.process_time()
    t0 = time.monotonic()
    try:
        if tracer is not None:
            tracer.profiler.enable()
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        report["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.profiler.disable()
        t1 = time.monotonic()
        cpu1 = time.process_time()
        children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        sys.stdout = real_stdout

    children_cpu = (children1.ru_utime - children0.ru_utime) + (
        children1.ru_stime - children0.ru_stime
    )
    report.update(
        run_s=t1 - t0,
        cpu_s=(cpu1 - cpu0) + children_cpu,
        rc=rc,
        out=buf.getvalue(),
        rss_kb=max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            children1.ru_maxrss,
        ),
    )
    if tracer is not None:
        report["trace"] = tracer.report(t0)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
