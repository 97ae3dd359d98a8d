"""One workload repetition in a fresh interpreter.

Run by run.py with the library's source directory on PYTHONPATH.  Reads a
JSON job from stdin: {"targets": [...]} runs verify targets, {"queries":
[argv, ...]} runs `qc` commands through cli.main, and neither only reports
set-up.  With "trace": true the tracer is installed first.

Writes to stdout one record per query, a header line "Q <exit code>
<seconds> <bytes>" followed by that many bytes of the command's stdout,
and last one JSON line with the set-up end time (time.monotonic, which
is shared across processes), the workload's wall time, ru_maxrss and the
per-target or trace results.
"""

import time

import queercrystals.cli

SETUP_DONE = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run_targets(names):
    from queercrystals import verify

    out = []
    for name in names:
        start = time.perf_counter()
        try:
            res = verify.run_target(name)
            ok, checks = bool(res.ok), res.checks
        except Exception:
            traceback.print_exc()
            ok, checks = False, -1
        out.append([name, ok, checks, time.perf_counter() - start])
    return out


def run_queries(argvs, sink):
    cli = queercrystals.cli
    for argv in argvs:
        buf, failure = io.StringIO(), ""
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code, failure = -1, traceback.format_exc()
        dt = time.perf_counter() - start
        sys.stderr.write(failure)
        data = buf.getvalue().encode()
        sink.write(b"Q %d %r %d\n" % (code, dt, len(data)))
        sink.write(data)


def main():
    job = json.loads(sys.stdin.read())
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
    sink = sys.stdout.buffer
    result = {"setup_done": SETUP_DONE}
    start = time.perf_counter()
    if "targets" in job:
        result["targets"] = run_targets(job["targets"])
    elif "queries" in job:
        run_queries(job["queries"], sink)
    result["wall_s"] = time.perf_counter() - start
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"], result["edges"] = tracer.report()
    sink.write(json.dumps(result).encode() + b"\n")
    sink.flush()


if __name__ == "__main__":
    main()
