"""One fresh interpreter of the tcdo benchmark.

Started by ``run.py``; reads a JSON job on stdin and prints one JSON result
line on stdout.  The import of ``tcdo.cli`` comes first so that the set-up
time it reports covers interpreter start plus the package import and nothing
of the harness.  Each invocation is bracketed by speed samples (see
``calibrate.py``) and reported both raw (``seconds``) and scaled.

Job keys: ``invocations`` (a list of CLI argv lists), ``passes`` (a list of
pass names, each running every invocation once more in this process; names
may repeat), ``trace`` (wrap the first pass with spans), and for traced runs
``spans_out`` and ``run_id``.
"""

import sys
import time

# the parent's perf_counter just before it started this process; on Linux
# perf_counter reads CLOCK_MONOTONIC, which every process shares
T0 = float(sys.argv[1])
import tcdo.cli  # noqa: E402

T_IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import calibrate  # noqa: E402  (the benchmark's own module, next to this file)


def run_invocation(argv):
    """Run one CLI invocation in this process; returns its exit code, the
    exact bytes it printed and its wall time."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = tcdo.cli.main(list(argv))
    except Exception:
        traceback.print_exc()
        rc = -1
    return rc, buf.getvalue().encode(), time.perf_counter() - start


def payload_pass(out: bytes):
    try:
        return json.loads(out).get("pass")
    except (ValueError, AttributeError):
        return None


def main() -> int:
    src = os.environ["PERFBENCH_SRC"]
    if not os.path.realpath(tcdo.cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"tcdo imported from {tcdo.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    job = json.load(sys.stdin)
    result = {"setup_s": T_IMPORTED - T0, "passes": []}
    tracer = None
    if job.get("trace"):
        from trace_layers import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
    for i, name in enumerate(job.get("passes", [])):
        speed = [calibrate.speed_sample()]
        outputs = []
        for argv in job["invocations"]:
            outputs.append(run_invocation(argv))
            speed.append(calibrate.speed_sample())
        if tracer is not None and i == 0:
            tracer.uninstall()
        result["passes"].append([name, [
            {"rc": rc, "sha256": hashlib.sha256(out).hexdigest(), "pass": payload_pass(out), "seconds": sec,
             "scaled": sec * calibrate.scale(speed[k], speed[k + 1])}
            for k, (rc, out, sec) in enumerate(outputs)
        ]])
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(job["spans_out"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
