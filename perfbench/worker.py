"""Run one benchmark operation cold, in this fresh interpreter.

Usage: python3 worker.py ROOT TRACE OP_JSON

Imports `dssyklab.cli` from ROOT/src (timed as set-up), runs the operation
with stdout and stderr captured (timed as wall), reads the peak RSS and
prints one JSON record with the output on the real stdout; the parent
checks it.  TRACE=1 wraps the package's public functions for the duration
of the operation only.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

from apiops import OPS
from tracing import Tracer, op_metrics


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout, sys.stderr = saved
    return rc, out.getvalue(), err.getvalue()


def _peak_rss_mb() -> float:
    """Peak RSS of this process image.  ru_maxrss is not used where VmHWM
    exists: it keeps the pre-exec high-water mark, that of the parent."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    root, trace, op = argv[0], argv[1] == "1", json.loads(argv[2])
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    start = perf_counter()
    import dssyklab.cli as cli
    setup = perf_counter() - start
    lab = sys.modules["dssyklab"]
    if not os.path.abspath(lab.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"dssyklab imported from {lab.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if trace:
        tracer = Tracer().install()
    rc, text, err, api_result, error = 0, "", "", None, None
    start = perf_counter()
    try:
        if op["kind"] == "cli":
            rc, text, err = _run_cli(cli, op["argv"])
        else:
            api_result = OPS[op["api"]](lab, **op["args"])
    except Exception:  # an exception inside the program fails the operation
        error = traceback.format_exc(limit=-3)
    wall = perf_counter() - start
    peak_rss_mb = _peak_rss_mb()
    if tracer:
        tracer.uninstall()

    if api_result is not None:  # floats stay exact in JSON; polynomials go as text
        ok, detail, values = api_result
        api_result = [ok, detail, [v if isinstance(v, float) else str(v) for v in values]]
    record = {
        "setup_s": setup, "wall_s": wall, "peak_rss_mb": peak_rss_mb, "rc": rc,
        "problems": [error] if error else [], "stderr": err[-2000:],
        "output": text, "api_result": api_result, "bytes_out": len(text.encode()),
        "digest": hashlib.sha256((text + repr(api_result)).encode()).hexdigest(),
    }
    if tracer:
        record["layers"] = op_metrics(tracer.spans, tracer.counters)
        record["spans"] = tracer.spans
        record["unwrapped"] = tracer.missing
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
