"""One pass of a perfbench workload, in a fresh interpreter.

Usage (run.py starts it; the working directory is the checkout root)::

    python3 perfbench/passrun.py --workload W --seed N --pass-index K \
        --t0 MONOTONIC --workdir DIR --out FILE --mode timed|traced|setup

The pass imports paraclaw from ``src``, generates its problem files and
records ``setup_s`` (from ``--t0``, taken by the parent just before it
started this interpreter, to the first timed call).  It then calls
``paraclaw.cli.main(argv)`` once per request, timing each call with the
report captured, and writes the reports, latencies, the speed scales of
each request and of the pass (speed.py) and the peak RSS to ``--out``.  A traced pass also records
spans; ``--mode setup`` stops after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except (Exception, SystemExit) as exc:  # recorded as a failed request
        rc, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    return rc, error, out.getvalue(), err.getvalue(), elapsed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=("timed", "traced", "setup"), required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from paraclaw import cli
    import problems
    import speed

    requests = problems.generate(args.workload, args.seed, args.pass_index)
    paths = problems.write_files(requests, args.workdir)
    tracer = None
    if args.mode == "traced":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.t0
    calibrations = [speed.calibrate()]
    result = {"setup_s": setup_s, "pass_index": args.pass_index,
              "digest": problems.digest(requests), "calibration_s": calibrations}
    if args.mode == "setup":
        requests = paths = []
    outcomes = []
    calibrated = time.perf_counter()
    for k, (req, path) in enumerate(zip(requests, paths)):
        if tracer is not None:
            tracer.problem = req["id"]
        rc, error, out, err, elapsed = _call(cli.main, problems.argv(req, path))
        outcomes.append({"rc": rc, "error": error, "stdout": out,
                         "stderr": err, "latency_s": elapsed,
                         "calibration": len(calibrations) - 1})
        if (k == len(requests) - 1 or time.perf_counter() - calibrated
                >= speed.CALIBRATION_INTERVAL_S):
            calibrations.append(speed.calibrate())
            calibrated = time.perf_counter()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for outcome in outcomes:
        # the calibrations just before and just after the request
        before = outcome.pop("calibration")
        outcome["scale"] = speed.scale(calibrations[before:before + 2])
        try:
            outcome["report"] = json.loads(outcome["stdout"]) if outcome["rc"] == 0 else None
        except ValueError:
            outcome["report"], outcome["error"] = None, "report is not JSON"
    result["requests"] = requests
    result["outcomes"] = outcomes
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    result["scale"] = speed.scale(calibrations)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
