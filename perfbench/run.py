"""perfbench: the paraclaw benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads are ``flux-heavy``, ``wide-ansatz``
and ``classify-verify`` (see README.md).  Each pass of a workload runs in a
fresh interpreter (passrun.py), single-threaded, one pass after another; the
seed fixes every problem.  ``--seconds`` sizes the run (see NOMINAL_PASS_S).
Reports are checked against the oracles of oracles.py after the passes,
outside every timed interval.

``--trace 0`` runs each distinct pass REPEATS times, interleaved, and
reports the end-to-end metrics from the median latency of each request.
``--trace 1`` runs each pass untraced and then traced (tracing.py), checks
that both give the same reports, and reports the per-layer metrics and the
tracing overhead.
The last line of standard output is the result object; the line before it
records the seed, the problems, the environment and the failure ratios.
Full records (and spans, for traced runs) are written under
``.perfbench_out/``.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import problems  # noqa: E402
import tracing  # noqa: E402

BUDGET_S = 170.0          # a run must end within 180 s
HASH_SEED = "0"           # fixed dict/set layout in every pass
REPEATS = 3               # each untraced pass runs this often; latency is the median
SETUP_SAMPLES = 9         # set-up-only interpreters make up the passes to this many

# Seconds one pass of each workload takes at the seed commit on a 2-core
# Xeon VM.  They size a run: --seconds S runs ceil(S / (REPEATS * nominal))
# distinct passes, so a run does a fixed amount of work that takes at least
# S seconds there.
NOMINAL_PASS_S = {"flux-heavy": 11.5, "wide-ansatz": 3.5, "classify-verify": 2.5}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_1min() -> float | None:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MiB"
    return "count"


class PassFailed(RuntimeError):
    pass


class Runner:
    """Starts the pass interpreters of one run, one at a time."""

    def __init__(self, root: str, workload: str, seed: int, workdir: str):
        self.root, self.workload, self.seed, self.workdir = root, workload, seed, workdir
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)

    def spawn(self, index: int, mode: str) -> dict:
        remaining = BUDGET_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise PassFailed("time budget of the run exhausted")
        out = os.path.join(self.workdir, f"pass{index}-{mode}.json")
        load_start = load_1min()
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "passrun.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--pass-index", str(index), "--t0", repr(t0),
               "--workdir", os.path.join(self.workdir, f"pass{index}-{mode}"),
               "--out", out, "--mode", mode]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise PassFailed(f"pass {index} ({mode}) exceeded the time budget") from exc
        if proc.returncode != 0:
            raise PassFailed(f"pass {index} ({mode}) exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
        record["load_1min"] = [load_start, load_1min()]
        return record


def check_passes(records, families: dict) -> tuple[int, list[str]]:
    """(failed requests, failure messages) over all requests of the passes."""
    failed, messages = 0, []
    for record in records:
        for req, outcome in zip(record["requests"], record["outcomes"]):
            errors = oracles.check_problem(req, outcome, families)
            failed += bool(errors)
            messages += [f"pass {record['pass_index']} {req['id']}: {e}" for e in errors]
    return failed, messages


def law_counts(records) -> tuple[int, int]:
    laws = missing = 0
    for record in records:
        for outcome in record["outcomes"]:
            for law in (outcome.get("report") or {}).get("laws", []):
                laws += 1
                missing += law["flux"] is None
    return laws, missing


def pass_summary(record: dict) -> dict:
    return {"pass": record["pass_index"], "digest": record["digest"],
            "requests": len(record["requests"]),
            "load_1min": record["load_1min"],
            "setup_s": record["setup_s"], "scale": record["scale"],
            "peak_rss_mb": record["peak_rss_mb"]}


def distinct_passes(workload: str, seconds: int, repeats: int) -> int:
    return max(1, math.ceil(seconds / (repeats * NOMINAL_PASS_S[workload])))


def run_untraced(runner: Runner, seconds: int, families: dict):
    distinct = distinct_passes(runner.workload, seconds, REPEATS)
    passes = [runner.spawn(k, "timed") for _ in range(REPEATS) for k in range(distinct)]
    probes = [runner.spawn(0, "setup") for _ in range(SETUP_SAMPLES - len(passes))]
    failed, failures = check_passes(passes, families)
    scaled, raw = {}, {}
    for p in passes:
        for i, o in enumerate(p["outcomes"]):
            key = (p["pass_index"], i)
            scaled.setdefault(key, []).append(o["latency_s"] * o["scale"])
            raw.setdefault(key, []).append(o["latency_s"])
    latencies = [statistics.median(v) for v in scaled.values()]
    raw_latencies = [statistics.median(v) for v in raw.values()]
    attempted = sum(len(p["outcomes"]) for p in passes)
    ok_share = 1 - failed / attempted
    setups = [p["setup_s"] * p["scale"] for p in passes + probes]
    metrics = {
        "problems_per_s": len(latencies) * ok_share / sum(latencies),
        "problem_p50_s": statistics.median(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    laws, missing = law_counts(passes)
    record = {
        "samples": {"problems": len(latencies), "repeats": REPEATS,
                    "setup": len(setups), "passes": len(passes)},
        "unscaled": {
            "problems_per_s": len(raw_latencies) * ok_share / sum(raw_latencies),
            "problem_p50_s": statistics.median(raw_latencies),
            "setup_s": statistics.median(p["setup_s"] for p in passes + probes)},
        "problem_p90_s": statistics.quantiles(latencies, n=10)[8]
        if len(latencies) >= 2 else latencies[0],
        "failed_ratio": failed / attempted,
        "flux_missing_ratio": missing / laws if laws else 0.0,
        "laws": laws,
        "passes": [pass_summary(p) for p in passes],
    }
    return passes, failures, attempted, failed, metrics, record


def run_traced(runner: Runner, seconds: int, families: dict):
    plain, traced = [], []
    for k in range(distinct_passes(runner.workload, seconds, repeats=2)):
        plain.append(runner.spawn(k, "timed"))
        traced.append(runner.spawn(k, "traced"))
    failed, failures = check_passes(plain, families)
    for p, t in zip(plain, traced):
        for req, a, b in zip(p["requests"], p["outcomes"], t["outcomes"]):
            if (a["rc"], a["stdout"]) != (b["rc"], b["stdout"]):
                failed += 1
                failures.append(f"pass {p['pass_index']} {req['id']}: "
                                f"traced report differs from untraced report")
    counts = Counter()
    for t in traced:
        counts.update(t["counts"])
    n_traced = sum(len(t["outcomes"]) for t in traced)
    metrics = tracing.layer_metrics(traced, counts, n_traced)
    plain_wall = sum(o["latency_s"] * o["scale"] for p in plain for o in p["outcomes"])
    traced_wall = sum(o["latency_s"] * o["scale"] for t in traced for o in t["outcomes"])
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1
    incl = Counter()
    for t in traced:
        incl.update(tracing.span_times(t["spans"])[0])
    raw_wall = sum(o["latency_s"] for t in traced for o in t["outcomes"])
    share = {name: incl[name] / raw_wall for name in (
        "jets.invert_divergence", "claws.assemble_determining_system",
        "claws.solve_exact", "parabolic.ma_classify", "claws.verify")}
    share["claws.extract"] = sum(
        tracing.span_times(t["spans"])[2]["claws.find_conservation_laws"]
        for t in traced) / raw_wall
    attempted = n_traced + sum(len(p["outcomes"]) for p in plain)
    record = {
        "samples": {"problems": n_traced, "passes": len(traced)},
        "share_of_traced_wall": share,
        "failed_ratio": failed / attempted,
        "passes": [pass_summary(p) for p in plain],
    }
    return plain + traced, failures, attempted, failed, metrics, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=problems.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "paraclaw", "cli.py")):
        print("perfbench: no paraclaw sources in ./src; run from the repository root",
              file=sys.stderr)
        return 2
    families = oracles.load_expected()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(root, ".perfbench_work", f"{run_id}-{os.getpid()}")
    runner = Runner(root, args.workload, args.seed, workdir)
    environment = {"python": platform.python_version(),
                   "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
                   "load_1min_start": load_1min()}
    run = run_traced if args.trace else run_untraced
    try:
        records, failures, attempted, failed, metrics, record = run(
            runner, args.seconds, families)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    environment["load_1min_end"] = load_1min()

    record.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": environment, "failures": failures[:50]})
    outdir = os.path.join(root, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    full = dict(record, records=[
        {"pass": r["pass_index"], "requests": r["requests"],
         "outcomes": [{k: v for k, v in o.items() if k != "stdout"} for o in r["outcomes"]]}
        for r in records])
    for r in records:
        full_spans = r.pop("spans", None)
        if full_spans is not None:
            with open(os.path.join(outdir, f"{run_id}-pass{r['pass_index']}-spans.json"),
                      "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "problem"],
                           "spans": full_spans}, fh)
    with open(os.path.join(outdir, f"{run_id}.json"), "w", encoding="utf-8") as fh:
        json.dump(full, fh)

    print(json.dumps({"perfbench": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
