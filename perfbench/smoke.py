"""Smoke test of perfbench; also prints every metric by name with its unit.

    python3 perfbench/smoke.py

Run from the repository root.  It checks that

* the generator is deterministic: the same seed gives byte-identical problem
  files, another seed gives other problems;
* every workload runs at its smallest size (one distinct pass) untraced and traced,
  prints a result object of the documented schema whose metric names and
  units are exactly those of BENCHMARK.json, and passes every oracle;
* the conservation oracle agrees with the generator on every constructed
  ``verify`` request, true and perturbed;
* a deliberately corrupted expectation, and a corrupted flux in a recorded
  report, are caught by the oracles;
* the benchmark exits non-zero, printing no result, in a directory holding
  only BENCHMARK.json and the benchmark's own files.

Exit code 0 means every check passed.
"""

from __future__ import annotations

import copy
import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import problems  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SEED = 1
SECONDS = 1  # every workload at its smallest size: one distinct pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def run_bench(root: str, workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)
    return proc


def check_determinism(seed: int) -> None:
    with tempfile.TemporaryDirectory(dir=os.path.join(os.getcwd(), ".perfbench_work")) as tmp:
        for workload in problems.WORKLOADS:
            first = problems.generate(workload, seed, 0)
            second = problems.generate(workload, seed, 0)
            check(problems.digest(first) == problems.digest(second),
                  f"{workload}: generator is not deterministic")
            a = problems.write_files(first, os.path.join(tmp, workload, "a"))
            b = problems.write_files(second, os.path.join(tmp, workload, "b"))
            check(all(filecmp.cmp(x, y, shallow=False) for x, y in zip(a, b)),
                  f"{workload}: problem files differ between two generations")
            other = problems.generate(workload, seed + 1, 0)
            check(problems.digest(other) != problems.digest(first),
                  f"{workload}: seeds {seed} and {seed + 1} give the same problems")
            keys = [(r["command"], r["source"], tuple(r["args"])) for r in first]
            check(len(set(keys)) == len(keys), f"{workload}: a request repeats in a pass")
    print("smoke: generator deterministic, requests distinct within a pass")


def check_conservation_oracle(seed: int) -> None:
    checked = 0
    for req in problems.generate("classify-verify", seed, 0):
        if req["command"] != "verify":
            continue
        density = [a.split("=", 1)[1] for a in req["args"] if a.startswith("--density=")]
        fluxes = [a.split("=", 1)[1] for a in req["args"] if a.startswith("--flux=")]
        check(oracles.conserved(req["source"], density[0], fluxes)
              is req["expect"]["verified"],
              f"conservation oracle disagrees with construction on {req['id']}")
        checked += 1
    print(f"smoke: conservation oracle agrees with construction on {checked} laws")


def check_result(proc, wanted: dict, label: str) -> dict:
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{label}: not correct: {proc.stdout.strip().splitlines()[-2][:2000]}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted {result['attempted']!r}")
    metrics = result["metrics"]
    check(set(metrics) == set(wanted),
          f"{label}: metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, m in metrics.items():
        check(set(m) == {"value", "unit"}, f"{label}: {name} has keys {sorted(m)}")
        check(m["unit"] == wanted[name], f"{label}: {name} unit {m['unit']!r}")
        check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
              f"{label}: {name} value {m['value']!r}")
    return metrics


def check_corrupted_expectation(root: str, seed: int) -> None:
    families = oracles.load_expected()
    for workload, corrupt in (("flux-heavy", _corrupt_det_span),
                              ("flux-heavy", _corrupt_flux),
                              ("classify-verify", _corrupt_verify)):
        path = os.path.join(root, ".perfbench_out", f"{workload}-seed{seed}-trace0.json")
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)["records"]
        pairs = [(r, o) for rec in records for r, o in zip(rec["requests"], rec["outcomes"])]
        clean = [e for r, o in pairs for e in oracles.check_problem(r, o, families)]
        check(not clean, f"{workload}: recorded outcomes fail the oracles: {clean[:3]}")
        bad_families = copy.deepcopy(families)
        request, outcome = next((r, o) for r, o in pairs
                                if corrupt(r, o, bad_families))
        check(bool(oracles.check_problem(request, outcome, bad_families)),
              f"{workload}: a corrupted expectation was not caught")
    print("smoke: corrupted expectations are caught")


def _corrupt_det_span(request, outcome, families) -> bool:
    """Corrupt the expectation or the report of ``request`` if it is of the
    kind wanted."""
    if request["family"] != "det":
        return False
    families["det"]["laws"]["span"] = ["1", "x1"]
    return True


def _corrupt_flux(request, outcome, families) -> bool:
    if request["command"] != "claws" or not outcome["report"]["laws"]:
        return False
    law = outcome["report"]["laws"][-1]
    law["flux"][0] = f"{law['flux'][0]} + u"
    return True


def _corrupt_verify(request, outcome, families) -> bool:
    if request["command"] != "verify":
        return False
    request["expect"]["verified"] = not request["expect"]["verified"]
    return True


def check_bare_directory(root: str) -> None:
    with tempfile.TemporaryDirectory(dir=os.path.join(root, ".perfbench_work")) as tmp:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
             "--workload", problems.WORKLOADS[0], "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=tmp, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "run.py did not refuse a directory without the sources")
    print("smoke: refuses to run without the sources")


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check([w["name"] for w in bench["workloads"]] == list(problems.WORKLOADS),
          "BENCHMARK.json workloads differ from the generator's")
    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    check_determinism(SEED)
    check_conservation_oracle(SEED)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        for workload in problems.WORKLOADS:
            label = f"{workload} --trace {trace}"
            metrics = check_result(run_bench(root, workload, SEED, SECONDS, trace),
                                   wanted, label)
            for name, m in metrics.items():
                print(f"{workload:16s} {name:32s} {m['value']:.6g} {m['unit']}")
    check_corrupted_expectation(root, SEED)
    check_bare_directory(root)
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
