"""Self-test of the serving benchmark.

Run from the repository root (takes a few minutes)::

    python3 servebench/selftest.py

Checks, on tiny runs (``--seconds 0``: only the always-run waves):

* every metric named in ``BENCHMARK.json`` is printed with its unit, the
  end-to-end ones untraced and the per-layer ones traced;
* the same seed gives the same input fingerprint and the same accuracy,
  and another seed another fingerprint;
* the traced run compared its predictions with the untraced run's;
* run from a copy that lacks ``src/``, the benchmark fails loudly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    """Run the benchmark once; returns (exit code, report, result)."""
    done = subprocess.run(
        [sys.executable, os.path.join("servebench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        return done.returncode, done.stderr, lines
    return 0, json.loads(lines[-2])["report"], json.loads(lines[-1])


def expect(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def check_names(result: dict, listed: list[dict], label: str,
                failures: list[str]) -> None:
    printed = result["metrics"]
    for metric in listed:
        name = metric["name"]
        expect(name in printed and printed[name]["unit"] == metric["unit"],
               f"{label}: prints {name} in {metric['unit']}", failures)
    extra = set(printed) - {m["name"] for m in listed}
    expect(not extra, f"{label}: prints no unlisted metric {sorted(extra)}",
           failures)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    failures: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        code, report, result = bench(workload, 11, 0)
        expect(code == 0, f"{workload}: untraced run exits 0 {report if code else ''}",
               failures)
        if code:
            continue
        check_names(result, spec["end_to_end"], f"{workload} untraced",
                    failures)
        code, traced_report, traced = bench(workload, 11, 1)
        expect(code == 0, f"{workload}: traced run exits 0", failures)
        if code:
            continue
        check_names(traced, spec["per_layer"], f"{workload} traced",
                    failures)
        expect(traced_report["checks"].get("traced", 0) > 0,
               f"{workload}: traced predictions equal untraced ones",
               failures)
        expect(traced_report["fingerprint"] == report["fingerprint"],
               f"{workload}: same seed, same fingerprint", failures)
        code, again, result_again = bench(workload, 11, 0)
        expect(code == 0 and result_again["metrics"]["accuracy"]["value"]
               == result["metrics"]["accuracy"]["value"],
               f"{workload}: same seed, same accuracy", failures)
        code, other, _ = bench(workload, 12, 0)
        expect(code == 0 and other["fingerprint"] != report["fingerprint"],
               f"{workload}: another seed, another fingerprint", failures)

    # A directory holding only the benchmark must fail loudly.
    bare = os.path.join(ROOT, ".selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, stderr, lines = bench("stream", 11, 0, cwd=bare)
        expect(code != 0 and not lines and "src" in stderr,
               "without src/: non-zero exit, no result, a message",
               failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
