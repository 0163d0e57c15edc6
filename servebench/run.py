"""Request-level serving benchmark of the GraphPrompter reproduction.

Run from the repository root::

    python3 servebench/run.py --workload stream --seed 1 --seconds 10 --trace 0

Workloads are ``stream``, ``manyway`` and ``mutate`` (see NOTES.md).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is the result object; the line
before it is a report (seed, input fingerprint, weights digest, outcome
counts per phase, sample counts, host class).  Any failed check exits
non-zero without a result.

Before the first timed run the sources are byte-compiled and the
pre-trained weights cache is filled; neither is timed.  ``setup_s`` is
the median of several cold starts, each from interpreter start to
ready-to-serve.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SERVE = os.path.join(HERE, "serve.py")
#: Cold starts behind ``setup_s``: set-up probes plus the serving process.
SETUP_SAMPLES = 11
#: Budget of the preparation (a first run in a fresh checkout trains)
#: and of everything after it; a child is killed once its budget is spent.
PREPARE_BUDGET_S = 800.0
BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="GraphPrompter serving benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


class Children:
    """Runs child interpreters one at a time inside the command budget."""

    def __init__(self, budget_s: float):
        self.deadline = monotonic() + budget_s

    def run(self, argv: list[str]) -> tuple[float, list[str]]:
        """Run a child to completion; returns (spawn time, stdout lines)."""
        remaining = self.deadline - monotonic()
        if remaining <= 0:
            raise BenchError("time budget spent")
        spawned = monotonic()
        child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True)
        try:
            out, _ = child.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise BenchError(f"timed out: {' '.join(argv[1:])}") from None
        if child.returncode != 0:
            raise BenchError(f"exit code {child.returncode}: "
                             f"{' '.join(argv[1:])}")
        return spawned, out.splitlines()


def setup_seconds(spawned: float, lines: list[str]) -> float:
    """Interpreter start to ready-to-serve, input generation taken out."""
    for line in lines:
        if line.startswith("READY "):
            ready = json.loads(line[len("READY "):])
            return ready["ready"] - spawned - ready["excluded_s"]
    raise BenchError("serving process never reported ready")


def scaled(raw: float, *speeds: float | None) -> tuple[float, float]:
    """(raw seconds, seconds at reference speed) of one cold start, from
    the host speeds measured around it."""
    taken = [s for s in speeds if s is not None]
    if not taken:
        raise BenchError("host speed could not be measured around a "
                         "cold start")
    return raw, raw * statistics.fmean(taken) / speed.REFERENCE


def probe_setup(children: Children, probes: speed.Probes,
                argv: list[str]) -> tuple[float, float]:
    """One cold start; returns (raw seconds, seconds at reference speed)."""
    before = probes.measure()
    raw = setup_seconds(*children.run(argv))
    return scaled(raw, before, probes.measure())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"servebench: no program sources under {ROOT}/src; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    python = sys.executable
    serve = [python, SERVE, "--workload", args.workload,
             "--seed", str(args.seed)]
    try:
        # Untimed preparation: byte-compile, fill the weights cache.
        preparation = Children(PREPARE_BUDGET_S)
        preparation.run([python, "-m", "compileall", "-q", "src",
                         "servebench"])
        preparation.run([python, SERVE, "--prepare"])
        children = Children(BUDGET_S)
        probes = speed.Probes()
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(probe_setup(children, probes,
                                          serve + ["--setup-only"]))
        before = probes.measure()
        spawned, lines = children.run(
            serve + ["--seconds", str(args.seconds),
                     "--trace", str(args.trace)])
        payload = json.loads(lines[-1])
        if not args.trace:
            # The serving process calibrates right after it is ready.
            setups.append(scaled(setup_seconds(spawned, lines), before,
                                 payload["raw"]["speed_at_ready"]))
    except BenchError as failure:
        print(f"servebench: {failure}", file=sys.stderr)
        return 1

    metrics = payload.pop("metrics")
    if not args.trace:
        metrics["setup_s"] = [statistics.median(n for _, n in setups), "s"]
        payload["raw"]["setup_s"] = statistics.median(r for r, _ in setups)
        payload["samples"]["setup_s"] = len(setups)
        payload["probes"]["setup"] = probes.counts
    phases = payload["phases"]
    attempted = sum(p["attempted"] for p in phases.values())
    failed = attempted - sum(p["ok"] for p in phases.values())
    for phase in phases.values():
        phase["failed"] = phase["attempted"] - phase["ok"]
    print(json.dumps({"report": payload}))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
