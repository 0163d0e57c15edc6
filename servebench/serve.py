"""One benchmark process: set up a server, serve a workload, check it.

Started by ``run.py``; not meant to be run by hand.  Set-up is timed from
interpreter start (``run.py`` stamps the spawn) to the ``READY`` line,
which carries the monotonic clock reading at ready-to-serve.  The last
line of standard output is a JSON payload.

``--prepare`` fills the weights cache and exits (untimed).  ``--setup-only``
exits right after ``READY`` (a set-up probe).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import sys
import time
from dataclasses import replace


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# Imported here, inside the timed set-up: it starts at interpreter start.
import numpy as np  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402
from repro.core.pretrain import Pretrainer  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    ExperimentContext,
    default_config,
)
from workloads import (  # noqa: E402
    WORKLOADS,
    CheckFailed,
    Plan,
    Recorder,
    accuracy,
    build_server,
    check_answers,
    check_batch_one,
    check_rebuild,
    check_traced,
    run,
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--prepare", action="store_true")
    return parser.parse_args(argv)


def prepare() -> None:
    """Fill the pre-trained weights cache (trains once if it is empty)."""
    ExperimentContext().pretrained_state("wiki", default_config())


def _refuse_training(self, *args, **kwargs):
    raise RuntimeError(
        "servebench: the weights cache is empty, so this timed run would "
        "pre-train; run.py prepares the cache before any timed run")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.prepare:
        prepare()
        return 0

    # Timed set-up goes on: dataset build, weight load, server.
    Pretrainer.train = _refuse_training
    workload = WORKLOADS[args.workload]
    dataset = load_dataset(workload.dataset)
    # Input generation is not set-up; it is timed and taken out.
    excluded = monotonic()
    plan = None if args.setup_only else Plan(workload, args.seed)
    excluded = monotonic() - excluded
    state = ExperimentContext().pretrained_state("wiki", default_config())
    server = build_server(workload, dataset, state)
    print("READY " + json.dumps({"ready": monotonic(),
                                 "excluded_s": excluded}), flush=True)
    if args.setup_only:
        server.close()
        return 0

    try:
        payload = serve(args, workload, plan, server, state)
    except CheckFailed as failure:
        print(f"servebench: check failed: {failure}", file=sys.stderr)
        return 1
    finally:
        server.close()
    payload.update(
        workload=workload.name, seed=args.seed,
        fingerprint=plan.fingerprint(), weights_digest=weights_digest(state),
        host=host_class())
    print(json.dumps(payload))
    return 0


def serve(args, workload, plan, server, state) -> dict:
    """The timed loop(s) and every output check; returns the payload."""
    checks = {}
    untraced = Recorder()
    if not args.trace:
        run(workload, plan, server, untraced, args.seconds)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        recorders = [untraced]
    else:
        # Half the time untraced (the base of trace.overhead and of
        # proc.cpu_per_wall), half traced on a fresh server.  Accuracy
        # is not reported here, so its always-run waves are not needed.
        halves = replace(workload, min_waves=1)
        run(halves, plan, server, untraced, args.seconds / 2)
        tracer = LayerTracer()
        tracer.install()
        try:
            traced_server = build_server(
                workload, load_dataset(workload.dataset), state)
            try:
                traced = Recorder(tracer)
                run(halves, plan, traced_server, traced, args.seconds / 2)
                tracer.settle_stores()
            finally:
                traced_server.close()
        finally:
            tracer.restore()
        checks["traced"] = check_traced(untraced, traced)
        recorders = [untraced, traced]

    for recorder in recorders:
        check_answers(workload, plan, recorder)
    checks["answers"] = sum(len(r.predictions) for r in recorders)
    checks["batch_one"] = check_batch_one(workload, plan, state, untraced)
    if workload.mutable:
        checks["rebuild"] = check_rebuild(workload, plan, state, server)

    payload = {
        "checks": checks,
        "waves": [r.waves for r in recorders],
        "probes": {"serve": [r.probes.counts for r in recorders]},
        "phases": {phase: {"attempted": sum(r.attempted[phase]
                                            for r in recorders),
                           "ok": sum(r.ok[phase] for r in recorders)}
                   for phase in Recorder.PHASES},
    }
    if args.trace:
        payload["metrics"] = layer_metrics(untraced, traced, tracer)
    else:
        payload["metrics"] = end_to_end_metrics(workload, plan, untraced,
                                                peak_rss_mb)
        payload["raw"] = dict(timings(untraced, False),
                              speed_factor=untraced.mean_factor(),
                              speed_at_ready=untraced.speeds[0])
        payload["samples"] = {"query_p50_ms": len(untraced.query_s),
                              "query_p95_ms": len(untraced.query_s),
                              "open_p50_ms": len(untraced.open_s)}
    return payload


def timings(recorder, normalize: bool) -> dict:
    """qps and latency percentiles, scaled to reference host speed
    (``normalize``) or as measured."""
    if normalize:
        query_s = recorder.normalized(recorder.query_s)
        open_s = recorder.normalized(recorder.open_s)
    else:
        query_s = [s for _, s in recorder.query_s]
        open_s = [s for _, s in recorder.open_s]
    query_p50, query_p95 = 1000.0 * np.percentile(query_s, [50, 95])
    return {"qps": recorder.qps(normalize),
            "query_p50_ms": float(query_p50),
            "query_p95_ms": float(query_p95),
            "open_p50_ms": 1000.0 * float(np.median(open_s))}


E2E_UNITS = {"qps": "1/s", "query_p50_ms": "ms", "query_p95_ms": "ms",
             "open_p50_ms": "ms"}


def end_to_end_metrics(workload, plan, recorder, peak_rss_mb) -> dict:
    """The end-to-end metrics, timings scaled to reference host speed."""
    attempted = sum(recorder.attempted[p] for p in ("open", "query"))
    succeeded = sum(recorder.ok[p] for p in ("open", "query"))
    metrics = {name: [value, E2E_UNITS[name]]
               for name, value in timings(recorder, True).items()}
    metrics.update(
        accuracy=[accuracy(workload, plan, recorder), "ratio"],
        ok_frac=[succeeded / attempted, "ratio"],
        peak_rss_mb=[peak_rss_mb, "MB"])
    return metrics


#: Counters reported per unit of a phase: (name, phases, unit noun).
COUNTERS = (
    ("graph.subgraph.calls", ("open", "query"), "calls"),
    ("gnn.encoder.nodes", ("open", "query"), "nodes"),
    ("gnn.batch.subgraphs", ("open", "query"), "subgraphs"),
    ("shard.store.halo_fetches", ("open", "query"), "fetches"),
    ("serving.server.refreshes", ("query",), "refreshes"),
    ("core.task_gnn.nodes", ("query",), "nodes"),
)


def layer_metrics(untraced, traced, tracer) -> dict:
    """Per-layer metrics of the traced half, per unit of each phase;
    times scaled to reference host speed like the end-to-end ones."""
    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    units = {"open": traced.ok["open"], "query": traced.ok["query"],
             "update": traced.attempted["update"]}
    ms = 1000.0 * traced.mean_factor()
    metrics = {}
    for phase, count in units.items():
        unit = phase
        for layer in LAYERS:
            metrics[f"{phase}.{layer}.self_ms"] = [
                ratio(ms * tracer.self_s[(phase, layer)], count),
                f"ms/{unit}"]
        metrics[f"{phase}.proc.cpu_per_wall"] = [
            ratio(untraced.cpu[phase], untraced.wall[phase]), "ratio"]
        for name, phases, noun in COUNTERS:
            if phase in phases:
                metrics[f"{phase}.{name}"] = [
                    ratio(tracer.counts[(phase, name)], count),
                    f"{noun}/{unit}"]
        if phase in ("open", "query"):
            hits = tracer.counts[(phase, "shard.store.cache_hits")]
            misses = tracer.counts[(phase, "shard.store.cache_misses")]
            metrics[f"{phase}.shard.store.cache_hit_ratio"] = [
                ratio(hits, hits + misses), "ratio"]
    counts = tracer.counts
    metrics["query.core.prompt_augmenter.insert_ratio"] = [
        ratio(counts[("query", "core.prompt_augmenter.inserted")],
              counts[("query", "core.prompt_augmenter.offered")]), "ratio"]
    metrics["query.serving.gateway.queue_wait_ms"] = [
        ratio(ms * counts[("query", "serving.gateway.queue_wait_s")],
              units["query"]), "ms/query"]
    metrics["query.serving.gateway.batch_size"] = [
        ratio(counts[("query", "serving.gateway.batched")],
              counts[("query", "serving.gateway.batches")]), "requests"]
    metrics["update.graph.delta.apply_ms"] = [
        ratio(ms * tracer.inclusive_s[("update", "graph.delta")],
              units["update"]), "ms/update"]
    phases = tuple(units)
    covered = sum(tracer.self_s[(p, layer)] for p in phases for layer in LAYERS)
    metrics["trace.coverage"] = [
        ratio(covered, sum(traced.wall[p] for p in phases)), "ratio"]
    metrics["trace.overhead"] = [ratio(untraced.qps(), traced.qps()),
                                 "ratio"]
    return metrics


def weights_digest(state: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(state):
        array = state[name]
        digest.update(f"{name}:{array.dtype}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def host_class() -> dict:
    """The host the numbers belong to, read without changing anything."""
    cpu_model = "unknown"
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the loaded library."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps
                 if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


if __name__ == "__main__":
    sys.exit(main())
