"""Per-layer tracing taken from outside the program.

:class:`LayerTracer` wraps public functions and methods of ``repro``
modules, keeps a span stack, and charges each span's *self* time (its
duration minus the time its child spans cover) to the layer that owns
the wrapped function and to the benchmark phase that is current
(``open``, ``query``, ``update`` or ``other``).  Counters are taken at
the same boundaries.  Nothing under ``src/`` is edited: :meth:`install`
patches attributes in memory and :meth:`restore` puts every original
back.

Install the tracer *before* building a server: the server captures some
bound methods at construction (the shard router's ``encode_points``), and
those would bypass wrappers installed later.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

now = time.perf_counter

#: layer name -> (module, public functions or ``Class.method`` names).
#: Each layer is named after the module that owns its code, except
#: ``core.task_gnn`` (the task-graph step of the model) and
#: ``graph.delta`` (the live-update write path, entered through
#: ``Graph.apply_updates`` and the overlay's slot writers).
LAYERS: dict[str, list[tuple[str, tuple[str, ...]]]] = {
    "graph.subgraph": [("repro.graph.subgraph", (
        "induced_subgraph", "Subgraph.with_edge_weights"))],
    "graph.sampling": [("repro.graph.sampling", (
        "sample_data_graph", "random_walk_neighborhood",
        "bfs_neighborhood"))],
    "graph.delta": [
        ("repro.graph.graph", ("Graph.apply_updates",)),
        ("repro.graph.delta", ("DeltaAdjacency.grow",
                               "DeltaAdjacency.append_slot",
                               "DeltaAdjacency.remove_slot"))],
    "core.prompt_generator": [("repro.core.prompt_generator", (
        "PromptGenerator.subgraph_for", "PromptGenerator.subgraphs_for"))],
    "core.inference": [("repro.core.inference", (
        "GraphPrompterPipeline.encode_points",
        "GraphPrompterPipeline.select_candidate_pool",
        "GraphPrompterPipeline.predict_batch"))],
    "core.model": [("repro.core.model", (
        "GraphPrompterModel.encode_subgraphs",
        "GraphPrompterModel.encode_batch",
        "GraphPrompterModel.reconstruction_weights",
        "GraphPrompterModel.importance",
        "GraphPrompterModel.predict"))],
    "core.task_gnn": [("repro.core.model", (
        "GraphPrompterModel.task_logits",))],
    "core.prompt_selector": [("repro.core.prompt_selector", (
        "pairwise_similarity", "PromptSelector.scores",
        "PromptSelector.select"))],
    "core.prompt_augmenter": [("repro.core.prompt_augmenter", (
        "PromptAugmenter.cached_prompts", "PromptAugmenter.record_hits",
        "PromptAugmenter.update", "PromptAugmenter.invalidate"))],
    "gnn.encoder": [("repro.gnn.encoder", (
        "DataGraphEncoder.forward", "DataGraphEncoder.encode_subgraphs"))],
    "gnn.batch": [("repro.gnn.batch", ("SubgraphBatch.from_subgraphs",))],
    "serving.gateway": [("repro.serving.gateway", (
        "ServingGateway.open_session", "ServingGateway.close_session",
        "ServingGateway.submit_nowait", "ServingGateway.submit",
        "ServingGateway.pump", "ServingGateway.flush"))],
    "serving.server": [("repro.serving.server", (
        "PromptServer.open_session", "PromptServer.close_session",
        "PromptServer.submit", "PromptServer.step", "PromptServer.drain",
        "PromptServer.update_graph"))],
    "serving.router": [("repro.serving.router", (
        "ShardRouter.encode_points", "ShardRouter.apply_updates"))],
    "shard.store": [("repro.shard.store", (
        "ShardedGraphStore.apply_updates", "ShardedGraphStore.prefetch_rows",
        "ShardedGraphStore.gather_neighbors", "ShardedGraphStore.neighbors",
        "ShardedGraphStore.reset_counters"))],
    "obs.metrics": [("repro.obs.metrics", (
        "get_registry", "MetricsRegistry.counter", "MetricsRegistry.gauge",
        "MetricsRegistry.histogram", "Counter.inc", "Counter.set",
        "Gauge.set", "Gauge.inc", "Histogram.observe"))],
}


class LayerTracer:
    """Self time and counters per (phase, layer), from wrapped calls."""

    def __init__(self):
        self.phase = "other"
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        #: Time inside a layer's outermost spans, children included.
        self.inclusive_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        # Gateway admission time of each session's outstanding request;
        # a closed loop has at most one per session.
        self._admitted_at: dict[str, float] = {}
        # Halo counters of each shard store not yet charged to a phase.
        self._store_phase: dict[int, str] = {}
        self._store_seen: dict[int, tuple[int, int, int]] = {}
        self._stores: dict[int, object] = {}
        # Hooks run just before (with the call's arguments) or just after
        # (with its arguments and result) a wrapped call.
        self._before = {
            "ServingGateway.submit_nowait": self._stamp_admission,
            "PromptServer.submit": self._count_queue_wait,
            "ShardedGraphStore.reset_counters": self._charge_store,
        }
        self._after = {
            "induced_subgraph": self._count_subgraph,
            "GraphPrompterModel.task_logits": self._count_task_nodes,
            "DataGraphEncoder.forward": self._count_encoder_nodes,
            "SubgraphBatch.from_subgraphs": self._count_batch,
            "PromptAugmenter.update": self._count_inserts,
            "PromptAugmenter.invalidate": self._count_refresh,
            "PromptServer.drain": self._count_gateway_batch,
        }

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _enter(self, layer: str) -> list:
        frame = [layer, now(), 0.0]
        self._stack.append(frame)
        self._depth[layer] += 1
        return frame

    def _leave(self, frame: list) -> None:
        duration = now() - frame[1]
        self._stack.pop()
        layer = frame[0]
        self.self_s[(self.phase, layer)] += duration - frame[2]
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.inclusive_s[(self.phase, layer)] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def _caller(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _wrap(self, layer: str, name: str, fn):
        before = self._before.get(name)
        after = self._after.get(name)
        if inspect.iscoroutinefunction(fn):
            tracer = self

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                return await _StepTimed(tracer, layer, fn(*args, **kwargs))
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame)
            if after is not None:
                after(args, result)
            return result
        return traced

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def _add(self, name: str, amount: float) -> None:
        self.counts[(self.phase, name)] += amount

    def _count_subgraph(self, args, result) -> None:
        self._add("graph.subgraph.calls", 1)

    def _count_task_nodes(self, args, result) -> None:
        _, prompts, _, queries, num_ways = args[:5]
        self._add("core.task_gnn.nodes",
                  prompts.shape[0] + queries.shape[0] + num_ways)

    def _count_encoder_nodes(self, args, result) -> None:
        self._add("gnn.encoder.nodes", args[1].num_nodes)

    def _count_batch(self, args, result) -> None:
        self._add("gnn.batch.subgraphs", len(args[1]))  # (cls, subgraphs)

    def _count_inserts(self, args, result) -> None:
        self._add("core.prompt_augmenter.offered", args[1].shape[0])
        self._add("core.prompt_augmenter.inserted", result)

    def _count_refresh(self, args, result) -> None:
        # The server purges a session's Augmenter once per refresh.
        self._add("serving.server.refreshes", 1)

    def _stamp_admission(self, args) -> None:
        self._admitted_at[args[1]] = now()

    def _count_queue_wait(self, args) -> None:
        admitted = self._admitted_at.pop(args[1], None)
        if admitted is not None and self._caller() == "serving.gateway":
            self._add("serving.gateway.queue_wait_s", now() - admitted)

    def _count_gateway_batch(self, args, result) -> None:
        if self._caller() == "serving.gateway":
            self._add("serving.gateway.batches", 1)
            self._add("serving.gateway.batched", len(result))

    def _charge_store(self, args) -> None:
        """Charge a store's halo counters before the program resets them."""
        store = args[0]
        self._settle(store)
        self._store_seen[id(store)] = (0, 0, 0)
        self._store_phase[id(store)] = self.phase

    def _settle(self, store) -> None:
        key = id(store)
        self._stores[key] = store
        cache = store.cache_stats()
        current = (store.halo_fetches, cache["hits"], cache["misses"])
        seen = self._store_seen.get(key, (0, 0, 0))
        phase = self._store_phase.get(key, self.phase)
        for name, value, before in zip(
                ("halo_fetches", "cache_hits", "cache_misses"), current,
                seen):
            self.counts[(phase, f"shard.store.{name}")] += value - before
        self._store_seen[key] = current

    def settle_stores(self) -> None:
        """Charge counts of the last task on every store seen so far."""
        for store in list(self._stores.values()):
            self._settle(store)

    # ------------------------------------------------------------------
    # Install / restore
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every function in :data:`LAYERS` in memory."""
        for layer, targets in LAYERS.items():
            for module_name, names in targets:
                module = importlib.import_module(module_name)
                for name in names:
                    if "." in name:
                        self._wrap_method(layer, module, name)
                    else:
                        self._wrap_function(layer, module, name)

    def _wrap_function(self, layer: str, module, name: str) -> None:
        original = getattr(module, name)
        wrapped = self._wrap(layer, name, original)
        # Other modules may hold the same function under an imported name.
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, name, None) is original):
                self._restore.append((loaded, name, original))
                setattr(loaded, name, wrapped)

    def _wrap_method(self, layer: str, module, qualified: str) -> None:
        class_name, method = qualified.split(".")
        cls = getattr(module, class_name)
        original = cls.__dict__[method]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(layer, qualified,
                                             original.__func__))
        else:
            wrapped = self._wrap(layer, qualified, original)
        self._restore.append((cls, method, original))
        setattr(cls, method, wrapped)

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


class _StepTimed:
    """Awaitable that times each resumption of a coroutine as one span.

    An ``async`` method's wall time includes every other task that ran
    while it was suspended; only the steps it actually runs are its own.
    """

    def __init__(self, tracer: LayerTracer, layer: str, coro):
        self.tracer = tracer
        self.layer = layer
        self.coro = coro

    def __await__(self):
        value, error = None, None
        while True:
            frame = self.tracer._enter(self.layer)
            try:
                if error is None:
                    yielded = self.coro.send(value)
                else:
                    yielded = self.coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.tracer._leave(frame)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # re-raised inside the coroutine
                value, error = None, exc
