"""The three closed-loop serving workloads, their inputs and their checks.

Every workload runs in *waves*: open one session per client, serve the
sessions' queries with one outstanding query per session, then close
them.  Inputs come from ``--seed`` alone: episodes are drawn per wave
from a pristine copy of the dataset, and ``mutate``'s graph updates are
drawn before its server exists, on a private copy of the graph.  The
server only ever receives the generated inputs.

Load comes from one process and one thread: the gateway runs on asyncio
and shard workers are ``serial``.
"""

from __future__ import annotations

import asyncio
import hashlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from repro.core import Episode, GraphPrompterModel
from repro.datasets import load_dataset
from repro.datasets.base import Dataset
from repro.experiments.common import default_config
from repro.graph import GraphUpdate
from repro.serving import GatewayResult, PromptServer, ServingGateway

import speed

now = time.perf_counter

CANDIDATES_PER_CLASS = 10
QUERIES_PER_SESSION = 24


@dataclass(frozen=True)
class Workload:
    """One traffic shape.  ``min_waves`` always run (they hold the
    accuracy set and enough queries for the p95); later waves start
    only while ``--seconds`` has not run out."""

    name: str
    dataset: str
    ways: int
    sessions: int
    min_waves: int
    gateway: bool = False
    mutable: bool = False
    shards: int = 1
    update_every: int = 0
    max_waves: int | None = None
    #: Sessions of wave 0 replayed at batch size 1 by the check.
    check_sessions: int = 2


WORKLOADS = {
    # ROADMAP's reference serving shape; the only gateway workload.
    "stream": Workload("stream", "nell", ways=5, sessions=16, min_waves=4,
                       gateway=True, check_sessions=3),
    # The paper's many-class regime (Table V): 400-candidate pools.
    # Six always-run waves: a 40-way accuracy set needs the queries.
    "manyway": Workload("manyway", "fb15k237", ways=40, sessions=4,
                        min_waves=6, check_sessions=1),
    # Writes beside reads: delta overlay, invalidation, router, halo cache.
    "mutate": Workload("mutate", "nell", ways=5, sessions=8, min_waves=4,
                       mutable=True, shards=2, update_every=8,
                       max_waves=40, check_sessions=2),
}

#: Graph update shape of ``mutate``: edges added, edges removed, nodes.
UPDATE_SHAPE = (40, 20, 2)
#: Fresh sessions and queries per session of the rebuild check.
REBUILD_SESSIONS = 4
REBUILD_QUERIES = 8
#: Host speed drifts within seconds; between opens and rounds of the
#: direct drivers the speed is measured again once this much time passed.
CALIBRATE_EVERY_S = 0.5


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class Plan:
    """Seeded inputs of one run: episodes per wave, updates in order."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        # Episodes come from a copy no server ever mutates.
        self.source = load_dataset(workload.dataset)
        # Enough test datapoints per class that any m classes hold 24.
        test_per_class = -(-QUERIES_PER_SESSION // workload.ways)
        self.eligible = np.asarray([
            c for c in self.source.classes_with_support(
                CANDIDATES_PER_CLASS, "train")
            if len(self.source.ids_with_label(int(c), "test"))
            >= test_per_class])
        self._waves: dict[int, list[Episode]] = {}
        self.updates: list[GraphUpdate] = []
        if workload.update_every:
            self.updates = make_updates(
                load_dataset(workload.dataset).graph,
                workload.max_waves
                * (QUERIES_PER_SESSION // workload.update_every),
                np.random.default_rng([seed, 1]))

    def episodes(self, wave: int) -> list[Episode]:
        if wave not in self._waves:
            self._waves[wave] = self._draw([self.seed, 0, wave],
                                           self.workload.sessions)
        return self._waves[wave]

    def _draw(self, key: list[int], count: int) -> list[Episode]:
        """``count`` episodes whose class sets are disjoint slices of one
        shuffle of the eligible classes, so a wave covers many classes
        and accuracy varies less from seed to seed."""
        ways = self.workload.ways
        rng = np.random.default_rng(key)
        order = np.concatenate([
            rng.permutation(self.eligible)
            for _ in range(-(-count * ways // len(self.eligible)))])
        return [self.episode(order[i * ways:(i + 1) * ways],
                             np.random.default_rng(key + [i]))
                for i in range(count)]

    def episode(self, classes: np.ndarray, rng: np.random.Generator
                ) -> Episode:
        """An m-way episode over ``classes``: 10 labelled candidates per
        class from the train split and 24 unlabelled queries from the
        test split.

        The queries are a systematic sample of the class-ordered test
        pool, served in random order.  Every test datapoint is equally
        likely to be picked, as in the paper's uniform draw, but each
        class gets its share of queries to within one, so accuracy
        varies less from seed to seed (on ``manyway`` the spread over 10
        seeds fell from 0.19 to 0.09)."""
        source = self.source
        candidates, candidate_labels, pool = [], [], []
        for local, cls in enumerate(classes):
            train = source.ids_with_label(int(cls), "train")
            for i in rng.choice(train, size=CANDIDATES_PER_CLASS,
                                replace=False):
                candidates.append(source.datapoint(int(i)))
                candidate_labels.append(local)
            pool.extend((int(i), local)
                        for i in source.ids_with_label(int(cls), "test"))
        # Eligible classes hold enough test datapoints that step >= 1.
        step = len(pool) / QUERIES_PER_SESSION
        picked = rng.permutation(np.floor(
            rng.uniform(0, step) + step * np.arange(QUERIES_PER_SESSION)
        ).astype(np.int64))
        return Episode(
            way_classes=classes.astype(np.int64), candidates=candidates,
            candidate_labels=np.asarray(candidate_labels, dtype=np.int64),
            queries=[source.datapoint(pool[i][0], with_label=False)
                     for i in picked],
            query_labels=np.asarray([pool[i][1] for i in picked],
                                    dtype=np.int64))

    def check_episodes(self, count: int) -> list[Episode]:
        """Episodes of the post-run rebuild check (never served before)."""
        return self._draw([self.seed, 2], count)

    def fingerprint(self) -> str:
        """Hash of the fixed inputs: the always-run waves and the updates."""
        digest = hashlib.sha256()
        for wave in range(self.workload.min_waves):
            for ep in self.episodes(wave):
                digest.update(ep.way_classes.tobytes())
                digest.update(repr(ep.candidates).encode())
                digest.update(ep.candidate_labels.tobytes())
                digest.update(repr(ep.queries).encode())
                digest.update(ep.query_labels.tobytes())
        for update in self.updates:
            for part in (update.add_src, update.add_dst, update.add_rel,
                         update.remove_edges, update.add_node_features):
                digest.update(np.asarray(part).tobytes())
        return digest.hexdigest()[:16]


def make_updates(graph, count: int, rng: np.random.Generator
                 ) -> list[GraphUpdate]:
    """``count`` updates, each applied to ``graph`` (a private copy) so
    the next one removes only edges that are still live."""
    num_add, num_remove, num_nodes = UPDATE_SHAPE
    updates = []
    for _ in range(count):
        total = graph.num_nodes + num_nodes
        live = graph.live_edges()[3]
        update = GraphUpdate(
            add_src=rng.integers(0, total, size=num_add),
            add_dst=rng.integers(0, total, size=num_add),
            add_rel=rng.integers(0, graph.num_relations, size=num_add),
            remove_edges=rng.choice(live, size=num_remove, replace=False),
            add_node_features=rng.normal(size=(num_nodes,
                                               graph.feature_dim)))
        graph.apply_updates(update)
        updates.append(update)
    return updates


def build_server(workload: Workload, dataset: Dataset, state: dict,
                 max_batch_size: int = 16) -> PromptServer:
    model = GraphPrompterModel(dataset.graph.feature_dim,
                               dataset.graph.num_relations,
                               default_config(mutable_graph=workload.mutable))
    model.load_state_dict(state)
    if workload.shards > 1:
        return PromptServer(model, dataset, max_batch_size=max_batch_size,
                            num_shards=workload.shards, num_workers=1,
                            worker_backend="serial")
    return PromptServer(model, dataset, max_batch_size=max_batch_size)


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
class Recorder:
    """Wall and CPU time per phase, latencies, outcomes, predictions.

    Phases nest (an update runs inside the query loop) but time is
    exclusive: entering a phase pauses the one it interrupts.  The
    drivers call :meth:`calibrate` between phases; every timing taken
    between two calibrations is scaled by their mean host speed (see
    ``speed.py``).  A dropped calibration does not split the interval
    it falls in.
    """

    PHASES = ("open", "query", "update")

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = dict.fromkeys(self.PHASES, 0.0)
        self.cpu = dict.fromkeys(self.PHASES, 0.0)
        self.attempted = dict.fromkeys(self.PHASES, 0)
        self.ok = dict.fromkeys(self.PHASES, 0)
        self.probes = speed.Probes()
        self.speeds: list[float] = []
        # (calibration interval, seconds) of each timing taken.
        self.serve_s: list[tuple[int, float]] = []
        self.query_s: list[tuple[int, float]] = []
        self.open_s: list[tuple[int, float]] = []
        self.predictions: dict[tuple[int, int, int], int] = {}
        self.waves = 0
        self._stack: list[list] = []
        self._calibrated_at = 0.0

    def calibrate(self) -> None:
        host_speed = self.probes.measure()
        if host_speed is not None:
            self.speeds.append(host_speed)
        self._calibrated_at = now()

    def maybe_calibrate(self) -> None:
        """Calibrate at a safe point if the last calibration is stale."""
        if now() - self._calibrated_at >= CALIBRATE_EVERY_S:
            self.calibrate()

    def factor(self, interval: int) -> float:
        """Host speed over one calibration interval, over the reference."""
        pair = self.speeds[max(interval - 1, 0):interval + 1]
        return sum(pair) / len(pair) / speed.REFERENCE

    def normalized(self, timings) -> list[float]:
        return [seconds * self.factor(k) for k, seconds in timings]

    @contextmanager
    def phase(self, name: str):
        if self._stack:
            self._close(self._stack[-1])
        self._stack.append([name, now(), time.process_time()])
        self._set_tracer(name)
        try:
            yield
        finally:
            self._close(self._stack.pop())
            if self._stack:
                self._stack[-1][1:] = [now(), time.process_time()]
                self._set_tracer(self._stack[-1][0])
            else:
                self._set_tracer("other")

    def _close(self, segment: list) -> None:
        name, wall, cpu = segment
        elapsed = now() - wall
        self.wall[name] += elapsed
        self.cpu[name] += time.process_time() - cpu
        if name in ("query", "update"):
            self.serve_s.append((len(self.speeds), elapsed))

    def _set_tracer(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.settle_stores()
            self.tracer.phase = name

    def outcome(self, phase: str, ok: bool) -> None:
        self.attempted[phase] += 1
        self.ok[phase] += int(ok)

    def opened(self, seconds: float) -> None:
        self.outcome("open", True)
        self.open_s.append((len(self.speeds), seconds))

    def answer(self, key: tuple[int, int, int], prediction: int,
               latency_s: float, ok: bool) -> None:
        self.outcome("query", ok)
        if ok:
            self.query_s.append((len(self.speeds), latency_s))
            self.predictions[key] = prediction

    def qps(self, normalize: bool = True) -> float:
        """Queries per second of the serving rounds (updates included,
        opens excluded)."""
        seconds = (self.normalized(self.serve_s) if normalize
                   else [s for _, s in self.serve_s])
        return self.ok["query"] / sum(seconds)

    def mean_factor(self) -> float:
        return statistics.fmean(self.speeds) / speed.REFERENCE


# ----------------------------------------------------------------------
# Closed-loop drivers
# ----------------------------------------------------------------------
def run(workload: Workload, plan: Plan, server: PromptServer,
        recorder: Recorder, seconds: float) -> None:
    """Serve waves until ``seconds`` have passed (and ``min_waves`` ran)."""
    if workload.gateway:
        asyncio.run(_run_gateway(workload, plan, server, recorder, seconds))
    else:
        _run_direct(workload, plan, server, recorder, seconds)
    if not recorder.speeds:
        raise CheckFailed("host speed never measured: other threads of "
                          "the process stayed busy in every probe")


def _waves(workload: Workload, recorder: Recorder, seconds: float):
    recorder.calibrate()
    start = now()
    wave = 0
    while wave < workload.min_waves or (
            now() - start < seconds
            and (workload.max_waves is None or wave < workload.max_waves)):
        yield wave
        wave += 1


def _open(recorder: Recorder, opener, *args) -> bool:
    started = now()
    try:
        opener(*args)
    except (KeyError, ValueError, RuntimeError):
        recorder.outcome("open", False)
        return False
    recorder.opened(now() - started)
    return True


def _run_direct(workload, plan, server, recorder, seconds) -> None:
    updates = iter(plan.updates)
    for wave in _waves(workload, recorder, seconds):
        episodes = plan.episodes(wave)
        names = [f"w{wave}-s{i}" for i in range(workload.sessions)]
        live = []
        for i, (name, ep) in enumerate(zip(names, episodes)):
            recorder.maybe_calibrate()
            with recorder.phase("open"):
                if _open(recorder, server.open_session, name, ep):
                    live.append(i)
        recorder.calibrate()
        for q in range(QUERIES_PER_SESSION):
            recorder.maybe_calibrate()
            with recorder.phase("query"):
                submitted = {}
                for i in live:
                    submitted[names[i]] = (i, now())
                    server.submit(names[i], episodes[i].queries[q])
                results = server.drain()
                done = now()
                for result in results:
                    i, started = submitted[result.session_id]
                    recorder.answer((wave, i, q), result.prediction,
                                    done - started, result.ok)
                if workload.update_every and (q + 1) % workload.update_every == 0:
                    with recorder.phase("update"):
                        server.update_graph(next(updates))
                        recorder.outcome("update", True)
        recorder.calibrate()
        for name in names:
            server.close_session(name)
        recorder.waves = wave + 1


async def _run_gateway(workload, plan, server, recorder, seconds) -> None:
    gateway = ServingGateway(server)

    async def client(wave: int, i: int, name: str, episode: Episode):
        for q, datapoint in enumerate(episode.queries):
            started = now()
            outcome = await gateway.submit(name, datapoint)
            ok = isinstance(outcome, GatewayResult) and outcome.ok
            recorder.answer((wave, i, q), outcome.prediction if ok else -1,
                            now() - started, ok)

    try:
        for wave in _waves(workload, recorder, seconds):
            episodes = plan.episodes(wave)
            names = [f"w{wave}-s{i}" for i in range(workload.sessions)]
            with recorder.phase("open"):
                live = [i for i, (name, ep) in enumerate(zip(names, episodes))
                        if _open(recorder, gateway.open_session, "bench",
                                 name, ep)]
            recorder.calibrate()
            with recorder.phase("query"):
                await asyncio.gather(*(
                    client(wave, i, names[i], episodes[i]) for i in live))
            recorder.calibrate()
            for name in names:
                gateway.close_session(name)
            recorder.waves = wave + 1
    finally:
        await gateway.close()


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
class CheckFailed(Exception):
    """An output check failed; the run must not report a result."""


def check_answers(workload: Workload, plan: Plan, recorder: Recorder
                  ) -> None:
    """Each answer is a class id of its own episode."""
    for (wave, i, q), prediction in recorder.predictions.items():
        if not 0 <= prediction < plan.episodes(wave)[i].num_ways:
            raise CheckFailed(
                f"wave {wave} session {i} query {q}: prediction "
                f"{prediction} is not a class of its {workload.ways}-way "
                f"episode")


def accuracy(workload: Workload, plan: Plan, recorder: Recorder) -> float:
    """Accuracy over the queries of the always-run waves."""
    hits = total = 0
    for wave in range(workload.min_waves):
        for i, ep in enumerate(plan.episodes(wave)):
            for q, label in enumerate(ep.query_labels):
                total += 1
                hits += recorder.predictions.get((wave, i, q), -1) == label
    return hits / total


def check_batch_one(workload: Workload, plan: Plan, state: dict,
                    recorder: Recorder) -> int:
    """Wave 0 sessions chosen by the seed, replayed one query at a time
    on a fresh server (same updates at the same rounds), must predict
    what the batched run did.  Returns the number of queries compared."""
    chosen = np.random.default_rng([plan.seed, 3]).choice(
        workload.sessions, size=workload.check_sessions, replace=False)
    server = build_server(workload, load_dataset(workload.dataset), state,
                          max_batch_size=1)
    episodes = plan.episodes(0)
    updates = iter(plan.updates)
    compared = 0
    try:
        for i in chosen:
            server.open_session(f"ref-{i}", episodes[i])
        for q in range(QUERIES_PER_SESSION):
            for i in chosen:
                server.submit(f"ref-{i}", episodes[i].queries[q])
                (result,) = server.drain()
                batched = recorder.predictions.get((0, int(i), q))
                if result.prediction != batched:
                    raise CheckFailed(
                        f"session {i} query {q}: batch-size-1 predicts "
                        f"{result.prediction}, the batched run {batched}")
                compared += 1
            if workload.update_every and (q + 1) % workload.update_every == 0:
                server.update_graph(next(updates))
    finally:
        server.close()
    return compared


def check_rebuild(workload: Workload, plan: Plan, state: dict,
                  server: PromptServer) -> int:
    """Fresh sessions on the mutated server must predict what a
    monolithic server over ``graph.rebuild()`` predicts."""
    episodes = plan.check_episodes(REBUILD_SESSIONS)
    graph = server.dataset.graph
    cold = build_server(
        replace(workload, mutable=False, shards=1),
        Dataset(graph.rebuild(), server.dataset.task, name="rebuilt"),
        state)
    answers = []
    for target in (server, cold):
        for i, ep in enumerate(episodes):
            target.open_session(f"check-{i}", ep)
        for q in range(REBUILD_QUERIES):
            for i, ep in enumerate(episodes):
                target.submit(f"check-{i}", ep.queries[q])
        answers.append([r.prediction for r in target.drain()])
    cold.close()
    if answers[0] != answers[1]:
        raise CheckFailed("fresh sessions on the mutated graph diverge "
                          "from a server over graph.rebuild()")
    return len(answers[0])


def check_traced(untraced: Recorder, traced: Recorder) -> int:
    """The traced run predicts exactly what the untraced run did, on
    every wave both ran."""
    waves = min(untraced.waves, traced.waves)
    keys = sorted(k for k in untraced.predictions if k[0] < waves)
    for key in keys:
        if traced.predictions.get(key) != untraced.predictions[key]:
            raise CheckFailed(f"traced run diverges at {key}")
    return len(keys)
