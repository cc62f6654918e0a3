"""Workload ``cluster-mixed``: aging sessions on an in-process cluster.

A 3-node ``ServeCluster`` with the collective governor, driven by two
concurrent asyncio callers through their own ``ClusterClient``.  The 24
session slots span all eight ``repro.api`` substrates (three each);
each caller owns a fixed half of them, so every session sees the same
request sequence on every run with the same seed.  A caller visits its
slots in rounds, each round in a seeded order, and each slot draws its
next operation from its own deck of 20, reshuffled from the seed every
time it runs out:

* 14 steps, ``n`` = 1 (five), 4 (five) or 16 (four), clamped to the
  slot's step budget (300 to 1450 steps, fixed per slot);
* three ``snapshot`` and three ``metrics`` reads (30%);
* a session is closed and a fresh one created (new config seed) when a
  step reaches the budget, so sessions age through hundreds to
  thousands of steps;
* every 50th request per caller (every ~100 cluster-wide) migrates one
  of its sessions to the next node with ``ServeCluster.migrate``.

Decks and rounds fix how much work each slot gets; the seed decides the
order, the config seeds and the migrated sessions.

The wire is bypassed, so this is the no-change control for codec
changes; substrate steps and the history-length ``metrics()`` of cloud,
cluster, serve, smartcamera and cpn dominate.  Reads sit beside writes,
so work moved from ``step`` into ``snapshot`` or ``metrics`` shows.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from typing import Any, Dict, List

from repro.api import SIMULATORS
from repro.serve.cluster import ServeCluster
from repro.serve.config import ServerConfig

import checks
import common
import layers

SLOTS = 24
NODES = 3
CALLERS = 2
#: One deck of operations per slot: step sizes, or a read op.
DECK = (1,) * 5 + (4,) * 5 + (16,) * 4 + ("snapshot",) * 3 + ("metrics",) * 3
MIGRATE_EVERY = 50
#: Timed script entries per caller per ``--seconds``.
REQUESTS_PER_SECOND = 100
SMOKE_REQUESTS = 40


def slot_substrate(slot: int) -> str:
    return layers.SUBSTRATES[slot % len(layers.SUBSTRATES)]


def slot_caller(slot: int) -> int:
    # Alternate callers within each run of eight slots, shifting by one
    # per run, so each caller gets every substrate at least once.
    return (slot + slot // len(layers.SUBSTRATES)) % CALLERS


def slot_budget(slot: int) -> int:
    return 300 + 50 * ((7 * slot) % SLOTS)


class Caller:
    """One asyncio caller and the sessions it owns."""

    def __init__(self, index: int, seed: int, bench: "ClusterMixed",
                 client: Any) -> None:
        self.index = index
        self.rng = random.Random(seed * 7919 + index)
        self.bench = bench
        self.client = client
        self.slots = [s for s in range(SLOTS) if slot_caller(s) == index]
        #: slot -> {"id", "config", "steps"}
        self.live: Dict[int, Dict[str, Any]] = {}
        self.decks: Dict[int, List[Any]] = {slot: [] for slot in self.slots}

    async def _request(self, payload: Dict[str, Any], timed: bool) -> Any:
        start = time.perf_counter()
        response = await self.client.request(payload)
        if timed:
            end = time.perf_counter()
            self.bench.attempted += 1
            self.bench.latencies.append(end - start)
            self.bench.completions.append(end)
            if not response.get("ok"):
                self.bench.failed += 1
                return None
        elif not response.get("ok"):
            raise common.BenchError(f"set-up request failed: {response}")
        return response

    async def create(self, slot: int, timed: bool) -> None:
        substrate = slot_substrate(slot)
        config = SIMULATORS[substrate][0](steps=slot_budget(slot),
                                          seed=self.rng.randrange(2 ** 31))
        response = await self._request(
            {"op": "create", "substrate": substrate,
             "config": {"steps": config.steps, "seed": config.seed}}, timed)
        if response is not None:
            self.live[slot] = {"id": response["session"], "config": config,
                               "steps": 0}

    async def step(self, slot: int, n: int, timed: bool) -> None:
        state = self.live[slot]
        n = min(n, slot_budget(slot) - state["steps"])
        response = await self._request(
            {"op": "step", "session": state["id"], "n": n}, timed)
        if response is None:
            return
        state["steps"] += n
        self.bench.errors.extend(checks.ack_problems(state["id"],
                                                     state["steps"], response))
        if state["steps"] >= slot_budget(slot):
            if await self._request({"op": "close", "session": state["id"]},
                                   timed) is not None:
                await self.create(slot, timed)

    async def setup(self) -> None:
        for slot in self.slots:
            await self.create(slot, timed=False)
        for slot in self.slots:
            await self.step(slot, 1, timed=False)

    def _visits(self, requests: int) -> List[int]:
        order: List[int] = []
        while len(order) < requests:
            round_ = list(self.slots)
            self.rng.shuffle(round_)
            order.extend(round_)
        return order[:requests]

    def _next_op(self, slot: int) -> Any:
        if not self.decks[slot]:
            self.decks[slot] = list(DECK)
            self.rng.shuffle(self.decks[slot])
        return self.decks[slot].pop()

    async def script(self, requests: int) -> None:
        for i, slot in enumerate(self._visits(requests), start=1):
            state = self.live[slot]
            if i % MIGRATE_EVERY == 0:
                await self.bench.migrate(state["id"])
                continue
            op = self._next_op(slot)
            if isinstance(op, int):
                await self.step(slot, op, timed=True)
                continue
            response = await self._request({"op": op, "session": state["id"]},
                                           timed=True)
            if response is not None and op == "snapshot":
                self.bench.errors.extend(checks.ack_problems(
                    state["id"], state["steps"], response["snapshot"]))

    async def records(self) -> List[checks.SessionRecord]:
        out = []
        for slot in self.slots:
            state = self.live[slot]
            metrics = await self._request(
                {"op": "metrics", "session": state["id"]}, timed=False)
            snapshot = await self._request(
                {"op": "snapshot", "session": state["id"]}, timed=False)
            out.append(checks.SessionRecord(
                state["id"], slot_substrate(slot), state["config"],
                state["steps"], metrics["metrics"], snapshot["snapshot"]))
        return out


class ClusterMixed:
    def __init__(self, seed: int, seconds: int, smoke: bool,
                 trace: bool) -> None:
        self.seed = seed
        self.per_caller = (SMOKE_REQUESTS if smoke
                           else REQUESTS_PER_SECOND * seconds)
        self.tracer = layers.Tracer() if trace else None
        self.cluster: Any = None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.latencies: List[float] = []
        self.completions: List[float] = []
        self.start = 0.0
        self.cpu_s = 0.0
        self.rss_mb = 0.0
        self.layer_values: Dict[str, float] = {}

    async def setup(self) -> None:
        if self.tracer is not None:
            layers.instrument_batching(self.tracer)
        self.cluster = ServeCluster(
            nodes=NODES, base=ServerConfig(**common.SERVE_OVERRIDES),
            governor="collective")
        if self.tracer is not None:
            layers.instrument_cluster(self.cluster, self.tracer)
        await self.cluster.start(listen=False)
        self.callers = []
        for index in range(CALLERS):
            client = self.cluster.cluster_client()
            if self.tracer is not None:
                layers.instrument_client(client, self.tracer)
            self.callers.append(Caller(index, self.seed, self, client))
        for caller in self.callers:
            await caller.setup()

    async def migrate(self, session: str) -> None:
        nodes = self.cluster.node_ids
        dst = nodes[(nodes.index(self.cluster.placements[session]) + 1)
                    % len(nodes)]
        self.attempted += 1
        try:
            await self.cluster.migrate(session, dst)
        except (RuntimeError, KeyError, ValueError) as exc:
            self.failed += 1
            self.errors.append(f"migrate {session} -> {dst}: {exc}")

    def _redirects(self) -> int:
        return sum(c.client.redirects_followed for c in self.callers)

    async def measure(self) -> None:
        if self.tracer is not None:
            self.tracer.reset()
        redirects = self._redirects()
        cpu = time.process_time()
        self.start = time.perf_counter()
        await asyncio.gather(*(c.script(self.per_caller) for c in self.callers))
        self.cpu_s = time.process_time() - cpu
        self.rss_mb = common.peak_rss_mb()
        if self.tracer is not None:
            self.layer_values = layers.cluster_layer_metrics(
                self.tracer, self._redirects() - redirects)

    async def finish(self) -> None:
        records = []
        for caller in self.callers:
            records.extend(await caller.records())
        self.errors.extend(checks.replay_problems(records))

    async def close(self) -> None:
        if self.cluster is not None:
            await self.cluster.stop()
        if self.tracer is not None:
            self.tracer.restore()


async def _run(bench: ClusterMixed, probe: bool) -> None:
    try:
        await bench.setup()
        if probe:
            common.signal_ready()
            return
        await bench.measure()
        await bench.finish()
    finally:
        await bench.close()


def run(seed: int, seconds: int, smoke: bool, trace: bool,
        probe: bool = False) -> common.Outcome:
    bench = ClusterMixed(seed, seconds, smoke, trace)
    setup_s = (None if trace or probe
               else common.setup_seconds("cluster-mixed", seed, seconds, smoke))
    asyncio.run(_run(bench, probe))
    outcome = common.Outcome(attempted=bench.attempted, failed=bench.failed)
    if probe:
        return outcome
    outcome.errors.extend(bench.errors)
    outcome.info({
        "throughput_rps": common.windowed_rate(bench.start, bench.completions),
        "latency_p50_ms": statistics.median(bench.latencies) * 1e3,
        "latency_p95_ms": common.percentile(bench.latencies, 95) * 1e3})
    end_to_end = {
        "cpu_ms_per_op": (bench.cpu_s / bench.attempted * 1e3, "ms"),
        "rss_mb": (bench.rss_mb, "MB"),
    }
    if setup_s is not None:
        end_to_end = {"setup_s": (setup_s, "s"), **end_to_end}
    return outcome.report(trace, end_to_end, bench.layer_values)
