"""Per-layer tracing from outside the program.

The traced run wraps public functions of ``repro.serve``, ``repro.api``
and ``repro.experiments`` by patching attributes in the process that
runs the program; nothing under ``src/`` changes.  Spans are kept in
memory as per-name aggregates (total time, self time, calls) and turned
into per-layer metrics when the run ends.

A span's *self time* is its duration minus the spans it caused.  The
open span is tracked in a :mod:`contextvars` variable, so each asyncio
task (one per connection or caller) nests its own spans and concurrent
requests never charge time to each other.

Patches go on instances where a class is shared with the simulated
substrates: ``ServingSimulation`` and ``ClusterSimulation`` run their
own ``AdmissionController`` and governors, which must not count as
serving-layer work.
"""

from __future__ import annotations

import contextvars
import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

perf_counter = time.perf_counter

#: Child-time accumulator of the innermost open span in this context.
_OPEN: contextvars.ContextVar = contextvars.ContextVar("perfbench_span",
                                                       default=None)

SUBSTRATES = ("cloud", "cluster", "cpn", "multicore", "sensornet", "serve",
              "smartcamera", "swarm")

#: Quick-suite job ids, in suite order (``experiments.<job>_s``).
SUITE_JOBS = ("E1", "E2", "E3", "E3-goal", "E4", "E5", "E5-goal", "E6",
              "E6-qos", "E7", "E7-detect", "E8", "E9", "E10", "E11", "E12",
              "E13", "E14", "E15", "E16", "E18", "A1", "A2", "A4", "A5")

PHASES = ("sense", "model", "reason", "act")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "serve.server.decode_us": "us",
        "serve.server.encode_us": "us",
        "serve.server.response_bytes": "bytes",
        "serve.server.stream_us": "us",
        "serve.server.dispatch_us": "us",
        "serve.admission.admit_us": "us",
        "serve.sessions.us_per_req": "us",
        "serve.sessions.snapshot_hit_ratio": "ratio",
        "serve.batching.wait_us": "us",
        "serve.batching.batch_size": "count",
        "serve.batching.self_us": "us",
        "serve.batching.materialise_us": "us",
        "serve.batching.replay_steps": "count",
    }
    for kind in ("step", "metrics", "snapshot"):
        for substrate in SUBSTRATES:
            units[f"api.{kind}_us.{substrate}"] = "us"
    units.update({
        "serve.cluster.route_us": "us",
        "serve.cluster.redirects": "count",
        "serve.cluster.migrate_us": "us",
        "serve.governor.tick_us": "us",
    })
    for job in SUITE_JOBS:
        units[f"experiments.{job}_s"] = "s"
    units.update({
        "experiments.engine.reduce_s": "s",
        "experiments.engine.cache_s": "s",
        "experiments.engine.fingerprint_ms": "ms",
    })
    for phase in PHASES:
        units[f"core.loop.{phase}_s"] = "s"
    return units


class Tracer:
    """Span aggregates plus the patches that produce them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any, bool]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (patches stay in place)."""
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: session id -> duration of the dispatcher batch that served it.
        self.served: Dict[str, float] = {}

    # -- spans -------------------------------------------------------------

    def _open(self) -> Tuple[Any, List[float], Any, float]:
        parent = _OPEN.get()
        child = [0.0]
        token = _OPEN.set(child)
        return parent, child, token, perf_counter()

    def _close(self, name: str, opened: Tuple[Any, List[float], Any, float]
               ) -> Tuple[float, float]:
        parent, child, token, start = opened
        duration = perf_counter() - start
        _OPEN.reset(token)
        self.total[name] += duration
        self.self_time[name] += duration - child[0]
        self.calls[name] += 1
        if parent is not None:
            parent[0] += duration
        return duration, duration - child[0]

    def span(self, fn: Callable, name: str) -> Callable:
        """``fn`` (synchronous) recorded as span ``name``."""
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            opened = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, opened)
        return wrapper

    def async_span(self, fn: Callable, name: str) -> Callable:
        """``fn`` (a coroutine function) recorded as span ``name``."""
        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            opened = self._open()
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(name, opened)
        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        had_own = attr in getattr(owner, "__dict__", {})
        self._undo.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _per(seconds: float, calls: float, scale: float = 1e6) -> float:
    """Seconds per call, in microseconds by default; 0 when never called."""
    return seconds / calls * scale if calls else 0.0


# ---------------------------------------------------------------------------
# The serving layer
# ---------------------------------------------------------------------------

def instrument_batching(tracer: Tracer) -> None:
    """Batch execution, worker-cache misses and simulator calls (module-wide).

    ``run_step_batch`` is only called by the dispatcher, so module-level
    patches see exactly the serving path.  Simulators made here get
    instance-level spans on ``step``/``metrics``/``snapshot``.
    """
    from repro.serve import batching

    run_step_batch = batching.run_step_batch
    materialise = batching._materialise
    make_simulator = batching.make_simulator

    def traced_materialise(request: Any) -> Any:
        cached = batching._WORKER_CACHE.get(request.session_id)
        hit = (cached is not None and cached[0] == request.config
               and cached[2] == request.base_steps)
        opened = tracer._open()
        try:
            return materialise(request)
        finally:
            duration, _ = tracer._close("materialise", opened)
            if not hit:
                tracer.counts["misses"] += 1
                tracer.counts["miss_seconds"] += duration
                tracer.counts["replay_steps"] += request.base_steps

    def traced_make_simulator(substrate: str, *args: Any, **kwargs: Any) -> Any:
        sim = make_simulator(substrate, *args, **kwargs)
        for kind in ("step", "metrics", "snapshot"):
            setattr(sim, kind, tracer.span(getattr(sim, kind),
                                           f"api.{kind}.{substrate}"))
        return sim

    tracer.patch(batching, "run_step_batch",
                 tracer.span(run_step_batch, "run_step_batch"))
    tracer.patch(batching, "_materialise", traced_materialise)
    tracer.patch(batching, "make_simulator", traced_make_simulator)


def instrument_server(server: Any, tracer: Tracer) -> None:
    """Spans on one ``SimulationServer`` and the objects it owns."""
    tracer.patch(server, "dispatch",
                 tracer.async_span(server.dispatch, "dispatch"))
    # Handlers are bound into this dict at construction, so they are
    # wrapped in place; a traced server is not reused untraced.
    for op, handler in list(server._handlers.items()):
        server._handlers[op] = tracer.async_span(handler, "handler")
    tracer.patch(server.admission, "admit",
                 tracer.span(server.admission.admit, "admit"))
    if server.governor is not None:
        tracer.patch(server.governor, "tick",
                     tracer.span(server.governor.tick, "tick"))
    for name in ("get", "create", "close", "adopt", "export_handle",
                 "evict_expired"):
        tracer.patch(server.sessions, name,
                     tracer.span(getattr(server.sessions, name), "sessions"))
    cache = server.sessions.snapshots
    for name in ("put", "latest", "drop_session"):
        tracer.patch(cache, name, tracer.span(getattr(cache, name), "sessions"))
    cache_get = tracer.span(cache.get, "sessions")

    def traced_cache_get(session_id: str, step: int) -> Any:
        entry = cache_get(session_id, step)
        tracer.counts["snapshot_lookups"] += 1
        tracer.counts["snapshot_hits"] += entry is not None
        return entry

    tracer.patch(cache, "get", traced_cache_get)

    step_via_batch = server._step_via_batch

    async def traced_step_via_batch(session: Any, *args: Any,
                                    **kwargs: Any) -> Any:
        opened = tracer._open()
        try:
            return await step_via_batch(session, *args, **kwargs)
        finally:
            _, own = tracer._close("step_via_batch", opened)
            # What is left after the batch that served this request is
            # waiting: the session lock, the batch queue and the hop back.
            tracer.counts["wait_seconds"] += own - tracer.served.pop(
                session.session_id, 0.0)

    tracer.patch(server, "_step_via_batch", traced_step_via_batch)

    submit = server.dispatcher.submit

    def traced_submit(requests: Any) -> Any:
        opened = tracer._open()
        try:
            return submit(requests)
        finally:
            duration, _ = tracer._close("submit", opened)
            tracer.counts["batched_requests"] += len(requests)
            for request in requests:
                tracer.served[request.session_id] = duration

    tracer.patch(server.dispatcher, "submit", traced_submit)


def serve_layer_metrics(tracer: Tracer, cpu_seconds: float = 0.0,
                        wire: bool = False) -> Dict[str, float]:
    """Per-layer serving metrics from one process's tracer.

    Node-side figures are per ``dispatch`` call.  ``cpu_seconds`` is the
    serving process's CPU over the traced window; with ``wire`` the codec
    and the CPU left outside every span (``stream_us``) are reported.
    """
    t = tracer
    requests = t.calls["dispatch"]
    batched = t.counts["batched_requests"]
    misses = t.counts["misses"]
    out = {
        "serve.server.decode_us": 0.0,
        "serve.server.encode_us": 0.0,
        "serve.server.response_bytes": 0.0,
        "serve.server.stream_us": 0.0,
        "serve.server.dispatch_us": _per(t.self_time["dispatch"], requests),
        "serve.admission.admit_us": _per(t.total["admit"], t.calls["admit"]),
        "serve.sessions.us_per_req": _per(t.self_time["sessions"], requests),
        "serve.sessions.snapshot_hit_ratio": (
            t.counts["snapshot_hits"] / t.counts["snapshot_lookups"]
            if t.counts["snapshot_lookups"] else 0.0),
        "serve.batching.wait_us": _per(t.counts["wait_seconds"],
                                        t.calls["step_via_batch"]),
        "serve.batching.batch_size": (batched / t.calls["submit"]
                                      if t.calls["submit"] else 0.0),
        "serve.batching.self_us": _per(t.self_time["run_step_batch"], batched),
        "serve.batching.materialise_us": _per(t.counts["miss_seconds"], misses),
        "serve.batching.replay_steps": (t.counts["replay_steps"] / misses
                                        if misses else 0.0),
        "serve.governor.tick_us": _per(t.total["tick"], t.calls["tick"]),
    }
    for kind in ("step", "metrics", "snapshot"):
        for substrate in SUBSTRATES:
            name = f"api.{kind}.{substrate}"
            out[f"api.{kind}_us.{substrate}"] = _per(t.total[name],
                                                      t.calls[name])
    if wire:
        out["serve.server.decode_us"] = _per(t.total["decode"], requests)
        out["serve.server.encode_us"] = _per(t.total["encode"], requests)
        out["serve.server.response_bytes"] = (
            t.counts["response_bytes"] / t.calls["encode"]
            if t.calls["encode"] else 0.0)
        # CPU the spans account for; what remains is stream I/O, the
        # event loop and task hops.
        spanned = (t.total["decode"] + t.total["encode"]
                   + t.self_time["dispatch"] + t.total["admit"]
                   + t.self_time["handler"] + t.self_time["sessions"]
                   + t.total["submit"] + t.total["tick"])
        out["serve.server.stream_us"] = _per(max(0.0, cpu_seconds - spanned),
                                              requests)
    return out


def instrument_wire(tracer: Tracer) -> None:
    """Time the JSON codec calls of ``repro.serve.server`` (the wire)."""
    import json
    import types

    from repro.serve import server

    def loads(data: Any, *args: Any, **kwargs: Any) -> Any:
        start = perf_counter()
        try:
            return json.loads(data, *args, **kwargs)
        finally:
            tracer.total["decode"] += perf_counter() - start
            tracer.calls["decode"] += 1

    def dumps(obj: Any, *args: Any, **kwargs: Any) -> str:
        start = perf_counter()
        text = json.dumps(obj, *args, **kwargs)
        tracer.total["encode"] += perf_counter() - start
        tracer.calls["encode"] += 1
        tracer.counts["response_bytes"] += len(text) + 1
        return text

    tracer.patch(server, "json", types.SimpleNamespace(loads=loads,
                                                       dumps=dumps))


# ---------------------------------------------------------------------------
# The cluster
# ---------------------------------------------------------------------------

def instrument_cluster(cluster: Any, tracer: Tracer) -> None:
    """Every node, plus migration on the ``ServeCluster`` itself."""
    for server in cluster.servers.values():
        instrument_server(server, tracer)
    tracer.patch(cluster, "migrate",
                 tracer.async_span(cluster.migrate, "migrate"))


def instrument_client(client: Any, tracer: Tracer) -> None:
    """``ClusterClient.request``: its self time is routing."""
    tracer.patch(client, "request",
                 tracer.async_span(client.request, "route"))


def cluster_layer_metrics(tracer: Tracer, redirects: float) -> Dict[str, float]:
    t = tracer
    out = serve_layer_metrics(tracer)
    out["serve.cluster.route_us"] = _per(t.self_time["route"], t.calls["route"])
    out["serve.cluster.redirects"] = (redirects / t.calls["migrate"]
                                      if t.calls["migrate"] else 0.0)
    out["serve.cluster.migrate_us"] = _per(t.total["migrate"],
                                            t.calls["migrate"])
    return out


# ---------------------------------------------------------------------------
# The experiments engine
# ---------------------------------------------------------------------------

def instrument_engine(tracer: Tracer) -> None:
    """Shard, reduce, cache and fingerprint time of ``run_suite``."""
    from repro.experiments import engine

    execute = engine._execute_shard
    stamp = engine._stamp_provenance

    def traced_execute(spec: Any) -> Any:
        start = perf_counter()
        try:
            return execute(spec)
        finally:
            tracer.counts[f"job.{spec.job_name}"] += perf_counter() - start

    def traced_stamp(tables: Any, shard_results: Any, reduce_wall: float,
                     **kwargs: Any) -> Any:
        tracer.counts["reduce_seconds"] += reduce_wall
        return stamp(tables, shard_results, reduce_wall, **kwargs)

    tracer.patch(engine, "_execute_shard", traced_execute)
    tracer.patch(engine, "_stamp_provenance", traced_stamp)
    tracer.patch(engine, "code_fingerprint",
                 tracer.span(engine.code_fingerprint, "fingerprint"))
    for name in ("load", "store"):
        tracer.patch(engine.ShardCache, name,
                     tracer.span(getattr(engine.ShardCache, name), "cache"))


def engine_layer_metrics(tracer: Tracer) -> Dict[str, float]:
    t = tracer
    out = {f"experiments.{job}_s": t.counts[f"job.{job}"] for job in SUITE_JOBS}
    out["experiments.engine.reduce_s"] = t.counts["reduce_seconds"]
    out["experiments.engine.cache_s"] = t.total["cache"]
    out["experiments.engine.fingerprint_ms"] = _per(
        t.total["fingerprint"], t.calls["fingerprint"], 1e3)
    return out


def phase_metrics(registry: Any) -> Dict[str, float]:
    """Core-loop phase seconds from a telemetry registry (``phase_seconds``)."""
    histograms = registry.snapshot()["histograms"]
    return {f"core.loop.{phase}_s": sum(
        summary["sum"] for key, summary in histograms.items()
        if key.startswith("phase_seconds{")
        and f"phase={phase}" in key[len("phase_seconds{"):-1].split(","))
        for phase in PHASES}
