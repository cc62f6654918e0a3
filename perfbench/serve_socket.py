"""Workload ``serve-socket``: a closed loop over a real TCP socket.

One load-generator process (this one) holds two connections to a
``SimulationServer`` running in its own process (``serve_node.py``).
Each connection owns half of 16 sensornet sessions (4 channels) and
sends protocol-v1 ``step n=1`` requests round-robin over them, in an
order drawn from the seed.  After a warm-up, every request is timed
from send to reply, and the CPU time of both processes over the timed
phase is divided among the requests.

Both processes run on one CPU.  Left to the scheduler on a shared
two-core virtual machine, they ran on both virtual CPUs at once, and
their CPU time per request followed whatever else the host ran beside
them: ten runs in a row ranged from 0.56 to 0.96 ms.  In five pairs of
runs alternating between the two, one CPU gave 0.57 to 0.68 ms and two
gave 0.62 to 0.82 ms.

Each connection sends whole rounds -- one step of each of its sessions
-- until ``--seconds`` have passed.  A faster program therefore ages
its sessions further, which is harmless here: sensornet's step and
``metrics()`` cost stay flat as a session ages.  That also makes this
workload the no-change control for substrate-side changes; the wire
codec, ``dispatch``, the batch loop and result conversion do most of
the work.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

from repro.api import SensornetConfig
from repro.serve.server import Client

import checks
import common

SESSIONS = 16
CHANNELS = 4
CONNECTIONS = 2
WARMUP_ROUNDS = 5
#: Length of a smoke run's timed phase, in seconds.
SMOKE_SECONDS = 0.2


class ServeSocket:
    def __init__(self, seed: int, seconds: int, smoke: bool,
                 trace: bool) -> None:
        self.seed = seed
        self.trace = trace
        self.seconds = SMOKE_SECONDS if smoke else seconds
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.clients: List[Any] = []
        #: Per connection: [(session id, config)], in round-robin order.
        self.owned: List[List[Any]] = [[] for _ in range(CONNECTIONS)]
        self.steps: Dict[str, int] = {}
        self.errors: List[str] = []
        self.failed = 0
        self.latencies: List[float] = []
        self.completions: List[float] = []
        self.start = 0.0
        self.cpu_s = 0.0
        self.report: Dict[str, Any] = {}

    async def _line(self, timeout: float = 60.0) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        line = await asyncio.wait_for(self.proc.stdout.readline(), timeout)
        if not line:
            raise common.BenchError("serving process exited early")
        return line.decode().strip()

    async def _command(self, command: str) -> None:
        assert self.proc is not None and self.proc.stdin is not None
        self.proc.stdin.write(command.encode() + b"\n")
        await self.proc.stdin.drain()

    async def setup(self) -> None:
        """Everything up to the first timed request."""
        # The serving process inherits this process's CPU.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        argv = [sys.executable, os.path.join(common.BENCH_DIR, "serve_node.py")]
        if self.trace:
            argv.append("--trace")
        self.proc = await asyncio.create_subprocess_exec(
            *argv, cwd=common.ROOT, env=common.child_env(),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE)
        ready = await self._line()
        if not ready.startswith("READY "):
            raise common.BenchError(f"unexpected serving-process output {ready!r}")
        port = int(ready.split()[1])
        self.clients = [await Client.connect("127.0.0.1", port)
                        for _ in range(CONNECTIONS)]
        rng = random.Random(self.seed)
        for index in range(SESSIONS):
            conn = index % CONNECTIONS
            config = SensornetConfig(n_channels=CHANNELS,
                                     seed=rng.randrange(2 ** 31))
            response = await self.clients[conn].create(
                "sensornet", n_channels=config.n_channels, seed=config.seed)
            if not response.get("ok"):
                raise common.BenchError(f"create failed: {response}")
            self.owned[conn].append((response["session"], config))
            self.steps[response["session"]] = 0
        for sessions in self.owned:
            rng.shuffle(sessions)
        for conn in range(CONNECTIONS):
            for _ in range(WARMUP_ROUNDS):
                for session, _ in self.owned[conn]:
                    await self._step(conn, session, timed=False)

    async def _step(self, conn: int, session: str, timed: bool) -> None:
        start = time.perf_counter()
        response = await self.clients[conn].step(session, 1)
        end = time.perf_counter()
        if not response.get("ok"):
            if not timed:
                raise common.BenchError(f"warm-up step failed: {response}")
            self.failed += 1
            return
        self.steps[session] += 1
        self.errors.extend(checks.ack_problems(session, self.steps[session],
                                               response))
        if timed:
            self.latencies.append(end - start)
            self.completions.append(end)

    async def _connection(self, conn: int, deadline: float) -> None:
        while True:
            for session, _ in self.owned[conn]:
                await self._step(conn, session, timed=True)
            if time.perf_counter() >= deadline:
                return

    async def _reply(self, command: str, answer: str) -> float:
        """Send ``command``; return the CPU seconds the server answers with."""
        await self._command(command)
        words = (await self._line()).split()
        if len(words) != 2 or words[0] != answer:
            raise common.BenchError(f"serving process did not answer "
                                    f"{command!r} with {answer}")
        return float(words[1])

    async def mark(self) -> float:
        """Start the server's window; its CPU seconds spent until now."""
        return await self._reply("mark", "MARKED")

    async def measure(self) -> None:
        await self.mark()
        cpu = time.process_time()
        self.start = time.perf_counter()
        deadline = self.start + self.seconds
        await asyncio.gather(*(self._connection(c, deadline)
                               for c in range(CONNECTIONS)))
        self.cpu_s = time.process_time() - cpu
        self.cpu_s += await self._reply("end", "ENDED")

    async def finish(self) -> None:
        """Collect final states, close connections, stop the server."""
        records = []
        for conn, sessions in enumerate(self.owned):
            client = self.clients[conn]
            for session, config in sessions:
                metrics = await client.metrics(session)
                snapshot = await client.snapshot(session)
                for response in (metrics, snapshot):
                    if not response.get("ok"):
                        raise common.BenchError(f"final read failed: {response}")
                records.append(checks.SessionRecord(
                    session, "sensornet", config, self.steps[session],
                    metrics["metrics"], snapshot["snapshot"]))
        await self.close()
        self.errors.extend(checks.replay_problems(records))

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.proc is None:
            return
        try:
            if self.proc.returncode is None:
                await self._command("stop")
                self.report = json.loads(await self._line())
                await asyncio.wait_for(self.proc.wait(), 60)
        finally:
            if self.proc.returncode is None:
                self.proc.kill()
                await self.proc.wait()
            self.proc = None


async def _run(bench: ServeSocket, probe: bool) -> None:
    try:
        await bench.setup()
        if probe:
            common.signal_ready(await bench.mark())
            return
        await bench.measure()
        await bench.finish()
    finally:
        await bench.close()


def run(seed: int, seconds: int, smoke: bool, trace: bool,
        probe: bool = False) -> common.Outcome:
    bench = ServeSocket(seed, seconds, smoke, trace)
    setup_s = (None if trace or probe
               else common.setup_seconds("serve-socket", seed, seconds, smoke))
    asyncio.run(_run(bench, probe))
    outcome = common.Outcome(attempted=len(bench.latencies) + bench.failed,
                             failed=bench.failed)
    if probe:
        return outcome
    outcome.errors.extend(bench.errors)
    outcome.info({
        "throughput_rps": common.windowed_rate(bench.start, bench.completions),
        "latency_p50_ms": statistics.median(bench.latencies) * 1e3,
        "latency_p95_ms": common.percentile(bench.latencies, 95) * 1e3})
    end_to_end = {
        "cpu_ms_per_op": (bench.cpu_s / outcome.attempted * 1e3, "ms"),
        "rss_mb": (bench.report["rss_mb"], "MB"),
    }
    if setup_s is not None:
        end_to_end = {"setup_s": (setup_s, "s"), **end_to_end}
    return outcome.report(trace, end_to_end, bench.report.get("layers", {}))
