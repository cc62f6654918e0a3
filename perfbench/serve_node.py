"""The serving process of the ``serve-socket`` workload.

Usage: ``python3 perfbench/serve_node.py [--trace]`` (with ``src/`` on
``PYTHONPATH``).  Starts a :class:`repro.serve.server.SimulationServer`
on an ephemeral localhost port with the benchmark's serve settings and
prints ``READY <port>``.  Commands arrive one per line on stdin:

* ``mark`` -- start the measured window (clears the per-layer
  aggregates and notes the process CPU time), answered by
  ``MARKED <cpu>`` with the CPU seconds this process has used so far
  (its set-up);
* ``end`` -- close the window, answered by ``ENDED <cpu>`` with the CPU
  seconds this process used in the window;
* ``stop`` or end of input -- stop the server and print one JSON line
  with the peak RSS and, when traced, the per-layer metrics of the
  window.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


async def serve(trace: bool) -> dict:
    common.bootstrap()
    import layers
    from repro.serve.config import ServerConfig
    from repro.serve.server import SimulationServer

    tracer = layers.Tracer() if trace else None
    if tracer is not None:
        layers.instrument_wire(tracer)
        layers.instrument_batching(tracer)
    server = SimulationServer(ServerConfig(**common.SERVE_OVERRIDES))
    if tracer is not None:
        layers.instrument_server(server, tracer)
    await server.start(listen=True)

    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()

    def read_stdin() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line.strip())
        loop.call_soon_threadsafe(commands.put_nowait, "stop")

    threading.Thread(target=read_stdin, daemon=True).start()
    print(f"READY {server.port}", flush=True)
    report: dict = {}
    cpu_mark = time.process_time()
    try:
        while True:
            command = await commands.get()
            if command == "mark":
                cpu_mark = time.process_time()
                if tracer is not None:
                    tracer.reset()
                print(f"MARKED {cpu_mark!r}", flush=True)
            elif command == "end":
                cpu = time.process_time() - cpu_mark
                if tracer is not None:
                    report["layers"] = layers.serve_layer_metrics(
                        tracer, cpu, wire=True)
                print(f"ENDED {cpu!r}", flush=True)
            elif command == "stop":
                break
    finally:
        await server.stop()
    report["rss_mb"] = common.peak_rss_mb()
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    report = asyncio.run(serve(args.trace))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
