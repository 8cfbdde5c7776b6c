"""The server process of one benchmark run.

    python3 perfbench/launcher.py --workload NAME --state DIR
                                  [--trace] [--restart]

Builds the workload's server from ``ServerConfig``/``NetworkConfig``
defaults plus only what the workload names, bootstraps the city's corpus
(or, with ``--restart`` on a journaled fleet, runs ``recover()`` over the
journal the killed predecessor left in ``DIR``), serves it with
``ElapsTCPServer`` on an ephemeral port and prints ``READY <port>``.
``SIGTERM`` stops it cleanly; on a journaled fleet ``SIGUSR2`` takes a
snapshot and prints ``SNAPSHOT``.  With ``--trace`` the layer wrappers of
:mod:`tracer` are installed before anything is built, and ``SIGUSR1``
makes this process and every fleet worker write its spans into ``DIR``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]


def network_config(workload):
    """Defaults, with the per-device send-queue caps scaled to the number
    of devices the one subscriber connection carries."""
    from repro.system import NetworkConfig

    base = NetworkConfig()
    # churn keeps the population constant, so this is the most devices
    # the subscriber connection ever carries
    devices = workload.subscribers
    return base.with_(
        send_queue=base.send_queue * devices,
        send_queue_hard=base.hard_cap * devices,
    )


def build_server(workload, grid, state_dir: str):
    """The workload's server: one ElapsServer, or a journaled fleet."""
    from repro.core import IGM
    from repro.system import (
        ElapsServer,
        JournalSpec,
        ProcessExecutor,
        ServerConfig,
        ShardedElapsServer,
    )
    config = ServerConfig()
    if workload.repair:
        config = config.with_(repair=True)
    if workload.journal:
        config = config.with_(journal=JournalSpec(os.path.join(state_dir, "journal")))
    if workload.shards:
        # the client holds the intersection of its bands' regions, so
        # each band builds with its share of the cell budget
        return ShardedElapsServer(
            grid,
            lambda: IGM(max_cells=workload.max_cells // workload.shards),
            config,
            shards=workload.shards,
            executor=ProcessExecutor(),
        )
    return ElapsServer(grid, IGM(max_cells=workload.max_cells), config)


def _fleet_facts(server):
    """Coordinator-side facts written with the spans."""

    def facts():
        subscribers = getattr(server, "subscribers", {})
        multihomed = sum(
            1 for record in subscribers.values()
            if len(getattr(record, "homes", ())) > 1
        )
        return {"subscribers": len(subscribers), "multihomed": multihomed}

    return facts


async def serve(server, workload) -> None:
    from repro.system import ElapsTCPServer

    tcp = ElapsTCPServer(server, config=network_config(workload))
    await tcp.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    if workload.journal:
        # the operator's checkpoint: a loop callback, so it lands between
        # two dispatched operations, never inside one
        def checkpoint() -> None:
            server.snapshot()
            print("SNAPSHOT", flush=True)

        loop.add_signal_handler(signal.SIGUSR2, checkpoint)
    print(f"READY {tcp.port}", flush=True)
    await stop.wait()
    await tcp.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--state", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--restart", action="store_true")
    args = parser.parse_args(argv)

    from repro.geometry import Grid
    from workloads import SPACE, WORKLOADS, corpus

    workload = WORKLOADS[args.workload]
    os.makedirs(args.state, exist_ok=True)
    journal_dir = os.path.join(args.state, "journal")
    if not args.restart and os.path.isdir(journal_dir):
        shutil.rmtree(journal_dir)
    grid = Grid(workload.grid_n, SPACE)
    tracer = None
    if args.trace:
        import tracer as layer_tracer

        tracer = layer_tracer.install(args.state, "server")
        tracer.grid = grid
    server = build_server(workload, grid, args.state)
    if tracer is not None:
        tracer.describe = _fleet_facts(server)
    try:
        if args.restart and workload.journal:
            server.recover()
        else:
            server.bootstrap(corpus(workload))
        asyncio.run(serve(server, workload))
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
