"""Elaps end-to-end benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload commute|flood|durable_fleet \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A real ``ElapsTCPServer`` runs in its
own process (``launcher.py``); this process is the load generator.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run is made twice, untraced
then with the layer wrappers installed, and the metrics are the per-layer
metrics, the untraced pass's ungated end-to-end figures (latency tails,
saturated throughput, recovery time) and each end-to-end figure's
tracing overhead.  Raw samples,
the host fingerprint and the workload parameters of every run are kept
under ``.perfbench/results/``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

#: full set-ups per pass; setup_s is their median
SETUPS = 3
#: a run whose generator ran later than this at p99 fell behind itself
MAX_LATENESS_P99_MS = 25.0

#: metric names and units: the end-to-end metrics every workload reports
#: with ``--trace 0``, the per-layer ones it reports with ``--trace 1``
with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    SPEC = json.load(_spec)
E2E = [m["name"] for m in SPEC["end_to_end"]]
#: end-to-end figures measured in every run that carry no regression
#: bound, printed with the per-layer metrics.  Every one of them is a
#: time, and the host's CPU speed sets their spread: on a 2-core host the
#: dispatcher's busy share of the same offered load spread 0.11-0.18 of
#: its median over ten runs, and the latency medians spread 0.08-0.52
#: (the fleet's four processes on two cores the most), beside a largest
#: allowed bound of 0.25.  The latency tails are the highest percentiles
#: with ten samples beyond them on every workload.
UNGATED = ["notify_p50_ms", "region_p50_ms", "subscribe_p50_ms",
           "tail.notify_p80_ms", "tail.region_p90_ms", "tail.subscribe_p90_ms",
           "saturated_events_per_s", "recover_s"]


def percentile(samples: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
def _children(pid: int) -> List[int]:
    found = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(p) for p in handle.read().split())
    except OSError:
        pass
    return found


def _alive(pid: int, group: int) -> bool:
    """Is ``pid`` running in process group ``group``?  (A recorded pid
    that has ended may since name another process, never in our group.)"""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return False
    return fields[0] not in ("Z", "X") and int(fields[2]) == group


class ServerProcess:
    """``launcher.py`` in its own session and process group, with its
    fleet workers (forked, so they share the group)."""

    def __init__(self, proc, state: str) -> None:
        self.proc = proc
        self.state = state
        self.port = 0
        self.tree: List[int] = []
        self.reaped = False

    @classmethod
    async def start(cls, workload: str, state: str, *,
                    trace: bool, restart: bool) -> "ServerProcess":
        argv = [sys.executable, os.path.join(HERE, "launcher.py"),
                "--workload", workload, "--state", state]
        if trace:
            argv.append("--trace")
        if restart:
            argv.append("--restart")
        os.makedirs(state, exist_ok=True)
        with open(os.path.join(state, "server.log"), "ab") as log:
            proc = await asyncio.create_subprocess_exec(
                *argv, stdout=asyncio.subprocess.PIPE, stderr=log,
                start_new_session=True,
            )
        server = cls(proc, state)
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), 150.0)
        except asyncio.TimeoutError:
            line = b""
        if not line.startswith(b"READY "):
            await server.kill()
            raise RuntimeError(f"server did not start; see {state}/server.log")
        server.port = int(line.split()[1])
        server.tree = [proc.pid] + _children(proc.pid)
        return server

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the server process and its workers."""
        total_kb = 0
        for pid in self.tree:
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    async def dump_spans(self) -> None:
        """Every server process writes its spans (``SIGUSR1``)."""
        for pid in self.tree:
            if _alive(pid, self.proc.pid):
                os.kill(pid, signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        wanted = [os.path.join(self.state, f"trace-{pid}.json") for pid in self.tree]
        while not all(os.path.exists(p) for p in wanted):
            if time.monotonic() > deadline:
                raise RuntimeError("server processes did not write their spans")
            await asyncio.sleep(0.05)
        # the kernel's own CPU account, to reconcile the spans against
        tick = os.sysconf("SC_CLK_TCK")
        for pid in self.tree:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open(os.path.join(self.state, f"proccpu-{pid}.json"), "w") as out:
                json.dump({"pid": pid, "cpu_s": (int(fields[11]) + int(fields[12])) / tick},
                          out)

    async def checkpoint(self) -> None:
        """A journaled fleet snapshots now (``SIGUSR2``)."""
        self.proc.send_signal(signal.SIGUSR2)
        line = await asyncio.wait_for(self.proc.stdout.readline(), 120.0)
        if not line.startswith(b"SNAPSHOT"):
            raise RuntimeError("server did not take its snapshot")

    def _kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    async def _reap(self) -> None:
        await asyncio.wait_for(self.proc.wait(), 60.0)
        deadline = time.monotonic() + 30.0
        while any(_alive(pid, self.proc.pid) for pid in self.tree[1:]):
            if time.monotonic() > deadline:
                self._kill_group()
            await asyncio.sleep(0.05)
        self.reaped = True

    async def stop(self) -> None:
        if self.reaped:
            return
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        await self._reap()

    async def kill(self) -> None:
        """SIGKILL the whole server: the process and its fleet workers
        (a worker outlives a killed coordinator on its own, because each
        forked worker inherits the coordinator's ends of the pipes)."""
        if self.reaped:
            return
        self._kill_group()
        await self._reap()


# ----------------------------------------------------------------------
# One pass: set-ups, open loop, saturation, checks, kill and restart
# ----------------------------------------------------------------------
async def run_pass(workload, seed: int, seconds: float, state: str, *,
                   trace: bool, fault: Optional[str]) -> Dict[str, object]:
    """One pass; every server process it started has ended when it returns
    or raises (the state directory keeps their logs)."""
    started: List[ServerProcess] = []
    try:
        return await _run_pass(workload, seed, seconds, state, trace=trace,
                               fault=fault, started=started)
    finally:
        for server in started:
            await server.kill()


async def _run_pass(workload, seed: int, seconds: float, state: str, *,
                    trace: bool, fault: Optional[str],
                    started: List[ServerProcess]) -> Dict[str, object]:
    from loadgen import Generator
    from workloads import corpus as make_corpus, inputs as make_inputs

    inputs = make_inputs(workload, seed, seconds)
    corpus = make_corpus(workload)
    initial = inputs.subscriptions[: workload.subscribers]
    setups: List[float] = []
    server = gen = None
    for attempt in range(SETUPS):
        last = attempt == SETUPS - 1
        server_state = os.path.join(state, "main" if last else f"setup-{attempt}")
        began = time.perf_counter()
        server = await ServerProcess.start(
            workload.name, server_state, trace=trace and last, restart=False
        )
        started.append(server)
        gen = Generator(workload, inputs, corpus)
        await gen.connect(server.port)
        await gen.subscribe_all([gen.subs[s.sub_id] for s in initial])
        setups.append(time.perf_counter() - began)
        if not last:
            await gen.disconnect()
            await server.stop()
    ledger = gen.ledger
    gen.drop_one = fault == "drop-notification"

    _, spans0 = await gen.barrier()
    if fault == "kill-server":
        asyncio.get_running_loop().call_later(seconds / 2, server.proc.kill)
    try:
        open_seconds = await gen.open_loop(seconds)
        counters_open, spans_open = await gen.barrier()
        saturation_seconds, _, _ = await gen.saturate()
        if workload.journal:
            # recovery then restores this image and replays the tail
            # journaled after it: the settle reports and the final resyncs
            await server.checkpoint()
        if workload.moving:
            await gen.settle()
        counters_pre, _ = await gen.barrier()
        if workload.moving:
            await gen.resync_all()
        counters_end, _ = await gen.barrier()
        server_alive = True
    except (ConnectionError, asyncio.TimeoutError, RuntimeError):
        # the server died mid-phase: everything it still owed is lost
        server_alive = False
        open_seconds = saturation_seconds = float(seconds)
        counters_open = counters_pre = counters_end = {}
        spans_open = spans0
        await gen.wait_idle(timeout=0.0)
    rss = server.peak_rss_mb()
    if trace and server_alive:
        await server.dump_spans()
    await server.kill()
    await gen.disconnect()

    # ---- correctness -------------------------------------------------
    delivered = gen.delivered_pairs()
    missing = extra = 0
    owed_frac = 1.0
    if not workload.moving:
        expected = gen.expected_pairs()
        missing = len(expected - delivered)
        extra = len(delivered - expected)
        expected_count = len(expected)
    else:
        # owed by the reported positions and not received before the final
        # resync, or sent again by that resync (the server owed it earlier)
        owed = gen.owed_pairs()
        redeliveries = (counters_end.get("redeliveries", 0)
                        - counters_pre.get("redeliveries", 0))
        missing = (len((owed - gen.delivered_pairs(before_resync=True)) | gen.redelivered)
                   + max(0, redeliveries - len(gen.redelivered)))
        expected_count = len(delivered | owed)
        owed_frac = len(owed & delivered) / len(delivered) if delivered else 0.0
    fault_counts = {
        name: counters_end.get(name, 0)
        for name in ("frames_shed", "slow_consumer_disconnects", "push_errors",
                     "write_timeouts")
    }

    # ---- kill, restart, every subscriber resynced --------------------
    main_state = os.path.join(state, "main")
    gen.restarted = True
    gen.cold_restart = not workload.journal
    began = time.perf_counter()
    replacement = await ServerProcess.start(
        workload.name, main_state, trace=trace, restart=True
    )
    started.append(replacement)
    await gen.connect(replacement.port)
    due = time.perf_counter()
    for sub_id in gen.live:
        sub = gen.subs[sub_id]
        if workload.journal:
            gen.resync(sub, due)
        else:
            gen.subscribe(sub, due, kind="resync")
    await gen.wait_idle()
    recover_s = time.perf_counter() - began
    counters, _ = await gen.barrier()
    for name in fault_counts:
        fault_counts[name] += counters.get(name, 0)
    if trace:
        await replacement.dump_spans()
    await gen.disconnect()
    await replacement.kill()

    failed = (missing + extra + ledger.unanswered + ledger.duplicates
              + ledger.mismatched + ledger.unknown_events + ledger.restart_new
              + sum(fault_counts.values()) + (0 if server_alive else 1))
    attempted = expected_count + ledger.reports + ledger.subscribes + ledger.resyncs

    subscribers = workload.subscribers
    metrics = {
        "setup_s": statistics.median(setups),
        "notify_p50_ms": percentile(ledger.notify_ms, 50),
        "region_p50_ms": percentile(ledger.region_ms, 50),
        "subscribe_p50_ms": percentile(ledger.subscribe_ms, 50),
        "wire_frames_per_sub_s": ledger.wire_frames / (subscribers * open_seconds),
        "wire_bytes_per_sub_s": ledger.wire_bytes / (subscribers * open_seconds),
        "server_rss_mb": rss,
        "tail.notify_p80_ms": percentile(ledger.notify_ms, 80),
        "tail.region_p90_ms": percentile(ledger.region_ms, 90),
        "tail.subscribe_p90_ms": percentile(ledger.subscribe_ms, 90),
        "saturated_events_per_s": workload.saturation_events / saturation_seconds,
        "recover_s": recover_s,
    }
    lateness_p99 = percentile(ledger.lateness_ms, 99)
    result = {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": {
            "missing": missing, "unexpected": extra,
            "unanswered": ledger.unanswered, "duplicates": ledger.duplicates,
            "mismatched": ledger.mismatched, "unknown": ledger.unknown_events,
            "redelivered_after_restart": ledger.restart_new,
            "server_died": 0 if server_alive else 1, **fault_counts,
        },
        "restart_redeliveries_in_memory": ledger.restart_redeliveries,
        "dropped_by_fault": gen.dropped,
        "redelivered_by_final_resync": len(gen.redelivered),
        # share of deliveries the check knew were owed (flood: all, by
        # the oracle; moving: by the reported positions)
        "owed_frac": owed_frac,
        "setups_s": setups,
        "samples": {
            "notify_ms": ledger.notify_ms,
            "region_ms": ledger.region_ms,
            "subscribe_ms": ledger.subscribe_ms,
            "lateness_ms": ledger.lateness_ms,
            "loop_lag_ms": ledger.loop_lag_ms,
        },
        "generator": {
            "lateness_p50_ms": percentile(ledger.lateness_ms, 50),
            "lateness_p99_ms": lateness_p99,
            "loop_lag_p99_ms": percentile(ledger.loop_lag_ms, 99),
            "valid": lateness_p99 <= MAX_LATENESS_P99_MS,
        },
        "open_seconds": open_seconds,
        "saturation_seconds": saturation_seconds,
        "counters_open": counters_open,
        "counters_end": counters_end,
        "dispatch_busy_frac": (
            (spans_open.get("dispatch", 0.0) - spans0.get("dispatch", 0.0))
            / open_seconds
        ),
        "wire": {
            "region_frames": ledger.region_frames, "region_bytes": ledger.region_bytes,
            "delta_frames": ledger.delta_frames, "delta_bytes": ledger.delta_bytes,
        },
    }
    if trace:
        import layers

        result["layers"] = layers.per_layer(main_state, result)
    return result


def host_fingerprint() -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": platform.release(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # seeded faults for the benchmark's own tests
    parser.add_argument("--fault", choices=("drop-notification", "kill-server"))
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no Elaps sources under {ROOT}/src", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench")
    state = os.path.join(work, f"run-{os.getpid()}")
    passes = {"untraced": asyncio.run(run_pass(
        workload, args.seed, args.seconds, os.path.join(state, "plain"),
        trace=False, fault=args.fault))}
    untraced = passes["untraced"]
    section = "end_to_end"
    values = untraced["metrics"]
    if args.trace:
        traced = passes["traced"] = asyncio.run(run_pass(
            workload, args.seed, args.seconds, os.path.join(state, "traced"),
            trace=True, fault=args.fault))
        section = "per_layer"
        values = dict(traced["layers"])
        values.update((name, untraced["metrics"][name]) for name in UNGATED)
        values.update(
            (f"overhead.{name}", traced["metrics"][name] - untraced["metrics"][name])
            for name in E2E + UNGATED
        )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC[section]}
    shutil.rmtree(state, ignore_errors=True)
    failed = sum(p["failed"] for p in passes.values())
    attempted = sum(p["attempted"] for p in passes.values())
    record = dict(passes)
    record.update(
        workload=workload.params(), seed=args.seed, seconds=args.seconds,
        trace=args.trace, host=host_fingerprint(), failed_frac=failed / attempted,
    )
    results = os.path.join(work, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(
            results, f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}.json"),
            "w") as handle:
        json.dump(record, handle)
    gen_health = untraced["generator"]
    print(
        f"# {workload.name} seed={args.seed} failed_frac={failed / attempted:.6f} "
        f"({failed}/{attempted}) lateness_p99={gen_health['lateness_p99_ms']:.2f}ms"
        + ("" if gen_health["valid"] else " INVALID: the generator fell behind"),
        file=sys.stderr,
    )
    print("# ungated: " + " ".join(
        f"{name}={untraced['metrics'][name]:.4g}" for name in UNGATED), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
