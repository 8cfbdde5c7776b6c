"""Per-layer metrics of a traced pass, from the spans every server
process wrote (``tracer.py``) and the program's own counters
(``StatsRequest``).

Layers are named after this repository's modules.  Each process's CPU
time splits exactly into the layers' exclusive times plus a remainder:
in the process that runs the TCP front-end the remainder is the
``network`` layer (event loop, sockets, framing, queues); in a fleet
worker it is the ``sharding`` layer (pipe traffic and pickling).
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, List

from run import percentile

LAYERS = ("network", "protocol", "server", "subscription_index", "impact_index",
          "beq_tree", "field", "construct", "regions", "sharding", "journal")

def load_dumps(state: str, prefix: str) -> List[dict]:
    """Every ``<prefix>-<pid>.json`` under ``state``, sorted by path."""
    dumps = []
    for path in sorted(glob.glob(os.path.join(state, f"{prefix}-*.json"))):
        with open(path) as handle:
            dumps.append(json.load(handle))
    return dumps


class _Spans:
    """Method aggregates summed over a set of process dumps."""

    def __init__(self, dumps: List[dict]) -> None:
        self.calls: Dict[str, int] = {}
        self.excl: Dict[str, float] = {}
        self.wall: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        for dump in dumps:
            for key, m in dump["methods"].items():
                self.calls[key] = self.calls.get(key, 0) + m["calls"]
                self.excl[key] = self.excl.get(key, 0.0) + m["excl_s"]
                self.wall[key] = self.wall.get(key, 0.0) + m["wall_s"]
                self.samples.setdefault(key, []).extend(m["samples"])
            for key, value in dump["counts"].items():
                self.counts[key] = self.counts.get(key, 0.0) + value

    def n(self, *keys: str) -> int:
        return sum(self.calls.get(k, 0) for k in keys)

    def cpu(self, *keys: str) -> float:
        return sum(self.excl.get(k, 0.0) for k in keys)

    def layer_cpu(self, layer: str) -> float:
        return sum(v for k, v in self.excl.items() if k.split(".", 1)[0] == layer)

    def per_call(self, *keys: str) -> float:
        calls = self.n(*keys)
        return self.cpu(*keys) / calls if calls else 0.0

    def pct(self, q: float, *keys: str) -> float:
        merged = [s for k in keys for s in self.samples.get(k, [])]
        return percentile(merged, q)

    def count(self, name: str) -> float:
        return self.counts.get(name, 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(state: str, result: dict) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``state`` holds the span dumps of the main server and of each
    replacement started after the kill; ``result`` is the pass's
    end-to-end record, whose counters come from the server's own
    registry.
    """
    dumps = load_dumps(state, "trace")
    spans = _Spans(dumps)
    kernel_cpu = {d["pid"]: d["cpu_s"] for d in load_dumps(state, "proccpu")}
    counters = result["counters_end"]
    opened = result["counters_open"]
    server_cpu = sum(d["cpu_s"] for d in dumps)
    layer_cpu = {layer: spans.layer_cpu(layer) for layer in LAYERS}
    # the unwrapped remainder of each process: the TCP front-end's in the
    # process that serves sockets, pipe traffic in fleet workers.  The
    # tracer's own counting hooks are timed and left out of it.
    hook_cpu = sum(d["hook_cpu_s"] for d in dumps)
    for dump in dumps:
        wrapped = sum(m["excl_s"] for m in dump["methods"].values())
        remainder = dump["cpu_s"] - wrapped - dump["hook_cpu_s"]
        layer_cpu["sharding" if dump["role"] == "worker" else "network"] += remainder
    attributed = sum(layer_cpu.values()) + hook_cpu
    # the same window by the kernel's clock: its total minus what the
    # process had spent before the tracer's window opened
    kernel_window = sum(kernel_cpu.get(d["pid"], 0.0) - d["cpu_before_s"] for d in dumps)
    events = spans.count("match_events")
    rounds = counters.get("location_update_rounds", 0) + counters.get(
        "event_arrival_rounds", 0)
    server_dumps = [d for d in dumps if d["role"] == "server"]
    # the main server outlived every replacement
    main = max(server_dumps, key=lambda d: d["wall_s"])
    workers = [d["cpu_s"] for d in dumps if d["role"] == "worker"]
    facts = main["facts"]
    publish = ("server.publish", "server.publish_batch")
    encode = ("protocol.encode_message", "protocol.region_push_for",
              "protocol.region_delta_for", "protocol.notification_for",
              "protocol.stats_snapshot_for")
    sharding_entry = [k for k in spans.calls
                      if k.startswith("sharding.") and k != "sharding.run"]
    inserted = spans.count("beq_inserted")
    repairs = counters.get("repairs", 0)
    fallbacks = counters.get("repair_fallbacks", 0)
    wire = result["wire"]
    ms, us = 1e3, 1e6
    metrics = {
        "network.dispatch_busy_frac": result["dispatch_busy_frac"],
        "network.self_cpu_frac": _ratio(layer_cpu["network"], server_cpu),
        "network.ingress_high_water": counters.get("ingress_queue_high_water", 0),
        "network.send_queue_high_water": counters.get("send_queue_high_water", 0),
        "network.frames_shed": counters.get("frames_shed", 0),
        "network.slow_consumer_disconnects": counters.get("slow_consumer_disconnects", 0),
        "protocol.encode_us": _ratio(spans.cpu(*encode), spans.n("protocol.encode_message")) * us,
        "protocol.decode_us": spans.per_call("protocol.decode_message") * us,
        "protocol.region_frame_bytes": _ratio(wire["region_bytes"], wire["region_frames"]),
        "protocol.delta_frame_bytes": _ratio(wire["delta_bytes"], wire["delta_frames"]),
        "server.self_cpu_frac": _ratio(layer_cpu["server"], server_cpu),
        "server.publish_ms_p50": spans.pct(50, *publish) * ms,
        "server.publish_ms_p99": spans.pct(99, *publish) * ms,
        "server.report_ms_p50": spans.pct(50, "server.report_location") * ms,
        "server.report_ms_p99": spans.pct(99, "server.report_location") * ms,
        "server.subscribe_ms_p50": spans.pct(50, "server.subscribe") * ms,
        "server.subscribe_ms_p99": spans.pct(99, "server.subscribe") * ms,
        "server.resync_ms_p50": spans.pct(50, "server.resync") * ms,
        "server.expire_ms_p50": spans.pct(50, "server.expire_due_events") * ms,
        "server.rounds_per_event": _ratio(counters.get("event_arrival_rounds", 0), events),
        "server.location_updates_per_s": _ratio(
            opened.get("location_update_rounds", 0), result["open_seconds"]),
        "subscription_index.match_us_per_event": _ratio(
            spans.cpu("subscription_index.match_event", "subscription_index.match_batch"),
            events) * us,
        "subscription_index.cpu_frac": _ratio(layer_cpu["subscription_index"], server_cpu),
        "subscription_index.matched_per_event": _ratio(spans.count("matched_pairs"), events),
        "subscription_index.pruned_frac": _ratio(
            counters.get("partitions_pruned", 0), spans.count("partition_tests")),
        "subscription_index.insert_us": spans.per_call("subscription_index.insert") * us,
        "subscription_index.delete_us": spans.per_call("subscription_index.delete") * us,
        "impact_index.lookup_us_per_event": _ratio(
            spans.cpu("impact_index.covers", "impact_index.match_batch"), events) * us,
        "impact_index.cpu_frac": _ratio(layer_cpu["impact_index"], server_cpu),
        "impact_index.covered_frac": _ratio(
            spans.count("covered_pairs"), spans.count("covered_tests")),
        "beq_tree.insert_us_per_event": _ratio(
            spans.cpu("beq_tree.insert", "beq_tree.insert_batch"), inserted) * us,
        "beq_tree.match_ms": spans.per_call("beq_tree.match") * ms,
        "beq_tree.delete_us": spans.per_call("beq_tree.delete") * us,
        "beq_tree.cpu_frac": _ratio(layer_cpu["beq_tree"], server_cpu),
        "beq_tree.events_scanned_per_construct": _ratio(
            counters.get("events_scanned", 0), counters.get("constructions", 0)),
        "field.note_event_us": spans.per_call("field.note_event") * us,
        "field.note_events_per_event": _ratio(spans.n("field.note_event"), events),
        "field.cpu_frac": _ratio(layer_cpu["field"], server_cpu),
        "construct.ms_p50": spans.pct(50, "construct.construct") * ms,
        "construct.ms_p99": spans.pct(99, "construct.construct") * ms,
        "construct.calls_per_s": _ratio(spans.count("regions"), main["wall_s"]),
        "construct.cpu_frac": _ratio(layer_cpu["construct"], server_cpu),
        "construct.cells_per_region": _ratio(spans.count("region_cells"), spans.count("regions")),
        "construct.per_round": _ratio(counters.get("constructions", 0), rounds),
        "regions.subtract_us": spans.per_call("regions.subtract") * us,
        "regions.repair_frac": _ratio(repairs, repairs + fallbacks),
        "sharding.self_cpu_frac": _ratio(layer_cpu["sharding"], server_cpu),
        "sharding.coordinator_self_ms_per_call": spans.per_call(*sharding_entry) * ms,
        "sharding.executor_run_ms_per_call": _ratio(
            spans.wall.get("sharding.run", 0.0), spans.n("sharding.run")) * ms,
        "sharding.shard_busy_skew": _ratio(max(workers, default=0.0),
                                           _ratio(sum(workers), len(workers))),
        "sharding.multihomed_frac": _ratio(facts.get("multihomed", 0),
                                           facts.get("subscribers", 0)),
        "journal.append_us": spans.per_call("journal.append") * us,
        "journal.bytes_per_op": _ratio(spans.count("journal_bytes"),
                                       spans.count("journal_appends")),
        "journal.snapshot_ms": spans.per_call("journal.write_snapshot") * ms,
        "journal.replay_s": sum(
            d["methods"].get("journal.recover", {}).get("wall_s", 0.0)
            for d in server_dumps),
        "journal.replay_constructions": spans.count("replay_constructions"),
        "trace.server_cpu_s": server_cpu,
        "trace.hook_cpu_s": hook_cpu,
        "trace.cpu_reconcile_frac": _ratio(attributed, kernel_window),
    }
    metrics["_layer_cpu_s"] = layer_cpu
    return metrics
