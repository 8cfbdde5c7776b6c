"""Outside-in layer tracer: wrappers around each layer's public calls.

The server launcher installs these wrappers on the classes it is about
to instantiate (and, for a process fleet, before the workers fork, so
every worker inherits them).  Each wrapped call is a span; a span stack
per process gives every layer its *exclusive* CPU time (inclusive time
minus the time of wrapped calls it made).  Spans stay in memory as
per-method aggregates plus per-call samples and are written to one JSON
file per process when the process receives ``SIGUSR1``.

Times are CPU seconds of the server process (``time.process_time``), so
the layers' exclusive times, the tracer's own counting hooks and the
unwrapped remainder add up to the process's CPU time over the traced
window by construction.  Nothing
under ``src/`` changes: the program carries no spans of its own.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_clock = time.process_time


class _Method:
    """Aggregate of one wrapped method in one process."""

    __slots__ = ("calls", "excl", "wall", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.excl = 0.0
        self.wall = 0.0
        #: inclusive CPU seconds per call, for percentiles
        self.samples = array("d")


class LayerTracer:
    """The span stack and aggregates of one process."""

    def __init__(self, out_dir: str, role: str) -> None:
        self.out_dir = out_dir
        self.role = role
        self.grid = None
        #: extra facts the launcher reports at dump time (callable -> dict)
        self.describe: Optional[Callable[[], Dict[str, float]]] = None
        self.reset()

    def reset(self) -> None:
        """Start a fresh window (also called in every forked child)."""
        self.methods: Dict[str, _Method] = defaultdict(_Method)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._open_layers: List[str] = []
        #: CPU seconds spent in counting hooks, charged to no layer
        self.hook_cpu = 0.0
        #: the impact index's last batch answer, consumed by the
        #: subscription-index hook of the same publish_batch
        self.counts_covering = None
        self._cpu0 = _clock()
        self._wall0 = time.perf_counter()

    def in_layer(self, layer: str) -> bool:
        """Is a span of ``layer`` open on this process's stack?"""
        return layer in self._open_layers

    # ------------------------------------------------------------------
    def wrap(self, layer: str, name: str, fn: Callable, hook=None) -> Callable:
        """``fn`` timed as ``layer.name``; ``hook(tracer, args, result)``
        runs after the span closes and is timed apart, so its cost lands
        in ``hook_cpu``, not in the enclosing span or the remainder."""
        key = f"{layer}.{name}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            tracer._open_layers.append(layer)
            wall0 = time.perf_counter()
            cpu0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                inclusive = _clock() - cpu0
                wall = time.perf_counter() - wall0
                stack.pop()
                tracer._open_layers.pop()
                if stack:
                    stack[-1][0] += inclusive
                method = tracer.methods[key]
                method.calls += 1
                exclusive = inclusive - frame[0]
                method.excl += exclusive
                method.wall += wall
                method.samples.append(inclusive)
            if hook is not None:
                cpu0 = _clock()
                hook(tracer, args, result)
                spent = _clock() - cpu0
                tracer.hook_cpu += spent
                if stack:
                    stack[-1][0] += spent
            return result

        traced.__perfbench_wrapped__ = fn
        return traced

    def patch(self, owner, layer: str, name: str, hook=None) -> None:
        """Replace ``owner.name`` (a class or module attribute) by its
        traced version; idempotent per owner."""
        current = getattr(owner, name)
        if hasattr(current, "__perfbench_wrapped__"):
            return
        setattr(owner, name, self.wrap(layer, name, current, hook))

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """This process's window as a JSON-ready dict."""
        return {
            "pid": os.getpid(),
            "role": self.role,
            "cpu_before_s": self._cpu0,
            "cpu_s": _clock() - self._cpu0,
            "wall_s": time.perf_counter() - self._wall0,
            "hook_cpu_s": self.hook_cpu,
            "methods": {
                key: {
                    "calls": m.calls,
                    "excl_s": m.excl,
                    "wall_s": m.wall,
                    "samples": list(m.samples),
                }
                for key, m in self.methods.items()
            },
            "counts": dict(self.counts),
            "facts": self.describe() if self.describe is not None else {},
        }

    def dump(self, *_signal_args) -> None:
        """Write the snapshot atomically as ``trace-<pid>.json``."""
        path = os.path.join(self.out_dir, f"trace-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# Hooks: counts measured where the work happens
# ----------------------------------------------------------------------
def _count_match_event(tracer, args, result) -> None:
    tracer.counts["match_events"] += 1
    tracer.counts["partition_tests"] += len(getattr(args[0], "_partitions", ()))
    tracer.counts["matched_pairs"] += len(result)


def _count_match_batch(tracer, args, result) -> None:
    events = args[1]
    tracer.counts["match_events"] += len(events)
    tracer.counts["partition_tests"] += len(events) * len(
        getattr(args[0], "_partitions", ())
    )
    tracer.counts["matched_pairs"] += sum(len(r) for r in result)
    covering = tracer.counts_covering
    if covering is None or tracer.grid is None:
        return
    for event, matched in zip(events, result):
        holders = covering.get(tracer.grid.cell_of(event.location), ())
        tracer.counts["covered_pairs"] += sum(
            1 for s in matched if s.sub_id in holders
        )
        tracer.counts["covered_tests"] += len(matched)
    tracer.counts_covering = None


def _count_covers(tracer, args, result) -> None:
    tracer.counts["covered_tests"] += 1
    tracer.counts["covered_pairs"] += bool(result)


def _keep_covering(tracer, args, result) -> None:
    tracer.counts_covering = result


def _count_construct(tracer, args, result) -> None:
    tracer.counts["regions"] += 1
    tracer.counts["region_cells"] += result.safe.area_cells()
    if tracer.in_layer("journal"):
        tracer.counts["replay_constructions"] += 1


def _count_insert(tracer, args, result) -> None:
    tracer.counts["beq_inserted"] += 1


def _count_insert_batch(tracer, args, result) -> None:
    tracer.counts["beq_inserted"] += len(args[1])


def _count_append(tracer, args, result) -> None:
    tracer.counts["journal_appends"] += 1
    tracer.counts["journal_bytes"] += result


def install(out_dir: str, role: str) -> LayerTracer:
    """Wrap every traced layer's public calls at class level.

    Class-level patches reach instances built later, including the
    worker servers a :class:`ProcessExecutor` builds inside its forked
    children; ``os.register_at_fork`` gives each child a fresh window
    and ``SIGUSR1`` makes any process write its spans.
    """
    from repro import core
    from repro.core.field import LazyBEQField
    from repro.core.regions import GridRegion
    from repro.index.beq_tree import BEQTree
    from repro.index.impact_index import ImpactRegionIndex
    from repro.index.subscription_index import SubscriptionIndex
    from repro.system import network
    from repro.system.journal import Journal
    from repro.system.server import ElapsServer
    from repro.system.sharding import ProcessExecutor, ShardedElapsServer

    tracer = LayerTracer(out_dir, role)
    for name in ("bootstrap", "subscribe", "unsubscribe", "publish",
                 "publish_batch", "report_location", "resync",
                 "expire_due_events"):
        tracer.patch(ElapsServer, "server", name)
    tracer.patch(ElapsServer, "journal", "recover")
    tracer.patch(SubscriptionIndex, "subscription_index", "match_event",
                 _count_match_event)
    tracer.patch(SubscriptionIndex, "subscription_index", "match_batch",
                 _count_match_batch)
    tracer.patch(SubscriptionIndex, "subscription_index", "insert")
    tracer.patch(SubscriptionIndex, "subscription_index", "delete")
    tracer.patch(ImpactRegionIndex, "impact_index", "covers", _count_covers)
    tracer.patch(ImpactRegionIndex, "impact_index", "match_batch",
                 _keep_covering)
    tracer.patch(BEQTree, "beq_tree", "insert", _count_insert)
    tracer.patch(BEQTree, "beq_tree", "insert_batch", _count_insert_batch)
    tracer.patch(BEQTree, "beq_tree", "match")
    tracer.patch(BEQTree, "beq_tree", "delete")
    # every strategy class with its own construct (scalar and vectorized)
    for cls in vars(core).values():
        if isinstance(cls, type) and "construct" in vars(cls):
            tracer.patch(cls, "construct", "construct", _count_construct)
    tracer.patch(LazyBEQField, "field", "note_event")
    tracer.patch(GridRegion, "regions", "subtract")
    for name in ("bootstrap", "subscribe", "unsubscribe", "publish",
                 "publish_batch", "report_location", "resync",
                 "expire_due_events"):
        tracer.patch(ShardedElapsServer, "sharding", name)
    tracer.patch(ShardedElapsServer, "journal", "recover")
    tracer.patch(ProcessExecutor, "sharding", "run")
    tracer.patch(Journal, "journal", "append", _count_append)
    tracer.patch(Journal, "journal", "write_snapshot")
    # the protocol codec as the TCP layer calls it
    for name in ("encode_message", "decode_message", "region_push_for",
                 "region_delta_for", "notification_for", "stats_snapshot_for"):
        tracer.patch(network, "protocol", name)

    def child_window() -> None:
        tracer.role = "worker"
        tracer.describe = None
        tracer.reset()

    os.register_at_fork(after_in_child=child_window)
    signal.signal(signal.SIGUSR1, tracer.dump)
    return tracer
