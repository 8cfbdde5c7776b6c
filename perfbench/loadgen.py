"""The load generator: one asyncio thread, two TCP connections.

The publisher connection carries events, unsubscribes and the
``StatsRequest`` drain markers; the subscriber connection multiplexes
every subscriber (the protocol lets one connection carry many
``sub_id``\\ s).  Events, walker steps, re-anchors and churn fire on a
fixed wall clock (open loop), and every latency is timed from when its
message was *due*, so a stall in the server also delays — and is charged
to — everything scheduled behind it.
"""

from __future__ import annotations

import asyncio
import gc
import inspect
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.geometry import Grid, Point
from repro.system.network import read_frame
from repro.system.protocol import (
    EventPublishBatchMessage,
    HeartbeatMessage,
    LocationReport,
    NotificationMessage,
    ResyncMessage,
    SafeRegionDelta,
    SafeRegionPush,
    StatsRequest,
    StatsSnapshot,
    SubscribeMessage,
    UnsubscribeMessage,
    cells_from_delta,
    decode_message,
    encode_message,
    publish_message_for,
    region_from_push,
)

from workloads import FIRST_PUBLISHED_ID, SPACE, Inputs, Workload

#: TCP-layer event-id namespace: the low 32 bits carry the client's id
ID_MASK = 0xFFFFFFFF
HEARTBEAT_SECONDS = 5.0
#: wait for replies still owed at the end of a phase before calling them lost
SETTLE_SECONDS = 30.0
#: a publish sent this long before a device's next request reached the
#: server before that request did (the two travel on different
#: connections into one FIFO dispatcher; replies here take milliseconds)
ORDER_MARGIN_SECONDS = 2.0


@dataclass
class Sub:
    """Generator-side state of one subscriber device."""

    subscription: object
    path: List[Point]
    start_tick: int = 0
    position: Point = None
    velocity: Point = Point(0.0, 0.0)
    region: object = None
    #: ("region" | "subscribe" | "resync", due time) of the request in flight
    pending: Optional[Tuple[str, float]] = None
    #: wall time the last request this device sent went out
    last_request: float = -1.0
    received: Set[int] = field(default_factory=set)
    #: (position, sent, answered) of every subscribe and report that
    #: told the server where this device is, before the final resync
    history: List[list] = field(default_factory=list)
    leaving: bool = False
    gone: bool = False

    def must_report(self) -> bool:
        region = self.region
        return region is None or region.is_empty() or not region.contains_point(
            self.position
        )


@dataclass
class Ledger:
    """Everything a run attempted, observed and found wrong."""

    notify_ms: List[float] = field(default_factory=list)
    region_ms: List[float] = field(default_factory=list)
    subscribe_ms: List[float] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)
    loop_lag_ms: List[float] = field(default_factory=list)
    reports: int = 0
    subscribes: int = 0
    resyncs: int = 0
    unanswered: int = 0
    duplicates: int = 0
    mismatched: int = 0
    unknown_events: int = 0
    wire_frames: int = 0
    wire_bytes: int = 0
    region_frames: int = 0
    region_bytes: int = 0
    delta_frames: int = 0
    delta_bytes: int = 0
    restart_redeliveries: int = 0
    #: notifications after the restart for events not received before it
    restart_new: int = 0


class Link:
    """One TCP connection: framed writes, a reader task, drain markers."""

    def __init__(self, name: str, reader, writer, on_message) -> None:
        self.name = name
        self.reader = reader
        self.writer = writer
        self.on_message = on_message
        self.closed = asyncio.get_running_loop().create_future()
        self.task = asyncio.ensure_future(self._pump())
        self.stats_waiters: List[asyncio.Future] = []

    @classmethod
    async def open(cls, name: str, port: int, on_message) -> "Link":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(name, reader, writer, on_message)

    def send_frame(self, frame: bytes) -> None:
        self.writer.write(frame)

    async def _pump(self) -> None:
        try:
            while True:
                frame = await read_frame(self.reader)
                if frame is None:
                    break
                now = time.perf_counter()
                message = decode_message(frame)
                if isinstance(message, StatsSnapshot):
                    if self.stats_waiters:
                        self.stats_waiters.pop(0).set_result((now, message))
                    continue
                self.on_message(message, len(frame), now)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if not self.closed.done():
                self.closed.set_result(None)
            for waiter in self.stats_waiters:
                if not waiter.done():
                    waiter.set_exception(ConnectionError(f"{self.name} closed"))

    async def stats(self, timeout: float = 60.0) -> Tuple[float, dict, dict]:
        """A drain marker: the reply means every earlier frame on this
        connection was applied (ingress is FIFO into one dispatcher) and
        every frame queued for it earlier was delivered."""
        if self.closed.done():
            raise ConnectionError(f"{self.name} closed")
        waiter = asyncio.get_running_loop().create_future()
        self.stats_waiters.append(waiter)
        self.send_frame(encode_message(StatsRequest()))
        at, snapshot = await asyncio.wait_for(waiter, timeout)
        spans = {stage: seconds for stage, _, seconds in snapshot.spans}
        return at, snapshot.counters_dict(), spans

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        await asyncio.wait_for(self.task, 10.0)


class Generator:
    """Drives one server through one workload's phases."""

    def __init__(self, workload: Workload, inputs: Inputs, corpus) -> None:
        self.workload = workload
        self.inputs = inputs
        self.grid = Grid(workload.grid_n, SPACE)
        self.subs: Dict[int, Sub] = {
            s.sub_id: Sub(s, inputs.paths[s.sub_id], position=inputs.paths[s.sub_id][0])
            for s in inputs.subscriptions
        }
        #: client id -> attributes, for every event the server can deliver
        self.attributes: Dict[int, dict] = {e.event_id: dict(e.attributes) for e in corpus}
        self.corpus = corpus
        for client_id, attributes, _ in inputs.events + inputs.saturation:
            self.attributes[client_id] = attributes
        #: client id -> (due, sent) of open-loop events
        self.event_times: Dict[int, Tuple[float, float]] = {}
        #: client id -> wall time its publish frame was written
        self.sent_at: Dict[int, float] = {}
        #: published events in send order (the unsubscribe cut points)
        self.published: List[int] = []
        #: sub id -> number of published events that preceded its unsubscribe
        self.unsub_cut: Dict[int, int] = {}
        #: every sub id a Subscribe was sent for
        self.subscribed: Set[int] = set()
        #: the devices present now, initial population first
        self.live: List[int] = [
            s.sub_id for s in inputs.subscriptions[: workload.subscribers]
        ]
        self.ledger = Ledger()
        self.counting = False
        self.sampling = False
        #: after the SIGKILL: a fresh server (in-memory or recovered)
        self.restarted = False
        self.cold_restart = False
        self.drop_one = False
        self.dropped: Optional[Tuple[int, int]] = None
        #: the final resync is running: what arrives now was owed earlier
        self.resyncing = False
        self.redelivered: Set[Tuple[int, int]] = set()
        #: sub id -> received ids just before the final resync
        self.received_before_resync: Optional[Dict[int, Set[int]]] = None
        self.sub_link: Optional[Link] = None
        self.pub_link: Optional[Link] = None
        self._idle: Optional[asyncio.Event] = None
        self._in_flight = 0

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def connect(self, port: int) -> None:
        self._idle = asyncio.Event()
        self._idle.set()
        self.pub_link = await Link.open("publisher", port, self._on_publisher)
        self.sub_link = await Link.open("subscriber", port, self._on_subscriber)
        self._heartbeat = asyncio.ensure_future(self._heartbeats())

    async def disconnect(self) -> None:
        self._heartbeat.cancel()
        try:
            await self._heartbeat
        except asyncio.CancelledError:
            pass
        for link in (self.pub_link, self.sub_link):
            if link is not None:
                await link.close()

    async def _heartbeats(self) -> None:
        frame = encode_message(HeartbeatMessage(0, 0))
        while True:
            await asyncio.sleep(HEARTBEAT_SECONDS)
            for link in (self.pub_link, self.sub_link):
                if not link.closed.done():
                    link.send_frame(frame)

    def _send_sub(self, message, link: Optional[Link] = None) -> None:
        frame = encode_message(message)
        (link or self.sub_link).send_frame(frame)
        if self.counting:
            self.ledger.wire_frames += 1
            self.ledger.wire_bytes += len(frame)

    def _on_publisher(self, message, size: int, now: float) -> None:
        pass  # heartbeat echoes only

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _request(self, sub: Sub, kind: str, due: float) -> None:
        sub.pending = (kind, due)
        sub.last_request = time.perf_counter()
        if kind in ("subscribe", "region") and not self.restarted:
            sub.history.append([sub.position, sub.last_request, math.inf])
        self._in_flight += 1
        self._idle.clear()

    def subscribe(self, sub: Sub, due: float, kind: str = "subscribe") -> None:
        s = sub.subscription
        self._request(sub, kind, due)
        self.subscribed.add(s.sub_id)
        self.ledger.subscribes += 1
        self._send_sub(SubscribeMessage(s.sub_id, s.radius, s.expression,
                                        sub.position, sub.velocity))

    def report(self, sub: Sub, due: float) -> None:
        self._request(sub, "region", due)
        self.ledger.reports += 1
        self._send_sub(LocationReport(sub.subscription.sub_id, sub.position,
                                      sub.velocity))

    def resync(self, sub: Sub, due: float) -> None:
        self._request(sub, "resync", due)
        self.ledger.resyncs += 1
        self._send_sub(ResyncMessage(sub.subscription.sub_id, sub.position,
                                     sub.velocity, tuple(sorted(sub.received))))

    def unsubscribe(self, sub: Sub) -> None:
        # on the publisher connection: totally ordered with the publishes,
        # so the oracle knows exactly which events this subscription saw
        sub.gone = True
        self.unsub_cut[sub.subscription.sub_id] = len(self.published)
        self._send_sub(UnsubscribeMessage(sub.subscription.sub_id), self.pub_link)

    def _answered(self, sub: Sub, now: float) -> Tuple[str, float]:
        kind, due = sub.pending
        sub.pending = None
        if kind != "resync" and not self.restarted:
            sub.history[-1][2] = now
        self._in_flight -= 1
        if self._in_flight == 0:
            self._idle.set()
        if sub.leaving and not sub.gone:
            self.unsubscribe(sub)
        return kind, due

    async def wait_idle(self, timeout: float = SETTLE_SECONDS) -> None:
        """Until every request in flight is answered (or call them lost)."""
        idle = asyncio.ensure_future(self._idle.wait())
        await asyncio.wait([idle, self.sub_link.closed], timeout=timeout,
                           return_when=asyncio.FIRST_COMPLETED)
        idle.cancel()
        if not self._idle.is_set():
            for sub in self.subs.values():
                if sub.pending is not None:
                    self.ledger.unanswered += 1
                    sub.pending = None
            self._in_flight = 0
            self._idle.set()

    # ------------------------------------------------------------------
    # Subscriber-connection frames
    # ------------------------------------------------------------------
    def _on_subscriber(self, message, size: int, now: float) -> None:
        if isinstance(message, HeartbeatMessage):
            return
        ledger = self.ledger
        if self.counting:
            ledger.wire_frames += 1
            ledger.wire_bytes += size
        sub = self.subs.get(message.sub_id)
        if sub is None:
            ledger.unknown_events += 1
            return
        if isinstance(message, NotificationMessage):
            self._on_notification(sub, message, now)
        elif isinstance(message, SafeRegionPush):
            ledger.region_frames += 1
            ledger.region_bytes += size
            sub.region = region_from_push(message, self.grid)
            if sub.pending is not None:
                kind, due = self._answered(sub, now)
                if self.sampling:
                    samples = ledger.subscribe_ms if kind == "subscribe" else ledger.region_ms
                    if kind != "resync":
                        samples.append((now - due) * 1e3)
        elif isinstance(message, SafeRegionDelta):
            ledger.delta_frames += 1
            ledger.delta_bytes += size
            if sub.region is not None:
                sub.region, _ = sub.region.subtract(cells_from_delta(message, self.grid))

    def _on_notification(self, sub: Sub, message: NotificationMessage, now: float) -> None:
        ledger = self.ledger
        event_id = message.event_id
        if self.drop_one and event_id & ID_MASK >= FIRST_PUBLISHED_ID:
            # seeded fault for the benchmark's own tests: lose the first
            # delivery of a streamed event (one that expires, so a later
            # resync cannot bring it back)
            self.drop_one = False
            self.dropped = (sub.subscription.sub_id, event_id & ID_MASK)
            return
        if event_id in sub.received:
            if self.cold_restart:
                # an in-memory server forgot what it delivered before it died
                ledger.restart_redeliveries += 1
            else:
                ledger.duplicates += 1
            return
        sub.received.add(event_id)
        if self.resyncing:
            self.redelivered.add((sub.subscription.sub_id, event_id & ID_MASK))
        if self.restarted:
            ledger.restart_new += 1
        client_id = event_id & ID_MASK
        attributes = self.attributes.get(client_id)
        if attributes is None:
            ledger.unknown_events += 1
            return
        if (dict(message.attributes) != attributes
                or not sub.subscription.expression.matches(attributes)):
            ledger.mismatched += 1
        if self.sampling:
            # the latency of an event reaching the devices it matches:
            # timed only for an open-loop event published after the
            # device's last request went out.  What a subscribe or report
            # brings back (the matching events already stored, hundreds
            # at once for a broad new subscription) belongs to that
            # round; counted here it would swamp the events' own latency
            # and tie the median to which device happens to churn
            due, sent = self.event_times.get(client_id, (None, None))
            if sent is not None and sub.last_request <= sent:
                ledger.notify_ms.append((now - due) * 1e3)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    async def subscribe_all(self, subs: List[Sub]) -> None:
        now = time.perf_counter()
        for sub in subs:
            self.subscribe(sub, now)
        await self.wait_idle()

    async def open_loop(self, seconds: float) -> float:
        """Every scheduled action at its due time; returns phase seconds."""
        w = self.workload
        inp = self.inputs
        actions: List[Tuple[float, int, str, object]] = []
        frames = _event_frames(inp.events, w.batch, w.event_ttl or 0)
        for at, (frame, ids) in zip(inp.frame_times, frames):
            actions.append((at, 0, "event", (frame, ids)))
        if w.moving:
            # each walker steps at its own seeded phase of the step period
            for k in range(1, int(seconds * w.step_hz) + 1):
                for sub in inp.subscriptions:
                    at = (k - 1 + inp.step_phases[sub.sub_id]) / w.step_hz
                    actions.append((at, 1, "step", (sub.sub_id, k)))
        for at, pair in zip(inp.churn_times, inp.churn):
            actions.append((at, 2, "churn", pair))
        for at, sub_id in zip(inp.reanchor_times, inp.reanchors):
            actions.append((at, 3, "reanchor", sub_id))
        actions.sort(key=lambda a: (a[0], a[1]))
        live = self.live
        ledger = self.ledger
        # the generator's own state is built: keep the collector from
        # stopping this loop mid-phase to walk it
        gc.collect()
        gc.freeze()
        lag = asyncio.ensure_future(self._loop_lag())
        start = time.perf_counter()
        self.counting = self.sampling = True
        for offset, _, kind, arg in actions:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            now = time.perf_counter()
            ledger.lateness_ms.append(max(0.0, now - due) * 1e3)
            if kind == "event":
                frame, ids = arg
                self.pub_link.send_frame(frame)
                for client_id in ids:
                    self.event_times[client_id] = (due, now)
                    self.sent_at[client_id] = now
                self.published.extend(ids)
            elif kind == "step":
                sub_id, tick = arg
                sub = self.subs[sub_id]
                step = tick - sub.start_tick
                if (sub_id not in self.subscribed or sub.leaving
                        or not 0 < step < len(sub.path)):
                    continue
                previous = sub.position
                sub.position = sub.path[step]
                sub.velocity = Point(sub.position.x - previous.x,
                                     sub.position.y - previous.y)
                if sub.pending is None and sub.must_report():
                    self.report(sub, due)
            elif kind == "churn":
                departing, arriving = arg
                leaver = self.subs[departing]
                leaver.leaving = True
                live.remove(departing)
                if leaver.pending is None:
                    self.unsubscribe(leaver)
                newcomer = self.subs[arriving]
                newcomer.start_tick = int(offset * w.step_hz) if w.moving else 0
                live.append(arriving)
                self.subscribe(newcomer, due)
            else:  # reanchor: a stationary device asks for its region again
                sub = self.subs[arg]
                if sub.pending is None and not sub.leaving:
                    sub.velocity = Point(0.0, 0.0)
                    self.report(sub, due)
        remaining = start + seconds - time.perf_counter()
        if remaining > 0:
            await asyncio.sleep(remaining)
        elapsed = time.perf_counter() - start
        self.counting = False
        lag.cancel()
        try:
            await lag
        except asyncio.CancelledError:
            pass
        await self.wait_idle()
        self.sampling = False
        return elapsed

    async def _loop_lag(self, period: float = 0.01) -> None:
        """Oversleep of a 10 ms timer: time this process's own loop was
        busy instead of sending (the generator falling behind)."""
        while True:
            before = time.perf_counter()
            await asyncio.sleep(period)
            self.ledger.loop_lag_ms.append((time.perf_counter() - before - period) * 1e3)

    async def saturate(self) -> Tuple[float, dict, dict]:
        """The fixed saturation burst, as fast as TCP admits it."""
        frames = _event_frames(
            self.inputs.saturation, self.workload.batch, self.workload.event_ttl or 0
        )
        writer = self.pub_link.writer
        start = time.perf_counter()
        for frame, ids in frames:
            writer.write(frame)
            sent = time.perf_counter()
            for client_id in ids:
                self.sent_at[client_id] = sent
            self.published.extend(ids)
            await writer.drain()
        end, counters, spans = await self.pub_link.stats()
        return end - start, counters, spans

    async def settle(self) -> None:
        """Every walker outside the region it holds reports once from where
        it stopped, so the server has seen each final position.  (A
        walker whose own cell is unsafe holds an empty region and would
        report forever; one round is all the final resync needs.)"""
        due = time.perf_counter()
        for sub_id in self.live:
            sub = self.subs[sub_id]
            if sub.pending is None and sub.must_report():
                self.report(sub, due)
        await self.wait_idle()

    async def resync_all(self) -> None:
        """Every device resyncs; whatever the server sends now, it owed
        before and had not delivered."""
        self.received_before_resync = {
            sub_id: set(sub.received) for sub_id, sub in self.subs.items()
        }
        self.resyncing = True
        due = time.perf_counter()
        for sub_id in self.live:
            self.resync(self.subs[sub_id], due)
        await self.wait_idle()
        self.resyncing = False

    async def barrier(self) -> Tuple[dict, dict]:
        """Publisher then subscriber drain markers: all work applied and
        every frame owed to the subscriber connection received."""
        await self.pub_link.stats()
        _, counters, spans = await self.sub_link.stats()
        return counters, spans

    def expected_pairs(self) -> Set[Tuple[int, int]]:
        """The brute-force oracle over the recorded inputs (no expiry).

        One oracle per radius-sized square of the space: an event within
        the radius of a device lies in the device's square or one of its
        eight neighbours, so asking those nine oracles gives exactly the
        answer of one oracle over every event in about a fourteenth of the
        time.
        """
        from repro.testing.oracle import BruteForceOracle
        from repro.expressions import Event

        size = self.workload.radius
        oracles: Dict[Tuple[int, int], BruteForceOracle] = {}

        def add(event: Event) -> None:
            key = (int(event.location.x // size), int(event.location.y // size))
            oracles.setdefault(key, BruteForceOracle()).insert(event)

        for event in self.corpus:
            add(event)
        order = {cid: k for k, cid in enumerate(self.published)}
        locations = {cid: loc for cid, _, loc in self.inputs.events + self.inputs.saturation}
        for cid in self.published:
            add(Event(cid, self.attributes[cid], locations[cid]))
        # a churn arrival has its predecessor's interests and place
        answers: Dict[tuple, List[Event]] = {}
        pairs = set()
        for sub in self.subs.values():
            sub_id = sub.subscription.sub_id
            if sub_id not in self.subscribed:
                continue
            at = sub.path[0]
            key = (id(sub.subscription.expression), sub.subscription.radius, at.x, at.y)
            if key not in answers:
                bx, by = int(at.x // size), int(at.y // size)
                answers[key] = [
                    event
                    for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                    if (bx + dx, by + dy) in oracles
                    for event in oracles[bx + dx, by + dy].match(sub.subscription, at)
                ]
            cut = self.unsub_cut.get(sub_id)
            for event in answers[key]:
                if cut is not None and order.get(event.event_id, -1) >= cut:
                    continue
                pairs.add((sub_id, event.event_id))
        return pairs

    def owed_pairs(self) -> Set[Tuple[int, int]]:
        """(sub, event) pairs a moving device was owed by the positions it
        reported.

        The server knows a device where it last subscribed or reported
        from.  An event within the radius of that position, matching the
        expression, is owed: it is matched from the corpus when the
        request is applied (if it is still live then) or it arrives
        while the server holds that position.  A streamed event is owed
        at request ``k`` when both hold for sure: it was sent more than
        ``ORDER_MARGIN_SECONDS`` before request ``k + 1`` (so it reached
        the server first), and it was sent after request ``k`` was
        answered or less than ``ttl - 1`` timestamps before (so it was
        live when ``k`` was applied; an event lives at least that long
        after it was applied).  Bootstrap events never expire and are
        owed at every request.
        """
        w = self.workload
        live_seconds = ((w.event_ttl - 1) * _timestamp_seconds()
                        if w.event_ttl else math.inf)
        order = {cid: k for k, cid in enumerate(self.published)}
        locations = {cid: loc for cid, _, loc in self.inputs.events + self.inputs.saturation}
        # (client id, location, sent, publish order) bucketed by radius-sized cells
        size = w.radius
        buckets: Dict[Tuple[int, int], list] = {}
        candidates = [(e.event_id, e.location, -math.inf, -1) for e in self.corpus]
        candidates += [(cid, locations[cid], self.sent_at[cid], order[cid])
                       for cid in self.published]
        for entry in candidates:
            location = entry[1]
            key = (int(location.x // size), int(location.y // size))
            buckets.setdefault(key, []).append(entry)
        matches: Dict[Tuple[int, int], bool] = {}
        owed = set()
        for sub_id, sub in self.subs.items():
            expression = sub.subscription.expression
            radius = sub.subscription.radius * (1.0 - 1e-9)
            cut = self.unsub_cut.get(sub_id, math.inf)
            history = sub.history
            for k, (position, _, answered) in enumerate(history):
                next_sent = history[k + 1][1] if k + 1 < len(history) else math.inf
                bx, by = int(position.x // size), int(position.y // size)
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for cid, location, sent, rank in buckets.get((bx + dx, by + dy), ()):
                            if rank >= cut:
                                continue
                            if rank >= 0 and (sent + ORDER_MARGIN_SECONDS >= next_sent
                                              or sent <= answered - live_seconds):
                                continue
                            if position.distance_to(location) > radius:
                                continue
                            key = (id(expression), cid)
                            if key not in matches:
                                matches[key] = expression.matches(self.attributes[cid])
                            if matches[key]:
                                owed.add((sub_id, cid))
        return owed

    def delivered_pairs(self, before_resync: bool = False) -> Set[Tuple[int, int]]:
        """(sub, event) pairs received by now, or before the final resync."""
        received = (self.received_before_resync if before_resync else None) or {
            sub_id: sub.received for sub_id, sub in self.subs.items()
        }
        return {
            (sub_id, event_id & ID_MASK)
            for sub_id, ids in received.items()
            for event_id in ids
        }


def _timestamp_seconds() -> float:
    """Length of the TCP server's timestamp (its constructor default)."""
    from repro.system import ElapsTCPServer

    return inspect.signature(ElapsTCPServer).parameters["timestamp_seconds"].default


def _event_frames(events, batch: int, ttl: int) -> List[Tuple[bytes, List[int]]]:
    """Pre-encoded publish frames (single or batched), with their ids."""
    frames = []
    for k in range(0, len(events), batch):
        chunk = events[k: k + batch]
        messages = tuple(
            publish_message_for(cid, attributes, location, ttl)
            for cid, attributes, location in chunk
        )
        message = messages[0] if batch == 1 else EventPublishBatchMessage(messages)
        frames.append((encode_message(message), [cid for cid, _, _ in chunk]))
    return frames
