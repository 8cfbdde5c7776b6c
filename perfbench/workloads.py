"""The benchmark's three workloads and the seeded inputs they send.

Everything here is a pure function of ``(workload, seed)``: the load
generator and the server launcher both call it, so the server is
bootstrapped with exactly the corpus the generator checks against, and
two runs with one seed send byte-identical inputs.  The program under
test never sees the seed, only the generated events, subscriptions,
positions and timings.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.datasets import TwitterLikeGenerator
from repro.datasets.locations import LocationSampler
from repro.datasets.twitter_like import TwitterLikeConfig
from repro.expressions import Event, Subscription
from repro.geometry import Point, Rect
from repro.trajectories import RoadNetwork, SyntheticTrajectoryGenerator

SPACE = Rect(0.0, 0.0, 50_000.0, 50_000.0)
#: client-side ids of published events start here, above every corpus id
#: (the TCP layer namespaces published ids, corpus ids are stored as-is)
FIRST_PUBLISHED_ID = 1_000_000
#: subscriber ids handed to churn arrivals start here
FIRST_CHURN_SUB_ID = 100_000
#: the city is fixed: the road network, the hot-spot layout, the corpus
#: and the standing population (its subscriptions and, when stationary,
#: its places) come from this seed on every run.  A run's seed draws what
#: happens in the city: the event stream, where walkers go, who leaves
#: and who arrives.  Drawn per seed, the city moved flood's wire traffic
#: by 40% from seed to seed (a broad subscription landing next to a hot
#: spot), far above what a regression bound can sit on.
CITY_SEED = 2015


@dataclass(frozen=True)
class Workload:
    """One traffic mix: its server, its population and its offered rates.

    Rates are open-loop (fixed wall clock) and are never retuned as the
    code gets faster; ``BENCHMARK.json`` records the same values.
    """

    name: str
    #: grid resolution and construction budget of the server's iGM
    grid_n: int
    max_cells: int
    #: initial corpus (bootstrapped, never expires)
    corpus: int
    #: subscribers present at the end of set-up
    subscribers: int
    #: True: subscribers walk road trajectories; False: they stand still
    moving: bool
    #: walker steps per second (each step advances ``speed`` metres)
    step_hz: float
    speed: float
    radius: float
    #: open-loop events per second, sent ``batch`` to a frame
    event_rate: float
    batch: int
    #: validity of streamed events, in server timestamps (None: forever)
    event_ttl: Optional[int]
    #: stationary subscribers re-request their region this often (1/s)
    reanchor_hz: float
    #: one unsubscribe plus one fresh subscribe, this often (1/s)
    churn_hz: float
    #: events sent back to back after the open-loop phase
    saturation_events: int
    #: ServerConfig fields this workload names (all else is default)
    repair: bool
    #: 0: one ElapsServer; K > 0: a K-band ShardedElapsServer
    shards: int
    #: per-band JournalSpec on the fleet, then SIGKILL + recover()
    journal: bool
    #: where events come from: "hotspots" only, or "uniform" over the space
    event_locations: str
    #: head words subscriptions draw their 3 keywords from
    subscription_pool: int

    def params(self) -> Dict[str, object]:
        """The workload's parameters as recorded in every result."""
        return asdict(self)


COMMUTE = Workload(
    name="commute",
    grid_n=40,
    max_cells=150,
    corpus=3_000,
    subscribers=200,
    moving=True,
    step_hz=0.25,
    speed=60.0,
    radius=3_000.0,
    event_rate=50.0,
    batch=1,
    event_ttl=2,
    reanchor_hz=0.0,
    churn_hz=4.0,
    saturation_events=2_000,
    repair=False,
    shards=0,
    journal=False,
    event_locations="uniform",
    subscription_pool=10,
)

FLOOD = Workload(
    name="flood",
    grid_n=40,
    max_cells=150,
    corpus=3_000,
    subscribers=200,
    moving=False,
    step_hz=0.0,
    speed=0.0,
    radius=3_000.0,
    event_rate=300.0,
    batch=8,
    event_ttl=None,
    reanchor_hz=4.0,
    churn_hz=4.0,
    saturation_events=8_000,
    repair=True,
    shards=0,
    journal=False,
    event_locations="hotspots",
    subscription_pool=TwitterLikeConfig().subscription_pool,
)

#: commute's inputs and rates through a journaled 2-band process fleet
DURABLE_FLEET = replace(COMMUTE, name="durable_fleet", shards=2, journal=True)

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (COMMUTE, FLOOD, DURABLE_FLEET)
}


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def _generator(workload: Workload, seed: int) -> TwitterLikeGenerator:
    uniform = {"hotspots": 0.0, "uniform": 1.0}[workload.event_locations]
    return TwitterLikeGenerator(
        SPACE,
        config=TwitterLikeConfig(subscription_pool=workload.subscription_pool),
        seed=seed,
        locations=LocationSampler(SPACE, uniform_fraction=uniform, seed=CITY_SEED),
    )


def corpus(workload: Workload) -> List[Event]:
    """The city's bootstrap corpus (ids ``0 .. corpus-1``, no expiry)."""
    return _generator(workload, CITY_SEED).events(workload.corpus, seed_offset=1)


@dataclass
class Inputs:
    """Everything the generator sends, fixed before the first frame."""

    #: initial subscribers, then churn arrivals in arrival order
    subscriptions: List[Subscription]
    #: per subscriber: positions, one per walker step (stationary: one)
    paths: Dict[int, List[Point]]
    #: open-loop events: (client id, attributes, location)
    events: List[Tuple[int, Dict[str, object], Point]]
    #: saturation-phase events, same shape
    saturation: List[Tuple[int, Dict[str, object], Point]]
    #: churn schedule: (departing sub id, arriving sub id)
    churn: List[Tuple[int, int]]
    #: re-anchor schedule: sub ids, one per re-anchor slot
    reanchors: List[int]
    #: open-loop due times, seconds from the start of the phase: one per
    #: event frame, per churn and per re-anchor
    frame_times: List[float]
    churn_times: List[float]
    reanchor_times: List[float]
    #: per subscriber: phase of its steps within the step period, in [0, 1)
    step_phases: Dict[int, float]


def inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """The seeded inputs of one run whose open-loop phase lasts ``seconds``."""
    gen = _generator(workload, seed)
    rng = random.Random(f"perfbench-{workload.name}-{seed}")
    city = random.Random(f"perfbench-{workload.name}-{CITY_SEED}")
    churn_count = int(round(workload.churn_hz * seconds))
    initial = _generator(workload, CITY_SEED).subscriptions(
        workload.subscribers, size=3, radius=workload.radius, seed_offset=2
    )
    # churn keeps the population's make-up: the device holding each slot
    # of the standing population is in turn replaced by a fresh id with
    # the same interests (and, standing still, the same place).  Slots
    # turn over in a seeded order, each once before any twice, so what
    # the seed changes is who leaves when, not who is there.
    by_id = {s.sub_id: s for s in initial}
    holders = [s.sub_id for s in initial]
    order = rng.sample(range(len(holders)), len(holders))
    churn = []
    arrivals = []
    for k, arriving in enumerate(
            range(FIRST_CHURN_SUB_ID, FIRST_CHURN_SUB_ID + churn_count)):
        slot = order[k % len(order)]
        departing, holders[slot] = holders[slot], arriving
        churn.append((departing, arriving))
        by_id[arriving] = Subscription(
            arriving, by_id[departing].expression, workload.radius
        )
        arrivals.append(by_id[arriving])
    subscriptions = initial + arrivals
    paths: Dict[int, List[Point]] = {}
    if workload.moving:
        steps = int(workload.step_hz * seconds) + 2
        walkers = SyntheticTrajectoryGenerator(
            RoadNetwork(SPACE, seed=CITY_SEED), workload.speed, seed=seed
        )
        for walker, subscription in enumerate(subscriptions):
            trajectory = walkers.trajectory(walker, steps)
            paths[subscription.sub_id] = [
                trajectory.position_at(k) for k in range(steps)
            ]
    else:
        # the standing population stands one device per cell of a k x k
        # lattice, jittered inside its cell
        k = math.ceil(math.sqrt(len(initial)))
        for index, subscription in enumerate(initial):
            column, row = index % k, index // k
            x = (column + city.random()) / k
            y = (row + city.random()) / k
            paths[subscription.sub_id] = [
                Point(SPACE.x_min + x * SPACE.width, SPACE.y_min + y * SPACE.height)
            ]
        for departing, arriving in churn:
            paths[arriving] = paths[departing]
    open_count = int(round(workload.event_rate * seconds))
    stream = gen.event_stream(seed_offset=4)
    events = []
    for client_id in range(FIRST_PUBLISHED_ID,
                           FIRST_PUBLISHED_ID + open_count + workload.saturation_events):
        event = next(stream)
        events.append((client_id, dict(event.attributes), event.location))
    # every action is due at a seeded point of its own slot of the fixed
    # rate.  Evenly spaced actions of different kinds lock in phase (a
    # walker steps on every event's due time, a churn comes a fixed few
    # ms after every fourth batch); whether a request waits behind a
    # publish then turns on a millisecond of service time, and the median
    # latency jumps between runs instead of moving with the code
    phases = random.Random(f"perfbench-phases-{workload.name}-{seed}")
    frame_period = workload.batch / workload.event_rate
    frame_times = [(k + phases.random()) * frame_period
                   for k in range(math.ceil(open_count / workload.batch))]
    churn_times = [(k + phases.random()) / workload.churn_hz
                   for k in range(churn_count)]
    reanchor_times = [(k + phases.random()) / workload.reanchor_hz
                      for k in range(int(round(workload.reanchor_hz * seconds)))]
    step_phases = {s.sub_id: phases.random() for s in subscriptions}
    reanchors = _reanchor_targets(initial, churn, churn_times, reanchor_times, rng)
    return Inputs(
        subscriptions=subscriptions,
        paths=paths,
        events=events[:open_count],
        saturation=events[open_count:],
        churn=churn,
        reanchors=reanchors,
        frame_times=frame_times,
        churn_times=churn_times,
        reanchor_times=reanchor_times,
        step_phases=step_phases,
    )


def _reanchor_targets(initial, churn, churn_times, reanchor_times, rng) -> List[int]:
    """The device asking again in each re-anchor slot: slots of the
    standing population in a seeded order, each once before any twice,
    resolved to whoever holds the slot at that time given the churn."""
    holders = [s.sub_id for s in initial]
    slot_of = {sub_id: slot for slot, sub_id in enumerate(holders)}
    order = rng.sample(range(len(holders)), len(holders))
    targets = []
    next_churn = 0
    for k, at in enumerate(reanchor_times):
        while next_churn < len(churn) and churn_times[next_churn] <= at:
            departing, arriving = churn[next_churn]
            slot_of[arriving] = slot = slot_of.pop(departing)
            holders[slot] = arriving
            next_churn += 1
        targets.append(holders[order[k % len(order)]])
    return targets
