"""The one remaining second thread: the telemetry reader.

`repro serve --http` and `repro top` read metrics, health findings and
the time-series from a thread of their own while the workload runs on
the main thread; nothing else in `src/` is concurrent.  The design is
one writer, published samples: only the workload thread mutates
state, runs the pull collectors, samples, evaluates the health rules
and reads the flight recorder, and the reader reads what it published
(the sampler's ring, through `ObsHTTPServer`) and nothing else.
Asserted here, on a faulted scheduler workload with the interpreter
switching threads every 10 microseconds: neither side raises, counters
never run backwards between reads, the event tallies in the published
samples account for every event, every writer-side entry point runs on
the workload thread alone, and the workload's results and exported
time series are those of the same run with nobody reading.
"""

import functools
import json
import random
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.cache import MeasurementCache
from repro.core.revtr import EngineConfig
from repro.experiments import Scenario
from repro.obs import Instrumentation, ObsHTTPServer, install_sampler
from repro.obs.events import EventLog
from repro.obs.health import HealthEngine
from repro.obs.metrics import MetricFamily, MetricsRegistry
from repro.obs.timeseries import TimeSeriesSampler
from repro.service import SchedulerConfig
from repro.service.store import MeasurementStore
from repro.service.users import User
from repro.sim.clock import VirtualClock
from repro.sim.faults import FaultPlan, FaultSpec
from repro.topology import TopologyConfig

SEED = 9
REQUESTS = 600


#: The writer's side: what mutates state, runs the pull collectors,
#: publishes a sample or reads the flight recorder.  (class, method
#: name)
WRITER_ENTRY_POINTS = (
    (MetricsRegistry, "snapshot"),
    (Instrumentation, "_collect"),
    (MetricFamily, "labels"),
    (TimeSeriesSampler, "sample"),
    (HealthEngine, "evaluate"),
    (EventLog, "events"),
    (EventLog, "accounting"),
    (VirtualClock, "advance"),
    (MeasurementCache, "get"),
    (MeasurementCache, "put"),
    (User, "charge"),
    (MeasurementStore, "append"),
)


def faulted_run(reader=None):
    """A seeded scheduler run under link loss and a VP outage, full
    obs on and an event ring small enough to wrap.  The obs endpoint
    is started once the workload is wired (its first sample published
    there) and stopped when the run ends; *reader*, if given, loops
    over it meanwhile.  Returns what a result digest would cover, and
    the exported time series."""
    instr = Instrumentation(event_capacity=256)
    sampler = install_sampler(instr, sim_interval=5.0)
    scenario = Scenario(
        config=TopologyConfig.tiny(seed=SEED),
        seed=SEED,
        atlas_size=10,
        instrumentation=instr,
    )
    door = scenario.front_door(
        EngineConfig(retry_budget=4, recheck_unresponsive=True),
        [("ops", 10, 10_000)],
        SchedulerConfig(parallelism=4, max_queue_per_user=REQUESTS),
    )
    source, scheduler = door.source, door.scheduler
    # The outage starts at the post-bootstrap clock, so the plan is
    # armed here rather than handed to the builder.
    tracker = scenario.install_vp_health()
    spoofers = sorted(set(scenario.spoofer_addrs) - {source})
    now = scenario.clock.now()
    injector = scenario.install_faults(
        FaultPlan(
            specs=[
                FaultSpec(kind="link-loss", rate=0.05),
                FaultSpec(
                    kind="vp-outage", start=now, end=now + 600.0,
                    vps=tuple(spoofers[: len(spoofers) // 2]),
                ),
            ],
            seed=SEED,
        )
    )
    dsts = scenario.responsive_destinations(options_only=True)
    for dst in random.Random(SEED).choices(dsts, k=REQUESTS):
        scheduler.submit(door.users[0].api_key, dst, source)
    server = ObsHTTPServer(sampler).start()
    if reader is not None:
        reader.start(server)
    try:
        report = scheduler.run()
    finally:
        if reader is not None:
            reader.stop()
        server.stop()
    return {
        "results": [
            job.result.to_dict() if job.result is not None else None
            for job in scheduler.jobs
        ],
        "scheduler": report.as_dict(),
        "faults": injector.snapshot(),
        "vp_health": tracker.snapshot(),
        "clock": scenario.clock.now(),
        "events": instr.events.total,
        "series": sampler.export_json(),
    }


class Reader:
    """Loops the HTTP routes on a second thread."""

    def __init__(self):
        self.errors = []
        self.rounds = 0
        self.seen = 0
        self.wrapped = False
        self._stop = threading.Event()

    def start(self, server):
        self.server = server
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def stop(self):
        self._stop.set()
        self.thread.join(timeout=30)

    def _get(self, route):
        try:
            with urllib.request.urlopen(
                self.server.url + route, timeout=10
            ) as response:
                return response.read().decode()
        except urllib.error.HTTPError as answer:
            # `/health` answers 503 while the status is critical.
            assert (route, answer.code) == ("/health", 503)
            return answer.read().decode()

    def _loop(self):
        counters = {}
        try:
            # At least two rounds, so "between reads" is never vacuous.
            while not self._stop.is_set() or self.rounds < 2:
                for line in self._get("/metrics").splitlines():
                    if line.startswith("#"):
                        continue
                    series, value = line.rsplit(" ", 1)
                    if series.split("{")[0].endswith(
                        ("_total", "_bucket", "_count", "_sum")
                    ):
                        assert float(value) >= counters.get(series, 0.0), (
                            f"{series} ran backwards"
                        )
                        counters[series] = float(value)
                assert json.loads(self._get("/health"))["status"]
                series = json.loads(self._get("/timeseries"))
                assert series["summary"]["samples"] == len(
                    series["samples"]
                )
                # The flight recorder's tallies, as each sample
                # published them.
                totals = []
                for sample in series["samples"]:
                    total = sample["events"]["total"]
                    dropped = sample["events"]["dropped"]
                    assert dropped <= total
                    self.wrapped = self.wrapped or dropped > 0
                    totals.append(total)
                assert totals == sorted(totals)
                assert totals[-1] >= self.seen
                self.seen = totals[-1]
                self.rounds += 1
        except BaseException as exc:  # reported by the test, below
            self.errors.append(exc)


def recording_writers(stack):
    """Wrap every :data:`WRITER_ENTRY_POINTS` method so it records the
    thread it runs on; returns ``{"Class.method": {thread ident}}``.
    Applied before the run builds anything, since the facade binds
    ``Instrumentation._collect`` at construction."""
    threads = {}

    def recorded(name, method):
        seen = threads[name] = set()

        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            seen.add(threading.get_ident())
            return method(*args, **kwargs)

        return wrapper

    for cls, method in WRITER_ENTRY_POINTS:
        stack.setattr(
            cls,
            method,
            recorded(f"{cls.__name__}.{method}", cls.__dict__[method]),
        )
    return threads


@pytest.fixture(scope="module")
def runs():
    """The same faulted run with nobody reading its endpoint, and
    watched by a :class:`Reader` at a 10 microsecond switch interval
    with the writer-side entry points recording their threads."""
    alone = faulted_run()
    reader = Reader()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with pytest.MonkeyPatch.context() as stack:
            threads = recording_writers(stack)
            watched = faulted_run(reader)
    finally:
        sys.setswitchinterval(interval)
    return alone, watched, reader, threads


def test_workload_and_telemetry_reader_share_nothing_unsafely(runs):
    alone, watched, reader, _ = runs
    assert not reader.thread.is_alive()
    assert reader.errors == []
    assert reader.rounds >= 2
    # The ring wrapped during the run, so the published tallies were
    # checked with drops in them.
    assert reader.wrapped and alone["events"] > 256
    assert watched == alone


def test_scrapes_do_not_write_the_time_series(runs):
    # A scrape reads published samples; it used to take one of its
    # own, which moved the sim-clock tick schedule of every later
    # sample by when somebody happened to look.
    alone, watched, reader, _ = runs
    assert reader.rounds >= 2
    assert watched["series"] == alone["series"]


def test_only_the_workload_thread_writes(runs):
    _, _, reader, threads = runs
    workload = threading.get_ident()
    assert reader.rounds >= 2
    for name, seen in threads.items():
        assert seen == {workload}, (
            f"{name} ran on {len(seen - {workload})} other thread(s)"
            if seen
            else f"{name} never ran, so the check says nothing"
        )
