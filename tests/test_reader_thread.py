"""The one remaining second thread: the telemetry reader.

`repro serve --http` and `repro top` read metrics, health, the
time-series and the event ring from a thread of their own while the
workload runs on the main thread; nothing else in `src/` is
concurrent.  What the lock-free paths in `obs/events.py`,
`obs/tracing.py` and `sim/clock.py` rely on ("under the GIL" in their
comments) is asserted here, on a faulted scheduler workload with the
interpreter switching threads every 10 microseconds: neither side
raises, every read of the ring accounts for every event, counters
never run backwards between reads, and the workload's results are
those of the same run with nobody watching.
"""

import json
import random
import sys
import threading
import urllib.error
import urllib.request

from repro.core.revtr import EngineConfig
from repro.experiments import Scenario
from repro.obs import Instrumentation, ObsHTTPServer, install_sampler
from repro.service import SchedulerConfig
from repro.sim.faults import FaultPlan, FaultSpec
from repro.topology import TopologyConfig

SEED = 9
REQUESTS = 600


def faulted_run(reader=None):
    """A seeded scheduler run under link loss and a VP outage, full
    obs on and an event ring small enough to wrap; *reader*, if given,
    is started once the workload is wired and stopped when it ends.
    Returns what a result digest would cover."""
    instr = Instrumentation(event_capacity=256)
    sampler = install_sampler(instr, sim_interval=5.0)
    scenario = Scenario(
        config=TopologyConfig.tiny(seed=SEED),
        seed=SEED,
        atlas_size=10,
        instrumentation=instr,
    )
    service = scenario.service(
        EngineConfig(retry_budget=4, recheck_unresponsive=True)
    )
    user = service.add_user("ops", max_per_day=10_000)
    source = scenario.sources()[0]
    service.add_source(user.api_key, source)
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
    scheduler = service.scheduler(
        SchedulerConfig(parallelism=4, max_queue_per_user=REQUESTS)
    )
    dsts = scenario.responsive_destinations(options_only=True)
    for dst in random.Random(SEED).choices(dsts, k=REQUESTS):
        scheduler.submit(user.api_key, dst, source)
    if reader is not None:
        reader.start(instr, sampler)
    try:
        report = scheduler.run()
    finally:
        if reader is not None:
            reader.stop()
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
    }


class Reader:
    """Loops the HTTP routes and the event ring on a second thread."""

    def __init__(self):
        self.errors = []
        self.rounds = 0
        self.seen = 0
        self.wrapped = False
        self._stop = threading.Event()

    def start(self, instr, sampler):
        self.instr = instr
        self.server = ObsHTTPServer(instr, sampler).start()
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def stop(self):
        self._stop.set()
        self.thread.join(timeout=30)
        self.server.stop()

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
                for trace in self.instr.tracer.export_json():
                    assert trace["name"].startswith("service.request")
                log = self.instr.events
                # The ring is what is written without a lock: read it
                # many times for every pass over the routes.
                for _ in range(25):
                    seqs = [event.seq for event in log.events()]
                    assert seqs == sorted(set(seqs))
                    assert len(seqs) <= log.capacity
                    summary = log.summary()
                    assert (
                        summary["recorded"]
                        + summary["dropped"]
                        + log._cleared
                        == summary["total"]
                    )
                    assert summary["total"] >= self.seen
                    self.seen = summary["total"]
                self.wrapped = self.wrapped or summary["dropped"] > 0
                self.rounds += 1
        except BaseException as exc:  # reported by the test, below
            self.errors.append(exc)


def test_workload_and_telemetry_reader_share_nothing_unsafely():
    alone = faulted_run()
    reader = Reader()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        watched = faulted_run(reader)
    finally:
        sys.setswitchinterval(interval)
    assert not reader.thread.is_alive()
    assert reader.errors == []
    assert reader.rounds >= 2
    # The ring wrapped under the reader, so the accounting identity
    # was checked with drops in it.
    assert reader.wrapped and alone["events"] > 256
    assert watched == alone
