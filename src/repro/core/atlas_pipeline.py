"""The atlas pipeline: fast, resumable offline atlas construction.

Revtr 2.0's entire offline budget goes into the per-source traceroute
atlas (Q1) and RR atlas (Q2); the paper amortises that cost across
millions of reverse traceroutes, and this repo re-pays it on every
experiment.  The pipeline makes construction a first-class citizen
with four legs:

* **sharded build** — probe ladders flow through the batched prober
  (`Prober.rr_ping_batch` / `Internet.send_probe_batch`) and each
  unit's virtual-clock cost is assigned to the earliest-free of N
  shard lanes.  Forwarding outcomes are pure functions of each packet
  (see :func:`repro.sim.forwarding.choose_candidate`), so the atlases
  do not depend on the shard count; the lane makespan is the
  deterministic virtual-clock cost an N-shard deployment would pay,
  the same re-simulation device as the request scheduler's lanes.
* **probe dedup** — a hop address appearing in many VPs' traceroutes
  is RR-probed once per build (:meth:`RRAtlas.build`); the savings
  are tallied separately from probes sent.
* **incremental refresh** — atlas entries are keyed by the simulator's
  routing generation, so ``refresh(incremental=True)`` re-probes only
  traceroutes whose paths could have changed (generation bump or
  staleness) instead of re-measuring every kept VP daily.
* **snapshot persistence** — versioned save/load of both atlases to a
  compact gzip-JSON file, stamped with the topology fingerprint so a
  snapshot can never warm-start a different simulated Internet.
"""

from __future__ import annotations

import gzip
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.atlas import (
    DEFAULT_STALENESS,
    TracerouteAtlas,
)
from repro.core.rr_atlas import RRAtlas
from repro.net.addr import Address
from repro.net.packet import ProbeKind, TracerouteResult
from repro.probing.prober import Prober

#: On-disk snapshot format tag and version.  Bump the version on any
#: incompatible change to the document layout; loaders reject other
#: versions outright rather than guessing.
SNAPSHOT_FORMAT = "revtr-atlas-snapshot"
SNAPSHOT_VERSION = 1


class SnapshotError(Exception):
    """A snapshot could not be read or parsed."""


class SnapshotMismatch(SnapshotError):
    """A readable snapshot is not compatible with this simulation."""


# ----------------------------------------------------------------------
# Shard-lane accounting
# ----------------------------------------------------------------------


class LaneSchedule:
    """Earliest-free-lane assignment over virtual task durations.

    The deterministic counterpart of running tasks on *n* parallel
    shards: each task lands on the lane that frees up first (ties to
    the lowest index), and the makespan is the maximum lane time.
    Pure arithmetic on observed durations — nothing here touches the
    clock, so it can re-schedule a serially executed probe stream.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need at least one lane")
        self.lanes = [0.0] * n

    def assign(self, duration: float) -> int:
        lane = min(range(len(self.lanes)), key=lambda i: (self.lanes[i], i))
        self.lanes[lane] += duration
        return lane

    @property
    def makespan(self) -> float:
        return max(self.lanes)


@dataclass
class StageReport:
    """Deterministic accounting for one pipeline stage."""

    stage: str
    shards: int
    tasks: int = 0
    #: summed virtual-clock cost of every task (what a 1-shard build pays)
    serial_seconds: float = 0.0
    #: virtual-clock finish time of the slowest shard lane
    makespan_seconds: float = 0.0
    probes_sent: int = 0
    probes_deduped: int = 0
    lane_seconds: List[float] = field(default_factory=list)
    #: refresh-only dispositions (empty for build stages)
    dispositions: Dict[str, int] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Virtual-clock speedup of the sharded schedule over serial."""
        if self.makespan_seconds <= 0.0:
            return 1.0
        return self.serial_seconds / self.makespan_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "shards": self.shards,
            "tasks": self.tasks,
            "serial_virtual_seconds": round(self.serial_seconds, 6),
            "makespan_virtual_seconds": round(self.makespan_seconds, 6),
            "virtual_speedup": round(self.speedup, 3),
            "probes_sent": self.probes_sent,
            "probes_deduped": self.probes_deduped,
            "lane_virtual_seconds": [
                round(lane, 6) for lane in self.lane_seconds
            ],
            "dispositions": dict(self.dispositions),
        }


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------


class AtlasPipeline:
    """Drives sharded, deduplicated, resumable atlas construction.

    One pipeline serves one prober (and therefore one simulated
    Internet); it can build atlases for any number of sources.  Every
    stage is deterministic: the pipeline calls
    :meth:`TracerouteAtlas.build` / :meth:`RRAtlas.build` and accounts
    the observed per-task virtual durations on shard lanes.
    """

    def __init__(
        self,
        prober: Prober,
        atlas_vps: Sequence[Address],
        spoofer_vps: Sequence[Address],
        shards: int = 4,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.prober = prober
        self.atlas_vps = list(atlas_vps)
        self.spoofer_vps = list(spoofer_vps)
        self.shards = shards
        self.reports: List[StageReport] = []

    # -- stage accounting ----------------------------------------------

    def _finish_stage(
        self,
        stage: str,
        durations: Sequence[float],
        probes_sent: int = 0,
        probes_deduped: int = 0,
        dispositions: Optional[Dict[str, int]] = None,
    ) -> StageReport:
        lanes = LaneSchedule(self.shards)
        for duration in durations:
            lanes.assign(duration)
        report = StageReport(
            stage=stage,
            shards=self.shards,
            tasks=len(durations),
            serial_seconds=sum(durations),
            makespan_seconds=lanes.makespan,
            probes_sent=probes_sent,
            probes_deduped=probes_deduped,
            lane_seconds=list(lanes.lanes),
            dispositions=dict(dispositions or {}),
        )
        self.reports.append(report)
        return report

    # -- traceroute atlas stage ----------------------------------------

    def build_atlas(
        self,
        atlas: TracerouteAtlas,
        rng: random.Random,
        size: Optional[int] = None,
    ) -> StageReport:
        """Measure the traceroute atlas (Q1) across shard lanes.

        :meth:`TracerouteAtlas.build` does the measuring (and consumes
        exactly one shuffle from *rng*); this adds the lane accounting.
        """
        before = self.prober.counter.of(ProbeKind.TRACEROUTE)
        atlas.build(self.prober, self.atlas_vps, rng, size=size)
        return self._finish_stage(
            "traceroute",
            atlas.last_build_durations,
            probes_sent=self.prober.counter.of(ProbeKind.TRACEROUTE)
            - before,
        )

    # -- RR atlas stage -------------------------------------------------

    def build_rr(self, rr_atlas: RRAtlas) -> StageReport:
        """Probe every atlas hop with RR toward the source (Q2)."""
        rr_atlas.build(self.prober, self.spoofer_vps)
        stats = rr_atlas.last_build
        return self._finish_stage(
            "rr",
            stats.unit_costs,
            probes_sent=stats.probes_sent,
            probes_deduped=stats.probes_deduped,
        )

    # -- refresh stage ---------------------------------------------------

    def refresh(
        self,
        atlas: TracerouteAtlas,
        rng: random.Random,
        incremental: bool = True,
    ) -> StageReport:
        """Random++ refresh, skipping generation-fresh traceroutes."""
        atlas.refresh(
            self.prober, self.atlas_vps, rng, incremental=incremental
        )
        return self._finish_stage(
            "refresh",
            atlas.last_build_durations,
            dispositions=atlas.last_refresh,
        )

    # -- whole-pipeline conveniences -------------------------------------

    def bootstrap(
        self,
        source: Address,
        rng: random.Random,
        size: Optional[int] = None,
        max_size: Optional[int] = None,
        staleness: float = DEFAULT_STALENESS,
    ) -> Tuple[TracerouteAtlas, RRAtlas]:
        """Cold-build both atlases for *source*."""
        atlas = TracerouteAtlas(
            source,
            max_size=max_size if max_size is not None else (size or 1000),
            staleness=staleness,
        )
        self.build_atlas(atlas, rng, size=size)
        rr_atlas = RRAtlas(atlas)
        self.build_rr(rr_atlas)
        return atlas, rr_atlas


# ----------------------------------------------------------------------
# Snapshot persistence
# ----------------------------------------------------------------------


def _topology_descriptor(internet) -> Dict[str, object]:
    return {
        "fingerprint": internet.topology_fingerprint(),
        "seed": internet.config.seed,
        "routers": len(internet.routers),
        "hosts": len(internet.hosts),
    }


def save_snapshot(
    path: str,
    atlas: TracerouteAtlas,
    rr_atlas: Optional[RRAtlas],
    internet,
) -> None:
    """Serialise both atlases to a versioned gzip-JSON snapshot.

    The snapshot embeds the topology fingerprint (config + seed
    digest) and the routing generation at save time; loading validates
    the fingerprint so stale snapshots can never leak traces from a
    different simulated Internet into an experiment.
    """
    doc = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "topology": _topology_descriptor(internet),
        "routing_generation": internet.routing_generation,
        "atlas": {
            "source": atlas.source,
            "max_size": atlas.max_size,
            "staleness": atlas.staleness,
            "traceroutes": [
                {
                    "src": trace.src,
                    "hops": trace.hops,
                    "reached": trace.reached,
                    "flow_id": trace.flow_id,
                    "timestamp": trace.timestamp,
                    "generation": atlas.generation_of(trace.src),
                }
                for trace in atlas.traceroutes.values()
            ],
            "useful": sorted(atlas._useful),
        },
        "rr_atlas": None
        if rr_atlas is None
        else {
            "mapping": [
                [addr, vp, index]
                for addr, (vp, index) in rr_atlas._mapping.items()
            ],
            "probes_sent": rr_atlas.probes_sent,
            "probes_deduped": rr_atlas.probes_deduped,
        },
    }
    payload = json.dumps(doc, separators=(",", ":")).encode()
    # mtime=0 and an empty embedded filename keep byte-identical
    # snapshots byte-identical on disk regardless of when or where
    # they were written.
    with open(path, "wb") as raw:
        with gzip.GzipFile(
            filename="", fileobj=raw, mode="wb", mtime=0
        ) as fh:
            fh.write(payload)


def load_snapshot(
    path: str,
    internet,
) -> Tuple[TracerouteAtlas, Optional[RRAtlas]]:
    """Load a snapshot saved by :func:`save_snapshot`.

    Raises :class:`SnapshotError` on unreadable/corrupt files and
    :class:`SnapshotMismatch` when the snapshot's format, version, or
    topology fingerprint does not match *internet*.
    """
    try:
        with gzip.open(path, "rb") as fh:
            doc = json.loads(fh.read().decode())
    except (OSError, EOFError, ValueError) as exc:
        raise SnapshotError(
            f"cannot read snapshot {path}: {exc}"
        ) from exc
    if (
        not isinstance(doc, dict)
        or doc.get("format") != SNAPSHOT_FORMAT
    ):
        raise SnapshotError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise SnapshotMismatch(
            f"snapshot version {doc.get('version')} != "
            f"supported {SNAPSHOT_VERSION}"
        )
    topology = doc.get("topology", {})
    if not isinstance(topology, dict):
        raise SnapshotError(
            f"snapshot {path} is malformed: 'topology' is not an object"
        )
    fingerprint = internet.topology_fingerprint()
    saved = topology.get("fingerprint")
    if saved != fingerprint:
        raise SnapshotMismatch(
            f"snapshot topology {saved} does not match this "
            f"simulation ({fingerprint}); rebuild instead of "
            "replaying traces from a different Internet"
        )

    try:
        spec = doc["atlas"]
        atlas = TracerouteAtlas(
            spec["source"],
            max_size=spec["max_size"],
            staleness=spec["staleness"],
        )
        for entry in spec["traceroutes"]:
            hops = entry["hops"]
            if not isinstance(hops, list):
                raise ValueError(f"'hops' of {entry['src']!r} is not a list")
            trace = TracerouteResult(
                src=entry["src"],
                dst=spec["source"],
                hops=hops,
                reached=entry["reached"],
                flow_id=entry["flow_id"],
                timestamp=entry["timestamp"],
            )
            atlas.add(trace, generation=entry.get("generation"))
        for vp in spec.get("useful", []):
            atlas.mark_useful(vp)

        rr_atlas: Optional[RRAtlas] = None
        rr_spec = doc.get("rr_atlas")
        if rr_spec is not None:
            rr_atlas = RRAtlas(atlas)
            rr_atlas._mapping = {
                addr: (vp, index)
                for addr, vp, index in rr_spec["mapping"]
            }
            rr_atlas.probes_sent = rr_spec.get("probes_sent", 0)
            rr_atlas.probes_deduped = rr_spec.get("probes_deduped", 0)
    except (KeyError, TypeError, ValueError) as exc:
        # the header matched but the body is not what save_snapshot
        # writes: a missing key, or a value of the wrong shape
        raise SnapshotError(
            f"snapshot {path} is malformed: {exc!r}"
        ) from exc
    return atlas, rr_atlas
