"""Shared experiment scaffolding.

A :class:`Scenario` owns one simulated Internet plus the measurement
infrastructure around it — vantage-point pool, background/online
probers, offline datasets (ITDK aliases, ingress directory, VP range
survey, adjacency corpus) — and hands out fully wired
:class:`~repro.core.revtr.RevtrEngine` instances for any system variant
(revtr 2.0, revtr 1.0, and the Table 4 ladder in between).

Background measurements (atlas building, surveys) share the virtual
clock with online measurements — the atlas really is "yesterday's" by
the time reverse traceroutes run — but are charged to a separate probe
counter so online probe costs (Table 4) stay clean.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.alias.itdk import build_itdk_dataset
from repro.alias.resolver import AliasResolver
from repro.asmap.ip2as import IPToASMapper
from repro.asmap.relationships import ASRelationships
from repro.core.adjacency import AdjacencyDatabase
from repro.core.atlas import TracerouteAtlas
from repro.core.cache import MeasurementCache
from repro.core.ingress import (
    IngressDirectory,
    IngressSelector,
    SetCoverSelector,
    survey_vp_ranges,
)
from repro.core.revtr import EngineConfig, RevtrEngine
from repro.core.rr_atlas import RRAtlas
from repro.core.segcache import ReverseSegmentCache
from repro.core.symmetry import SymmetryPolicy
from repro.net.addr import Address
from repro.obs.instrument import NULL
from repro.probing.budget import ProbeCounter
from repro.probing.prober import Prober
from repro.probing.vantage import VantagePointPool
from repro.sim.clock import VirtualClock
from repro.sim.network import Internet
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_internet

#: Variant names accepted by :meth:`Scenario.engine`.
VARIANTS = (
    "revtr1.0",
    "revtr1.0+ingress",
    "revtr1.0+ingress+cache",
    "revtr1.0+ingress+cache-TS",
    "revtr2.0",
    "revtr2.0+TS",
)


@dataclass
class SourceBundle:
    """Per-source measurement state (atlas, RR atlas, engines)."""

    source: Address
    atlas: TracerouteAtlas
    rr_atlas: Optional[RRAtlas] = None
    engines: Dict[str, RevtrEngine] = field(default_factory=dict)
    #: reverse-segment cache shared by every segment_cache-enabled
    #: engine built for this source
    segcache: Optional[ReverseSegmentCache] = None


class Scenario:
    """One simulated Internet plus the revtr deployment around it."""

    def __init__(
        self,
        config: Optional[TopologyConfig] = None,
        seed: int = 0,
        atlas_size: int = 40,
        instrumentation=None,
    ) -> None:
        self.config = (
            config if config is not None else TopologyConfig.small(seed)
        )
        self.seed = seed
        self.atlas_size = atlas_size
        self.rng = random.Random(seed ^ 0xA11A5)

        #: one observability sink for the whole deployment (service,
        #: probers, engines); NULL unless passed
        self.obs = instrumentation if instrumentation is not None else NULL

        self.internet: Internet = build_internet(self.config)
        self.pool = VantagePointPool(self.internet)
        self.clock = VirtualClock()
        if self.obs.tracer is not None and self.obs.tracer.clock is None:
            # Late-bind the sim clock so spans record sim durations.
            self.obs.tracer.clock = self.clock
        events = getattr(self.obs, "events", None)
        if events is not None and events.clock is None:
            # Same late-binding for flight-recorder sim timestamps.
            events.clock = self.clock
        self.online_counter = ProbeCounter()
        self.background_counter = ProbeCounter()
        self.online_prober = Prober(
            self.internet, self.clock, self.online_counter,
            instrumentation=self.obs,
        )
        self.background_prober = Prober(
            self.internet, self.clock, self.background_counter,
            instrumentation=self.obs,
        )

        self.ip2as = IPToASMapper(self.internet)
        self.relationships = ASRelationships(self.internet.graph)
        self.itdk = build_itdk_dataset(self.internet)
        self.resolver = AliasResolver(itdk=self.itdk)

        self._directory: Optional[IngressDirectory] = None
        self._ranges = None
        self._adjacency: Optional[AdjacencyDatabase] = None
        self._bundles: Dict[Address, SourceBundle] = {}

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def spoofer_addrs(self) -> List[Address]:
        return [site.addr for site in self.pool.spoofers()]

    @property
    def mlab_addrs(self) -> List[Address]:
        return self.pool.mlab_addresses()

    @property
    def atlas_vp_addrs(self) -> List[Address]:
        return self.pool.atlas_addresses()

    def sources(self, count: Optional[int] = None) -> List[Address]:
        """M-Lab sources used as revtr targets (paper: 146 sites)."""
        addrs = self.mlab_addrs
        return addrs if count is None else addrs[:count]

    def responsive_destinations(
        self, count: Optional[int] = None, options_only: bool = False
    ) -> List[Address]:
        """Hitlist-style destinations, shuffled deterministically."""
        hosts = [
            host.addr
            for host in self.internet.hosts.values()
            if host.responds_to_ping
            and not host.is_vantage_point
            and (host.responds_to_options or not options_only)
        ]
        hosts.sort()
        self.rng.shuffle(hosts)
        return hosts if count is None else hosts[:count]

    # ------------------------------------------------------------------
    # Chaos harness
    # ------------------------------------------------------------------

    def install_faults(self, plan) -> "FaultInjector":
        """Bind a :class:`~repro.sim.faults.FaultPlan` to this
        scenario's Internet and clock; returns the live injector.

        Install *after* the background infrastructure you want built
        fault-free (atlases, surveys) — the injector affects every
        probe walked from the moment it is installed.
        """
        from repro.sim.faults import FaultInjector

        injector = FaultInjector(plan, self.clock)
        self.internet.faults = injector
        return injector

    def install_vp_health(
        self,
        threshold: int = 3,
        quarantine_seconds: float = 900.0,
    ) -> "VPHealthTracker":
        """Attach a quarantine tracker to the online prober."""
        from repro.probing.vantage import VPHealthTracker

        tracker = VPHealthTracker(
            self.clock,
            threshold=threshold,
            quarantine_seconds=quarantine_seconds,
            instrumentation=self.obs,
        )
        self.online_prober.health = tracker
        return tracker

    # ------------------------------------------------------------------
    # Offline infrastructure (lazy, built with the background prober)
    # ------------------------------------------------------------------

    def ingress_directory(self) -> IngressDirectory:
        if self._directory is None:
            directory = IngressDirectory(
                self.internet,
                self.background_prober,
                self.spoofer_addrs,
                rng=random.Random(self.seed ^ 0x16E55),
            )
            directory.survey_all()
            self._directory = directory
        return self._directory

    def vp_ranges(self):
        if self._ranges is None:
            self._ranges = survey_vp_ranges(
                self.background_prober,
                self.spoofer_addrs,
                self.internet.host_prefixes(),
            )
        return self._ranges

    def adjacency_db(self, n_traceroutes: int = 400) -> AdjacencyDatabase:
        if self._adjacency is None:
            database = AdjacencyDatabase()
            sources = self.atlas_vp_addrs + self.mlab_addrs
            destinations = self.responsive_destinations()
            database.build_ark_style(
                self.background_prober,
                sources,
                destinations,
                n_traceroutes,
                random.Random(self.seed ^ 0xAD1),
            )
            self._adjacency = database
        return self._adjacency

    # ------------------------------------------------------------------
    # Per-source bundles
    # ------------------------------------------------------------------

    def bundle_rng(self, source: Address) -> random.Random:
        """The per-source RNG every atlas build for *source* draws from.

        Centralised so the lazy :meth:`bundle` build, the atlas
        pipeline, and the ``repro atlas`` CLI verbs all select the
        same VPs for the same ``(seed, source)``.
        """
        return random.Random(
            self.seed ^ zlib.crc32(source.encode()) & 0xFFFF
        )

    def bundle(self, source: Address) -> SourceBundle:
        bundle = self._bundles.get(source)
        if bundle is None:
            atlas = TracerouteAtlas(source, max_size=self.atlas_size)
            atlas.build(
                self.background_prober,
                self.atlas_vp_addrs,
                self.bundle_rng(source),
                size=self.atlas_size,
            )
            bundle = SourceBundle(source=source, atlas=atlas)
            self._bundles[source] = bundle
        return bundle

    def rr_atlas(self, source: Address) -> RRAtlas:
        bundle = self.bundle(source)
        if bundle.rr_atlas is None:
            rr_atlas = RRAtlas(bundle.atlas)
            rr_atlas.build(self.background_prober, self.spoofer_addrs)
            bundle.rr_atlas = rr_atlas
        return bundle.rr_atlas

    def atlas_pipeline(self, shards: int = 4) -> "AtlasPipeline":
        """An :class:`AtlasPipeline` over the background prober."""
        from repro.core.atlas_pipeline import AtlasPipeline

        return AtlasPipeline(
            self.background_prober,
            self.atlas_vp_addrs,
            self.spoofer_addrs,
            shards=shards,
        )

    def adopt_atlases(
        self,
        source: Address,
        atlas: TracerouteAtlas,
        rr_atlas: Optional[RRAtlas] = None,
    ) -> SourceBundle:
        """Install externally built atlases (pipeline or snapshot) as
        *source*'s bundle, replacing any lazily built state."""
        if atlas.source != source:
            raise ValueError(
                f"atlas for {atlas.source} cannot serve source {source}"
            )
        bundle = SourceBundle(
            source=source, atlas=atlas, rr_atlas=rr_atlas
        )
        self._bundles[source] = bundle
        return bundle

    def save_atlases(self, source: Address, path: str) -> None:
        """Snapshot *source*'s bundle (atlas + RR atlas) to *path*."""
        from repro.core.atlas_pipeline import save_snapshot

        bundle = self.bundle(source)
        save_snapshot(
            path, bundle.atlas, bundle.rr_atlas, self.internet
        )

    def load_atlases(self, source: Address, path: str) -> SourceBundle:
        """Warm-start *source*'s bundle from a snapshot at *path*.

        Raises :class:`repro.core.atlas_pipeline.SnapshotError` (or
        :class:`~repro.core.atlas_pipeline.SnapshotMismatch`) when the
        file is unreadable or from a different topology/source.
        """
        from repro.core.atlas_pipeline import (
            SnapshotMismatch,
            load_snapshot,
        )

        atlas, rr_atlas = load_snapshot(path, self.internet)
        if atlas.source != source:
            raise SnapshotMismatch(
                f"snapshot holds atlases for {atlas.source}, "
                f"not {source}"
            )
        return self.adopt_atlases(source, atlas, rr_atlas)

    # ------------------------------------------------------------------
    # Engines
    # ------------------------------------------------------------------

    def service(
        self, engine_config: Optional[EngineConfig] = None
    ) -> "RevtrService":
        """The Appendix A service over this deployment: a fresh source
        registry (this scenario's seed and atlas size) and a
        :class:`~repro.service.api.RevtrService` on the online prober,
        the revtr 2.0 selector and this scenario's instrumentation."""
        from repro.service import RevtrService, SourceRegistry

        registry = SourceRegistry(
            self.internet,
            self.background_prober,
            self.atlas_vp_addrs,
            self.spoofer_addrs,
            atlas_size=self.atlas_size,
            seed=self.seed,
        )
        return RevtrService(
            prober=self.online_prober,
            registry=registry,
            selector=self.selector("revtr2.0"),
            ip2as=self.ip2as,
            relationships=self.relationships,
            resolver=self.resolver,
            engine_config=engine_config,
            instrumentation=self.obs,
        )

    def selector(self, variant: str):
        if "ingress" in variant or variant.startswith("revtr2"):
            return IngressSelector(self.ingress_directory())
        return SetCoverSelector(
            self.internet, self.vp_ranges(), self.spoofer_addrs
        )

    def engine_config(self, variant: str) -> EngineConfig:
        if variant in ("revtr2.0", "revtr2.0+TS"):
            return EngineConfig(use_timestamp=variant.endswith("+TS"))
        # revtr 1.0, the 2010 design re-implemented on the same engine
        # (§5.2.1): intersections through the offline alias dataset and
        # the /30 heuristic instead of the RR atlas, timestamp
        # adjacency tests when record route fails, symmetry always
        # assumed, no cross-measurement cache.  The Table 4 / Fig. 5c
        # ladder turns the new components on one at a time (the
        # ``+ingress`` rung is the selector, see :meth:`selector`).
        ladder = {
            "revtr1.0": (False, True),
            "revtr1.0+ingress": (False, True),
            "revtr1.0+ingress+cache": (True, True),
            "revtr1.0+ingress+cache-TS": (True, False),
        }
        if variant not in ladder:
            raise ValueError(f"unknown variant {variant!r}")
        use_cache, use_timestamp = ladder[variant]
        return EngineConfig(
            use_rr_atlas=False,
            use_alias_intersection=True,
            use_timestamp=use_timestamp,
            use_cache=use_cache,
            symmetry=SymmetryPolicy.ALWAYS,
        )

    def engine(
        self,
        source: Address,
        variant: str = "revtr2.0",
        config: Optional[EngineConfig] = None,
    ) -> RevtrEngine:
        """A fully wired engine for *variant*, cached per source."""
        bundle = self.bundle(source)
        if variant in bundle.engines and config is None:
            return bundle.engines[variant]
        engine_config = (
            config if config is not None else self.engine_config(variant)
        )
        rr_atlas = (
            self.rr_atlas(source) if engine_config.use_rr_atlas else None
        )
        adjacency = (
            self.adjacency_db() if engine_config.use_timestamp else None
        )
        segcache = None
        if engine_config.segment_cache:
            # Shared per source, like the deployed service: every
            # engine measuring toward this source amortizes the same
            # reverse segments.
            if bundle.segcache is None:
                bundle.segcache = ReverseSegmentCache(
                    self.clock, self.internet
                )
            segcache = bundle.segcache
        engine = RevtrEngine(
            prober=self.online_prober,
            source=source,
            atlas=bundle.atlas,
            selector=self.selector(variant),
            ip2as=self.ip2as,
            relationships=self.relationships,
            config=engine_config,
            rr_atlas=rr_atlas,
            resolver=self.resolver,
            adjacency=adjacency,
            cache=MeasurementCache(
                self.clock, enabled=engine_config.use_cache
            ),
            spoofers=self.spoofer_addrs,
            instrumentation=self.obs,
            segcache=segcache,
        )
        if config is None:
            bundle.engines[variant] = engine
        return engine
