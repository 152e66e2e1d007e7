"""Source registration and bootstrap (Appendix A).

Adding a source to the open system runs a bootstrap: verify the host
can receive record-route packets, build its traceroute atlas from
RIPE-Atlas-style vantage points (Q1), and probe the atlas hops with RR
toward the source to seed the intersection aliases (Q2). In the paper
this takes about 15 minutes, dominated by the RIPE Atlas traceroutes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.atlas import TracerouteAtlas
from repro.core.rr_atlas import RRAtlas
from repro.net.addr import Address
from repro.probing.prober import Prober
from repro.sim.network import Internet


class BootstrapError(Exception):
    """The source could not be bootstrapped."""


@dataclass
class BootstrapReport:
    """What the bootstrap process measured and built."""

    source: Address
    rr_receivable: bool
    atlas_size: int
    rr_atlas_aliases: int
    duration: float


@dataclass
class RegisteredSource:
    """A source available for reverse traceroute measurements."""

    addr: Address
    owner: str
    serves_as_vantage_point: bool
    atlas: TracerouteAtlas
    rr_atlas: RRAtlas
    report: BootstrapReport


class SourceRegistry:
    """Registers and bootstraps reverse-traceroute sources."""

    def __init__(
        self,
        internet: Internet,
        prober: Prober,
        atlas_vps: Sequence[Address],
        spoofer_vps: Sequence[Address],
        atlas_size: int = 40,
        seed: int = 0,
    ) -> None:
        self.internet = internet
        self.prober = prober
        self.atlas_vps = list(atlas_vps)
        self.spoofer_vps = list(spoofer_vps)
        self.atlas_size = atlas_size
        self._rng = random.Random(seed ^ 0x50BC)
        self.sources: Dict[Address, RegisteredSource] = {}
        #: callables invoked with the address after every (re-)register
        self._listeners: List = []

    def subscribe(self, listener) -> None:
        """Call *listener(addr)* whenever a source is (re-)registered.

        The service layer uses this to drop engines built against an
        atlas that a re-registration just rebuilt.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def register(
        self,
        addr: Address,
        owner: str,
        serves_as_vantage_point: bool = False,
        replace: bool = False,
    ) -> RegisteredSource:
        """Bootstrap and register *addr* as a source.

        Raises :class:`BootstrapError` if the host cannot receive
        record-route packets (the bootstrap's first check).  Passing
        ``replace=True`` re-bootstraps an already-registered address
        with a fresh atlas and RR atlas; subscribed listeners are
        notified so stale per-source state (cached engines) is
        invalidated.
        """
        if addr in self.sources and not replace:
            raise ValueError(f"source {addr} already registered")
        if addr not in self.internet.hosts:
            raise BootstrapError(f"unknown host {addr}")
        started = self.prober.clock.now()

        rr_ok = self._check_rr_receivable(addr)
        if not rr_ok:
            raise BootstrapError(
                f"source {addr} cannot receive record-route packets"
            )

        atlas = TracerouteAtlas(addr, max_size=self.atlas_size)
        atlas.build(
            self.prober, self.atlas_vps, self._rng, size=self.atlas_size
        )
        rr_atlas = RRAtlas(atlas)
        rr_atlas.build(self.prober, self.spoofer_vps)

        report = BootstrapReport(
            source=addr,
            rr_receivable=True,
            atlas_size=len(atlas),
            rr_atlas_aliases=len(rr_atlas),
            duration=self.prober.clock.now() - started,
        )
        registered = RegisteredSource(
            addr=addr,
            owner=owner,
            serves_as_vantage_point=serves_as_vantage_point,
            atlas=atlas,
            rr_atlas=rr_atlas,
            report=report,
        )
        self.sources[addr] = registered
        for listener in list(self._listeners):
            listener(addr)
        return registered

    def _check_rr_receivable(self, addr: Address) -> bool:
        """Can the source see RR options? Probe it from a spoofer."""
        if not self.spoofer_vps:
            return False
        result = self.prober.rr_ping(self.spoofer_vps[0], addr)
        return result.responded

    def refresh_atlas(
        self, addr: Address, incremental: bool = False
    ) -> int:
        """Daily atlas refresh for a registered source (Q1 policy).

        ``incremental=True`` applies the generation-keyed skip: kept
        traceroutes measured under the current routing generation and
        inside the staleness budget are not re-probed.
        """
        registered = self.sources.get(addr)
        if registered is None:
            raise KeyError(f"source {addr} not registered")
        return registered.atlas.refresh(
            self.prober,
            self.atlas_vps,
            self._rng,
            incremental=incremental,
        )
