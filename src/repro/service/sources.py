"""Source registration and bootstrap (Appendix A).

Adding a source to the open system runs a bootstrap: verify the host
can receive record-route packets, build its traceroute atlas from
RIPE-Atlas-style vantage points (Q1), and probe the atlas hops with RR
toward the source to seed the intersection aliases (Q2). In the paper
this takes about 15 minutes, dominated by the RIPE Atlas traceroutes.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.atlas import TracerouteAtlas
from repro.core.rr_atlas import RRAtlas
from repro.net.addr import Address
from repro.probing.prober import Prober
from repro.sim.network import Internet


class BootstrapError(Exception):
    """The source could not be bootstrapped."""


def build_atlas(
    prober: Prober,
    source: Address,
    atlas_vps: Sequence[Address],
    atlas_size: int,
    seed: int,
) -> Tuple[TracerouteAtlas, random.Random]:
    """*source*'s atlas, drawn from a stream seeded by ``(seed, source)``
    alone - the same whichever sources were drawn before it - and that
    stream, which the source's refreshes continue."""
    rng = random.Random(seed ^ zlib.crc32(source.encode()) & 0xFFFF)
    atlas = TracerouteAtlas(source, max_size=atlas_size)
    atlas.build(prober, atlas_vps, rng)
    return atlas, rng


@dataclass
class BootstrapReport:
    """What the bootstrap process measured and built."""

    source: Address
    atlas_size: int
    rr_atlas_aliases: int
    duration: float


@dataclass
class RegisteredSource:
    """A source available for reverse traceroute measurements."""

    addr: Address
    atlas: TracerouteAtlas
    rr_atlas: RRAtlas
    report: BootstrapReport
    #: the source's own atlas stream, continued by each refresh
    rng: random.Random


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
        self.seed = seed
        self.sources: Dict[Address, RegisteredSource] = {}

    def register(self, addr: Address) -> RegisteredSource:
        """Bootstrap and register *addr* as a source, once.

        Raises :class:`BootstrapError` if the host cannot receive
        record-route packets (the bootstrap's first check), and
        ``ValueError`` if *addr* is already registered.
        """
        if addr in self.sources:
            raise ValueError(f"source {addr} already registered")
        if addr not in self.internet.hosts:
            raise BootstrapError(f"unknown host {addr}")
        started = self.prober.clock.now()

        if not self._check_rr_receivable(addr):
            raise BootstrapError(
                f"source {addr} cannot receive record-route packets"
            )

        atlas, rng = build_atlas(
            self.prober, addr, self.atlas_vps, self.atlas_size, self.seed
        )
        rr_atlas = RRAtlas(atlas)
        rr_atlas.build(self.prober, self.spoofer_vps)

        registered = RegisteredSource(
            addr=addr,
            atlas=atlas,
            rr_atlas=rr_atlas,
            report=BootstrapReport(
                source=addr,
                atlas_size=len(atlas),
                rr_atlas_aliases=len(rr_atlas),
                duration=self.prober.clock.now() - started,
            ),
            rng=rng,
        )
        self.sources[addr] = registered
        return registered

    def _check_rr_receivable(self, addr: Address) -> bool:
        """Can the source see RR options? Probe it from a spoofer."""
        if not self.spoofer_vps:
            return False
        result = self.prober.rr_ping(self.spoofer_vps[0], addr)
        return result.responded

    def refresh_atlas(self, addr: Address) -> int:
        """Daily atlas refresh for a registered source (Q1 policy)."""
        registered = self.sources.get(addr)
        if registered is None:
            raise KeyError(f"source {addr} not registered")
        return registered.atlas.refresh(
            self.prober, self.atlas_vps, registered.rng
        )
