"""Vantage point abstractions.

Two populations, mirroring the paper's deployment:

* :class:`MLabSite` — spoof-capable record-route vantage points hosted
  in well-connected facilities; these issue the (spoofed) RR and TS
  probes of the revtr machinery.
* :class:`AtlasProbe` — traceroute-only probes with severe rate limits;
  these build the traceroute atlas (Q1) and serve as the destinations
  of the §5.2 evaluation (they can run the "direct traceroute" used as
  approximate ground truth).

:class:`VPHealthTracker` layers liveness bookkeeping on top: the
deployed system constantly loses and regains vantage points, so the
tracker quarantines a VP after a streak of consecutive non-responses
and backfills spoofed batches from the healthy remainder, releasing the
VP once its quarantine window expires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.net.addr import Address
from repro.obs.instrument import NULL
from repro.sim.network import Internet

#: Consecutive spoofed-batch non-responses that quarantine a VP.
QUARANTINE_STREAK = 3

#: How long a quarantine lasts, in virtual seconds.
QUARANTINE_SECONDS = 900.0


@dataclass(frozen=True)
class MLabSite:
    """A spoof-capable vantage point (one host at an M-Lab-like site)."""

    addr: Address
    asn: int
    can_spoof: bool
    name: str = ""


@dataclass(frozen=True)
class AtlasProbe:
    """A traceroute-only probe (RIPE-Atlas-like)."""

    addr: Address
    asn: int


class VantagePointPool:
    """The measurement infrastructure discovered from an Internet."""

    def __init__(self, internet: Internet) -> None:
        self.internet = internet
        self.mlab_sites: List[MLabSite] = []
        self.atlas_probes: List[AtlasProbe] = []
        self._by_addr: Dict[Address, MLabSite] = {}
        for index, addr in enumerate(internet.mlab_hosts):
            host = internet.hosts[addr]
            node = internet.graph.nodes[host.asn]
            site = MLabSite(
                addr=addr,
                asn=host.asn,
                can_spoof=node.allows_spoofing,
                name=f"mlab{index:02d}",
            )
            self.mlab_sites.append(site)
            self._by_addr[addr] = site
        for addr in internet.atlas_hosts:
            host = internet.hosts[addr]
            self.atlas_probes.append(
                AtlasProbe(addr=addr, asn=host.asn)
            )

    def spoofers(self) -> List[MLabSite]:
        """M-Lab sites whose hosting network permits spoofing."""
        return [site for site in self.mlab_sites if site.can_spoof]

    def site_of(self, addr: Address) -> Optional[MLabSite]:
        return self._by_addr.get(addr)

    def mlab_addresses(self) -> List[Address]:
        return [site.addr for site in self.mlab_sites]

    def atlas_addresses(self) -> List[Address]:
        return [probe.addr for probe in self.atlas_probes]


class VPHealthTracker:
    """Quarantine flapping vantage points; backfill spoofed batches.

    A VP that fails to answer `QUARANTINE_STREAK` consecutive
    spoofed-batch rounds is quarantined for `QUARANTINE_SECONDS` of
    virtual time.  While quarantined it is filtered out of batches
    (and replaced from the healthy candidate fleet, keeping batch
    sizes up); a stale quarantine is released on the next membership
    check, counting a recovery.  Optional: a prober only consults a
    tracker when one is installed, so fault-free runs are untouched.
    """

    def __init__(self, clock, instrumentation=None) -> None:
        self.clock = clock
        self.obs = instrumentation if instrumentation is not None else NULL
        #: consecutive non-responses per VP
        self._streak: Dict[Address, int] = {}
        #: vp -> virtual time its quarantine lifts
        self._until: Dict[Address, float] = {}
        self.quarantines = 0
        self.recoveries = 0
        self.replacements = 0
        if self.obs.enabled:
            self.obs.register_collect_source(self._obs_collect)

    def _in_force(self) -> List[Address]:
        """The VPs whose quarantine has not lifted.  An expired entry
        stays in ``_until`` until `is_quarantined` next asks about its
        VP, so every reader of "quarantined now" filters here."""
        now = self.clock.now()
        return [vp for vp, until in self._until.items() if until > now]

    def _obs_collect(self) -> Dict:
        return {
            ("vp_quarantines_total", ()): float(self.quarantines),
            ("vp_replacements_total", ()): float(self.replacements),
            ("vp_quarantined_current", ()): float(len(self._in_force())),
        }

    def record(self, vp: Address, responded: bool) -> None:
        """Account one spoofed-batch outcome for *vp*."""
        if responded:
            self._streak[vp] = 0
            return
        streak = self._streak.get(vp, 0) + 1
        self._streak[vp] = streak
        if streak >= QUARANTINE_STREAK and vp not in self._until:
            self._until[vp] = self.clock.now() + QUARANTINE_SECONDS
            self._streak[vp] = 0
            self.quarantines += 1
            if self.obs.enabled:
                self.obs.emit(
                    "degrade.quarantine",
                    vp=str(vp),
                    until=self._until[vp],
                )

    def is_quarantined(self, vp: Address) -> bool:
        until = self._until.get(vp)
        if until is None:
            return False
        if self.clock.now() >= until:
            del self._until[vp]
            self.recoveries += 1
            if self.obs.enabled:
                self.obs.emit("degrade.requalify", vp=str(vp))
            return False
        return True

    def filter_batch(
        self,
        batch: Sequence[Address],
        candidates: Sequence[Address],
        exclude: Iterable[Address] = (),
    ) -> Tuple[List[Address], int]:
        """Drop quarantined VPs from *batch*, topping up from
        *candidates* (first healthy not already used); returns the
        adjusted batch and how many replacements were drafted."""
        kept = [vp for vp in batch if not self.is_quarantined(vp)]
        missing = len(batch) - len(kept)
        replaced = 0
        if missing:
            used = set(batch) | set(exclude)
            for vp in candidates:
                if replaced >= missing:
                    break
                if vp in used or self.is_quarantined(vp):
                    continue
                kept.append(vp)
                used.add(vp)
                replaced += 1
            self.replacements += replaced
        return kept, replaced

    def snapshot(self) -> Dict[str, object]:
        """JSON-able tallies (``repro health`` output)."""
        return {
            "quarantines": self.quarantines,
            "recoveries": self.recoveries,
            "replacements": self.replacements,
            "quarantined_now": sorted(str(vp) for vp in self._in_force()),
        }
