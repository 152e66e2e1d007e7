"""Vantage-point selection for spoofed record route (design question Q3).

revtr 2.0's insight (1.8): a BGP prefix has a fixed set of ingress
routers; all vantage points sharing an ingress see the same path from
the ingress to any destination in the prefix, so it suffices to probe
from the *closest VP to each ingress*. This module implements:

* the weekly offline survey that discovers per-prefix ingresses by
  RR-probing two destinations per prefix from every VP (§4.3), with
  the Appendix C double-stamp and loop heuristics for non-stamping
  destinations;
* greedy set cover to choose ingresses that cover the VPs;
* the online :class:`IngressSelector` that yields ordered batches of
  three VPs;
* the two baselines of §5.3: :class:`SetCoverSelector` (revtr 1.0's
  destination set cover) and :class:`GlobalOrderSelector` (VPs ranked
  by global range counts).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.net.addr import Address, Prefix
from repro.net.options import RecordRouteOption
from repro.probing.prober import Prober, RRPingResult
from repro.sim.network import Internet, PrefixInfo

#: Batch size for online spoofed probing (§5.3: 3 is the sweet spot).
DEFAULT_BATCH_SIZE = 3

#: Give up on an ingress after this many failed VPs in a row (§4.3).
MAX_VPS_PER_INGRESS = 5


@dataclass
class IngressInfo:
    """One discovered ingress of a BGP prefix."""

    addr: Address
    #: VPs whose paths into the prefix traverse this ingress,
    #: ordered by RR-hop distance to the ingress (closest first).
    vps: List[Address] = field(default_factory=list)
    #: distance of each VP to the ingress (parallel to ``vps``)
    distances: List[int] = field(default_factory=list)

    def coverage(self) -> int:
        return len(self.vps)


@dataclass
class PrefixSurvey:
    """Everything the weekly survey learned about one prefix."""

    prefix: Prefix
    destinations: List[Address]
    ingresses: List[IngressInfo] = field(default_factory=list)
    #: VP -> best RR distance at which it reached a destination
    in_range: Dict[Address, int] = field(default_factory=dict)
    #: VP -> mean distance over the probed destinations
    mean_distance: Dict[Address, float] = field(default_factory=dict)

    def fallback_order(self) -> List[Address]:
        """VPs within range ranked by mean distance (no-ingress case)."""
        return sorted(self.in_range, key=lambda vp: self.mean_distance[vp])


class IngressDirectory:
    """The offline ingress survey and its online query side."""

    def __init__(
        self,
        internet: Internet,
        prober: Prober,
        vp_addrs: Sequence[Address],
        rng: Optional[random.Random] = None,
        use_double_stamp: bool = True,
        use_loop: bool = True,
    ) -> None:
        self.internet = internet
        self.prober = prober
        self.vp_addrs = list(vp_addrs)
        self.rng = rng if rng is not None else random.Random(0)
        self.use_double_stamp = use_double_stamp
        self.use_loop = use_loop
        self.surveys: Dict[Prefix, PrefixSurvey] = {}

    # ------------------------------------------------------------------
    # Offline survey
    # ------------------------------------------------------------------

    def survey_all(
        self, prefixes: Optional[Iterable[PrefixInfo]] = None
    ) -> None:
        """Survey every host prefix (the weekly background run)."""
        if prefixes is None:
            prefixes = self.internet.host_prefixes()
        for info in prefixes:
            survey = self.survey_prefix(info)
            if survey is not None:
                self.surveys[info.prefix] = survey

    def survey_prefix(self, info: PrefixInfo) -> Optional[PrefixSurvey]:
        """Probe two destinations of the prefix from every VP."""
        destinations = self._pick_destinations(info, count=2)
        if len(destinations) < 2:
            return None
        survey = PrefixSurvey(prefix=info.prefix, destinations=destinations)

        forward_paths: Dict[Address, List[Optional[List[Address]]]] = {}
        for vp in self.vp_addrs:
            paths: List[Optional[List[Address]]] = []
            distances: List[int] = []
            for dst in destinations:
                result = self.prober.rr_ping(vp, dst)
                paths.append(self._candidate_path(result, info.prefix))
                distance = None
                if result.responded:
                    index = result.destination_stamp_index(
                        use_double_stamp=self.use_double_stamp
                    )
                    if index is not None:
                        distance = index + 1
                if distance is not None and distance <= 8:
                    distances.append(distance)
            forward_paths[vp] = paths
            if distances:
                survey.in_range[vp] = min(distances)
                survey.mean_distance[vp] = sum(distances) / len(distances)

        candidates = self._ingress_candidates(forward_paths)
        survey.ingresses = self._set_cover(candidates, forward_paths)
        return survey

    def _pick_destinations(
        self, info: PrefixInfo, count: int
    ) -> List[Address]:
        """Find RR-responsive destinations, like the ISI-hitlist step."""
        picked: List[Address] = []
        probe_vp = self.vp_addrs[0] if self.vp_addrs else None
        if probe_vp is None:
            return picked
        for addr in sorted(info.hosts):
            result = self.prober.rr_ping(probe_vp, addr)
            if result.responded:
                picked.append(addr)
            if len(picked) >= count:
                break
        return picked

    def _candidate_path(
        self, result: RRPingResult, prefix: Prefix
    ) -> Optional[List[Address]]:
        """Forward-path addresses usable as ingress candidates.

        Truncated at the first address inside the destination prefix
        (inclusive). Falls back to the Appendix C loop heuristic when
        the destination did not stamp.
        """
        if not result.responded:
            return None
        index = result.destination_stamp_index(
            use_double_stamp=self.use_double_stamp
        )
        if index is not None:
            path = result.slots[: index + 1]
        elif self.use_loop:
            option = RecordRouteOption(list(result.slots))
            interior = option.loop_interior()
            if not interior:
                return None
            path = interior
        else:
            return None
        truncated: List[Address] = []
        for addr in path:
            truncated.append(addr)
            if prefix.contains(addr):
                break
        return truncated

    @staticmethod
    def _ingress_candidates(
        forward_paths: Dict[Address, List[Optional[List[Address]]]],
    ) -> Dict[Address, Set[Address]]:
        """Candidate ingresses per VP: addresses on *both* paths."""
        candidates: Dict[Address, Set[Address]] = {}
        for vp, paths in forward_paths.items():
            usable = [set(p) for p in paths if p]
            if len(usable) < 2:
                continue
            common = usable[0] & usable[1]
            if common:
                candidates[vp] = common
        return candidates

    def _set_cover(
        self,
        candidates: Dict[Address, Set[Address]],
        forward_paths: Dict[Address, List[Optional[List[Address]]]],
    ) -> List[IngressInfo]:
        """Greedy cover of VPs by candidate ingress addresses (§4.3)."""
        uncovered = set(candidates)
        by_ingress: Dict[Address, Set[Address]] = {}
        for vp, addrs in candidates.items():
            for addr in addrs:
                by_ingress.setdefault(addr, set()).add(vp)

        chosen: List[IngressInfo] = []
        while uncovered:
            best_count = 0
            tied: List[Address] = []
            for addr, vps in by_ingress.items():
                count = len(vps & uncovered)
                if count > best_count:
                    best_count, tied = count, [addr]
                elif count == best_count and count > 0:
                    tied.append(addr)
            if not tied:
                break
            pick = self.rng.choice(sorted(tied))
            covered = by_ingress[pick] & uncovered
            info = IngressInfo(addr=pick)
            ranked = sorted(
                covered,
                key=lambda vp: (
                    self._distance_to(forward_paths[vp], pick),
                    vp,
                ),
            )
            for vp in ranked:
                info.vps.append(vp)
                info.distances.append(
                    self._distance_to(forward_paths[vp], pick)
                )
            chosen.append(info)
            uncovered -= covered
        chosen.sort(key=lambda info: -info.coverage())
        return chosen

    @staticmethod
    def _distance_to(
        paths: List[Optional[List[Address]]], ingress: Address
    ) -> int:
        for path in paths:
            if path and ingress in path:
                return path.index(ingress) + 1
        return 1 << 10

    # ------------------------------------------------------------------
    # Online queries
    # ------------------------------------------------------------------

    def survey_for(self, addr: Address) -> Optional[PrefixSurvey]:
        prefix = self.internet.prefix_table.lookup_prefix(addr)
        if prefix is None:
            return None
        return self.surveys.get(prefix)

    def vp_order_for(self, addr: Address) -> List[Address]:
        """The §4.3 VP order: closest VP per ingress, by coverage;
        then backup VPs; then the fallback ranking."""
        survey = self.survey_for(addr)
        if survey is None:
            return []
        order: List[Address] = []
        seen: Set[Address] = set()
        if survey.ingresses:
            # Round-robin over ingresses: rank r of every ingress, then
            # rank r+1, capped at MAX_VPS_PER_INGRESS per ingress.
            for rank in range(MAX_VPS_PER_INGRESS):
                for ingress in survey.ingresses:
                    if rank < len(ingress.vps):
                        vp = ingress.vps[rank]
                        if vp not in seen:
                            order.append(vp)
                            seen.add(vp)
        for vp in survey.fallback_order():
            if vp not in seen:
                order.append(vp)
                seen.add(vp)
        return order


# ----------------------------------------------------------------------
# Selectors
# ----------------------------------------------------------------------


class IngressSelector:
    """revtr 2.0's online VP selection, batched."""

    def __init__(
        self,
        directory: IngressDirectory,
    ) -> None:
        self.directory = directory

    def batches(self, dst: Address) -> List[List[Address]]:
        order = self.directory.vp_order_for(dst)
        return _chunk(order, DEFAULT_BATCH_SIZE)

    def session(self, dst: Address) -> "IngressProbeSession":
        """A stateful probing session with ingress feedback (§4.3)."""
        return IngressProbeSession(self.directory.survey_for(dst))


def survey_vp_ranges(
    prober: Prober,
    vp_addrs: Sequence[Address],
    prefixes: Iterable[PrefixInfo],
    dests_per_prefix: int = 20,
) -> Dict[Prefix, Dict[Address, int]]:
    """Background range survey used by the revtr 1.0 baselines.

    Probes up to *dests_per_prefix* destinations in each prefix from
    every VP — the measurement-hungry approach that ate 20% of
    revtr 1.0's probing budget (Insight 1.8's "whereas" clause).
    """
    ranges: Dict[Prefix, Dict[Address, int]] = {}
    for info in prefixes:
        targets = sorted(info.hosts)[:dests_per_prefix]
        if not targets:
            continue
        per_vp: Dict[Address, int] = {}
        for vp in vp_addrs:
            best: Optional[int] = None
            for dst in targets:
                result = prober.rr_ping(vp, dst)
                distance = result.distance() if result.responded else None
                if distance is not None and distance <= 8:
                    if best is None or distance < best:
                        best = distance
            if best is not None:
                per_vp[vp] = best
        ranges[info.prefix] = per_vp
    return ranges


class SetCoverSelector:
    """revtr 1.0's selection: greedy set cover over prefixes in range.

    The cover yields one *global* VP order (the 2010 system had no
    per-destination closeness knowledge); every destination gets the
    same batches, tried until one reveals a reverse hop — which is why
    revtr 1.0 burns through many more spoofers per prefix (Fig. 6c).
    """

    def __init__(
        self,
        internet: Internet,
        ranges: Dict[Prefix, Dict[Address, int]],
        vp_addrs: Sequence[Address],
    ) -> None:
        self.internet = internet
        self.ranges = ranges
        self.vp_addrs = list(vp_addrs)
        self._cover_order = self._greedy_cover()

    def _greedy_cover(self) -> List[Address]:
        remaining: Dict[Address, Set[Prefix]] = {
            vp: set() for vp in self.vp_addrs
        }
        for prefix, per_vp in self.ranges.items():
            for vp in per_vp:
                if vp in remaining:
                    remaining[vp].add(prefix)
        order: List[Address] = []
        uncovered: Set[Prefix] = set().union(*remaining.values()) if remaining else set()
        pool = dict(remaining)
        while pool:
            vp = max(
                sorted(pool), key=lambda v: len(pool[v] & uncovered)
            )
            order.append(vp)
            uncovered -= pool.pop(vp)
        return order

    def batches(self, dst: Address) -> List[List[Address]]:
        return _chunk(self._cover_order, DEFAULT_BATCH_SIZE)


class GlobalOrderSelector:
    """The "Global" baseline of §5.3: VPs ranked once by the number of
    prefixes they are in range of, same order for every destination."""

    def __init__(
        self,
        ranges: Dict[Prefix, Dict[Address, int]],
        vp_addrs: Sequence[Address],
    ) -> None:
        counts = {vp: 0 for vp in vp_addrs}
        for per_vp in ranges.values():
            for vp in per_vp:
                if vp in counts:
                    counts[vp] += 1
        self._order = sorted(counts, key=lambda vp: (-counts[vp], vp))

    def batches(self, dst: Address) -> List[List[Address]]:
        return _chunk(self._order, DEFAULT_BATCH_SIZE)


def _chunk(items: Sequence[Address], size: int) -> List[List[Address]]:
    return [
        list(items[i : i + size]) for i in range(0, len(items), size)
    ]


class IngressProbeSession:
    """Stateful per-destination probing session (§4.3's feedback loop).

    The static order assumes every vantage point still enters the
    prefix through the ingress the weekly survey saw. When a spoofed
    measurement does *not* traverse the expected ingress, the session
    substitutes the next-closest VP for that ingress; after
    ``MAX_VPS_PER_INGRESS`` consecutive failures the ingress is
    abandoned. Exhausting all ingresses falls back to the survey's
    distance ranking.
    """

    def __init__(self, survey: Optional[PrefixSurvey]) -> None:
        #: per-ingress pending VP queues, in coverage order
        self._queues: List[List[Address]] = []
        self._ingress_addr: List[Address] = []
        self._failures: List[int] = []
        #: ingress definitively tested: a probe traversed it, so by
        #: destination-based routing further VPs through it are
        #: redundant ("all ingresses have been tested", §4.3)
        self._done: List[bool] = []
        self._fallback: List[Address] = []
        self._emitted: Set[Address] = set()
        if survey is not None:
            for ingress in survey.ingresses:
                self._queues.append(list(ingress.vps))
                self._ingress_addr.append(ingress.addr)
                self._failures.append(0)
                self._done.append(False)
            self._fallback = survey.fallback_order()
        #: vp -> queue index, for feedback routing
        self._vp_queue: Dict[Address, int] = {}

    def next_batch(self) -> List[Address]:
        """The next batch of VPs to try (empty when exhausted)."""
        batch: List[Address] = []
        for index, queue in enumerate(self._queues):
            if len(batch) >= DEFAULT_BATCH_SIZE:
                break
            if (
                self._done[index]
                or self._failures[index] >= MAX_VPS_PER_INGRESS
            ):
                continue
            while queue:
                vp = queue.pop(0)
                if vp in self._emitted:
                    continue
                batch.append(vp)
                self._emitted.add(vp)
                self._vp_queue[vp] = index
                break
        while len(batch) < DEFAULT_BATCH_SIZE and self._fallback:
            vp = self._fallback.pop(0)
            if vp in self._emitted:
                continue
            batch.append(vp)
            self._emitted.add(vp)
        return batch

    def observe(self, vp: Address, slots: Sequence[Address]) -> None:
        """Report a measurement's recorded slots for feedback.

        If the probe from *vp* did not traverse the ingress it was
        chosen for, count a failure against that ingress — its next
        closest VP will be tried in a later batch (§4.3).
        """
        index = self._vp_queue.get(vp)
        if index is None:
            return
        expected = self._ingress_addr[index]
        if expected in slots:
            # The ingress was traversed: it has been tested. Whatever
            # reverse hops this probe revealed is what any VP through
            # this ingress would reveal (destination-based routing).
            self._done[index] = True
            self._failures[index] = 0
        else:
            self._failures[index] += 1
