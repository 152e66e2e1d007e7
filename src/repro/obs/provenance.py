"""Per-measurement provenance: from events to a decision narrative.

A :class:`ProvenanceLedger` is one measurement's slice of the flight
recorder, interpreted.  It knows the event vocabulary the instrumented
layers emit (see the table below) and renders two views: a JSON-able
:meth:`summary` (techniques used, probes spent vs. budget, cache and
atlas outcomes, fallbacks) and the human-readable :meth:`explain`
narrative behind ``repro explain <measurement-id>``.

Event kinds consumed here (all carry the measurement id):

========================  ====================================================
kind                      meaning / fields
========================  ====================================================
``measure.begin``         engine entered ``measure()``: src, dst, variant
``intersect``             atlas hit at a hop: hop, outcome=hit, via, vp,
                          index (misses are implied by the rr.step that
                          follows and synthesised by the narrative)
``intersect.refresh``     stale intersection re-measured online: hop, vp
``stitch``                atlas suffix adopted: vp, index, hops, stale
``splice``                segment-cache chain adopted: hop, hops (count),
                          to_source (implies a preceding atlas miss, like
                          ``rr.step``), full_path (whole-path fast splice
                          served before the loop -- implies no miss)
``splice.negative``       segment-cache negative hit: hop (RR skipped)
``rr.step``               record-route attempt: hop, source=cache|direct|
                          spoofed|none, technique, revealed, batches
``rr.batch``              one spoofed batch: hop, batch, vps, responses, mode
``ts.step``               timestamp adjacency test: hop, candidates, adjacent
``fallback``              assume-symmetry/fallback decision: outcome, link,
                          hop, penultimate (one event per decision)
``hops.adopted``          hops appended to the path: technique, addrs
``cache.lookup``          measurement-cache hit/expiry: kind, outcome
                          (misses are not recorded — they are the common
                          case and the step events already imply them)
``measure.end``           engine done: status, hops, duration, probes,
                          path, ping (responsiveness-check outcome; None
                          when no check ran -- the check is always the
                          first engine action, so the narrative renders
                          it as step 1 rather than spending a
                          flight-recorder record per measurement on it)
``sched.*``               scheduler transitions (submit/start/reject/retry/
                          done)
``service.request``       service-level request record: user, status
========================  ====================================================

Unknown kinds are preserved and rendered generically, so newer logs
degrade gracefully under older readers within one schema version.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.events import Event


class ProvenanceLedger:
    """One measurement's ordered decision record."""

    def __init__(self, mid: str, events: Sequence[Event]) -> None:
        self.mid = mid
        self.events = sorted(events, key=lambda event: event.seq)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_events(
        cls, events: Sequence[Event], mid: str
    ) -> "ProvenanceLedger":
        """Build from any event iterable (e.g. a JSONL export)."""
        return cls(mid, [e for e in events if e.mid == mid])

    def __len__(self) -> int:
        return len(self.events)

    # -- interpretation -------------------------------------------------

    def _first(self, kind: str) -> Optional[Event]:
        for event in self.events:
            if event.kind == kind:
                return event
        return None

    def _all(self, kind: str) -> List[Event]:
        return [e for e in self.events if e.kind == kind]

    def summary(self) -> Dict[str, Any]:
        """JSON-able rollup of the measurement's decisions."""
        begin = self._first("measure.begin")
        end = self._first("measure.end")
        # Prefer the final path's complete attribution (it survives
        # ring wraparound); fall back to mid-flight adoption events.
        techniques: Dict[str, int] = {}
        if end is not None and end.fields.get("path"):
            for _addr, technique in end.fields["path"]:
                techniques[technique] = techniques.get(technique, 0) + 1
        else:
            for event in self._all("hops.adopted"):
                technique = event.fields.get("technique", "?")
                n = len(event.fields.get("addrs", ()))
                techniques[technique] = techniques.get(technique, 0) + n
        cache: Dict[str, int] = {}
        for event in self._all("cache.lookup"):
            outcome = event.fields.get("outcome", "?")
            cache[outcome] = cache.get(outcome, 0) + 1
        # Every rr.step (and segment splice) implies a preceding atlas
        # miss (the engine only falls through after the intersection
        # failed), so misses are reconstructed instead of stored.
        hits = [
            e
            for e in self._all("intersect")
            if e.fields.get("outcome") == "hit"
        ]
        implied_misses = len(self._implied_miss_seqs())
        fallbacks: Dict[str, int] = {}
        for event in self._all("fallback"):
            outcome = event.fields.get("outcome", "?")
            fallbacks[outcome] = fallbacks.get(outcome, 0) + 1
        splice_events = self._all("splice")
        splices = {
            "chains": len(splice_events),
            "hops": sum(
                e.fields.get("hops", 0) for e in splice_events
            ),
            "negative_hits": len(self._all("splice.negative")),
        }
        out: Dict[str, Any] = {
            "mid": self.mid,
            "events": len(self.events),
            "src": begin.fields.get("src") if begin else None,
            "dst": begin.fields.get("dst") if begin else None,
            "variant": begin.fields.get("variant") if begin else None,
            "status": end.fields.get("status") if end else None,
            "hops": end.fields.get("hops") if end else None,
            "duration": end.fields.get("duration") if end else None,
            "probes": end.fields.get("probes", {}) if end else {},
            "hops_by_technique": techniques,
            "intersect_attempts": len(hits) + implied_misses,
            "intersect_hits": len(hits),
            "cache": cache,
            "fallbacks": fallbacks,
            "splices": splices,
            "spoofed_batches": len(self._all("rr.batch")),
        }
        return out

    def _implied_miss_seqs(self) -> set:
        """Seqs of events that stand in for an unrecorded atlas miss.

        Both ``rr.step`` and the ``splice``/``splice.negative`` pair
        only happen after the intersection failed at that hop.  An
        all-private splice falls through to an ``rr.step`` at the SAME
        hop — one real miss, two candidate events — so an ``rr.step``
        immediately downstream of a splice at its own hop is excluded.
        """
        seqs: set = set()
        pending_splice_hop: Optional[Any] = None
        for event in self.events:
            if event.kind in ("splice", "splice.negative"):
                # A whole-path splice short-circuits the measurement
                # loop before any intersection attempt, so it implies
                # no miss.
                if not event.fields.get("full_path"):
                    seqs.add(event.seq)
                pending_splice_hop = event.fields.get("hop")
            elif event.kind == "rr.step":
                if event.fields.get("hop") != pending_splice_hop:
                    seqs.add(event.seq)
                pending_splice_hop = None
            elif event.kind == "intersect":
                pending_splice_hop = None
        return seqs

    # -- narrative ------------------------------------------------------

    def explain(self) -> str:
        """The full decision path, one line per recorded decision."""
        if not self.events:
            return f"{self.mid}: no events recorded"
        lines: List[str] = []
        lines.extend(self._header_lines())
        lines.append("")
        lines.append("decision path:")
        step = 0
        # The ping check is chronologically the engine's first action
        # but rides on the measure.end event (no record of its own);
        # synthesise it as step 1.
        end = self._first("measure.end")
        if end is not None and end.fields.get("ping") is not None:
            step += 1
            lines.append(
                "  {0:3d}. ping check: destination {1}".format(
                    step,
                    "responsive"
                    if end.fields["ping"]
                    else "unresponsive -- giving up",
                )
            )
        miss_seqs = self._implied_miss_seqs()
        for event in self.events:
            # The engine only reaches an rr step (or a segment splice)
            # after the atlas missed; the miss is implied rather than
            # emitted, so the narrative synthesises it here.
            if event.seq in miss_seqs:
                step += 1
                hop = event.fields.get("hop", "?")
                lines.append(
                    f"  {step:3d}. atlas intersect at {hop}: miss"
                )
            rendered = self._render(event)
            if rendered is None:
                continue
            step += 1
            lines.append(f"  {step:3d}. {rendered}")
        lines.extend(self._footer_lines())
        return "\n".join(lines)

    def _header_lines(self) -> List[str]:
        begin = self._first("measure.begin")
        lines = [f"measurement {self.mid}"]
        if begin is not None:
            lines.append(
                "  reverse traceroute {src} <- {dst}  (variant {var})"
                .format(
                    src=begin.fields.get("src", "?"),
                    dst=begin.fields.get("dst", "?"),
                    var=begin.fields.get("variant", "?"),
                )
            )
        submit = self._first("sched.submit")
        if submit is not None:
            lines.append(
                "  submitted by user {user!r}".format(
                    user=submit.fields.get("user", "?")
                )
            )
        return lines

    def _footer_lines(self) -> List[str]:
        end = self._first("measure.end")
        lines: List[str] = []
        if end is not None:
            lines.append("")
            duration = end.fields.get("duration")
            lines.append(
                "outcome: {status}, {hops} hops{dur}".format(
                    status=end.fields.get("status", "?"),
                    hops=end.fields.get("hops", "?"),
                    dur=(
                        f", {duration:.3f}s sim"
                        if isinstance(duration, (int, float))
                        else ""
                    ),
                )
            )
            probes = end.fields.get("probes") or {}
            if probes:
                total = sum(probes.values())
                spent = ", ".join(
                    f"{kind}={n}" for kind, n in sorted(probes.items())
                )
                lines.append(
                    f"probe budget spent: {total} ({spent})"
                )
            path = end.fields.get("path") or []
            if path:
                lines.append("reverse path (dst -> src):")
                for index, entry in enumerate(path):
                    addr, technique = entry[0], entry[1]
                    lines.append(
                        f"  [{index:2d}] {addr:<17s} via {technique}"
                    )
        return lines

    def _render(self, event: Event) -> Optional[str]:
        f = event.fields
        kind = event.kind
        if kind == "measure.begin":
            return None  # header
        if kind == "measure.end":
            return None  # footer
        if kind == "intersect":
            if f.get("outcome") == "hit":
                return (
                    "atlas intersect at {hop}: HIT via {via} "
                    "(vp {vp}, hop index {index})".format(
                        hop=f.get("hop", "?"),
                        via=f.get("via", "?"),
                        vp=f.get("vp", "?"),
                        index=f.get("index", "?"),
                    )
                )
            return "atlas intersect at {hop}: miss".format(
                hop=f.get("hop", "?")
            )
        if kind == "intersect.refresh":
            return (
                "intersection at {hop} over age bound -- "
                "re-measuring traceroute from vp {vp}".format(
                    hop=f.get("hop", "?"), vp=f.get("vp", "?")
                )
            )
        if kind == "stitch":
            stale = " (STALE)" if f.get("stale") else ""
            return (
                "stitched {hops} atlas hops from vp {vp}{stale} -- "
                "path complete".format(
                    hops=f.get("hops", "?"),
                    vp=f.get("vp", "?"),
                    stale=stale,
                )
            )
        if kind == "splice":
            if f.get("full_path"):
                served = (
                    "whole-path splice" if f.get("to_source")
                    else "remembered abort"
                )
                return (
                    "{served} from destination {hop}: "
                    "served {hops} cached reverse hop(s), zero probes"
                    .format(
                        served=served, hop=f.get("hop", "?"),
                        hops=f.get("hops", "?"),
                    )
                )
            tail = (
                " -- path complete" if f.get("to_source") else ""
            )
            return (
                "segment splice at {hop}: adopted {hops} cached "
                "reverse hop(s){tail}".format(
                    hop=f.get("hop", "?"),
                    hops=f.get("hops", "?"),
                    tail=tail,
                )
            )
        if kind == "splice.negative":
            return (
                "segment splice at {hop}: cached negative entry -- "
                "skipping record-route".format(hop=f.get("hop", "?"))
            )
        if kind == "rr.step":
            source = f.get("source", "?")
            revealed = f.get("revealed", 0)
            hop = f.get("hop", "?")
            if source == "cache":
                return (
                    f"rr step at {hop}: cache hit, "
                    f"{revealed} hops replayed"
                )
            if source == "direct":
                return (
                    f"rr step at {hop}: direct RR responded, "
                    f"revealed {revealed} hops"
                )
            if source == "spoofed":
                return (
                    "rr step at {hop}: spoofed RR revealed "
                    "{revealed} hops after {batches} batch(es)".format(
                        hop=hop,
                        revealed=revealed,
                        batches=f.get("batches", "?"),
                    )
                )
            return (
                f"rr step at {hop}: no RR response revealed new hops"
            )
        if kind == "rr.batch":
            vps = f.get("vps") or []
            shown = ", ".join(str(v) for v in vps[:4])
            if len(vps) > 4:
                shown += f", ... ({len(vps)} total)"
            return (
                "spoofed batch #{batch} at {hop} [{mode}]: "
                "vps [{vps}], {responses} responded".format(
                    batch=f.get("batch", "?"),
                    hop=f.get("hop", "?"),
                    mode=f.get("mode", "static"),
                    vps=shown,
                    responses=f.get("responses", "?"),
                )
            )
        if kind == "ts.step":
            adjacent = f.get("adjacent")
            if adjacent:
                return (
                    "timestamp step at {hop}: {candidates} candidates, "
                    "adjacency confirmed at {adj}".format(
                        hop=f.get("hop", "?"),
                        candidates=f.get("candidates", "?"),
                        adj=adjacent,
                    )
                )
            return (
                "timestamp step at {hop}: {candidates} candidates, "
                "none adjacent".format(
                    hop=f.get("hop", "?"),
                    candidates=f.get("candidates", "?"),
                )
            )
        if kind == "fallback":
            outcome = f.get("outcome", "?")
            link = f.get("link")
            penultimate = f.get("penultimate")
            detail = {
                "adopted": (
                    f"adopted penultimate hop {penultimate}"
                    if penultimate
                    else "adopted penultimate hop"
                ),
                "adjacent-source": (
                    "hop adjacent to source -- completing"
                ),
                "dead-end": "no usable penultimate hop -- incomplete",
                "aborted-interdomain": (
                    "interdomain link under intradomain-only policy "
                    "-- aborting"
                ),
            }.get(outcome, outcome)
            suffix = f" over {link} link" if link else ""
            hop = f.get("hop")
            at = f" at {hop}" if hop else ""
            return (
                f"assume-symmetry{at} [{outcome}]: {detail}{suffix}"
            )
        if kind == "hops.adopted":
            addrs = f.get("addrs") or []
            return "adopted {n} hop(s) via {technique}: {addrs}".format(
                n=len(addrs),
                technique=f.get("technique", "?"),
                addrs=", ".join(str(a) for a in addrs),
            )
        if kind == "cache.lookup":
            return "cache lookup [{kind}]: {outcome}".format(
                kind=f.get("kind", "?"),
                outcome=f.get("outcome", "?"),
            )
        if kind.startswith("sched."):
            what = kind.split(".", 1)[1]
            detail = ", ".join(
                f"{k}={v}" for k, v in sorted(f.items())
            )
            return f"scheduler {what}: {detail}" if detail else (
                f"scheduler {what}"
            )
        if kind == "service.request":
            return (
                "service request by {user!r}: status={status}".format(
                    user=f.get("user", "?"),
                    status=f.get("status", "?"),
                )
            )
        # Unknown kind: render generically rather than dropping it.
        detail = ", ".join(f"{k}={v}" for k, v in sorted(f.items()))
        return f"{kind}: {detail}" if detail else kind
