"""Deterministic fault injection for the simulated Internet.

The deployed system survives lossy paths, ICMP rate-limited routers,
and flapping vantage points every day; this module makes those fault
classes injectable into the simulation so the failure-handling branches
of the measurement machinery run under real adversity — reproducibly.

A :class:`FaultPlan` is a seeded list of timed :class:`FaultSpec`
windows.  A :class:`FaultInjector` binds the plan to the virtual clock
and is installed on :class:`~repro.sim.network.Internet` (see
``Internet.faults``); the packet walker consults it at three points:

* **injection** — vantage-point outages and spoofed-batch black-holes
  drop the probe before it enters the network;
* **link traversal** — packet loss on (all or selected) router links:
  each matching crossing takes the next uniform from the injector's own
  stream, seeded by the plan, so the same plan over the same workload
  drops exactly the same packets, while a *retry* of a lost probe takes
  a later draw and can succeed;
* **response generation** — ICMP filtering and rate limiting at
  routers suppress echo replies and turn TTL-expired replies into
  anonymous (``None``) traceroute hops, exactly how rate limiting
  looks to a real traceroute.

Determinism guarantees:

* With ``Internet.faults`` left ``None`` — or installed with an empty
  plan — every hook is a no-op and measurement outputs are
  byte-identical to a build without this module (enforced by test).
* With a non-empty plan, outcomes are a pure function of
  ``(plan, seed, workload)``: no wall clock, and the one random stream
  is the injector's own ``random.Random(plan.seed)``, never the global
  ``random``.
  Saving a plan with :meth:`FaultPlan.to_json` and replaying it via
  ``repro health --plan`` reproduces a run bit-for-bit.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.addr import Address

#: Fault classes the injector understands.
FAULT_KINDS = (
    "link-loss",
    "router-rate-limit",
    "router-filter",
    "vp-outage",
    "spoof-blackhole",
)

#: Named scenario presets accepted by ``preset_plan`` / ``repro health``.
PRESETS = ("none", "loss", "rate-limit", "vp-flap", "blackhole", "mixed")


@dataclass(frozen=True)
class FaultSpec:
    """One timed fault window.

    Targeting fields are interpreted per kind: ``links`` (unordered
    router-id pairs) for ``link-loss``, ``routers`` for
    ``router-rate-limit`` / ``router-filter``, ``vps`` (injection
    addresses) for ``vp-outage``, ``dsts`` for ``spoof-blackhole``.
    An empty target set means *every* link / router / destination;
    ``vp-outage`` requires an explicit ``vps`` list (there is no
    registry of "all VPs" at this layer).
    """

    kind: str
    start: float = 0.0
    #: end of the window (virtual seconds); ``None`` = never lifts
    end: Optional[float] = None
    routers: Tuple[int, ...] = ()
    links: Tuple[Tuple[int, int], ...] = ()
    vps: Tuple[Address, ...] = ()
    dsts: Tuple[Address, ...] = ()
    #: drop probability per link traversal (``link-loss``)
    rate: float = 1.0
    #: replies granted per router per window (``router-rate-limit``)
    limit: int = 0
    #: rate-limit accounting window (virtual seconds)
    window: float = 10.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} "
                f"(expected one of {', '.join(FAULT_KINDS)})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.end is not None and self.end <= self.start:
            raise ValueError("end must be > start")
        if self.window <= 0:
            raise ValueError("window must be > 0")
        if self.limit < 0:
            raise ValueError("limit must be >= 0")
        if self.kind == "vp-outage" and not self.vps:
            raise ValueError("vp-outage needs an explicit vps list")
        # Normalize sequence fields so from_dict(to_dict(s)) == s.
        object.__setattr__(self, "routers", tuple(self.routers))
        object.__setattr__(
            self, "links", tuple(tuple(pair) for pair in self.links)
        )
        object.__setattr__(self, "vps", tuple(self.vps))
        object.__setattr__(self, "dsts", tuple(self.dsts))

    def active(self, now: float) -> bool:
        if now < self.start:
            return False
        return self.end is None or now < self.end

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {"kind": self.kind, "start": self.start}
        if self.end is not None:
            doc["end"] = self.end
        if self.routers:
            doc["routers"] = list(self.routers)
        if self.links:
            doc["links"] = [list(pair) for pair in self.links]
        if self.vps:
            doc["vps"] = list(self.vps)
        if self.dsts:
            doc["dsts"] = list(self.dsts)
        if self.kind == "link-loss":
            doc["rate"] = self.rate
        if self.kind == "router-rate-limit":
            doc["limit"] = self.limit
            doc["window"] = self.window
        if self.label:
            doc["label"] = self.label
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "FaultSpec":
        """The spec a :meth:`to_dict` document describes.  Plans come
        from files, so a field of the wrong shape is refused with
        :class:`ValueError`, never coerced."""
        if "kind" not in doc:
            raise ValueError("fault spec lacks the required field 'kind'")
        return cls(
            kind=doc["kind"],  # type: ignore[arg-type]
            start=_number(doc, "start", 0.0),
            end=None if doc.get("end") is None else _number(doc, "end", 0),
            routers=_list_of(doc, "routers", _is_int, "router ids"),
            links=_list_of(doc, "links", _is_link, "id pairs"),
            vps=_list_of(doc, "vps", _is_str, "addresses"),
            dsts=_list_of(doc, "dsts", _is_str, "addresses"),
            rate=_number(doc, "rate", 1.0),
            limit=_integer(doc, "limit", 0),
            window=_number(doc, "window", 10.0),
            label=_field(doc, "label", "", _is_str, "a string"),
        )


def _is_str(value: object) -> bool:
    return isinstance(value, str)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_link(value: object) -> bool:
    return (
        isinstance(value, list) and len(value) == 2
        and all(map(_is_int, value))
    )


def _is_number(value: object) -> bool:
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _field(doc, name: str, default, test, what: str):
    """*doc*'s *name* (or *default*), refused unless it passes *test*."""
    value = doc.get(name, default)
    if not test(value):
        raise ValueError(f"fault field {name!r} is {value!r}, not {what}")
    return value


def _number(doc, name: str, default: float) -> float:
    return float(_field(doc, name, default, _is_number, "a finite number"))


def _integer(doc, name: str, default: int) -> int:
    return int(
        _field(
            doc, name, default,
            lambda value: _is_number(value) and value == int(value),
            "an integer",
        )
    )


def _list_of(doc, name: str, test, what: str) -> list:
    return _field(
        doc, name, [],
        lambda value: isinstance(value, list) and all(map(test, value)),
        f"a list of {what}",
    )


class FaultPlan:
    """A seeded, replayable list of fault windows."""

    #: JSON schema version for saved plans.
    VERSION = 1

    def __init__(
        self, specs: Sequence[FaultSpec] = (), seed: int = 0
    ) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.seed = seed

    @property
    def empty(self) -> bool:
        return not self.specs

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def by_kind(self, kind: str) -> List[FaultSpec]:
        return [spec for spec in self.specs if spec.kind == kind]

    def to_dict(self) -> Dict[str, object]:
        return {
            "v": self.VERSION,
            "seed": self.seed,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "FaultPlan":
        version = doc.get("v", cls.VERSION)
        if isinstance(version, bool) or version != cls.VERSION:
            raise ValueError(
                f"unsupported fault-plan version {version!r}"
            )
        specs = _list_of(
            doc, "specs", lambda spec: isinstance(spec, dict), "objects"
        )
        return cls(
            specs=[FaultSpec.from_dict(spec) for spec in specs],
            seed=_integer(doc, "seed", 0),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            return cls.from_dict(json.loads(text))
        except (AttributeError, TypeError) as exc:
            # valid JSON of the wrong shape (a list, a number for specs)
            raise ValueError(f"malformed fault plan: {exc}") from exc


def _pick_vps(
    vps: Sequence[Address], seed: int, lo: float, hi: float
) -> Tuple[Address, ...]:
    """A deterministic [lo, hi) slice of *vps* in seeded-hash order."""
    ranked = sorted(
        vps, key=lambda vp: zlib.crc32(f"{seed}|{vp}".encode())
    )
    return tuple(
        ranked[int(len(ranked) * lo): int(len(ranked) * hi)]
    )


def preset_plan(
    name: str,
    seed: int = 0,
    vps: Sequence[Address] = (),
) -> FaultPlan:
    """Build one of the named chaos scenarios.

    ``vps`` is the spoofer fleet the VP-outage windows draw from; it is
    required for the ``vp-flap`` and ``mixed`` presets and ignored by
    the others.  Presets are pure functions of ``(name, seed, vps)``.
    """
    if name not in PRESETS:
        raise ValueError(
            f"unknown preset {name!r} "
            f"(expected one of {', '.join(PRESETS)})"
        )
    plan = FaultPlan(seed=seed)
    if name == "none":
        return plan
    if name == "loss":
        return plan.add(
            FaultSpec(kind="link-loss", rate=0.3, label="loss-30pct")
        )
    if name == "rate-limit":
        return plan.add(
            FaultSpec(
                kind="router-rate-limit",
                limit=2,
                window=10.0,
                label="icmp-2-per-10s",
            )
        )
    if name == "vp-flap":
        if not vps:
            raise ValueError("vp-flap preset needs the vps list")
        group_a = _pick_vps(vps, seed, 0.0, 1 / 3)
        group_b = _pick_vps(vps, seed, 1 / 3, 2 / 3)
        for start, end, group, label in (
            (0.0, 150.0, group_a, "flap-a-down-1"),
            (150.0, 300.0, group_b, "flap-b-down"),
            (300.0, 450.0, group_a, "flap-a-down-2"),
        ):
            if group:
                plan.add(
                    FaultSpec(
                        kind="vp-outage",
                        start=start,
                        end=end,
                        vps=group,
                        label=label,
                    )
                )
        return plan
    if name == "blackhole":
        return plan.add(
            FaultSpec(kind="spoof-blackhole", label="spoof-blackhole")
        )
    # mixed: moderate loss + rate limiting + a quarter of the VP fleet
    # down for the first ten virtual minutes.
    plan.add(
        FaultSpec(kind="link-loss", rate=0.15, label="mixed-loss")
    )
    plan.add(
        FaultSpec(
            kind="router-rate-limit",
            limit=3,
            window=10.0,
            label="mixed-rate-limit",
        )
    )
    group = _pick_vps(vps, seed, 0.0, 0.25)
    if group:
        plan.add(
            FaultSpec(
                kind="vp-outage",
                start=0.0,
                end=600.0,
                vps=group,
                label="mixed-vp-outage",
            )
        )
    return plan


class FaultInjector:
    """Binds a :class:`FaultPlan` to the virtual clock.

    Installed on ``Internet.faults``; every hook below is reached only
    behind an ``internet.faults is not None`` guard, so a run without
    an injector pays one attribute read per probe and nothing else.
    Injections are tallied per kind and published by
    :meth:`snapshot`; what an injection *did* to a measurement is the
    engine's ``degrade.retry`` event and the dropped probe's reason.
    Loss draws come from one stream the injector owns, seeded by the
    plan: one uniform per link crossing a loss window matches, in the
    order the single walking thread crosses links.
    """

    def __init__(self, plan: FaultPlan, clock) -> None:
        self.plan = plan
        self.clock = clock
        #: monotone injection counter; the engine snapshots it around a
        #: technique step to tell fault-tainted failures from organic
        #: ones (see ``RevtrEngine._rr_step``'s negative-cache gate)
        self.injections = 0
        self.counts: Dict[str, int] = {}
        self._draws = 0
        self._rng = random.Random(plan.seed)
        self._last_reason: Optional[str] = None
        #: (spec index, router id, window index) -> replies granted
        self._granted: Dict[Tuple[int, int, int], int] = {}
        self._loss = plan.by_kind("link-loss")
        self._rate_limits = plan.by_kind("router-rate-limit")
        self._filters = plan.by_kind("router-filter")
        self._outages = plan.by_kind("vp-outage")
        self._blackholes = plan.by_kind("spoof-blackhole")
        self.has_link_loss = bool(self._loss)
        self.has_router_faults = bool(
            self._rate_limits or self._filters
        )

    def snapshot(self) -> Dict[str, object]:
        """JSON-able injection tallies (``repro health`` output)."""
        return {
            "total": self.injections,
            "by_kind": dict(sorted(self.counts.items())),
        }

    # -- bookkeeping ----------------------------------------------------

    def _inject(self, kind: str) -> None:
        self.injections += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self._last_reason = f"fault:{kind}"

    def consume_reason(self) -> Optional[str]:
        """The drop reason of the most recent injection, one-shot.

        The walker's return tuple has no reason slot; the injector
        stashes it here and ``Internet._send_probe`` (or the TTL
        sweep) picks it up when labelling the outcome.  One thread
        walks, one packet at a time, so one slot suffices.
        """
        reason, self._last_reason = self._last_reason, None
        return reason

    # -- hooks (called by Internet only when installed) -----------------

    def pre_send(self, probe) -> Optional[str]:
        """Injection-time faults: VP outages and spoof black-holes."""
        now = self.clock.now()
        for spec in self._outages:
            if spec.active(now) and probe.injected_at in spec.vps:
                self._inject("vp-outage")
                return self.consume_reason()
        if probe.is_spoofed:
            for spec in self._blackholes:
                if spec.active(now) and (
                    not spec.dsts or probe.dst in spec.dsts
                ):
                    self._inject("spoof-blackhole")
                    return self.consume_reason()
        return None

    def link_drops(self, a: int, b: int) -> bool:
        """One loss draw for the traversal of link *a*->*b*.

        Each loss window that is open and covers the link takes the
        next uniform from the injector's stream and drops the packet
        with its ``rate``: every crossing is an independent draw, so a
        retry of a lost probe can succeed, while the whole sequence
        stays a pure function of the plan and the workload.
        """
        now = self.clock.now()
        for spec in self._loss:
            if not spec.active(now):
                continue
            if spec.links and (a, b) not in spec.links and (
                b, a
            ) not in spec.links:
                continue
            self._draws += 1
            if self._rng.random() < spec.rate:
                self._inject("link-loss")
                return True
        return False

    def _router_suppressed(self, router_id: int, now: float) -> bool:
        for spec in self._filters:
            if spec.active(now) and (
                not spec.routers or router_id in spec.routers
            ):
                self._inject("router-filter")
                return True
        for index, spec in enumerate(self._rate_limits):
            if not spec.active(now):
                continue
            if spec.routers and router_id not in spec.routers:
                continue
            window = int((now - spec.start) // spec.window)
            key = (index, router_id, window)
            granted = self._granted.get(key, 0)
            if granted >= spec.limit:
                self._inject("router-rate-limit")
                return True
            self._granted[key] = granted + 1
        return False

    def responder_suppressed(self, router) -> bool:
        """Echo-reply suppression at the responding *router*.

        Host responders are unaffected: filtering and rate limiting
        model router control-plane ICMP policing.
        """
        if router is None or not self.has_router_faults:
            return False
        return self._router_suppressed(
            router.router_id, self.clock.now()
        )

    def te_suppressed(self, router_id: int) -> bool:
        """TTL-expired-reply suppression (shares the rate-limit budget
        with echo replies; a suppressed reply reads as a ``*`` hop)."""
        if not self.has_router_faults:
            return False
        return self._router_suppressed(router_id, self.clock.now())
