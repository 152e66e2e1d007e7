"""Reference Paris traceroute: the test oracle.

This is ``repro.probing.traceroute.paris_traceroute`` exactly as it
stood before TTL sweeps: one :class:`Probe` per TTL, each sent through
``Internet.send_probe`` and therefore walked from the first router,
and each charged on its own - one counter call, one token-bucket
``acquire`` and two clock advances per TTL.  It is kept verbatim so
that ``tests/test_ttl_sweep.py`` can require the sweep-based
implementation, which charges a fault-free run of TTLs at once, to
return the same :class:`TracerouteResult` and leave the clock, the
token buckets, the probe counters, the simulator's tallies and a fault
injector's draw state exactly where this one does.  Test-only:
nothing under ``src/`` imports it.
"""

from __future__ import annotations

from repro.net.addr import Address
from repro.net.packet import Probe, ProbeKind, TracerouteResult
from repro.probing.prober import LOSS_TIMEOUT, Prober

#: Inter-probe pacing charged per TTL step.
_PACING = 0.05

#: Default TTL horizon.
MAX_TTL = 32


def reference_paris_traceroute(
    prober: Prober,
    src: Address,
    dst: Address,
    max_ttl: int = MAX_TTL,
    flow_id: int = 0,
) -> TracerouteResult:
    """Run a Paris traceroute from *src* toward *dst*, a walk per TTL."""
    internet = prober.internet
    result = TracerouteResult(
        src=src, dst=dst, flow_id=flow_id, timestamp=prober.clock.now()
    )
    consecutive_stars = 0
    for ttl in range(1, max_ttl + 1):
        prober.counter.record(ProbeKind.TRACEROUTE)
        prober._bucket(src).acquire()
        probe = Probe(src=src, dst=dst, ttl=ttl, flow_id=flow_id)
        outcome = internet.send_probe(probe)
        prober.clock.advance(_PACING)
        if outcome.te_reply is not None:
            reply = outcome.te_reply
            prober.clock.advance(reply.rtt)
            result.hops.append(reply.hop_addr)
            if reply.hop_addr is None:
                consecutive_stars += 1
            else:
                consecutive_stars = 0
            if reply.reached:
                result.reached = True
                break
            if consecutive_stars >= 4:
                break
            continue
        if outcome.delivered:
            # TTL outlived the path: the destination itself answered.
            rtt = outcome.echo.rtt if outcome.echo else 0.0
            prober.clock.advance(rtt)
            result.hops.append(dst)
            result.reached = True
            break
        prober.clock.advance(LOSS_TIMEOUT)
        result.hops.append(None)
        consecutive_stars += 1
        if consecutive_stars >= 4:
            break
    return result
