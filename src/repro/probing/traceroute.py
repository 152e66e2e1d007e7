"""Paris traceroute over the simulator.

Keeps the flow identifier constant across TTLs so per-flow load
balancers see one consistent path (Augustin et al., used by the paper
to keep the traceroute atlas free of false links). Because the path is
the same at every TTL, the simulator walks it once per traceroute
(:meth:`~repro.sim.network.Internet.send_ttl_sweep`) and hands back
one outcome per TTL. The accounting stays per TTL: each TTL's probe is
charged to the traceroute budget and the vantage point's token bucket
before it is sent, and advances the virtual clock by its RTT (or the
loss timeout) plus a small pacing overhead.
"""

from __future__ import annotations

from repro.net.addr import Address
from repro.net.packet import Probe, ProbeKind, TracerouteResult
from repro.probing.prober import LOSS_TIMEOUT, Prober

#: Inter-probe pacing charged per TTL step.
_PACING = 0.05

#: TTL horizon of every traceroute.
MAX_TTL = 32


def paris_traceroute(
    prober: Prober,
    src: Address,
    dst: Address,
) -> TracerouteResult:
    """Run a Paris traceroute from *src* toward *dst*.

    Returns a :class:`TracerouteResult`; ``hops`` contains one entry
    per TTL (None for an unresponsive hop) and, when the destination
    answered, ends with the destination address itself.
    """
    clock = prober.clock
    result = TracerouteResult(src=src, dst=dst, timestamp=clock.now())
    record = prober.counter.record
    bucket = prober._bucket(src)
    sweep = prober.internet.send_ttl_sweep(Probe(src=src, dst=dst), MAX_TTL)
    consecutive_stars = 0
    for _ in range(MAX_TTL):
        # Charged before the TTL's probe is sent: the bucket may wait
        # on the clock, and the simulator's fault hooks read it.
        record(ProbeKind.TRACEROUTE)
        bucket.acquire()
        outcome = next(sweep)
        clock.advance(_PACING)
        if outcome.te_reply is not None:
            reply = outcome.te_reply
            clock.advance(reply.rtt)
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
            clock.advance(rtt)
            result.hops.append(dst)
            result.reached = True
            break
        clock.advance(LOSS_TIMEOUT)
        result.hops.append(None)
        consecutive_stars += 1
        if consecutive_stars >= 4:
            break
    return result
