"""Paris traceroute over the simulator.

Keeps the flow identifier constant across TTLs so per-flow load
balancers see one consistent path (Augustin et al., used by the paper
to keep the traceroute atlas free of false links). Because the path is
the same at every TTL, the simulator walks it once per traceroute
(:meth:`~repro.sim.network.Internet.send_ttl_sweep`). Each TTL's probe
is charged to the traceroute budget and the vantage point's token
bucket, and advances the virtual clock by its RTT (or the loss
timeout) plus a small pacing overhead. With no fault injector
installed nothing a TTL inside the path does reads the clock, so the
sweep hands those TTLs' replies back at once and they are charged at
once: one counter call and one token-bucket pass
(:meth:`~repro.probing.ratelimit.TokenBucket.pace`). Every other TTL,
and under an injector every TTL, is charged before it is sent.
"""

from __future__ import annotations

from repro.net.addr import Address
from repro.net.packet import Probe, ProbeKind, TracerouteResult
from repro.probing.prober import LOSS_TIMEOUT, Prober

#: Inter-probe pacing charged per TTL step.
_PACING = 0.05

#: TTL horizon of every traceroute.
MAX_TTL = 32

#: Silent hops in a row after which a traceroute gives up.
MAX_STARS = 4


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
    bucket = prober._bucket(src)
    replies, steps = prober.internet.send_ttl_sweep(
        Probe(src=src, dst=dst), MAX_TTL, MAX_STARS
    )
    hops = result.hops = [reply.hop_addr for reply in replies]
    if replies:
        prober.counter.record(ProbeKind.TRACEROUTE, len(replies))
        bucket.pace([reply.rtt for reply in replies], _PACING)
        result.reached = replies[-1].reached
    stars = 0
    while stars < len(hops) and hops[-1 - stars] is None:
        stars += 1
    while not result.reached and stars < MAX_STARS and len(hops) < MAX_TTL:
        # Charged before the TTL's probe is sent: the bucket may wait
        # on the clock, and the simulator's fault hooks read it.
        prober.counter.record(ProbeKind.TRACEROUTE)
        bucket.acquire()
        reply = next(steps)
        clock.advance(_PACING)
        clock.advance(LOSS_TIMEOUT if reply is None else reply.rtt)
        hop = None if reply is None else reply.hop_addr
        hops.append(hop)
        stars = stars + 1 if hop is None else 0
        result.reached = reply is not None and reply.reached
    return result
