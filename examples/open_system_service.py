#!/usr/bin/env python3
"""Running revtr 2.0 as an open service (Appendix A).

Registers users, bootstraps a user-owned source (atlas + RR atlas,
the paper's ~15-minute process), serves authenticated measurement
requests under per-user rate limits, and shows the measurement
archive — the in-process equivalent of the paper's REST/gRPC service.

The service runs fully instrumented: a telemetry sampler records the
registry into a bounded time-series, and an HTTP endpoint (ephemeral
port) exposes `/metrics`, `/metrics.json`, `/health` and
`/timeseries` while requests execute — polled here the way an
external monitoring stack would.

Run:  python examples/open_system_service.py [--seed N]
"""

import argparse
import json
import urllib.request

from repro.experiments import Scenario
from repro.obs import (
    Instrumentation,
    ObsHTTPServer,
    install_sampler,
)
from repro.service import MeasurementRequest
from repro.service.users import QuotaExceeded
from repro.topology import TopologyConfig


def poll(url: str) -> None:
    """Scrape the obs endpoint like an external monitor would."""
    print(f"\npolling the obs endpoint at {url} ...")
    with urllib.request.urlopen(url + "/metrics", timeout=10) as resp:
        exposition = resp.read().decode()
    served = [
        line
        for line in exposition.splitlines()
        if line.startswith("service_requests_total")
    ]
    print("  /metrics (Prometheus text):")
    for line in served or exposition.splitlines()[:3]:
        print(f"    {line}")
    with urllib.request.urlopen(url + "/health", timeout=10) as resp:
        health = json.load(resp)
    print(
        "  /health: status={status}, {n} findings".format(
            status=health["status"], n=len(health["findings"])
        )
    )
    for finding in health["findings"]:
        print(f"    [{finding['severity']}] {finding['kind']}: "
              f"{finding['message']}")
    with urllib.request.urlopen(url + "/timeseries", timeout=10) as resp:
        series = json.load(resp)
    summary = series["summary"]
    print(
        "  /timeseries: {n} samples retained "
        "(sim interval {interval}s, span {span})".format(
            n=summary["samples"],
            interval=summary["sim_interval"],
            span=summary["span_sim"],
        )
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args()

    instrumentation = Instrumentation()
    sampler = install_sampler(instrumentation, sim_interval=60.0)
    scenario = Scenario(
        config=TopologyConfig.small(seed=args.seed),
        seed=args.seed,
        atlas_size=15,
        instrumentation=instrumentation,
    )
    service = scenario.service()

    print("registering user 'operator' (quota: 5 measurements/day)")
    user = service.add_user("operator", max_per_day=5)

    source = scenario.sources()[0]
    print(f"bootstrapping source {source} ...")
    registered = service.add_source(user.api_key, source)
    report = registered.report
    print(
        f"  RR receivable: {report.rr_receivable}; atlas "
        f"{report.atlas_size} traceroutes; RR atlas "
        f"{report.rr_atlas_aliases} aliases; took "
        f"{report.duration / 60:.1f} virtual minutes"
    )

    with ObsHTTPServer(instrumentation, sampler) as server:
        print(f"obs endpoint up at {server.url}")
        destinations = scenario.responsive_destinations(
            6, options_only=True
        )
        print("\nissuing measurement requests ...")
        for dst in destinations:
            try:
                result = service.request(
                    MeasurementRequest(user.api_key, dst, source)
                )
            except QuotaExceeded as error:
                print(f"  {dst}: rejected ({error})")
                continue
            print(
                f"  {dst}: {result.status.value}, "
                f"{len(result.hops)} hops, {result.duration:.1f}s"
            )

        sampler.sample()
        poll(server.url)

    print(
        f"\narchive: {len(service.store)} measurements stored, "
        f"{service.store.completion_rate():.0%} complete, "
        f"{user.remaining_today(scenario.clock.now())} quota left"
    )


if __name__ == "__main__":
    main()
