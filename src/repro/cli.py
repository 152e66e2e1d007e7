"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``measure`` — build a simulated Internet and run reverse traceroutes
  toward an M-Lab-like source, printing hop-by-hop results
  (``--json`` for machine-readable results and metrics,
  ``--metrics-out`` / ``--events-out`` to save the metrics
  snapshot and the flight-recorder log the readers below render);
  an event export is the run's last ``DEFAULT_CAPACITY`` (4,096)
  events, written once at exit over whatever the file held;
* ``asymmetry`` — run a miniature §6.2 bidirectional study;
* ``te`` — run the §6.1 traffic-engineering loop;
* ``survey`` — the Appendix F record-route responsiveness survey
  (``--json`` for machine-readable output);
* ``stats`` — render a saved metrics snapshot (``--from``) as a
  Prometheus-style exposition, or ``--slo`` as the SLO rollup;
* ``explain`` — reconstruct a measurement's decision path from an
  exported event log (``--events``): which techniques ran, which VPs
  were probed, where the probe budget went;
* ``events`` — dump or tail an exported event log (``--from``;
  ``--json`` for raw records);
* ``atlas`` — the offline atlases: ``build`` both atlases for a
  source with probe dedup (``--out`` also saves a versioned
  snapshot), ``load`` to warm-start (optionally running measurements
  off the loaded atlases);
* ``serve`` — demo the request scheduler: several users with
  different parallel limits submit a burst of requests which are
  multiplexed over the scheduler's lanes with admission control
  (``--json`` for the machine-readable report);
* ``health`` — one-command diagnosis: run a workload under
  deterministic fault injection (``--preset`` scenarios seeded by
  ``--seed``; ``--plan`` replays a plan saved with ``--plan-out``
  bit-for-bit) with the telemetry sampler on, report how gracefully
  the system degraded, and evaluate windowed health rules into typed
  findings citing the flight-recorder events and metric windows
  behind them (``--json`` for machines);
* ``top`` — live refreshing terminal dashboard (rates with
  sparklines, SLO rollup, health findings) over a scheduled
  measurement workload.

``measure`` is the one producer that calls the engine directly;
``serve``, ``health`` and ``top`` submit through the front door
(:meth:`repro.experiments.Scenario.front_door`).  ``serve --http
PORT`` exposes ``/metrics``, ``/metrics.json``, ``/health`` and
``/timeseries`` over HTTP while the scheduler demo executes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.revtr import EngineConfig
from repro.experiments import Scenario
from repro.obs import Instrumentation, read_events, write_events
from repro.service import SchedulerConfig
from repro.sim.faults import PRESETS
from repro.topology import TopologyConfig

#: Telemetry sampling interval (virtual seconds) of ``serve`` and
#: ``health``; ``top`` samples once per frame instead.
SAMPLE_INTERVAL = 15.0

#: Distinct destinations the ``top`` workload cycles over.
TOP_DESTINATIONS = 10


def _scenario(
    args: argparse.Namespace, instrumentation=None
) -> Scenario:
    # --scale's choices are the names of TopologyConfig's presets.
    config = getattr(TopologyConfig, args.scale)(seed=args.seed)
    return Scenario(
        config=config,
        seed=args.seed,
        atlas_size=args.atlas_size,
        instrumentation=instrumentation,
    )


def _write_metrics(instr: Instrumentation, path: Optional[str]) -> None:
    if not path:
        return
    with open(path, "w") as fh:
        json.dump(instr.registry.snapshot(), fh, indent=2)


def _write_events(instr: Instrumentation, path: Optional[str]) -> None:
    """Export the flight recorder's retained events to *path*,
    replacing the file."""
    if path:
        write_events(path, instr.events.events())


def _read_events(path: str):
    """The events of a JSONL export, or None after reporting why the
    file cannot be used."""
    try:
        return read_events(path)
    except FileNotFoundError:
        print(f"error: no event log at {path}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


def _format_event_doc(doc: dict) -> str:
    """One human-readable line per event record."""
    clock = (
        f"sim={doc['sim']:10.3f}" if "sim" in doc
        else f"wall={doc.get('wall', 0.0):.3f}"
    )
    mid = doc.get("mid") or "-"
    fields = doc.get("fields") or {}
    payload = " ".join(f"{k}={fields[k]}" for k in sorted(fields))
    return (
        f"{doc.get('seq', 0):6d}  {clock}  {mid:<9s} "
        f"{doc.get('kind', '?'):<18s} {payload}"
    )


def _cmd_measure(args: argparse.Namespace) -> int:
    instr = Instrumentation()
    scenario = _scenario(args, instrumentation=instr)
    # The paper's engine, one destination at a time; the amortizing
    # service is ``serve`` / ``health`` / ``top``.
    engine = scenario.engine(scenario.sources()[0], args.variant)
    destinations = (
        [args.dst]
        if args.dst
        else scenario.responsive_destinations(
            args.count, options_only=True
        )
    )
    measurements = []
    for result in map(engine.measure, destinations):
        if args.json:
            measurements.append(result.to_dict())
            continue
        print(result.render())
        print(
            f"  AS path: "
            f"{scenario.ip2as.collapsed_as_path(result.addresses())}"
        )
        print(f"  probes: {result.probe_counts}")
        print()
    if args.json:
        print(
            json.dumps(
                {
                    "measurements": measurements,
                    "metrics": instr.registry.snapshot(),
                },
                indent=2,
            )
        )
    _write_metrics(instr, args.metrics_out)
    _write_events(instr, args.events_out)
    return 0


def _cmd_asymmetry(args: argparse.Namespace) -> int:
    from repro.experiments import exp_asymmetry

    scenario = _scenario(args)
    campaign = exp_asymmetry.run(
        scenario, n_destinations=args.count, n_sources=3
    )
    print(exp_asymmetry.format_fig8a(campaign))
    print()
    print(exp_asymmetry.format_fig8b_table7(campaign))
    return 0


def _cmd_te(args: argparse.Namespace) -> int:
    from repro.experiments import exp_traffic_eng

    scenario = _scenario(args)
    result = exp_traffic_eng.run(scenario, n_monitors=args.count)
    print(exp_traffic_eng.format_report(result))
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    from repro.experiments import exp_rr_responsiveness

    result = exp_rr_responsiveness.run(seed=args.seed)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
        return 0
    print(exp_rr_responsiveness.format_table6(result))
    print()
    print(exp_rr_responsiveness.format_fig11(result))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.exposition import render_text
    from repro.obs.metrics import check_snapshot

    try:
        with open(args.from_file) as fh:
            snapshot = json.load(fh)
        # Accept both a bare registry snapshot (--metrics-out) and a
        # full ``measure --json`` document, whose "metrics" is an
        # object that is not itself a family.
        wrapped = (
            snapshot.get("metrics") if isinstance(snapshot, dict) else None
        )
        if isinstance(wrapped, dict) and "series" not in wrapped:
            snapshot = wrapped
        check_snapshot(snapshot, args.from_file)
    except OSError as exc:
        print(f"error: cannot read {args.from_file}: {exc.strerror}",
              file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.from_file} is not valid JSON: {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.slo:
        from repro.obs.slo import format_slo, slo_summary

        print(format_slo(slo_summary(snapshot)))
    else:
        print(render_text(snapshot), end="")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.provenance import ProvenanceLedger

    events = _read_events(args.events_file)
    if events is None:
        return 2
    ordered_mids: List[str] = []
    for event in events:
        if event.mid is not None and event.mid not in ordered_mids:
            ordered_mids.append(event.mid)
    if not ordered_mids:
        print("error: event log holds no measurements", file=sys.stderr)
        return 2
    if args.mid == "all":
        selected = ordered_mids
    elif args.mid == "last":
        selected = [ordered_mids[-1]]
    elif args.mid in ordered_mids:
        selected = [args.mid]
    else:
        known = ", ".join(ordered_mids[-8:])
        print(
            f"error: no events for measurement {args.mid!r} "
            f"(recent: {known})",
            file=sys.stderr,
        )
        return 2

    documents = []
    for index, mid in enumerate(selected):
        ledger = ProvenanceLedger.from_events(events, mid)
        if args.json:
            documents.append(ledger.summary())
            continue
        if index:
            print()
        print(ledger.explain())
    if args.json:
        print(
            json.dumps(
                documents[0] if len(documents) == 1 else documents,
                indent=2,
                sort_keys=True,
            )
        )
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    events = _read_events(args.from_file)
    if events is None:
        return 2
    docs = [
        event.to_dict()
        for event in events
        if (not args.kind or event.kind == args.kind)
        and (not args.mid or event.mid == args.mid)
    ]
    if args.tail:
        docs = docs[-args.tail:]
    for doc in docs:
        print(
            json.dumps(doc, sort_keys=True)
            if args.json
            else _format_event_doc(doc)
        )
    return 0


def _cmd_atlas(args: argparse.Namespace) -> int:
    from repro.core.snapshot import SnapshotError

    instr = Instrumentation()
    scenario = _scenario(args, instrumentation=instr)
    source = scenario.sources()[0]

    if args.atlas_command == "load":
        try:
            bundle = scenario.load_atlases(source, args.path)
        except SnapshotError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        doc = {
            "source": source,
            "path": args.path,
            "traceroutes": len(bundle.atlas),
            "rr_aliases": (
                len(bundle.rr_atlas)
                if bundle.rr_atlas is not None
                else 0
            ),
            "measurements": [],
        }
        if args.measure:
            engine = scenario.engine(source, "revtr2.0")
            for dst in scenario.responsive_destinations(
                args.measure, options_only=True
            ):
                result = engine.measure(dst)
                doc["measurements"].append(result.to_dict())
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(
                f"loaded atlases for {source} from {args.path}: "
                f"{doc['traceroutes']} traceroutes, "
                f"{doc['rr_aliases']} RR aliases"
            )
            for measured in doc["measurements"]:
                print(
                    f"  revtr {measured['dst']} -> {source}: "
                    f"{measured['status']}, "
                    f"{len(measured['hops'])} hops"
                )
        _write_metrics(instr, args.metrics_out)
        return 0

    # build: the scenario's own cold build of both atlases, optionally
    # snapshotted for later warm starts.
    rr_atlas = scenario.rr_atlas(source)
    if args.out:
        scenario.save_atlases(source, args.out)
    doc = {
        "source": source,
        "traceroutes": len(rr_atlas.atlas),
        "rr_aliases": len(rr_atlas),
        "probes_sent": rr_atlas.probes_sent,
        "probes_deduped": rr_atlas.probes_deduped,
        "snapshot": args.out,
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"atlases for {source}: {doc['traceroutes']} traceroutes, "
            f"{doc['rr_aliases']} RR aliases from "
            f"{doc['probes_sent']} RR probes "
            f"(+{doc['probes_deduped']} deduped)"
        )
        if args.out:
            print(f"  snapshot saved to {args.out}")
    _write_metrics(instr, args.metrics_out)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    instr = Instrumentation()
    if args.http is not None or args.timeseries_out:
        from repro.obs.timeseries import install_sampler

        install_sampler(instr, sim_interval=SAMPLE_INTERVAL)
    scenario = _scenario(args, instrumentation=instr)
    # A demo population: per-user parallel caps 1, 2 and 4.
    door = scenario.front_door(
        EngineConfig(),
        [(f"user{i}", 2**i, args.requests * 4) for i in range(3)],
        SchedulerConfig(),
    )
    destinations = scenario.responsive_destinations(
        args.requests, options_only=True
    )
    http_server = None
    if args.http is not None:
        from repro.obs.httpd import ObsHTTPServer

        http_server = ObsHTTPServer(instr.sampler, port=args.http).start()
        print(
            f"obs endpoint: {http_server.url} "
            f"(/metrics, /metrics.json, /health, /timeseries)",
            file=sys.stderr,
        )
    for user in door.users:
        for dst in destinations:
            door.scheduler.submit(user.api_key, dst, door.source)
    doc = door.scheduler.run().as_dict()
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"served {doc['completed']}/{doc['submitted']} requests "
            f"over {doc['parallelism']} lanes (virtual clock)"
        )
        print(
            f"  makespan:   {doc['makespan_virtual_seconds']:.1f} "
            f"virtual seconds"
        )
        print(
            f"  throughput: {doc['throughput_per_virtual_second']:.3f} "
            f"requests / virtual second"
        )
        print(f"  rejected:   {doc['rejected'] or 'none'}")
        print(f"  retries:    {doc['retries']}")
        for name, peak in doc["peak_inflight"].items():
            cap = door.service.users.get(name).max_parallel
            print(f"  {name}: peak {peak} in flight (cap {cap})")
    if instr.sampler is not None:
        instr.sampler.sample()
        if args.timeseries_out:
            with open(args.timeseries_out, "w") as fh:
                fh.write(instr.sampler.export_json())
                fh.write("\n")
    if http_server is not None:
        if args.http_hold > 0:
            import time as _time

            print(
                f"holding the obs endpoint open for "
                f"{args.http_hold:.0f}s (ctrl-C to stop) ...",
                file=sys.stderr,
            )
            try:
                _time.sleep(args.http_hold)
            except KeyboardInterrupt:
                pass
        http_server.stop()
    _write_metrics(instr, args.metrics_out)
    _write_events(instr, args.events_out)
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    from repro.obs.health import HealthEngine, format_findings
    from repro.obs.timeseries import install_sampler
    from repro.sim.faults import FaultPlan, preset_plan

    plan = None
    if args.plan:
        try:
            with open(args.plan) as fh:
                plan = FaultPlan.from_json(fh.read())
        except (OSError, ValueError) as exc:
            print(f"error: cannot load fault plan {args.plan}: {exc}",
                  file=sys.stderr)
            return 2
    instr = Instrumentation()
    sampler = install_sampler(instr, sim_interval=SAMPLE_INTERVAL)
    scenario = _scenario(args, instrumentation=instr)
    if plan is None:
        # An outage preset that downed the source would kill every
        # direct probe at injection and measure source death, not VP
        # churn: the fleet the presets draw from leaves it out.
        source = scenario.sources()[0]
        plan = preset_plan(
            args.preset,
            seed=args.seed,
            vps=[vp for vp in scenario.spoofer_addrs if vp != source],
        )
    door = scenario.front_door(
        EngineConfig(retry_budget=8, recheck_unresponsive=True),
        [("chaos", 4, args.requests * 8)],
        SchedulerConfig(parallelism=2, max_retries=1),
        plan=plan,
    )
    for dst in scenario.responsive_destinations(
        args.requests, options_only=True
    ):
        door.scheduler.submit(door.users[0].api_key, dst, door.source)
    report = door.scheduler.run()
    # Close the last window so the final state is always in the ring.
    sampler.sample()

    health = HealthEngine(window=args.window)
    findings = health.evaluate(sampler.samples(), instr.events)
    status = HealthEngine.status(findings)

    if args.plan_out:
        with open(args.plan_out, "w") as fh:
            fh.write(plan.to_json())
            fh.write("\n")
    if args.timeseries_out:
        with open(args.timeseries_out, "w") as fh:
            fh.write(sampler.export_json())
            fh.write("\n")
    engine = door.service._engine_for(door.source)
    doc = {
        "preset": None if args.plan else args.preset,
        "seed": args.seed,
        "status": status,
        "findings": [finding.to_dict() for finding in findings],
        "timeseries": sampler.summary(),
        "plan": plan.to_dict(),
        "faults": door.injector.snapshot(),
        "vp_health": door.tracker.snapshot(),
        "engine_retries": dict(sorted(engine.retry_counts.items())),
        "scheduler": report.as_dict(),
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        label = args.plan if args.plan else f"preset '{args.preset}'"
        sched = doc["scheduler"]
        vp_health = doc["vp_health"]
        print(
            f"health check under {label}: "
            f"{sched['completed']}/{sched['submitted']} requests "
            f"completed, {doc['faults']['total']} faults injected, "
            f"{doc['timeseries']['samples']} telemetry samples"
        )
        print(
            f"  faults:      {dict(doc['faults']['by_kind'])}, "
            f"statuses {sched['statuses']}"
        )
        print(
            f"  degradation: {sched.get('partial_results', 0)} partial "
            f"results, retries {doc['engine_retries'] or 'none'}"
        )
        print(
            f"  vp health:   {vp_health['quarantines']} quarantined, "
            f"{vp_health['replacements']} replaced, "
            f"{vp_health['recoveries']} requalified"
        )
        print(format_findings(findings, status))
        if findings:
            print(
                "(inspect cited events with `repro events`; "
                "`repro explain <mid>` narrates one measurement)"
            )
    _write_metrics(instr, args.metrics_out)
    _write_events(instr, args.events_out)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import threading

    from repro.obs.dashboard import live_view, render_top
    from repro.obs.health import HealthEngine
    from repro.obs.timeseries import install_sampler

    instr = Instrumentation()
    scenario = _scenario(args, instrumentation=instr)
    door = scenario.front_door(
        EngineConfig(),
        [("top", 4, args.requests * 4)],
        SchedulerConfig(max_queue_per_user=args.requests),
    )
    destinations = scenario.responsive_destinations(
        TOP_DESTINATIONS, options_only=True
    )
    for issued in range(args.requests):
        door.scheduler.submit(
            door.users[0].api_key,
            destinations[issued % len(destinations)],
            door.source,
        )
    # The worker is the one writer: the scheduler's completion hooks
    # tick the sampler on it, each sample carrying its health findings,
    # and it publishes the end state once the queue drains.  Frames
    # read only what it published.  The first sample is published
    # here, before the worker exists.
    sampler = install_sampler(instr, sim_interval=SAMPLE_INTERVAL)
    sampler.health = HealthEngine()
    sampler.sample()
    stop = threading.Event()

    def workload() -> None:
        while not stop.is_set() and door.scheduler.step() is not None:
            pass
        sampler.sample()

    worker = threading.Thread(
        target=workload, name="repro-top-workload", daemon=True
    )
    worker.start()

    def frame():
        # Read before rendering, so the last frame shows the end state.
        done = not worker.is_alive()
        text = render_top(
            sampler.samples(),
            sampler.capacity,
            title=f"repro top — {args.requests} requests to "
            f"{door.source}",
        )
        return text, done

    try:
        live_view(frame, args.interval, max_frames=args.frames)
    finally:
        stop.set()
        worker.join(timeout=10)
    return 0


#: The file outputs a verb can take, and what each writes.
OUTPUTS = {
    "--metrics-out": "write the metrics JSON snapshot to FILE",
    "--events-out": "export the flight recorder's last events to FILE "
    "(JSONL), replacing it",
    "--timeseries-out": "write the sampled telemetry time-series to "
    "FILE (JSON)",
}


def _add_outputs(p: argparse.ArgumentParser, *files: str) -> None:
    """``--json`` plus the named file outputs of :data:`OUTPUTS`."""
    p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    for flag in files:
        p.add_argument(flag, metavar="FILE", help=OUTPUTS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Internet Scale Reverse Traceroute — reproduction",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--scale",
        choices=("tiny", "small", "evaluation", "large"),
        default="small",
    )
    parser.add_argument("--atlas-size", type=int, default=20)

    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser(
        "measure", help="run reverse traceroutes"
    )
    measure.add_argument("--dst", help="specific destination address")
    measure.add_argument("--count", type=int, default=3)
    measure.add_argument(
        "--variant",
        default="revtr2.0",
        help="system variant (e.g. revtr2.0, revtr1.0)",
    )
    _add_outputs(measure, "--metrics-out", "--events-out")
    measure.set_defaults(func=_cmd_measure)

    asymmetry = sub.add_parser(
        "asymmetry", help="bidirectional asymmetry study"
    )
    asymmetry.add_argument("--count", type=int, default=100)
    asymmetry.set_defaults(func=_cmd_asymmetry)

    te = sub.add_parser(
        "te", help="traffic-engineering case study"
    )
    te.add_argument("--count", type=int, default=60)
    te.set_defaults(func=_cmd_te)

    survey = sub.add_parser(
        "survey", help="record-route responsiveness survey"
    )
    survey.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (counts, fractions, CDFs)",
    )
    survey.set_defaults(func=_cmd_survey)

    stats = sub.add_parser(
        "stats",
        help="Prometheus-style exposition of a saved metrics snapshot",
    )
    stats.add_argument(
        "--from",
        dest="from_file",
        metavar="FILE",
        required=True,
        help="the snapshot (measure --metrics-out, or measure --json)",
    )
    stats.add_argument(
        "--slo",
        action="store_true",
        help="print the SLO rollup (per-technique success rates, "
        "latency quantiles) instead of the raw exposition",
    )
    stats.set_defaults(func=_cmd_stats)

    explain = sub.add_parser(
        "explain",
        help="reconstruct one measurement's decision path from an "
        "exported event log",
    )
    explain.add_argument(
        "mid",
        nargs="?",
        default="last",
        help="measurement id (m-000001, ...), 'last', or 'all' "
        "(default: last)",
    )
    explain.add_argument(
        "--events",
        dest="events_file",
        metavar="FILE",
        required=True,
        help="the JSONL event export (measure/serve --events-out)",
    )
    explain.add_argument(
        "--json",
        action="store_true",
        help="machine-readable provenance summary instead of the "
        "narrative",
    )
    explain.set_defaults(func=_cmd_explain)

    events = sub.add_parser(
        "events",
        help="dump or tail an exported event log",
    )
    events.add_argument(
        "--from",
        dest="from_file",
        metavar="FILE",
        required=True,
        help="the JSONL export (measure/serve/health --events-out)",
    )
    events.add_argument(
        "--kind", help="only events of this kind (e.g. rr.step)"
    )
    events.add_argument(
        "--mid", help="only events for this measurement id"
    )
    events.add_argument(
        "--tail",
        type=int,
        default=0,
        metavar="N",
        help="only the last N events",
    )
    events.add_argument(
        "--json",
        action="store_true",
        help="raw JSONL records instead of formatted lines",
    )
    events.set_defaults(func=_cmd_events)

    atlas = sub.add_parser(
        "atlas",
        help="offline atlases: cold build, snapshots",
    )
    atlas_sub = atlas.add_subparsers(dest="atlas_command", required=True)

    atlas_build = atlas_sub.add_parser(
        "build", help="cold-build both atlases"
    )
    atlas_build.add_argument(
        "--out", metavar="FILE",
        help="also save a snapshot for later warm starts",
    )
    _add_outputs(atlas_build, "--metrics-out")
    atlas_build.set_defaults(func=_cmd_atlas)

    atlas_load = atlas_sub.add_parser(
        "load", help="warm-start from a snapshot"
    )
    atlas_load.add_argument("--path", metavar="FILE", required=True)
    atlas_load.add_argument(
        "--measure", type=int, default=0,
        help="run this many reverse traceroutes off the loaded atlases",
    )
    _add_outputs(atlas_load, "--metrics-out")
    atlas_load.set_defaults(func=_cmd_atlas)

    serve = sub.add_parser(
        "serve",
        help="request-scheduler demo: admission control under load",
    )
    serve.add_argument(
        "--requests", type=int, default=6,
        help="requests submitted per user",
    )
    _add_outputs(serve, "--metrics-out", "--events-out", "--timeseries-out")
    serve.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the obs endpoint on PORT while the workload runs "
        "(0 = ephemeral): /metrics (Prometheus text), /metrics.json, "
        "/health, /timeseries",
    )
    serve.add_argument(
        "--http-hold",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the obs endpoint up for SECONDS after the workload "
        "finishes (for scraping the final state)",
    )
    serve.set_defaults(func=_cmd_serve)

    health = sub.add_parser(
        "health",
        help="one-command diagnosis: run a workload under fault "
        "injection, sample the telemetry time-series, report how it "
        "degraded and the typed health findings",
    )
    health.add_argument(
        "--preset",
        choices=PRESETS,
        default="mixed",
        help="named fault scenario (seeded by the global --seed); "
        "'none' checks a healthy run",
    )
    health.add_argument(
        "--plan", metavar="FILE",
        help="replay a fault plan saved as JSON instead of a preset",
    )
    health.add_argument(
        "--plan-out", metavar="FILE",
        help="save the effective fault plan as JSON (for replay)",
    )
    health.add_argument(
        "--requests", type=int, default=8,
        help="measurement requests submitted under faults",
    )
    health.add_argument(
        "--window", type=float, default=None,
        metavar="SIM_SECONDS",
        help="override every detector's evaluation window "
        "(default: per-rule windows)",
    )
    _add_outputs(health, "--metrics-out", "--events-out", "--timeseries-out")
    health.set_defaults(func=_cmd_health)

    top = sub.add_parser(
        "top",
        help="live refreshing terminal dashboard over a scheduled "
        "measurement workload",
    )
    top.add_argument(
        "--requests", type=int, default=30,
        help="requests the background workload submits",
    )
    top.add_argument(
        "--interval", type=float, default=1.0,
        metavar="SECONDS",
        help="wall-clock refresh interval between frames",
    )
    top.add_argument(
        "--frames", type=int, default=0, metavar="N",
        help="stop after N frames (default: until the workload "
        "finishes)",
    )
    top.set_defaults(func=_cmd_top)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Piped into `head` etc.; suppress the noisy traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
