"""Reference CLI wiring: the service verbs before the front door, verbatim.

``repro serve``, ``repro chaos`` and ``repro health`` each used to wire
the Appendix A service themselves - ``_cmd_serve`` inline,
``chaos`` / ``health`` through ``_fault_workload`` - in the order the
plan-replay identity depends on.  ``src/`` now builds all of them with
``Scenario.front_door``, and ``chaos`` is part of ``health``.  The
functions are kept here unedited but for what an argparse namespace
carried: :func:`namespace` supplies the parser defaults of the time,
:func:`chaos_doc` is ``_cmd_chaos`` up to its JSON document, and
:func:`serve_report` is ``_cmd_serve`` up to its scheduler report, so
``tests/test_front_door.py`` can require the builder-based verbs to
agree with them.  Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import Scenario
from repro.obs import Instrumentation
from repro.topology import TopologyConfig

#: The parser defaults of ``repro chaos`` and ``repro serve``.
CHAOS_DEFAULTS = dict(
    preset="mixed", plan=None, plan_out=None, requests=6, parallel=2,
    deadline=None, retries=1, retry_budget=8, quarantine=900.0,
    source_index=0,
)
SERVE_DEFAULTS = dict(
    parallel=4, users=3, requests=6, queue=16, deadline=None, retries=0,
    source_index=0, http=None, sample_interval=15.0, timeseries_out=None,
)


def namespace(defaults, scale="tiny", seed=7, atlas_size=20, **overrides):
    """The namespace the old parser produced for one command line."""
    return argparse.Namespace(
        scale=scale, seed=seed, atlas_size=atlas_size,
        **{**defaults, **overrides},
    )


def _scenario(
    args: argparse.Namespace, instrumentation=None
) -> Scenario:
    config = {
        "tiny": TopologyConfig.tiny,
        "small": TopologyConfig.small,
        "evaluation": TopologyConfig.evaluation,
        "large": TopologyConfig.large,
    }[args.scale](seed=args.seed)
    return Scenario(
        config=config,
        seed=args.seed,
        atlas_size=args.atlas_size,
        instrumentation=instrumentation,
    )


def _fault_workload(args: argparse.Namespace, instr: Instrumentation):
    """Build and run the faulted scheduler workload shared by
    ``repro chaos`` and ``repro health``.

    Construction order matches the original ``repro chaos`` wiring
    exactly — the chaos plan-replay byte-identity tests depend on it.
    Returns ``(plan, tracker, injector, report, engine)``, or None
    after reporting an unusable ``--plan`` (before anything is built).
    """
    from repro.core.revtr import EngineConfig
    from repro.service import SchedulerConfig
    from repro.sim.faults import FaultPlan, preset_plan

    plan = None
    if args.plan:
        try:
            with open(args.plan) as fh:
                plan = FaultPlan.from_json(fh.read())
        except (OSError, ValueError) as exc:
            print(f"error: cannot load fault plan {args.plan}: {exc}",
                  file=sys.stderr)
            return None
    scenario = _scenario(args, instrumentation=instr)
    source = scenario.sources()[args.source_index]
    if plan is None:
        # The source is itself a spoof-capable host; an outage preset
        # that downed it would kill every direct probe at injection and
        # measure source death, not VP churn — keep it out of the
        # fleet the presets draw from.
        plan = preset_plan(
            args.preset,
            seed=args.seed,
            vps=[vp for vp in scenario.spoofer_addrs if vp != source],
        )

    service = scenario.service(
        EngineConfig(
            retry_budget=args.retry_budget,
            recheck_unresponsive=True,
        )
    )
    user = service.add_user(
        "chaos", max_parallel=4, max_per_day=args.requests * 8
    )
    # Bootstrap (atlas builds) runs fault-free; the injector and the
    # quarantine tracker arm just before the measurement workload.
    service.add_source(user.api_key, source)
    tracker = scenario.install_vp_health()
    injector = scenario.install_faults(plan)

    destinations = scenario.responsive_destinations(
        args.requests, options_only=True
    )
    scheduler = service.scheduler(
        SchedulerConfig(
            parallelism=args.parallel,
            max_retries=args.retries,
        )
    )
    for dst in destinations:
        scheduler.submit(user.api_key, dst, source)
    report = scheduler.run()
    engine = service._engine_for(source)
    return plan, tracker, injector, report, engine


def chaos_doc(args: argparse.Namespace) -> dict:
    """What ``repro chaos --json`` printed."""
    instr = Instrumentation()
    workload = _fault_workload(args, instr)
    plan, tracker, injector, report, engine = workload

    if args.plan_out:
        with open(args.plan_out, "w") as fh:
            fh.write(plan.to_json())
            fh.write("\n")
    doc = {
        "preset": None if args.plan else args.preset,
        "seed": args.seed,
        "plan": plan.to_dict(),
        "faults": injector.snapshot(),
        "vp_health": tracker.snapshot(),
        "engine_retries": dict(sorted(engine.retry_counts.items())),
        "scheduler": report.as_dict(),
    }
    return doc


def serve_report(args: argparse.Namespace) -> dict:
    """What ``repro serve --json`` printed."""
    from repro.core.revtr import EngineConfig
    from repro.service import SchedulerConfig

    instr = Instrumentation()
    if args.http is not None or args.timeseries_out:
        from repro.obs.timeseries import install_sampler

        install_sampler(instr, sim_interval=args.sample_interval)
    scenario = _scenario(args, instrumentation=instr)
    service = scenario.service(EngineConfig())
    # A demo population: per-user parallel caps cycle 1, 2, 4, ...
    users = [
        service.add_user(
            f"user{i}",
            max_parallel=min(2**i, 8),
            max_per_day=args.requests * 4,
        )
        for i in range(args.users)
    ]
    source = scenario.sources()[args.source_index]
    service.add_source(users[0].api_key, source)
    destinations = scenario.responsive_destinations(
        args.requests, options_only=True
    )
    scheduler = service.scheduler(
        SchedulerConfig(
            parallelism=args.parallel,
            max_queue_per_user=args.queue,
            max_retries=args.retries,
        )
    )
    for user in users:
        for dst in destinations:
            scheduler.submit(user.api_key, dst, source)
    doc = scheduler.run().as_dict()
    return doc
