"""Benchmark: the atlas pipeline's shard lanes and warm start.

Builds the per-source traceroute atlas (Q1) and RR atlas (Q2) for one
M-Lab source through the atlas pipeline (batched probing, per-build
hop dedup, N-shard virtual-lane accounting), then warm-starts a second
deployment from a snapshot of it instead of re-probing.

That the build equals probing one hop occurrence at a time is a tier-1
test (``tests/test_atlas_pipeline.py`` against
``tests/helpers/reference_rr_atlas.py``); this script reports the
deterministic virtual-clock speedup of the sharded schedule over the
same build's serial work, and the wall-clock speedup of the warm start
over that cold build.

Checks (exit 1 on failure):

* the snapshot-loaded atlases equal the built ones, and reverse
  traceroute results over a fixed measurement stream are identical
  between the cold-built and warm-started deployments;
* sharded virtual-clock speedup >= ``--min-speedup`` (default 3x);
* warm-start wall-clock speedup >= ``--min-warm-speedup`` (default
  10x) over the cold build;
* dedup saves probes (``probes_deduped > 0``).

All quantities written to ``benchmarks/reports/BENCH_atlas.json`` are
virtual-clock or probe-count readings and therefore byte-identical
across runs, except the ``wall_seconds`` subtree, which records this
machine's timings (the warm-start headline ratio is reproduced there).

Run directly (not collected by pytest)::

    PYTHONPATH=src python benchmarks/report_atlas_pipeline.py
    PYTHONPATH=src python benchmarks/report_atlas_pipeline.py \
        --scale small --measurements 6 --min-speedup 1.0 \
        --min-warm-speedup 5    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.core.atlas import TracerouteAtlas  # noqa: E402
from repro.core.atlas_pipeline import (  # noqa: E402
    load_snapshot,
    save_snapshot,
)
from repro.experiments import Scenario  # noqa: E402
from repro.topology import TopologyConfig  # noqa: E402

SEED = 7

SCALES = {
    "small": TopologyConfig.small,
    "large": TopologyConfig.large,
}


def fresh_scenario(scale: str, atlas_size: int) -> Scenario:
    return Scenario(
        config=SCALES[scale](seed=SEED), seed=SEED, atlas_size=atlas_size
    )


def atlas_key(atlas: TracerouteAtlas):
    """Full contents of the traceroute atlas, timestamps included."""
    return {
        vp: (tuple(trace.hops), trace.reached, trace.timestamp)
        for vp, trace in atlas.traceroutes.items()
    }


def measure_stream(scenario: Scenario, source, destinations):
    """Reverse traceroute the fixed *destinations*; hashable results."""
    engine = scenario.engine(source, "revtr2.0")
    stream = []
    for dst in destinations:
        result = engine.measure(dst)
        stream.append(
            (dst, result.status.value, tuple(result.addresses()))
        )
    return stream


def build_sharded(scale: str, atlas_size: int, shards: int):
    """Cold-build both atlases through the pipeline."""
    scenario = fresh_scenario(scale, atlas_size)
    source = scenario.sources()[0]
    pipeline = scenario.atlas_pipeline(shards=shards)
    wall_start = time.perf_counter()
    atlas, rr_atlas = pipeline.bootstrap(
        source,
        scenario.bundle_rng(source),
        size=atlas_size,
        max_size=atlas_size,
    )
    wall = time.perf_counter() - wall_start
    scenario.adopt_atlases(source, atlas, rr_atlas)
    return scenario, source, atlas, rr_atlas, pipeline, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="large"
    )
    parser.add_argument("--atlas-size", type=int, default=60)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument(
        "--measurements",
        type=int,
        default=12,
        help="reverse traceroutes in the fixed identity stream",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="required virtual-clock speedup of the lane makespan "
        "over the build's serial work",
    )
    parser.add_argument(
        "--min-warm-speedup",
        type=float,
        default=10.0,
        help="required warm-start wall-clock speedup over the cold "
        "build",
    )
    args = parser.parse_args(argv)
    failures = []

    print("atlas pipeline benchmark")
    print(
        f"  {args.scale} topology, atlas size {args.atlas_size}, "
        f"{args.shards} shards, seed {SEED}"
    )

    # -- cold build ----------------------------------------------------
    (sc_sharded, source, atlas_sharded, rr_sharded, pipeline,
     wall_sharded) = build_sharded(
        args.scale, args.atlas_size, args.shards
    )
    stages = [report.as_dict() for report in pipeline.reports]
    serial_virtual_total = sum(
        s["serial_virtual_seconds"] for s in stages
    )
    makespan_total = sum(
        s["makespan_virtual_seconds"] for s in stages
    )
    virtual_speedup = (
        serial_virtual_total / makespan_total if makespan_total else 0.0
    )
    deduped = rr_sharded.probes_deduped
    print(
        f"  sharded: {len(atlas_sharded)} traceroutes, "
        f"{len(rr_sharded)} aliases, "
        f"serial work {serial_virtual_total:8.2f} vs -> "
        f"makespan {makespan_total:8.2f} vs "
        f"({virtual_speedup:.2f}x on {args.shards} shards), "
        f"{rr_sharded.probes_sent} RR probes (+{deduped} deduped), "
        f"{wall_sharded:6.3f} s wall"
    )

    if deduped <= 0:
        failures.append("dedup saved no probes")
    if virtual_speedup < args.min_speedup:
        failures.append(
            f"sharded virtual speedup {virtual_speedup:.2f}x < "
            f"required {args.min_speedup:.2f}x"
        )

    # -- the fixed measurement stream, on the cold-built deployment ----
    destinations = sc_sharded.responsive_destinations(
        args.measurements, options_only=True
    )
    stream_sharded = measure_stream(sc_sharded, source, destinations)

    # -- warm start ----------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        snap_path = os.path.join(tmp, "atlas.snap")
        save_snapshot(
            snap_path, atlas_sharded, rr_sharded, sc_sharded.internet
        )
        snap_bytes = os.path.getsize(snap_path)
        sc_warm = fresh_scenario(args.scale, args.atlas_size)
        wall_start = time.perf_counter()
        atlas_warm, rr_warm = load_snapshot(
            snap_path, sc_warm.internet
        )
        wall_warm = time.perf_counter() - wall_start
    sc_warm.adopt_atlases(source, atlas_warm, rr_warm)
    warm_speedup = wall_sharded / wall_warm if wall_warm else 0.0
    print(
        f"  warm:    {snap_bytes} byte snapshot loaded in "
        f"{wall_warm:6.4f} s wall ({warm_speedup:.1f}x over the cold "
        f"build, 0 probes)"
    )
    warm_identical = atlas_key(atlas_warm) == atlas_key(atlas_sharded)
    if not warm_identical:
        failures.append("warm-started traceroute atlas differs")
    rr_identical = (
        rr_warm is not None and rr_warm._mapping == rr_sharded._mapping
    )
    if not rr_identical:
        failures.append("warm-started RR mapping differs")
    stream_warm = measure_stream(sc_warm, source, destinations)
    if stream_warm != stream_sharded:
        failures.append(
            "reverse traceroutes diverge on the warm-started deployment"
        )
    complete = sum(
        1 for _, status, _ in stream_sharded if status == "complete"
    )
    print(
        f"  identity stream: {len(stream_sharded)} revtrs, "
        f"{complete} complete, warm == cold: "
        f"{stream_warm == stream_sharded}"
    )
    if warm_speedup < args.min_warm_speedup:
        failures.append(
            f"warm-start speedup {warm_speedup:.1f}x < required "
            f"{args.min_warm_speedup:.1f}x"
        )

    payload = {
        "benchmark": "atlas_pipeline",
        "scale": args.scale,
        "seed": SEED,
        "atlas_size": args.atlas_size,
        "shards": args.shards,
        "source": source,
        "sharded": {
            "stages": stages,
            "traceroutes": len(atlas_sharded),
            "rr_aliases": len(rr_sharded),
            "rr_probes_sent": rr_sharded.probes_sent,
            "rr_probes_deduped": deduped,
            "serial_virtual_seconds": round(serial_virtual_total, 6),
            "makespan_virtual_seconds": round(makespan_total, 6),
            "virtual_speedup": round(virtual_speedup, 3),
        },
        "warm_start": {
            "snapshot_bytes": snap_bytes,
            "probes_sent": 0,
            "min_wall_speedup_required": args.min_warm_speedup,
        },
        "identity": {
            "warm_identical": warm_identical,
            "warm_rr_mapping_identical": rr_identical,
            "measurements": len(stream_sharded),
            "measurements_identical": stream_warm == stream_sharded,
        },
        "wall_seconds": {
            "_comment": "machine-dependent; everything above is "
            "deterministic",
            "sharded_cold_build": round(wall_sharded, 4),
            "warm_start_load": round(wall_warm, 4),
            "warm_start_speedup": round(warm_speedup, 1),
        },
    }
    report_dir = os.path.join(os.path.dirname(__file__), "reports")
    os.makedirs(report_dir, exist_ok=True)
    path = os.path.join(report_dir, "BENCH_atlas.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  wrote {path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
