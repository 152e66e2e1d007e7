#!/usr/bin/env python3
"""The repo's end-to-end benchmark: request in → reverse path out.

One run (what ``BENCHMARK.json``'s command invokes)::

    python3 benchmarks/e2e/run.py --workload cold_sweep --seed 7 \
        --seconds 8 --trace 0

drives one workload and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer ledger with ``--trace 1``.

Without ``--workload`` it runs every workload, untraced and traced, each
in its own single-threaded child process, prints every metric by name
with its unit, cross-checks the runs, and writes ``out/latest.json``::

    python3 benchmarks/e2e/run.py [--seed 7]
    python3 benchmarks/e2e/run.py --aa        # A/A: untraced set twice
    python3 benchmarks/e2e/run.py --record    # also rewrite baseline.json
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import metrics as M  # noqa: E402

#: str hashes feed set/dict iteration order inside the program; pinned
#: so a run's host time does not depend on the hash seed it drew.
HASH_SEED = "0"
WORKLOADS = ("cold_sweep", "hot_repeat", "route_churn", "faulted_ops")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=M.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="self-test size (tiny topology, 1/20 of the requests); "
        "never produces recorded numbers",
    )
    parser.add_argument(
        "--aa",
        action="store_true",
        help="run the untraced set twice and compare against the bounds",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="rewrite baseline.json from this run (with --aa: add the "
        "observed A/A difference to it)",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# One run, in this process
# ----------------------------------------------------------------------


def run_single(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    import harness

    result, info = harness.run_one(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.quick,
        import_raw_s=time.perf_counter() - _STARTED,
    )
    info["pythonhashseed"] = HASH_SEED
    print("info " + json.dumps(info, sort_keys=True))
    for failure in info["failures"]:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Every workload, each run in a child process
# ----------------------------------------------------------------------


def child(workload: str, trace: int, args: argparse.Namespace):
    """Run one child; returns (result, info) parsed from its output."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.quick:
        command.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"{workload} --trace {trace} failed "
            f"(exit {done.returncode})"
        )
    return json.loads(lines[-1]), json.loads(lines[-2][len("info "):])


def write_json(path: str, document) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")


def show(title: str, table, result) -> None:
    print(f"  {title}")
    for row in table:
        name, unit = row[0], row[1]
        value = result["metrics"][name]["value"]
        bound = f"  (bound {row[3]:.0%})" if len(row) > 3 else ""
        print(f"    {name:<42} {value:>16.6g} {unit}{bound}")


def run_all(args: argparse.Namespace) -> int:
    document = {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "pythonhashseed": HASH_SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": {},
    }
    failures = []
    for workload in WORKLOADS:
        e2e, e2e_info = child(workload, 0, args)
        layers, layer_info = child(workload, 1, args)
        # Two processes, same seed: the outputs must be bit-equal.
        for key in ("result_digest", "simulated"):
            if e2e_info[key] != layer_info[key]:
                failures.append(
                    f"{workload}: untraced and traced runs disagree "
                    f"on {key}"
                )
        timing = e2e_info["timing"]
        print(f"== {workload}: {e2e_info['requests']} requests, "
              f"{timing['steps']} steps, seed {args.seed}")
        show("end to end (untraced run)", M.END_TO_END, e2e)
        print(f"    info: raw timed phase {timing['raw_s']:.3f} s, "
              f"drift p50 {timing['drift_p50']:.3f} "
              f"max {timing['drift_max']:.3f}, "
              f"statuses {e2e_info['statuses']}")
        print(f"    result_digest {e2e_info['result_digest']}")
        show("per layer (traced run)", M.PER_LAYER, layers)
        shares = {
            name[: -len(".share")]: entry["value"]
            for name, entry in layers["metrics"].items()
            if name.endswith(".share")
        }
        top = max(shares, key=shares.get)
        print(f"  largest layer: {top} ({shares[top]:.1%} of traced "
              f"time)\n")
        document["workloads"][workload] = {
            "requests": e2e_info["requests"],
            "steps": timing["steps"],
            "result_digest": e2e_info["result_digest"],
            "statuses": e2e_info["statuses"],
            "attempted": e2e["attempted"],
            "failed": e2e["failed"],
            "largest_layer": top,
            "raw_timed_phase_s": timing["raw_s"],
            "drift_p50": timing["drift_p50"],
            "drift_max": timing["drift_max"],
            "calib_ref_s": e2e_info["calib_ref_s"],
            "end_to_end": e2e["metrics"],
            "per_layer": layers["metrics"],
        }
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    write_json(os.path.join(HERE, "out", "latest.json"), document)
    if args.record and not args.quick and not failures:
        write_json(os.path.join(HERE, "baseline.json"), document)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def run_aa(args: argparse.Namespace) -> int:
    """Two untraced sets of the same code, back to back: every metric
    must agree within its own bound, simulated ones exactly."""
    sets = [
        {workload: child(workload, 0, args) for workload in WORKLOADS}
        for _ in range(2)
    ]
    outside = 0
    spread = {}
    for workload in WORKLOADS:
        (a, a_info), (b, b_info) = sets[0][workload], sets[1][workload]
        print(f"== {workload}")
        exact = a_info["result_digest"] == b_info["result_digest"]
        if not exact:
            outside += 1
        print(f"    result_digest equal: {exact}")
        spread[workload] = {}
        for name, unit, _, bound in M.END_TO_END:
            va = a["metrics"][name]["value"]
            vb = b["metrics"][name]["value"]
            diff = abs(va - vb) / abs(va)
            limit = 0.0 if name in M.SIMULATED else bound
            verdict = "ok" if diff <= limit else "OUTSIDE"
            outside += diff > limit
            spread[workload][name] = diff
            print(f"    {name:<24} {va:>14.6g} {vb:>14.6g} {unit:<14}"
                  f" diff {diff:7.2%}  bound {limit:4.0%}  {verdict}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    write_json(os.path.join(HERE, "out", "aa.json"), spread)
    baseline = os.path.join(HERE, "baseline.json")
    if args.record and not args.quick and not outside:
        # The observed A/A difference sits next to the recorded numbers.
        with open(baseline) as handle:
            document = json.load(handle)
        document["aa_relative_difference"] = spread
        write_json(baseline, document)
    return 1 if outside else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload:
        return run_single(args)
    if args.aa:
        return run_aa(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
