"""Loaders trust nothing (ROADMAP item 1, "same family"): whatever a
file holds, `read_events` (behind `repro events --from` and `repro
explain --events`) and the snapshot check behind `repro stats --from`
give a value every reader can render, or `ValueError` /
`FileNotFoundError` - never a `KeyError`, `AttributeError` or
`TypeError` from the middle of a renderer.  A fault plan (`repro
health --plan`) and an atlas snapshot (`repro atlas load --path`)
load as written or are refused: a field of the wrong shape is never
coerced into something else.

Seeds are real exports; Hypothesis deletes, retypes and truncates.
"""

import contextlib
import copy
import gzip
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import _format_event_doc, main
from repro.core.snapshot import SnapshotError, load_snapshot
from repro.experiments import Scenario
from repro.obs import (
    Instrumentation,
    ProvenanceLedger,
    read_events,
)
from repro.sim.faults import FaultPlan, FaultSpec, preset_plan
from repro.topology import TopologyConfig

#: What a retyped field becomes.
JUNK = st.sampled_from(
    [None, True, 0, -1, 1.5, "x", "+Inf", [], [1, 2], [["a"]], {},
     {"a": 1}, {"series": 3}]
)


def slots(doc):
    """Every (container, key) in a JSON tree, depth-first."""
    found = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            found.append((doc, key))
            found.extend(slots(value))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            found.append((doc, index))
            found.extend(slots(value))
    return found


def damaged(doc, data):
    """A copy of *doc* with one drawn slot deleted or retyped.  The
    field is drawn first (a list's items are one field), then one of
    its slots, so a field written once is as likely a victim as a
    field a long list repeats."""
    doc = copy.deepcopy(doc)
    fields = {}
    for container, key in slots(doc):
        field = key if isinstance(container, dict) else "[]"
        fields.setdefault(field, []).append((container, key))
    field = data.draw(st.sampled_from(sorted(fields)))
    container, key = data.draw(st.sampled_from(fields[field]))
    if data.draw(st.booleans()):
        del container[key]
    else:
        container[key] = data.draw(JUNK)
    return doc


def run_cli(argv):
    """``main(argv)`` with its output captured: (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def same(read, written):
    """Whether a loaded value is what the file wrote: numbers compare
    by value, a bool only to itself, a tuple to the list it was
    written as."""
    if isinstance(read, tuple):
        return (
            isinstance(written, list)
            and len(read) == len(written)
            and all(map(same, read, written))
        )
    if isinstance(read, bool) or isinstance(written, bool):
        return read is written
    return read == written


def damaged_text(doc, data):
    """*doc* as JSON with one slot deleted or retyped, truncated, or
    replaced by a scalar."""
    how = data.draw(
        st.sampled_from(["damage", "damage", "damage", "truncate", "scalar"])
    )
    if how == "damage":
        return json.dumps(damaged(doc, data))
    if how == "scalar":
        return json.dumps(data.draw(JUNK))
    text = json.dumps(doc)
    return text[: data.draw(st.integers(0, len(text) - 1))]


@pytest.fixture(scope="module")
def real_run():
    """One instrumented run: its event records (JSON lines) and its
    `--metrics-out` / `measure --json` documents."""
    instr = Instrumentation()
    scenario = Scenario(
        config=TopologyConfig.tiny(seed=3),
        seed=3,
        atlas_size=10,
        instrumentation=instr,
    )
    engine = scenario.engine(scenario.sources()[0], "revtr2.0")
    for dst in scenario.responsive_destinations(3, options_only=True):
        engine.measure(dst)
    records = [event.to_dict() for event in instr.events.events()]
    snapshot = json.loads(json.dumps(instr.registry.snapshot()))
    return records, snapshot


def render_everything(events):
    """What `repro events` and `repro explain all` do with a parse."""
    for event in events:
        _format_event_doc(event.to_dict())
    for mid in {event.mid for event in events if event.mid is not None}:
        ledger = ProvenanceLedger.from_events(events, mid)
        ledger.explain()
        json.dumps(ledger.summary(), sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_read_events_parses_or_refuses(real_run, data):
    records, _ = real_run
    lines = [json.dumps(record, sort_keys=True) for record in records]
    victim = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["damage", "truncate", "scalar"]))
    if how == "damage":
        lines[victim] = json.dumps(damaged(records[victim], data))
    elif how == "truncate":
        cut = data.draw(st.integers(0, len(lines[victim]) - 1))
        lines[victim] = lines[victim][:cut]
    elif how == "scalar":
        lines[victim] = json.dumps(data.draw(JUNK))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ev.jsonl")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        try:
            events = read_events(path)
        except ValueError as exc:
            # Names the file (and, for a record, the line).
            assert path in str(exc)
            refused = True
        else:
            render_everything(events)
            refused = False
        # The verbs agree: parsed -> 0, refused -> `error:` and 2.
        for argv in (
            ["events", "--from", path],
            ["explain", "all", "--events", path],
        ):
            code, err = run_cli(argv)
            if refused:
                assert code == 2 and err.startswith("error: ")
            else:
                assert code == 0, err


def test_read_events_names_file_line_and_field(tmp_path):
    path = tmp_path / "ev.jsonl"
    good = '{"v": 1, "seq": 0, "wall": 0.0, "kind": "x"}'
    for line, complaint in [
        ('{"v": 1, "wall": 0.0, "kind": "x"}', "no 'seq'"),
        ("[1, 2]", "not an object"),
        (
            '{"v": 1, "seq": 1, "kind": "measure.end", '
            '"fields": {"path": [1, 2]}}',
            "field 'path'",
        ),
        (good[:20], "line 1 column"),
        # `json.loads` reads NaN and Infinity; a time that is one is
        # refused like any other field of the wrong shape.
        ('{"v": 1, "seq": 1, "wall": NaN, "kind": "x"}', "'wall' is nan"),
        ('{"v": 1, "seq": 1, "sim": Infinity, "kind": "x"}', "'sim' is inf"),
    ]:
        path.write_text(good + "\n" + line + "\n")
        with pytest.raises(ValueError, match="ev.jsonl:2: ") as refusal:
            read_events(str(path))
        assert complaint in str(refusal.value)
    with pytest.raises(FileNotFoundError):
        read_events(str(tmp_path / "absent.jsonl"))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_stats_from_renders_or_refuses(real_run, data):
    _, snapshot = real_run
    doc = data.draw(
        st.sampled_from(
            [snapshot, {"measurements": [], "metrics": snapshot}]
        )
    )
    text = damaged_text(doc, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "metrics.json")
        with open(path, "w") as fh:
            fh.write(text)
        for argv in (
            ["stats", "--from", path],
            ["stats", "--slo", "--from", path],
        ):
            code, err = run_cli(argv)
            assert code in (0, 2)
            if code == 2:
                assert err.startswith("error: ")
                assert path in err


def test_stats_from_refuses_mismatched_bucket_grids(tmp_path):
    # Every declared histogram has one grid, so no producer writes a
    # family whose series disagree on edges; summing such a family
    # edge by edge would be wrong, so it is refused, not merged.
    path = tmp_path / "metrics.json"
    path.write_text(
        json.dumps(
            {
                "revtr_measure_duration_seconds": {
                    "type": "histogram",
                    "help": "",
                    "series": [
                        {
                            "labels": {"k": "fine"},
                            "sum": 3.0,
                            "count": 3,
                            "buckets": [[1.0, 1], [2.0, 3], ["+Inf", 3]],
                        },
                        {
                            "labels": {"k": "coarse"},
                            "sum": 9.0,
                            "count": 6,
                            "buckets": [[2.0, 4], ["+Inf", 6]],
                        },
                    ],
                }
            }
        )
    )
    for argv in (
        ["stats", "--from", str(path)],
        ["stats", "--slo", "--from", str(path)],
    ):
        code, err = run_cli(argv)
        assert code == 2 and err.startswith("error: "), err
        assert "series 1 has other bucket edges" in err


#: The deployment `health --plan` and `atlas load --path` run on.
GLOBAL_ARGV = ["--scale", "tiny", "--seed", "3", "--atlas-size", "4"]


@pytest.fixture(scope="module")
def mixed_plan():
    """The `mixed` preset, with its VP outage, plus one spec that sets
    every other targeting field."""
    plan = preset_plan(
        "mixed", seed=3, vps=[f"192.0.2.{i}" for i in range(1, 9)]
    )
    plan.add(
        FaultSpec(
            kind="router-filter", end=5.0, routers=(1, 2),
            links=((1, 2),), dsts=("192.0.2.99",), label="targets",
        )
    )
    return plan.to_dict()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fault_plan_loads_as_written_or_refuses(mixed_plan, data):
    text = damaged_text(mixed_plan, data)
    try:
        plan = FaultPlan.from_json(text)
    except ValueError:
        refused = True
    else:
        doc = json.loads(text)
        specs = doc.get("specs", [])
        assert same(plan.seed, doc.get("seed", 0))
        assert len(plan.specs) == len(specs)
        for spec, written in zip(plan.specs, specs):
            for name, value in written.items():
                assert same(getattr(spec, name), value), (name, value)
        refused = False
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "plan.json")
        with open(path, "w") as fh:
            fh.write(text)
        code, err = run_cli(
            GLOBAL_ARGV + ["health", "--plan", path, "--requests", "1"]
        )
    if refused:
        assert code == 2 and err.startswith("error: "), err
    else:
        assert code == 0, err


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """A tiny `atlas build --out` snapshot, as a JSON document, and
    the Internet it was built on."""
    path = tmp_path_factory.mktemp("atlas") / "atlas.snap"
    code, err = run_cli(GLOBAL_ARGV + ["atlas", "build", "--out", str(path)])
    assert code == 0, err
    with gzip.open(path, "rb") as fh:
        doc = json.loads(fh.read().decode())
    scenario = Scenario(config=TopologyConfig.tiny(seed=3), seed=3)
    return doc, scenario.internet


def assert_loaded_as_written(atlas, rr_atlas, written):
    """Every field the loader accepted is the value the file holds."""
    spec = written["atlas"]
    for name in ("source", "max_size", "staleness"):
        assert same(getattr(atlas, name), spec[name]), name
    entries = spec["traceroutes"]
    assert len(atlas.traceroutes) == len(entries)
    for entry in entries:
        trace = atlas.traceroutes[entry["src"]]
        assert same(trace.dst, spec["source"])
        assert same(tuple(trace.hops), entry["hops"])
        for name in ("reached", "flow_id", "timestamp"):
            assert same(getattr(trace, name), entry[name]), name
        assert same(
            atlas.generation_of(entry["src"]), entry.get("generation")
        )
    assert same(tuple(sorted(atlas._useful)), spec.get("useful", []))
    rr_spec = written.get("rr_atlas")
    assert (rr_atlas is None) == (rr_spec is None)
    if rr_atlas is not None:
        assert same(
            tuple(
                (addr, vp, index)
                for addr, (vp, index) in rr_atlas._mapping.items()
            ),
            rr_spec["mapping"],
        )
        for name in ("probes_sent", "probes_deduped"):
            assert same(getattr(rr_atlas, name), rr_spec.get(name, 0))


# Cheap per case, and the two fields the parent mis-loaded are 2 of ~25.
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_atlas_snapshot_loads_as_written_or_refuses(snapshot, data):
    doc, internet = snapshot
    text = damaged_text(doc, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "atlas.snap")
        with gzip.open(path, "wb") as fh:
            fh.write(text.encode())
        try:
            atlas, rr_atlas = load_snapshot(path, internet)
        except SnapshotError:
            refused = True
        else:
            assert_loaded_as_written(atlas, rr_atlas, json.loads(text))
            # The verb serves the deployment's source only.
            refused = atlas.source != doc["atlas"]["source"]
        code, err = run_cli(GLOBAL_ARGV + ["atlas", "load", "--path", path])
    if refused:
        assert code == 2 and err.startswith("error: "), err
    else:
        assert code == 0, err


@pytest.mark.parametrize("field", ["staleness", "timestamp"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_snapshot_number_is_refused(snapshot, field, value):
    """A snapshot whose atlas staleness is NaN used to load, and then
    `TracerouteAtlas.is_stale` could never be true; an infinite
    traceroute timestamp loaded too.  Both are refused, naming the
    field."""
    doc, internet = snapshot
    doc = copy.deepcopy(doc)
    if field == "staleness":
        doc["atlas"]["staleness"] = value
    else:
        doc["atlas"]["traceroutes"][0]["timestamp"] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "atlas.snap")
        with gzip.open(path, "wb") as fh:
            fh.write(json.dumps(doc).encode())
        with pytest.raises(SnapshotError, match=f"'{field}'"):
            load_snapshot(path, internet)


def test_retyped_snapshot_hop_is_refused_not_measured(tmp_path):
    """A hop `save_snapshot` wrote as a string, retyped to a number,
    used to load and then crash the first measurement that read it
    (`AttributeError` in the address parser): now `atlas load`
    refuses the file, naming the field."""
    argv = ["--scale", "tiny", "--seed", "3", "--atlas-size", "10"]
    path = tmp_path / "atlas.snap"
    code, err = run_cli(argv + ["atlas", "build", "--out", str(path)])
    assert code == 0, err
    with gzip.open(path, "rb") as fh:
        doc = json.loads(fh.read().decode())
    doc["atlas"]["traceroutes"][0]["hops"][5] = 7
    with gzip.open(path, "wb") as fh:
        fh.write(json.dumps(doc).encode())
    code, err = run_cli(
        argv + ["atlas", "load", "--path", str(path), "--measure", "6"]
    )
    assert code == 2 and err.startswith("error: "), err
    assert "hop of traceroute" in err
