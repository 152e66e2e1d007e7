"""Loaders trust nothing (ROADMAP item 1, "same family"): whatever a
file holds, `read_events` (behind `repro events --from` and `repro
explain --events`) and the snapshot check behind `repro stats --from`
give a value every reader can render, or `ValueError` /
`FileNotFoundError` - never a `KeyError`, `AttributeError` or
`TypeError` from the middle of a renderer.

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
from repro.experiments import Scenario
from repro.obs import (
    Instrumentation,
    ProvenanceLedger,
    read_events,
)
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
    """A copy of *doc* with one drawn slot deleted or retyped."""
    doc = copy.deepcopy(doc)
    container, key = data.draw(st.sampled_from(slots(doc)))
    if data.draw(st.booleans()):
        del container[key]
    else:
        container[key] = data.draw(JUNK)
    return doc


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
    how = data.draw(
        st.sampled_from(["damage", "truncate", "scalar", "gzip"])
    )
    if how == "damage":
        lines[victim] = json.dumps(damaged(records[victim], data))
    elif how == "truncate":
        cut = data.draw(st.integers(0, len(lines[victim]) - 1))
        lines[victim] = lines[victim][:cut]
    elif how == "scalar":
        lines[victim] = json.dumps(data.draw(JUNK))
    # The older half is a rotated segment, the newer half the live file.
    half = len(lines) // 2
    rotated = ("\n".join(lines[:half]) + "\n").encode()
    packed = gzip.compress(rotated, mtime=0)
    if how == "gzip":
        packed = packed[: data.draw(st.integers(0, len(packed) - 1))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ev.jsonl")
        with open(path + ".1.gz", "wb") as fh:
            fh.write(packed)
        with open(path, "w") as fh:
            fh.write("\n".join(lines[half:]) + "\n")
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
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), (
                contextlib.redirect_stderr(err)
            ):
                code = main(argv)
            if refused:
                assert code == 2 and err.getvalue().startswith("error: ")
            else:
                assert code == 0, err.getvalue()


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
    how = data.draw(st.sampled_from(["damage", "truncate", "scalar"]))
    if how == "damage":
        text = json.dumps(damaged(doc, data))
    elif how == "scalar":
        text = json.dumps(data.draw(JUNK))
    else:
        text = json.dumps(doc)
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "metrics.json")
        with open(path, "w") as fh:
            fh.write(text)
        for argv in (
            ["stats", "--from", path],
            ["stats", "--slo", "--from", path],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), (
                contextlib.redirect_stderr(err)
            ):
                code = main(argv)
            assert code in (0, 2)
            if code == 2:
                assert err.getvalue().startswith("error: ")
                assert path in err.getvalue()
