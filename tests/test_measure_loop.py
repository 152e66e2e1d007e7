"""The measurement loop against the function it replaced.

``RevtrEngine._measure`` is a loop over named openers and steps chosen
once from the config; ``tests/helpers/reference_measure.py`` keeps the
single 379-line function it was split from.  Two identically seeded
deployments serve one drawn request stream — every Table 4 variant,
the reuse and degradation options, the Appendix A/E request options,
faults with VP health installed, repeats, routing invalidations and
clock jumps past the cache TTLs — one through each, and everything an
operator or a test can observe must agree: results, step and retry
tallies, probe counters, the clock, both caches' stats, the learned
terminals, the flight-recorder stream and the span trees.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.segcache import DEFAULT_NEGATIVE_TTL, DEFAULT_SEGMENT_TTL
from repro.experiments import Scenario
from repro.experiments.common import VARIANTS
from repro.obs import Instrumentation
from repro.sim.faults import preset_plan
from repro.topology import TopologyConfig
from tests.helpers.reference_measure import reference_measure_loop

#: Table 4's ladder as step lists: what the config selects at
#: construction (``+ reuse`` is ``segment_cache``).
INTERSECT, SPLICE, RR, TS, SYMMETRY = (
    "_step_intersect", "_step_splice", "_step_rr", "_step_timestamp",
    "_step_symmetry",
)
STEPS = {
    "revtr1.0": [INTERSECT, RR, TS, SYMMETRY],
    "revtr1.0+ingress": [INTERSECT, RR, TS, SYMMETRY],
    "revtr1.0+ingress+cache": [INTERSECT, RR, TS, SYMMETRY],
    "revtr1.0+ingress+cache-TS": [INTERSECT, RR, SYMMETRY],
    "revtr2.0": [INTERSECT, RR, SYMMETRY],
    "revtr2.0+TS": [INTERSECT, RR, TS, SYMMETRY],
}
#: (topology seed, source index) pairs whose first twelve destinations
#: between them reach every branch of the steps: atlas hits, mid-path
#: splices, cached negatives, Appendix E suspects, every end status.
WORLDS = (
    (2, 1), (6, 2), (7, 0), (7, 2), (9, 2), (10, 1), (11, 0), (11, 2),
)
N_DSTS = 12
#: a host that answers nothing: the ping opener settles it
DEAD = "203.0.113.9"

dst_index = st.integers(0, N_DSTS + 1)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("measure"), dst_index),
        st.tuples(
            st.just("many"), st.lists(dst_index, min_size=1, max_size=5)
        ),
        st.tuples(st.just("invalidate"), st.none()),
        st.tuples(
            st.just("advance"),
            st.sampled_from(
                (5.0, DEFAULT_NEGATIVE_TTL + 1, DEFAULT_SEGMENT_TTL + 1)
            ),
        ),
    ),
    min_size=6,
    max_size=24,
)
options = st.fixed_dictionaries(
    {
        "segment_cache": st.booleans(),
        "coalesce_batches": st.booleans(),
        "detect_violations": st.booleans(),
        "max_intersection_age": st.sampled_from((None, 1.0)),
        "ping_check": st.sampled_from((True, True, False)),
        "retry_budget": st.sampled_from((0, 3)),
        "recheck_unresponsive": st.booleans(),
    }
)


class _Deployment:
    """One seeded tiny deployment with a single engine under test."""

    def __init__(self, seed, source_index, variant, options, preset):
        self.scenario = scenario = Scenario(
            config=TopologyConfig.tiny(seed=seed),
            seed=seed,
            atlas_size=8,
            instrumentation=Instrumentation(),
        )
        source = scenario.sources()[source_index]
        config = dataclasses.replace(
            scenario.engine_config(variant), **options
        )
        self.engine = scenario.engine(source, variant, config=config)
        # ... and a first hop of the source: the loop's own terminal
        # test settles it before any technique runs.
        self.dsts = scenario.responsive_destinations(N_DSTS) + [
            DEAD, min(self.engine._terminal),
        ]
        # Atlases are built fault-free; the tracker and the injector
        # arm just before the stream, as in ``repro chaos``.
        scenario.install_vp_health(quarantine_seconds=300.0)
        scenario.install_faults(
            preset_plan(
                preset,
                seed=seed,
                vps=[vp for vp in scenario.spoofer_addrs if vp != source],
            )
        )

    def apply(self, op, arg):
        """Run one stream operation; returns the results it served."""
        if op == "measure":
            return [self.engine.measure(self.dsts[arg]).to_dict()]
        if op == "many":
            served = self.engine.measure_many(
                [self.dsts[index] for index in arg]
            )
            return [result.to_dict() for result in served]
        if op == "invalidate":
            self.scenario.internet.invalidate_routing()
        else:
            self.scenario.clock.advance(arg)
        return []

    def observables(self):
        engine, scenario = self.engine, self.scenario
        segcache = engine.segcache
        return {
            "steps": engine.step_counts,
            "retries": engine.retry_counts,
            "probes": dict(scenario.online_prober.counter.counts),
            "clock": scenario.clock.now(),
            "cache": dataclasses.asdict(engine.cache.stats),
            "segcache": (
                None
                if segcache is None
                else dataclasses.asdict(segcache.stats)
            ),
            "terminal": sorted(engine._terminal),
            "events": [
                _without_wall(event.to_dict())
                for event in scenario.obs.events.events()
            ],
            "traces": _without_wall(scenario.obs.tracer.export_json()),
        }


def _without_wall(doc):
    """*doc* with every wall-clock field dropped, at any depth."""
    if isinstance(doc, dict):
        return {
            key: _without_wall(value)
            for key, value in doc.items()
            if not key.startswith("wall")
        }
    if isinstance(doc, list):
        return [_without_wall(item) for item in doc]
    return doc


@settings(max_examples=80, deadline=None)
@given(
    world=st.sampled_from(WORLDS),
    variant=st.sampled_from(VARIANTS),
    options=options,
    # 30 % loss per link leaves few destinations pingable: weight the
    # fault-free deployment so the deep paths keep their share.
    preset=st.sampled_from(("none", "none", "loss", "mixed")),
    stream=ops,
)
def test_loop_equals_the_function_it_replaced(
    world, variant, options, preset, stream
):
    loop = _Deployment(*world, variant, options, preset)
    with reference_measure_loop():
        reference = _Deployment(*world, variant, options, preset)
    assert type(loop.engine) is not type(reference.engine)
    for op, arg in stream:
        assert loop.apply(op, arg) == reference.apply(op, arg), (op, arg)
    ours, theirs = loop.observables(), reference.observables()
    for name, value in ours.items():
        assert value == theirs[name], name


@pytest.fixture(scope="module")
def tiny():
    return Scenario(
        config=TopologyConfig.tiny(seed=11), seed=11, atlas_size=8
    )


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("reuse", (False, True))
def test_a_variant_is_its_list_of_steps(tiny, variant, reuse):
    scenario = tiny
    config = dataclasses.replace(
        scenario.engine_config(variant), segment_cache=reuse
    )
    engine = scenario.engine(scenario.sources()[0], variant, config=config)
    expected = list(STEPS[variant])
    if reuse:
        expected.insert(1, SPLICE)
    assert [step.__name__ for step in engine._steps] == expected
    assert [opener.__name__ for opener in engine._openers] == (
        ["_open_full_splice"] * reuse
        + ["_open_ping_check"] * config.ping_check
    )
