"""A source's atlases are drawn from its own stream (Appendix A).

Sources come and go in the open system, and each is bootstrapped with
a traceroute atlas and an RR atlas. Which vantage points make up source
S's atlas is decided by ``service.sources.build_atlas`` from a stream
seeded by ``(seed, S)`` alone, for the scenario's engines and for the
service alike. So the service's atlases for S do not depend on which
sources registered before S, they are the atlases the paper engines use,
and S's refreshes continue S's stream whatever other sources refresh in
between.

Hops, not timestamps, are compared: the bootstrap's record-route check
moves the virtual clock before the atlas is measured.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import Scenario
from repro.topology import TopologyConfig

SEED = 3
ATLAS_SIZE = 10
#: Sources a registration order is drawn from.
N_SOURCES = 4


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        config=TopologyConfig.small(seed=SEED),
        seed=SEED,
        atlas_size=ATLAS_SIZE,
    )


def atlas_hops(atlas):
    """The atlas's VPs in draw order, each with its trace's hops."""
    return [
        (vp, tuple(trace.hops)) for vp, trace in atlas.traceroutes.items()
    ]


def rr_aliases(rr_atlas):
    """Each alias the RR atlas knows, with the (VP, index) it answers."""
    answers = {}
    for alias in rr_atlas.known_aliases():
        hit = rr_atlas.lookup(alias)
        answers[alias] = None if hit is None else (hit.vp, hit.index)
    return answers


@pytest.fixture(scope="module")
def scenario_atlases(scenario):
    """source -> the paper engines' (atlas hops, RR-atlas answers)."""
    atlases = {
        source: (
            atlas_hops(scenario.bundle(source).atlas),
            rr_aliases(scenario.rr_atlas(source)),
        )
        for source in scenario.sources(N_SOURCES)
    }
    # Nothing is vacuous: every source has a full atlas and aliases.
    assert all(
        len(hops) == ATLAS_SIZE and aliases
        for hops, aliases in atlases.values()
    )
    return atlases


@settings(max_examples=40, deadline=None)
@given(
    order=st.lists(
        st.integers(0, N_SOURCES - 1), min_size=2, max_size=4, unique=True
    )
)
def test_registration_order_does_not_shape_an_atlas(
    scenario, scenario_atlases, order
):
    """Registered in any order, each source's atlas VPs, their
    traceroutes' hops and its RR atlas's aliases are the scenario's."""
    registry = scenario.service().registry
    sources = [scenario.sources(N_SOURCES)[i] for i in order]
    for source in sources:
        registry.register(source)
    for source in sources:
        registered = registry.sources[source]
        assert (
            atlas_hops(registered.atlas),
            rr_aliases(registered.rr_atlas),
        ) == scenario_atlases[source], source


@pytest.fixture(scope="module")
def lone_refreshes(scenario):
    """Source 0's atlas after each of its refreshes, registered alone."""
    registry = scenario.service().registry
    source = scenario.sources()[0]
    registry.register(source)
    refreshed = []
    for _ in range(3):
        registry.refresh_atlas(source)
        refreshed.append(atlas_hops(registry.sources[source].atlas))
    return refreshed


@settings(max_examples=20, deadline=None)
@given(
    others_first=st.booleans(),
    others_between=st.lists(st.integers(0, 2), min_size=2, max_size=2),
)
def test_other_refreshes_do_not_shape_a_refresh(
    scenario, lone_refreshes, others_first, others_between
):
    """Refreshing other sources between two refreshes of S leaves S's
    refreshes what they are when S is alone."""
    registry = scenario.service().registry
    source, *others = scenario.sources(3)
    order = others + [source] if others_first else [source] + others
    for addr in order:
        registry.register(addr)
    for count, expected in zip(others_between + [0], lone_refreshes):
        registry.refresh_atlas(source)
        assert atlas_hops(registry.sources[source].atlas) == expected
        for other in others[:count]:
            registry.refresh_atlas(other)
