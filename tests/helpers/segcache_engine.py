"""An engine wired like ``Scenario.engine`` but given a segment cache.

``Scenario.engine`` builds the paper's engines, which measure from
scratch and never splice; the service gives every engine it builds a
shared per-source :class:`~repro.core.segcache.ReverseSegmentCache`.
Tests that exercise splicing on a scenario's own atlases build the
engine here.  It reads ``RevtrEngine`` through the scenario module, so
an engine built inside ``reference_measure_loop()`` is the reference
class too.  Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Optional

import repro.experiments.common as scenario_module
from repro.core.revtr import EngineConfig
from repro.core.segcache import ReverseSegmentCache


def engine_with_segcache(
    scenario,
    source,
    variant: str = "revtr2.0",
    config: Optional[EngineConfig] = None,
    segcache: Optional[ReverseSegmentCache] = None,
):
    """``scenario.engine(source, variant, config=...)`` splicing from
    *segcache* (a new, empty one by default); not kept in the
    scenario's per-source bundle."""
    if config is None:
        config = scenario.engine_config(variant)
    if segcache is None:
        segcache = ReverseSegmentCache(scenario.clock, scenario.internet)
    # The lazy builds run in ``Scenario.engine``'s order, so both
    # leave the background prober and the clock in the same state.
    bundle = scenario.bundle(source)
    rr_atlas = scenario.rr_atlas(source) if config.use_rr_atlas else None
    adjacency = scenario.adjacency_db() if config.use_timestamp else None
    return scenario_module.RevtrEngine(
        prober=scenario.online_prober,
        source=source,
        atlas=bundle.atlas,
        selector=scenario.selector(variant),
        ip2as=scenario.ip2as,
        relationships=scenario.relationships,
        config=config,
        rr_atlas=rr_atlas,
        resolver=scenario.resolver,
        adjacency=adjacency,
        spoofers=scenario.spoofer_addrs,
        instrumentation=scenario.obs,
        segcache=segcache,
    )
