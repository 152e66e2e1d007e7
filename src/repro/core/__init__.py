"""The revtr core: the paper's measurement system.

Implements the full revtr 2.0 pipeline of Fig. 2 — traceroute atlas
(Q1), RR-atlas intersection aliases (Q2), ingress-based vantage-point
selection (Q3), no-timestamp policy (Q4), intradomain-only symmetry
assumptions (Q5).  The revtr 1.0 baseline of Section 5's comparisons
is a configuration of the same engine
(:meth:`repro.experiments.common.Scenario.engine_config`).
"""

from repro.core.atlas import TracerouteAtlas
from repro.core.snapshot import (
    SnapshotError,
    SnapshotMismatch,
    load_snapshot,
    save_snapshot,
)
from repro.core.adjacency import AdjacencyDatabase
from repro.core.cache import MeasurementCache
from repro.core.flags import flag_suspicious_links
from repro.core.ingress import (
    GlobalOrderSelector,
    IngressDirectory,
    IngressSelector,
    SetCoverSelector,
)
from repro.core.result import (
    HopTechnique,
    ReverseHop,
    ReverseTracerouteResult,
    RevtrStatus,
)
from repro.core.revtr import EngineConfig, RevtrEngine
from repro.core.rr_atlas import RRAtlas
from repro.core.symmetry import SymmetryPolicy, SymmetryStepper

__all__ = [
    "TracerouteAtlas",
    "SnapshotError",
    "SnapshotMismatch",
    "load_snapshot",
    "save_snapshot",
    "AdjacencyDatabase",
    "MeasurementCache",
    "flag_suspicious_links",
    "GlobalOrderSelector",
    "IngressDirectory",
    "IngressSelector",
    "SetCoverSelector",
    "HopTechnique",
    "ReverseHop",
    "ReverseTracerouteResult",
    "RevtrStatus",
    "EngineConfig",
    "RevtrEngine",
    "RRAtlas",
    "SymmetryPolicy",
    "SymmetryStepper",
]
