"""Traffic engineering with reverse traceroutes (Section 6.1).

A PEERING-like testbed: a prefix anycast from several sites, with
per-site BGP poisoning and selective no-export communities as the
control knobs. Reverse traceroutes measured toward the anycast source
reveal each client network's catchment and the transit it arrives
through — the visibility the paper's case study exercises.
"""

from repro.te.peering import AnycastDeployment, PeeringTestbed
from repro.te.engineering import CatchmentReport, TrafficEngineer

__all__ = [
    "AnycastDeployment",
    "PeeringTestbed",
    "CatchmentReport",
    "TrafficEngineer",
]
