"""Hidden-provider detection (§6.3's security use case).

A security company used the paper's system "to identify hidden
providers on reverse paths to facilitate takedown of malicious
activity": a network may hide its upstream connectivity from forward
measurements, but the reverse path toward a vantage point exposes
which ASes actually carry its traffic. An AS is a *hidden provider* of
a destination network if it appears on the reverse path from the
destination but never on forward paths toward it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Destination networks the report lists by name.
REPORT_TOP = 10


@dataclass
class HiddenProviderReport:
    """Per-destination-AS upstream visibility comparison."""

    #: destination AS -> ASes adjacent to it on forward paths
    forward_upstreams: Dict[int, Set[int]] = field(
        default_factory=lambda: defaultdict(set)
    )
    #: destination AS -> ASes adjacent to it on reverse paths
    reverse_upstreams: Dict[int, Set[int]] = field(
        default_factory=lambda: defaultdict(set)
    )

    def hidden_providers(self, dst_asn: int) -> Set[int]:
        """Upstreams seen only on the reverse side."""
        return self.reverse_upstreams.get(dst_asn, set()) - (
            self.forward_upstreams.get(dst_asn, set())
        )

    def all_findings(self) -> List[Tuple[int, Set[int]]]:
        findings = []
        for asn in sorted(self.reverse_upstreams):
            hidden = self.hidden_providers(asn)
            if hidden:
                findings.append((asn, hidden))
        return findings


def _upstream_of(as_path: Sequence[int], dst_asn: int) -> Optional[int]:
    """The AS adjacent to *dst_asn* on a path that contains it."""
    path = list(as_path)
    if dst_asn not in path:
        return None
    index = path.index(dst_asn)
    if index + 1 < len(path):
        return path[index + 1]
    if index - 1 >= 0:
        return path[index - 1]
    return None


def find_hidden_providers(
    pairs: Iterable[Tuple[Sequence[int], Sequence[int]]],
) -> HiddenProviderReport:
    """Compare forward and reverse AS paths per destination network.

    ``pairs`` are (forward AS path from source to destination, reverse
    AS path normalised to the same orientation). The destination AS is
    the last element of the forward path.
    """
    report = HiddenProviderReport()
    for forward_as, reverse_as in pairs:
        if not forward_as:
            continue
        dst_asn = forward_as[-1]
        fwd_up = _upstream_of(list(reversed(forward_as)), dst_asn)
        if fwd_up is not None:
            report.forward_upstreams[dst_asn].add(fwd_up)
        rev_up = _upstream_of(list(reversed(reverse_as)), dst_asn)
        if rev_up is not None:
            report.reverse_upstreams[dst_asn].add(rev_up)
    return report


def format_report(report: HiddenProviderReport) -> str:
    findings = report.all_findings()
    lines = [
        "Hidden providers — upstreams visible only on reverse paths",
        f"destination networks with hidden upstreams: {len(findings)}",
    ]
    for asn, hidden in findings[:REPORT_TOP]:
        rendered = ", ".join(f"AS{a}" for a in sorted(hidden))
        lines.append(f"  AS{asn}: {rendered}")
    return "\n".join(lines)
