"""Alias resolution: grouping IP addresses into routers.

Incomplete alias knowledge is a central theme of the paper — it is why
router-level accuracy is hard to assess (Fig. 5a's shaded region) and
why the RR atlas (Q2) sidesteps aliasing entirely. This package
implements the sources the paper combines (Appendix B.1):

* the offline ITDK-like dataset (:mod:`repro.alias.itdk`), which
  stands for the MIDAR-derived map every engine reads;
* SNMPv3 engine-id fingerprinting (:mod:`repro.alias.snmp`);
* the /30-/31 point-to-point heuristic, combined with the dataset by
  :class:`repro.alias.resolver.AliasResolver`.
"""

from repro.alias.itdk import build_itdk_dataset
from repro.alias.resolver import AliasResolver
from repro.alias.snmp import SnmpResolver

__all__ = [
    "build_itdk_dataset",
    "AliasResolver",
    "SnmpResolver",
]
