"""Reverse-AS-graph correctness and completeness (§5.1, Table 3).

For each technique (revtr 2.0, RIPE-Atlas-style direct traceroutes,
forward traceroutes + assumed symmetry) we identify, for every AS, the
AS-level link it uses to route *toward* a given source, then score:

* **completeness** — fraction of all ASes for which the technique
  inferred at least one link toward the source;
* **correctness** — fraction of inferred links that are on the
  ground-truth reverse path (the simulator lets us verify even the
  techniques the paper takes as correct by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Set, Tuple

ASLink = Tuple[int, int]


@dataclass
class ASGraphScore:
    """Score of one technique for one source."""

    technique: str
    inferred: Set[ASLink] = field(default_factory=set)
    correct: Set[ASLink] = field(default_factory=set)
    ases_covered: Set[int] = field(default_factory=set)

    def correctness(self) -> float:
        if not self.inferred:
            return 0.0
        return len(self.correct & self.inferred) / len(self.inferred)

    def completeness(self, total_ases: int) -> float:
        if total_ases == 0:
            return 0.0
        return len(self.ases_covered) / total_ases


def links_toward_source(as_path: Sequence[int]) -> List[ASLink]:
    """Directed AS links of a path ending at the source's AS."""
    links = []
    for here, nxt in zip(as_path, as_path[1:]):
        if here != nxt:
            links.append((here, nxt))
    return links


def score_as_graph(
    technique: str,
    as_paths: Iterable[Sequence[int]],
    truth_links: Set[ASLink],
) -> ASGraphScore:
    """Score a batch of AS paths toward one source.

    ``truth_links``: the ground-truth set of directed AS links used by
    reverse routes toward the source (from the simulator).
    """
    score = ASGraphScore(technique=technique)
    for as_path in as_paths:
        for link in links_toward_source(as_path):
            score.inferred.add(link)
            score.ases_covered.add(link[0])
            if link in truth_links:
                score.correct.add(link)
    return score
