"""Measurement archive (Appendix A).

The deployed system stores every reverse traceroute to M-Lab's cloud
storage; this is the in-process equivalent: an append-only list of
results with their request metadata, iterated by whoever queries it.
Only the thread that serves requests appends to it or reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.core.result import ReverseTracerouteResult, RevtrStatus


@dataclass
class StoredMeasurement:
    """One archived measurement with its request metadata."""

    result: ReverseTracerouteResult
    user: str


class MeasurementStore:
    """Append-only archive."""

    def __init__(self) -> None:
        self._records: List[StoredMeasurement] = []

    def append(
        self, result: ReverseTracerouteResult, user: str
    ) -> StoredMeasurement:
        record = StoredMeasurement(result=result, user=user)
        self._records.append(record)
        return record

    def complete(self) -> List[StoredMeasurement]:
        return [
            r
            for r in self._records
            if r.result.status is RevtrStatus.COMPLETE
        ]

    def completion_rate(self) -> float:
        if not self._records:
            return 0.0
        return len(self.complete()) / len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[StoredMeasurement]:
        return iter(self._records)
