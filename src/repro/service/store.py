"""Measurement archive (Appendix A).

The deployed system stores every reverse traceroute to M-Lab's cloud
storage; this is the in-process equivalent: an append-only list of
results with their request metadata, iterated by whoever queries it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterator, List

from repro.core.result import ReverseTracerouteResult, RevtrStatus


@dataclass
class StoredMeasurement:
    """One archived measurement with its request metadata."""

    result: ReverseTracerouteResult
    user: str
    requested_at: float
    label: str = ""


class MeasurementStore:
    """Append-only archive."""

    def __init__(self) -> None:
        self._records: List[StoredMeasurement] = []
        # Held around every append and every copy-out, for a reader
        # thread running beside the workload (``serve --http``).
        self._lock = threading.Lock()

    def append(
        self,
        result: ReverseTracerouteResult,
        user: str,
        requested_at: float,
        label: str = "",
    ) -> StoredMeasurement:
        record = StoredMeasurement(
            result=result,
            user=user,
            requested_at=requested_at,
            label=label,
        )
        with self._lock:
            self._records.append(record)
        return record

    def all(self) -> List[StoredMeasurement]:
        with self._lock:
            return list(self._records)

    def complete(self) -> List[StoredMeasurement]:
        with self._lock:
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
