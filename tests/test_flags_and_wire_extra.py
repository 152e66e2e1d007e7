"""Extra coverage: store iteration."""

from repro.core.result import ReverseTracerouteResult, RevtrStatus
from repro.service.store import MeasurementStore


class TestStoreIteration:
    def test_iter_and_completion_rate(self):
        store = MeasurementStore()
        assert store.completion_rate() == 0.0
        complete = ReverseTracerouteResult(
            src="s", dst="d", status=RevtrStatus.COMPLETE
        )
        failed = ReverseTracerouteResult(
            src="s", dst="d", status=RevtrStatus.INCOMPLETE
        )
        store.append(complete, user="u")
        store.append(failed, user="u")
        assert store.completion_rate() == 0.5
        assert len(list(iter(store))) == 2
        assert len(store.complete()) == 1
