"""Tests for the §4.3 stateful probing session (ingress feedback)."""

import pytest

from repro.core.ingress import (
    MAX_VPS_PER_INGRESS,
    IngressInfo,
    IngressProbeSession,
    IngressSelector,
    PrefixSurvey,
)
from repro.net.addr import Prefix


def make_survey(ingresses, fallback=()):
    survey = PrefixSurvey(
        prefix=Prefix.parse("10.0.0.0/24"), destinations=["10.0.0.10"]
    )
    for addr, vps in ingresses:
        survey.ingresses.append(
            IngressInfo(
                addr=addr, vps=list(vps),
                distances=list(range(1, len(vps) + 1)),
            )
        )
    for index, vp in enumerate(fallback):
        survey.in_range[vp] = index + 1
        survey.mean_distance[vp] = float(index + 1)
    return survey


@pytest.fixture
def one_vp_at_a_time(monkeypatch):
    """Batches of one, so a test can answer each probe before the
    session picks the next VP."""
    monkeypatch.setattr("repro.core.ingress.DEFAULT_BATCH_SIZE", 1)


class TestSession:
    def test_first_batch_is_closest_per_ingress(self):
        survey = make_survey(
            [
                ("10.0.0.1", ["1.1.1.1", "1.1.1.2"]),
                ("10.0.0.2", ["2.2.2.1", "2.2.2.2"]),
            ]
        )
        session = IngressProbeSession(survey)
        batch = session.next_batch()
        assert batch[:2] == ["1.1.1.1", "2.2.2.1"]

    def test_failure_substitutes_next_closest(self, one_vp_at_a_time):
        survey = make_survey(
            [("10.0.0.1", ["1.1.1.1", "1.1.1.2", "1.1.1.3"])]
        )
        session = IngressProbeSession(survey)
        first = session.next_batch()
        assert first == ["1.1.1.1"]
        # The probe did not traverse the expected ingress.
        session.observe("1.1.1.1", ["9.9.9.9"])
        assert session.next_batch() == ["1.1.1.2"]

    def test_gives_up_after_max_failures(self, one_vp_at_a_time):
        vps = [f"1.1.1.{i}" for i in range(1, 10)]
        survey = make_survey([("10.0.0.1", vps)])
        session = IngressProbeSession(survey)
        tried = 0
        while True:
            batch = session.next_batch()
            if not batch:
                break
            tried += len(batch)
            for vp in batch:
                session.observe(vp, ["9.9.9.9"])  # always a miss
        assert tried == MAX_VPS_PER_INGRESS

    def test_success_marks_ingress_tested(self, one_vp_at_a_time):
        """A probe that traversed the ingress settles it: by
        destination-based routing, more VPs through the same ingress
        are redundant (§4.3's "all ingresses have been tested")."""
        vps = [f"1.1.1.{i}" for i in range(1, 10)]
        survey = make_survey([("10.0.0.1", vps)])
        session = IngressProbeSession(survey)
        batch = session.next_batch()
        assert batch == ["1.1.1.1"]
        session.observe("1.1.1.1", ["10.0.0.1", "10.0.9.1"])
        assert session.next_batch() == []

    def test_mixed_failure_then_success(self, one_vp_at_a_time):
        vps = [f"1.1.1.{i}" for i in range(1, 10)]
        survey = make_survey([("10.0.0.1", vps)])
        session = IngressProbeSession(survey)
        assert session.next_batch() == ["1.1.1.1"]
        session.observe("1.1.1.1", ["9.9.9.9"])  # missed ingress
        assert session.next_batch() == ["1.1.1.2"]
        session.observe("1.1.1.2", ["10.0.0.1"])  # traversed it
        assert session.next_batch() == []

    def test_fallback_after_ingresses(self):
        survey = make_survey(
            [("10.0.0.1", ["1.1.1.1"])],
            fallback=["3.3.3.1", "3.3.3.2"],
        )
        session = IngressProbeSession(survey)
        batch = session.next_batch()
        assert batch == ["1.1.1.1", "3.3.3.1", "3.3.3.2"]

    def test_no_survey_yields_nothing(self):
        session = IngressProbeSession(None)
        assert session.next_batch() == []

    def test_no_duplicate_vps(self):
        survey = make_survey(
            [
                ("10.0.0.1", ["1.1.1.1", "2.2.2.1"]),
                ("10.0.0.2", ["1.1.1.1", "2.2.2.1"]),
            ],
            fallback=["1.1.1.1"],
        )
        session = IngressProbeSession(survey)
        seen = []
        while True:
            batch = session.next_batch()
            if not batch:
                break
            seen.extend(batch)
        assert len(seen) == len(set(seen))


class TestSelectorIntegration:
    def test_selector_provides_sessions(self, small_scenario):
        selector = IngressSelector(
            small_scenario.ingress_directory()
        )
        dst = small_scenario.responsive_destinations(1)[0]
        session = selector.session(dst)
        first_static = selector.batches(dst)
        first_dynamic = session.next_batch()
        if first_static:
            # Without feedback, the session starts where the static
            # order starts.
            assert first_dynamic[0] == first_static[0][0]

    def test_engine_uses_feedback_loop(self, small_scenario):
        """End to end: the engine completes measurements through the
        session path (the default selector exposes sessions)."""
        from repro.core.result import RevtrStatus

        source = small_scenario.sources()[3]
        engine = small_scenario.engine(source, "revtr2.0")
        assert hasattr(engine.selector, "session")
        complete = 0
        for dst in small_scenario.responsive_destinations(
            10, options_only=True
        ):
            if engine.measure(dst).status is RevtrStatus.COMPLETE:
                complete += 1
        assert complete >= 4
