"""Inert: events are the one record of a decision.  Kept only for the e2e
layer tracer's wrappers, which ROADMAP item 5(g) deletes with this."""


class Span:
    """The one shared no-op span :meth:`Tracer.span` returns."""

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        pass


class Tracer:
    """Opens no span; nothing under ``src/`` calls :meth:`span`."""

    def span(self, name: str, **attrs) -> Span:
        return _SPAN


_SPAN = Span()
