"""Wiring.

Components that are not constructed with an explicit instrumentation
(engines, probers, the service) run on
:data:`~repro.obs.instrument.NULL`; :func:`attach` points the ones an
engine owns at the engine's sink.
"""

from __future__ import annotations

from typing import Any

from repro.obs.instrument import NULL


def attach(instrumentation, *objects: Any) -> None:
    """Point each object's ``obs`` attribute at *instrumentation*.

    Only objects still on the :data:`NULL` default are rewired, so an
    explicitly instrumented component keeps its own sink.

    Rewired objects exposing an ``_on_obs_attached(instrumentation)``
    hook get it called once, so they can register pull-style collect
    sources with the live facade.
    """
    for obj in objects:
        if obj is not None and getattr(obj, "obs", None) is NULL:
            obj.obs = instrumentation
            hook = getattr(obj, "_on_obs_attached", None)
            if hook is not None:
                hook(instrumentation)
