"""Package-level quality gates: importability and documentation."""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_is_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


def test_all_packages_covered():
    packages = {
        "repro.net",
        "repro.topology",
        "repro.sim",
        "repro.probing",
        "repro.alias",
        "repro.asmap",
        "repro.core",
        "repro.service",
        "repro.te",
        "repro.analysis",
        "repro.experiments",
    }
    assert packages <= set(MODULES)


def test_public_classes_documented():
    """Every public class in the core packages carries a docstring."""
    import inspect

    undocumented = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if (
                inspect.isclass(obj)
                and obj.__module__ == module_name
                and not obj.__doc__
            ):
                undocumented.append(f"{module_name}.{name}")
    assert not undocumented, undocumented


def test_retired_switches_stay_retired(small_scenario):
    """One path per concern (DESIGN.md): an alternative implementation
    lives in ``tests/helpers/`` as an oracle, never behind an option
    in ``src/``.  The switches PR 17 removed must not come back, nor
    the options PR 24 found nobody setting (``tests/test_surface.py``
    is the rule; these are its first deletions)."""
    import dataclasses

    from repro.core.cache import MeasurementCache
    from repro.core.revtr import EngineConfig
    from repro.service import RevtrService, SchedulerConfig, SourceRegistry

    sc = small_scenario
    service = RevtrService(
        prober=sc.online_prober,
        registry=SourceRegistry(
            sc.internet, sc.background_prober, sc.atlas_vp_addrs,
            sc.spoofer_addrs,
        ),
        selector=sc.selector("revtr2.0"),
        ip2as=sc.ip2as,
        relationships=sc.relationships,
    )
    retired = {
        "fastpath_enabled", "enable_fastpath", "cache_enabled",
        "run_threaded", "threaded", "_sim_lock",
    }
    for obj in (
        sc.internet,
        sc.internet.prefix_table,
        service.scheduler(),
        sc.atlas_pipeline(),
    ):
        assert not retired & set(dir(obj)), type(obj).__name__
    assert [f.name for f in dataclasses.fields(SchedulerConfig)] == [
        "parallelism", "max_queue_per_user", "deadline", "max_retries",
    ]
    # Knobs no caller varied are constants, not EngineConfig fields.
    engine_fields = {f.name for f in dataclasses.fields(EngineConfig)}
    assert not engine_fields & {
        "batch_size", "max_batches_per_hop", "max_adjacencies",
        "max_path_hops", "ping_retries", "rr_retries", "negative_ttl",
    }
    assert len(engine_fields) == 12
    for build in (
        lambda: EngineConfig(max_path_hops=5),
        lambda: MeasurementCache(sc.clock, max_entries=8),
        lambda: SchedulerConfig(retry_backoff=1.0),
    ):
        with pytest.raises(TypeError):
            build()


def test_measure_stays_a_loop_over_named_steps():
    """``RevtrEngine._measure`` reads like Fig. 2 (DESIGN.md, "The
    measurement loop"): a technique that needs room gets a step of its
    own, not a branch in the loop or a longer neighbour."""
    import ast
    import inspect

    import repro.core.revtr as module

    tree = ast.parse(inspect.getsource(module))
    engine = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "RevtrEngine"
    )
    lengths = {
        node.name: node.end_lineno - node.lineno + 1
        for node in engine.body
        if isinstance(node, ast.FunctionDef)
    }
    assert lengths["_measure"] <= 30, lengths["_measure"]
    too_long = {
        name: n
        for name, n in lengths.items()
        if n > 110 and name != "__init__"
    }
    assert not too_long, too_long
