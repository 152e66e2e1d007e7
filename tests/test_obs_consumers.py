"""Nothing emitted that nothing reads.

Every metric family and event kind that `src/` emits is collected
here by AST and required to have a *reader*: code that names it - a
health rule or its citation, the SLO rollup, a provenance line, a
`top` row, the e2e benchmark - or, failing that, a test that uses it
as an oracle for behaviour, listed in `ORACLE_ONLY` with the reason.
The generic renderers (`repro events`, `/metrics`, provenance's
"unknown kind" line) read everything and so vouch for nothing.  What
has no reader is deleted at the emit site, not sampled and not put
behind a level.

The same collection holds `DECLARED_METRICS` and `TUPLE_FIELDS` to
what is emitted (both ways), and DESIGN.md's "Who reads what" table
and the vocabulary table in `obs/provenance.py`'s docstring to the
readers found.
"""

import ast
import re
from pathlib import Path

from repro.obs.events import TUPLE_FIELDS
from repro.obs.instrument import DECLARED_METRICS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Where a literal counts as a reading of the name.
READERS = {
    "obs/health.py": SRC / "obs" / "health.py",
    "obs/slo.py": SRC / "obs" / "slo.py",
    "obs/provenance.py": SRC / "obs" / "provenance.py",
    "obs/dashboard.py": SRC / "obs" / "dashboard.py",
    "e2e/metrics.py": ROOT / "benchmarks" / "e2e" / "metrics.py",
    "e2e/harness.py": ROOT / "benchmarks" / "e2e" / "harness.py",
}

#: Facade method -> what its first argument names.
EMITTERS = {
    "inc": "counter",
    "observe": "histogram",
    "set_gauge": "gauge",
    "emit": "event",
    "emit_t": "event",
}
#: The one registration call: the keys of the source it registers name
#: counters or gauges, each typed by its `DECLARED_METRICS` entry.
PULL_SOURCE = "register_collect_source"
#: Calls to a method of one of those names that are not the facade's.
NOT_THE_FACADE = {"session.observe"}

#: Emitted names with no reader in `READERS`, kept because a test uses
#: them as an oracle for behaviour: name -> (test id, why it stays).
ORACLE_ONLY = {
    "service_requests_total": (
        "tests/test_obs.py::TestServiceIntrospection::test_metrics_snapshot",
        "per-user request accounting reaches the operator document; "
        "examples/open_system_service.py scrapes it off /metrics",
    ),
}


def source_keys(function):
    """The expressions a pull source keys its result by: dict-display
    and comprehension keys, and ``out[...] = `` subscripts."""
    for node in ast.walk(function):
        if isinstance(node, ast.Dict):
            yield from node.keys
        elif isinstance(node, ast.DictComp):
            yield node.key
        elif isinstance(node, ast.Subscript):
            yield node.slice


def emitted():
    """``{name: (category, [site, ...])}`` for every literal name `src/`
    passes to the facade or keys a registered pull source by.  A source
    may be registered in another file than the one defining it (the
    engine registers its caches'), so registrations are collected
    across all of `src/` first."""
    found = {}

    def note(name, category, path, node):
        categories, sites = found.setdefault(name, (set(), []))
        categories.add(category)
        sites.append(f"{path.relative_to(SRC)}:{node.lineno}")

    trees = {
        path: ast.parse(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }
    sources = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            method = node.func.attr
            if method == PULL_SOURCE:
                (registered,) = node.args
                sources.add(registered.attr)
            elif method in EMITTERS and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(
                    first.value, str
                ):
                    note(first.value, EMITTERS[method], path, node)
                else:
                    # A computed name would escape this audit: only
                    # the facade's own pass-throughs may have one.
                    assert (
                        path.parent == SRC / "obs"
                        or ast.unparse(node.func) in NOT_THE_FACADE
                    ), f"{path}:{node.lineno}: {ast.unparse(node)}"
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in sources:
                for key in source_keys(node):
                    if (
                        isinstance(key, ast.Tuple)
                        and len(key.elts) == 2
                        and isinstance(key.elts[0], ast.Constant)
                        and isinstance(key.elts[0].value, str)
                    ):
                        name = key.elts[0].value
                        kind = DECLARED_METRICS.get(name, (None,))[0]
                        assert kind in ("counter", "gauge"), (
                            f"{path}:{key.lineno}: pull-source key "
                            f"{name} is declared {kind}; a source "
                            "mirrors counters and gauges only"
                        )
                        note(name, kind, path, key)
    return {
        name: (", ".join(sorted(categories)), sites)
        for name, (categories, sites) in found.items()
    }


def names_read(path):
    """What one reader module names: its string literals, and the
    literal prefixes it tests with ``startswith`` (provenance's
    ``sched.`` branch)."""
    literals, prefixes = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            literals.add(node.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "startswith"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).endswith(".")
        ):
            prefixes.add(node.args[0].value)
    return literals, prefixes


NAMES_READ = {label: names_read(path) for label, path in READERS.items()}


def readers_of(name):
    """The `READERS` modules that name *name*."""
    return {
        label
        for label, (literals, prefixes) in NAMES_READ.items()
        if name in literals or name.startswith(tuple(prefixes))
    }


EMITTED = emitted()


def names(*categories):
    return {
        name
        for name, (category, _) in EMITTED.items()
        if set(category.split(", ")) & set(categories)
    }


def test_every_emitted_name_has_a_reader():
    assert len(EMITTED) > 40  # the collector still finds the emit sites
    unread = {
        name: sites
        for name, (_, sites) in EMITTED.items()
        if not readers_of(name) and name not in ORACLE_ONLY
    }
    assert not unread, (
        "emitted, read by nothing in READERS, not in ORACLE_ONLY - "
        f"delete the emit or name its reader: {unread}"
    )


def test_oracle_only_is_short_and_true():
    assert len(ORACLE_ONLY) <= 12
    for name, (test_id, reason) in ORACLE_ONLY.items():
        assert name in EMITTED, f"{name} is no longer emitted"
        assert not readers_of(name), f"{name} has a reader now"
        assert reason
        path, _, function = test_id.partition("::")
        function = function.rpartition("::")[2]
        text = (ROOT / path).read_text()
        assert f"def {function}(" in text, test_id
        assert f'"{name}"' in text, f"{test_id} does not name {name}"


def test_declared_metrics_are_exactly_the_emitted_families():
    families = {
        name: category
        for name, (category, _) in EMITTED.items()
        if category in ("counter", "gauge", "histogram")
    }
    declared = {
        name: kind for name, (kind, _, _) in DECLARED_METRICS.items()
    }
    assert families == declared
    assert all(help for _, help, _ in DECLARED_METRICS.values())


def test_tuple_fields_are_exactly_the_emit_t_kinds():
    emit_t = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit_t"
                and isinstance(node.args[0], ast.Constant)
            ):
                emit_t.add(node.args[0].value)
    assert emit_t == set(TUPLE_FIELDS)
    assert emit_t <= names("event")


def table_rows(text, heading):
    """Rows of the first Markdown table after *heading*: lists of
    cells, header and rule lines dropped."""
    lines = text[text.index(heading):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows[2:]


def test_design_md_table_names_every_reader():
    rows = table_rows(
        (ROOT / "DESIGN.md").read_text(), "### Who reads what"
    )
    table = {}
    for name_cell, kind, reader, answers in rows:
        for name in re.findall(r"`([^`]+)`", name_cell):
            assert name not in table, f"{name} has two rows"
            table[name] = (kind, reader, answers)
    assert set(table) == set(EMITTED), (
        "DESIGN.md 'Who reads what' is out of step with what src/ "
        f"emits: {sorted(set(table) ^ set(EMITTED))}"
    )
    for name, (kind, reader, answers) in table.items():
        category = EMITTED[name][0]
        assert kind == category, (name, kind, category)
        assert answers, name
        if name in ORACLE_ONLY:
            assert ORACLE_ONLY[name][0] in reader, (name, reader)
            continue
        cited = {label for label in READERS if f"`{label}`" in reader}
        assert cited == readers_of(name), (name, cited, readers_of(name))


def test_provenance_vocabulary_is_what_provenance_reads():
    path = READERS["obs/provenance.py"]
    docstring = ast.get_docstring(ast.parse(path.read_text()))
    listed = set(re.findall(r"^``([a-z_.*]+)``", docstring, re.M))
    events = names("event")
    read_here = {
        kind for kind in events if "obs/provenance.py" in readers_of(kind)
    }
    expanded = set()
    for kind in listed:
        matches = (
            {e for e in events if e.startswith(kind[:-1])}
            if kind.endswith("*")
            else {kind} & events
        )
        assert matches, f"provenance.py documents {kind}: never emitted"
        expanded |= matches
    assert expanded == read_here, sorted(expanded ^ read_here)
