"""Nothing defined that nothing calls (ROADMAP item 5(b)/(c)).

Every module under ``src/repro``, every public top-level function and
class, every public method, every field of a ``*Config`` dataclass and
every defaulted ``__init__`` parameter is collected here by AST and
required to have a *caller*: a reference from ``src/`` outside its own
definition, from ``benchmarks/`` or from ``examples/`` - a name, an
attribute, an import, or an identifier-shaped string literal (the e2e
tracer patches methods it names in ``TARGETS`` tuples).  For an option
only code that *sets* it counts - a keyword argument (which is what
``dataclasses.replace`` takes), a positional argument to the class, an
attribute store outside the class - because the code that reads an
option is not a reason to have it.  ``__init__.py`` re-exports,
``__all__`` and ``tests/`` vouch for nothing, and the scan runs to a
fixed point: what only dead code called is dead too.

What has no caller is deleted, or - an observer tests need, a mutation
ROADMAP item 1's state machine is specified to drive, an option the
paper itself describes - listed in `TEST_ONLY` with its reason.

Matching is by bare name, so the rule is conservative: a live
``lookup`` anywhere shields a dead ``lookup`` elsewhere, and a
``seed=`` keyword vouches for every option called ``seed``.  It finds
surface nobody names at all, which is what grows back unnoticed; it
does not prove that what it passes is reachable.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
#: Directories whose every reference counts (they are the traffic).
CALLER_DIRS = (ROOT / "benchmarks", ROOT / "examples")

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Methods the standard library calls by name on a subclass.
CALLED_BY_STDLIB = {
    "do_GET": "http.server.BaseHTTPRequestHandler dispatch",
    "log_message": "http.server.BaseHTTPRequestHandler logging hook",
}

#: ``*Config`` classes whose fields describe the simulated world, not
#: the system: each is a fitted fraction with the paper section it is
#: calibrated to in its docstring, and ROADMAP item 2(b) sweeps them one
#: knob at a time.  Their fields are not options of the service.
CALIBRATION = {"TopologyConfig"}

#: Surface with no caller outside ``tests/``, kept on purpose:
#: name -> why.  An entry that gains a caller fails as stale.
TEST_ONLY = {
    # Observers: what tests read to see what the system did.
    "RRAtlas.known_aliases": (
        "the RR atlas's key set, walked by the attribution and "
        "snapshot round-trip tests"
    ),
    "Span.walk": (
        "depth-first view of a span tree; the reference_*.py oracles "
        "compare trees with it"
    ),
    "Span.find": "spans by name in one tree, for the span-tree tests",
    "render_rules_table": (
        "tests/test_health.py holds DESIGN.md's health table to RULES "
        "through it"
    ),
    "PeeringTestbed.catchment_of": (
        "control-plane ground truth the TE tests score measured "
        "catchments against"
    ),
    "Origin.announces_to": (
        "tests/helpers/reference_policy.py (an oracle, not edited) "
        "reads export scoping through it"
    ),
    "FaultPlan.empty": (
        "whether a plan injects nothing; the `none` preset and the "
        "installed-but-invisible tests assert it"
    ),
    "Instrumentation.event_capacity": (
        "a small ring is how the overflow / dropped-event tests fill it"
    ),
    "Prober.vp_rate_pps": (
        "a low rate is how tests/test_ttl_sweep.py makes the token "
        "bucket wait inside a sweep"
    ),
    # Mutations ROADMAP item 1's state machine is specified to drive.
    "AliasResolver.add_group": (
        "merges a live-measured alias set; bumps `version`, which the "
        "engine's terminal index is tested against"
    ),
    "IPToASMapper.clear_overrides": (
        "undoes apply_overrides; the mapper's memo is tested across it"
    ),
    # Options the paper itself describes.
    "EngineConfig.max_intersection_age": (
        "Appendix A request option: refuse atlas intersections older "
        "than this"
    ),
    "EngineConfig.detect_violations": (
        "Appendix E option: redundant spoofed RR to flag destination-"
        "based-routing violations"
    ),
}


@lru_cache(maxsize=None)
def parsed(path):
    return ast.parse(path.read_text())


def is_public(name):
    return not name.startswith("_")


def is_dataclass(node):
    return any(
        "dataclass" in ast.unparse(decorator)
        for decorator in node.decorator_list
    )


def defaulted_parameters(function):
    """Names of the parameters of *function* that have a default."""
    args = function.args
    positional = args.posonlyargs + args.args
    named = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    named += [
        a.arg
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return named


class Definition:
    """One collected name: where it is defined and what kind it is."""

    def __init__(self, kind, name, path, lineno, owner=None):
        self.kind = kind  # module | function | class | method | option
        self.name = name
        self.path = path
        self.site = f"{path.relative_to(ROOT)}:{lineno}"
        self.owner = owner  # the class, for a method or an option
        self.label = f"{owner}.{name}" if owner else name
        #: What a reference's scope holds when it sits inside this
        #: definition (an option is never a scope).
        self.key = {
            "module": f"{name}.py",
            "function": name,
            "class": name,
            "method": self.label,
        }.get(kind)


def collect_definitions():
    """Every definition the rule covers, as a list of `Definition`."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = parsed(path)
        if path.name not in ("__init__.py", "__main__.py"):
            found.append(Definition("module", path.stem, path, 1))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and is_public(node.name):
                found.append(
                    Definition("function", node.name, path, node.lineno)
                )
            elif isinstance(node, ast.ClassDef) and is_public(node.name):
                found.append(
                    Definition("class", node.name, path, node.lineno)
                )
                found.extend(class_surface(node, path))
    return found


def class_surface(cls, path):
    """Public methods, ``*Config`` dataclass fields and defaulted
    ``__init__`` parameters of one class."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            if node.name == "__init__":
                for name in defaulted_parameters(node):
                    yield Definition(
                        "option", name, path, node.lineno, cls.name
                    )
            elif is_public(node.name):
                yield Definition(
                    "method", node.name, path, node.lineno, cls.name
                )
        elif (
            isinstance(node, ast.AnnAssign)
            and cls.name.endswith("Config")
            and cls.name not in CALIBRATION
            and is_dataclass(cls)
            and isinstance(node.target, ast.Name)
        ):
            yield Definition(
                "option", node.target.id, path, node.lineno, cls.name
            )


#: How a reference names its target.  A module needs an import; an
#: option needs a keyword, a positional argument or - outside its own
#: class - a store; anything else is vouched for by any of them.
USE, IMPORT, KEYWORD, STORE = "use", "import", "keyword", "store"


class ReferenceCollector(ast.NodeVisitor):
    """Walks one file and records ``(name, how, scope)`` per reference,
    *scope* being the keys of the collected definitions it sits inside
    (empty in a caller directory: everything there is traffic)."""

    def __init__(self, module_key, init_params):
        self.scope = (module_key,) if module_key else ()
        self.init_params = init_params
        self.references = []
        #: 0 at module level, 1 inside a top-level definition; None
        #: where scopes are not tracked.
        self.depth = 0 if module_key else None

    def note(self, name, how=USE):
        self.references.append((name, how, self.scope))

    def nested(self, node):
        # Only top-level definitions and the methods of top-level
        # classes are collected; anything deeper, or private, belongs
        # to what encloses it.
        outer, depth = self.scope, self.depth
        if depth is not None:
            if depth == 0 and is_public(node.name):
                self.scope = outer + (node.name,)
            elif depth == 1 and is_public(node.name) and len(outer) == 2:
                self.scope = outer + (f"{outer[1]}.{node.name}",)
            self.depth = depth + 1
        self.generic_visit(node)
        self.scope, self.depth = outer, depth

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = nested

    def visit_Assign(self, node):
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            self.generic_visit(node)

    def visit_Name(self, node):
        self.note(node.id)

    def visit_Attribute(self, node):
        self.note(
            node.attr, STORE if isinstance(node.ctx, ast.Store) else USE
        )
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and IDENTIFIER.match(node.value):
            self.note(node.value)

    def visit_Import(self, node):
        for alias in node.names:
            for part in alias.name.split("."):
                self.note(part, IMPORT)

    def visit_ImportFrom(self, node):
        for part in (node.module or "").split("."):
            self.note(part, IMPORT)
        for alias in node.names:
            self.note(alias.name, IMPORT)

    def visit_Call(self, node):
        for keyword in node.keywords:
            if keyword.arg:
                self.note(keyword.arg, KEYWORD)
        callee = node.func
        callee = getattr(callee, "attr", getattr(callee, "id", None))
        for name in self.init_params.get(callee, ())[: len(node.args)]:
            self.note(name, KEYWORD)
        self.generic_visit(node)


def init_parameters():
    """``{class name: [__init__ parameter, ...]}`` in positional order,
    so that a positional argument to the class counts as setting the
    option."""
    table = {}
    for path in SRC.rglob("*.py"):
        for cls in parsed(path).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (
                    isinstance(node, ast.FunctionDef)
                    and node.name == "__init__"
                ):
                    table[cls.name] = [a.arg for a in node.args.args[1:]]
                elif (
                    isinstance(node, ast.AnnAssign)
                    and is_dataclass(cls)
                    and isinstance(node.target, ast.Name)
                ):
                    table.setdefault(cls.name, []).append(node.target.id)
    return table


def collect_references():
    """``{name: [(how, scope), ...]}`` over ``src/`` (``__init__.py``
    files excepted: a re-export vouches for nothing) and the caller
    directories."""
    params = init_parameters()
    collectors = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        # `python -m repro` is an entry point: its code is traffic.
        key = None if path.name == "__main__.py" else path.name
        collectors.append((path, ReferenceCollector(key, params)))
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            collectors.append((path, ReferenceCollector(None, params)))
    by_name = {}
    for path, collector in collectors:
        collector.visit(parsed(path))
        for name, how, scope in collector.references:
            by_name.setdefault(name, []).append((how, scope))
    return by_name


def uncalled(definitions, references):
    """The definitions no live code refers to, to a fixed point: a
    reference counts when it sits outside the definition it names and
    every definition it does sit inside is itself called.  A module is
    called when something imports it by name or, being reached through
    its package's re-exports, when anything it defines is called."""

    def vouches(definition, how, scope, dead):
        if definition.kind == "module" and how != IMPORT:
            return False
        if definition.kind == "option" and (
            how not in (KEYWORD, STORE)
            or (how == STORE and definition.owner in scope)
        ):
            return False
        return not (
            definition.key in scope
            or definition.owner in dead
            or dead.intersection(scope)
        )

    # Every pass can only add to what is dead (fewer live scopes vouch
    # for less), so an unchanged count is the fixed point.
    dead_keys, dead = set(), []
    while True:
        now_dead = [
            d
            for d in definitions
            if d.name not in CALLED_BY_STDLIB
            and not any(
                vouches(d, how, scope, dead_keys)
                for how, scope in references.get(d.name, ())
            )
        ]
        dying = set(map(id, now_dead))
        serving = {
            d.path
            for d in definitions
            if d.kind != "module" and id(d) not in dying
        }
        now_dead = [
            d
            for d in now_dead
            if d.kind != "module" or d.path not in serving
        ]
        if len(now_dead) == len(dead):
            return dead
        dead = now_dead
        dead_keys = {d.key for d in dead if d.key}


DEFINITIONS = collect_definitions()
UNCALLED = uncalled(DEFINITIONS, collect_references())


def test_the_collector_still_finds_the_surface():
    kinds = {}
    for definition in DEFINITIONS:
        kinds[definition.kind] = kinds.get(definition.kind, 0) + 1
    assert kinds["module"] > 60 and kinds["method"] > 300, kinds
    assert kinds["option"] > 60 and kinds["class"] > 100, kinds


def test_every_definition_has_a_caller_outside_tests():
    unexplained = {
        f"{d.kind} {d.label}": d.site
        for d in UNCALLED
        if d.label not in TEST_ONLY
    }
    assert not unexplained, (
        "defined under src/, named by nothing in src/ (outside its own "
        "definition), benchmarks/ or examples/, and not in TEST_ONLY - "
        f"call it, delete it, or list it with a reason: {unexplained}"
    )


def test_test_only_is_short_and_true():
    assert len(TEST_ONLY) <= 20
    labels = {d.label for d in UNCALLED}
    for label, reason in TEST_ONLY.items():
        assert reason, label
        assert label in labels, (
            f"{label} is stale: it has a caller outside tests/ now, or "
            "is no longer defined"
        )
