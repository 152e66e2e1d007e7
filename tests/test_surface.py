"""Nothing defined that nothing calls.

Every module under ``src/repro``, every public top-level function and
class, every public method, every field of a public dataclass and - as
*options* - every field of a ``*Config`` dataclass and every defaulted
parameter of a public function or method (``__init__`` included) is
collected here by AST and required to have a *caller* in ``src/``
(outside its own definition), ``benchmarks/`` or ``examples/``.  What
counts as one depends on what is called, because the rule reads owners,
not words:

* a module: an import of it by name;
* a function or a class: a name, an attribute, an import or an
  identifier-shaped string literal;
* a method: an attribute load (``.name``), a ``getattr``/``hasattr``
  literal under ``src/``, or an identifier literal under
  ``benchmarks/`` (the e2e tracer patches what its ``TARGETS`` tuples
  name, the harness reads stats by key).  A bare name, an import part
  (``urllib.parse``) or any other string is a word, not a call;
* a field: a read - an attribute load, or a literal under
  ``benchmarks/``.  A constructor keyword or a store only writes it;
* an option: a *setter*, because the code that reads an option is not
  a reason to have it - an argument, by keyword or by position, in a
  call through its callee's name (the class, ``cls(...)`` in the
  class's own methods included, for a field or an ``__init__``
  parameter; the function's or method's own name otherwise),
  ``dataclasses.replace`` when the owner is a dataclass, or an
  attribute store outside the class.  A setter that passes the
  option's own default sets nothing, and one that forwards a defaulted
  parameter of its enclosing function sets it only once something sets
  that parameter.  An option is labelled ``Class.name`` (a field or an
  ``__init__`` parameter), ``function.name`` or ``Class.method.name``,
  and a dead function's or method's options die with it.

``__init__.py`` re-exports, ``__all__`` and ``tests/`` vouch for
nothing, an import counts only in a file that uses what it imports (and
an unused import under ``src/`` fails on its own), and the scan runs to
a fixed point: what only dead code calls is dead too.

What has no caller is deleted - an option with one value in use becomes
the module constant it defaulted to - or, being an observer tests need,
a mutation ROADMAP item 1's state machine is specified to drive, an
option the paper itself describes, a deployment setting or the CLI
entry point's arguments, listed in `TEST_ONLY` with its reason.  What a
listed definition uses or forwards counts as used.

The rule resolves what kind of reference names a definition, and an
option's callee, but not the type of a receiver: a live ``.lookup`` on
one class still vouches for a dead ``lookup`` method of another, and a
call reaches every function of its callee's name.  `SHIELDS` are the
shields it does see through, each tested on a synthetic tree.  Run as
a script, it prints every collected definition as ``kind label``, one
per line, which CI diffs between the parent and the change.
"""

import ast
import re
import textwrap
from functools import lru_cache
from pathlib import Path

import pytest

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
#: calibrated to in its docstring, and ROADMAP item 4 replaces this
#: exemption with a calibration table.  Their fields are not options of
#: the service.
CALIBRATION = {"TopologyConfig"}

#: Surface with no caller outside ``tests/``, kept on purpose:
#: name -> why.  An entry that gains a caller fails as stale.
TEST_ONLY = {
    # Observers: what tests read to see what the system did.
    "RRAtlas.known_aliases": (
        "the RR atlas's key set, walked by the attribution and "
        "snapshot round-trip tests"
    ),
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
    "EchoReply.ipid": (
        "the shared IP-ID counter a MIDAR prober would read; the walk "
        "oracles of test_fwd_fastpath.py and test_ttl_sweep.py compare "
        "it reply for reply (DESIGN.md, alias resolution)"
    ),
    "Job.error": (
        "the exception text behind a typed `error` or `quota` "
        "rejection, the one record of why a job failed; "
        "test_service.py and test_scheduler.py assert it"
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
    "EngineConfig.ping_check": (
        "Fig. 2's \"destination responsive?\" box; tests turn it off to "
        "walk the loop from destinations that answer no ping"
    ),
    "EngineConfig.detect_violations": (
        "Appendix E option: redundant spoofed RR to flag destination-"
        "based-routing violations"
    ),
    # ROADMAP item 8 decides these two together.
    "SchedulerConfig.deadline": (
        "the queue-wait bound behind the typed `deadline` rejection "
        "tests/test_scheduler.py drives; the benchmark builds "
        "SchedulerConfig by field name, so the field stays"
    ),
    "Job.deadline_exceeded": (
        "goes or stays with SchedulerConfig.deadline under ROADMAP "
        "item 8"
    ),
    # Deployment settings.
    "ObsHTTPServer.host": (
        "the interface the telemetry endpoint binds; loopback unless "
        "a deployment exposes it"
    ),
    # Entry points.
    "main.argv": (
        "the CLI's arguments: tests/test_cli.py and "
        "tests/helpers/reference_cli.py drive every verb through it, "
        "and `python -m repro` leaves it to argparse to read sys.argv"
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
    """``{name: default source}`` of the parameters of *function* that
    have a default."""
    args = function.args
    positional = args.posonlyargs + args.args
    defaulted = positional[len(positional) - len(args.defaults):]
    named = {
        a.arg: ast.unparse(default)
        for a, default in zip(defaulted, args.defaults)
    }
    named.update(
        (a.arg, ast.unparse(default))
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )
    return named


def positional_parameters(function):
    """The parameters positional arguments fill, in order (a method's
    ``self``/``cls`` dropped)."""
    names = [a.arg for a in function.args.posonlyargs + function.args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def dataclass_fields(cls):
    """``(node, name)`` of each field of a dataclass, in order."""
    for node in cls.body:
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and "ClassVar" not in ast.unparse(node.annotation)
        ):
            yield node, node.target.id


#: What a file's references count for, by where it sits.  Code under
#: ``src/`` is scoped (a reference counts only while what encloses it
#: is called); ``__main__.py`` and the caller directories are traffic;
#: ``__init__.py`` re-exports vouch for nothing.
MODULE, ENTRY, REEXPORT, BENCHMARKS = (
    "module", "entry", "re-export", "benchmarks"
)


class Source:
    """One parsed file: its path relative to the repository root and
    the role that path gives it."""

    def __init__(self, rel, tree):
        self.rel = rel
        self.tree = tree
        self.name = rel.rsplit("/", 1)[-1]
        top = rel.split("/", 1)[0]
        if top == "src":
            self.role = {"__init__.py": REEXPORT, "__main__.py": ENTRY}.get(
                self.name, MODULE
            )
        else:
            self.role = top

    @property
    def under_src(self):
        return self.role in (MODULE, ENTRY, REEXPORT)


def repo_sources():
    """``src/repro`` and the caller directories, as `Source` objects."""
    return [
        Source(path.relative_to(ROOT).as_posix(), parsed(path))
        for directory in (SRC,) + CALLER_DIRS
        for path in sorted(directory.rglob("*.py"))
    ]


class Definition:
    """One collected name: where it is defined and what kind it is."""

    def __init__(self, kind, name, source, lineno, owner=None, callee=None):
        #: module | function | class | method | option | field
        self.kind = kind
        self.name = name
        self.rel = source.rel
        self.site = f"{source.rel}:{lineno}"
        #: the class, for a method, field, ``*Config`` field or
        #: ``__init__`` parameter; the function or ``Class.method``, for
        #: any other option
        self.owner = owner
        #: for an option, the name a call that sets it is made through
        #: (the `Parameter` key): the class, or the function's or
        #: method's own name
        self.callee = callee or owner
        self.label = f"{owner}.{name}" if owner else name
        #: What a reference's scope holds when it sits inside this
        #: definition (an option or a field is never a scope).
        self.key = {
            "module": f"{name}.py",
            "function": name,
            "class": name,
            "method": self.label,
        }.get(kind)


def collect_definitions(sources):
    """Every definition the rule covers, as a list of `Definition`."""
    found = []
    for source in sources:
        if not source.under_src:
            continue
        if source.role == MODULE:
            found.append(
                Definition("module", source.name[:-3], source, 1)
            )
        for node in source.tree.body:
            if isinstance(node, ast.FunctionDef) and is_public(node.name):
                found.append(
                    Definition("function", node.name, source, node.lineno)
                )
                found.extend(options(node, source, node.name))
            elif isinstance(node, ast.ClassDef) and is_public(node.name):
                found.append(
                    Definition("class", node.name, source, node.lineno)
                )
                found.extend(class_surface(node, source))
    return found


def options(function, source, owner, callee=None):
    """The defaulted parameters of *function*, as options."""
    for name in defaulted_parameters(function):
        yield Definition(
            "option", name, source, function.lineno, owner, callee
        )


def class_surface(cls, source):
    """Public methods, ``*Config`` dataclass fields and the defaulted
    parameters of ``__init__`` and of every public method (options), and
    the fields of any other dataclass, of one class."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            if node.name == "__init__":
                yield from options(node, source, cls.name)
            elif is_public(node.name):
                yield Definition(
                    "method", node.name, source, node.lineno, cls.name
                )
                yield from options(
                    node, source, f"{cls.name}.{node.name}", node.name
                )
    if is_dataclass(cls) and cls.name not in CALIBRATION:
        kind = "option" if cls.name.endswith("Config") else "field"
        for node, name in dataclass_fields(cls):
            yield Definition(kind, name, source, node.lineno, cls.name)


class Parameter:
    """A parameter some call can set: a defaulted parameter of any
    function under ``src/``, or a dataclass field.  *key* is the name a
    call that sets it is made through - the class, for an ``__init__``
    parameter or a field; the function's own name otherwise."""

    def __init__(self, key, name, default, attribute=False, field=False):
        self.key = key
        self.name = name
        self.default = default  # its source text; None if it has none
        #: an instance attribute too, so a store outside the class sets it
        self.attribute = attribute
        #: a dataclass field, so `dataclasses.replace` sets it
        self.field = field


def signatures(sources):
    """``(parameters, positions)``: every `Parameter` under ``src/``,
    and ``{callee: [[parameter, ...], ...]}`` - the names positional
    arguments fill, per function or class of that name."""
    parameters, positions = [], {}

    def function(node, key, attribute=False):
        positions.setdefault(key, []).append(positional_parameters(node))
        parameters.extend(
            Parameter(key, name, default, attribute=attribute)
            for name, default in defaulted_parameters(node).items()
        )

    for source in sources:
        if not source.under_src:
            continue
        for node in source.tree.body:
            if isinstance(node, ast.FunctionDef):
                function(node, node.name)
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                if member.name == "__init__":
                    function(member, node.name, attribute=True)
                else:
                    function(member, member.name)
            if is_dataclass(node):
                fields = list(dataclass_fields(node))
                positions.setdefault(node.name, []).append(
                    [name for _, name in fields]
                )
                parameters.extend(
                    Parameter(
                        node.name, name,
                        field.value and ast.unparse(field.value),
                        attribute=True, field=True,
                    )
                    for field, name in fields
                )
    return parameters, positions


#: How a reference names its target.  A module needs an import; a
#: method an attribute load, a ``getattr``/``hasattr`` literal under
#: ``src/`` or an identifier literal under ``benchmarks/``; a field an
#: attribute load or a literal under ``benchmarks/``; a function or a
#: class any of them.  An option is vouched for by a `Setter` instead.
NAME, LOAD, STORE, IMPORT = "name", "load", "store", "import"
LITERAL, GETATTR, BENCHMARK_LITERAL = "literal", "getattr", "bench-literal"
VOUCHERS = {
    "module": {IMPORT},
    "method": {LOAD, GETATTR, BENCHMARK_LITERAL},
    "field": {LOAD, BENCHMARK_LITERAL},
    "function": {NAME, LOAD, STORE, IMPORT, LITERAL, GETATTR,
                 BENCHMARK_LITERAL},
}
VOUCHERS["class"] = VOUCHERS["function"]

#: How a setter reaches its parameter: a call through the parameter's
#: key, ``dataclasses.replace`` (any dataclass field of that name), or
#: an attribute store outside the class.
CALL, REPLACE = "call", "replace"


class Setter:
    """One place that passes a value for a parameter."""

    def __init__(self, how, key, name, value, forwarded, scope):
        self.how = how
        self.key = key  # the callee, for a call
        self.name = name
        #: the source text of the value, None where it is not one
        #: expression (an augmented or unpacking store)
        self.value = value
        #: ``(key, name)`` of the enclosing function's defaulted
        #: parameter the value is, if it is one: the setter then sets
        #: something only when that parameter is set
        self.forwarded = forwarded
        self.scope = scope

    def reaches(self, parameter):
        if self.how == CALL:
            return parameter.key == self.key
        if self.how == REPLACE:
            return parameter.field
        return parameter.attribute and parameter.key not in self.scope


def names_read(tree):
    """Every name a file reads: its ``Name`` nodes, plus the names in
    string literals that parse as expressions (quoted annotations)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(
                n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
            )
    return read


def bound_name(node, alias):
    """The name an import binds for one of its aliases."""
    if alias.asname:
        return alias.asname
    if isinstance(node, ast.Import):
        return alias.name.split(".")[0]
    return alias.name


def unused_imports(tree):
    """``(line, name)`` of every import binding the file never reads."""
    read = names_read(tree)
    return [
        (node.lineno, bound_name(node, alias))
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if bound_name(node, alias) not in read
    ]


class ReferenceCollector(ast.NodeVisitor):
    """Walks one file and records ``(name, how, scope)`` per reference
    and a `Setter` per argument and attribute store, *scope* being the
    keys of the collected definitions it sits inside (empty outside
    ``src/``: everything there is traffic)."""

    def __init__(self, source, positions):
        module = source.role == MODULE
        self.source = source
        self.positions = positions
        self.scope = (source.name,) if module else ()
        #: names the file reads; an import of anything else vouches
        #: for nothing
        self.read = names_read(source.tree)
        self.references = []
        self.setters = []
        #: 0 at module level, 1 inside a top-level definition; None
        #: where scopes are not tracked.
        self.depth = 0 if module else None
        #: enclosing classes, and enclosing functions as ``(key,
        #: {defaulted parameter: default})``
        self.classes, self.functions = [], []

    def note(self, name, how):
        self.references.append((name, how, self.scope))

    def set(self, how, key, name, value):
        forwarded = None
        if (
            isinstance(value, ast.Name)
            and self.functions
            and value.id in self.functions[-1][1]
        ):
            forwarded = (self.functions[-1][0], value.id)
        self.setters.append(
            Setter(
                how, key, name, value and ast.unparse(value), forwarded,
                self.scope,
            )
        )

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
        if isinstance(node, ast.ClassDef):
            stack, entry = self.classes, node.name
        else:
            init = node.name == "__init__" and self.classes
            key = self.classes[-1] if init else node.name
            stack, entry = self.functions, (key, defaulted_parameters(node))
        stack.append(entry)
        self.generic_visit(node)
        stack.pop()
        self.scope, self.depth = outer, depth

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = nested

    def store(self, target, value):
        """A setter for an attribute store, unless it is through
        ``self``: that store is inside its own class, where no store
        sets an option."""
        if isinstance(target, ast.Attribute) and not (
            isinstance(target.value, ast.Name) and target.value.id == "self"
        ):
            self.set(STORE, None, target.attr, value)

    def visit_Assign(self, node):
        if any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            return
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    self.store(element, None)
            else:
                self.store(target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self.store(node.target, None)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if node.value:
            self.store(node.target, node.value)
        self.generic_visit(node)

    def visit_Name(self, node):
        self.note(node.id, NAME)

    def visit_Attribute(self, node):
        self.note(
            node.attr, STORE if isinstance(node.ctx, ast.Store) else LOAD
        )
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and IDENTIFIER.match(node.value):
            self.note(
                node.value,
                BENCHMARK_LITERAL
                if self.source.role == BENCHMARKS
                else LITERAL,
            )

    def visit_Import(self, node):
        for alias in node.names:
            if bound_name(node, alias) in self.read:
                for part in alias.name.split("."):
                    self.note(part, IMPORT)

    def visit_ImportFrom(self, node):
        used = [
            alias.name
            for alias in node.names
            if bound_name(node, alias) in self.read
        ]
        if used:
            for part in (node.module or "").split("."):
                self.note(part, IMPORT)
        for name in used:
            self.note(name, IMPORT)

    def callee(self, node):
        """The name a call is made through: ``cls`` inside a class is
        that class."""
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            if node.id == "cls" and self.classes:
                return self.classes[-1]
            return node.id
        return None

    def visit_Call(self, node):
        callee = self.callee(node.func)
        if (
            callee in ("getattr", "hasattr")
            and self.source.under_src
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            self.note(node.args[1].value, GETATTR)
        how = REPLACE if callee == "replace" else CALL
        for keyword in node.keywords:
            if keyword.arg:
                self.set(how, callee, keyword.arg, keyword.value)
        for names in self.positions.get(callee, ()):
            for name, arg in zip(names, node.args):
                if isinstance(arg, ast.Starred):
                    break
                self.set(CALL, callee, name, arg)
        self.generic_visit(node)


def collect_references(sources, positions):
    """``({name: [(how, scope), ...]}, [Setter, ...])`` over ``src/``
    and the caller directories."""
    by_name, setters = {}, []
    for source in sources:
        if source.role == REEXPORT:
            continue
        collector = ReferenceCollector(source, positions)
        collector.visit(source.tree)
        for name, how, scope in collector.references:
            by_name.setdefault(name, []).append((how, scope))
        setters.extend(collector.setters)
    return by_name, setters


def settled(parameters, setters, kept):
    """``(key, name)`` of every parameter a setter sets: to something
    other than its default, and - when it forwards a defaulted
    parameter of its enclosing function - only once that one is set,
    or is an option *kept* on purpose.  The least fixed point, so a
    cycle of forwards sets nothing."""
    by_name = {}
    for parameter in parameters:
        by_name.setdefault(parameter.name, []).append(parameter)
    done, pending = set(), list(setters)
    while True:
        waiting = []
        for setter in pending:
            if setter.forwarded and not (
                setter.forwarded in done or setter.forwarded in kept
            ):
                waiting.append(setter)
                continue
            done.update(
                (parameter.key, parameter.name)
                for parameter in by_name.get(setter.name, ())
                if setter.reaches(parameter)
                and setter.value != parameter.default
            )
        if len(waiting) == len(pending):
            return done
        pending = waiting


def uncalled(definitions, references, setters, parameters, kept):
    """The definitions no live code refers to, to a fixed point: a
    reference or a setter counts when every definition it sits inside
    is itself called or *kept* (labels listed on purpose: what they
    use is used), and a reference also only when it sits outside the
    definition it names.  A module is called when something imports
    it by name or, being reached through its package's re-exports,
    when anything it defines is called."""
    kept_parameters = {
        (d.callee, d.name)
        for d in definitions
        if d.kind == "option" and d.label in kept
    }

    def called(definition, dead, is_set):
        if definition.name in CALLED_BY_STDLIB:
            return True
        if definition.owner in dead:
            return False
        if definition.kind == "option":
            return (definition.callee, definition.name) in is_set
        return any(
            how in VOUCHERS[definition.kind]
            and definition.key not in scope
            and not dead.intersection(scope)
            for how, scope in references.get(definition.name, ())
        )

    # Every pass can only add to what is dead (fewer live scopes vouch
    # for less), so an unchanged count is the fixed point.
    dead_keys, dead = set(), []
    while True:
        is_set = settled(
            parameters,
            [s for s in setters if not dead_keys.intersection(s.scope)],
            kept_parameters,
        )
        now_dead = [
            d for d in definitions if not called(d, dead_keys, is_set)
        ]
        dying = set(map(id, now_dead))
        serving = {
            d.rel
            for d in definitions
            if d.kind != "module" and id(d) not in dying
        }
        now_dead = [
            d for d in now_dead if d.kind != "module" or d.rel not in serving
        ]
        if len(now_dead) == len(dead):
            return dead
        dead = now_dead
        dead_keys = {d.key for d in dead if d.key and d.label not in kept}


def survey(sources, kept=()):
    """``(definitions, uncalled definitions)`` of a set of sources."""
    definitions = collect_definitions(sources)
    parameters, positions = signatures(sources)
    references, setters = collect_references(sources, positions)
    return definitions, uncalled(
        definitions, references, setters, parameters, kept
    )


DEFINITIONS, UNCALLED = survey(repo_sources(), TEST_ONLY)


def test_the_collector_still_finds_the_surface():
    kinds = {}
    for definition in DEFINITIONS:
        kinds[definition.kind] = kinds.get(definition.kind, 0) + 1
    assert kinds["module"] > 60 and kinds["method"] > 287, kinds
    assert kinds["option"] > 147 and kinds["class"] > 100, kinds
    assert kinds["field"] > 300, kinds


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


def test_no_unused_import_under_src():
    # An import nothing reads is dead code of its own, and it used to
    # vouch for what it imported.  ``__init__.py`` re-exports are
    # their package's surface, not uses.
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(parsed(path))
    ]
    assert not unused, unused


def test_test_only_is_short_and_true():
    assert len(TEST_ONLY) <= 20
    labels = {d.label for d in UNCALLED}
    for label, reason in TEST_ONLY.items():
        assert reason, label
        assert label in labels, (
            f"{label} is stale: it has a caller outside tests/ now, or "
            "is no longer defined"
        )


#: Synthetic trees, each planting one shield the rule must see
#: through: name -> ``({path: source}, shielded label, called label)``.
#: Every tree has a caller that imports ``main`` from ``repro.m``; the
#: called label is the control, showing the caller is seen at all.
SHIELDS = {
    "a same-named local": ({"src/repro/m.py": """
        class Box:
            def merged(self):
                return 1

            def size(self):
                return 2

        def main():
            merged = 3
            return merged + Box().size()
    """}, "Box.merged", "Box.size"),
    "a same-named import part": ({"src/repro/m.py": """
        from urllib.parse import urlsplit

        class Prefix:
            def parse(self):
                return 0

            def mask(self):
                return 1

        def main(text):
            return urlsplit(text), Prefix().mask()
    """}, "Prefix.parse", "Prefix.mask"),
    "a same-named string": ({"src/repro/m.py": """
        class Store:
            def all(self):
                return []

            def complete(self):
                return []

        def main(verb="all"):
            return verb, Store().complete()
    """}, "Store.all", "Store.complete"),
    "the same keyword to another callee": ({"src/repro/m.py": """
        from dataclasses import replace

        class Cache:
            def __init__(self, ttl=10):
                self.ttl = ttl

        class Probe:
            def __init__(self, ttl=1):
                self.ttl = ttl

        def main(probe):
            return Cache(), Probe(ttl=5), replace(probe, ttl=7)
    """}, "Cache.ttl", "Probe.ttl"),
    "a setter that passes the default": ({"src/repro/m.py": """
        class Tool:
            def __init__(self, base, min_observations=2, rounds=1):
                self.base = base

        def main():
            return Tool(0, min_observations=2, rounds=3)
    """}, "Tool.min_observations", "Tool.rounds"),
    "a forwarded default nothing sets": ({"src/repro/m.py": """
        class Tracker:
            def __init__(self, clock, threshold=3, window=1.0):
                self.clock = clock

        def install(threshold=3, window=1.0):
            return Tracker(None, threshold=threshold, window=window)

        def main():
            return install(window=2.0)
    """}, "Tracker.threshold", "Tracker.window"),
    "a function's default nothing sets": ({"src/repro/m.py": """
        def render(rows, width=24, top=10):
            return rows[:top]

        def main():
            return render([], top=5)
    """}, "render.width", "render.top"),
    "a method's default passed positionally": ({"src/repro/m.py": """
        class Bucket:
            def acquire(self, n=1, wait=False):
                return n, wait

        def main():
            return Bucket().acquire(1, True)
    """}, "Bucket.acquire.n", "Bucket.acquire.wait"),
    "a forward of a method's own unset default": ({"src/repro/m.py": """
        class Registry:
            def register(self, addr, replace=False, quiet=False):
                return addr

        class Service:
            def __init__(self):
                self.registry = Registry()

            def add(self, addr, replace=False, quiet=False):
                return self.registry.register(
                    addr, replace=replace, quiet=quiet
                )

        def main():
            return Service().add(1, quiet=True)
    """}, "Registry.register.replace", "Registry.register.quiet"),
    "a write-only field": ({"src/repro/m.py": """
        from dataclasses import dataclass

        @dataclass
        class Record:
            user: str
            requested_at: float

        def main(log, user, now):
            record = Record(user=user, requested_at=now)
            record.requested_at = now
            log.append(record)
            return record.user
    """}, "Record.requested_at", "Record.user"),
}


def synthetic_survey(files):
    """The labels *files* leave uncalled, with a caller of ``main``."""
    files = dict(files, **{
        "benchmarks/run.py": "from repro.m import main\nmain()\n"
    })
    _, dead = survey([
        Source(rel, ast.parse(textwrap.dedent(text)))
        for rel, text in files.items()
    ])
    return {d.label for d in dead}


@pytest.mark.parametrize("shield", sorted(SHIELDS))
def test_a_shield_vouches_for_nothing(shield):
    files, shielded, control = SHIELDS[shield]
    uncalled = synthetic_survey(files)
    assert shielded in uncalled, uncalled
    assert control not in uncalled, uncalled


if __name__ == "__main__":
    # ``python tests/test_surface.py``: every collected definition, one
    # ``kind label`` line each, for diffing two trees.
    for line in sorted(f"{d.kind} {d.label}" for d in DEFINITIONS):
        print(line)
