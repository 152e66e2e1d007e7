"""Nothing defined that nothing calls.

Every module under ``src/repro``, every public top-level function and
class, every public method, every field of a public dataclass and - as
*options* - every field of a ``*Config`` dataclass, every defaulted
public field of any other public dataclass and every defaulted
parameter of a public function or method (``__init__`` included) is
collected here by AST and required to have a *caller* in ``src/``
(outside its own definition), ``benchmarks/`` or ``examples/``.  A
defaulted field is a constructor argument like any other: it is both a
field, which something must read, and an option, which something must
set.  A field that no caller passes - a ``default_factory`` or
``init=False`` one - or that the class's own methods assign
(``self.loopback = addr``) is state the instance keeps, not an option.
What counts as a caller depends on what is called, because the rule
reads owners, not words:

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
  a reason to have it - an argument, by keyword or by position (the
  parameter at that position in each signature the call reaches), in a
  call through its callee's name (the class, ``cls(...)`` in the
  class's own methods included, for a field or an ``__init__``
  parameter; the function's or method's own name otherwise),
  ``dataclasses.replace`` when the owner is a dataclass, or an
  attribute store outside the class.  A setter that passes the
  option's own default sets nothing, and one that forwards a defaulted
  parameter of its enclosing function sets it only once something sets
  that parameter.  An option is labelled ``Class.name`` (a field or an
  ``__init__`` parameter), ``module.function.name`` or
  ``Class.method.name``, and a dead function's or method's options die
  with it.

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

The rule resolves what kind of reference names a definition, and - in
the seven ways `Resolver` lists - the owner of its receiver or callee:
a resolved reference or setter vouches only for that module's or
class's definitions, an unresolved one for every definition of its
name, so resolving can only find more.  A builtin-typed receiver (a
dict field's ``.clear()``) vouches for no method under ``src/``.
Functions are labelled by module (``module.name``).
`SHIELDS` are the shields it does see through, each tested on a
synthetic tree.  Run as a script, it prints every collected definition
as ``kind label``, one per line, which CI diffs between the parent and
the change.
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
#: The top-level directories the scan reads; ``tests/`` is not one.
SCANNED = {"src"} | {directory.name for directory in CALLER_DIRS}

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
    "health.render_rules_table": (
        "tests/test_health.py holds DESIGN.md's health table to RULES "
        "through it"
    ),
    "PeeringTestbed.catchment_of": (
        "control-plane ground truth the TE tests score measured "
        "catchments against"
    ),
    "RouteChoice.length": (
        "tests/helpers/reference_policy.py (an oracle, kept verbatim but "
        "for the features src/ dropped) compares route lengths through it"
    ),
    "ASNode.peers": (
        "tests/helpers/reference_policy.py (an oracle, kept verbatim but "
        "for the features src/ dropped) walks peer edges through it; the "
        "compiled policy reads its own peer table"
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
    # Kept alive by the benchmark alone (ROADMAP item 5(l)).
    "CacheStats.evictions": (
        "always 0 (nothing evicts); only benchmarks/e2e/harness.py reads "
        "it, as `core.cache.evictions`, so it goes with the benchmark "
        "change ROADMAP item 5(l) lists it under"
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
    # Deployment settings.
    "ObsHTTPServer.host": (
        "the interface the telemetry endpoint binds; loopback unless "
        "a deployment exposes it"
    ),
    # Entry points.
    "cli.main.argv": (
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


def field_default(node):
    """The source of a dataclass field's default, None when it has none:
    a ``field(...)`` call's ``default``, or the plain value.  A
    ``default_factory`` or ``init=False`` field has none a caller
    passes: it is state the instance builds."""
    value = node.value
    if (
        isinstance(value, ast.Call)
        and ast.unparse(value.func).rsplit(".", 1)[-1] == "field"
    ):
        keywords = {k.arg: k.value for k in value.keywords}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return None
        value = keywords.get("default")
    return value and ast.unparse(value)


def self_assigned(cls):
    """The attributes *cls*'s own methods assign through their first
    parameter (``self.loopback = addr``)."""
    assigned = set()
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef) or not method.args.args:
            continue
        receiver = method.args.args[0].arg
        for node in ast.walk(method):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
                if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                else []
            )
            assigned.update(
                target.attr
                for target in targets
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == receiver
            )
    return assigned


#: What a file's references count for, by where it sits.  Code under
#: ``src/`` is scoped (a reference counts only while what encloses it
#: is called); ``__main__.py`` and the caller directories are traffic;
#: ``__init__.py`` re-exports vouch for nothing.
MODULE, ENTRY, REEXPORT, BENCHMARKS = (
    "module", "entry", "re-export", "benchmarks"
)


class Source:
    """One parsed file: its path relative to the repository root, the
    role that path gives it and, under ``src/``, its dotted module path
    (a package's, for ``__init__.py``) and that path's last part, which
    labels the functions it defines."""

    def __init__(self, rel, tree):
        self.rel = rel
        self.tree = tree
        self.name = rel.rsplit("/", 1)[-1]
        top = rel.split("/", 1)[0]
        self.module = self.label = None
        if top == "src":
            self.role = {"__init__.py": REEXPORT, "__main__.py": ENTRY}.get(
                self.name, MODULE
            )
            parts = rel[len("src/"):-len(".py")].split("/")
            if parts[-1] == "__init__":
                parts.pop()
            self.module, self.label = ".".join(parts), parts[-1]
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

    def __init__(
        self, kind, name, source, lineno, owner=None, callee=None, home=None
    ):
        #: module | function | class | method | option | field
        self.kind = kind
        self.name = name
        self.rel = source.rel
        self.site = f"{source.rel}:{lineno}"
        #: the class, for a method, field, ``*Config`` field or
        #: ``__init__`` parameter; the module, for a function; the
        #: function or ``Class.method``, for any other option
        self.owner = owner
        #: for an option, the name a call that sets it is made through
        #: (the `Parameter` key): the class, or the function's or
        #: method's own name
        self.callee = callee or owner
        #: what a resolved reference must name to vouch for it (see
        #: `Resolver`): the defining module's label, for a function or
        #: a class; the class, for a method, a field or a class's or
        #: method's option; the module, for a function's option
        self.home = home
        self.label = f"{owner}.{name}" if owner else name
        #: What a reference's scope holds when it sits inside this
        #: definition (an option or a field is never a scope).
        self.key = {
            "module": f"{name}.py",
            "function": self.label,
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
        module = source.label
        for node in source.tree.body:
            if isinstance(node, ast.FunctionDef) and is_public(node.name):
                found.append(
                    Definition(
                        "function", node.name, source, node.lineno,
                        module, home=module,
                    )
                )
                found.extend(
                    options(
                        node, source, f"{module}.{node.name}", module,
                        node.name,
                    )
                )
            elif isinstance(node, ast.ClassDef) and is_public(node.name):
                found.append(
                    Definition(
                        "class", node.name, source, node.lineno,
                        home=module,
                    )
                )
                found.extend(class_surface(node, source))
    return found


def options(function, source, owner, home, callee=None):
    """The defaulted parameters of *function*, as options."""
    for name in defaulted_parameters(function):
        yield Definition(
            "option", name, source, function.lineno, owner, callee, home
        )


def class_surface(cls, source):
    """One class's public methods; its options - the defaulted
    parameters of ``__init__`` and of every public method, every field
    of a ``*Config`` dataclass and every defaulted public field of any
    other dataclass, unless its own methods assign it; and the fields of
    any other dataclass."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            if node.name == "__init__":
                yield from options(node, source, cls.name, cls.name)
            elif is_public(node.name):
                yield Definition(
                    "method", node.name, source, node.lineno, cls.name,
                    home=cls.name,
                )
                yield from options(
                    node, source, f"{cls.name}.{node.name}", cls.name,
                    node.name,
                )
    if is_dataclass(cls) and cls.name not in CALIBRATION:
        config = cls.name.endswith("Config")
        assigned = self_assigned(cls)
        for node, name in dataclass_fields(cls):
            kinds = ["option"] if config else ["field"]
            if not config and is_public(name) and name not in assigned and (
                field_default(node) is not None
            ):
                kinds.append("option")
            for kind in kinds:
                yield Definition(
                    kind, name, source, node.lineno, cls.name, home=cls.name
                )


class Parameter:
    """A parameter some call can set: a defaulted parameter of any
    function under ``src/``, or a dataclass field.  *key* is the name a
    call that sets it is made through - the class, for an ``__init__``
    parameter or a field; the function's own name otherwise - and
    *owner* is its class, or a function's module."""

    def __init__(
        self, key, owner, name, default, attribute=False, field=False
    ):
        self.key = key
        self.owner = owner
        self.name = name
        self.default = default  # its source text; None if it has none
        #: an instance attribute too, so a store outside the class sets it
        self.attribute = attribute
        #: a dataclass field, so `dataclasses.replace` sets it
        self.field = field


def signatures(sources):
    """``(parameters, positions)``: every `Parameter` under ``src/``,
    and ``{callee: [(owner, [parameter, ...]), ...]}`` - the names
    positional arguments fill, per function or class of that name."""
    parameters, positions = [], {}

    def function(node, key, owner, attribute=False):
        positions.setdefault(key, []).append(
            (owner, positional_parameters(node))
        )
        parameters.extend(
            Parameter(key, owner, name, default, attribute=attribute)
            for name, default in defaulted_parameters(node).items()
        )

    for source in sources:
        if not source.under_src:
            continue
        for node in source.tree.body:
            if isinstance(node, ast.FunctionDef):
                function(node, node.name, source.label)
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                if member.name == "__init__":
                    function(member, node.name, node.name, attribute=True)
                else:
                    function(member, member.name, node.name)
            if is_dataclass(node):
                fields = list(dataclass_fields(node))
                positions.setdefault(node.name, []).append(
                    (node.name, [name for _, name in fields])
                )
                parameters.extend(
                    Parameter(
                        node.name, node.name, name, field_default(field),
                        attribute=True, field=True,
                    )
                    for field, name in fields
                )
    return parameters, positions


class Value:
    """What a name or an expression is, as far as the AST shows it: a
    module (*owners*: its dotted path), a top-level function or a class
    (*home*: the labels of the modules that define it, None when not
    known; *owners*: its name), an instance (*owners*: the names of the
    classes it may be one of), or a builtin container."""

    MODULE, FUNCTION, CLASS, INSTANCE, BUILTIN = (
        "module", "function", "class", "instance", "builtin"
    )

    def __init__(self, kind, owners=frozenset(), home=None):
        self.kind = kind
        self.owners = owners
        self.home = home


#: ``None``: what an ``Optional`` adds, and no kind of its own.
NONE = Value("none")
#: A dict, list or set: its methods are the builtin type's.
BUILTIN = Value(Value.BUILTIN)
#: Builtin container types, by the names that build them and the
#: ``typing`` aliases that annotate them.
CONTAINERS, ALIASES = {"dict", "list", "set"}, {"Dict", "List", "Set"}
#: Expressions that build a builtin container.
DISPLAYS = (
    ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp
)


def union(values):
    """One `Value` for what any of *values* may be: None (not known)
    unless each is known and all are of one kind."""
    values = [v for v in values if v is not NONE]
    if not values or any(v is None for v in values):
        return None
    if len({v.kind for v in values}) > 1:
        return None
    homes = [v.home for v in values]
    return Value(
        values[0].kind,
        frozenset().union(*(v.owners for v in values)),
        None if None in homes else frozenset().union(*homes),
    )


#: How a name is bound: to the value of an expression, to what an
#: annotation names, to a `Value` already known, or to something the
#: rule does not follow.
EXPRESSION, ANNOTATION, KNOWN, OTHER = "expr", "annotation", "known", "other"


class Scope:
    """One namespace of a file - the module, a class body or a function
    - and how each of its names is bound.  A lambda's or a
    comprehension's names count as its enclosing function's, bound to
    nothing known."""

    def __init__(self, parent, home=None, of_class=False):
        #: the enclosing scope (a class body encloses no method)
        self.parent = parent
        self.of_class = of_class
        #: a function's `Parameter` owner: the class of a method, the
        #: module label of a top-level function under ``src/``
        self.home = home
        #: ``{name: [(how, node or Value), ...]}``
        self.bindings = {}
        self.values = {}

    def bind(self, name, how, what=None):
        self.bindings.setdefault(name, []).append((how, what))

    def value(self, name, resolver):
        """What *name* is here: every binding of it, joined."""
        if name not in self.values:
            self.values[name] = None  # a cycle resolves to nothing
            self.values[name] = union(
                resolver.describe(self, how, what)
                for how, what in self.bindings[name]
            )
        return self.values[name]


class Resolver:
    """Resolves a reference's receiver to its owner where the AST shows
    it, in seven ways: a module alias or a ``from`` import; ``self`` or
    ``cls``; an attribute of an instance that its class's own methods
    only ever assign from a constructor or an annotated parameter (or a
    dataclass field's annotation); a name its scope binds only to
    constructor calls; a parameter (or a local) annotated with a
    class (``Optional`` and ``X | None`` included); a call whose callee
    resolves - a module's function, or a method of a resolved
    receiver's classes - to what the callee's return annotation names;
    and a builtin container - a name or attribute bound only to a
    display, a comprehension or ``dict()`` / ``list()`` / ``set()``, or
    annotated ``Dict[...]`` / ``List[...]`` / ``Set[...]``, which owns
    no method under ``src/``.  An attribute of an unresolved receiver
    is a builtin container when every class that binds its name binds
    it to one.  A class resolves to itself, its subclasses and all
    their bases - every class an instance of it may find an attribute
    on."""

    def __init__(self, sources):
        #: ``{dotted path: {top-level name: Value kind}}`` under ``src/``
        self.modules = {}
        #: ``{class name: [base names]}``: every top-level class
        self.bases = {}
        #: ``{id(node): Scope}`` of every module, class and function
        self.scopes = {}
        #: ``{class: {attribute: [(scope, how, node), ...]}}``: how its
        #: own methods and body bind each attribute
        self.attributes = {}
        #: attributes stored through anything but ``self``: no class's
        #: own methods alone decide what they hold
        self.foreign = set()
        #: ``{(module label or class, name): [(def, module tree), ...]}``:
        #: every top-level function and every method of a top-level
        #: class under ``src/``, for its return annotation
        self.defs = {}
        self.memo, self.families = {}, {}
        for source in sources:
            if source.module:
                self.modules[source.module] = {
                    node.name: (
                        Value.CLASS if isinstance(node, ast.ClassDef)
                        else Value.FUNCTION
                    )
                    for node in source.tree.body
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                }
            for node in source.tree.body:
                if isinstance(node, ast.ClassDef):
                    self.bases.setdefault(node.name, []).extend(
                        ast.unparse(base).rsplit(".", 1)[-1]
                        for base in node.bases
                    )
                if not source.module:
                    continue
                owner, members = (
                    (node.name, node.body) if isinstance(node, ast.ClassDef)
                    else (source.label, [node])
                )
                for member in members:
                    if isinstance(member, ast.FunctionDef):
                        self.defs.setdefault(
                            (owner, member.name), []
                        ).append((member, source.tree))
        for source in sources:
            Binder(self, source)

    def related(self, classes):
        """*classes*, their subclasses and every base of any of them."""
        if classes not in self.families:
            found = set(classes)
            while True:
                more = {
                    c for c, bases in self.bases.items()
                    if found.intersection(bases)
                } - found
                if not more:
                    break
                found |= more
            pending = list(found)
            while pending:
                for base in self.bases.get(pending.pop(), ()):
                    if base not in found:
                        found.add(base)
                        pending.append(base)
            self.families[classes] = frozenset(found)
        return self.families[classes]

    def module(self, dotted):
        if dotted in self.modules:
            return Value(Value.MODULE, frozenset({dotted}))
        return None

    def imported(self, module, name):
        """What ``from module import name`` binds: a module, a function
        or class *module* defines, or a class of ``repro`` re-exported by
        its package."""
        value = self.module(f"{module}.{name}") or self.member(
            self.module(module), name
        )
        if value is None and name in self.bases and (
            module.split(".")[0] == "repro"
        ):
            value = Value(Value.CLASS, frozenset({name}))
        return value

    def member(self, value, attribute):
        """What ``value.attribute`` is."""
        if value is None:
            return None
        if value.kind == Value.INSTANCE:
            return self.attribute(value.owners, attribute)
        if value.kind != Value.MODULE:
            return None
        found = []
        for dotted in value.owners:
            kind = self.modules[dotted].get(attribute)
            home = frozenset({dotted.rsplit(".", 1)[-1]})
            found.append(
                self.module(f"{dotted}.{attribute}")
                or kind and Value(kind, frozenset({attribute}), home)
            )
        return union(found)

    def attribute(self, classes, name):
        """What an instance attribute holds, by how its classes bind
        it; nothing known if anything else stores it, or nothing
        binds it.  With *classes* None (the receiver is not known), a
        builtin container if every class that binds *name* binds it
        to one; nothing known otherwise."""
        key = (classes, name)
        if name in self.foreign:
            return None
        if key not in self.memo:
            self.memo[key] = None  # a cycle resolves to nothing
            owners = (
                self.attributes if classes is None
                else self.related(classes)
            )
            bindings = [
                binding
                for cls in owners
                for binding in self.attributes.get(cls, {}).get(name, ())
            ]
            value = union(
                self.describe(*binding) for binding in bindings
            ) if bindings else None
            if classes is None and value and value.kind != Value.BUILTIN:
                value = None
            self.memo[key] = value
        return self.memo[key]

    def describe(self, scope, how, what):
        if how == KNOWN:
            return what
        if how == EXPRESSION:
            return self.evaluate(what, scope)
        if how == ANNOTATION:
            return self.annotated(what, scope)
        return None

    @staticmethod
    def binder(name, scope):
        """The scope that binds *name*; None for a builtin."""
        while scope is not None and name not in scope.bindings:
            scope = scope.parent
        return scope

    def lookup(self, name, scope):
        scope = self.binder(name, scope)
        return scope and scope.value(name, self)

    def container(self, node, scope):
        """Does *node* name a builtin container type (a builtin that
        no scope rebinds, or its ``typing`` alias)?"""
        if isinstance(node, ast.Name) and node.id in CONTAINERS:
            return self.binder(node.id, scope) is None
        return ast.unparse(node).rsplit(".", 1)[-1] in ALIASES

    def evaluate(self, node, scope):
        """What the expression *node* is: a name, an attribute, a
        constructor call, a builtin container or ``None``; nothing
        known otherwise."""
        if isinstance(node, ast.Name):
            return self.lookup(node.id, scope)
        if isinstance(node, ast.Attribute):
            receiver = self.evaluate(node.value, scope)
            if receiver is None:
                return self.attribute(None, node.attr)
            return self.member(receiver, node.attr)
        if isinstance(node, DISPLAYS):
            return BUILTIN
        if isinstance(node, ast.Call):
            if self.container(node.func, scope):
                return BUILTIN
            callee = self.evaluate(node.func, scope)
            if callee and callee.kind == Value.CLASS:
                return Value(Value.INSTANCE, callee.owners)
            return self.returned(node.func, callee, scope)
        if isinstance(node, ast.Constant) and node.value is None:
            return NONE
        return None

    def returned(self, func, callee, scope):
        """What a call through *func* returns, by its callee's return
        annotation: a module function's, or the same-named methods' of
        a resolved receiver's classes (each must be annotated); nothing
        known otherwise."""
        if callee and callee.kind == Value.FUNCTION and callee.home:
            keys = [(h, n) for h in callee.home for n in callee.owners]
        elif isinstance(func, ast.Attribute):
            receiver = self.evaluate(func.value, scope)
            if not receiver or receiver.kind not in (
                Value.INSTANCE, Value.CLASS
            ):
                return None
            keys = [(c, func.attr) for c in self.related(receiver.owners)]
        else:
            return None
        defs = [d for key in keys for d in self.defs.get(key, ())]
        if not defs or any(d.returns is None for d, _ in defs):
            return None
        return union(
            self.annotated(d.returns, self.scopes[id(tree)])
            for d, tree in defs
        )

    def annotated(self, node, scope):
        """The instances an annotation names."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return union(
                self.annotated(side, scope) for side in (node.left, node.right)
            )
        if isinstance(node, ast.Subscript):
            if self.container(node.value, scope):
                return BUILTIN
            wrapper = ast.unparse(node.value).rsplit(".", 1)[-1]
            inner = node.slice
            if wrapper == "Optional":
                return self.annotated(inner, scope)
            if wrapper == "Union":
                parts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
                return union(self.annotated(part, scope) for part in parts)
            return None
        if self.container(node, scope):
            return BUILTIN
        value = self.evaluate(node, scope)
        if value is NONE:
            return NONE
        if value and value.kind == Value.CLASS:
            return Value(Value.INSTANCE, value.owners)
        return None

    @staticmethod
    def named(value):
        """The homes a reference that is *value* can name (a function's
        or class's module); None where any can."""
        return value and value.home

    def through(self, receiver):
        """The homes an attribute of *receiver* can name: its classes,
        none for a builtin container; None where any can."""
        if receiver and receiver.kind == Value.BUILTIN:
            return frozenset()
        if receiver and receiver.kind in (Value.INSTANCE, Value.CLASS):
            return self.related(receiver.owners)
        return None

    def attribute_homes(self, node, scope):
        """The homes ``receiver.attr`` (*node*) can name: a module's own
        function or class, or an attribute of a class or instance."""
        receiver = self.evaluate(node.value, scope)
        if receiver is not None and receiver.kind == Value.MODULE:
            return self.named(self.member(receiver, node.attr))
        return self.through(receiver)

    def call_owners(self, func, scope):
        """The `Parameter` owners a call through *func* can set; None
        where any can, and for a constructor, whose key names its
        class."""
        value = self.evaluate(func, scope)
        if value is not None and value.kind == Value.CLASS:
            return None
        if isinstance(func, ast.Attribute):
            return self.attribute_homes(func, scope)
        return self.named(value)


class Binder(ast.NodeVisitor):
    """Records one file's scopes, its names' bindings and its classes'
    attribute bindings in a `Resolver`."""

    def __init__(self, resolver, source):
        self.resolver = resolver
        self.source = source
        self.scope = self.top = Scope(None)
        resolver.scopes[id(source.tree)] = self.scope
        #: the top-level class whose body is being walked
        self.cls = None
        #: ``(class, name of self)`` while in a method of a top-level
        #: class or in a function nested in one
        self.method = None
        self.dynamic = False
        self.visit(source.tree)
        if self.dynamic:
            # a ``setattr`` with a computed name may store any attribute
            # the file spells
            self.resolver.foreign.update(
                node.value for node in ast.walk(source.tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and IDENTIFIER.match(node.value)
            )

    def bind(self, target, how, what=None):
        """Binds an assignment target: a name in this scope (and, in a
        class body, the class's attribute), or an attribute through
        ``self``; any other attribute store is foreign, and the names
        in any other target bind to nothing known."""
        if isinstance(target, ast.Name):
            self.scope.bind(target.id, how, what)
            if self.cls:
                self.attribute(self.cls, target.id, how, what)
        elif isinstance(target, ast.Attribute):
            receiver = target.value
            if self.method and isinstance(receiver, ast.Name) and (
                receiver.id == self.method[1]
            ):
                self.attribute(self.method[0], target.attr, how, what)
            else:
                self.resolver.foreign.add(target.attr)
        else:
            self.visit(target)

    def attribute(self, cls, name, how, what):
        self.resolver.attributes.setdefault(cls, {}).setdefault(
            name, []
        ).append((self.scope, how, what))

    def walk(self, node, scope, body, cls=None, method=None):
        outer = self.scope, self.cls, self.method
        self.resolver.scopes[id(node)] = scope
        self.scope, self.cls, self.method = scope, cls, method
        for statement in body:
            self.visit(statement)
        self.scope, self.cls, self.method = outer

    def define(self, node, kind):
        """Binds a ``def`` or ``class`` name: at the top of a module, to
        what it defines there."""
        if self.scope is self.top:
            home = {self.source.label} if self.source.label else set()
            value = Value(kind, frozenset({node.name}), frozenset(home))
            self.scope.bind(node.name, KNOWN, value)
        else:
            self.bind(ast.Name(node.name), OTHER)

    def visit_FunctionDef(self, node):
        arguments = node.args
        for part in node.decorator_list + arguments.defaults + [
            d for d in arguments.kw_defaults if d
        ]:
            self.visit(part)
        self.define(node, Value.FUNCTION)
        cls = self.cls
        home = cls or (self.scope is self.top and self.source.label or None)
        outer = self.scope.parent if self.scope.of_class else self.scope
        scope = Scope(outer, home)
        parameters = arguments.posonlyargs + arguments.args
        decorators = {ast.unparse(d) for d in node.decorator_list}
        method = self.method
        if cls and parameters and "staticmethod" not in decorators:
            first, parameters = parameters[0], parameters[1:]
            if "classmethod" in decorators:
                scope.bind(first.arg, KNOWN, Value(Value.CLASS, frozenset({cls})))
            else:
                scope.bind(
                    first.arg, KNOWN, Value(Value.INSTANCE, frozenset({cls}))
                )
                method = (cls, first.arg)
        for parameter in parameters + arguments.kwonlyargs:
            if parameter.annotation:
                scope.bind(parameter.arg, ANNOTATION, parameter.annotation)
            else:
                scope.bind(parameter.arg, OTHER)
        for parameter in (arguments.vararg, arguments.kwarg):
            if parameter:
                scope.bind(parameter.arg, OTHER)
        self.walk(node, scope, node.body, method=method)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        for part in node.decorator_list + node.bases + node.keywords:
            self.visit(part)
        top = self.scope is self.top
        self.define(node, Value.CLASS)
        # Only a top-level class's instances are followed; a class
        # nested in a function may subclass anything.
        self.walk(
            node, Scope(self.scope, of_class=True), node.body,
            node.name if top else None,
        )

    def visit_Assign(self, node):
        for target in node.targets:
            self.bind(target, EXPRESSION, node.value)
        self.visit(node.value)

    def visit_AnnAssign(self, node):
        self.bind(node.target, ANNOTATION, node.annotation)
        if node.value:
            self.visit(node.value)

    # Any other store - a loop, ``with`` or comprehension target, an
    # augmented or walrus assignment, a ``del``, a lambda's parameter,
    # an ``except`` name, a ``global`` - binds to nothing known.

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Load):
            self.bind(node, OTHER)

    def visit_Attribute(self, node):
        if not isinstance(node.ctx, ast.Load):
            self.bind(node, OTHER)
        self.visit(node.value)

    def visit_arg(self, node):
        self.scope.bind(node.arg, OTHER)

    def visit_ExceptHandler(self, node):
        if node.name:
            self.scope.bind(node.name, OTHER)
        self.generic_visit(node)

    def visit_Global(self, node):
        for name in node.names:
            self.scope.bind(name, OTHER)
            self.top.bind(name, OTHER)

    visit_Nonlocal = visit_Global

    def visit_Import(self, node):
        for alias in node.names:
            if alias.asname:
                value = self.resolver.module(alias.name)
            else:
                value = self.resolver.module(alias.name.split(".")[0])
            self.scope.bind(bound_name(node, alias), KNOWN, value)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            value = None
            if not node.level:
                value = self.resolver.imported(node.module, alias.name)
            self.scope.bind(bound_name(node, alias), KNOWN, value)

    def visit_Call(self, node):
        func = node.func
        if getattr(func, "id", None) == "setattr" or (
            getattr(func, "attr", None) == "__setattr__"
        ):
            name = node.args[1] if len(node.args) > 1 else None
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                self.resolver.foreign.add(name.value)
            else:
                self.dynamic = True
        self.generic_visit(node)


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

    def __init__(self, how, key, name, value, forwarded, scope, owners):
        self.how = how
        self.key = key  # the callee, for a call
        self.name = name
        #: the source text of the value, None where it is not one
        #: expression (an augmented or unpacking store)
        self.value = value
        #: ``(key, owner, name)`` of the enclosing function's defaulted
        #: parameter the value is, if it is one: the setter then sets
        #: something only when that parameter is set
        self.forwarded = forwarded
        self.scope = scope
        #: the `Parameter` owners its receiver resolves to; None if any
        self.owners = owners

    def reaches(self, parameter):
        if self.owners is not None and parameter.owner not in self.owners:
            return False
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
    """Walks one file and records ``(name, how, scope, homes)`` per
    reference and a `Setter` per argument and attribute store, *scope*
    being the keys of the collected definitions it sits inside (empty
    outside ``src/``: everything there is traffic) and *homes* what the
    `Resolver` resolves it to (None: every definition of the name)."""

    def __init__(self, source, positions, resolver):
        module = source.role == MODULE
        self.source = source
        self.positions = positions
        self.resolver = resolver
        #: the `Scope` names are resolved in
        self.where = resolver.scopes[id(source.tree)]
        self.scope = (source.name,) if module else ()
        #: names the file reads; an import of anything else vouches
        #: for nothing
        self.read = names_read(source.tree)
        self.references = []
        self.setters = []
        #: 0 at module level, 1 inside a top-level definition; None
        #: where scopes are not tracked.
        self.depth = 0 if module else None
        #: enclosing classes, and enclosing functions as ``(key, owner,
        #: {defaulted parameter: default})``
        self.classes, self.functions = [], []

    def note(self, name, how, homes=None):
        self.references.append((name, how, self.scope, homes))

    def set(self, how, key, name, value, owners):
        forwarded = None
        if (
            isinstance(value, ast.Name)
            and self.functions
            and value.id in self.functions[-1][2]
        ):
            forwarded = self.functions[-1][:2] + (value.id,)
        self.setters.append(
            Setter(
                how, key, name, value and ast.unparse(value), forwarded,
                self.scope, owners,
            )
        )

    def nested(self, node):
        # Only top-level definitions and the methods of top-level
        # classes are collected; anything deeper, or private, belongs
        # to what encloses it.
        outer, depth, where = self.scope, self.depth, self.where
        self.where = self.resolver.scopes[id(node)]
        if depth is not None:
            if depth == 0 and is_public(node.name):
                function = not isinstance(node, ast.ClassDef)
                self.scope = outer + (
                    f"{self.source.label}.{node.name}" if function
                    else node.name,
                )
            elif depth == 1 and is_public(node.name) and len(outer) == 2:
                self.scope = outer + (f"{outer[1]}.{node.name}",)
            self.depth = depth + 1
        if isinstance(node, ast.ClassDef):
            stack, entry = self.classes, node.name
        else:
            home = self.where.home
            init = node.name == "__init__" and home in self.classes
            key = home if init else node.name
            stack = self.functions
            entry = (key, home, defaulted_parameters(node))
        stack.append(entry)
        self.generic_visit(node)
        stack.pop()
        self.scope, self.depth, self.where = outer, depth, where

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = nested

    def store(self, target, value):
        """A setter for an attribute store, unless it is through
        ``self``: that store is inside its own class, where no store
        sets an option."""
        if isinstance(target, ast.Attribute) and not (
            isinstance(target.value, ast.Name) and target.value.id == "self"
        ):
            self.set(
                STORE, None, target.attr, value,
                self.resolver.attribute_homes(target, self.where),
            )

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
        self.note(
            node.id, NAME,
            self.resolver.named(self.resolver.lookup(node.id, self.where)),
        )

    def visit_Attribute(self, node):
        self.note(
            node.attr, STORE if isinstance(node.ctx, ast.Store) else LOAD,
            self.resolver.attribute_homes(node, self.where),
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
            self.note(
                name, IMPORT,
                self.resolver.named(
                    self.resolver.imported(node.module, name)
                ),
            )

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
        if callee == "replace":
            how = REPLACE
            owners = node.args and self.resolver.through(
                self.resolver.evaluate(node.args[0], self.where)
            ) or None
        else:
            how = CALL
            owners = self.resolver.call_owners(node.func, self.where)
        for keyword in node.keywords:
            if keyword.arg:
                self.set(how, callee, keyword.arg, keyword.value, owners)
        for owner, names in self.positions.get(callee, ()):
            if owners is not None and owner not in owners:
                continue
            for name, arg in zip(names, node.args):
                if isinstance(arg, ast.Starred):
                    break
                self.set(CALL, callee, name, arg, frozenset({owner}))
        self.generic_visit(node)


def collect_references(sources, positions, resolver):
    """``({name: [(how, scope, homes), ...]}, [Setter, ...])`` over
    ``src/`` and the caller directories."""
    by_name, setters = {}, []
    for source in sources:
        if source.role == REEXPORT:
            continue
        collector = ReferenceCollector(source, positions, resolver)
        collector.visit(source.tree)
        for name, how, scope, homes in collector.references:
            by_name.setdefault(name, []).append((how, scope, homes))
        setters.extend(collector.setters)
    return by_name, setters


def settled(parameters, setters, kept):
    """``(key, owner, name)`` of every parameter a setter sets: to
    something other than its default, and - when it forwards a
    defaulted parameter of its enclosing function - only once that one
    is set, or is an option *kept* on purpose.  The least fixed point,
    so a cycle of forwards sets nothing."""
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
                (parameter.key, parameter.owner, parameter.name)
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
    definition it names and, if resolved, names its home.  A module is
    called when something imports it by name or, being reached through
    its package's re-exports, when anything it defines is called."""
    kept_parameters = {
        (d.callee, d.home, d.name)
        for d in definitions
        if d.kind == "option" and d.label in kept
    }

    def called(definition, dead, is_set):
        if definition.name in CALLED_BY_STDLIB:
            return True
        if definition.owner in dead:
            return False
        if definition.kind == "option":
            return (definition.callee, definition.home, definition.name) in is_set
        return any(
            how in VOUCHERS[definition.kind]
            and (homes is None or definition.home in homes)
            and definition.key not in scope
            and not dead.intersection(scope)
            for how, scope, homes in references.get(definition.name, ())
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
    references, setters = collect_references(
        sources, positions, Resolver(sources)
    )
    return definitions, uncalled(
        definitions, references, setters, parameters, kept
    )


DEFINITIONS, UNCALLED = survey(repo_sources(), TEST_ONLY)


def test_the_collector_still_finds_the_surface():
    kinds = {}
    for definition in DEFINITIONS:
        kinds[definition.kind] = kinds.get(definition.kind, 0) + 1
    assert kinds["module"] > 60 and kinds["method"] > 287, kinds
    assert kinds["option"] > 265 and kinds["class"] > 100, kinds
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


#: A module with one function other trees call and one they do not.
TEXT = "def area():\n    return 2\n\ndef width():\n    return 3\n"

#: Synthetic trees, each planting one shield the rule must see
#: through: name -> ``({path: source}, shielded label, called label or
#: labels)``.  Every tree has a caller that imports ``main`` from
#: ``repro.m``; a called label is a control, showing the caller is seen
#: at all.  The shielded definition's owner is itself called.  A file
#: under ``tests/`` is part of a tree, and vouches for nothing.
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
    """}, "m.render.width", "m.render.top"),
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
    "a defaulted dataclass field only tests set": ({
        "src/repro/m.py": """
            from dataclasses import dataclass, field

            @dataclass
            class Probe:
                dst: str
                ttl: int = 0
                hops: list = field(default_factory=list)
                seen: int = 0

                def visit(self):
                    self.seen += 1

            @dataclass
            class Reply:
                hop: str = ""

            def main(dst):
                probe = Probe(dst)
                probe.visit()
                reply = Reply(hop=dst)
                return probe.dst, probe.ttl, probe.hops, probe.seen, reply.hop
        """,
        "tests/test_m.py": """
            from repro.m import Probe

            def test_ttl():
                assert Probe("a", ttl=3).ttl == 3
        """,
    # a factory-built field and a self-assigned one are state: were
    # they collected as options, nothing would set them
    }, "Probe.ttl", ("Reply.hop", "Probe.hops", "Probe.seen")),
    # One per way the `Resolver` resolves a receiver.
    "a same-named function of another module": ({
        "src/repro/m.py": """
            from repro import shapes, text

            def main():
                return shapes.area(), text.width()
        """,
        "src/repro/shapes.py": "def area():\n    return 1\n",
        "src/repro/text.py": TEXT,
    }, "text.area", "shapes.area"),
    "a same-named function imported from another module": ({
        "src/repro/m.py": """
            from repro.shapes import area
            from repro.text import width

            def main():
                return area(), width()
        """,
        "src/repro/shapes.py": "def area():\n    return 1\n",
        "src/repro/text.py": TEXT,
    }, "text.area", "shapes.area"),
    "a same-named method called through self": ({"src/repro/m.py": """
        class Box:
            def close(self):
                return 1

        class Door:
            def close(self):
                return 2

            def shut(self):
                return self.close()

        def main():
            return Box, Door().shut()
    """}, "Box.close", "Door.close"),
    "a same-named method of an attribute's class": ({"src/repro/m.py": """
        class Cache:
            def get(self):
                return 1

        class Index:
            def get(self):
                return 2

        class Service:
            def __init__(self):
                self.cache = Cache()

            def fetch(self):
                return self.cache.get()

        def main():
            return Index, Service().fetch()
    """}, "Index.get", "Cache.get"),
    "a same-named method of a local's class": ({"src/repro/m.py": """
        class Box:
            def open(self):
                return 1

        class Jar:
            def open(self):
                return 2

        def main():
            box = Box()
            return Jar, box.open()
    """}, "Jar.open", "Box.open"),
    "a same-named method of an annotated parameter's class": ({
        "src/repro/m.py": """
            from typing import Optional

            class Box:
                def size(self):
                    return 1

            class Crate:
                def size(self):
                    return 2

            def measure(box: Optional["Box"]):
                return box.size()

            def main():
                return Crate, measure(Box())
        """,
    }, "Crate.size", "Box.size"),
    "the same keyword to another module's run": ({
        "src/repro/m.py": """
            from repro import exp_a, exp_b

            def main():
                return exp_a.run(1, n_sources=3), exp_b.run(1)
        """,
        "src/repro/exp_a.py": "def run(scenario, n_sources=2):\n"
                              "    return n_sources\n",
        "src/repro/exp_b.py": "def run(scenario, n_sources=2):\n"
                              "    return n_sources\n",
    }, "exp_b.run.n_sources", "exp_a.run.n_sources"),
    "a same-named method of a builtin container": ({"src/repro/m.py": """
        from dataclasses import dataclass, field
        from typing import Dict

        class Cache:
            def clear(self):
                return 1

            def purge(self):
                return 2

        @dataclass
        class Node:
            pref: Dict[int, int] = field(default_factory=dict)

        class Table:
            def __init__(self):
                self.rows: dict = {}
                self.seen = set()

            def reset(self):
                self.rows.clear()
                self.seen.clear()

        def main(node):
            pending = [n for n in range(3)]
            pending.clear()
            node.pref.clear()
            Table().reset()
            return Cache().purge()
    """}, "Cache.clear", "Cache.purge"),
    "the same keyword to a method of a call's result": ({"src/repro/m.py": """
        class Child:
            def inc(self, amount=1.0):
                return amount

        class Gauge:
            def inc(self, amount=1.0):
                return amount

        class Family:
            def labels(self, **values) -> "Child":
                return Child()

        def family() -> Family:
            return Family()

        def main():
            return Gauge().inc(), family().labels(op="x").inc(amount=2.0)
    """}, "Gauge.inc.amount", "Child.inc.amount"),
}


def synthetic_survey(files):
    """The labels *files* leave uncalled, with a caller of ``main``."""
    files = dict(files, **{
        "benchmarks/run.py": "from repro.m import main\nmain()\n"
    })
    _, dead = survey([
        Source(rel, ast.parse(textwrap.dedent(text)))
        for rel, text in files.items()
        if rel.split("/", 1)[0] in SCANNED
    ])
    return {d.label for d in dead}


@pytest.mark.parametrize("shield", sorted(SHIELDS))
def test_a_shield_vouches_for_nothing(shield):
    files, shielded, controls = SHIELDS[shield]
    uncalled = synthetic_survey(files)
    assert shielded in uncalled, uncalled
    if isinstance(controls, str):
        controls = (controls,)
    for control in controls:
        assert control not in uncalled, uncalled


if __name__ == "__main__":
    # ``python tests/test_surface.py``: every collected definition, one
    # ``kind label`` line each, for diffing two trees.
    for line in sorted(f"{d.kind} {d.label}" for d in DEFINITIONS):
        print(line)
