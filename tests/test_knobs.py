"""Every defaulted parameter or dataclass field in bvcalc is set by some call,
and every function, class and method of bvcalc is read by code outside the tests.

A default that no call in ``src/``, ``tests/``, ``perfbench/`` or
``tools/`` overrides is a configuration nothing runs: it belongs in the
code that reads it as a constant.  A default that only calls in
``tests/`` override is a capability nothing else needs: it is listed, with
its reason, or removed.  Calls are matched by bare name (a
method call ``obj.f(...)`` matches every ``f``), a class name matches its
``__init__`` or, for a dataclass, its fields, and a ``**`` argument sets
every parameter.  Closure bindings (``_``-prefixed parameters) and
``field(init=False)`` fields are not parameters of any caller.

A definition is read where its bare name is loaded (``f``, ``obj.f``) or is
a part of a string constant that is a dotted name (``"Domain.cell_rule"``),
anywhere in ``src/`` outside its own body and outside ``__init__.py``, or in
``perfbench/`` or ``tools/``.  Dunder methods are exempt.  A definition that
only tests read is listed, with its reason, or removed.  As names are matched
bare, a name that more than one definition carries is listed, with its reason.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bvcalc"
CALLER_DIRS = ("src", "tests", "perfbench", "tools")

# Knobs kept on purpose although no call sets them, each with its reason.
ALLOWED = set()

# Knobs that only tests set, each with its reason; any other such knob is a
# capability that nothing outside the tests needs.
SET_BY_TESTS_ONLY = {
    # the scenarios use the unit ramp; tests raise it to check a profile of other height
    "bv.ramp_1d(height)",
    # only tests call the function (USED_BY_TESTS_ONLY); they loop over every component pair of a system
    "bv.verify_integration_by_parts(comp_i)",
    "bv.verify_integration_by_parts(comp_j)",
    # the scenarios use the 1-by-1 forms; tests build the matrix and 2D forms
    "integrands.make_area(N)",
    "integrands.make_area(n)",
    "integrands.make_shifted_norm(N)",
    "integrands.make_shifted_norm(n)",
    # tests pass one hand-made field to pin a known witness
    "integrands.quasiconvexity_refuter(trial_fields)",
    # tests defer validation to see what is built before first use and to reach the later checks
    "young.GeneralizedYoungMeasure.__init__(validate)",
}


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
            isinstance(target, ast.Attribute) and target.attr == "dataclass"
        ):
            return True
    return False


def _init_false(value):
    return (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", getattr(value.func, "attr", None)) == "field"
        and any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in value.keywords
        )
    )


class _Signature:
    """The parameters of one callable: positional names in order and the
    defaulted ones with their knob labels."""

    def __init__(self, positional, defaulted):
        self.positional = positional
        self.defaulted = defaulted  # param name -> knob label


def _function_signature(fn, label, method):
    args = fn.args
    params = args.posonlyargs + args.args
    positional = [a.arg for a in params][1 if method else 0 :]
    defaulted = {}
    for a in params[len(params) - len(args.defaults) :]:
        defaulted[a.arg] = f"{label}({a.arg})"
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:
            defaulted[a.arg] = f"{label}({a.arg})"
    defaulted = {k: v for k, v in defaulted.items() if not k.startswith("_")}
    return _Signature(positional, defaulted)


def _collect(module, tree):
    """name -> [signatures] for every def and class of one module."""
    found = {}
    dataclass_fields = {}

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                label = f"{module}.{prefix}{node.name}"
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                sig = _function_signature(node, label, in_class and not static)
                found.setdefault(node.name, []).append(sig)
                visit(node.body, f"{prefix}{node.name}.", False)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", True)
                if _is_dataclass(node):
                    positional, defaulted = [], {}
                    for base in node.bases:
                        inherited = dataclass_fields.get(getattr(base, "id", None))
                        if inherited:
                            positional += inherited.positional
                            defaulted.update(inherited.defaulted)
                    for stmt in node.body:
                        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                            continue
                        name = stmt.target.id
                        if stmt.value is not None and _init_false(stmt.value):
                            continue
                        positional.append(name)
                        if stmt.value is not None:
                            defaulted[name] = f"{module}.{prefix}{node.name}.{name}"
                    sig = _Signature(positional, defaulted)
                    dataclass_fields[node.name] = sig
                    found.setdefault(node.name, []).append(sig)
                else:
                    for stmt in node.body:
                        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                            label = f"{module}.{prefix}{node.name}.__init__"
                            found.setdefault(node.name, []).append(
                                _function_signature(stmt, label, True)
                            )

    visit(tree.body, "", False)
    return found


def unset_knobs(sources, callers):
    """Knob labels of ``sources`` (module name -> source) that no call in
    ``callers`` (an iterable of sources) sets."""
    signatures = {}
    for module, text in sources.items():
        for name, sigs in _collect(module, ast.parse(text)).items():
            signatures.setdefault(name, []).extend(sigs)
    knobs = {label for sigs in signatures.values() for s in sigs for label in s.defaulted.values()}
    set_ = set()
    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            for sig in signatures.get(name, ()):
                if any(k.arg is None for k in node.keywords):
                    set_.update(sig.defaulted.values())
                    continue
                for k in node.keywords:
                    if k.arg in sig.defaulted:
                        set_.add(sig.defaulted[k.arg])
                for i, arg in enumerate(node.args):
                    names = sig.positional[i:] if isinstance(arg, ast.Starred) else sig.positional[i : i + 1]
                    set_.update(sig.defaulted[p] for p in names if p in sig.defaulted)
    return sorted(knobs - set_)


def test_every_knob_is_set_by_a_caller():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    callers = [p.read_text() for d in CALLER_DIRS for p in sorted((ROOT / d).rglob("*.py"))]
    assert [k for k in unset_knobs(sources, callers) if k not in ALLOWED] == []


def test_allow_list_names_real_knobs():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert ALLOWED <= set(unset_knobs(sources, []))


def test_no_knob_is_set_by_tests_alone():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    callers = [p.read_text() for d in CALLER_DIRS if d != "tests" for p in sorted((ROOT / d).rglob("*.py"))]
    assert [k for k in unset_knobs(sources, callers) if k not in ALLOWED | SET_BY_TESTS_ONLY] == []


def test_tests_only_list_names_real_knobs():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert SET_BY_TESTS_ONLY <= set(unset_knobs(sources, []))


SAMPLE = '''
from dataclasses import dataclass, field

def f(a, b=1, c=2, *, d=3, e=4):
    def inner(p, _bound=0, q=5):
        return p
    return inner

@dataclass
class Box:
    width: float
    height: float = 1.0
    depth: float = 2.0
    cache: dict = field(init=False, default=None)

    def scale(self, k=1.0, m=2.0):
        return k

@dataclass
class Tall(Box):
    top: float = 0.0

class Plain:
    def __init__(self, x, y=0):
        self.x = x

def g(u, v=0):
    return u
'''

SAMPLE_CALLERS = '''
f(0, 9, d=1)
Box(1.0, 2.0)
Box(1.0).scale(m=3.0)
Tall(1.0, top=4.0)
Plain(1, 2)
g(*args, **kwargs)
'''


def test_sample_lists_exactly_the_unset_knobs():
    assert unset_knobs({"m": SAMPLE}, [SAMPLE_CALLERS]) == [
        "m.Box.depth",
        "m.Box.scale(k)",
        "m.f(c)",
        "m.f(e)",
        "m.f.inner(q)",
    ]


# Definitions that only tests read, each with its reason; any other such
# definition is code that nothing outside the tests needs.
USED_BY_TESTS_ONLY = {
    "bv.verify_integration_by_parts": "the tests' Gauss-Green check of derivative",
    "measures.mutually_singular": "the tests' check that the rn_decompose remainder is singular to mu",
    "integrands.transform_T": "the unit-ball transform whose round trip T^-1(Tf) = f is acceptance criterion 1",
    "integrands.transform_T_inv": "the inverse half of that round trip",
    "measures.ScalarRadonMeasure.mass": "the total mass that tests compare with closed-form values",
    "measures.Domain.volume": "the box volume that tests compare the cell-rule weights with",
}

DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _reads(tree):
    """How often each name is read in ``tree``."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            counts[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED_NAME.fullmatch(node.value):
            counts.update(node.value.split("."))
    return counts


def _definitions(module, tree):
    """(label, node) for every def and class of one module, nested ones included."""
    found = []

    def visit(node, label):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((f"{label}.{child.name}", child))
                visit(child, f"{label}.{child.name}")
            else:
                visit(child, label)

    visit(tree, module)
    return found


def unread_definitions(sources, readers):
    """Labels of the definitions of ``sources`` (module name -> source) whose
    name nothing reads outside their own body, in ``sources`` or in
    ``readers`` (an iterable of sources)."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = Counter()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        reads.update(_reads(tree))
    return sorted(
        label
        for module, tree in trees.items()
        for label, node in _definitions(module, tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and reads[node.name] == _reads(node)[node.name]
    )


def _package_sources():
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def _readers(dirs):
    return [p.read_text() for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]


def test_every_definition_is_read_outside_the_tests():
    unread = unread_definitions(_package_sources(), _readers(("perfbench", "tools")))
    assert [label for label in unread if label not in USED_BY_TESTS_ONLY] == []


def test_tests_only_list_names_definitions_only_tests_read():
    sources = _package_sources()
    assert set(USED_BY_TESTS_ONLY) <= set(unread_definitions(sources, _readers(("perfbench", "tools"))))
    assert set(USED_BY_TESTS_ONLY).isdisjoint(unread_definitions(sources, _readers(("perfbench", "tools", "tests"))))


DEFINITIONS_SAMPLE = '''
def used(a):
    def helper(b):
        return b
    return helper(a)

def recursive(n):
    return recursive(n - 1) if n else 0

def by_tests():
    return 1

class Box:
    def __init__(self):
        self.size = 1

    def scale(self):
        return self.size

    def named(self):
        return 0

    def unused(self):
        return self.unused

class Spare:
    pass
'''

DEFINITIONS_READERS = '''
used(Box().scale())
TARGETS = ("Box.named",)
'''

DEFINITIONS_TESTS = '''
by_tests()
Spare()
'''


def test_sample_lists_exactly_the_unread_definitions():
    sample = {"m": DEFINITIONS_SAMPLE}
    assert unread_definitions(sample, [DEFINITIONS_READERS]) == [
        "m.Box.unused",
        "m.Spare",
        "m.by_tests",
        "m.recursive",
    ]
    assert unread_definitions(sample, [DEFINITIONS_READERS, DEFINITIONS_TESTS]) == [
        "m.Box.unused",
        "m.recursive",
    ]


# Names that more than one definition of bvcalc carries, each with its reason.
# The scan above matches names bare, so a read of one of them counts for all
# of them; each listed definition is read in its own right.
SHARED_NAMES = {
    "as_dict": "scenarios reads the report rows of both RunConfig and EvaluationBreakdown",
    "density_at": "the cell density of either measure kind, read by measure_parts and rn_decompose",
    "recession": "Integrand.recession is the analytic slope, integrands.recession the schedule that checks it",
}


def shared_names(sources):
    """Names that more than one def or class of ``sources`` carries at module
    or class level (defs inside functions are closures, not definitions of the
    module); dunder methods are exempt."""
    counts = Counter()

    def visit(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                counts[node.name] += not (node.name.startswith("__") and node.name.endswith("__"))
            if isinstance(node, ast.ClassDef):
                visit(node.body)

    for text in sources.values():
        visit(ast.parse(text).body)
    return {name for name, count in counts.items() if count > 1}


def test_shared_definition_names_are_listed():
    assert shared_names(_package_sources()) == set(SHARED_NAMES)


SHARED_SAMPLE = '''
class Field:
    def __init__(self):
        self.size = 2

    def scale(self):
        def helper(b):
            return b
        return helper(self.size)

def fn():
    def helper():
        return 0
    return helper
'''


def test_sample_lists_exactly_the_shared_names():
    # Box.scale and Field.scale share a name; __init__ is a dunder, and each helper is a closure
    assert shared_names({"m": DEFINITIONS_SAMPLE, "n": SHARED_SAMPLE}) == {"scale"}
