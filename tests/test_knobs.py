"""Every defaulted parameter or dataclass field in bvcalc is set by some call.

A default that no call in ``src/``, ``tests/``, ``perfbench/`` or
``tools/`` overrides is a configuration nothing runs: it belongs in the
code that reads it as a constant.  A default that only calls in
``tests/`` override is a capability nothing else needs: it is listed, with
its reason, or removed.  Calls are matched by bare name (a
method call ``obj.f(...)`` matches every ``f``), a class name matches its
``__init__`` or, for a dataclass, its fields, and a ``**`` argument sets
every parameter.  Closure bindings (``_``-prefixed parameters) and
``field(init=False)`` fields are not parameters of any caller.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bvcalc"
CALLER_DIRS = ("src", "tests", "perfbench", "tools")

# Knobs kept on purpose although no call sets them, each with its reason.
ALLOWED = {
    # the matrix shape of outside input
    "young.GeneralizedYoungMeasure.from_json(dims)",
}

# Knobs that only tests set, each with its reason; any other such knob is a
# capability that nothing outside the tests needs.
SET_BY_TESTS_ONLY = {
    # the scenarios use the unit ramp; tests raise it to check a profile of other height
    "bv.ramp_1d(height)",
    # the scenarios check the first component pair; tests loop over every pair of a system
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
