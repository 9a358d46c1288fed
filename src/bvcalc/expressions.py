"""Compilation of declarative expression strings into vectorized callables.

A scalar measure can be described by a JSON document whose densities are
expression strings in the variables ``x`` (and ``y`` in 2D).  Expressions
are evaluated in a restricted numpy namespace; no builtins are exposed.
Before compiling, every node of the syntax tree is checked against an
allow-list: arithmetic, comparisons and boolean operators on numbers, the
names of the namespace and ``x``/``y``, subscripts, and calls of namespace
functions.  Attributes, comprehensions, lambdas and assignment
expressions are rejected, so an expression cannot reach any object
beyond the namespace.
"""

from __future__ import annotations

import ast
import math

import numpy as np

_NAMESPACE = {
    "abs": np.abs,
    "sign": np.sign,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "arctan": np.arctan,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "clip": np.clip,
    "floor": np.floor,
    "where": np.where,
    "heaviside": np.heaviside,
    "pi": math.pi,
    "e": math.e,
}


_ALLOWED_NODES = (
    ast.Expression,
    ast.Constant,
    ast.Name,
    ast.Load,
    ast.BinOp,
    ast.UnaryOp,
    ast.BoolOp,
    ast.Compare,
    ast.operator,
    ast.unaryop,
    ast.boolop,
    ast.cmpop,
    ast.Call,
    ast.keyword,
    ast.Subscript,
    ast.Slice,
    ast.Tuple,
)


class ExpressionError(ValueError):
    """Raised for malformed or disallowed expression strings."""


def _check_tree(tree, expr):
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ExpressionError(f"{type(node).__name__} not allowed in {expr!r}")
        if isinstance(node, ast.Name) and node.id not in _NAMESPACE and node.id not in ("x", "y"):
            raise ExpressionError(f"name {node.id!r} not allowed in {expr!r}")
        if isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes)):
            raise ExpressionError(f"string constants not allowed in {expr!r}")
        if isinstance(node, ast.Call) and not (
            isinstance(node.func, ast.Name) and callable(_NAMESPACE.get(node.func.id))
        ):
            raise ExpressionError(f"only namespace functions may be called in {expr!r}")
        if isinstance(node, ast.keyword) and node.arg is None:
            raise ExpressionError(f"keyword unpacking not allowed in {expr!r}")


def compile_scalar(expr, dim):
    """Compile ``expr`` into a callable mapping nodes (M, dim) -> (M,)."""
    if isinstance(expr, (int, float)):
        const = float(expr)

        def const_fn(nodes):
            return np.full(len(nodes), const)

        return const_fn
    if not isinstance(expr, str):
        raise ExpressionError(f"expected expression string, got {type(expr)!r}")
    try:
        tree = ast.parse(expr, mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise ExpressionError(f"cannot parse {expr!r}: {exc}") from exc
    _check_tree(tree, expr)
    code = compile(tree, "<expr>", "eval")

    def fn(nodes):
        nodes = np.asarray(nodes, dtype=float)
        env = dict(_NAMESPACE)
        env["x"] = nodes[:, 0]
        if dim >= 2:
            env["y"] = nodes[:, 1]
        out = eval(code, {"__builtins__": {}}, env)
        return np.broadcast_to(np.asarray(out, dtype=float), (len(nodes),)).copy()

    return fn
