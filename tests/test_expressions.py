import numpy as np
import pytest

from bvcalc.expressions import ExpressionError, compile_scalar

NODES_1D = np.array([[0.1], [0.5], [0.9]])
NODES_2D = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.3]])


@pytest.mark.parametrize(
    "expr",
    [
        "[q.__len__() for q in [x]][0]",  # reached a method through a comprehension
        "[q for q in [x]][0]",
        "{q for q in [1]}",
        "sum(q for q in [x])",
        "{k: 1 for k in [1]}",
        "x.__class__",
        "sqrt.__self__",
        "(lambda: x)()",
        "(z := x)",
        "__import__('os')",
        "open",
        "x(1)",
        "pi(1)",
        "'a' * 3",
        "[x][0]",
        "sin(*[x])",
        "x if 1 else 0",
    ],
)
def test_rejects_disallowed_expressions(expr):
    with pytest.raises(ExpressionError):
        compile_scalar(expr, 1)


@pytest.mark.parametrize("expr", ["x +", "", "x\0"])
def test_rejects_unparsable_expressions(expr):
    with pytest.raises(ExpressionError):
        compile_scalar(expr, 1)


# Density strings of the kind a measure document holds; scenarios.py
# builds its data from Python callables and holds no expression strings.
SUITE_EXPRESSIONS = ["1 + x", "0", "2", "x + (x > 0.5)", "1", "x + 1", "x"]


@pytest.mark.parametrize("expr", SUITE_EXPRESSIONS)
def test_suite_expressions_compile(expr):
    x = NODES_1D[:, 0]
    expected = np.broadcast_to(np.asarray(eval(expr, {}, {"x": x}), dtype=float), x.shape)
    assert np.array_equal(compile_scalar(expr, 1)(NODES_1D), expected)


def test_allowed_forms_evaluate():
    x, y = NODES_2D[:, 0], NODES_2D[:, 1]
    cases = {
        "where(x > 0.5, sin(pi * x), -y)": np.where(x > 0.5, np.sin(np.pi * x), -y),
        "clip(x, a_min=0.2, a_max=0.6) ** 2": np.clip(x, 0.2, 0.6) ** 2,
        "abs(y - x) / e + heaviside(x - 0.5, 1)": np.abs(y - x) / np.e + np.heaviside(x - 0.5, 1),
        "(x > 0.2) & (y < 0.4)": ((x > 0.2) & (y < 0.4)).astype(float),
        "maximum(x, y)[0] + 0 * x": np.full(3, max(x[0], y[0])),
    }
    for expr, expected in cases.items():
        assert np.array_equal(compile_scalar(expr, 2)(NODES_2D), expected), expr
    assert np.array_equal(compile_scalar(2.5, 2)(NODES_2D), np.full(3, 2.5))

