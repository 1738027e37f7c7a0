"""Expression mini-language: arithmetic oracles and parse-error locations."""

import numpy as np
import pytest

from levylab.expressions import ExpressionError, compile_expression, expression_eval


@pytest.mark.parametrize(
    "src,x,z,val",
    [
        ("-x", 3.0, 0.0, -3.0),
        ("sign(x)*abs(x)^(-0.5)*indicator(-1,1)", 0.25, 0.0, 2.0),
        ("0.5*abs(x)^0.5*z", 4.0, 3.0, 3.0),
        ("min(x, 2) + max(x, 5)", 3.0, 0.0, 7.0),
        ("2^3^1", 0.0, 0.0, 8.0),
        ("sin(x)*cos(x)", np.pi / 4, 0.0, 0.5),
        ("exp(-x)", 1.0, 0.0, np.exp(-1.0)),
        ("-x^2", 3.0, 0.0, -9.0),
        ("indicator(0, 2)", 3.0, 0.0, 0.0),
        ("abs(x)", -2.5, 0.0, 2.5),
        ("sign(x)", -2.5, 0.0, -1.0),
        ("sin(x)", np.pi / 2, 0.0, 1.0),
        ("cos(x)", 0.0, 0.0, 1.0),
        ("exp(x)", 0.0, 0.0, 1.0),
        ("max(x, z)", 1.0, 4.0, 4.0),
        ("indicator(-1, 1)", 1.0, 0.0, 1.0),
        ("-2^2", 0.0, 0.0, -4.0),
        ("x^-x^2", 2.0, 0.0, 0.0625),
        ("2*-x", 3.0, 0.0, -6.0),
        ("--x", 3.0, 0.0, 3.0),
        ("x^-1", 0.0, 0.0, 1e10),
        ("abs(x)^(-0.5)", 0.0, 0.0, 1e5),
        ("1e3*x", 2.0, 0.0, 2000.0),
        (".5*x", 3.0, 0.0, 1.5),
        ("5.*x", 3.0, 0.0, 15.0),
        ("7/2", 0.0, 0.0, 3.5),
        ("1e-007*x", 2.0, 0.0, 2e-7),
        ("007*x", 2.0, 0.0, 14.0),
        ("  x +\n\t1", 2.0, 0.0, 3.0),
        ("sin (x) * ( z )", np.pi / 2, 2.0, 2.0),
    ],
)
def test_arithmetic(src, x, z, val):
    assert expression_eval(src, x=x, z=z) == pytest.approx(val, rel=1e-12)


def test_vectorized_evaluation():
    f = compile_expression("sin(x)*z + t")
    out = f(np.array([0.0, np.pi / 2]), z=np.array([2.0, 2.0]), t=1.0)
    assert np.allclose(out, [1.0, 3.0])


def test_singular_floor_at_origin():
    # sign(0) = 0 kills the odd singular drift; the bare negative power is
    # floored at |x| v 1e-10
    assert expression_eval("sign(x)*abs(x)^(-0.5)", x=0.0) == 0.0
    assert expression_eval("abs(x)^(-0.5)", x=0.0) == pytest.approx(1e5)


def test_parse_errors_carry_columns():
    # every refusal names a 1-based column of the expression's own text;
    # where the column is given, it must be that one
    refusals = [
        ("x + unknown(3)", 5),
        ("x @ 2", 3),
        ("x**2", 3),
        ("x + + 3", 5),
        ("x + y", 5),
        ("x^2 + y", 7),
        ("min(x)", 1),
        ("(x + 1", None),
        ("x % 2", 3),
        ("x.real", None),
        ("'a'", 1),
        ("1j*x", None),
        ("x if x else 1", None),
        ("x ^", None),
        ("x[0]", 2),
        ("abs(x=1)", 6),
        ("abs(x,)", None),
        ("(abs)(x)", None),
        ("1_000*x", None),
        ("x//2", None),
        ("", None),
    ]
    for src, column in refusals:
        with pytest.raises(ExpressionError, match="column") as info:
            expression_eval(src)
        assert info.value.column >= 1 if column is None else info.value.column == column, src


def test_deterministic():
    f = compile_expression("sin(x)*exp(-x^2)")
    xs = np.linspace(-3, 3, 100)
    assert np.array_equal(f(xs), f(xs))
