"""Arithmetic mini-language for coefficient expressions in configs.

Grammar (over the variables x, z, t):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          (right associative)
    atom    := number | name | name '(' args ')' | '(' expr ')'

Functions: abs, sign, sin, cos, exp, min, max, indicator(a, b).
indicator(a, b) is 1 where a <= x <= b (it always tests the state variable).
Python's own parser reads the grammar, with '^' standing for '**'; a
character outside the grammar's alphabet, or a node outside the grammar,
is refused with its 1-based column in the expression's own text.
"""

import ast
import operator
import re

import numpy as np

from levylab.errors import ParameterError

__all__ = ["compile_expression", "expression_eval", "ExpressionError"]


class ExpressionError(ParameterError):
    """Parse or evaluation failure, locating the offending column."""

    def __init__(self, message, column=None):
        super().__init__(message if column is None else f"{message} (column {column})")
        self.column = column


def _power(left, right):
    # negative powers evaluate with |base| floored at 1e-10, matching the
    # singular-drift floor of the integrator; sign(0) = 0 upstream still
    # kills odd singular drifts at the origin
    with np.errstate(invalid="ignore", divide="ignore"):
        neg = np.asarray(right) < 0
        if np.any(neg):
            left = np.where(neg & (np.abs(left) < 1e-10), np.where(np.asarray(left) < 0, -1e-10, 1e-10), left)
        return np.power(left, right)


# a character outside the grammar's alphabet, or the second '*' of '**'
_REFUSED = re.compile(r"[^A-Za-z0-9_.+\-*/^(), ]|(?<=\*)\*")
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
# leading zeros of an integer part, which Python refuses in "007"
_LEADING_ZEROS = re.compile(r"(?<![\w.])(?<![eE][+-])0+(?=\d)")
_VARS = ("x", "z", "t")
_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv, ast.Pow: _power}
_FNS = dict(abs=(1, np.abs), sign=(1, np.sign), sin=(1, np.sin), cos=(1, np.cos), exp=(1, np.exp),
            min=(2, np.minimum), max=(2, np.maximum), indicator=(2, None))


def _build(node, code, cols):
    """fn(env) evaluating one node of the grammar; any other node is refused."""
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(literal := code[node.col_offset : node.end_col_offset]):
        value = float(literal)
        return lambda env: value
    if isinstance(node, ast.Name) and node.id in _VARS:
        return operator.itemgetter(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = _build(node.operand, code, cols)
        return lambda env: -operand(env)
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        op, left, right = _OPS[type(node.op)], _build(node.left, code, cols), _build(node.right, code, cols)
        return lambda env: op(left(env), right(env))
    # a call names a function of the grammar directly: not "(abs)(x)", and no trailing comma
    func = getattr(node, "func", None)
    if isinstance(node, ast.Call) and isinstance(func, ast.Name) and func.id in _FNS and func.col_offset == node.col_offset:
        name, args = func.id, [_build(arg, code, cols) for arg in node.args]
        arity, fn = _FNS[name]
        if len(args) != arity or "," in code[node.args[-1].end_col_offset : node.end_col_offset]:
            raise ExpressionError(f"{name} takes {('one argument', 'two arguments')[arity - 1]}", column=cols[node.col_offset])
        if name == "indicator":
            a, b = args
            return lambda env: ((env["x"] >= a(env)) & (env["x"] <= b(env))).astype(float)
        return lambda env: fn(*[arg(env) for arg in args])
    raise ExpressionError(f"{code[node.col_offset : node.end_col_offset]!r} is not in the grammar", column=cols[node.col_offset])


def compile_expression(src):
    """Compile an expression string to fn(x, z=0, t=0) (numpy-vectorized)."""
    text = re.sub(r"\s", " ", src)
    bad = _REFUSED.search(text)
    if bad:
        raise ExpressionError(f"unexpected character {src[bad.start()]!r}", column=bad.start() + 1)
    code = _LEADING_ZEROS.sub(lambda m: " " * len(m.group()), text.replace("^", "**"))
    lead = len(code) - len(code.lstrip())
    code = code[lead:]
    # the column in src of each offset in code, where '^' reads as '**'
    cols = [i + 1 for i, c in enumerate(text) for _ in range(1 + (c == "^"))][lead:] + [len(text) + 1]
    try:
        evaluate = _build(ast.parse(code, mode="eval").body, code, cols)
    except SyntaxError as e:
        raise ExpressionError(f"invalid syntax: {e.msg}", column=cols[min(e.offset or len(cols), len(cols)) - 1]) from None

    def fn(x, z=0.0, t=0.0):
        out = evaluate({"x": np.asarray(x, dtype=float), "z": z, "t": t})
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x)).copy() if np.shape(out) != np.shape(x) else out

    fn.source = src
    return fn


def expression_eval(src, x=0.0, z=0.0, t=0.0):
    """Evaluate one expression at a point (the CLI-facing convenience)."""
    return float(compile_expression(src)(np.asarray(float(x)), float(z), float(t)))
