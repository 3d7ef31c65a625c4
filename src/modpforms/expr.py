"""Parser and evaluator for form expressions.

Grammar (whitespace insensitive):

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" uint)?
    atom   := "delta" | "E4" | "E6" | uint | "(" expr ")"

Evaluation assigns weight lifts per monomial (delta: 12, E4: 4, E6: 6,
integer: 0); a sum of different weights is lifted to the largest one when
the weights agree mod p-1, and rejected otherwise.  Powers and products
of the distinguished cusp form stay symbolic so that delta^k is generated
through the sparse fast path rather than by dense squaring.
"""

from typing import NamedTuple

from .basis import GradedForm
from .errors import FormSyntaxError
from .series import delta_power, eisenstein, linear_combine, mul, power

ATOM_WEIGHTS = {"delta": 12, "E4": 4, "E6": 6}


class Atom(NamedTuple):
    name: str


class IntLit(NamedTuple):
    value: int


class BinOp(NamedTuple):
    op: str  # + - *
    left: object
    right: object


class Pow(NamedTuple):
    base: object
    exponent: int


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    @property
    def column(self):
        return self.pos + 1

    def take_uint(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise FormSyntaxError("expected an integer", self.column)
        return int(self.text[start : self.pos])

    def take_name(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos], start + 1


def parse_form_expression(text, p=None):
    """Parse a form expression into its AST; p is accepted for symmetry with evaluate."""
    if not text or not text.strip():
        raise FormSyntaxError("empty expression", 1)
    toks = _Tokens(text)
    ast = _parse_expr(toks)
    toks.skip_ws()
    if toks.pos != len(text):
        raise FormSyntaxError(f"unexpected {text[toks.pos]!r}", toks.column)
    return ast


def _parse_expr(toks):
    node = _parse_term(toks)
    while toks.peek() in ("+", "-"):
        op = toks.peek()
        toks.pos += 1
        node = BinOp(op, node, _parse_term(toks))
    return node


def _parse_term(toks):
    node = _parse_factor(toks)
    while toks.peek() == "*":
        toks.pos += 1
        node = BinOp("*", node, _parse_factor(toks))
    return node


def _parse_factor(toks):
    node = _parse_atom(toks)
    if toks.peek() == "^":
        toks.pos += 1
        node = Pow(node, toks.take_uint())
    return node


def _parse_atom(toks):
    ch = toks.peek()
    if ch == "(":
        toks.pos += 1
        node = _parse_expr(toks)
        if toks.peek() != ")":
            raise FormSyntaxError("expected ')'", toks.column)
        toks.pos += 1
        return node
    if ch.isdigit():
        return IntLit(toks.take_uint())
    if ch.isalpha():
        name, col = toks.take_name()
        if name not in ATOM_WEIGHTS:
            raise FormSyntaxError(f"unsupported atom {name!r}", col)
        return Atom(name)
    raise FormSyntaxError(f"unexpected {ch!r}" if ch else "unexpected end of input", toks.column)


def pretty(ast):
    """Canonical rendering; parse(pretty(ast)) reproduces the AST."""
    if isinstance(ast, Atom):
        return ast.name
    if isinstance(ast, IntLit):
        return str(ast.value)
    if isinstance(ast, Pow):
        base = pretty(ast.base)
        if isinstance(ast.base, (BinOp, Pow)):
            base = f"({base})"
        return f"{base}^{ast.exponent}"
    left, right = pretty(ast.left), pretty(ast.right)
    if ast.op in "+-":
        if isinstance(ast.right, BinOp) and ast.right.op in "+-":
            right = f"({right})"
        return f"{left} {ast.op} {right}"
    if isinstance(ast.left, BinOp) and ast.left.op in "+-":
        left = f"({left})"
    if isinstance(ast.right, BinOp):
        right = f"({right})"
    return f"{left} * {right}"


class _DeltaPower(NamedTuple):
    """c * delta^k kept symbolic so powers take the sparse generator path."""

    coef: int
    k: int


def _materialize(val, p, prec):
    if isinstance(val, _DeltaPower):
        series = delta_power(p, val.k, prec)
        if val.coef % p != 1:
            series = linear_combine([(val.coef, series)])
        return series, 12 * val.k
    return val


def _common_weight(w1, w2, p):
    if w1 == w2:
        return w1
    if (w1 - w2) % (p - 1) == 0:
        return max(w1, w2)
    raise ValueError(
        f"cannot mix weights {w1} and {w2}: they differ mod {p - 1}"
    )


def _eval(ast, p, prec):
    if isinstance(ast, Atom):
        if ast.name == "delta":
            return _DeltaPower(1, 1)
        return eisenstein(p, ATOM_WEIGHTS[ast.name], prec), ATOM_WEIGHTS[ast.name]
    if isinstance(ast, IntLit):
        return _DeltaPower(ast.value % p, 0)
    if isinstance(ast, Pow):
        base = _eval(ast.base, p, prec)
        if isinstance(base, _DeltaPower):
            return _DeltaPower(pow(base.coef, ast.exponent, p), base.k * ast.exponent)
        series, w = base
        return power(series, ast.exponent), w * ast.exponent
    left = _eval(ast.left, p, prec)
    right = _eval(ast.right, p, prec)
    if ast.op == "*":
        if isinstance(left, _DeltaPower) and isinstance(right, _DeltaPower):
            return _DeltaPower(left.coef * right.coef % p, left.k + right.k)
        ls, lw = _materialize(left, p, prec)
        rs, rw = _materialize(right, p, prec)
        return mul(ls, rs), lw + rw
    ls, lw = _materialize(left, p, prec)
    rs, rw = _materialize(right, p, prec)
    weight = _common_weight(lw, rw, p)
    sign = 1 if ast.op == "+" else p - 1
    return linear_combine([(1, ls), (sign, rs)]), weight


def evaluate(ast, p, prec):
    """Evaluate an AST to a graded form at the requested precision."""
    val = _eval(ast, p, prec)
    series, weight = _materialize(val, p, prec)
    return GradedForm(series, weight)
