"""Small complex-valued expression language for coefficient densities.

Grammar (case sensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-') factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 'x' | 'i' | 'pi' | 'e'
            | NAME '(' expr ')' | '(' expr ')'

``i`` is the imaginary unit, ``x`` the free variable.  Functions: sin,
cos, exp, log, atan, sqrt, step.  ``step(u)`` is 0 for u < 0, 1 for
u > 0 and 1/2 at u = 0, so piecewise-defined densities are encoded
exactly: ``step_roots`` finds the jumps of steps with affine arguments,
``fold_steps`` reduces an expression to its form on one piece between
them, and ``shared_affine`` writes each of several such forms as
alpha + beta E with one shared AST node E where its structure allows it.
One walker folds: ``fold_steps`` reads each step's line as it folds,
while ``Problem`` reads an entry's lines once, in one bottom-up pass,
and folds a piece from the values its steps take there.  The fold also
returns the value of a folded AST without x, formed by the evaluator's
own operations, so a constant piece needs no second walk.

``parse_expr`` builds an AST, ``eval_expr`` evaluates it at a real x
with full domain checking, and ``compile_expr`` turns it into a plain
Python lambda for the integrator hot path.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
from dataclasses import dataclass

from .errors import ExpressionDomainError, ExpressionSyntaxError, UnknownIdentifierError

__all__ = [
    "Expr",
    "Literal",
    "Variable",
    "Constant",
    "Unary",
    "BinOp",
    "Call",
    "parse_expr",
    "eval_expr",
    "compile_expr",
    "to_source",
    "has_variable",
    "step_roots",
    "fold_steps",
    "shared_affine",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "atan", "sqrt", "step")
CONSTANTS = {"pi": complex(math.pi), "e": complex(math.e), "i": 1j}


class Expr:
    """Abstract syntax tree node.  Immutable."""

    __slots__ = ()

    def __call__(self, x):
        return eval_expr(self, x)

    def __str__(self):
        return to_source(self)

    def __repr__(self):
        return f"{type(self).__name__}({to_source(self)!r})"


@dataclass(frozen=True, repr=False)
class Literal(Expr):
    value: complex


@dataclass(frozen=True, repr=False)
class Variable(Expr):
    pass


@dataclass(frozen=True, repr=False)
class Constant(Expr):
    name: str


@dataclass(frozen=True, repr=False)
class Unary(Expr):
    op: str
    operand: Expr


@dataclass(frozen=True, repr=False)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class Call(Expr):
    func: str
    arg: Expr


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExpressionSyntaxError(
                f"unexpected character {text[pos]!r}", pos + 1, text
            )
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def error(self, message, position=None):
        if position is None:
            position = self.peek()[2]
        raise ExpressionSyntaxError(message, position, self.text)

    def parse(self):
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            self.error(f"unexpected trailing input {value!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            operand = self.factor()
            return operand if value == "+" else Unary("-", operand)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return Literal(complex(float(value)))
        if kind == "name":
            if value == "x":
                return Variable()
            if value in CONSTANTS:
                return Constant(value)
            if value in FUNCTIONS:
                if self.peek()[:2] != ("op", "("):
                    self.error(f"function {value!r} requires parentheses", pos)
                self.advance()
                arg = self.expr()
                if self.peek()[:2] != ("op", ")"):
                    self.error("expected ')'")
                self.advance()
                return Call(value, arg)
            raise UnknownIdentifierError(
                f"unknown identifier {value!r}", pos, self.text
            )
        if (kind, value) == ("op", "("):
            node = self.expr()
            if self.peek()[:2] != ("op", ")"):
                self.error("expected ')'")
            self.advance()
            return node
        if kind == "end":
            self.error("unexpected end of input", pos)
        self.error(f"unexpected token {value!r}", pos)


def parse_expr(text: str) -> Expr:
    """Parse expression text into an AST."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionSyntaxError("empty expression", 1, text)
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _checked_log(z):
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise ExpressionDomainError(f"log of non-positive real {z.real}")
    return cmath.log(z)


def _step(z):
    z = complex(z)
    if z.imag != 0.0:
        raise ExpressionDomainError("step of a non-real argument")
    if z.real < 0.0:
        return 0.0
    if z.real > 0.0:
        return 1.0
    return 0.5


_FUNC_IMPL = {
    "sin": cmath.sin,
    "cos": cmath.cos,
    "exp": cmath.exp,
    "log": _checked_log,
    "atan": cmath.atan,
    "sqrt": cmath.sqrt,
    "step": _step,
}

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}


def _eval(node, x):
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Variable):
        return x
    if isinstance(node, Constant):
        return CONSTANTS[node.name]
    if isinstance(node, Unary):
        return -_eval(node.operand, x)
    if isinstance(node, BinOp):
        return _BINARY[node.op](_eval(node.left, x), _eval(node.right, x))
    return _FUNC_IMPL[node.func](_eval(node.arg, x))


def eval_expr(expr: Expr, x: float) -> complex:
    """Evaluate ``expr`` at a real point, raising ExpressionDomainError
    instead of ever returning a non-finite value."""
    try:
        value = complex(_eval(expr, float(x)))
    except ExpressionDomainError:
        raise
    except ZeroDivisionError:
        raise ExpressionDomainError(f"division by zero at x={x}") from None
    except (ValueError, OverflowError) as exc:
        raise ExpressionDomainError(f"{exc} at x={x}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ExpressionDomainError(f"non-finite value {value} at x={x}")
    return value


# --------------------------------------------------------------------------
# piece structure
# --------------------------------------------------------------------------

def _children(node):
    if isinstance(node, BinOp):
        return node.left, node.right
    if isinstance(node, Unary):
        return (node.operand,)
    if isinstance(node, Call):
        return (node.arg,)
    return ()


def has_variable(expr: Expr) -> bool:
    """True when ``x`` occurs in the AST."""
    return isinstance(expr, Variable) or any(map(has_variable, _children(expr)))


def _affine(node, var=Variable()):
    """(a, b) with node == a*var + b when the AST is affine in the node
    ``var`` by its structure (sums, constant multiples and constant
    divisors of var, where a constant is an AST without x), else None.
    One walk, ``_linear``, learns which nodes hold x."""
    held, form = _linear(node, var)
    return form if held else _finite(form)


def _finite(value):
    """(0, value) for the finite value of an AST without x, else None."""
    return None if value is None or not cmath.isfinite(value) else (0j, complex(value))


def _apply(op, *args):
    """op(*args) as ``_eval`` applies it; None where an argument is None
    or it fails with an error that eval_expr reports."""
    try:
        return None if None in args else op(*args)
    except (ExpressionDomainError, ZeroDivisionError, ValueError, OverflowError):
        return None


def _linear(node, var):
    """(held, result): whether x occurs in node, and then ``_affine``'s
    form of it, else its value by ``_eval``'s operations (None where
    they fail)."""
    if node == var:
        return True, (1 + 0j, 0j)
    if isinstance(node, Variable):
        return True, None
    if isinstance(node, (Literal, Constant)):
        return False, _eval(node, None)
    if isinstance(node, Call):
        held, value = _linear(node.arg, var)
        return held, None if held else _apply(_FUNC_IMPL[node.func], value)
    if isinstance(node, Unary):
        held, inner = _linear(node.operand, var)
        if not held:
            return False, _apply(operator.neg, inner)
        return True, None if inner is None else (-inner[0], -inner[1])
    (lh, left), (rh, right) = _linear(node.left, var), _linear(node.right, var)
    if not (lh or rh):
        return False, _apply(_BINARY[node.op], left, right)
    left, right = (left if lh else _finite(left)), (right if rh else _finite(right))
    if left is None or right is None:
        return True, None
    (a1, b1), (a2, b2) = left, right
    if node.op == "+":
        return True, (a1 + a2, b1 + b2)
    if node.op == "-":
        return True, (a1 - a2, b1 - b2)
    if node.op == "*" and a1 == 0:
        return True, (b1 * a2, b1 * b2)
    if node.op == "*" and a2 == 0:
        return True, (a1 * b2, b1 * b2)
    if node.op == "/" and a2 == 0 and b2 != 0:
        return True, (a1 / b2, b1 / b2)
    return True, None


def shared_affine(exprs):
    """(E, forms): one AST node E, and for each of ``exprs`` its form
    (alpha, beta) with the expression equal to alpha + beta*E by its
    structure (beta = 0 for an expression without x), or None where it
    has no such form or is a constant that does not evaluate.  E is None
    when no expression depends on x, and otherwise the first one that
    does with its affine wrappers (negation, and sums, products and
    quotients with a constant) peeled off, so that ``1+2/(x^2+1)`` gives
    E = ``2/(x^2+1)``."""
    node = next((e for e in exprs if has_variable(e)), None)
    while True:
        if isinstance(node, Unary):
            node = node.operand
        elif isinstance(node, BinOp) and node.op in "+-*" and not has_variable(node.left):
            node = node.right
        elif isinstance(node, BinOp) and node.op in "+-*/" and not has_variable(node.right):
            node = node.left
        else:
            break
    forms = [_affine(e, node) for e in exprs]
    return node, tuple([None if f is None else (f[1], f[0]) for f in forms])


_SQUARE = BinOp("^", Variable(), Literal(2 + 0j))


def _antiderivative(node):
    """(F, bases): an AST F with F' = node on every interval where each
    real (a, b) of bases keeps a*x + b positive, or None.  The rules read
    the structure: a x + b (constants included) gives a x^2 / 2 + b x;
    sums, negation, and constant multiples and divisors go term by term;
    k (a x + b)^p with real a != 0, b and p gives
    k (a x + b)^(p+1) / (a (p+1)), or k log(a x + b) / a for p = -1,
    with (a, b) in bases; exp, sin and cos of a x + b with a != 0 give
    exp / a, -cos / a and sin / a; and k / (a x^2 + c) with real
    a, c > 0 gives k atan(sqrt(a/c) x) / sqrt(a c)."""
    x = Variable()
    form = _affine(node)
    if form is not None:
        a, b = form
        return BinOp("+", BinOp("*", Literal(a / 2), BinOp("^", x, Literal(2 + 0j))),
                     BinOp("*", Literal(b), x)), ()
    if isinstance(node, Unary):
        inner = _antiderivative(node.operand)
        return None if inner is None else (Unary("-", inner[0]), inner[1])
    if isinstance(node, Call) and node.func in ("exp", "sin", "cos"):
        form = _affine(node.arg)
        if form is None or form[0] == 0:
            return None
        F = {"exp": node, "sin": Unary("-", Call("cos", node.arg)),
             "cos": Call("sin", node.arg)}[node.func]
        return BinOp("/", F, Literal(form[0])), ()
    if not isinstance(node, BinOp) or node.op == "^":
        return _power(1 + 0j, node, 1)
    if node.op in "+-":
        left, right = _antiderivative(node.left), _antiderivative(node.right)
        if left is None or right is None:
            return None
        return BinOp(node.op, left[0], right[0]), left[1] + right[1]
    k = _affine(node.right)
    if k is not None and k[0] == 0:            # node.left * k, node.left / k
        inner = _antiderivative(node.left)
        return None if inner is None else (BinOp(node.op, inner[0], Literal(k[1])), inner[1])
    k = _affine(node.left)
    if k is None or k[0] != 0:
        return None
    if node.op == "*":
        inner = _antiderivative(node.right)
        return None if inner is None else (BinOp("*", Literal(k[1]), inner[0]), inner[1])
    a, c = _affine(node.right, _SQUARE) or (0j, 0j)
    if a.real > 0 and c.real > 0 and not (a.imag or c.imag):
        scale = Literal(complex(math.sqrt(a.real / c.real)))
        return BinOp("*", Literal(k[1] / math.sqrt(a.real * c.real)),
                     Call("atan", BinOp("*", scale, x))), ()
    return _power(k[1], node.right, -1)


def _power(k, node, sign):
    """The antiderivative of k node^sign with node = (a x + b)^p, or
    a x + b itself (p = 1), for real a != 0, b and p, as
    ``_antiderivative`` gives it, else None."""
    base, p = node, (0j, 1 + 0j)
    if isinstance(node, BinOp) and node.op == "^":
        base, p = node.left, _affine(node.right)
    form = _affine(base)
    if form is None or p is None or p[0] != 0 or form[0] == 0 \
            or any(v.imag for v in (*form, p[1])):
        return None
    a, p = form[0].real, sign * p[1].real
    if p == -1:
        F = BinOp("/", Call("log", base), Literal(complex(a)))
    else:
        F = BinOp("/", BinOp("^", base, Literal(complex(p + 1))), Literal(complex(a * (p + 1))))
    return BinOp("*", Literal(k), F), ((a, form[1].real),)


def _step_line(node):
    """Real (a, b) when node is ``step(a*x + b)`` with a real affine
    argument, else None."""
    if not (isinstance(node, Call) and node.func == "step"):
        return None
    ab = _affine(node.arg)
    if ab is None or ab[0].imag != 0.0 or ab[1].imag != 0.0:
        return None
    return ab[0].real, ab[1].real


def _step_lines(expr):
    """({id(node): (a, b)}, affine): every step of the AST with x whose
    argument is the real line a*x + b before folding, and whether every
    step with x is one.  The one reading of an AST's steps, in one
    bottom-up pass that learns which nodes hold x."""
    lines = {}

    def visit(node):    # True when x occurs in node
        if isinstance(node, BinOp):
            return visit(node.left) | visit(node.right)
        if isinstance(node, Unary):
            return visit(node.operand)
        found = isinstance(node, Call) and visit(node.arg)
        if found and node.func == "step":
            lines[id(node)] = _step_line(node)
        return found or isinstance(node, Variable)

    visit(expr)
    return {k: ab for k, ab in lines.items() if ab}, None not in lines.values()


def step_roots(expr: Expr) -> tuple:
    """Sorted roots -b/a of every ``step(a*x + b)`` in the AST whose
    argument is real and affine with a != 0: the only places where such
    a step jumps."""
    return tuple(sorted({-b / a for a, b in _step_lines(expr)[0].values() if a != 0.0}))


def _step_value(a, b, lo, hi):
    """The value of ``step(a*x + b)`` on the open interval (lo, hi): 0 or
    1 where a*x + b keeps one sign there, 1/2 where it is 0, and None
    where its root lies inside."""
    if a == 0.0:
        return _step(b)
    root = -b / a
    if lo < root < hi:
        return None
    # the sign of a*x + b on (lo, hi) is the sign of a when the root lies
    # at or left of lo, and its opposite when it lies at or right of hi
    return float((a > 0.0) == (root <= lo))


def _defined_everywhere(node, real=False) -> bool:
    """True when the AST is built from x, finite numbers, + - * and steps
    of real such terms only, so that it evaluates without a domain error
    at every real x.  ``real`` also excludes non-real numbers."""
    if isinstance(node, Variable):
        return True
    if isinstance(node, Literal):
        return cmath.isfinite(node.value) and not (real and node.value.imag)
    if isinstance(node, Constant):
        return not (real and node.name == "i")
    if isinstance(node, Call):
        return node.func == "step" and _defined_everywhere(node.arg, True)
    if isinstance(node, BinOp) and node.op not in "+-*":
        return False
    return all(_defined_everywhere(child, real) for child in _children(node))


def _is_zero(node) -> bool:
    return isinstance(node, Literal) and node.value == 0


def _fold(expr, lo, hi, values=None):
    """The one fold walker: the folded AST, itself where nothing changes,
    and its value by ``_eval``'s operations where it has no x and they
    succeed, else None.  ``fold_steps`` for values None; otherwise each
    step takes the value that ``values`` maps its node's id to, unread,
    or stays where it has none."""
    if isinstance(expr, BinOp):
        left, a = _fold(expr.left, lo, hi, values)
        right, b = _fold(expr.right, lo, hi, values)
        if expr.op == "*" and ((_is_zero(left) and _defined_everywhere(right))
                               or (_is_zero(right) and _defined_everywhere(left))):
            return Literal(0j), 0j
        if left is not expr.left or right is not expr.right:
            expr = BinOp(expr.op, left, right)
        op, args = _BINARY[expr.op], (a, b)
    elif isinstance(expr, Unary):
        operand, v = _fold(expr.operand, lo, hi, values)
        expr = expr if operand is expr.operand else Unary(expr.op, operand)
        op, args = operator.neg, (v,)
    elif isinstance(expr, Call):
        value = None if values is None else values.get(id(expr))
        if value is None:
            arg, v = _fold(expr.arg, lo, hi, values)
            expr = expr if arg is expr.arg else Call(expr.func, arg)
            line = _step_line(expr) if values is None and has_variable(expr) else None
            value = None if line is None else _step_value(*line, lo, hi)
        if value is not None:
            return Literal(complex(value)), complex(value)
        op, args = _FUNC_IMPL[expr.func], (v,)
    else:
        return expr, _eval(expr, None)      # None for x itself
    try:     # an error that eval_expr reports leaves no value
        return expr, None if None in args else op(*args)
    except (ExpressionDomainError, ZeroDivisionError, ValueError, OverflowError):
        return expr, None


def fold_steps(expr: Expr, lo: float, hi: float) -> Expr:
    """The AST restricted to the open interval (lo, hi): every
    ``step(a*x + b)`` with a real affine argument that keeps one sign on
    (lo, hi) becomes the literal 0 or 1; any other step stays.  Inner
    steps fold first, so an argument may become affine by folding.  A
    product with a literal 0 factor becomes 0 when the other factor is
    defined at every real x, so no domain error (``0*log(x-5)``) is
    folded away."""
    return _fold(expr, lo, hi)[0]


# --------------------------------------------------------------------------
# pretty printing and compilation
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node):
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _PREC_ADD
        if node.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Unary):
        return _PREC_UNARY
    return _PREC_ATOM


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return repr(int(x))
    return repr(x)


def _fmt_number(v: complex, python: bool) -> str:
    if python:
        return f"({v!r})"
    if v.imag == 0.0:
        s = _fmt_real(v.real)
        return f"({s})" if v.real < 0 else s
    if v.real == 0.0:
        if v.imag == 1.0:
            return "i"
        return f"({_fmt_real(v.imag)}*i)"
    re_s, im_s = _fmt_real(v.real), _fmt_real(abs(v.imag))
    return f"({re_s}+{im_s}*i)" if v.imag >= 0 else f"({re_s}-{im_s}*i)"


def _render(node, python):
    if isinstance(node, Literal):
        return _fmt_number(node.value, python)
    if isinstance(node, Variable):
        return "x"
    if isinstance(node, Constant):
        if python:
            return {"pi": "_pi", "e": "_e", "i": "1j"}[node.name]
        return node.name
    if isinstance(node, Unary):
        inner = _render(node.operand, python)
        if _prec(node.operand) < _PREC_UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        name = f"_{node.func}" if python else node.func
        return f"{name}({_render(node.arg, python)})"
    # binary operator
    mine = _prec(node)
    left = _render(node.left, python)
    right = _render(node.right, python)
    if node.op == "^":
        if _prec(node.left) <= mine:
            left = f"({left})"
        if _prec(node.right) < mine:
            right = f"({right})"
        return f"{left}**{right}" if python else f"{left}^{right}"
    if _prec(node.left) < mine:
        left = f"({left})"
    if _prec(node.right) <= mine:
        right = f"({right})"
    return f"{left}{node.op}{right}"


def to_source(expr: Expr) -> str:
    """Render the AST back to expression text.  Re-parsing the result
    yields an AST that evaluates identically everywhere."""
    return _render(expr, python=False)


_COMPILE_NS = {
    "_sin": cmath.sin,
    "_cos": cmath.cos,
    "_exp": cmath.exp,
    "_log": _checked_log,
    "_atan": cmath.atan,
    "_sqrt": cmath.sqrt,
    "_step": _step,
    "_pi": complex(math.pi),
    "_e": complex(math.e),
    "__builtins__": {},
}


def python_source(expr: Expr) -> str:
    """Python expression string equivalent to the AST (helper for
    compile_expr and for fusing several entries into one lambda)."""
    return _render(expr, python=True)


def compile_expr(expr: Expr):
    """Compile to a fast ``lambda x: complex`` closure.

    The compiled form skips the finiteness check of eval_expr; it is
    meant for integrator hot paths where the expression has already
    been validated on a sample grid.
    """
    return eval(f"lambda x: ({python_source(expr)})", dict(_COMPILE_NS))


def compile_tuple(*exprs: Expr):
    """Compile several expressions into one ``lambda x: (v0, v1, ...)``;
    one Python call per evaluation instead of len(exprs)."""
    body = ",".join(python_source(e) for e in exprs)
    return eval(f"lambda x: ({body},)", dict(_COMPILE_NS))
