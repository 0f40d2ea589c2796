import cmath
import math

import numpy as np
import pytest

from weyl_canon.errors import (
    ExpressionDomainError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
)
from weyl_canon.expressions import (
    BinOp,
    Call,
    Literal,
    Unary,
    Variable,
    compile_expr,
    eval_expr,
    fold_steps,
    has_variable,
    parse_expr,
    step_roots,
    to_source,
)


def ev(text, x=0.0):
    return eval_expr(parse_expr(text), x)


def test_constant_and_arithmetic_values():
    assert ev("sin(pi/2)") == pytest.approx(1.0)
    assert ev("1+1/(x^2+1)", 1.0) == pytest.approx(1.5)
    assert ev("exp(2*i*x)", 0.0) == pytest.approx(1.0)
    assert ev("x", 2.0) == pytest.approx(2.0)
    assert ev("atan(x)", 0.0) == pytest.approx(0.0)
    assert ev("1+1/(x^2+1)", 0.0) == pytest.approx(2.0)


def test_precedence_and_power():
    assert ev("2+3*4") == pytest.approx(14.0)
    assert ev("2^3^2") == pytest.approx(512.0)   # right associative
    assert ev("-2^2") == pytest.approx(-4.0)
    assert ev("(2+3)*4") == pytest.approx(20.0)
    assert ev("2^-1") == pytest.approx(0.5)


def test_complex_literals_from_i():
    assert ev("i*i") == pytest.approx(-1.0)
    assert ev("(1+2*i)*(1-2*i)") == pytest.approx(5.0)
    assert ev("exp(i*pi)") == pytest.approx(-1.0)


def test_scientific_notation():
    assert ev("1.5e-3") == pytest.approx(1.5e-3)
    assert ev("2E2") == pytest.approx(200.0)


def test_step_semantics():
    e = parse_expr("step(x-1)")
    assert eval_expr(e, 0.5) == 0.0
    assert eval_expr(e, 1.5) == 1.0
    assert eval_expr(e, 1.0) == 0.5


def test_syntax_error_carries_position():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expr("1+*2")
    assert exc.value.position == 3
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("sin(x")
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("")
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("1 2")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_expr("foo(x)")
    with pytest.raises(UnknownIdentifierError):
        parse_expr("x+y")


def test_domain_errors():
    with pytest.raises(ExpressionDomainError):
        ev("log(x)", 0.0)
    with pytest.raises(ExpressionDomainError):
        ev("log(x-2)", 1.0)     # log of negative real
    with pytest.raises(ExpressionDomainError):
        ev("1/x", 0.0)
    with pytest.raises(ExpressionDomainError):
        ev("step(i)")
    # complex log away from the cut is fine
    assert ev("log(i)") == pytest.approx(cmath.log(1j))


def _random_ast(rng, depth=0):
    roll = rng.random()
    if depth > 4 or roll < 0.25:
        choices = [
            Literal(complex(round(float(rng.uniform(-4, 4)), 3))),
            Literal(complex(0.0, round(float(rng.uniform(-2, 2)), 3))),
            Variable(),
        ]
        return choices[int(rng.integers(0, len(choices)))]
    if roll < 0.45:
        return Call(("sin", "cos", "exp", "atan")[int(rng.integers(0, 4))],
                    _random_ast(rng, depth + 1))
    if roll < 0.55:
        return Unary("-", _random_ast(rng, depth + 1))
    op = "+-*/"[int(rng.integers(0, 4))]
    return BinOp(op, _random_ast(rng, depth + 1), _random_ast(rng, depth + 1))


def test_print_parse_roundtrip_evaluates_identically(rng):
    xs = np.linspace(-3.0, 3.0, 11)
    for _ in range(120):
        ast = _random_ast(rng)
        text = to_source(ast)
        reparsed = parse_expr(text)
        text2 = to_source(reparsed)
        assert text2 == to_source(parse_expr(text2))
        for x in xs:
            try:
                want = eval_expr(ast, x)
            except ExpressionDomainError:
                continue
            got = eval_expr(reparsed, x)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_compiled_matches_eval(rng):
    for text in ("1+1/(x^2+1)", "exp(2*i*x)-sin(x)/3", "step(x-1.25)*2+x",
                 "sqrt(x^2+1)", "atan(x)*cos(0.5*x)"):
        expr = parse_expr(text)
        fn = compile_expr(expr)
        for x in np.linspace(0.01, 4.0, 23):
            assert complex(fn(x)) == pytest.approx(eval_expr(expr, x), rel=1e-14)


def test_power_of_complex_base():
    assert ev("(1+i)^2") == pytest.approx(2j)
    assert ev("e^x", 1.0) == pytest.approx(math.e)


# -- piece structure ----------------------------------------------------------

def test_step_roots_of_real_affine_arguments():
    assert step_roots(parse_expr("2+3*step(x-1)-step(0.5*(x-3))")) == (1.0, 3.0)
    assert step_roots(parse_expr("step(2-4*x)+x*step(x/4+1)")) == (-4.0, 0.5)
    # not affine, not real, without x or with slope 0: no root
    text = "step(x^2-1)+step(i*x)+step(2)+step(sin(x))+step(0*x+1)"
    assert step_roots(parse_expr(text)) == ()


def test_fold_steps_constant_between_roots():
    expr = parse_expr("2+3*step(x-1)-step(0.5*(x-3))")
    for (lo, hi), want in (((0.0, 1.0), 2.0), ((1.0, 3.0), 5.0),
                           ((3.0, math.inf), 4.0)):
        folded = fold_steps(expr, lo, hi)
        assert not has_variable(folded)
        assert eval_expr(folded, 0.0) == want
    # a root inside the interval keeps that step
    assert has_variable(fold_steps(expr, 0.5, 2.0))


def test_fold_steps_keeps_other_steps_and_folds_inner_first():
    assert has_variable(fold_steps(parse_expr("step(x^2-4)"), 0.0, 1.0))
    assert has_variable(fold_steps(parse_expr("x*step(x-2)"), 0.0, 1.0))
    nested = fold_steps(parse_expr("step(step(x-1)-0.5)"), 0.0, 1.0)
    assert not has_variable(nested) and eval_expr(nested, 0.0) == 0.0
    zero_slope = fold_steps(parse_expr("step(0*x)"), 0.0, 1.0)
    assert eval_expr(zero_slope, 0.0) == 0.5


def test_fold_steps_agrees_with_eval_inside_the_piece(rng):
    expr = parse_expr("x*step(x-1.5)+exp(i*x)*step(2.5-x)-step(3*x-6)*step(x-4)")
    cuts = (0.0,) + step_roots(expr) + (6.0,)
    assert step_roots(expr) == (1.5, 2.0, 2.5, 4.0)
    for lo, hi in zip(cuts, cuts[1:]):
        folded = fold_steps(expr, lo, hi)
        for x in rng.uniform(lo, hi, size=5):
            assert eval_expr(folded, x) == eval_expr(expr, x)
