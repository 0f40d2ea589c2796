"""The piece table against its reference: every piece of Problem.pieces
equals shared_affine of the entries folded by fold_steps on that piece,
and the table is built once per sign pattern of the entries' steps."""

import importlib.util
import json
from pathlib import Path

import pytest

import weyl_canon.measures as measures
from weyl_canon.expressions import fold_steps, shared_affine
from weyl_canon.measures import CoefficientMeasure, Problem, parse_problem

from conftest import count_calls

_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"


def _bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", _INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_reference_table(problem):
    entries = (problem.q.d11, problem.q.d12, problem.q.d22,
               problem.w.d11, problem.w.d12, problem.w.d22)
    cuts = list(problem.discontinuities)
    assert [(p.lo, p.hi) for p in problem.pieces] == list(
        zip([0.0] + cuts, cuts + [problem.b]))
    for piece in problem.pieces:
        node, forms = shared_affine([fold_steps(e, piece.lo, piece.hi) for e in entries])
        values = tuple(None if f is None or f[1] else f[0] for f in forms)
        assert (piece.values, piece.forms, piece.node) == (values, forms, node), piece


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_piece_table_of_the_benchmark_documents(seed):
    for op in _bench_inputs().piecewise_operations(seed):
        assert_reference_table(parse_problem(op["text"]))


@pytest.mark.parametrize("b, w12", [(6.0, "i*step(x-7)"), (float("inf"), "i*step(x+1)")])
def test_piece_table_of_steps_that_fold_per_piece(b, w12):
    q = CoefficientMeasure(
        d11="step(x^2-4)+x*step(x-1)",           # not affine before folding
        d12="step(step(x-1)-0.5)+2*step(3-x)",   # a nested step
        d22="step(0*x)-step(x-5)*(1+0*x)+cos(2*step(x-1))",   # flat, zero product
        breakpoints=[2.0])
    w = CoefficientMeasure(
        d11="1+step(x-2)*(0*log(x-5))+0*log(x-5)*step(4-x)",
        d12=w12,                                 # its root lies outside (0, b)
        d22="2+sin(x)*step(x-4)",
        atoms=[(2.5, [[1, 0], [0, 1]])])
    problem = Problem(b, 0.0, q, w, validate=False)
    assert problem.discontinuities == (1.0, 2.0, 2.5, 3.0, 4.0, 5.0)
    assert_reference_table(problem)


def test_piece_table_is_built_once_per_sign_pattern(monkeypatch):
    # two step roots and three atoms: 6 pieces, 3 sign patterns
    doc = {"b": 8, "alpha": 0.5,
           "q": {"d11": "1+2*step(x-1)-step(x-3)", "d12": "0.5*i*step(x-3)",
                 "atoms": [{"x": 0.5, "m": [[1, 0], [0, 0], [0, 0], [0, 0]]},
                           {"x": 4.0, "m": [[0, 0], [0, 1], [0, -1], [0, 0]]}]},
           "w": {"d11": "2-step(x-1)", "d22": "1",
                 "atoms": [{"x": 2.0, "m": [[1, 0], [0, 0], [0, 0], [1, 0]]}]}}
    forms = count_calls(monkeypatch, measures, "shared_affine")
    compiled = [count_calls(monkeypatch, measures, name)
                for name in ("compile_tuple", "compile_expr")]
    problem = parse_problem(json.dumps(doc))
    assert len(problem.pieces) == 6
    assert len({p.values for p in problem.pieces}) == 3
    assert len(forms) == 3
    # a piecewise-constant problem compiles nothing while it is parsed
    assert compiled == [[], []]
    assert_reference_table(problem)
