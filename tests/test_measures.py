import json
import math

import numpy as np
import pytest

from weyl_canon.errors import SchemaError, ValidationError
from weyl_canon.measures import (
    CoefficientMeasure,
    Problem,
    SLProblem,
    parse_problem,
    sl_to_canonical,
)

from conftest import random_piecewise_problem, rel_err

MINIMAL = {"b": 1, "alpha": 0, "q": {}, "w": {"d11": "1", "d22": "1"}}


def test_minimal_document():
    p = parse_problem(json.dumps(MINIMAL))
    assert p.b == 1.0
    assert p.alpha == 0.0
    assert p.atom_positions == ()
    assert np.allclose(p.w.density(0.5), np.eye(2))
    assert np.allclose(p.q.density(0.5), np.zeros((2, 2)))


def test_b_inf_and_defaults():
    p = parse_problem({"b": "inf", "alpha": 0.3,
                       "w": {"d11": "1", "d22": "1"}})
    assert math.isinf(p.b)
    assert np.allclose(p.q.density(1.0), 0.0)


def test_psd_violation_names_atom():
    doc = dict(MINIMAL)
    doc["w"] = {"d11": "1", "d22": "1",
                "atoms": [{"x": 0.5, "m": [[-1, 0], [0, 0], [0, 0], [0, 0]]}]}
    with pytest.raises(ValidationError, match=r"w\.atoms\[0\]"):
        parse_problem(doc)


def test_non_hermitian_atom_rejected():
    doc = dict(MINIMAL)
    doc["q"] = {"atoms": [{"x": 0.5,
                           "m": [[0, 0], [0, 1], [0, 1], [0, 0]]}]}
    with pytest.raises(ValidationError, match=r"q\.atoms\[0\]"):
        parse_problem(doc)


def test_atom_outside_interval_rejected():
    doc = dict(MINIMAL)
    doc["w"] = {"d11": "1", "d22": "1",
                "atoms": [{"x": 1.5, "m": [[1, 0], [0, 0], [0, 0], [0, 0]]}]}
    with pytest.raises(ValidationError, match="outside"):
        parse_problem(doc)


def test_bad_point_document_matches_catalog():
    doc = {
        "b": "inf", "alpha": 0,
        "q": {"atoms": [{"x": 1, "m": [[0, 0], [0, 2], [0, -2], [2, 0]]}]},
        "w": {"atoms": [{"x": 1, "m": [[2, 0], [0, 0], [0, 0], [0, 0]]}]},
    }
    p = parse_problem(doc)
    assert np.allclose(p.delta_q(1.0), np.array([[0, 2j], [-2j, 2]]))
    assert np.allclose(p.delta_w(1.0), np.array([[2, 0], [0, 0]]))


def test_schema_errors():
    with pytest.raises(SchemaError):
        parse_problem("not json")
    with pytest.raises(SchemaError):
        parse_problem({"alpha": 0})
    with pytest.raises(SchemaError):
        parse_problem({"b": 1, "alpha": 0, "extra": 1})
    with pytest.raises(SchemaError):
        parse_problem({"b": 1, "alpha": 0,
                       "w": {"atoms": [{"x": 0.5, "m": [[1, 0]]}]}})


def test_w_identically_zero_rejected():
    with pytest.raises(ValidationError, match="identically zero"):
        parse_problem({"b": 1, "alpha": 0, "q": {}, "w": {}})


def test_non_psd_density_rejected():
    with pytest.raises(ValidationError, match="w density"):
        parse_problem({"b": 1, "alpha": 0, "q": {},
                       "w": {"d11": "1", "d22": "x-0.5"}})


def test_non_real_diagonal_rejected():
    with pytest.raises(ValidationError, match="not real-valued"):
        parse_problem({"b": 1, "alpha": 0, "q": {"d11": "i*x"},
                       "w": {"d11": "1", "d22": "1"}})


def test_integrability_check_near_zero():
    # 1/sqrt(x) is integrable near 0, 1/x is not
    Problem(1.0, 0.0, CoefficientMeasure(d11="1/sqrt(x)"),
            CoefficientMeasure(d11="1", d22="1"))
    with pytest.raises(ValidationError, match="integrab"):
        Problem(1.0, 0.0, CoefficientMeasure(d11="1/x"),
                CoefficientMeasure(d11="1", d22="1"))


def test_step_roots_split_pieces_without_declared_breakpoints():
    p = Problem(2.0, 0.0, CoefficientMeasure(d12="0.5*i*step(1.5-x)"),
                CoefficientMeasure(d11="1+step(x-0.8)", d22="1"))
    assert p.discontinuities == (0.8, 1.5)
    assert [(piece.lo, piece.hi) for piece in p.pieces] == \
        [(0.0, 0.8), (0.8, 1.5), (1.5, 2.0)]
    assert all(piece.constant for piece in p.pieces)
    assert p.pieces[1].values == (0, 0.5j, 0, 2, 0, 1)
    assert p.pieces[2].values[1] == 0
    # the found roots are not written back as declared breakpoints
    assert "breakpoints" not in p.serialize()["w"]
    x_dependent = Problem(2.0, 0.0, CoefficientMeasure(d11="x"),
                          CoefficientMeasure(d11="1+step(x-1)", d22="1"))
    assert [piece.values[3] for piece in x_dependent.pieces] == [1, 2]
    assert not any(piece.constant for piece in x_dependent.pieces)


def test_constant_pieces_validated_over_the_whole_interval():
    # indefinite and non-real only beyond x = 50 on an infinite interval
    with pytest.raises(ValidationError, match=r"w density on \(60, inf\)"):
        Problem(math.inf, 0.0, CoefficientMeasure(),
                CoefficientMeasure(d11="1-2*step(x-60)", d22="1"))
    with pytest.raises(ValidationError, match="q.d22 is not real-valued"):
        Problem(math.inf, 0.0, CoefficientMeasure(d22="i*step(x-70)"),
                CoefficientMeasure(d11="1", d22="1"))
    # constant on (0, 1) but undefined there: log(-1) of a real argument
    with pytest.raises(ValidationError, match=r"q.d11 on \(0, 1\)"):
        Problem(2.0, 0.0, CoefficientMeasure(d11="log(step(x-1)-1)"),
                CoefficientMeasure(d11="1", d22="1"), validate=False)


def test_atom_positions_strictly_increasing():
    with pytest.raises(ValidationError, match="strictly increasing"):
        CoefficientMeasure(atoms=[(0.5, np.eye(2)), (0.5, np.eye(2))])


def test_serialize_parse_roundtrip(rng):
    for k in range(6):
        p = random_piecewise_problem(rng)
        q = parse_problem(json.dumps(p.serialize()))
        assert q.b == p.b and q.alpha == p.alpha
        xs = rng.uniform(0.01, min(p.b, 6.0) * 0.99, size=50)
        for x in xs:
            assert rel_err(q.q.density(x), p.q.density(x)) < 1e-14 or \
                np.allclose(q.q.density(x), p.q.density(x), atol=1e-14)
            assert np.allclose(q.w.density(x), p.w.density(x), atol=1e-14)
        assert q.atom_positions == p.atom_positions
        for pos in q.atom_positions:
            assert np.array_equal(q.delta_q(pos), p.delta_q(pos))
            assert np.array_equal(q.delta_w(pos), p.delta_w(pos))


def test_sl_embedding_basic():
    sl = SLProblem(b=2.0, p="1", s="0", v="0", r="1")
    p = sl_to_canonical(sl)
    assert np.allclose(p.q.density(0.7), np.array([[0, 0], [0, -1.0]]))
    assert np.allclose(p.w.density(0.7), np.array([[1.0, 0], [0, 0]]))


def test_sl_embedding_v_atom():
    sl = SLProblem(b=3.0, p="1", s="0", v="0", r="1",
                   v_atoms=[(1.0, 2.5)])
    p = sl_to_canonical(sl)
    assert np.allclose(p.delta_q(1.0), np.array([[2.5, 0], [0, 0]]))
    assert not np.any(p.delta_w(1.0))


def test_sl_r_zero_rejected():
    sl = SLProblem(b=2.0, p="1", s="0", v="0", r="0")
    with pytest.raises(ValidationError, match="identically zero"):
        sl_to_canonical(sl)


def test_sl_vanishing_p_rejected():
    with pytest.raises(ValidationError):
        SLProblem(b=2.0, p="x^2", s="0", v="0", r="1")  # 1/p ~ x^-2 near 0


def test_sl_output_always_validates(rng):
    for _ in range(5):
        sl = SLProblem(
            b=4.0,
            p=f"{rng.uniform(0.5, 2.0)!r}",
            s=f"{rng.uniform(-1, 1)!r}",
            v=f"{rng.uniform(-1, 1)!r}+x/10",
            r=f"{rng.uniform(0.2, 2.0)!r}",
            v_atoms=[(1.25, float(rng.uniform(-2, 2)))],
            r_atoms=[(2.25, float(rng.uniform(0, 2)))],
        )
        p = sl_to_canonical(sl)   # must not raise
        assert p.b == 4.0


def test_problem_repr_and_json():
    p = parse_problem(MINIMAL)
    text = p.to_json()
    assert json.loads(text)["b"] == 1
    assert "Problem" in repr(p)
