import json
import math

import numpy as np
import pytest

from weyl_canon.errors import SchemaError, ValidationError
from weyl_canon.expressions import parse_expr
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


def test_integrability_probe_accepts_bounded_oscillation():
    # bounded entries that oscillate without end near 0 are integrable,
    # although the probe's quadratures reach their interval limit there
    for entry in ("sin(1/x)^2", "x*sin(1/x)"):
        Problem(1.0, 0.0, CoefficientMeasure(d11=entry),
                CoefficientMeasure(d11="1", d22="1"))
    for entry in ("1/x", "sin(1/x)^2/x"):
        with pytest.raises(ValidationError, match="integrab"):
            Problem(1.0, 0.0, CoefficientMeasure(d11=entry),
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


def test_breakpoints_outside_the_interval_are_dropped():
    w = CoefficientMeasure(d11="1", d22="1")
    p = Problem(4.0, 0.0, CoefficientMeasure(breakpoints=[-1.0, 0.0, 4.0, 9.0]), w)
    assert p.discontinuities == ()
    assert [(piece.lo, piece.hi) for piece in p.pieces] == [(0.0, 4.0)]


def test_non_finite_breakpoints_are_refused():
    text = ('{"b": 2, "alpha": 0, "q": {"breakpoints": [NaN, Infinity]}, '
            '"w": {"d11": "1", "d22": "1"}}')
    with pytest.raises(ValidationError, match="finite"):
        parse_problem(text)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="finite"):
            CoefficientMeasure(breakpoints=[1.0, bad])


def test_w_checked_on_constant_and_sampled_pieces_together():
    # w is zero on the constant piece (0, 1) and nonzero only at samples
    # of (1, 2), so the nonzero check has to see both kinds of piece
    p = Problem(2.0, 0.0, CoefficientMeasure(),
                CoefficientMeasure(d11="step(x-1)*(x-1)"))
    assert p.pieces[0].constant and p.pieces[0].values[3:] == (0, 0, 0)
    assert not p.pieces[1].constant
    with pytest.raises(ValidationError, match="identically zero"):
        Problem(2.0, 0.0, CoefficientMeasure(), CoefficientMeasure(d11="x-x"))


def test_integrate_sums_one_quadrature_per_piece():
    p = Problem(3.0, 0.0, CoefficientMeasure(),
                CoefficientMeasure(d11="1+x*step(x-0.3)", d22="1",
                                   atoms=[(2.75, np.eye(2))]))
    calls = []

    def f(x):
        calls.append(x)
        return 1.0 + x * (x > 0.3)

    got = p.integrate(f, 0.1, 2.9, epsabs=1e-13, epsrel=1e-12, limit=50)
    assert got == pytest.approx(0.2 + 2.6 + (2.9 ** 2 - 0.3 ** 2) / 2, rel=1e-13)
    # three pieces meet (0.1, 2.9), one 21-point rule on each
    assert len(calls) == 63
    assert p.integrate(f, 0.5, 0.5, epsabs=1e-13, epsrel=1e-12, limit=50) == 0


def test_spans_clip_the_pieces_to_the_range_left_to_right():
    p = Problem(3.0, 0.0, CoefficientMeasure(),
                CoefficientMeasure(d11="1+x*step(x-0.3)", d22="1",
                                   atoms=[(2.75, np.eye(2))]))
    first, middle, last = p.pieces

    def spans(lo, hi):
        return list(p.spans(lo, hi))

    # clipped at both ends, in order
    assert spans(0.1, 2.9) == [(first, 0.1, 0.3), (middle, 0.3, 2.75),
                               (last, 2.75, 2.9)]
    assert spans(0.0, 3.0) == [(q, q.lo, q.hi) for q in p.pieces]
    # inside one piece, and ending on a discontinuity
    assert spans(1.0, 2.0) == [(middle, 1.0, 2.0)]
    assert spans(0.3, 2.75) == [(middle, 0.3, 2.75)]
    # an empty or reversed range meets no piece
    for lo, hi in ((0.5, 0.5), (0.3, 0.3), (0.0, 0.0), (2.0, 1.0)):
        assert spans(lo, hi) == []


def test_spans_reach_an_infinite_endpoint():
    p = Problem(math.inf, 0.0, CoefficientMeasure(),
                CoefficientMeasure(d11="1+step(x-2)", d22="1"))
    low, high = p.pieces
    assert high.hi == math.inf
    assert list(p.spans(1.0, math.inf)) == [(low, 1.0, 2.0), (high, 2.0, math.inf)]
    assert list(p.spans(5.0, 7.0)) == [(high, 5.0, 7.0)]


def test_integrate_runs_quadrature_only_where_the_piece_integral_is_unknown():
    p = Problem(3.0, 0.0, CoefficientMeasure(),
                CoefficientMeasure(d11="1+x*step(x-0.3)", d22="1",
                                   atoms=[(2.75, np.eye(2))]))
    calls, asked = [], []

    def f(x):
        calls.append(x)
        return 1.0 + x * (x > 0.3)

    def known(piece, lo, hi):
        asked.append((lo, hi))
        d11 = piece.values[3]
        return None if d11 is None else d11.real * (hi - lo)

    got = p.integrate(f, 0.1, 2.9, epsabs=1e-13, epsrel=1e-12, limit=50,
                      piece_integral=known)
    assert got == pytest.approx(0.2 + 2.6 + (2.9 ** 2 - 0.3 ** 2) / 2, rel=1e-13)
    assert asked == [(0.1, 0.3), (0.3, 2.75), (2.75, 2.9)]
    # only the x-dependent pieces (0.3, 2.75) and (2.75, 2.9) are sampled
    assert len(calls) == 42 and min(calls) > 0.3


def test_validation_probes_stay_inside_the_interval_next_to_tiny_steps():
    # the probe left of a step below 1e-6 used to be a negative x, where
    # validation evaluated log(x) on the last piece
    for root in ("1e-7", "1e-5"):
        p = Problem(2.0, 0.0, CoefficientMeasure(d11="log(x)"),
                    CoefficientMeasure(d11=f"1+x*step(x-{root})", d22="1"))
        assert p.discontinuities == (float(root),)


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


def test_zero_products_fold_into_constant_pieces():
    p = Problem(2.0, 0.0, CoefficientMeasure(),
                CoefficientMeasure(d11="1+x*step(x-1)", d22="1"))
    assert p.pieces[0].values[3:] == (1, 0, 1) and p.pieces[0].constant
    assert not p.pieces[1].constant
    # indefinite only beyond x = 50, behind a factor that is 1 there
    with pytest.raises(ValidationError, match=r"w density on \(60, inf\)"):
        Problem(math.inf, 0.0, CoefficientMeasure(),
                CoefficientMeasure(d11="1-2*step(x-60)*(1+0*x)", d22="1"))


def _commutator(x, y):
    x, y = (np.reshape(m, (2, 2)) for m in (x, y))
    return x @ y - y @ x


def test_commuting_system_from_the_shared_affine_node():
    # lesch_malamud(a=1): A(x) = i lam I - lam (1 + 1/(x^2+1)) J
    p = Problem(math.inf, 0.0, CoefficientMeasure(),
                CoefficientMeasure("1+1/(x^2+1)", "-i", "1+1/(x^2+1)"))
    piece, = p.pieces
    assert piece.node == parse_expr("1/(x^2+1)")
    assert piece.forms == ((0, 0), (0, 0), (0, 0), (1, 1), (-1j, 0), (1, 1))
    assert piece.values == (0, 0, 0, None, -1j, None)
    lam = 0.5 - 1j
    a0, ar, ai = p.commuting_system(lam, piece)
    assert a0 == (1j * lam, lam, -lam, 1j * lam)
    assert ar == (0, lam, -lam, 0) and ai == (0, 0, 0, 0)
    for x in (0.0, 0.7, 3.0):
        e = 1 / (x * x + 1)
        assert np.allclose(p.system_matrix(lam)(x),
                           np.add(a0, np.multiply(e, ar)), rtol=1e-15)
    assert not np.any(_commutator(a0, ar))


def test_commuting_system_refuses_what_does_not_commute():
    # affine in E = x, but [A0, AR] = 2 lam [[1, 0], [0, -1]] at lam != 0
    p = Problem(2.0, 0.0, CoefficientMeasure(d11="1000+x", d22="-1000-x"),
                CoefficientMeasure(d11="1", d22="1"))
    piece, = p.pieces
    assert piece.node == parse_expr("x")
    assert piece.forms == ((1000, 1), (0, 0), (-1000, -1), (1, 0), (0, 0), (1, 0))
    assert p.commuting_system(1j, piece) is None
    assert p.commuting_system(0.0, piece) is not None
    # x^(-1/2) in q12 against the constant w: J q is x^(-1/2) diag(-1, 1)
    p = Problem(4.0, 0.0, CoefficientMeasure(d12="x^(-1/2)"),
                CoefficientMeasure(d11="1", d22="1"))
    assert p.commuting_system(1j, p.pieces[0]) is None
    # equal values from different ASTs, and two different nodes: the
    # entry that does not match has no form, and w then enters A at lam != 0
    for w, node in ((CoefficientMeasure("1+1/(x^2+1)", "-i", "1+1/(1+x^2)"),
                     "1/(x^2+1)"),
                    (CoefficientMeasure("1+x", "0", "1+x^2"), "x")):
        p = Problem(math.inf, 0.0, CoefficientMeasure(), w)
        piece, = p.pieces
        assert piece.node == parse_expr(node)
        assert piece.forms[3] == (1, 1) and piece.forms[5] is None
        assert p.commuting_system(1j, piece) is None
        assert p.commuting_system(0.0, piece) == ((0, 0, 0, 0),) * 3
    # constant pieces have no node, and every form has beta = 0
    for piece in parse_problem(json.dumps(MINIMAL)).pieces:
        assert piece.node is None and piece.f is None
        assert piece.forms == tuple((v, 0) for v in piece.values)


def test_w_mass_closed_form_at_undeclared_step():
    # |W|_F = sqrt(2) on (0, 0.3) and sqrt((1+x)^2 + 1) beyond, where
    # step(x-0.3) jumps without a declared breakpoint; one w atom at 2.75
    p = Problem(3.0, 0.0, CoefficientMeasure(),
                CoefficientMeasure(d11="1+x*step(x-0.3)", d22="1",
                                   atoms=[(2.75, np.diag([0.6, 0.8]))]))
    assert p.w.breakpoints == () and p.discontinuities == (0.3, 2.75)

    def antiderivative(u):   # of sqrt(u^2 + 1)
        return 0.5 * (u * math.sqrt(u * u + 1.0) + math.asinh(u))

    for c in (0.2, 0.3, 0.7, 2.5, 2.9):
        want = math.sqrt(2.0) * min(c, 0.3) + (1.0 if c > 2.75 else 0.0)
        if c > 0.3:
            want += antiderivative(1.0 + c) - antiderivative(1.3)
        assert p.w_mass(c) == pytest.approx(want, rel=1e-12, abs=0.0), c


def test_problem_repr_and_json():
    p = parse_problem(MINIMAL)
    text = p.to_json()
    assert json.loads(text)["b"] == 1
    assert "Problem" in repr(p)


def test_atom_table_fills_the_missing_side_with_a_read_only_zero():
    dq_only = [[0.5, 0.1j], [-0.1j, 0.2]]
    shared_q = [[1.0, 0.0], [0.0, -1.0]]
    shared_w = [[2.0, 0.5], [0.5, 1.0]]
    dw_only = [[0.3, 0.0], [0.0, 0.0]]
    p = Problem(5.0, 0.0,
                CoefficientMeasure(atoms=[(2.0, shared_q), (1.0, dq_only)]),
                CoefficientMeasure(d11="1", d22="1",
                                   atoms=[(3.0, dw_only), (2.0, shared_w)]))
    assert list(p.atom_table) == [1.0, 2.0, 3.0]
    assert p.atom_positions == (1.0, 2.0, 3.0)
    zero = np.zeros((2, 2))
    want = {1.0: (dq_only, zero), 2.0: (shared_q, shared_w), 3.0: (zero, dw_only)}
    for x, (dq, dw) in p.atom_table.items():
        assert np.array_equal(dq, want[x][0]) and np.array_equal(dw, want[x][1])
        assert dq is p.delta_q(x) and dw is p.delta_w(x)
        for m in (dq, dw):
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 7.0
    for x in (0.5, 2.5):
        assert not np.any(p.delta_q(x)) and not np.any(p.delta_w(x))
        assert not p.delta_q(x).flags.writeable


MALFORMED_FIELDS = {
    "atoms not a list": {"atoms": 5},
    "breakpoint not a number": {"breakpoints": [[1]]},
    "breakpoint text": {"breakpoints": ["abc"]},
    "atom position text": {"atoms": [{"x": "abc", "m": [[1, 0], [0, 0], [0, 0], [0, 0]]}]},
}


@pytest.mark.parametrize("fields", MALFORMED_FIELDS.values(), ids=MALFORMED_FIELDS)
def test_malformed_atom_and_breakpoint_fields_are_schema_errors(fields):
    doc = {"b": 2, "alpha": 0, "q": fields, "w": {"d11": "1", "d22": "1"}}
    with pytest.raises(SchemaError, match=r"q\.(atoms|breakpoints)"):
        parse_problem(doc)


@pytest.mark.parametrize("side, entry", [("q", [math.nan, 0]), ("w", [math.inf, 0])])
def test_non_finite_atoms_are_refused(side, entry):
    doc = {"b": 2, "alpha": 0, "q": {}, "w": {"d11": "1", "d22": "1"}}
    doc[side] = dict(doc[side], atoms=[{"x": 1, "m": [entry, [0, 0], [0, 0], [1, 0]]}])
    with pytest.raises(ValidationError, match=rf"{side}\.atoms\[0\].*finite"):
        parse_problem(json.dumps(doc))
    with pytest.raises(ValidationError, match="finite"):
        CoefficientMeasure(atoms=[(math.nan, np.eye(2))])
