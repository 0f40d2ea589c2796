import cmath
import math

import numpy as np
import pytest

import weyl_canon.oracle as oracle_module
import weyl_canon.propagation as propagation_module
from weyl_canon.catalog import builtin_example, catalog_names
from weyl_canon.classify import deficiency_indices, trace_disks
from weyl_canon.errors import (
    BadPointError,
    IntegrationFailureError,
    SingularBackwardJumpError,
    SingularForwardJumpError,
)
from weyl_canon.measures import CoefficientMeasure, Problem
from weyl_canon.oracle import OracleConfig, compare_propagators, fixed_step_propagate
from weyl_canon.propagation import (
    FundamentalMatrix,
    J,
    JumpDichotomy,
    bad_points,
    eta_solution,
    evolve_ac,
    fundamental_matrix,
    jump_matrices,
    kernel_gram,
    real_jump_dichotomy,
    rotation,
    transfer_across_atom,
)
from weyl_canon.quadrature import integrate
from weyl_canon.weyl import m_alt, solution_norm_sq

from conftest import (
    count_calls,
    pick_lambda_outside_bad_set,
    random_hermitian,
    random_piecewise_problem,
    random_psd,
    rel_err,
)

DQ_MINUS = np.array([[0, 2j], [-2j, 2]], dtype=complex)
DQ_PLUS = np.array([[0, -2j], [2j, 2]], dtype=complex)
DW_ATOM = np.array([[2, 0], [0, 0]], dtype=complex)
ZERO = np.zeros((2, 2), dtype=complex)


# -- jump matrices ----------------------------------------------------------

def test_zero_jump_is_symplectic_unit():
    jp = jump_matrices(ZERO, ZERO, 0.7 + 0.3j)
    assert np.array_equal(jp.b_minus, J)
    assert np.array_equal(jp.b_plus, J)
    assert jp.det_minus == 1.0
    assert jp.det_plus == 1.0


def test_bad_point_minus_determinants():
    jp = jump_matrices(DQ_MINUS, DW_ATOM, 2j)
    assert jp.det_minus == 0.0
    assert jp.det_plus == -4j
    assert jp.minus_singular and not jp.plus_singular


def test_singular_tol_is_formed_once_per_pair(monkeypatch):
    dq, dw, lam = DQ_MINUS, DW_ATOM, 0.5 + 1j
    scale = 1.0 + np.linalg.norm(dq) + abs(lam) * np.linalg.norm(dw)
    jp = jump_matrices(dq, dw, lam)
    norms = count_calls(monkeypatch, np.linalg, "norm")
    for _ in range(3):
        assert not (jp.minus_singular or jp.plus_singular)
        jp.transfer_matrix()
        assert jp.singular_tol == 1e-12 * scale * scale
    assert len(norms) <= 2


def test_both_singular_real_traceless_jump():
    dq = np.array([[2, 0], [0, -2]], dtype=complex)
    jp = jump_matrices(dq, ZERO, 0.3 + 1.7j)
    assert jp.det_minus == 0.0 and jp.det_plus == 0.0


def test_reconstruction_and_conjugation_relations(rng):
    for _ in range(50):
        dq = random_hermitian(rng, 2.0)
        dw = random_psd(rng, 2.0)
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        jp = jump_matrices(dq, dw, lam)
        # B+ - B- reconstructs dq - lam dw exactly
        assert np.max(np.abs((jp.b_plus - jp.b_minus) - (dq - lam * dw))) <= 1e-14
        # B+-(lam) = -B-+(conj lam)* at the same atom
        jc = jump_matrices(dq, dw, np.conj(lam))
        assert np.allclose(jp.b_plus, -jc.b_minus.conj().T, atol=1e-15)
        assert np.allclose(jp.b_minus, -jc.b_plus.conj().T, atol=1e-15)
        # det gap identity
        gap = 2j * (dq[0, 1].imag - lam * dw[0, 1].imag)
        assert abs((jp.det_minus - jp.det_plus) - gap) < 1e-13


# -- transfers --------------------------------------------------------------

def test_transfer_matrix_shear():
    jp = jump_matrices(np.array([[0, 0], [0, 2]], dtype=complex), ZERO, 0.0)
    assert np.allclose(jp.transfer_matrix(), np.array([[1, -2], [0, 1]]))


def test_zero_atom_identity_transfer():
    jp = jump_matrices(ZERO, ZERO, 1.3j)
    u_plus, u_bal = transfer_across_atom(np.array([2.0, 1.0j]), jp)
    assert np.allclose(u_plus, [2.0, 1.0j])
    assert np.allclose(u_bal, [2.0, 1.0j])


def test_rank_one_transfer_at_bad_lambda():
    jp = jump_matrices(DQ_MINUS, DW_ATOM, 2j)
    m = jp.transfer_matrix()
    assert np.linalg.matrix_rank(m, tol=1e-10) == 1


def test_transfer_rank_matches_determinants(rng):
    for _ in range(40):
        dq = random_hermitian(rng, 1.5)
        dw = random_psd(rng, 1.5)
        lam = complex(rng.uniform(-1, 1), rng.uniform(0.2, 1.5))
        jp = jump_matrices(dq, dw, lam)
        if jp.plus_singular:
            continue
        m = jp.transfer_matrix()
        want = 1 if jp.minus_singular else 2
        assert np.linalg.matrix_rank(m, tol=1e-9) == want


def test_singular_forward_jump_raises():
    jp = jump_matrices(DQ_PLUS, DW_ATOM, 2j)  # B+ singular
    with pytest.raises(SingularForwardJumpError):
        jp.transfer_matrix()


# -- bad point scans --------------------------------------------------------

def test_bad_points_no_atoms():
    p, _ = builtin_example("constant_w")
    report = bad_points(p, 2j)
    assert report.records == ()
    assert not report.in_lambda_set


def test_bad_points_flags_atom():
    p, _ = builtin_example("bad_point_minus")
    report = bad_points(p, 2j)
    assert report.positions == (1.0,)
    assert report.records[0].minus_singular
    assert not report.records[0].plus_singular
    clean = bad_points(p, 1j)
    assert not clean.in_lambda_set
    jp = jump_matrices(DQ_MINUS, DW_ATOM, 1j)
    assert jp.det_minus == pytest.approx(1j)
    assert jp.det_plus == pytest.approx(-3j)


# -- real-jump dichotomy ----------------------------------------------------

def test_dichotomy_examples():
    dq = np.array([[2, 0], [0, -2]], dtype=complex)
    assert real_jump_dichotomy(dq, ZERO, 1j) is JumpDichotomy.BOTH_SINGULAR
    assert real_jump_dichotomy(DQ_MINUS, DW_ATOM, 2j) is \
        JumpDichotomy.EXACTLY_ONE_SINGULAR
    assert real_jump_dichotomy(ZERO, ZERO, 1j) is JumpDichotomy.BOTH_INVERTIBLE


def test_real_jumps_never_exactly_one_singular(rng):
    for _ in range(400):
        dq = random_hermitian(rng, 2.0).real.astype(complex)
        dw = random_psd(rng, 2.0).real.astype(complex)
        dw = 0.5 * (dw + dw.conj().T)
        lam = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.1, 2))
        verdict = real_jump_dichotomy(dq, dw, lam)
        assert verdict is not JumpDichotomy.EXACTLY_ONE_SINGULAR


# -- AC evolution -----------------------------------------------------------

def test_evolve_trivial():
    p = Problem(2.0, 0.0, CoefficientMeasure(),
                CoefficientMeasure(d11="1", d22="1"), validate=False)
    # q = w = 0 means u' = 0: use zero-w problem without validation
    p0 = Problem(2.0, 0.0, CoefficientMeasure(), CoefficientMeasure(d11="1"),
                 validate=True)
    u = evolve_ac(p0, 0.0, 0.0, 1.5, np.array([1.0, 2.0]))
    # lam = 0 removes w: u' = J q u = 0
    assert np.allclose(u, [1.0, 2.0], atol=1e-12)
    del p


def test_evolve_free_identity_closed_form():
    p, _ = builtin_example("free_identity")
    u = evolve_ac(p, 1j, 0.0, 1.0, np.array([1.0, 0.0]))
    assert rel_err(u, np.array([cmath.cos(1j), -cmath.sin(1j)])) < 1e-10
    assert u[0] == pytest.approx(math.cosh(1.0))
    assert u[1] == pytest.approx(-1j * math.sinh(1.0))


def test_evolve_lesch_malamud_closed_form():
    p, rec = builtin_example("lesch_malamud", a=1.0)
    u = evolve_ac(p, 1j, 0.0, 1.0, np.array([1.0, 0.0]))
    assert rel_err(u, rec.eval("U", 1.0, 1j)[:, 0]) < 1e-8


def test_evolve_rejects_interior_atom():
    p, _ = builtin_example("bad_point_minus")
    with pytest.raises(ValueError, match="atom"):
        evolve_ac(p, 1j, 0.5, 1.5, np.array([1.0, 0.0]))


# -- exact steps on constant pieces ---------------------------------------------

def _flat_matrix(a):
    return np.array([[a[0], a[1]], [a[2], a[3]]], dtype=complex)


def _half_s(a):
    n11 = 0.5 * (a[0] - a[3])
    return abs(cmath.sqrt(n11 * n11 + a[1] * a[2]))


@pytest.mark.parametrize("name, a, hs", [
    ("zero", (0j, 0j, 0j, 0j), None),
    # q = 0, w = [[1, 0], [0, 0]]: A = -lam J w is nilpotent, s = 0 exactly
    ("nilpotent", (0j, 0j, -(0.3 + 0.7j), 0j), None),
    ("near-nilpotent", (0.2j, 1.0 + 0j, 1e-16 + 0j, 0.2j), 1e-8),
    ("large", (0.3 + 0.1j, 2 - 1j, 8 + 0.5j, -0.1 + 0j), 30.0),
    ("oscillating", (1j, 3 + 0j, -3 + 0j, 1j), 30.0),
])
def test_constant_flow_matches_matrix_exponential(name, a, hs):
    from scipy.linalg import expm

    h = 2.5 if hs is None else hs / _half_s(a)
    for step in (h, -h):
        got = np.reshape(propagation_module._constant_flow(a, step), (2, 2))
        assert rel_err(got, expm(step * _flat_matrix(a))) < 1e-13, name
        if name in ("zero", "nilpotent"):
            assert np.array_equal(got, np.eye(2) + step * _flat_matrix(a))


# -- adaptive Magnus steps on pieces that are not constant ---------------------

LESCH_MALAMUD_LAMBDAS = [1j, 2j, -0.5 + 0.5j, 0.5 - 1j]


@pytest.mark.parametrize("lam", LESCH_MALAMUD_LAMBDAS)
def test_magnus_stepper_matches_lesch_malamud_closed_form(lam):
    # the Magnus route, driven directly: fundamental_matrix takes the
    # commuting stepper on this problem
    p, rec = builtin_example("lesch_malamud", a=1.0)
    entries = p.system_matrix(lam)
    grid = list(np.geomspace(0.5, 30.0, 12))
    xs, states = propagation_module._magnus_solve(
        entries, 0.0, 30.0, [(1, 0), (0, 1)], grid[:-1])
    assert len(xs) > 100
    nodes = dict(zip(xs, states))
    for x in grid:
        assert rel_err(np.transpose(nodes[x]), rec.eval("U", x, lam)) <= 1e-11, x
    # a dense value is one step from the nearest accepted node
    for x in np.linspace(0.37, 29.3, 7):
        k = propagation_module._nearest(xs, x)
        u = propagation_module._cf4_step(entries, xs[k], x - xs[k], states[k])
        assert rel_err(np.transpose(u), rec.eval("U", x, lam)) <= 1e-11, x


@pytest.mark.parametrize("a", [0.5, 1.0])
@pytest.mark.parametrize("lam", LESCH_MALAMUD_LAMBDAS)
def test_commuting_stepper_matches_lesch_malamud_closed_form(a, lam, monkeypatch):
    solves = count_calls(monkeypatch, propagation_module, "_magnus_solve")
    p, rec = builtin_example("lesch_malamud", a=a)
    grid = np.geomspace(0.5, 30.0, 12)
    fm = fundamental_matrix(p, lam, 30.0, grid=grid)
    # grid points are stored samples; the others are dense values
    for x in np.concatenate([grid, np.linspace(0.37, 29.3, 7), [1e-3]]):
        assert rel_err(fm.at(x), rec.eval("U", x, lam)) <= 1.5e-14, x
    # backward, from c to 0
    beta = 0.3
    eta = np.array([-math.sin(beta), math.cos(beta)])
    z = lam * rec.eval("t", 30.0)
    want = cmath.exp(-30j * lam) * np.array(
        [[cmath.cos(z), -cmath.sin(z)], [cmath.sin(z), cmath.cos(z)]]) @ eta
    assert rel_err(eta_solution(p, lam, 30.0, beta), want) <= 1.5e-14
    assert solves == []


def test_commuting_stepper_reads_the_imaginary_part_of_the_integral():
    # q12 = i e^{ix}, w = 0 (not a valid problem, hence validate=False):
    # A = diag(i e^{-ix}, i e^{ix}) = Re E i I + Im E diag(1, -1), E = e^{ix}
    p = Problem(4.0, 0.0, CoefficientMeasure(d12="i*exp(i*x)"),
                CoefficientMeasure(), validate=False)
    a0, ar, ai = p.commuting_system(1j, p.pieces[0])
    assert ar == (1j, 0, 0, 1j) and ai == (1, 0, 0, -1)
    fm = fundamental_matrix(p, 1j, 3.0, grid=[1.0, 2.0])
    for x in (1.0, 2.0, 3.0, 0.4, 2.7):
        want = np.diag([cmath.exp(1 - cmath.exp(-1j * x)),
                        cmath.exp(cmath.exp(1j * x) - 1)])
        assert rel_err(fm.at(x), want) <= 1e-14, x


def _magnus_cases():
    """Problems whose entries vary with x and that must take the Magnus
    route, with a reference for U(x, lam) at x = 3."""
    _, lm = builtin_example("lesch_malamud", a=1.0)
    # lesch_malamud(a=1) with d22 spelled differently: the entries
    # commute in value, but they share no AST node
    same_values = Problem(math.inf, 0.0, CoefficientMeasure(), CoefficientMeasure(
        "1+1/(x^2+1)", "-i", "1+1/(1+x^2)"))
    yield same_values, lambda lam: lm.eval("U", 3.0, lam)
    # affine in E = x, but [J q, J w] != 0
    affine = Problem(2.0, 0.0, CoefficientMeasure(d11="1+x", d22="-1-x"),
                     CoefficientMeasure(d11="1", d22="1"))
    two_nodes = Problem(4.0, 0.0, CoefficientMeasure(),
                        CoefficientMeasure(d11="1+x", d22="1+x^2"))
    for p in (affine, two_nodes):
        def oracle(lam, p=p):
            return fixed_step_propagate(p, lam, 3.0 if p.b > 3 else 1.5,
                                        OracleConfig(step=1e-3))
        yield p, oracle


@pytest.mark.parametrize("lam", [1j, 0.5 - 1j])
def test_shortcut_is_decided_from_the_ast_only(lam, monkeypatch):
    solves = count_calls(monkeypatch, propagation_module, "_magnus_solve")
    for p, reference in _magnus_cases():
        assert p.commuting_system(lam, p.pieces[0]) is None
        c = 3.0 if p.b > 3 else 1.5
        got = fundamental_matrix(p, lam, c).at(c)
        want = reference(lam)
        want = want.at(c) if isinstance(want, FundamentalMatrix) else want
        assert rel_err(got, want) <= 1e-9
    assert len(solves) == 3


def _non_commuting_problem():
    return Problem(4.0, 0.0,
                   CoefficientMeasure(d11="sin(2*x)", d12="0.5*x-0.3*i", d22="cos(x)"),
                   CoefficientMeasure(d11="1+x^2/4", d12="0.3*i*x", d22="2-cos(3*x)"))


def test_magnus_stepper_matches_oracle_where_a_does_not_commute():
    p = _non_commuting_problem()
    lam = 0.7 + 1.2j
    a1, a2 = (_flat_matrix(p.system_matrix(lam)(x)) for x in (0.5, 2.0))
    assert np.linalg.norm(a1 @ a2 - a2 @ a1) > 1.0
    grid = [0.7, 1.9]
    dense = [0.33, 1.234, 2.61]     # off the accepted Magnus nodes
    fm = fundamental_matrix(p, lam, 3.0, grid=grid)
    oracle = fixed_step_propagate(p, lam, 3.0, OracleConfig(step=1e-3),
                                  grid=sorted(grid + dense))
    for x in grid + dense + [3.0]:
        assert rel_err(fm.at(x), oracle.at(x)) < 1e-9
    # the backward walk: alpha = 0, so U(0) = I and eta(0) = U(3)^-1 eta(3)
    beta = 0.4
    eta = np.array([-math.sin(beta), math.cos(beta)], dtype=complex)
    assert rel_err(eta_solution(p, lam, 3.0, beta),
                   np.linalg.solve(fm.at(3.0), eta)) <= 1e-9


def test_polynomial_density_with_zeros_at_the_probe_points_is_propagated():
    # d vanishes at 1/4, 1/2 and 3/4 of (0, 1) but not in between
    d = "1000*(x-1/4)^2*(x-1/2)^2*(x-3/4)^2"
    p = Problem(2.0, 0.0, CoefficientMeasure(), CoefficientMeasure(d11=d, d22=d))
    got = fundamental_matrix(p, 1j, 1.0).at(1.0)
    want = fixed_step_propagate(p, 1j, 1.0, OracleConfig(step=1e-3)).at(1.0)
    assert rel_err(got, want) < 1e-9
    assert np.allclose(got, [[1.537, 1.168j], [-1.168j, 1.537]], atol=1e-3)


def test_step_density_without_declared_breakpoint_is_propagated():
    p = Problem(2.0, 0.0, CoefficientMeasure(),
                CoefficientMeasure(d11="step(x-0.8)", d22="step(x-0.8)"))
    got = fundamental_matrix(p, 1j, 1.0).at(1.0)
    want = fixed_step_propagate(p, 1j, 1.0, OracleConfig(step=1e-3)).at(1.0)
    assert rel_err(got, want) < 1e-9
    assert np.allclose(got, [[1.020, 0.201j], [-0.201j, 1.020]], atol=1e-3)


def test_dense_values_between_samples_match_oracle(rng):
    for _ in range(4):
        p = random_piecewise_problem(rng)
        lam = pick_lambda_outside_bad_set(p, rng)
        fm = fundamental_matrix(p, lam, 4.3, grid=[1.0, 2.0, 3.0])
        xs = [x for x in np.linspace(0.1, 4.2, 9) if x not in p.atom_positions]
        oracle = fixed_step_propagate(p, lam, 4.3, OracleConfig(step=1e-3),
                                      grid=xs)
        for x in xs:
            assert rel_err(fm.at(x), oracle.at(x)) < 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solver_failure_raises_integration_failure():
    # integrable near 0, so validation accepts it; J q = x^(-1/2) diag(-1, 1)
    # does not commute with J w = J, and the Magnus steps cannot start
    p = Problem(4.0, 0.0, CoefficientMeasure(d12="x^(-1/2)"),
                CoefficientMeasure(d11="1", d22="1"))
    assert p.commuting_system(1j, p.pieces[0]) is None
    with pytest.raises(IntegrationFailureError):
        fundamental_matrix(p, 1j, 2.0)


@pytest.mark.parametrize("lam", [1j, 0.5 - 1j])
@pytest.mark.parametrize("density, antiderivative, c", [
    # integrable singularity at 0; Magnus steps cannot start there
    ("x^(-1/2)", lambda x: 2 * math.sqrt(x), 2.0),
    # 480 oscillations of the density over (0, 30)
    ("2+sin(100*x)", lambda x: 2 * x + (1 - math.cos(100 * x)) / 100, 30.0),
], ids=["singular", "oscillating"])
def test_scalar_density_times_identity_propagates_exactly(lam, density,
                                                          antiderivative, c):
    # A = -lam f(x) J commutes with itself: U = exp(-lam F(x) J), F' = f
    p = Problem(math.inf, 0.0, CoefficientMeasure(),
                CoefficientMeasure(d11=density, d22=density))
    grid = [0.01, 0.5, 1.0]
    fm = fundamental_matrix(p, lam, c, grid=grid)
    for x in grid + [c, 1e-4, 0.3, 1.7]:
        z = lam * antiderivative(x)
        want = np.array([[cmath.cos(z), cmath.sin(z)],
                         [-cmath.sin(z), cmath.cos(z)]])
        assert rel_err(fm.at(x), want) <= 1e-12, x


def test_overflowing_solution_raises_integration_failure():
    # q = diag(1000 + x, -1000 - x) is not constant and its solutions grow
    # like exp(1000 x), past the float range near x = 0.71
    q = CoefficientMeasure(d11="1000+x", d22="-1000-x")
    w = CoefficientMeasure(d11="1", d22="1")
    p = Problem(2.0, 0.0, q, w)
    assert p.commuting_system(1j, p.pieces[0]) is None    # Magnus route
    u = fundamental_matrix(p, 1j, 0.5).at(0.5)
    assert np.all(np.isfinite(u)) and np.abs(u).max() > 1e200
    with pytest.raises(IntegrationFailureError, match="overflows") as info:
        fundamental_matrix(p, 1j, 1.0)
    assert 0.6 < info.value.location < 0.75
    # two constant pieces: each exponential is finite, their product is not
    q = CoefficientMeasure(d11="1000-step(x-0.7)", d22="-1000+step(x-0.7)")
    with pytest.raises(IntegrationFailureError, match="overflows"):
        fundamental_matrix(Problem(2.0, 0.0, q, w), 1j, 1.4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_past_a_break_raises_on_every_route():
    # each piece's exponential is finite, the solution over both is not
    q = CoefficientMeasure(d11="1000-step(x-0.7)", d22="-1000+step(x-0.7)")
    p = Problem(2.0, 0.0, q, CoefficientMeasure(d11="1", d22="1"))
    routes = [
        lambda: evolve_ac(p, 1j, 0.0, 1.4, np.array([1.0, 1.0])),
        lambda: evolve_ac(p, 1j, 1.4, 0.0, np.array([1.0, 1.0])),
        lambda: eta_solution(p, 1j, 1.4, 0.3),
        lambda: m_alt(p, 1j, 1.4, 0.3),
        lambda: fixed_step_propagate(p, 1j, 1.4, OracleConfig(step=1e-2)),
    ]
    for route in routes:
        with pytest.raises(IntegrationFailureError, match="overflows"):
            route()


def test_constant_pieces_never_call_the_ode_solver(rng, monkeypatch):
    solves = count_calls(monkeypatch, propagation_module, "_magnus_solve")
    p = random_piecewise_problem(rng)
    lam = pick_lambda_outside_bad_set(p, rng)
    trace = trace_disks(p, lam, np.geomspace(0.25, 5.0, 12))
    assert len(trace.points) > 0
    assert solves == []

    # q = 0 is constant, and at lam = 0 the x-dependent w does not enter A;
    # at lam != 0, A(x) = i lam I - lam (1 + 1/(x^2+1)) J commutes with itself
    smooth, _ = builtin_example("lesch_malamud", a=1.0)
    kernel_gram(smooth, 2.0)
    fundamental_matrix(smooth, 1j, 1.0)
    assert solves == []
    fundamental_matrix(_non_commuting_problem(), 0.7 + 1.2j, 1.0)
    assert len(solves) >= 1


CATALOG_PROBLEMS = [("lesch_malamud", {"a": 1.0}), ("lesch_malamud", {"a": 0.0}),
                    ("constant_w", {}), ("free_identity", {}),
                    ("bad_point_minus", {}), ("bad_point_plus", {})]
CLI_LAMBDAS = [1j, 0.5 + 0.5j, -0.25 - 1j, 1 - 0.75j]


@pytest.mark.parametrize("name, params", CATALOG_PROBLEMS,
                         ids=[f"{n}{p}" for n, p in CATALOG_PROBLEMS])
def test_catalog_problems_propagate_in_closed_form(name, params, monkeypatch):
    # every catalog piece is constant or commuting at each lam outside
    # Lambda, on both half planes, and at lam = 0 for the Gram matrix
    solves = count_calls(monkeypatch, propagation_module, "_magnus_solve")
    p, _ = builtin_example(name, **params)
    kernel_gram(p, 30.0 if math.isinf(p.b) else 0.9 * p.b)
    for lam in LESCH_MALAMUD_LAMBDAS + CLI_LAMBDAS:
        if not any(bad_points(p, z).in_lambda_set for z in (lam, lam.conjugate())):
            deficiency_indices(p, lam)
    assert solves == []


def test_lam_zero_reads_the_forms_of_q_alone(monkeypatch):
    # w = (1 + x^2) I has no form in the node x of q = (1 + x) diag(1, -1),
    # but at lam = 0 w does not enter A = (1 + x) [[0, 1], [1, 0]]:
    # U = exp(S K) with S = x + x^2/2 and K = [[0, 1], [1, 0]]
    solves = count_calls(monkeypatch, propagation_module, "_magnus_solve")
    p = Problem(4.0, 0.0, CoefficientMeasure(d11="1+x", d22="-1-x"),
                CoefficientMeasure(d11="1+x^2", d22="1+x^2"))
    grid = [0.3, 1.0, 2.0]
    fm = fundamental_matrix(p, 0.0, 2.5, grid=grid)
    for x in grid + [2.5, 0.05, 1.7]:
        s = x + x * x / 2
        want = [[math.cosh(s), math.sinh(s)], [math.sinh(s), math.cosh(s)]]
        assert rel_err(fm.at(x), want) <= 1e-14, x
    assert solves == []


def test_oracle_marches_on_constant_pieces(monkeypatch):
    marches = count_calls(monkeypatch, oracle_module, "_march")
    p, _ = builtin_example("free_identity")
    report = compare_propagators(p, 1j, 1.0, config=OracleConfig(step=1e-3))
    assert len(marches) >= 8
    assert report.max_relative_deviation < 1e-10


# -- fundamental matrices ---------------------------------------------------

def test_dense_values_are_checked_to_be_finite():
    p = Problem(2.0, 0.0, CoefficientMeasure(), CoefficientMeasure(d11="1", d22="1"))
    segment = propagation_module._Segment(
        0.0, 1.0, lambda x: np.full(4, np.inf, dtype=complex))
    fm = FundamentalMatrix(p, 1j, 1.0, [0.0, 1.0], [np.eye(2)] * 2, [], [segment])
    assert np.array_equal(fm.at(1.0), np.eye(2))    # a stored sample
    with pytest.raises(IntegrationFailureError, match="not finite") as info:
        fm.at(0.5)
    assert info.value.location == 0.5


def test_matrix_without_segments_evaluates_at_its_samples_only():
    p = Problem(2.0, 0.0, CoefficientMeasure(), CoefficientMeasure(d11="1", d22="1"))
    fm = FundamentalMatrix(p, 1j, 1.0, [0.0, 1.0], [np.eye(2)] * 2, [], [])
    assert np.array_equal(fm.at(1.0), np.eye(2))
    for x in (0.5, 1.0 - 1e-13):
        with pytest.raises(ValueError, match="no dense interpolant"):
            fm.at(x)


def test_initial_rotation_exact():
    for alpha in (0.0, 0.3, 1.2, 3.0):
        p = Problem(4.0, alpha, CoefficientMeasure(),
                    CoefficientMeasure(d11="1", d22="1"))
        fm = fundamental_matrix(p, 1j, 1.0)
        assert np.array_equal(fm.at(0.0), rotation(alpha))


def test_constant_w_closed_form_entry():
    p, rec = builtin_example("constant_w")
    fm = fundamental_matrix(p, 1j, 1.0)
    want = cmath.exp(-1.0) * np.array([
        [cmath.cos(2j), 0.5 * cmath.sin(2j)],
        [-2 * cmath.sin(2j), cmath.cos(2j)]])
    assert rel_err(fm.at(1.0), want) < 1e-10
    assert rel_err(fm.at(1.0), rec.eval("U", 1.0, 1j)) < 1e-10


def test_bad_point_minus_rank_collapse_forward():
    p, _ = builtin_example("bad_point_minus")
    fm = fundamental_matrix(p, 2j, 2.0)
    assert fm.in_lambda_set
    u = fm.at(2.0)
    assert np.allclose(u[:, 0], -(1 + 1j) * u[:, 1])


def test_bad_point_plus_forward_blocked():
    p, _ = builtin_example("bad_point_plus")
    with pytest.raises(BadPointError):
        fundamental_matrix(p, 2j, 2.0)


def test_c_at_atom_rejected():
    p, _ = builtin_example("bad_point_minus")
    with pytest.raises(ValueError, match="continuity"):
        fundamental_matrix(p, 1j, 1.0)


def test_breakpoints_outside_the_walk_are_ignored():
    w = CoefficientMeasure(d11="1", d22="1")
    plain = Problem(4.0, 0.0, CoefficientMeasure(), w)
    odd = Problem(4.0, 0.0, CoefficientMeasure(breakpoints=[-1.0, 0.0]), w)
    want = fundamental_matrix(plain, 1j, 1.0)
    assert rel_err(want.at(1.0), [[math.cosh(1.0), 1j * math.sinh(1.0)],
                                  [-1j * math.sinh(1.0), math.cosh(1.0)]]) < 1e-14
    got = fundamental_matrix(odd, 1j, 1.0)
    assert np.array_equal(got.at(1.0), want.at(1.0))
    assert (solution_norm_sq(got, 1.0, 1, method="quadrature")
            == solution_norm_sq(want, 1.0, 1, method="quadrature"))
    assert np.array_equal(kernel_gram(odd, 1.0).matrix,
                          kernel_gram(plain, 1.0).matrix)


def test_jump_consistency_on_random_problems(rng):
    """At every crossed atom: ||B+ U+ - B- U-|| <= 1e-10 ||U-||."""
    for _ in range(12):
        p = random_piecewise_problem(rng)
        lam = pick_lambda_outside_bad_set(p, rng)
        fm = fundamental_matrix(p, lam, 5.9, grid=np.linspace(0.5, 5.9, 7))
        for crossing in fm.crossings:
            lhs = crossing.jump.b_plus @ crossing.right
            rhs = crossing.jump.b_minus @ crossing.left
            bound = 1e-10 * np.linalg.norm(crossing.left)
            assert np.linalg.norm(lhs - rhs) <= max(bound, 1e-14)
            assert np.allclose(crossing.balanced,
                               0.5 * (crossing.left + crossing.right))


def test_forward_backward_roundtrip(rng):
    """Propagating 0 -> c -> 0 returns the start to 1e-8 relative."""
    for _ in range(8):
        p = random_piecewise_problem(rng)
        lam = pick_lambda_outside_bad_set(p, rng)
        c = 3.3
        fm = fundamental_matrix(p, lam, c)
        psi_c = fm.at(c)[:, 1]
        # backward: walk with evolve_ac and backward jump transfers
        u = psi_c.copy()
        x = c
        for pos in [q for q in p.discontinuities if q < c][::-1]:
            u = evolve_ac(p, lam, x, pos, u)
            jp = jump_matrices(p.delta_q(pos), p.delta_w(pos), lam, pos)
            if np.any(p.delta_q(pos)) or np.any(p.delta_w(pos)):
                u = jp.backward_matrix() @ u
            x = pos
        u = evolve_ac(p, lam, x, 0.0, u)
        assert rel_err(u, fm.at(0.0)[:, 1]) < 1e-8


def test_eta_solution_no_atoms():
    p = Problem(4.0, 0.0, CoefficientMeasure(), CoefficientMeasure(d11="1"))
    beta = 0.8
    eta0 = eta_solution(p, 0.0, 2.0, beta)
    # lam = 0, w irrelevant, q = 0: constant solution
    assert np.allclose(eta0, [-math.sin(beta), math.cos(beta)], atol=1e-12)


def test_eta_backward_matches_forward_inverse(rng):
    p = random_piecewise_problem(rng, with_atoms=False)
    lam = 0.4 + 0.8j
    beta = 1.1
    c = 2.0
    eta0 = eta_solution(p, lam, c, beta)
    forward = evolve_ac(p, lam, 0.0, c, eta0)
    assert rel_err(forward, np.array([-math.sin(beta), math.cos(beta)])) < 1e-10


def test_eta_crosses_atoms_like_the_forward_matrix(rng):
    """U(c) U(0)^{-1} eta(0) = eta(c) with atoms in (0, c)."""
    beta = 0.9
    for _ in range(6):
        p = random_piecewise_problem(rng)
        lam = pick_lambda_outside_bad_set(p, rng)
        fm = fundamental_matrix(p, lam, 3.3)
        eta0 = eta_solution(p, lam, 3.3, beta)
        eta_c = fm.at(3.3) @ np.linalg.solve(fm.at(0.0), eta0)
        assert rel_err(eta_c, [-math.sin(beta), math.cos(beta)]) < 1e-8


def test_eta_from_inside_a_piece_matches_the_forward_matrix(rng):
    """The backward walk starts mid-piece, walks the spans in reverse and
    crosses every atom below c; U(c) U(0)^{-1} eta(0) gives eta(c) back."""
    beta = 0.4
    checked = 0
    for _ in range(10):
        p = random_piecewise_problem(rng)
        lam = pick_lambda_outside_bad_set(p, rng)
        for piece in p.pieces[1:]:
            c = 0.5 * (piece.lo + min(piece.hi, 6.0))
            fm = fundamental_matrix(p, lam, c)
            eta0 = eta_solution(p, lam, c, beta)
            eta_c = fm.at(c) @ np.linalg.solve(fm.at(0.0), eta0)
            assert rel_err(eta_c, [-math.sin(beta), math.cos(beta)]) < 1e-8
            checked += len(fm.crossings)
    assert checked > 0


def test_evolve_rejects_a_range_outside_the_interval():
    p, _ = builtin_example("lesch_malamud", a=0.0)
    short = Problem(2.0, 0.0, CoefficientMeasure(), CoefficientMeasure(d11="1"))
    for problem, x0, x1 in ((short, 0.0, 2.5), (short, 2.5, 1.0), (p, -1.0, 1.0)):
        with pytest.raises(ValueError, match="leaves"):
            evolve_ac(problem, 1j, x0, x1, np.array([1.0, 0.0]))


def test_one_sided_values_refuse_points_outside_the_propagated_range():
    # left_at and right_at share at's range check: past c, left_at used
    # to extrapolate the last piece across the atom at 2.5
    p = Problem(4.0, 0.0,
                CoefficientMeasure(d11="1", atoms=[(2.5, [[1, 0], [0, 0]])]),
                CoefficientMeasure(d11="1", d22="1"))
    fm = fundamental_matrix(p, 1j, 2.0)
    for x in (3.0, -1.0):
        for read in (fm.at, fm.left_at, fm.right_at):
            with pytest.raises(ValueError, match="outside"):
                read(x)


def test_eta_defined_for_bad_point_plus():
    p, _ = builtin_example("bad_point_plus")
    eta0 = eta_solution(p, 2j, 2.0, 0.7)   # B- invertible there
    assert np.all(np.isfinite(eta0.view(float)))


def test_eta_singular_backward_raises():
    p, _ = builtin_example("bad_point_minus")
    with pytest.raises(SingularBackwardJumpError):
        eta_solution(p, 2j, 2.0, 0.7)


# -- kernel Gram ------------------------------------------------------------

def test_kernel_gram_lesch_malamud_a0():
    p, _ = builtin_example("lesch_malamud", a=0.0)
    gram = kernel_gram(p, 10.0)
    assert gram.min_eigenvalue == pytest.approx(0.0, abs=1e-10)
    v = gram.null_vector
    target = np.array([1.0, -1.0j]) / math.sqrt(2.0)
    overlap = abs(np.vdot(v, target))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_kernel_gram_lesch_malamud_a1_definite(monkeypatch):
    p, _ = builtin_example("lesch_malamud", a=1.0)
    # int w = (x + atan x) I + x [[0, -i], [i, 0]] from alpha, beta and one
    # scalar quadrature of 1/(x^2+1): the density matrix is never sampled
    densities = count_calls(monkeypatch, CoefficientMeasure, "density")
    gram = kernel_gram(p, 10.0)
    assert densities == []
    assert gram.min_eigenvalue == pytest.approx(math.atan(10.0), rel=1e-8)


def test_kernel_gram_constant_w():
    p, rec = builtin_example("constant_w")
    c = 7.0
    gram = kernel_gram(p, c)
    lo, hi = rec.expected["w_eigenvalues"]
    assert gram.eigenvalues == pytest.approx([c * lo, c * hi], rel=1e-9)


def test_kernel_gram_checks_lambda_zero_bad_points():
    dq = np.array([[2, 0], [0, -2]], dtype=complex)  # both B singular at any lam
    p = Problem(4.0, 0.0,
                CoefficientMeasure(atoms=[(1.0, dq)]),
                CoefficientMeasure(d11="1"))
    with pytest.raises(BadPointError):
        kernel_gram(p, 2.0)


def test_kernel_gram_refuses_lambda_zero_with_one_message():
    # at real lambda, Hermitian jumps make B- and B+ singular together
    # (real_jump_dichotomy): the atom at 1 blocks the sweep to c_max = 2,
    # while the sweep to 0.5 passes and the reading of the atoms refuses
    dq = np.array([[2, 0], [0, -2]], dtype=complex)
    p = Problem(4.0, 0.0,
                CoefficientMeasure(atoms=[(1.0, dq)]),
                CoefficientMeasure(d11="1"))
    for c_max in (2.0, 0.5):
        with pytest.raises(BadPointError) as info:
            kernel_gram(p, c_max)
        assert str(info.value) == ("lambda=0 admits a bad point; the kernel "
                                   "Gram matrix is not defined")
        report = info.value.report
        assert report.lam == 0 and report.positions == (1.0,)
        assert report.records[0].minus_singular and report.records[0].plus_singular


def _gram_by_quadrature(p, c):
    """G(c) from the U(.,0)* w U(.,0) integrand on each piece and the
    balanced atom terms, integrated here apart from kernel_gram."""
    fm = fundamental_matrix(p, 0.0, c)

    def integrand(x):
        u = fm.at(x)
        return u.conj().T @ p.w.density(x) @ u

    cuts = [0.0] + [x for x in p.discontinuities if x < c] + [c]
    G = sum(integrate(integrand, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            for lo, hi in zip(cuts, cuts[1:]))
    for crossing in fm.crossings:
        ub = crossing.balanced
        G = G + ub.conj().T @ p.delta_w(crossing.position) @ ub
    return G


def test_kernel_gram_reads_u_once_per_piece_where_q_is_zero(monkeypatch):
    problems = [builtin_example(name)[0] for name in catalog_names()]
    problems.append(builtin_example("lesch_malamud", a=0.0)[0])
    problems.append(Problem(
        4.0, 0.7, CoefficientMeasure(),
        CoefficientMeasure(d11="2+sin(x)+step(x-1.5)", d12="0.4*i*exp(-x)+0.1*x",
                           d22="1", atoms=[(0.75, [[1, 0.5j], [-0.5j, 1]])])))
    for p in problems:
        c = 3.0
        want = _gram_by_quadrature(p, c)
        calls = count_calls(monkeypatch, FundamentalMatrix, "at")
        got = kernel_gram(p, c).matrix
        monkeypatch.undo()
        assert len(calls) <= sum(piece.lo < c for piece in p.pieces)
        assert rel_err(got, want) <= 1e-12


def test_bad_point_records_are_the_singular_jump_pairs(rng):
    p, _ = builtin_example("bad_point_plus")
    for lam in (2j, -2j, 1j, 0.0):
        report = bad_points(p, lam)
        for jp in report.records:
            want = jump_matrices(p.delta_q(jp.position), p.delta_w(jp.position),
                                 lam, jp.position)
            assert (jp.det_minus, jp.det_plus) == (want.det_minus, want.det_plus)
            assert jp.minus_singular or jp.plus_singular
            assert f"|det-|={abs(want.det_minus):.3e}" in str(report)
    assert bad_points(p, 2j).records
    for _ in range(10):
        q = random_piecewise_problem(rng)
        for lam in (1j, 0.3 - 0.5j):
            singular = tuple(
                x for x in q.atom_positions
                if (jp := jump_matrices(q.delta_q(x), q.delta_w(x), lam)).minus_singular
                or jp.plus_singular)
            assert bad_points(q, lam).positions == singular
