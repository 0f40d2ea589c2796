import cmath
import math

import numpy as np
import pytest

import weyl_canon.measures as measures_module
from weyl_canon.catalog import builtin_example, catalog_names
from weyl_canon.classify import default_c_grid
from weyl_canon.errors import (
    BadPointError,
    DegenerateHalfPlaneError,
    DegenerateUError,
    IntegrationFailureError,
    NonRealResultError,
)
from weyl_canon.measures import CoefficientMeasure, Problem
from weyl_canon.propagation import FundamentalMatrix, fundamental_matrix, kernel_gram
from weyl_canon.quadrature import integrate
from weyl_canon.weyl import (
    M_INFINITY,
    WeylDisk,
    WeylHalfPlane,
    conjugate_solution,
    m_alt,
    m_from_boundary,
    norm_lagrange,
    norm_quadrature,
    null_norm_tolerance,
    radius_identity_residual,
    solution_norm_sq,
    tau,
    tau_profile,
    weyl_set,
)

from conftest import (
    count_calls,
    pick_lambda_outside_bad_set,
    random_piecewise_problem,
    rel_err,
)


# -- tau ---------------------------------------------------------------------

def test_tau_raises_when_its_quadrature_does_not_converge():
    # Im q12 = sin(x^3) has ~8600 sign changes on (0, 30): far more than the
    # 200 intervals tau's quadrature may use.  q11 = x makes the piece's
    # node x, so q12 has no form and takes that quadrature
    p = Problem(40.0, 0.0, CoefficientMeasure(d11="x", d12="i*sin(x^3)"),
                CoefficientMeasure(d11="1", d22="1"))
    assert p.pieces[0].forms[1] is None
    assert abs(tau(p, 1j, 1.0).value) == pytest.approx(1.0)
    with pytest.raises(IntegrationFailureError, match="200 intervals"):
        tau(p, 1j, 30.0)


def test_tau_profile_reads_the_forms_of_q12_and_w12(monkeypatch):
    # q12 = i/(1+x^2) is its own node E, w12 = 0: int Im q12 = atan c
    # from one quadrature of E per gap, none of tau's generic integrand
    p = Problem(math.inf, 0.0, CoefficientMeasure(d12="i/(1+x^2)"),
                CoefficientMeasure(d11="1", d22="1"))
    entries = count_calls(monkeypatch, CoefficientMeasure, "density_entries")
    grid = default_c_grid(p)
    for c, sample in zip(grid, tau_profile(p, 1j, grid)):
        assert abs(sample.value - cmath.exp(2j * math.atan(c))) <= 1e-13, c
    assert entries == []


def test_tau_profile_is_exact_where_w12_is_constant():
    # Im w12 = -1 on the one piece: the exponent is the grid point itself
    for name, params in (("lesch_malamud", {"a": 1.0}), ("constant_w", {})):
        p, rec = builtin_example(name, **params)
        grid = default_c_grid(p)
        for lam in (1j, 2j, 0.5 - 1j, -0.5 + 0.5j):
            for s in tau_profile(p, lam, grid):
                assert rel_err(s.value, rec.tau(s.x, lam)) <= 1e-15


def test_tau_profile_needs_no_quadrature_on_constant_pieces(rng, monkeypatch):
    problems = [random_piecewise_problem(rng) for _ in range(4)]
    calls = count_calls(monkeypatch, measures_module, "integrate")
    for p in problems:
        lam = pick_lambda_outside_bad_set(p, rng)
        samples = tau_profile(p, lam, np.geomspace(0.25, 7.5, 12))
        assert all(math.isfinite(abs(s.value)) for s in samples)
    assert calls == []


def test_tau_is_one_for_real_coefficients(rng):
    p, _ = builtin_example("free_identity")
    for _ in range(5):
        x = float(rng.uniform(0.1, 8.0))
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s = tau(p, lam, x)
        assert abs(s.value - 1.0) < 1e-12


def test_tau_lesch_malamud_closed_form():
    p, _ = builtin_example("lesch_malamud", a=1.0)
    s = tau(p, 1j, 2.0)
    assert abs(s.value - math.exp(-4.0)) < 1e-12 * math.exp(-4.0)
    assert s.product == 1.0


def test_tau_constant_w_and_det_cross_check():
    p, _ = builtin_example("constant_w")
    lam = 0.7 - 0.4j
    x = 1.7
    s = tau(p, lam, x)
    assert rel_err(s.value, cmath.exp(2j * lam * x)) < 1e-11
    fm = fundamental_matrix(p, lam, x)
    assert rel_err(np.linalg.det(fm.at(x)), s.value) < 1e-9


def test_tau_atom_product_only():
    p, rec = builtin_example("bad_point_minus")
    s = tau(p, 1j, 2.0)
    assert s.continuous_factor == 1.0
    assert rel_err(s.value, rec.eval("tau", 2.0, 1j)) < 1e-14
    assert rel_err(s.value, 1j / (-3j)) < 1e-14


def test_tau_profile_refuses_past_a_singular_b_plus():
    # B+ is singular at the atom at 1 for lam = 2i: the profile stops
    # there, while a point at the atom holds the left limit and passes
    p, rec = builtin_example("bad_point_plus")
    lam = rec.expected["bad_lambda"]
    assert [s.x for s in tau_profile(p, lam, [0.5, 1.0])] == [0.5, 1.0]
    with pytest.raises(BadPointError) as info:
        tau_profile(p, lam, [0.5, 1.5])
    report = info.value.report
    assert report.lam == lam and report.positions == (1.0,)
    assert report.records[0].plus_singular and not report.records[0].minus_singular


def test_tau_conjugate_identity(rng):
    for _ in range(8):
        p = random_piecewise_problem(rng)
        lam = pick_lambda_outside_bad_set(p, rng)
        x = float(rng.uniform(0.5, 5.5))
        if x in p.atom_positions:
            x += 1e-3
        forward = tau(p, lam, x).value
        mirrored = tau(p, np.conj(lam), x).value
        assert abs(forward * np.conj(mirrored) - 1.0) < 1e-10


def test_tau_profile_matches_pointwise(rng):
    p = random_piecewise_problem(rng)
    lam = pick_lambda_outside_bad_set(p, rng)
    xs = [0.7, 1.3, 2.9, 4.4]
    profile = tau_profile(p, lam, xs)
    for x, s in zip(xs, profile):
        assert rel_err(s.value, tau(p, lam, x).value) < 1e-11


def test_tau_profile_refuses_points_outside_the_interval():
    # tau_profile used to return tau(4) as tau(6), and 1 at x = -1
    p = Problem(4.0, 0.0, CoefficientMeasure(d12="0.3*i"),
                CoefficientMeasure(d11="1", d12="0.2*i", d22="1"))
    for xs in ([1.0, 6.0], [-1.0, 1.0], [4.0]):
        with pytest.raises(ValueError, match="outside"):
            tau_profile(p, 1j, xs)
    with pytest.raises(ValueError, match="outside"):
        tau(p, 1j, 6.0)


def test_tau_profile_refuses_a_non_finite_lam():
    p, _ = builtin_example("constant_w")
    for lam in (complex(math.nan, 1.0), complex(1.0, math.inf), complex(-math.inf, 0.0)):
        with pytest.raises(ValueError, match="not finite"):
            tau_profile(p, lam, [1.0])


# -- norms --------------------------------------------------------------------

def test_norm_quadrature_zero_weight_interval():
    p = Problem(4.0, 0.0, CoefficientMeasure(),
                CoefficientMeasure(atoms=[(2.5, [[1, 0], [0, 0]])]))
    fm = fundamental_matrix(p, 1j, 2.0)
    assert norm_quadrature(p, fm.column(1), 2.0).value == pytest.approx(0.0)


def test_norm_quadrature_constant_w_closed_form():
    p, rec = builtin_example("constant_w")
    fm = fundamental_matrix(p, 1j, 2.0)
    got = norm_quadrature(p, fm.column(1), 2.0).value
    assert got == pytest.approx(rec.eval("psi_norm_sq", 2.0, 1j), rel=1e-6)


def test_norm_quadrature_atom_only():
    p = Problem(4.0, 0.0, CoefficientMeasure(),
                CoefficientMeasure(atoms=[(1.0, [[2, 0], [0, 0]])]))
    fm = fundamental_matrix(p, 0.5j, 2.0)
    phi = fm.column(0)   # phi = (1, 0) everywhere (q = 0, w atom only acts once)
    value = norm_quadrature(p, phi, 2.0).value
    balanced = fm.crossings[0].balanced[:, 0]
    want = float(np.real(np.vdot(balanced, p.delta_w(1.0) @ balanced)))
    assert value == pytest.approx(want, rel=1e-12)


def test_norm_quadrature_shares_the_kernel_gram_route(monkeypatch):
    # q = 0 at lam = 0: U = I is constant, so each norm reads U once per
    # span and takes int w from its forms, as kernel_gram does; the
    # columns have norms int w11 = 3 and int w22 = 1 + 2 * 2 = 5
    p = Problem(4.0, 0.0, CoefficientMeasure(),
                CoefficientMeasure(d11="1", d22="1+step(x-1)"))
    c = 3.0
    fm = fundamental_matrix(p, 0.0, c)
    gram = kernel_gram(p, c).matrix
    for column, want in ((0, 3.0), (1, 5.0)):
        calls = count_calls(monkeypatch, FundamentalMatrix, "at")
        got = norm_quadrature(p, fm.column(column), c).value
        monkeypatch.undo()
        assert len(calls) <= sum(piece.lo < c for piece in p.pieces)
        assert got == pytest.approx(want, rel=1e-14)
        assert abs(got - gram[column, column].real) <= 1e-14


def test_norm_lagrange_psi_route_and_agreement(rng):
    for _ in range(6):
        p = random_piecewise_problem(rng)
        lam = pick_lambda_outside_bad_set(p, rng)
        c = 3.1
        fm = fundamental_matrix(p, lam, c)
        lag = solution_norm_sq(fm, c, 1, method="lagrange")
        quad = solution_norm_sq(fm, c, 1, method="quadrature")
        assert lag == pytest.approx(quad, rel=1e-6, abs=1e-9)
        assert lag >= -1e-10


def test_norm_lagrange_constant_solution_zero():
    # u constant, w = 0 on the interval: (u* J u) constant, norm 0
    u = np.array([1.0, 2.0 + 1.0j])
    nv = norm_lagrange(u, u, 1j, c=1.0)
    assert nv.value == pytest.approx(0.0, abs=1e-14)


def test_norm_lagrange_always_real(rng):
    # u* J u is purely imaginary for any vector, so the Lagrange value is
    # exactly real; the guard fires only on propagation garbage.
    for _ in range(30):
        u0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        uc = rng.normal(size=2) + 1j * rng.normal(size=2)
        nv = norm_lagrange(u0, uc, 0.3 - 0.8j)
        assert isinstance(nv.value, float)
    with pytest.raises(NonRealResultError):
        norm_lagrange(np.array([np.nan, 0.0]), np.array([0.0, 1.0]), 1j)


def test_norm_monotone_in_c(rng):
    p = random_piecewise_problem(rng)
    lam = pick_lambda_outside_bad_set(p, rng)
    fm = fundamental_matrix(p, lam, 5.0)
    values = [solution_norm_sq(fm, c, 1) for c in (1.0, 2.0, 3.0, 4.0, 5.0)]
    assert all(b >= a - 1e-10 * max(1, abs(a))
               for a, b in zip(values, values[1:]))


# -- weyl sets ----------------------------------------------------------------

def test_halfplane_at_small_c():
    # c -> 0: U is the initial rotation, the psi norm vanishes and the
    # Weyl set degenerates to the half plane bounded by Im m = 0.
    p, _ = builtin_example("free_identity")
    c = 1e-12
    fm = fundamental_matrix(p, 1j, c)
    n_psi = solution_norm_sq(fm, c, 1)
    assert n_psi <= 1e-10
    ws = weyl_set(fm, c, n_psi)
    assert isinstance(ws, WeylHalfPlane)
    assert ws.level == pytest.approx(0.0, abs=1e-11)
    assert abs(ws.rho - 1.0) < 1e-10


def test_disk_constant_w_radius_formula():
    p, _ = builtin_example("constant_w")
    fm = fundamental_matrix(p, 1j, 1.0)
    ws = weyl_set(fm, 1.0, solution_norm_sq(fm, 1.0, 1))
    assert isinstance(ws, WeylDisk)
    want = 4.0 * math.exp(-2.0) / (math.exp(2.0) - math.exp(-6.0))
    assert ws.radius == pytest.approx(want, rel=1e-9)


def test_disk_free_identity_radius():
    p, _ = builtin_example("free_identity")
    for c in (0.5, 1.0, 2.0):
        fm = fundamental_matrix(p, 1j, c)
        ws = weyl_set(fm, c, solution_norm_sq(fm, c, 1))
        assert ws.radius == pytest.approx(1.0 / math.sinh(2.0 * c), rel=1e-9)


def test_degenerate_u_for_bad_lambda():
    p, _ = builtin_example("bad_point_minus")
    fm = fundamental_matrix(p, 2j, 2.0)
    with pytest.raises(DegenerateUError):
        weyl_set(fm, 2.0, 1.0)


def test_halfplane_level_equals_phi_norm_scaled():
    p = Problem(math.inf, math.pi / 2, CoefficientMeasure(),
                CoefficientMeasure(d22="1/((1+x)^2)"))
    lam = -0.75j
    c = 2.0
    fm = fundamental_matrix(p, lam, c)
    n_psi = solution_norm_sq(fm, c, 1)
    n_phi = solution_norm_sq(fm, c, 0)
    ws = weyl_set(fm, c, n_psi)
    assert isinstance(ws, WeylHalfPlane)
    assert ws.orientation == -1
    assert ws.level == pytest.approx(lam.imag * n_phi, rel=1e-9)
    # H(c) membership: the lam side of the line
    assert ws.contains(complex(1.0, lam.imag * n_phi - 0.5))
    assert not ws.contains(complex(1.0, lam.imag * n_phi + 0.5))


# -- radius identity ----------------------------------------------------------

def test_radius_identity_catalog():
    for name, lam, cs in (("constant_w", 1j, (1.0, 2.0, 4.0)),
                          ("lesch_malamud", 1j, (1.0, 2.0)),
                          ("free_identity", 0.5j, (1.0, 3.0))):
        kwargs = {"a": 1.0} if name == "lesch_malamud" else {}
        p, _ = builtin_example(name, **kwargs)
        for c in cs:
            assert radius_identity_residual(p, lam, c) <= 1e-6


def test_radius_identity_degenerate_halfplane():
    p = Problem(math.inf, math.pi / 2, CoefficientMeasure(),
                CoefficientMeasure(d22="1"))
    with pytest.raises(DegenerateHalfPlaneError):
        radius_identity_residual(p, 1j, 2.0)


# -- m routes -----------------------------------------------------------------

def test_m_from_boundary_identity_u():
    # below the atom the fundamental matrix is exactly the identity, so
    # m(beta) = -cot(beta) and beta = 0 maps to the point at infinity
    p, _ = builtin_example("bad_point_minus")
    c = 0.5
    fm = fundamental_matrix(p, 1j, c)
    assert np.array_equal(fm.at(c), np.eye(2))
    for beta in (0.3, 0.9, 1.4, 2.8):
        m = m_from_boundary(fm, c, beta)
        assert m == pytest.approx(-1.0 / math.tan(beta), rel=1e-12)
    assert m_from_boundary(fm, c, 0.0) == M_INFINITY  # -A/C with C = 0


def test_m_points_satisfy_circle_equation(rng):
    for _ in range(4):
        p = random_piecewise_problem(rng)
        lam = pick_lambda_outside_bad_set(p, rng, im_values=(1.0, -1.0))
        c = 2.7
        fm = fundamental_matrix(p, lam, c)
        A, B, C, D = fm.entries(c)
        scale = (abs(A) + abs(B) + abs(C) + abs(D)) ** 2
        for beta in rng.uniform(0.0, math.pi, size=10):
            m = m_from_boundary(fm, c, float(beta))
            if m == M_INFINITY:
                continue
            lhs = ((C * np.conj(D) - np.conj(C) * D) * abs(m) ** 2
                   + (A * np.conj(D) - B * np.conj(C)) * np.conj(m)
                   + (np.conj(B) * C - np.conj(A) * D) * m
                   + A * np.conj(B) - np.conj(A) * B)
            assert abs(lhs) <= 1e-8 * scale * (1.0 + abs(m) ** 2)


def test_m_bad_point_minus_value():
    p, _ = builtin_example("bad_point_minus")
    fm = fundamental_matrix(p, 2j, 2.0)
    for beta in np.linspace(0.0, math.pi, 8, endpoint=False):
        assert m_from_boundary(fm, 2.0, float(beta)) == \
            pytest.approx(1 + 1j, abs=1e-12)


def test_m_alt_bad_point_plus_value():
    p, _ = builtin_example("bad_point_plus")
    for beta in np.linspace(0.0, math.pi, 8, endpoint=False):
        assert m_alt(p, 2j, 2.0, float(beta)) == pytest.approx(1 + 1j, abs=1e-12)


def test_m_alt_agrees_with_boundary_route(rng):
    for _ in range(4):
        p = random_piecewise_problem(rng, with_atoms=False)
        lam = pick_lambda_outside_bad_set(p, rng, im_values=(1.0, -0.25))
        c = 2.3
        fm = fundamental_matrix(p, lam, c)
        for beta in rng.uniform(0.05, math.pi - 0.05, size=5):
            m1 = m_from_boundary(fm, c, float(beta))
            m2 = m_alt(p, lam, c, float(beta))
            assert abs(m1 - m2) <= 1e-8 * (1.0 + abs(m1))


def test_m_alt_small_c_limit():
    p, _ = builtin_example("free_identity")
    beta = 0.9
    m = m_alt(p, 1j, 1e-9, beta)
    assert m == pytest.approx(-1.0 / math.tan(beta), rel=1e-6)


# -- conjugate solutions --------------------------------------------------------

def test_conjugate_solution_real_coefficients():
    p, _ = builtin_example("free_identity")
    lam = 0.3 + 1.1j
    fm = fundamental_matrix(p, lam, 2.0, grid=[0.5, 1.0, 1.5, 2.0])
    sol = fm.column(1)
    conj = conjugate_solution(p, sol)
    for x in (0.5, 1.0, 2.0):
        assert rel_err(conj.at(x), np.conj(sol.at(x))) < 1e-10


def test_conjugate_solution_initial_value():
    p, _ = builtin_example("lesch_malamud", a=1.0)
    fm = fundamental_matrix(p, 1j, 1.0, grid=[0.0, 1.0])
    sol = fm.column(0)
    conj = conjugate_solution(p, sol)
    assert rel_err(conj.at(0.0), np.conj(sol.at(0.0))) < 1e-12


def test_conjugate_solution_solves_conjugate_equation(rng):
    """v = tau(., conj lam) conj(u) must match direct propagation of the
    conj(lam) equation from v(0) = conj(u(0)), atoms included."""
    for _ in range(5):
        p = random_piecewise_problem(rng)
        lam = pick_lambda_outside_bad_set(p, rng)
        xs = [0.9, 2.1, 3.9]
        fm = fundamental_matrix(p, lam, 4.0, grid=xs)
        sol = fm.combination(0.37 - 0.21j)
        conj = conjugate_solution(p, sol, xs=xs)
        fm_c = fundamental_matrix(p, np.conj(lam), 4.0, grid=xs)
        coeff = np.linalg.solve(fm_c.at(0.0), np.conj(sol.at(0.0)))
        for x in xs:
            want = fm_c.at(x) @ coeff
            assert rel_err(conj.at(x), want) < 1e-8


def test_conjugate_solution_at_atoms_matches_direct_propagation(rng):
    """One-sided and balanced values of v = tau(., conj lam) conj(u) at
    each crossed atom equal those of the conj(lam) propagation."""
    atoms_seen = 0
    for _ in range(8):
        p = random_piecewise_problem(rng, max_atoms=3)
        lam = pick_lambda_outside_bad_set(p, rng)
        fm = fundamental_matrix(p, lam, 5.9, grid=[1.0, 3.0, 5.9])
        sol = fm.combination(0.37 - 0.21j)
        conj = conjugate_solution(p, sol)
        fm_c = fundamental_matrix(p, np.conj(lam), 5.9)
        coeff = np.linalg.solve(fm_c.at(0.0), np.conj(sol.at(0.0)))
        for x in p.atom_positions:
            atoms_seen += 1
            assert rel_err(conj.left_at(x), fm_c.left_at(x) @ coeff) < 1e-10
            assert rel_err(conj.right_at(x), fm_c.right_at(x) @ coeff) < 1e-10
            assert rel_err(conj.at(x), fm_c.at(x) @ coeff) < 1e-10
    assert atoms_seen > 0


def test_tau_at_zero_is_one():
    p, _ = builtin_example("bad_point_minus")
    s = tau(p, 1j, 0.0)
    assert s.value == 1.0 and s.product == 1.0


def test_weyl_set_tol_null_override():
    p, _ = builtin_example("free_identity")
    fm = fundamental_matrix(p, 1j, 1.0)
    n_psi = solution_norm_sq(fm, 1.0, 1)
    forced = weyl_set(fm, 1.0, n_psi, tol_null=n_psi * 2.0)
    assert isinstance(forced, WeylHalfPlane)
    natural = weyl_set(fm, 1.0, n_psi)
    assert isinstance(natural, WeylDisk)


def test_lesch_malamud_a0_norm_closed_form():
    # indefinite case: the psi integrand collapses to e^{-4 Im(lam) x},
    # so ||psi||_c^2 = (1 - e^{-4vc})/(4v); quadrature must reproduce it
    p, rec = builtin_example("lesch_malamud", a=0.0)
    for lam in (1j, -0.5j, 0.3 + 1j):
        fm = fundamental_matrix(p, lam, 3.0)
        got = norm_quadrature(p, fm.column(1), 3.0).value
        want = rec.eval("psi_norm_sq", 3.0, lam)
        assert got == pytest.approx(want, rel=1e-8)


def test_weyl_set_radius_reads_tau():
    p, _ = builtin_example("constant_w")
    fm = fundamental_matrix(p, 1j, 1.0)
    n_psi = solution_norm_sq(fm, 1.0, 1)
    own = weyl_set(fm, 1.0, n_psi)
    t = tau(p, 1j, 1.0).value
    assert own.radius == weyl_set(fm, 1.0, n_psi, tau=t).radius
    assert weyl_set(fm, 1.0, n_psi, tau=2.0 * t).radius == pytest.approx(2.0 * own.radius,
                                                                         rel=1e-15)


@pytest.mark.parametrize("c", [1.5, 3.0])
def test_norm_quadrature_sums_the_atom_terms_of_the_crossings(c):
    # w is atoms only: a q-only atom at 1 adds nothing, the shared one at
    # 2 adds u#* Delta_w u# with u# the balanced value there
    p = Problem(4.0, 0.3,
                CoefficientMeasure(d11="0.5", d22="-0.2",
                                   atoms=[(1.0, [[0.4, 0.3j], [-0.3j, 0.2]]),
                                          (2.0, [[0.1, 0], [0, 0.6]])]),
                CoefficientMeasure(atoms=[(2.0, [[1.5, 0.5 - 0.2j], [0.5 + 0.2j, 0.7]])]))
    lam = 0.3 + 0.8j
    fm = fundamental_matrix(p, lam, c)
    for column in (0, 1):
        sol = fm.column(column)
        want = 0.0
        for x in p.atom_positions:
            if x < c:
                ub = sol.at(x)
                want += float(np.real(np.vdot(ub, p.delta_w(x) @ ub)))
        assert norm_quadrature(p, sol, c).value == pytest.approx(want, rel=1e-14, abs=0.0)
    if c < 2.0:
        assert norm_quadrature(p, fm.column(1), c).value == 0.0


# -- zero-norm cutoffs ----------------------------------------------------------

def restarted_cutoff(problem, c):
    """The cutoff at c summed afresh from 0: one quadrature of |w|_F on
    each span of (0, c), as ``CoefficientMeasure.mass`` runs it, plus
    |Delta_w|_F of each atom below c."""
    total = sum(float(np.linalg.norm(a.matrix)) for a in problem.w.atoms if a.position < c)
    for _, lo, hi in problem.spans(0.0, c):
        total += integrate(lambda x: np.linalg.norm(problem.w.density(x)), lo, hi,
                           limit=100)[0]
    return 1e-10 * (1.0 + total)


def test_cutoffs_over_a_grid_match_a_restart_from_zero_at_each_point(rng):
    problems = [(builtin_example(name)[0], None) for name in catalog_names()]
    problems.append((builtin_example("lesch_malamud", a=1.0)[0], None))
    problems.append((Problem(3.0, 0.0, CoefficientMeasure(),
                             CoefficientMeasure(d11="1+x*step(x-0.3)", d22="1",
                                                atoms=[(2.75, np.diag([0.6, 0.8]))])),
                     np.linspace(0.2, 2.9, 10)))
    problems += [(random_piecewise_problem(rng), np.geomspace(0.25, 5.0, 12))
                 for _ in range(8)]
    for problem, grid in problems:
        grid = default_c_grid(problem) if grid is None else grid
        got = null_norm_tolerance(problem, grid)
        want = [restarted_cutoff(problem, c) for c in grid]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), problem
        assert null_norm_tolerance(problem, grid[-1]) == pytest.approx(want[-1], rel=1e-13)


def test_cutoffs_quadrature_each_grid_gap_once(monkeypatch):
    # a fresh problem, so that no memo hides a quadrature
    problem = builtin_example("lesch_malamud", a=1.0)[0]
    grid = default_c_grid(problem)
    asked = []
    mass = CoefficientMeasure.mass

    def recorded(self, a, b):
        asked.append((a, b))
        return mass(self, a, b)

    monkeypatch.setattr(CoefficientMeasure, "mass", recorded)
    null_norm_tolerance(problem, grid)
    assert asked == list(zip([0.0, *grid[:-1]], grid))
    # the same gaps again, as for a second lam: the memo runs no quadrature
    quadratures = count_calls(monkeypatch, measures_module, "integrate")
    null_norm_tolerance(problem, grid)
    assert quadratures == []
