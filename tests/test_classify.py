import math

import numpy as np
import pytest

from weyl_canon.catalog import builtin_example
import weyl_canon.classify
import weyl_canon.propagation
import weyl_canon.weyl
from weyl_canon.classify import (
    ClassifyConfig,
    all_solutions_l2,
    default_c_grid,
    deficiency_indices,
    definiteness,
    detect_limit,
    trace_disks,
)
from weyl_canon.errors import BadPointError
from weyl_canon.measures import CoefficientMeasure, Problem
from weyl_canon.propagation import fundamental_matrix
from weyl_canon.weyl import WeylDisk, norm_lagrange

from conftest import (
    count_calls,
    pick_lambda_outside_bad_set,
    random_piecewise_problem,
    rel_err,
)


def halfplane_problem(w22="1/((1+x)^2)"):
    """alpha = pi/2 puts psi(0) = (-1, 0) in the null direction of
    w = diag(0, w22), so the Weyl sets are half planes at every c."""
    return Problem(math.inf, math.pi / 2, CoefficientMeasure(),
                   CoefficientMeasure(d22=w22))


def regular_finite_problem(b=2.0):
    return Problem(b, 0.0, CoefficientMeasure(),
                   CoefficientMeasure(d11="1", d22="1"))


# -- grids --------------------------------------------------------------------

def test_default_grid_finite_b_approaches_endpoint():
    p = regular_finite_problem(2.0)
    grid = default_c_grid(p)
    assert len(grid) == 24
    assert grid[0] == pytest.approx(min(1.0, 0.2))
    assert np.all(np.diff(grid) > 0)
    assert grid[-1] < 2.0


def test_default_grid_infinite_b_capped():
    p, _ = builtin_example("constant_w")
    grid = default_c_grid(p)
    assert len(grid) == 24
    assert grid[-1] == pytest.approx(30.0)
    explicit = default_c_grid(p, rho=1.5)
    assert explicit[1] / explicit[0] == pytest.approx(1.5)
    assert explicit[-1] <= 30.0


def test_grid_perturbs_atom_collisions():
    p, _ = builtin_example("bad_point_minus")
    grid = default_c_grid(p, c0=0.25, rho=2.0, count=8)
    assert all(c not in p.atom_positions for c in grid)
    assert np.all(np.diff(grid) > 0)


# -- traces -------------------------------------------------------------------

def test_trace_requires_nonreal_lambda():
    p, _ = builtin_example("constant_w")
    with pytest.raises(ValueError):
        trace_disks(p, 1.0)


def test_trace_rejects_bad_lambda():
    p, _ = builtin_example("bad_point_minus")
    with pytest.raises(BadPointError):
        trace_disks(p, 2j)


def test_trace_radii_strictly_decreasing():
    p, _ = builtin_example("constant_w")
    trace = trace_disks(p, 1j)
    radii = [pt.wset.radius for pt in trace.points]
    assert all(b < a for a, b in zip(radii, radii[1:]))


def test_nesting_invariant_on_catalog():
    for name, kw in (("constant_w", {}), ("lesch_malamud", {"a": 1.0}),
                     ("free_identity", {}), ("lesch_malamud", {"a": 0.0})):
        p, _ = builtin_example(name, **kw)
        trace = trace_disks(p, 1j)
        disks = trace.disk_points()
        for early, late in zip(disks, disks[1:]):
            slack = 1e-8 * max(1.0, early.wset.radius)
            assert (abs(late.wset.center - early.wset.center)
                    + late.wset.radius) <= early.wset.radius + slack


def test_nesting_invariant_on_random_problems(rng):
    for _ in range(6):
        p = random_piecewise_problem(rng)
        lam = pick_lambda_outside_bad_set(p, rng)
        trace = trace_disks(p, lam, np.linspace(0.8, 5.4, 9))
        disks = trace.disk_points()
        for early, late in zip(disks, disks[1:]):
            slack = 1e-8 * max(1.0, early.wset.radius)
            assert (abs(late.wset.center - early.wset.center)
                    + late.wset.radius) <= early.wset.radius + slack


def test_halfplane_to_disk_transition_is_one_way(rng):
    # piecewise w: null direction aligned with psi(0) on the first piece,
    # positive definite afterwards: half planes then disks.
    p = Problem(
        math.inf, math.pi / 2,
        CoefficientMeasure(),
        CoefficientMeasure(d11="step(x-2)", d22="1", breakpoints=[2.0]),
    )
    trace = trace_disks(p, 1j, np.array([0.5, 1.0, 1.5, 2.5, 3.0, 3.5, 4.0, 4.5]))
    branches = [pt.wset.branch for pt in trace.points]
    flip = branches.index("disk")
    assert all(b == "halfplane" for b in branches[:flip])
    assert all(b == "disk" for b in branches[flip:])


# -- detect_limit ---------------------------------------------------------------

def test_detect_limit_needs_eight_points():
    p, _ = builtin_example("constant_w")
    trace = trace_disks(p, 1j, np.linspace(0.5, 3.0, 5))
    with pytest.raises(ValueError):
        detect_limit(trace)


def test_limit_point_constant_w_center():
    p, rec = builtin_example("constant_w")
    verdict = detect_limit(trace_disks(p, 1j))
    assert verdict.kind == "LimitPoint"
    assert verdict.m0 == pytest.approx(rec.expected["m_limit"](1j), abs=1e-6)
    verdict_dn = detect_limit(trace_disks(p, -1j))
    assert verdict_dn.m0 == pytest.approx(-2j, abs=1e-6)


def test_limit_point_free_identity():
    p, rec = builtin_example("free_identity")
    verdict = detect_limit(trace_disks(p, 1j))
    assert verdict.kind == "LimitPoint"
    assert verdict.m0 == pytest.approx(1j, abs=1e-6)


def test_limit_circle_regular_finite_endpoint():
    p = regular_finite_problem(2.0)
    grid = default_c_grid(p, count=32)
    verdict = detect_limit(trace_disks(p, 1j, grid))
    assert verdict.kind == "LimitCircle"
    assert verdict.disk.radius == pytest.approx(1.0 / math.sinh(4.0), rel=1e-3)


def test_halfplane_limit_and_empty_limit():
    p_lim = halfplane_problem("1/((1+x)^2)")
    verdict = detect_limit(trace_disks(p_lim, 1j))
    assert verdict.kind == "HalfPlaneLimit"
    assert verdict.level == pytest.approx(1.0, rel=1e-2)

    p_empty = halfplane_problem("1")
    verdict = detect_limit(trace_disks(p_empty, 1j))
    assert verdict.kind == "EmptyLimit"
    assert verdict.level_diverges


def test_detect_limit_stable_under_grid_refinement():
    for name, kw in (("constant_w", {}), ("lesch_malamud", {"a": 1.0}),
                     ("free_identity", {}), ("lesch_malamud", {"a": 0.0})):
        p, _ = builtin_example(name, **kw)
        coarse = default_c_grid(p)
        fine = default_c_grid(p, count=48)
        v1 = detect_limit(trace_disks(p, 1j, coarse))
        v2 = detect_limit(trace_disks(p, 1j, fine))
        assert v1.kind == v2.kind == "LimitPoint"
        assert v1.m0 == pytest.approx(v2.m0, abs=1e-6)


# -- definiteness ----------------------------------------------------------------

def test_definiteness_catalog():
    p0, rec0 = builtin_example("lesch_malamud", a=0.0)
    d0 = definiteness(p0)
    assert not d0.definite and d0.dim_null_space == 1
    target = rec0.expected["null_vector"]
    assert abs(np.vdot(d0.null_vector, target)) == pytest.approx(1.0, abs=1e-10)

    p1, _ = builtin_example("lesch_malamud", a=1.0)
    d1 = definiteness(p1)
    assert d1.definite and d1.dim_null_space == 0 and d1.null_vector is None

    p2, _ = builtin_example("constant_w")
    d2 = definiteness(p2)
    assert d2.definite


# -- deficiency indices -----------------------------------------------------------

def test_deficiency_catalog_values():
    p, _ = builtin_example("lesch_malamud", a=1.0)
    rep = deficiency_indices(p, 1j)
    assert (rep.n_plus, rep.n_minus) == (2, 1)
    assert not rep.inconclusive
    assert rep.tau_trend == "toZero"
    assert rep.tau_trend_conjugate == "toInfinity"

    p, _ = builtin_example("constant_w")
    rep = deficiency_indices(p, 1j)
    assert (rep.n_plus, rep.n_minus) == (1, 1)
    assert rep.tau_trend == "toZero"   # tau -> 0 yet n+ = n-

    p, _ = builtin_example("free_identity")
    rep = deficiency_indices(p, 1j)
    assert (rep.n_plus, rep.n_minus) == (1, 1)
    assert rep.tau_trend == "boundedAway"


def test_deficiency_conjugate_symmetry():
    p, _ = builtin_example("lesch_malamud", a=1.0)
    up = deficiency_indices(p, 1j)
    dn = deficiency_indices(p, -1j)
    assert (up.n_plus, up.n_minus) == (dn.n_plus, dn.n_minus) == (2, 1)
    assert up.verdict.kind == dn.verdict_conjugate.kind
    assert up.tau_trend == dn.tau_trend_conjugate


def test_deficiency_halfplane_cases():
    rep = deficiency_indices(halfplane_problem("1/((1+x)^2)"), 1j)
    assert (rep.n_plus, rep.n_minus) == (1, 1)
    assert not rep.definite and rep.dim_null_space == 1

    rep = deficiency_indices(halfplane_problem("1"), 1j)
    assert (rep.n_plus, rep.n_minus) == (0, 0)


def test_deficiency_regular_finite_endpoint():
    rep = deficiency_indices(regular_finite_problem(), 1j)
    assert (rep.n_plus, rep.n_minus) == (2, 2)
    assert rep.definite


def test_report_json_schema():
    p, _ = builtin_example("constant_w")
    doc = deficiency_indices(p, 1j).to_dict()
    assert doc["schema"] == "weyl-canon/report/v1"
    assert doc["nPlus"] == 1 and doc["nMinus"] == 1
    assert doc["lambda"] == [0.0, 1.0]
    assert doc["tauTrend"] == "toZero"
    assert isinstance(doc["diagnostics"]["upper"]["finalRadius"], float)
    # must be JSON serializable end to end
    import json
    json.loads(json.dumps(doc))


# -- all solutions L2 --------------------------------------------------------------

def test_all_solutions_l2_catalog():
    p, _ = builtin_example("lesch_malamud", a=1.0)
    assert all_solutions_l2(p, 1j) is True
    assert all_solutions_l2(p, -1j) is False
    p, _ = builtin_example("constant_w")
    assert all_solutions_l2(p, 1j) is False


def test_l2_richness_propagates_across_lambda(rng):
    """When every solution is L^2 at lam0 and conj(lam0), the same holds
    at freshly sampled lam and the indices equal 2 - dim L0."""
    p = regular_finite_problem(3.0)
    assert all_solutions_l2(p, 0.4 + 0.9j)
    assert all_solutions_l2(p, 0.4 - 0.9j)
    for _ in range(5):
        lam = complex(rng.uniform(-1.5, 1.5),
                      float(rng.choice([-1, 1])) * rng.uniform(0.2, 2.0))
        assert all_solutions_l2(p, lam)
    rep = deficiency_indices(p, 0.4 + 0.9j)
    assert rep.n_plus == rep.n_minus == 2 - rep.dim_null_space


def test_at_least_one_l2_solution_exists(rng):
    """Either psi has zero norm or chi at the last disk center has a
    converging norm: some non-trivial solution lies in L^2(w)."""
    for name, kw, lam in (("constant_w", {}, 1j),
                          ("lesch_malamud", {"a": 1.0}, 1j),
                          ("lesch_malamud", {"a": 1.0}, -1j),
                          ("free_identity", {}, 1j)):
        p, _ = builtin_example(name, **kw)
        trace = trace_disks(p, lam)
        last = trace.points[-1]
        if last.psi_norm_sq <= 1e-10:
            continue
        assert isinstance(last.wset, WeylDisk)
        m0 = last.wset.center
        cs = trace.cs
        fm = fundamental_matrix(p, lam, float(cs[-1]), grid=cs)
        chi = fm.combination(m0)
        norms = [norm_lagrange(chi.at(0.0), chi.at(float(c)), lam, c).value
                 for c in cs]
        # converging: increments die off
        inc = np.diff(norms[-6:])
        assert inc[-1] <= 0.05 * max(norms[-1], 1e-12)


def test_corollary_consistency_asymmetric_indices():
    """n+ != n- must come with opposite tau trends."""
    p, _ = builtin_example("lesch_malamud", a=1.0)
    rep = deficiency_indices(p, 1j)
    assert rep.n_plus != rep.n_minus
    assert {rep.tau_trend, rep.tau_trend_conjugate} == {"toZero", "toInfinity"}


def test_config_thresholds_exposed():
    config = ClassifyConfig(lp_ratio=0.5)
    p, _ = builtin_example("constant_w")
    verdict = detect_limit(trace_disks(p, 1j), config)
    assert verdict.kind == "LimitPoint"


def truncating_problem():
    # q = diag(1, -1) with w = I on (0, 1) only: psi grows like e^x while
    # its w-norm stays bounded, so the disk's denominator
    # C conj(D) - conj(C) D falls into the rounding noise of |C||D|
    return Problem(math.inf, 0.0, CoefficientMeasure(d11="1", d22="-1"),
                   CoefficientMeasure(d11="step(1-x)", d22="step(1-x)"))


@pytest.mark.parametrize("lam, kept, truncated_at", [
    (1j, 18, 14.3221), (2j, 18, 14.3221), (0.5 + 0.5j, 17, 12.3534)],
    ids=["i", "2i", "0.5+0.5i"])
def test_trace_truncation_is_reported(lam, kept, truncated_at):
    trace = trace_disks(truncating_problem(), lam)
    assert trace.truncated_at == pytest.approx(truncated_at, abs=1e-4)
    assert len(trace.points) == kept
    assert trace.points[-1].c < trace.truncated_at


def test_trace_judges_each_disk_denominator_once(monkeypatch):
    # counted wherever the name is bound, so a module that imported it
    # and judges the denominator itself is counted too
    counts = [count_calls(monkeypatch, module, "_disk_denominator")
              for module in (weyl_canon.weyl, weyl_canon.classify)
              if hasattr(module, "_disk_denominator")]
    p, _ = builtin_example("constant_w")
    trace = trace_disks(p, 1j)
    assert len(trace.disk_points()) == len(trace.points) == 24
    assert sum(len(calls) for calls in counts) == 24


def test_truncated_traces_still_give_the_indices():
    # w = 0 beyond x = 1, so every solution is in L^2(w): (2, 2) at any lam
    report = deficiency_indices(truncating_problem(), 2j)
    assert (report.n_plus, report.n_minus) == (2, 2)
    assert not report.inconclusive


def test_asymmetric_indices_need_opposite_tau_trends(monkeypatch):
    monkeypatch.setattr(weyl_canon.classify, "classify_tau_trend",
                        lambda cs, tau_abs, config=None: "boundedAway")
    p, _ = builtin_example("lesch_malamud", a=1.0)
    report = deficiency_indices(p, 1j)
    assert report.n_plus is None and report.n_minus is None
    assert report.inconclusive
    assert any("opposite tau trends" in note
               for note in report.diagnostics["notes"])


def test_caller_grid_perturbed_off_atoms():
    p, _ = builtin_example("bad_point_minus")
    trace = trace_disks(p, 1j, np.array([0.5, 1.0, 1.5, 2.0]))
    cs = [pt.c for pt in trace.points]
    assert all(c not in p.atom_positions for c in cs)
    assert len(cs) == 4


def test_caller_grid_ending_on_an_atom_is_nudged_before_definiteness():
    p, _ = builtin_example("bad_point_minus")
    grid = np.linspace(1 / 8, 1, 8)         # ends on the atom at x = 1
    report = deficiency_indices(p, 1j, c_grid=grid)
    cs = report.diagnostics["cGrid"]
    assert cs[-1] > 1.0 and report.diagnostics["definiteUpTo"] == cs[-1]
    assert cs == [pt.c for pt in trace_disks(p, 1j, grid).points]


def test_non_finite_caller_grids_are_refused():
    p, _ = builtin_example("constant_w")
    for grid in ([1.0, math.nan], [1.0, math.inf], [math.nan]):
        with pytest.raises(ValueError, match="finite"):
            trace_disks(p, 1j, grid)
        with pytest.raises(ValueError, match="finite"):
            deficiency_indices(p, 1j, c_grid=grid)


def test_empty_grids_are_refused():
    for name in ("bad_point_minus", "constant_w"):
        p, _ = builtin_example(name)
        with pytest.raises(ValueError, match="non-empty"):
            trace_disks(p, 1j, [])
        with pytest.raises(ValueError, match="non-empty"):
            deficiency_indices(p, 1j, c_grid=[])
        with pytest.raises(ValueError, match="count"):
            default_c_grid(p, count=0)


def test_deficiency_indices_off_axis_lambda():
    """Indices depend only on the half-plane of lambda, not its value."""
    cases = [
        ("lesch_malamud", {"a": 0.5}, (2, 1)),
        ("constant_w", {}, (1, 1)),
        ("free_identity", {}, (1, 1)),
    ]
    for name, kw, want in cases:
        p, _ = builtin_example(name, **kw)
        for lam in (0.7 + 0.4j, -1.3 + 0.9j, 2.0 - 0.6j, 0.25j):
            rep = deficiency_indices(p, lam)
            assert (rep.n_plus, rep.n_minus) == want, (name, lam)
            assert not rep.inconclusive


def test_deficiency_indefinite_asymmetric_case():
    # a = 0: psi norm converges to 1/4 in the upper half-plane (the
    # integrand is exactly e^{-4 Im(lam) x} there) and diverges below;
    # with dim L0 = 1 the dichotomy gives (2-1, 1-1) = (1, 0).
    p, _ = builtin_example("lesch_malamud", a=0.0)
    rep = deficiency_indices(p, 1j)
    assert (rep.n_plus, rep.n_minus) == (1, 0)
    assert {rep.tau_trend, rep.tau_trend_conjugate} == {"toZero", "toInfinity"}


# -- the conjugate side from one upper sweep ---------------------------------

def _assert_entries_match_direct_solve(problem, lam, c_grid=None, rtol=1e-9):
    """The lower trace, read off the conj(lam) propagation, against an
    independent propagation at lam itself, entry by entry."""
    trace = trace_disks(problem, lam, c_grid)
    direct = fundamental_matrix(problem, lam, float(trace.cs[-1]),
                                grid=trace.cs)
    for pt in trace.points:
        for got, want in zip(pt.wset.entries, direct.entries(pt.c)):
            assert abs(got - want) <= rtol * abs(want), (lam, pt.c)
    return trace


def test_lower_trace_matches_direct_solve_on_random_problems():
    # the seeded problems and lambda of acceptance criterion 7
    rng = np.random.default_rng(701)
    checked = 0
    for k in range(50):
        problem = random_piecewise_problem(rng, max_atoms=3)
        lam = pick_lambda_outside_bad_set(problem, rng)
        c = float(rng.integers(16, 20) if k % 10 == 0
                  else rng.integers(2, 10)) * 0.25 + 0.11
        if not problem.atom_positions:
            continue
        grid = [c / 3.0, 2.0 * c / 3.0, c]
        trace = _assert_entries_match_direct_solve(
            problem, complex(lam.real, -abs(lam.imag)), grid)
        assert len(trace.points) == 3
        checked += 1
    assert checked >= 30


def test_lower_trace_matches_direct_solve_on_lesch_malamud():
    p, _ = builtin_example("lesch_malamud", a=1.0)
    for lam in (-1j, -2j):
        trace = _assert_entries_match_direct_solve(p, lam)
        assert trace.truncated_at == trace_disks(p, -lam).truncated_at


def test_deficiency_indices_propagates_only_upper_and_at_zero(monkeypatch):
    seen = []
    original = weyl_canon.propagation.fundamental_matrix

    def recording(problem, lam, c, grid=None):
        seen.append(complex(lam))
        return original(problem, lam, c, grid=grid)

    monkeypatch.setattr(weyl_canon.propagation, "fundamental_matrix", recording)
    monkeypatch.setattr(weyl_canon.classify, "fundamental_matrix", recording)
    rng = np.random.default_rng(17)
    problems = [builtin_example("lesch_malamud", a=1.0)[0],
                random_piecewise_problem(rng, max_atoms=3)]
    for p in problems:
        for lam in (1j, -0.5 - 1j):
            seen.clear()
            deficiency_indices(p, lam)
            assert sorted(seen, key=lambda z: z.imag) == \
                [0j, complex(lam.real, abs(lam.imag))]
            seen.clear()
            trace_disks(p, lam)
            assert seen == [complex(lam.real, abs(lam.imag))]


def test_bad_lambda_refused_on_both_sides():
    for name in ("bad_point_minus", "bad_point_plus"):
        p, rec = builtin_example(name)
        bad = rec.expected["bad_lambda"]
        for lam in (bad, bad.conjugate()):
            with pytest.raises(BadPointError):
                trace_disks(p, lam)
            with pytest.raises(BadPointError):
                deficiency_indices(p, lam)


def test_lesch_malamud_at_2i_keeps_its_indices():
    # the radius from tau keeps the whole upper trace, so the psi-norm
    # increments no longer read as diverging past a det-noise cut
    p, rec = builtin_example("lesch_malamud", a=1.0)
    rep = deficiency_indices(p, 2j)
    assert (rep.n_plus, rep.n_minus) == (2, 1)
    assert (rep.n_plus, rep.n_minus) == (rec.expected["n_plus"], rec.expected["n_minus"])
    assert not rep.inconclusive


@pytest.mark.parametrize("name, params", [
    ("lesch_malamud", {"a": 0.0}), ("lesch_malamud", {"a": 1.0}),
    ("constant_w", {}), ("free_identity", {})])
@pytest.mark.parametrize("lam", [1j, 2j, 0.5 - 1j, -0.5 + 0.5j])
def test_catalog_traces_keep_every_point_with_closed_form_radii(name, params, lam):
    p, rec = builtin_example(name, **params)
    trace = trace_disks(p, lam)
    assert trace.truncated_at is None
    assert len(trace.points) == 24
    for pt in trace.points:
        u = rec.eval("U", pt.c, lam)
        C, D = u[0, 1], u[1, 1]
        want = abs(rec.eval("tau", pt.c, lam)) / abs(C * np.conj(D) - np.conj(C) * D)
        assert isinstance(pt.wset, WeylDisk)
        assert abs(pt.wset.radius - want) <= 1e-9 * want


def test_deficiency_indices_takes_definiteness_at_the_grids_last_point():
    p, _ = builtin_example("free_identity")
    report = deficiency_indices(p, 1j, c_grid=[2.0, 5.0, 10.0])
    assert report.diagnostics["definiteUpTo"] == 10.0
