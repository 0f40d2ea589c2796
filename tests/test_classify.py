import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from weyl_canon.catalog import builtin_example
import weyl_canon.classify
import weyl_canon.propagation
import weyl_canon.weyl
from weyl_canon.classify import (
    ClassifyConfig,
    all_solutions_l2,
    classify_norm_growth,
    default_c_grid,
    deficiency_indices,
    definiteness,
    detect_limit,
    perturb_off_atoms,
    trace_disks,
)
from weyl_canon.errors import (
    BadPointError,
    DegenerateUError,
    NonRealResultError,
    WeylCanonError,
)
from weyl_canon.measures import CoefficientMeasure, Problem, parse_problem
from weyl_canon.propagation import bad_points, fundamental_matrix, kernel_gram
from weyl_canon.weyl import (
    WeylDisk,
    conjugate_fundamental,
    norm_lagrange,
    null_norm_tolerance,
    radius_identity_residual,
    tau_profile,
    weyl_set,
)

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


def test_default_grid_refuses_points_that_round_to_a_finite_b():
    # c_k = b - (b - c0) rho^-k rounds to b = 4 from about k = 90 on
    # when rho = 1.5, and from about k = 33 on when rho = 3
    p = regular_finite_problem(4.0)
    for kwargs in ({"count": 100}, {"count": 120}, {"rho": 3.0, "count": 40}):
        with pytest.raises(ValueError, match=r"count=\d+ and rho=[\d.]+ do not keep"):
            default_c_grid(p, **kwargs)
    grid = default_c_grid(p, count=80)
    assert np.all(np.diff(grid) > 0) and grid[-1] < 4.0
    assert default_c_grid(p, count=100, c_max=3.9)[-1] <= 3.9


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
    # and judges the denominator itself is counted too; each call may
    # judge a whole array of denominators, so the count is their number
    judged = []
    for module in (weyl_canon.weyl, weyl_canon.classify):
        if hasattr(module, "_disk_denominator"):
            original = module._disk_denominator

            def counted(C, D, *args, original=original):
                judged.append(np.size(C))
                return original(C, D, *args)

            monkeypatch.setattr(module, "_disk_denominator", counted)
    p, _ = builtin_example("constant_w")
    trace = trace_disks(p, 1j)
    assert len(trace.disk_points()) == len(trace.points) == 24
    assert sum(judged) == 24


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


def test_bad_lambda_refusals_name_the_lambda_checked_first():
    # trace_disks checks the lambda it is given; deficiency_indices checks
    # the upper half plane first, and conj(lam) is bad exactly when lam is
    for name in ("bad_point_minus", "bad_point_plus"):
        p, rec = builtin_example(name)
        bad = rec.expected["bad_lambda"]
        upper = complex(bad.real, abs(bad.imag))
        for lam in (bad, bad.conjugate()):
            with pytest.raises(BadPointError) as info:
                trace_disks(p, lam)
            assert info.value.report.lam == lam
            assert info.value.report.positions == p.atom_positions
            with pytest.raises(BadPointError) as info:
                deficiency_indices(p, lam)
            assert info.value.report.lam == upper
            assert info.value.report.positions == p.atom_positions


def test_each_public_call_reads_the_atoms_once_per_lambda(monkeypatch):
    p = Problem(8.0, 0.3,
                CoefficientMeasure(d11="1", atoms=[(1.0, [[1, 0.5j], [-0.5j, 1]]),
                                                   (2.5, [[0.5, 0], [0, -0.5]])]),
                CoefficientMeasure(d11="1", d22="1",
                                   atoms=[(1.0, [[1, 0], [0, 0]]),
                                          (4.0, [[0.5, 0.2], [0.2, 0.5]])]))
    n = len(p.atom_positions)
    assert n == 3
    lam = 0.3 + 1j
    # lambda = 0 for the kernel Gram matrix, lam and conj(lam) for the traces
    readings = {
        "fundamental_matrix": (lambda: fundamental_matrix(p, lam, 5.0), n),
        "tau_profile": (lambda: tau_profile(p, lam, [0.5, 3.0, 5.0]), n),
        "kernel_gram": (lambda: kernel_gram(p, 5.0), n),
        "weyl_set": (lambda: weyl_set(fundamental_matrix(p, lam, 5.0), 5.0, 1.0), n),
        "radius_identity_residual": (lambda: radius_identity_residual(p, lam, 5.0), n),
        "trace_disks upper": (lambda: trace_disks(p, lam), n),
        "trace_disks lower": (lambda: trace_disks(p, lam.conjugate()), 2 * n),
        "deficiency_indices upper": (lambda: deficiency_indices(p, lam), 3 * n),
        "deficiency_indices lower": (
            lambda: deficiency_indices(p, lam.conjugate()), 3 * n),
    }
    calls = count_calls(monkeypatch, weyl_canon.propagation, "jump_matrices")
    for name, (call, want) in readings.items():
        calls.clear()
        call()
        assert len(calls) == want, name


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


# -- the array pass against the per-point loop ---------------------------------

_BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"


def _bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", _BENCH_INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_trace(problem, lam, c_grid):
    """The trace one grid point at a time, from the public scalar route
    only: (points, truncated_at) with points (c, wset, psi, phi, tau)."""
    lam = complex(lam)
    if bad_points(problem, lam).in_lambda_set:
        raise BadPointError(bad_points(problem, lam))
    lam_up = complex(lam.real, abs(lam.imag))
    fm = fundamental_matrix(problem, lam_up, float(c_grid[-1]), grid=c_grid)
    taus = tau_profile(problem, lam, c_grid)
    if lam != lam_up:
        fm = conjugate_fundamental(fm, taus)
    u0 = fm.at(0.0)
    points = []
    for c, ts in zip(c_grid, taus):
        uc = fm.at(float(c))
        n_psi = norm_lagrange(u0[:, 1], uc[:, 1], lam, c).value
        n_phi = norm_lagrange(u0[:, 0], uc[:, 0], lam, c).value
        try:
            ws = weyl_set(fm, c, n_psi, tol_null=null_norm_tolerance(problem, c),
                          tau=ts.value)
        except DegenerateUError:
            if not points:
                raise
            return points, float(c)
        points.append((float(c), ws, n_psi, n_phi, ts.value))
    return points, None


# set beforehand from float64 rounding, not from observed differences
REFERENCE_RTOL = 1e-13


def assert_matches_reference(problem, lam, c_grid):
    c_grid = perturb_off_atoms(c_grid, problem)
    try:
        points, truncated_at = reference_trace(problem, lam, c_grid)
    except WeylCanonError as exc:
        with pytest.raises(type(exc)):
            trace_disks(problem, lam, c_grid)
        return
    trace = trace_disks(problem, lam, c_grid)
    assert trace.truncated_at == truncated_at
    assert len(trace.points) == len(points)

    def close(a, b):
        return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))

    for got, (c, ws, n_psi, n_phi, tau) in zip(trace.points, points):
        assert (got.c, got.tau) == (c, tau)
        assert type(got.wset) is type(ws)
        assert close(got.psi_norm_sq, n_psi) and close(got.phi_norm_sq, n_phi)
        assert all(close(e, f) for e, f in zip(got.wset.entries, ws.entries))
        if isinstance(ws, WeylDisk):
            assert close(got.wset.center, ws.center)
            assert close(got.wset.radius, ws.radius)
        else:
            assert got.wset.orientation == ws.orientation
            assert close(got.wset.level, ws.level)
            assert close(got.wset.rho, ws.rho)


@pytest.mark.parametrize("name, params", [
    ("lesch_malamud", {"a": 1.0}), ("lesch_malamud", {"a": 0.0}),
    ("constant_w", {}), ("free_identity", {}),
    ("bad_point_minus", {}), ("bad_point_plus", {})])
@pytest.mark.parametrize("lam", [1j, 2j, 0.5 - 1j, -0.5 + 0.5j])
def test_catalog_traces_match_the_per_point_loop(name, params, lam):
    p, _ = builtin_example(name, **params)
    for side in (lam, lam.conjugate()):
        assert_matches_reference(p, side, default_c_grid(p))


def test_benchmark_documents_trace_as_the_per_point_loop():
    inputs = _bench_inputs()
    ops = inputs.piecewise_operations(1)
    assert sum(op["lam"].imag < 0 for op in ops) == len(ops) // 2
    for op in ops:
        assert_matches_reference(parse_problem(op["text"]), op["lam"],
                                 inputs.PIECEWISE_GRID)


@pytest.mark.parametrize("lam", [1j, 2j, 0.5 + 0.5j])
def test_truncated_traces_match_the_per_point_loop(lam):
    p = truncating_problem()
    for side in (lam, lam.conjugate()):
        assert_matches_reference(p, side, default_c_grid(p))
    assert trace_disks(p, lam).truncated_at is not None


@pytest.mark.parametrize("lam", [1j, 0.5 - 1j])
def test_halfplane_traces_match_the_per_point_loop(lam):
    p = halfplane_problem()
    assert_matches_reference(p, lam, default_c_grid(p))
    assert not trace_disks(p, lam).disk_points()


# -- cutoffs and growth exponents ----------------------------------------------

def test_deficiency_indices_forms_the_cutoffs_in_one_pass(monkeypatch):
    # the trace's cutoffs and the norm classes' last one come from one
    # w_mass pass over the grid, not a restart per point and per class
    p = builtin_example("lesch_malamud", a=1.0)[0]
    calls = count_calls(monkeypatch, Problem, "w_mass")
    report = deficiency_indices(p, 1j)
    assert len(calls) == 1
    assert (report.n_plus, report.n_minus, report.inconclusive) == (2, 1, False)


def test_growth_exponent_is_the_least_squares_slope(rng, monkeypatch):
    cs = np.geomspace(1.0, 30.0, 24)
    tails = [np.exp(rng.uniform(-2.0, 2.0) * cs + rng.normal(0.0, 0.1, cs.size))
             for _ in range(20)]
    tails += [np.full(cs.size, v) + rng.normal(0.0, 1e-15, cs.size) for v in (1.0, 2.5)]
    tail = slice(cs.size // 2, None)
    fits = [np.polyfit(cs[tail], np.log(values[tail]), 1)[0] for values in tails]

    def no_fit(*args, **kwargs):
        raise AssertionError("the slope needs no least-squares solver")

    monkeypatch.setattr(np, "polyfit", no_fit)
    for values, fit in zip(tails, fits):
        _, info = classify_norm_growth(cs, values, 0.0)
        assert info["growthExponent"] == pytest.approx(fit, rel=1e-12, abs=1e-15)


# -- every verdict branch of detect_limit ---------------------------------------

def synthetic_trace(kinds, lam=1j, phi=None):
    """DiskTrace on c = 1, 2, ...: ("disk", radius) or ("half", level) at
    each point, with phi norms ``phi`` (default 1)."""
    from weyl_canon.classify import DiskTrace, TracePoint
    from weyl_canon.weyl import WeylHalfPlane

    points = []
    for k, (kind, v) in enumerate(kinds):
        c = float(k + 1)
        entries = (1 + 0j, 0j, 0j, 1 + 0j)
        ws = (WeylDisk(c, lam, complex(k, 1), v, entries) if kind == "disk"
              else WeylHalfPlane(c, lam, v, 1 if lam.imag > 0 else -1, 1 + 0j, entries))
        points.append(TracePoint(c, ws, 1.0, 1.0 if phi is None else phi[k], 1 + 0j))
    return DiskTrace(lam, tuple(points))


def test_detect_limit_branches_on_disks():
    kinds = [("half", 1.0)] * 3 + [("disk", 1.0)] * 3 + [("half", 1.0)] + [("disk", 1.0)] * 3
    verdict = detect_limit(synthetic_trace(kinds))
    assert (verdict.kind, verdict.detail) == (
        "Inconclusive", "half-plane branch reappeared after disks")
    verdict = detect_limit(synthetic_trace([("half", 1.0)] * 6 + [("disk", 1.0)] * 3))
    assert (verdict.kind, verdict.detail) == ("Inconclusive", "too few disk points")

    trace = synthetic_trace([("half", 1.0)] * 2 + [("disk", 0.1 ** k) for k in range(10)])
    verdict = detect_limit(trace)
    assert verdict.kind == "LimitPoint"
    assert verdict.disk is trace.points[-1].wset and verdict.m0 == complex(11, 1)
    trace = synthetic_trace([("disk", 2.0 - 0.5 ** k) for k in range(3)] + [("disk", 2.0)] * 6)
    verdict = detect_limit(trace)
    assert verdict.kind == "LimitCircle" and verdict.disk is trace.points[-1].wset
    verdict = detect_limit(synthetic_trace([("disk", 1.0 + k % 2) for k in range(9)]))
    assert (verdict.kind, verdict.disk) == ("Inconclusive", None)
    assert verdict.detail == "radius trend unresolved (last ratio 0.5000, rel change 1.00e+00)"


@pytest.mark.parametrize("lam", [1j, -1j])
def test_detect_limit_branches_on_half_planes(lam):
    sign = 1.0 if lam.imag > 0 else -1.0

    def verdict(levels, phi=None):
        return detect_limit(synthetic_trace([("half", sign * v) for v in levels], lam, phi))

    runaway = verdict([10.0 ** (2 * k) for k in range(10)])
    assert (runaway.kind, runaway.level_diverges) == ("EmptyLimit", True)
    assert runaway.level == sign * 1e18
    runaway = verdict([2.0] * 10, phi=[10.0 ** (2 * k) for k in range(10)])
    assert (runaway.kind, runaway.level) == ("EmptyLimit", sign * 2.0)
    limit = verdict([1.0 - 0.5 ** k for k in range(1, 11)])
    assert limit.kind == "HalfPlaneLimit"
    assert limit.level == pytest.approx(sign * 1.0, rel=1e-12)
    assert verdict([2.0] * 10).level == sign * 2.0       # no increments: the last level
    unresolved = verdict([float(k) for k in range(1, 11)])
    assert (unresolved.kind, unresolved.detail) == (
        "Inconclusive", "half-plane level trend unresolved")


# -- no objects per point, no quadrature of a closed-form E ----------------------

def test_deficiency_indices_builds_no_object_per_point(monkeypatch):
    from weyl_canon.classify import TracePoint
    from weyl_canon.weyl import TauSample

    built = {cls: [] for cls in (TracePoint, TauSample, WeylDisk)}
    for cls, calls in built.items():
        original = cls.__init__

        def counted(self, *args, calls=calls, original=original, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    for name, params in [("free_identity", {}), ("lesch_malamud", {"a": 1.0}),
                         ("constant_w", {}), ("bad_point_minus", {})]:
        p, _ = builtin_example(name, **params)
        for calls in built.values():
            calls.clear()
        report = deficiency_indices(p, 0.5 - 1j)
        assert len(built[TracePoint]) == len(built[TauSample]) == 0
        assert len(built[WeylDisk]) == sum(
            v.disk is not None for v in (report.verdict, report.verdict_conjugate)) <= 2


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_lesch_malamud_runs_no_kronrod_rule(monkeypatch, a):
    import weyl_canon.quadrature as quadrature

    p, _ = builtin_example("lesch_malamud", a=a)
    grid = default_c_grid(p)
    rules = count_calls(monkeypatch, quadrature, "_kronrod21")
    fm = fundamental_matrix(p, 1j, float(grid[-1]), grid=grid)
    fm.at(7.3)
    tau_profile(p, 0.5 - 1j, grid)
    kernel_gram(p, float(grid[-1]))
    assert rules == []


def test_lower_trace_overflow_is_a_non_real_result():
    # tau conj(U) overflows below the axis at lam = 10i; under
    # error::RuntimeWarning numpy's warning would escape instead
    p, _ = builtin_example("constant_w")
    with pytest.raises(NonRealResultError, match="non-finite"):
        deficiency_indices(p, 10j)
