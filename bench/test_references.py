"""Tests of the benchmark's own reference code and checks.

    python3 -m pytest bench/test_references.py

The references must be right independently of the program, so they are
checked here against closed forms and direct integration, and the checks
must reject a wrong output.  Nothing here imports ``weyl_canon``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import checks
import inputs
from references import J, CatalogEntry, PiecewiseReference, atom_transfer, rotation


def _w_catalog(name, a, x):
    if name == "lesch_malamud":
        s = 1.0 + a / (1.0 + x * x)
        return np.array([[s, -1j], [1j, s]])
    if name == "constant_w":
        return np.array([[4.0, -1j], [1j, 1.0]])
    return np.eye(2, dtype=complex)


def _integrate(name, a, lam, x):
    """U(x) for q = 0 and the catalog density w by DOP853."""
    def rhs(t, y):
        U = y.view(complex).reshape(2, 2)
        return (-lam * J @ _w_catalog(name, a, t) @ U).reshape(-1).view(float)
    y0 = np.eye(2, dtype=complex).reshape(-1).view(float)
    sol = solve_ivp(rhs, (0.0, x), y0, method="DOP853", rtol=1e-12, atol=1e-14)
    return sol.y[:, -1].view(complex).reshape(2, 2)


@pytest.mark.parametrize("name,params", [("lesch_malamud", {"a": 1.0}),
                                         ("lesch_malamud", {"a": 0.0}),
                                         ("constant_w", {}), ("free_identity", {})])
@pytest.mark.parametrize("lam", [1j, 0.5 - 1j, -0.5 + 0.5j])
def test_catalog_closed_form_solves_the_system(name, params, lam):
    entry = CatalogEntry(name, params)
    for x in (0.3, 1.7, 4.0):
        U = entry.U(x, lam)
        want = _integrate(name, params.get("a", 0.0), lam, x)
        assert np.linalg.norm(U - want) <= 1e-9 * np.linalg.norm(want)
        scale = abs(U[0, 0] * U[1, 1]) + abs(U[0, 1] * U[1, 0])
        assert abs(np.linalg.det(U) - entry.tau(x, lam)) <= 1e-14 * scale


@pytest.mark.parametrize("lam", [1j, 0.5 - 1j, 0.25 + 0.75j])
def test_lagrange_norms_match_closed_forms_and_quadrature(lam):
    v = lam.imag
    c = 2.5
    closed = {
        "constant_w": (math.exp(2 * c * v) - math.exp(-6 * c * v)) / (8 * v),
        "free_identity": math.sinh(2 * c * v) / (2 * v),
        "lesch_malamud": (1 - math.exp(-4 * v * c)) / (4 * v),
    }
    for name, want in closed.items():
        psi, _ = CatalogEntry(name, {"a": 0.0}).norms(c, lam)
        assert psi == pytest.approx(want, rel=1e-12)
    # lesch_malamud(a=1) has no elementary psi norm: integrate psi* w psi
    entry = CatalogEntry("lesch_malamud", {"a": 1.0})

    def density(x, col):
        u = entry.U(x, lam)[:, col]
        return float(np.real(np.vdot(u, _w_catalog("lesch_malamud", 1.0, x) @ u)))

    psi, phi = entry.norms(c, lam)
    assert psi == pytest.approx(quad(density, 0, c, args=(1,), epsrel=1e-13)[0], rel=1e-10)
    assert phi == pytest.approx(quad(density, 0, c, args=(0,), epsrel=1e-13)[0], rel=1e-10)


def test_known_m_lies_in_the_l2_solution():
    for name, lam in (("free_identity", 1j), ("constant_w", 0.5 - 1j)):
        entry = CatalogEntry(name, {})
        m = entry.m_limit(lam)
        chi = [entry.U(x, lam) @ np.array([1.0, m]) for x in (5.0, 10.0)]
        phi = [entry.U(x, lam)[:, 0] for x in (5.0, 10.0)]
        assert np.linalg.norm(chi[1]) < 1e-2 * np.linalg.norm(chi[0])
        assert np.linalg.norm(phi[1]) > 1e2 * np.linalg.norm(phi[0])


def test_catalog_gram_matches_quadrature():
    c = 7.0
    entry = CatalogEntry("lesch_malamud", {"a": 1.0})
    s = quad(lambda x: 1.0 + 1.0 / (1.0 + x * x), 0, c)[0]
    assert np.allclose(entry.gram(c), [[s, -1j * c], [1j * c, s]], rtol=1e-13)
    null = CatalogEntry("lesch_malamud", {"a": 0.0}).expected()["null"]
    assert np.linalg.norm(CatalogEntry("lesch_malamud", {"a": 0.0}).gram(c) @ null) < 1e-12


def test_jump_determinants_and_bad_points():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dq = inputs._hermitian(rng, 1.0)
        dw = inputs._psd(rng, 1.0)
        lam = complex(*rng.normal(size=2))
        h = 0.5 * (dq - lam * dw)
        det_minus, det_plus = inputs.jump_dets(dq, dw, lam)
        assert det_minus == pytest.approx(np.linalg.det(J - h), abs=1e-12)
        assert det_plus == pytest.approx(np.linalg.det(J + h), abs=1e-12)
    # the catalog bad points: B- singular at 2i (minus), B+ at 2i (plus)
    assert abs(inputs.jump_dets(*inputs.CATALOG_ATOMS["bad_point_minus"], 2j)[0]) < 1e-12
    assert abs(inputs.jump_dets(*inputs.CATALOG_ATOMS["bad_point_plus"], 2j)[1]) < 1e-12
    ops = inputs.catalog_operations(0)
    assert not [op for op in ops if op["name"].startswith("bad") and op["lam"] == 2j]
    assert len(ops) == 22


def test_piecewise_reference_matches_closed_form_of_a_constant_problem():
    # constant_w as a one-piece model: w = [[4, -i], [i, 1]], q = 0, alpha = 0
    model = {"alpha": 0.0, "breaks": [], "atoms": [],
             "q_pieces": [np.zeros((2, 2), dtype=complex)],
             "w_pieces": [np.array([[4.0, -1j], [1j, 1.0]])]}
    lam = 0.3 + 0.5j
    cs = [0.5, 1.0, 2.5]
    entry = CatalogEntry("constant_w", {})
    for c, p in zip(cs, PiecewiseReference(model, lam).points(cs)):
        assert np.linalg.norm(p["U"] - entry.U(c, lam)) <= 1e-12 * np.linalg.norm(p["U"])
        assert p["tau"] == pytest.approx(entry.tau(c, lam), rel=1e-13)
        assert p["psi"] == pytest.approx(entry.norms(c, lam)[0], rel=1e-11)


def _direct(model, lam, c, steps=20000):
    """U(c) and both norms by RK4 with atom transfers and a midpoint
    norm sum, sharing nothing with PiecewiseReference but the model."""
    stops = sorted({0.0, c} | {b for b in model["breaks"] if b < c}
                   | {x for x, _, _ in model["atoms"] if x < c})
    U = rotation(model["alpha"])
    norms = np.zeros(2)
    atoms = {x: (dq, dw) for x, dq, dw in model["atoms"]}
    for lo, hi in zip(stops, stops[1:]):
        if lo in atoms:
            dq, dw = atoms[lo]
            right = atom_transfer(dq, dw, lam) @ U
            bal = 0.5 * (U + right)
            norms += [np.real(np.vdot(bal[:, j], dw @ bal[:, j])) for j in (1, 0)]
            U = right
        k = sum(1 for b in model["breaks"] if b <= lo)
        A = J @ (model["q_pieces"][k] - lam * model["w_pieces"][k])
        W = model["w_pieces"][k]
        n = max(50, int(steps * (hi - lo) / c))
        h = (hi - lo) / n
        for _ in range(n):
            k1 = A @ U
            k2 = A @ (U + 0.5 * h * k1)
            k3 = A @ (U + 0.5 * h * k2)
            k4 = A @ (U + h * k3)
            mid = U + 0.5 * h * k1 + 0.125 * h * h * A @ k1
            norms += h * np.array([np.real(np.vdot(mid[:, j], W @ mid[:, j])) for j in (1, 0)])
            U = U + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return U, norms


def test_piecewise_reference_matches_direct_integration_with_atoms():
    rng = np.random.default_rng(11)
    for n_breaks, n_atoms in ((2, 3), (1, 2)):
        _, model = inputs.random_piecewise(rng, n_breaks, n_atoms)
        lam = 0.2 + 0.5j
        c = 4.3
        ref = PiecewiseReference(model, lam).points([c])[0]
        U, (psi, phi) = _direct(model, lam, c)
        assert np.linalg.norm(ref["U"] - U) <= 1e-8 * np.linalg.norm(U)
        assert ref["tau"] == pytest.approx(np.linalg.det(U), rel=1e-8)
        assert ref["psi"] == pytest.approx(psi, rel=1e-5)
        assert ref["phi"] == pytest.approx(phi, rel=1e-5)


def _fake_trace(points):
    doc = []
    for p in points:
        U = p["U"]
        doc.append({"c": p["c"], "branch": "disk",
                    "center": [p["center"].real, p["center"].imag],
                    "radius": p["radius"], "level": None,
                    "entries": [[z.real, z.imag] for z in (U[0, 0], U[1, 0], U[0, 1], U[1, 1])],
                    "tau": [p["tau"].real, p["tau"].imag], "psi": p["psi"], "phi": p["phi"]})
    return {"points": doc, "truncated_at": None}


def test_checks_pass_the_reference_and_reject_a_perturbed_output():
    rng = np.random.default_rng(5)
    _, model = inputs.random_piecewise(rng, 1, 2)
    lam = -0.1 + 1j
    refs = PiecewiseReference(model, lam).points(list(inputs.PIECEWISE_GRID))
    doc = _fake_trace(refs)
    good = checks.Check()
    checks.check_piecewise(good, doc, model, lam, "good")
    assert good.ok, good.failures
    for field, bump in (("psi", 1e-5), ("radius", 1e-2)):
        bad_doc = _fake_trace(refs)
        bad_doc["points"][5][field] *= 1 + bump
        bad = checks.Check()
        checks.check_piecewise(bad, bad_doc, model, lam, "bad")
        assert not bad.ok
    entries_doc = _fake_trace(refs)
    entries_doc["points"][3]["entries"][2][0] += 1e-4 * abs(refs[3]["U"][0, 1]) + 1e-6
    bad = checks.Check()
    checks.check_piecewise(bad, entries_doc, model, lam, "bad")
    assert not bad.ok


def test_catalog_report_check_rejects_wrong_indices():
    entry = CatalogEntry("free_identity", {})
    lam = 1j
    grid = [1.0, 2.0, 3.0]
    psi, phi = entry.norms(3.0, lam)
    side = {"finalRadius": None, "psiNormLast": psi, "phiNormLast": phi}
    G = entry.gram(3.0)
    report = {"schema": checks.SCHEMA, "lambda": [0.0, 1.0], "nPlus": 1, "nMinus": 1,
              "inconclusive": False, "definite": True, "dimNullSpace": 0,
              "nullVector": None, "verdict": {"kind": "Inconclusive"},
              "diagnostics": {"cGrid": grid, "definiteUpTo": 3.0,
                              "gramTrace": float(np.trace(G).real),
                              "gramMinEigenvalue": float(np.linalg.eigvalsh(G)[0]),
                              "upper": side, "lower": dict(side, psiNormLast=entry.norms(3.0, -1j)[0],
                                                           phiNormLast=entry.norms(3.0, -1j)[1])}}
    last_c = {"upper": 3.0, "lower": 3.0}
    ok = checks.Check()
    checks.check_report(ok, report, "free_identity", {}, lam, last_c)
    assert ok.ok, ok.failures
    wrong = checks.Check()
    checks.check_report(wrong, dict(report, nPlus=2), "free_identity", {}, lam, last_c)
    assert not wrong.ok


def test_inputs_repeat_for_a_seed():
    a = inputs.piecewise_operations(7)
    b = inputs.piecewise_operations(7)
    assert [op["text"] for op in a] == [op["text"] for op in b]
    assert [op["lam"] for op in a] == [op["lam"] for op in b]
    assert a[0]["text"] != inputs.piecewise_operations(8)[0]["text"]
    for op in a:
        assert not inputs.near_lambda_set([(dq, dw) for _, dq, dw in op["model"]["atoms"]],
                                          op["lam"])


PROBE = '''
import json, sys, types
sys.path[:0] = [{bench!r}, {src!r}]
import weyl_canon
import tracing
probe = types.ModuleType("weyl_canon._probe")
exec("from scipy.integrate import solve_ivp as renamed\\n"
     "import scipy.integrate as si\\n"
     "def run():\\n"
     "    renamed(lambda t, y: -y, (0.0, 1.0), [1.0])\\n"
     "    si.quad(lambda x: x, 0.0, 1.0)\\n"
     "    from scipy.integrate import quad\\n"
     "    quad(lambda x: x, 0.0, 1.0)\\n", probe.__dict__)
sys.modules[probe.__name__] = probe
tracer = tracing.Tracer()
tracing.install(tracer)
span = tracer.begin_op(0)
probe.run()
tracer.end_op(span)
print(json.dumps(tracer.spans[-1][6]))
'''


def test_tracer_counts_scipy_calls_however_they_are_imported():
    bench = Path(__file__).resolve().parent
    src = bench.parent / "src"
    if not (src / "weyl_canon").is_dir():
        pytest.skip("the program's sources are not next to the benchmark")
    out = subprocess.run([sys.executable, "-c", PROBE.format(bench=str(bench), src=str(src))],
                         capture_output=True, text=True, timeout=120, check=True).stdout
    counts = json.loads(out.strip().splitlines()[-1])
    assert counts["ode_solves"] == 1 and counts["rhs_evals"] > 0 and counts["ode_steps"] > 0
    assert counts["quad_calls"] == 2
