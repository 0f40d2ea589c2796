import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import weyl_canon
from weyl_canon.catalog import builtin_example
from weyl_canon.classify import default_c_grid, deficiency_indices
from weyl_canon.cli import main, parse_lambda
from weyl_canon.errors import SchemaError
from weyl_canon.measures import parse_problem
from weyl_canon.weyl import tau_profile

from conftest import count_calls


VALID_DOC = json.dumps({"b": 2, "alpha": 0, "q": {},
                        "w": {"d11": "1", "d22": "1"}})


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


# -- lambda parsing -----------------------------------------------------------

def test_parse_lambda_forms():
    assert parse_lambda("1+2i") == 1 + 2j
    assert parse_lambda("1-0.5i") == 1 - 0.5j
    assert parse_lambda("i") == 1j
    assert parse_lambda("-i") == -1j
    assert parse_lambda("2i") == 2j
    assert parse_lambda("0.25,-1.5") == 0.25 - 1.5j
    assert parse_lambda("3") == 3 + 0j
    assert parse_lambda("1e-3+2e-1i") == 1e-3 + 0.2j


@pytest.mark.parametrize("command", ["tau", "disks", "classify"])
@pytest.mark.parametrize("lam", ["nan,1", "1,-inf", "nan", "1e400,1"])
def test_non_finite_lambda_exit_2(runner, command, lam):
    result = invoke(runner, [command, "--example", "constant_w", "--lambda", lam])
    assert result.exit_code == 2
    assert "not finite" in result.output


# -- validate -----------------------------------------------------------------

def test_validate_ok(runner, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(VALID_DOC)
    result = invoke(runner, ["validate", "--problem", str(path)])
    assert result.exit_code == 0
    assert "ok:" in result.output


def test_validate_non_finite_breakpoint_exit_2(runner, tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"b": 2, "alpha": 0, "q": {"breakpoints": [NaN, Infinity]}, '
                    '"w": {"d11": "1", "d22": "1"}}')
    result = invoke(runner, ["validate", "--problem", str(path)])
    assert result.exit_code == 2


def test_validate_overflowing_b_exit_2(runner, tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"b": 1e400, "alpha": 0, "w": {"d11": "1", "d22": "1"}}')
    result = invoke(runner, ["validate", "--problem", str(path)])
    assert result.exit_code == 2
    assert "finite" in result.output


# every place a problem document holds a number, as the fields it replaces
NUMBER_PLACES = {
    "b": lambda v: {"b": v},
    "alpha": lambda v: {"alpha": v},
    "atom position": lambda v: {"q": {"atoms": [{"x": v, "m": [[0, 0]] * 4}]}},
    "atom matrix": lambda v: {"q": {"atoms": [{"x": 1, "m": [[v, 0]] + [[0, 0]] * 3}]}},
    "breakpoint": lambda v: {"q": {"breakpoints": [v]}},
}


@pytest.mark.parametrize("value", [True, "3"])
@pytest.mark.parametrize("place", NUMBER_PLACES)
def test_booleans_and_strings_are_not_numbers(runner, tmp_path, place, value):
    doc = dict(json.loads(VALID_DOC), **NUMBER_PLACES[place](value))
    with pytest.raises(SchemaError, match="expected a number"):
        parse_problem(doc)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, ["validate", "--problem", str(path)])
    assert result.exit_code == 2


def test_validate_non_hermitian_atom_exit_2(runner, tmp_path):
    doc = {"b": 2, "alpha": 0,
           "q": {"atoms": [{"x": 1, "m": [[0, 0], [0, 1], [0, 1], [0, 0]]}]},
           "w": {"d11": "1", "d22": "1"}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, ["validate", "--problem", str(path)])
    assert result.exit_code == 2
    assert "q.atoms[0]" in result.output


def test_validate_counts_only_discontinuities_inside(runner, tmp_path):
    doc = {"b": 4, "alpha": 0, "q": {"breakpoints": [-1.0, 0.0, 4.0, 9.0]},
           "w": {"d11": "1", "d22": "1"}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, ["validate", "--problem", str(path)])
    assert result.exit_code == 0
    assert "0 discontinuity point(s)" in result.output


def test_validate_atom_outside_interval_exit_2(runner, tmp_path):
    doc = {"b": 1, "alpha": 0, "q": {},
           "w": {"d11": "1", "d22": "1",
                 "atoms": [{"x": 1.5, "m": [[1, 0], [0, 0], [0, 0], [0, 0]]}]}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, ["validate", "--problem", str(path)])
    assert result.exit_code == 2
    assert "outside" in result.output


# -- disks ---------------------------------------------------------------------

def test_disks_radii_strictly_decreasing(runner):
    result = invoke(runner, ["disks", "--example", "constant_w",
                             "--lambda", "i", "--count", "12", "--cmax", "5"])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    radii = [float(r["radius"]) for r in rows]
    assert len(radii) >= 8
    assert all(b < a for a, b in zip(radii, radii[1:]))
    assert all(r["branch"] == "disk" for r in rows)


def test_disks_bad_point_exit_3(runner):
    result = invoke(runner, ["disks", "--example", "bad_point_minus",
                             "--lambda", "2i"])
    assert result.exit_code == 3
    assert "x=1" in result.output


def test_disks_json_format_and_multi_lambda(runner):
    result = invoke(runner, ["disks", "--example", "free_identity",
                             "--lambda", "i", "--lambda", "-i",
                             "--count", "10", "--cmax", "5",
                             "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["schema"] == "weyl-canon/disks/v1"
    assert [t["lambda"] for t in doc["traces"]] == [[0.0, 1.0], [0.0, -1.0]]
    assert all(t["truncatedAt"] is None for t in doc["traces"])


@pytest.fixture
def truncating_problem_path(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"b": "inf", "alpha": 0,
                                "q": {"d11": "1", "d22": "-1"},
                                "w": {"d11": "step(1-x)", "d22": "step(1-x)"}}))
    return path


@pytest.mark.parametrize("lam", ["i", "2i"])
def test_disks_truncation_note(runner, truncating_problem_path, lam):
    result = invoke(runner, ["disks", "--problem", str(truncating_problem_path),
                             "--lambda", lam])
    assert result.exit_code == 0
    assert "truncated" in result.output  # stderr note about det U noise floor


def test_classify_on_a_truncated_trace(runner, truncating_problem_path):
    result = invoke(runner, ["classify", "--problem", str(truncating_problem_path),
                             "--lambda", "2i"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert (doc["nPlus"], doc["nMinus"]) == (2, 2)


@pytest.mark.parametrize("command", ["disks", "classify", "tau"])
@pytest.mark.parametrize("example", ["bad_point_minus", "free_identity"])
def test_empty_grid_exit_2(runner, command, example):
    result = invoke(runner, [command, "--example", example,
                             "--lambda", "i", "--count", "0"])
    assert result.exit_code == 2
    assert "count=0" in result.output


def test_disks_requires_problem_or_example(runner):
    result = runner.invoke(main, ["disks", "--lambda", "i"])
    assert result.exit_code != 0


# -- classify --------------------------------------------------------------------

def test_classify_reports_indices(runner):
    result = invoke(runner, ["classify", "--example", "constant_w",
                             "--lambda", "i"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["nPlus"] == 1 and doc["nMinus"] == 1
    assert doc["schema"] == "weyl-canon/report/v1"


def test_classify_lesch_malamud_asymmetric(runner):
    result = invoke(runner, ["classify", "--example", "lesch_malamud(a=1)",
                             "--lambda", "i"])
    doc = json.loads(result.output)
    assert doc["nPlus"] == 2 and doc["nMinus"] == 1


def test_classify_reports_equal_deficiency_indices_for_all_lambdas(runner):
    lams = ["i", "0.5+0.5i", "-0.25-i", "1-0.75i"]
    args = ["classify", "--example", "lesch_malamud(a=1)", "--count", "8"]
    for lam in lams:
        args += ["--lambda", lam]
    # the reports deficiency_indices gives at each lam on the same grid
    p, _ = builtin_example("lesch_malamud", a=1.0)
    grid = default_c_grid(p, count=8)
    docs = [deficiency_indices(p, parse_lambda(lam), c_grid=grid).to_dict()
            for lam in lams]
    result = invoke(runner, args)
    assert result.exit_code == 0
    assert result.output == json.dumps(docs, indent=2) + "\n"


def test_classify_strict_flag_ok_case(runner):
    result = invoke(runner, ["classify", "--example", "free_identity",
                             "--lambda", "i", "--strict"])
    assert result.exit_code == 0


# -- tau ---------------------------------------------------------------------------

def test_tau_csv(runner):
    result = invoke(runner, ["tau", "--example", "lesch_malamud(a=1)",
                             "--lambda", "i", "--count", "8", "--cmax", "4"])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert len(rows) == 8
    import math
    for row in rows:
        x = float(row["x"])
        assert float(row["tau_abs"]) == pytest.approx(math.exp(-2 * x), rel=1e-8)


def test_tau_integrates_once_for_several_lambda(runner, monkeypatch):
    calls = count_calls(monkeypatch, weyl_canon.measures.Problem, "integrate")
    result = invoke(runner, ["tau", "--example", "lesch_malamud(a=1)",
                             "--lambda", "i", "--lambda", "0.5-i",
                             "--format", "json"])
    assert result.exit_code == 0
    # one prefix pass over the 24-point grid, shared by both lambda
    assert len(calls) == 1
    problem, _ = builtin_example("lesch_malamud", a=1.0)
    grid = default_c_grid(problem)
    expected = [{"lambda": [lam.real, lam.imag],
                 "points": [{"x": s.x, "tau": [s.value.real, s.value.imag],
                             "abs": abs(s.value)}
                            for s in tau_profile(problem, lam, grid)]}
                for lam in (1j, 0.5 - 1j)]
    assert json.loads(result.output) == {"schema": "weyl-canon/tau/v1",
                                         "profiles": expected}


# -- oracle-compare ------------------------------------------------------------------

def test_oracle_compare(runner):
    result = invoke(runner, ["oracle-compare", "--example", "free_identity",
                             "--lambda", "i", "--cmax", "1.0",
                             "--step", "1e-3"])
    assert result.exit_code == 0
    # stdout carries the JSON document, the status line goes to stderr
    doc, _ = json.JSONDecoder().raw_decode(result.output)
    assert doc["maxRelativeDeviation"] < 1e-8


# -- output files ---------------------------------------------------------------------

def test_out_writes_file(runner, tmp_path):
    out = tmp_path / "trace.csv"
    result = invoke(runner, ["disks", "--example", "free_identity",
                             "--lambda", "i", "--count", "9",
                             "--out", str(out)])
    assert result.exit_code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("lambda_re,lambda_im,c,center_re")


@pytest.mark.parametrize("command", ["tau", "disks", "classify"])
def test_grid_reaching_a_finite_b_exit_2_naming_count(runner, tmp_path, command):
    # on b = 2 the 100-point default grid rounds to b from about k = 90 on
    path = tmp_path / "p.json"
    path.write_text(VALID_DOC)
    result = invoke(runner, [command, "--problem", str(path), "--lambda", "i",
                             "--count", "100"])
    assert result.exit_code == 2
    assert "count=100 and rho=1.5" in result.output


def test_tau_rows_follow_the_lambda_order(runner):
    result = invoke(runner, ["tau", "--example", "free_identity",
                             "--lambda", "i", "--lambda", "-i",
                             "--count", "6", "--cmax", "3"])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert [r["lambda_im"] for r in rows[:6]] == ["1.0"] * 6
    assert [r["lambda_im"] for r in rows[6:]] == ["-1.0"] * 6


def test_classify_strict_inconclusive_exit_5(runner):
    # a 5-point grid is below the 8-point minimum of limit detection,
    # so the verdicts stay inconclusive and --strict exits 5
    result = invoke(runner, ["classify", "--example", "free_identity",
                             "--lambda", "i", "--count", "5", "--strict"])
    assert result.exit_code == 5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_classify_integration_failure_exit_4(runner, tmp_path):
    # J q does not commute with J w, and the Magnus steps cannot start
    # at the x^(-1/2) singularity
    doc = {"b": 4, "alpha": 0, "q": {"d12": "x^(-1/2)"},
           "w": {"d11": "1", "d22": "1"}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, ["classify", "--problem", str(path),
                             "--lambda", "i"])
    assert result.exit_code == 4
    assert "integration" in result.output


def test_classify_overflow_exit_4(runner, tmp_path):
    # the solution overflows near x = 0.71 inside a non-constant piece
    doc = {"b": 2, "alpha": 0, "q": {"d11": "1000+x", "d22": "-1000-x"},
           "w": {"d11": "1", "d22": "1"}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, ["classify", "--problem", str(path),
                             "--lambda", "i"])
    assert result.exit_code == 4
    assert "overflows" in result.output
    # tau at conj(lam) outgrows the float range before c = 400
    result = invoke(runner, ["classify", "--example", "lesch_malamud(a=1)",
                             "--lambda", "2i", "--cmax", "400"])
    assert result.exit_code == 4
    assert "overflows" in result.output


def test_classify_rejects_csv_format(runner):
    result = invoke(runner, ["classify", "--example", "free_identity",
                             "--lambda", "i", "--format", "csv"])
    assert result.exit_code == 2


def test_oracle_compare_rejects_csv_format(runner):
    result = invoke(runner, ["oracle-compare", "--example", "free_identity",
                             "--lambda", "i", "--format", "csv"])
    assert result.exit_code == 2


# c0 must lie in (0, b), rho be finite and above 1, and on an infinite b
# c_max be finite and above c0
@pytest.mark.parametrize("command", ["tau", "disks", "classify"])
@pytest.mark.parametrize("options", [
    ["--cmax", "-5"], ["--cmax", "1"], ["--cmax", "nan"], ["--cmax", "inf"],
    ["--rho", "1"], ["--rho", "0.5"], ["--rho", "nan"], ["--rho", "inf"],
    ["--c0", "0"], ["--c0", "-1"], ["--c0", "nan"], ["--c0", "inf"],
])
def test_bad_grid_options_exit_2(runner, command, options):
    result = invoke(runner, [command, "--example", "free_identity",
                             "--lambda", "i", *options])
    assert result.exit_code == 2
    assert "error:" in result.output


# on a finite b, a cap that is NaN or not above c0 used to shrink the
# grid to its first point, and the commands exited 0 with one row
@pytest.mark.parametrize("target", ["default_c_grid", "tau", "disks", "classify"])
@pytest.mark.parametrize("cmax", ["nan", "0.1", "-1", "0.4"])
def test_finite_b_cmax_without_a_grid_is_refused(runner, tmp_path, target, cmax):
    doc = json.dumps({"b": 4, "alpha": 0, "q": {}, "w": {"d11": "1", "d22": "1"}})
    if target == "default_c_grid":
        problem = weyl_canon.parse_problem(doc)
        with pytest.raises(ValueError, match="c_max"):
            default_c_grid(problem, c_max=float(cmax))
        # an infinite cap keeps the whole grid
        assert (default_c_grid(problem, c_max=math.inf)
                == default_c_grid(problem)).all()
        return
    path = tmp_path / "p.json"
    path.write_text(doc)
    result = invoke(runner, [target, "--problem", str(path), "--lambda", "i",
                             "--cmax", cmax])
    assert result.exit_code == 2
    assert "c_max" in result.output


def test_commands_are_deterministic(runner):
    args = ["disks", "--example", "constant_w", "--lambda", "0.5+1i",
            "--count", "10", "--cmax", "4"]
    first = invoke(runner, args)
    second = invoke(runner, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_classify_threshold_overrides(runner):
    result = invoke(runner, ["classify", "--example", "constant_w",
                             "--lambda", "i", "--lp-ratio", "0.5",
                             "--lc-rel-change", "1e-5"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["verdict"]["kind"] == "LimitPoint"


# -- import cost ----------------------------------------------------------------

def test_importing_the_cli_does_not_import_scipy():
    src = os.path.dirname(os.path.dirname(weyl_canon.__file__))
    code = ("import sys, weyl_canon.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("fields", [
    {"atoms": 5},
    {"breakpoints": [[1]]},
    {"breakpoints": ["abc"]},
    {"atoms": [{"x": "abc", "m": [[1, 0], [0, 0], [0, 0], [0, 0]]}]},
], ids=["atoms-not-a-list", "breakpoint-list", "breakpoint-text", "atom-x-text"])
def test_validate_malformed_atom_or_breakpoint_exit_2(runner, tmp_path, fields):
    doc = {"b": 2, "alpha": 0, "q": fields, "w": {"d11": "1", "d22": "1"}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, ["validate", "--problem", str(path)])
    assert result.exit_code == 2
    assert "error: q." in result.output
