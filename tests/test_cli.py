import csv
import io
import json

import pytest
from click.testing import CliRunner

from weyl_canon.cli import main, parse_lambda

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


# -- validate -----------------------------------------------------------------

def test_validate_ok(runner, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(VALID_DOC)
    result = invoke(runner, ["validate", "--problem", str(path)])
    assert result.exit_code == 0
    assert "ok:" in result.output


def test_validate_non_hermitian_atom_exit_2(runner, tmp_path):
    doc = {"b": 2, "alpha": 0,
           "q": {"atoms": [{"x": 1, "m": [[0, 0], [0, 1], [0, 1], [0, 0]]}]},
           "w": {"d11": "1", "d22": "1"}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, ["validate", "--problem", str(path)])
    assert result.exit_code == 2
    assert "q.atoms[0]" in result.output


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


def test_disks_truncation_note(runner):
    result = invoke(runner, ["disks", "--example", "constant_w",
                             "--lambda", "i", "--count", "12"])
    assert result.exit_code == 0
    assert "truncated" in result.output  # stderr note about det U noise floor


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


def test_threads_env_respected(runner, monkeypatch):
    monkeypatch.setenv("WEYL_CANON_THREADS", "2")
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
    doc = {"b": 4, "alpha": 0, "q": {},
           "w": {"d11": "x^(-1/2)", "d22": "x^(-1/2)"}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, ["classify", "--problem", str(path),
                             "--lambda", "i"])
    assert result.exit_code == 4
    assert "integration" in result.output


def test_classify_rejects_csv_format(runner):
    result = invoke(runner, ["classify", "--example", "free_identity",
                             "--lambda", "i", "--format", "csv"])
    assert result.exit_code == 2


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
