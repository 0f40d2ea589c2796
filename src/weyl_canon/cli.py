"""Command-line driver: validation, disk traces, tau profiles,
classification and oracle comparisons, emitting CSV or JSON.

Exit codes: 0 ok, 2 validation failure, 3 bad point (lambda in Lambda),
4 numerical failure, 5 inconclusive while --strict is set.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import re
import sys
from pathlib import Path

import click

from .catalog import builtin_example, catalog_names, parse_example_spec
from .classify import ClassifyConfig, default_c_grid, deficiency_indices, trace_disks
from .errors import (
    BadPointError,
    InconclusiveError,
    SchemaError,
    UnknownExampleError,
    ValidationError,
    WeylCanonError,
)
from .measures import parse_problem
from .oracle import OracleConfig, compare_propagators
from .weyl import WeylDisk, tau_profile

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BAD_POINT = 3
EXIT_NUMERICAL = 4
EXIT_INCONCLUSIVE = 5

def parse_lambda(text: str) -> complex:
    """Accept 'a,b' and 'a+bi' style forms ('i', '-i', '2i', '1-0.5i',
    plain reals) with finite parts."""
    raw = text.strip()
    try:
        if "," in raw:
            re_part, im_part = raw.split(",", 1)
            lam = complex(float(re_part), float(im_part))
        else:
            s = raw.replace(" ", "").replace("I", "i").replace("i", "j")
            lam = complex(re.sub(r"(?<![0-9.])j", "1j", s))
    except ValueError:
        raise click.BadParameter(
            f"cannot parse lambda {text!r}; use 'a+bi' or 'a,b'") from None
    if not cmath.isfinite(lam):
        raise click.BadParameter(f"lambda {text!r} is not finite")
    return lam


def _load_problem(problem_path, example):
    if (problem_path is None) == (example is None):
        raise click.UsageError("exactly one of --problem or --example is required")
    if example is not None:
        name, params = parse_example_spec(example)
        return builtin_example(name, **params)[0]
    text = Path(problem_path).read_text()
    return parse_problem(text)


def _emit(text, out):
    if out is None:
        click.echo(text, nl=not text.endswith("\n"))
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _wrap_errors(fn):
    try:
        return fn()
    except (SchemaError, ValidationError, UnknownExampleError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except BadPointError as exc:
        _fail(EXIT_BAD_POINT, str(exc.report))
    except InconclusiveError as exc:
        _fail(EXIT_INCONCLUSIVE, str(exc))
    except WeylCanonError as exc:
        _fail(EXIT_NUMERICAL, str(exc))
    except click.UsageError:
        raise
    except (OSError, ValueError) as exc:
        _fail(EXIT_VALIDATION, str(exc))


def _problem_options(fn):
    fn = click.option("--problem", type=click.Path(), default=None,
                      help="Problem JSON file.")(fn)
    fn = click.option("--example", default=None,
                      help=f"Catalog entry ({', '.join(catalog_names())}); "
                           "parameters like lesch_malamud(a=0.5).")(fn)
    return fn


def _grid_options(fn):
    fn = click.option("--c0", type=float, default=None,
                      help="First truncation point (default min(1, b/10)).")(fn)
    fn = click.option("--rho", type=float, default=None,
                      help="Geometric grid ratio (default 1.5).")(fn)
    fn = click.option("--count", type=int, default=None,
                      help="Number of grid points (default 24).")(fn)
    fn = click.option("--cmax", type=float, default=None,
                      help="Cap for infinite intervals (default 30).")(fn)
    return fn


def _output_options(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                      default="csv", help="Output format.")(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="Output path (default stdout).")(fn)
    return fn


@click.group()
def main():
    """Numerical Weyl theory for 2x2 canonical systems with
    measure coefficients."""


@main.command()
@click.option("--problem", type=click.Path(), required=True,
              help="Problem JSON file.")
def validate(problem):
    """Parse and validate a problem file."""
    def run():
        p = parse_problem(Path(problem).read_text())
        b = "inf" if math.isinf(p.b) else f"{p.b:g}"
        click.echo(f"ok: b={b}, alpha={p.alpha:g}, "
                   f"{len(p.q.atoms)} q-atom(s), {len(p.w.atoms)} w-atom(s), "
                   f"{len(p.discontinuities)} discontinuity point(s)")
    _wrap_errors(run)
    sys.exit(EXIT_OK)


_DISK_HEADER = ["lambda_re", "lambda_im", "c", "center_re", "center_im",
                "radius", "im_level", "branch", "tau_re", "tau_im",
                "psi_norm_sq", "phi_norm_sq"]


def _trace_rows(lam, trace):
    rows = []
    for p in trace.points:
        disk = isinstance(p.wset, WeylDisk)
        rows.append([
            lam.real, lam.imag, p.c,
            p.wset.center.real if disk else "",
            p.wset.center.imag if disk else "",
            p.wset.radius if disk else "",
            "" if disk else p.wset.level,
            "disk" if disk else "halfplane",
            p.tau.real, p.tau.imag,
            p.psi_norm_sq, p.phi_norm_sq,
        ])
    return rows


@main.command()
@_problem_options
@click.option("--lambda", "lambdas", multiple=True, required=True,
              help="Spectral parameter, 'a+bi' or 'a,b'; repeatable.")
@_grid_options
@_output_options
def disks(problem, example, lambdas, c0, rho, count, cmax, fmt, out):
    """Weyl disk / half-plane trace over the truncation grid."""
    def run():
        p = _load_problem(problem, example)
        grid = default_c_grid(p, c0=c0, rho=rho, count=count, c_max=cmax)
        lams = [parse_lambda(s) for s in lambdas]
        traces = [trace_disks(p, lam, grid) for lam in lams]
        for lam, trace in zip(lams, traces):
            if trace.truncated_at is not None:
                click.echo(f"note: trace for lambda={lam:g} truncated at "
                           f"c={trace.truncated_at:g} (the disk's denominator "
                           "reached the float64 noise floor)", err=True)
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(_DISK_HEADER)
            for lam, trace in zip(lams, traces):
                writer.writerows(_trace_rows(lam, trace))
            _emit(buf.getvalue(), out)
        else:
            docs = []
            for lam, trace in zip(lams, traces):
                docs.append({
                    "lambda": [lam.real, lam.imag],
                    "truncatedAt": trace.truncated_at,
                    "points": [dict(zip(_DISK_HEADER[2:], row[2:]))
                               for row in _trace_rows(lam, trace)],
                })
            _emit(json.dumps({"schema": "weyl-canon/disks/v1",
                              "traces": docs}, indent=2), out)
    _wrap_errors(run)
    sys.exit(EXIT_OK)


@main.command()
@_problem_options
@click.option("--lambda", "lambdas", multiple=True, required=True,
              help="Spectral parameter with Im != 0; repeatable.")
@_grid_options
@click.option("--lp-radius-drop", type=float, default=None,
              help="Limit-point threshold: r_last < drop * r_first "
                   "(default 1e-6).")
@click.option("--lp-ratio", type=float, default=None,
              help="Limit-point threshold on the last radius ratios "
                   "(default 0.9).")
@click.option("--lc-rel-change", type=float, default=None,
              help="Limit-circle stabilization threshold (default 1e-4).")
@click.option("--format", "fmt", type=click.Choice(["json"]),
              default="json", help="Reports are JSON only.")
@click.option("--out", type=click.Path(), default=None)
@click.option("--strict", is_flag=True,
              help="Exit 5 when the classification is inconclusive.")
def classify(problem, example, lambdas, c0, rho, count, cmax,
             lp_radius_drop, lp_ratio, lc_rel_change, fmt, out, strict):
    """Deficiency indices and endpoint classification (JSON report)."""
    def run():
        p = _load_problem(problem, example)
        grid = default_c_grid(p, c0=c0, rho=rho, count=count, c_max=cmax)
        overrides = {k: v for k, v in (("lp_radius_drop", lp_radius_drop),
                                       ("lp_ratio", lp_ratio),
                                       ("lc_rel_change", lc_rel_change))
                     if v is not None}
        config = ClassifyConfig(**overrides) if overrides else None
        lams = [parse_lambda(s) for s in lambdas]
        reports = [deficiency_indices(
            p, lam, c_grid=grid, **({"config": config} if config else {}))
            for lam in lams]
        docs = [r.to_dict() for r in reports]
        _emit(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2), out)
        if strict:
            unresolved = any(
                r.inconclusive or r.n_plus is None or r.n_minus is None
                or r.verdict.kind == "Inconclusive"
                or r.verdict_conjugate.kind == "Inconclusive"
                for r in reports)
            if unresolved:
                sys.exit(EXIT_INCONCLUSIVE)
    _wrap_errors(run)
    sys.exit(EXIT_OK)


@main.command()
@_problem_options
@click.option("--lambda", "lambdas", multiple=True, required=True)
@_grid_options
@_output_options
def tau(problem, example, lambdas, c0, rho, count, cmax, fmt, out):
    """tau(x, lambda) along the grid: x, Re tau, Im tau, |tau|."""
    def run():
        p = _load_problem(problem, example)
        grid = default_c_grid(p, c0=c0, rho=rho, count=count, c_max=cmax)
        lams = [parse_lambda(s) for s in lambdas]
        profiles = [tau_profile(p, lam, grid) for lam in lams]
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["lambda_re", "lambda_im", "x",
                             "tau_re", "tau_im", "tau_abs"])
            for lam, profile in zip(lams, profiles):
                for s in profile:
                    writer.writerow([lam.real, lam.imag, s.x,
                                     s.value.real, s.value.imag, abs(s.value)])
            _emit(buf.getvalue(), out)
        else:
            docs = [{
                "lambda": [lam.real, lam.imag],
                "points": [{"x": s.x, "tau": [s.value.real, s.value.imag],
                            "abs": abs(s.value)} for s in profile],
            } for lam, profile in zip(lams, profiles)]
            _emit(json.dumps({"schema": "weyl-canon/tau/v1",
                              "profiles": docs}, indent=2), out)
    _wrap_errors(run)
    sys.exit(EXIT_OK)


@main.command("oracle-compare")
@_problem_options
@click.option("--lambda", "lambdas", multiple=True, required=True)
@click.option("--cmax", type=float, default=2.0,
              help="Compare up to this truncation (default 2).")
@click.option("--step", type=float, default=1e-4,
              help="Fixed oracle step (default 1e-4).")
@click.option("--method", type=click.Choice(["rk4-fixed", "midpoint"]),
              default="rk4-fixed")
@click.option("--format", "fmt", type=click.Choice(["json"]),
              default="json", help="Deviation reports are JSON only.")
@click.option("--out", type=click.Path(), default=None)
def oracle_compare(problem, example, lambdas, cmax, step, method, fmt, out):
    """Adaptive-versus-fixed-step deviation report (JSON)."""
    def run():
        p = _load_problem(problem, example)
        config = OracleConfig(step=step, method=method)
        lams = [parse_lambda(s) for s in lambdas]
        reports = [compare_propagators(p, lam, cmax, config=config)
                   for lam in lams]
        docs = [r.to_dict() for r in reports]
        _emit(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2), out)
        worst = max(r.max_relative_deviation for r in reports)
        click.echo(f"max relative deviation: {worst:.3e}", err=True)
    _wrap_errors(run)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
