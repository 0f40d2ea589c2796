"""Brute-force validators: fixed-step propagation and closed-form lookup.

The fixed-step integrator solves exactly the same equations as the
adaptive propagator but with a deliberately naive scheme (explicit
midpoint or classical RK4 on scalar complex arithmetic, no error
control).  It exists purely as an independent route for differential
testing; it is not a production integrator.  It shares the walker of
``propagation`` (segmentation and atom transfers) and replaces only the
stepper between discontinuities, so it checks the integration; the
segmentation and the transfers are checked against the catalog closed
forms and the benchmark's references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import ClosedFormRecord
from .measures import Problem
from .propagation import FundamentalMatrix, _forward, segment_safe_entries

__all__ = [
    "OracleConfig",
    "fixed_step_propagate",
    "closed_form_eval",
    "ComparisonReport",
    "compare_propagators",
]


@dataclass(frozen=True)
class OracleConfig:
    step: float = 1e-4
    method: str = "rk4-fixed"  # or "midpoint"

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.method not in ("rk4-fixed", "midpoint"):
            raise ValueError(f"unknown oracle method {self.method!r}")


def _march(entries, state, x0, x1, h_max, method):
    """March the 4 complex components (u11, u21, u12, u22) from x0 to x1
    with a fixed step; plain Python complex arithmetic throughout."""
    length = x1 - x0
    if length == 0.0:
        return state
    entries = segment_safe_entries(entries, x0, x1)
    n = max(1, math.ceil(abs(length) / h_max))
    h = length / n
    u11, u21, u12, u22 = state

    def f(x, v11, v21, v12, v22):
        a11, a12, a21, a22 = entries(x)
        return (a11 * v11 + a12 * v21,
                a21 * v11 + a22 * v21,
                a11 * v12 + a12 * v22,
                a21 * v12 + a22 * v22)

    x = x0
    if method == "midpoint":
        for k in range(n):
            k1 = f(x, u11, u21, u12, u22)
            half = 0.5 * h
            k2 = f(x + half,
                   u11 + half * k1[0], u21 + half * k1[1],
                   u12 + half * k1[2], u22 + half * k1[3])
            u11 += h * k2[0]
            u21 += h * k2[1]
            u12 += h * k2[2]
            u22 += h * k2[3]
            x = x0 + (k + 1) * h
    else:  # classical RK4
        sixth = h / 6.0
        for k in range(n):
            k1 = f(x, u11, u21, u12, u22)
            half = 0.5 * h
            k2 = f(x + half,
                   u11 + half * k1[0], u21 + half * k1[1],
                   u12 + half * k1[2], u22 + half * k1[3])
            k3 = f(x + half,
                   u11 + half * k2[0], u21 + half * k2[1],
                   u12 + half * k2[2], u22 + half * k2[3])
            x = x0 + (k + 1) * h
            k4 = f(x,
                   u11 + h * k3[0], u21 + h * k3[1],
                   u12 + h * k3[2], u22 + h * k3[3])
            u11 += sixth * (k1[0] + 2 * (k2[0] + k3[0]) + k4[0])
            u21 += sixth * (k1[1] + 2 * (k2[1] + k3[1]) + k4[1])
            u12 += sixth * (k1[2] + 2 * (k2[2] + k3[2]) + k4[2])
            u22 += sixth * (k1[3] + 2 * (k2[3] + k3[3]) + k4[3])
    return (u11, u21, u12, u22)


def fixed_step_propagate(problem: Problem, lam, c,
                         config: OracleConfig = OracleConfig(),
                         grid=None) -> FundamentalMatrix:
    """Fixed-step analogue of fundamental_matrix: the same walker, so
    the same segmentation and atom transfers, with a naive march from
    each discontinuity or grid point to the next.  Values are exact only
    at the stored sample points (no dense interpolant)."""
    lam = complex(lam)
    c = float(c)
    inner = [p for p in problem.discontinuities if 0.0 < p < c]
    gaps = np.diff([0.0] + inner + [c])
    min_gap = float(np.min(gaps[gaps > 0])) if np.any(gaps > 0) else c
    if config.step > min_gap / 10.0:
        raise ValueError(
            f"oracle step {config.step} exceeds a tenth of the smallest "
            f"segment ({min_gap}); refine the step")
    entries = problem.system_matrix(lam)

    def solve(lo, hi, flat, t_eval):
        state = tuple(flat)     # (u11, u21, u12, u22)
        states = [state]
        for x0, x1 in zip(t_eval, t_eval[1:]):
            state = _march(entries, state, x0, x1, config.step, config.method)
            states.append(state)
        return np.array(states), None

    return _forward(problem, lam, c, [] if grid is None else grid, solve)


def closed_form_eval(record: ClosedFormRecord, quantity, *args):
    """Exact evaluation of a catalog closed form; raises
    UnknownQuantityError when the record lacks the quantity."""
    return record.eval(quantity, *args)


@dataclass(frozen=True)
class ComparisonReport:
    lam: complex
    c: float
    step: float
    method: str
    sample_points: tuple
    deviations: tuple
    max_relative_deviation: float

    def to_dict(self):
        return {
            "schema": "weyl-canon/oracle-compare/v1",
            "lambda": [self.lam.real, self.lam.imag],
            "c": self.c,
            "step": self.step,
            "method": self.method,
            "points": [{"x": x, "relativeDeviation": d}
                       for x, d in zip(self.sample_points, self.deviations)],
            "maxRelativeDeviation": self.max_relative_deviation,
        }


def compare_propagators(problem: Problem, lam, c, grid=None,
                        config: OracleConfig = OracleConfig()) -> ComparisonReport:
    """Frobenius-relative deviation between the adaptive propagator and
    the fixed-step oracle at the grid points."""
    from .propagation import fundamental_matrix

    lam = complex(lam)
    c = float(c)
    if grid is None:
        grid = np.linspace(c / 8.0, c, 8)
    grid = [float(x) for x in grid if 0.0 < float(x) <= c
            and float(x) not in problem.atom_positions]
    adaptive = fundamental_matrix(problem, lam, c, grid=grid)
    oracle = fixed_step_propagate(problem, lam, c, config, grid=grid)
    points = []
    deviations = []
    for x in grid:
        ua = adaptive.at(x)
        uo = oracle.at(x)
        scale = max(float(np.linalg.norm(ua)), 1e-300)
        points.append(x)
        deviations.append(float(np.linalg.norm(ua - uo)) / scale)
    return ComparisonReport(lam, c, config.step, config.method,
                            tuple(points), tuple(deviations),
                            max(deviations) if deviations else 0.0)
